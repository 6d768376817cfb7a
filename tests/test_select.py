"""Tests for the selection rule DSL and the cleaning pipeline."""

import json

import numpy as np
import pytest

from flowclean.cluster import Algorithm
from flowclean.dpi import Blocklist, DEFAULT_BLOCKLIST
from flowclean.errors import InvariantViolation, ParseError
from flowclean.features import CLUSTER_FEATURES, feature_matrix
from flowclean.select import (
    Action,
    AppCounts,
    DEFAULT_POLICY,
    Predicate,
    Rule,
    SelectionPolicy,
    _nearest_rank,
    clean,
    evaluate,
    parse_rules,
    read_rules,
)
from flowclean.synth import default_scenario, generate

from conftest import make_flow


# --- parsing ------------------------------------------------------------


def test_parse_single_keep_rule():
    policy = parse_rules("keep ratio > 0.9")
    assert len(policy.rules) == 1
    rule = policy.rules[0]
    assert rule.action is Action.KEEP
    assert rule.predicates == (Predicate("ratio", ">", 0.9),)
    assert policy.default_action is Action.DROP


def test_parse_multi_predicate_and_default():
    policy = parse_rules(
        "# heartbeat killer\n"
        "drop duration_s > p75, bytes_out < p25\n"
        "\n"
        "default keep\n"
    )
    assert policy.default_action is Action.KEEP
    (rule,) = policy.rules
    assert rule.action is Action.DROP
    assert rule.predicates == (
        Predicate("duration_s", ">", None, 75.0),
        Predicate("bytes_out", "<", None, 25.0),
    )


def test_parse_uppercase_percentile():
    policy = parse_rules("keep bytes_in >= P50")
    assert policy.rules[0].predicates[0].percentile == 50.0


def test_parse_inline_comment_and_blank_lines():
    policy = parse_rules("\nkeep ratio >= 0.5  # download-ish\n\n")
    assert len(policy.rules) == 1
    assert policy.rules[0].predicates[0].threshold == 0.5


@pytest.mark.parametrize("text,fragment", [
    ("retain ratio > 0.9", "unknown action"),
    ("keep", "no predicates"),
    ("keep entropy > 0.9", "unknown feature"),
    ("keep ratio != 0.9", "unknown comparator"),
    ("keep ratio > fast", "malformed threshold"),
    ("keep ratio > p9x", "malformed percentile"),
    ("keep ratio > p150", "outside 0-100"),
    ("keep ratio > 0.9 0.8", "expected"),
    ("default maybe", "expected 'default"),
    ("default keep\nkeep ratio > 0.9", "last line"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc_info:
        parse_rules(text)
    assert fragment in str(exc_info.value)


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as exc_info:
        parse_rules("keep ratio > 0.9\nfoo ratio > 1")
    assert exc_info.value.line == 2
    assert str(exc_info.value) == "line 2: unknown action 'foo'"


def test_empty_policy_defaults_to_drop():
    policy = parse_rules("# nothing but comments\n")
    assert policy.rules == ()
    assert policy.default_action is Action.DROP


def test_rule_requires_predicates():
    with pytest.raises(ValueError):
        Rule(action=Action.KEEP, predicates=())


def test_read_rules(tmp_path):
    path = tmp_path / "policy.rules"
    path.write_text("drop bytes_out < 100\ndefault keep\n")
    policy = read_rules(path)
    assert policy.rules[0].action is Action.DROP
    assert policy.default_action is Action.KEEP


def test_builtin_policies():
    assert DEFAULT_POLICY.rules[0].predicates[0].feature == "ratio"
    assert DEFAULT_POLICY.default_action is Action.DROP
    heartbeat_drop = parse_rules("drop duration_s > p75, bytes_out < p25\ndefault keep")
    assert heartbeat_drop.default_action is Action.KEEP


# --- percentiles --------------------------------------------------------


def test_nearest_rank_values():
    col = np.array([10.0, 20.0, 30.0, 40.0])
    assert _nearest_rank(col, 25) == 10.0
    assert _nearest_rank(col, 50) == 20.0
    assert _nearest_rank(col, 75) == 30.0
    assert _nearest_rank(col, 100) == 40.0
    assert _nearest_rank(col, 0) == 10.0
    # 26% of 4 -> rank ceil(1.04) = 2
    assert _nearest_rank(col, 26) == 20.0


def test_nearest_rank_odd_length_and_order():
    col = np.array([3.0, 1.0, 2.0])
    assert _nearest_rank(col, 50) == 2.0
    assert _nearest_rank(col, 34) == 2.0  # ceil(1.02) = 2
    assert _nearest_rank(col, 33) == 1.0  # ceil(0.99) = 1


def test_nearest_rank_empty_column():
    with pytest.raises(ValueError):
        _nearest_rank(np.array([]), 50)


# --- evaluate -----------------------------------------------------------


def ratio_centroids(ratios):
    centroids = np.zeros((len(ratios), len(CLUSTER_FEATURES)))
    centroids[:, CLUSTER_FEATURES.index("ratio")] = ratios
    return centroids


def per_flow_fixture():
    return feature_matrix([
        make_flow(flow_id=0, bytes_in=9500, bytes_out=500),
        make_flow(flow_id=1, bytes_in=7000, bytes_out=3000),
        make_flow(flow_id=2, bytes_in=4000, bytes_out=6000),
    ])


def test_evaluate_default_policy_threshold():
    centroids = ratio_centroids([0.95, 0.40, -0.20])
    kept = evaluate(DEFAULT_POLICY, centroids, per_flow_fixture())
    assert kept == {0}


def test_evaluate_first_match_wins():
    policy = parse_rules("drop ratio > 0.9\nkeep ratio > 0.5\ndefault keep")
    centroids = ratio_centroids([0.95, 0.7, 0.1])
    kept = evaluate(policy, centroids, per_flow_fixture())
    # 0.95 hits the drop rule first; 0.7 hits keep; 0.1 falls to default
    assert kept == {1, 2}


def test_evaluate_empty_policy_uses_default():
    centroids = ratio_centroids([0.95, -0.5])
    assert evaluate(SelectionPolicy(rules=()), centroids, per_flow_fixture()) == set()
    assert evaluate(
        SelectionPolicy(rules=(), default_action=Action.KEEP),
        centroids,
        per_flow_fixture(),
    ) == {0, 1}


def test_evaluate_multi_predicate_conjunction():
    policy = parse_rules("keep ratio > 0.5, bytes_in > 100")
    centroids = np.zeros((2, len(CLUSTER_FEATURES)))
    centroids[:, CLUSTER_FEATURES.index("ratio")] = [0.9, 0.9]
    centroids[:, CLUSTER_FEATURES.index("bytes_in")] = [500.0, 50.0]
    assert evaluate(policy, centroids, per_flow_fixture()) == {0}


def test_evaluate_percentile_resolution():
    # per-flow bytes_in column: [9500, 7000, 4000]; p50 -> 7000
    policy = parse_rules("keep bytes_in >= p50")
    centroids = np.zeros((2, len(CLUSTER_FEATURES)))
    centroids[:, CLUSTER_FEATURES.index("bytes_in")] = [7000.0, 6999.0]
    assert evaluate(policy, centroids, per_flow_fixture()) == {0}


# --- clean --------------------------------------------------------------


@pytest.fixture(scope="module")
def small_capture():
    spec = default_scenario(n_apps=2, flows_per_app=120, seed=7)
    flows, roles = generate(spec)
    return flows, roles


def test_clean_counts_and_conservation(small_capture):
    flows, _ = small_capture
    cleaned, report = clean(flows, seed=7)
    assert sorted(report.apps) == ["app01", "app02"]
    for counts in report.apps.values():
        assert counts.input == 120
        assert counts.input == (
            counts.dpi_discarded + counts.flows_kept + counts.flows_dropped
        )
        # role mix 15% dns + 10% blocklisted tls are dpi kills
        assert counts.dpi_discarded == 30
        assert counts.clusters_formed == 4
        assert not counts.skipped
    assert len(cleaned) == report.totals().flows_kept
    assert report.totals().input == 240


def test_clean_removes_all_dns(small_capture):
    flows, _ = small_capture
    cleaned, _ = clean(flows, seed=7)
    assert all(f.dst_port != 53 for f in cleaned)


def test_clean_output_sorted_and_subset(small_capture):
    flows, _ = small_capture
    cleaned, _ = clean(flows, seed=7)
    ids = [(f.app_label, f.flow_id) for f in cleaned]
    assert ids == sorted(ids)
    all_ids = {f.flow_id for f in flows}
    assert all(f.flow_id in all_ids for f in cleaned)


def test_clean_thread_count_does_not_change_output(small_capture):
    flows, _ = small_capture
    single, report_1 = clean(flows, seed=7, threads=1)
    pooled, report_8 = clean(flows, seed=7, threads=8)
    assert [f.flow_id for f in single] == [f.flow_id for f in pooled]
    for label in report_1.apps:
        assert report_1.apps[label] == report_8.apps[label]


def test_clean_skip_dpi(small_capture):
    flows, _ = small_capture
    _, report = clean(flows, seed=7, skip_dpi=True)
    for counts in report.apps.values():
        assert counts.dpi_discarded == 0
        assert counts.flows_kept + counts.flows_dropped == counts.input


def test_app_counts_check_raises_on_lost_flows():
    AppCounts(input=3, dpi_discarded=1, flows_kept=1, flows_dropped=1).check("appx")
    with pytest.raises(InvariantViolation, match="appx: 3 flows in"):
        AppCounts(input=3, flows_kept=1).check("appx")


def test_clean_empty_input():
    cleaned, report = clean([])
    assert cleaned == []
    assert report.apps == {}
    assert report.totals().input == 0


def test_clean_unlabeled_flow_raises():
    with pytest.raises(ValueError):
        clean([make_flow(app_label=None)])


def test_clean_small_app_skipped():
    # 3 identical-ish flows cannot form k=4 clusters
    flows = [make_flow(flow_id=i, app_label="tiny", bytes_in=1000 + i)
             for i in range(3)]
    cleaned, report = clean(flows, blocklist=Blocklist.of(), k=4)
    assert cleaned == []
    counts = report.apps["tiny"]
    assert counts.skipped
    assert counts.flows_dropped == 3
    assert counts.clusters_formed == 0


def test_clean_skipped_app_does_not_block_others(small_capture):
    flows, _ = small_capture
    tiny = [make_flow(flow_id=10_000 + i, app_label="zzz-tiny") for i in range(3)]
    cleaned, report = clean(flows + tiny, seed=7)
    assert report.apps["zzz-tiny"].skipped
    assert report.apps["app01"].flows_kept > 0
    assert all(f.app_label != "zzz-tiny" for f in cleaned)


def test_clean_default_keep_policy_keeps_survivors(small_capture):
    flows, _ = small_capture
    keep_all = SelectionPolicy(rules=(), default_action=Action.KEEP)
    cleaned, report = clean(flows, policy=keep_all, seed=7)
    for counts in report.apps.values():
        assert counts.flows_dropped == 0
        assert counts.flows_kept == counts.input - counts.dpi_discarded
    assert len(cleaned) == report.totals().flows_kept


def test_clean_hierarchical_algorithm(small_capture):
    flows, _ = small_capture
    cleaned, report = clean(flows, algorithm=Algorithm.HIERARCHICAL, seed=7)
    assert len(cleaned) > 0
    for counts in report.apps.values():
        assert counts.clusters_formed == 4


def test_clean_report_json_shape(tmp_path, small_capture):
    flows, _ = small_capture
    tiny = [make_flow(flow_id=20_000 + i, app_label="zz-small") for i in range(2)]
    _, report = clean(flows + tiny, seed=7, k=4)
    path = tmp_path / "report.json"
    report.write_json(path)
    data = json.loads(path.read_text())
    assert set(data) == {"apps", "timings_ms"}
    assert set(data["apps"]) == {"app01", "app02", "zz-small"}
    normal = data["apps"]["app01"]
    assert set(normal) == {
        "input", "dpi_discarded", "clusters_formed", "flows_kept", "flows_dropped",
    }
    skipped = data["apps"]["zz-small"]
    assert skipped["skipped"] is True
    stages = set(data["timings_ms"])
    assert {"dpi", "features", "cluster", "select", "total"} <= stages


def test_clean_deterministic_across_runs(small_capture):
    flows, _ = small_capture
    first, _ = clean(flows, seed=7)
    second, _ = clean(flows, seed=7)
    assert [f.flow_id for f in first] == [f.flow_id for f in second]


def test_clean_blocklist_affects_dpi_counts(small_capture):
    flows, _ = small_capture
    _, with_default = clean(flows, seed=7)
    _, without = clean(flows, blocklist=Blocklist.of(), seed=7)
    for label in with_default.apps:
        assert (
            without.apps[label].dpi_discarded
            < with_default.apps[label].dpi_discarded
        )
