"""Tests for the selection rule DSL and the cleaning pipeline."""

import functools
import hashlib
import json
import logging
import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, strategies as st

import flowclean.select as select_mod
from flowclean.classify import dataset
from flowclean.cluster import Algorithm, hierarchical, kmeans
from flowclean.dpi import Blocklist, DEFAULT_BLOCKLIST, filter_flows
from flowclean.errors import (
    CounterOutOfRange,
    EmptyFlow,
    InvariantViolation,
    ParseError,
    SchemaMismatch,
    UnclusterableMatrix,
)
from flowclean.features import CLUSTER_FEATURES, destandardize, feature_matrix, standardize
from flowclean.ingest import index_flow_table, write_flow_table
from flowclean.select import (
    Action,
    AppCounts,
    CleanReport,
    DEFAULT_POLICY,
    Predicate,
    Rule,
    SelectionPolicy,
    _nearest_rank,
    clean,
    clean_table,
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
    ("keep ratio > 0.9\ndrop ratio <= nan\ndefault keep", "line 2: threshold 'nan'"),
    ("keep bytes_in >= -NaN", "is not a number"),
])
def test_parse_errors(tmp_path, text, fragment):
    with pytest.raises(ParseError) as exc_info:
        parse_rules(text)
    assert fragment in str(exc_info.value)
    # read from a file, the same error names the file beside the line
    path = tmp_path / "policy.rules"
    path.write_text(text + "\n")
    with pytest.raises(ParseError) as from_file:
        read_rules(path)
    line = exc_info.value.line
    assert from_file.value.line == line
    assert str(from_file.value) == f"{path}:{line}: {exc_info.value.reason}"
    assert fragment.removeprefix(f"line {line}: ") in str(from_file.value)


def test_parse_infinite_thresholds():
    policy = parse_rules("keep ratio < inf, bytes_in > -inf")
    assert [p.threshold for p in policy.rules[0].predicates] == [math.inf, -math.inf]


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
    decided = evaluate(DEFAULT_POLICY, centroids, per_flow_fixture())
    assert decided.tolist() == [0, -1, -1]


def test_evaluate_first_match_wins():
    policy = parse_rules("drop ratio > 0.9\nkeep ratio > 0.5\ndefault keep")
    centroids = ratio_centroids([0.95, 0.7, 0.1])
    decided = evaluate(policy, centroids, per_flow_fixture())
    # 0.95 hits the drop rule first; 0.7 hits keep; 0.1 falls to default
    assert decided.tolist() == [0, 1, -1]


def test_evaluate_empty_policy_uses_default():
    centroids = ratio_centroids([0.95, -0.5])
    for default in Action:
        policy = SelectionPolicy(rules=(), default_action=default)
        assert evaluate(policy, centroids, per_flow_fixture()).tolist() == [-1, -1]


def test_evaluate_multi_predicate_conjunction():
    policy = parse_rules("keep ratio > 0.5, bytes_in > 100")
    centroids = np.zeros((2, len(CLUSTER_FEATURES)))
    centroids[:, CLUSTER_FEATURES.index("ratio")] = [0.9, 0.9]
    centroids[:, CLUSTER_FEATURES.index("bytes_in")] = [500.0, 50.0]
    assert evaluate(policy, centroids, per_flow_fixture()).tolist() == [0, -1]


def test_evaluate_percentile_resolution():
    # per-flow bytes_in column: [9500, 7000, 4000]; p50 -> 7000
    policy = parse_rules("keep bytes_in >= p50")
    centroids = np.zeros((2, len(CLUSTER_FEATURES)))
    centroids[:, CLUSTER_FEATURES.index("bytes_in")] = [7000.0, 6999.0]
    assert evaluate(policy, centroids, per_flow_fixture()).tolist() == [0, -1]


def evaluate_oracle(policy, centroids_raw, per_flow):
    """The per-cluster loop evaluate replaced: (rule index or -1, kept ids).

    Resolves every threshold again for every cluster, with its own
    nearest-rank percentile, and compares Python floats one at a time.
    """
    compare = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }
    decided, kept = [], set()
    for cid, centroid in enumerate(centroids_raw):
        index, action = -1, policy.default_action
        for i, rule in enumerate(policy.rules):
            matched = True
            for pred in rule.predicates:
                c = CLUSTER_FEATURES.index(pred.feature)
                threshold = pred.threshold
                if pred.percentile is not None:
                    ordered = sorted(float(v) for v in per_flow[:, c])
                    rank = max(1, math.ceil(pred.percentile / 100.0 * len(ordered)))
                    threshold = ordered[min(rank, len(ordered)) - 1]
                if not compare[pred.comparator](float(centroid[c]), threshold):
                    matched = False
                    break
            if matched:
                index, action = i, rule.action
                break
        decided.append(index)
        if action is Action.KEEP:
            kept.add(cid)
    return decided, kept


_values = st.sampled_from([-2.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(-10.0, 10.0)


def _matrix(draw, values, rows):
    cells = rows * len(CLUSTER_FEATURES)
    drawn = draw(st.lists(values, min_size=cells, max_size=cells))
    return np.array(drawn, dtype=np.float64).reshape(rows, len(CLUSTER_FEATURES))


@st.composite
def policy_and_arrays(draw):
    per_flow = _matrix(draw, _values, draw(st.integers(1, 6)))
    # thresholds and centroid values come partly from per_flow, so
    # centroids sit exactly on literal and pNN thresholds
    pool = _values | st.sampled_from(per_flow.ravel().tolist())
    feature = st.sampled_from(CLUSTER_FEATURES)
    comparator = st.sampled_from(["<", "<=", ">", ">="])
    percentile = st.integers(0, 100).map(float) | st.floats(0.0, 100.0)
    predicate = st.builds(Predicate, feature, comparator, pool) | st.builds(
        Predicate, feature, comparator, st.none(), percentile
    )
    rules = draw(st.lists(
        st.builds(
            Rule,
            action=st.sampled_from(Action),
            predicates=st.lists(predicate, min_size=1, max_size=3).map(tuple),
        ),
        min_size=1,
        max_size=4,
    ))
    policy = SelectionPolicy(
        rules=tuple(rules), default_action=draw(st.sampled_from(Action))
    )
    centroids = _matrix(draw, pool, draw(st.integers(1, 8)))
    return policy, centroids, per_flow


@given(policy_and_arrays())
def test_evaluate_matches_per_cluster_oracle(case):
    policy, centroids, per_flow = case
    decided = evaluate(policy, centroids, per_flow)
    expected_decided, expected_kept = evaluate_oracle(policy, centroids, per_flow)
    assert decided.tolist() == expected_decided
    # the keep mask the cleaner builds: index -1 picks the default
    keeps = np.array(
        [rule.action is Action.KEEP for rule in policy.rules]
        + [policy.default_action is Action.KEEP]
    )
    assert set(np.flatnonzero(keeps[decided]).tolist()) == expected_kept


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
    assert all(f.key.server_port != 53 for f in cleaned)


def test_clean_output_sorted_and_subset(small_capture):
    flows, _ = small_capture
    cleaned, _ = clean(flows, seed=7)
    ids = [(f.app_label, f.flow_id) for f in cleaned]
    assert ids == sorted(ids)
    all_ids = {f.flow_id for f in flows}
    assert all(f.flow_id in all_ids for f in cleaned)


def test_clean_thread_count_does_not_change_output(small_capture, many_cpus):
    flows, _ = small_capture
    # a third app that is skipped after filtering
    flows = flows + [make_flow(flow_id=10_000 + i, app_label="app03") for i in range(3)]
    for algorithm in Algorithm:
        for skip_dpi in (False, True):
            runs = []
            for threads in (1, 2, 8):
                cleaned, report = clean(flows, algorithm=algorithm, seed=7,
                                        skip_dpi=skip_dpi, threads=threads)
                document = report.to_json_dict()
                del document["timings_ms"]
                runs.append(([(f.app_label, f.flow_id) for f in cleaned],
                             report.apps, document))
            assert runs[0][0] and runs[0][2]["apps"]["app03"]["skipped"]
            assert runs[1] == runs[0]
            assert runs[2] == runs[0]


def test_clean_warns_of_skipped_apps_in_label_order(small_capture, many_cpus, caplog):
    flows, _ = small_capture
    tiny = [make_flow(flow_id=10_000 + i, app_label=label)
            for label in ("zz-tiny", "aa-tiny") for i in range(3)]
    with caplog.at_level(logging.WARNING, logger="flowclean.select"):
        clean(tiny + flows, seed=7, threads=2)
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "aa-tiny: 3 flows after filtering, need at least 4"),
        ("WARNING", "zz-tiny: 3 flows after filtering, need at least 4"),
    ]


def _boom(*args, **kwargs):
    raise InvariantViolation("boom")


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_worker_error_reaches_clean_and_no_child_is_left(
    small_capture, many_cpus, monkeypatch
):
    flows, _ = small_capture
    clean(flows, seed=7, threads=2)
    assert multiprocessing.active_children() == []
    # patched before the pool forks, so every worker inherits it
    monkeypatch.setattr(select_mod, "kmeans", _boom)
    with pytest.raises(InvariantViolation, match="^boom$") as exc_info:
        clean(flows, seed=7, threads=2)
    # the traceback came back from a worker process
    assert type(exc_info.value.__cause__).__name__ == "_RemoteTraceback"
    assert multiprocessing.active_children() == []


def _unclusterable(values, *args):
    raise UnclusterableMatrix(f"{len(values)} rows")


def _app(label: str, first_id: int, n: int, empty_at: int | None = None) -> list:
    """n flows of app label with features that differ per flow; the flow at
    empty_at has no packets, which feature_matrix rejects."""
    return [
        make_flow(
            flow_id=first_id + i,
            app_label=label,
            bytes_in=1000 * (i % 7 + 1),
            packets_in=0 if i == empty_at else i % 5 + 1,
            packets_out=0 if i == empty_at else 3,
        )
        for i in range(n)
    ]


def _chunks_of(patch, size: int) -> None:
    """Cut a table's phase 1 into chunks of size records. clean(flows) runs
    phase 1 on all its flows at once, so only clean_table reads this."""
    patch.setattr(select_mod, "_chunk_size", lambda flows, workers: size)


def _table_run(tmp_path, chunk_size: int, threads: int):
    """A run(flows, **options) that returns what clean(flows, **options)
    returns, by clean_table on a table of the flows whose phase 1 is cut
    into chunks of chunk_size records, at `threads` workers."""

    def run(flows, **options):
        path = tmp_path / "flows.csv"
        write_flow_table(flows, path)
        with pytest.MonkeyPatch.context() as patch:
            _chunks_of(patch, chunk_size)
            (apps, _), report = clean_table(index_flow_table(path), threads=threads, **options)
        # records are (start, stop, line) rows; line 1 is the header
        return [flows[line - 2] for app in apps for line in app[:, 2].tolist()], report

    return run


# A table holds no flow without packets, no counter past float64's range
# and no repeated flow_id: on a table of such flows the lowest such line is
# the error, before any app's error or unlabeled flow (clean_table). So
# where these tests give chunk_size, clean_table runs where a table holds
# the flows, and each fault a table does not hold is asserted as the line
# that names it.


@pytest.mark.parametrize("chunk_size", [None, 1])
@pytest.mark.parametrize("threads", [1, 2])
def test_clean_raises_the_first_apps_error_in_label_order(
    tmp_path, many_cpus, monkeypatch, threads, chunk_size
):
    monkeypatch.setattr(select_mod, "kmeans", _unclusterable)
    if chunk_size is None:
        run = functools.partial(clean, threads=threads)
        # app a fails in clustering, app b in its features; b comes first in the input
        with pytest.raises(UnclusterableMatrix, match="^9 rows$"):
            run(_app("b", 100, 8, empty_at=6) + _app("a", 0, 9))
        # app a fails in its features, app b in clustering
        with pytest.raises(EmptyFlow, match="^flow 7 has no packets$"):
            run(_app("b", 100, 8) + _app("a", 0, 9, empty_at=7))
        # a flow without packets is no error in an app too small to cluster
        small_b = _app("b", 100, 3, empty_at=2)
    else:
        run = _table_run(tmp_path, chunk_size, threads)
        # both apps fail in clustering; b comes first in the table
        with pytest.raises(UnclusterableMatrix, match="^9 rows$"):
            run(_app("b", 100, 8) + _app("a", 0, 9))
        with pytest.raises(SchemaMismatch, match="line 17: flow 7 has no packets$"):
            run(_app("b", 100, 8) + _app("a", 0, 9, empty_at=7))
        small_b = _app("b", 100, 3)
    cleaned, report = run(
        small_b + _app("a", 0, 9), k=4, seed=7,
        policy=parse_rules("default keep"), algorithm=Algorithm.HIERARCHICAL,
    )
    assert report.apps["b"].skipped and report.apps["b"].flows_dropped == 3
    assert [f.flow_id for f in cleaned] == list(range(9))


@pytest.mark.parametrize("chunk_size", [None, 1])
@pytest.mark.parametrize("threads", [1, 2])
def test_clean_names_the_first_counter_out_of_float64_range(
    tmp_path, many_cpus, threads, chunk_size
):
    flows = _app("b", 100, 8) + _app("a", 0, 9)
    flows[3] = flows[3]._replace(payload_bytes_total=10**400)
    flows[12] = flows[12]._replace(bytes_in=2**1024)
    if chunk_size is None:
        with pytest.raises(CounterOutOfRange, match="^flow 103: payload_bytes_total is out "
                                                    "of float64's range$"):
            clean(flows, threads=threads)
        with pytest.raises(CounterOutOfRange,
                           match="^flow 4: bytes_in is out of float64's range$"):
            clean(flows[8:], threads=threads)
    else:
        run = _table_run(tmp_path, chunk_size, threads)
        # flow 103's row is line 5, and flow 4's line 14, or line 6 of flows[8:]
        with pytest.raises(SchemaMismatch, match="line 5: payload_bytes_total is out of "
                                                 "float64's range$"):
            run(flows)
        with pytest.raises(SchemaMismatch, match="line 6: bytes_in is out of float64's range$"):
            run(flows[8:])


@pytest.mark.parametrize("chunk_size", [None, 1])
@pytest.mark.parametrize("threads", [1, 2])
def test_clean_and_dataset_name_the_unlabeled_flow_before_a_counter_out_of_range(
    tmp_path, many_cpus, threads, chunk_size
):
    flows = _app("b", 0, 6) + [make_flow(flow_id=6, app_label="a", bytes_in=10**400),
                               make_flow(flow_id=10, app_label=None)]
    if chunk_size is None:
        for run in (lambda: clean(flows, threads=threads), lambda: dataset(flows)):
            with pytest.raises(ValueError, match="^flow 10 has no app label$"):
                run()
    else:
        # on a table the counter's line 8 comes first; without it, the unlabeled flow
        table = _table_run(tmp_path, chunk_size, threads)
        with pytest.raises(SchemaMismatch, match="line 8: bytes_in is out of float64's range$"):
            table(flows)
        with pytest.raises(ValueError, match="^flow 10 has no app label$"):
            table(flows[:6] + flows[7:])


def reference_clean(
    flows,
    blocklist=DEFAULT_BLOCKLIST,
    policy=DEFAULT_POLICY,
    algorithm=Algorithm.KMEANS,
    k=4,
    seed=42,
    skip_dpi=False,
):
    """The flows clean keeps and a report of its per-app counts, as clean
    made them with one item per app: the flows grouped by label, each app
    in label order filtered, featurized, standardized, clustered and
    selected, and the kept flows sorted by (app_label, flow_id)."""
    by_app = {}
    for flow in flows:
        if not flow.app_label:
            raise ValueError(f"flow {flow.flow_id} has no app label")
        by_app.setdefault(flow.app_label, []).append(flow)
    cleaned, apps = [], {}
    keeps = [rule.action is Action.KEEP for rule in policy.rules]
    keeps.append(policy.default_action is Action.KEEP)  # index -1: the default
    for label in sorted(by_app):
        app = by_app[label]
        survivors = app if skip_dpi else filter_flows(app, blocklist)[0]
        counts = apps[label] = AppCounts(input=len(app), dpi_discarded=len(app) - len(survivors))
        if len(survivors) < max(k, 2):
            counts.skipped, counts.flows_dropped = True, len(survivors)
            continue
        raw = feature_matrix(survivors)  # an app too small to cluster never gets here
        z, means, stds = standardize(raw[:, : len(CLUSTER_FEATURES)])
        model = kmeans(z, k, seed) if algorithm is Algorithm.KMEANS else hierarchical(z, k)
        decided = evaluate(policy, destandardize(model.centroids, means, stds), raw)
        kept = [flow for flow, c in zip(survivors, model.assignments) if keeps[decided[c]]]
        counts.clusters_formed = model.k
        counts.flows_kept, counts.flows_dropped = len(kept), len(survivors) - len(kept)
        cleaned.extend(kept)
    cleaned.sort(key=lambda flow: (flow.app_label, flow.flow_id))
    return cleaned, CleanReport(apps=apps)


def _outcome(run, flows, **options):
    """run's kept flows and per-app counts, or the type and text of its error."""
    try:
        cleaned, report = run(flows, **options)
    except (ValueError, EmptyFlow) as exc:
        return type(exc), str(exc)
    return cleaned, report.apps


def _ids_repeat(label: str, n: int) -> list:
    """n flows of app label whose flow_ids repeat: 0, 1, 2, 0, 1, 2, ..."""
    return [make_flow(flow_id=i % 3, app_label=label, bytes_in=1000 * (i % 7 + 1),
                      packets_in=i % 5 + 1) for i in range(n)]


def _interleave(*apps: list) -> list:
    return [flow for group in zip(*apps) for flow in group]


# the no-packet flow of a skipped app (b) sits between flows of a clustered one
_SKIPPED_EMPTY = _interleave(_app("a", 0, 3), _app("b", 100, 3, empty_at=1)) + _app("a", 3, 6)
_ENGINE_CASES = {
    "runs cut by chunks": _app("b", 0, 9) + _app("a", 9, 6) + _app("c", 15, 8),
    "interleaved apps": _interleave(_app("b", 0, 9), _app("a", 100, 9), _app("c", 50, 9)),
    "no packets in a skipped app": _SKIPPED_EMPTY,
    "no packets in a clustered app": _app("a", 0, 9) + _app("b", 100, 9, empty_at=4),
    "flow_ids that repeat": _interleave(_ids_repeat("b", 40), _ids_repeat("a", 40)),
    # flow_ids past int64 and below 0, which no 64-bit integer type holds, in falling order
    "flow_ids past int64": _app("b", 2**63, 9)[::-1] + _app("a", -9, 9)[::-1],
    "no label": _app("b", 0, 9) + [make_flow(flow_id=77, app_label=None)] + _app("a", 9, 5),
    "empty label": _app("b", 0, 9, empty_at=2) + [make_flow(flow_id=78, app_label="")],
}


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
@pytest.mark.parametrize("case", ["small_capture", *_ENGINE_CASES])
def test_clean_matches_the_reference_at_any_chunk_size(
    tmp_path, small_capture, many_cpus, case, algorithm
):
    """One to three workers give reference_clean's kept flows and per-app
    counts, or its error; and so does clean_table on a table of the same
    flows, in chunks of 1, 7 and all records, where a table holds them:
    every flow has packets, and no flow_id repeats."""
    flows = small_capture[0] if case == "small_capture" else _ENGINE_CASES[case]
    options = dict(algorithm=algorithm, seed=7, policy=parse_rules("keep ratio > 0.5"))
    expected = _outcome(reference_clean, flows, **options)
    assert _outcome(clean, flows, **options) == expected
    for threads in (1, 2, 3):
        assert _outcome(clean, flows, threads=threads, **options) == expected
    ids = [flow.flow_id for flow in flows]
    if all(flow.packets_in + flow.packets_out for flow in flows) and len(set(ids)) == len(ids):
        for size in (1, 7, 10**9):
            for threads in (1, 2, 3):
                run = _table_run(tmp_path, size, threads)
                assert _outcome(run, flows, **options) == expected


@pytest.mark.parametrize("threads", [0, -3])
def test_clean_rejects_fewer_than_one_thread(small_capture, threads):
    flows, _ = small_capture
    with pytest.raises(ValueError, match=rf"^threads must be >= 1, got {threads}$"):
        clean(flows, seed=7, threads=threads)


@pytest.mark.parametrize("k", [0, -1])
def test_clean_rejects_k_below_one_before_any_app_runs(monkeypatch, k):
    monkeypatch.setattr(select_mod, "fork_map", lambda *args: pytest.fail("apps ran"))
    with pytest.raises(ValueError, match=rf"^k must be >= 1, got {k}$"):
        # the unlabeled flow fails later than the k check
        clean([make_flow(flow_id=1, app_label=None)], k=k)


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


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda option: option.value)
def test_clean_and_clean_table_take_algorithm_by_value(tmp_path, small_capture, algorithm):
    flows, _ = small_capture
    for run in (clean, _table_run(tmp_path, 10**9, 1)):
        cleaned, report = run(flows, algorithm=algorithm, seed=7)
        by_value, by_value_report = run(flows, algorithm=algorithm.value, seed=7)
        assert (by_value, by_value_report.apps) == (cleaned, report.apps)


@pytest.mark.parametrize("name", ["k-means", "Hier", "ward"])
def test_clean_and_clean_table_refuse_an_unknown_algorithm_before_phase_1(
    tmp_path, monkeypatch, small_capture, name
):
    flows, _ = small_capture
    path = tmp_path / "flows.csv"
    write_flow_table(flows, path)
    table = index_flow_table(path)
    monkeypatch.setattr(select_mod, "_flow_rows", lambda *args: pytest.fail("phase 1 ran"))
    monkeypatch.setattr(select_mod, "_parse_table", lambda *args: pytest.fail("phase 1 ran"))
    for run, data in ((clean, flows), (clean_table, table)):
        with pytest.raises(
            ValueError, match=rf"^unknown algorithm '{name}', expected kmeans or hier$"
        ):
            run(data, algorithm=name)
        # Ward is the only hierarchical linkage, so none is taken
        with pytest.raises(TypeError):
            run(data, algorithm=Algorithm.HIERARCHICAL, linkage=name)


# sha256 of the cleaned flow table of the default scenario at 5 x 600
_HIER_CLEAN_SHA256 = "5b83784e5ef130ff15672a802fca64497f659ef5943f240fe337a2dd3968ea27"


@pytest.fixture(scope="module")
def table_5x600():
    flows, _ = generate(default_scenario(flows_per_app=600))
    return flows


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_hier_clean_output_is_pinned(tmp_path, many_cpus, table_5x600, threads):
    # pins every merge the nearest-neighbor chain makes on real features,
    # ties included, through the whole clean
    cleaned, _ = clean(table_5x600, algorithm=Algorithm.HIERARCHICAL, threads=threads)
    write_flow_table(cleaned, tmp_path / "cleaned.csv")
    digest = hashlib.sha256((tmp_path / "cleaned.csv").read_bytes()).hexdigest()
    assert digest == _HIER_CLEAN_SHA256


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
