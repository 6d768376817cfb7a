"""Tests for the stratified split, random forest, and metrics."""

import json

import numpy as np
import pytest

from flowclean.classify import (
    ForestModel,
    compute_metrics,
    evaluate,
    read_model,
    split,
    train,
    write_model,
)
from flowclean.errors import EmptyTest, LabelTooSmall, SingleClass
from flowclean.features import ALL_FEATURES, feature_matrix

from conftest import make_flow


def labeled_flows(label: str, n: int, base_id: int = 0, **overrides):
    return [make_flow(flow_id=base_id + i, app_label=label, **overrides)
            for i in range(n)]


def separable_flows(n_per_class: int = 20):
    """Two classes split cleanly by direction ratio."""
    dl = [make_flow(flow_id=i, app_label="dl",
                    bytes_in=9000 + 10 * i, bytes_out=100 + i)
          for i in range(n_per_class)]
    ul = [make_flow(flow_id=100 + i, app_label="ul",
                    bytes_in=100 + i, bytes_out=9000 + 10 * i)
          for i in range(n_per_class)]
    return dl + ul


# --- split --------------------------------------------------------------


def test_split_sizes_single_label():
    flows = labeled_flows("a", 100)
    train_set, test_set = split(flows, train_frac=0.75, seed=1)
    assert len(train_set) == 75
    assert len(test_set) == 25


def test_split_round_half_up_per_label():
    # 5 * 0.75 + 0.5 = 4.25 -> 4 train per label
    flows = []
    for i, label in enumerate("abcd"):
        flows += labeled_flows(label, 5, base_id=10 * i)
    train_set, test_set = split(flows, train_frac=0.75, seed=0)
    assert len(train_set) == 16 and len(test_set) == 4
    for label in "abcd":
        assert sum(f.app_label == label for f in train_set) == 4
        assert sum(f.app_label == label for f in test_set) == 1
    # 6 * 0.75 + 0.5 = 5.0 -> 5 train
    train6, test6 = split(labeled_flows("a", 6), train_frac=0.75, seed=0)
    assert (len(train6), len(test6)) == (5, 1)


def test_split_partition_is_disjoint_and_complete():
    flows = separable_flows(10)
    train_set, test_set = split(flows, seed=3)
    train_ids = {f.flow_id for f in train_set}
    test_ids = {f.flow_id for f in test_set}
    assert train_ids.isdisjoint(test_ids)
    assert train_ids | test_ids == {f.flow_id for f in flows}


def test_split_deterministic_and_seed_sensitive():
    flows = labeled_flows("a", 40)
    first = split(flows, seed=9)
    second = split(flows, seed=9)
    assert [f.flow_id for f in first[0]] == [f.flow_id for f in second[0]]
    other = split(flows, seed=10)
    assert [f.flow_id for f in other[0]] != [f.flow_id for f in first[0]]


def test_split_label_too_small():
    flows = labeled_flows("a", 4) + labeled_flows("b", 3, base_id=10)
    with pytest.raises(LabelTooSmall):
        split(flows)


def test_split_bad_fraction():
    flows = labeled_flows("a", 10)
    for frac in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            split(flows, train_frac=frac)


def test_split_unlabeled_flow():
    with pytest.raises(ValueError):
        split([make_flow(app_label=None)] * 5)


# --- train / predict ----------------------------------------------------


def test_train_separable_classes():
    flows = separable_flows()
    model = train(flows, n_trees=5, max_depth=4, seed=0)
    assert model.labels == ["dl", "ul"]
    predicted = model.predict(flows)
    actual = [f.app_label for f in flows]
    assert predicted == actual


def test_single_stump_uses_the_only_informative_feature():
    # every feature constant except duration_s
    short = [make_flow(flow_id=i, app_label="short",
                       first_ts_us=0, last_ts_us=(i + 1) * 100_000)
             for i in range(8)]
    long_ = [make_flow(flow_id=100 + i, app_label="long",
                       first_ts_us=0, last_ts_us=10_000_000 + i * 1_000_000)
             for i in range(8)]
    model = train(short + long_, n_trees=1, max_depth=1,
                  features_per_split=8, seed=5, bootstrap=False)
    tree = model.trees[0]
    duration_col = ALL_FEATURES.index("duration_s")
    assert tree.feature[0] == duration_col
    assert 0.8 < tree.threshold[0] < 10.0
    probe_short = make_flow(flow_id=500, first_ts_us=0, last_ts_us=2_000_000)
    probe_long = make_flow(flow_id=501, first_ts_us=0, last_ts_us=50_000_000)
    assert model.predict([probe_short, probe_long]) == ["short", "long"]


def test_train_deterministic():
    flows = separable_flows(15)
    a = train(flows, n_trees=8, seed=77)
    b = train(flows, n_trees=8, seed=77)
    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold)
        assert np.array_equal(ta.histogram, tb.histogram)


def test_train_seed_changes_forest():
    flows = separable_flows(15)
    a = train(flows, n_trees=4, seed=1)
    b = train(flows, n_trees=4, seed=2)
    assert any(
        not np.array_equal(ta.threshold, tb.threshold)
        or not np.array_equal(ta.feature, tb.feature)
        for ta, tb in zip(a.trees, b.trees)
    )


def test_train_single_class_raises():
    with pytest.raises(SingleClass):
        train(labeled_flows("only", 10))


def test_bootstrap_flag_changes_trees():
    flows = separable_flows(15)
    with_bs = train(flows, n_trees=3, seed=4, bootstrap=True)
    without = train(flows, n_trees=3, seed=4, bootstrap=False)
    assert any(
        not np.array_equal(ta.histogram, tb.histogram)
        for ta, tb in zip(with_bs.trees, without.trees)
    )


def test_min_leaf_respected():
    flows = separable_flows(10)
    model = train(flows, n_trees=3, min_leaf=5, seed=0, bootstrap=False)
    for tree in model.trees:
        for node in range(len(tree.feature)):
            if tree.feature[node] >= 0:
                left_n = tree.histogram[tree.left[node]].sum()
                right_n = tree.histogram[tree.right[node]].sum()
                assert left_n >= 5 and right_n >= 5


def test_predict_tie_breaks_to_first_label():
    # two trees voting for different classes: argmax picks the first
    # (lexicographically smallest) label
    flows = separable_flows(10)
    model = train(flows, n_trees=2, seed=0)
    votes = np.array([[1, 1]])
    assert model.labels[int(np.argmax(votes))] == model.labels[0]


def test_flow_features_shape():
    # the forest reads the 8 feature_matrix columns, in ALL_FEATURES order
    flows = separable_flows(5)
    x = feature_matrix(flows)
    assert x.shape == (10, len(ALL_FEATURES))
    model = train(flows, n_trees=3, seed=0)
    assert model.feature_names == list(ALL_FEATURES)
    assert model.predict(flows) == model.predict_matrix(x)


# --- metrics ------------------------------------------------------------


def test_compute_metrics_binary_oracle():
    actual = ["a"] * 10 + ["b"] * 10
    predicted = ["a"] * 8 + ["b"] * 2 + ["a"] * 3 + ["b"] * 7
    m = compute_metrics(actual, predicted)
    assert m.labels == ["a", "b"]
    assert m.confusion == [[8, 2], [3, 7]]
    assert m.accuracy == pytest.approx(0.75)
    assert m.macro_precision == pytest.approx((8 / 11 + 7 / 9) / 2)
    assert m.macro_recall == pytest.approx((0.8 + 0.7) / 2)


def test_compute_metrics_perfect():
    m = compute_metrics(["x", "y", "z"], ["x", "y", "z"])
    assert m.accuracy == 1.0
    assert m.macro_precision == 1.0
    assert m.macro_recall == 1.0
    assert m.confusion == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_compute_metrics_pair_order_invariant():
    rng = np.random.default_rng(0)
    actual = list("aabbbcac" * 5)
    predicted = list("abcbbaac" * 5)
    base = compute_metrics(actual, predicted)
    perm = rng.permutation(len(actual))
    shuffled = compute_metrics(
        [actual[i] for i in perm], [predicted[i] for i in perm]
    )
    assert shuffled.confusion == base.confusion
    assert shuffled.accuracy == base.accuracy
    assert shuffled.macro_precision == base.macro_precision


def test_compute_metrics_extra_labels_zero_rows():
    m = compute_metrics(["a", "a"], ["a", "a"], extra_labels=["zzz"])
    assert m.labels == ["a", "zzz"]
    assert m.confusion == [[2, 0], [0, 0]]
    # macro runs over labels present in actual only
    assert m.macro_precision == 1.0
    assert m.macro_recall == 1.0


def test_compute_metrics_predicted_only_label():
    m = compute_metrics(["a", "a"], ["a", "c"])
    assert m.labels == ["a", "c"]
    assert m.confusion == [[1, 1], [0, 0]]
    assert m.accuracy == 0.5
    assert m.macro_precision == 1.0  # a: 1 predicted, 1 correct
    assert m.macro_recall == 0.5


def test_compute_metrics_zero_denominator_precision():
    # b never predicted: precision(b) = 0 by convention, and "a"
    # collects both predictions so precision(a) = 1/2
    m = compute_metrics(["a", "b"], ["a", "a"])
    assert m.confusion == [[1, 0], [1, 0]]
    assert m.macro_precision == pytest.approx(0.25)
    assert m.macro_recall == pytest.approx(0.5)


def test_compute_metrics_errors():
    with pytest.raises(EmptyTest):
        compute_metrics([], [])
    with pytest.raises(ValueError):
        compute_metrics(["a"], ["a", "b"])


def test_metrics_json_keys(tmp_path):
    m = compute_metrics(["a", "b"], ["a", "b"], config={"n_trees": 3})
    path = tmp_path / "metrics.json"
    m.write_json(path)
    data = json.loads(path.read_text())
    assert set(data) == {
        "accuracy", "macro_precision", "macro_recall", "labels", "confusion", "config",
    }
    assert data["config"] == {"n_trees": 3}


def test_evaluate_end_to_end():
    flows = separable_flows(20)
    train_set, test_set = split(flows, seed=2)
    model = train(train_set, n_trees=5, seed=2)
    metrics = evaluate(model, test_set)
    assert metrics.accuracy == 1.0
    assert metrics.labels == ["dl", "ul"]
    assert metrics.config["n_trees"] == 5


def test_evaluate_empty_test():
    model = train(separable_flows(10), n_trees=2, seed=0)
    with pytest.raises(EmptyTest):
        evaluate(model, [])


# --- model persistence --------------------------------------------------


def test_model_json_round_trip(tmp_path):
    flows = separable_flows(15)
    model = train(flows, n_trees=6, seed=3)
    path = tmp_path / "model.json"
    write_model(model, path)
    loaded = read_model(path)
    assert isinstance(loaded, ForestModel)
    assert loaded.labels == model.labels
    assert loaded.config_dict() == model.config_dict()
    probes = separable_flows(7)
    assert loaded.predict(probes) == model.predict(probes)


def test_model_dump_deterministic(tmp_path):
    flows = separable_flows(12)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_model(train(flows, n_trees=4, seed=11), p1)
    write_model(train(flows, n_trees=4, seed=11), p2)
    assert p1.read_bytes() == p2.read_bytes()
