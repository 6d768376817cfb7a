"""Tests for the stratified split, random forest, and metrics."""

import _thread
import json
import multiprocessing
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowclean.classify as classify_mod
from flowclean import parallel
from flowclean.classify import (
    ForestModel,
    _Tree,
    _sample_features,
    compute_metrics,
    evaluate,
    read_model,
    split,
    train,
    write_model,
)
from flowclean.errors import EmptyTest, LabelTooSmall, SingleClass
from flowclean.features import ALL_FEATURES, feature_matrix
from flowclean.rng import derive

from conftest import make_flow
from scalar_rng import ScalarStream


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


@pytest.mark.parametrize(
    "param, value",
    [
        ("n_trees", 0),
        ("max_depth", 0),
        ("min_leaf", 0),
        ("features_per_split", 0),
        ("features_per_split", len(ALL_FEATURES) + 1),
        ("workers", 0),
    ],
)
def test_train_rejects_bad_hyperparameters(param, value):
    with pytest.raises(ValueError, match=rf"{param} .*got {value}$"):
        train(separable_flows(5), **{param: value})


class _TreeBuilder:
    """Oracle: the forest's trees grown one node at a time, in preorder.

    Each node's split search sorts the node's rows once for its sampled
    features and scores every cut with class-count cumsums; the
    lockstep grower must build the same trees.
    """

    def __init__(self, x, y, n_classes, max_depth, min_leaf, features_per_split, rng):
        self.x = x
        self.y = y
        self.n_classes = n_classes
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.features_per_split = features_per_split
        self.rng = rng
        self.one_hot = np.eye(n_classes, dtype=np.float64)
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.histogram: list[np.ndarray] = []

    def build(self, indices: np.ndarray, depth: int) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        y_node = self.y[indices]
        hist = np.bincount(y_node, minlength=self.n_classes)
        self.histogram.append(hist)
        if (
            depth >= self.max_depth
            or len(indices) < 2 * self.min_leaf
            or np.count_nonzero(hist) <= 1
        ):
            return node
        found = self._best_split(indices, y_node, hist)
        if found is None:
            return node
        feat, thr = found
        mask = self.x[indices, feat] <= thr
        self.feature[node] = feat
        self.threshold[node] = thr
        self.left[node] = self.build(indices[mask], depth + 1)
        self.right[node] = self.build(indices[~mask], depth + 1)
        return node

    def _best_split(self, indices, y_node, hist):
        # Score scale: n * weighted Gini, cheaper and order-equivalent;
        # strict < lets the first sampled feature win a tie.
        n = len(indices)
        totals = hist.astype(np.float64)
        parent = n - float(totals @ totals) / n
        feats = self.rng.sample_indices(self.x.shape[1], self.features_per_split)
        columns = np.arange(len(feats))
        xf = self.x[indices[:, None], feats]
        order = np.argsort(xf, axis=0)
        xs = xf[order, columns]
        # cut i puts sorted rows 0..i left: i + 1 rows left, n - i - 1 right
        lo, hi = self.min_leaf - 1, n - self.min_leaf
        cum = np.cumsum(self.one_hot[y_node[order[:hi]]], axis=0)
        left = cum[lo:]
        right = totals - left
        nl = np.arange(lo + 1, hi + 1, dtype=np.float64)[:, None]
        nr = n - nl
        score = (
            nl
            - np.einsum("ijk,ijk->ij", left, left) / nl
            + nr
            - np.einsum("ijk,ijk->ij", right, right) / nr
        )
        score = np.where(xs[lo + 1 : hi + 1] > xs[lo:hi], score, np.inf)
        pos = np.argmin(score, axis=0)
        best_score = parent - 1e-12
        best = -1
        for col, col_score in enumerate(score[pos, columns].tolist()):
            if col_score < best_score:
                best_score = col_score
                best = col
        if best < 0:
            return None
        cut = lo + pos[best]
        return feats[best], float((xs[cut, best] + xs[cut + 1, best]) / 2.0)

    def finish(self) -> _Tree:
        return _Tree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            histogram=np.array(self.histogram, dtype=np.int64),
        )


def oracle_trees(flows, n_trees, max_depth=16, min_leaf=2, features_per_split=3,
                 seed=42, bootstrap=True, builder=_TreeBuilder):
    """train's trees, each grown by builder from its stream derive(seed, t)."""
    labels = sorted({f.app_label for f in flows})
    x = feature_matrix(flows)
    y = np.array([labels.index(f.app_label) for f in flows], dtype=np.int64)
    n = len(flows)
    trees = []
    for t in range(n_trees):
        rng = ScalarStream(derive(seed, t))
        if bootstrap:
            sample = np.array([rng.next_u64() % n for _ in range(n)], dtype=np.int64)
        else:
            sample = np.arange(n)
        tree = builder(x[sample], y[sample], len(labels), max_depth, min_leaf,
                       features_per_split, rng)
        tree.build(np.arange(n), 0)
        trees.append(tree.finish())
    return trees


class _PerFeatureBuilder(_TreeBuilder):
    """Oracle: the split search as a loop over the sampled features.

    One argsort, cumsum and pair of einsums per feature over every cut,
    masked to valid cuts; the batched search must build the same trees.
    """

    def _best_split(self, indices, y_node, hist):
        n = len(indices)
        totals = hist.astype(np.float64)
        parent = n - float(totals @ totals) / n
        feats = self.rng.sample_indices(self.x.shape[1], self.features_per_split)
        best_score = parent - 1e-12
        best = None
        nl = np.arange(1, n, dtype=np.float64)
        nr = n - nl
        for feat in feats:
            xf = self.x[indices, feat]
            order = np.argsort(xf, kind="stable")
            xs = xf[order]
            if xs[0] == xs[-1]:
                continue
            cum = np.cumsum(self.one_hot[self.y[indices][order]], axis=0)
            left = cum[:-1]
            right = totals[None, :] - left
            score = (
                nl
                - np.einsum("ij,ij->i", left, left) / nl
                + nr
                - np.einsum("ij,ij->i", right, right) / nr
            )
            valid = (xs[1:] > xs[:-1]) & (nl >= self.min_leaf) & (nr >= self.min_leaf)
            if not np.any(valid):
                continue
            score = np.where(valid, score, np.inf)
            pos = int(np.argmin(score))
            if score[pos] < best_score:
                best_score = float(score[pos])
                best = (int(feat), float((xs[pos] + xs[pos + 1]) / 2.0))
        return best


# small counters, so feature values repeat; frozen fields make constant
# columns, and rows drawn from a few templates make duplicate rows
_COUNTER_FIELDS = ("bytes_in", "bytes_out", "packets_in", "packets_out",
                   "last_ts_us", "header_bytes_total", "payload_bytes_total")
_TEMPLATE = st.fixed_dictionaries({
    "bytes_in": st.integers(0, 3),
    "bytes_out": st.integers(0, 3),
    "packets_in": st.integers(1, 2),
    "packets_out": st.integers(0, 2),
    "last_ts_us": st.sampled_from([0, 1_000_000, 2_000_000]),
    "header_bytes_total": st.integers(0, 3),
    "payload_bytes_total": st.integers(0, 3),
})


@st.composite
def tie_heavy_flows(draw):
    n_classes = draw(st.integers(2, 5))
    templates = draw(st.lists(_TEMPLATE, min_size=2, max_size=8))
    frozen = draw(st.sets(st.sampled_from(_COUNTER_FIELDS)))
    rows = draw(st.lists(
        st.tuples(st.integers(0, len(templates) - 1), st.integers(0, n_classes - 1)),
        min_size=12, max_size=80,
    ))
    rows[0] = (rows[0][0], 0)
    rows[1] = (rows[1][0], 1)
    flows = []
    for i, (t, label) in enumerate(rows):
        fields = {
            name: templates[0 if name in frozen else t][name]
            for name in _COUNTER_FIELDS
        }
        flows.append(make_flow(flow_id=i, app_label=f"c{label}",
                               first_ts_us=0, **fields))
    return flows


@settings(max_examples=150, deadline=None)
@given(
    flows=tie_heavy_flows(),
    min_leaf=st.integers(1, 4),
    features_per_split=st.integers(1, len(ALL_FEATURES)),
    bootstrap=st.booleans(),
    seed=st.integers(0, 2**32),
    block_trees=st.integers(1, 3),
    chunk_rows=st.integers(1, 100),
)
def test_batched_split_search_matches_per_feature_oracle(
    flows, min_leaf, features_per_split, bootstrap, seed, block_trees, chunk_rows
):
    kwargs = dict(n_trees=3, min_leaf=min_leaf,
                  features_per_split=features_per_split,
                  seed=seed, bootstrap=bootstrap)
    with pytest.MonkeyPatch.context() as mp:
        # small chunks split a step between nodes and put a large node alone
        mp.setattr(classify_mod, "_BLOCK_TREES", block_trees)
        mp.setattr(classify_mod, "_CHUNK_ROWS", chunk_rows)
        model = train(flows, **kwargs)
    for builder in (_TreeBuilder, _PerFeatureBuilder):
        oracle = oracle_trees(flows, builder=builder, **kwargs)
        for got, want in zip(model.trees, oracle, strict=True):
            assert np.array_equal(got.feature, want.feature)
            assert got.threshold.tobytes() == want.threshold.tobytes()
            assert np.array_equal(got.left, want.left)
            assert np.array_equal(got.right, want.right)
            assert np.array_equal(got.histogram, want.histogram)


def test_threshold_rounded_onto_the_upper_value_sends_its_rows_left():
    # 2**53 + 2 and 2**53 + 4 are adjacent doubles whose midpoint rounds
    # to the upper one, so x <= threshold sends every row left: the right
    # child is empty, as in the per-node oracle
    flows = [make_flow(flow_id=i, app_label=f"c{i % 2}",
                       bytes_in=2**53 + 2 + 2 * (i % 2), bytes_out=0)
             for i in range(8)]
    kwargs = dict(n_trees=2, max_depth=2, min_leaf=1, features_per_split=8,
                  seed=0, bootstrap=False)
    model = train(flows, **kwargs)
    for got, want in zip(model.trees, oracle_trees(flows, **kwargs), strict=True):
        assert got.threshold[0] == 2**53 + 4
        assert got.histogram[got.right[0]].sum() == 0
        assert got.threshold.tobytes() == want.threshold.tobytes()
        assert np.array_equal(got.right, want.right)
        assert np.array_equal(got.histogram, want.histogram)


@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    n_rows=st.integers(0, 300),
    calls=st.integers(0, 40),
    k=st.integers(1, len(ALL_FEATURES)),
)
def test_feature_draws_match_sample_indices_after_the_bootstrap(seeds, n_rows, calls, k):
    expected = []
    for seed in seeds:
        rng = ScalarStream(seed)
        rng.next_u64_array(n_rows)
        for _ in range(calls):
            rng.sample_indices(len(ALL_FEATURES), k)
        expected.append(rng.sample_indices(len(ALL_FEATURES), k))
    first = np.full(len(seeds), n_rows + calls * k, dtype=np.uint64)
    got = _sample_features(np.array(seeds, dtype=np.uint64), first, len(ALL_FEATURES), k)
    assert got.tolist() == expected


@pytest.mark.parametrize("max_depth", [1, 4])
def test_tree_depth_is_its_deepest_leaf(max_depth):
    def leaf_depths(tree, node=0, depth=0):
        if tree.feature[node] < 0:
            return [depth]
        return (leaf_depths(tree, tree.left[node], depth + 1)
                + leaf_depths(tree, tree.right[node], depth + 1))

    model = train(overlapping_flows(), n_trees=4, max_depth=max_depth, seed=1)
    for tree in model.trees:
        assert tree.depth() == max(leaf_depths(tree)) <= max_depth
    assert max(tree.depth() for tree in model.trees) == max_depth


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


# --- worker processes ---------------------------------------------------


def overlapping_flows(n_per_class: int = 40):
    """Three classes whose features overlap, so trees grow deep."""
    rng = np.random.default_rng(0)
    return [
        make_flow(flow_id=100 * c + i, app_label=f"c{c}",
                  bytes_in=int(rng.integers(100, 5000)) + 400 * c,
                  bytes_out=int(rng.integers(100, 5000)),
                  packets_in=int(rng.integers(1, 30)),
                  packets_out=int(rng.integers(1, 30)),
                  last_ts_us=1_000_000 + int(rng.integers(0, 10_000_000)))
        for c in range(3)
        for i in range(n_per_class)
    ]


def child_processes() -> dict[int, str]:
    """Command lines of this process's children by PID, from /proc.

    multiprocessing.active_children() would miss helper processes such
    as the resource tracker, which are not Process objects.
    """
    me = os.getpid()
    found = {}
    for proc in Path("/proc").glob("[0-9]*"):
        try:
            # after the parenthesised command name: state, then ppid
            if int((proc / "stat").read_text().rsplit(")", 1)[1].split()[1]) == me:
                found[int(proc.name)] = (proc / "cmdline").read_text().replace("\0", " ")
        except OSError:  # the process has exited
            continue
    return found


def assert_no_child_left(before: dict[int, str]) -> None:
    after = child_processes()
    assert after == before
    # a helper started by an earlier spawn or forkserver pool lives on
    assert not [cmd for cmd in after.values() if "multiprocessing" in cmd]


needs_fork_and_proc = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not Path("/proc/self/stat").exists(),
    reason="needs the fork start method and /proc",
)


@pytest.fixture
def many_cpus(monkeypatch):
    """Let train start up to 8 workers even on a host with fewer CPUs."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)


@pytest.mark.parametrize(
    "n_trees, bootstrap", [(12, True), (12, False), (1, True)],
    ids=["bootstrap", "no-bootstrap", "one-tree"],
)
def test_model_bytes_do_not_depend_on_workers(tmp_path, many_cpus, n_trees, bootstrap):
    flows = overlapping_flows()
    dumps = []
    for workers in (1, 2, 3):
        path = tmp_path / f"model{workers}.json"
        write_model(train(flows, n_trees=n_trees, seed=9, bootstrap=bootstrap,
                          workers=workers), path)
        dumps.append(path.read_bytes())
    assert dumps[1] == dumps[0]
    assert dumps[2] == dumps[0]


@needs_fork_and_proc
def test_no_child_process_outlives_train(many_cpus):
    before = child_processes()
    model = train(overlapping_flows(), n_trees=6, seed=2, workers=2)
    assert len(model.trees) == 6
    assert_no_child_left(before)


# Stand-ins for classify._grow_block. train's task looks the name up when
# it runs, so a patch made before the pool forks reaches every worker.
_grow_block = classify_mod._grow_block


def _broken_block(trees, job=None):
    raise RuntimeError("tree builder failed")


def _slow_block(trees, job=None):
    time.sleep(0.3)
    return _grow_block(trees, job)


@needs_fork_and_proc
def test_worker_error_reaches_caller_and_no_child_is_left(many_cpus, monkeypatch):
    # patched before the pool forks, so every worker inherits it
    monkeypatch.setattr(classify_mod, "_grow_block", _broken_block)
    before = child_processes()
    with pytest.raises(RuntimeError, match="^tree builder failed$") as exc_info:
        train(overlapping_flows(), n_trees=8, workers=2)
    # the traceback came back from a worker process
    assert type(exc_info.value.__cause__).__name__ == "_RemoteTraceback"
    assert_no_child_left(before)


@needs_fork_and_proc
def test_interrupt_cancels_unstarted_trees_and_no_child_is_left(many_cpus, monkeypatch):
    # a block of one tree each: a running block finishes, the rest are cancelled
    monkeypatch.setattr(classify_mod, "_BLOCK_TREES", 1)
    monkeypatch.setattr(classify_mod, "_grow_block", _slow_block)
    before = child_processes()
    # 40 trees of >= 0.3 s each on 2 workers would take >= 6 s
    timer = threading.Timer(0.5, _thread.interrupt_main)
    start = time.monotonic()
    timer.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            train(overlapping_flows(), n_trees=40, workers=2)
    finally:
        timer.cancel()
    assert time.monotonic() - start < 3.0
    assert_no_child_left(before)
