"""Tests for the stratified split, random forest, and metrics."""

import _thread
import itertools
import json
import math
import multiprocessing
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flowclean.classify as classify_mod
from flowclean.classify import (
    ForestModel,
    _Tree,
    _sample_features,
    _votes,
    _winners,
    compute_metrics,
    dataset,
    evaluate,
    read_model,
    split,
    train,
    train_and_evaluate,
    write_model,
)
from flowclean.errors import CounterOutOfRange, EmptyFlow, EmptyTest, LabelTooSmall, SingleClass
from flowclean.features import ALL_FEATURES, feature_matrix
from flowclean.rng import derive

from conftest import make_flow
from scalar_rng import ScalarStream, SplitMix64


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


def predict(model: ForestModel, x: np.ndarray) -> list[str]:
    """The model's predicted label of each row of x."""
    return _winners(model.labels, _votes(model.trees, x, len(model.labels)))


def split_flows(flows, **kwargs):
    """split's train and test positions of flows' labels, as the flows there."""
    train_rows, test_rows = split(dataset(flows)[1], **kwargs)
    return [flows[i] for i in train_rows], [flows[i] for i in test_rows]


# --- split --------------------------------------------------------------


def test_split_sizes_single_label():
    flows = labeled_flows("a", 100)
    train_set, test_set = split_flows(flows, train_frac=0.75, seed=1)
    assert len(train_set) == 75
    assert len(test_set) == 25


def test_split_round_half_up_per_label():
    # 5 * 0.75 + 0.5 = 4.25 -> 4 train per label
    flows = []
    for i, label in enumerate("abcd"):
        flows += labeled_flows(label, 5, base_id=10 * i)
    train_set, test_set = split_flows(flows, train_frac=0.75, seed=0)
    assert len(train_set) == 16 and len(test_set) == 4
    for label in "abcd":
        assert sum(f.app_label == label for f in train_set) == 4
        assert sum(f.app_label == label for f in test_set) == 1
    # 6 * 0.75 + 0.5 = 5.0 -> 5 train
    train6, test6 = split_flows(labeled_flows("a", 6), train_frac=0.75, seed=0)
    assert (len(train6), len(test6)) == (5, 1)


def test_split_partition_is_disjoint_and_complete():
    flows = separable_flows(10)
    train_set, test_set = split_flows(flows, seed=3)
    train_ids = {f.flow_id for f in train_set}
    test_ids = {f.flow_id for f in test_set}
    assert train_ids.isdisjoint(test_ids)
    assert train_ids | test_ids == {f.flow_id for f in flows}


def test_split_deterministic_and_seed_sensitive():
    flows = labeled_flows("a", 40)
    first = split_flows(flows, seed=9)
    second = split_flows(flows, seed=9)
    assert [f.flow_id for f in first[0]] == [f.flow_id for f in second[0]]
    other = split_flows(flows, seed=10)
    assert [f.flow_id for f in other[0]] != [f.flow_id for f in first[0]]


def oracle_split(labels, train_frac, seed):
    """split, shuffling label j's positions with SplitMix64(derive(seed, j))."""
    train_rows, test_rows = [], []
    for j, label in enumerate(sorted(set(labels))):
        group = [i for i, other in enumerate(labels) if other == label]
        SplitMix64(derive(seed, j)).shuffle(group)
        n_train = math.floor(len(group) * train_frac + 0.5)
        train_rows += group[:n_train]
        test_rows += group[n_train:]
    return train_rows, test_rows


@settings(deadline=None)
@given(
    st.lists(st.one_of(st.just(0), st.integers(4, 3000)), min_size=1, max_size=3),
    st.floats(0.05, 0.95),
    st.integers(0, 2**64 - 1),
)
def test_split_matches_the_scalar_shuffle(sizes, train_frac, seed):
    labels = [f"app{j}" for j, size in enumerate(sizes) for _ in range(size)]
    labels = [labels[i] for i in np.random.default_rng(len(labels)).permutation(len(labels))]
    train_rows, test_rows = split(labels, train_frac=train_frac, seed=seed)
    assert (train_rows.tolist(), test_rows.tolist()) == oracle_split(labels, train_frac, seed)


def test_split_label_too_small():
    flows = labeled_flows("a", 4) + labeled_flows("b", 3, base_id=10)
    with pytest.raises(LabelTooSmall):
        split_flows(flows)


def test_split_bad_fraction():
    flows = labeled_flows("a", 10)
    for frac in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            split_flows(flows, train_frac=frac)


def test_dataset_refuses_the_first_unlabeled_flow():
    with pytest.raises(ValueError, match="^flow 0 has no app label$"):
        dataset([make_flow(app_label=None)] * 5)
    # before feature_matrix refuses flow 0, which has no packets
    flows = [make_flow(flow_id=0, app_label="a", packets_in=0, packets_out=0),
             make_flow(flow_id=1, app_label=""), make_flow(flow_id=2, app_label=None)]
    with pytest.raises(ValueError, match="^flow 1 has no app label$"):
        dataset(flows)
    with pytest.raises(EmptyFlow):
        dataset(flows[:1])


def test_dataset_refuses_a_counter_out_of_float64_range():
    flows = labeled_flows("a", 3) + [make_flow(flow_id=9, app_label="b", bytes_out=-(10**400))]
    with pytest.raises(CounterOutOfRange, match="^flow 9: bytes_out is out of float64's range$"):
        dataset(flows)
    # after the first unlabeled flow
    with pytest.raises(ValueError, match="^flow 4 has no app label$"):
        dataset(flows + [make_flow(flow_id=4, app_label=None)])


# --- train / predict ----------------------------------------------------


def test_train_separable_classes():
    flows = separable_flows()
    model = train(*dataset(flows), n_trees=5, max_depth=4, seed=0)
    assert model.labels == ["dl", "ul"]
    predicted = predict(model, feature_matrix(flows))
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
    model = train(*dataset(short + long_), n_trees=1, max_depth=1,
                  features_per_split=8, seed=5)
    tree = model.trees[0]
    duration_col = ALL_FEATURES.index("duration_s")
    assert tree.feature[0] == duration_col
    assert 0.8 < tree.threshold[0] < 10.0
    probe_short = make_flow(flow_id=500, first_ts_us=0, last_ts_us=2_000_000)
    probe_long = make_flow(flow_id=501, first_ts_us=0, last_ts_us=50_000_000)
    probes = feature_matrix([probe_short, probe_long])
    assert predict(model, probes) == ["short", "long"]


def test_train_deterministic():
    flows = separable_flows(15)
    a = train(*dataset(flows), n_trees=8, seed=77)
    b = train(*dataset(flows), n_trees=8, seed=77)
    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.threshold, tb.threshold)
        assert np.array_equal(ta.histogram, tb.histogram)


def test_train_seed_changes_forest():
    flows = separable_flows(15)
    a = train(*dataset(flows), n_trees=4, seed=1)
    b = train(*dataset(flows), n_trees=4, seed=2)
    assert any(
        not np.array_equal(ta.threshold, tb.threshold)
        or not np.array_equal(ta.feature, tb.feature)
        for ta, tb in zip(a.trees, b.trees)
    )


def test_train_single_class_raises():
    with pytest.raises(SingleClass):
        train(*dataset(labeled_flows("only", 10)))


def test_min_leaf_respected():
    flows = separable_flows(10)
    model = train(*dataset(flows), n_trees=3, min_leaf=5, seed=0)
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
        train(*dataset(separable_flows(5)), **{param: value})


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
                 seed=42, builder=_TreeBuilder):
    """train's trees, each grown by builder from its stream derive(seed, t)."""
    labels = sorted({f.app_label for f in flows})
    x = feature_matrix(flows)
    y = np.array([labels.index(f.app_label) for f in flows], dtype=np.int64)
    n = len(flows)
    trees = []
    for t in range(n_trees):
        rng = ScalarStream(derive(seed, t))
        sample = np.array([rng.next_u64() % n for _ in range(n)], dtype=np.int64)
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


def grow_sets(x, labels, sets, **kwargs):
    """Each set's labels and trees, the sets of rows of x growing in one
    pool of blocks, as train_and_evaluate grows them."""
    classes, blocks = classify_mod._grow_blocks(
        classify_mod._grow_block, x, labels, [(np.array(rows), None) for rows in sets],
        workers=1, **kwargs,
    )
    return classes, [[tree for block in blocks for tree in block[a]] for a in range(len(sets))]


def assert_same_trees(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.feature, b.feature)
        assert a.threshold.tobytes() == b.threshold.tobytes()
        assert np.array_equal(a.left, b.left)
        assert np.array_equal(a.right, b.right)
        assert np.array_equal(a.histogram, b.histogram)


@settings(max_examples=150, deadline=None)
@given(
    flows=tie_heavy_flows(),
    other=st.lists(st.integers(0, 79), max_size=60),
    min_leaf=st.integers(1, 4),
    features_per_split=st.integers(1, len(ALL_FEATURES)),
    seed=st.integers(0, 2**32),
    block_rows=st.integers(1, 300),
    chunk_rows=st.integers(1, 100),
)
def test_batched_split_search_matches_per_feature_oracle(
    flows, other, min_leaf, features_per_split, seed, block_rows, chunk_rows
):
    # every flow; then a set of another size that shares rows with it and
    # may repeat one, whose first rows take classes c0 and c1; then, where
    # it keeps two classes, every flow but those of class c1
    x, labels = dataset(flows)
    sets = [range(len(flows)), [0, 1] + [i % len(flows) for i in other]]
    lacking = np.flatnonzero(labels != "c1")
    if len(set(labels[lacking])) >= 2:
        sets.append(lacking)
    kwargs = dict(n_trees=3, max_depth=16, min_leaf=min_leaf,
                  features_per_split=features_per_split, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        # small chunks split a step between nodes and put a large node alone;
        # a small budget makes blocks of one tree of each set
        mp.setattr(classify_mod, "_BLOCK_ROWS", block_rows)
        mp.setattr(classify_mod, "_CHUNK_ROWS", chunk_rows)
        classes, grown = grow_sets(x, labels, sets, **kwargs)
        alone = [train(x[rows], labels[rows], **kwargs) for rows in sets]
    for rows, set_classes, trees, model in zip(sets, classes, grown, alone, strict=True):
        assert set_classes == model.labels
        assert_same_trees(trees, model.trees)
        for builder in (_TreeBuilder, _PerFeatureBuilder):
            oracle = oracle_trees([flows[i] for i in rows], builder=builder, **kwargs)
            assert_same_trees(trees, oracle)


def test_threshold_rounded_onto_the_upper_value_sends_its_rows_left():
    # 2**53 + 2 and 2**53 + 4 are adjacent doubles whose midpoint rounds
    # to the upper one, so x <= threshold sends every row left: the right
    # child is empty, as in the per-node oracle
    flows = [make_flow(flow_id=i, app_label=f"c{i % 2}",
                       bytes_in=2**53 + 2 + 2 * (i % 2), bytes_out=0)
             for i in range(8)]
    kwargs = dict(n_trees=2, max_depth=2, min_leaf=1, features_per_split=8, seed=0)
    model = train(*dataset(flows), **kwargs)
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


class _Digits:
    """A stand-in stream whose next_below(n) returns given digits in turn."""

    def __init__(self, digits):
        self._digits = iter(digits)

    def next_below(self, n):
        digit = next(self._digits)
        assert 0 <= digit < n
        return digit


@pytest.mark.parametrize("k", range(1, len(ALL_FEATURES) + 1))
def test_feature_table_rows_are_the_scalar_fisher_yates_of_their_digits(k):
    # row r holds the draw whose digits u_i % (8 - i) are r in mixed radix,
    # first digit most significant: itertools.product's order
    n = len(ALL_FEATURES)
    table = classify_mod._fisher_yates_table(n, k)
    digits = list(itertools.product(*(range(n - i) for i in range(k))))
    assert len(table) == len(digits) == math.perm(n, k)
    for row, draw in zip(table.tolist(), digits):
        assert row == ScalarStream.sample_indices(_Digits(draw), n, k)


@pytest.mark.parametrize("max_depth", [1, 4])
def test_tree_depth_is_its_deepest_leaf(max_depth):
    def leaf_depths(tree, node=0, depth=0):
        if tree.feature[node] < 0:
            return [depth]
        return (leaf_depths(tree, tree.left[node], depth + 1)
                + leaf_depths(tree, tree.right[node], depth + 1))

    model = train(*dataset(overlapping_flows()), n_trees=4, max_depth=max_depth, seed=1)
    for tree in model.trees:
        assert tree.depth() == max(leaf_depths(tree)) <= max_depth
    assert max(tree.depth() for tree in model.trees) == max_depth


def test_predict_tie_breaks_to_first_label():
    # two trees voting for different classes: argmax picks the first
    # (lexicographically smallest) label
    flows = separable_flows(10)
    model = train(*dataset(flows), n_trees=2, seed=0)
    votes = np.array([[1, 1]])
    assert model.labels[int(np.argmax(votes))] == model.labels[0]


def test_flow_features_shape():
    # the forest reads the 8 feature_matrix columns, in ALL_FEATURES order
    flows = separable_flows(5)
    x = feature_matrix(flows)
    assert x.shape == (10, len(ALL_FEATURES))
    model = train(*dataset(flows), n_trees=3, seed=0)
    assert model.feature_names == list(ALL_FEATURES)
    assert np.array_equal(dataset(flows)[0], x)


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
    x, labels = dataset(separable_flows(20))
    train_rows, test_rows = split(labels, seed=2)
    model = train(x[train_rows], labels[train_rows], n_trees=5, seed=2)
    metrics = evaluate(model, x[test_rows], labels[test_rows])
    assert metrics.accuracy == 1.0
    assert metrics.labels == ["dl", "ul"]
    assert metrics.config["n_trees"] == 5


def test_evaluate_empty_test():
    x, labels = dataset(separable_flows(10))
    model = train(x, labels, n_trees=2, seed=0)
    with pytest.raises(EmptyTest):
        evaluate(model, *dataset([]))
    every, none = np.arange(len(x)), np.array([], dtype=np.intp)
    with pytest.raises(EmptyTest):
        train_and_evaluate(x, labels, [(every, none)], n_trees=2, seed=0)
    # train's errors come first, and each set's before the next set's
    one_class = np.flatnonzero(labels == "dl")
    with pytest.raises(SingleClass, match=r"^need >= 2 classes, got \['dl'\]$"):
        train_and_evaluate(x, labels, [(one_class, none)])
    with pytest.raises(SingleClass):
        train_and_evaluate(x, labels, [(every, every), (one_class, every), (every, none)])
    with pytest.raises(EmptyTest):
        train_and_evaluate(x, labels, [(every, every), (every, none), (one_class, every)])
    with pytest.raises(ValueError, match="^n_trees must be >= 1, got 0$"):
        train_and_evaluate(x, labels, [(one_class, none)], n_trees=0)


def test_train_and_evaluate_of_no_sets_starts_no_pool(monkeypatch):
    x, labels = dataset(separable_flows(10))
    monkeypatch.setattr(classify_mod.parallel, "fork_map", lambda *args: pytest.fail("pool"))
    assert train_and_evaluate(x, labels, [], workers=2) == []
    # the forest's options are checked first
    with pytest.raises(ValueError, match="^n_trees must be >= 1, got 0$"):
        train_and_evaluate(x, labels, [], n_trees=0)


def forest_size(model: ForestModel) -> dict:
    return {
        "trees": len(model.trees),
        "nodes": sum(len(tree.feature) for tree in model.trees),
        "leaves": sum(int((tree.feature < 0).sum()) for tree in model.trees),
        "depth": max(tree.depth() for tree in model.trees),
    }


@pytest.mark.parametrize("n_trees", [1, 2, 7])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_train_and_evaluate_matches_train_then_evaluate(many_cpus, workers, n_trees):
    # 7 trees on 3 workers are blocks of 3, 3 and 1; 2 trees on 3 workers, 2
    # blocks of 1; a block holds those trees of every set
    x, labels = dataset(overlapping_flows())
    sets = []
    # every flow, every flow but class c1's, and every other flow
    for rows in (np.arange(len(x)), np.flatnonzero(labels != "c1"), np.arange(0, len(x), 2)):
        train_rows, test_rows = split(labels[rows], seed=5 + len(sets))
        sets.append((rows[train_rows], rows[test_rows]))
    options = dict(n_trees=n_trees, max_depth=6, seed=5)
    scored = train_and_evaluate(x, labels, sets, workers=workers, **options)
    for (train_rows, test_rows), (metrics, size, score_s) in zip(sets, scored, strict=True):
        model = train(x[train_rows], labels[train_rows], **options)
        assert metrics == evaluate(model, x[test_rows], labels[test_rows])
        assert size == forest_size(model)
        assert score_s >= 0.0


def test_train_and_evaluate_grows_equal_sets_once(monkeypatch):
    x, labels = dataset(overlapping_flows())
    train_rows, test_rows = split(labels, seed=4)
    other = (train_rows[1:], test_rows)
    grown = []

    def counted_block(trees, job):
        grown.append([rows.tolist() for rows, _ in job[3]])
        return _grow_block(trees, job)

    monkeypatch.setattr(classify_mod, "_grow_block", counted_block)
    options = dict(n_trees=3, max_depth=4, seed=4)
    # a copy of an earlier set, not the same arrays, shares its forest
    sets = [(train_rows, test_rows), other, (train_rows.copy(), test_rows.copy())]
    scored = train_and_evaluate(x, labels, sets, **options)
    # one block, on this process, of the two distinct sets in set order
    assert grown == [[train_rows.tolist(), other[0].tolist()]]
    assert scored[2] == scored[0]
    alone = train_and_evaluate(x, labels, sets[:2], **options)
    # the seconds spent voting differ from run to run
    assert [r[:2] for r in scored] == [r[:2] for r in alone + alone[:1]]
    model = train(x[train_rows], labels[train_rows], **options)
    assert scored[2][0] == evaluate(model, x[test_rows], labels[test_rows])
    assert scored[2][1] == forest_size(model)


def test_train_and_evaluate_breaks_tied_votes_toward_the_first_label(many_cpus):
    x, labels = dataset(overlapping_flows())
    train_rows, test_rows = split(labels, seed=3)
    model = train(x[train_rows], labels[train_rows], n_trees=2, max_depth=3, seed=3)
    first, second = (tree.predict_class(x[test_rows]) for tree in model.trees)
    # the two trees disagree on some rows, whose votes tie 1 to 1
    assert (first != second).any()
    expected = [model.labels[c] for c in np.minimum(first, second).tolist()]
    [(metrics, _, _)] = train_and_evaluate(
        x, labels, [(train_rows, test_rows)], n_trees=2, max_depth=3, seed=3, workers=2,
    )
    assert metrics == compute_metrics(
        list(labels[test_rows]), expected, extra_labels=model.labels,
        config=model.config_dict(),
    )
    assert predict(model, x[test_rows]) == expected


# --- model persistence --------------------------------------------------


def test_model_json_round_trip(tmp_path):
    flows = separable_flows(15)
    model = train(*dataset(flows), n_trees=6, seed=3)
    path = tmp_path / "model.json"
    write_model(model, path)
    loaded = read_model(path)
    assert isinstance(loaded, ForestModel)
    assert loaded.labels == model.labels
    assert loaded.config_dict() == model.config_dict()
    probes = feature_matrix(separable_flows(7))
    assert predict(loaded, probes) == predict(model, probes)


@pytest.mark.parametrize("n_trees", [1, 3])
def test_model_file_is_one_json_dump_of_the_whole_document(tmp_path, n_trees):
    # write_model writes one tree at a time; the bytes are those of one dump
    flows = labeled_flows('say"hi"', 6) + labeled_flows("ü", 6, base_id=10, bytes_in=90)
    model = train(*dataset(flows), n_trees=n_trees, seed=1)
    doc = {
        "labels": model.labels,
        "feature_names": model.feature_names,
        "config": model.config_dict(),
        "trees": [
            {name: getattr(tree, name).tolist()
             for name in ("feature", "threshold", "left", "right", "histogram")}
            for tree in model.trees
        ],
    }
    path = tmp_path / "model.json"
    write_model(model, path)
    assert path.read_bytes() == (json.dumps(doc) + "\n").encode()


def test_model_dump_deterministic(tmp_path):
    flows = separable_flows(12)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_model(train(*dataset(flows), n_trees=4, seed=11), p1)
    write_model(train(*dataset(flows), n_trees=4, seed=11), p2)
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


@pytest.mark.parametrize("n_trees", [12, 1], ids=["bootstrap", "one-tree"])
def test_model_bytes_do_not_depend_on_workers(tmp_path, many_cpus, n_trees):
    x, labels = dataset(overlapping_flows())
    dumps = []
    for workers in (1, 2, 3):
        path = tmp_path / f"model{workers}.json"
        write_model(train(x, labels, n_trees=n_trees, seed=9, workers=workers), path)
        dumps.append(path.read_bytes())
    assert dumps[1] == dumps[0]
    assert dumps[2] == dumps[0]


def test_model_bytes_do_not_depend_on_the_block_layout(tmp_path, many_cpus, monkeypatch):
    # 120 trees as 120 blocks of one; as 50, 50 and an uneven 20 on 1 and 2
    # workers; as 3 blocks of 40 on 3 workers; and as 2 blocks of 60. Each
    # tree draws 120 rows.
    x, labels = dataset(overlapping_flows())
    dumps = set()
    for block_trees, workers in ((1, 1), (50, 1), (50, 2), (50, 3), (120, 2)):
        monkeypatch.setattr(classify_mod, "_BLOCK_ROWS", block_trees * len(x))
        path = tmp_path / f"model-{block_trees}-{workers}.json"
        write_model(train(x, labels, n_trees=120, seed=4, workers=workers), path)
        dumps.add(path.read_bytes())
    assert len(dumps) == 1


@needs_fork_and_proc
def test_no_child_process_outlives_train(many_cpus):
    before = child_processes()
    model = train(*dataset(overlapping_flows()), n_trees=6, seed=2, workers=2)
    assert len(model.trees) == 6
    assert_no_child_left(before)


# Stand-ins for classify._grow_block. train looks the name up when it is
# called, before the pool forks, so a patch made before then reaches every
# worker.
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
        train(*dataset(overlapping_flows()), n_trees=8, workers=2)
    # the traceback came back from a worker process
    assert type(exc_info.value.__cause__).__name__ == "_RemoteTraceback"
    assert_no_child_left(before)


@needs_fork_and_proc
def test_interrupt_cancels_unstarted_trees_and_no_child_is_left(many_cpus, monkeypatch):
    # a block of one tree each: a running block finishes, the rest are cancelled
    monkeypatch.setattr(classify_mod, "_BLOCK_ROWS", 1)
    monkeypatch.setattr(classify_mod, "_grow_block", _slow_block)
    before = child_processes()
    # 40 trees of >= 0.3 s each on 2 workers would take >= 6 s
    timer = threading.Timer(0.5, _thread.interrupt_main)
    start = time.monotonic()
    timer.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            train(*dataset(overlapping_flows()), n_trees=40, workers=2)
    finally:
        timer.cancel()
    assert time.monotonic() - start < 3.0
    assert_no_child_left(before)
