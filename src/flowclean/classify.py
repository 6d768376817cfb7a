"""Multi-class random forest over flow features, built from scratch.

The forest measures cleaning quality: train it on a cleaned dataset,
score it on held-out flows, and compare against a forest trained on
ground-truth-cleaned data. Trees use axis-aligned splits chosen by
Gini impurity over the 6 clustering features plus the 2 auxiliary
mean-size features.

A tree is defined node by node in preorder. A node is a leaf at
max_depth, with fewer than 2 * min_leaf rows or with one class;
otherwise it makes a split call: it samples F = features_per_split
features, scores every cut of each that leaves min_leaf rows each side
and lies between distinct values, and keeps the first feature, in
sampled order, whose best cut (its first least score) scores strictly
below the node's own n - T.T / n - 1e-12. The score of a cut with class
counts L left and R right of n = nl + nr rows is the float64
nl - L.L / nl + nr - R.R / nr, n times the weighted Gini. Rows with
x <= threshold, the midpoint of the values either side of the cut, go
left. Without such a cut the node is a leaf. A node's id is its place
in preorder, so a left child's is its parent's plus 1.

Tree t draws from SplitMix64(derive(seed, t)): with bootstrap, draws
1..n pick its rows (draw % n); then split call m, counted in preorder
from 0, takes the F draws after draw B + m * F, where B is n with
bootstrap and 0 without, as a partial Fisher-Yates over the 8 features
(rng.py gives the draws). A call draws F numbers whether or not it
splits.

Trees grow in blocks of up to _BLOCK_TREES (50) in lockstep, so the
default 100 trees on 2 workers are one block per worker. Each tree
keeps a stack of its pending nodes, each holding a copy of its rows; a
step pops every tree's next node in preorder that needs a split call
(leaves popped on the way take their ids and are done, as the class
counts that made them leaves were known when their parent split),
draws each one's features from its call index with stream_draws, one
table lookup per node, and scores all of them in one pass of numpy
calls, in chunks of at most _CHUNK_ROWS rows. So every tree is the one
defined above, whatever the block and chunk sizes:

- A pass sorts each (feature slot, node) segment of rows by the dense
  rank of the feature's values, with ties in row order. Counts at a cut
  between distinct values do not depend on how equal values are
  ordered.
- L.L is the running sum of 2 * occ + 1, occ counting the earlier rows
  of the row's class, and T.L the running sum of T[class]; both restart
  at each node. R.R = T.T - 2 * T.L + L.L. All are exact integers, so
  the score is the same float64 however the sums were formed.
- np.minimum.reduceat finds each segment's least score, and its first
  position; each node then takes its slots in sampled order with a
  strict <.
- The chosen slot's sorted rows give the children: the rows with
  x <= threshold are a prefix of the node's rows there.

Determinism: with train(workers > 1) the blocks grow on
parallel.fork_map's forked worker processes: each worker inherits the
training set once and is sent only block indices, and the pool is shut
down before train returns, so no process outlives the call. The model
is the same for every worker count and block size.
Prediction ties break toward the lexicographically smallest label.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import parallel
from .errors import EmptyTest, LabelTooSmall, SchemaMismatch, SingleClass
from .features import ALL_FEATURES, feature_matrix
from .ingest import FlowRecord
from .rng import SplitMix64, derive, stream_draws


def split(
    flows: list[FlowRecord], train_frac: float = 0.75, seed: int = 42
) -> tuple[list[FlowRecord], list[FlowRecord]]:
    """Stratified train/test split by app label.

    Each label contributes floor(n * train_frac + 0.5) flows to the
    training set (round half up) after a seeded shuffle; the rest go
    to test. Every label needs at least 4 flows.
    """
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be in (0, 1)")
    by_label: dict[str, list[FlowRecord]] = {}
    for flow in flows:
        if not flow.app_label:
            raise ValueError(f"flow {flow.flow_id} has no app label")
        by_label.setdefault(flow.app_label, []).append(flow)
    for label, group in sorted(by_label.items()):
        if len(group) < 4:
            raise LabelTooSmall(f"label {label!r} has {len(group)} flows, need >= 4")
    train: list[FlowRecord] = []
    test: list[FlowRecord] = []
    for idx, (label, group) in enumerate(sorted(by_label.items())):
        rng = SplitMix64(derive(seed, idx))
        order = list(range(len(group)))
        rng.shuffle(order)
        n_train = math.floor(len(group) * train_frac + 0.5)
        train.extend(group[i] for i in order[:n_train])
        test.extend(group[i] for i in order[n_train:])
    return train, test


@dataclass
class _Tree:
    """One decision tree as parallel node arrays (preorder).

    feature[i] == -1 marks a leaf; histogram[i] counts the training
    samples per class that reached node i.
    Internal nodes route x[feature] <= threshold to left.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    histogram: np.ndarray

    def predict_class(self, x: np.ndarray) -> np.ndarray:
        node = np.zeros(x.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.flatnonzero(active)
            cur = node[idx]
            goes_left = (
                x[idx, self.feature[cur]] <= self.threshold[cur]
            )
            node[idx] = np.where(goes_left, self.left[cur], self.right[cur])
            active[idx] = self.feature[node[idx]] >= 0
        return np.argmax(self.histogram[node], axis=1)

    def depth(self) -> int:
        """Depth of the deepest leaf; a lone root leaf has depth 0."""
        level, nodes = 0, np.zeros(1, dtype=np.int64)
        while True:
            inner = nodes[self.feature[nodes] >= 0]
            if not len(inner):
                return level
            nodes = np.concatenate([self.left[inner], self.right[inner]])
            level += 1


@dataclass
class ForestModel:
    labels: list[str]
    feature_names: list[str]
    trees: list[_Tree]
    n_trees: int
    max_depth: int
    min_leaf: int
    features_per_split: int
    seed: int

    def config_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "features_per_split": self.features_per_split,
            "seed": self.seed,
        }

    def predict_matrix(self, x: np.ndarray) -> list[str]:
        x = np.asarray(x, dtype=np.float64)
        votes = np.zeros((x.shape[0], len(self.labels)), dtype=np.int64)
        for tree in self.trees:
            pred = tree.predict_class(x)
            votes[np.arange(x.shape[0]), pred] += 1
        # argmax takes the first maximum: lexicographically smallest label
        winners = np.argmax(votes, axis=1)
        return [self.labels[w] for w in winners]

    def predict(self, flows: list[FlowRecord]) -> list[str]:
        return self.predict_matrix(feature_matrix(flows))


# At most this many rows are scored in one pass of a growth step; a node
# with more rows is scored alone. It bounds a pass's arrays (a few dozen
# bytes per row and sampled feature) without changing any tree.
_CHUNK_ROWS = 16_384
# At most this many trees grow in lockstep in one _grow_block call, so the
# default 100 trees on 2 workers are one block per worker. A tree's pending
# nodes hold disjoint copies of its rows, so a block's pending rows take at
# most _BLOCK_TREES * n * 8 bytes for n training rows.
_BLOCK_TREES = 50


@functools.cache
def _fisher_yates_table(n_features: int, k: int) -> np.ndarray:
    """Row r: the partial Fisher-Yates of k over range(n_features) whose
    digits d (swap i + d[i] into place i) are unravel_index(r, radices)."""
    radices = range(n_features, n_features - k, -1)
    table = []
    for digits in np.indices(radices).reshape(k, -1).T.tolist():
        pool = list(range(n_features))
        for i, d in enumerate(digits):
            pool[i], pool[i + d] = pool[i + d], pool[i]
        table.append(pool[:k])
    return np.array(table)


def _sample_features(
    seeds: np.ndarray, first: np.ndarray, n_features: int, k: int
) -> np.ndarray:
    """k distinct feature indices per stream, one row per seed.

    Row i is a partial Fisher-Yates over range(n_features), swapping
    position j = i + u % (n_features - i) into place i, whose u are
    draws first[i] + 1 on of SplitMix64(seeds[i]). The digits
    u % (n_features - i) index a cached table of all n_features! /
    (n_features - k)! results (336 rows for 3 of 8), so every row is
    one gather.
    """
    draws = stream_draws(
        seeds[:, None], first[:, None] + np.arange(1, k + 1, dtype=np.uint64)
    )
    radix = np.arange(n_features, n_features - k, -1, dtype=np.uint64)
    digits = (draws % radix).astype(np.intp)
    index = np.ravel_multi_index(tuple(digits.T), radix.tolist())
    return _fisher_yates_table(n_features, k)[index]


def _best_splits(
    x: np.ndarray,
    ranks: np.ndarray,
    y: np.ndarray,
    min_leaf: int,
    rows: np.ndarray,
    sizes: np.ndarray,
    hist: np.ndarray,
    feats: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Find the best split of several nodes in one pass.

    Node s owns the next sizes[s] entries of rows (row indices of x),
    with class counts hist[s], and its sampled features are feats[s].
    Returns (feature, threshold, ordered, n_left): per node, the split
    feature, or -1 where no cut beats the node's own impurity, and the
    threshold; ordered holds each split node's rows sorted by its split
    feature, so that its first n_left[s] rows go left. The module
    docstring gives the arithmetic.
    """
    n_nodes, n_feats = feats.shape
    n_rows, n_classes = ranks.shape[1], hist.shape[1]
    total = len(rows)
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(n_nodes), sizes)
    position = np.arange(total)
    bits = total.bit_length()
    low = (1 << bits) - 1
    # sort each (slot, node) segment by its feature's dense rank: one sort
    # of (node, rank, position) packed into an int64
    key = np.repeat(feats.T * n_rows, sizes, axis=1)
    key += rows
    key = np.take(ranks, key)
    key <<= bits
    key += np.repeat(starts * n_rows << bits, sizes) + position
    key.sort(axis=1)
    srows = np.take(rows, key & low)
    key >>= bits
    # a cut needs distinct values across it and min_leaf rows each side
    cut = np.zeros((n_feats, total), dtype=bool)
    np.greater(key[:, 1:], key[:, :-1], out=cut[:, :-1])
    del key
    nl = position + 1 - np.repeat(starts, sizes)
    nr = np.repeat(sizes, sizes) - nl
    cut &= (nl >= min_leaf) & (nr >= min_leaf)
    # With T a node's class counts and L those left of a cut, the score
    # needs L.L and R.R = T.T - 2 T.L + L.L. Each row adds 2 * occ + 1 to
    # L.L, occ counting the rows before it in its (node, class) group, and
    # T[class] to T.L. Sorted by group and then by position, a row's place
    # in its group is its occ, so one stable pass over the groups lays out
    # both increments, a = 2 * occ + 1 and a - 2 T[class]; their cumsums
    # restart at each node, where both have summed to the node's T.T.
    counts = hist.ravel()
    by_group = np.take(y, srows)
    by_group += np.repeat(np.arange(0, n_nodes * n_classes, n_classes), sizes)
    by_group <<= bits
    by_group += position
    if n_nodes * n_classes << bits < 2**31:
        by_group = by_group.astype(np.int32)
    by_group.sort(axis=1)
    by_group &= low
    by_group += (np.arange(n_feats) * total)[:, None]
    occ = position - np.repeat(np.cumsum(counts) - counts, counts)
    increments = np.stack([2 * occ + 1, 2 * (occ - np.repeat(counts, counts)) + 1], 1)
    # one scatter moves both increments of a row, as one 16-byte item
    pair = np.dtype((np.void, 16))
    steps = np.empty((n_feats, total, 2), dtype=np.int64)
    steps.view(pair).reshape(-1)[by_group] = increments.view(pair).reshape(-1)
    del by_group
    np.cumsum(steps, axis=1, out=steps)
    tt = (hist * hist).sum(axis=1)
    restart = np.repeat(np.cumsum(tt) - tt, sizes)
    ll = steps[..., 0] - restart
    rr = steps[..., 1] + (restart + np.repeat(tt, sizes))
    del steps
    nlf = nl.astype(np.float64)
    nrf = nr.astype(np.float64)
    with np.errstate(invalid="ignore"):  # 0 / 0 past each node's last row
        score = nlf - ll / nlf
        score += nrf
        score -= rr / nrf
    del ll, rr
    np.putmask(score, ~cut, np.inf)
    least = np.minimum.reduceat(score, starts, axis=1)
    # strict < from the parent's impurity: the first sampled feature wins
    # a tie between features
    sizes_f = sizes.astype(np.float64)
    best = sizes_f - tt / sizes_f - 1e-12
    slot = np.full(n_nodes, -1)
    for j in range(n_feats):
        better = least[j] < best
        best = np.where(better, least[j], best)
        slot[better] = j
    # the first position of the least score in each node's chosen slot;
    # a node that does not split reads slot 0 and is marked at the end
    found = slot >= 0
    slot[~found] = 0
    chosen = np.repeat(slot * total, sizes) + position
    pos = np.minimum.reduceat(
        np.where(np.take(score, chosen) == np.repeat(best, sizes), position, total),
        starts,
    )
    pos[~found] = starts[~found]
    feature = feats[np.arange(n_nodes), slot]
    ordered = np.take(srows, chosen)
    threshold = (x[ordered[pos], feature] + x[ordered[pos + 1], feature]) / 2.0
    n_left = np.add.reduceat(
        np.take(x, ordered * x.shape[1] + np.repeat(feature, sizes))
        <= np.repeat(threshold, sizes),
        starts,
    )
    feature[~found] = -1
    return feature, threshold, ordered, n_left


def _chunks(sizes: list[int]):
    """Yield (start, stop) runs of nodes with at most _CHUNK_ROWS rows."""
    start, rows = 0, 0
    for i, size in enumerate(sizes):
        if rows and rows + size > _CHUNK_ROWS:
            yield start, i
            start, rows = i, 0
        rows += size
    if sizes:
        yield start, len(sizes)


def _grow_block(trees: range, job: tuple) -> list[_Tree]:
    """Grow trees `trees` of the forest in lockstep; see the module docstring.

    job is (x, ranks, y, n_classes, max_depth, min_leaf, features_per_split,
    seed, bootstrap).
    """
    x, ranks, y, n_classes, max_depth, min_leaf, k, seed, bootstrap = job
    n, n_features = x.shape
    seeds = np.array([derive(seed, t) for t in trees], dtype=np.uint64)
    # split call m of a tree draws its features from draw drawn + m * k + 1
    # on: a bootstrap sample draws n numbers first
    drawn = np.full(len(trees), n if bootstrap else 0, dtype=np.uint64)

    def leaf(depth, size, counts):
        return (depth >= max_depth) | (size < 2 * min_leaf) | (
            np.count_nonzero(counts, axis=-1) <= 1
        )

    # A pending node is (rows, or None once it is known to be a leaf, depth,
    # class counts, the node whose right child it is or -1); a grown node
    # is [feature, threshold, left, right, class counts].
    stacks = []
    for seed_t in seeds:
        if bootstrap:
            draws = stream_draws(seed_t, np.arange(1, n + 1, dtype=np.uint64))
            rows = (draws % np.uint64(n)).astype(np.int64)
        else:
            rows = np.arange(n)
        counts = np.bincount(y[rows], minlength=n_classes)
        stacks.append([(None if leaf(0, n, counts) else rows, 0, counts, -1)])
    grown = [[] for _ in trees]
    active = list(range(len(trees)))
    while active:
        # every tree's next node in preorder that needs a split search;
        # the leaves before it take their preorder ids on the way
        nodes = []
        for t in active:
            stack, tree = stacks[t], grown[t]
            while stack:
                rows, depth, counts, parent = stack.pop()
                if parent >= 0:
                    tree[parent][3] = len(tree)
                tree.append([-1, 0.0, -1, -1, counts])
                if rows is not None:
                    nodes.append((t, rows, depth, counts))
                    break
        if not nodes:
            break
        owner = np.array([node[0] for node in nodes])
        feats = _sample_features(seeds[owner], drawn[owner], n_features, k)
        drawn[owner] += np.uint64(k)
        sizes = [len(node[1]) for node in nodes]
        for lo, hi in _chunks(sizes):
            chunk = nodes[lo:hi]
            rows = np.concatenate([node[1] for node in chunk])
            size = np.array(sizes[lo:hi])
            feature, threshold, ordered, n_left = _best_splits(
                x, ranks, y, min_leaf, rows, size,
                np.array([node[3] for node in chunk]), feats[lo:hi],
            )
            split = np.flatnonzero(feature >= 0)
            if not len(split):
                continue
            # the first n_left of a node's ordered rows go left; one bincount
            # gives both children's class counts
            ends = np.cumsum(size)
            starts = ends - size
            cuts = starts + n_left
            child = np.repeat(np.arange(0, 2 * (hi - lo), 2), size)
            child += np.arange(len(ordered)) >= np.repeat(cuts, size)
            child_counts = np.bincount(
                child * n_classes + y[ordered], minlength=2 * (hi - lo) * n_classes
            ).reshape(hi - lo, 2, n_classes)[split]
            child_size = np.stack([n_left, size - n_left], axis=1)[split]
            depth = 1 + np.array([node[2] for node in chunk])[split]
            child_leaf = leaf(depth[:, None], child_size, child_counts).tolist()
            for s, f, v, d, start, cut, end, leaves, counts in zip(
                split.tolist(), feature[split].tolist(), threshold[split].tolist(),
                depth.tolist(), starts[split].tolist(), cuts[split].tolist(),
                ends[split].tolist(), child_leaf, child_counts,
            ):
                t = chunk[s][0]
                tree = grown[t]
                node = len(tree) - 1  # the tree's last node is the one scored
                tree[node][:3] = f, v, node + 1
                stacks[t] += [
                    (None if leaves[1] else ordered[cut:end].copy(), d, counts[1], node),
                    (None if leaves[0] else ordered[start:cut].copy(), d, counts[0], -1),
                ]
        active = [t for t in active if stacks[t]]
    return [
        _Tree(
            feature=np.array([node[0] for node in tree], dtype=np.int64),
            threshold=np.array([node[1] for node in tree], dtype=np.float64),
            left=np.array([node[2] for node in tree], dtype=np.int64),
            right=np.array([node[3] for node in tree], dtype=np.int64),
            histogram=np.array([node[4] for node in tree], dtype=np.int64),
        )
        for tree in grown
    ]


def train(
    flows: list[FlowRecord],
    n_trees: int = 100,
    max_depth: int = 16,
    min_leaf: int = 2,
    features_per_split: int = 3,
    seed: int = 42,
    bootstrap: bool = True,
    workers: int = 1,
) -> ForestModel:
    """Fit a random forest on labeled flows.

    Each tree trains on a bootstrap resample of the full training set
    (disabled with bootstrap=False, where every tree sees all rows).
    workers caps the processes that grow trees, further capped by
    n_trees and the CPUs this process may run on; the model is the
    same for every worker count. Where the platform cannot fork, trees
    grow in this process. Raises ValueError, naming the parameter,
    unless n_trees, max_depth, min_leaf and workers are >= 1 and
    1 <= features_per_split <= 8.
    """
    for name, value in (
        ("n_trees", n_trees),
        ("max_depth", max_depth),
        ("min_leaf", min_leaf),
        ("workers", workers),
    ):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not 1 <= features_per_split <= len(ALL_FEATURES):
        raise ValueError(
            f"features_per_split must be in [1, {len(ALL_FEATURES)}], "
            f"got {features_per_split}"
        )
    labels = sorted({f.app_label for f in flows if f.app_label})
    if len(labels) < 2:
        raise SingleClass(f"need >= 2 classes, got {labels}")
    label_idx = {label: i for i, label in enumerate(labels)}
    x = feature_matrix(flows)
    y = np.array([label_idx[f.app_label] for f in flows], dtype=np.int64)
    # dense rank of every value in its column, one row per feature
    ranks = np.array(
        [np.unique(column, return_inverse=True)[1] for column in x.T], dtype=np.int64
    )
    job = (x, ranks, y, len(labels), max_depth, min_leaf, features_per_split, seed,
           bootstrap)
    workers = min(workers, n_trees, parallel.usable_cpus())
    # at least one block per worker
    size = min(_BLOCK_TREES, -(-n_trees // workers))
    blocks = [range(t, min(t + size, n_trees)) for t in range(0, n_trees, size)]
    grown = parallel.fork_map(lambda i: _grow_block(blocks[i], job), len(blocks), workers)
    trees = [tree for block in grown for tree in block]
    return ForestModel(
        labels=labels,
        feature_names=list(ALL_FEATURES),
        trees=trees,
        n_trees=n_trees,
        max_depth=max_depth,
        min_leaf=min_leaf,
        features_per_split=features_per_split,
        seed=seed,
    )


@dataclass
class Metrics:
    accuracy: float
    macro_precision: float
    macro_recall: float
    labels: list[str]
    confusion: list[list[int]]
    config: dict

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "labels": self.labels,
            "confusion": self.confusion,
            "config": self.config,
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")


def compute_metrics(
    actual: list[str], predicted: list[str], extra_labels=(), config: dict | None = None
) -> Metrics:
    """Confusion matrix plus accuracy and macro precision/recall.

    The matrix covers every label in actual, predicted, or
    extra_labels (rows actual, columns predicted); macro averages run
    over labels present in actual, with per-class precision/recall
    defined as 0 when the denominator is 0.
    """
    if not actual:
        raise EmptyTest("no samples to score")
    if len(actual) != len(predicted):
        raise ValueError("actual and predicted must be parallel lists")
    labels = sorted(set(actual) | set(predicted) | set(extra_labels))
    idx = {label: i for i, label in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for a, p in zip(actual, predicted):
        confusion[idx[a], idx[p]] += 1
    accuracy = float(np.trace(confusion) / confusion.sum())
    present = sorted(set(actual))
    precisions = []
    recalls = []
    for label in present:
        i = idx[label]
        tp = float(confusion[i, i])
        pred_total = float(confusion[:, i].sum())
        actual_total = float(confusion[i, :].sum())
        precisions.append(tp / pred_total if pred_total else 0.0)
        recalls.append(tp / actual_total if actual_total else 0.0)
    return Metrics(
        accuracy=accuracy,
        macro_precision=float(np.mean(precisions)),
        macro_recall=float(np.mean(recalls)),
        labels=labels,
        confusion=confusion.tolist(),
        config=dict(config or {}),
    )


def evaluate(model: ForestModel, test_flows: list[FlowRecord]) -> Metrics:
    """Score the model on held-out flows; see compute_metrics."""
    if not test_flows:
        raise EmptyTest("test set is empty")
    actual = [f.app_label or "" for f in test_flows]
    predicted = model.predict(test_flows)
    return compute_metrics(
        actual, predicted, extra_labels=model.labels, config=model.config_dict()
    )


# A dumped tree's node arrays and their dtypes.
_TREE_ARRAYS = {"feature": np.int64, "threshold": np.float64, "left": np.int64,
                "right": np.int64, "histogram": np.int64}


def write_model(model: ForestModel, path: str | Path) -> None:
    """Dump the forest as JSON: config, labels, and per-tree arrays."""
    doc = {
        "labels": model.labels,
        "feature_names": model.feature_names,
        "config": model.config_dict(),
        "trees": [
            {name: getattr(tree, name).tolist() for name in _TREE_ARRAYS}
            for tree in model.trees
        ],
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def read_model(path: str | Path) -> ForestModel:
    """Load a forest that write_model dumped.

    Raises SchemaMismatch naming the file, and the tree and node where
    there is one, unless the file parses with every key, labels are 2 or
    more sorted distinct names, feature_names is ALL_FEATURES, config
    n_trees counts the trees, and every tree has equal-length arrays,
    features in [-1, 8), each internal node i's children following it
    in preorder (left i + 1, i + 1 < right < nodes) and histogram rows
    one count per label wide. So predicting with the model ends: every
    step moves to a later node.
    """
    def mismatch(message: str) -> SchemaMismatch:
        return SchemaMismatch(f"{path}: {message}")

    try:
        doc = json.loads(Path(path).read_text())
        labels, feature_names = list(doc["labels"]), list(doc["feature_names"])
        config = {key: int(doc["config"][key]) for key in (
            "n_trees", "max_depth", "min_leaf", "features_per_split", "seed")}
        arrays = [{name: t[name] for name in _TREE_ARRAYS} for t in doc["trees"]]
    except KeyError as exc:
        raise mismatch(f"missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise mismatch(f"not a forest model: {exc}") from exc
    if len(labels) < 2 or labels != sorted(set(map(str, labels))):
        raise mismatch(f"labels {labels} are not 2 or more sorted distinct names")
    if feature_names != list(ALL_FEATURES):
        raise mismatch(f"feature_names {feature_names} are not {list(ALL_FEATURES)}")
    if config["n_trees"] != len(arrays):
        raise mismatch(f"n_trees is {config['n_trees']} but there are {len(arrays)} trees")
    trees = []
    for t, tree in enumerate(arrays):
        try:
            lengths = {name: len(values) for name, values in tree.items()}
            if len(set(lengths.values())) != 1 or not lengths["feature"]:
                raise mismatch(f"tree {t}: node arrays have lengths {lengths}")
            for i, row in enumerate(tree["histogram"]):
                if len(row) != len(labels):
                    raise mismatch(f"tree {t} node {i}: histogram row has "
                                   f"{len(row)} counts for {len(labels)} labels")
            tree = _Tree(**{name: np.array(tree[name], dtype=dtype)
                            for name, dtype in _TREE_ARRAYS.items()})
            if [getattr(tree, name).ndim for name in _TREE_ARRAYS] != [1, 1, 1, 1, 2]:
                raise ValueError("node arrays must hold numbers, histogram rows counts")
        except (TypeError, ValueError) as exc:
            raise mismatch(f"tree {t}: {exc}") from exc
        node = np.arange(len(tree.feature))
        inner = tree.feature >= 0
        bad = (tree.feature < -1) | (tree.feature >= len(ALL_FEATURES)) | inner & (
            (tree.left != node + 1) | (tree.right <= node + 1)
            | (tree.right >= len(node))
        )
        if bad.any():
            i = int(np.argmax(bad))
            raise mismatch(
                f"tree {t} node {i}: feature {tree.feature[i]}, children "
                f"{tree.left[i]} and {tree.right[i]}; need a feature in "
                f"[-1, {len(ALL_FEATURES)}) and, with one >= 0, children "
                f"{i + 1} and one in ({i + 1}, {len(node)})"
            )
        trees.append(tree)
    return ForestModel(labels=labels, feature_names=feature_names, trees=trees, **config)
