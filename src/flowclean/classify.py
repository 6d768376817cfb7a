"""Multi-class random forest over flow features, built from scratch.

The forest measures cleaning quality: train it on a cleaned dataset,
score it on held-out flows, and compare against a forest trained on
ground-truth-cleaned data. Trees use axis-aligned splits chosen by
Gini impurity over the 6 clustering features plus the 2 auxiliary
mean-size features. dataset() turns flows into those feature rows and
their app labels, and is the only reader of a flow here: split, train,
evaluate and train_and_evaluate take rows and labels.

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

Tree t draws from SplitMix64(derive(seed, t)): draws 1..n pick its
rows (draw % n), a bootstrap sample; then split call m, counted in
preorder from 0, takes the F draws after draw n + m * F as a partial
Fisher-Yates over the 8 features (rng.py gives the draws). A call draws
F numbers whether or not it splits.

Trees grow in blocks of up to _BLOCK_TREES (50) in lockstep, so the
default 100 trees on 2 workers are one block per worker. A block keeps
its trees' rows in one buffer, and each tree a stack of its pending
nodes, each owning a run of the buffer; a step pops every tree's next
node in preorder that needs a split call (leaves popped on the way take
their ids and are done, as the class counts that made them leaves were
known when their parent split), draws each one's features from its call
index with stream_draws, one table lookup per node, and scores all of
them in one pass of numpy calls, in chunks of at most _CHUNK_ROWS rows.
So every tree is the one defined above, whatever the block and chunk
sizes:

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
  x <= threshold are a prefix of the node's rows there, written back
  to the node's run of the buffer, so each child owns one part of it.
  The prefix ends at the cut, or, where the midpoint rounded onto the
  value above it, after that value's rows. The left child's class
  counts are searched for in the slot's (class, position) order, and
  the right child's are the rest.

Determinism: with train(workers > 1) the blocks grow on
parallel.fork_map's forked worker processes: each worker inherits the
training set once and is sent only block indices, and the pool is shut
down before train returns, so no process outlives the call. The model
is the same for every worker count and block size.
Prediction ties break toward the lexicographically smallest label.

Scoring: evaluate scores a ForestModel in the calling process, as
`flowclean eval` does. train_and_evaluate, which `flowclean compare`
uses, scores the test rows in the workers that grow the trees: each
block sends back its trees' class votes per test row, their node and
leaf counts and depth, and the parent sums the votes, so no tree
crosses the pool. Votes are integers, so the sum, and the Metrics, are
those of train then evaluate, for every worker count and block size.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import parallel
from .errors import EmptyTest, LabelTooSmall, SchemaMismatch, SingleClass
from .features import ALL_FEATURES, feature_matrix
from .ingest import FlowRecord, check_labels
from .rng import SplitMix64, derive, stream_draws


def check_train_frac(train_frac: float) -> None:
    """Raise ValueError unless 0 < train_frac < 1, as split() needs."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be in (0, 1)")


def dataset(flows: list[FlowRecord]) -> tuple[np.ndarray, np.ndarray]:
    """The forest's input: feature_matrix(flows) and the app labels.

    Labels come back as an object array of str, one per row: a
    fixed-width numpy string would drop a trailing NUL and merge two
    labels. Raises ValueError for the first flow with no app label,
    before feature_matrix raises anything.
    """
    check_labels(flows)
    labels = np.array([flow.app_label for flow in flows], dtype=object)
    return feature_matrix(flows), labels


def split(
    labels: Sequence[str], train_frac: float = 0.75, seed: int = 42
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/test split by label; returns the two sets' positions.

    Each label contributes floor(n * train_frac + 0.5) positions to the
    training set (round half up) after a seeded shuffle of its
    positions; the rest go to test. Every label needs at least 4 rows.
    """
    check_train_frac(train_frac)
    by_label: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    train: list[int] = []
    test: list[int] = []
    for idx, (label, group) in enumerate(sorted(by_label.items())):
        if len(group) < 4:
            raise LabelTooSmall(f"label {label!r} has {len(group)} flows, need >= 4")
        rng = SplitMix64(derive(seed, idx))
        rng.shuffle(group)
        n_train = math.floor(len(group) * train_frac + 0.5)
        train.extend(group[:n_train])
        test.extend(group[n_train:])
    return np.array(train, dtype=np.intp), np.array(test, dtype=np.intp)


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


# The forest's settings besides workers, as a model's config and a Metrics' config name them
_CONFIG_KEYS = ("n_trees", "max_depth", "min_leaf", "features_per_split", "seed")


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
        return {key: getattr(self, key) for key in _CONFIG_KEYS}

    def predict_matrix(self, x: np.ndarray) -> list[str]:
        x = np.asarray(x, dtype=np.float64)
        return _winners(self.labels, _votes(self.trees, x, len(self.labels)))


def _votes(trees: Sequence[_Tree], x: np.ndarray, n_classes: int) -> np.ndarray:
    """How many of trees predict each class for each row of x: one int64
    row per row of x, one column per class."""
    votes = np.zeros((x.shape[0], n_classes), dtype=np.int64)
    for tree in trees:
        votes[np.arange(x.shape[0]), tree.predict_class(x)] += 1
    return votes


def _winners(labels: list[str], votes: np.ndarray) -> list[str]:
    """Each row's most voted label."""
    # argmax takes the first maximum: lexicographically smallest label
    return [labels[w] for w in np.argmax(votes, axis=1).tolist()]


# At most this many rows are scored in one pass of a growth step; a node
# with more rows is scored alone. It bounds a pass's arrays (a few dozen
# bytes per row and sampled feature) without changing any tree.
_CHUNK_ROWS = 16_384
# At most this many trees grow in lockstep in one _grow_block call, so the
# default 100 trees on 2 workers are one block per worker. A block's rows
# take one buffer of len(trees) * n * 8 bytes for n training rows.
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
    Returns (feature, threshold, ordered, left): per node, the split
    feature, or -1 where no cut beats the node's own impurity, and the
    threshold; ordered holds each split node's rows sorted by its split
    feature, so that its first left[s].sum() rows, with class counts
    left[s], go left. The module docstring gives the arithmetic.
    """
    n_nodes, n_feats = feats.shape
    n_rows, n_classes = ranks.shape[1], hist.shape[1]
    total = len(rows)
    starts = np.cumsum(sizes) - sizes
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
    # a cut needs distinct values across it and min_leaf rows each side, so
    # none follows a row whose (node, rank) the next row shares, nor a
    # node's last row
    key >>= bits
    no_cut = np.ones((n_feats, total), dtype=bool)
    np.equal(key[:, 1:], key[:, :-1], out=no_cut[:, :-1])
    del key
    nl = position + 1 - np.repeat(starts, sizes)
    nr = np.repeat(sizes, sizes) - nl
    no_cut |= (nl < min_leaf) | (nr < min_leaf)
    # With T a node's class counts and L those left of a cut, the score
    # needs L.L and R.R = T.T - 2 T.L + L.L. Each row adds a = 2 * occ + 1
    # to L.L, occ counting the rows before it in its (node, class) group,
    # and T[class] to T.L. Sorted by group and then by position, a row's
    # place in its group is its occ, so one stable pass over the groups lays
    # out both increments, a and a - 2 T[class].
    counts = hist.ravel()
    by_group = np.take(y, srows)
    by_group += np.repeat(np.arange(0, n_nodes * n_classes, n_classes), sizes)
    by_group <<= bits
    by_group += position
    if n_nodes * n_classes << bits < 2**31:
        by_group = by_group.astype(np.int32)
    by_group.sort(axis=1)
    # an int64 index scatters faster than an int32 one
    scatter = (by_group & low) + (np.arange(n_feats) * total)[:, None]
    # the group's first row sits at place first, so a = 2 * (position -
    # first) + 1 and a - 2 T[class] = 2 * (position - first - T[class]) + 1
    last = np.cumsum(counts)
    first = last - counts
    increments = np.repeat(np.stack([first, last], axis=1) * -2, counts, axis=0)
    increments += np.arange(1, 2 * total, 2)[:, None]
    # one scatter moves both increments of a row, as one 16-byte item
    pair = np.dtype((np.void, 16))
    steps = np.empty((n_feats, total, 2), dtype=np.int64)
    steps.view(pair).reshape(-1)[scatter] = increments.view(pair).reshape(-1)
    del scatter
    # A node's a sum to T.T and its a - 2 T[class] to -T.T. So adding
    # -T.T of the node before to the first sum and T.T of its own to the
    # second, at a node's first row, makes the running sums L.L and R.R.
    tt = (hist * hist).sum(axis=1)
    restart = np.zeros((n_nodes, 2), dtype=np.int64)
    restart[1:, 0] = -tt[:-1]
    restart[:, 1] = tt
    steps[:, starts] += restart
    np.cumsum(steps, axis=1, out=steps)
    nlf = nl.astype(np.float64)
    nrf = np.maximum(nr, 1.0)  # no cut follows a node's last row, where nr = 0
    score = nlf - steps[..., 0] / nlf
    score += nrf
    score -= steps[..., 1] / nrf
    del steps
    np.putmask(score, no_cut, np.inf)
    least = np.minimum.reduceat(score, starts, axis=1)
    # strict < from the parent's impurity, and the first sampled feature
    # wins a tie between features: the first least of least
    slot = least.argmin(axis=0)
    best = least[slot, np.arange(n_nodes)]
    sizes_f = sizes.astype(np.float64)
    found = best < sizes_f - tt / sizes_f - 1e-12
    # the first position of the least score in each node's chosen slot; it
    # is not the node's last row, which scores inf, unless every row does
    # (then it is the first), so pos + 1 is in the node
    chosen = np.repeat(slot * total, sizes) + position
    pos = np.minimum.reduceat(
        np.where(np.take(score, chosen) == np.repeat(best, sizes), position, total),
        starts,
    )
    feature = feats[np.arange(n_nodes), slot]
    ordered = np.take(srows, chosen)
    upper = x[ordered[pos + 1], feature]
    threshold = (x[ordered[pos], feature] + upper) / 2.0
    # rows up to the cut go left, unless the midpoint rounded onto the value
    # above it, which sends rows with that value left too
    for s in np.flatnonzero(found & (threshold >= upper)).tolist():
        segment = ordered[starts[s]:starts[s] + sizes[s]]
        pos[s] = starts[s] - 1 + np.count_nonzero(x[segment, feature[s]] <= threshold[s])
    # the left child's count of class c: the rows of group (s, c) at or before
    # pos in the chosen slot's (group, position) order
    query = np.arange(n_nodes * n_classes).reshape(n_nodes, n_classes) << bits
    query += pos[:, None]
    query = query.astype(by_group.dtype)
    left = np.stack([np.searchsorted(row, query, side="right") for row in by_group])
    left = left[slot, np.arange(n_nodes)] - first.reshape(n_nodes, n_classes)
    return np.where(found, feature, -1), threshold, ordered, left


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
    seed).
    """
    x, ranks, y, n_classes, max_depth, min_leaf, k, seed = job
    n, n_features = x.shape
    seeds = np.array([derive(seed, t) for t in trees], dtype=np.uint64)
    # Every tree still growing makes one split call per pass, so pass m is
    # split call m of each tree in it, and draws its features from draw
    # n + m * k + 1 on: the bootstrap sample draws n numbers first. The
    # features of the next `ahead` passes are drawn at once.
    ahead = 64
    # Tree i's bootstrap sample fills buffer[i * n:(i + 1) * n]. A pending node owns
    # a run of the buffer; a pass writes each scored node's rows back in its split
    # feature's order, so the children own the two parts of their parent's run.
    draws = stream_draws(seeds[:, None], np.arange(1, n + 1, dtype=np.uint64))
    buffer = (draws % np.uint64(n)).astype(np.int64).reshape(-1)
    # counts[h] is node h's class counts, h counting nodes as their parents
    # split; roots come first
    counts = np.bincount(
        np.repeat(np.arange(0, len(trees) * n_classes, n_classes), n) + y[buffer],
        minlength=len(trees) * n_classes,
    ).reshape(-1, n_classes)
    n_counts = len(trees)

    def leaf(size, class_counts):  # at max_depth a node is a leaf as well
        return (size < 2 * min_leaf) | (np.count_nonzero(class_counts, axis=-1) <= 1)

    # A pending node is (start of its run, or -1 once it is known to be a
    # leaf, size, depth, row of counts, the node whose right child it is or
    # -1); a grown node is [feature, threshold, right child, row of counts].
    root_leaf = leaf(n, counts).tolist()
    stacks = [[(-1 if is_leaf else i * n, n, 0, i, -1)]
              for i, is_leaf in enumerate(root_leaf)]
    grown = [[] for _ in trees]
    active = list(range(len(trees)))
    passes = 0
    while active:
        # every tree's next node in preorder that needs a split search;
        # the leaves before it take their preorder ids on the way
        nodes = []
        for t in active:
            stack, tree = stacks[t], grown[t]
            while stack:
                start, size, depth, h, parent = stack.pop()
                if parent >= 0:
                    tree[parent][2] = len(tree)
                tree.append([-1, 0.0, -1, h])
                if start >= 0:
                    nodes.append((t, start, size, depth, h))
                    break
        if not nodes:
            break
        if passes % ahead == 0:
            calls = np.arange(passes, passes + ahead, dtype=np.uint64)
            upcoming = _sample_features(
                np.repeat(seeds, ahead), np.tile(n + calls * k, len(trees)),
                n_features, k,
            ).reshape(len(trees), ahead, k)
        scored = np.array(nodes)
        owner, starts, sizes, _, rows_h = scored.T
        feats = upcoming[owner, passes % ahead]
        passes += 1
        for lo, hi in _chunks(sizes.tolist()):
            size = sizes[lo:hi]
            ends = np.cumsum(size)
            # the chunk's rows, node after node: one gather from the buffer
            index = np.repeat(starts[lo:hi] - (ends - size), size)
            index += np.arange(ends[-1])
            hist = counts[rows_h[lo:hi]]
            feature, threshold, ordered, left = _best_splits(
                x, ranks, y, min_leaf, buffer[index], size, hist, feats[lo:hi],
            )
            buffer[index] = ordered
            split = np.flatnonzero(feature >= 0)
            if not len(split):
                continue
            child_counts = np.stack([left, hist - left], axis=1)[split]
            child_size = child_counts.sum(axis=2)
            child_leaf = leaf(child_size, child_counts)
            if n_counts + 2 * len(split) > len(counts):
                # keeps the rows in use; the rest are written before use
                counts = np.resize(counts, (2 * (n_counts + 2 * len(split)), n_classes))
            counts[n_counts:n_counts + 2 * len(split)] = child_counts.reshape(-1, n_classes)
            for h, (t, start, _, d, _), f, v, (n_l, n_r), (leaf_l, leaf_r) in zip(
                range(n_counts, n_counts + 2 * len(split), 2),
                scored[lo:hi][split].tolist(), feature[split].tolist(),
                threshold[split].tolist(), child_size.tolist(), child_leaf.tolist(),
            ):
                tree = grown[t]
                node = len(tree) - 1  # the tree's last node is the one scored
                tree[node][:2] = f, v
                d += 1
                if d >= max_depth:
                    leaf_l = leaf_r = True
                stacks[t] += [
                    (-1 if leaf_r else start + n_l, n_r, d, h + 1, node),
                    (-1 if leaf_l else start, n_l, d, h, -1),
                ]
            n_counts += 2 * len(split)
        active = [t for t in active if stacks[t]]
    blocks = []
    for tree in grown:
        feature, threshold, right, h = zip(*tree)
        feature = np.array(feature, dtype=np.int64)
        blocks.append(_Tree(
            feature=feature,
            threshold=np.array(threshold, dtype=np.float64),
            left=np.where(feature >= 0, np.arange(1, len(feature) + 1), -1),
            right=np.array(right, dtype=np.int64),
            histogram=counts[list(h)],
        ))
    return blocks


def check_forest(
    n_trees: int, max_depth: int, min_leaf: int, features_per_split: int, workers: int
) -> None:
    """Raise ValueError, naming the parameter, unless n_trees, max_depth,
    min_leaf and workers are >= 1 and 1 <= features_per_split <= 8.
    """
    counts = {"n_trees": n_trees, "max_depth": max_depth, "min_leaf": min_leaf, "workers": workers}
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not 1 <= features_per_split <= len(ALL_FEATURES):
        raise ValueError(f"features_per_split must be in [1, {len(ALL_FEATURES)}], "
                         f"got {features_per_split}")


def _grow_blocks(
    task: Callable[[range, tuple], object],
    x: np.ndarray,
    labels: Sequence[str],
    n_trees: int,
    max_depth: int,
    min_leaf: int,
    features_per_split: int,
    seed: int,
    workers: int,
) -> tuple[list[str], list]:
    """Run task(trees, job) for each block of the forest's trees, on up
    to `workers` processes; see train for the arguments.

    job is what _grow_block takes. Returns the sorted distinct labels and
    the blocks' results in block order. Raises what check_forest raises,
    then SingleClass for fewer than 2 distinct labels.
    """
    check_forest(n_trees, max_depth, min_leaf, features_per_split, workers)
    classes, y = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
    if len(classes) < 2:
        raise SingleClass(f"need >= 2 classes, got {classes.tolist()}")
    # dense rank of every value in its column, one row per feature
    ranks = np.array(
        [np.unique(column, return_inverse=True)[1] for column in x.T], dtype=np.int64
    )
    job = (x, ranks, y, len(classes), max_depth, min_leaf, features_per_split, seed)
    workers = min(workers, n_trees, parallel.usable_cpus())
    # at least one block per worker
    size = min(_BLOCK_TREES, -(-n_trees // workers))
    blocks = [range(t, min(t + size, n_trees)) for t in range(0, n_trees, size)]
    return classes.tolist(), parallel.fork_map(
        lambda i: task(blocks[i], job), len(blocks), workers
    )


def train(
    x: np.ndarray,
    labels: Sequence[str],
    n_trees: int = 100,
    max_depth: int = 16,
    min_leaf: int = 2,
    features_per_split: int = 3,
    seed: int = 42,
    workers: int = 1,
) -> ForestModel:
    """Fit a random forest on feature rows x and their labels (str).

    Each tree trains on a bootstrap resample of the full training set.
    workers caps the processes that grow trees, further capped by
    n_trees and the CPUs this process may run on; the model is the
    same for every worker count. Where the platform cannot fork, trees
    grow in this process. Raises what check_forest raises.
    """
    classes, grown = _grow_blocks(
        _grow_block, x, labels, n_trees, max_depth, min_leaf, features_per_split, seed, workers
    )
    return ForestModel(
        labels=classes,
        feature_names=list(ALL_FEATURES),
        trees=[tree for block in grown for tree in block],
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
        return asdict(self)

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


def _scored(classes: list[str], votes: np.ndarray, labels: Sequence[str], config: dict) -> Metrics:
    """The Metrics of a forest over classes whose trees cast votes (_votes)
    on rows whose labels are labels. Raises EmptyTest for no labels."""
    if not len(labels):
        raise EmptyTest("test set is empty")
    return compute_metrics(
        list(labels), _winners(classes, votes), extra_labels=classes, config=config
    )


def evaluate(model: ForestModel, x: np.ndarray, labels: Sequence[str]) -> Metrics:
    """Score the model on held-out rows x and their labels; see compute_metrics."""
    votes = _votes(model.trees, np.asarray(x, dtype=np.float64), len(model.labels))
    return _scored(model.labels, votes, labels, model.config_dict())


def _score_block(trees: range, job: tuple, x: np.ndarray) -> tuple:
    """Grow trees `trees` (_grow_block) and vote with them on the rows x.

    Returns the votes (_votes), the trees' node and leaf counts, the
    depth of their deepest leaf and the seconds the voting took.
    """
    grown = _grow_block(trees, job)
    start = time.perf_counter()
    votes = _votes(grown, x, job[3])
    score_s = time.perf_counter() - start
    return (
        votes,
        sum(len(tree.feature) for tree in grown),
        sum(int((tree.feature < 0).sum()) for tree in grown),
        max(tree.depth() for tree in grown),
        score_s,
    )


def train_and_evaluate(
    x: np.ndarray,
    labels: Sequence[str],
    x_test: np.ndarray,
    labels_test: Sequence[str],
    n_trees: int = 100,
    max_depth: int = 16,
    min_leaf: int = 2,
    features_per_split: int = 3,
    seed: int = 42,
    workers: int = 1,
) -> tuple[Metrics, dict[str, int], float]:
    """evaluate(train(x, labels, ...), x_test, labels_test), with no model.

    Each worker grows its blocks of trees and scores x_test with them,
    and sends back only each row's class votes and the trees' sizes, so
    no tree leaves the worker. Votes are integers, so their sum over
    blocks does not depend on the block layout. Returns the Metrics; the
    forest's size as {"trees", "nodes", "leaves", "depth"}, depth being
    that of its deepest leaf (a lone root leaf has depth 0); and the
    seconds spent voting, summed over blocks. Raises what train raises,
    then EmptyTest for no test rows.
    """
    x_test = np.asarray(x_test, dtype=np.float64)
    classes, scored = _grow_blocks(
        lambda trees, job: _score_block(trees, job, x_test),
        x, labels, n_trees, max_depth, min_leaf, features_per_split, seed, workers,
    )
    votes, nodes, leaves, depth, score_s = zip(*scored)
    config = dict(zip(_CONFIG_KEYS, (n_trees, max_depth, min_leaf, features_per_split, seed)))
    metrics = _scored(classes, sum(votes), labels_test, config)
    size = {"trees": n_trees, "nodes": sum(nodes), "leaves": sum(leaves), "depth": max(depth)}
    return metrics, size, sum(score_s)


# A dumped tree's node arrays and their dtypes.
_TREE_ARRAYS = {"feature": np.int64, "threshold": np.float64, "left": np.int64,
                "right": np.int64, "histogram": np.int64}


def write_model(model: ForestModel, path: str | Path) -> None:
    """Dump the forest as JSON: config, labels, and per-tree arrays.

    The file is json.dumps of one document with a "trees" list after
    the rest, and a newline; it is written one tree at a time, so only
    one tree's text is held at once.
    """
    head = json.dumps({
        "labels": model.labels,
        "feature_names": model.feature_names,
        "config": model.config_dict(),
    })
    with open(path, "w") as fh:
        # json.dumps separates items with ", " and a key from its value with ": "
        fh.write(head[:-1] + ', "trees": [')
        for t, tree in enumerate(model.trees):
            if t:
                fh.write(", ")
            fh.write(json.dumps({name: getattr(tree, name).tolist() for name in _TREE_ARRAYS}))
        fh.write("]}\n")


def read_model(path: str | Path) -> ForestModel:
    """Load a forest that write_model dumped.

    Raises SchemaMismatch naming the file, and the tree and node where
    there is one, unless the file parses with every key, labels are 2 or
    more sorted distinct names, feature_names is ALL_FEATURES, config
    holds integers that check_forest takes, n_trees of them counting
    the trees, and every tree has equal-length arrays,
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
        config = {key: doc["config"][key] for key in _CONFIG_KEYS}
        arrays = [{name: t[name] for name in _TREE_ARRAYS} for t in doc["trees"]]
    except KeyError as exc:
        raise mismatch(f"missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise mismatch(f"not a forest model: {exc}") from exc
    try:
        for key, value in config.items():
            if type(value) is not int:  # a bool is an int to isinstance
                raise ValueError(f"{key} is {json.dumps(value)}, not an integer")
        check_forest(workers=1, **{key: n for key, n in config.items() if key != "seed"})
    except ValueError as exc:
        raise mismatch(f"config: {exc}") from None
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
        # OverflowError: a number past the array's dtype, as 10**30 is past int64
        except (TypeError, ValueError, OverflowError) as exc:
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
