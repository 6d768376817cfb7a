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
and lies between distinct values, and keeps the sampled feature whose
best cut (its first least score) scores least, the first in sampled
order on a tie. It splits there only if that score is strictly below
the node's own n - T.T / n - 1e-12. The score of a cut with class
counts L left and R right of n = nl + nr rows is the float64
nl - L.L / nl + nr - R.R / nr, n times the weighted Gini. Rows with
x <= threshold, the midpoint of the values either side of the cut, go
left. Without such a cut the node is a leaf. A node's id is its place
in preorder, so a left child's is its parent's plus 1.

Tree t draws from the stream derive(seed, t) (rng.py): draws 1..n pick
its rows (draw % n), a bootstrap sample; then split call m, counted in
preorder from 0, takes the F draws from n + m * F + 1 on as a partial
Fisher-Yates over the 8 features. A call draws F numbers whether or not
it splits.

Several forests can grow at once, each on a set of rows of one x: tree
t of set a draws n = len(set a) rows of set a, as train(x[set a]) would.
Labels become codes over all of x's labels, each value of x its dense
rank in its column, and a set's trees count only its own classes in
their histograms; ranks over the whole column keep the order and the
ties of any subset, so a set's trees are those of train on it alone.
train is the case of one set, every row of x.

Trees grow in blocks in lockstep. A block holds the same range of trees
of every set, at most _BLOCK_ROWS (2**22) bootstrap rows in all unless
that is one tree of each set, and each worker gets a block at least; so
the default 100 trees on 2 workers are one block per worker while the
sets hold up to 83 886 rows in all. A block keeps its trees' rows in one
buffer and its nodes in arrays: each node's start in the buffer, depth,
children, feature, threshold and class counts. Each tree has an array
stack of its pending split calls; leaves never enter it. A pass pops
every tree's top node, its next node in preorder that makes a split
call, draws each one's features from its call index with stream_draws,
one table lookup per node, scores all of them in one pass of numpy
calls, in chunks of at most _CHUNK_ROWS rows, and pushes the children
that make a split call, right then left, with a few masked
assignments. Once every stack is empty, subtree sizes, summed one depth
level at a time, give each node its id. So every tree is the one
defined above, whatever the sets, block and chunk sizes:

- A pass sorts each (feature slot, node) segment of rows by the dense
  rank of the feature's values, with ties in row order. Counts at a cut
  between distinct values do not depend on how equal values are
  ordered.
- L.L is the running sum of 2 * occ + 1, occ counting the earlier rows
  of the row's class, and T.L the running sum of T[class]; both restart
  at each node. R.R = T.T - 2 * T.L + L.L. All are exact integers, so
  the score is the same float64 however the sums were formed.
- np.minimum.reduceat finds each segment's least score, and its first
  position; each node then takes the first slot, in sampled order,
  whose score is the least of those, and splits if that is strictly
  below its own impurity.
- The chosen slot's sorted rows give the children: the rows with
  x <= threshold are a prefix of the node's rows there, written back
  to the node's run of the buffer, so each child owns one part of it.
  The prefix ends at the cut, or, where the midpoint rounded onto the
  value above it, after that value's rows. The left child's class
  counts are searched for in the slot's (class, position) order, and
  the right child's are the rest.

Determinism: with workers > 1 the blocks grow on parallel.fork_map's
forked worker processes: each worker inherits x and the sets once and
is sent only block indices, and the pool is shut down before train or
train_and_evaluate returns, so no process outlives the call. The model
is the same for every worker count and block size.
Prediction ties break toward the lexicographically smallest label.

Scoring: evaluate scores a ForestModel in the calling process, as
`flowclean eval` does. train_and_evaluate, which `flowclean compare`
uses for all its arms at once, scores each set's test rows in the
workers that grow its trees: each block sends back, per set, its
trees' class votes per test row, their node and leaf counts and depth,
and the parent sums the votes, so no tree crosses the pool. Votes are
integers, so the sum, and the Metrics, are those of train then
evaluate, for every worker count and block size. A set equal to an
earlier one, train and test rows alike, is not grown again.
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
from .rng import derive, shuffle, stream_draws


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

    Label j in sorted order shuffles its g positions on draws 1..g-1 of
    derive(seed, j) and gives floor(g * train_frac + 0.5) to the training
    set (round half up); the rest go to test. Every label needs >= 4 rows.
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
        shuffle(derive(seed, idx), group)
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
# At most this many bootstrap rows, summed over a block's trees, grow in
# lockstep in one _grow_block call, unless the block is one tree of each
# set. They take one buffer of 8 bytes a row, and a pass's node records
# follow the trees' sizes.
_BLOCK_ROWS = 1 << 22


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
    draws first[i] + 1 on of the stream seeds[i]. The digits
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
    # score inf where no cut may be: score is finite, so a branch-free max
    np.maximum(score, np.subtract(no_cut, 0.5) * np.inf, out=score)
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
    left = np.empty((n_nodes, n_classes), dtype=np.intp)
    for f in range(n_feats):
        mine = slot == f
        left[mine] = np.searchsorted(by_group[f], query[mine], side="right")
    left -= first.reshape(n_nodes, n_classes)
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


def _resized(array: np.ndarray, cap: int) -> np.ndarray:
    """array's rows followed by rows of -1, cap rows in all."""
    out = np.full((cap, *array.shape[1:]), -1, dtype=array.dtype)
    out[:len(array)] = array
    return out


def _grow_block(trees: range, job: tuple) -> list[list[_Tree]]:
    """Grow trees `trees` of every set's forest in lockstep; see the module
    docstring. Returns each set's trees, in set order.

    job is (x, ranks, y, sets, max_depth, min_leaf, features_per_split,
    seed); sets holds each set's rows of x and its classes, the sorted
    codes of y that its rows take.
    """
    x, ranks, y, sets, max_depth, min_leaf, k, seed = job
    n_features = x.shape[1]
    n_classes = 1 + max(int(classes[-1]) for _, classes in sets)
    # block tree i is tree trees[i % m] of set i // m, and draws n[i] rows
    m = len(trees)
    seeds = np.array([derive(seed, t) for t in trees], dtype=np.uint64)
    n = np.repeat([len(rows) for rows, _ in sets], m)
    n_trees = len(n)
    # Node h's record: the start of its run of the buffer, its depth, its
    # left child (the right is child[h] + 1; -1 for a leaf), its feature (-1
    # for a leaf) and threshold, and its class counts. Roots come first, and
    # a split appends its two children.
    cap = 4 * n_trees
    start, depth, child, feature = np.full((4, cap), -1, dtype=np.int64)
    threshold = np.zeros(cap)
    counts = np.zeros((cap, n_classes), dtype=np.int64)
    # Tree i's bootstrap rows fill buffer[start[i]:start[i] + n[i]]. A node
    # owns a run of the buffer; a pass writes each scored node's rows back in
    # its split feature's order, so the children own the two parts of their
    # parent's run.
    start[:n_trees] = np.cumsum(n) - n
    depth[:n_trees] = 0
    buffer = np.empty(n.sum(), dtype=np.int64)
    for a, (rows, _) in enumerate(sets):
        draws = stream_draws(seeds[:, None], np.arange(1, len(rows) + 1, dtype=np.uint64))
        draws %= np.uint64(len(rows))
        sample = rows[draws]
        del draws
        buffer[start[a * m]:start[a * m] + sample.size] = sample.reshape(-1)
        # each tree's classes counted in its own row of counts
        sample = y[sample]
        sample += np.arange(0, m * n_classes, n_classes)[:, None]
        counts[a * m:(a + 1) * m] = np.bincount(
            sample.reshape(-1), minlength=m * n_classes
        ).reshape(m, n_classes)
        del sample

    def leaf(size, class_counts, node_depth):  # which nodes make no split call
        return (
            (size < 2 * min_leaf)
            | (np.count_nonzero(class_counts, axis=-1) <= 1)
            | (node_depth >= max_depth)
        )

    # Tree i's pending split calls, on a stack: stack[i, :top[i]]. A pass pops
    # every tree's top node, the tree's next node in preorder that makes a
    # split call, and pushes its children that make one, right then left;
    # leaves never enter a stack. Under a pending node of depth d lies at
    # most one right sibling of depth 1 to d, and none reaches max_depth.
    stack = np.zeros((n_trees, max_depth), dtype=np.int64)
    stack[:, 0] = np.arange(n_trees)
    top = np.where(leaf(n, counts[:n_trees], 0), 0, 1)
    # Every tree still growing makes one split call per pass, so pass m is
    # split call m of each tree in it, and draws its features from draw
    # n + m * k + 1 on: the bootstrap sample draws n numbers first. The
    # features of the next `ahead` passes are drawn at once.
    ahead = 64
    passes = 0
    n_nodes = n_trees
    while (active := np.flatnonzero(top)).size:
        if passes % ahead == 0:
            calls = np.arange(passes, passes + ahead, dtype=np.uint64) * np.uint64(k)
            upcoming = _sample_features(
                np.repeat(np.tile(seeds, len(sets)), ahead),
                (n.astype(np.uint64)[:, None] + calls).reshape(-1),
                n_features, k,
            ).reshape(n_trees, ahead, k)
        top[active] -= 1
        scored = stack[active, top[active]]
        feats = upcoming[active, passes % ahead]
        passes += 1
        starts, hist = start[scored], counts[scored]
        sizes = hist.sum(axis=1)
        found = np.empty(len(scored), dtype=np.int64)
        cut = np.empty(len(scored))
        left = np.empty_like(hist)
        for lo, hi in _chunks(sizes.tolist()):
            run = sizes[lo:hi]
            stops = np.cumsum(run)
            # the chunk's rows, node after node: one gather from the buffer
            index = np.repeat(starts[lo:hi] - (stops - run), run)
            index += np.arange(stops[-1])
            found[lo:hi], cut[lo:hi], ordered, left[lo:hi] = _best_splits(
                x, ranks, y, min_leaf, buffer[index], run, hist[lo:hi], feats[lo:hi],
            )
            buffer[index] = ordered
        split = np.flatnonzero(found >= 0)
        if not len(split):
            continue
        parents, owners = scored[split], active[split]
        new = slice(n_nodes, n_nodes + 2 * len(split))
        if new.stop > cap:
            # keeps the records in use; a new one reads -1, a leaf's feature
            # and child, until written
            cap = new.stop * 3 // 2
            start, depth, child, feature, threshold, counts = (
                _resized(array, cap)
                for array in (start, depth, child, feature, threshold, counts)
            )
        feature[parents] = found[split]
        threshold[parents] = cut[split]
        child[parents] = np.arange(new.start, new.stop, 2)
        # each split node's children, left then right
        pair = np.stack([left[split], hist[split] - left[split]], axis=1)
        pair_size = pair.sum(axis=2)
        pair_depth = depth[parents] + 1
        counts[new] = pair.reshape(-1, n_classes)
        runs = start[new].reshape(-1, 2)  # a view: writes reach start
        runs[:, 0] = starts[split]
        runs[:, 1] = starts[split] + pair_size[:, 0]
        depth[new] = np.repeat(pair_depth, 2)
        grows = ~leaf(pair_size, pair, pair_depth[:, None])
        for side in (1, 0):
            who = owners[grows[:, side]]
            stack[who, top[who]] = child[parents[grows[:, side]]] + side
            top[who] += 1
        n_nodes = new.stop
    return _trees(sets, m, n_nodes, depth, child, feature, threshold, counts)


def _trees(
    sets: list, m: int, n_nodes: int, depth: np.ndarray, child: np.ndarray,
    feature: np.ndarray, threshold: np.ndarray, counts: np.ndarray,
) -> list[list[_Tree]]:
    """Each set's _Trees from a block's first n_nodes node records (see
    _grow_block), m trees per set, whose roots come first."""
    inner = np.flatnonzero(child[:n_nodes] >= 0)
    levels = [inner[depth[inner] == d] for d in range(int(depth[:n_nodes].max()))]
    # each node's subtree size, the deepest level first; then, from its
    # parent's, its tree and its id, its place in its tree's preorder
    subtree = np.ones(n_nodes, dtype=np.int64)
    for level in reversed(levels):
        subtree[level] += subtree[child[level]] + subtree[child[level] + 1]
    roots = m * len(sets)
    tree = np.zeros(n_nodes, dtype=np.int64)
    tree[:roots] = np.arange(roots)
    ids = np.zeros(n_nodes, dtype=np.int64)
    for level in levels:
        left = child[level]
        tree[left] = tree[left + 1] = tree[level]
        ids[left] = ids[level] + 1
        ids[left + 1] = ids[level] + 1 + subtree[left]
    bounds = np.cumsum(subtree[:roots]) - subtree[:roots]
    order = np.empty(n_nodes, dtype=np.int64)
    order[bounds[tree] + ids] = np.arange(n_nodes)
    inner = feature[order] >= 0
    arrays = {
        "feature": feature[order],
        "threshold": np.where(inner, threshold[order], 0.0),
        "left": np.where(inner, ids[order] + 1, -1),
        "right": np.where(inner, ids[child[order] + 1], -1),
    }
    bounds = np.append(bounds, n_nodes).tolist()
    grown = []
    for a, (_, classes) in enumerate(sets):
        lo, hi = bounds[a * m], bounds[(a + 1) * m]
        histogram = counts[np.ix_(order[lo:hi], classes)]
        grown.append([
            _Tree(**{name: array[i:j] for name, array in arrays.items()},
                  histogram=histogram[i - lo:j - lo])
            for i, j in zip(bounds[a * m:(a + 1) * m], bounds[a * m + 1:(a + 1) * m + 1])
        ])
    return grown


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


def check_set(labels: np.ndarray, train_rows: np.ndarray, test_rows: np.ndarray | None) -> None:
    """Raise SingleClass unless labels[train_rows] hold 2 or more distinct
    labels, then EmptyTest for no test_rows, unless test_rows is None."""
    distinct = set(labels[train_rows].tolist())
    if len(distinct) < 2:
        raise SingleClass(f"need >= 2 classes, got {sorted(distinct)}")
    if test_rows is not None and not len(test_rows):
        raise EmptyTest("test set is empty")


def _grow_blocks(
    task: Callable[[range, tuple], object],
    x: np.ndarray,
    labels: Sequence[str],
    sets: list[tuple[np.ndarray, np.ndarray | None]],
    n_trees: int,
    max_depth: int,
    min_leaf: int,
    features_per_split: int,
    seed: int,
    workers: int,
) -> tuple[list[list[str]], list]:
    """Run task(trees, job) for each block of the forests' trees, on up
    to `workers` processes; see train_and_evaluate for the arguments.

    sets holds each forest's training rows of x and its test rows, or
    None. job is what _grow_block takes. Returns each set's sorted
    distinct labels and the blocks' results in block order; no sets
    start no pool and give no results. Raises what check_forest raises,
    then what check_set raises for each set in turn.
    """
    check_forest(n_trees, max_depth, min_leaf, features_per_split, workers)
    if not sets:
        return [], []
    labels = np.asarray(labels, dtype=object)
    for rows, test in sets:
        check_set(labels, rows, test)
    classes, y = np.unique(labels, return_inverse=True)
    # each set's classes; np.unique here would import numpy.ma, a lasting 1 MB
    codes = [np.flatnonzero(np.bincount(y[rows])) for rows, _ in sets]
    # dense rank of every value in its column, one row per feature: the
    # ranks of any rows of x keep their values' order and ties
    ranks = np.array(
        [np.unique(column, return_inverse=True)[1] for column in x.T], dtype=np.int64
    )
    job = (x, ranks, y, [(rows, c) for (rows, _), c in zip(sets, codes)],
           max_depth, min_leaf, features_per_split, seed)
    workers = min(workers, n_trees, parallel.usable_cpus())
    # at least one block per worker, and one tree of each set at least
    size = min(max(1, _BLOCK_ROWS // sum(len(rows) for rows, _ in sets)), -(-n_trees // workers))
    blocks = [range(t, min(t + size, n_trees)) for t in range(0, n_trees, size)]
    return [classes[c].tolist() for c in codes], parallel.fork_map(
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
    grow in this process. Raises what check_forest raises, then
    SingleClass for fewer than 2 distinct labels.
    """
    (classes,), grown = _grow_blocks(
        _grow_block, x, labels, [(np.arange(len(x)), None)],
        n_trees, max_depth, min_leaf, features_per_split, seed, workers,
    )
    return ForestModel(
        labels=classes,
        feature_names=list(ALL_FEATURES),
        trees=[tree for (block,) in grown for tree in block],
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


def _score_block(trees: range, job: tuple, tests: list[np.ndarray]) -> list[tuple]:
    """Grow trees `trees` of every set (_grow_block), and vote with each
    set's trees on its test rows of x, tests[a] for set a.

    Returns, for each set, the votes (_votes), the trees' node and leaf
    counts, the depth of their deepest leaf and the seconds the voting
    took.
    """
    x, sets = job[0], job[3]
    scored = []
    for grown, (_, classes), test in zip(_grow_block(trees, job), sets, tests):
        start = time.perf_counter()
        votes = _votes(grown, x[test], len(classes))
        scored.append((
            votes,
            sum(len(tree.feature) for tree in grown),
            sum(int((tree.feature < 0).sum()) for tree in grown),
            max(tree.depth() for tree in grown),
            time.perf_counter() - start,
        ))
    return scored


def train_and_evaluate(
    x: np.ndarray,
    labels: Sequence[str],
    sets: Sequence[tuple[np.ndarray, np.ndarray]],
    n_trees: int = 100,
    max_depth: int = 16,
    min_leaf: int = 2,
    features_per_split: int = 3,
    seed: int = 42,
    workers: int = 1,
) -> list[tuple[Metrics, dict[str, int], float]]:
    """For each set (train_rows, test_rows) of rows of x, in turn,
    evaluate(train(x[train_rows], labels[train_rows], ...),
    x[test_rows], labels[test_rows]), with no model.

    One pool grows every set's forest: a block holds the same trees of
    each set, and each worker scores its blocks' test rows and sends
    back only each row's class votes and the trees' sizes, so no tree
    leaves the worker. Votes are integers, so their sum over blocks does
    not depend on the block layout. Returns, per set, the Metrics; the
    forest's size as {"trees", "nodes", "leaves", "depth"}, depth being
    that of its deepest leaf (a lone root leaf has depth 0); and the
    seconds spent voting, summed over blocks. A set whose train and
    test rows equal an earlier set's is not grown again: it gets that
    set's results, the same objects. Raises what check_forest raises,
    then what check_set raises for each set in turn.
    """
    labels = np.asarray(labels, dtype=object)
    sets = [(np.asarray(train, dtype=np.intp), np.asarray(test, dtype=np.intp))
            for train, test in sets]
    # each distinct set's rows, and its place among the distinct sets
    group: dict[tuple[bytes, bytes], int] = {}
    places = [group.setdefault((train.tobytes(), test.tobytes()), len(group))
              for train, test in sets]
    distinct = [sets[places.index(g)] for g in range(len(group))]
    tests = [test for _, test in distinct]
    classes, scored = _grow_blocks(
        lambda trees, job: _score_block(trees, job, tests),
        x, labels, distinct, n_trees, max_depth, min_leaf, features_per_split, seed, workers,
    )
    config = dict(zip(_CONFIG_KEYS, (n_trees, max_depth, min_leaf, features_per_split, seed)))
    results = []
    for a, (set_classes, test) in enumerate(zip(classes, tests)):
        votes, nodes, leaves, depth, score_s = zip(*(block[a] for block in scored))
        metrics = _scored(set_classes, sum(votes), labels[test], config)
        size = {"trees": n_trees, "nodes": sum(nodes), "leaves": sum(leaves), "depth": max(depth)}
        results.append((metrics, size, sum(score_s)))
    return [results[g] for g in places]


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
