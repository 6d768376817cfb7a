"""Unsupervised flow grouping: K-means and agglomerative hierarchical.

Both algorithms take a plain float64 array, one row per point, and
report centroids in the space they ran in; mapping them back to the
raw feature scale is the caller's business. Both refuse, with
UnclusterableMatrix, a matrix that has no columns, a non-finite value
or a row too large to keep distances finite (see _coerce). K-means is
the fast path; hierarchical clustering (Ward's minimum-variance method
on squared Euclidean distances) trades speed for merge-quality and
needs no seed.

Determinism contract: identical inputs, k and seed yield
bit-identical assignments and centroids. Nearest-centroid ties go to
the lowest cluster id. Hierarchical clustering follows nearest-neighbor
chains: a chain starts at the lowest-numbered live cluster,
nearest-neighbor ties go to the lowest index, and equal-height merges
replay in the order the chain found them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    InvariantViolation,
    MatrixTooLarge,
    ShapeMismatch,
    TooFewRows,
    UnclusterableMatrix,
)
from .rng import stream_draws, unit_floats


class Algorithm(Enum):
    KMEANS = "kmeans"
    HIERARCHICAL = "hier"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown algorithm {value!r}, expected kmeans or hier")


@dataclass
class ClusterModel:
    """Result of one clustering run.

    centroids row cid is the mean of cluster cid's rows, in the space
    the algorithm ran in.
    """

    k: int
    assignments: np.ndarray
    centroids: np.ndarray
    sse: float


# largest squared row norm either algorithm accepts; see _coerce
MAX_SQ_NORM = 1e280
KMEANS_MAX_ITER = 100  # Lloyd passes before kmeans stops unconverged
KMEANS_TOL = 1e-6  # kmeans stops once a pass moves no centroid coordinate this far


def _coerce(matrix: np.ndarray) -> np.ndarray:
    """The matrix as 2-D float64, refused if it cannot be clustered.

    A matrix with no columns, or a row with a NaN or infinite value or
    a squared norm r above MAX_SQ_NORM, raises UnclusterableMatrix
    naming the first such row. The check reads each row once, before
    any n x n allocation.

    Why 1e280: with every r <= R, a squared pair distance is at most
    (sqrt(r_i) + sqrt(r_j))^2 <= 4R, and so is each of its terms
    (r_i + r_j and the Cauchy-Schwarz-bounded -2 x_i . x_j). A Ward
    distance 2|A||B| / (|A| + |B|) * |c_A - c_B|^2 between clusters is
    at most n * 4R, and the largest Lance-Williams intermediate, the sum
    (s_i + s_k) d_ik + (s_j + s_k) d_jk, at most 8 n^2 R. The n x n
    matrix must fit in a 64-bit address space, so n^2 < 2^61 and
    8 n^2 R < 2e19 * 1e280 = 2e299, eight orders of magnitude below the
    largest float64 (1.8e308); k-means sums at most n * 4R. Every
    distance, update and SSE therefore stays finite, and the matrix
    NaN-free, which the chain step's additive mask relies on.
    """
    values = np.asarray(matrix, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeMismatch("matrix must be 2-D")
    if values.shape[1] == 0 and values.shape[0]:
        raise UnclusterableMatrix("row 0 has no values: the matrix has no columns")
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", values, values)
    # a NaN or infinite value makes its row's norm NaN or infinite
    bad = np.flatnonzero(~(sq <= MAX_SQ_NORM))
    if bad.size:
        row = int(bad[0])
        if not np.isfinite(values[row]).all():
            raise UnclusterableMatrix(f"row {row} holds a non-finite value")
        raise UnclusterableMatrix(
            f"row {row} has squared norm {float(sq[row])!r}, above {MAX_SQ_NORM!r}"
        )
    return values


def sse(values: np.ndarray, assignments: np.ndarray, centroids: np.ndarray) -> float:
    """Sum of squared distances from each row to its assigned centroid."""
    values = np.asarray(values, dtype=np.float64)
    assignments = np.asarray(assignments)
    centroids = np.asarray(centroids, dtype=np.float64)
    if values.ndim != 2 or centroids.ndim != 2:
        raise ShapeMismatch("values and centroids must be 2-D")
    if values.shape[1] != centroids.shape[1]:
        raise ShapeMismatch("column counts differ")
    if assignments.shape != (values.shape[0],):
        raise ShapeMismatch("one assignment per row required")
    if len(assignments) and (
        assignments.min() < 0 or assignments.max() >= centroids.shape[0]
    ):
        raise ShapeMismatch("assignment out of centroid range")
    diff = values - centroids[assignments]
    return float(np.einsum("ij,ij->", diff, diff))


def _sq_dists(values: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Pairwise squared distances, rows x centroids, clamped at 0.

    Built in place in the cross-product buffer, so the peak is one
    rows x centroids array.
    """
    d2 = values @ centroids.T
    d2 *= -2.0
    d2 += np.einsum("ij,ij->i", values, values)[:, None]
    d2 += np.einsum("ij,ij->i", centroids, centroids)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _kmeanspp_init(values: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding: center c takes draw c + 1 of the stream seed.

    It is row u % n for the first center and while every row sits on a
    chosen center, else sampled by cumulative squared distance.
    """
    n = values.shape[0]
    draws = stream_draws(np.uint64(seed % 2**64), np.arange(1, k + 1, dtype=np.uint64))
    units = unit_floats(draws).tolist()
    draws = draws.tolist()
    centers = [draws[0] % n]
    diff = values - values[centers[0]]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for c in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            cand = draws[c] % n
        else:
            r = units[c] * total
            cand = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            cand = min(cand, n - 1)
        centers.append(cand)
        diff = values - values[cand]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    return values[np.array(centers)].astype(np.float64, copy=True)


def kmeans(
    matrix: np.ndarray,
    k: int,
    seed: int,
) -> ClusterModel:
    """Lloyd's algorithm with k-means++ seeding.

    Empty clusters are repaired by donating the point currently
    farthest from its own centroid. The within-cluster SSE after each
    centroid update must not rise; InvariantViolation is raised if it
    does.
    """
    values = _coerce(matrix)
    n = values.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise TooFewRows(f"{n} rows < k={k}")

    centroids = _kmeanspp_init(values, k, seed)
    assign = np.zeros(n, dtype=np.int64)
    prev_sse = np.inf
    for iteration in range(1, KMEANS_MAX_ITER + 1):
        d2 = _sq_dists(values, centroids)
        assign = np.argmin(d2, axis=1)
        counts = np.bincount(assign, minlength=k)
        for cid in range(k):
            if counts[cid] == 0:
                # donate the worst-fitting point of a multi-member cluster
                own = d2[np.arange(n), assign]
                donor = int(np.argmax(np.where(counts[assign] > 1, own, -1.0)))
                counts[assign[donor]] -= 1
                assign[donor] = cid
                counts[cid] = 1
        new_centroids = np.empty_like(centroids)
        for cid in range(k):
            new_centroids[cid] = values[assign == cid].mean(axis=0)
        cur_sse = sse(values, assign, new_centroids)
        if cur_sse > prev_sse + 1e-9:
            raise InvariantViolation(
                f"SSE rose from {prev_sse!r} to {cur_sse!r} "
                f"at Lloyd iteration {iteration}"
            )
        prev_sse = cur_sse
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if shift < KMEANS_TOL:
            break
    return ClusterModel(
        k=k,
        assignments=assign,
        centroids=centroids,
        sse=prev_sse,
    )


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def pair_matrices_that_fit(rows: int) -> int:
    """How many hierarchical() pair matrices of `rows` rows fit in physical memory together.

    At least one: a matrix that cannot fit alone fails in its own call
    with MatrixTooLarge.
    """
    return max(1, _physical_memory_bytes() // max(1, rows * rows * 8))


# rows of the pair matrix per norm-sum temporary, a small share of n x n
_PAIR_BLOCK_ROWS = 64


def _pair_matrix(values: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows, n x n, +inf on the diagonal."""
    # the n x n float64 matrix is the whole peak of hierarchical
    # clustering; fail before allocating one the machine cannot hold
    n = values.shape[0]
    needed = n * n * 8
    available = _physical_memory_bytes()
    if needed > available:
        raise MatrixTooLarge(
            f"hierarchical clustering of {n} rows needs a {needed}-byte "
            f"distance matrix, more than the {available} bytes of physical memory"
        )
    # d2[i, j] and d2[j, i] must be the same float, or a nearest-neighbor
    # chain can cycle forever. numpy computes a C-contiguous a @ a.T as
    # one symmetric product (a strided a may be copied twice and rounded
    # apart), and r_i + r_j is added as one term: adding the norms in
    # two steps, as _sq_dists does, can round d2[i, j] and d2[j, i] apart
    values = np.ascontiguousarray(values)
    sq = np.einsum("ij,ij->i", values, values)
    d2 = values @ values.T
    d2 *= -2.0
    for start in range(0, n, _PAIR_BLOCK_ROWS):
        stop = min(start + _PAIR_BLOCK_ROWS, n)
        d2[start:stop] += sq[start:stop, None] + sq[None, :]
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    return d2


def _lw_update(
    d_ik: np.ndarray,
    d_jk: np.ndarray,
    d_ij: float,
    s_i: float,
    s_j: float,
    s_k: np.ndarray,
) -> np.ndarray:
    """Ward's Lance-Williams distance from merged cluster (i u j) to others k.

    Computes in place and overwrites d_ik, d_jk and s_k, so pass fresh
    gathers; returns d_ik. It performs the same float operations, on
    the same operands and in the same order, as the textbook expression
    in the comment, so the results are bit-identical to it (+ and * are
    exactly commutative).
    """
    # ((s_i + s_k) * d_ik + (s_j + s_k) * d_jk - s_k * d_ij)
    #   / (s_i + s_j + s_k)
    scratch = np.add(s_k, s_i)
    d_ik *= scratch
    np.add(s_k, s_j, out=scratch)
    d_jk *= scratch
    d_ik += d_jk
    np.multiply(s_k, d_ij, out=d_jk)
    d_ik -= d_jk
    s_k += s_i + s_j
    d_ik /= s_k
    return d_ik


def _groups_to_model(values: np.ndarray, groups: list[list[int]]) -> ClusterModel:
    # stable ids: clusters ordered by their smallest member row
    groups = sorted(groups, key=min)
    k = len(groups)
    assign = np.empty(values.shape[0], dtype=np.int64)
    centroids = np.empty((k, values.shape[1]), dtype=np.float64)
    for cid, members in enumerate(groups):
        assign[members] = cid
        centroids[cid] = values[members].mean(axis=0)
    return ClusterModel(
        k=k,
        assignments=assign,
        centroids=centroids,
        sse=sse(values, assign, centroids),
    )


def _nnchain_merges(values: np.ndarray) -> list[tuple[float, int, int]]:
    """Full merge list (height, a, b) with a < b, in replay order.

    Follows nearest-neighbor chains (Muellner 2011, arXiv:1109.2378):
    a chain starts at the lowest-numbered live cluster, each step moves
    to the nearest live neighbor (ties to the lowest index), and a
    reciprocal pair merges into its lower index. The merges are then
    sorted by ascending height; equal heights keep the order the chain
    found them in.

    Invariants of the loop, over the one n x n matrix:
    - the diagonal stays +inf: _pair_matrix sets it, a merge of b into
      a writes row a only at the other live clusters, and a sync of row
      c (below) never writes dist[c, c], since writing row c also marks
      it up to date;
    - a chain step reads dist[x] + dead, where dead is 0.0 for a live
      cluster and +inf for one merged away. _coerce keeps the matrix
      finite, so this reads exactly as np.where(alive, dist[x], inf);
      a dead cluster's stale row and column are never read otherwise;
    - a merge costs O(live): two row gathers, one Lance-Williams update
      (which overwrites its fresh gathers) and one write of row a. No
      column is written, so the other live rows fall behind at a;
    - sync(c) brings row c up to date before it is read: at each chain
      step for x = chain[-1], and before each merge for its partner
      y = chain[-2], which was last synced as the top of the chain and
      may have fallen behind at merges made above it since. For each
      live row r written since row c was last synced or written, it
      copies dist[r, c] into dist[c, r]. That is the value the later of
      the two rows' merges wrote, the same float the column write of a
      symmetric loop stores, so every distance the loop reads or passes
      to _lw_update is the one it would read there, and merges, heights
      and ties are the same. A row never written reads its first
      entries from both sides, which is why _pair_matrix must be
      exactly symmetric.

    Bookkeeping, with m the merges so far: merge j (1-based) wrote row
    log[j - 1]; current[j - 1] holds while that is the last write of a
    live row; written[r] is the merge of row r's last write (0 for
    _pair_matrix's) and synced[c] the merge count row c is up to date
    at. Each sync reads the log only since synced[c], and patches each
    row written there once.
    """
    n = values.shape[0]
    dist = _pair_matrix(values)
    sizes = np.ones(n, dtype=np.float64)
    alive = np.ones(n, dtype=bool)
    dead = np.zeros(n, dtype=np.float64)
    row = np.empty(n, dtype=np.float64)
    log = np.empty(n, dtype=np.intp)
    current = np.zeros(n, dtype=bool)
    written = [0] * n
    synced = [0] * n
    merges: list[tuple[float, int, int]] = []
    chain: list[int] = []

    def sync(c: int) -> None:
        s, m = synced[c], len(merges)
        if s < m:
            rows = log[s:m][current[s:m]]
            dist[c][rows] = dist[rows, c]
            synced[c] = m

    while len(merges) < n - 1:
        if not chain:
            # argmax of a bool array is its first True
            chain.append(int(alive.argmax()))
        x = chain[-1]
        sync(x)
        # dist[x, x] is +inf, so x is never its own nearest neighbor
        np.add(dist[x], dead, out=row)
        y = int(row.argmin())
        if len(chain) >= 2 and y == chain[-2]:
            sync(y)
            chain.pop()
            chain.pop()
            a, b = (x, y) if x < y else (y, x)
            d_ab = dist[a, b]
            merges.append((float(d_ab), a, b))
            alive[a] = alive[b] = False
            idx = np.flatnonzero(alive)
            alive[a] = True
            dead[b] = np.inf
            if idx.size:
                row_a = dist[a]
                row_a[idx] = _lw_update(
                    row_a[idx],
                    dist[b][idx],
                    d_ab,
                    sizes[a],
                    sizes[b],
                    sizes[idx],
                )
            sizes[a] += sizes[b]
            m = len(merges)
            for merged in (a, b):
                if written[merged]:
                    current[written[merged] - 1] = False
            log[m - 1] = a
            current[m - 1] = True
            written[a] = synced[a] = m
        else:
            chain.append(y)
    merges.sort(key=lambda m: m[0])
    return merges


def hierarchical(matrix: np.ndarray, k: int) -> ClusterModel:
    """Ward agglomerative clustering cut at k clusters.

    Replays the first n - k merges of the nearest-neighbor chain. Tie
    rule: the chain starts at the lowest-numbered live cluster,
    nearest-neighbor ties go to the lowest index, and equal-height
    merges replay in the order the chain found them.
    """
    values = _coerce(matrix)
    n = values.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise TooFewRows(f"{n} rows < k={k}")
    parent = list(range(n))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    # the merge edges form a spanning tree, so each joins two components
    for _, a, b in _nnchain_merges(values)[: n - k]:
        parent[find(b)] = find(a)
    groups: dict[int, list[int]] = {}
    for point in range(n):
        groups.setdefault(find(point), []).append(point)
    return _groups_to_model(values, list(groups.values()))
