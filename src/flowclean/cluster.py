"""Unsupervised flow grouping: K-means and agglomerative hierarchical.

Both algorithms take a plain float64 array, one row per point, and
report centroids in the space they ran in; mapping them back to the
raw feature scale is the caller's business. K-means is the fast path;
hierarchical clustering (Ward by default) trades speed for
merge-quality and needs no seed.

Determinism contract: identical inputs, k, seed, and tolerance yield
bit-identical assignments and centroids. Nearest-centroid ties go to
the lowest cluster id. Hierarchical clustering follows nearest-neighbor
chains: a chain starts at the lowest-numbered live cluster,
nearest-neighbor ties go to the lowest index, and equal-height merges
replay in the order the chain found them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InvariantViolation, ShapeMismatch, TooFewRows
from .features import CLUSTER_FEATURES
from .rng import SplitMix64


class Algorithm(Enum):
    KMEANS = "kmeans"
    HIERARCHICAL = "hier"


class Linkage(Enum):
    WARD = "ward"
    AVERAGE = "average"
    COMPLETE = "complete"


@dataclass
class ClusterModel:
    """Result of one clustering run.

    centroids row cid is the mean of cluster cid's rows, in the space
    the algorithm ran in.
    """

    algorithm: Algorithm
    k: int
    assignments: np.ndarray
    centroids: np.ndarray
    sse: float

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)


def _coerce(matrix: np.ndarray) -> np.ndarray:
    values = np.asarray(matrix, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeMismatch("matrix must be 2-D")
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


def _kmeanspp_init(values: np.ndarray, k: int, rng: SplitMix64) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared distance."""
    n = values.shape[0]
    centers = [rng.next_below(n)]
    diff = values - values[centers[0]]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            cand = rng.next_below(n)
        else:
            r = rng.random() * total
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
    max_iter: int = 100,
    tol: float = 1e-6,
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

    rng = SplitMix64(seed)
    centroids = _kmeanspp_init(values, k, rng)
    assign = np.zeros(n, dtype=np.int64)
    prev_sse = np.inf
    for iteration in range(1, max_iter + 1):
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
        if shift < tol:
            break
    return ClusterModel(
        algorithm=Algorithm.KMEANS,
        k=k,
        assignments=assign,
        centroids=centroids,
        sse=prev_sse,
    )


def _pair_matrix(values: np.ndarray, squared: bool) -> np.ndarray:
    d2 = _sq_dists(values, values)
    np.fill_diagonal(d2, np.inf)
    return d2 if squared else np.sqrt(d2, out=d2)


def _lw_update(
    linkage: Linkage,
    d_ik: np.ndarray,
    d_jk: np.ndarray,
    d_ij: float,
    s_i: float,
    s_j: float,
    s_k: np.ndarray,
) -> np.ndarray:
    """Lance-Williams distance from merged cluster (i u j) to others k."""
    if linkage is Linkage.WARD:
        denom = s_i + s_j + s_k
        return ((s_i + s_k) * d_ik + (s_j + s_k) * d_jk - s_k * d_ij) / denom
    if linkage is Linkage.AVERAGE:
        return (s_i * d_ik + s_j * d_jk) / (s_i + s_j)
    return np.maximum(d_ik, d_jk)


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
        algorithm=Algorithm.HIERARCHICAL,
        k=k,
        assignments=assign,
        centroids=centroids,
        sse=sse(values, assign, centroids),
    )


def _nnchain_merges(
    values: np.ndarray, linkage: Linkage
) -> list[tuple[float, int, int]]:
    """Full merge list (height, a, b) with a < b, in replay order.

    Follows nearest-neighbor chains (Muellner 2011, arXiv:1109.2378):
    a chain starts at the lowest-numbered live cluster, each step moves
    to the nearest live neighbor (ties to the lowest index), and a
    reciprocal pair merges into its lower index. The merges are then
    sorted by ascending height; equal heights keep the order the chain
    found them in.
    """
    n = values.shape[0]
    dist = _pair_matrix(values, squared=linkage is Linkage.WARD)
    sizes = np.ones(n, dtype=np.float64)
    alive = np.ones(n, dtype=bool)
    merges: list[tuple[float, int, int]] = []
    chain: list[int] = []
    while len(merges) < n - 1:
        if not chain:
            chain.append(int(np.flatnonzero(alive)[0]))
        x = chain[-1]
        row = np.where(alive, dist[x], np.inf)
        row[x] = np.inf
        y = int(np.argmin(row))
        if len(chain) >= 2 and y == chain[-2]:
            chain.pop()
            chain.pop()
            a, b = (x, y) if x < y else (y, x)
            d_ab = dist[a, b]
            merges.append((float(d_ab), a, b))
            others = alive.copy()
            others[a] = others[b] = False
            idx = np.flatnonzero(others)
            if idx.size:
                dist[a, idx] = _lw_update(
                    linkage,
                    dist[a, idx],
                    dist[b, idx],
                    d_ab,
                    sizes[a],
                    sizes[b],
                    sizes[idx],
                )
                dist[idx, a] = dist[a, idx]
            sizes[a] += sizes[b]
            alive[b] = False
        else:
            chain.append(y)
    merges.sort(key=lambda m: m[0])
    return merges


def hierarchical(
    matrix: np.ndarray,
    k: int,
    linkage: Linkage = Linkage.WARD,
) -> ClusterModel:
    """Agglomerative clustering cut at k clusters.

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
    for _, a, b in _nnchain_merges(values, linkage)[: n - k]:
        parent[find(b)] = find(a)
    groups: dict[int, list[int]] = {}
    for point in range(n):
        groups.setdefault(find(point), []).append(point)
    return _groups_to_model(values, list(groups.values()))


CLUSTER_REPORT_HEADER = ["cluster_id", "size"] + list(CLUSTER_FEATURES)


def write_cluster_report(
    model: ClusterModel, centroids_raw: np.ndarray, file: str | Path
) -> None:
    """CSV of per-cluster sizes and the caller's raw-scale centroids."""
    sizes = model.sizes()
    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CLUSTER_REPORT_HEADER)
        for cid in range(model.k):
            row = [cid, int(sizes[cid])]
            row += [repr(float(x)) for x in centroids_raw[cid]]
            writer.writerow(row)


def write_assignments(
    model: ClusterModel, flow_ids: list[int], file: str | Path
) -> None:
    """CSV mapping each flow id to its cluster id."""
    if len(flow_ids) != len(model.assignments):
        raise ShapeMismatch("flow_ids length differs from assignments")
    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["flow_id", "cluster_id"])
        for fid, cid in zip(flow_ids, model.assignments):
            writer.writerow([fid, int(cid)])
