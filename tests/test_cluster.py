"""Tests for K-means and hierarchical clustering.

Correctness anchors: tiny fixtures with hand-checkable partitions, a
brute-force minimum-SSE search over all partitions for small n, and a
naive matrix-scan oracle for the nearest-neighbor-chain engine on
tie-free data.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest

import flowclean.cluster as cluster_mod
from flowclean.cluster import (
    Algorithm,
    CLUSTER_REPORT_HEADER,
    ClusterModel,
    Linkage,
    _nnchain_merges,
    _pair_matrix,
    hierarchical,
    kmeans,
    sse,
    write_assignments,
    write_cluster_report,
)
from flowclean.errors import InvariantViolation, ShapeMismatch, TooFewRows
from flowclean.features import (
    CLUSTER_FEATURES,
    destandardize,
    feature_matrix,
    standardize,
)

from conftest import make_flow


def partition_of(assignments) -> set[frozenset]:
    groups: dict[int, set[int]] = {}
    for row, cid in enumerate(assignments):
        groups.setdefault(int(cid), set()).add(row)
    return {frozenset(g) for g in groups.values()}


def blobs(centers, per, spread, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = []
    for c in centers:
        rows.append(np.asarray(c) + rng.normal(0, spread, size=(per, len(c))))
    return np.vstack(rows)


# --- sse ----------------------------------------------------------------


def test_sse_hand_computed():
    values = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0]])
    assign = np.array([0, 0, 1])
    centroids = np.array([[1.0, 0.0], [10.0, 0.0]])
    assert sse(values, assign, centroids) == pytest.approx(2.0)


def test_sse_zero_for_exact_centroids():
    values = np.array([[3.0, 4.0]] * 5)
    assert sse(values, np.zeros(5, dtype=int), values[:1]) == 0.0


def test_sse_shape_checks():
    v = np.zeros((3, 2))
    with pytest.raises(ShapeMismatch):
        sse(v, np.zeros(2, dtype=int), v[:1])
    with pytest.raises(ShapeMismatch):
        sse(v, np.zeros(3, dtype=int), np.zeros((1, 3)))
    with pytest.raises(ShapeMismatch):
        sse(v, np.array([0, 0, 1]), v[:1])  # assignment out of range


# --- kmeans -------------------------------------------------------------


def test_kmeans_two_blob_exact():
    values = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
    model = kmeans(values, k=2, seed=7)
    assert partition_of(model.assignments) == {frozenset({0, 1}), frozenset({2, 3})}
    got = {tuple(c) for c in model.centroids}
    assert got == {(0.0, 0.5), (10.0, 10.5)}
    assert model.sse == pytest.approx(1.0)  # 4 points each 0.5 from center
    assert model.algorithm is Algorithm.KMEANS


def test_kmeans_k1_is_global_mean():
    values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
    model = kmeans(values, k=1, seed=0)
    assert np.allclose(model.centroids[0], values.mean(axis=0))
    assert np.all(model.assignments == 0)


def test_kmeans_k_equals_n():
    values = blobs([(0, 0)], per=6, spread=5.0, seed=3)
    model = kmeans(values, k=6, seed=1)
    assert sorted(model.sizes()) == [1] * 6
    assert model.sse == pytest.approx(0.0, abs=1e-18)


def test_kmeans_deterministic():
    values = blobs([(0, 0), (8, 8)], per=30, spread=1.0, seed=5)
    a = kmeans(values, k=3, seed=42)
    b = kmeans(values, k=3, seed=42)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.sse == b.sse


def test_kmeans_rising_sse_raises(monkeypatch):
    values = blobs([(0, 0), (6, 6)], per=20, spread=1.5, seed=4)
    calls = []

    def rising(*args):
        calls.append(args)
        return float(len(calls))

    monkeypatch.setattr(cluster_mod, "sse", rising)
    with pytest.raises(InvariantViolation, match="at Lloyd iteration 2"):
        kmeans(values, k=3, seed=0, tol=0.0)
    assert len(calls) == 2  # one sse call per Lloyd iteration


def test_kmeans_bad_inputs():
    values = np.zeros((3, 2))
    with pytest.raises(TooFewRows):
        kmeans(values, k=4, seed=0)
    with pytest.raises(ValueError):
        kmeans(values, k=0, seed=0)


def test_kmeans_duplicate_points():
    # all points identical: any k <= n must still terminate with all
    # clusters non-empty
    values = np.ones((10, 3))
    model = kmeans(values, k=3, seed=9)
    assert model.sse == 0.0
    assert np.all(model.sizes() >= 1)


def test_kmeans_centroid_is_cluster_mean():
    values = blobs([(0, 0), (6, 1), (-4, 7)], per=25, spread=0.8, seed=11)
    model = kmeans(values, k=3, seed=2)
    for cid in range(3):
        members = values[model.assignments == cid]
        assert np.allclose(model.centroids[cid], members.mean(axis=0))


def test_kmeans_raw_centroids_from_standardized_matrix():
    flows = [make_flow(flow_id=i, bytes_in=1000 * (i + 1), bytes_out=50 * (i + 1),
                       first_ts_us=0, last_ts_us=(i + 1) * 1_000_000)
             for i in range(8)]
    raw = feature_matrix(flows)[:, : len(CLUSTER_FEATURES)]
    z, means, stds = standardize(raw)
    model = kmeans(z, k=2, seed=0)
    centroids_raw = destandardize(model.centroids, means, stds)
    for cid in range(2):
        members = raw[model.assignments == cid]
        assert np.allclose(centroids_raw[cid], members.mean(axis=0), atol=1e-9)


# --- brute-force optimum ------------------------------------------------


def all_partitions(n: int, k: int):
    """Every partition of range(n) into exactly k non-empty groups."""
    assign = [0] * n

    def rec(i: int, used: int):
        if i == n:
            if used == k:
                yield list(assign)
            return
        for cid in range(min(used + 1, k)):
            assign[i] = cid
            yield from rec(i + 1, max(used, cid + 1))

    yield from rec(0, 0)


def brute_force_min_sse(values: np.ndarray, k: int) -> float:
    best = np.inf
    n = values.shape[0]
    for assign in all_partitions(n, k):
        a = np.array(assign)
        centroids = np.vstack([values[a == c].mean(axis=0) for c in range(k)])
        best = min(best, sse(values, a, centroids))
    return best


def test_partition_enumerator_counts():
    # Stirling numbers S(4,2)=7, S(5,3)=25
    assert sum(1 for _ in all_partitions(4, 2)) == 7
    assert sum(1 for _ in all_partitions(5, 3)) == 25


@pytest.mark.parametrize("n,k,seed", [(6, 2, 0), (7, 2, 1), (7, 3, 2), (8, 3, 3)])
def test_kmeans_never_beats_brute_force(n, k, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(-5, 5, size=(n, 2))
    optimum = brute_force_min_sse(values, k)
    best = min(kmeans(values, k=k, seed=s).sse for s in range(10))
    assert best >= optimum - 1e-9


def test_kmeans_finds_optimum_on_separated_blobs():
    values = blobs([(0, 0), (40, 0), (0, 40)], per=3, spread=0.3, seed=6)
    optimum = brute_force_min_sse(values, 3)
    best = min(kmeans(values, k=3, seed=s).sse for s in range(10))
    assert best == pytest.approx(optimum, rel=1e-9)


def test_ward_recovers_separated_blobs():
    values = blobs([(0, 0), (40, 0), (0, 40)], per=4, spread=0.3, seed=8)
    model = hierarchical(values, k=3, linkage=Linkage.WARD)
    expected = {frozenset(range(0, 4)), frozenset(range(4, 8)), frozenset(range(8, 12))}
    assert partition_of(model.assignments) == expected


# --- hierarchical -------------------------------------------------------


def oracle_lance_williams(linkage, d_ik, d_jk, d_ij, s_i, s_j, s_k):
    """Independent copy of the three Lance-Williams updates."""
    if linkage is Linkage.WARD:
        return ((s_i + s_k) * d_ik + (s_j + s_k) * d_jk - s_k * d_ij) / (
            s_i + s_j + s_k
        )
    if linkage is Linkage.AVERAGE:
        return (s_i * d_ik + s_j * d_jk) / (s_i + s_j)
    return max(d_ik, d_jk)


def oracle_merges(values, linkage) -> list[tuple[float, int, int]]:
    """Naive agglomeration: each step merges the closest live pair.

    Scans the whole distance matrix per merge, ties to the smallest
    (i, j) pair; returns (height, i, j) with i < j in merge order.
    Ward works on squared distances, the other linkages on plain ones.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    dist = np.full((n, n), np.inf)
    for i in range(n):
        for j in range(n):
            if i != j:
                d2 = float(((values[i] - values[j]) ** 2).sum())
                dist[i, j] = d2 if linkage is Linkage.WARD else d2 ** 0.5
    sizes = [1.0] * n
    live = set(range(n))
    merges = []
    for _ in range(n - 1):
        i, j = divmod(int(np.argmin(dist)), n)  # row-major: smallest pair
        i, j = min(i, j), max(i, j)
        d_ij = float(dist[i, j])
        merges.append((d_ij, i, j))
        live.discard(j)
        for c in live - {i}:
            dist[i, c] = dist[c, i] = oracle_lance_williams(
                linkage, dist[i, c], dist[j, c], d_ij, sizes[i], sizes[j], sizes[c]
            )
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        sizes[i] += sizes[j]
    return merges


def oracle_partition(values, k, linkage) -> set[frozenset]:
    groups = {i: {i} for i in range(len(values))}
    for _, i, j in oracle_merges(values, linkage)[: len(values) - k]:
        groups[i] |= groups.pop(j)
    return {frozenset(g) for g in groups.values()}


def test_oracle_merges_hand_checked():
    # 1-D points 0, 1, 5: merge {0,1} at 1, then {0,1} with {5}
    values = np.array([[0.0], [1.0], [5.0]])
    assert oracle_merges(values, Linkage.COMPLETE) == [(1.0, 0, 1), (5.0, 0, 2)]
    assert oracle_merges(values, Linkage.AVERAGE) == [(1.0, 0, 1), (4.5, 0, 2)]
    # Ward: squared distance 1, then (2*25 + 2*16 - 1) / 3 = 27
    assert oracle_merges(values, Linkage.WARD) == [(1.0, 0, 1), (27.0, 0, 2)]


def test_hier_two_blob_exact():
    values = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
    for linkage in Linkage:
        model = hierarchical(values, k=2, linkage=linkage)
        assert partition_of(model.assignments) == {
            frozenset({0, 1}), frozenset({2, 3})
        }
        # ids ordered by smallest member row
        assert model.assignments[0] == 0
        assert model.assignments[2] == 1


def test_hier_k_equals_n_identity():
    values = blobs([(0, 0)], per=7, spread=2.0, seed=4)
    model = hierarchical(values, k=7)
    assert np.array_equal(model.assignments, np.arange(7))
    assert model.sse == pytest.approx(0.0, abs=1e-18)


def test_hier_k1_single_group():
    values = blobs([(0, 0), (9, 9)], per=5, spread=1.0, seed=2)
    model = hierarchical(values, k=1)
    assert np.all(model.assignments == 0)
    assert np.allclose(model.centroids[0], values.mean(axis=0))


def test_hier_duplicates_merge_first():
    values = np.array([[5.0, 5.0], [1.0, 1.0], [5.0, 5.0], [9.0, 0.0]])
    assert oracle_merges(values, Linkage.WARD)[0] == (0.0, 0, 2)
    assert _nnchain_merges(values, Linkage.WARD)[0] == (0.0, 0, 2)
    model = hierarchical(values, k=3)
    assert partition_of(model.assignments) == {
        frozenset({0, 2}), frozenset({1}), frozenset({3})
    }


def test_hier_bad_inputs():
    values = np.zeros((3, 2))
    with pytest.raises(TooFewRows):
        hierarchical(values, k=4)
    with pytest.raises(ValueError):
        hierarchical(values, k=0)


def test_ward_heights_non_decreasing():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0, 10, size=(30, 4))
        heights = [h for h, _, _ in oracle_merges(values, Linkage.WARD)]
        assert len(heights) == 29
        assert all(b >= a - 1e-9 for a, b in zip(heights, heights[1:]))
        chain = [h for h, _, _ in _nnchain_merges(values, Linkage.WARD)]
        assert np.allclose(chain, heights)


@pytest.mark.parametrize("linkage", list(Linkage))
@pytest.mark.parametrize("n,k,seed", [(24, 3, 0), (60, 4, 1), (121, 5, 2)])
def test_engines_agree_on_tie_free_data(linkage, n, k, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(0, 1, size=(n, 3))
    model = hierarchical(values, k=k, linkage=linkage)
    assert partition_of(model.assignments) == oracle_partition(values, k, linkage)
    oracle_heights = [h for h, _, _ in oracle_merges(values, linkage)]
    chain_heights = [h for h, _, _ in _nnchain_merges(values, linkage)]
    assert np.allclose(chain_heights, oracle_heights)


def test_hier_tie_rule_follows_the_chain():
    # Average linkage with many zero-height pairs. The chain starts at
    # row 0, takes the lowest index on nearest-neighbor ties and
    # replays equal heights in the order it found them: after {0, 6}
    # it finds {2, 3} before {1, 4}. A greedy smallest-pair scan would
    # merge {1, 4} second instead.
    values = np.array([[0.0], [3.0], [2.0], [2.0], [3.0], [3.0], [0.0]])
    model = hierarchical(values, k=5, linkage=Linkage.AVERAGE)
    assert model.assignments.tolist() == [0, 1, 2, 2, 3, 4, 0]


def test_hier_permutation_invariant_partition():
    rng = np.random.default_rng(23)
    values = rng.normal(0, 1, size=(40, 3))
    perm = rng.permutation(40)
    base = hierarchical(values, k=4)
    shuffled = hierarchical(values[perm], k=4)
    # map shuffled partition back to original indices
    remapped = {
        frozenset(int(perm[r]) for r in group)
        for group in partition_of(shuffled.assignments)
    }
    assert remapped == partition_of(base.assignments)


def test_hier_raw_centroids_from_standardized_matrix():
    flows = [make_flow(flow_id=i, bytes_in=500 * (i + 1) ** 2, bytes_out=20 * (i + 3))
             for i in range(9)]
    raw = feature_matrix(flows)[:, : len(CLUSTER_FEATURES)]
    z, means, stds = standardize(raw)
    model = hierarchical(z, k=3)
    centroids_raw = destandardize(model.centroids, means, stds)
    for cid in range(3):
        members = raw[model.assignments == cid]
        assert np.allclose(centroids_raw[cid], members.mean(axis=0), atol=1e-9)


# --- pairwise distances -------------------------------------------------


def test_pair_matrix_matches_broadcast_formula():
    rng = np.random.default_rng(3)
    values = rng.normal(0, 2, size=(40, 6))
    values[7] = values[3]  # duplicate rows: distance exactly 0
    sq = np.einsum("ij,ij->i", values, values)
    want = np.maximum(sq[:, None] - 2.0 * (values @ values.T) + sq[None, :], 0.0)
    np.fill_diagonal(want, np.inf)
    for squared, expected in ((True, want), (False, np.sqrt(want))):
        got = _pair_matrix(values, squared)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_pair_matrix_peak_is_one_n_by_n_array():
    n = 1000
    values = np.random.default_rng(0).normal(size=(n, len(CLUSTER_FEATURES)))
    for squared in (True, False):
        tracemalloc.start()
        try:
            _pair_matrix(values, squared)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * 8, (squared, peak)


# --- reports ------------------------------------------------------------


def test_cluster_report_csv(tmp_path):
    values = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
    # 6-column matrix expected by the report header; pad with zeros
    padded = np.hstack([values, np.zeros((4, 4))])
    model = kmeans(padded, k=2, seed=0)
    centroids_raw = model.centroids * 100.0
    path = tmp_path / "report.csv"
    write_cluster_report(model, centroids_raw, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CLUSTER_REPORT_HEADER)
    assert lines[0] == ("cluster_id,size,bytes_in,bytes_out,packets_in,"
                        "packets_out,duration_s,ratio")
    assert len(lines) == 1 + model.k
    first = lines[1].split(",")
    assert first[0] == "0"
    assert int(first[1]) == int(model.sizes()[0])
    assert first[2:] == [repr(float(x)) for x in centroids_raw[0]]


def test_write_assignments(tmp_path):
    values = np.array([[0.0], [0.1], [9.0]])
    model = hierarchical(values, k=2)
    path = tmp_path / "assign.csv"
    write_assignments(model, [100, 101, 102], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "flow_id,cluster_id"
    assert lines[1:] == ["100,0", "101,0", "102,1"]
    with pytest.raises(ShapeMismatch):
        write_assignments(model, [1, 2], path)


def test_sizes_sum_to_n():
    values = blobs([(0, 0), (5, 5)], per=13, spread=0.7, seed=19)
    model = kmeans(values, k=4, seed=3)
    assert int(model.sizes().sum()) == 26
    assert isinstance(model, ClusterModel)
