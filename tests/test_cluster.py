"""Tests for K-means and hierarchical clustering.

Correctness anchors: tiny fixtures with hand-checkable partitions, a
brute-force minimum-SSE search over all partitions for small n, a
naive matrix-scan oracle for the nearest-neighbor-chain engine on
tie-free data, and an earlier, plainer copy of the engine that every
merge list must match bit for bit, ties included.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import flowclean.cluster as cluster_mod
from flowclean.cluster import (
    MAX_SQ_NORM,
    Algorithm,
    _nnchain_merges,
    _pair_matrix,
    hierarchical,
    kmeans,
    sse,
)
from flowclean.errors import (
    InvariantViolation,
    MatrixTooLarge,
    ShapeMismatch,
    TooFewRows,
    UnclusterableMatrix,
)
from flowclean.features import (
    CLUSTER_FEATURES,
    destandardize,
    feature_matrix,
    standardize,
)

from conftest import make_flow
from scalar_rng import SplitMix64


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


def test_kmeans_k1_is_global_mean():
    values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
    model = kmeans(values, k=1, seed=0)
    assert np.allclose(model.centroids[0], values.mean(axis=0))
    assert np.all(model.assignments == 0)


def test_kmeans_k_equals_n():
    values = blobs([(0, 0)], per=6, spread=5.0, seed=3)
    model = kmeans(values, k=6, seed=1)
    assert sorted(np.bincount(model.assignments, minlength=model.k)) == [1] * 6
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
    monkeypatch.setattr(cluster_mod, "KMEANS_TOL", 0.0)
    with pytest.raises(InvariantViolation, match="at Lloyd iteration 2"):
        kmeans(values, k=3, seed=0)
    assert len(calls) == 2  # one sse call per Lloyd iteration


def test_kmeans_bad_inputs():
    values = np.zeros((3, 2))
    with pytest.raises(TooFewRows):
        kmeans(values, k=4, seed=0)
    with pytest.raises(ValueError):
        kmeans(values, k=0, seed=0)


@pytest.mark.parametrize("cluster", [
    lambda m: kmeans(m, k=2, seed=0),
    lambda m: hierarchical(m, k=2),
], ids=["kmeans", "hier"])
@pytest.mark.parametrize("row,value,match", [
    (2, np.nan, r"^row 2 holds a non-finite value$"),
    (1, np.inf, r"^row 1 holds a non-finite value$"),
    (3, -np.inf, r"^row 3 holds a non-finite value$"),
    (0, 1e200, r"^row 0 has squared norm inf, above 1e\+280$"),  # square overflows
    (2, 1e141, r"^row 2 has squared norm 1e\+282, above 1e\+280$"),
])
def test_clustering_refuses_unclusterable_rows(cluster, row, value, match):
    values = np.zeros((4, 2))
    values[row, 1] = value
    with pytest.raises(UnclusterableMatrix, match=match):
        cluster(values)


def test_clustering_names_the_first_bad_row():
    values = np.zeros((5, 2))
    values[3, 0] = np.nan
    values[1, 1] = 1e141
    with pytest.raises(UnclusterableMatrix, match=r"^row 1 "):
        hierarchical(values, 2)


def test_clustering_refuses_a_matrix_without_columns():
    for cluster in (lambda m: kmeans(m, 2, seed=0), lambda m: hierarchical(m, 2)):
        with pytest.raises(UnclusterableMatrix, match=r"^row 0 has no values"):
            cluster(np.zeros((5, 0)))


def test_hier_refuses_large_rows_before_the_pair_matrix(monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("the n x n matrix was allocated")

    monkeypatch.setattr(cluster_mod, "_pair_matrix", no_matrix)
    values = np.zeros((6, 2))
    values[4] = np.sqrt(MAX_SQ_NORM)  # squared norm 2 * MAX_SQ_NORM
    with pytest.raises(UnclusterableMatrix, match=r"^row 4 has squared norm"):
        hierarchical(values, 2)


def test_rows_at_the_norm_bound_keep_every_height_finite():
    # two far groups of rows at the bound and a group near the origin:
    # the largest Ward distances and Lance-Williams sums the bound allows
    side = np.sqrt(MAX_SQ_NORM / 2.0)
    values = np.zeros((40, 2))
    values[:20] = np.random.default_rng(5).normal(size=(20, 2))
    values[20:30] = [side, side]
    values[30:] = [-side, -side]
    heights = [h for h, _, _ in _nnchain_merges(values)]
    assert np.isfinite(heights).all()
    model = hierarchical(values, 3)
    assert np.isfinite(model.sse) and np.isfinite(model.centroids).all()
    model = kmeans(values, 3, seed=0)
    assert np.isfinite(model.sse) and np.isfinite(model.centroids).all()


def test_kmeans_duplicate_points():
    # all points identical: any k <= n must still terminate with all
    # clusters non-empty
    values = np.ones((10, 3))
    model = kmeans(values, k=3, seed=9)
    assert model.sse == 0.0
    assert np.all(np.bincount(model.assignments, minlength=model.k) >= 1)


def kmeanspp_oracle(values, k, seed):
    """k-means++ seeding on the stateful SplitMix64, one draw per center."""
    rng = SplitMix64(seed)
    n = len(values)
    centers = [rng.next_below(n)]
    d2 = np.einsum("ij,ij->i", values - values[centers[0]], values - values[centers[0]])
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            cand = rng.next_below(n)
        else:
            r = rng.random() * total
            cand = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        centers.append(cand)
        diff = values - values[cand]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    return values[centers]


@given(
    st.integers(1, 30).flatmap(lambda n: st.tuples(
        hnp.arrays(np.float64, (n, 2), elements=st.integers(-2, 2).map(float)),
        st.integers(1, n),
    )),
    st.integers(-2**63, 2**64 - 1),
)
def test_kmeanspp_init_matches_the_scalar_stream(values_k, seed):
    # few distinct rows, so many runs place a center on every distinct row
    # before k and draw the rest with u % n
    values, k = values_k
    expected = kmeanspp_oracle(values, k, seed)
    assert cluster_mod._kmeanspp_init(values, k, seed).tolist() == expected.tolist()


@pytest.mark.parametrize("seed", [0, 1, 9, 42, 2**64 - 1])
def test_kmeanspp_init_once_every_row_is_a_center_draws_by_modulo(seed):
    # two distinct rows, four copies each: centers 3..8 find total 0 and
    # take row u % 8, so each shows which half its draw fell in
    values = np.repeat([[0.0], [1.0]], 4, axis=0)
    got = cluster_mod._kmeanspp_init(values, 8, seed)
    assert got.tolist() == kmeanspp_oracle(values, 8, seed).tolist()
    # all rows identical: every center is u % n
    same = np.zeros((8, 2))
    assert cluster_mod._kmeanspp_init(same, 5, seed).tolist() == same[:5].tolist()


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
    model = hierarchical(values, k=3)
    expected = {frozenset(range(0, 4)), frozenset(range(4, 8)), frozenset(range(8, 12))}
    assert partition_of(model.assignments) == expected


# --- hierarchical -------------------------------------------------------


def oracle_lance_williams(d_ik, d_jk, d_ij, s_i, s_j, s_k):
    """Independent copy of Ward's Lance-Williams update."""
    return ((s_i + s_k) * d_ik + (s_j + s_k) * d_jk - s_k * d_ij) / (s_i + s_j + s_k)


def oracle_merges(values) -> list[tuple[float, int, int]]:
    """Naive Ward agglomeration: each step merges the closest live pair.

    Scans the whole squared-distance matrix per merge, ties to the
    smallest (i, j) pair; returns (height, i, j) with i < j in merge
    order.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    dist = np.full((n, n), np.inf)
    for i in range(n):
        for j in range(n):
            if i != j:
                dist[i, j] = float(((values[i] - values[j]) ** 2).sum())
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
                dist[i, c], dist[j, c], d_ij, sizes[i], sizes[j], sizes[c]
            )
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        sizes[i] += sizes[j]
    return merges


def oracle_partition(values, k) -> set[frozenset]:
    groups = {i: {i} for i in range(len(values))}
    for _, i, j in oracle_merges(values)[: len(values) - k]:
        groups[i] |= groups.pop(j)
    return {frozenset(g) for g in groups.values()}


def test_oracle_merges_hand_checked():
    # 1-D points 0, 1, 5: merge {0,1} at 1, then {0,1} with {5}
    values = np.array([[0.0], [1.0], [5.0]])
    # squared distance 1, then (2*25 + 2*16 - 1) / 3 = 27
    assert oracle_merges(values) == [(1.0, 0, 1), (27.0, 0, 2)]


def test_hier_two_blob_exact():
    values = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
    model = hierarchical(values, k=2)
    assert partition_of(model.assignments) == {frozenset({0, 1}), frozenset({2, 3})}
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
    assert oracle_merges(values)[0] == (0.0, 0, 2)
    assert _nnchain_merges(values)[0] == (0.0, 0, 2)
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
        heights = [h for h, _, _ in oracle_merges(values)]
        assert len(heights) == 29
        assert all(b >= a - 1e-9 for a, b in zip(heights, heights[1:]))
        chain = [h for h, _, _ in _nnchain_merges(values)]
        assert np.allclose(chain, heights)


@pytest.mark.parametrize("n,k,seed", [
    (24, 3, 0), (60, 4, 1), (121, 5, 2),
    (2, 1, 3), (9, 2, 4), (33, 6, 5), (47, 1, 6), (80, 9, 7), (150, 3, 8),
])
def test_engines_agree_on_tie_free_data(n, k, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(0, 1, size=(n, 3))
    model = hierarchical(values, k=k)
    assert partition_of(model.assignments) == oracle_partition(values, k)
    oracle_heights = [h for h, _, _ in oracle_merges(values)]
    chain_heights = [h for h, _, _ in _nnchain_merges(values)]
    assert np.allclose(chain_heights, oracle_heights)


def test_hier_tie_rule_follows_the_chain():
    # Many zero-height pairs. The chain starts at row 0, takes the
    # lowest index on nearest-neighbor ties and replays equal heights in
    # the order it found them: after {0, 6} it finds {2, 3} before
    # {1, 4}. A greedy smallest-pair scan would merge {1, 4} second
    # instead.
    values = np.array([[0.0], [3.0], [2.0], [2.0], [3.0], [3.0], [0.0]])
    assert [m[1:] for m in _nnchain_merges(values)[:3]] == [(0, 6), (2, 3), (1, 4)]
    model = hierarchical(values, k=5)
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
    want = np.maximum((sq[:, None] + sq[None, :]) - 2.0 * (values @ values.T), 0.0)
    np.fill_diagonal(want, np.inf)
    got = _pair_matrix(values)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.integers(1, 8)),
        elements=st.floats(-1e3, 1e3),
    ),
    st.floats(-1e6, 1e6),
    st.booleans(),
)
def test_pair_matrix_is_exactly_symmetric(values, offset, strided):
    # far from the origin the norms dwarf the distances, which is where
    # adding them in two steps rounds d[i, j] and d[j, i] apart
    values = values + offset
    if strided:
        values = np.repeat(values, 2, axis=1)[:, ::2]
    d = _pair_matrix(values)
    assert np.array_equal(d.view(np.uint64), d.T.view(np.uint64))


# nearest neighbours 0 -> 1 -> 2 -> 0 under two-step norm sums: no pair
# was reciprocal, so the nearest-neighbor chain grew forever
_CYCLING_POINTS = np.array([
    [6.442321744483086, -8.771607997770056, 5.961087904516867,
     9.458844859405303, -4.020172295150899, 14.321670119939956],
    [6.744575293577165, -8.126179145644832, 6.471530712482822,
     10.45185535335966, -4.573188506604118, 15.291007913212574],
    [7.171448469036135, -7.8927590634560945, 6.743956878461468,
     9.142247515610178, -5.008061949603918, 14.405067316291213],
])


def test_hier_returns_on_points_whose_chain_cycled():
    d = _pair_matrix(_CYCLING_POINTS)
    # an asymmetric matrix would hang the call below instead of failing
    assert np.array_equal(d, d.T)
    for k in (1, 2, 3):
        model = hierarchical(_CYCLING_POINTS, k)
        assert len(set(model.assignments.tolist())) == k


# --- the engine against its earlier, plainer loop -----------------------


def reference_lw_update(d_ik, d_jk, d_ij, s_i, s_j, s_k):
    """Ward's Lance-Williams distance from merged cluster (i u j) to others k."""
    denom = s_i + s_j + s_k
    return ((s_i + s_k) * d_ik + (s_j + s_k) * d_jk - s_k * d_ij) / denom


def reference_nnchain_merges(values):
    """The nearest-neighbor-chain loop before it was tuned, kept verbatim.

    Each step copies a masked row and each merge copies the live mask
    and allocates every temporary; _nnchain_merges must give the same
    merge list, heights and tie order included.
    """
    n = values.shape[0]
    dist = _pair_matrix(values)
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
                dist[a, idx] = reference_lw_update(
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


def merges_and_final_matrix(values):
    """_nnchain_merges's merge list and its distance matrix after the loop."""
    matrices = []

    def keep(values):
        matrices.append(_pair_matrix(values))
        return matrices[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cluster_mod, "_pair_matrix", keep)
        merges = _nnchain_merges(values)
    (dist,) = matrices
    return merges, dist


def assert_matches_reference(values):
    merges, dist = merges_and_final_matrix(values)
    assert merges == reference_nnchain_merges(values)
    assert np.all(np.diagonal(dist) == np.inf)


@given(st.one_of(
    # small integer grids: many equal distances and duplicate rows
    hnp.arrays(np.float64, st.tuples(st.integers(2, 80), st.integers(1, 4)),
               elements=st.integers(-3, 3).map(float)),
    hnp.arrays(np.float64, st.tuples(st.integers(2, 80), st.integers(1, 6)),
               elements=st.floats(-1e3, 1e3)),
))
def test_merges_match_the_reference_loop(values):
    assert_matches_reference(values)


def test_merges_match_the_reference_loop_on_fixed_inputs():
    rng = np.random.default_rng(12)
    for values in (
        _CYCLING_POINTS,
        np.zeros((9, 3)),  # every distance ties at 0
        rng.integers(0, 2, size=(200, 3)).astype(np.float64),
        rng.normal(size=(300, 6)),
    ):
        assert_matches_reference(values)


# four points on a line. The chain 0 -> 3 -> 1 -> 2 merges 1 and 2 into
# row 1 first, then 0 and 3; row 0 was last read before that first merge,
# so a loop that does not bring the partner's row up to date before a
# merge reads dist(0, 1) from before it, and the last merge's height
# comes out wrong
_PARTNER_BEHIND_POINTS = np.array([[-4.0], [1.0], [3.0], [-1.0]])


def test_merges_match_the_reference_where_the_partner_row_is_behind():
    assert_matches_reference(_PARTNER_BEHIND_POINTS)
    assert _nnchain_merges(_PARTNER_BEHIND_POINTS)[-1] == (40.5, 0, 1)


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_algorithm_is_taken_by_its_value(algorithm):
    assert Algorithm(algorithm.value) is algorithm


@pytest.mark.parametrize("name", ["k-means", "Hier", "ward", "", None])
def test_algorithm_refuses_an_unknown_name(name):
    with pytest.raises(ValueError) as exc:
        Algorithm(name)
    assert str(exc.value) == f"unknown algorithm {name!r}, expected kmeans or hier"


def test_hier_takes_no_linkage(monkeypatch):
    # Ward is the only linkage: none is named, not even ward itself
    monkeypatch.setattr(cluster_mod, "_coerce", lambda matrix: pytest.fail("work began"))
    for call in (lambda: hierarchical(np.zeros((4, 2)), 2, "ward"),
                 lambda: hierarchical(np.zeros((4, 2)), k=2, linkage="ward")):
        with pytest.raises(TypeError):
            call()


def test_pair_matrix_peak_is_one_n_by_n_array():
    n = 1000
    values = np.random.default_rng(0).normal(size=(n, len(CLUSTER_FEATURES)))
    tracemalloc.start()
    try:
        _pair_matrix(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8, peak


def test_pair_matrix_refuses_more_than_physical_memory(monkeypatch):
    assert cluster_mod._physical_memory_bytes() > 0
    values = np.random.default_rng(1).normal(size=(100, len(CLUSTER_FEATURES)))
    monkeypatch.setattr(cluster_mod, "_physical_memory_bytes", lambda: 100 * 100 * 8 - 1)
    with pytest.raises(
        MatrixTooLarge, match=r"of 100 rows needs a 80000-byte .* than the 79999 bytes"
    ):
        hierarchical(values, 3)
    monkeypatch.setattr(cluster_mod, "_physical_memory_bytes", lambda: 100 * 100 * 8)
    assert hierarchical(values, 3).k == 3
