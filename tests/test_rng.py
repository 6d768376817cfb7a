"""Tests for the deterministic SplitMix64 streams."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowclean.rng import derive, mix64, shuffle, stream_draws, unit_floats

from scalar_rng import ScalarStream, SplitMix64

MASK = (1 << 64) - 1


def reference_stream(seed: int, count: int) -> list[int]:
    """Direct transcription of the documented recurrence."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_next_u64_matches_documented_recurrence():
    rng = SplitMix64(42)
    assert [rng.next_u64() for _ in range(8)] == reference_stream(42, 8)


def test_vectorized_draws_match_scalar_draws():
    scalar = SplitMix64(9001)
    vector = SplitMix64(9001)
    expected = [scalar.next_u64() for _ in range(1000)]
    got = vector.next_u64_array(1000)
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == expected
    # stream position advanced identically
    assert scalar.next_u64() == vector.next_u64()


@given(
    st.lists(st.integers(0, MASK), min_size=1, max_size=5),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=5),
)
def test_stream_draws_match_scalar_draws(seeds, positions):
    got = stream_draws(
        np.array(seeds, dtype=np.uint64)[:, None], np.array(positions, dtype=np.uint64)
    )
    for seed, row in zip(seeds, got.tolist()):
        for position, draw in zip(positions, row):
            # draw i of a stream is the finalizer of seed + i * gamma
            assert draw == mix64(seed + position * 0x9E3779B97F4A7C15)
    assert stream_draws(np.uint64(seeds[0]), np.arange(1, 4, dtype=np.uint64)).tolist() == (
        reference_stream(seeds[0], 3)
    )


def test_vectorized_draws_split_anywhere():
    one = SplitMix64(7)
    two = SplitMix64(7)
    a = list(one.next_u64_array(10))
    b = list(two.next_u64_array(3)) + list(two.next_u64_array(7))
    assert a == b


@given(st.integers(min_value=0, max_value=MASK))
def test_mix64_stays_in_64_bits(value):
    assert 0 <= mix64(value) <= MASK


def test_random_in_unit_interval():
    rng = SplitMix64(3)
    draws = [rng.random() for _ in range(2000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert abs(sum(draws) / len(draws) - 0.5) < 0.05


def test_uniform_bounds():
    rng = ScalarStream(4)
    for _ in range(500):
        v = rng.uniform(-3.0, 7.0)
        assert -3.0 <= v < 7.0


def test_next_below_range_and_determinism():
    a = SplitMix64(5)
    b = SplitMix64(5)
    va = [a.next_below(17) for _ in range(300)]
    vb = [b.next_below(17) for _ in range(300)]
    assert va == vb
    assert all(0 <= v < 17 for v in va)
    assert set(va) == set(range(17))


def test_normal_moments():
    rng = ScalarStream(6)
    draws = np.array([rng.normal() for _ in range(20000)])
    assert abs(draws.mean()) < 0.03
    assert abs(draws.std() - 1.0) < 0.03


def test_normal_mean_std_parameters():
    rng = ScalarStream(61)
    draws = np.array([rng.normal(100.0, 15.0) for _ in range(20000)])
    assert abs(draws.mean() - 100.0) < 0.5
    assert abs(draws.std() - 15.0) < 0.5


def test_lognormal_natural_scale_mean():
    rng = ScalarStream(7)
    draws = np.array([rng.lognormal(5000.0, 0.4) for _ in range(20000)])
    assert (draws > 0).all()
    assert abs(draws.mean() / 5000.0 - 1.0) < 0.03


def test_lognormal_rejects_nonpositive_mean():
    with pytest.raises(ValueError):
        ScalarStream(1).lognormal(0.0, 0.3)


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(50))
    a = items.copy()
    b = items.copy()
    SplitMix64(8).shuffle(a)
    SplitMix64(8).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # astronomically unlikely to be identity


@given(st.integers(0, MASK), st.integers(0, 3000))
def test_shuffle_matches_scalar_shuffle(seed, n):
    expected = list(range(n))
    SplitMix64(seed).shuffle(expected)
    got = list(range(n))
    shuffle(seed, got)
    assert got == expected


@given(st.integers(0, MASK))
def test_unit_floats_match_scalar_random(seed):
    scalar = SplitMix64(seed)
    expected = [scalar.random() for _ in range(50)]
    got = unit_floats(stream_draws(np.uint64(seed), np.arange(1, 51, dtype=np.uint64)))
    assert got.tolist() == expected
    assert all(0.0 <= u < 1.0 for u in expected)


def test_sample_indices_distinct_and_in_range():
    rng = ScalarStream(9)
    for k in (0, 1, 5, 12):
        picked = rng.sample_indices(12, k)
        assert len(picked) == k
        assert len(set(picked)) == k
        assert all(0 <= p < 12 for p in picked)
    with pytest.raises(ValueError):
        rng.sample_indices(3, 4)


def test_derive_changes_with_each_key():
    base = derive(42)
    assert derive(42) == base
    assert derive(42, 0) != derive(42, 1)
    assert derive(42, 0, 1) != derive(42, 1, 0)
    # derived streams diverge
    a = SplitMix64(derive(42, 0))
    b = SplitMix64(derive(42, 1))
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_seed_wraps_modulo_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


def test_normal_spare_is_consumed_in_order():
    # two consecutive draws use one Box-Muller pair
    rng = ScalarStream(10)
    pair = [rng.normal(), rng.normal()]
    fresh = SplitMix64(10)
    u1 = ((fresh.next_u64() >> 11) + 1) * 2.0**-53
    u2 = fresh.random()
    r = math.sqrt(-2.0 * math.log(u1))
    assert pair[0] == pytest.approx(r * math.cos(2 * math.pi * u2), abs=0)
    assert pair[1] == pytest.approx(r * math.sin(2 * math.pi * u2), abs=0)
