"""Tests for feature extraction and standardization."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from flowclean.errors import CounterOutOfRange, EmptyFlow, TooFewRows
from flowclean.features import (
    ALL_FEATURES,
    AUX_FEATURES,
    CLUSTER_FEATURES,
    destandardize,
    feature_matrix,
    standardize,
)

from conftest import make_flow

RATIO = ALL_FEATURES.index("ratio")


def per_flow_row(flow) -> tuple[float, ...]:
    """One flow's features by Python arithmetic: the oracle for feature_matrix."""
    packets = flow.packets_in + flow.packets_out
    total = flow.bytes_in + flow.bytes_out
    return (
        float(flow.bytes_in),
        float(flow.bytes_out),
        float(flow.packets_in),
        float(flow.packets_out),
        (flow.last_ts_us - flow.first_ts_us) / 1e6,
        0.0 if total == 0 else (flow.bytes_in - flow.bytes_out) / total,
        flow.header_bytes_total / packets,
        flow.payload_bytes_total / packets,
    )


def ratios(pairs) -> np.ndarray:
    """The ratio column feature_matrix gives for (bytes_in, bytes_out) pairs."""
    flows = [make_flow(flow_id=i, bytes_in=a, bytes_out=b) for i, (a, b) in enumerate(pairs)]
    return feature_matrix(flows)[:, RATIO]


def ratio_of(bytes_in: int, bytes_out: int) -> float:
    return float(ratios([(bytes_in, bytes_out)])[0])


# --- ratio --------------------------------------------------------------


def test_ratio_examples():
    assert ratio_of(900, 100) == pytest.approx(0.8)
    assert ratio_of(100, 900) == pytest.approx(-0.8)
    assert ratio_of(500, 500) == 0.0
    assert ratio_of(1, 0) == 1.0
    assert ratio_of(0, 1) == -1.0


def test_ratio_zero_zero():
    # packets but no bytes either way: the ratio is 0, not a division by zero
    assert ratio_of(0, 0) == 0.0


@given(st.integers(0, 10**12), st.integers(0, 10**12))
def test_ratio_bounded_and_antisymmetric(a, b):
    r = ratio_of(a, b)
    assert -1.0 <= r <= 1.0
    assert ratio_of(b, a) == pytest.approx(-r, abs=1e-12)


# --- feature_matrix -----------------------------------------------------


def test_extract_arithmetic():
    # conftest defaults: 10000 in / 500 out, 9 + 3 packets, 3 s span
    row = dict(zip(ALL_FEATURES, feature_matrix([make_flow()])[0]))
    assert row["bytes_in"] == 10000.0
    assert row["bytes_out"] == 500.0
    assert row["packets_in"] == 9.0
    assert row["packets_out"] == 3.0
    assert row["duration_s"] == pytest.approx(3.0)
    assert row["ratio"] == pytest.approx((10000 - 500) / 10500)
    assert row["mean_header_size"] == pytest.approx(648 / 12)
    assert row["mean_payload_size"] == pytest.approx(9852 / 12)


def test_extract_zero_packets_raises():
    empty = dict(bytes_in=0, bytes_out=0, packets_in=0, packets_out=0)
    flows = [make_flow(flow_id=0), make_flow(flow_id=5, **empty),
             make_flow(flow_id=7, **empty)]
    with pytest.raises(EmptyFlow, match="^flow 5 has no packets$"):
        feature_matrix(flows)


@pytest.mark.parametrize(
    "overrides, error",
    [
        (dict(bytes_in=10**400), "^flow 5: bytes_in is out of float64's range$"),
        # the first such counter in feature_matrix's order is named
        (dict(payload_bytes_total=2**1024, first_ts_us=-(2**1024)),
         "^flow 5: first_ts_us is out of float64's range$"),
        (dict(last_ts_us=10**309), "^flow 5: last_ts_us is out of float64's range$"),
    ],
)
def test_extract_counter_out_of_float64_range_raises(overrides, error):
    # flow 5 is named before flow 7, and before flow 0, which has no packets
    empty = dict(bytes_in=0, bytes_out=0, packets_in=0, packets_out=0)
    flows = [make_flow(flow_id=0, **empty), make_flow(flow_id=5, **overrides),
             make_flow(flow_id=7, header_bytes_total=10**400)]
    with pytest.raises(CounterOutOfRange, match=error):
        feature_matrix(flows)


def test_extract_the_largest_float64_counter():
    largest = np.finfo(np.float64).max
    assert feature_matrix([make_flow(bytes_in=int(largest))])[0, 0] == largest


def test_extract_one_packet_zero_duration():
    flow = make_flow(bytes_in=0, bytes_out=100, packets_in=0, packets_out=1,
                     first_ts_us=5_000_000, last_ts_us=5_000_000,
                     header_bytes_total=54, payload_bytes_total=46)
    row = dict(zip(ALL_FEATURES, feature_matrix([flow])[0]))
    assert row["duration_s"] == 0.0
    assert row["ratio"] == -1.0


def test_feature_name_order():
    assert CLUSTER_FEATURES == (
        "bytes_in", "bytes_out", "packets_in", "packets_out", "duration_s", "ratio",
    )
    assert AUX_FEATURES == ("mean_header_size", "mean_payload_size")
    assert ALL_FEATURES == CLUSTER_FEATURES + AUX_FEATURES


def test_feature_matrix_shapes():
    flows = [make_flow(flow_id=i, bytes_in=100 * i) for i in range(3)]
    mat = feature_matrix(flows)
    assert mat.shape == (3, len(ALL_FEATURES))
    assert mat.dtype == np.float64
    assert mat.flags.c_contiguous
    assert mat[:, 0].tolist() == [0.0, 100.0, 200.0]


def test_feature_matrix_empty():
    mat = feature_matrix([])
    assert mat.shape == (0, len(ALL_FEATURES))
    assert mat.dtype == np.float64


# counters and their sums stay below 2**53, where float64 holds them exactly
_COUNTER = st.integers(0, 2**52 - 1)


@st.composite
def flows_below_2_53(draw):
    rows = draw(st.lists(st.tuples(*[_COUNTER] * 8), min_size=1, max_size=20))
    flows = []
    for i, (b_in, b_out, p_in, p_out, first, span, header, payload) in enumerate(rows):
        assume(p_in + p_out > 0)
        flows.append(make_flow(
            flow_id=i, bytes_in=b_in, bytes_out=b_out, packets_in=p_in,
            packets_out=p_out, first_ts_us=first, last_ts_us=first + span,
            header_bytes_total=header, payload_bytes_total=payload,
        ))
    return flows


@given(flows_below_2_53())
def test_feature_matrix_matches_per_flow_oracle(flows):
    want = np.array([per_flow_row(f) for f in flows], dtype=np.float64)
    got = feature_matrix(flows)
    # compare bit patterns, so -0.0 against 0.0 counts as a difference
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# --- standardize --------------------------------------------------------


def test_standardize_two_point_exact():
    mat = feature_matrix([
        make_flow(flow_id=0, bytes_in=0), make_flow(flow_id=1, bytes_in=10),
    ])
    z, means, stds = standardize(mat)
    col = CLUSTER_FEATURES.index("bytes_in")
    assert z[0, col] == pytest.approx(-1.0)
    assert z[1, col] == pytest.approx(1.0)
    assert means[col] == pytest.approx(5.0)
    assert stds[col] == pytest.approx(5.0)  # population std of {0, 10}


def test_standardize_constant_column_zeros():
    mat = feature_matrix([make_flow(flow_id=i) for i in range(4)])
    z, _, stds = standardize(mat)
    # identical flows: every column is constant -> all zeros
    assert np.all(z == 0.0)
    assert np.all(stds == 0.0)


def test_standardize_too_few_rows():
    with pytest.raises(TooFewRows):
        standardize(feature_matrix([make_flow()]))
    with pytest.raises(TooFewRows):
        standardize(feature_matrix([]))


def test_standardize_keeps_raw_input_unchanged():
    mat = feature_matrix([make_flow(flow_id=i, bytes_in=100 * i + 1) for i in range(3)])
    before = mat.copy()
    standardize(mat[:, : len(CLUSTER_FEATURES)])
    assert np.array_equal(mat, before)


@given(st.lists(st.integers(0, 10**9), min_size=2, max_size=40, unique=True))
def test_standardize_moments(byte_counts):
    flows = [make_flow(flow_id=i, bytes_in=b) for i, b in enumerate(byte_counts)]
    z, _, _ = standardize(feature_matrix(flows))
    for col in range(z.shape[1]):
        vals = z[:, col]
        assert abs(vals.mean()) < 1e-9
        s = vals.std()
        assert s == pytest.approx(1.0, abs=1e-9) or s == 0.0


def test_destandardize_round_trip():
    flows = [make_flow(flow_id=i, bytes_in=i * 997 + 3, bytes_out=i * 13 + 1,
                       packets_in=i + 1, packets_out=2 * i + 1,
                       first_ts_us=0, last_ts_us=(i + 1) * 500_000)
             for i in range(10)]
    mat = feature_matrix(flows)
    z, means, stds = standardize(mat)
    back = destandardize(z, means, stds)
    assert np.allclose(back, mat, atol=1e-9)


def test_destandardize_zero_variance_column_restores_constant():
    mat = feature_matrix([make_flow(flow_id=i) for i in range(3)])
    z, means, stds = standardize(mat)
    back = destandardize(z, means, stds)
    assert np.allclose(back, mat)
