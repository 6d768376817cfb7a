"""Tests for feature extraction and standardization."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowclean.errors import EmptyFlow, TooFewRows
from flowclean.features import (
    ALL_FEATURES,
    AUX_FEATURES,
    CLUSTER_FEATURES,
    destandardize,
    extract,
    feature_matrix,
    ratio,
    standardize,
)

from conftest import make_flow


# --- ratio --------------------------------------------------------------


def test_ratio_examples():
    assert ratio(900.0, 100.0) == pytest.approx(0.8)
    assert ratio(100.0, 900.0) == pytest.approx(-0.8)
    assert ratio(500.0, 500.0) == 0.0
    assert ratio(1.0, 0.0) == 1.0
    assert ratio(0.0, 1.0) == -1.0


def test_ratio_zero_zero():
    assert ratio(0.0, 0.0) == 0.0


@given(st.floats(0, 1e12), st.floats(0, 1e12))
def test_ratio_bounded_and_antisymmetric(a, b):
    r = ratio(a, b)
    assert -1.0 <= r <= 1.0
    assert ratio(b, a) == pytest.approx(-r, abs=1e-12)


# --- extract ------------------------------------------------------------


def test_extract_arithmetic():
    # conftest defaults: 10000 in / 500 out, 9 + 3 packets, 3 s span
    flow = make_flow()
    vec = extract(flow)
    assert vec.bytes_in == 10000.0
    assert vec.bytes_out == 500.0
    assert vec.packets_in == 9.0
    assert vec.packets_out == 3.0
    assert vec.duration_s == pytest.approx(3.0)
    assert vec.ratio == pytest.approx((10000 - 500) / 10500)
    assert vec.mean_header_size == pytest.approx(648 / 12)
    assert vec.mean_payload_size == pytest.approx(9852 / 12)


def test_extract_zero_packets_raises():
    flow = make_flow(bytes_in=0, bytes_out=0, packets_in=0, packets_out=0)
    with pytest.raises(EmptyFlow):
        extract(flow)


def test_extract_one_packet_zero_duration():
    flow = make_flow(bytes_in=0, bytes_out=100, packets_in=0, packets_out=1,
                     first_ts_us=5_000_000, last_ts_us=5_000_000,
                     header_bytes_total=54, payload_bytes_total=46)
    vec = extract(flow)
    assert vec.duration_s == 0.0
    assert vec.ratio == -1.0


def test_feature_name_order():
    assert CLUSTER_FEATURES == (
        "bytes_in", "bytes_out", "packets_in", "packets_out", "duration_s", "ratio",
    )
    assert AUX_FEATURES == ("mean_header_size", "mean_payload_size")
    assert ALL_FEATURES == CLUSTER_FEATURES + AUX_FEATURES


def test_feature_matrix_shapes():
    flows = [make_flow(flow_id=i) for i in range(3)]
    mat = feature_matrix(flows)
    assert mat.values.shape == (3, 6)
    assert mat.aux.shape == (3, 2)
    assert mat.flow_ids == [0, 1, 2]
    assert mat.app_labels == ["appx"] * 3
    assert not mat.standardized


def test_feature_matrix_empty():
    mat = feature_matrix([])
    assert mat.values.shape == (0, 6)
    assert mat.n_rows == 0


# --- standardize --------------------------------------------------------


def test_standardize_two_point_exact():
    mat = feature_matrix([
        make_flow(flow_id=0, bytes_in=0), make_flow(flow_id=1, bytes_in=10),
    ])
    std = standardize(mat)
    col = CLUSTER_FEATURES.index("bytes_in")
    assert std.values[0, col] == pytest.approx(-1.0)
    assert std.values[1, col] == pytest.approx(1.0)
    assert std.means[col] == pytest.approx(5.0)
    assert std.stds[col] == pytest.approx(5.0)  # population std of {0, 10}
    assert std.standardized


def test_standardize_constant_column_zeros():
    mat = feature_matrix([make_flow(flow_id=i) for i in range(4)])
    std = standardize(mat)
    # identical flows: every column is constant -> all zeros
    assert np.all(std.values == 0.0)
    assert np.all(std.stds == 0.0)


def test_standardize_too_few_rows():
    with pytest.raises(TooFewRows):
        standardize(feature_matrix([make_flow()]))
    with pytest.raises(TooFewRows):
        standardize(feature_matrix([]))


def test_standardize_rejects_standardized_input():
    mat = feature_matrix([make_flow(flow_id=i, bytes_in=1000 * (i + 1)) for i in range(3)])
    std = standardize(mat)
    with pytest.raises(ValueError):
        standardize(std)


def test_standardize_keeps_raw_input_unchanged():
    mat = feature_matrix([make_flow(flow_id=i, bytes_in=100 * i + 1) for i in range(3)])
    before = mat.values.copy()
    standardize(mat)
    assert np.array_equal(mat.values, before)
    assert not mat.standardized


@given(st.lists(st.integers(0, 10**9), min_size=2, max_size=40, unique=True))
def test_standardize_moments(byte_counts):
    flows = [make_flow(flow_id=i, bytes_in=b) for i, b in enumerate(byte_counts)]
    std = standardize(feature_matrix(flows))
    for col in range(std.values.shape[1]):
        vals = std.values[:, col]
        assert abs(vals.mean()) < 1e-9
        s = vals.std()
        assert s == pytest.approx(1.0, abs=1e-9) or s == 0.0


def test_destandardize_round_trip():
    flows = [make_flow(flow_id=i, bytes_in=i * 997 + 3, bytes_out=i * 13 + 1,
                       packets_in=i + 1, packets_out=2 * i + 1,
                       first_ts_us=0, last_ts_us=(i + 1) * 500_000)
             for i in range(10)]
    mat = feature_matrix(flows)
    std = standardize(mat)
    back = destandardize(std.values, std)
    assert np.allclose(back, mat.values, atol=1e-9)


def test_destandardize_zero_variance_column_restores_constant():
    mat = feature_matrix([make_flow(flow_id=i) for i in range(3)])
    std = standardize(mat)
    back = destandardize(std.values, std)
    assert np.allclose(back, mat.values)


def test_destandardize_requires_stats():
    mat = feature_matrix([make_flow(flow_id=i, bytes_in=i) for i in range(3)])
    with pytest.raises(ValueError):
        destandardize(mat.values, mat)


def test_full_values_guard():
    mat = feature_matrix([make_flow(flow_id=i, bytes_in=100 * i) for i in range(3)])
    assert mat.full_values().shape == (3, 8)
    std = standardize(mat)
    with pytest.raises(ValueError):
        std.full_values()
