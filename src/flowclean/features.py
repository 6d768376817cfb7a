"""Per-flow statistical features and z-score standardization.

Six features drive clustering: bytes_in, bytes_out, packets_in,
packets_out, duration_s, and the direction ratio
(bytes_in - bytes_out) / (bytes_in + bytes_out), which lands near 1
for download-heavy flows and near -1 for upload-heavy ones. Two
auxiliary means (header size, payload size) ride along for reporting
and classification but stay out of the clustering distance.

Features travel as plain float64 arrays, one row per flow, columns in
ALL_FEATURES order; the clustering columns are the leading
len(CLUSTER_FEATURES) ones.
"""

from __future__ import annotations

import numpy as np

from .errors import CounterOutOfRange, EmptyFlow, TooFewRows
from .ingest import FlowRecord

CLUSTER_FEATURES = (
    "bytes_in",
    "bytes_out",
    "packets_in",
    "packets_out",
    "duration_s",
    "ratio",
)
AUX_FEATURES = ("mean_header_size", "mean_payload_size")
ALL_FEATURES = CLUSTER_FEATURES + AUX_FEATURES
# the FlowRecord fields feature_matrix reads, in the order it reads them
_COUNTERS = (
    "bytes_in",
    "bytes_out",
    "packets_in",
    "packets_out",
    "first_ts_us",
    "last_ts_us",
    "header_bytes_total",
    "payload_bytes_total",
)


def feature_matrix(flows: list[FlowRecord]) -> np.ndarray:
    """n x 8 raw feature array in ALL_FEATURES order, rows in input order.

    The ratio of a flow with no bytes either way is 0. Raises
    CounterOutOfRange for the first flow with a counter or timestamp
    that float64 cannot hold (about 2**1024 or more in size), then
    EmptyFlow for the first flow with no packets. Counters and their
    sums below 2**53 convert to float64 exactly, so each value is what
    the same arithmetic on Python ints gives.
    """
    n = len(flows)
    try:
        counters = np.array(
            [
                (
                    f.bytes_in,
                    f.bytes_out,
                    f.packets_in,
                    f.packets_out,
                    f.first_ts_us,
                    f.last_ts_us,
                    f.header_bytes_total,
                    f.payload_bytes_total,
                )
                for f in flows
            ],
            dtype=np.float64,
        ).reshape(n, 8)
    except OverflowError:
        for f in flows:
            for name in _COUNTERS:
                try:
                    float(getattr(f, name))
                except OverflowError:
                    raise CounterOutOfRange(
                        f"flow {f.flow_id}: {name} is out of float64's range"
                    ) from None
        raise
    b_in, b_out, p_in, p_out, first, last, header, payload = counters.T
    packets = p_in + p_out
    empty = np.flatnonzero(packets == 0.0)
    if empty.size:
        raise EmptyFlow(f"flow {flows[empty[0]].flow_id} has no packets")
    total = b_in + b_out
    ratio = np.divide(b_in - b_out, total, out=np.zeros(n), where=total != 0.0)
    return np.column_stack(
        [
            b_in,
            b_out,
            p_in,
            p_out,
            (last - first) / 1e6,
            ratio,
            header / packets,
            payload / packets,
        ]
    )


def standardize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-score each column (population std); returns (z, means, stds).

    Zero-variance columns map to all-zeros rather than dividing by
    zero; destandardize maps them back to their constant.
    """
    if values.shape[0] < 2:
        raise TooFewRows("standardize needs at least 2 rows")
    means = values.mean(axis=0)
    dev = values - means
    # The float64 mean is off by up to half an ulp of the column's
    # magnitude; divided by a spread many orders smaller (ratios near
    # 1 that differ in the sixth digit) that leaves z visibly
    # off-centre, so the deviations are centred a second time.
    shift = dev.mean(axis=0)
    means += shift
    dev -= shift
    const = (values == values[0]).all(axis=0)
    means[const] = values[0, const]
    dev[:, const] = 0.0
    stds = np.sqrt((dev * dev).mean(axis=0))
    z = dev / np.where(stds == 0.0, 1.0, stds)
    return z, means, stds


def destandardize(
    rows: np.ndarray, means: np.ndarray, stds: np.ndarray
) -> np.ndarray:
    """Map standardized rows back to the raw scale of standardize's input."""
    return np.asarray(rows, dtype=np.float64) * stds + means
