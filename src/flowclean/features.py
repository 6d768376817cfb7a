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

from .errors import EmptyFlow, TooFewRows
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


def feature_matrix(flows: list[FlowRecord]) -> np.ndarray:
    """n x 8 raw feature array in ALL_FEATURES order, rows in input order.

    The ratio of a flow with no bytes either way is 0. Raises EmptyFlow
    for the first flow with no packets. Counters and their sums below
    2**53 convert to float64 exactly, so each value is what the same
    arithmetic on Python ints gives.
    """
    n = len(flows)
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
    stds = values.std(axis=0)
    safe = np.where(stds == 0.0, 1.0, stds)
    z = (values - means) / safe
    z[:, stds == 0.0] = 0.0
    return z, means, stds


def destandardize(
    rows: np.ndarray, means: np.ndarray, stds: np.ndarray
) -> np.ndarray:
    """Map standardized rows back to the raw scale of standardize's input."""
    return np.asarray(rows, dtype=np.float64) * stds + means
