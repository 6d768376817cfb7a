"""Per-flow statistical features and z-score standardization.

Six features drive clustering: bytes_in, bytes_out, packets_in,
packets_out, duration_s, and the direction ratio
(bytes_in - bytes_out) / (bytes_in + bytes_out), which lands near 1
for download-heavy flows and near -1 for upload-heavy ones. Two
auxiliary means (header size, payload size) ride along for reporting
and classification but stay out of the clustering distance.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class FeatureVector:
    bytes_in: float
    bytes_out: float
    packets_in: float
    packets_out: float
    duration_s: float
    ratio: float
    mean_header_size: float
    mean_payload_size: float

    def clustering_values(self) -> tuple[float, ...]:
        return (
            self.bytes_in,
            self.bytes_out,
            self.packets_in,
            self.packets_out,
            self.duration_s,
            self.ratio,
        )


@dataclass
class FeatureMatrix:
    """Row-per-flow feature table; values has the 6 clustering columns.

    aux carries the two auxiliary mean-size columns in the same row
    order. When standardized, means/stds hold the original column
    statistics so de-standardization is exact.
    """

    values: np.ndarray
    aux: np.ndarray
    flow_ids: list[int]
    app_labels: list[str | None]
    standardized: bool = False
    means: np.ndarray | None = None
    stds: np.ndarray | None = None

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(CLUSTER_FEATURES):
            raise ValueError("values must be n x 6")
        n = self.values.shape[0]
        if self.aux.shape != (n, len(AUX_FEATURES)):
            raise ValueError("aux must be n x 2")
        if len(self.flow_ids) != n or len(self.app_labels) != n:
            raise ValueError("flow_ids/app_labels must match row count")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def full_values(self) -> np.ndarray:
        """All 8 feature columns (clustering + auxiliary), raw scale."""
        if self.standardized:
            raise ValueError("full_values expects a raw-scale matrix")
        return np.hstack([self.values, self.aux])


def ratio(bytes_in: float, bytes_out: float) -> float:
    """Direction ratio in [-1, 1]; 0 for an empty flow (0, 0)."""
    total = bytes_in + bytes_out
    if total == 0:
        return 0.0
    return (bytes_in - bytes_out) / total


def extract(flow: FlowRecord) -> FeatureVector:
    """Compute the feature vector for one flow."""
    packets = flow.packets_in + flow.packets_out
    if packets == 0:
        raise EmptyFlow(f"flow {flow.flow_id} has no packets")
    return FeatureVector(
        bytes_in=float(flow.bytes_in),
        bytes_out=float(flow.bytes_out),
        packets_in=float(flow.packets_in),
        packets_out=float(flow.packets_out),
        duration_s=(flow.last_ts_us - flow.first_ts_us) / 1e6,
        ratio=ratio(flow.bytes_in, flow.bytes_out),
        mean_header_size=flow.header_bytes_total / packets,
        mean_payload_size=flow.payload_bytes_total / packets,
    )


def feature_matrix(flows: list[FlowRecord]) -> FeatureMatrix:
    """Build a raw-scale FeatureMatrix, one row per flow in input order."""
    vectors = [extract(f) for f in flows]
    values = np.array(
        [v.clustering_values() for v in vectors], dtype=np.float64
    ).reshape(len(vectors), len(CLUSTER_FEATURES))
    aux = np.array(
        [(v.mean_header_size, v.mean_payload_size) for v in vectors],
        dtype=np.float64,
    ).reshape(len(vectors), len(AUX_FEATURES))
    return FeatureMatrix(
        values=values,
        aux=aux,
        flow_ids=[f.flow_id for f in flows],
        app_labels=[f.app_label for f in flows],
    )


def standardize(matrix: FeatureMatrix) -> FeatureMatrix:
    """Z-score each clustering column (population std).

    Zero-variance columns map to all-zeros rather than dividing by
    zero. Original means/stds are kept on the result.
    """
    if matrix.standardized:
        raise ValueError("matrix is already standardized")
    if matrix.n_rows < 2:
        raise TooFewRows("standardize needs at least 2 rows")
    means = matrix.values.mean(axis=0)
    stds = matrix.values.std(axis=0)
    safe = np.where(stds == 0.0, 1.0, stds)
    values = (matrix.values - means) / safe
    values[:, stds == 0.0] = 0.0
    return FeatureMatrix(
        values=values,
        aux=matrix.aux,
        flow_ids=list(matrix.flow_ids),
        app_labels=list(matrix.app_labels),
        standardized=True,
        means=means,
        stds=stds,
    )


def destandardize(rows: np.ndarray, matrix: FeatureMatrix) -> np.ndarray:
    """Map standardized rows (m x 6) back to the raw feature scale.

    Zero-variance columns come back as the original constant value.
    """
    if not matrix.standardized or matrix.means is None or matrix.stds is None:
        raise ValueError("matrix carries no standardization stats")
    rows = np.asarray(rows, dtype=np.float64)
    return rows * matrix.stds + matrix.means
