"""Multi-class random forest over flow features, built from scratch.

The forest measures cleaning quality: train it on a cleaned dataset,
score it on held-out flows, and compare against a forest trained on
ground-truth-cleaned data. Trees use axis-aligned splits chosen by
Gini impurity over the 6 clustering features plus the 2 auxiliary
mean-size features.

Determinism: every tree draws its bootstrap sample and per-node
feature subsets from a PRNG stream derived from (seed, tree index),
so trees could be built in parallel without changing the model.
Prediction ties break toward the lexicographically smallest label.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyTest, LabelTooSmall, SingleClass
from .features import ALL_FEATURES, feature_matrix
from .ingest import FlowRecord
from .rng import SplitMix64, derive


def split(
    flows: list[FlowRecord], train_frac: float = 0.75, seed: int = 42
) -> tuple[list[FlowRecord], list[FlowRecord]]:
    """Stratified train/test split by app label.

    Each label contributes floor(n * train_frac + 0.5) flows to the
    training set (round half up) after a seeded shuffle; the rest go
    to test. Every label needs at least 4 flows.
    """
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must be in (0, 1)")
    by_label: dict[str, list[FlowRecord]] = {}
    for flow in flows:
        if not flow.app_label:
            raise ValueError(f"flow {flow.flow_id} has no app label")
        by_label.setdefault(flow.app_label, []).append(flow)
    for label, group in sorted(by_label.items()):
        if len(group) < 4:
            raise LabelTooSmall(f"label {label!r} has {len(group)} flows, need >= 4")
    train: list[FlowRecord] = []
    test: list[FlowRecord] = []
    for idx, (label, group) in enumerate(sorted(by_label.items())):
        rng = SplitMix64(derive(seed, idx))
        order = list(range(len(group)))
        rng.shuffle(order)
        n_train = math.floor(len(group) * train_frac + 0.5)
        train.extend(group[i] for i in order[:n_train])
        test.extend(group[i] for i in order[n_train:])
    return train, test


@dataclass
class _Tree:
    """One decision tree as parallel node arrays (preorder).

    feature[i] == -1 marks a leaf; histogram[i] counts the training
    samples per class that reached node i (populated for leaves).
    Internal nodes route x[feature] <= threshold to left.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    histogram: np.ndarray

    def predict_class(self, x: np.ndarray) -> np.ndarray:
        node = np.zeros(x.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.flatnonzero(active)
            cur = node[idx]
            goes_left = (
                x[idx, self.feature[cur]] <= self.threshold[cur]
            )
            node[idx] = np.where(goes_left, self.left[cur], self.right[cur])
            active[idx] = self.feature[node[idx]] >= 0
        return np.argmax(self.histogram[node], axis=1)


@dataclass
class ForestModel:
    labels: list[str]
    feature_names: list[str]
    trees: list[_Tree]
    n_trees: int
    max_depth: int
    min_leaf: int
    features_per_split: int
    seed: int

    def config_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "features_per_split": self.features_per_split,
            "seed": self.seed,
        }

    def predict_matrix(self, x: np.ndarray) -> list[str]:
        x = np.asarray(x, dtype=np.float64)
        votes = np.zeros((x.shape[0], len(self.labels)), dtype=np.int64)
        for tree in self.trees:
            pred = tree.predict_class(x)
            votes[np.arange(x.shape[0]), pred] += 1
        # argmax takes the first maximum: lexicographically smallest label
        winners = np.argmax(votes, axis=1)
        return [self.labels[w] for w in winners]

    def predict(self, flows: list[FlowRecord]) -> list[str]:
        return self.predict_matrix(feature_matrix(flows))


class _TreeBuilder:
    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        n_classes: int,
        max_depth: int,
        min_leaf: int,
        features_per_split: int,
        rng: SplitMix64,
    ):
        self.x = x
        self.y = y
        self.n_classes = n_classes
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.features_per_split = features_per_split
        self.rng = rng
        self.one_hot = np.eye(n_classes, dtype=np.float64)
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.histogram: list[np.ndarray] = []

    def build(self, indices: np.ndarray, depth: int) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        y_node = self.y[indices]
        hist = np.bincount(y_node, minlength=self.n_classes)
        self.histogram.append(hist)
        n = len(indices)
        if (
            depth >= self.max_depth
            or n < 2 * self.min_leaf
            or np.count_nonzero(hist) <= 1
        ):
            return node
        found = self._best_split(indices, hist, n)
        if found is None:
            return node
        feat, thr = found
        mask = self.x[indices, feat] <= thr
        left_idx = indices[mask]
        right_idx = indices[~mask]
        self.feature[node] = feat
        self.threshold[node] = thr
        self.left[node] = self.build(left_idx, depth + 1)
        self.right[node] = self.build(right_idx, depth + 1)
        return node

    def _best_split(
        self, indices: np.ndarray, hist: np.ndarray, n: int
    ) -> tuple[int, float] | None:
        # score scale: n * weighted Gini, cheaper and order-equivalent
        totals = hist.astype(np.float64)
        parent = n - float(totals @ totals) / n
        feats = self.rng.sample_indices(self.x.shape[1], self.features_per_split)
        best_score = parent - 1e-12
        best: tuple[int, float] | None = None
        nl = np.arange(1, n, dtype=np.float64)
        nr = n - nl
        for feat in feats:
            xf = self.x[indices, feat]
            order = np.argsort(xf, kind="stable")
            xs = xf[order]
            if xs[0] == xs[-1]:
                continue
            cum = np.cumsum(self.one_hot[self.y[indices][order]], axis=0)
            left = cum[:-1]
            right = totals[None, :] - left
            score = (
                nl
                - np.einsum("ij,ij->i", left, left) / nl
                + nr
                - np.einsum("ij,ij->i", right, right) / nr
            )
            valid = (xs[1:] > xs[:-1]) & (nl >= self.min_leaf) & (nr >= self.min_leaf)
            if not np.any(valid):
                continue
            score = np.where(valid, score, np.inf)
            pos = int(np.argmin(score))
            if score[pos] < best_score:
                best_score = float(score[pos])
                best = (int(feat), float((xs[pos] + xs[pos + 1]) / 2.0))
        return best

    def finish(self) -> _Tree:
        return _Tree(
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int64),
            right=np.array(self.right, dtype=np.int64),
            histogram=np.array(self.histogram, dtype=np.int64),
        )


def train(
    flows: list[FlowRecord],
    n_trees: int = 100,
    max_depth: int = 16,
    min_leaf: int = 2,
    features_per_split: int = 3,
    seed: int = 42,
    bootstrap: bool = True,
) -> ForestModel:
    """Fit a random forest on labeled flows.

    Each tree trains on a bootstrap resample of the full training set
    (disabled with bootstrap=False, where every tree sees all rows).
    """
    labels = sorted({f.app_label for f in flows if f.app_label})
    if len(labels) < 2:
        raise SingleClass(f"need >= 2 classes, got {labels}")
    label_idx = {label: i for i, label in enumerate(labels)}
    x = feature_matrix(flows)
    y = np.array([label_idx[f.app_label] for f in flows], dtype=np.int64)
    n = x.shape[0]
    trees: list[_Tree] = []
    for t in range(n_trees):
        rng = SplitMix64(derive(seed, t))
        if bootstrap:
            sample = (rng.next_u64_array(n) % np.uint64(n)).astype(np.int64)
        else:
            sample = np.arange(n, dtype=np.int64)
        builder = _TreeBuilder(
            x[sample],
            y[sample],
            len(labels),
            max_depth,
            min_leaf,
            features_per_split,
            rng,
        )
        builder.build(np.arange(len(sample), dtype=np.int64), 0)
        trees.append(builder.finish())
    return ForestModel(
        labels=labels,
        feature_names=list(ALL_FEATURES),
        trees=trees,
        n_trees=n_trees,
        max_depth=max_depth,
        min_leaf=min_leaf,
        features_per_split=features_per_split,
        seed=seed,
    )


@dataclass
class Metrics:
    accuracy: float
    macro_precision: float
    macro_recall: float
    labels: list[str]
    confusion: list[list[int]]
    config: dict

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "labels": self.labels,
            "confusion": self.confusion,
            "config": self.config,
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")


def compute_metrics(
    actual: list[str], predicted: list[str], extra_labels=(), config: dict | None = None
) -> Metrics:
    """Confusion matrix plus accuracy and macro precision/recall.

    The matrix covers every label in actual, predicted, or
    extra_labels (rows actual, columns predicted); macro averages run
    over labels present in actual, with per-class precision/recall
    defined as 0 when the denominator is 0.
    """
    if not actual:
        raise EmptyTest("no samples to score")
    if len(actual) != len(predicted):
        raise ValueError("actual and predicted must be parallel lists")
    labels = sorted(set(actual) | set(predicted) | set(extra_labels))
    idx = {label: i for i, label in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for a, p in zip(actual, predicted):
        confusion[idx[a], idx[p]] += 1
    accuracy = float(np.trace(confusion) / confusion.sum())
    present = sorted(set(actual))
    precisions = []
    recalls = []
    for label in present:
        i = idx[label]
        tp = float(confusion[i, i])
        pred_total = float(confusion[:, i].sum())
        actual_total = float(confusion[i, :].sum())
        precisions.append(tp / pred_total if pred_total else 0.0)
        recalls.append(tp / actual_total if actual_total else 0.0)
    return Metrics(
        accuracy=accuracy,
        macro_precision=float(np.mean(precisions)),
        macro_recall=float(np.mean(recalls)),
        labels=labels,
        confusion=confusion.tolist(),
        config=dict(config or {}),
    )


def evaluate(model: ForestModel, test_flows: list[FlowRecord]) -> Metrics:
    """Score the model on held-out flows; see compute_metrics."""
    if not test_flows:
        raise EmptyTest("test set is empty")
    actual = [f.app_label or "" for f in test_flows]
    predicted = model.predict(test_flows)
    return compute_metrics(
        actual, predicted, extra_labels=model.labels, config=model.config_dict()
    )


def write_model(model: ForestModel, path: str | Path) -> None:
    """Dump the forest as JSON: config, labels, and per-tree arrays."""
    doc = {
        "labels": model.labels,
        "feature_names": model.feature_names,
        "config": model.config_dict(),
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "histogram": tree.histogram.tolist(),
            }
            for tree in model.trees
        ],
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def read_model(path: str | Path) -> ForestModel:
    doc = json.loads(Path(path).read_text())
    trees = [
        _Tree(
            feature=np.array(t["feature"], dtype=np.int64),
            threshold=np.array(t["threshold"], dtype=np.float64),
            left=np.array(t["left"], dtype=np.int64),
            right=np.array(t["right"], dtype=np.int64),
            histogram=np.array(t["histogram"], dtype=np.int64),
        )
        for t in doc["trees"]
    ]
    cfg = doc["config"]
    return ForestModel(
        labels=list(doc["labels"]),
        feature_names=list(doc["feature_names"]),
        trees=trees,
        n_trees=int(cfg["n_trees"]),
        max_depth=int(cfg["max_depth"]),
        min_leaf=int(cfg["min_leaf"]),
        features_per_split=int(cfg["features_per_split"]),
        seed=int(cfg["seed"]),
    )
