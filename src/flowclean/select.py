"""Cluster selection rules and the end-to-end cleaning pipeline.

A selection policy is an ordered list of keep/drop rules evaluated
against each cluster's raw-scale centroid, first match wins, with a
default action for unmatched clusters. Thresholds are literal numbers
or percentile tokens (p25, p75, ...) resolved against the per-app
per-flow feature distribution, so policies transfer between apps with
very different traffic volumes.

clean() runs the whole pipeline per app: payload-prefix filtering,
feature extraction and standardization, clustering, cluster
selection. The kept flows of every app form the cleaned dataset.
"""

from __future__ import annotations

import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .cluster import Algorithm, Linkage, hierarchical, kmeans
from .dpi import Blocklist, DEFAULT_BLOCKLIST, filter_flows
from .errors import AppTooSmall, InvariantViolation, ParseError
from .features import CLUSTER_FEATURES, destandardize, feature_matrix, standardize
from .ingest import FlowRecord

logger = logging.getLogger(__name__)


class Action(Enum):
    KEEP = "keep"
    DROP = "drop"


_COMPARATORS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Predicate:
    """One comparison against a centroid feature.

    percentile is set for pNN thresholds and resolved per app at
    evaluation time; literal thresholds keep percentile None.
    """

    feature: str
    comparator: str
    threshold: float | None
    percentile: float | None = None

    def resolve(self, per_flow_column: np.ndarray) -> float:
        if self.percentile is None:
            assert self.threshold is not None
            return self.threshold
        return _nearest_rank(per_flow_column, self.percentile)

    def test(self, centroid_value: float, resolved_threshold: float) -> bool:
        return _COMPARATORS[self.comparator](centroid_value, resolved_threshold)


@dataclass(frozen=True)
class Rule:
    action: Action
    predicates: tuple[Predicate, ...]

    def __post_init__(self):
        if not self.predicates:
            raise ValueError("a rule needs at least one predicate")


@dataclass(frozen=True)
class SelectionPolicy:
    rules: tuple[Rule, ...]
    default_action: Action = Action.DROP


def _nearest_rank(column: np.ndarray, percentile: float) -> float:
    """Nearest-rank percentile: value at rank ceil(p/100 * n)."""
    ordered = np.sort(np.asarray(column, dtype=np.float64))
    n = len(ordered)
    if n == 0:
        raise ValueError("cannot take a percentile of an empty column")
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return float(ordered[min(rank, n) - 1])


def parse_rules(text: str) -> SelectionPolicy:
    """Parse the rule DSL.

    One rule per line: `keep|drop <feature> <cmp> <number|pNN>` with
    extra comma-separated predicates; optional final line
    `default keep|drop`; `#` comments and blank lines ignored.
    """
    rules: list[Rule] = []
    default_action = Action.DROP
    default_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if default_seen:
            raise ParseError("default must be the last line", lineno)
        parts = line.split(None, 1)
        word = parts[0].lower()
        if word == "default":
            if len(parts) != 2 or parts[1].strip().lower() not in ("keep", "drop"):
                raise ParseError("expected 'default keep' or 'default drop'", lineno)
            default_action = Action(parts[1].strip().lower())
            default_seen = True
            continue
        if word not in ("keep", "drop"):
            raise ParseError(f"unknown action {parts[0]!r}", lineno)
        if len(parts) != 2:
            raise ParseError("rule has no predicates", lineno)
        predicates = []
        for chunk in parts[1].split(","):
            tokens = chunk.split()
            if len(tokens) != 3:
                raise ParseError(
                    f"expected '<feature> <cmp> <value>', got {chunk.strip()!r}", lineno
                )
            feature, cmp_token, value_token = tokens
            if feature not in CLUSTER_FEATURES:
                raise ParseError(f"unknown feature {feature!r}", lineno)
            if cmp_token not in _COMPARATORS:
                raise ParseError(f"unknown comparator {cmp_token!r}", lineno)
            if value_token.lower().startswith("p") and not _is_number(value_token):
                digits = value_token[1:]
                try:
                    pct = float(digits)
                except ValueError:
                    raise ParseError(
                        f"malformed percentile {value_token!r}", lineno
                    ) from None
                if not 0.0 <= pct <= 100.0:
                    raise ParseError(f"percentile {value_token!r} outside 0-100", lineno)
                predicates.append(
                    Predicate(feature, cmp_token, threshold=None, percentile=pct)
                )
            else:
                try:
                    literal = float(value_token)
                except ValueError:
                    raise ParseError(
                        f"malformed threshold {value_token!r}", lineno
                    ) from None
                predicates.append(Predicate(feature, cmp_token, threshold=literal))
        rules.append(Rule(action=Action(word), predicates=tuple(predicates)))
    return SelectionPolicy(rules=tuple(rules), default_action=default_action)


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def read_rules(path: str | Path) -> SelectionPolicy:
    return parse_rules(Path(path).read_text())


# keep download-heavy clusters: the content traffic of data-plane apps
DEFAULT_POLICY = parse_rules("keep ratio > 0.9")


def evaluate(
    policy: SelectionPolicy, centroids_raw: np.ndarray, per_flow: np.ndarray
) -> set[int]:
    """Cluster ids (rows of centroids_raw) the policy keeps.

    Both arrays are in the raw feature scale with columns in
    CLUSTER_FEATURES order (per_flow may carry more columns after
    them); pNN thresholds resolve against per_flow's columns.
    """
    col = {name: i for i, name in enumerate(CLUSTER_FEATURES)}
    kept: set[int] = set()
    for cid, centroid in enumerate(centroids_raw):
        action = policy.default_action
        for rule in policy.rules:
            matched = True
            for pred in rule.predicates:
                c = col[pred.feature]
                threshold = pred.resolve(per_flow[:, c])
                if not pred.test(float(centroid[c]), threshold):
                    matched = False
                    break
            if matched:
                action = rule.action
                break
        if action is Action.KEEP:
            kept.add(cid)
    return kept


@dataclass
class AppCounts:
    """Flow bookkeeping for one app; input is conserved across stages."""

    input: int = 0
    dpi_discarded: int = 0
    clusters_formed: int = 0
    flows_kept: int = 0
    flows_dropped: int = 0
    skipped: bool = False

    def check(self, app: str) -> None:
        accounted = self.dpi_discarded + self.flows_kept + self.flows_dropped
        if self.input != accounted:
            raise InvariantViolation(
                f"{app}: {self.input} flows in, but {self.dpi_discarded} discarded"
                f" + {self.flows_kept} kept + {self.flows_dropped} dropped"
                f" = {accounted}"
            )


@dataclass
class CleanReport:
    apps: dict[str, AppCounts] = field(default_factory=dict)
    timings_ms: dict[str, float] = field(default_factory=dict)

    def totals(self) -> AppCounts:
        total = AppCounts()
        for counts in self.apps.values():
            total.input += counts.input
            total.dpi_discarded += counts.dpi_discarded
            total.clusters_formed += counts.clusters_formed
            total.flows_kept += counts.flows_kept
            total.flows_dropped += counts.flows_dropped
        return total

    def to_json_dict(self) -> dict:
        apps = {}
        for label in sorted(self.apps):
            counts = self.apps[label]
            entry = {
                "input": counts.input,
                "dpi_discarded": counts.dpi_discarded,
                "clusters_formed": counts.clusters_formed,
                "flows_kept": counts.flows_kept,
                "flows_dropped": counts.flows_dropped,
            }
            if counts.skipped:
                entry["skipped"] = True
            apps[label] = entry
        return {
            "apps": apps,
            "timings_ms": {k: round(v, 3) for k, v in self.timings_ms.items()},
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")


_STAGES = ("dpi", "features", "cluster", "select")


def clean(
    flows: list[FlowRecord],
    blocklist: Blocklist = DEFAULT_BLOCKLIST,
    policy: SelectionPolicy = DEFAULT_POLICY,
    algorithm: Algorithm = Algorithm.KMEANS,
    k: int = 4,
    seed: int = 42,
    linkage: Linkage = Linkage.WARD,
    skip_dpi: bool = False,
    threads: int = 1,
) -> tuple[list[FlowRecord], CleanReport]:
    """Run the full cleaning pipeline over labeled flows.

    Flows are grouped by app label and each app is cleaned on its own:
    payload filtering, per-app feature standardization, clustering
    into k groups, and policy-based cluster selection. Apps whose
    post-filter flow count is below max(k, 2) cannot be clustered;
    they are skipped (all surviving flows dropped) and flagged in the
    report. Returns kept flows sorted by (app_label, flow_id).

    threads caps the worker pool for per-app pipelines; apps are
    independent and results are merged in sorted label order, so the
    worker count never changes the output.
    """
    report = CleanReport(timings_ms={s: 0.0 for s in _STAGES})
    by_app: dict[str, list[FlowRecord]] = {}
    for flow in flows:
        if not flow.app_label:
            raise ValueError(f"flow {flow.flow_id} has no app label")
        by_app.setdefault(flow.app_label, []).append(flow)

    labels = sorted(by_app)
    total_start = time.perf_counter()
    results: dict[str, tuple[list[FlowRecord], AppCounts, dict[str, float]]] = {}

    def run_one(label: str):
        app_flows = by_app[label]
        counts = AppCounts(input=len(app_flows))
        timings = {s: 0.0 for s in _STAGES}
        try:
            kept = _clean_app(
                app_flows,
                counts,
                timings,
                blocklist,
                policy,
                algorithm,
                k,
                seed,
                linkage,
                skip_dpi,
            )
        except AppTooSmall as exc:
            logger.warning("%s: %s", label, exc)
            counts.skipped = True
            counts.flows_dropped = counts.input - counts.dpi_discarded
            kept = []
        counts.check(label)
        return kept, counts, timings

    if threads > 1 and len(labels) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for label, result in zip(labels, pool.map(run_one, labels)):
                results[label] = result
    else:
        for label in labels:
            results[label] = run_one(label)

    cleaned: list[FlowRecord] = []
    for label in labels:
        kept, counts, timings = results[label]
        report.apps[label] = counts
        for stage in _STAGES:
            report.timings_ms[stage] += timings[stage]
        cleaned.extend(kept)
    report.timings_ms["total"] = (time.perf_counter() - total_start) * 1e3
    cleaned.sort(key=lambda f: (f.app_label or "", f.flow_id))
    return cleaned, report


def _clean_app(
    app_flows: list[FlowRecord],
    counts: AppCounts,
    timings_ms: dict[str, float],
    blocklist: Blocklist,
    policy: SelectionPolicy,
    algorithm: Algorithm,
    k: int,
    seed: int,
    linkage: Linkage,
    skip_dpi: bool,
) -> list[FlowRecord]:
    t0 = time.perf_counter()
    if skip_dpi:
        survivors = list(app_flows)
    else:
        survivors, discarded = filter_flows(app_flows, blocklist)
        counts.dpi_discarded = len(discarded)
    t1 = time.perf_counter()
    timings_ms["dpi"] += (t1 - t0) * 1e3

    if len(survivors) < max(k, 2):
        raise AppTooSmall(
            f"{len(survivors)} flows after filtering, need at least {max(k, 2)}"
        )

    raw = feature_matrix(survivors)
    z, means, stds = standardize(raw[:, : len(CLUSTER_FEATURES)])
    t2 = time.perf_counter()
    timings_ms["features"] += (t2 - t1) * 1e3

    if algorithm is Algorithm.KMEANS:
        model = kmeans(z, k, seed)
    else:
        model = hierarchical(z, k, linkage)
    counts.clusters_formed = model.k
    t3 = time.perf_counter()
    timings_ms["cluster"] += (t3 - t2) * 1e3

    kept_ids = evaluate(policy, destandardize(model.centroids, means, stds), raw)
    kept = [
        flow
        for flow, cid in zip(survivors, model.assignments)
        if int(cid) in kept_ids
    ]
    counts.flows_kept = len(kept)
    counts.flows_dropped = len(survivors) - len(kept)
    timings_ms["select"] += (time.perf_counter() - t3) * 1e3
    return kept
