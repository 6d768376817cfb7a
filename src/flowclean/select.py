"""Cluster selection rules and the end-to-end cleaning pipeline.

A selection policy is an ordered list of keep/drop rules evaluated
against each cluster's raw-scale centroid, first match wins, with a
default action for unmatched clusters. Thresholds are literal numbers
or percentile tokens (p25, p75, ...) resolved against the per-app
per-flow feature distribution, so policies transfer between apps with
very different traffic volumes. evaluate() resolves each threshold
once and compares whole centroid columns, returning per cluster the
index of the rule that decided it, or -1 where the default did.

clean() runs the whole pipeline per app: payload-prefix filtering,
feature extraction and standardization, clustering, cluster
selection. Each app's run returns the positions of its kept flows,
its counts and its stage times; the kept flows of every app form the
cleaned dataset.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import operator
import time
# Unused: perfbench's tracer patches this attribute. It goes once perfbench
# stops patching it (see ROADMAP.md).
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .cluster import Algorithm, Linkage, hierarchical, kmeans
from .dpi import Blocklist, DEFAULT_BLOCKLIST, filter_flows
from .errors import InvariantViolation, ParseError
from .features import CLUSTER_FEATURES, destandardize, feature_matrix, standardize
from .ingest import FlowRecord
from .parallel import fork_map

logger = logging.getLogger(__name__)


class Action(Enum):
    KEEP = "keep"
    DROP = "drop"


_COMPARATORS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
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
    `default keep|drop`; `#` comments and blank lines ignored. A NaN
    threshold is rejected: no cluster could ever match it.
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
            # no float literal starts with p, so pNN tokens cannot be numbers
            if value_token.lower().startswith("p"):
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
                if math.isnan(literal):
                    raise ParseError(
                        f"threshold {value_token!r} is not a number", lineno
                    )
                predicates.append(Predicate(feature, cmp_token, threshold=literal))
        rules.append(Rule(action=Action(word), predicates=tuple(predicates)))
    return SelectionPolicy(rules=tuple(rules), default_action=default_action)


def read_rules(path: str | Path) -> SelectionPolicy:
    """parse_rules on a file; a ParseError names the file and the line."""
    try:
        return parse_rules(Path(path).read_text())
    except ParseError as exc:
        raise ParseError(exc.reason, exc.line, str(path)) from None


# keep download-heavy clusters: the content traffic of data-plane apps
DEFAULT_POLICY = parse_rules("keep ratio > 0.9")


def evaluate(
    policy: SelectionPolicy, centroids_raw: np.ndarray, per_flow: np.ndarray
) -> np.ndarray:
    """Index of the first rule each cluster matches, -1 for the default.

    Returns one int per row of centroids_raw. Both arrays are in the
    raw feature scale with columns in CLUSTER_FEATURES order (per_flow
    may carry more columns after them); each predicate's threshold is
    resolved once, pNN against its per_flow column, and compared with
    the whole centroid column.
    """
    decided = np.full(len(centroids_raw), -1, dtype=np.intp)
    for index, rule in enumerate(policy.rules):
        matched = decided < 0
        for pred in rule.predicates:
            c = CLUSTER_FEATURES.index(pred.feature)
            if pred.percentile is None:
                threshold = pred.threshold
            else:
                threshold = _nearest_rank(per_flow[:, c], pred.percentile)
            matched &= _COMPARATORS[pred.comparator](centroids_raw[:, c], threshold)
        decided[matched] = index
    return decided


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


_COUNTERS = tuple(f.name for f in fields(AppCounts) if f.name != "skipped")


@dataclass
class CleanReport:
    apps: dict[str, AppCounts] = field(default_factory=dict)
    timings_ms: dict[str, float] = field(default_factory=dict)

    def totals(self) -> AppCounts:
        apps = self.apps.values()
        return AppCounts(**{n: sum(getattr(c, n) for c in apps) for n in _COUNTERS})

    def to_json_dict(self) -> dict:
        apps = {}
        for label in sorted(self.apps):
            entry = asdict(self.apps[label])
            if not entry["skipped"]:
                del entry["skipped"]
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

    threads caps the worker processes that clean apps, further capped
    by the app count and the CPUs this process may run on (see
    parallel.fork_map); apps are independent and results are merged in
    sorted label order, so the worker count never changes the output.
    threads must be >= 1. Stage times in the report are summed over
    apps, while total is wall time.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    report = CleanReport(timings_ms=dict.fromkeys(_STAGES, 0.0))
    by_app: dict[str, list[FlowRecord]] = {}
    for flow in flows:
        if not flow.app_label:
            raise ValueError(f"flow {flow.flow_id} has no app label")
        by_app.setdefault(flow.app_label, []).append(flow)

    labels = sorted(by_app)
    run = functools.partial(
        _clean_app,
        blocklist=blocklist,
        policy=policy,
        algorithm=algorithm,
        k=k,
        seed=seed,
        linkage=linkage,
        skip_dpi=skip_dpi,
    )
    total_start = time.perf_counter()
    # results come in label order; the first failing app's error re-raises
    results = fork_map(lambda i: run(by_app[labels[i]]), len(labels), threads)

    cleaned: list[FlowRecord] = []
    for label, (kept, counts, timings) in zip(labels, results):
        if counts.skipped:
            logger.warning(
                "%s: %d flows after filtering, need at least %d",
                label, counts.flows_dropped, max(k, 2),
            )
        counts.check(label)
        report.apps[label] = counts
        for stage in _STAGES:
            report.timings_ms[stage] += timings[stage]
        app_flows = by_app[label]
        cleaned.extend(app_flows[i] for i in kept.tolist())
    report.timings_ms["total"] = (time.perf_counter() - total_start) * 1e3
    cleaned.sort(key=lambda f: (f.app_label or "", f.flow_id))
    return cleaned, report


def _clean_app(
    app_flows: list[FlowRecord],
    *,
    blocklist: Blocklist,
    policy: SelectionPolicy,
    algorithm: Algorithm,
    k: int,
    seed: int,
    linkage: Linkage,
    skip_dpi: bool,
) -> tuple[np.ndarray, AppCounts, dict[str, float]]:
    """Clean one app: its kept flows' positions in app_flows, counts, stage times."""
    counts = AppCounts(input=len(app_flows))
    timings = dict.fromkeys(_STAGES, 0.0)
    t0 = time.perf_counter()
    if skip_dpi:
        survivors, at = app_flows, np.arange(len(app_flows))
    else:
        survivors, discarded = filter_flows(app_flows, blocklist)
        counts.dpi_discarded = len(discarded)
        # filter_flows keeps order: the survivors are the flows not discarded
        gone = {id(flow) for flow, _ in discarded}
        at = np.flatnonzero([id(flow) not in gone for flow in app_flows])
    t1 = time.perf_counter()
    timings["dpi"] = (t1 - t0) * 1e3

    if len(survivors) < max(k, 2):
        counts.skipped = True
        counts.flows_dropped = len(survivors)
        return at[:0], counts, timings

    raw = feature_matrix(survivors)
    z, means, stds = standardize(raw[:, : len(CLUSTER_FEATURES)])
    t2 = time.perf_counter()
    timings["features"] = (t2 - t1) * 1e3

    if algorithm is Algorithm.KMEANS:
        model = kmeans(z, k, seed)
    else:
        model = hierarchical(z, k, linkage)
    counts.clusters_formed = model.k
    t3 = time.perf_counter()
    timings["cluster"] = (t3 - t2) * 1e3

    rule_index = evaluate(policy, destandardize(model.centroids, means, stds), raw)
    # index -1 picks the last entry, the default action
    keeps = np.array(
        [rule.action is Action.KEEP for rule in policy.rules]
        + [policy.default_action is Action.KEEP]
    )
    kept = at[keeps[rule_index][model.assignments]]
    counts.flows_kept = len(kept)
    counts.flows_dropped = len(survivors) - len(kept)
    timings["select"] = (time.perf_counter() - t3) * 1e3
    return kept, counts, timings
