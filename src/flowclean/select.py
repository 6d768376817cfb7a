"""Cluster selection rules and the end-to-end cleaning pipeline.

A selection policy is an ordered list of keep/drop rules evaluated
against each cluster's raw-scale centroid, first match wins, with a
default action for unmatched clusters. Thresholds are literal numbers
or percentile tokens (p25, p75, ...) resolved against the per-app
per-flow feature distribution, so policies transfer between apps with
very different traffic volumes. evaluate() resolves each threshold
once and compares whole centroid columns, returning per cluster the
index of the rule that decided it, or -1 where the default did.

Cleaning runs in two phases. Phase 1, _flow_rows, is per flow: it
gives each flow's payload-prefix verdict, label and flow_id, and the
feature row of each flow it keeps. Phase 2, _clean_apps, is per app, on
a fork pool: each worker gathers one app's rows from phase 1's parts,
by label, and standardizes, clusters and selects them (_clean_app). It
returns each app's kept positions in the input, its counts and its
stage times. clean() runs phase 1 on the caller's flows in the calling
process, as one part, so no worker walks the caller's records.
clean_table() runs it on a fork pool, on equal chunks of a flow table's
records, in order, about _CHUNKS_PER_WORKER per worker: each worker
parses its chunk and sends back arrays, not records, so the caller
never holds the table's records. read_dataset reads a table for train
and eval by that phase 1 alone, without DPI. Verdicts and feature rows
depend on nothing but their own flow, so neither the chunks nor the
worker count change the output. The table's format stays in ingest:
read_flow_lines parses a chunk and finds its rows to rewrite, and
check_flow_lines finds the lowest bad line.
"""

from __future__ import annotations

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
from typing import NamedTuple

import numpy as np

from .cluster import Algorithm, Linkage, hierarchical, kmeans, pair_matrices_that_fit
from .dpi import Blocklist, DEFAULT_BLOCKLIST, filter_flows
from .dpi import logger as dpi_logger
from .errors import EmptyFlow, InvariantViolation
from .features import ALL_FEATURES, CLUSTER_FEATURES, destandardize, feature_matrix, standardize
from .ingest import (
    FlowLines,
    FlowRecord,
    FlowTableLines,
    check_flow_lines,
    check_labels,
    flow_id_array,
    parse_lines,
    read_flow_lines,
    read_text,
)
from . import parallel
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


def parse_rules(text: str, file: str | None = None) -> SelectionPolicy:
    """Parse the rule DSL.

    One rule per line: `keep|drop <feature> <cmp> <number|pNN>` with
    extra comma-separated predicates; optional final line
    `default keep|drop`; `#` comments and blank lines ignored. A NaN
    threshold is rejected: no cluster could ever match it. A bad line
    raises ParseError naming the line, and file if given.
    """
    rules: list[Rule] = []
    defaults: list[Action] = []

    def rule(lineno: int, line: str) -> None:
        if defaults:
            raise ValueError("default must be the last line")
        parts = line.split(None, 1)
        word = parts[0].lower()
        if word == "default":
            if len(parts) != 2 or parts[1].strip().lower() not in ("keep", "drop"):
                raise ValueError("expected 'default keep' or 'default drop'")
            defaults.append(Action(parts[1].strip().lower()))
            return
        if word not in ("keep", "drop"):
            raise ValueError(f"unknown action {parts[0]!r}")
        if len(parts) != 2:
            raise ValueError("rule has no predicates")
        predicates = []
        for chunk in parts[1].split(","):
            tokens = chunk.split()
            if len(tokens) != 3:
                raise ValueError(f"expected '<feature> <cmp> <value>', got {chunk.strip()!r}")
            feature, cmp_token, value_token = tokens
            if feature not in CLUSTER_FEATURES:
                raise ValueError(f"unknown feature {feature!r}")
            if cmp_token not in _COMPARATORS:
                raise ValueError(f"unknown comparator {cmp_token!r}")
            # no float literal starts with p, so pNN tokens cannot be numbers
            if value_token.lower().startswith("p"):
                try:
                    pct = float(value_token[1:])
                except ValueError:
                    raise ValueError(f"malformed percentile {value_token!r}") from None
                if not 0.0 <= pct <= 100.0:
                    raise ValueError(f"percentile {value_token!r} outside 0-100")
                predicates.append(
                    Predicate(feature, cmp_token, threshold=None, percentile=pct)
                )
            else:
                try:
                    literal = float(value_token)
                except ValueError:
                    raise ValueError(f"malformed threshold {value_token!r}") from None
                if math.isnan(literal):
                    raise ValueError(f"threshold {value_token!r} is not a number")
                predicates.append(Predicate(feature, cmp_token, threshold=literal))
        rules.append(Rule(action=Action(word), predicates=tuple(predicates)))

    parse_lines(text, rule, file)
    return SelectionPolicy(
        rules=tuple(rules), default_action=defaults[0] if defaults else Action.DROP
    )


def read_rules(path: str | Path) -> SelectionPolicy:
    """parse_rules on a file; a ParseError names the file and the line."""
    return parse_rules(read_text(path), str(path))


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


def check_sizes(k: int, threads: int) -> None:
    """Raise ValueError unless k and threads are >= 1, as clean() and clean_table() need."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


# Phase-1 chunks per worker. A worker that finishes a chunk takes the
# next one, so the workers end at most one chunk apart.
_CHUNKS_PER_WORKER = 8


def _chunk_size(flows: int, workers: int) -> int:
    """The most records of one phase-1 chunk, for `flows` table records on `workers` workers."""
    return max(1, -(-flows // (workers * _CHUNKS_PER_WORKER)))


def _chunks(n: int, threads: int) -> list[slice]:
    """The phase-1 chunks of a table's n records: equal runs of at most
    _chunk_size records, in order.

    A chunk stops parsing at its first bad line, so it holds its records
    in their order: that line must be the lowest bad one it holds.
    """
    most = _chunk_size(n, min(threads, parallel.usable_cpus()))
    count = -(-n // most)
    return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]


class _FlowRows(NamedTuple):
    """Phase 1's result for a run of flows, from which phase 2 gathers each app's flows."""

    keep: np.ndarray  # each flow's DPI verdict: True where it is kept
    raw: np.ndarray  # the kept flows' feature rows: NaN for one without packets
    labels: list[str | None]  # the run's app labels, in the order they first appear
    codes: np.ndarray  # each flow's label, as its index in labels
    ids: np.ndarray  # each flow's flow_id
    timings: dict[str, float]  # dpi and features


def _flow_rows(flows: list[FlowRecord], blocklist: Blocklist, skip_dpi: bool) -> _FlowRows:
    """Phase 1 on a run of flows: each one's DPI verdict, label and
    flow_id, and the feature row of each flow DPI keeps.

    All are per flow, so an app's flows, gathered in order from runs,
    give what the app's run gives. A kept flow without packets, which
    feature_matrix rejects, gets a row of NaN: it is its app's error
    only if the app is clustered (_clean_app). A table's rows always
    have packets (parse_flow_row).
    """
    t0 = time.perf_counter()
    if skip_dpi:
        survivors, keep = flows, np.ones(len(flows), dtype=bool)
    else:
        survivors, discarded = filter_flows(flows, blocklist)
        # filter_flows keeps order: the survivors are the flows not discarded
        gone = {id(flow) for flow, _ in discarded}
        keep = np.array([id(flow) not in gone for flow in flows], dtype=bool)
    t1 = time.perf_counter()
    try:
        raw = feature_matrix(survivors)
    except EmptyFlow:
        full = [flow.packets_in + flow.packets_out != 0 for flow in survivors]
        raw = np.full((len(survivors), len(ALL_FEATURES)), np.nan)
        raw[full] = feature_matrix([flow for flow, f in zip(survivors, full) if f])
    t2 = time.perf_counter()
    labels: dict[str | None, int] = {}
    codes = np.fromiter(
        (labels.setdefault(flow.app_label, len(labels)) for flow in flows), np.intp, len(flows)
    )
    ids = flow_id_array([flow.flow_id for flow in flows])
    timings = {"dpi": (t1 - t0) * 1e3, "features": (t2 - t1) * 1e3}
    return _FlowRows(keep, raw, list(labels), codes, ids, timings)


def _check_labels(parts: list[_FlowRows]) -> None:
    """Raise ValueError for the first flow of the parts, in order, with no app label."""
    for part in parts:
        missing = np.isin(part.codes, [code for code, label in enumerate(part.labels) if not label])
        if missing.any():
            raise ValueError(f"flow {part.ids[np.argmax(missing)]} has no app label")


def _clean_app(
    parts: list[_FlowRows],
    label: str,
    *,
    policy: SelectionPolicy,
    algorithm: Algorithm,
    k: int,
    seed: int,
    linkage: Linkage,
) -> tuple[np.ndarray, AppCounts, dict[str, float]]:
    """Phase 2 for the app of this label: standardize, cluster and select
    the rows of its flows that DPI kept, gathered from the parts in order.

    Returns the positions of the flows it keeps in the parts' flows, by
    flow_id (a flow_id that repeats keeps its flows' order), its counts
    and its stage times besides phase 1's. An app with fewer than
    max(k, 2) flows after DPI is skipped: all of them are dropped. Else a
    kept flow without packets raises EmptyFlow.
    """
    mine = [
        part.codes == (part.labels.index(label) if label in part.labels else -1)
        for part in parts
    ]
    starts = np.cumsum([0] + [len(part.keep) for part in parts])
    where = np.concatenate([np.flatnonzero(m) + start for m, start in zip(mine, starts)])
    keep = np.concatenate([part.keep[m] for part, m in zip(parts, mine)])
    raw = np.concatenate([part.raw[m[part.keep]] for part, m in zip(parts, mine)])
    ids = np.concatenate([part.ids[m] for part, m in zip(parts, mine)])

    timings = dict.fromkeys(_STAGES, 0.0)
    at = np.flatnonzero(keep)
    counts = AppCounts(input=len(keep), dpi_discarded=len(keep) - len(at))
    if len(at) < max(k, 2):
        counts.skipped = True
        counts.flows_dropped = len(at)
        return at[:0], counts, timings
    empty = np.isnan(raw[:, 0])
    if empty.any():
        raise EmptyFlow(f"flow {ids[at[np.argmax(empty)]]} has no packets")

    t1 = time.perf_counter()
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
    counts.flows_dropped = len(at) - len(kept)
    timings["select"] = (time.perf_counter() - t3) * 1e3
    return where[kept[np.argsort(ids[kept], kind="stable")]], counts, timings


def _clean_apps(
    parts: list[_FlowRows], *, k: int, threads: int, algorithm: Algorithm, skip_dpi: bool,
    **options,
) -> tuple[list[np.ndarray], CleanReport]:
    """Phase 2 on the parts phase 1 gave for an input's runs of flows, in
    order: each app cleaned by _clean_app, on up to `threads` workers.

    For hierarchical clustering, the workers are further capped at the
    number of the largest clustered app's n x n matrices that fit in
    physical memory together. Returns each app's kept positions in the
    input, in label order, and the report, whose stage times are summed
    over parts and apps. Logs each app's DPI counts at info, unless DPI
    was skipped, and warns of each skipped app. Raises the first app's
    error in label order; its callers have checked the labels.
    """
    survivors: dict[str, int] = {}  # each app's flows that DPI keeps
    for part in parts:
        kept = np.bincount(part.codes[part.keep], minlength=len(part.labels))
        for label, n in zip(part.labels, kept.tolist()):
            survivors[label] = survivors.get(label, 0) + n
    labels = sorted(survivors)
    # an app with fewer than max(k, 2) flows after DPI is skipped and clusters nothing
    largest = max((n for n in survivors.values() if n >= max(k, 2)), default=0)
    workers = threads
    if algorithm is Algorithm.HIERARCHICAL and largest:
        workers = min(threads, pair_matrices_that_fit(largest))
    # the parts reach the workers through the fork
    results = fork_map(
        lambda i: _clean_app(parts, labels[i], algorithm=algorithm, k=k, **options),
        len(labels),
        workers,
    )
    report = CleanReport(timings_ms=dict.fromkeys(_STAGES, 0.0))
    for part in parts:
        for stage, ms in part.timings.items():
            report.timings_ms[stage] += ms
    for label, (_, counts, timings) in zip(labels, results):
        if not skip_dpi:
            dpi_logger.info(
                "dpi: kept %d flows, discarded %d",
                counts.input - counts.dpi_discarded, counts.dpi_discarded,
            )
        if counts.skipped:
            logger.warning(
                "%s: %d flows after filtering, need at least %d",
                label, counts.flows_dropped, max(k, 2),
            )
        counts.check(label)
        report.apps[label] = counts
        for stage in _STAGES:
            report.timings_ms[stage] += timings[stage]
    return [kept for kept, _, _ in results], report


def clean(
    flows: list[FlowRecord],
    blocklist: Blocklist = DEFAULT_BLOCKLIST,
    policy: SelectionPolicy = DEFAULT_POLICY,
    algorithm: Algorithm | str = Algorithm.KMEANS,
    k: int = 4,
    seed: int = 42,
    linkage: Linkage | str = Linkage.WARD,
    skip_dpi: bool = False,
    threads: int = 1,
) -> tuple[list[FlowRecord], CleanReport]:
    """Run the full cleaning pipeline over labeled flows.

    Each app is cleaned on its own: payload filtering, per-app feature
    standardization, clustering into k groups, and policy-based cluster
    selection. Apps whose post-filter flow count is below max(k, 2)
    cannot be clustered; they are skipped (all surviving flows dropped)
    and flagged in the report. Returns kept flows sorted by (app_label,
    flow_id), stably.

    Phase 1 (_flow_rows) runs in this process, on all the flows at
    once; threads caps the worker processes of phase 2 (_clean_apps, on
    apps); see parallel.fork_map. The worker count does not change the
    output. The first flow with no app label raises ValueError before
    phase 1 runs; then what phase 1 raises, then the first failing app's
    error in label order, is raised. k and threads must be >= 1. In the
    report, the dpi time and phase 1's part of the features time are
    this process's own; the rest of the stage times are summed over
    apps, and total is wall time. algorithm and linkage are members or
    their values; anything else raises ValueError before any work.
    """
    algorithm, linkage = Algorithm(algorithm), Linkage(linkage)
    check_sizes(k, threads)
    total_start = time.perf_counter()
    check_labels(flows)
    apps, report = _clean_apps(
        [_flow_rows(flows, blocklist, skip_dpi)], policy=policy, algorithm=algorithm, k=k,
        seed=seed, linkage=linkage, skip_dpi=skip_dpi, threads=threads,
    )
    cleaned = [flows[i] for kept in apps for i in kept.tolist()]
    report.timings_ms["total"] = (time.perf_counter() - total_start) * 1e3
    return cleaned, report


def _read_chunk(
    table: FlowTableLines, rows: np.ndarray, blocklist: Blocklist, skip_dpi: bool
) -> tuple[FlowLines, _FlowRows | None]:
    """Phase 1 on the records at rows, a run of the table's records in file
    order: the run without its flows, which stay in the worker, and its
    _flow_rows, or None after a bad line."""
    run = read_flow_lines(table, rows)
    part = None if run.error is not None else _flow_rows(run.flows, blocklist, skip_dpi)
    return run._replace(flows=[]), part


def _parse_table(
    table: FlowTableLines, blocklist: Blocklist, skip_dpi: bool, threads: int
) -> tuple[list[_FlowRows], dict[int, bytes]]:
    """Phase 1 on every record of table, on up to `threads` workers: each
    chunk's _flow_rows, in file order, and the rows to rewrite by line
    (FlowLines.rewritten). Raises what read_flow_table and then clean()
    would raise first: the lowest bad line, then the first flow with no
    app label."""
    chunks = _chunks(len(table.records), threads)
    parsed = fork_map(
        lambda i: _read_chunk(table, table.records[chunks[i]], blocklist, skip_dpi),
        len(chunks),
        threads,
    )
    check_flow_lines(table, [run for run, _ in parsed])
    parts = [part for _, part in parsed]
    _check_labels(parts)
    return parts, {line: text for run, _ in parsed for line, text in run.rewritten.items()}


def read_dataset(table: FlowTableLines, threads: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """classify.dataset's rows and labels of table's records, in file order,
    and the rows to rewrite by line: phase 1 without DPI (_parse_table),
    which raises what it raises."""
    parts, texts = _parse_table(table, DEFAULT_BLOCKLIST, True, threads)
    x = np.concatenate([np.empty((0, len(ALL_FEATURES))), *(part.raw for part in parts)])
    labels = [np.empty(0, object), *(np.array(p.labels, dtype=object)[p.codes] for p in parts)]
    return x, np.concatenate(labels), texts


def clean_table(
    table: FlowTableLines,
    blocklist: Blocklist = DEFAULT_BLOCKLIST,
    policy: SelectionPolicy = DEFAULT_POLICY,
    algorithm: Algorithm | str = Algorithm.KMEANS,
    k: int = 4,
    seed: int = 42,
    linkage: Linkage | str = Linkage.WARD,
    skip_dpi: bool = False,
    threads: int = 1,
) -> tuple[tuple[list[np.ndarray], dict[int, bytes]], CleanReport]:
    """clean() on an indexed flow table, without its records in this process.

    Phase 1 (_parse_table) parses the table's records in chunks, on
    workers that send back arrays (_read_chunk), not records; phase 2
    (_clean_apps) is clean()'s. Returns what write_flow_lines writes the
    cleaned table from: each app's kept records in flow_id order, in
    label order, and the rows to rewrite by line; and the report.

    Raises what _parse_table raises, then what clean() raises, as
    read_flow_table and then clean() would. algorithm and linkage are as
    in clean().
    """
    algorithm, linkage = Algorithm(algorithm), Linkage(linkage)
    check_sizes(k, threads)
    total_start = time.perf_counter()
    parts, texts = _parse_table(table, blocklist, skip_dpi, threads)
    apps, report = _clean_apps(
        parts, policy=policy, algorithm=algorithm, k=k, seed=seed, linkage=linkage,
        skip_dpi=skip_dpi, threads=threads,
    )
    report.timings_ms["total"] = (time.perf_counter() - total_start) * 1e3
    return ([table.records[kept] for kept in apps], texts), report
