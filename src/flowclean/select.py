"""Cluster selection rules and the end-to-end cleaning pipeline.

A selection policy is an ordered list of keep/drop rules evaluated
against each cluster's raw-scale centroid, first match wins, with a
default action for unmatched clusters. Thresholds are literal numbers
or percentile tokens (p25, p75, ...) resolved against the per-app
per-flow feature distribution, so policies transfer between apps with
very different traffic volumes. evaluate() resolves each threshold
once and compares whole centroid columns, returning per cluster the
index of the rule that decided it, or -1 where the default did.

Cleaning an app has a per-flow part, _flow_rows (each flow's
payload-prefix verdict, and the feature row of each flow it keeps),
and a per-app part, _clean_app (standardize, cluster and select those
rows). The app's run returns the positions of its kept flows, its
counts and its stage times; the kept flows of every app form the
cleaned dataset. clean() runs both parts of an app in one fork-pool
item, on the caller's records. clean_table() runs them in two pools
on a flow table's records: phase-1 workers parse equal chunks of the
table in file order, about _CHUNKS_PER_WORKER per worker, and send
back arrays, not records, so the caller never holds the table's
records; each phase-2 worker gathers one app's rows from the chunks,
by label, and clusters them. read_dataset reads a table for train and
eval by phase 1 alone, without DPI. Verdicts and feature rows depend on
nothing but their own flow, so neither the chunks nor the worker count
change the output. The table's format stays in ingest:
read_flow_lines, check_flow_lines and rewritten_rows parse chunks,
find bad lines and rewrite rows.
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
    parse_lines,
    read_flow_lines,
    read_text,
    rewritten_rows,
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


def _merge(
    labels: list[str],
    results: list[tuple[np.ndarray, AppCounts, dict]],
    k: int,
    skip_dpi: bool,
) -> CleanReport:
    """The report of apps' (kept, counts, stage times), in label order.

    Logs each app's DPI counts at info, unless DPI was skipped, and warns
    of each skipped app.
    """
    report = CleanReport(timings_ms=dict.fromkeys(_STAGES, 0.0))
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
    return report


# Phase-1 chunks per worker. A worker that finishes a chunk takes the
# next one, so the workers end at most one chunk apart.
_CHUNKS_PER_WORKER = 8


def _chunk_size(flows: int, workers: int) -> int:
    """The most flows of one phase-1 chunk, for `flows` flows on `workers` workers."""
    return max(1, -(-flows // (workers * _CHUNKS_PER_WORKER)))


def _chunks(n: int, threads: int) -> list[slice]:
    """The phase-1 chunks of n records: equal runs of at most _chunk_size records, in order.

    A chunk stops parsing at its first bad line, so it holds its records
    in their order: that line must be the lowest bad one it holds.
    """
    most = _chunk_size(n, min(threads, parallel.usable_cpus()))
    count = -(-n // most)
    return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]


class _FlowRows(NamedTuple):
    """The per-flow part of cleaning, for a run of flows."""

    keep: np.ndarray  # each flow's DPI verdict: True where it is kept
    raw: np.ndarray | EmptyFlow  # the kept flows' feature rows, or why they have none
    timings: dict[str, float]  # dpi and features


def _flow_rows(flows: list[FlowRecord], blocklist: Blocklist, skip_dpi: bool) -> _FlowRows:
    """The per-flow part of cleaning a run of flows: DPI verdicts and feature rows.

    Both are per flow, so an app's flows, gathered in order from runs,
    give what the app's run gives. feature_matrix's EmptyFlow is kept,
    not raised: it is the app's error only if the app is clustered. A
    table's rows always have packets (parse_flow_row), so it never
    arises on them.
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
    except EmptyFlow as exc:
        raw = exc
    t2 = time.perf_counter()
    return _FlowRows(keep, raw, {"dpi": (t1 - t0) * 1e3, "features": (t2 - t1) * 1e3})


def _clean_app(
    app: _FlowRows,
    *,
    policy: SelectionPolicy,
    algorithm: Algorithm,
    k: int,
    seed: int,
    linkage: Linkage,
) -> tuple[np.ndarray, AppCounts, dict[str, float]]:
    """The per-app part: standardize, cluster and select the rows of the flows DPI kept.

    Returns the positions of the flows it keeps, in flow order, its
    counts and its stage times, phase 1's included. An app with fewer
    than max(k, 2) flows after DPI is skipped: all of them are dropped.
    """
    timings = dict.fromkeys(_STAGES, 0.0) | app.timings
    at = np.flatnonzero(app.keep)
    counts = AppCounts(input=len(app.keep), dpi_discarded=len(app.keep) - len(at))
    if len(at) < max(k, 2):
        counts.skipped = True
        counts.flows_dropped = len(at)
        return at[:0], counts, timings
    if isinstance(app.raw, EmptyFlow):
        raise app.raw

    t1 = time.perf_counter()
    z, means, stds = standardize(app.raw[:, : len(CLUSTER_FEATURES)])
    t2 = time.perf_counter()
    timings["features"] += (t2 - t1) * 1e3

    if algorithm is Algorithm.KMEANS:
        model = kmeans(z, k, seed)
    else:
        model = hierarchical(z, k, linkage)
    counts.clusters_formed = model.k
    t3 = time.perf_counter()
    timings["cluster"] = (t3 - t2) * 1e3

    rule_index = evaluate(policy, destandardize(model.centroids, means, stds), app.raw)
    # index -1 picks the last entry, the default action
    keeps = np.array(
        [rule.action is Action.KEEP for rule in policy.rules]
        + [policy.default_action is Action.KEEP]
    )
    kept = at[keeps[rule_index][model.assignments]]
    counts.flows_kept = len(kept)
    counts.flows_dropped = len(at) - len(kept)
    timings["select"] = (time.perf_counter() - t3) * 1e3
    return kept, counts, timings


def _workers(threads: int, algorithm: Algorithm, k: int, rows: list[int]) -> int:
    """threads, capped for hierarchical clustering at the number of the
    largest clustered app's n x n matrices that fit in physical memory together.

    rows holds each app's rows after DPI, or a bound on them; an app with
    fewer than max(k, 2) is skipped and clusters nothing. The worker count
    does not change the results.
    """
    largest = max((n for n in rows if n >= max(k, 2)), default=0)
    if algorithm is Algorithm.HIERARCHICAL and largest:
        return min(threads, pair_matrices_that_fit(largest))
    return threads


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
    by the app count, the CPUs this process may run on (see
    parallel.fork_map) and, for hierarchical clustering, the largest
    app's distance matrices that fit in physical memory together; apps
    are independent and results are merged in sorted label order, so
    the worker count never changes the output, and the first failing
    app's error in label order is raised. k and threads must be >= 1.
    Stage times in the report are summed over apps, while total is
    wall time.
    """
    check_sizes(k, threads)
    by_app: dict[str, list[FlowRecord]] = {}
    for flow in flows:
        if not flow.app_label:
            raise ValueError(f"flow {flow.flow_id} has no app label")
        by_app.setdefault(flow.app_label, []).append(flow)

    labels = sorted(by_app)
    run = functools.partial(
        _clean_app, policy=policy, algorithm=algorithm, k=k, seed=seed, linkage=linkage
    )
    # an app's flow count bounds its rows after DPI
    workers = _workers(threads, algorithm, k, [len(by_app[label]) for label in labels])
    total_start = time.perf_counter()
    # The records are this process's, and a worker walking them copies
    # their pages, so each app runs both parts in one item: chunks and a
    # second pool cost more than they balance on records in memory.
    results = fork_map(
        lambda i: run(_flow_rows(by_app[labels[i]], blocklist, skip_dpi)), len(labels), workers
    )
    report = _merge(labels, results, k, skip_dpi)
    cleaned: list[FlowRecord] = []
    for label, (kept, _, _) in zip(labels, results):
        app_flows = by_app[label]
        cleaned.extend(app_flows[i] for i in kept.tolist())
    report.timings_ms["total"] = (time.perf_counter() - total_start) * 1e3
    cleaned.sort(key=lambda f: (f.app_label or "", f.flow_id))
    return cleaned, report


class _Lines(NamedTuple):
    """What a phase-1 worker (_parse_table) sends back for a chunk of the table's records."""

    run: FlowLines  # without its flows
    rows: _FlowRows | None  # None after a bad line
    texts: dict[int, bytes]  # rewritten_rows of the flows DPI keeps
    labels: list[str | None]  # the chunk's app labels, in the order they first appear
    codes: np.ndarray  # each flow's label, as its index in labels


def _read_chunk(
    table: FlowTableLines, rows: np.ndarray, blocklist: Blocklist, skip_dpi: bool
) -> _Lines:
    """Phase 1 on the records at rows, a run of the table's records in file order."""
    run = read_flow_lines(table, rows)
    flows, run = run.flows, run._replace(flows=[])  # records stay in the worker
    if run.error is not None:
        return _Lines(run, None, {}, [], np.empty(0, np.intp))
    labels: dict[str | None, int] = {}
    codes = np.fromiter(
        (labels.setdefault(flow.app_label, len(labels)) for flow in flows), np.intp, len(flows)
    )
    part = _flow_rows(flows, blocklist, skip_dpi)
    kept = np.flatnonzero(part.keep).tolist()
    texts = rewritten_rows(table, rows[kept], [flows[i] for i in kept])
    return _Lines(run, part, texts, list(labels), codes)


def _parse_table(
    table: FlowTableLines, blocklist: Blocklist, skip_dpi: bool, threads: int
) -> tuple[list[slice], list[_Lines], dict[int, bytes]]:
    """Phase 1 on every record of table, on up to `threads` workers: its
    chunks, each chunk's _read_chunk, and their rewritten rows by line.
    Raises what read_flow_table and then clean() would raise first: the
    lowest bad line, then the first flow without a label."""
    chunks = _chunks(len(table.records), threads)
    parsed = fork_map(
        lambda i: _read_chunk(table, table.records[chunks[i]], blocklist, skip_dpi),
        len(chunks),
        threads,
    )
    check_flow_lines(table, [chunk.run for chunk in parsed])
    for chunk in parsed:
        if None in chunk.labels:
            at = int(np.argmax(chunk.codes == chunk.labels.index(None)))
            raise ValueError(f"flow {int(chunk.run.ids[at])} has no app label")
    return chunks, parsed, {line: text for chunk in parsed for line, text in chunk.texts.items()}


def read_dataset(table: FlowTableLines, threads: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """classify.dataset's rows and labels of table's records, in file order,
    and their rewritten rows by line: phase 1 without DPI (_parse_table)."""
    _, parsed, texts = _parse_table(table, DEFAULT_BLOCKLIST, True, threads)
    x = np.concatenate([np.empty((0, len(ALL_FEATURES))), *(c.rows.raw for c in parsed)])
    labels = [np.empty(0, object), *(np.array(c.labels, dtype=object)[c.codes] for c in parsed)]
    return x, np.concatenate(labels), texts


def _clean_chunked_app(
    table: FlowTableLines, chunks: list[slice], parsed: list[_Lines], label: str, run
) -> tuple[np.ndarray, AppCounts, dict[str, float]]:
    """Phase 2 for the app of this label: its flows' verdicts and feature
    rows gathered from the chunks in file order, cleaned by run (_clean_app).

    Returns the records of the flows it keeps, in flow_id order, its
    counts and its stage times.
    """
    mine = [
        chunk.codes == (chunk.labels.index(label) if label in chunk.labels else -1)
        for chunk in parsed
    ]
    at, counts, timings = run(_FlowRows(
        np.concatenate([chunk.rows.keep[m] for chunk, m in zip(parsed, mine)]),
        np.concatenate([chunk.rows.raw[m[chunk.rows.keep]] for chunk, m in zip(parsed, mine)]),
        {},  # phase 1's times are the chunks', which clean_table adds up
    ))
    ids = np.concatenate([chunk.run.ids[m] for chunk, m in zip(parsed, mine)])
    records = np.concatenate([table.records[c][m] for c, m in zip(chunks, mine)])
    return records[at[np.argsort(ids[at])]], counts, timings


def clean_table(
    table: FlowTableLines,
    blocklist: Blocklist = DEFAULT_BLOCKLIST,
    policy: SelectionPolicy = DEFAULT_POLICY,
    algorithm: Algorithm = Algorithm.KMEANS,
    k: int = 4,
    seed: int = 42,
    linkage: Linkage = Linkage.WARD,
    skip_dpi: bool = False,
    threads: int = 1,
) -> tuple[tuple[list[np.ndarray], dict[int, bytes]], CleanReport]:
    """clean() on an indexed flow table, without its records in this process.

    Phase 1 (_parse_table) parses the table's records in chunks, on
    workers that send back arrays (_Lines), not records; phase 2 cleans
    each app, as clean() cleans an app, from its rows gathered from the
    chunks. Stage times in the report are summed over chunks and apps.
    Returns what write_flow_lines writes the cleaned table from: each
    app's kept records in flow_id order, in label order, and the
    rewritten rows by line; and the report.

    Raises what _parse_table raises, then the first app's error in
    label order, as read_flow_table and then clean() would.
    """
    check_sizes(k, threads)
    total_start = time.perf_counter()
    chunks, parsed, texts = _parse_table(table, blocklist, skip_dpi, threads)
    survivors: dict[str, int] = {}  # each app's flows that DPI keeps
    for chunk in parsed:
        kept = np.bincount(chunk.codes[chunk.rows.keep], minlength=len(chunk.labels))
        for label, n in zip(chunk.labels, kept.tolist()):
            survivors[label] = survivors.get(label, 0) + n
    labels = sorted(survivors)
    run = functools.partial(
        _clean_app, policy=policy, algorithm=algorithm, k=k, seed=seed, linkage=linkage
    )
    workers = _workers(threads, algorithm, k, [survivors[label] for label in labels])
    # the chunks reach the workers through the fork
    results = fork_map(
        lambda i: _clean_chunked_app(table, chunks, parsed, labels[i], run), len(labels), workers
    )
    report = _merge(labels, results, k, skip_dpi)
    for stage in ("dpi", "features"):
        report.timings_ms[stage] += sum(chunk.rows.timings[stage] for chunk in parsed)
    report.timings_ms["total"] = (time.perf_counter() - total_start) * 1e3
    return ([records for records, _, _ in results], texts), report
