"""Outside-in layer tracing for the benchmark.

The tracer replaces each layer's public functions at the module
attribute its caller looks up (for example `flowclean.select.kmeans`,
which `select.clean` calls), so no file under `src/` changes. Every
call becomes a span with a name, start, end, parent span and run id;
spans stay in memory and are written out when the benchmark ends.

The parent of a span is the innermost open span of the same logical
call chain, carried in a context variable. `select.clean` runs apps on
a thread pool, and pool threads do not inherit context variables, so
the tracer also swaps `flowclean.select.ThreadPoolExecutor` for one
that runs each task in a copy of the submitter's context.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import flowclean.classify
import flowclean.cli
import flowclean.cluster
import flowclean.select
import flowclean.synth


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    run_id: str
    thread: int
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


# (module, attribute, span name, counter) for every traced call site.
# A counter maps (args, result) to the counts stored on the span.
_SITES = (
    (flowclean.cli, "clean", "select.clean", None),
    (flowclean.cli, "read_flow_table", "ingest.read_flow_table",
     lambda args, result: {"rows": len(result)}),
    (flowclean.cli, "write_flow_table", "ingest.write_flow_table",
     lambda args, result: {"rows": len(args[0])}),
    (flowclean.synth, "generate", "synth.generate",
     lambda args, result: {"flows": len(result[0])}),
    (flowclean.classify, "split", "classify.split", None),
    (flowclean.classify, "train", "classify.train",
     lambda args, result: {
         "rows": len(args[0]),
         "nodes": sum(len(tree.feature) for tree in result.trees),
     }),
    (flowclean.classify, "evaluate", "classify.evaluate", None),
    (flowclean.classify, "feature_matrix", "features.feature_matrix", None),
    (flowclean.select, "filter_flows", "dpi.filter_flows",
     lambda args, result: {"flows_in": len(args[0]), "discarded": len(result[1])}),
    (flowclean.select, "feature_matrix", "features.feature_matrix", None),
    (flowclean.select, "standardize", "features.standardize", None),
    (flowclean.select, "kmeans", "cluster.kmeans", None),
    (flowclean.select, "hierarchical", "cluster.hierarchical",
     lambda args, result: {"rows": len(result.assignments)}),
    (flowclean.select, "evaluate", "select.evaluate", None),
)


class _ContextThreadPool(ThreadPoolExecutor):
    """Runs each task in a copy of the submitting thread's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._saved: list[tuple[object, str, object]] = []
        # clean outputs by id, with the span that made them; a clean call is
        # useful when its output is later split for training or written out
        self._clean_outputs: dict[int, tuple[Span, list]] = {}

    def install(self, run_id: str) -> None:
        """Start tracing; the spans that follow carry run_id."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.run_id = run_id
        for module, attr, name, counter in _SITES:
            self._patch(module, attr, self._wrap(getattr(module, attr), name, counter))
        self._patch(flowclean.cluster, "sse", self._count_lloyd(flowclean.cluster.sse))
        self._patch(flowclean.select, "ThreadPoolExecutor", _ContextThreadPool)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self._clean_outputs.clear()

    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._current.get()
            span = Span(
                span_id=next(self._ids),
                parent_id=parent.span_id if parent else None,
                name=name,
                run_id=self.run_id,
                thread=threading.get_ident(),
                start=time.perf_counter(),
            )
            token = self._current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._current.reset(token)
                self.spans.append(span)
            if counter is not None:
                span.counts.update(counter(args, result))
            self._note_use(name, span, args, result)
            return result

        return traced

    def _note_use(self, name: str, span: Span, args, result) -> None:
        if name == "select.clean":
            span.counts["useful"] = 0
            self._clean_outputs[id(result[0])] = (span, result[0])
        elif name in ("classify.split", "ingest.write_flow_table"):
            made = self._clean_outputs.get(id(args[0]))
            if made is not None and made[1] is args[0]:
                made[0].counts["useful"] = 1

    def _count_lloyd(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            span = self._current.get()
            if span is not None and span.name == "cluster.kmeans":
                span.counts["lloyd_iterations"] = span.counts.get("lloyd_iterations", 0) + 1
            return fn(*args, **kwargs)

        return counted


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    Children that ran in parallel on pool threads are merged into one
    covered interval, so a parent waiting on its workers has little
    self time, while each worker span keeps its own full self time.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.span_id] = span.end - span.start - covered
    return out


TIMED_LAYERS = (
    "classify.train",
    "classify.split",
    "classify.evaluate",
    "cluster.hierarchical",
    "cluster.kmeans",
    "ingest.read_flow_table",
    "ingest.write_flow_table",
    "dpi.filter_flows",
    "features.feature_matrix",
    "features.standardize",
    "select.evaluate",
    "select.clean",
    "synth.generate",
)

COUNTERS = (
    "classify.train_calls",
    "classify.train_rows",
    "classify.forest_nodes",
    "cluster.hier_rows_max",
    "cluster.lloyd_iterations",
    "ingest.rows",
    "dpi.flows_in",
    "dpi.discarded",
    "select.clean_calls",
    "select.clean_useful",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Self time per layer, summed over threads, and counters for one run."""
    own = self_times(spans)
    m = {f"{layer}_s": 0.0 for layer in TIMED_LAYERS} | dict.fromkeys(COUNTERS, 0)
    for span in spans:
        m[f"{span.name}_s"] += own[span.span_id]
        # a call that raised has no counts
        c = span.counts
        if span.name == "classify.train":
            m["classify.train_calls"] += 1
            m["classify.train_rows"] += c.get("rows", 0)
            m["classify.forest_nodes"] += c.get("nodes", 0)
        elif span.name == "cluster.hierarchical":
            m["cluster.hier_rows_max"] = max(m["cluster.hier_rows_max"], c.get("rows", 0))
        elif span.name == "cluster.kmeans":
            m["cluster.lloyd_iterations"] += c.get("lloyd_iterations", 0)
        elif span.name.startswith("ingest."):
            m["ingest.rows"] += c.get("rows", 0)
        elif span.name == "dpi.filter_flows":
            m["dpi.flows_in"] += c.get("flows_in", 0)
            m["dpi.discarded"] += c.get("discarded", 0)
        elif span.name == "select.clean":
            m["select.clean_calls"] += 1
            m["select.clean_useful"] += c.get("useful", 0)
    return m
