"""flowclean benchmark: one workload per run, driven from one process.

    python3 perfbench/run.py --workload compare-mixed --seed 42 --seconds 10 --trace 0

Run from the root of a source checkout; the benchmark imports flowclean
from its `src/` and exits with status 2 if there is none. The set-up
builds the workload's inputs from --seed and runs several times, then
timed jobs repeat until --seconds have passed (at least one job). Every
job's outputs are checked; a failed check counts the job as failed.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics. With --trace 1 half of the time runs untraced
and half traced, and the object holds the per-layer metrics, with the
traced minus untraced job time as the tracing overhead. The line before
it records the machine, versions and digests; the full record, spans
included, goes to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
ACCURACIES = ("oracle_accuracy", "kmeans_accuracy", "hier_accuracy")


@dataclass
class Job:
    run_id: str
    wall_s: float
    traced: bool
    digest: str | None = None
    error: str | None = None
    figures: dict[str, float] = field(default_factory=dict)


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Bench:
    def __init__(self, workload, seed: int, workdir: Path, tracer):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.setup_s: list[float] = []
        self.jobs: list[Job] = []
        self.inputs = None

    def _traced(self, run_id: str, fn):
        if self.tracer is None:
            return fn()
        self.tracer.install(run_id)
        try:
            return fn()
        finally:
            self.tracer.uninstall()

    def setup(self) -> None:
        for i in range(SETUP_REPS):
            gc.collect()
            t0 = time.perf_counter()
            self.inputs = self._traced(
                f"setup-{i}", lambda: self.workload.setup(self.seed, self.workdir)
            )
            self.setup_s.append(time.perf_counter() - t0)

    def run_jobs(self, seconds: float, traced: bool) -> None:
        deadline = time.perf_counter() + seconds
        started = len(self.jobs)
        while len(self.jobs) == started or time.perf_counter() < deadline:
            gc.collect()
            run_id = f"job-{len(self.jobs)}"
            t0 = time.perf_counter()
            try:
                if traced:
                    output = self._traced(run_id, self._job)
                else:
                    output = self._job()
            except Exception as exc:  # a failed job is counted, not fatal
                wall = time.perf_counter() - t0
                traceback.print_exc(file=sys.stderr)
                self.jobs.append(Job(run_id, wall, traced, error=repr(exc)))
                continue
            wall = time.perf_counter() - t0
            digest, figures = output
            job = Job(run_id, wall, traced, digest=digest, figures=figures)
            first = next((j.digest for j in self.jobs if j.digest), digest)
            if digest != first:
                job.error = f"digest {digest} differs from the first job's {first}"
            self.jobs.append(job)

    def _job(self):
        return self.workload.job(self.inputs, self.seed, self.workdir)

    def ok_jobs(self, traced: bool | None = None) -> list[Job]:
        return [
            j for j in self.jobs
            if j.error is None and (traced is None or j.traced == traced)
        ]


def end_to_end(bench: Bench, import_s: float) -> dict[str, float]:
    ok = bench.ok_jobs()
    figures = ok[0].figures if ok else {}
    return {
        "wall_s": statistics.median(j.wall_s for j in ok or bench.jobs),
        "setup_s": import_s + statistics.median(bench.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": len(ok) / len(bench.jobs),
        "content_retained": figures.get("content_retained", 0.0),
        "noise_removed": figures.get("noise_removed", 0.0),
    }


def per_layer(bench: Bench, spans_mod) -> dict[str, float]:
    by_run: dict[str, list] = {}
    for span in bench.tracer.spans:
        by_run.setdefault(span.run_id, []).append(span)

    def median_over(run_ids: list[str]) -> dict[str, float]:
        runs = [spans_mod.layer_metrics(by_run.get(r, [])) for r in run_ids]
        return {key: statistics.median(run[key] for run in runs) for key in runs[0]}

    traced = bench.ok_jobs(traced=True) or [j for j in bench.jobs if j.traced]
    m = median_over([j.run_id for j in traced])
    # scenario generation is where the set-up spends its time
    setup = median_over([f"setup-{i}" for i in range(SETUP_REPS)])
    m["synth.generate_s"] += setup["synth.generate_s"]
    calls = m["select.clean_calls"]
    m["select.clean_useful_frac"] = m["select.clean_useful"] / calls if calls else 0.0
    figures = traced[0].figures
    for name in ACCURACIES:
        m[name] = figures.get(name, 0.0)
    traced_wall = statistics.median(j.wall_s for j in bench.jobs if j.traced)
    untraced_wall = statistics.median(j.wall_s for j in bench.jobs if not j.traced)
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m


def environment(workload, seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload.name,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if not (SRC / "flowclean" / "__init__.py").is_file():
        print(f"perfbench: no flowclean sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flowclean  # noqa: F401  (timed as part of set-up)
    import scenario
    import spans as spans_mod
    import workloads

    import_s = time.perf_counter() - STARTED
    workload = workloads.WORKLOADS[args.workload]
    tracer = spans_mod.Tracer() if args.trace else None
    workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(workload, args.seed, workdir, tracer)
    try:
        try:
            bench.setup()
        except (scenario.ScenarioError, workloads.CheckFailed) as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 1
        if args.trace:
            bench.run_jobs(args.seconds / 2, traced=False)
            bench.run_jobs(args.seconds / 2, traced=True)
            metrics = per_layer(bench, spans_mod)
        else:
            bench.run_jobs(args.seconds, traced=False)
            metrics = end_to_end(bench, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for j in bench.jobs if j.error is not None)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}"
        )
    record = {
        **environment(workload, args.seed),
        "flows_in": bench.inputs.flows_in,
        "threads": scenario.THREADS,
        "confirm_seed": scenario.CONFIRM_SEED,
        "trace": args.trace,
        "setup_runs_s": bench.setup_s,
        "jobs": [asdict(j) for j in bench.jobs],
        "metrics": metrics,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    if tracer is not None:
        record["spans"] = [asdict(s) for s in tracer.spans]
    out_path.write_text(json.dumps(record) + "\n")
    summary = {k: v for k, v in record.items() if k not in ("jobs", "spans", "metrics")}
    summary["digests"] = sorted({j.digest for j in bench.jobs if j.digest})
    summary["record"] = str(out_path.relative_to(ROOT))
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.jobs),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
