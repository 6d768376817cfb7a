"""The benchmark's workloads, each driven through the calls users make.

A workload has a set-up, run several times per benchmark run to time
it, and a timed job. A job checks its outputs, raising CheckFailed, and
returns their digest, which must be the same on every job of one seed,
with its quality figures: cleaning quality judged against the synthetic
roles the set-up kept and, for `compare`, each arm's test accuracy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from flowclean import cli, synth
from flowclean.cluster import Algorithm
from flowclean.ingest import write_flow_table

from checks import CheckFailed, check_cleaned_keys, check_conservation
from scenario import K, THREADS, distinct_arms, mixed_scenario

ARMS = ("uncleaned", "oracle", "kmeans", "hier")


@dataclass
class Inputs:
    """What a set-up leaves for the timed jobs and their checks."""

    flows_in: int
    input_ids: set[int]
    content_ids: frozenset[int]
    app_inputs: dict[str, int] = field(default_factory=dict)
    scenario: synth.ScenarioSpec | None = None
    arm_flows: dict[str, int] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)


Output = tuple[str, dict[str, float]]


def _quality(kept: list[frozenset[int]], inputs: Inputs) -> dict[str, float]:
    """Share of DataPlane flows kept and of other flows removed, over all kept sets."""
    content = len(inputs.content_ids)
    noise = inputs.flows_in - content
    kept_content = sum(len(ids & inputs.content_ids) for ids in kept)
    kept_noise = sum(len(ids) for ids in kept) - kept_content
    return {
        "content_retained": kept_content / (content * len(kept)),
        "noise_removed": 1.0 - kept_noise / (noise * len(kept)),
    }


def _generate(flows_per_app: int, seed: int):
    spec = mixed_scenario(flows_per_app, seed)
    flows, roles = synth.generate(spec)
    content = frozenset(f.flow_id for f in synth.oracle_clean(flows, roles))
    return spec, flows, roles, content


class CompareMixed:
    name = "compare-mixed"
    flows_per_app = 2000

    def setup(self, seed: int, workdir: Path) -> Inputs:
        spec, flows, roles, content = _generate(self.flows_per_app, seed)
        arms = distinct_arms(flows, roles, seed)
        inputs = Inputs(
            flows_in=len(flows),
            input_ids={f.flow_id for f in flows},
            content_ids=content,
            scenario=spec,
            arm_flows={"uncleaned": len(flows)} | {a: len(ids) for a, ids in arms.items()},
        )
        inputs.quality = _quality([arms["kmeans"], arms["hier"]], inputs)
        return inputs

    def job(self, inputs: Inputs, seed: int, workdir: Path) -> Output:
        # the cleaned arms are judged at set-up; the job must keep the same flows
        report = cli.run_compare(
            inputs.scenario,
            [Algorithm.KMEANS, Algorithm.HIERARCHICAL],
            k=K,
            seed=seed,
            threads=THREADS,
        )
        if sorted(report["arms"]) != sorted(ARMS):
            raise CheckFailed(f"compare arms are {sorted(report['arms'])}")
        figures = dict(inputs.quality)
        for arm in ARMS:
            result = report["arms"][arm]
            accuracy = result["metrics"]["accuracy"]
            if not 0.0 <= accuracy <= 1.0:
                raise CheckFailed(f"{arm} accuracy {accuracy} outside [0, 1]")
            figures[f"{arm}_accuracy"] = accuracy
            if result["flows"] != inputs.arm_flows[arm]:
                raise CheckFailed(
                    f"{arm} arm has {result['flows']} flows, "
                    f"the same cleaner kept {inputs.arm_flows[arm]} at set-up"
                )
        return report["content_sha256"], figures


class CleanTable:
    """`flowclean clean` on a table the set-up wrote: read, clean, write."""

    def __init__(self, name: str, flows_per_app: int, algorithm: Algorithm):
        self.name = name
        self.flows_per_app = flows_per_app
        self.algorithm = algorithm

    def setup(self, seed: int, workdir: Path) -> Inputs:
        _, flows, _, content = _generate(self.flows_per_app, seed)
        write_flow_table(flows, workdir / "flows.csv")
        app_inputs: dict[str, int] = {}
        for f in flows:
            app_inputs[f.app_label] = app_inputs.get(f.app_label, 0) + 1
        return Inputs(
            flows_in=len(flows),
            input_ids={f.flow_id for f in flows},
            content_ids=content,
            app_inputs=app_inputs,
        )

    def job(self, inputs: Inputs, seed: int, workdir: Path) -> Output:
        out = workdir / "out"
        argv = [
            "clean",
            "--flows", str(workdir / "flows.csv"),
            "--out", str(out),
            "--algorithm", self.algorithm.value,
            "--k", str(K),
            "--seed", str(seed),
            "--threads", str(THREADS),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise CheckFailed(f"flowclean clean exited with {status}")
        apps = json.loads((out / "clean_report.json").read_text())["apps"]
        check_conservation(apps)
        if {label: c["input"] for label, c in apps.items()} != inputs.app_inputs:
            raise CheckFailed("clean report inputs differ from the table written")
        table = (out / "cleaned.csv").read_bytes()
        keys = []
        for line in table.decode().splitlines()[1:]:
            flow_id, label, _ = line.split(",", 2)
            keys.append((label, int(flow_id)))
        check_cleaned_keys(keys, inputs.input_ids)
        if len(keys) != sum(c["flows_kept"] for c in apps.values()):
            raise CheckFailed("cleaned table and clean report disagree on kept flows")
        quality = _quality([frozenset(i for _, i in keys)], inputs)
        return hashlib.sha256(table).hexdigest(), quality


WORKLOADS = {
    w.name: w
    for w in (
        CompareMixed(),
        CleanTable("clean-kmeans-100k", 20_000, Algorithm.KMEANS),
        CleanTable("clean-hier-30k", 6_000, Algorithm.HIERARCHICAL),
    )
}
