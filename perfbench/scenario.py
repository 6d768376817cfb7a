"""The mixed scenario every workload runs on.

It is the default 5-app, 55/15/15/10/5 role mix, except that the
shared Heartbeat role is download-heavy, so it overlaps DataPlane and
the k-means and hierarchical cleaners keep flow sets that differ from
the oracle's and from each other. On the default scenario all three
keep the same flows, so half of `compare` trains identical forests: a
cache keyed on the training set would halve it without training any
faster, and quality metrics could not tell a good cleaner from a
perfect one.

Run this file to re-check that the arms stay distinct on the default
seed and on the second seed kept for re-checking claims:

    PYTHONPATH=src python3 perfbench/scenario.py
"""

from __future__ import annotations

import dataclasses
import itertools

from flowclean import synth
from flowclean.cluster import Algorithm
from flowclean.select import clean

from checks import check_cleaned, check_conservation

DEFAULT_SEED = 42
# a seed not used while tuning the scenario, for re-checking claims
CONFIRM_SEED = 7
THREADS = 2
K = 4


class ScenarioError(RuntimeError):
    """The scenario does not stress what the benchmark needs it to."""


def mixed_heartbeat(spec: synth.RoleSpec) -> synth.RoleSpec:
    """Heartbeat made download-heavy, with DataPlane-like sizes and durations."""
    return dataclasses.replace(
        spec,
        secondary_mean=None,
        secondary_frac=0.06,
        secondary_frac_sigma=0.4,
        primary_mean=300_000.0,
        primary_sigma=0.4,
        pkt_primary=1000.0,
        pkt_primary_jitter=100.0,
        pkt_secondary=60.0,
        pkt_secondary_jitter=4.0,
        duration_frac=None,
        duration_lo_s=20.0,
        duration_hi_s=90.0,
    )


def mixed_scenario(flows_per_app: int, seed: int) -> synth.ScenarioSpec:
    spec = synth.default_scenario(flows_per_app=flows_per_app, seed=seed)
    for app in spec.apps:
        app.specs = {
            **app.specs,
            synth.Role.HEARTBEAT: mixed_heartbeat(app.specs[synth.Role.HEARTBEAT]),
        }
    return spec


def distinct_arms(flows, roles, seed: int) -> dict[str, frozenset[int]]:
    """Flow ids each cleaned arm of `compare` keeps; raises if two coincide.

    The cleaner calls are the ones `run_compare` makes for its arms.
    """
    input_ids = {f.flow_id for f in flows}
    arms = {"oracle": frozenset(f.flow_id for f in synth.oracle_clean(flows, roles))}
    for algorithm in (Algorithm.KMEANS, Algorithm.HIERARCHICAL):
        cleaned, report = clean(
            flows, algorithm=algorithm, k=K, seed=seed, threads=THREADS
        )
        check_cleaned(cleaned, input_ids)
        check_conservation(report.to_json_dict()["apps"])
        arms[algorithm.value] = frozenset(f.flow_id for f in cleaned)
    for a, b in itertools.combinations(arms, 2):
        if arms[a] == arms[b]:
            raise ScenarioError(
                f"seed {seed}: the {a} and {b} arms keep the same "
                f"{len(arms[a])} flows, so compare would train identical "
                "forests and flatter any cache; choose another seed"
            )
    return arms


def main() -> None:
    for seed in (DEFAULT_SEED, CONFIRM_SEED):
        flows, roles = synth.generate(mixed_scenario(2000, seed))
        arms = distinct_arms(flows, roles, seed)
        kept = ", ".join(f"{name} {len(ids)}" for name, ids in arms.items())
        print(f"seed {seed}: arms distinct; kept flows: {kept}")


if __name__ == "__main__":
    main()
