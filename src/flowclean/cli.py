"""Command-line frontend for the flow-cleaning toolkit.

Subcommands cover the full workflow: synthesize a labeled scenario,
ingest a capture, clean a flow table, train and evaluate a classifier,
and run the four-arm cleaning comparison (uncleaned, oracle-cleaned,
K-means-cleaned, hierarchical-cleaned).

Options may come from a `key = value` config file (--config); command
line flags override file values. Exit codes: 0 success, 1 validation
error, 2 I/O or usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import classify, synth
from .cluster import Algorithm, Linkage
from .dpi import DEFAULT_BLOCKLIST, read_blocklist
from .errors import FlowcleanError
from .ingest import (
    apply_tags,
    assemble_flows_with_meta,
    read_flow_table,
    read_packets,
    read_tag_map,
    write_flow_table,
)
from .select import DEFAULT_POLICY, clean, read_rules


def read_config(path: str | Path) -> dict[str, str]:
    """Parse a line-oriented `key = value` config file."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


_BOOL_TRUE = ("1", "true", "yes", "on")


class _Options:
    """Flag values merged over config-file values over defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config: dict[str, str] = {}
        if getattr(args, "config", None):
            self.config = read_config(args.config)

    def get(self, key: str, default, cast=str):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.config:
            raw = self.config[key]
            if cast is bool:
                return raw.lower() in _BOOL_TRUE
            return cast(raw)
        return default


def _out_dir(opts: _Options) -> Path:
    out = Path(opts.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_policy(opts: _Options):
    path = opts.get("policy", None)
    return read_rules(path) if path else DEFAULT_POLICY


def _load_blocklist(opts: _Options):
    path = opts.get("blocklist", None)
    return read_blocklist(path) if path else DEFAULT_BLOCKLIST


def _load_scenario(opts: _Options) -> synth.ScenarioSpec:
    path = opts.get("scenario", None)
    spec = synth.read_scenario(path) if path else synth.default_scenario()
    seed = opts.get("seed", None, int)
    if seed is not None:
        spec.seed = seed
    return spec


def cmd_synth(opts: _Options) -> int:
    spec = _load_scenario(opts)
    flows, roles = synth.generate(spec)
    out = _out_dir(opts)
    write_flow_table(flows, out / "flows.csv")
    synth.write_roles(flows, roles, out / "roles.csv")
    print(
        f"synth: {len(flows)} flows across {len(spec.apps)} apps "
        f"(seed {spec.seed}) -> {out / 'flows.csv'}"
    )
    return 0


def cmd_ingest(opts: _Options) -> int:
    pcap = opts.get("pcap", None)
    if not pcap:
        raise ValueError("ingest requires --pcap")
    packets, stats = read_packets(pcap)
    idle = opts.get("idle_timeout", 60.0, float)
    flows, metas = assemble_flows_with_meta(packets, idle_timeout_s=idle)
    tags_path = opts.get("tags", None)
    if tags_path:
        flows = apply_tags(flows, read_tag_map(tags_path), metas)
    out = _out_dir(opts)
    write_flow_table(flows, out / "flows.csv")
    labeled = sum(1 for f in flows if f.app_label)
    print(
        f"ingest: {len(packets)} packets -> {len(flows)} flows "
        f"({labeled} labeled) -> {out / 'flows.csv'}; skipped "
        f"{stats.skipped_non_ip} non-IP frames, "
        f"{stats.skipped_truncated} truncated entries"
    )
    return 0


def _algorithm(name: str) -> Algorithm:
    try:
        return Algorithm(name)
    except ValueError:
        raise ValueError(f"unknown algorithm {name!r}, expected kmeans or hier") from None


def cmd_clean(opts: _Options) -> int:
    flows_path = opts.get("flows", None)
    if not flows_path:
        raise ValueError("clean requires --flows")
    flows = read_flow_table(flows_path)
    cleaned, report = clean(
        flows,
        blocklist=_load_blocklist(opts),
        policy=_load_policy(opts),
        algorithm=_algorithm(opts.get("algorithm", "kmeans")),
        k=opts.get("k", 4, int),
        seed=opts.get("seed", 42, int),
        linkage=Linkage(opts.get("linkage", "ward")),
        skip_dpi=opts.get("skip_dpi", False, bool),
        threads=opts.get("threads", 1, int),
    )
    out = _out_dir(opts)
    write_flow_table(cleaned, out / "cleaned.csv")
    report.write_json(out / "clean_report.json")
    totals = report.totals()
    print(
        f"clean: {totals.input} flows in, {totals.dpi_discarded} filtered, "
        f"{totals.flows_kept} kept, {totals.flows_dropped} dropped "
        f"-> {out / 'cleaned.csv'}"
    )
    return 0


def cmd_train(opts: _Options) -> int:
    flows_path = opts.get("flows", None)
    if not flows_path:
        raise ValueError("train requires --flows")
    flows = read_flow_table(flows_path)
    seed = opts.get("seed", 42, int)
    train_flows, test_flows = classify.split(
        flows, train_frac=opts.get("train_frac", 0.75, float), seed=seed
    )
    model = classify.train(
        train_flows,
        n_trees=opts.get("trees", 100, int),
        max_depth=opts.get("max_depth", 16, int),
        min_leaf=opts.get("min_leaf", 2, int),
        features_per_split=opts.get("features_per_split", 3, int),
        seed=seed,
    )
    out = _out_dir(opts)
    classify.write_model(model, out / "model.json")
    write_flow_table(test_flows, out / "holdout.csv")
    print(
        f"train: {len(train_flows)} train / {len(test_flows)} holdout flows, "
        f"{model.n_trees} trees -> {out / 'model.json'}"
    )
    return 0


def cmd_eval(opts: _Options) -> int:
    model_path = opts.get("model", None)
    flows_path = opts.get("flows", None)
    if not model_path or not flows_path:
        raise ValueError("eval requires --model and --flows")
    model = classify.read_model(model_path)
    test_flows = read_flow_table(flows_path)
    metrics = classify.evaluate(model, test_flows)
    out = _out_dir(opts)
    metrics.write_json(out / "metrics.json")
    print(
        f"eval: accuracy {metrics.accuracy:.4f}, "
        f"macro precision {metrics.macro_precision:.4f}, "
        f"macro recall {metrics.macro_recall:.4f} -> {out / 'metrics.json'}"
    )
    return 0


def _canonical_sha256(doc: dict) -> str:
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def run_compare(
    scenario: synth.ScenarioSpec,
    algorithms: list[Algorithm],
    k: int = 4,
    seed: int = 42,
    policy=DEFAULT_POLICY,
    blocklist=DEFAULT_BLOCKLIST,
    train_frac: float = 0.75,
    skip_dpi: bool = False,
    threads: int = 1,
) -> dict:
    """Run the four-arm comparison and return the report document.

    Every arm shares the same split seed, forest seed, and forest
    hyperparameters; each arm is split 75/25 within its own flow set.
    The report's content_sha256 covers everything except wall-clock
    timings and the generation timestamp.
    """
    flows, roles = synth.generate(scenario)
    arms: dict[str, list] = {
        "uncleaned": flows,
        "oracle": synth.oracle_clean(flows, roles),
    }
    timings_ms: dict[str, float] = {}
    for algorithm in algorithms:
        cleaned, report = clean(
            flows,
            blocklist=blocklist,
            policy=policy,
            algorithm=algorithm,
            k=k,
            seed=seed,
            skip_dpi=skip_dpi,
            threads=threads,
        )
        arms[algorithm.value] = cleaned
        suffix = "no_dpi" if skip_dpi else "with_dpi"
        timings_ms[f"clean_{algorithm.value}_{suffix}"] = report.timings_ms["total"]
        if not skip_dpi:
            # second timed run without the payload filter, for the
            # with/without comparison in the timing table
            t0 = time.perf_counter()
            clean(
                flows,
                blocklist=blocklist,
                policy=policy,
                algorithm=algorithm,
                k=k,
                seed=seed,
                skip_dpi=True,
                threads=threads,
            )
            timings_ms[f"clean_{algorithm.value}_no_dpi"] = (
                time.perf_counter() - t0
            ) * 1e3

    arm_results: dict[str, dict] = {}
    for name, arm_flows in arms.items():
        train_flows, test_flows = classify.split(
            arm_flows, train_frac=train_frac, seed=seed
        )
        model = classify.train(train_flows, seed=seed)
        metrics = classify.evaluate(model, test_flows)
        arm_results[name] = {
            "flows": len(arm_flows),
            "train": len(train_flows),
            "test": len(test_flows),
            "metrics": metrics.to_json_dict(),
        }
    oracle = arm_results["oracle"]["metrics"]
    for name, result in arm_results.items():
        m = result["metrics"]
        result["loss_vs_oracle"] = {
            "accuracy": oracle["accuracy"] - m["accuracy"],
            "macro_precision": oracle["macro_precision"] - m["macro_precision"],
            "macro_recall": oracle["macro_recall"] - m["macro_recall"],
        }

    config = {
        "apps": [a.label for a in scenario.apps],
        "flows_per_app": [sum(a.counts.values()) for a in scenario.apps],
        "capture_duration_s": scenario.capture_duration_s,
        "scenario_seed": scenario.seed,
        "algorithms": [a.value for a in algorithms],
        "k": k,
        "seed": seed,
        "train_frac": train_frac,
        "skip_dpi": skip_dpi,
    }
    hashed = {"config": config, "arms": arm_results}
    return {
        "config": config,
        "arms": arm_results,
        "timings_ms": {key: round(v, 3) for key, v in timings_ms.items()},
        "content_sha256": _canonical_sha256(hashed),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def _format_compare_table(report: dict) -> str:
    order = ["uncleaned", "oracle"] + [
        a for a in ("kmeans", "hier") if a in report["arms"]
    ]
    lines = []
    header = (
        f"{'arm':<12} {'flows':>6} {'accuracy':>9} {'macro_prec':>11} "
        f"{'macro_rec':>10} {'acc_loss_vs_oracle':>19}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name in order:
        arm = report["arms"][name]
        m = arm["metrics"]
        lines.append(
            f"{name:<12} {arm['flows']:>6} {m['accuracy']:>9.4f} "
            f"{m['macro_precision']:>11.4f} {m['macro_recall']:>10.4f} "
            f"{arm['loss_vs_oracle']['accuracy']:>19.4f}"
        )
    lines.append("")
    lines.append(f"{'cleaning stage':<24} {'ms':>10}")
    lines.append("-" * 35)
    for key in sorted(report["timings_ms"]):
        lines.append(f"{key:<24} {report['timings_ms'][key]:>10.1f}")
    return "\n".join(lines)


def cmd_compare(opts: _Options) -> int:
    scenario = _load_scenario(opts)
    names = [s.strip() for s in opts.get("algorithm", "kmeans,hier").split(",") if s.strip()]
    algorithms = [_algorithm(n) for n in names]
    report = run_compare(
        scenario,
        algorithms,
        k=opts.get("k", 4, int),
        seed=opts.get("seed", 42, int),
        policy=_load_policy(opts),
        blocklist=_load_blocklist(opts),
        train_frac=opts.get("train_frac", 0.75, float),
        skip_dpi=opts.get("skip_dpi", False, bool),
        threads=opts.get("threads", 1, int),
    )
    out = _out_dir(opts)
    path = out / "compare_report.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    if opts.get("emit_csv", False, bool):
        _write_compare_csvs(report, out)
    print(_format_compare_table(report))
    print(f"\ncompare: report -> {path} (content {report['content_sha256'][:12]})")
    return 0


def _write_compare_csvs(report: dict, out: Path) -> None:
    import csv

    with open(out / "compare_metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["arm", "flows", "accuracy", "macro_precision", "macro_recall",
             "accuracy_loss_vs_oracle"]
        )
        for name in sorted(report["arms"]):
            arm = report["arms"][name]
            m = arm["metrics"]
            writer.writerow(
                [
                    name,
                    arm["flows"],
                    repr(m["accuracy"]),
                    repr(m["macro_precision"]),
                    repr(m["macro_recall"]),
                    repr(arm["loss_vs_oracle"]["accuracy"]),
                ]
            )
    with open(out / "compare_timings.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "ms"])
        for key in sorted(report["timings_ms"]):
            writer.writerow([key, repr(report["timings_ms"][key])])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowclean",
        description="Clean app-tagged encrypted traffic captures for classifier training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, seeded=True):
        p.add_argument("--config", help="key = value config file; flags override")
        p.add_argument("--out", help="output directory (default .)")
        if seeded:
            p.add_argument("--seed", type=int, help="PRNG seed")

    p = sub.add_parser("synth", help="generate a synthetic labeled scenario")
    common(p)
    p.add_argument("--scenario", help="scenario file (default: built-in 5-app mix)")

    p = sub.add_parser("ingest", help="read a pcap into a flow table")
    common(p, seeded=False)
    p.add_argument("--pcap", help="classic pcap capture file")
    p.add_argument("--tags", help="MAC/VLAN tag map file")
    p.add_argument("--idle-timeout", dest="idle_timeout", type=float,
                   help="flow idle timeout seconds (default 60)")

    p = sub.add_parser("clean", help="run the cleaning pipeline on a flow table")
    common(p)
    p.add_argument("--flows", help="input flow table CSV")
    p.add_argument("--policy", help="selection rule file (default: keep ratio > 0.9)")
    p.add_argument("--blocklist", help="SNI suffix blocklist file")
    p.add_argument("--algorithm", help="kmeans or hier (default kmeans)")
    p.add_argument("--linkage", help="ward, average, or complete (default ward)")
    p.add_argument("--k", type=int, help="cluster count (default 4)")
    p.add_argument("--skip-dpi", dest="skip_dpi", action="store_const", const=True,
                   help="skip the payload filter stage")
    p.add_argument("--threads", type=int, help="max parallel app workers")

    p = sub.add_parser("train", help="split a flow table and train the classifier")
    common(p)
    p.add_argument("--flows", help="labeled flow table CSV")
    p.add_argument("--train-frac", dest="train_frac", type=float,
                   help="training fraction (default 0.75)")
    p.add_argument("--trees", type=int, help="forest size (default 100)")
    p.add_argument("--max-depth", dest="max_depth", type=int)
    p.add_argument("--min-leaf", dest="min_leaf", type=int)
    p.add_argument("--features-per-split", dest="features_per_split", type=int)

    p = sub.add_parser("eval", help="score a trained model on a flow table")
    common(p, seeded=False)
    p.add_argument("--model", help="model JSON from train")
    p.add_argument("--flows", help="test flow table CSV")

    p = sub.add_parser("compare", help="four-arm cleaning comparison on a scenario")
    common(p)
    p.add_argument("--scenario", help="scenario file (default: built-in 5-app mix)")
    p.add_argument("--policy", help="selection rule file")
    p.add_argument("--blocklist", help="SNI suffix blocklist file")
    p.add_argument("--algorithm", help="comma list of kmeans,hier (default both)")
    p.add_argument("--k", type=int, help="cluster count (default 4)")
    p.add_argument("--train-frac", dest="train_frac", type=float)
    p.add_argument("--skip-dpi", dest="skip_dpi", action="store_const", const=True)
    p.add_argument("--threads", type=int, help="max parallel app workers")
    p.add_argument("--emit-csv", dest="emit_csv", action="store_const", const=True,
                   help="also write metrics/timings CSVs for plotting")
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "clean": cmd_clean,
    "train": cmd_train,
    "eval": cmd_eval,
    "compare": cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](_Options(args))
    except FlowcleanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
