"""Command-line frontend for the flow-cleaning toolkit.

Subcommands cover the full workflow: synthesize a labeled scenario,
ingest a capture, clean a flow table, train and evaluate a classifier,
and run the four-arm cleaning comparison (uncleaned, oracle-cleaned,
K-means-cleaned, hierarchical-cleaned).

Options may come from a `key = value` config file (--config), each
value converted as its flag's value is; command line flags override
file values. Exit codes: 0 success, 1 validation error, 2 I/O or usage
error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time
from collections.abc import Callable, Mapping
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import classify, synth
from .cluster import Algorithm, Linkage
from .dpi import DEFAULT_BLOCKLIST, read_blocklist
from .errors import FlowcleanError
from .ingest import (
    assemble_flows,
    index_flow_table,
    parse_lines,
    read_flow_table,  # noqa: F401  unused: perfbench's tracer patches it (see ROADMAP.md)
    read_packets,
    read_tag_map,
    read_text,
    write_flow_lines,
    write_flow_table,
)
from .select import DEFAULT_POLICY, check_sizes, clean, clean_table, read_dataset, read_rules

_DEFAULT_SEED = 42


def read_config(
    path: str | Path, keys: Mapping[str, Callable[[str], object]]
) -> dict[str, object]:
    """Parse a line-oriented `key = value` config file.

    Every key must be one of `keys`, and keys[key] converts its value.
    A line without '=', a key outside `keys`, a key given twice, or a
    value its conversion rejects raises ParseError naming the file and
    the line.
    """
    out: dict[str, object] = {}
    seen: dict[str, int] = {}

    def setting(lineno: int, line: str) -> None:
        if "=" not in line:
            raise ValueError("expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ValueError(
                f"unknown key {key!r}; expected one of {', '.join(sorted(keys))}"
            )
        if key in seen:
            raise ValueError(f"key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        try:
            out[key] = keys[key](value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    parse_lines(read_text(path), setting, str(path))
    return out


_BOOLEANS = {"true": True, "false": False, "yes": True, "no": False,
             "on": True, "off": False, "1": True, "0": False}


def _boolean(raw: str) -> bool:
    if raw.lower() not in _BOOLEANS:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)} (any case), got {raw!r}")
    return _BOOLEANS[raw.lower()]


def _apply_config(command: argparse.ArgumentParser, path: str) -> None:
    """Make the config file's values the defaults of `command`'s flags.

    A value is converted by its flag's type, or as a boolean for a flag
    that takes no value.
    """
    keys = {
        action.dest: _boolean if action.nargs == 0 else action.type or str
        for action in command._actions
        if action.dest not in ("help", "config")
    }
    command.set_defaults(**read_config(path, keys))


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_policy(args: argparse.Namespace):
    return read_rules(args.policy) if args.policy else DEFAULT_POLICY


def _load_blocklist(args: argparse.Namespace):
    return read_blocklist(args.blocklist) if args.blocklist else DEFAULT_BLOCKLIST


def _load_scenario(args: argparse.Namespace) -> synth.ScenarioSpec:
    spec = synth.read_scenario(args.scenario) if args.scenario else synth.default_scenario()
    if args.seed is not None:
        spec.seed = args.seed
    return spec


def cmd_synth(args: argparse.Namespace) -> int:
    spec = _load_scenario(args)
    flows, roles = synth.generate(spec)
    out = _out_dir(args)
    write_flow_table(flows, out / "flows.csv")
    synth.write_roles(flows, roles, out / "roles.csv")
    print(
        f"synth: {len(flows)} flows across {len(spec.apps)} apps "
        f"(seed {spec.seed}) -> {out / 'flows.csv'}"
    )
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    if not args.pcap:
        raise ValueError("ingest requires --pcap")
    packets, stats = read_packets(args.pcap)
    tags = read_tag_map(args.tags) if args.tags else None
    flows = assemble_flows(packets, idle_timeout_s=args.idle_timeout, tags=tags)
    out = _out_dir(args)
    write_flow_table(flows, out / "flows.csv")
    labeled = sum(1 for f in flows if f.app_label)
    print(
        f"ingest: {len(packets)} packets -> {len(flows)} flows "
        f"({labeled} labeled) -> {out / 'flows.csv'}; skipped "
        f"{stats.skipped_non_ip} non-IP frames, "
        f"{stats.skipped_truncated} truncated entries"
    )
    return 0


def _count(args: argparse.Namespace, name: str) -> int:
    value = getattr(args, name)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _algorithm(name: str) -> Algorithm:
    try:
        return Algorithm(name)
    except ValueError:
        raise ValueError(f"unknown algorithm {name!r}, expected kmeans or hier") from None


def _linkage(name: str) -> Linkage:
    try:
        return Linkage(name)
    except ValueError:
        raise ValueError(
            f"unknown linkage {name!r}, expected ward, average or complete"
        ) from None


def cmd_clean(args: argparse.Namespace) -> int:
    if not args.flows:
        raise ValueError("clean requires --flows")
    options = dict(
        blocklist=_load_blocklist(args),
        policy=_load_policy(args),
        algorithm=_algorithm(args.algorithm),
        k=args.k,
        seed=args.seed,
        linkage=_linkage(args.linkage),
        skip_dpi=args.skip_dpi,
        threads=args.threads,
    )
    check_sizes(args.k, args.threads)
    table = index_flow_table(args.flows)
    kept, report = clean_table(table, **options)
    out = _out_dir(args)
    write_flow_lines(out / "cleaned.csv", table, kept)
    report.write_json(out / "clean_report.json")
    totals = report.totals()
    print(
        f"clean: {totals.input} flows in, {totals.dpi_discarded} filtered, "
        f"{totals.flows_kept} kept, {totals.flows_dropped} dropped "
        f"-> {out / 'cleaned.csv'}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """Train on a split of a table read as clean reads it, and write the rest as holdout.csv."""
    if not args.flows:
        raise ValueError("train requires --flows")
    forest = dict(
        n_trees=args.trees,
        max_depth=args.max_depth,
        min_leaf=args.min_leaf,
        features_per_split=args.features_per_split,
        workers=_count(args, "threads"),
    )
    classify.check_forest(**forest)
    classify.check_train_frac(args.train_frac)
    table = index_flow_table(args.flows)
    x, labels, texts = read_dataset(table, forest["workers"])
    train_rows, test_rows = classify.split(labels, train_frac=args.train_frac, seed=args.seed)
    model = classify.train(x[train_rows], labels[train_rows], seed=args.seed, **forest)
    out = _out_dir(args)
    classify.write_model(model, out / "model.json")
    write_flow_lines(out / "holdout.csv", table, ([table.records[test_rows]], texts))
    print(
        f"train: {len(train_rows)} train / {len(test_rows)} holdout flows, "
        f"{model.n_trees} trees -> {out / 'model.json'}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if not args.model or not args.flows:
        raise ValueError("eval requires --model and --flows")
    model = classify.read_model(args.model)
    metrics = classify.evaluate(model, *read_dataset(index_flow_table(args.flows), 1)[:2])
    out = _out_dir(args)
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
    hyperparameters. All flows become feature rows and labels once
    (classify.dataset); an arm is its flows' rows, which are split 75/25
    within the arm. Each cleaner runs once. threads caps both the worker
    processes that clean apps and those that grow the forests; neither
    changes the report outside its timings. One
    classify.train_and_evaluate call grows every arm's forest in one
    pool and scores each in the workers that grow it, which send back
    the test rows' votes, not trees. timings_ms holds milliseconds: each
    clean's own stage times (clean_<alg>_<stage> for dpi, features,
    cluster, select and total; stage times are summed over worker
    processes, total is wall time), the wall time of growing and
    scoring every arm's forest (train) and each arm's scoring alone,
    summed over workers (eval_<arm>). forest holds each arm's tree, node
    and leaf counts and the depth of its deepest leaf. A forest is grown
    once per distinct arm: an arm whose train and test rows equal an
    earlier arm's shares that arm's forest, so its forest entry and its
    eval_<arm> repeat that arm's. The report's
    content_sha256 covers config and arms: everything except
    timings_ms, forest and the generation timestamp. No algorithm, or
    one given twice, raises ValueError, as do the checks of k, threads
    and train_frac, before any flow is generated. Then the first arm, in
    the order uncleaned, oracle and algorithms, whose split or whose
    classify.check_set fails raises that error, before any tree grows.
    """
    if not algorithms:
        raise ValueError("compare needs at least one algorithm")
    for i, algorithm in enumerate(algorithms):
        if algorithm in algorithms[:i]:
            raise ValueError(f"algorithm {algorithm.value!r} is given twice")
    check_sizes(k, threads)
    classify.check_train_frac(train_frac)
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
        for stage, ms in report.timings_ms.items():
            timings_ms[f"clean_{algorithm.value}_{stage}"] = ms

    # every arm's flows are flows, and flows[i].flow_id is i (synth.generate):
    # an arm is its flows' rows of one dataset, its flow_ids
    x, labels = classify.dataset(flows)
    sets = []
    for arm_flows in arms.values():
        rows = np.fromiter((f.flow_id for f in arm_flows), np.intp, len(arm_flows))
        train_rows, test_rows = classify.split(labels[rows], train_frac=train_frac, seed=seed)
        sets.append((rows[train_rows], rows[test_rows]))
        classify.check_set(labels, *sets[-1])
    t0 = time.perf_counter()
    scored = classify.train_and_evaluate(x, labels, sets, seed=seed, workers=threads)
    timings_ms["train"] = (time.perf_counter() - t0) * 1e3
    arm_results: dict[str, dict] = {}
    forest: dict[str, dict] = {}
    for (name, arm_flows), (train_rows, test_rows), (metrics, size, score_s) in zip(
        arms.items(), sets, scored
    ):
        forest[name] = size
        timings_ms[f"eval_{name}"] = score_s * 1e3
        arm_results[name] = {
            "flows": len(arm_flows),
            "train": len(train_rows),
            "test": len(test_rows),
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
        "forest": forest,
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
    lines.append(f"{'stage':<24} {'ms':>10}")
    lines.append("-" * 35)
    for key in sorted(report["timings_ms"]):
        lines.append(f"{key:<24} {report['timings_ms'][key]:>10.1f}")
    return "\n".join(lines)


def cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    names = [s.strip() for s in args.algorithm.split(",") if s.strip()]
    report = run_compare(
        scenario,
        [_algorithm(n) for n in names],
        k=args.k,
        seed=_DEFAULT_SEED if args.seed is None else args.seed,
        policy=_load_policy(args),
        blocklist=_load_blocklist(args),
        train_frac=args.train_frac,
        skip_dpi=args.skip_dpi,
        threads=args.threads,
    )
    out = _out_dir(args)
    path = out / "compare_report.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    if args.emit_csv:
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


_LOG_LEVELS = {"warning": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


class _HelpFormatter(argparse.HelpFormatter):
    """Ends each flag's help with its default, where it has one."""

    def _get_help_string(self, action: argparse.Action) -> str:
        if action.default in (None, argparse.SUPPRESS) or action.default is False:
            return action.help
        return f"{action.help} (default: %(default)s)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowclean",
        description="Clean app-tagged encrypted traffic captures for classifier training.",
        formatter_class=_HelpFormatter,
    )
    parser.add_argument("--log-level", choices=tuple(_LOG_LEVELS), default="warning",
                        help="stderr logging threshold")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, formatter_class=_HelpFormatter)
        p.set_defaults(run=run)
        p.add_argument("--config", help="key = value config file; flags override")
        p.add_argument("--out", default=".", help="output directory")
        return p

    def cleaner(p: argparse.ArgumentParser) -> None:
        p.add_argument("--policy", help="selection rule file (default: keep ratio > 0.9)")
        p.add_argument("--blocklist", help="SNI suffix blocklist file (default: built-in list)")
        p.add_argument("--k", type=int, default=4, help="cluster count")
        p.add_argument("--skip-dpi", action="store_true", help="skip the DPI filter stage")

    p = command("synth", cmd_synth, "generate a synthetic labeled scenario")
    p.add_argument("--seed", type=int, help="PRNG seed; replaces the scenario's seed")
    p.add_argument("--scenario", help="scenario file (default: built-in 5-app mix)")

    p = command("ingest", cmd_ingest, "read a pcap into a flow table")
    p.add_argument("--pcap", help="classic pcap capture file")
    p.add_argument("--tags", help="MAC/VLAN tag map file")
    p.add_argument("--idle-timeout", type=float, default=60.0, help="flow idle timeout, seconds")

    p = command("clean", cmd_clean, "run the cleaning pipeline on a flow table")
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED, help="PRNG seed")
    p.add_argument("--flows", help="input flow table CSV")
    p.add_argument("--algorithm", default="kmeans", help="kmeans or hier")
    p.add_argument("--linkage", default="ward", help="ward, average, or complete")
    cleaner(p)
    p.add_argument("--threads", type=int, default=1,
                   help="max worker processes, for chunks of the table and then apps")

    p = command("train", cmd_train, "split a flow table and train the classifier")
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED, help="PRNG seed")
    p.add_argument("--flows", help="labeled flow table CSV")
    p.add_argument("--train-frac", type=float, default=0.75, help="training fraction")
    p.add_argument("--trees", type=int, default=100, help="forest size")
    p.add_argument("--max-depth", type=int, default=16, help="deepest leaf of a tree")
    p.add_argument("--min-leaf", type=int, default=2, help="fewest rows in a leaf")
    p.add_argument("--features-per-split", type=int, default=3,
                   help="features sampled per split, 1-8")
    p.add_argument("--threads", type=int, default=1,
                   help="max worker processes, for chunks of the table and then trees")

    p = command("eval", cmd_eval, "score a trained model on a flow table")
    p.add_argument("--model", help="model JSON from train")
    p.add_argument("--flows", help="test flow table CSV")

    p = command("compare", cmd_compare, "four-arm cleaning comparison on a scenario")
    p.add_argument("--seed", type=int, help="seed of the split, cleaners and forests "
                   f"(default: {_DEFAULT_SEED}); also replaces the scenario's seed")
    p.add_argument("--scenario", help="scenario file (default: built-in 5-app mix)")
    p.add_argument("--algorithm", default="kmeans,hier", help="comma list of kmeans, hier")
    p.add_argument("--train-frac", type=float, default=0.75,
                   help="training fraction of each arm")
    cleaner(p)
    p.add_argument("--threads", type=int, default=1,
                   help="max app and forest worker processes")
    p.add_argument("--emit-csv", action="store_true",
                   help="also write metrics/timings CSVs for plotting")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # one handler for the package's loggers, taken down again on return
    # so that repeated calls in one process do not stack handlers
    logger = logging.getLogger("flowclean")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(_LOG_LEVELS[args.log_level])
    try:
        if args.config:
            # config values become the subcommand's defaults, so flags still win
            (commands,) = (a for a in parser._actions if a.dest == "command")
            _apply_config(commands.choices[args.command], args.config)
            args = parser.parse_args(argv)
        return args.run(args)
    except (FlowcleanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
