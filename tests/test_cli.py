"""End-to-end tests for the command-line interface."""

import argparse
import json
import struct

import pytest

import flowclean.cli as cli_mod
import flowclean.cluster as cluster_mod
from flowclean.cli import _canonical_sha256, main, read_config, run_compare
from flowclean.cluster import Algorithm
from flowclean.errors import ParseError
from flowclean.ingest import read_flow_table
from flowclean.select import clean
from flowclean.synth import read_scenario

from conftest import TCP_ACK, TCP_SYN, ethernet, pcap_bytes, tcp4_frame

SCENARIO = """\
# two small apps for CLI runs
seed 5
capture_duration_s 900
app alpha
role DataPlane 40
role Heartbeat 8
role Dns 8
role BackgroundTls 6
role Upload 4
app beta
role DataPlane 40
role Heartbeat 8
role Dns 8
role BackgroundTls 6
role Upload 4
"""


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(SCENARIO)
    return path


def synth_into(tmp_path, scenario_file, name="synth"):
    out = tmp_path / name
    rc = main(["synth", "--scenario", str(scenario_file), "--out", str(out)])
    assert rc == 0
    return out


# --- synth --------------------------------------------------------------


def test_synth_writes_tables(tmp_path, scenario_file, capsys):
    out = synth_into(tmp_path, scenario_file)
    assert (out / "flows.csv").is_file()
    assert (out / "roles.csv").is_file()
    flows = read_flow_table(out / "flows.csv")
    assert len(flows) == 132
    assert {f.app_label for f in flows} == {"alpha", "beta"}
    assert "132 flows across 2 apps" in capsys.readouterr().out


def test_synth_repeatable_files(tmp_path, scenario_file):
    a = synth_into(tmp_path, scenario_file, "a")
    b = synth_into(tmp_path, scenario_file, "b")
    assert (a / "flows.csv").read_bytes() == (b / "flows.csv").read_bytes()
    assert (a / "roles.csv").read_bytes() == (b / "roles.csv").read_bytes()


def test_synth_seed_flag_overrides_scenario(tmp_path, scenario_file):
    base = synth_into(tmp_path, scenario_file, "base")
    out = tmp_path / "reseeded"
    rc = main(["synth", "--scenario", str(scenario_file), "--seed", "99",
               "--out", str(out)])
    assert rc == 0
    assert (
        (out / "flows.csv").read_bytes() != (base / "flows.csv").read_bytes()
    )


# --- ingest -------------------------------------------------------------


def test_ingest_pcap_with_tags(tmp_path, capsys):
    mac_a = b"\x02\x00\x00\x00\x00\xaa"
    frames = [
        (10, 0, tcp4_frame("192.168.0.2", "10.0.0.1", 40000, 443,
                           payload=b"hello", flags=TCP_SYN | TCP_ACK,
                           src_mac=mac_a)),
        (11, 0, tcp4_frame("10.0.0.1", "192.168.0.2", 443, 40000,
                           payload=b"\x16\x03\x03", src_mac=mac_a)),
        (12, 0, tcp4_frame("192.168.0.2", "10.0.0.9", 40001, 8443,
                           payload=b"x", src_mac=mac_a)),
    ]
    pcap = tmp_path / "capture.pcap"
    pcap.write_bytes(pcap_bytes(frames))
    tags = tmp_path / "tags.txt"
    tags.write_text("mac 02:00:00:00:00:aa chat-app\n")
    out = tmp_path / "ingested"
    rc = main(["ingest", "--pcap", str(pcap), "--tags", str(tags),
               "--out", str(out)])
    assert rc == 0
    flows = read_flow_table(out / "flows.csv")
    assert len(flows) == 2
    assert all(f.app_label == "chat-app" for f in flows)
    assert "3 packets -> 2 flows (2 labeled)" in capsys.readouterr().out


def test_ingest_prints_skip_counters(tmp_path, capsys):
    arp = ethernet(b"\x00" * 28, 0x0806)
    good = tcp4_frame("192.168.0.2", "10.0.0.1", 40000, 443, payload=b"x")
    data = pcap_bytes([(0, 0, arp), (1, 0, arp), (2, 0, good)])
    # a record header promising more bytes than the file holds
    data += struct.pack("<IIII", 3, 0, 500, 500) + b"\x00" * 10
    pcap = tmp_path / "capture.pcap"
    pcap.write_bytes(data)
    assert main(["ingest", "--pcap", str(pcap), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1 packets -> 1 flows (0 labeled)" in out
    assert "skipped 2 non-IP frames, 1 truncated entries" in out


def test_ingest_requires_pcap(tmp_path):
    assert main(["ingest", "--out", str(tmp_path)]) == 1


def test_ingest_missing_pcap_file(tmp_path):
    rc = main(["ingest", "--pcap", str(tmp_path / "nope.pcap"),
               "--out", str(tmp_path)])
    assert rc == 2


def test_ingest_idle_timeout_flag(tmp_path):
    frames = [
        (10, 0, tcp4_frame("192.168.0.2", "10.0.0.1", 40000, 443, payload=b"a")),
        (13, 0, tcp4_frame("192.168.0.2", "10.0.0.1", 40000, 443, payload=b"b")),
    ]
    pcap = tmp_path / "c.pcap"
    pcap.write_bytes(pcap_bytes(frames))
    out = tmp_path / "o"
    rc = main(["ingest", "--pcap", str(pcap), "--idle-timeout", "2",
               "--out", str(out)])
    assert rc == 0
    assert len(read_flow_table(out / "flows.csv")) == 2  # 3 s gap > 2 s timeout
    rc = main(["ingest", "--pcap", str(pcap), "--idle-timeout", "inf",
               "--out", str(out)])
    assert rc == 1


# --- clean --------------------------------------------------------------


def test_clean_outputs(tmp_path, scenario_file, capsys):
    synth_dir = synth_into(tmp_path, scenario_file)
    out = tmp_path / "cleaned"
    rc = main(["clean", "--flows", str(synth_dir / "flows.csv"),
               "--out", str(out), "--seed", "5"])
    assert rc == 0
    report = json.loads((out / "clean_report.json").read_text())
    assert set(report) == {"apps", "timings_ms"}
    assert set(report["apps"]) == {"alpha", "beta"}
    for entry in report["apps"].values():
        assert entry["input"] == 66
        assert entry["dpi_discarded"] == 14  # 8 dns + 6 blocklisted tls
    cleaned = read_flow_table(out / "cleaned.csv")
    assert 0 < len(cleaned) < 132
    assert "132 flows in, 28 filtered" in capsys.readouterr().out


def test_log_level_info_logs_dpi_counts_to_stderr(tmp_path, scenario_file, capsys):
    flows = synth_into(tmp_path, scenario_file) / "flows.csv"
    args = ["clean", "--flows", str(flows), "--out", str(tmp_path / "cleaned")]
    capsys.readouterr()
    assert main(args) == 0
    default = capsys.readouterr()
    assert main(["--log-level", "info", *args]) == 0
    info = capsys.readouterr()
    assert default.err == ""
    # one dpi pass per app: 66 flows in each, 8 dns + 6 blocklisted tls out
    assert info.err.count("INFO flowclean.dpi: dpi: kept 52 flows, discarded 14\n") == 2
    assert info.out == default.out


def test_log_level_rejects_unknown_names(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--log-level", "verbose", "synth"])
    assert exc.value.code == 2
    assert "invalid choice: 'verbose'" in capsys.readouterr().err


def test_clean_hier_algorithm(tmp_path, scenario_file):
    synth_dir = synth_into(tmp_path, scenario_file)
    out = tmp_path / "cleaned-hier"
    rc = main(["clean", "--flows", str(synth_dir / "flows.csv"),
               "--algorithm", "hier", "--linkage", "ward", "--out", str(out)])
    assert rc == 0
    assert (out / "cleaned.csv").is_file()


def test_clean_hier_matrix_too_large(tmp_path, scenario_file, monkeypatch, capsys):
    synth_dir = synth_into(tmp_path, scenario_file)
    monkeypatch.setattr(cluster_mod, "_physical_memory_bytes", lambda: 1024)
    rc = main(["clean", "--flows", str(synth_dir / "flows.csv"),
               "--algorithm", "hier", "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: hierarchical clustering of ")
    assert "more than the 1024 bytes of physical memory" in err


@pytest.mark.parametrize("command", ["clean", "train", "compare"])
def test_threads_below_one_is_an_error(tmp_path, scenario_file, capsys, command):
    if command in ("clean", "train"):
        source = ["--flows", str(synth_into(tmp_path, scenario_file) / "flows.csv")]
    else:
        source = ["--scenario", str(scenario_file), "--algorithm", "kmeans"]
    rc = main([command, *source, "--threads", "0", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err == "error: threads must be >= 1, got 0\n"


def test_clean_unknown_algorithm(tmp_path, scenario_file):
    synth_dir = synth_into(tmp_path, scenario_file)
    rc = main(["clean", "--flows", str(synth_dir / "flows.csv"),
               "--algorithm", "dbscan", "--out", str(tmp_path / "x")])
    assert rc == 1


def test_clean_missing_flow_table(tmp_path):
    rc = main(["clean", "--flows", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path)])
    assert rc == 2


def test_clean_requires_flows_flag(tmp_path):
    assert main(["clean", "--out", str(tmp_path)]) == 1


def test_clean_config_file_and_flag_override(tmp_path, scenario_file):
    synth_dir = synth_into(tmp_path, scenario_file)
    config = tmp_path / "clean.conf"
    config.write_text(
        f"flows = {synth_dir / 'flows.csv'}\n"
        "k = 3\n"
        "seed = 5\n"
    )
    out = tmp_path / "via-config"
    rc = main(["clean", "--config", str(config), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "clean_report.json").read_text())
    assert all(e["clusters_formed"] == 3 for e in report["apps"].values())
    # flag beats the config value
    out2 = tmp_path / "via-flag"
    rc = main(["clean", "--config", str(config), "--k", "2", "--out", str(out2)])
    assert rc == 0
    report2 = json.loads((out2 / "clean_report.json").read_text())
    assert all(e["clusters_formed"] == 2 for e in report2["apps"].values())


# --- train / eval -------------------------------------------------------


def test_train_then_eval(tmp_path, scenario_file, capsys):
    synth_dir = synth_into(tmp_path, scenario_file)
    model_dir = tmp_path / "model"
    rc = main(["train", "--flows", str(synth_dir / "flows.csv"),
               "--trees", "10", "--out", str(model_dir), "--seed", "5"])
    assert rc == 0
    assert (model_dir / "model.json").is_file()
    holdout = read_flow_table(model_dir / "holdout.csv")
    # per label: floor(66 * 0.75 + 0.5) = 50 train, 16 holdout
    assert len(holdout) == 32
    eval_dir = tmp_path / "metrics"
    rc = main(["eval", "--model", str(model_dir / "model.json"),
               "--flows", str(model_dir / "holdout.csv"), "--out", str(eval_dir)])
    assert rc == 0
    metrics = json.loads((eval_dir / "metrics.json").read_text())
    assert set(metrics) == {
        "accuracy", "macro_precision", "macro_recall", "labels", "confusion", "config",
    }
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert metrics["config"]["n_trees"] == 10
    assert "accuracy" in capsys.readouterr().out


def test_train_trees_config_override(tmp_path, scenario_file):
    synth_dir = synth_into(tmp_path, scenario_file)
    config = tmp_path / "train.conf"
    config.write_text(f"flows = {synth_dir / 'flows.csv'}\ntrees = 5\n")
    out = tmp_path / "m1"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    model = json.loads((out / "model.json").read_text())
    assert model["config"]["n_trees"] == 5
    out2 = tmp_path / "m2"
    assert main(["train", "--config", str(config), "--trees", "7",
                 "--out", str(out2)]) == 0
    model2 = json.loads((out2 / "model.json").read_text())
    assert model2["config"]["n_trees"] == 7


def test_train_threads_flag_and_config_keep_the_model(tmp_path, scenario_file):
    flows = synth_into(tmp_path, scenario_file) / "flows.csv"
    assert main(["train", "--flows", str(flows), "--trees", "6",
                 "--out", str(tmp_path / "serial")]) == 0
    assert main(["train", "--flows", str(flows), "--trees", "6", "--threads", "2",
                 "--out", str(tmp_path / "flag")]) == 0
    config = tmp_path / "train.conf"
    config.write_text(f"flows = {flows}\ntrees = 6\nthreads = 3\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "conf")]) == 0
    serial = (tmp_path / "serial" / "model.json").read_bytes()
    assert (tmp_path / "flag" / "model.json").read_bytes() == serial
    assert (tmp_path / "conf" / "model.json").read_bytes() == serial


def test_train_rejects_bad_hyperparameter(tmp_path, scenario_file, capsys):
    synth_dir = synth_into(tmp_path, scenario_file)
    rc = main(["train", "--flows", str(synth_dir / "flows.csv"),
               "--features-per-split", "9", "--out", str(tmp_path / "m")])
    assert rc == 1
    assert capsys.readouterr().err == "error: features_per_split must be in [1, 8], got 9\n"
    assert not (tmp_path / "m" / "model.json").exists()


def test_eval_empty_flow_table(tmp_path, scenario_file):
    synth_dir = synth_into(tmp_path, scenario_file)
    model_dir = tmp_path / "model"
    assert main(["train", "--flows", str(synth_dir / "flows.csv"),
                 "--trees", "5", "--out", str(model_dir)]) == 0
    from flowclean.ingest import write_flow_table

    empty = tmp_path / "empty.csv"
    write_flow_table([], empty)
    rc = main(["eval", "--model", str(model_dir / "model.json"),
               "--flows", str(empty), "--out", str(tmp_path / "e")])
    assert rc == 1


def test_eval_requires_both_flags(tmp_path):
    assert main(["eval", "--out", str(tmp_path)]) == 1


# --- compare ------------------------------------------------------------


def test_compare_report_and_hash_stability(tmp_path, scenario_file, capsys):
    out1 = tmp_path / "cmp1"
    rc = main(["compare", "--scenario", str(scenario_file),
               "--algorithm", "kmeans", "--out", str(out1), "--emit-csv"])
    assert rc == 0
    report = json.loads((out1 / "compare_report.json").read_text())
    assert set(report) == {
        "config", "arms", "forest", "timings_ms", "content_sha256", "generated_at",
    }
    assert set(report["arms"]) == {"uncleaned", "oracle", "kmeans"}
    for arm in report["arms"].values():
        assert set(arm) == {"flows", "train", "test", "metrics", "loss_vs_oracle"}
    assert set(report["forest"]) == set(report["arms"])
    for size in report["forest"].values():
        assert set(size) == {"trees", "nodes", "leaves", "depth"}
        assert size["trees"] == 100
        # every internal node has two children: nodes = 2 * leaves - trees
        assert size["nodes"] == 2 * size["leaves"] - size["trees"]
        # the forest's default max_depth bounds its deepest leaf
        assert 1 <= size["depth"] <= 16
    assert report["arms"]["oracle"]["loss_vs_oracle"]["accuracy"] == 0.0
    assert set(report["timings_ms"]) == {
        *(f"clean_kmeans_{stage}"
          for stage in ("dpi", "features", "cluster", "select", "total")),
        *(f"{stage}_{arm}" for stage in ("train", "eval")
          for arm in ("uncleaned", "oracle", "kmeans")),
    }
    # wall-clock timings stay outside the content hash
    assert report["content_sha256"] == _canonical_sha256(
        {"config": report["config"], "arms": report["arms"]}
    )
    assert (out1 / "compare_metrics.csv").is_file()
    assert (out1 / "compare_timings.csv").is_file()
    table = capsys.readouterr().out
    assert "uncleaned" in table and "oracle" in table
    assert "\nstage " in table and "\ntrain_oracle " in table

    out2 = tmp_path / "cmp2"
    assert main(["compare", "--scenario", str(scenario_file),
                 "--algorithm", "kmeans", "--out", str(out2)]) == 0
    second = json.loads((out2 / "compare_report.json").read_text())
    assert second["content_sha256"] == report["content_sha256"]
    assert second["arms"] == report["arms"]
    assert second["forest"] == report["forest"]


def test_compare_runs_each_cleaner_once(scenario_file, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["algorithm"])
        return clean(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "clean", counted)
    report = run_compare(
        read_scenario(scenario_file), [Algorithm.KMEANS, Algorithm.HIERARCHICAL]
    )
    assert calls == [Algorithm.KMEANS, Algorithm.HIERARCHICAL]
    assert set(report["arms"]) == {"uncleaned", "oracle", "kmeans", "hier"}


def test_compare_rejects_a_repeated_algorithm(tmp_path, scenario_file, capsys):
    with pytest.raises(ValueError, match=r"^algorithm 'kmeans' is given twice$"):
        run_compare(read_scenario(scenario_file), [Algorithm.KMEANS, Algorithm.KMEANS])
    rc = main(["compare", "--scenario", str(scenario_file),
               "--algorithm", "kmeans,hier,kmeans", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: algorithm 'kmeans' is given twice\n"
    assert not (tmp_path / "compare_report.json").exists()


def test_compare_unknown_algorithm(tmp_path, scenario_file):
    rc = main(["compare", "--scenario", str(scenario_file),
               "--algorithm", "spectral", "--out", str(tmp_path)])
    assert rc == 1


# --- config parsing -----------------------------------------------------


def test_read_config(tmp_path):
    path = tmp_path / "app.conf"
    path.write_text("# comment\nk = 4\nalgorithm= hier  # inline\n\nname =  spaced\n")
    assert read_config(path, {"k": str, "algorithm": str, "name": str}) == {
        "k": "4", "algorithm": "hier", "name": "spaced"
    }


def test_read_config_bad_line(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("just-a-word\n")
    with pytest.raises(ParseError, match=r"bad\.conf:1: expected 'key = value'"):
        read_config(path, {})


def test_config_key_without_a_flag_is_an_error(tmp_path, scenario_file, capsys):
    # a misspelt key must not fall back to the default (100 trees here)
    synth_dir = synth_into(tmp_path, scenario_file)
    config = tmp_path / "train.conf"
    config.write_text(f"flows = {synth_dir / 'flows.csv'}\ntress = 5\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}:2: unknown key 'tress'; expected one of ")
    assert not (out / "model.json").exists()
    # a key is a flag of the subcommand it configures
    config.write_text("trees = 5\n")
    with pytest.raises(ParseError, match=r"train\.conf:1: unknown key 'trees'"):
        read_config(config, keys={"flows": str, "k": int})


def test_config_key_given_twice_is_an_error(tmp_path, scenario_file, capsys):
    # a repeat must not silently replace the first value
    flows = synth_into(tmp_path, scenario_file) / "flows.csv"
    config = tmp_path / "clean.conf"
    config.write_text("k = 3\nseed = 5\nk = 2\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["clean", "--flows", str(flows), "--config", str(config),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {config}:3: key 'k' repeats line 1\n"
    assert not out.exists()
    with pytest.raises(ParseError, match=r"clean\.conf:3: key 'k' repeats line 1"):
        read_config(config, {"k": int, "seed": int})


def test_config_value_is_typed_by_its_flag(tmp_path, scenario_file, capsys):
    flows = synth_into(tmp_path, scenario_file) / "flows.csv"
    config = tmp_path / "clean.conf"
    out = tmp_path / "out"
    argv = ["clean", "--flows", str(flows), "--config", str(config), "--out", str(out)]
    config.write_text("skip_dpi = true\nk = four\n")
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {config}:2: k: ")
    config.write_text("threads = 2.5\n")
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {config}:1: threads: ")
    assert not out.exists()


def _clean_outputs(out):
    report = json.loads((out / "clean_report.json").read_text())
    del report["timings_ms"]
    return report, (out / "cleaned.csv").read_bytes()


def test_config_boolean_is_strict(tmp_path, scenario_file, capsys):
    flows = synth_into(tmp_path, scenario_file) / "flows.csv"

    def run(name, *flags, config=None):
        out = tmp_path / name
        argv = ["clean", "--flows", str(flows), "--out", str(out), *flags]
        if config is not None:
            path = tmp_path / f"{name}.conf"
            path.write_text(config)
            argv += ["--config", str(path)]
        return main(argv), out

    assert run("flag", "--skip-dpi")[0] == 0
    assert run("no-flag")[0] == 0
    skipped = _clean_outputs(tmp_path / "flag")
    filtered = _clean_outputs(tmp_path / "no-flag")
    assert skipped != filtered
    for spelling, expected in [("true", skipped), ("off", filtered), ("YES", skipped),
                               ("No", filtered), ("1", skipped), ("0", filtered)]:
        rc, out = run(f"conf-{spelling}", config=f"skip_dpi = {spelling}\n")
        assert rc == 0
        assert _clean_outputs(out) == expected, spelling
    # a misspelling must not read as false
    capsys.readouterr()
    rc, out = run("typo", config="skip_dpi = ture\n")
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'typo.conf'}:1: skip_dpi: "
        "expected one of true/false/yes/no/on/off/1/0 (any case), got 'ture'\n"
    )
    assert not out.exists()


def test_help_shows_declared_defaults(capsys):
    (commands,) = (a for a in cli_mod.build_parser()._actions if a.dest == "command")
    for name, command in commands.choices.items():
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for action in command._actions:
            if action.default not in (None, argparse.SUPPRESS) and action.default is not False:
                assert f"(default: {action.default})" in text, (name, action.dest)
        assert "(default: .)" in text, name
        assert ("(default: 42)" in text) == (name in ("clean", "train", "compare")), name


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2
