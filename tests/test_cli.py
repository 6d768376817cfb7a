"""End-to-end tests for the command-line interface."""

import json
import struct

import pytest

from flowclean.cli import main, read_config
from flowclean.ingest import read_flow_table

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


def test_clean_hier_algorithm(tmp_path, scenario_file):
    synth_dir = synth_into(tmp_path, scenario_file)
    out = tmp_path / "cleaned-hier"
    rc = main(["clean", "--flows", str(synth_dir / "flows.csv"),
               "--algorithm", "hier", "--linkage", "ward", "--out", str(out)])
    assert rc == 0
    assert (out / "cleaned.csv").is_file()


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
        "config", "arms", "timings_ms", "content_sha256", "generated_at",
    }
    assert set(report["arms"]) == {"uncleaned", "oracle", "kmeans"}
    for arm in report["arms"].values():
        assert set(arm) == {"flows", "train", "test", "metrics", "loss_vs_oracle"}
    assert report["arms"]["oracle"]["loss_vs_oracle"]["accuracy"] == 0.0
    assert "clean_kmeans_with_dpi" in report["timings_ms"]
    assert "clean_kmeans_no_dpi" in report["timings_ms"]
    assert (out1 / "compare_metrics.csv").is_file()
    assert (out1 / "compare_timings.csv").is_file()
    table = capsys.readouterr().out
    assert "uncleaned" in table and "oracle" in table

    out2 = tmp_path / "cmp2"
    assert main(["compare", "--scenario", str(scenario_file),
                 "--algorithm", "kmeans", "--out", str(out2)]) == 0
    second = json.loads((out2 / "compare_report.json").read_text())
    assert second["content_sha256"] == report["content_sha256"]
    assert second["arms"] == report["arms"]


def test_compare_unknown_algorithm(tmp_path, scenario_file):
    rc = main(["compare", "--scenario", str(scenario_file),
               "--algorithm", "spectral", "--out", str(tmp_path)])
    assert rc == 1


# --- config parsing -----------------------------------------------------


def test_read_config(tmp_path):
    path = tmp_path / "app.conf"
    path.write_text("# comment\nk = 4\nalgorithm= hier  # inline\n\nname =  spaced\n")
    assert read_config(path) == {"k": "4", "algorithm": "hier", "name": "spaced"}


def test_read_config_bad_line(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("just-a-word\n")
    with pytest.raises(ValueError):
        read_config(path)


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 2
