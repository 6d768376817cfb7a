"""End-to-end tests for the command-line interface."""

import argparse
import codecs
import csv
import hashlib
import itertools
import json
import locale
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import flowclean.cli as cli_mod
import flowclean.cluster as cluster_mod
import flowclean.ingest as ingest_mod
import flowclean.select as select_mod
from flowclean import parallel
from flowclean.cli import _canonical_sha256, main, read_config, run_compare
from flowclean.cluster import Algorithm
from flowclean.errors import (
    EmptyTest,
    LabelTooSmall,
    ParseError,
    SchemaMismatch,
    SingleClass,
    UnclusterableMatrix,
)
from flowclean.ingest import (
    FLOW_TABLE_HEADER,
    format_flow_row,
    index_flow_table,
    read_flow_lines,
    read_flow_table,
    write_flow_table,
)
from flowclean.select import clean, clean_table
from flowclean.synth import read_scenario

from conftest import TCP_ACK, TCP_SYN, ethernet, make_flow, pcap_bytes, tcp4_frame
from test_classify import assert_no_child_left, child_processes, needs_fork_and_proc
from test_ingest import (
    RESPELLINGS,
    forced_open,
    reference_read_flow_table,
    respellable_flow,
    respelled_row,
    table_flows,
)

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


def test_clean_unknown_linkage(tmp_path, scenario_file, capsys):
    flows = synth_into(tmp_path, scenario_file) / "flows.csv"
    capsys.readouterr()
    rc = main(["clean", "--flows", str(flows), "--algorithm", "hier",
               "--linkage", "bogus", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: unknown linkage 'bogus', expected ward, average or complete\n"
    )


@pytest.mark.parametrize("k", ["0", "-2"])
def test_clean_checks_k_before_reading_the_table(tmp_path, capsys, k):
    # reading the absent table would exit 2
    rc = main(["clean", "--flows", str(tmp_path / "absent.csv"), "--k", k,
               "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: k must be >= 1, got {k}\n"


def _unreachable(*args, **kwargs):
    raise AssertionError("reached before the options were checked")


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--trees", "0", "n_trees must be >= 1, got 0"),
        ("--max-depth", "-1", "max_depth must be >= 1, got -1"),
        ("--min-leaf", "0", "min_leaf must be >= 1, got 0"),
        ("--features-per-split", "9", "features_per_split must be in [1, 8], got 9"),
        ("--threads", "0", "threads must be >= 1, got 0"),
        ("--train-frac", "1.5", "train_frac must be in (0, 1)"),
    ],
)
def test_train_checks_its_options_before_reading_the_table(
    tmp_path, capsys, monkeypatch, option, value, message
):
    monkeypatch.setattr(cli_mod, "index_flow_table", _unreachable)
    rc = main(["train", "--flows", str(tmp_path / "absent.csv"), option, value,
               "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--k", "0", "k must be >= 1, got 0"),
        ("--threads", "0", "threads must be >= 1, got 0"),
        ("--train-frac", "1.5", "train_frac must be in (0, 1)"),
        ("--train-frac", "0", "train_frac must be in (0, 1)"),
        ("--algorithm", ",", "compare needs at least one algorithm"),
    ],
)
def test_compare_checks_its_options_before_generating_flows(
    tmp_path, capsys, monkeypatch, option, value, message
):
    monkeypatch.setattr(cli_mod.synth, "generate", _unreachable)
    rc = main(["compare", option, value, "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# --- clean: the table's records parsed, cleaned and formatted by workers --

_ENCODING = locale.getpreferredencoding(False)


def _rejected_byte() -> bytes:
    """A byte the locale's encoding rejects, or 0xff where it takes them all."""
    for value in range(255, -1, -1):
        try:
            bytes([value]).decode(_ENCODING)
        except UnicodeDecodeError:
            return bytes([value])
    return b"\xff"


def _row(flow_id: int, label: str | None = "a", **fields) -> bytes:
    """A table row, line end excluded, with features that differ per flow."""
    fields = {"bytes_in": 1000 * (flow_id % 7 + 1), "packets_in": flow_id % 5 + 1, **fields}
    flow = make_flow(flow_id=flow_id, app_label=label, **fields)
    return format_flow_row(flow)[:-2].encode(_ENCODING)


def _table(*rows: bytes, end: bytes = b"\r\n") -> bytes:
    return b"".join(line + end for line in (",".join(FLOW_TABLE_HEADER).encode(), *rows))


def _noncanonical(line: bytes) -> bytes:
    """line with a zero-padded client_port and upper-case hex: the same row, other bytes."""
    fields = line.split(b",")
    fields[4] = b"0" + fields[4]
    fields[16] = fields[16].upper()
    return b",".join(fields)


def _quoted_label(line: bytes) -> bytes:
    """line, which holds no quote, with its label quoted: the same row, other bytes."""
    fields = line.split(b",")
    fields[1] = b'"' + fields[1] + b'"'
    return b",".join(fields)


_APPS = [_row(i, "ab"[i % 2], client_payload_prefix=bytes([i])) for i in range(10)]


# line 5 of app b and line 6 of app a are bad; app a's worker names line 6
_BAD_ROWS = _table(*_APPS[:3], _row(20, "b", bytes_in=-1), _row(21, "a", last_ts_us=0))
_BAD_ROW_AND_NO_LABEL = _table(*_APPS[:4], _row(20, "a", first_ts_us=9, last_ts_us=1), b"1,a")
# line 5 repeats line 2's flow_id and has a bad hex field: the repeat is found first
_REPEAT_AND_BAD_HEX = _table(*_APPS[:3], b",".join(_row(0, "b").split(b",")[:16] + [b"zz", b""]))
_QUOTED_LABEL = _table(*_APPS, _row(20, "b").replace(b",b,", b',"say ""hi"", b",'))
_REJECTED_BYTE = _table(*_APPS[:5], _row(20, "b").replace(b"tcp", b"t" + _rejected_byte()))


@st.composite
def flow_table_bytes(draw):
    """Tables of table_flows' rows, often with few labels, no field that
    needs quotes, other line ends, blank lines, or rows whose bytes are
    not those write_flow_table writes (rows without quotes only): with
    a padded port and upper-case hex, or a quoted label."""
    # two draws, for apps of several flows; table_flows' ids are within 2**40
    flows = draw(table_flows())
    flows += [flow._replace(flow_id=flow.flow_id + 2**41) for flow in draw(table_flows())]
    if draw(st.integers(0, 3)):
        labels = st.sampled_from(["a", "b", "ünï"])
        flows = [flow._replace(app_label=draw(labels)) for flow in flows]
    if draw(st.booleans()):
        plain = str.maketrans("", "", ',"\r\n')
        flows = [
            flow._replace(
                app_label=flow.app_label and flow.app_label.translate(plain) or None,
                key=flow.key._replace(
                    transport=flow.key.transport.translate(plain),
                    client_ip=flow.key.client_ip.translate(plain),
                    server_ip=flow.key.server_ip.translate(plain),
                ),
            )
            for flow in flows
        ]
    try:
        rows = [format_flow_row(flow)[:-2].encode(_ENCODING) for flow in flows]
    except UnicodeEncodeError:
        assume(False)
    for i, row in enumerate(rows):
        if b'"' not in row:
            if draw(st.booleans()):
                row = _noncanonical(row)
            if draw(st.booleans()):
                row = _quoted_label(row)
        rows[i] = row
    for at in draw(st.lists(st.integers(0, len(rows)), max_size=2)):
        rows.insert(at, b"")
    end = draw(st.sampled_from([b"\r\n", b"\n", b"\r"]))
    data = _table(*rows, end=end)
    return data if draw(st.booleans()) else data[: -len(end)]


def _compose(patch, encoding: str | None = None) -> None:
    """Make `flowclean clean` the composition its table path must match:
    reference_read_flow_table, then clean, then write_flow_table."""
    patch.setattr(cli_mod, "index_flow_table", Path)  # clean_table gets the file
    patch.setattr(
        cli_mod,
        "clean_table",
        lambda file, **options: clean(reference_read_flow_table(file, encoding), **options),
    )
    patch.setattr(cli_mod, "write_flow_lines", lambda file, table, kept: write_flow_table(kept, file))


def _clean_run(
    capsys, flows: Path, out: Path, threads: int, algorithm: str = "kmeans", encoding=None
):
    # keeps some clusters of table_flows' random counters, and drops others
    policy = flows.with_name("policy.txt")
    policy.write_text("keep ratio > 0.5\n", encoding=encoding)
    capsys.readouterr()
    rc = main(["clean", "--flows", str(flows), "--out", str(out), "--k", "2",
               "--policy", str(policy), "--threads", str(threads), "--algorithm", algorithm])
    err = capsys.readouterr().err
    if rc != 0:
        return rc, err, None, None
    apps = json.loads((out / "clean_report.json").read_text())["apps"]
    return rc, err, (out / "cleaned.csv").read_bytes(), apps


# too_slow: hypothesis builds its Unicode tables on a run's first st.text() draw
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
          max_examples=100, deadline=None)
@given(flow_table_bytes())
@example(_table(*_APPS)).via("CRLF")
@example(_table(*_APPS, end=b"\n")).via("LF")
@example(_table(*_APPS, end=b"\r")).via("CR")
@example(_table(_APPS[0], b"", *_APPS[1:5], b"", b"", *_APPS[5:])).via("blank lines")
@example(_table()).via("header only")
@example(_table(*map(_noncanonical, _APPS))).via("rows written otherwise")
@example(_table(*_APPS[:3], _row(20, None), _row(21, None))).via("unlabeled rows")
@example(_table(*_APPS[:3], _row(1, "c"))).via("flow_id repeated across apps")
@example(_BAD_ROWS).via("bad rows in two apps: the lower line wins")
@example(_BAD_ROW_AND_NO_LABEL).via("a bad row and a line without a label")
@example(_REPEAT_AND_BAD_HEX).via("a flow_id repeated on a row with bad hex")
@example(_QUOTED_LABEL).via("a quoted label")
@example(_REJECTED_BYTE).via("a byte the locale's encoding rejects")
def test_clean_matches_read_clean_write(capsys, data):
    """The same exit code, stderr, cleaned table and per-app report as
    reference_read_flow_table, clean and write_flow_table (_compose), at
    one or two workers."""
    with tempfile.TemporaryDirectory() as tmp:
        flows = Path(tmp) / "flows.csv"
        flows.write_bytes(data)
        with pytest.MonkeyPatch.context() as patch:
            _compose(patch)
            expected = _clean_run(capsys, flows, Path(tmp) / "composed", 1)
        for threads in (1, 2):
            assert _clean_run(capsys, flows, Path(tmp) / f"t{threads}", threads) == expected


@settings(suppress_health_check=[HealthCheck.too_slow], max_examples=200, deadline=None)
@given(flow_table_bytes())
@example(_table(*_APPS)).via("CRLF")
@example(_table(*_APPS, end=b"\n")).via("LF")
@example(_table(*_APPS, end=b"\r")).via("CR")
@example(_table(_APPS[0], b"", *_APPS[1:5], b"", b"", *_APPS[5:])).via("blank lines")
@example(_table()).via("header only")
@example(_table(*map(_noncanonical, _APPS))).via("rows written otherwise")
@example(_table(*_APPS[:3], _row(20, None), _row(21, None))).via("unlabeled rows")
@example(_table(*_APPS[:3], _row(1, "c"))).via("flow_id repeated across apps")
@example(_BAD_ROWS).via("bad rows in two apps: the lower line wins")
@example(_BAD_ROW_AND_NO_LABEL).via("a bad row and a line without a label")
@example(_REPEAT_AND_BAD_HEX).via("a flow_id repeated on a row with bad hex")
@example(_QUOTED_LABEL).via("a quoted label")
@example(_REJECTED_BYTE).via("a byte the locale's encoding rejects")
def test_read_flow_table_matches_the_reference_reader(data):
    """The same records as reference_read_flow_table, or the same SchemaMismatch."""
    with tempfile.TemporaryDirectory() as tmp:
        flows = Path(tmp) / "flows.csv"
        flows.write_bytes(data)
        outcomes = []
        for read in (read_flow_table, reference_read_flow_table):
            try:
                outcomes.append(read(flows))
            except SchemaMismatch as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


def test_clean_names_the_lowest_bad_line_before_a_rejected_byte(tmp_path, capsys):
    # reference_read_flow_table decodes ahead in 8 KB chunks, so on a
    # table this small it names the byte on line 6 first
    flows = tmp_path / "flows.csv"
    flows.write_bytes(_table(*_APPS[:3], _row(20, "b", bytes_in=-1), b"x" + _rejected_byte()))
    capsys.readouterr()
    assert main(["clean", "--flows", str(flows), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {flows}: line 5: bytes_in is negative: -1\n"


def _reads_table(tmp_path, command: str, flows: Path) -> list[str]:
    """Arguments of a command that reads the table flows; eval gets a model first."""
    args = [command, "--flows", str(flows), "--out", str(tmp_path / command)]
    if command == "eval":
        good = tmp_path / "good.csv"
        good.write_bytes(_table(*_APPS))
        assert main(["train", "--flows", str(good), "--trees", "1", "--out", str(tmp_path)]) == 0
        args += ["--model", str(tmp_path / "model.json")]
    return args


@pytest.mark.parametrize("command", ["train", "eval"])
def test_train_and_eval_name_the_lowest_bad_line_before_a_rejected_byte(
    tmp_path, capsys, command
):
    flows = tmp_path / "flows.csv"
    flows.write_bytes(_table(*_APPS[:3], _row(20, "b", bytes_in=-1), b"x" + _rejected_byte()))
    args = _reads_table(tmp_path, command, flows)
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {flows}: line 5: bytes_in is negative: -1\n"


@pytest.mark.parametrize(
    "row, error",
    [
        # features would convert it to float64, which raised OverflowError
        (_row(7, "b", bytes_in=10**400), "bytes_in is out of float64's range"),
        # csv reads it as a literal; the rows before it are read, not cleaned
        (_row(7, "b").replace(b",tcp,", b',t"cp,'),
         "misplaced quote: an unquoted field holds a quote"),
    ],
    ids=["huge counter", "misplaced quote"],
)
@pytest.mark.parametrize("command", ["clean", "train", "eval"])
def test_every_command_refuses_the_table_at_a_bad_row(tmp_path, capsys, command, row, error):
    flows = tmp_path / "flows.csv"
    flows.write_bytes(_table(*_APPS[:7], row))
    args = _reads_table(tmp_path, command, flows)
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {flows}: line 9: {error}\n"


@pytest.mark.parametrize("algorithm", ["kmeans", "hier"])
def test_clean_in_an_encoding_outside_the_line_codecs_matches_the_oracle(
    tmp_path, capsys, monkeypatch, algorithm
):
    # cp037 (EBCDIC) has other bytes than ASCII for comma, quote and LF,
    # and reads each byte as some character
    monkeypatch.setattr(ingest_mod, "open", forced_open("cp037"), raising=False)
    labels = ["a", 'say "hi"', "x,y", "ünï"]
    rows = [
        format_flow_row(
            make_flow(flow_id=i, app_label=labels[i % 4], bytes_in=1000 * (i % 7 + 1),
                      packets_in=i % 5 + 1, client_payload_prefix=bytes([i]))
        )
        for i in range(24)
    ]
    rows[4] = rows[4].replace(",a,", ',"a",')  # a quoted spelling of label a
    rows[5] = rows[5].replace(",443,", ",0443,")  # a padded port
    flows = tmp_path / "flows.csv"
    flows.write_bytes((",".join(FLOW_TABLE_HEADER) + "\r\n" + "".join(rows)).encode("cp037"))
    with pytest.MonkeyPatch.context() as patch:
        _compose(patch, "cp037")
        expected = _clean_run(capsys, flows, tmp_path / "oracle", 1, algorithm, "cp037")
    assert expected[0] == 0 and set(expected[3]) == set(labels)
    assert expected[2].decode("cp037").startswith(",".join(FLOW_TABLE_HEADER) + "\r\n")
    for threads in (1, 2):
        run = _clean_run(capsys, flows, tmp_path / f"t{threads}", threads, algorithm, "cp037")
        assert run == expected


def test_clean_in_utf_16_writes_one_byte_order_mark(tmp_path, capsys, monkeypatch):
    # the header and each app's rows are encoded apart; UTF-16 starts its text with a BOM
    monkeypatch.setattr(ingest_mod, "open", forced_open("utf-16"), raising=False)
    flows = tmp_path / "flows.csv"
    flows.write_bytes(_table(*_APPS).decode(_ENCODING).encode("utf-16"))
    with pytest.MonkeyPatch.context() as patch:
        _compose(patch, "utf-16")
        expected = _clean_run(capsys, flows, tmp_path / "oracle", 1, "kmeans", "utf-16")
    assert expected[0] == 0 and expected[2].count(codecs.BOM_UTF16) == 1
    for threads in (1, 2):
        run = _clean_run(capsys, flows, tmp_path / f"t{threads}", threads, "kmeans", "utf-16")
        assert run == expected


# --- clean: phase-1 chunks ----------------------------------------------

# three apps of 12 rows, interleaved, every fifth row written otherwise:
# chunks of 7 rows hold rows of every app, and a chunk of 1 row cuts every row
_MANY = [
    _row(i, "cab"[i % 3], bytes_out=300 * (i % 4), client_payload_prefix=bytes([i]))
    for i in range(36)
]
_MANY = [_noncanonical(row) if i % 5 == 0 else row for i, row in enumerate(_MANY)]


# app b's flow_ids from 2**63 up and app a's below 0, in falling order, as
# test_select's "flow_ids past int64": a chunk with any of b's ids holds its
# ids as objects, and one of a's alone as int64, so in chunks of 7 app a is
# gathered from one of each; each app keeps some flows at ratio > 0.5
_PAST_INT64 = [
    _row(first + i, label, bytes_out=3000 * (i % 3))
    for label, first in (("b", 2**63), ("a", -9))
    for i in range(8, -1, -1)
]


def _chunks_of(patch, size: int) -> None:
    patch.setattr(select_mod, "_chunk_size", lambda flows, workers: size)


@pytest.mark.parametrize("algorithm", ["kmeans", "hier"])
def test_clean_output_does_not_depend_on_chunks(
    tmp_path, scenario_file, capsys, many_cpus, algorithm
):
    """Chunks of 1 row, of 7 rows and of a whole app, at one to three
    workers, give the cleaned table and per-app report that
    reference_read_flow_table, clean and write_flow_table give, also
    where an app's chunks hold its flow_ids as int64 and as objects."""
    rows = tmp_path / "rows.csv"
    rows.write_bytes(_table(*_MANY))
    past_int64 = tmp_path / "past_int64" / "flows.csv"
    past_int64.parent.mkdir()
    past_int64.write_bytes(_table(*_PAST_INT64))
    for flows in (rows, past_int64, synth_into(tmp_path, scenario_file) / "flows.csv"):
        out = flows.parent / "out"
        with pytest.MonkeyPatch.context() as patch:
            _compose(patch)
            expected = _clean_run(capsys, flows, out / "oracle", 1, algorithm)
        assert expected[0] == 0 and expected[2].count(b"\r\n") > 1
        for size in (1, 7, 10**9):
            for threads in (1, 2, 3):
                with pytest.MonkeyPatch.context() as patch:
                    _chunks_of(patch, size)
                    run = out / f"{size}-{threads}"
                    assert _clean_run(capsys, flows, run, threads, algorithm) == expected


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
          max_examples=30, deadline=None)
@given(flow_table_bytes())
def test_clean_matches_read_clean_write_in_small_chunks(capsys, many_cpus, data):
    """As test_clean_matches_read_clean_write, with chunks that cut
    every app: bad rows and repeated flow_ids land in any chunk."""
    with tempfile.TemporaryDirectory() as tmp:
        flows = Path(tmp) / "flows.csv"
        flows.write_bytes(data)
        with pytest.MonkeyPatch.context() as patch:
            _compose(patch)
            expected = _clean_run(capsys, flows, Path(tmp) / "composed", 1)
        for size in (1, 3):
            with pytest.MonkeyPatch.context() as patch:
                _chunks_of(patch, size)
                assert _clean_run(capsys, flows, Path(tmp) / f"c{size}", 2) == expected


# three apps of 12 flows, then a DNS flow of app b, which DPI discards;
# the rows of all but every fourth flow have a field respelled
# a DNS header with one question for example.com
_DNS_QUERY = bytes.fromhex("1234 0100 0001 0000 0000 0000") + b"\x07example\x03com\0\0\1\0\1"
_RESPELLABLE = [
    respellable_flow(i, app_label="cab"[i % 3], bytes_in=1000 * (i % 7 + 1),
                     packets_in=i % 5 + 1, bytes_out=300 * (i % 4),
                     client_payload_prefix=bytes([0xAB, i]))
    for i in range(36)
] + [respellable_flow(36, app_label="b", transport="udp", server_port=53,
                      client_payload_prefix=_DNS_QUERY)]
# the outputs clean and train wrote when only the rows of flows DPI keeps
# were checked for rewriting, before read_flow_lines checked every row
_RESPELLED_CLEANED = {
    "kmeans": "6c907937c8b087b796ea9586e6ea847cbad9b5f948fc27501ef8285f1eb9a3cc",
    "hier": "d199eea92e270511acfefc6cadeed622a6f3f27de3c740a3276c76748e6781a9",
}
_RESPELLED_TRAINED = [  # model.json, holdout.csv
    "d96b554e7dd1b7a0b34635f0b0a911cf4382b174ba348fea6d50b192d85eb7ad",
    "2686c41ca0895558e17e738d24bc4bfaaa217dc21836651148b556720998d268",
]


def _respelled_table(tmp_path, monkeypatch) -> Path:
    """_RESPELLABLE's table, in UTF-8, which ingest then reads and writes."""
    monkeypatch.setattr(ingest_mod, "open", forced_open("utf-8"), raising=False)
    respellings = list(RESPELLINGS)
    rows = [
        format_flow_row(flow)[:-2].encode() if i % 4 == 3
        else respelled_row(flow, respellings[i % len(respellings)])
        for i, flow in enumerate(_RESPELLABLE)
    ]
    path = tmp_path / "respelled.csv"
    path.write_bytes(_table(*rows))
    return path


def _sha256s(*blobs: bytes) -> list[str]:
    return [hashlib.sha256(blob).hexdigest() for blob in blobs]


@pytest.mark.parametrize("algorithm", ["kmeans", "hier"])
def test_clean_rewrites_respelled_rows_at_any_chunk_size(
    tmp_path, capsys, monkeypatch, many_cpus, algorithm
):
    """Chunks of 1 and 7 rows, at one and two workers, write the cleaned
    table and report that reference_read_flow_table, clean and
    write_flow_table give: each row as write_flow_table writes it, and no
    row of the DNS flow, which DPI discards though its row is found."""
    flows = _respelled_table(tmp_path, monkeypatch)
    dns_line = len(_RESPELLABLE) + 1
    table = index_flow_table(flows)
    assert dns_line in read_flow_lines(table, table.records).rewritten
    with pytest.MonkeyPatch.context() as patch:
        _compose(patch, "utf-8")
        expected = _clean_run(capsys, flows, tmp_path / "oracle", 1, algorithm, "utf-8")
    assert expected[0] == 0 and expected[3]["b"]["dpi_discarded"] == 1
    assert _sha256s(expected[2]) == [_RESPELLED_CLEANED[algorithm]]
    rows = expected[2].split(b"\r\n")[1:-1]
    canonical = {format_flow_row(flow)[:-2].encode() for flow in _RESPELLABLE[:-1]}
    assert rows and set(rows) <= canonical
    for size in (1, 7):
        for threads in (1, 2):
            with pytest.MonkeyPatch.context() as patch:
                _chunks_of(patch, size)
                run = tmp_path / f"{size}-{threads}"
                assert _clean_run(capsys, flows, run, threads, algorithm, "utf-8") == expected


def test_train_rewrites_respelled_rows_at_any_chunk_size(tmp_path, monkeypatch, many_cpus):
    """Chunks of 1 and 7 rows, at one and two workers, write the model and
    holdout that the table of the same flows, as write_flow_table writes
    them, gives."""
    flows = _respelled_table(tmp_path, monkeypatch)
    canonical = tmp_path / "canonical.csv"
    write_flow_table(_RESPELLABLE, canonical)

    def train(table: Path, out: Path, threads: int) -> list[bytes]:
        args = ["train", "--flows", str(table), "--trees", "3", "--threads", str(threads)]
        assert main([*args, "--out", str(out)]) == 0
        return [(out / name).read_bytes() for name in ("model.json", "holdout.csv")]

    expected = train(canonical, tmp_path / "canonical", 1)
    assert _sha256s(*expected) == _RESPELLED_TRAINED
    for size in (1, 7):
        for threads in (1, 2):
            with pytest.MonkeyPatch.context() as patch:
                _chunks_of(patch, size)
                assert train(flows, tmp_path / f"{size}-{threads}", threads) == expected


def test_chunks_cut_the_table_into_equal_runs_in_order(monkeypatch):
    assert select_mod._chunk_size(100_000, 2) == 6250
    monkeypatch.setattr(select_mod, "_chunk_size", lambda flows, workers: 7)
    assert select_mod._chunks(30, 2) == [
        slice(0, 6), slice(6, 12), slice(12, 18), slice(18, 24), slice(24, 30)
    ]
    assert select_mod._chunks(7, 2) == [slice(0, 7)]
    assert select_mod._chunks(0, 2) == []


# runs of labels b, a and c in the file: of the chunks of 4 of these 18
# rows, one starts inside b's run and one holds the end of a's and the
# start of c's
_RUNS = [_row(i, "b" if i < 7 else "a" if i < 12 else "c") for i in range(18)]


def test_clean_gathers_each_app_from_chunks_that_cut_its_run(tmp_path, capsys, many_cpus):
    flows = tmp_path / "flows.csv"
    flows.write_bytes(_table(*_RUNS))
    with pytest.MonkeyPatch.context() as patch:
        _compose(patch)
        expected = _clean_run(capsys, flows, tmp_path / "oracle", 1)
    assert expected[0] == 0 and set(expected[3]) == {"a", "b", "c"}
    for threads in (1, 2):
        with pytest.MonkeyPatch.context() as patch:
            _chunks_of(patch, 4)
            chunks = select_mod._chunks(len(_RUNS), threads)
            assert chunks[:4] == [slice(0, 3), slice(3, 7), slice(7, 10), slice(10, 14)]
            assert _clean_run(capsys, flows, tmp_path / f"t{threads}", threads) == expected


# line 13 repeats line 3's flow_id: both are app a's, in its first and second chunk of 7
_REPEAT_ACROSS_CHUNKS = _table(*[_row(i, "a") for i in range(11)], _row(1, "a"), _row(11, "a"))
# line 3 has no label and line 14 of app a is bad: the bad row wins
_NO_LABEL_THEN_BAD_ROW = _table(
    _row(0, "a"), _row(1, ""), *[_row(i, "a") for i in range(2, 12)], _row(12, "a", bytes_out=-5)
)


_ACROSS_CHUNKS = {
    "repeat across chunks":
        (_REPEAT_ACROSS_CHUNKS, "line 13: duplicate flow_id 1, first on line 3"),
    "no label, then a bad row": (_NO_LABEL_THEN_BAD_ROW, "line 14: bytes_out is negative: -5"),
}


@pytest.mark.parametrize(
    "command, data, error",
    [
        # clean's cases keep their plain names
        pytest.param(command, data, error, id=name if command == "clean" else f"{command}: {name}")
        for command in ("clean", "train", "eval")
        for name, (data, error) in _ACROSS_CHUNKS.items()
    ],
)
def test_clean_names_the_error_read_flow_table_names_across_chunks(
    tmp_path, capsys, many_cpus, command, data, error
):
    flows = tmp_path / "flows.csv"
    flows.write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        _compose(patch)
        expected = _clean_run(capsys, flows, tmp_path / "oracle", 1)
    assert expected == (1, f"error: {flows}: {error}\n", None, None)
    for threads in (1, 2):
        with pytest.MonkeyPatch.context() as patch:
            _chunks_of(patch, 7)
            if command == "clean":
                run = _clean_run(capsys, flows, tmp_path / f"t{threads}", threads)
            else:
                args = _reads_table(tmp_path, command, flows)
                if command == "train":  # eval has no --threads: it parses in process
                    args += ["--threads", str(threads)]
                capsys.readouterr()
                run = (main(args), capsys.readouterr().err, None, None)
            assert run == expected


def test_clean_reads_a_nul_and_a_long_field_as_csv_reads_them(tmp_path, capsys):
    flows = tmp_path / "flows.csv"
    flows.write_bytes(_table(
        *_APPS[:3],
        _row(20, "a").replace(b",tcp,", b",t\0cp,"),
        _row(21, "b", client_payload_prefix=bytes(40)),
    ))
    # csv.reader refuses a field longer than this: line 6's 80 hex digits
    limit = csv.field_size_limit(64)
    try:
        with pytest.MonkeyPatch.context() as patch:
            _compose(patch)
            expected = _clean_run(capsys, flows, tmp_path / "oracle", 1)
        assert expected[0] == 1
        for threads in (1, 2):
            assert _clean_run(capsys, flows, tmp_path / f"t{threads}", threads) == expected
    finally:
        csv.field_size_limit(limit)


def _unclusterable(values, *args):
    raise UnclusterableMatrix(f"{len(values)} rows")


def test_clean_raises_the_lower_labels_clustering_error(tmp_path, capsys, many_cpus, monkeypatch):
    # app b's 9 rows come first in the file, app a's 12 after them
    flows = tmp_path / "flows.csv"
    flows.write_bytes(_table(*[_row(i, "b") for i in range(9)], *[_row(i, "a") for i in range(9, 21)]))
    # patched before the pools fork, so every worker inherits it
    monkeypatch.setattr(select_mod, "kmeans", _unclusterable)
    _chunks_of(monkeypatch, 7)
    for threads in (1, 2):
        assert _clean_run(capsys, flows, tmp_path / f"t{threads}", threads) == (
            1, "error: 12 rows\n", None, None
        )


@pytest.mark.parametrize("algorithm", ["hier", "kmeans"])
def test_concurrent_hier_matrices_are_capped_by_physical_memory(
    tmp_path, scenario_file, capsys, many_cpus, monkeypatch, algorithm
):
    flows = synth_into(tmp_path, scenario_file) / "flows.csv"
    expected = _clean_run(capsys, flows, tmp_path / "free", 3, algorithm)
    # the largest app's rows after DPI: hier holds an n x n float64 matrix of them
    largest = max(app["input"] - app["dpi_discarded"] for app in expected[3].values())
    workers = []
    fork_map = select_mod.fork_map
    monkeypatch.setattr(
        select_mod,
        "fork_map",
        lambda task, n_items, count: workers.append(count) or fork_map(task, n_items, count),
    )
    for fit, cap in ((1, 1), (2, 2), (5, 3)):
        monkeypatch.setattr(cluster_mod, "_physical_memory_bytes", lambda: fit * largest**2 * 8)
        workers.clear()
        assert _clean_run(capsys, flows, tmp_path / f"fit{fit}", 3, algorithm) == expected
        # phase 1, then phase 2
        assert workers == [3, cap if algorithm == "hier" else 3]


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


def test_eval_empty_flow_table(tmp_path, scenario_file, capsys):
    synth_dir = synth_into(tmp_path, scenario_file)
    model_dir = tmp_path / "model"
    assert main(["train", "--flows", str(synth_dir / "flows.csv"),
                 "--trees", "5", "--out", str(model_dir)]) == 0
    from flowclean.ingest import write_flow_table

    empty = tmp_path / "empty.csv"
    write_flow_table([], empty)
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_dir / "model.json"),
               "--flows", str(empty), "--out", str(tmp_path / "e")])
    assert rc == 1
    assert capsys.readouterr().err == "error: test set is empty\n"


def test_train_empty_flow_table(tmp_path, capsys):
    # a header-only table has no phase-1 chunks, and so no rows and no labels
    empty = tmp_path / "empty.csv"
    write_flow_table([], empty)
    rc = main(["train", "--flows", str(empty), "--out", str(tmp_path / "m")])
    assert rc == 1
    assert capsys.readouterr().err == "error: need >= 2 classes, got []\n"
    assert not (tmp_path / "m" / "model.json").exists()


def test_eval_requires_both_flags(tmp_path):
    assert main(["eval", "--out", str(tmp_path)]) == 1


def test_eval_refuses_a_flow_without_a_label(tmp_path, scenario_file, capsys):
    flows = synth_into(tmp_path, scenario_file) / "flows.csv"
    model_dir = tmp_path / "model"
    assert main(["train", "--flows", str(flows), "--trees", "10", "--out", str(model_dir)]) == 0
    holdout = model_dir / "holdout.csv"
    lines = holdout.read_bytes().split(b"\r\n")
    blanked = []
    for i in (3, 8):
        fields = lines[i].split(b",")
        fields[1] = b""
        lines[i] = b",".join(fields)
        blanked.append(int(fields[0]))
    holdout.write_bytes(b"\r\n".join(lines))
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_dir / "model.json"), "--flows", str(holdout),
               "--out", str(tmp_path / "e")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: flow {blanked[0]} has no app label\n"
    assert not (tmp_path / "e" / "metrics.json").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_train_and_eval_hold_no_records(tmp_path, scenario_file, many_cpus, monkeypatch, threads):
    # both read the table as clean does: its records are parsed in phase-1 chunks
    monkeypatch.setattr(cli_mod, "read_flow_table", _unreachable)
    monkeypatch.setattr(cli_mod.classify, "dataset", _unreachable)
    flows = synth_into(tmp_path, scenario_file) / "flows.csv"
    out = tmp_path / "out"
    assert main(["train", "--flows", str(flows), "--trees", "3", "--threads", threads,
                 "--out", str(out)]) == 0
    assert main(["eval", "--model", str(out / "model.json"), "--flows", str(out / "holdout.csv"),
                 "--out", str(out)]) == 0
    assert (out / "metrics.json").is_file()


def test_train_writes_holdout_rows_as_write_flow_table_writes_them(tmp_path, many_cpus):
    # _MANY pads a port and upper-cases hex on every fifth row; every third
    # row also gets a label quoted without need
    rows = [_quoted_label(row) if i % 3 == 0 else row for i, row in enumerate(_MANY)]
    flows = tmp_path / "flows.csv"
    flows.write_bytes(_table(*rows))
    records = reference_read_flow_table(flows)
    labels = [flow.app_label for flow in records]
    _, test_rows = cli_mod.classify.split(labels, train_frac=0.75, seed=42)
    expected = tmp_path / "expected.csv"
    write_flow_table([records[i] for i in test_rows], expected)
    # some held-out rows are rewritten
    assert not set(expected.read_bytes().split(b"\r\n")) <= set(flows.read_bytes().split(b"\r\n"))
    for threads in ("1", "2"):
        with pytest.MonkeyPatch.context() as patch:
            _chunks_of(patch, 7)
            out = tmp_path / f"t{threads}"
            assert main(["train", "--flows", str(flows), "--trees", "2", "--threads", threads,
                         "--out", str(out)]) == 0
        assert (out / "holdout.csv").read_bytes() == expected.read_bytes()


def test_labels_that_differ_by_a_trailing_nul_stay_two_classes(tmp_path):
    flows = tmp_path / "flows.csv"
    flows.write_bytes(_table(*[_row(i, "a" if i % 2 else "a\0") for i in range(24)]))
    out = tmp_path / "out"
    assert main(["train", "--flows", str(flows), "--trees", "2", "--out", str(out)]) == 0
    assert main(["eval", "--model", str(out / "model.json"), "--flows", str(out / "holdout.csv"),
                 "--out", str(out)]) == 0
    for name in ("model.json", "metrics.json"):
        assert json.loads((out / name).read_text())["labels"] == ["a", "a\0"]


# sha256 of what train --trees 20 and then eval write for the default scenario
_PINNED_CLASSIFIER_FILES = {
    "model.json": "cf1cd29418be85b6f8d4f3fee2c83424a93b50e4b93140d32e767f15d9f0f62a",
    "holdout.csv": "9a323ed9f41f4fcf5aec36f2f286dcfb90628de6aeef8dd7d2ca5048e08b9760",
    "metrics.json": "0d9bccbf00b429d03016ef3f956550e8ee318c17a313d77bfcbc794802df401d",
}


def test_train_and_eval_write_the_pinned_bytes(tmp_path, many_cpus):
    assert main(["synth", "--out", str(tmp_path)]) == 0
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        assert main(["train", "--flows", str(tmp_path / "flows.csv"), "--trees", "20",
                     "--threads", threads, "--out", str(out)]) == 0
        assert main(["eval", "--model", str(out / "model.json"),
                     "--flows", str(out / "holdout.csv"), "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in _PINNED_CLASSIFIER_FILES}
        assert digests == _PINNED_CLASSIFIER_FILES


# sha256 of what clean --algorithm hier writes for the default scenario at
# each linkage; every app keeps 1500 flows after DPI, which makes about
# 1500 merges per app on real features, far more than the hypothesis
# oracle in test_cluster reaches
_PINNED_HIER_CLEANED = {
    "ward": "14610c9339bba26d864904c424191d706e1c344d65afc43b082496c6197bf533",
    "average": "7f71c51d9dc341e7bd0fb37ce8266d477096f6a4cde6605c19b7b33e65510b6d",
    "complete": "fffb036d161777b049ed3514df10f07e7ca729ff0dc82005b3797b42686d848d",
}


def test_hier_clean_writes_the_pinned_bytes_at_every_linkage(tmp_path):
    assert main(["synth", "--out", str(tmp_path)]) == 0
    for linkage, digest in _PINNED_HIER_CLEANED.items():
        out = tmp_path / linkage
        assert main(["clean", "--flows", str(tmp_path / "flows.csv"), "--algorithm", "hier",
                     "--linkage", linkage, "--out", str(out)]) == 0
        apps = json.loads((out / "clean_report.json").read_text())["apps"]
        assert {counts["input"] - counts["dpi_discarded"] for counts in apps.values()} == {1500}
        assert hashlib.sha256((out / "cleaned.csv").read_bytes()).hexdigest() == digest


@pytest.fixture()
def trained(tmp_path, scenario_file):
    """A model.json of 2 trees and its holdout table, from `flowclean train`."""
    flows = synth_into(tmp_path, scenario_file) / "flows.csv"
    out = tmp_path / "model"
    assert main(["train", "--flows", str(flows), "--trees", "2", "--out", str(out)]) == 0
    doc = json.loads((out / "model.json").read_text())
    # every case below edits the root, which must split
    assert doc["trees"][0]["feature"][0] >= 0
    return out / "model.json", out / "holdout.csv", doc


def _drop_config(doc):
    del doc["config"]


def _one_label(doc):
    doc["labels"] = doc["labels"][:1]


def _reorder_features(doc):
    doc["feature_names"].reverse()


def _add_tree(doc):
    doc["config"]["n_trees"] += 1


def _ragged_tree(doc):
    doc["trees"][1]["threshold"].pop()


def _feature_out_of_range(doc):
    doc["trees"][0]["feature"][0] = 8


def _child_out_of_range(doc):
    doc["trees"][0]["right"][0] = len(doc["trees"][0]["right"])


def _left_child_is_itself(doc):
    doc["trees"][0]["left"][0] = 0


def _wide_histogram_row(doc):
    doc["trees"][0]["histogram"][0].append(0)


def _huge_child(doc):
    doc["trees"][0]["right"][0] = 10**30  # past int64


def _huge_count(doc):
    doc["trees"][0]["histogram"][0][0] = 10**30


def _no_trees(doc):
    doc["trees"], doc["config"]["n_trees"] = [], 0


def _config(key, value):
    def edit(doc):
        doc["config"][key] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(None, "not a forest model: Expecting value", id="not-json"),
    pytest.param(_drop_config, "missing key 'config'", id="missing-key"),
    pytest.param(_one_label, "labels ['alpha'] are not", id="labels"),
    pytest.param(_reorder_features, "feature_names [", id="feature-names"),
    pytest.param(_add_tree, "n_trees is 3 but there are 2 trees", id="n-trees"),
    pytest.param(_ragged_tree, "tree 1: node arrays have lengths", id="ragged"),
    pytest.param(_feature_out_of_range, "tree 0 node 0: feature 8,", id="feature"),
    pytest.param(_child_out_of_range, "tree 0 node 0: feature", id="child"),
    pytest.param(_wide_histogram_row,
                 "tree 0 node 0: histogram row has 3 counts for 2 labels",
                 id="histogram"),
    # numpy's OverflowError says "too large" or "out of bounds", by version
    pytest.param(_huge_child, "tree 0: ", id="huge-child"),
    pytest.param(_huge_count, "tree 0: ", id="huge-count"),
    pytest.param(_no_trees, "config: n_trees must be >= 1, got 0", id="no-trees"),
    pytest.param(_config("max_depth", -5), "config: max_depth must be >= 1, got -5",
                 id="max-depth"),
    pytest.param(_config("features_per_split", 99),
                 "config: features_per_split must be in [1, 8], got 99", id="features-per-split"),
    pytest.param(_config("seed", 1.7), "config: seed is 1.7, not an integer", id="seed"),
    pytest.param(_config("min_leaf", True), "config: min_leaf is true, not an integer",
                 id="bool"),
    pytest.param(_config("n_trees", "2"), 'config: n_trees is "2", not an integer',
                 id="string"),
])
def test_eval_rejects_a_malformed_model(trained, tmp_path, capsys, edit, message):
    model, holdout, doc = trained
    if edit is None:
        model.write_text("not json")
    else:
        edit(doc)
        model.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["eval", "--model", str(model), "--flows", str(holdout),
               "--out", str(tmp_path / "e")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {model}: {message}")
    assert not (tmp_path / "e" / "metrics.json").exists()


def test_eval_rejects_a_self_looping_model_without_hanging(trained, tmp_path):
    # before models were checked, this model made eval loop forever, so it
    # runs in a process the timeout can kill
    model, holdout, doc = trained
    _left_child_is_itself(doc)
    model.write_text(json.dumps(doc))
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "flowclean.cli", "eval", "--model", str(model),
         "--flows", str(holdout), "--out", str(tmp_path / "e")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: {model}: tree 0 node 0: feature")


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
        "train",
        *(f"eval_{arm}" for arm in ("uncleaned", "oracle", "kmeans")),
    }
    # wall-clock timings stay outside the content hash
    assert report["content_sha256"] == _canonical_sha256(
        {"config": report["config"], "arms": report["arms"]}
    )
    assert (out1 / "compare_metrics.csv").is_file()
    assert (out1 / "compare_timings.csv").is_file()
    table = capsys.readouterr().out
    assert "uncleaned" in table and "oracle" in table
    assert "\nstage " in table and "\ntrain " in table and "\neval_oracle " in table

    out2 = tmp_path / "cmp2"
    assert main(["compare", "--scenario", str(scenario_file),
                 "--algorithm", "kmeans", "--out", str(out2)]) == 0
    second = json.loads((out2 / "compare_report.json").read_text())
    assert second["content_sha256"] == report["content_sha256"]
    assert second["arms"] == report["arms"]
    assert second["forest"] == report["forest"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_compare_holds_no_forest(tmp_path, scenario_file, many_cpus, monkeypatch, threads):
    # each arm's trees are grown and score its test rows in the same workers
    for name in ("train", "evaluate", "ForestModel"):
        monkeypatch.setattr(cli_mod.classify, name, _unreachable)
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", str(scenario_file), "--algorithm", "kmeans",
                 "--threads", threads, "--out", str(out)]) == 0
    report = json.loads((out / "compare_report.json").read_text())
    # what classify.train, then classify.evaluate, made of each arm
    assert report["content_sha256"] == (
        "c903bb242ae97a7396d8c2aab8fcd2c6db225a62757d4180de659c9f23dba710"
    )
    assert report["forest"] == {
        "uncleaned": {"trees": 100, "nodes": 2870, "leaves": 1485, "depth": 10},
        "oracle": {"trees": 100, "nodes": 1318, "leaves": 709, "depth": 7},
        "kmeans": {"trees": 100, "nodes": 1318, "leaves": 709, "depth": 7},
    }


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


def test_only_table_cleaning_forks_for_phase_1(tmp_path, scenario_file, many_cpus, monkeypatch):
    """clean(flows) makes one fork_map call, for its apps; clean_table
    two, for its chunks and its apps; compare with both cleaners three,
    two cleaners' apps and the forests."""
    calls = []
    fork_map = parallel.fork_map

    def counted(task, n_items, workers):
        calls.append(n_items)
        return fork_map(task, n_items, workers)

    # select calls its imported name, classify the module attribute
    monkeypatch.setattr(select_mod, "fork_map", counted)
    monkeypatch.setattr(parallel, "fork_map", counted)
    path = synth_into(tmp_path, scenario_file) / "flows.csv"
    counts = []
    for run in (
        lambda: clean(read_flow_table(path), threads=2),
        lambda: clean_table(index_flow_table(path), threads=2),
        lambda: run_compare(read_scenario(scenario_file),
                            [Algorithm.KMEANS, Algorithm.HIERARCHICAL], threads=2),
    ):
        calls.clear()
        run()
        counts.append(len(calls))
    assert counts == [1, 2, 3]


def _app_flows(flows, label, n=None):
    return [flow for flow in flows if flow.app_label == label][:n]


# What a cleaner keeps, the error its arm then raises in compare at
# train_frac 0.9, and the error's message
_ARM_FAULTS = {
    # one app: the training set has one class
    "one_app": (lambda flows: _app_flows(flows, "alpha"),
                SingleClass, r"^need >= 2 classes, got \['alpha'\]$"),
    # three flows of beta: too few to split
    "three_beta": (lambda flows: _app_flows(flows, "alpha") + _app_flows(flows, "beta", 3),
                   LabelTooSmall, r"^label 'beta' has 3 flows, need >= 4$"),
    # four flows of each app: every one goes to training
    "four_each": (lambda flows: _app_flows(flows, "alpha", 4) + _app_flows(flows, "beta", 4),
                  EmptyTest, r"^test set is empty$"),
}


@needs_fork_and_proc
@pytest.mark.parametrize("first, second", itertools.permutations(_ARM_FAULTS, 2))
def test_compare_raises_the_first_failing_arms_error(
    scenario_file, many_cpus, monkeypatch, first, second
):
    # the arms are checked in order, uncleaned, oracle, then the cleaners'
    faults = {Algorithm.KMEANS: first, Algorithm.HIERARCHICAL: second}

    def faulty(flows, algorithm, **kwargs):
        _, report = clean(flows, algorithm=algorithm, **kwargs)
        return _ARM_FAULTS[faults[algorithm]][0](flows), report

    monkeypatch.setattr(cli_mod, "clean", faulty)
    _, error, message = _ARM_FAULTS[first]
    before = child_processes()
    with pytest.raises(error, match=message):
        run_compare(read_scenario(scenario_file), [Algorithm.KMEANS, Algorithm.HIERARCHICAL],
                    train_frac=0.9, threads=2)
    assert_no_child_left(before)


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


# --- text inputs ---------------------------------------------------------

# each text input as a flag, the subcommand that reads it, and a valid body
TEXT_INPUTS = {
    "--policy": ("clean", "keep ratio > 0.9\n"),
    "--blocklist": ("clean", "example.com\n"),
    "--config": ("clean", "k = 4\n"),
    "--tags": ("ingest", "mac 02:00:00:00:00:aa chat-app\n"),
    "--scenario": ("synth", SCENARIO),
}


def _run_with_text_input(tmp_path, scenario_file, flag, data: bytes) -> int:
    command, _ = TEXT_INPUTS[flag]
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    argv = [command, flag, str(path), "--out", str(tmp_path / "out")]
    if command == "clean":
        argv += ["--flows", str(synth_into(tmp_path, scenario_file) / "flows.csv")]
    elif command == "ingest":
        frame = tcp4_frame("192.168.0.2", "10.0.0.1", 40000, 443, payload=b"x",
                           src_mac=b"\x02\x00\x00\x00\x00\xaa")
        pcap = tmp_path / "capture.pcap"
        pcap.write_bytes(pcap_bytes([(0, 0, frame)]))
        argv += ["--pcap", str(pcap)]
    return main(argv)


@pytest.mark.parametrize("flag", list(TEXT_INPUTS))
def test_text_input_byte_the_encoding_rejects_names_file_and_line(
    tmp_path, scenario_file, capsys, flag
):
    encoding = locale.getpreferredencoding(False)
    rejected = []
    for value in range(256):
        try:
            bytes([value]).decode(encoding)
        except UnicodeDecodeError:
            rejected.append(bytes([value]))
    if not rejected:
        pytest.skip(f"{encoding} accepts every byte")
    body = TEXT_INPUTS[flag][1].encode(encoding)
    data = b"# a comment\n# " + rejected[-1] + b"\n" + body
    capsys.readouterr()
    assert _run_with_text_input(tmp_path, scenario_file, flag, data) == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'input.txt'}:2: ")


@pytest.mark.parametrize("flag", list(TEXT_INPUTS))
def test_text_input_comment_keeps_unicode_line_separators(
    tmp_path, scenario_file, capsys, flag
):
    # str.splitlines() would end a line at each of these; "* *" is an
    # error in every format, so the run fails unless it stays comment
    encoding = locale.getpreferredencoding(False)
    comment = "# x"
    for separator in "\x0c\x1c\x85\u2028":
        try:
            separator.encode(encoding)
        except UnicodeEncodeError:
            continue
        comment += separator + "* *"
    data = (TEXT_INPUTS[flag][1] + comment + "\n").encode(encoding)
    assert _run_with_text_input(tmp_path, scenario_file, flag, data) == 0, (
        capsys.readouterr().err
    )


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
