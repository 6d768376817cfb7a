"""Tests for the synthetic capture generator."""

import csv

import numpy as np
import pytest

from flowclean.dpi import DEFAULT_BLOCKLIST, VerdictKind, classify_flow
from flowclean.errors import InvalidSpec
from flowclean.ingest import write_flow_table
from flowclean.synth import (
    AppSpec,
    DEFAULT_ROLE_MIX,
    Role,
    ROLE_ORDER,
    RoleSpec,
    ScenarioSpec,
    default_scenario,
    default_specs,
    generate,
    oracle_clean,
    read_scenario,
    write_roles,
)


def scenario_one_role(role: Role, count: int, app_index: int = 0,
                      spec: RoleSpec | None = None) -> ScenarioSpec:
    specs = default_specs(app_index)
    if spec is not None:
        specs[role] = spec
    return ScenarioSpec(
        apps=[AppSpec(label="solo", counts={role: count}, specs=specs)],
        capture_duration_s=3600.0,
        seed=11,
    )


@pytest.fixture(scope="module")
def two_app_capture():
    spec = default_scenario(n_apps=2, flows_per_app=120, seed=5)
    return generate(spec)


# --- determinism --------------------------------------------------------


def test_generate_byte_identical(tmp_path, two_app_capture):
    flows_a, roles_a = two_app_capture
    flows_b, roles_b = generate(default_scenario(n_apps=2, flows_per_app=120, seed=5))
    assert roles_a == roles_b
    assert flows_a == flows_b
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_flow_table(flows_a, pa)
    write_flow_table(flows_b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_generate_seed_changes_output():
    base = default_scenario(n_apps=1, flows_per_app=50, seed=1)
    other = default_scenario(n_apps=1, flows_per_app=50, seed=2)
    assert generate(base)[0] != generate(other)[0]


# --- structure ----------------------------------------------------------


def test_role_counts_match_mix(two_app_capture):
    flows, roles = two_app_capture
    assert len(flows) == len(roles) == 240
    for label in ("app01", "app02"):
        app_roles = [r for f, r in zip(flows, roles) if f.app_label == label]
        counts = {role: app_roles.count(role) for role in ROLE_ORDER}
        assert counts[Role.DATA_PLANE] == 66
        assert counts[Role.HEARTBEAT] == 18
        assert counts[Role.DNS] == 18
        assert counts[Role.BACKGROUND_TLS] == 12
        assert counts[Role.UPLOAD] == 6


def test_role_mix_sums_to_one():
    assert sum(DEFAULT_ROLE_MIX.values()) == pytest.approx(1.0)


def test_flow_ids_sequential(two_app_capture):
    flows, _ = two_app_capture
    assert [f.flow_id for f in flows] == list(range(240))


def test_zero_count_role():
    spec = scenario_one_role(Role.DATA_PLANE, 20)
    flows, roles = generate(spec)
    assert len(flows) == 20
    assert set(roles) == {Role.DATA_PLANE}


def test_counters_valid(two_app_capture):
    flows, _ = two_app_capture
    for f in flows:
        header = 54 if f.transport == "tcp" else 42
        assert f.packets_in >= 1 and f.packets_out >= 1
        assert f.bytes_in >= f.packets_in * header
        assert f.bytes_out >= f.packets_out * header
        assert f.last_ts_us >= f.first_ts_us
        assert f.header_bytes_total == (f.packets_in + f.packets_out) * header
        assert (
            f.payload_bytes_total
            == f.bytes_in + f.bytes_out - f.header_bytes_total
        )


def test_endpoints_by_app_and_role(two_app_capture):
    flows, roles = two_app_capture
    for f, r in zip(flows, roles):
        app_index = int(f.app_label[-2:]) - 1
        assert f.key.client_ip == f"192.168.{app_index + 1}.2"
        assert f.key.server_ip.startswith(f"10.{app_index + 1}.")
        if r is Role.DNS:
            assert f.dst_port == 53 and f.transport == "udp"
        elif r is Role.UPLOAD:
            assert f.dst_port == 443 and f.transport == "udp"
        else:
            assert f.dst_port == 443 and f.transport == "tcp"


def test_capture_window_respected(two_app_capture):
    flows, _ = two_app_capture
    base = min(f.first_ts_us for f in flows)
    for f in flows:
        assert (f.last_ts_us - base) / 1e6 <= 7200.0 + 1e-6


# --- verdicts by construction -------------------------------------------


def test_intended_verdict_per_role(two_app_capture):
    flows, roles = two_app_capture
    for f, r in zip(flows, roles):
        verdict = classify_flow(f)
        if r is Role.DATA_PLANE:
            assert verdict.kind is VerdictKind.TLS_WITH_SNI
            assert verdict.sni.endswith(f".cdn.{f.app_label}.example")
            assert not DEFAULT_BLOCKLIST.matches(verdict.sni)
        elif r is Role.HEARTBEAT:
            assert verdict.kind is VerdictKind.TLS_NO_SNI
        elif r is Role.DNS:
            assert verdict.kind is VerdictKind.PLAINTEXT_DNS
        elif r is Role.BACKGROUND_TLS:
            assert verdict.kind is VerdictKind.TLS_WITH_SNI
            assert DEFAULT_BLOCKLIST.matches(verdict.sni)
        else:
            assert verdict.kind is VerdictKind.OTHER_ENCRYPTED_ASSUMED


def test_data_plane_flows_download_heavy(two_app_capture):
    flows, roles = two_app_capture
    dp = [f for f, r in zip(flows, roles) if r is Role.DATA_PLANE]
    heavy = sum(
        (f.bytes_in - f.bytes_out) / (f.bytes_in + f.bytes_out) > 0.9 for f in dp
    )
    assert heavy / len(dp) >= 0.95


# --- distribution sanity -------------------------------------------------


def test_data_plane_byte_mean():
    flows, _ = generate(scenario_one_role(Role.DATA_PLANE, 1000))
    mean = np.mean([f.bytes_in for f in flows])
    assert abs(mean - 400_000.0) / 400_000.0 < 0.10


def test_upload_byte_mean():
    flows, _ = generate(scenario_one_role(Role.UPLOAD, 1000))
    mean = np.mean([f.bytes_out for f in flows])
    assert abs(mean - 350_000.0) / 350_000.0 < 0.10


def test_data_plane_duration_window():
    flows, _ = generate(scenario_one_role(Role.DATA_PLANE, 200, app_index=0))
    for f in flows:
        duration = (f.last_ts_us - f.first_ts_us) / 1e6
        assert 20.0 - 1e-6 <= duration <= 55.0 + 1e-6


# --- validation ---------------------------------------------------------


def test_generate_empty_scenario():
    with pytest.raises(InvalidSpec):
        generate(ScenarioSpec(apps=[], capture_duration_s=60.0, seed=1))


def test_generate_bad_capture_duration():
    spec = scenario_one_role(Role.DNS, 5)
    for duration in (0.0, -1.0, float("nan"), float("inf")):
        spec.capture_duration_s = duration
        with pytest.raises(InvalidSpec, match="positive finite"):
            generate(spec)


def test_generate_duplicate_labels():
    app = AppSpec(label="dup", counts={Role.DNS: 5}, specs=default_specs(0))
    spec = ScenarioSpec(apps=[app, app], capture_duration_s=60.0, seed=1)
    with pytest.raises(InvalidSpec):
        generate(spec)


def test_generate_negative_count():
    spec = scenario_one_role(Role.DNS, -1)
    with pytest.raises(InvalidSpec):
        generate(spec)


def test_generate_missing_role_spec():
    app = AppSpec(label="x", counts={Role.HEARTBEAT: 5}, specs={})
    spec = ScenarioSpec(apps=[app], capture_duration_s=60.0, seed=1)
    with pytest.raises(InvalidSpec):
        generate(spec)


def test_generate_rejects_balanced_data_plane():
    # content traffic with a symmetric byte split trips the ratio check
    bad = RoleSpec(
        role=Role.DATA_PLANE,
        primary="in",
        primary_mean=50_000.0,
        primary_sigma=0.3,
        secondary_frac=1.0,
        secondary_frac_sigma=0.05,
    )
    with pytest.raises(InvalidSpec, match="ratio"):
        generate(scenario_one_role(Role.DATA_PLANE, 50, spec=bad))


# --- sidecar files ------------------------------------------------------


def test_roles_round_trip(tmp_path, two_app_capture):
    flows, roles = two_app_capture
    path = tmp_path / "roles.csv"
    write_roles(flows, roles, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["flow_id", "role"]
    assert rows[1:] == [[str(f.flow_id), r.value] for f, r in zip(flows, roles)]


def test_oracle_clean(two_app_capture):
    flows, roles = two_app_capture
    kept = oracle_clean(flows, roles)
    assert len(kept) == 132  # 66 DataPlane per app
    kept_ids = {f.flow_id for f in kept}
    for f, r in zip(flows, roles):
        assert (f.flow_id in kept_ids) == (r is Role.DATA_PLANE)
    with pytest.raises(ValueError):
        oracle_clean(flows, roles[:-1])


# --- scenario files -----------------------------------------------------


def test_read_scenario(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(
        "# two tiny apps\n"
        "seed 9\n"
        "capture_duration_s 600\n"
        "app alpha\n"
        "role DataPlane 30\n"
        "role Dns 10\n"
        "app beta\n"
        "role DataPlane 20\n"
    )
    spec = read_scenario(path)
    assert spec.seed == 9
    assert spec.capture_duration_s == 600.0
    assert [a.label for a in spec.apps] == ["alpha", "beta"]
    assert spec.apps[0].counts == {Role.DATA_PLANE: 30, Role.DNS: 10}
    assert spec.apps[1].counts == {Role.DATA_PLANE: 20}
    flows, roles = generate(spec)
    assert len(flows) == 60


def test_read_scenario_role_before_app(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("role DataPlane 5\n")
    with pytest.raises(InvalidSpec, match="before any app"):
        read_scenario(path)


def test_read_scenario_unknown_role(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("app a\nrole Telemetry 5\n")
    with pytest.raises(InvalidSpec, match="unknown role"):
        read_scenario(path)


def test_read_scenario_unrecognized_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("apps a\n")
    with pytest.raises(InvalidSpec, match="unrecognized"):
        read_scenario(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("role DataPlane x", "invalid literal"),
        ("role DataPlane 5\nseed s", "invalid literal"),
        ("capture_duration_s nan", "capture_duration_s must be a positive finite number"),
        ("capture_duration_s inf", "capture_duration_s must be a positive finite number"),
        ("role DataPlane 5\ncapture_duration_s 0", "capture_duration_s must be a positive"),
    ],
    ids=[
        "role DataPlane x",
        "role DataPlane 5\nseed s",
        "duration-nan",
        "duration-inf",
        "duration-zero",
    ],
)
def test_read_scenario_bad_number_names_file_and_line(tmp_path, line, message):
    path = tmp_path / "bad.txt"
    path.write_text("app a\n" + line + "\n")
    bad_line = line.count("\n") + 2
    with pytest.raises(InvalidSpec, match=rf"bad\.txt:{bad_line}: {message}"):
        read_scenario(path)
