"""Tests for the synthetic capture generator."""

import csv
import dataclasses
import hashlib
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowclean import synth
from flowclean.cli import main
from flowclean.dpi import DEFAULT_BLOCKLIST, VerdictKind, classify_flow
from flowclean.errors import InvalidSpec, ParseError
from flowclean.ingest import FlowKey, FlowRecord, TCP, UDP, write_flow_table
from flowclean.rng import derive
from flowclean.synth import (
    AppSpec,
    DEFAULT_ROLE_MIX,
    Role,
    ROLE_ORDER,
    RoleSpec,
    ScenarioSpec,
    build_dns_query,
    default_scenario,
    default_specs,
    generate,
    oracle_clean,
    read_scenario,
    write_roles,
)

from scalar_rng import ScalarStream


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


def test_synth_seed_42_files_are_pinned(tmp_path):
    # the stream is part of the contract: any drift in generate moves these
    assert main(["synth", "--seed", "42", "--out", str(tmp_path)]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("flows.csv", "roles.csv")
    }
    assert digests == {
        "flows.csv": "1dc960ccc77cedea051654736bce2f4feb561b6999b81ff99c209ebb5fc86918",
        "roles.csv": "cb2d8916601a01f6a20d033d47e0b04cd36ce61a3a0222c42b72217ebb68d6c5",
    }


# --- per-flow oracle ----------------------------------------------------
# The generator written flow by flow: each flow draws its numbers one at a
# time from the scalar stream. generate, which draws each role as one
# block, must give the same flows bit for bit.


def build_client_hello(sni, rng):
    """TLS 1.2 ClientHello record, optionally carrying an SNI."""
    random_bytes = struct.pack(">4Q", *(rng.next_u64() for _ in range(4)))
    session_id = struct.pack(">4Q", *(rng.next_u64() for _ in range(4)))
    cipher_suites = struct.pack(
        ">8H", 0x1301, 0x1302, 0x1303, 0xC02B, 0xC02F, 0xC02C, 0xC030, 0x00FF
    )
    extensions = b""
    if sni is not None:
        host = sni.encode("ascii")
        entry = b"\x00" + struct.pack(">H", len(host)) + host
        server_name_list = struct.pack(">H", len(entry)) + entry
        extensions += struct.pack(">HH", 0, len(server_name_list)) + server_name_list
    # a benign non-SNI extension so "SNI absent" is not "no extensions"
    sigalgs = struct.pack(">H", 4) + struct.pack(">HH", 0x0403, 0x0804)
    extensions += struct.pack(">HH", 13, len(sigalgs)) + sigalgs

    body = (
        b"\x03\x03"
        + random_bytes
        + bytes([len(session_id)])
        + session_id
        + struct.pack(">H", len(cipher_suites))
        + cipher_suites
        + b"\x01\x00"  # null compression only
        + struct.pack(">H", len(extensions))
        + extensions
    )
    handshake = b"\x01" + len(body).to_bytes(3, "big") + body
    return b"\x16\x03\x01" + struct.pack(">H", len(handshake)) + handshake


def _server_hello_prefix(rng):
    filler = struct.pack(">2Q", rng.next_u64(), rng.next_u64())
    return b"\x16\x03\x03" + struct.pack(">H", 48) + b"\x02" + filler


def _opaque_prefix(rng):
    return b"\xc3" + struct.pack(">2Q", rng.next_u64(), rng.next_u64())[:15]


def _role_payloads(role, app_label, rng):
    if role is Role.DATA_PLANE:
        sni = f"v{1 + rng.next_below(4)}.cdn.{app_label}.example"
        return build_client_hello(sni, rng), _server_hello_prefix(rng)
    if role is Role.HEARTBEAT:
        return build_client_hello(None, rng), _server_hello_prefix(rng)
    if role is Role.DNS:
        host = f"svc{rng.next_below(20)}.{app_label}.example"
        txid = rng.next_below(0x10000)
        query = build_dns_query(host, txid)
        response = struct.pack(">HHHHHH", txid, 0x8180, 1, 1, 0, 0) + query[12:]
        return query, response
    if role is Role.BACKGROUND_TLS:
        sni = synth._SERVICE_HOSTNAMES[rng.next_below(len(synth._SERVICE_HOSTNAMES))]
        return build_client_hello(sni, rng), _server_hello_prefix(rng)
    return _opaque_prefix(rng), _opaque_prefix(rng)


def _draw_side(rng, mean_bytes, sigma):
    return max(1, int(round(rng.lognormal(mean_bytes, sigma))))


def _packets_for(rng, total_bytes, size, jitter):
    pkt = rng.normal(size, jitter)
    pkt = min(max(pkt, 80.0), 1500.0)
    return max(1, int(round(total_bytes / pkt)))


def _sample_flow_counters(spec, capture_s, rng):
    primary = _draw_side(rng, spec.primary_mean, spec.primary_sigma)
    if spec.secondary_frac is not None:
        frac = rng.lognormal(spec.secondary_frac, spec.secondary_frac_sigma)
        secondary = max(1, int(round(primary * frac)))
    else:
        secondary = _draw_side(rng, spec.secondary_mean, spec.secondary_sigma)
    pkts_primary = _packets_for(rng, primary, spec.pkt_primary, spec.pkt_primary_jitter)
    pkts_secondary = _packets_for(
        rng, secondary, spec.pkt_secondary, spec.pkt_secondary_jitter
    )
    header = 54 if spec.transport == TCP else 42
    primary = max(primary, pkts_primary * header)
    secondary = max(secondary, pkts_secondary * header)
    if spec.duration_frac is not None:
        lo, hi = spec.duration_frac
        duration = rng.uniform(lo * capture_s, hi * capture_s)
    else:
        duration = rng.uniform(spec.duration_lo_s, spec.duration_hi_s)
    duration = min(duration, capture_s)
    start = rng.uniform(0.0, max(capture_s - duration, 0.0))
    if spec.primary == "in":
        return primary, secondary, pkts_primary, pkts_secondary, start, duration
    return secondary, primary, pkts_secondary, pkts_primary, start, duration


def oracle_generate(spec):
    """generate, drawing one number at a time; validates as generate does."""
    flows, roles = [], []
    for app_index, app in enumerate(spec.apps):
        rng = ScalarStream(derive(spec.seed, app_index))
        app_flows, app_roles = [], []
        for position, role in enumerate(ROLE_ORDER):
            role_spec = app.specs.get(role)
            for i in range(app.counts.get(role, 0)):
                b_in, b_out, p_in, p_out, start, duration = _sample_flow_counters(
                    role_spec, spec.capture_duration_s, rng
                )
                if max(b_in, b_out) >= 2**53:
                    raise InvalidSpec("float64 cannot hold the byte count exactly")
                client_prefix, server_prefix = _role_payloads(role, app.label, rng)
                header = 54 if role_spec.transport == TCP else 42
                seq = len(app_flows)
                first_ts = 1_600_000_000_000_000 + int(round(start * 1e6))
                app_flows.append(FlowRecord(
                    flow_id=len(flows) + seq,
                    key=FlowKey(
                        client_ip=f"192.168.{app_index + 1}.2",
                        client_port=10_000 + seq % 50_000,
                        server_ip=f"10.{app_index + 1}.{position}.{1 + i % 250}",
                        server_port=role_spec.dst_port,
                        transport=role_spec.transport,
                    ),
                    app_label=app.label,
                    first_ts_us=first_ts,
                    last_ts_us=first_ts + int(round(duration * 1e6)),
                    bytes_in=b_in,
                    bytes_out=b_out,
                    packets_in=p_in,
                    packets_out=p_out,
                    header_bytes_total=(p_in + p_out) * header,
                    payload_bytes_total=max(b_in - p_in * header, 0)
                    + max(b_out - p_out * header, 0),
                    client_payload_prefix=client_prefix,
                    server_payload_prefix=server_prefix,
                ))
                app_roles.append(role)
        synth._validate_data_plane_ratio(app.label, app_flows, app_roles)
        flows += app_flows
        roles += app_roles
    return flows, roles


def assert_matches_oracle(spec):
    try:
        expected = oracle_generate(spec)
    except InvalidSpec:
        with pytest.raises(InvalidSpec):
            generate(spec)
        return
    flows, roles = generate(spec)
    assert roles == expected[1]
    assert flows == expected[0]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 1000),
    st.integers(1, 9),
    st.integers(0, 11),
    st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(0.0, 1e3)), min_size=4, max_size=4),
)
def test_draw_block_matches_scalar_stream(seed, first, count, payload_draws, moments):
    # every column bit for bit as SplitMix64 draws it, flow by flow, once
    # the stream has given its first `first` draws to earlier blocks
    scalar = ScalarStream(seed)
    for _ in range(first):
        scalar.next_u64()
    expected_normals, expected_uniforms, expected_payload = [], [], []
    for _ in range(count):
        expected_normals.append([scalar.normal(m, sd) for m, sd in moments])
        expected_uniforms.append([scalar.random(), scalar.random()])
        expected_payload.append([scalar.next_u64() for _ in range(payload_draws)])
    normal, uniforms, payload = synth._draw_block(seed, first, count, payload_draws)
    for q, (mean, std) in enumerate(moments):
        assert normal(q, mean, std).tolist() == [row[q] for row in expected_normals]
    assert uniforms.tolist() == expected_uniforms
    assert payload.tolist() == expected_payload
    # four normals per flow use up every pair: nothing carries into the next block
    assert scalar._spare_normal is None


def test_generate_takes_transcendentals_from_math():
    # numpy's log and exp differ from libm in the last bit on some inputs
    # and builds; a one-ulp change rarely reaches the integer columns, so
    # only this guard keeps the stream independent of the numpy build
    def refuse(*args, **kwargs):
        raise AssertionError("generate called a numpy transcendental function")

    spec = default_scenario(n_apps=1, flows_per_app=200, seed=1)
    with mock.patch.multiple(np, log=refuse, exp=refuse, cos=refuse, sin=refuse):
        flows, _ = generate(spec)
    assert len(flows) == 200


@st.composite
def role_specs(draw, role):
    secondary = draw(st.sampled_from(["frac", "mean"]))
    positive = st.floats(1.0, 2e6)
    sigma = st.floats(0.0, 1.5)
    return RoleSpec(
        role=role,
        primary=draw(st.sampled_from(["in", "out"])),
        primary_mean=draw(positive),
        primary_sigma=draw(sigma),
        secondary_mean=draw(positive) if secondary == "mean" else None,
        secondary_sigma=draw(sigma),
        secondary_frac=draw(st.floats(1e-3, 2.0)) if secondary == "frac" else None,
        secondary_frac_sigma=draw(sigma),
        pkt_primary=draw(st.floats(40.0, 2000.0)),
        pkt_primary_jitter=draw(st.floats(0.0, 300.0)),
        pkt_secondary=draw(st.floats(40.0, 2000.0)),
        pkt_secondary_jitter=draw(st.floats(0.0, 300.0)),
        duration_lo_s=draw(st.floats(0.0, 200.0)),
        duration_hi_s=draw(st.floats(0.0, 200.0)),
        duration_frac=draw(
            st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.5))
        ),
        transport=draw(st.sampled_from([TCP, UDP])),
        dst_port=draw(st.sampled_from([53, 443])),
    )


@st.composite
def scenarios(draw):
    apps = []
    for i in range(draw(st.integers(1, 2))):
        counts = {role: draw(st.integers(0, 9)) for role in ROLE_ORDER}
        specs = {role: draw(role_specs(role)) for role in ROLE_ORDER}
        # a drawn DataPlane spec mostly fails the ratio check; a built-in
        # one lets the example compare flows
        specs[Role.DATA_PLANE] = draw(
            st.builds(synth.data_plane_spec, st.integers(0, 4))
            | role_specs(Role.DATA_PLANE)
        )
        apps.append(AppSpec(label=f"app{i}", counts=counts, specs=specs))
    return ScenarioSpec(
        apps=apps,
        capture_duration_s=draw(st.floats(1.0, 1e4)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=200, deadline=None)
@given(scenarios(), st.sampled_from([1, 2, 3, 5, synth._BLOCK_FLOWS]))
def test_generate_matches_per_flow_oracle(spec, block_flows):
    # small blocks put block boundaries inside a role
    with mock.patch.object(synth, "_BLOCK_FLOWS", block_flows):
        assert_matches_oracle(spec)


def test_mixed_scenario_matches_per_flow_oracle():
    # 5 x 2000 with a download-heavy Heartbeat that takes a secondary_frac
    spec = default_scenario(flows_per_app=2000, seed=42)
    for app in spec.apps:
        app.specs[Role.HEARTBEAT] = dataclasses.replace(
            app.specs[Role.HEARTBEAT],
            secondary_mean=None,
            secondary_frac=0.06,
            secondary_frac_sigma=0.4,
            primary_mean=300_000.0,
            pkt_primary=1000.0,
            pkt_primary_jitter=100.0,
            pkt_secondary=60.0,
            pkt_secondary_jitter=4.0,
            duration_frac=None,
            duration_lo_s=20.0,
            duration_hi_s=90.0,
        )
    assert_matches_oracle(spec)


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


def test_flow_id_is_the_flows_position_across_apps():
    # run_compare takes an arm's rows as its flows' flow_ids; here on apps of
    # unequal size that each lack some roles
    counts = [
        {Role.DATA_PLANE: 70, Role.HEARTBEAT: 5},
        {Role.DNS: 3},
        {Role.DATA_PLANE: 41, Role.HEARTBEAT: 9, Role.UPLOAD: 4},
    ]
    spec = ScenarioSpec(
        apps=[AppSpec(label=f"app{i}", counts=c, specs=default_specs(i))
              for i, c in enumerate(counts)],
        capture_duration_s=3600.0,
        seed=3,
    )
    flows, _ = generate(spec)
    assert len(flows) == sum(sum(c.values()) for c in counts)
    assert [f.flow_id for f in flows] == list(range(len(flows)))


def test_zero_count_role():
    spec = scenario_one_role(Role.DATA_PLANE, 20)
    flows, roles = generate(spec)
    assert len(flows) == 20
    assert set(roles) == {Role.DATA_PLANE}


def test_counters_valid(two_app_capture):
    flows, _ = two_app_capture
    for f in flows:
        header = 54 if f.key.transport == "tcp" else 42
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
            assert (f.key.server_port, f.key.transport) == (53, "udp")
        elif r is Role.UPLOAD:
            assert (f.key.server_port, f.key.transport) == (443, "udp")
        else:
            assert (f.key.server_port, f.key.transport) == (443, "tcp")


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


@pytest.mark.parametrize(
    "secondary",
    [{}, {"secondary_mean": 7_000.0, "secondary_frac": 0.02}],
    ids=["neither", "both"],
)
def test_role_spec_needs_exactly_one_secondary_mode(secondary):
    with pytest.raises(
        InvalidSpec, match="Heartbeat: set exactly one of secondary_mean and secondary_frac"
    ):
        RoleSpec(role=Role.HEARTBEAT, primary="in", primary_mean=9_000.0,
                 primary_sigma=0.4, **secondary)


@pytest.mark.parametrize("field, value", [("primary_mean", 1e20), ("primary_sigma", float("nan"))])
def test_generate_rejects_byte_counts_beyond_float64_integers(field, value):
    spec = dataclasses.replace(synth.UPLOAD_SPEC, **{field: value})
    with pytest.raises(InvalidSpec, match=r"Upload: a flow drew 2\*\*53 or more bytes"):
        generate(scenario_one_role(Role.UPLOAD, 3, spec=spec))


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
    with pytest.raises(ParseError, match="before any app"):
        read_scenario(path)


def test_read_scenario_unknown_role(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("app a\nrole Telemetry 5\n")
    with pytest.raises(ParseError, match="unknown role"):
        read_scenario(path)


def test_read_scenario_unrecognized_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("apps a\n")
    with pytest.raises(ParseError, match="unrecognized"):
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
    with pytest.raises(ParseError, match=rf"bad\.txt:{bad_line}: {message}"):
        read_scenario(path)
