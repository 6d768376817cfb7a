"""Seeded synthetic traffic scenarios with ground-truth flow roles.

Generates labeled FlowRecords standing in for tagged captures of real
apps. Every flow carries a hidden role; DataPlane flows are the
content traffic a cleaning pipeline should keep, the other roles are
noise it should remove. Payload prefixes are crafted so the payload
inspector classifies each role the intended way by construction:

    DataPlane     -> TLS ClientHello, app CDN hostname (kept)
    Heartbeat     -> TLS ClientHello without SNI (kept, long idle)
    Dns           -> DNS query on UDP/53 (discarded as plaintext)
    BackgroundTls -> TLS ClientHello, platform-service hostname
                     matching the default blocklist (discarded)
    Upload        -> unrecognized UDP/443 bytes (kept, upload-heavy)

Roles other than DataPlane share identical distribution parameters
across apps, so noise carries no app signal; DataPlane parameters
step per app so a classifier has something to learn.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import InvalidSpec
from .ingest import FlowKey, FlowRecord, TCP, UDP
from .rng import SplitMix64, derive

# Ethernet + IPv4 + transport header bytes per packet
_TCP_HEADER = 54
_UDP_HEADER = 42

_BASE_TS_US = 1_600_000_000_000_000

_DURATION_RULE = "capture_duration_s must be a positive finite number"


class Role(Enum):
    DATA_PLANE = "DataPlane"
    HEARTBEAT = "Heartbeat"
    DNS = "Dns"
    BACKGROUND_TLS = "BackgroundTls"
    UPLOAD = "Upload"


ROLE_ORDER = (
    Role.DATA_PLANE,
    Role.HEARTBEAT,
    Role.DNS,
    Role.BACKGROUND_TLS,
    Role.UPLOAD,
)

# hostnames for BackgroundTls flows; all match the default blocklist
_SERVICE_HOSTNAMES = (
    "api.google.com",
    "fonts.gstatic.com",
    "play.googleapis.com",
    "gsp.apple.com",
    "gateway.icloud.com",
    "speed.cloudflare.com",
)


@dataclass(frozen=True)
class RoleSpec:
    """Distribution parameters for one role's flows.

    The primary direction's wire bytes are drawn log-normally; the
    other direction is either drawn independently (secondary_mean) or
    coupled as a log-normal fraction of the primary (secondary_frac).
    Packet counts follow from bytes via a jittered mean packet size.
    Durations are uniform in seconds, or in fractions of the capture
    when duration_frac is set.
    """

    role: Role
    primary: str  # "in" or "out"
    primary_mean: float
    primary_sigma: float
    secondary_mean: float | None = None
    secondary_sigma: float = 0.3
    secondary_frac: float | None = None
    secondary_frac_sigma: float = 0.25
    pkt_primary: float = 900.0
    pkt_primary_jitter: float = 50.0
    pkt_secondary: float = 60.0
    pkt_secondary_jitter: float = 4.0
    duration_lo_s: float = 1.0
    duration_hi_s: float = 60.0
    duration_frac: tuple[float, float] | None = None
    transport: str = TCP
    dst_port: int = 443


@dataclass
class AppSpec:
    label: str
    counts: dict[Role, int]
    specs: dict[Role, RoleSpec]


@dataclass
class ScenarioSpec:
    apps: list[AppSpec]
    capture_duration_s: float
    seed: int


def data_plane_spec(app_index: int) -> RoleSpec:
    """Content-traffic parameters, stepped per app for class signal."""
    return RoleSpec(
        role=Role.DATA_PLANE,
        primary="in",
        primary_mean=400_000.0 * 1.5**app_index,
        primary_sigma=0.32,
        secondary_frac=0.02,
        secondary_frac_sigma=0.25,
        pkt_primary=900.0 + 110.0 * app_index,
        pkt_primary_jitter=45.0,
        pkt_secondary=60.0,
        pkt_secondary_jitter=4.0,
        duration_lo_s=20.0 + 20.0 * app_index,
        duration_hi_s=55.0 + 25.0 * app_index,
        transport=TCP,
        dst_port=443,
    )


# Noise roles deliberately share one parameter set across all apps.
HEARTBEAT_SPEC = RoleSpec(
    role=Role.HEARTBEAT,
    primary="in",
    primary_mean=9_000.0,
    primary_sigma=0.4,
    secondary_mean=7_000.0,
    secondary_sigma=0.4,
    pkt_primary=160.0,
    pkt_primary_jitter=30.0,
    pkt_secondary=140.0,
    pkt_secondary_jitter=30.0,
    duration_frac=(0.7, 1.0),
    transport=TCP,
    dst_port=443,
)

DNS_SPEC = RoleSpec(
    role=Role.DNS,
    primary="in",
    primary_mean=300.0,
    primary_sigma=0.3,
    secondary_mean=120.0,
    secondary_sigma=0.15,
    pkt_primary=150.0,
    pkt_primary_jitter=20.0,
    pkt_secondary=100.0,
    pkt_secondary_jitter=10.0,
    duration_lo_s=0.01,
    duration_hi_s=1.5,
    transport=UDP,
    dst_port=53,
)

BACKGROUND_TLS_SPEC = RoleSpec(
    role=Role.BACKGROUND_TLS,
    primary="in",
    primary_mean=90_000.0,
    primary_sigma=0.5,
    secondary_mean=15_000.0,
    secondary_sigma=0.5,
    pkt_primary=900.0,
    pkt_primary_jitter=100.0,
    pkt_secondary=300.0,
    pkt_secondary_jitter=50.0,
    duration_lo_s=5.0,
    duration_hi_s=60.0,
    transport=TCP,
    dst_port=443,
)

UPLOAD_SPEC = RoleSpec(
    role=Role.UPLOAD,
    primary="out",
    primary_mean=350_000.0,
    primary_sigma=0.4,
    secondary_frac=0.03,
    secondary_frac_sigma=0.3,
    pkt_primary=1100.0,
    pkt_primary_jitter=80.0,
    pkt_secondary=60.0,
    pkt_secondary_jitter=4.0,
    duration_lo_s=20.0,
    duration_hi_s=90.0,
    transport=UDP,
    dst_port=443,
)


def default_specs(app_index: int) -> dict[Role, RoleSpec]:
    return {
        Role.DATA_PLANE: data_plane_spec(app_index),
        Role.HEARTBEAT: HEARTBEAT_SPEC,
        Role.DNS: DNS_SPEC,
        Role.BACKGROUND_TLS: BACKGROUND_TLS_SPEC,
        Role.UPLOAD: UPLOAD_SPEC,
    }


DEFAULT_ROLE_MIX = {
    Role.DATA_PLANE: 0.55,
    Role.HEARTBEAT: 0.15,
    Role.DNS: 0.15,
    Role.BACKGROUND_TLS: 0.10,
    Role.UPLOAD: 0.05,
}


def default_scenario(
    n_apps: int = 5,
    flows_per_app: int = 2000,
    capture_duration_s: float = 7200.0,
    seed: int = 42,
) -> ScenarioSpec:
    """Five apps, 2000 flows each, 55/15/15/10/5 role mix."""
    apps = []
    for i in range(n_apps):
        counts = {
            role: int(round(flows_per_app * frac))
            for role, frac in DEFAULT_ROLE_MIX.items()
        }
        # rounding drift goes to the biggest role
        drift = flows_per_app - sum(counts.values())
        counts[Role.DATA_PLANE] += drift
        apps.append(
            AppSpec(label=f"app{i + 1:02d}", counts=counts, specs=default_specs(i))
        )
    return ScenarioSpec(apps=apps, capture_duration_s=capture_duration_s, seed=seed)


def read_scenario(path: str | Path) -> ScenarioSpec:
    """Parse a scenario file: app/role/capture_duration_s/seed lines.

    A bad line raises InvalidSpec naming the file and the line.
    """
    apps: list[AppSpec] = []
    capture = 7200.0
    seed = 42
    current: AppSpec | None = None
    role_by_name = {r.value: r for r in Role}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "seed" and len(parts) == 2:
                seed = int(parts[1])
            elif parts[0] == "capture_duration_s" and len(parts) == 2:
                capture = float(parts[1])
                if not (math.isfinite(capture) and capture > 0):
                    raise InvalidSpec(_DURATION_RULE)
            elif parts[0] == "app" and len(parts) == 2:
                current = AppSpec(
                    label=parts[1],
                    counts={},
                    specs=default_specs(len(apps)),
                )
                apps.append(current)
            elif parts[0] == "role" and len(parts) == 3:
                if current is None:
                    raise InvalidSpec("role line before any app")
                role = role_by_name.get(parts[1])
                if role is None:
                    raise InvalidSpec(f"unknown role {parts[1]!r}")
                current.counts[role] = current.counts.get(role, 0) + int(parts[2])
            else:
                raise InvalidSpec(f"unrecognized line {line!r}")
        except (ValueError, InvalidSpec) as exc:
            raise InvalidSpec(f"{path}:{lineno}: {exc}") from None
    return ScenarioSpec(apps=apps, capture_duration_s=capture, seed=seed)


def build_dns_query(hostname: str, txid: int) -> bytes:
    """Standard recursive A query in DNS wire format."""
    header = struct.pack(">HHHHHH", txid & 0xFFFF, 0x0100, 1, 0, 0, 0)
    qname = b""
    for label in hostname.strip(".").split("."):
        raw = label.encode("ascii")
        qname += bytes([len(raw)]) + raw
    qname += b"\x00"
    return header + qname + struct.pack(">HH", 1, 1)  # A, IN


def build_client_hello(sni: str | None, rng: SplitMix64) -> bytes:
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


def _server_hello_prefix(rng: SplitMix64) -> bytes:
    filler = struct.pack(">2Q", rng.next_u64(), rng.next_u64())
    return b"\x16\x03\x03" + struct.pack(">H", 48) + b"\x02" + filler


def _opaque_prefix(rng: SplitMix64) -> bytes:
    # first byte outside TLS/HTTP/DNS shapes so it stays unclassified
    return b"\xc3" + struct.pack(">2Q", rng.next_u64(), rng.next_u64())[:15]


def _role_payloads(
    role: Role, app_label: str, rng: SplitMix64
) -> tuple[bytes, bytes]:
    """(client_prefix, server_prefix) crafted per role."""
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
        sni = _SERVICE_HOSTNAMES[rng.next_below(len(_SERVICE_HOSTNAMES))]
        return build_client_hello(sni, rng), _server_hello_prefix(rng)
    return _opaque_prefix(rng), _opaque_prefix(rng)


def _draw_side(rng: SplitMix64, mean_bytes: float, sigma: float) -> int:
    return max(1, int(round(rng.lognormal(mean_bytes, sigma))))


def _packets_for(rng: SplitMix64, total_bytes: int, size: float, jitter: float) -> int:
    pkt = rng.normal(size, jitter)
    pkt = min(max(pkt, 80.0), 1500.0)
    return max(1, int(round(total_bytes / pkt)))


def _sample_flow_counters(
    spec: RoleSpec, capture_s: float, rng: SplitMix64
) -> tuple[int, int, int, int, float, float]:
    """(bytes_in, bytes_out, packets_in, packets_out, start_s, duration_s)."""
    primary = _draw_side(rng, spec.primary_mean, spec.primary_sigma)
    if spec.secondary_frac is not None:
        frac = rng.lognormal(spec.secondary_frac, spec.secondary_frac_sigma)
        secondary = max(1, int(round(primary * frac)))
    elif spec.secondary_mean is not None:
        secondary = _draw_side(rng, spec.secondary_mean, spec.secondary_sigma)
    else:
        secondary = 1

    pkts_primary = _packets_for(rng, primary, spec.pkt_primary, spec.pkt_primary_jitter)
    pkts_secondary = _packets_for(
        rng, secondary, spec.pkt_secondary, spec.pkt_secondary_jitter
    )
    header = _TCP_HEADER if spec.transport == TCP else _UDP_HEADER
    # wire bytes can never undercut the headers of the packets carrying them
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


def generate_app(
    app: AppSpec,
    capture_duration_s: float,
    seed: int,
    app_index: int,
    flow_id_base: int,
) -> tuple[list[FlowRecord], list[Role]]:
    """Generate one app's flows from its own derived PRNG stream."""
    rng = SplitMix64(seed)
    client_ip = f"192.168.{app_index + 1}.2"
    flows: list[FlowRecord] = []
    roles: list[Role] = []
    seq = 0
    for role in ROLE_ORDER:
        count = app.counts.get(role, 0)
        if count < 0:
            raise InvalidSpec(f"{app.label}: negative count for {role.value}")
        spec = app.specs.get(role)
        if count and spec is None:
            raise InvalidSpec(f"{app.label}: no RoleSpec for {role.value}")
        for i in range(count):
            b_in, b_out, p_in, p_out, start, duration = _sample_flow_counters(
                spec, capture_duration_s, rng
            )
            client_prefix, server_prefix = _role_payloads(role, app.label, rng)
            header = _TCP_HEADER if spec.transport == TCP else _UDP_HEADER
            header_total = (p_in + p_out) * header
            payload_total = max(b_in - p_in * header, 0) + max(
                b_out - p_out * header, 0
            )
            first_ts = _BASE_TS_US + int(round(start * 1e6))
            key = FlowKey(
                client_ip=client_ip,
                client_port=10_000 + seq % 50_000,
                server_ip=(
                    f"10.{app_index + 1}.{ROLE_ORDER.index(role)}.{1 + i % 250}"
                ),
                server_port=spec.dst_port,
                transport=spec.transport,
            )
            flows.append(
                FlowRecord(
                    flow_id=flow_id_base + seq,
                    key=key,
                    app_label=app.label,
                    first_ts_us=first_ts,
                    last_ts_us=first_ts + int(round(duration * 1e6)),
                    bytes_in=b_in,
                    bytes_out=b_out,
                    packets_in=p_in,
                    packets_out=p_out,
                    header_bytes_total=header_total,
                    payload_bytes_total=payload_total,
                    client_payload_prefix=client_prefix,
                    server_payload_prefix=server_prefix,
                )
            )
            roles.append(role)
            seq += 1
    _validate_data_plane_ratio(app.label, flows, roles)
    return flows, roles


def _validate_data_plane_ratio(
    label: str, flows: list[FlowRecord], roles: list[Role]
) -> None:
    """Content flows must be clearly download-heavy (ratio > 0.9)."""
    total = 0
    ok = 0
    for flow, role in zip(flows, roles):
        if role is Role.DATA_PLANE:
            total += 1
            denom = flow.bytes_in + flow.bytes_out
            if denom and (flow.bytes_in - flow.bytes_out) / denom > 0.9:
                ok += 1
    if total and ok / total < 0.95:
        raise InvalidSpec(
            f"{label}: only {ok}/{total} DataPlane flows have ratio > 0.9; "
            "widen the in/out gap in the role parameters"
        )


def generate(spec: ScenarioSpec) -> tuple[list[FlowRecord], list[Role]]:
    """Generate all apps' flows; deterministic in spec values and seed.

    Each app draws from a stream derived from (seed, app index), so
    generating apps in parallel cannot change the output.
    """
    if not spec.apps:
        raise InvalidSpec("scenario needs at least one app")
    if not (math.isfinite(spec.capture_duration_s) and spec.capture_duration_s > 0):
        raise InvalidSpec(_DURATION_RULE)
    seen = set()
    for app in spec.apps:
        if app.label in seen:
            raise InvalidSpec(f"duplicate app label {app.label!r}")
        seen.add(app.label)
    flows: list[FlowRecord] = []
    roles: list[Role] = []
    for app_index, app in enumerate(spec.apps):
        app_flows, app_roles = generate_app(
            app,
            spec.capture_duration_s,
            derive(spec.seed, app_index),
            app_index,
            flow_id_base=len(flows),
        )
        flows.extend(app_flows)
        roles.extend(app_roles)
    return flows, roles


def oracle_clean(
    flows: list[FlowRecord], roles: list[Role]
) -> list[FlowRecord]:
    """Ground-truth cleaning: keep exactly the DataPlane flows."""
    if len(flows) != len(roles):
        raise ValueError("flows and roles must be parallel lists")
    return [f for f, r in zip(flows, roles) if r is Role.DATA_PLANE]


ROLES_HEADER = ["flow_id", "role"]


def write_roles(flows: list[FlowRecord], roles: list[Role], file: str | Path) -> None:
    """Sidecar CSV mapping flow ids to ground-truth roles."""
    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROLES_HEADER)
        for flow, role in zip(flows, roles):
            writer.writerow([flow.flow_id, role.value])
