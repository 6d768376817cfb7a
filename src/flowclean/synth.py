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

Random-number layout
--------------------
App i draws from ``SplitMix64(derive(seed, i))`` (see rng.py), role by
role in ROLE_ORDER and flow by flow within a role. Every flow draws,
in this order:

1. Four normal variates from two Box-Muller pairs: the primary side's
   log-normal bytes and the secondary side's log-normal bytes
   (``secondary_mean``) or log-normal fraction (``secondary_frac``)
   from the first pair, then the primary and the secondary mean packet
   size from the second.
2. Two uniforms: the duration, then the start.
3. Its payload draws, per role:

       role           payload draws                         count  stride
       DataPlane      SNI index mod 4, ClientHello 8,          11      17
                      ServerHello filler 2
       Heartbeat      ClientHello 8, ServerHello filler 2      10      16
       Dns            host index mod 20, txid mod 2**16         2       8
       BackgroundTls  hostname index mod 6, ClientHello 8,     11      17
                      ServerHello filler 2
       Upload         client prefix 2, server prefix 2          4      10

   ClientHello draws fill the 32-byte random field, then the 32-byte
   session id, big-endian; the ServerHello filler is 16 bytes, and an
   Upload prefix is 0xC3 plus the first 15 bytes of its two draws.

Four normals use both variates of both pairs, so no variate crosses a
flow, and each flow is one fixed stride of 6 counter draws plus its
payload draws (the table's last column), in the column order: primary
pair, packet pair, duration, start, payload.

Normals are Box-Muller: a pair costs two draws u and v and yields two
variates. With ``a = ((u >> 11) + 1) * 2**-53`` (never zero),
``b = (v >> 11) * 2**-53``, ``r = sqrt(-2 * ln a)`` and
``t = (2 * pi) * b``, the pair's first normal with mean m and deviation
s is ``m + (s * r) * cos t`` and its second is ``m + s * (r * sin t)``.
A log-normal with natural-scale mean m and log-space deviation s is
``exp((ln m - 0.5 * s * s) + s * z)``, z a normal with mean 0 and
deviation 1.

generate draws each role as one block per up to _BLOCK_FLOWS flows
with ``SplitMix64.next_u64_array`` and computes its flows column by
column. The columns use only correctly rounded IEEE-754 operations, in
the per-flow order, and take log, exp, cos and sin from ``math``, so
the output is the same bits as drawing each flow on its own, whatever
the numpy build.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InvalidSpec
from .ingest import FlowKey, FlowRecord, TCP, UDP, parse_lines, read_text
from .rng import SplitMix64, derive

# Ethernet + IPv4 + transport header bytes per packet
_TCP_HEADER = 54
_UDP_HEADER = 42

_BASE_TS_US = 1_600_000_000_000_000

_DURATION_RULE = "capture_duration_s must be a positive finite number"

_TWO53_INV = 2.0**-53
_SERVER_HELLO_HEAD = b"\x16\x03\x03" + struct.pack(">H", 48) + b"\x02"
# flows per drawn block, so memory stays flat on huge scenarios
_BLOCK_FLOWS = 65_536


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

# draws per flow after its counter draws; the module docstring lists them
_PAYLOAD_DRAWS = {
    Role.DATA_PLANE: 11,
    Role.HEARTBEAT: 10,
    Role.DNS: 2,
    Role.BACKGROUND_TLS: 11,
    Role.UPLOAD: 4,
}

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
    Exactly one of the two must be set, so every flow draws four
    normals and the fixed stride of 6 + payload draws that the module
    docstring lays out; setting neither or both raises InvalidSpec.
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

    def __post_init__(self):
        if (self.secondary_mean is None) == (self.secondary_frac is None):
            raise InvalidSpec(
                f"{self.role.value}: set exactly one of secondary_mean and "
                "secondary_frac"
            )


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

    A bad line raises ParseError naming the file and the line.
    """
    spec = ScenarioSpec(apps=[], capture_duration_s=7200.0, seed=42)
    role_by_name = {r.value: r for r in Role}

    def setting(lineno: int, line: str) -> None:
        parts = line.split()
        if parts[0] == "seed" and len(parts) == 2:
            spec.seed = int(parts[1])
        elif parts[0] == "capture_duration_s" and len(parts) == 2:
            capture = float(parts[1])
            if not (math.isfinite(capture) and capture > 0):
                raise ValueError(_DURATION_RULE)
            spec.capture_duration_s = capture
        elif parts[0] == "app" and len(parts) == 2:
            spec.apps.append(
                AppSpec(label=parts[1], counts={}, specs=default_specs(len(spec.apps)))
            )
        elif parts[0] == "role" and len(parts) == 3:
            if not spec.apps:
                raise ValueError("role line before any app")
            role = role_by_name.get(parts[1])
            if role is None:
                raise ValueError(f"unknown role {parts[1]!r}")
            counts = spec.apps[-1].counts
            counts[role] = counts.get(role, 0) + int(parts[2])
        else:
            raise ValueError(f"unrecognized line {line!r}")

    parse_lines(read_text(path), setting, str(path))
    return spec


def build_dns_query(hostname: str, txid: int) -> bytes:
    """Standard recursive A query in DNS wire format."""
    header = struct.pack(">HHHHHH", txid & 0xFFFF, 0x0100, 1, 0, 0, 0)
    qname = b""
    for label in hostname.strip(".").split("."):
        raw = label.encode("ascii")
        qname += bytes([len(raw)]) + raw
    qname += b"\x00"
    return header + qname + struct.pack(">HH", 1, 1)  # A, IN


def _hello_template(sni: str | None) -> tuple[bytes, bytes, bytes]:
    """A TLS 1.2 ClientHello record, optionally carrying an SNI, in three parts.

    The parts surround its two 32-byte fields of draws: the bytes before
    the random field (record header, handshake header, version), the
    session id's length byte between the random field and the session
    id, and the bytes after the session id.
    """
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

    tail = (
        struct.pack(">H", len(cipher_suites))
        + cipher_suites
        + b"\x01\x00"  # null compression only
        + struct.pack(">H", len(extensions))
        + extensions
    )
    body_len = 2 + 32 + 1 + 32 + len(tail)
    head = (
        b"\x16\x03\x01"
        + struct.pack(">H", 4 + body_len)
        + b"\x01"
        + body_len.to_bytes(3, "big")
        + b"\x03\x03"
    )
    return head, bytes([32]), tail


def _libm(func, values: np.ndarray) -> np.ndarray:
    """``func`` from math over an array.

    numpy's own log, exp, cos and sin may differ from libm in the last
    bit, depending on the build; the streams must not.
    """
    out = np.fromiter(map(func, values.ravel().tolist()), np.float64, values.size)
    return out.reshape(values.shape)


def _draw_block(rng: SplitMix64, count: int, payload_draws: int):
    """Draw `count` flows' random numbers as one block; split it into columns.

    Returns ``(normal, uniforms, payload)``: ``normal(q, mean, std)`` is
    every flow's q-th normal variate (q in 0..3), computed by the
    Box-Muller rule of the module docstring; ``uniforms`` holds each
    flow's duration and start draws mapped to [0, 1); ``payload`` its
    payload draws. The stream advances as if each flow drew on its own.
    """
    block = rng.next_u64_array(count * (6 + payload_draws)).reshape(count, -1)
    # columns 0-1 and 2-3 are the flow's two pairs (u, v); normal 2p is
    # pair p's cosine variate and normal 2p + 1 its sine variate
    u1 = ((block[:, 0:4:2] >> 11) + 1).astype(np.float64) * _TWO53_INV
    u2 = (block[:, 1:4:2] >> 11).astype(np.float64) * _TWO53_INV
    theta = (2.0 * math.pi) * u2
    r = np.sqrt(-2.0 * _libm(math.log, u1))
    cos = _libm(math.cos, theta)
    sines = r * _libm(math.sin, theta)

    def normal(q: int, mean: float, std: float) -> np.ndarray:
        p = q // 2
        if q % 2:
            return mean + std * sines[:, p]
        return mean + (std * r[:, p]) * cos[:, p]

    uniforms = (block[:, 4:6] >> 11).astype(np.float64) * _TWO53_INV
    return normal, uniforms, block[:, 6:]


def _flow_columns(spec: RoleSpec, capture_s: float, normal, uniforms: np.ndarray):
    """A block's FlowRecord counters, first_ts_us through payload_bytes_total.

    Returns one int list per field, in FlowRecord's field order.

    Every step is the one IEEE-754 operation the per-flow definition does,
    in the same order; whole-number floats stay exact below 2**53.
    """

    def lognormal(q: int, mean: float, sigma: float) -> np.ndarray:
        mu = math.log(mean) - 0.5 * sigma * sigma
        return _libm(math.exp, mu + sigma * normal(q, 0.0, 1.0))

    def packets(q: int, total: np.ndarray, size: float, jitter: float) -> np.ndarray:
        pkt = np.clip(normal(q, size, jitter), 80.0, 1500.0)
        return np.maximum(1.0, np.rint(total / pkt))

    primary = np.maximum(
        1.0, np.rint(lognormal(0, spec.primary_mean, spec.primary_sigma))
    )
    if spec.secondary_frac is not None:
        frac = lognormal(1, spec.secondary_frac, spec.secondary_frac_sigma)
        secondary = np.maximum(1.0, np.rint(primary * frac))
    else:
        secondary = np.maximum(
            1.0, np.rint(lognormal(1, spec.secondary_mean, spec.secondary_sigma))
        )
    pkts_primary = packets(2, primary, spec.pkt_primary, spec.pkt_primary_jitter)
    pkts_secondary = packets(3, secondary, spec.pkt_secondary, spec.pkt_secondary_jitter)
    header = _TCP_HEADER if spec.transport == TCP else _UDP_HEADER
    # wire bytes can never undercut the headers of the packets carrying them
    primary = np.maximum(primary, pkts_primary * header)
    secondary = np.maximum(secondary, pkts_secondary * header)
    # float64 holds every whole number exactly only below 2**53 (and a
    # non-finite sigma gives NaN, which fails the comparison too)
    if not max(primary.max(), secondary.max()) < 2.0**53:
        raise InvalidSpec(
            f"{spec.role.value}: a flow drew 2**53 or more bytes; lower its byte means"
        )
    primary = primary.astype(np.int64)
    secondary = secondary.astype(np.int64)
    pkts_primary = pkts_primary.astype(np.int64)
    pkts_secondary = pkts_secondary.astype(np.int64)

    if spec.duration_frac is not None:
        lo, hi = spec.duration_frac
        lo, hi = lo * capture_s, hi * capture_s
    else:
        lo, hi = spec.duration_lo_s, spec.duration_hi_s
    duration = np.minimum(lo + (hi - lo) * uniforms[:, 0], capture_s)
    # uniform(0, m) is exactly m * u for m >= 0
    start = np.maximum(capture_s - duration, 0.0) * uniforms[:, 1]
    first_ts = _BASE_TS_US + np.rint(start * 1e6).astype(np.int64)
    last_ts = first_ts + np.rint(duration * 1e6).astype(np.int64)

    if spec.primary == "in":
        b_in, b_out, p_in, p_out = primary, secondary, pkts_primary, pkts_secondary
    else:
        b_in, b_out, p_in, p_out = secondary, primary, pkts_secondary, pkts_primary
    header_total = (p_in + p_out) * header
    payload_total = np.maximum(b_in - p_in * header, 0) + np.maximum(
        b_out - p_out * header, 0
    )
    return [
        column.tolist()
        for column in (first_ts, last_ts, b_in, b_out, p_in, p_out, header_total,
                       payload_total)
    ]


def _hello_payloads(raw: bytes, stride: int, snis, choices: list[int],
                    at: int) -> list[tuple[bytes, bytes]]:
    """ClientHello and ServerHello prefixes, 64 + 16 bytes of draws per flow."""
    templates = [_hello_template(sni) for sni in snis]
    out = []
    for choice, base in zip(choices, range(at, len(raw), stride)):
        head, middle, tail = templates[choice]
        out.append((
            head + raw[base : base + 32] + middle + raw[base + 32 : base + 64] + tail,
            _SERVER_HELLO_HEAD + raw[base + 64 : base + 80],
        ))
    return out


def _payloads(
    role: Role, app_label: str, draws: np.ndarray
) -> list[tuple[bytes, bytes]]:
    """(client_prefix, server_prefix) per flow, crafted per role from its draws."""
    if role is Role.DNS:
        out = []
        hosts = (draws[:, 0] % 20).tolist()
        for host, txid in zip(hosts, (draws[:, 1] % 0x10000).tolist()):
            query = build_dns_query(f"svc{host}.{app_label}.example", txid)
            response = struct.pack(">HHHHHH", txid, 0x8180, 1, 1, 0, 0) + query[12:]
            out.append((query, response))
        return out
    raw = draws.astype(">u8").tobytes()
    stride = 8 * draws.shape[1]
    if role is Role.UPLOAD:
        # first byte outside TLS/HTTP/DNS shapes so it stays unclassified
        return [
            (b"\xc3" + raw[at : at + 15], b"\xc3" + raw[at + 16 : at + 31])
            for at in range(0, len(raw), stride)
        ]
    if role is Role.HEARTBEAT:
        return _hello_payloads(raw, stride, [None], [0] * len(draws), 0)
    if role is Role.DATA_PLANE:
        snis = [f"v{1 + i}.cdn.{app_label}.example" for i in range(4)]
    else:
        snis = _SERVICE_HOSTNAMES
    choices = (draws[:, 0] % len(snis)).tolist()
    return _hello_payloads(raw, stride, snis, choices, 8)


def generate_app(
    app: AppSpec,
    capture_duration_s: float,
    seed: int,
    app_index: int,
    flow_id_base: int,
) -> tuple[list[FlowRecord], list[Role]]:
    """Generate one app's flows from its own derived PRNG stream.

    Each role draws its flows' random numbers in blocks of up to
    _BLOCK_FLOWS flows; the module docstring gives the layout.
    """
    rng = SplitMix64(seed)
    client_ip = f"192.168.{app_index + 1}.2"
    flows: list[FlowRecord] = []
    roles: list[Role] = []
    for position, role in enumerate(ROLE_ORDER):
        count = app.counts.get(role, 0)
        if count < 0:
            raise InvalidSpec(f"{app.label}: negative count for {role.value}")
        spec = app.specs.get(role)
        if count and spec is None:
            raise InvalidSpec(f"{app.label}: no RoleSpec for {role.value}")
        if not count:
            continue
        server_ips = [f"10.{app_index + 1}.{position}.{1 + i}" for i in range(250)]
        for first in range(0, count, _BLOCK_FLOWS):
            n = min(_BLOCK_FLOWS, count - first)
            normal, uniforms, payload_draws = _draw_block(
                rng, n, _PAYLOAD_DRAWS[role]
            )
            columns = _flow_columns(spec, capture_duration_s, normal, uniforms)
            payloads = _payloads(role, app.label, payload_draws)
            for i, (counters, (client_prefix, server_prefix)) in enumerate(
                zip(zip(*columns), payloads), start=first
            ):
                seq = len(flows)
                key = FlowKey(
                    client_ip, 10_000 + seq % 50_000, server_ips[i % 250],
                    spec.dst_port, spec.transport,
                )
                flows.append(FlowRecord(
                    flow_id_base + seq, key, app.label, *counters,
                    client_prefix, server_prefix,
                ))
            roles.extend([role] * n)
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
    generating apps in parallel cannot change the output. The flow at
    position i of the list has flow_id i, across apps as within one.
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
