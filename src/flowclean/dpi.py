"""Payload-prefix inspection: spot plaintext and blocklisted TLS flows.

The second cleaning stage looks only at the captured payload prefixes.
Plaintext DNS and HTTP flows are discarded outright; TLS ClientHellos
are parsed for the server name, and flows bound for known background
service domains (ad/telemetry/CDN infrastructure the apps do not own)
are discarded as well. Everything else passes through to clustering.
"""

from __future__ import annotations

import logging
import re
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .ingest import FlowRecord, TCP, parse_lines, read_text

# select logs each app's DPI counts here, in label order, once the app is cleaned
logger = logging.getLogger(__name__)


class VerdictKind(Enum):
    PLAINTEXT_DNS = "PlaintextDNS"
    PLAINTEXT_HTTP = "PlaintextHTTP"
    TLS_WITH_SNI = "TlsWithSni"
    TLS_NO_SNI = "TlsNoSni"
    OTHER_ENCRYPTED_ASSUMED = "OtherEncryptedAssumed"


@dataclass(frozen=True)
class ProtocolVerdict:
    """Classification of one flow; sni is set only for TLS_WITH_SNI."""

    kind: VerdictKind
    sni: str | None = None

    def __post_init__(self):
        if self.kind is VerdictKind.TLS_WITH_SNI:
            if not self.sni:
                raise ValueError("TlsWithSni requires a hostname")
        elif self.sni is not None:
            raise ValueError(f"{self.kind.value} carries no hostname")


# Encrypted flows to these suffixes are platform/background services,
# not app data traffic.
DEFAULT_BLOCKLIST_SUFFIXES = (
    "google.com",
    "gstatic.com",
    "googleapis.com",
    "apple.com",
    "icloud.com",
    "cloudflare.com",
)


@dataclass(frozen=True)
class Blocklist:
    """Lowercase domain suffixes matched at label boundaries."""

    suffixes: frozenset[str]
    _dotted: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_dotted", tuple("." + s for s in self.suffixes))

    @classmethod
    def of(cls, *suffixes: str) -> "Blocklist":
        cleaned = set()
        for s in suffixes:
            s = s.strip().lower().lstrip(".")
            if s:
                cleaned.add(s)
        return cls(suffixes=frozenset(cleaned))

    def matches(self, hostname: str) -> bool:
        """True iff hostname equals a suffix or ends with '.' + suffix."""
        host = hostname.lower().rstrip(".")
        return host in self.suffixes or host.endswith(self._dotted)


DEFAULT_BLOCKLIST = Blocklist.of(*DEFAULT_BLOCKLIST_SUFFIXES)


# dot-separated labels, optionally after one leading dot
_SUFFIX = re.compile(r"\.?[^\s.*]+(?:\.[^\s.*]+)*")


def read_blocklist(path: str | Path) -> Blocklist:
    """Read a blocklist file: one suffix per line, # comments allowed.

    An entry with a space, a ``*`` or an empty label matches no hostname,
    so it raises ParseError naming the file and the line.
    """
    suffixes = []

    def entry(lineno: int, line: str) -> None:
        if not _SUFFIX.fullmatch(line):
            raise ValueError(
                f"blocklist entry {line!r} can match no hostname; expected "
                "dot-separated labels without spaces or '*'"
            )
        suffixes.append(line)

    parse_lines(read_text(path), entry, str(path))
    return Blocklist.of(*suffixes)


def parse_dns(payload: bytes, dst_port: int, transport: str) -> bool:
    """True iff the payload looks like a DNS message on port 53.

    Checks the fixed 12-byte header: opcode <= 5, reserved z-bits zero,
    at least one question. DNS over TCP carries a 2-byte length prefix
    before the same header.
    """
    if dst_port != 53:
        return False
    if transport == TCP:
        if len(payload) < 2:
            return False
        payload = payload[2:]
    if len(payload) < 12:
        return False
    flags, qdcount = struct.unpack_from(">HH", payload, 2)
    opcode = (flags >> 11) & 0x0F
    z_bits = (flags >> 4) & 0x07
    return opcode <= 5 and z_bits == 0 and qdcount >= 1


def _client_hello(payload: bytes) -> tuple[bool, str | None]:
    """(is_client_hello, sni). Distinguishes TLS-without-SNI from not-TLS.

    sni is the first host_name entry of the server_name extension,
    lowercased, or None. The record is walked defensively: truncation
    or inconsistency never raises. Payload prefixes are capped, so a
    structurally valid ClientHello whose extension block runs past the
    captured bytes still counts as a ClientHello (without SNI unless
    the extension fit).
    """
    if len(payload) < 6:
        return False, None
    if payload[0] != 22:  # handshake record
        return False, None
    if payload[1] != 3 or not 1 <= payload[2] <= 4:
        return False, None
    if payload[5] != 1:  # ClientHello handshake type
        return False, None
    # handshake body: 3-byte length, then client_version(2) random(32)
    pos = 9
    if len(payload) < pos + 2 + 32 + 1:
        return True, None
    pos += 2 + 32
    sid_len = payload[pos]
    pos += 1 + sid_len
    if len(payload) < pos + 2:
        return True, None
    cs_len = struct.unpack_from(">H", payload, pos)[0]
    pos += 2 + cs_len
    if len(payload) < pos + 1:
        return True, None
    comp_len = payload[pos]
    pos += 1 + comp_len
    if len(payload) < pos + 2:
        return True, None
    ext_total = struct.unpack_from(">H", payload, pos)[0]
    pos += 2
    end = min(len(payload), pos + ext_total)
    while pos + 4 <= end:
        ext_type, ext_len = struct.unpack_from(">HH", payload, pos)
        pos += 4
        if pos + ext_len > end:
            return True, None
        if ext_type == 0:
            sni = _server_name(payload[pos : pos + ext_len])
            return True, sni
        pos += ext_len
    return True, None


def _server_name(ext: bytes) -> str | None:
    if len(ext) < 2:
        return None
    list_len = struct.unpack_from(">H", ext, 0)[0]
    pos = 2
    end = min(len(ext), 2 + list_len)
    while pos + 3 <= end:
        name_type = ext[pos]
        name_len = struct.unpack_from(">H", ext, pos + 1)[0]
        pos += 3
        if pos + name_len > end:
            return None
        if name_type == 0:  # host_name
            try:
                host = ext[pos : pos + name_len].decode("ascii")
            except UnicodeDecodeError:
                return None
            return host.lower() if host else None
        pos += name_len
    return None


_HTTP_METHODS = (b"GET ", b"POST ", b"PUT ", b"HEAD ", b"DELETE ", b"OPTIONS ", b"CONNECT ")


def _inspect(flow: FlowRecord) -> tuple[VerdictKind, str | None]:
    """(kind, sni) of classify_flow's verdict, without building it."""
    prefix = flow.client_payload_prefix
    key = flow.key
    if parse_dns(prefix, key.server_port, key.transport):
        return VerdictKind.PLAINTEXT_DNS, None
    if prefix.startswith(_HTTP_METHODS):
        return VerdictKind.PLAINTEXT_HTTP, None
    is_hello, sni = _client_hello(prefix)
    if is_hello:
        if sni:
            return VerdictKind.TLS_WITH_SNI, sni
        return VerdictKind.TLS_NO_SNI, None
    return VerdictKind.OTHER_ENCRYPTED_ASSUMED, None


def classify_flow(flow: FlowRecord) -> ProtocolVerdict:
    """Classify one flow from its client payload prefix and ports.

    Precedence: DNS, then HTTP method token, then TLS ClientHello
    (with or without SNI), else assumed encrypted.
    """
    kind, sni = _inspect(flow)
    return ProtocolVerdict(kind, sni)


def filter_flows(
    flows: list[FlowRecord], blocklist: Blocklist = DEFAULT_BLOCKLIST
) -> tuple[list[FlowRecord], list[tuple[FlowRecord, ProtocolVerdict]]]:
    """Split flows into (kept, discarded-with-verdict), order preserved.

    Discards plaintext DNS and HTTP, plus TLS flows whose SNI matches
    the blocklist. TLS without SNI and unrecognized payloads are kept;
    the clustering stage deals with those. Only discarded flows get a
    ProtocolVerdict; most flows are kept.
    """
    kept: list[FlowRecord] = []
    discarded: list[tuple[FlowRecord, ProtocolVerdict]] = []
    for flow in flows:
        kind, sni = _inspect(flow)
        if (
            kind is VerdictKind.PLAINTEXT_DNS
            or kind is VerdictKind.PLAINTEXT_HTTP
            or (kind is VerdictKind.TLS_WITH_SNI and blocklist.matches(sni))
        ):
            discarded.append((flow, ProtocolVerdict(kind, sni)))
        else:
            kept.append(flow)
    return kept, discarded
