"""Packet ingestion: pcap reading, flow assembly, tagging, flow tables.

Reads classic pcap files (both endiannesses, microsecond and nanosecond
resolution), groups packets into bidirectional flows keyed by the
canonical 5-tuple, and attaches app labels from MAC/VLAN tag maps. Flows
can be persisted to and restored from a CSV flow table losslessly.
"""

from __future__ import annotations

import csv
import logging
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .errors import MalformedCapture, ParseError, SchemaMismatch

logger = logging.getLogger(__name__)

PAYLOAD_PREFIX_CAP = 256

TCP = "tcp"
UDP = "udp"

# tcp flag names used in PacketRecord.tcp_flags
SYN, FIN, RST, ACK = "SYN", "FIN", "RST", "ACK"

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_IPV6 = 0x86DD
_ETHERTYPE_VLAN = (0x8100, 0x88A8)

_PCAP_MAGIC_US = 0xA1B2C3D4
_PCAP_MAGIC_NS = 0xA1B23C4D


@dataclass(frozen=True)
class PacketRecord:
    """One parsed TCP/UDP packet."""

    timestamp_us: int
    src_mac: bytes
    vlan_id: int | None
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    transport: str
    wire_len: int
    header_len: int
    payload_len: int
    payload_prefix: bytes
    tcp_flags: frozenset[str] | None = None


class FlowKey(NamedTuple):
    """Directional endpoints of a flow; the client sent the first packet."""

    client_ip: str
    client_port: int
    server_ip: str
    server_port: int
    transport: str


class FlowRecord(NamedTuple):
    """One bidirectional flow with per-direction counters.

    Direction "in" is server-to-client; "out" is client-to-server.
    Payload prefixes hold the first non-empty payload seen in each
    direction, capped at PAYLOAD_PREFIX_CAP bytes. Records are tuples:
    building one costs about 40 % less than a frozen dataclass, and a
    large table holds hundreds of thousands of them.
    """

    flow_id: int
    key: FlowKey
    app_label: str | None
    first_ts_us: int
    last_ts_us: int
    bytes_in: int
    bytes_out: int
    packets_in: int
    packets_out: int
    header_bytes_total: int
    payload_bytes_total: int
    client_payload_prefix: bytes
    server_payload_prefix: bytes


@dataclass(frozen=True)
class FlowMeta:
    """First-packet attributes used for tagging, parallel to a flow list."""

    src_mac: bytes
    vlan_id: int | None


@dataclass
class TagMap:
    """App labels keyed by client MAC or VLAN id; VLAN wins on conflict."""

    mac_entries: dict[bytes, str] = field(default_factory=dict)
    vlan_entries: dict[int, str] = field(default_factory=dict)


@dataclass
class CaptureStats:
    """Per-file read statistics; skipped frames never become packets."""

    records: int = 0
    packets: int = 0
    skipped_non_ip: int = 0
    skipped_truncated: int = 0


def read_packets(
    capture_file: str | Path,
) -> tuple[list[PacketRecord], CaptureStats]:
    """Read all TCP/UDP packets from a classic pcap file, in file order.

    Also returns the file's record count and skip counters.
    """
    data = Path(capture_file).read_bytes()
    if len(data) < 24:
        raise MalformedCapture(f"{capture_file}: truncated global header")
    magic_le = struct.unpack("<I", data[:4])[0]
    magic_be = struct.unpack(">I", data[:4])[0]
    if magic_le in (_PCAP_MAGIC_US, _PCAP_MAGIC_NS):
        endian, magic = "<", magic_le
    elif magic_be in (_PCAP_MAGIC_US, _PCAP_MAGIC_NS):
        endian, magic = ">", magic_be
    else:
        raise MalformedCapture(f"{capture_file}: bad magic {data[:4].hex()}")
    nanosecond = magic == _PCAP_MAGIC_NS

    stats = CaptureStats()
    packets: list[PacketRecord] = []
    rec_hdr = struct.Struct(endian + "IIII")
    pos = 24
    while pos < len(data):
        if pos + rec_hdr.size > len(data):
            stats.skipped_truncated += 1
            break
        ts_sec, ts_frac, incl_len, _orig_len = rec_hdr.unpack_from(data, pos)
        pos += rec_hdr.size
        if pos + incl_len > len(data):
            stats.skipped_truncated += 1
            break
        frame = data[pos : pos + incl_len]
        pos += incl_len
        stats.records += 1
        if nanosecond:
            timestamp_us = ts_sec * 1_000_000 + ts_frac // 1000
        else:
            timestamp_us = ts_sec * 1_000_000 + ts_frac
        record = _parse_frame(frame, timestamp_us, _orig_len, stats)
        if record is not None:
            packets.append(record)
    stats.packets = len(packets)
    logger.info(
        "%s: %d packets, %d non-IP frames skipped, %d truncated entries skipped",
        capture_file,
        stats.packets,
        stats.skipped_non_ip,
        stats.skipped_truncated,
    )
    return packets, stats


def _parse_frame(
    frame: bytes, timestamp_us: int, orig_len: int, stats: CaptureStats
) -> PacketRecord | None:
    if len(frame) < 14:
        stats.skipped_truncated += 1
        return None
    src_mac = frame[6:12]
    ethertype = struct.unpack_from(">H", frame, 12)[0]
    offset = 14
    vlan_id: int | None = None
    while ethertype in _ETHERTYPE_VLAN:
        if len(frame) < offset + 4:
            stats.skipped_truncated += 1
            return None
        tci = struct.unpack_from(">H", frame, offset)[0]
        if vlan_id is None:
            vlan_id = tci & 0x0FFF
        ethertype = struct.unpack_from(">H", frame, offset + 2)[0]
        offset += 4

    if ethertype == _ETHERTYPE_IPV4:
        parsed = _parse_ipv4(frame, offset)
    elif ethertype == _ETHERTYPE_IPV6:
        parsed = _parse_ipv6(frame, offset)
    else:
        stats.skipped_non_ip += 1
        return None
    if parsed is None:
        stats.skipped_non_ip += 1
        return None
    src_ip, dst_ip, proto, ip_hdr_len, ip_payload_len = parsed

    tp_offset = offset + ip_hdr_len
    if proto == 6:
        transport = TCP
        if len(frame) < tp_offset + 20:
            stats.skipped_truncated += 1
            return None
        src_port, dst_port = struct.unpack_from(">HH", frame, tp_offset)
        data_off = (frame[tp_offset + 12] >> 4) * 4
        flag_bits = frame[tp_offset + 13]
        flags = frozenset(
            name
            for name, bit in ((FIN, 0x01), (SYN, 0x02), (RST, 0x04), (ACK, 0x10))
            if flag_bits & bit
        )
        tp_hdr_len = data_off
    elif proto == 17:
        transport = UDP
        if len(frame) < tp_offset + 8:
            stats.skipped_truncated += 1
            return None
        src_port, dst_port = struct.unpack_from(">HH", frame, tp_offset)
        flags = None
        tp_hdr_len = 8
    else:
        stats.skipped_non_ip += 1
        return None

    header_len = tp_offset + tp_hdr_len
    wire_len = max(orig_len, len(frame))
    payload_len = max(0, ip_payload_len - tp_hdr_len)
    payload_len = min(payload_len, max(0, wire_len - header_len))
    payload_start = header_len
    available = max(0, len(frame) - payload_start)
    prefix_len = min(payload_len, PAYLOAD_PREFIX_CAP, available)
    payload_prefix = frame[payload_start : payload_start + prefix_len]

    return PacketRecord(
        timestamp_us=timestamp_us,
        src_mac=src_mac,
        vlan_id=vlan_id,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        transport=transport,
        wire_len=wire_len,
        header_len=header_len,
        payload_len=payload_len,
        payload_prefix=payload_prefix,
        tcp_flags=flags,
    )


def _parse_ipv4(frame: bytes, offset: int):
    if len(frame) < offset + 20:
        return None
    first = frame[offset]
    if first >> 4 != 4:
        return None
    ihl = (first & 0x0F) * 4
    if ihl < 20 or len(frame) < offset + ihl:
        return None
    total_len = struct.unpack_from(">H", frame, offset + 2)[0]
    proto = frame[offset + 9]
    src_ip = ".".join(str(b) for b in frame[offset + 12 : offset + 16])
    dst_ip = ".".join(str(b) for b in frame[offset + 16 : offset + 20])
    return src_ip, dst_ip, proto, ihl, max(0, total_len - ihl)


def _parse_ipv6(frame: bytes, offset: int):
    # Base header only; packets behind extension headers are skipped.
    if len(frame) < offset + 40:
        return None
    if frame[offset] >> 4 != 6:
        return None
    payload_len = struct.unpack_from(">H", frame, offset + 4)[0]
    next_header = frame[offset + 6]
    if next_header not in (6, 17):
        return None
    src_ip = _ipv6_str(frame[offset + 8 : offset + 24])
    dst_ip = _ipv6_str(frame[offset + 24 : offset + 40])
    return src_ip, dst_ip, next_header, 40, payload_len


def _ipv6_str(raw: bytes) -> str:
    groups = struct.unpack(">8H", raw)
    return ":".join(f"{g:x}" for g in groups)


def _canonical(p: PacketRecord) -> tuple:
    a = (p.src_ip, p.src_port)
    b = (p.dst_ip, p.dst_port)
    return (p.transport, a, b) if a <= b else (p.transport, b, a)


class _FlowState:
    __slots__ = (
        "seq",
        "client",
        "server",
        "transport",
        "src_mac",
        "vlan_id",
        "first_ts",
        "last_ts",
        "bytes_in",
        "bytes_out",
        "packets_in",
        "packets_out",
        "header_total",
        "payload_total",
        "client_prefix",
        "server_prefix",
        "fin_client",
        "fin_server",
        "closed",
    )

    def __init__(self, seq: int, p: PacketRecord):
        self.seq = seq
        self.client = (p.src_ip, p.src_port)
        self.server = (p.dst_ip, p.dst_port)
        self.transport = p.transport
        self.src_mac = p.src_mac
        self.vlan_id = p.vlan_id
        self.first_ts = p.timestamp_us
        self.last_ts = p.timestamp_us
        self.bytes_in = 0
        self.bytes_out = 0
        self.packets_in = 0
        self.packets_out = 0
        self.header_total = 0
        self.payload_total = 0
        self.client_prefix: bytes | None = None
        self.server_prefix: bytes | None = None
        self.fin_client = False
        self.fin_server = False
        self.closed = False

    def add(self, p: PacketRecord) -> None:
        outbound = (p.src_ip, p.src_port) == self.client
        self.last_ts = p.timestamp_us
        self.header_total += p.header_len
        self.payload_total += p.payload_len
        if outbound:
            self.packets_out += 1
            self.bytes_out += p.wire_len
            if self.client_prefix is None and p.payload_len > 0:
                self.client_prefix = p.payload_prefix
        else:
            self.packets_in += 1
            self.bytes_in += p.wire_len
            if self.server_prefix is None and p.payload_len > 0:
                self.server_prefix = p.payload_prefix
        flags = p.tcp_flags
        if flags:
            if RST in flags:
                self.closed = True
            if FIN in flags:
                if outbound:
                    self.fin_client = True
                else:
                    self.fin_server = True
            elif (
                self.fin_client
                and self.fin_server
                and ACK in flags
                and SYN not in flags
                and p.payload_len == 0
            ):
                # final ack of the close handshake
                self.closed = True

    def to_record(self, flow_id: int) -> FlowRecord:
        return FlowRecord(
            flow_id=flow_id,
            key=FlowKey(
                client_ip=self.client[0],
                client_port=self.client[1],
                server_ip=self.server[0],
                server_port=self.server[1],
                transport=self.transport,
            ),
            app_label=None,
            first_ts_us=self.first_ts,
            last_ts_us=self.last_ts,
            bytes_in=self.bytes_in,
            bytes_out=self.bytes_out,
            packets_in=self.packets_in,
            packets_out=self.packets_out,
            header_bytes_total=self.header_total,
            payload_bytes_total=self.payload_total,
            client_payload_prefix=self.client_prefix or b"",
            server_payload_prefix=self.server_prefix or b"",
        )


def assemble_flows_with_meta(
    packets: list[PacketRecord], idle_timeout_s: float = 60.0
) -> tuple[list[FlowRecord], list[FlowMeta]]:
    """Group packets into bidirectional flows.

    A flow closes when its TCP teardown completes (both FINs plus the
    final ack, or any RST) or when the gap to the next packet of the
    same key exceeds idle_timeout_s; later packets start a new flow.
    The client is the sender of the first observed packet. Each flow
    comes with its first packet's MAC/VLAN for tagging.
    """
    if not (math.isfinite(idle_timeout_s) and idle_timeout_s > 0):
        raise ValueError(
            f"idle_timeout_s must be a positive finite number, got {idle_timeout_s}"
        )
    order = sorted(range(len(packets)), key=lambda i: (packets[i].timestamp_us, i))
    gap_us = int(idle_timeout_s * 1_000_000)

    active: dict[tuple, _FlowState] = {}
    finished: list[_FlowState] = []
    seq = 0
    for i in order:
        p = packets[i]
        key = _canonical(p)
        state = active.get(key)
        if state is not None and (
            state.closed or p.timestamp_us - state.last_ts > gap_us
        ):
            finished.append(active.pop(key))
            state = None
        if state is None:
            state = _FlowState(seq, p)
            seq += 1
            active[key] = state
        state.add(p)
    finished.extend(active.values())
    finished.sort(key=lambda s: (s.first_ts, s.seq))

    flows: list[FlowRecord] = []
    metas: list[FlowMeta] = []
    for flow_id, state in enumerate(finished):
        flows.append(state.to_record(flow_id))
        metas.append(FlowMeta(src_mac=state.src_mac, vlan_id=state.vlan_id))
    return flows, metas


def apply_tags(
    flows: list[FlowRecord], tags: TagMap, metas: list[FlowMeta]
) -> list[FlowRecord]:
    """Attach app labels from the tag map; VLAN match beats MAC match."""
    if len(flows) != len(metas):
        raise ValueError("flows and metas must be parallel lists")
    out: list[FlowRecord] = []
    for flow, meta in zip(flows, metas):
        label = None
        if meta.vlan_id is not None and meta.vlan_id in tags.vlan_entries:
            label = tags.vlan_entries[meta.vlan_id]
        elif meta.src_mac in tags.mac_entries:
            label = tags.mac_entries[meta.src_mac]
        out.append(flow._replace(app_label=label) if label is not None else flow)
    return out


def parse_mac(text: str) -> bytes:
    """Parse 'aa:bb:cc:dd:ee:ff' (separators optional) into 6 bytes."""
    hexed = text.replace(":", "").replace("-", "").lower()
    if len(hexed) != 12 or not set(hexed) <= set("0123456789abcdef"):
        raise ValueError(f"bad MAC address {text!r}")
    return bytes.fromhex(hexed)


def read_tag_map(path: str | Path) -> TagMap:
    """Read a tag-map file: 'mac <hex-mac> <label>' / 'vlan <id> <label>'.

    A bad line raises ParseError naming the file and the line.
    """
    tags = TagMap()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            parts = line.split()
            if len(parts) != 3:
                raise ValueError("expected 'mac|vlan <key> <label>'")
            kind, key, label = parts
            if kind == "mac":
                mac = parse_mac(key)
                if mac in tags.mac_entries:
                    raise ValueError(f"duplicate MAC {key}")
                tags.mac_entries[mac] = label
            elif kind == "vlan":
                vlan = int(key)
                if not 0 <= vlan <= 4094:
                    raise ValueError("VLAN id out of range")
                if vlan in tags.vlan_entries:
                    raise ValueError(f"duplicate VLAN {vlan}")
                tags.vlan_entries[vlan] = label
            else:
                raise ValueError(f"unknown entry kind {kind!r}")
        except ValueError as exc:
            raise ParseError(str(exc), lineno, str(path)) from None
    return tags


FLOW_TABLE_HEADER = [
    "flow_id",
    "app_label",
    "transport",
    "client_ip",
    "client_port",
    "server_ip",
    "server_port",
    "first_ts_us",
    "last_ts_us",
    "bytes_in",
    "bytes_out",
    "packets_in",
    "packets_out",
    "header_bytes_total",
    "payload_bytes_total",
    "dst_port",
    "client_payload_prefix_hex",
    "server_payload_prefix_hex",
]


def _csv_field(text: str) -> str:
    """text as csv.writer writes it: quoted only if it holds , " CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_flow_table(flows: list[FlowRecord], file: str | Path) -> None:
    """Write flows as CSV in FLOW_TABLE_HEADER column order.

    The bytes are those csv.writer writes, CRLF line ends included,
    but each row is one formatted string, about three times faster on
    a large table. Only the four text fields can need quoting; integer
    and hex fields never do.
    """
    with open(file, "w", newline="") as fh:
        fh.write(",".join(FLOW_TABLE_HEADER) + "\r\n")
        for f in flows:
            key = f.key
            fh.write(
                f"{f.flow_id},{_csv_field(f.app_label or '')},"
                f"{_csv_field(key.transport)},{_csv_field(key.client_ip)},"
                f"{key.client_port},{_csv_field(key.server_ip)},{key.server_port},"
                f"{f.first_ts_us},{f.last_ts_us},{f.bytes_in},{f.bytes_out},"
                f"{f.packets_in},{f.packets_out},{f.header_bytes_total},"
                f"{f.payload_bytes_total},{key.server_port},"
                f"{f.client_payload_prefix.hex()},{f.server_payload_prefix.hex()}\r\n"
            )


def _impossible_row(row: list[str], first_line: dict[int, int]) -> str:
    """Why a row of well-formed fields cannot describe a flow."""
    first_ts_us, last_ts_us = int(row[7]), int(row[8])
    if last_ts_us < first_ts_us:
        return f"last_ts_us {last_ts_us} is before first_ts_us {first_ts_us}"
    for col in range(9, 15):
        if int(row[col]) < 0:
            return f"{FLOW_TABLE_HEADER[col]} is negative: {int(row[col])}"
    flow_id = int(row[0])
    if int(row[11]) + int(row[12]) == 0:
        return f"flow {flow_id} has no packets"
    return f"duplicate flow_id {flow_id}, first on line {first_line[flow_id]}"


def _undecodable(file: str | Path, encoding: str) -> str:
    """'line N: ...' naming the first byte of file that encoding rejects."""
    data = Path(file).read_bytes()
    try:
        data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return f"line {line}: byte {data[exc.start]:#04x} is not valid {exc.encoding}"
    return f"not valid {encoding}"


def read_flow_table(file: str | Path) -> list[FlowRecord]:
    """Read a table written by write_flow_table.

    Raises SchemaMismatch, naming the file and line, for a bad header,
    bytes that are not valid text, or a row with a malformed field, a
    dst_port that disagrees with server_port, a last_ts_us before
    first_ts_us, a negative counter, no packets either way, or a
    flow_id already seen on another line.
    """
    with open(file, newline="") as fh:
        reader = csv.reader(fh)
        try:
            return _parse_flow_table(reader, file)
        except UnicodeDecodeError:
            # decoding runs ahead of parsing, so reader.line_num is not the line
            raise SchemaMismatch(f"{file}: {_undecodable(file, fh.encoding)}") from None
        except csv.Error as exc:
            raise SchemaMismatch(f"{file}: line {reader.line_num}: {exc}") from None


def _parse_flow_table(reader, file: str | Path) -> list[FlowRecord]:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaMismatch(f"{file}: empty file") from None
    if header != FLOW_TABLE_HEADER:
        missing = set(FLOW_TABLE_HEADER) - set(header)
        extra = set(header) - set(FLOW_TABLE_HEADER)
        raise SchemaMismatch(
            f"{file}: bad flow-table header"
            + (f", missing {sorted(missing)}" if missing else "")
            + (f", unexpected {sorted(extra)}" if extra else "")
        )
    flows = []
    first_line: dict[int, int] = {}
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != len(FLOW_TABLE_HEADER):
                raise ValueError(
                    f"row has {len(row)} columns, expected {len(FLOW_TABLE_HEADER)}"
                )
            key = FlowKey(
                client_ip=row[3],
                client_port=int(row[4]),
                server_ip=row[5],
                server_port=int(row[6]),
                transport=row[2],
            )
            if int(row[15]) != key.server_port:
                raise ValueError("dst_port disagrees with server_port")
            flow_id = int(row[0])
            first_ts_us, last_ts_us = int(row[7]), int(row[8])
            bytes_in, bytes_out = int(row[9]), int(row[10])
            packets_in, packets_out = int(row[11]), int(row[12])
            header_bytes, payload_bytes = int(row[13]), int(row[14])
            line = reader.line_num
            # an OR of ints is negative when any of them is
            if (
                (
                    bytes_in | bytes_out | packets_in | packets_out
                    | header_bytes | payload_bytes | (last_ts_us - first_ts_us)
                ) < 0
                or not (packets_in or packets_out)
                or first_line.setdefault(flow_id, line) != line
            ):
                raise ValueError(_impossible_row(row, first_line))
            flows.append(
                FlowRecord(
                    flow_id=flow_id,
                    key=key,
                    app_label=row[1] or None,
                    first_ts_us=first_ts_us,
                    last_ts_us=last_ts_us,
                    bytes_in=bytes_in,
                    bytes_out=bytes_out,
                    packets_in=packets_in,
                    packets_out=packets_out,
                    header_bytes_total=header_bytes,
                    payload_bytes_total=payload_bytes,
                    client_payload_prefix=bytes.fromhex(row[16]),
                    server_payload_prefix=bytes.fromhex(row[17]),
                )
            )
        except ValueError as exc:
            raise SchemaMismatch(f"{file}: line {reader.line_num}: {exc}") from exc
    return flows
