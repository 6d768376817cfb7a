"""Input formats: pcaps, flow tables, and the line format of text inputs.

Reads classic Ethernet pcaps (both endiannesses, microsecond and
nanosecond resolution) and groups packets into bidirectional flows keyed
by the canonical 5-tuple, labelled from a MAC/VLAN tag map. Flows can be
persisted to and restored from a CSV flow table losslessly. This
module owns the table's format. index_flow_table reads a table once
and finds its records in file order; read_flow_lines parses any run of
them, and it and parse_flow_row are the only code that reads a
record's fields, its label included. read_flow_lines also finds the
records that are not the rows write_flow_table writes of their flows,
which write_flow_lines rewrites; check_flow_lines names the lowest bad
line over any number of runs. read_flow_table is index_flow_table,
read_flow_lines and check_flow_lines over one run of every record.
read_text and parse_lines own the line format the five text inputs
share.
"""

from __future__ import annotations

import codecs
import csv
import logging
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

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


def check_labels(flows: list[FlowRecord]) -> None:
    """Raise ValueError for the first of flows with no app label."""
    for flow in flows:
        if not flow.app_label:
            raise ValueError(f"flow {flow.flow_id} has no app label")


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
    """Read all TCP/UDP packets from a classic Ethernet pcap, in file order.

    Also returns the file's record count and skip counters. Any link
    type but Ethernet raises MalformedCapture.
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
    (linktype,) = struct.unpack_from(endian + "I", data, 20)
    if linktype != 1:
        raise MalformedCapture(f"{capture_file}: link type {linktype} is not Ethernet (1)")

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
        if data_off < 20:
            # no room for the fixed header: the ports and flags are not real
            stats.skipped_non_ip += 1
            return None
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
    total_len, frag = struct.unpack_from(">H2xH", frame, offset + 2)
    if frag & 0x1FFF:
        # a later fragment: its payload starts mid-datagram, with no ports
        return None
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

    def to_record(self, flow_id: int, tags: TagMap) -> FlowRecord:
        return FlowRecord(
            flow_id=flow_id,
            key=FlowKey(
                client_ip=self.client[0],
                client_port=self.client[1],
                server_ip=self.server[0],
                server_port=self.server[1],
                transport=self.transport,
            ),
            app_label=tags.vlan_entries.get(self.vlan_id, tags.mac_entries.get(self.src_mac)),
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


def assemble_flows(
    packets: list[PacketRecord],
    idle_timeout_s: float = 60.0,
    tags: TagMap | None = None,
) -> list[FlowRecord]:
    """Group packets into bidirectional flows.

    A flow closes when its TCP teardown completes (both FINs plus the
    final ack, or any RST) or when the gap to the next packet of the
    same key exceeds idle_timeout_s; later packets start a new flow.
    The client is the sender of the first observed packet. With tags,
    a flow's label is the VLAN entry of its first packet, else the
    entry of that packet's source MAC, else None.
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
    tags = tags or TagMap()
    return [state.to_record(flow_id, tags) for flow_id, state in enumerate(finished)]


def _line_ends_in(text: bytes) -> int:
    """How many lines end in text: at each LF, CRLF or CR."""
    return text.count(b"\n") + text.count(b"\r") - text.count(b"\r\n")


def _utf8(data: bytes, encoding: str) -> tuple[bytes, tuple[int, str] | None]:
    """data's text in UTF-8 up to the first byte encoding rejects, and that
    byte's line and why, or None. ASCII data is returned as it is where
    encoding reads each ASCII byte on its own as that character, as all
    but shifting encodings (ISO-2022, UTF-7, HZ), EBCDIC and UTF-16/32 do;
    so is UTF-8 data, which is only checked.
    """
    if data.isascii() and all(bytes([b]).decode(encoding, "replace") == chr(b) for b in range(128)):
        return data, None
    try:
        if encoding != "utf-8":
            return data.decode(encoding).encode(), None
        _check_utf8(data)
        return data, None
    except UnicodeDecodeError as exc:
        error = (_line_ends_in(data[: exc.start]) + 1, _rejected(exc, encoding))
        return data[: exc.start].decode(encoding).encode(), error


def _check_utf8(data: bytes) -> None:
    """Raise UnicodeDecodeError, at its offset in data, for the first byte
    of data that UTF-8 rejects. data is decoded a _CHUNK at a time, so at
    most a _CHUNK of its text is held at once.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    for at in range(0, len(data), _CHUNK):
        chunk = data[at : at + _CHUNK]
        try:
            decoder.decode(chunk, final=at + _CHUNK >= len(data))
        except UnicodeDecodeError as exc:
            # exc.object is the bytes the last chunk left undecoded, then chunk
            start = at + len(chunk) - len(exc.object) + exc.start
            raise UnicodeDecodeError("utf-8", data, start, start + 1, exc.reason) from None


def _rejected(exc: UnicodeDecodeError, codec: str) -> str:
    return f"byte {exc.object[exc.start]:#04x} is not valid {codec}"


def read_text(file: str | Path) -> str:
    """file's text as open() reads it: in the locale's encoding, with
    CRLF and CR made LF. A rejected byte raises ParseError naming the
    file and the line.
    """
    with open(file) as fh:
        data, error = _utf8(fh.buffer.read(), codecs.lookup(fh.encoding).name)
    if error is not None:
        raise ParseError(error[1], error[0], str(file))
    return data.decode().replace("\r\n", "\n").replace("\r", "\n")


def parse_lines(text: str, handle: Callable[[int, str], None], file: str | None) -> None:
    """Call handle(lineno, line) on each entry of a line-format text.

    Only LF ends a line. '#' starts a comment to the end of the line;
    lines left blank are skipped and the rest stripped. A ValueError
    from handle becomes a ParseError naming the line, and file unless None.
    """
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            handle(lineno, line)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, file) from None


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

    def entry(lineno: int, line: str) -> None:
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

    parse_lines(read_text(path), entry, str(path))
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


def format_flow_row(f: FlowRecord) -> str:
    """f's row as csv.writer writes it, CRLF included.

    Only the four text fields can need quoting; integer and hex fields
    never do. One formatted string is about three times faster than
    csv.writer on a large table.
    """
    key = f.key
    return (
        f"{f.flow_id},{_csv_field(f.app_label or '')},"
        f"{_csv_field(key.transport)},{_csv_field(key.client_ip)},"
        f"{key.client_port},{_csv_field(key.server_ip)},{key.server_port},"
        f"{f.first_ts_us},{f.last_ts_us},{f.bytes_in},{f.bytes_out},"
        f"{f.packets_in},{f.packets_out},{f.header_bytes_total},"
        f"{f.payload_bytes_total},{key.server_port},"
        f"{f.client_payload_prefix.hex()},{f.server_payload_prefix.hex()}\r\n"
    )


_HEADER_ROW = ",".join(FLOW_TABLE_HEADER) + "\r\n"


def write_flow_table(flows: list[FlowRecord], file: str | Path) -> None:
    """Write flows as CSV in FLOW_TABLE_HEADER column order.

    The bytes are those csv.writer writes, CRLF line ends included.
    """
    with open(file, "w", newline="") as fh:
        fh.write(_HEADER_ROW)
        for f in flows:
            fh.write(format_flow_row(f))


# features converts counters and timestamps to float64; every int below
# this does, and float() raises OverflowError only at or above it
_FLOAT_SAFE = 2**1023
# a repeat within a run of rows (parse_flow_row) or across runs (check_flow_lines)
_DUPLICATE = "duplicate flow_id {}, first on line {}"


def parse_flow_row(row: list[str], line: int, first_line: dict[int, int]) -> FlowRecord:
    """The flow that row, the fields of the table's line `line`, describes.

    Raises ValueError for a malformed field or a dst_port that disagrees
    with server_port, and then for the first of, in this order: a
    last_ts_us before first_ts_us, a negative counter (the first, in
    column order), no packets either way, a flow_id that first_line maps
    to another line, and a counter or timestamp too large for a float64
    (the first, in column order). first_line maps each flow_id seen so
    far to its line; a row's flow_id is added once it passes that check,
    before the size check and the hex fields are read.
    """
    if len(row) != len(FLOW_TABLE_HEADER):
        raise ValueError(f"row has {len(row)} columns, expected {len(FLOW_TABLE_HEADER)}")
    # positional: keywords make building a record about twice as slow
    key = FlowKey(row[3], int(row[4]), row[5], int(row[6]), row[2])
    if int(row[15]) != key.server_port:
        raise ValueError("dst_port disagrees with server_port")
    flow_id = int(row[0])
    first_ts_us, last_ts_us = int(row[7]), int(row[8])
    bytes_in, bytes_out = int(row[9]), int(row[10])
    packets_in, packets_out = int(row[11]), int(row[12])
    header_bytes, payload_bytes = int(row[13]), int(row[14])
    if last_ts_us < first_ts_us:
        raise ValueError(f"last_ts_us {last_ts_us} is before first_ts_us {first_ts_us}")
    # an OR of ints is negative when any of them is, else at least the largest
    counters = bytes_in | bytes_out | packets_in | packets_out | header_bytes | payload_bytes
    if counters < 0:
        col = next(col for col in range(9, 15) if int(row[col]) < 0)
        raise ValueError(f"{FLOW_TABLE_HEADER[col]} is negative: {int(row[col])}")
    if not (packets_in or packets_out):
        raise ValueError(f"flow {flow_id} has no packets")
    first = first_line.setdefault(flow_id, line)
    if first != line:
        raise ValueError(_DUPLICATE.format(flow_id, first))
    if (counters | abs(first_ts_us) | abs(last_ts_us)) >= _FLOAT_SAFE:
        for col in range(7, 15):
            try:
                float(int(row[col]))
            except OverflowError:
                raise ValueError(f"{FLOW_TABLE_HEADER[col]} is out of float64's range") from None
    return FlowRecord(
        flow_id,
        key,
        row[1] or None,
        first_ts_us,
        last_ts_us,
        bytes_in,
        bytes_out,
        packets_in,
        packets_out,
        header_bytes,
        payload_bytes,
        bytes.fromhex(row[16]),
        bytes.fromhex(row[17]),
    )


def _check_header(header: list[str], file: str | Path) -> None:
    if header != FLOW_TABLE_HEADER:
        missing = set(FLOW_TABLE_HEADER) - set(header)
        extra = set(header) - set(FLOW_TABLE_HEADER)
        raise SchemaMismatch(
            f"{file}: bad flow-table header"
            + (f", missing {sorted(missing)}" if missing else "")
            + (f", unexpected {sorted(extra)}" if extra else "")
        )


def read_flow_table(file: str | Path) -> list[FlowRecord]:
    """Read a table written by write_flow_table: index_flow_table, then
    read_flow_lines over every record.

    Raises SchemaMismatch naming the file for an empty file or a bad
    header, and else, through check_flow_lines, the lowest bad line: a
    bad row, a misplaced quote, or a byte the encoding rejects.
    """
    table = index_flow_table(file)
    run = read_flow_lines(table, table.records)
    check_flow_lines(table, [run])
    return run.flows


_CHUNK = 1 << 20


class FlowTableLines(NamedTuple):
    """A flow table's UTF-8 bytes and where its records are in them.

    records is an int64 array with one (start, stop, line) row per
    record of data, in file order (_records); blank lines and the header
    are left out. error is the first line the index could not read, and
    why, or None; records stop before that line.
    """

    file: str
    data: bytes
    records: np.ndarray
    error: tuple[int, str] | None


def _offsets(buf: np.ndarray, byte: int) -> np.ndarray:
    """Offsets of byte in buf, found a chunk at a time to bound the scratch memory."""
    return np.concatenate(
        [np.flatnonzero(buf[at : at + _CHUNK] == byte) + at for at in range(0, len(buf), _CHUNK)]
        or [np.empty(0, np.intp)]
    )


def _records(buf: np.ndarray, quotes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets and line of each record of buf, whose quotes are at quotes, as csv reads them.

    Lines end at each LF and each CR not before an LF. A record ends at
    a line end with an even number of quotes before it, or at the end
    of buf. Its start and stop offsets exclude its line end, and its
    line is the number of its last line, as csv's line_num counts it.
    """
    cr, lf = _offsets(buf, 13), _offsets(buf, 10)
    ends = np.sort(np.concatenate([lf, cr[buf[np.minimum(cr + 1, len(buf) - 1)] != 10]]))
    last_line = len(ends) + bool(len(buf) and buf[-1] not in (10, 13))
    even = (np.searchsorted(quotes, ends) & 1) == 0
    ends, lines = ends[even], np.append(np.flatnonzero(even) + 1, last_line)
    starts = np.concatenate([[0], ends + 1])
    # a CRLF's CR is not part of the record
    stops = np.append(ends - ((buf[ends] == 10) & (buf[ends - 1] == 13) & (ends > 0)), len(buf))
    if starts[-1] == len(buf):  # no record after the last line end
        return starts[:-1], stops[:-1], lines[:-1]
    return starts, stops, lines


# What may come before a field's opening quote and after its closing one,
# besides the start or end of buf: a comma, a line end, or a doubled quote
_QUOTE_NEIGHBOURS = np.array([44, 10, 13, 34], np.uint8)


def _misplaced_quote(buf: np.ndarray, quotes: np.ndarray) -> tuple[int, str] | None:
    """The offset of the first quote that csv reads as a literal, and why, or None.

    A quote with an even number of quotes before it opens a field, and
    the next one closes it. While each quote has the neighbour it may
    have, the quotes' parity says where csv is inside a quoted field.
    """
    neighbour = quotes - 1 + 2 * (np.arange(len(quotes)) & 1)  # the byte before or after
    misplaced = (neighbour >= 0) & (neighbour < len(buf))
    misplaced &= ~np.isin(buf[np.clip(neighbour, 0, len(buf) - 1)], _QUOTE_NEIGHBOURS)
    if not misplaced.any():
        return None
    at = int(np.argmax(misplaced))
    reason = "text follows a closing quote" if at & 1 else "an unquoted field holds a quote"
    return int(quotes[at]), f"misplaced quote: {reason}"


def index_flow_table(file: str | Path) -> FlowTableLines:
    """file's text in UTF-8 and where its records are, for parsing in runs.

    The file is read once, and decoded or checked in the locale's
    encoding (_utf8). The header is checked here, as read_flow_table
    checks it; rows are not parsed. The index stops at the first byte
    the encoding rejects or quote that csv reads as a literal, and
    names its line in error; where that leaves no header, it raises
    SchemaMismatch.
    """
    with open(file, newline="") as fh:
        data, error = _utf8(fh.buffer.read(), codecs.lookup(fh.encoding).name)
    cut = len(data) if error else None
    buf = np.frombuffer(data, np.uint8)
    quotes = _offsets(buf, 34) if b'"' in data else np.empty(0, np.intp)
    misplaced = _misplaced_quote(buf, quotes)
    if misplaced is not None:  # before any rejected byte, where data stops
        cut, reason = misplaced
        error = (_line_ends_in(data[:cut]) + 1, reason)
    starts, stops, lines = _records(buf, quotes)
    if cut is not None:
        kept = stops < cut
        starts, stops, lines = starts[kept], stops[kept], lines[kept]
    if not len(starts):
        where = f"line {error[0]}: {error[1]}" if error else "empty file"
        raise SchemaMismatch(f"{file}: {where}")
    try:
        header = next(csv.reader([data[starts[0] : stops[0]].decode()]))
    except csv.Error as exc:
        raise SchemaMismatch(f"{file}: line {lines[0]}: {exc}") from None
    _check_header(header, file)

    filled = stops > starts
    filled[0] = False
    records = np.column_stack([starts[filled], stops[filled], lines[filled]])
    return FlowTableLines(str(file), data, records.astype(np.int64, copy=False), error)


class FlowLines(NamedTuple):
    """A run of a table's records, parsed by read_flow_lines."""

    flows: list[FlowRecord]  # the flows of the records before the first bad one
    ids: np.ndarray  # the flow_ids parse_flow_row took, in line order
    lines: np.ndarray  # their lines
    error: tuple[int, str] | None  # the first bad record's line and why, or None
    # by line, the row format_flow_row writes (UTF-8, line end excluded) of
    # each of flows whose record is not that row
    rewritten: dict[int, bytes]


def flow_id_array(ids: list[int]) -> np.ndarray:
    """ids as an array: int64 unless a flow_id does not fit, then object."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array(ids, dtype=object)


def read_flow_lines(table: FlowTableLines, rows: np.ndarray) -> FlowLines:
    """Parse the records at rows, entries of table.records in line order.

    Each record is split into fields as csv splits it and read by
    parse_flow_row, which finds the flow_ids that repeat within the run,
    and each parsed record is compared with the row format_flow_row
    writes of its flow. Parsing stops at the first bad record.
    """
    data = table.data
    flows: list[FlowRecord] = []
    first_line: dict[int, int] = {}
    rewritten: dict[int, bytes] = {}
    error = None
    limit = csv.field_size_limit()
    for start, stop, line in rows.tolist():
        text = data[start:stop].decode()
        try:
            # csv splits a record at its commas, unless it holds a quote,
            # a NUL or a field over csv's size limit
            if '"' in text or "\0" in text or len(text) > limit:
                row = next(csv.reader([text]))
            else:
                row = text.split(",")
            flow = parse_flow_row(row, line, first_line)
        except (csv.Error, ValueError) as exc:
            error = (line, str(exc))
            break
        flows.append(flow)
        if (canonical := format_flow_row(flow)[:-2]) != text:
            rewritten[line] = canonical.encode()
    lines = np.array(list(first_line.values()), dtype=np.int64)
    return FlowLines(flows, flow_id_array(list(first_line)), lines, error, rewritten)


def check_flow_lines(table: FlowTableLines, runs: list[FlowLines]) -> None:
    """Raise SchemaMismatch, naming table's file, for the lowest bad line
    that runs of its records, each in line order, or its index found.

    Those are a flow_id already on an earlier line of another run, each
    run's first bad line, then table.error, below which all runs lie.
    On one line the repeat wins: parse_flow_row rejects a repeated
    flow_id before it reads the hex fields.
    """
    bad = [run.error for run in runs if run.error is not None]
    if runs:
        ids = np.concatenate([run.ids for run in runs])
        lines = np.concatenate([run.lines for run in runs])
        order = np.argsort(lines)
        ids, lines = ids[order], lines[order]
        by_id = np.argsort(ids, kind="stable")
        again = by_id[1:][ids[by_id[1:]] == ids[by_id[:-1]]]  # each id's lines after its first
        if len(again):
            at = int(again.min())
            first_on = int(lines[np.argmax(ids == ids[at])])
            bad.insert(0, (int(lines[at]), _DUPLICATE.format(int(ids[at]), first_on)))
    error = min(bad, key=lambda error: error[0], default=None) or table.error
    if error is not None:
        raise SchemaMismatch(f"{table.file}: line {error[0]}: {error[1]}")


def write_flow_lines(
    file: str | Path, table: FlowTableLines, kept: tuple[list[np.ndarray], dict[int, bytes]]
) -> None:
    """Write a table of table's records as write_flow_table writes their rows.

    kept holds runs of entries of table.records, written in order, and,
    by line, the row of each record that is not as format_flow_row
    writes it, as read_flow_lines found them (FlowLines.rewritten);
    every other row is its record plus CRLF.
    The file is written in the locale's encoding, as write_flow_table
    writes it.
    """
    runs, texts = kept
    data = table.data
    with open(file, "w", newline="") as fh:
        out, encoding = fh.buffer, fh.encoding  # bytes go past the text layer, which stays empty
        recode = codecs.lookup(encoding).name != "utf-8"
        encode = codecs.getincrementalencoder(encoding)().encode  # a BOM, if any, once
        out.write(encode(_HEADER_ROW))
        for rows in runs:
            lines = [texts.get(line, data[start:stop]) for start, stop, line in rows.tolist()]
            lines.append(b"")
            block = b"\r\n".join(lines)
            out.write(encode(block.decode()) if recode else block)
