"""Tests for pcap reading, flow assembly, tagging, and flow tables."""

import builtins
import csv
import functools
import math
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import flowclean.ingest as ingest_mod
from flowclean.errors import MalformedCapture, ParseError, SchemaMismatch
from flowclean.ingest import (
    FLOW_TABLE_HEADER,
    FlowKey,
    FlowRecord,
    TagMap,
    _check_header,
    assemble_flows,
    format_flow_row,
    index_flow_table,
    parse_flow_row,
    parse_mac,
    read_flow_lines,
    read_flow_table,
    read_packets,
    read_tag_map,
    write_flow_table,
)

from conftest import (
    TCP_ACK,
    TCP_FIN,
    TCP_RST,
    TCP_SYN,
    ethernet,
    ipv4,
    ipv6,
    make_flow,
    pcap_bytes,
    tcp,
    tcp4_frame,
    udp,
    udp4_frame,
)


def write_pcap(tmp_path, frames, **kw):
    path = tmp_path / "capture.pcap"
    path.write_bytes(pcap_bytes(frames, **kw))
    return path


def test_read_packets_basic_fields(tmp_path):
    frame = tcp4_frame("192.168.0.2", "10.0.0.1", 40000, 443, b"hello", TCP_SYN | TCP_ACK)
    path = write_pcap(tmp_path, [(100, 250, frame)])
    packets, _ = read_packets(path)
    assert len(packets) == 1
    p = packets[0]
    assert p.timestamp_us == 100_000_250
    assert p.src_ip == "192.168.0.2"
    assert p.dst_ip == "10.0.0.1"
    assert p.src_port == 40000
    assert p.dst_port == 443
    assert p.transport == "tcp"
    assert p.tcp_flags == frozenset({"SYN", "ACK"})
    assert p.payload_len == 5
    assert p.payload_prefix == b"hello"
    assert p.header_len == 14 + 20 + 20
    assert p.wire_len == len(frame)
    assert p.src_mac == b"\x02\x00\x00\x00\x00\x01"
    assert p.vlan_id is None


def test_read_packets_big_endian(tmp_path):
    frame = udp4_frame("1.2.3.4", "5.6.7.8", 1111, 53, b"x" * 20)
    path = write_pcap(tmp_path, [(7, 9, frame)], endian=">")
    packets, _ = read_packets(path)
    assert len(packets) == 1
    assert packets[0].transport == "udp"
    assert packets[0].timestamp_us == 7_000_009
    assert packets[0].payload_len == 20


def test_read_packets_nanosecond_magic(tmp_path):
    frame = udp4_frame("1.2.3.4", "5.6.7.8", 1111, 2222)
    path = write_pcap(tmp_path, [(3, 123_456_789, frame)], nanosecond=True)
    packets, _ = read_packets(path)
    assert packets[0].timestamp_us == 3_123_456


def test_read_packets_bad_magic(tmp_path):
    path = tmp_path / "bad.pcap"
    path.write_bytes(b"\x00\x01\x02\x03" + b"\x00" * 24)
    with pytest.raises(MalformedCapture):
        read_packets(path)


def test_read_packets_truncated_header(tmp_path):
    path = tmp_path / "short.pcap"
    path.write_bytes(b"\xd4\xc3\xb2\xa1\x02\x00")
    with pytest.raises(MalformedCapture):
        read_packets(path)


def test_vlan_tag_parsed(tmp_path):
    frame = tcp4_frame("10.0.0.2", "10.0.0.3", 1, 2, vlan=301)
    packets, _ = read_packets(write_pcap(tmp_path, [(0, 0, frame)]))
    assert packets[0].vlan_id == 301


def test_non_ip_frames_counted_not_returned(tmp_path):
    arp = ethernet(b"\x00" * 28, 0x0806)
    good = udp4_frame("1.1.1.1", "2.2.2.2", 5, 6)
    packets, stats = read_packets(write_pcap(tmp_path, [(0, 0, arp), (0, 1, good)]))
    assert len(packets) == 1
    assert stats.records == 2
    assert stats.skipped_non_ip == 1


def test_truncated_record_stops_read(tmp_path):
    good = udp4_frame("1.1.1.1", "2.2.2.2", 5, 6)
    data = pcap_bytes([(0, 0, good)])
    # append a record header promising more bytes than present
    data += struct.pack("<IIII", 1, 0, 500, 500) + b"\x00" * 10
    path = tmp_path / "trunc.pcap"
    path.write_bytes(data)
    packets, stats = read_packets(path)
    assert len(packets) == 1
    assert stats.skipped_truncated == 1


def test_ipv6_packet(tmp_path):
    src = (0x2001, 0xDB8, 0, 0, 0, 0, 0, 1)
    dst = (0x2001, 0xDB8, 0, 0, 0, 0, 0, 2)
    frame = ethernet(ipv6(src, dst, 6, tcp(10, 20, b"abc")), 0x86DD)
    packets, _ = read_packets(write_pcap(tmp_path, [(0, 0, frame)]))
    assert len(packets) == 1
    assert packets[0].src_ip == "2001:db8:0:0:0:0:0:1"
    assert packets[0].payload_len == 3


# --- pcap reader fuzzing ------------------------------------------------

_V6_SRC = (0x2001, 0xDB8, 0, 0, 0, 0, 0, 1)
_V6_DST = (0x2001, 0xDB8, 0, 0, 0, 0, 0, 2)
FUZZ_FRAMES = (
    tcp4_frame("10.0.0.2", "10.0.0.3", 40000, 443, b"\x16\x03\x01" + b"x" * 40),
    udp4_frame("10.0.0.2", "10.0.0.53", 5353, 53, b"q" * 20),
    tcp4_frame("10.0.0.2", "10.0.0.3", 40000, 443, flags=TCP_SYN, vlan=301),
    ethernet(ipv6(_V6_SRC, _V6_DST, 6, tcp(10, 20, b"abc")), 0x86DD),
    ethernet(ipv6(_V6_SRC, _V6_DST, 17, udp(10, 20, b"abc")), 0x86DD),
    ethernet(b"\x00" * 28, 0x0806),
)


def assert_counters_add_up(packets, stats):
    assert stats.packets == len(packets)
    # every record read is a packet, a non-IP skip or a truncated frame;
    # a record cut short by the end of the file is counted as truncated
    # but not as a record, and ends the read
    cut_records = (
        stats.skipped_truncated - (stats.records - stats.packets - stats.skipped_non_ip)
    )
    assert cut_records in (0, 1)


@st.composite
def mangled_frames(draw):
    frame = bytearray(draw(st.sampled_from(FUZZ_FRAMES)))
    for _ in range(draw(st.integers(0, 4))):
        frame[draw(st.integers(0, len(frame) - 1))] = draw(st.integers(0, 255))
    return bytes(frame[: draw(st.integers(0, len(frame)))])


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=300)
@given(
    st.binary(max_size=300),
    st.sampled_from([b"", pcap_bytes([]), pcap_bytes([], endian=">"),
                     pcap_bytes([], nanosecond=True)]),
)
def test_read_packets_on_any_bytes_raises_only_malformed_capture(tmp_path, data, header):
    path = tmp_path / "fuzz.pcap"
    path.write_bytes(header + data)
    try:
        packets, stats = read_packets(path)
    except MalformedCapture as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert_counters_add_up(packets, stats)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=300)
@given(st.lists(mangled_frames(), max_size=6), st.sampled_from(["<", ">"]))
def test_read_packets_skips_mangled_frames(tmp_path, frames, endian):
    path = tmp_path / "mangled.pcap"
    path.write_bytes(pcap_bytes([(i, 0, f) for i, f in enumerate(frames)], endian=endian))
    packets, stats = read_packets(path)
    assert stats.records == len(frames)
    assert stats.packets + stats.skipped_non_ip + stats.skipped_truncated == len(frames)
    assert_counters_add_up(packets, stats)


_FUZZ_CAPTURE = pcap_bytes([(i, 0, f) for i, f in enumerate(FUZZ_FRAMES)])


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=200)
@given(st.integers(0, len(_FUZZ_CAPTURE)))
def test_read_packets_on_capture_cut_at_any_offset(tmp_path, cut):
    path = tmp_path / "cut.pcap"
    path.write_bytes(_FUZZ_CAPTURE[:cut])
    if cut < 24:
        with pytest.raises(MalformedCapture, match="truncated global header"):
            read_packets(path)
        return
    packets, stats = read_packets(path)
    ends = [24]
    for frame in FUZZ_FRAMES:
        ends.append(ends[-1] + 16 + len(frame))
    whole = sum(end <= cut for end in ends[1:])
    assert stats.records == whole
    assert stats.skipped_truncated == (cut not in ends)
    assert_counters_add_up(packets, stats)
    whole_path = tmp_path / "whole.pcap"
    whole_path.write_bytes(_FUZZ_CAPTURE[: ends[whole]])
    assert packets == read_packets(whole_path)[0]


@pytest.mark.parametrize("linktype", [101, 113])
@pytest.mark.parametrize("endian", ["<", ">"])
def test_read_packets_refuses_non_ethernet_link_types(tmp_path, linktype, endian):
    # raw IP (101) and Linux cooked (113) frames have no Ethernet header
    data = bytearray(pcap_bytes([(0, 0, FUZZ_FRAMES[0])], endian=endian))
    struct.pack_into(endian + "I", data, 20, linktype)
    path = tmp_path / "cooked.pcap"
    path.write_bytes(bytes(data))
    with pytest.raises(MalformedCapture) as exc_info:
        read_packets(path)
    assert str(exc_info.value) == f"{path}: link type {linktype} is not Ethernet (1)"


def test_tcp_data_offset_below_five_words_is_skipped(tmp_path):
    segment = bytearray(tcp(40000, 443, b"hello"))
    segment[12] = 0  # data offset 0: the header would overlap the ports
    frame = ethernet(ipv4("10.0.0.2", "10.0.0.3", 6, bytes(segment)), 0x0800)
    good = tcp4_frame("10.0.0.2", "10.0.0.3", 40000, 443, b"hello")
    packets, stats = read_packets(write_pcap(tmp_path, [(0, 0, frame), (1, 0, good)]))
    assert [p.payload_len for p in packets] == [5]
    assert packets[0].timestamp_us == 1_000_000
    assert stats.skipped_non_ip == 1
    assert_counters_add_up(packets, stats)


def _udp4_fragment(flags_and_offset: int, payload: bytes) -> bytes:
    packet = bytearray(ipv4("10.0.0.2", "10.0.0.53", 17, payload))
    struct.pack_into(">H", packet, 6, flags_and_offset)
    return ethernet(bytes(packet), 0x0800)


@pytest.mark.parametrize("flags_and_offset", [185, 0x2000 | 185])
def test_non_first_ipv4_fragment_is_skipped(tmp_path, flags_and_offset):
    # mid-datagram bytes that would read as ports 0x1234 -> 53
    frame = _udp4_fragment(flags_and_offset, b"\x12\x34\x00\x35" + b"x" * 20)
    packets, stats = read_packets(write_pcap(tmp_path, [(0, 0, frame)]))
    assert packets == []
    assert stats.skipped_non_ip == 1
    assert_counters_add_up(packets, stats)


def test_first_ipv4_fragment_is_parsed(tmp_path):
    # more-fragments set, offset 0: the UDP header is really there
    frame = _udp4_fragment(0x2000, udp(5353, 53, b"q" * 20))
    packets, stats = read_packets(write_pcap(tmp_path, [(0, 0, frame)]))
    assert [(p.src_port, p.dst_port) for p in packets] == [(5353, 53)]
    assert stats.skipped_non_ip == 0


def _session_frames(payloads_c2s, payloads_s2c, base_ts=10):
    """Interleave client->server then server->client packets."""
    frames = []
    t = base_ts
    for c, s in zip(payloads_c2s, payloads_s2c):
        frames.append((t, 0, tcp4_frame("192.168.0.2", "10.0.0.1", 40000, 443, c)))
        frames.append((t, 500, tcp4_frame("10.0.0.1", "192.168.0.2", 443, 40000, s)))
        t += 1
    return frames


def test_assemble_flows_direction_and_counters(tmp_path):
    frames = _session_frames([b"q1", b"q2"], [b"r1" * 10, b"r2" * 10])
    packets, _ = read_packets(write_pcap(tmp_path, frames))
    flows = assemble_flows(packets)
    assert len(flows) == 1
    f = flows[0]
    assert f.key.client_ip == "192.168.0.2"
    assert f.key.server_ip == "10.0.0.1"
    assert f.packets_out == 2
    assert f.packets_in == 2
    assert f.bytes_out == sum(54 + 2 for _ in range(2))
    assert f.bytes_in == sum(54 + 20 for _ in range(2))
    assert f.client_payload_prefix == b"q1"
    assert f.server_payload_prefix == b"r1" * 10
    assert f.first_ts_us == 10_000_000
    assert f.last_ts_us == 11_000_500
    assert f.key.server_port == 443


def test_assemble_flows_server_initiated_direction(tmp_path):
    # first packet decides who the client is, not the port numbers
    frames = [(5, 0, tcp4_frame("10.0.0.1", "192.168.0.2", 443, 40000, b"push"))]
    flows = assemble_flows(read_packets(write_pcap(tmp_path, frames))[0])
    assert flows[0].key.client_ip == "10.0.0.1"
    assert flows[0].key.client_port == 443
    assert flows[0].packets_out == 1
    assert flows[0].packets_in == 0


def test_idle_timeout_splits_strictly_greater(tmp_path):
    mk = lambda t: (t, 0, udp4_frame("1.1.1.1", "2.2.2.2", 5, 6, b"x"))
    # gap exactly equal to the timeout stays one flow
    packets, _ = read_packets(write_pcap(tmp_path, [mk(0), mk(60)]))
    assert len(assemble_flows(packets, idle_timeout_s=60)) == 1
    # one microsecond beyond the timeout splits
    frames = [mk(0), (60, 1, udp4_frame("1.1.1.1", "2.2.2.2", 5, 6, b"x"))]
    packets, _ = read_packets(write_pcap(tmp_path, frames))
    flows = assemble_flows(packets, idle_timeout_s=60)
    assert len(flows) == 2
    assert [f.flow_id for f in flows] == [0, 1]


@pytest.mark.parametrize("idle", [math.inf, math.nan, 0, -1])
def test_idle_timeout_must_be_positive_and_finite(tmp_path, idle):
    frames = [(0, 0, udp4_frame("1.1.1.1", "2.2.2.2", 5, 6, b"x"))]
    packets, _ = read_packets(write_pcap(tmp_path, frames))
    with pytest.raises(
        ValueError, match=r"^idle_timeout_s must be a positive finite number, got "
    ):
        assemble_flows(packets, idle_timeout_s=idle)


def test_rst_closes_flow(tmp_path):
    frames = [
        (1, 0, tcp4_frame("192.168.0.2", "10.0.0.1", 40000, 443, b"a")),
        (2, 0, tcp4_frame("10.0.0.1", "192.168.0.2", 443, 40000, b"", TCP_RST)),
        (3, 0, tcp4_frame("192.168.0.2", "10.0.0.1", 40000, 443, b"b")),
    ]
    flows = assemble_flows(read_packets(write_pcap(tmp_path, frames))[0])
    assert len(flows) == 2
    assert flows[0].packets_out + flows[0].packets_in == 2
    assert flows[1].client_payload_prefix == b"b"


def test_fin_fin_ack_closes_flow(tmp_path):
    c, s = "192.168.0.2", "10.0.0.1"
    frames = [
        (1, 0, tcp4_frame(c, s, 40000, 443, b"data")),
        (2, 0, tcp4_frame(c, s, 40000, 443, b"", TCP_FIN | TCP_ACK)),
        (3, 0, tcp4_frame(s, c, 443, 40000, b"", TCP_FIN | TCP_ACK)),
        (4, 0, tcp4_frame(c, s, 40000, 443, b"", TCP_ACK)),
        # same 5-tuple again: must be a fresh flow despite no idle gap
        (5, 0, tcp4_frame(c, s, 40000, 443, b"again")),
    ]
    flows = assemble_flows(read_packets(write_pcap(tmp_path, frames))[0])
    assert len(flows) == 2
    assert flows[0].packets_out + flows[0].packets_in == 4
    assert flows[1].client_payload_prefix == b"again"


def test_apply_tags_vlan_beats_mac(tmp_path):
    mac = b"\x02\x00\x00\x00\x00\x0a"
    frames = [
        (0, 0, tcp4_frame("1.1.1.1", "2.2.2.2", 1, 2, src_mac=mac, vlan=100)),
        (1, 0, tcp4_frame("3.3.3.3", "4.4.4.4", 3, 4, src_mac=mac)),
        (2, 0, tcp4_frame("5.5.5.5", "6.6.6.6", 5, 6)),
    ]
    tags = TagMap(
        mac_entries={mac: "macapp"},
        vlan_entries={100: "vlanapp"},
    )
    tagged = assemble_flows(read_packets(write_pcap(tmp_path, frames))[0], tags=tags)
    assert tagged[0].app_label == "vlanapp"
    assert tagged[1].app_label == "macapp"
    assert tagged[2].app_label is None


def test_read_tag_map(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text(
        "# devices\n"
        "mac 02:00:00:00:00:0a youku-phone\n"
        "vlan 100 weishi-phone\n"
        "\n"
    )
    tags = read_tag_map(path)
    assert tags.mac_entries[parse_mac("02:00:00:00:00:0a")] == "youku-phone"
    assert tags.vlan_entries[100] == "weishi-phone"


@pytest.mark.parametrize(
    "line",
    [
        "mac 02:00 gadget",
        "vlan 5000 gadget",
        "bogus 1 gadget",
        "mac 02:00:00:00:00:01",
        "mac 02:00:00:00:00:01 a\nmac 02:00:00:00:00:01 b",
        "vlan 7 a\nvlan 7 b",
        "vlan abc app1",
        "mac zz:00:00:00:00:01 app1",
    ],
)
def test_read_tag_map_rejects_bad_lines(tmp_path, line):
    path = tmp_path / "tags.txt"
    path.write_text(line + "\n")
    bad_line = line.count("\n") + 1
    with pytest.raises(ParseError, match=rf"tags\.txt:{bad_line}: "):
        read_tag_map(path)


def test_mac_parse_format_roundtrip():
    assert parse_mac("02:00:00:00:00:ff") == bytes.fromhex("0200000000ff")
    assert parse_mac("0200.0000.00ff".replace(".", "")) == parse_mac("02-00-00-00-00-ff")


def test_flow_table_roundtrip(tmp_path):
    flows = [
        make_flow(flow_id=0, client_payload_prefix=b"\x16\x03\x01ab"),
        make_flow(flow_id=1, app_label=None, transport="udp", server_port=53,
                  server_payload_prefix=b"\x00\x01"),
    ]
    path = tmp_path / "flows.csv"
    write_flow_table(flows, path)
    back = read_flow_table(path)
    assert back == flows


def test_flow_table_header_exact(tmp_path):
    path = tmp_path / "flows.csv"
    write_flow_table([make_flow()], path)
    header = path.read_text().splitlines()[0]
    assert header == (
        "flow_id,app_label,transport,client_ip,client_port,server_ip,"
        "server_port,first_ts_us,last_ts_us,bytes_in,bytes_out,packets_in,"
        "packets_out,header_bytes_total,payload_bytes_total,dst_port,"
        "client_payload_prefix_hex,server_payload_prefix_hex"
    )


def test_flow_table_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("flow_id,labels\n1,x\n")
    with pytest.raises(SchemaMismatch):
        read_flow_table(path)


def test_flow_table_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SchemaMismatch):
        read_flow_table(path)


@pytest.mark.parametrize(
    "column, value, message",
    [
        (9, "12x", "invalid literal for int()"),
        (16, "16zz", "non-hexadecimal number"),
        (15, "80", "dst_port disagrees with server_port"),
        (None, None, "row has 17 columns, expected 18"),
        # surrogateescape writes "\udcff" as the single byte 0xff
        (1, "app\udcff", "byte 0xff is not valid utf-8"),
    ],
    ids=["bad-int", "bad-hex", "dst-port", "short-row", "bad-utf8"],
)
def test_flow_table_bad_row_names_file_and_line(tmp_path, column, value, message):
    path = tmp_path / "flows.csv"
    write_flow_table([make_flow(flow_id=i) for i in range(3)], path)
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")  # line 3: the second data row
    if column is None:
        fields.pop()
    else:
        fields[column] = value
    lines[2] = ",".join(fields)
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    with pytest.raises(SchemaMismatch) as exc_info:
        read_flow_table(path)
    text = str(exc_info.value)
    assert text.startswith(f"{path}: line 3: ")
    assert message in text


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(bytes_in=0, bytes_out=0, packets_in=0, packets_out=0),
         "line 3: flow 1 has no packets"),
        (dict(bytes_in=-5), "line 3: bytes_in is negative: -5"),
        (dict(packets_out=-1), "line 3: packets_out is negative: -1"),
        (dict(first_ts_us=5_000_000, last_ts_us=4_000_000),
         "line 3: last_ts_us 4000000 is before first_ts_us 5000000"),
        (dict(flow_id=0), "line 3: duplicate flow_id 0, first on line 2"),
        # float() raises OverflowError at 2**1024 - 2**970 and above
        (dict(bytes_in=10**400), "line 3: bytes_in is out of float64's range"),
        (dict(header_bytes_total=2**1024 - 2**970),
         "line 3: header_bytes_total is out of float64's range"),
        (dict(first_ts_us=-(2**1024)), "line 3: first_ts_us is out of float64's range"),
        (dict(flow_id=0, last_ts_us=10**400), "line 3: duplicate flow_id 0, first on line 2"),
        # a row with two faults names the one checked first
        (dict(first_ts_us=5_000_000, last_ts_us=4_000_000, bytes_in=-5),
         "line 3: last_ts_us 4000000 is before first_ts_us 5000000"),
        (dict(bytes_in=-5, packets_in=0, packets_out=0), "line 3: bytes_in is negative: -5"),
        (dict(flow_id=0, packets_in=0, packets_out=0), "line 3: flow 0 has no packets"),
        (dict(bytes_in=10**400, bytes_out=-1), "line 3: bytes_out is negative: -1"),
    ],
    ids=["no-packets", "negative-bytes", "negative-packets", "ends-before-start",
         "duplicate-id", "huge-counter", "float64-overflow", "huge-timestamp",
         "duplicate-before-huge", "ends-before-start-before-negative",
         "negative-before-no-packets", "no-packets-before-duplicate",
         "negative-before-huge"],
)
def test_flow_table_rejects_impossible_rows(tmp_path, fields, message):
    path = tmp_path / "flows.csv"
    flows = [make_flow(flow_id=0), make_flow(**{"flow_id": 1, **fields}), make_flow(flow_id=2)]
    write_flow_table(flows, path)
    with pytest.raises(SchemaMismatch) as exc_info:
        read_flow_table(path)
    assert str(exc_info.value) == f"{path}: {message}"


def write_flow_table_oracle(flows, file):
    """The flow-table writer as it was first written, on csv.writer."""
    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FLOW_TABLE_HEADER)
        for f in flows:
            writer.writerow(
                [
                    f.flow_id,
                    f.app_label or "",
                    f.key.transport,
                    f.key.client_ip,
                    f.key.client_port,
                    f.key.server_ip,
                    f.key.server_port,
                    f.first_ts_us,
                    f.last_ts_us,
                    f.bytes_in,
                    f.bytes_out,
                    f.packets_in,
                    f.packets_out,
                    f.header_bytes_total,
                    f.payload_bytes_total,
                    f.key.server_port,
                    f.client_payload_prefix.hex(),
                    f.server_payload_prefix.hex(),
                ]
            )


def reference_read_flow_table(file, encoding=None):
    """The flow-table reader before the line index read every table: csv
    over the decoded file, kept verbatim as the oracle.

    It reads a misplaced quote as a literal, where read_flow_table
    refuses it, and a rejected byte wins over a lower bad row when both
    fall in the 8 KB chunk being decoded. encoding stands in for the
    locale's.
    """
    with open(file, newline="", encoding=encoding) as fh:
        reader = csv.reader(fh)
        try:
            return _reference_parse_flow_table(reader, file)
        except UnicodeDecodeError:
            line, reason = _reference_undecodable(file, fh.encoding)
            raise SchemaMismatch(f"{file}: line {line}: {reason}") from None
        except csv.Error as exc:
            raise SchemaMismatch(f"{file}: line {reader.line_num}: {exc}") from None


def _reference_undecodable(file, encoding):
    with open(file, "rb") as fh:
        data = fh.read()
    try:
        data.decode(encoding)
    except UnicodeDecodeError as exc:
        before = data[: exc.start].replace(b"\r\n", b"\n")
        line = before.count(b"\n") + before.count(b"\r") + 1  # LF, CRLF or CR end lines
        return line, f"byte {exc.object[exc.start]:#04x} is not valid {exc.encoding}"
    return 1, f"not valid {encoding} when first read"


def _reference_parse_flow_table(reader, file):
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaMismatch(f"{file}: empty file") from None
    _check_header(header, file)
    flows = []
    first_line: dict[int, int] = {}
    for row in reader:
        if not row:
            continue
        try:
            flows.append(parse_flow_row(row, reader.line_num, first_line))
        except ValueError as exc:
            raise SchemaMismatch(f"{file}: line {reader.line_num}: {exc}") from exc
    return flows


def forced_open(encoding):
    """ingest's open, with encoding standing in for the locale's in text mode."""

    def opener(file, mode="r", *args, **kwargs):
        if "b" not in mode:
            kwargs.setdefault("encoding", encoding)
        return builtins.open(file, mode, *args, **kwargs)

    return opener


_counter = st.integers(min_value=0, max_value=2**64)


@st.composite
def table_flows(draw):
    """Flows read_flow_table accepts, with any text in the text fields."""
    ids = draw(st.lists(st.integers(-(2**40), 2**40), unique=True, max_size=6))
    flows = []
    for flow_id in ids:
        first = draw(st.integers(0, 2**62))
        packets_in, packets_out = draw(
            st.tuples(_counter, _counter).filter(lambda p: p[0] or p[1])
        )
        flows.append(
            make_flow(
                flow_id=flow_id,
                # an empty label is written as a blank field, which reads back as None
                app_label=draw(st.none() | st.text(min_size=1)),
                transport=draw(st.text()),
                client_ip=draw(st.text()),
                client_port=draw(st.integers(0, 65535)),
                server_ip=draw(st.text()),
                server_port=draw(st.integers(0, 65535)),
                first_ts_us=first,
                last_ts_us=first + draw(st.integers(0, 2**40)),
                bytes_in=draw(_counter),
                bytes_out=draw(_counter),
                packets_in=packets_in,
                packets_out=packets_out,
                header_bytes_total=draw(_counter),
                payload_bytes_total=draw(_counter),
                client_payload_prefix=draw(st.binary(max_size=8)),
                server_payload_prefix=draw(st.binary(max_size=8)),
            )
        )
    return flows


# too_slow: hypothesis builds its Unicode tables on a run's first st.text() draw
@settings(
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    max_examples=200,
)
@given(table_flows())
@example(
    [
        make_flow(flow_id=i, app_label=text, transport=text, client_ip=text, server_ip=text)
        for i, text in enumerate(
            ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", "crlf\r\n", '"', "nul\x00", "ünï"]
        )
    ]
)
def test_flow_table_writer_matches_csv_writer(tmp_path, flows):
    ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    write_flow_table(flows, ours)
    write_flow_table_oracle(flows, oracle)
    assert ours.read_bytes() == oracle.read_bytes()
    assert read_flow_table(ours) == flows


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=300)
@given(
    st.binary(max_size=300),
    st.sampled_from([b"", ",".join(FLOW_TABLE_HEADER).encode() + b"\r\n"]),
)
def test_read_flow_table_on_any_bytes_raises_only_schema_mismatch(tmp_path, data, header):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(header + data)
    try:
        flows = read_flow_table(path)
    except SchemaMismatch as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert all(isinstance(f, FlowRecord) for f in flows)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=300)
@given(st.lists(st.sampled_from([b"a", b"b", b",", b"\r", b"\n", b"\r\n", b'"']), max_size=40))
@example([b'"', b"a", b"\r\n", b",", b'"', b",", b'"', b'"', b",", b"\r"]).via(
    "a record over two lines"
)
@example([b"a", b",", b'"', b"b", b'"', b",", b"\n", b"b", b",", b"b", b",", b'"']).via(
    "labels a and \"b\""
)
def test_index_flow_table_finds_the_records_and_lines_csv_reads(tmp_path, parts):
    """Below the line of a misplaced quote, or everywhere if there is
    none, the index holds csv's records and lines, in file order."""
    path = tmp_path / "lines.csv"
    path.write_bytes(",".join(FLOW_TABLE_HEADER).encode() + b"\r\n" + b"".join(parts))
    table = index_flow_table(path)
    indexed = [
        (line, next(csv.reader([table.data[start:stop].decode()])))
        for start, stop, line in table.records.tolist()
    ]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [(reader.line_num, row) for row in reader if row]
    if table.error is not None:
        assert table.error[1].startswith("misplaced quote")
        rows = [(line, row) for line, row in rows if line < table.error[0]]
    assert indexed == rows


def test_index_flow_table_groups_quoted_labels_with_their_plain_spelling(tmp_path, capsys):
    from test_cli import _clean_run, _compose

    path = tmp_path / "quoted.csv"
    flows = [
        make_flow(flow_id=i, app_label=["a,b", "c"][i % 2], bytes_in=1000 * (i % 7 + 1),
                  packets_in=i % 5 + 1)
        for i in range(12)
    ]
    write_flow_table(flows, path)
    lines = path.read_bytes().split(b"\r\n")
    # lines 3, 7 and 11 spell label c quoted, as csv.writer does not
    for at in (2, 6, 10):
        lines[at] = lines[at].replace(b",c,", b',"c",')
    path.write_bytes(b"\r\n".join(lines))
    assert index_flow_table(path).error is None
    assert read_flow_table(path) == reference_read_flow_table(path) == flows
    with pytest.MonkeyPatch.context() as patch:
        _compose(patch)
        expected = _clean_run(capsys, path, tmp_path / "composed", 1)
    assert expected[0] == 0 and expected[3]["c"]["input"] == 6
    for threads in (1, 2):
        assert _clean_run(capsys, path, tmp_path / f"t{threads}", threads) == expected


def reference_rewritten_rows(table, rows, flows):
    """By line, the row format_flow_row writes (UTF-8, line end excluded)
    of each of flows, read from table's records at rows, whose record is
    not that row: the check select made on the flows DPI kept, before
    read_flow_lines made it on every record it parses, kept as the oracle.
    """
    return {
        line: text
        for (start, stop, line), flow in zip(rows.tolist(), flows)
        if (text := format_flow_row(flow)[:-2].encode()) != table.data[start:stop]
    }


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# Ways to spell a field of a row that parse_flow_row reads as the same
# value and write_flow_table never writes: (column, respelling of the
# field). On respellable_flow's row they give '"a"', 'ABCD', 'AB cd',
# '+5', '007', '1_000', ' 5' and '٣'.
RESPELLINGS = {
    "quoted label": (1, lambda field: f'"{field}"'),
    "upper-case hex": (16, str.upper),
    "hex with a space": (16, lambda field: f"{field[:2].upper()} {field[2:]}"),
    "plus sign": (11, lambda field: f"+{field}"),
    "zero-padded": (12, lambda field: f"00{field}"),
    "underscore": (9, lambda field: f"{field[0]}_{field[1:]}"),
    "leading space": (11, lambda field: f" {field}"),
    "non-ASCII digit": (0, lambda field: field.translate(_ARABIC_INDIC)),
}


def respellable_flow(flow_id: int, **fields) -> FlowRecord:
    """A flow whose row every one of RESPELLINGS respells."""
    fields = {"app_label": "a", "bytes_in": 1000, "packets_in": 5, "packets_out": 7,
              "client_payload_prefix": b"\xab\xcd", **fields}
    return make_flow(flow_id=flow_id, **fields)


def respelled_row(flow: FlowRecord, respelling: str) -> bytes:
    """flow's row, line end excluded, in UTF-8, with one field respelled."""
    column, respell = RESPELLINGS[respelling]
    fields = format_flow_row(flow)[:-2].split(",")
    fields[column] = respell(fields[column])
    return ",".join(fields).encode()


@pytest.mark.parametrize("respelling", RESPELLINGS)
def test_read_flow_lines_finds_a_respelled_row(tmp_path, monkeypatch, respelling):
    monkeypatch.setattr(ingest_mod, "open", forced_open("utf-8"), raising=False)
    path = tmp_path / "flows.csv"
    flows = [respellable_flow(i) for i in range(1, 6)]
    write_flow_table(flows, path)
    lines = path.read_bytes().split(b"\r\n")
    lines[3] = respelled_row(flows[2], respelling)  # line 4: flow 3
    assert lines[3] != format_flow_row(flows[2])[:-2].encode()
    path.write_bytes(b"\r\n".join(lines))
    table = index_flow_table(path)
    run = read_flow_lines(table, table.records)
    assert run.error is None and run.flows == flows
    assert run.rewritten == reference_rewritten_rows(table, table.records, run.flows)
    assert run.rewritten == {4: format_flow_row(flows[2])[:-2].encode()}
    # a run that holds its record finds it, and one after it finds nothing
    assert read_flow_lines(table, table.records[3:]).rewritten == {}
    assert read_flow_lines(table, table.records[:3]).rewritten == run.rewritten


def test_read_flow_lines_finds_the_rows_to_rewrite_up_to_a_bad_row(tmp_path):
    path = tmp_path / "flows.csv"
    flows = [respellable_flow(i) for i in range(4)]
    write_flow_table(flows, path)
    lines = path.read_bytes().split(b"\r\n")
    lines[1] = respelled_row(flows[0], "plus sign")
    lines[4] = respelled_row(flows[3], "underscore")  # after the bad row
    lines[3] = lines[3].replace(b",tcp,", b",")
    path.write_bytes(b"\r\n".join(lines))
    table = index_flow_table(path)
    run = read_flow_lines(table, table.records)
    assert run.error == (4, "row has 17 columns, expected 18")
    assert run.rewritten == {2: format_flow_row(flows[0])[:-2].encode()}
    assert run.rewritten == reference_rewritten_rows(table, table.records, run.flows)


@pytest.mark.parametrize(
    "field, reason",
    [
        (b't"cp', "misplaced quote: an unquoted field holds a quote"),
        (b'"t"cp', "misplaced quote: text follows a closing quote"),
        (b'"tcp" ', "misplaced quote: text follows a closing quote"),
    ],
)
@pytest.mark.parametrize("lower_bad_row", [False, True])
def test_flow_table_refuses_a_misplaced_quote(tmp_path, field, reason, lower_bad_row):
    path = tmp_path / "flows.csv"
    flows = [make_flow(flow_id=i, app_label="a\r\nb") for i in range(4)]
    if lower_bad_row:
        flows[0] = flows[0]._replace(bytes_in=-1)
    write_flow_table(flows, path)
    # each row spans two lines: the third row is on lines 6 and 7
    lines = path.read_bytes().split(b"\r\n")
    lines[6] = lines[6].replace(b",tcp,", b"," + field + b",")
    path.write_bytes(b"\r\n".join(lines))
    error = "line 3: bytes_in is negative: -1" if lower_bad_row else f"line 7: {reason}"
    with pytest.raises(SchemaMismatch) as exc_info:
        read_flow_table(path)
    assert str(exc_info.value) == f"{path}: {error}"
    table = index_flow_table(path)
    assert table.error == (7, reason)
    assert table.records[:, 2].tolist() == [3, 5]
    if not lower_bad_row:
        # csv reads the quote as a literal
        transport = field.decode().replace('"tcp" ', "tcp ").replace('"t"cp', "tcp")
        assert reference_read_flow_table(path)[2].key.transport == transport


def test_a_rejected_byte_in_a_record_over_two_lines_is_named_on_its_own_line(tmp_path):
    path = tmp_path / "flows.csv"
    write_flow_table([make_flow(flow_id=i, app_label="a\r\nb") for i in range(3)], path)
    # the second row's label starts on line 4 and ends on line 5
    path.write_bytes(path.read_bytes().replace(b'1,"a', b'1,"\xff', 1))
    message = f"{path}: line 4: byte 0xff is not valid utf-8"
    for read in (read_flow_table, reference_read_flow_table):
        with pytest.raises(SchemaMismatch) as exc_info:
            read(path)
        assert str(exc_info.value) == message


@pytest.mark.parametrize("chunk", [1, 2, 3, 64, 333])
@pytest.mark.parametrize(
    "line, bad, byte",
    [(5, b"t\xffcp", "0xff"), (5, b"t\xe2\x82cp", "0xe2"), (8, b"\xc3", "0xc3")],
    ids=["invalid byte", "cut-off sequence", "cut off at the end"],
)
def test_a_rejected_utf8_byte_past_the_first_chunk_is_named_on_its_line(
    tmp_path, monkeypatch, chunk, line, bad, byte
):
    # UTF-8 tables are checked a chunk at a time; ü's two bytes straddle some cuts
    monkeypatch.setattr(ingest_mod, "_CHUNK", chunk)
    monkeypatch.setattr(ingest_mod, "open", forced_open("utf-8"), raising=False)
    path = tmp_path / "flows.csv"
    write_flow_table([make_flow(flow_id=i, app_label="ünï") for i in range(6)], path)
    lines = path.read_bytes().split(b"\r\n")
    lines[line - 1] = lines[line - 1].replace(b"tcp", bad) if line < len(lines) else bad
    path.write_bytes(b"\r\n".join(lines))
    messages = []
    for read in (read_flow_table, functools.partial(reference_read_flow_table, encoding="utf-8")):
        with pytest.raises(SchemaMismatch) as exc_info:
            read(path)
        messages.append(str(exc_info.value))
    assert messages[0] == messages[1]
    assert messages[0] == f"{path}: line {line}: byte {byte} is not valid utf-8"


def test_index_flow_table_stops_at_a_byte_such_an_encoding_rejects(tmp_path, monkeypatch):
    # cp1253 has no character at 0xff
    monkeypatch.setattr(ingest_mod, "open", forced_open("cp1253"), raising=False)
    path = tmp_path / "flows.csv"
    flows = [make_flow(flow_id=i, app_label="αβ") for i in range(5)]
    write_flow_table(flows, path)
    lines = path.read_bytes().split(b"\r\n")
    lines[4] = lines[4].replace(b",tcp,", b",t\xffcp,")
    path.write_bytes(b"\r\n".join(lines))
    table = index_flow_table(path)
    assert "αβ".encode() in table.data
    assert table.error == (5, "byte 0xff is not valid cp1253")
    assert table.records[:, 2].tolist() == [2, 3, 4]
    with pytest.raises(SchemaMismatch, match=r": line 5: byte 0xff is not valid cp1253$"):
        read_flow_table(path)
    lines[3] = lines[3].replace(b",tcp,", b",")
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(SchemaMismatch, match=r": line 4: row has 17 columns, expected 18$"):
        read_flow_table(path)


def test_parse_flow_row_takes_every_counter_a_float64_holds(tmp_path):
    path = tmp_path / "flows.csv"
    most = 2**1024 - 2**970 - 1  # float() rounds this down to the largest float64
    flows = [
        make_flow(bytes_in=most, payload_bytes_total=2**64, first_ts_us=-most, last_ts_us=most)
    ]
    write_flow_table(flows, path)
    assert read_flow_table(path) == flows


def test_flow_records_are_immutable_hashable_tuples():
    flow = make_flow(flow_id=3, app_label="a")
    with pytest.raises(AttributeError):
        flow.app_label = "b"
    with pytest.raises(AttributeError):
        flow.key.server_port = 80
    relabeled = flow._replace(app_label="b")
    assert relabeled.app_label == "b" and flow.app_label == "a"
    assert relabeled._replace(app_label="a") == flow
    assert hash(make_flow(flow_id=3, app_label="a")) == hash(flow)
    assert len({flow, make_flow(flow_id=3, app_label="a"), relabeled}) == 2
    assert flow != make_flow(flow_id=4, app_label="a")
    assert flow.key == FlowKey("192.168.0.2", 40000, "10.0.0.1", 443, "tcp")


def test_payload_prefix_capped_at_256(tmp_path):
    frame = tcp4_frame("1.1.1.1", "2.2.2.2", 1, 2, b"z" * 600)
    packets, _ = read_packets(write_pcap(tmp_path, [(0, 0, frame)]))
    assert packets[0].payload_len == 600
    assert len(packets[0].payload_prefix) == 256
