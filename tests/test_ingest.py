"""Tests for pcap reading, flow assembly, tagging, and flow tables."""

import struct

import pytest

from flowclean.errors import MalformedCapture, SchemaMismatch
from flowclean.ingest import (
    TagMap,
    apply_tags,
    assemble_flows_with_meta,
    format_mac,
    parse_mac,
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
    ipv6,
    make_flow,
    pcap_bytes,
    tcp,
    tcp4_frame,
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
    flows = assemble_flows_with_meta(packets)[0]
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
    assert f.dst_port == 443


def test_assemble_flows_server_initiated_direction(tmp_path):
    # first packet decides who the client is, not the port numbers
    frames = [(5, 0, tcp4_frame("10.0.0.1", "192.168.0.2", 443, 40000, b"push"))]
    flows = assemble_flows_with_meta(read_packets(write_pcap(tmp_path, frames))[0])[0]
    assert flows[0].key.client_ip == "10.0.0.1"
    assert flows[0].key.client_port == 443
    assert flows[0].packets_out == 1
    assert flows[0].packets_in == 0


def test_idle_timeout_splits_strictly_greater(tmp_path):
    mk = lambda t: (t, 0, udp4_frame("1.1.1.1", "2.2.2.2", 5, 6, b"x"))
    # gap exactly equal to the timeout stays one flow
    packets, _ = read_packets(write_pcap(tmp_path, [mk(0), mk(60)]))
    assert len(assemble_flows_with_meta(packets, idle_timeout_s=60)[0]) == 1
    # one microsecond beyond the timeout splits
    frames = [mk(0), (60, 1, udp4_frame("1.1.1.1", "2.2.2.2", 5, 6, b"x"))]
    packets, _ = read_packets(write_pcap(tmp_path, frames))
    flows = assemble_flows_with_meta(packets, idle_timeout_s=60)[0]
    assert len(flows) == 2
    assert [f.flow_id for f in flows] == [0, 1]


def test_rst_closes_flow(tmp_path):
    frames = [
        (1, 0, tcp4_frame("192.168.0.2", "10.0.0.1", 40000, 443, b"a")),
        (2, 0, tcp4_frame("10.0.0.1", "192.168.0.2", 443, 40000, b"", TCP_RST)),
        (3, 0, tcp4_frame("192.168.0.2", "10.0.0.1", 40000, 443, b"b")),
    ]
    flows = assemble_flows_with_meta(read_packets(write_pcap(tmp_path, frames))[0])[0]
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
    flows = assemble_flows_with_meta(read_packets(write_pcap(tmp_path, frames))[0])[0]
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
    flows, metas = assemble_flows_with_meta(read_packets(write_pcap(tmp_path, frames))[0])
    tags = TagMap(
        mac_entries={mac: "macapp"},
        vlan_entries={100: "vlanapp"},
    )
    tagged = apply_tags(flows, tags, metas)
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
    ],
)
def test_read_tag_map_rejects_bad_lines(tmp_path, line):
    path = tmp_path / "tags.txt"
    path.write_text(line + "\n")
    with pytest.raises(ValueError):
        read_tag_map(path)


def test_mac_parse_format_roundtrip():
    assert format_mac(parse_mac("02:00:00:00:00:ff")) == "02:00:00:00:00:ff"
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


def test_payload_prefix_capped_at_256(tmp_path):
    frame = tcp4_frame("1.1.1.1", "2.2.2.2", 1, 2, b"z" * 600)
    packets, _ = read_packets(write_pcap(tmp_path, [(0, 0, frame)]))
    assert packets[0].payload_len == 600
    assert len(packets[0].payload_prefix) == 256
