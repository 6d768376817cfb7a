"""Shared byte-crafting helpers for capture and flow fixtures.

Packet builders here are written directly from the wire layouts
(libpcap classic format, Ethernet, IPv4/IPv6, TCP/UDP) and are kept
independent of the package's own encoders so they can act as oracles.
"""

from __future__ import annotations

import struct

import pytest

from flowclean import parallel
from flowclean.ingest import FlowKey, FlowRecord

PCAP_MAGIC_US = 0xA1B2C3D4
PCAP_MAGIC_NS = 0xA1B23C4D


def pcap_bytes(frames, endian: str = "<", nanosecond: bool = False) -> bytes:
    """frames: list of (ts_sec, ts_frac, frame_bytes)."""
    magic = PCAP_MAGIC_NS if nanosecond else PCAP_MAGIC_US
    parts = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)]
    for ts_sec, ts_frac, frame in frames:
        parts.append(struct.pack(endian + "IIII", ts_sec, ts_frac, len(frame), len(frame)))
        parts.append(frame)
    # one join: adding each part to a growing bytes copies it every time
    return b"".join(parts)


def ethernet(payload: bytes, ethertype: int, src_mac: bytes = b"\x02\x00\x00\x00\x00\x01",
             dst_mac: bytes = b"\x02\x00\x00\x00\x00\xfe", vlan: int | None = None) -> bytes:
    if vlan is None:
        return dst_mac + src_mac + struct.pack(">H", ethertype) + payload
    return (
        dst_mac
        + src_mac
        + struct.pack(">HH", 0x8100, vlan)
        + struct.pack(">H", ethertype)
        + payload
    )


def ipv4(src: str, dst: str, proto: int, payload: bytes) -> bytes:
    total = 20 + len(payload)
    header = struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, total, 0, 0, 64, proto, 0,
        bytes(int(p) for p in src.split(".")),
        bytes(int(p) for p in dst.split(".")),
    )
    return header + payload


def ipv6(src_groups, dst_groups, next_header: int, payload: bytes) -> bytes:
    header = struct.pack(">IHBB", 6 << 28, len(payload), next_header, 64)
    header += struct.pack(">8H", *src_groups) + struct.pack(">8H", *dst_groups)
    return header + payload


def tcp(sport: int, dport: int, payload: bytes = b"", flags: int = 0x10) -> bytes:
    header = struct.pack(">HHIIBBHHH", sport, dport, 0, 0, 5 << 4, flags, 8192, 0, 0)
    return header + payload


def udp(sport: int, dport: int, payload: bytes = b"") -> bytes:
    return struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload


TCP_FIN, TCP_SYN, TCP_RST, TCP_ACK = 0x01, 0x02, 0x04, 0x10


def tcp4_frame(src_ip, dst_ip, sport, dport, payload=b"", flags=TCP_ACK,
               src_mac=b"\x02\x00\x00\x00\x00\x01", vlan=None) -> bytes:
    return ethernet(
        ipv4(src_ip, dst_ip, 6, tcp(sport, dport, payload, flags)),
        0x0800, src_mac=src_mac, vlan=vlan,
    )


def udp4_frame(src_ip, dst_ip, sport, dport, payload=b"",
               src_mac=b"\x02\x00\x00\x00\x00\x01", vlan=None) -> bytes:
    return ethernet(
        ipv4(src_ip, dst_ip, 17, udp(sport, dport, payload)),
        0x0800, src_mac=src_mac, vlan=vlan,
    )


def make_flow(
    flow_id: int = 0,
    app_label: str | None = "appx",
    transport: str = "tcp",
    client_ip: str = "192.168.0.2",
    client_port: int = 40000,
    server_ip: str = "10.0.0.1",
    server_port: int = 443,
    first_ts_us: int = 1_000_000,
    last_ts_us: int = 4_000_000,
    bytes_in: int = 10_000,
    bytes_out: int = 500,
    packets_in: int = 9,
    packets_out: int = 3,
    header_bytes_total: int = 648,
    payload_bytes_total: int = 9_852,
    client_payload_prefix: bytes = b"",
    server_payload_prefix: bytes = b"",
) -> FlowRecord:
    return FlowRecord(
        flow_id=flow_id,
        key=FlowKey(
            client_ip=client_ip,
            client_port=client_port,
            server_ip=server_ip,
            server_port=server_port,
            transport=transport,
        ),
        app_label=app_label,
        first_ts_us=first_ts_us,
        last_ts_us=last_ts_us,
        bytes_in=bytes_in,
        bytes_out=bytes_out,
        packets_in=packets_in,
        packets_out=packets_out,
        header_bytes_total=header_bytes_total,
        payload_bytes_total=payload_bytes_total,
        client_payload_prefix=client_payload_prefix,
        server_payload_prefix=server_payload_prefix,
    )


@pytest.fixture
def many_cpus(monkeypatch):
    """Let clean and train start up to 8 workers even on a host with fewer CPUs."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
