"""Tests for payload-prefix classification and blocklist filtering.

TLS and DNS byte fixtures are hand-assembled here from the wire
layouts, independent of the generator's own payload builders.
"""

import re
import struct

import pytest
from hypothesis import given, settings, strategies as st

from flowclean.dpi import (
    Blocklist,
    DEFAULT_BLOCKLIST,
    ProtocolVerdict,
    VerdictKind,
    _client_hello,
    classify_flow,
    filter_flows,
    parse_dns,
    read_blocklist,
)
from flowclean.errors import ParseError

from conftest import make_flow


def dns_query(hostname: str = "example.com", flags: int = 0x0100, qdcount: int = 1) -> bytes:
    header = struct.pack(">HHHHHH", 0x1234, flags, qdcount, 0, 0, 0)
    qname = b"".join(
        bytes([len(p)]) + p.encode() for p in hostname.split(".")
    ) + b"\x00"
    return header + qname + struct.pack(">HH", 1, 1)


def client_hello(sni: str | None, with_filler_ext: bool = True) -> bytes:
    """Minimal TLS 1.2 ClientHello assembled field by field."""
    random32 = bytes(range(32))
    session_id = b"\xaa" * 8
    suites = struct.pack(">3H", 0x1301, 0xC02F, 0x00FF)
    exts = b""
    if sni is not None:
        host = sni.encode()
        entry = b"\x00" + struct.pack(">H", len(host)) + host
        lst = struct.pack(">H", len(entry)) + entry
        exts += struct.pack(">HH", 0, len(lst)) + lst
    if with_filler_ext:
        exts += struct.pack(">HH", 23, 0)  # extended_master_secret, empty
    body = (
        b"\x03\x03" + random32
        + bytes([len(session_id)]) + session_id
        + struct.pack(">H", len(suites)) + suites
        + b"\x01\x00"
        + struct.pack(">H", len(exts)) + exts
    )
    hs = b"\x01" + len(body).to_bytes(3, "big") + body
    return b"\x16\x03\x01" + struct.pack(">H", len(hs)) + hs


# --- parse_dns ---------------------------------------------------------


def test_parse_dns_standard_query():
    assert parse_dns(dns_query(), 53, "udp") is True


def test_parse_dns_empty_payload():
    assert parse_dns(b"", 53, "udp") is False


def test_parse_dns_wrong_port():
    assert parse_dns(dns_query(), 8080, "udp") is False


def test_parse_dns_tcp_length_prefix():
    q = dns_query()
    framed = struct.pack(">H", len(q)) + q
    assert parse_dns(framed, 53, "tcp") is True
    assert parse_dns(b"\x00", 53, "tcp") is False


def test_parse_dns_header_sanity():
    # opcode 6 (reserved) rejected
    assert parse_dns(dns_query(flags=6 << 11), 53, "udp") is False
    # z-bits must be zero
    assert parse_dns(dns_query(flags=0x0100 | 0x0040), 53, "udp") is False
    # needs at least one question
    assert parse_dns(dns_query(qdcount=0), 53, "udp") is False


def test_parse_dns_below_header_size():
    assert parse_dns(b"\x124" + b"\x00" * 8, 53, "udp") is False


# --- TLS ClientHello, judged through classify_flow ----------------------


def tls_verdict(payload: bytes) -> ProtocolVerdict:
    return classify_flow(make_flow(client_payload_prefix=payload))


def test_client_hello_with_sni():
    verdict = tls_verdict(client_hello("api.google.com"))
    assert verdict.kind is VerdictKind.TLS_WITH_SNI
    assert verdict.sni == "api.google.com"


def test_client_hello_uppercase_sni_lowered():
    assert tls_verdict(client_hello("CDN.Example.COM")).sni == "cdn.example.com"


def test_client_hello_without_sni():
    assert tls_verdict(client_hello(None)).kind is VerdictKind.TLS_NO_SNI


def test_client_hello_http_payload():
    verdict = tls_verdict(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
    assert verdict.kind is VerdictKind.PLAINTEXT_HTTP


def test_client_hello_wrong_content_type():
    payload = client_hello("a.example")
    verdict = tls_verdict(b"\x17" + payload[1:])
    assert verdict.kind is VerdictKind.OTHER_ENCRYPTED_ASSUMED


def test_client_hello_wrong_version_byte():
    payload = client_hello("a.example")
    verdict = tls_verdict(payload[:2] + b"\x09" + payload[3:])
    assert verdict.kind is VerdictKind.OTHER_ENCRYPTED_ASSUMED


def test_client_hello_not_hello_handshake_type():
    payload = bytearray(client_hello("a.example"))
    payload[5] = 2  # ServerHello
    assert tls_verdict(bytes(payload)).kind is VerdictKind.OTHER_ENCRYPTED_ASSUMED


def test_client_hello_truncation_never_crashes():
    payload = client_hello("api.google.com")
    for cut in range(len(payload)):
        verdict = tls_verdict(payload[:cut])  # must not raise
        # a cut hostname is never reported as a shorter SNI
        assert verdict.sni in (None, "api.google.com")


def test_client_hello_sni_after_other_extension():
    # SNI not first: prepend a filler extension before it
    host = b"late.example"
    entry = b"\x00" + struct.pack(">H", len(host)) + host
    lst = struct.pack(">H", len(entry)) + entry
    exts = struct.pack(">HH", 23, 0) + struct.pack(">HH", 0, len(lst)) + lst
    random32 = bytes(32)
    body = (
        b"\x03\x03" + random32 + b"\x00"
        + struct.pack(">H", 2) + b"\x13\x01"
        + b"\x01\x00"
        + struct.pack(">H", len(exts)) + exts
    )
    hs = b"\x01" + len(body).to_bytes(3, "big") + body
    payload = b"\x16\x03\x03" + struct.pack(">H", len(hs)) + hs
    assert tls_verdict(payload).sni == "late.example"


# --- classify_flow ------------------------------------------------------


def test_classify_dns_flow():
    flow = make_flow(transport="udp", server_port=53, client_payload_prefix=dns_query())
    assert classify_flow(flow).kind is VerdictKind.PLAINTEXT_DNS


def test_classify_http_flow():
    flow = make_flow(client_payload_prefix=b"GET /index.html HTTP/1.1\r\n")
    assert classify_flow(flow).kind is VerdictKind.PLAINTEXT_HTTP


@pytest.mark.parametrize("method", [b"POST ", b"PUT ", b"HEAD ", b"DELETE ", b"OPTIONS ", b"CONNECT "])
def test_classify_http_methods(method):
    flow = make_flow(client_payload_prefix=method + b"/ HTTP/1.1\r\n")
    assert classify_flow(flow).kind is VerdictKind.PLAINTEXT_HTTP


def test_classify_tls_with_and_without_sni():
    with_sni = make_flow(client_payload_prefix=client_hello("cdn.bilibili.com"))
    verdict = classify_flow(with_sni)
    assert verdict.kind is VerdictKind.TLS_WITH_SNI
    assert verdict.sni == "cdn.bilibili.com"
    without = make_flow(client_payload_prefix=client_hello(None))
    assert classify_flow(without).kind is VerdictKind.TLS_NO_SNI


def test_classify_empty_payload_falls_through():
    flow = make_flow(client_payload_prefix=b"")
    assert classify_flow(flow).kind is VerdictKind.OTHER_ENCRYPTED_ASSUMED


def test_classify_dns_precedence_over_tls_port():
    # DNS parse wins even when the payload would not parse as TLS
    flow = make_flow(transport="tcp", server_port=53,
                     client_payload_prefix=struct.pack(">H", len(dns_query())) + dns_query())
    assert classify_flow(flow).kind is VerdictKind.PLAINTEXT_DNS


def test_verdict_type_invariants():
    with pytest.raises(ValueError):
        ProtocolVerdict(VerdictKind.TLS_WITH_SNI, sni=None)
    with pytest.raises(ValueError):
        ProtocolVerdict(VerdictKind.PLAINTEXT_DNS, sni="x")


# --- blocklist ----------------------------------------------------------


def test_blocklist_label_boundary():
    bl = Blocklist.of("google.com")
    assert bl.matches("api.google.com")
    assert bl.matches("google.com")
    assert bl.matches("API.GOOGLE.COM")
    assert not bl.matches("notgoogle.com")
    assert not bl.matches("google.com.evil.net")


@given(
    st.from_regex(r"[a-z]{1,8}(\.[a-z]{1,8}){0,3}", fullmatch=True),
    st.from_regex(r"[a-z]{1,8}(\.[a-z]{1,8}){0,2}", fullmatch=True),
)
def test_blocklist_suffix_property(host, suffix):
    bl = Blocklist.of(suffix)
    expected = host == suffix or host.endswith("." + suffix)
    assert bl.matches(host) == expected


def blocklist_matches_oracle(blocklist: Blocklist, hostname: str) -> bool:
    """The first Blocklist.matches: one comparison per suffix."""
    host = hostname.lower().rstrip(".")
    for suffix in blocklist.suffixes:
        if host == suffix or host.endswith("." + suffix):
            return True
    return False


_label_text = st.text(alphabet="abAB.", max_size=7)


@given(st.lists(_label_text, max_size=5), _label_text)
def test_blocklist_matches_per_suffix_oracle(suffixes, host):
    for blocklist in (Blocklist.of(*suffixes), Blocklist(frozenset(suffixes))):
        assert blocklist.matches(host) == blocklist_matches_oracle(blocklist, host)


def test_default_blocklist_contents():
    for s in ("google.com", "gstatic.com", "googleapis.com", "apple.com",
              "icloud.com", "cloudflare.com"):
        assert s in DEFAULT_BLOCKLIST.suffixes


def test_read_blocklist(tmp_path):
    path = tmp_path / "bl.txt"
    path.write_text("# services\nGoogle.com\n\n .leadingdot.example \n")
    bl = read_blocklist(path)
    assert bl.suffixes == frozenset({"google.com", "leadingdot.example"})


@pytest.mark.parametrize(
    "entry",
    ["*.doubleclick.net", "ads example.com", "example.com.", "ads..example.com", "."],
)
def test_read_blocklist_rejects_entries_that_match_nothing(tmp_path, entry):
    path = tmp_path / "bl.txt"
    path.write_text(f"# services\ngoogle.com\n{entry}  # never matches\n")
    with pytest.raises(ParseError, match=rf"bl\.txt:3: blocklist entry {re.escape(repr(entry))}"):
        read_blocklist(path)


# --- filter_flows -------------------------------------------------------


def _verdict_fixture_flows():
    return [
        make_flow(flow_id=0, transport="udp", server_port=53,
                  client_payload_prefix=dns_query()),
        make_flow(flow_id=1, client_payload_prefix=client_hello("cdn.bilibili.com")),
        make_flow(flow_id=2, client_payload_prefix=client_hello("gstatic.google.com")),
        make_flow(flow_id=3, client_payload_prefix=b"GET / HTTP/1.1\r\n"),
        make_flow(flow_id=4, client_payload_prefix=client_hello(None)),
        make_flow(flow_id=5, client_payload_prefix=b""),
    ]


def test_filter_flows_partition_and_rules():
    flows = _verdict_fixture_flows()
    kept, discarded = filter_flows(flows, Blocklist.of("google.com"))
    kept_ids = [f.flow_id for f in kept]
    discarded_ids = [f.flow_id for f, _ in discarded]
    assert kept_ids == [1, 4, 5]
    assert discarded_ids == [0, 2, 3]
    assert len(kept) + len(discarded) == len(flows)
    # verdicts travel with the discards
    kinds = {f.flow_id: v.kind for f, v in discarded}
    assert kinds[0] is VerdictKind.PLAINTEXT_DNS
    assert kinds[2] is VerdictKind.TLS_WITH_SNI
    assert kinds[3] is VerdictKind.PLAINTEXT_HTTP


def test_filter_flows_empty_blocklist_discards_plaintext_only():
    flows = _verdict_fixture_flows()
    kept, discarded = filter_flows(flows, Blocklist.of())
    assert [f.flow_id for f, _ in discarded] == [0, 3]
    assert [f.flow_id for f in kept] == [1, 2, 4, 5]


def test_filter_flows_empty_input():
    kept, discarded = filter_flows([], DEFAULT_BLOCKLIST)
    assert kept == [] and discarded == []


def test_filter_flows_idempotent():
    flows = _verdict_fixture_flows()
    kept, _ = filter_flows(flows, Blocklist.of("google.com"))
    kept_again, discarded_again = filter_flows(kept, Blocklist.of("google.com"))
    assert kept_again == kept
    assert discarded_again == []


def test_filter_preserves_order_within_lists():
    flows = list(reversed(_verdict_fixture_flows()))
    kept, discarded = filter_flows(flows, Blocklist.of("google.com"))
    assert [f.flow_id for f in kept] == [5, 4, 1]
    assert [f.flow_id for f, _ in discarded] == [3, 2, 0]


_payloads = st.one_of(
    st.binary(max_size=80),
    st.builds(dns_query, st.from_regex(r"[a-z]{1,6}(\.[a-z]{1,6}){0,2}", fullmatch=True)),
    st.sampled_from([b"GET / HTTP/1.1\r\n", b"POST /x HTTP/1.1\r\n"]),
    st.builds(
        client_hello,
        st.none() | st.sampled_from(["api.google.com", "google.com", "cdn.app.example"]),
        st.booleans(),
    ).flatmap(lambda hello: st.integers(0, len(hello)).map(lambda cut: hello[:cut])),
)


@given(
    st.lists(
        st.builds(
            make_flow,
            transport=st.sampled_from(["tcp", "udp"]),
            server_port=st.sampled_from([53, 80, 443]),
            client_payload_prefix=_payloads,
        ),
        max_size=12,
    ),
    st.sampled_from([DEFAULT_BLOCKLIST, Blocklist.of(), Blocklist.of("example")]),
)
def test_filter_flows_verdicts_equal_classify_flow(flows, blocklist):
    want_kept, want_discarded = [], []
    for flow in flows:
        verdict = classify_flow(flow)
        if verdict.kind in (VerdictKind.PLAINTEXT_DNS, VerdictKind.PLAINTEXT_HTTP) or (
            verdict.kind is VerdictKind.TLS_WITH_SNI and blocklist.matches(verdict.sni)
        ):
            want_discarded.append((flow, verdict))
        else:
            want_kept.append(flow)
    assert filter_flows(flows, blocklist) == (want_kept, want_discarded)


# --- fuzz: the parsers never raise on arbitrary bytes --------------------


@settings(max_examples=500)
@given(st.binary(max_size=300))
def test_client_hello_never_raises(payload):
    is_hello, sni = _client_hello(payload)
    assert sni is None or (is_hello and sni == sni.lower())
    # a TLS handshake header makes hypothesis walk past the fixed fields
    _client_hello(b"\x16\x03\x01\x00\x00\x01" + payload)


@settings(max_examples=500)
@given(st.binary(max_size=64), st.sampled_from([53, 443]), st.sampled_from(["tcp", "udp"]))
def test_parse_dns_never_raises(payload, dst_port, transport):
    assert parse_dns(payload, dst_port, transport) in (True, False)
