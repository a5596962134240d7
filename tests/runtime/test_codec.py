"""Tests for the wire codec (repro.runtime.codec)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.auth import BallGuard, HmacAuthenticator, KeyRing
from repro.core.event import BallEntry, Event, make_ball
from repro.lazy.protocol import IdBall, PayloadRequest, PayloadResponse
from repro.pss.cyclon import CyclonRequest, CyclonResponse
from repro.runtime import codec
from repro.runtime.codec import (
    MAX_DATAGRAM,
    CodecError,
    CodecVersionError,
    TopicEnvelope,
    decode,
    encode,
)
from repro.sync.protocol import (
    DeliveryDigest,
    SyncChunk,
    SyncDigest,
    SyncRequest,
    events_checksum,
)


def ball_of(*entries):
    return make_ball(entries)


def entry(src=0, seq=0, ts=0, ttl=0, payload=None):
    return BallEntry(Event(id=(src, seq), ts=ts, source_id=src, payload=payload),
                     ttl=ttl)


class TestBallRoundtrip:
    def test_empty_ball(self):
        sender, message = decode(encode(7, ball_of()))
        assert sender == 7
        assert message == ()

    def test_single_entry(self):
        ball = ball_of(entry(src=3, seq=2, ts=99, ttl=4, payload={"k": [1, 2]}))
        sender, decoded = decode(encode(3, ball))
        assert sender == 3
        assert decoded == ball

    def test_multiple_entries_preserve_order(self):
        ball = ball_of(
            entry(src=1, payload="a"),
            entry(src=2, payload="b"),
            entry(src=3, payload=None),
        )
        _, decoded = decode(encode(0, ball))
        assert [e.event.payload for e in decoded] == ["a", "b", None]

    def test_negative_timestamps_and_large_ids(self):
        ball = ball_of(entry(src=2**40, seq=2**33, ts=-5, ttl=0))
        _, decoded = decode(encode(2**40, ball))
        assert decoded[0].event.id == (2**40, 2**33)
        assert decoded[0].event.ts == -5

    def test_unicode_payload(self):
        ball = ball_of(entry(payload="héllo ✓ 漢字"))
        _, decoded = decode(encode(0, ball))
        assert decoded[0].event.payload == "héllo ✓ 漢字"

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),  # src
                st.integers(min_value=0, max_value=50),  # seq
                st.integers(min_value=0, max_value=10**6),  # ts
                st.integers(min_value=0, max_value=100),  # ttl
                st.one_of(
                    st.none(),
                    st.integers(),
                    st.text(max_size=20),
                    st.lists(st.integers(), max_size=5),
                    st.dictionaries(st.text(max_size=5), st.integers(), max_size=4),
                ),
            ),
            max_size=20,
        )
    )
    def test_roundtrip_property(self, raw_entries):
        ball = ball_of(
            *(entry(src=s, seq=q, ts=t, ttl=l, payload=p)
              for s, q, t, l, p in raw_entries)
        )
        sender, decoded = decode(encode(42, ball))
        assert sender == 42
        assert decoded == ball


class TestCyclonRoundtrip:
    def test_request(self):
        message = CyclonRequest(entries=((1, 0), (2, 5), (99, 3)))
        sender, decoded = decode(encode(1, message))
        assert sender == 1
        assert decoded == message

    def test_response(self):
        message = CyclonResponse(entries=())
        _, decoded = decode(encode(2, message))
        assert decoded == message


class TestRejections:
    def test_non_json_payload_rejected(self):
        ball = ball_of(entry(payload=object()))
        with pytest.raises(CodecError):
            encode(0, ball)

    def test_unknown_message_type_rejected(self):
        with pytest.raises(CodecError):
            encode(0, {"not": "a message"})  # type: ignore[arg-type]

    def test_oversized_message_rejected(self):
        huge = ball_of(entry(payload="x" * (MAX_DATAGRAM + 1)))
        with pytest.raises(CodecError):
            encode(0, huge)

    def test_oversized_ball_names_the_offending_entry(self):
        """Encoding stops at the first entry crossing the cap, and the
        error reports how far it got — not just that the total is big."""
        chunk = "y" * 9_000
        entries = [
            entry(src=1, seq=i, payload=chunk) for i in range(8)
        ]
        with pytest.raises(CodecError) as excinfo:
            encode(0, make_ball(entries))
        message = str(excinfo.value)
        # 6 entries of ~9KB fit under 60KB; the 7th crosses the cap.
        assert "ball entry 7 of 8" in message
        assert "event (1, 6)" in message
        assert str(MAX_DATAGRAM) in message

    def test_ball_just_under_the_cap_still_encodes(self):
        chunk = "y" * 9_000
        entries = [entry(src=1, seq=i, payload=chunk) for i in range(6)]
        sender, decoded = decode(encode(0, make_ball(entries)))
        assert sender == 0
        assert len(decoded) == 6

    @pytest.mark.parametrize(
        "datagram",
        [
            b"",
            b"EP",
            b"XX" + b"\x00" * 20,  # bad magic
            b"EP\x63\x01" + b"\x00" * 12,  # bad version
            b"EP\x01\x63" + b"\x00" * 12,  # bad kind
        ],
    )
    def test_malformed_datagrams_rejected(self, datagram):
        with pytest.raises(CodecError):
            decode(datagram)

    def test_truncated_ball_rejected(self):
        good = encode(0, ball_of(entry(payload="hello")))
        with pytest.raises(CodecError):
            decode(good[:-3])

    def test_trailing_garbage_rejected(self):
        good = encode(0, ball_of(entry()))
        with pytest.raises(CodecError):
            decode(good + b"junk")

    def test_corrupt_payload_bytes_rejected(self):
        good = bytearray(encode(0, ball_of(entry(payload="abcdef"))))
        good[-3] = 0xFF  # break the UTF-8/JSON payload
        with pytest.raises(CodecError):
            decode(bytes(good))

    @given(st.binary(max_size=200))
    def test_random_bytes_never_crash(self, blob):
        """Fuzz: arbitrary bytes either decode or raise CodecError —
        never any other exception (untrusted-input hardening)."""
        try:
            decode(blob)
        except CodecError:
            pass


def _signed_ball():
    guard = BallGuard(HmacAuthenticator(KeyRing("version-gate-test")))
    ball = ball_of(entry(src=1, seq=0, ts=5, ttl=1, payload="s"))
    guard.seal(1, ball)
    return guard.attach(ball)


_EVENTS = (Event(id=(4, 0), ts=30, source_id=4, payload={"v": 0}),)

#: (kind, message) for every kind the codec encodes.
_KINDS = [
    (1, ball_of(entry(src=1, ts=3, ttl=2, payload="p"))),
    (2, CyclonRequest(entries=((3, 0), (5, 2)))),
    (3, CyclonResponse(entries=((7, 1),))),
    (
        4,
        SyncDigest(
            digest=DeliveryDigest(last_key=(12, 3, 7), watermarks=((1, 4),)),
            reply=False,
        ),
    ),
    (
        5,
        SyncRequest(
            req_id=1,
            after=None,
            watermarks=((0, 2),),
            max_events=8,
            max_bytes=1_000,
        ),
    ),
    (
        6,
        SyncChunk(
            req_id=1,
            events=_EVENTS,
            checksum=events_checksum(_EVENTS),
            more=False,
            peer_last=None,
        ),
    ),
    (7, _signed_ball()),
    (
        8,
        TopicEnvelope(
            frames=(
                (0, 2, _signed_ball()),
                (1, 2, IdBall(entries=((9, 1, 0, 2),))),
            )
        ),
    ),
    (9, IdBall(entries=((10, 1, 0, 2),))),
    (10, PayloadRequest(req_id=7, ids=((1, 0),))),
    (11, PayloadResponse(req_id=7, events=_EVENTS, missing=((2, 1),))),
]


def _frame_offsets(wire):
    """Start offset of every inner datagram in an envelope wire."""
    offsets = []
    offset = codec._HEADER.size
    while offset < len(wire):
        _, inner_len = codec._FRAME_HEAD.unpack_from(wire, offset)
        offset += codec._FRAME_HEAD.size
        offsets.append(offset)
        offset += inner_len
    return offsets


class TestVersionGate:
    """Every kind encodes under the one header version; a well-framed
    datagram carrying any other version byte is a version rejection
    (``CodecVersionError``), not a malformed one."""

    @pytest.mark.parametrize(
        "kind,message", _KINDS, ids=[f"kind{kind}" for kind, _ in _KINDS]
    )
    def test_single_version_encoded_and_every_other_rejected(self, kind, message):
        wire = encode(1, message)
        assert wire[:2] == b"EP" and wire[3] == kind
        headers = [0] + (_frame_offsets(wire) if kind == 8 else [])
        if kind == 8:
            assert [wire[start + 3] for start in headers[1:]] == [7, 9]
        for start in headers:
            assert wire[start + 2] == codec._VERSION
            for version in range(256):
                if version == codec._VERSION:
                    continue
                restamped = bytearray(wire)
                restamped[start + 2] = version
                with pytest.raises(CodecVersionError):
                    decode(bytes(restamped))
