"""Wire format: exact byte layouts, strict parsing, fuzz totality."""

from __future__ import annotations

import socket
import struct
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attestsim.wire import (
    HEADER_LEN,
    MAX_PAYLOAD,
    MSG_ATTEST_REQUEST,
    AttestRequest,
    AttestResponse,
    BadLengthError,
    ChannelConfirm,
    ChannelInit,
    ErrorMsg,
    FrameDecoder,
    FrameStream,
    LostSync,
    OversizeFrameError,
    TruncatedError,
    UnknownTypeError,
    WireError,
    decode,
    decode_payload,
    encode,
)


class TestFrozenLayouts:
    """Hand-assembled frames: the layout is the contract, byte for byte."""

    def test_attest_request(self):
        frame = encode(AttestRequest(pid=5, chal=bytes(range(32))))
        assert frame.hex() == (
            "00000028" "01" "0000000000000005"
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")

    def test_attest_response_hmac(self):
        frame = encode(AttestResponse(status=0, pid=5, pk=b"\xbb" * 32,
                                      sigma=b"\xcc" * 32))
        assert frame.hex() == (
            "0000004b" "02" "00" "0000000000000005"
            + "bb" * 32 + "0020" + "cc" * 32)

    def test_attest_response_error_status(self):
        frame = encode(AttestResponse(status=2, pid=9, pk=bytes(32), sigma=b""))
        assert frame.hex() == (
            "0000002b" "02" "02" "0000000000000009" + "00" * 32 + "0000")

    def test_channel_init(self):
        frame = encode(ChannelInit(eph_pk=b"\x11" * 32, nonce=b"\x22" * 12,
                                   ct=b"\x33" * 16))
        assert frame.hex() == (
            "0000003c" "03" + "11" * 32 + "22" * 12 + "33" * 16)

    def test_channel_confirm(self):
        frame = encode(ChannelConfirm(nonce=b"\x44" * 12, ct=b"\x55" * 24))
        assert frame.hex() == ("00000024" "04" + "44" * 12 + "55" * 24)

    def test_error(self):
        assert encode(ErrorMsg(code=3)).hex() == "00000001" "05" "03"

    def test_length_counts_payload_only(self):
        frame = encode(ErrorMsg(code=1))
        declared = struct.unpack(">I", frame[:4])[0]
        assert declared == len(frame) - HEADER_LEN == 1


MESSAGES = st.one_of(
    st.builds(AttestRequest,
              pid=st.integers(min_value=0, max_value=2**64 - 1),
              chal=st.binary(min_size=32, max_size=32)),
    st.builds(AttestResponse,
              status=st.integers(min_value=0, max_value=255),
              pid=st.integers(min_value=0, max_value=2**64 - 1),
              pk=st.binary(min_size=32, max_size=32),
              sigma=st.sampled_from([b"", b"\x01" * 32, b"\x02" * 64])),
    st.builds(ChannelInit,
              eph_pk=st.binary(min_size=32, max_size=32),
              nonce=st.binary(min_size=12, max_size=12),
              ct=st.binary(min_size=16, max_size=300)),
    st.builds(ChannelConfirm,
              nonce=st.binary(min_size=12, max_size=12),
              ct=st.binary(min_size=16, max_size=300)),
    st.builds(ErrorMsg, code=st.integers(min_value=0, max_value=255)),
)


class TestRoundtrip:
    @given(msg=MESSAGES)
    @settings(max_examples=400, deadline=None)
    def test_encode_decode_identity(self, msg):
        assert decode(encode(msg)) == msg

    def test_oversize_payload_refused_at_encode(self):
        with pytest.raises(OversizeFrameError):
            encode(ChannelInit(eph_pk=bytes(32), nonce=bytes(12),
                               ct=bytes(MAX_PAYLOAD)))


U8 = st.integers(min_value=0, max_value=255)
U64 = st.integers(min_value=0, max_value=2**64 - 1)
KEY32 = st.binary(min_size=32, max_size=32)
SIGMA = st.sampled_from([0, 32, 64]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n))
NOT_U8 = st.one_of(st.integers(max_value=-1), st.integers(min_value=256))
NOT_U64 = st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64))
NOT_32 = st.binary(max_size=80).filter(lambda b: len(b) != 32)
NOT_SIGMA = st.binary(max_size=96).filter(lambda b: len(b) not in (0, 32, 64))


class TestEncodeAttestation:
    """encode's two attestation messages: the layout of docs/protocol.md
    built field by field here, and a BadLengthError for each field out of
    range, whatever the other fields hold."""

    @given(pid=U64, chal=KEY32)
    def test_request_layout(self, pid, chal):
        assert encode(AttestRequest(pid, chal)) == (
            (40).to_bytes(4, "big") + bytes([MSG_ATTEST_REQUEST])
            + pid.to_bytes(8, "big") + chal)

    @given(status=U8, pid=U64, pk=KEY32, sigma=SIGMA)
    def test_response_layout(self, status, pid, pk, sigma):
        assert encode(AttestResponse(status, pid, pk, sigma)) == (
            (43 + len(sigma)).to_bytes(4, "big") + b"\x02" + bytes([status])
            + pid.to_bytes(8, "big") + pk + len(sigma).to_bytes(2, "big")
            + sigma)

    @given(data=st.data(), field=st.sampled_from(["pid", "chal"]))
    def test_request_refusals(self, data, field):
        fields = {"pid": data.draw(U64), "chal": data.draw(KEY32)}
        fields[field] = data.draw(NOT_U64 if field == "pid" else NOT_32)
        with pytest.raises(BadLengthError):
            encode(AttestRequest(**fields))

    @given(data=st.data(),
           field=st.sampled_from(["status", "pid", "pk", "sigma"]))
    def test_response_refusals(self, data, field):
        fields = {"status": data.draw(U8), "pid": data.draw(U64),
                  "pk": data.draw(KEY32), "sigma": data.draw(SIGMA)}
        fields[field] = data.draw({"status": NOT_U8, "pid": NOT_U64,
                                   "pk": NOT_32, "sigma": NOT_SIGMA}[field])
        with pytest.raises(BadLengthError):
            encode(AttestResponse(**fields))


class TestStrictParsing:
    def test_truncated_header(self):
        with pytest.raises(TruncatedError):
            decode(b"\x00\x00")

    def test_truncated_payload(self):
        frame = encode(ErrorMsg(code=1))
        with pytest.raises(TruncatedError):
            decode(frame[:-1])

    def test_trailing_bytes(self):
        frame = encode(ErrorMsg(code=1))
        with pytest.raises(BadLengthError):
            decode(frame + b"\x00")

    def test_unknown_type(self):
        with pytest.raises(UnknownTypeError):
            decode(struct.pack(">IB", 0, 0x7F))

    def test_oversize_declared_length(self):
        with pytest.raises(BadLengthError):
            decode(struct.pack(">IB", MAX_PAYLOAD + 1, MSG_ATTEST_REQUEST)
                   + bytes(MAX_PAYLOAD + 1))

    @pytest.mark.parametrize("payload_len", [0, 39, 41])
    def test_attest_request_length_must_be_exact(self, payload_len):
        with pytest.raises(WireError):
            decode(struct.pack(">IB", payload_len, MSG_ATTEST_REQUEST)
                   + bytes(payload_len))

    def test_sigma_len_must_match_remaining(self):
        # sigma_len says 64 but only 32 bytes follow
        payload = struct.pack(">BQ", 0, 1) + bytes(32) + struct.pack(">H", 64) + bytes(32)
        frame = struct.pack(">IB", len(payload), 0x02) + payload
        with pytest.raises(BadLengthError):
            decode(frame)

    def test_sigma_len_odd_value_rejected(self):
        payload = struct.pack(">BQ", 0, 1) + bytes(32) + struct.pack(">H", 48) + bytes(48)
        frame = struct.pack(">IB", len(payload), 0x02) + payload
        with pytest.raises(BadLengthError):
            decode(frame)

    def test_channel_ct_must_cover_a_tag(self):
        payload = bytes(32) + bytes(12) + bytes(15)
        frame = struct.pack(">IB", len(payload), 0x03) + payload
        with pytest.raises(TruncatedError):
            decode(frame)

    @given(blob=st.binary(max_size=256))
    @settings(max_examples=500, deadline=None)
    def test_decode_is_total(self, blob):
        """Arbitrary bytes either parse or raise a WireError; nothing else."""
        try:
            msg = decode(blob)
        except WireError:
            return
        assert decode(encode(msg)) == msg

    @given(header=st.binary(min_size=5, max_size=5), body=st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_decode_total_with_plausible_headers(self, header, body):
        try:
            decode(header + body)
        except WireError:
            pass


# well-formed frames plus honest-length frames whose payload may not parse
FRAMES = st.one_of(
    MESSAGES.map(encode),
    st.builds(lambda mtype, body: struct.pack(">IB", len(body), mtype) + body,
              st.integers(min_value=0, max_value=255), st.binary(max_size=64)),
)


def _outcome(parse, *args):
    try:
        return parse(*args)
    except WireError as e:
        return type(e)


class TestFrameDecoder:
    @given(frames=st.lists(FRAMES, max_size=12),
           sizes=st.lists(st.integers(min_value=1, max_value=200),
                          min_size=1, max_size=20))
    @example(frames=[encode(AttestRequest(pid=1, chal=bytes(32))),
                     encode(ErrorMsg(code=2))], sizes=[1])
    @settings(max_examples=300, deadline=None)
    def test_any_split_yields_what_decode_yields(self, frames, sizes):
        """Fed in pieces of the given sizes, cycled (down to one byte at a
        time), the decoder hands back exactly the frames, in order."""
        data = b"".join(frames)
        decoder = FrameDecoder()
        items, pos, i = [], 0, 0
        while pos < len(data):
            n = sizes[i % len(sizes)]
            items += decoder.feed(data[pos:pos + n])
            assert decoder.pending <= HEADER_LEN + MAX_PAYLOAD
            pos, i = pos + n, i + 1
        assert decoder.pending == 0
        assert [_outcome(decode_payload, *item) for item in items] == \
            [_outcome(decode, frame) for frame in frames]

    def test_partial_frame_is_held(self):
        frame = encode(AttestRequest(pid=7, chal=bytes(range(32))))
        decoder = FrameDecoder()
        assert decoder.feed(frame[:3]) == []
        assert decoder.feed(frame[3:20]) == []
        assert decoder.pending == 20
        assert decoder.feed(frame[20:] + frame[:1]) == [
            (MSG_ATTEST_REQUEST, frame[HEADER_LEN:])]
        assert decoder.pending == 1

    def test_oversize_header_loses_sync_for_good(self):
        ok = encode(ErrorMsg(code=1))
        bad = struct.pack(">IB", MAX_PAYLOAD + 1, MSG_ATTEST_REQUEST)
        decoder = FrameDecoder()
        assert decoder.feed(ok + bad[:2]) == [(0x05, b"\x01")]
        assert decoder.feed(bad[2:] + ok + bytes(100)) == [
            LostSync(MAX_PAYLOAD + 1)]
        assert decoder.pending == HEADER_LEN
        assert decoder.feed(ok) == [LostSync(MAX_PAYLOAD + 1)]
        assert decoder.pending == HEADER_LEN

    def test_full_size_payload_is_a_frame(self):
        frame = struct.pack(">IB", MAX_PAYLOAD, 0x03) + bytes(MAX_PAYLOAD)
        assert FrameDecoder().feed(frame) == [(0x03, bytes(MAX_PAYLOAD))]


    def test_one_read_of_one_oversize_frame_loses_sync(self):
        data = struct.pack(">IB", MAX_PAYLOAD + 1, 0x03) + bytes(MAX_PAYLOAD + 1)
        assert FrameDecoder().feed(data) == [LostSync(MAX_PAYLOAD + 1)]

    def test_one_whole_frame_from_any_buffer_gives_bytes(self):
        frame = encode(AttestRequest(pid=7, chal=bytes(range(32))))
        for data in (frame, bytearray(frame), memoryview(frame)):
            [(mtype, payload)] = FrameDecoder().feed(data)
            assert mtype == MSG_ATTEST_REQUEST and type(payload) is bytes
            assert payload == frame[HEADER_LEN:]


class TestFrameStream:
    def _pair(self):
        a, b = socket.socketpair()
        return FrameStream(a), FrameStream(b)

    def test_send_recv_roundtrip(self):
        left, right = self._pair()
        try:
            msg = AttestRequest(pid=3, chal=bytes(32))
            left.send(msg)
            assert right.recv() == msg
        finally:
            left.close()
            right.close()

    def test_clean_eof(self):
        left, right = self._pair()
        left.close()
        try:
            assert right.recv(allow_eof=True) is None
            with pytest.raises(TruncatedError):
                right.recv()
        finally:
            right.close()

    @pytest.mark.parametrize("cut", [1, 2, 3, 4])
    def test_eof_inside_header_is_not_clean(self, cut):
        left, right = self._pair()
        left.send_raw(encode(ErrorMsg(code=1))[:cut])
        left.close()
        try:
            with pytest.raises(TruncatedError):
                right.recv(allow_eof=True)
        finally:
            right.close()

    def test_frames_sent_together_come_out_one_by_one(self):
        left, right = self._pair()
        msgs = [AttestRequest(pid=i, chal=bytes([i]) * 32) for i in range(5)]
        left.send_raw(b"".join(encode(m) for m in msgs))
        left.close()
        try:
            assert [right.recv() for _ in msgs] == msgs
            assert right.recv(allow_eof=True) is None
        finally:
            right.close()

    def test_eof_mid_frame(self):
        left, right = self._pair()
        left.send_raw(struct.pack(">IB", 40, 0x01) + bytes(10))
        left.close()
        try:
            with pytest.raises(TruncatedError):
                right.recv()
        finally:
            right.close()

    def test_oversize_declaration(self):
        left, right = self._pair()
        left.send_raw(struct.pack(">IB", MAX_PAYLOAD + 9, 0x01))
        try:
            with pytest.raises(BadLengthError):
                right.recv()
        finally:
            left.close()
            right.close()

    @staticmethod
    def _deadlines(sock):
        """(SO_RCVTIMEO, SO_SNDTIMEO) read back from the socket, in seconds."""
        size = struct.calcsize("ll")
        out = []
        for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
            sec, usec = struct.unpack(
                "ll", sock.getsockopt(socket.SOL_SOCKET, option, size))
            out.append(sec + usec / 1e6)
        return tuple(out)

    def test_python_timeout_becomes_a_kernel_deadline(self):
        a, b = socket.socketpair()
        a.settimeout(2.5)
        stream = FrameStream(a)
        try:
            assert a.gettimeout() is None
            assert self._deadlines(a) == pytest.approx((2.5, 2.5), abs=0.01)
            stream.settimeout(None)
            assert a.gettimeout() is None and self._deadlines(a) == (0, 0)
        finally:
            stream.close()
            b.close()

    def test_expired_deadline_raises_timeout(self):
        left, right = self._pair()
        try:
            right.settimeout(0.05)
            with pytest.raises(TimeoutError):
                right.recv()
        finally:
            left.close()
            right.close()

    def test_zero_timeout_does_not_wait(self):
        """0 keeps Python's meaning (do not wait); a zero SO_RCVTIMEO
        would mean no deadline at all."""
        a, b = socket.socketpair()
        stream = FrameStream(a)
        stream.settimeout(0)
        outcome: list = []

        def read():
            try:
                stream.recv()
            except Exception as e:
                outcome.append(e)

        reader = threading.Thread(target=read, daemon=True)
        try:
            reader.start()
            reader.join(timeout=2)
            assert not reader.is_alive(), "recv waited with a zero timeout"
            assert len(outcome) == 1 and isinstance(outcome[0], TimeoutError)
        finally:
            a.shutdown(socket.SHUT_RDWR)    # releases a reader still blocked
            stream.close()
            b.close()

    def test_settimeout_touches_the_socket_only_on_a_change(self):
        class Sock:
            calls: list = []

            def gettimeout(self):
                return None

            def settimeout(self, value):
                self.calls.append(value)

            def setsockopt(self, level, option, value):
                # the deadline is a timeval in SO_RCVTIMEO; zero is none
                if option == socket.SO_RCVTIMEO:
                    sec, usec = struct.unpack("ll", value)
                    self.calls.append(sec + usec / 1e6 or None)

        sock = Sock()
        stream = FrameStream(sock)
        for value in (None, 5.0, 5.0, 5, 2.5, None, None):
            stream.settimeout(value)
        assert sock.calls == [5.0, 2.5, None]
