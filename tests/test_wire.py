"""Wire format: exact byte layouts, strict parsing, fuzz totality."""

from __future__ import annotations

import errno
import itertools
import socket
import struct
import threading
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attestsim.wire import (
    HEADER_LEN,
    MAX_PAYLOAD,
    MSG_ATTEST_REQUEST,
    READ_SIZE,
    AttestRequest,
    AttestResponse,
    BadLengthError,
    ChannelConfirm,
    ChannelInit,
    ErrorMsg,
    FrameDecoder,
    FrameStream,
    OversizeFrameError,
    TruncatedError,
    UnknownTypeError,
    WireError,
    decode,
    decode_payload,
    encode,
    set_deadlines,
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
                          min_size=1, max_size=20),
           bad=st.none() | st.tuples(st.integers(0, 12),
                                     st.integers(MAX_PAYLOAD + 1, 2**32 - 1)))
    @example(frames=[encode(AttestRequest(pid=1, chal=bytes(32))),
                     encode(ErrorMsg(code=2))], sizes=[1], bad=None)
    @example(frames=[encode(ErrorMsg(code=1))] * 3, sizes=[1],
             bad=(1, MAX_PAYLOAD + 1))
    @settings(max_examples=300, deadline=None)
    def test_any_split_yields_what_decode_yields(self, frames, sizes, bad):
        """Fed in pieces of the given sizes, cycled (down to one byte at a
        time), the decoder hands back exactly the frames, in order.

        ``bad`` puts an oversize header in front of frame ``at``: only the
        frames ahead of it come back, ``lost`` is set by the feed that
        completes the header and not before, and no later feed yields a
        frame, whatever follows."""
        at, length = bad or (len(frames), None)
        ahead = b"".join(frames[:at])
        data = ahead
        if length is not None:
            data += struct.pack(">IB", length, MSG_ATTEST_REQUEST)
            data += b"".join(frames[at:])
        decoder = FrameDecoder()
        items, pos, i = [], 0, 0
        while pos < len(data):
            n = sizes[i % len(sizes)]
            was_lost = decoder.lost is not None
            got = decoder.feed(data[pos:pos + n])
            assert not (was_lost and got)
            items += got
            assert decoder.pending <= HEADER_LEN + MAX_PAYLOAD
            pos, i = pos + n, i + 1
            complete = length is not None and pos >= len(ahead) + HEADER_LEN
            assert decoder.lost == (length if complete else None)
        if length is None:
            assert decoder.pending == 0
        else:
            assert decoder.feed(encode(ErrorMsg(code=1))) == []
            assert decoder.lost == length
        assert [_outcome(decode_payload, *item) for item in items] == \
            [_outcome(decode, frame) for frame in frames[:at]]

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
        assert decoder.lost is None
        assert decoder.feed(bad[2:] + ok + bytes(100)) == []
        assert decoder.lost == MAX_PAYLOAD + 1
        assert decoder.pending == 0
        assert decoder.feed(ok) == []
        assert decoder.lost == MAX_PAYLOAD + 1
        assert decoder.pending == 0

    def test_full_size_payload_is_a_frame(self):
        frame = struct.pack(">IB", MAX_PAYLOAD, 0x03) + bytes(MAX_PAYLOAD)
        assert FrameDecoder().feed(frame) == [(0x03, bytes(MAX_PAYLOAD))]


    def test_one_read_of_one_oversize_frame_loses_sync(self):
        data = struct.pack(">IB", MAX_PAYLOAD + 1, 0x03) + bytes(MAX_PAYLOAD + 1)
        decoder = FrameDecoder()
        assert decoder.feed(data) == []
        assert decoder.lost == MAX_PAYLOAD + 1

    def test_one_whole_frame_from_any_buffer_gives_bytes(self):
        frame = encode(AttestRequest(pid=7, chal=bytes(range(32))))
        for data in (frame, bytearray(frame), memoryview(frame)):
            [(mtype, payload)] = FrameDecoder().feed(data)
            assert mtype == MSG_ATTEST_REQUEST and type(payload) is bytes
            assert payload == frame[HEADER_LEN:]


class ScriptedSocket:
    """A socket stand-in that logs every ``sendall``, ``recv`` and ``close``
    in call order. ``recv`` hands out the queued chunks one per call and
    fails where a real socket would block."""

    def __init__(self, *chunks: bytes):
        self.inbox = deque(chunks)
        self.log: list[tuple] = []

    def gettimeout(self):
        return None

    def sendall(self, data) -> None:
        self.log.append(("sendall", bytes(data)))

    def recv(self, size: int) -> bytes:
        self.log.append(("recv",))
        assert self.inbox, "recv would block"
        return self.inbox.popleft()

    def close(self) -> None:
        self.log.append(("close",))

    def writes(self) -> list[bytes]:
        return [entry[1] for entry in self.log if entry[0] == "sendall"]


class EchoSocket:
    """A peer that echoes every byte written, in reads cut to the sizes
    given, taken in turn. ``owed`` is what the caller has asked the stream
    to send; a read while some of it is unwritten could wait forever on a
    real peer, so it fails here."""

    def __init__(self, sizes: list[int]):
        self.pending = bytearray()
        self.sizes = itertools.cycle(sizes)
        self.written = self.owed = 0

    def gettimeout(self):
        return None

    def sendall(self, data) -> None:
        self.written += len(data)
        self.pending += data

    def recv(self, size: int) -> bytes:
        assert self.written == self.owed, "read while frames were held"
        assert self.pending, "recv would block"
        n = min(size, next(self.sizes))
        data = bytes(self.pending[:n])
        del self.pending[:n]
        return data

    def close(self) -> None:
        pass


def _socketpair() -> tuple[socket.socket, socket.socket]:
    """A connected pair whose reads and writes give up after 5 s, so a
    stream that waits when it should not fails its test instead of
    hanging the suite."""
    a, b = socket.socketpair()
    a.settimeout(5)
    b.settimeout(5)
    return a, b


def _request(i: int) -> bytes:
    return encode(AttestRequest(pid=i, chal=bytes([i % 256]) * 32))


class TestFrameStream:
    def _pair(self):
        a, b = _socketpair()
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
            for _ in range(2):
                with pytest.raises(TruncatedError, match="before a frame"):
                    right.recv()
        finally:
            right.close()

    @pytest.mark.parametrize("cut", [1, 2, 3, 4])
    def test_eof_inside_header_is_not_clean(self, cut):
        left, right = self._pair()
        left.send_raw(encode(ErrorMsg(code=1))[:cut])
        left.close()
        try:
            with pytest.raises(TruncatedError, match="mid-frame"):
                right.recv()
        finally:
            right.close()

    def test_frames_sent_together_come_out_one_by_one(self):
        left, right = self._pair()
        msgs = [AttestRequest(pid=i, chal=bytes([i]) * 32) for i in range(5)]
        left.send_raw(b"".join(encode(m) for m in msgs))
        left.close()
        try:
            assert [right.recv() for _ in msgs] == msgs
            with pytest.raises(TruncatedError, match="before a frame"):
                right.recv()
        finally:
            right.close()

    def test_eof_mid_frame(self):
        left, right = self._pair()
        left.send_raw(struct.pack(">IB", 40, 0x01) + bytes(10))
        left.close()
        try:
            with pytest.raises(TruncatedError, match="mid-frame"):
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
        a, b = _socketpair()
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
        a, b = _socketpair()
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

    @pytest.mark.parametrize("seconds", [-1, -0.5, float("nan"), float("inf"),
                                         float("-inf"), 1e30])
    @pytest.mark.parametrize("before", [None, 0.0, 2.5])
    def test_refused_deadline_leaves_the_socket_as_it_was(self, seconds, before):
        a, b = _socketpair()
        try:
            a.settimeout(before)
            if before:
                set_deadlines(a, before)   # a kernel deadline, Python's None
            timeout, deadlines = a.gettimeout(), self._deadlines(a)
            with pytest.raises(ValueError):
                set_deadlines(a, seconds)
            assert a.gettimeout() == timeout
            assert self._deadlines(a) == deadlines
        finally:
            a.close()
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

    @pytest.mark.parametrize("timeout", [-1, float("nan"), float("inf"),
                                         1e12, 1e30])
    def test_refused_connect_timeout_makes_no_socket(self, timeout, monkeypatch):
        def create_connection(*args, **kwargs):
            raise AssertionError("a socket was made")

        monkeypatch.setattr(socket, "create_connection", create_connection)
        with pytest.raises(ValueError):
            FrameStream.connect("127.0.0.1", 9, timeout=timeout)

    def test_sends_behind_unread_replies_go_out_in_one_write(self):
        """With k replies unread, k sends write nothing; the next read of
        the socket comes after exactly one write of all k frames, in order."""
        k = 3
        sock = ScriptedSocket(b"".join(encode(ErrorMsg(i)) for i in range(k + 1)),
                              encode(ErrorMsg(9)))
        stream = FrameStream(sock)
        assert stream.recv() == ErrorMsg(0)
        requests = [AttestRequest(pid=i, chal=bytes([i]) * 32) for i in range(k)]
        for msg in requests:
            stream.send(msg)
        assert [stream.recv() for _ in range(k)] == [ErrorMsg(i + 1) for i in range(k)]
        assert sock.log == [("recv",)]
        assert stream.recv() == ErrorMsg(9)
        assert sock.log == [("recv",),
                            ("sendall", b"".join(map(encode, requests))),
                            ("recv",)]

    def test_a_send_with_nothing_unread_goes_out_at_once(self):
        """It is written at once, after any held frames and in the same
        write; with nothing held it is written alone."""
        sock = ScriptedSocket(encode(ErrorMsg(1)) + encode(ErrorMsg(2)))
        stream = FrameStream(sock)
        stream.recv()
        stream.send_raw(_request(1))                    # one reply unread: held
        assert stream.recv() == ErrorMsg(2)
        stream.send_raw(_request(2))
        stream.send_raw(_request(3))
        assert sock.log == [("recv",), ("sendall", _request(1) + _request(2)),
                            ("sendall", _request(3))]

    def test_close_writes_the_held_frames(self):
        sock = ScriptedSocket(encode(ErrorMsg(1)) * 2)
        stream = FrameStream(sock)
        stream.recv()
        stream.send_raw(_request(1))
        stream.send_raw(_request(2))
        stream.close()
        assert sock.log == [("recv",), ("sendall", _request(1) + _request(2)),
                            ("close",)]

    def test_close_closes_when_the_held_frames_cannot_go(self):
        class Gone(ScriptedSocket):
            def sendall(self, data):
                raise BrokenPipeError(errno.EPIPE, "peer gone")

        sock = Gone(encode(ErrorMsg(1)) * 2)
        stream = FrameStream(sock)
        stream.recv()
        stream.send_raw(_request(1))
        stream.close()
        assert sock.log == [("recv",), ("close",)]

    def test_held_bytes_stay_under_one_read(self):
        """Frames are held only until ``READ_SIZE`` bytes are: no write is
        larger than one read plus one frame, and none is lost."""
        sock = ScriptedSocket(encode(ErrorMsg(1)) * 2)
        stream = FrameStream(sock)
        stream.recv()                   # one reply stays unread throughout
        frame = encode(ChannelInit(eph_pk=bytes(32), nonce=bytes(12),
                                   ct=bytes(MAX_PAYLOAD - 44)))
        sent = 0
        for _ in range(3 * READ_SIZE // len(frame)):
            stream.send_raw(frame)
            sent += len(frame)
            assert sent - sum(map(len, sock.writes())) < READ_SIZE
        assert len(sock.writes()) >= 2
        assert all(len(w) < READ_SIZE + len(frame) for w in sock.writes())
        stream.close()
        assert b"".join(sock.writes()) == frame * (sent // len(frame))

    def test_lost_sync_is_not_an_unread_reply(self):
        """After the last frame ahead of a lost-framing header is read, a
        send goes out at once: only the error is left to read."""
        sock = ScriptedSocket(encode(ErrorMsg(1))
                              + struct.pack(">IB", MAX_PAYLOAD + 1, 0x01))
        stream = FrameStream(sock)
        assert stream.recv() == ErrorMsg(1)
        stream.send_raw(_request(1))
        assert sock.log == [("recv",), ("sendall", _request(1))]
        with pytest.raises(BadLengthError):
            stream.recv()

    def test_lost_framing_raises_on_every_recv_without_a_read(self):
        """The frame ahead of a header split over two reads comes out
        first; from then on every recv raises, and none reads again."""
        bad = struct.pack(">IB", MAX_PAYLOAD + 1, 0x01)
        sock = ScriptedSocket(encode(ErrorMsg(1)) + bad[:3],
                              bad[3:] + encode(ErrorMsg(2)), encode(ErrorMsg(3)))
        stream = FrameStream(sock)
        assert stream.recv() == ErrorMsg(1)
        for _ in range(3):
            with pytest.raises(BadLengthError,
                               match=f"declared payload {MAX_PAYLOAD + 1} exceeds"):
                stream.recv()
        assert sock.log == [("recv",), ("recv",)]

    def test_a_held_write_past_its_deadline_times_out_the_recv(self):
        class Stalled(ScriptedSocket):
            def sendall(self, data):
                super().sendall(data)
                raise BlockingIOError(errno.EAGAIN, "send deadline expired")

        sock = Stalled(encode(ErrorMsg(1)) * 2, encode(ErrorMsg(2)))
        stream = FrameStream(sock)
        stream.recv()
        stream.send_raw(_request(1))
        stream.recv()
        with pytest.raises(TimeoutError):
            stream.recv()
        assert sock.log == [("recv",), ("sendall", _request(1))]

    @given(ops=st.lists(st.one_of(st.none(), st.integers(0, 2**16))),
           sizes=st.lists(st.integers(1, 120), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_any_interleaving_against_an_echo_peer(self, ops, sizes):
        """Sends (an integer) and reads (``None``) in any order: every frame
        comes back in order, and no read of the socket happens while a
        frame is held."""
        sock = EchoSocket(sizes)
        stream = FrameStream(sock)
        sent, got = [], []
        for op in ops:
            if op is None:
                if len(got) < len(sent):
                    got.append(stream.recv())
                continue
            msg = ErrorMsg(op) if op < 256 else AttestRequest(op, bytes(32))
            sock.owed += len(encode(msg))
            stream.send(msg)
            sent.append(msg)
        while len(got) < len(sent):
            got.append(stream.recv())
        assert got == sent
