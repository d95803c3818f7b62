"""Binary framing between verifier and prover daemon.

Frame: ``len(4, big-endian) || msg_type(1) || payload``, where ``len``
counts payload bytes only and is capped at 4096. Payload layouts, offsets
in bytes:

=================  ====  =========================================
AttestRequest      0x01  pid(8 BE) chal(32)
AttestResponse     0x02  status(1) pid(8 BE) pk(32) sigma_len(2 BE) sigma
ChannelInit        0x03  eph_pk(32) nonce(12) ct(>=16)
ChannelConfirm     0x04  nonce(12) ct(>=16)
Error              0x05  code(1)
=================  ====  =========================================

``sigma_len`` is 32 (HMAC tag), 64 (Ed25519 signature), or 0 when status
is nonzero. Parsing is strict and total: a payload of the wrong length,
an unknown type and an out-of-range field each raise a typed error, and no
input crashes the decoder. ``FrameDecoder`` is the one frame reader, and
lost framing is its state. Anything beyond these five layouts (TLS,
compression, version negotiation) is deliberately absent.

Both roles load this module, so it also holds their readers of outside input.
"""

from __future__ import annotations

import json
import os
import socket
import stat
import struct
from collections import deque, namedtuple
from typing import Optional, Union

MAX_PAYLOAD = 4096
HEADER_LEN = 5
READ_SIZE = 65536             # bytes asked of one socket recv
MAX_TIMEOUT = 2**32           # seconds (~136 years); socket timeouts end at 2**63 ns
AEAD_TAG_LEN = 16

MSG_ATTEST_REQUEST = 0x01
MSG_ATTEST_RESPONSE = 0x02
MSG_CHANNEL_INIT = 0x03
MSG_CHANNEL_CONFIRM = 0x04
MSG_ERROR = 0x05

ERR_UNKNOWN_PID = 1
ERR_BAD_REQUEST = 2
ERR_NO_CONTEXT = 3
ERR_INTERNAL = 4
ERR_CHANNEL = 5

_HEADER = struct.Struct(">IB")
_ATTEST_REQUEST = struct.Struct(">Q32s")          # pid, chal
_ATTEST_RESPONSE_HEAD = struct.Struct(">BQ32sH")  # status, pid, pk, sigma_len
# the same layouts behind the frame header, for encode's one pack
_ATTEST_REQUEST_FRAME = struct.Struct(">IBQ32s")
_ATTEST_RESPONSE_FRAME = struct.Struct(">IBBQ32sH")
_TIMEVAL = struct.Struct("ll")                    # struct timeval: s, us
_NO_DEADLINE = _TIMEVAL.pack(0, 0)


class WireError(Exception):
    pass


class OversizeFrameError(WireError):
    pass


class TruncatedError(WireError):
    pass


class UnknownTypeError(WireError):
    pass


class BadLengthError(WireError):
    pass


def record(cls: type) -> type:
    """Class decorator: an immutable value type backed by a tuple.

    The fields are the class's annotations, in order, and nothing else in
    the class body is kept. The result is a ``namedtuple`` of the same
    name: construction, attribute access and the repr are those of a
    frozen dataclass, while building one costs one tuple. Equality and
    hash include the type, so a record never equals a plain tuple or a
    record of another type with the same fields.

    Building one through the class runs namedtuple's generated Python
    ``__new__``. Hot paths build records with ``tuple.__new__(cls,
    fields)`` instead, which costs half as much. Neither form checks its
    fields; ``encode`` checks every field it writes.
    """
    rec = namedtuple(cls.__name__, tuple(cls.__annotations__),
                     module=cls.__module__)
    rec.__qualname__ = cls.__qualname__
    rec.__eq__ = _record_eq
    rec.__ne__ = _record_ne
    rec.__hash__ = _record_hash
    return rec


def _record_eq(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _record_ne(self, other) -> bool:
    return not _record_eq(self, other)


def _record_hash(self) -> int:
    return hash((type(self), tuple(self)))


@record
class AttestRequest:
    pid: int
    chal: bytes


@record
class AttestResponse:
    status: int
    pid: int
    pk: bytes
    sigma: bytes


@record
class ChannelInit:
    eph_pk: bytes
    nonce: bytes
    ct: bytes


@record
class ChannelConfirm:
    nonce: bytes
    ct: bytes


@record
class ErrorMsg:
    code: int


WireMessage = Union[AttestRequest, AttestResponse, ChannelInit,
                    ChannelConfirm, ErrorMsg]


def encode(msg: WireMessage) -> bytes:
    # Dispatch is on the exact type. Records unpack as tuples, which is
    # cheaper than reading each field. The two attestation messages are
    # packed with their header in one go; both fit MAX_PAYLOAD by layout.
    kind = type(msg)
    if kind is AttestResponse:
        status, pid, pk, sigma = msg
        if not 0 <= status <= 255:
            raise BadLengthError("status out of u8 range")
        if not 0 <= pid < 2**64:
            raise BadLengthError("pid out of u64 range")
        if len(pk) != 32:
            raise BadLengthError("pk must be 32 bytes")
        n = len(sigma)
        if n not in (0, 32, 64):
            raise BadLengthError("sigma must be 0, 32, or 64 bytes")
        return _ATTEST_RESPONSE_FRAME.pack(
            43 + n, MSG_ATTEST_RESPONSE, status, pid, pk, n) + sigma
    if kind is AttestRequest:
        pid, chal = msg
        if not 0 <= pid < 2**64:
            raise BadLengthError("pid out of u64 range")
        if len(chal) != 32:
            raise BadLengthError("chal must be 32 bytes")
        return _ATTEST_REQUEST_FRAME.pack(40, MSG_ATTEST_REQUEST, pid, chal)
    if kind is ChannelInit:
        eph_pk, nonce, ct = msg
        if len(eph_pk) != 32 or len(nonce) != 12:
            raise BadLengthError("eph_pk must be 32 bytes, nonce 12")
        if len(ct) < AEAD_TAG_LEN:
            raise BadLengthError("ct shorter than an AEAD tag")
        mtype, payload = MSG_CHANNEL_INIT, eph_pk + nonce + ct
    elif kind is ChannelConfirm:
        nonce, ct = msg
        if len(nonce) != 12:
            raise BadLengthError("nonce must be 12 bytes")
        if len(ct) < AEAD_TAG_LEN:
            raise BadLengthError("ct shorter than an AEAD tag")
        mtype, payload = MSG_CHANNEL_CONFIRM, nonce + ct
    elif kind is ErrorMsg:
        (code,) = msg
        if not 0 <= code <= 255:
            raise BadLengthError("error code out of u8 range")
        mtype, payload = MSG_ERROR, struct.pack(">B", code)
    else:
        raise UnknownTypeError(f"cannot encode {type(msg).__name__}")
    if len(payload) > MAX_PAYLOAD:
        raise OversizeFrameError(f"payload {len(payload)} exceeds {MAX_PAYLOAD}")
    return _HEADER.pack(len(payload), mtype) + payload


def decode_payload(mtype: int, payload: bytes) -> WireMessage:
    """Strict per-type payload parser; every byte must be accounted for."""
    # No record checks its fields when built, so tuple.__new__ builds the
    # two attestation messages without namedtuple's Python-level __new__.
    n = len(payload)
    if mtype == MSG_ATTEST_REQUEST:
        if n != 40:
            raise BadLengthError(f"attest request payload must be 40 bytes, got {n}")
        return tuple.__new__(AttestRequest, _ATTEST_REQUEST.unpack(payload))
    if mtype == MSG_ATTEST_RESPONSE:
        if n < 43:
            raise TruncatedError(f"attest response payload too short ({n})")
        status, pid, pk, sigma_len = _ATTEST_RESPONSE_HEAD.unpack_from(payload)
        if sigma_len not in (0, 32, 64):
            raise BadLengthError(f"sigma_len {sigma_len}")
        if n != 43 + sigma_len:
            raise BadLengthError(
                f"attest response payload {n} != {43 + sigma_len}")
        return tuple.__new__(AttestResponse,
                             (status, pid, pk, payload[43:43 + sigma_len]))
    if mtype == MSG_CHANNEL_INIT:
        if n < 44 + AEAD_TAG_LEN:
            raise TruncatedError(f"channel init payload too short ({n})")
        return ChannelInit(payload[:32], payload[32:44], payload[44:])
    if mtype == MSG_CHANNEL_CONFIRM:
        if n < 12 + AEAD_TAG_LEN:
            raise TruncatedError(f"channel confirm payload too short ({n})")
        return ChannelConfirm(payload[:12], payload[12:])
    if mtype == MSG_ERROR:
        if n != 1:
            raise BadLengthError(f"error payload must be 1 byte, got {n}")
        return ErrorMsg(payload[0])
    raise UnknownTypeError(f"msg_type {mtype:#04x}")


class FrameDecoder:
    """Incremental frame splitter with no I/O of its own (sans-IO).

    ``feed`` takes whatever bytes a read returned and gives back every
    frame they complete, as ``(msg_type, payload)`` in arrival order.
    Payloads are not parsed here; the caller runs ``decode_payload`` on
    each. At most one partial frame (at most ``HEADER_LEN + MAX_PAYLOAD``
    bytes) is held between calls. A header that declares more than
    ``MAX_PAYLOAD`` bytes loses framing for good: ``feed`` returns the
    frames ahead of it and sets ``lost`` to the declared length, and every
    later ``feed`` returns ``[]``.
    """

    __slots__ = ("_buf", "lost")

    def __init__(self):
        self._buf = bytearray()
        self.lost: Optional[int] = None

    @property
    def pending(self) -> int:
        """Bytes of an incomplete frame held since the last ``feed``."""
        return len(self._buf)

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        if self.lost is not None:
            return []
        buf = self._buf
        if not buf and type(data) is bytes and len(data) >= HEADER_LEN:
            # the common read: nothing held, and exactly one whole frame
            length, mtype = _HEADER.unpack_from(data)
            if length <= MAX_PAYLOAD and len(data) == HEADER_LEN + length:
                return [(mtype, data[HEADER_LEN:])]
        buf += data
        out: list[tuple[int, bytes]] = []
        pos, end = 0, len(buf)
        while end - pos >= HEADER_LEN:
            length, mtype = _HEADER.unpack_from(buf, pos)
            if length > MAX_PAYLOAD:
                self.lost = length
                buf.clear()         # nothing past the bad header is a frame
                return out
            stop = pos + HEADER_LEN + length
            if stop > end:
                break
            out.append((mtype, bytes(buf[pos + HEADER_LEN:stop])))
            pos = stop
        del buf[:pos]
        return out


def parse_address(text: str) -> tuple[str, int]:
    """``"host:port"``, with a port of ASCII digits in 0-65535, as
    ``(host, port)``; ``ValueError`` otherwise."""
    host, _, port = text.rpartition(":")
    if not (host and port.isascii() and port.isdigit()) or int(port) > 0xFFFF:
        raise ValueError(f"address must be host:port, port 0-65535, got {text!r}")
    return host, int(port)


def parse_hex32(text: object) -> bytes:
    """The 32 bytes that exactly 64 hex digits spell, else ``ValueError``:
    isalnum refuses the whitespace that ``bytes.fromhex`` would skip."""
    if not isinstance(text, str) or len(text) != 64 or not text.isalnum():
        raise ValueError("not 64 hex digits")
    return bytes.fromhex(text)


def read_regular(path: str, error: type[Exception], private: bool = False) -> bytes:
    """The bytes of ``path``, opened without waiting for a FIFO's writer;
    ``error`` unless the fd is a regular file, not world-readable if ``private``."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        mode = os.fstat(fd).st_mode
        if not stat.S_ISREG(mode):
            raise error(f"{path}: not a regular file")
        if private and mode & stat.S_IROTH:
            raise error(f"{path} is world-readable; refusing to load")
        with open(fd, "rb", closefd=False) as f:
            return f.read()
    finally:
        os.close(fd)


def load_json(path: str, error: type[Exception]) -> object:
    """The JSON value in the regular file ``path``, or ``error``."""
    try:
        return json.loads(read_regular(path, error).decode("utf-8"))
    except ValueError as e:         # not UTF-8, or not JSON
        raise error(f"{path}: not a JSON file: {e}") from e


def check_timeout(seconds: Optional[float]) -> None:
    """Refuse a deadline that is negative, not finite or above
    ``MAX_TIMEOUT`` with ``ValueError``; ``None`` (no deadline) passes."""
    if seconds is not None and not 0 <= seconds <= MAX_TIMEOUT:
        raise ValueError(
            f"timeout {seconds} is negative, not finite or above {MAX_TIMEOUT}")


def set_deadlines(sock: socket.socket, seconds: Optional[float]) -> None:
    """Bound each recv and send on ``sock`` by ``seconds``, in the host kernel.

    The socket stays blocking as Python sees it, and ``SO_RCVTIMEO`` and
    ``SO_SNDTIMEO`` (a ``struct timeval``) carry the deadline, so no call
    pays the ``poll()`` that Python's own socket timeout adds before every
    ``recv`` and ``send``. A call whose deadline expires fails with
    ``EAGAIN``, which Python raises as ``BlockingIOError``.

    ``None`` clears both deadlines. 0 keeps Python's meaning, a
    non-blocking socket, because a zero ``timeval`` means no deadline at
    all; any other value is rounded to whole microseconds, at least one.
    A value that ``check_timeout`` refuses raises ``ValueError``, socket
    untouched.
    """
    check_timeout(seconds)
    if seconds:
        usec = max(1, round(seconds * 1_000_000))
        timeval = _TIMEVAL.pack(*divmod(usec, 1_000_000))
    else:
        timeval = _NO_DEADLINE
    blocking = 0.0 if seconds == 0 else None
    if sock.gettimeout() != blocking:
        sock.settimeout(blocking)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)


class FrameStream:
    """Blocking frame reader/writer over a connected socket.

    Reads go through a ``FrameDecoder``, one ``recv`` of ``READ_SIZE`` at
    a time; frames that arrive together are handed out one per ``recv``.

    A send made while replies already read still wait unconsumed is held,
    not written: a pipelining caller is still to drain them, and its next
    window should reach the peer in one write, to be read in one read and
    answered in one write. Held frames go out in order, in one
    ``sendall``, at the first ``recv`` that has to read the socket, at the
    next send made with nothing unread (ahead of that send's frame), at
    ``close``, or as soon as ``READ_SIZE`` bytes are held. A caller that
    has consumed every reply, as every serial round has, writes each send
    at once. Lost framing (``FrameDecoder.lost``) holds no send.

    The timeout is a deadline per ``recv`` and per ``sendall``, enforced
    by the host kernel (``set_deadlines``). A socket that arrives with a
    Python timeout is converted when the stream is built. An expired
    deadline raises ``TimeoutError``, from the ``recv`` that writes held
    frames too, and sets ``timed_out`` for good: the reply waited for, or
    the rest of a frame written in part, may still cross the stream, so
    its requests and replies no longer pair.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._timeout = sock.gettimeout()
        if self._timeout is not None:
            set_deadlines(sock, self._timeout)
        self._decoder = FrameDecoder()
        self._ready: deque[tuple[int, bytes]] = deque()
        self._held = bytearray()
        self.timed_out = False

    @classmethod
    def connect(cls, host: str, port: int, timeout: Optional[float] = None
                ) -> "FrameStream":
        """Connect, bounding the connect and then each read and write by
        ``timeout``; ``ValueError`` from ``check_timeout`` comes first."""
        check_timeout(timeout)
        sock = socket.create_connection((host, port), timeout=timeout)
        return cls(sock)

    def settimeout(self, timeout: Optional[float]) -> None:
        """Set the deadline of each read and write; a call that changes
        nothing is free."""
        if timeout != self._timeout:
            set_deadlines(self._sock, timeout)
            self._timeout = timeout

    def send(self, msg: WireMessage) -> None:
        self.send_raw(encode(msg))

    def send_raw(self, data: bytes) -> None:
        held = self._held
        if self._ready:
            # a reply waits unread, so a recv that reads the socket is to come
            held += data
            if len(held) >= READ_SIZE:
                self._flush()
        elif held:
            held += data
            self._flush()
        else:
            try:
                self._sock.sendall(data)
            except BlockingIOError as e:
                raise self._expired("send not done") from e

    def _flush(self) -> None:
        """Write the held frames, in order, in one ``sendall``."""
        data, self._held = self._held, bytearray()
        try:
            self._sock.sendall(data)
        except BlockingIOError as e:
            raise self._expired("send not done") from e

    def _expired(self, what: str) -> TimeoutError:
        """Record an expired deadline; the error that reports it."""
        self.timed_out = True
        return TimeoutError(f"{what} within {self._timeout}s")

    def recv(self) -> WireMessage:
        """Read one frame. End of stream raises ``TruncatedError``, at a
        frame boundary or inside one. Lost framing raises ``BadLengthError``
        once the frames ahead of the bad header are read, socket unread."""
        ready, decoder = self._ready, self._decoder
        while not ready:
            if decoder.lost is not None:
                raise BadLengthError(
                    f"declared payload {decoder.lost} exceeds {MAX_PAYLOAD}")
            if self._held:
                self._flush()       # the reply to wait for may answer one
            try:
                data = self._sock.recv(READ_SIZE)
            except BlockingIOError as e:
                raise self._expired("no data") from e
            if not data:
                if decoder.pending:
                    raise TruncatedError("connection closed mid-frame")
                raise TruncatedError("connection closed before a frame arrived")
            ready.extend(decoder.feed(data))
        return decode_payload(*ready.popleft())

    def close(self) -> None:
        """Write any held frames, then close the socket. Neither step
        raises ``OSError``: a peer that is gone can take no more frames."""
        try:
            if self._held:
                self._flush()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "FrameStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
