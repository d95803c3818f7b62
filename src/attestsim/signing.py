"""The isolated signing process and its register-level protocols.

Two IPC protocols terminate here, both speaking 64-bit big-endian register
words:

Boot transfer (one entry per message, then a sentinel):
    MR0 = pid, MR1..MR4 = measurement digest as four words.
    Sentinel: single register MR0 = 2**64 - 1. Every message is
    acknowledged with a one-register reply MR0 = 0.

Attestation request (exactly 8 registers):
    MR0..MR3 = 32-byte challenge, MR4..MR7 = 32-byte requester public key.
    Reply: MR0 = status, then the token words when status is 0.

The requesting process is identified by the badge the kernel stamped on
the message. Nothing in the payload can influence which measurement gets
signed.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Generator, Optional

from .crypto import CHAL_LEN, PK_LEN, SignKey, attest_token
from .kernel import BOOT_BADGE, MSG_MAX_LENGTH, ProcessApi, Recv

SENTINEL_PID = 2**64 - 1
REQUEST_LEN = 8               # registers in a well-formed signing request
TRANSFER_LEN = 5              # registers per measurement-transfer message

STATUS_OK = 0
STATUS_UNKNOWN_BADGE = 1
STATUS_PID_NOT_MEASURED = 2
STATUS_MALFORMED = 3

_REQUEST = struct.Struct(">8Q")   # MR0..MR7 as the 64 request bytes


class SigningError(Exception):
    pass


def words_from_bytes_be(data: bytes) -> list[int]:
    """Pack bytes (length a multiple of 8) into big-endian 64-bit words."""
    if len(data) % 8 != 0:
        raise SigningError(f"byte length {len(data)} not word-aligned")
    return list(struct.unpack(f">{len(data) // 8}Q", data))


def bytes_from_words_be(words: list[int]) -> bytes:
    return struct.pack(f">{len(words)}Q", *words)


class FrozenMeasurementMap:
    """The signer's post-boot view of measurements: lookup only.

    There is no mutation method on this type at all; the boot pipeline
    hands over every entry at once. Entries keep transfer order.
    """

    __slots__ = ("_entries", "_index")

    def __init__(self, entries: list[tuple[int, bytes]]):
        index: dict[int, bytes] = {}
        for pid, digest in entries:
            if len(digest) != 32:
                raise SigningError(f"pid {pid}: digest must be 32 bytes")
            if pid in index:
                raise SigningError(f"duplicate pid {pid} in transfer")
            index[pid] = bytes(digest)
        self._entries = tuple((pid, bytes(d)) for pid, d in entries)
        self._index = index

    def lookup(self, pid: int) -> Optional[bytes]:
        return self._index.get(pid)

    def entries(self) -> tuple[tuple[int, bytes], ...]:
        return self._entries

    def serialize(self) -> bytes:
        out = bytearray(struct.pack(">Q", len(self._entries)))
        for pid, digest in self._entries:
            out += struct.pack(">Q", pid) + digest
        return bytes(out)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pid: int) -> bool:
        return pid in self._index


class SpState:
    """Everything the signing process owns: key, measurements, badge map.

    Installed exactly once when the boot transfer completes and bitwise
    invariant afterwards; ``snapshot()`` digests the canonical
    serialization so invariance can be audited without copying the key
    out.
    """

    __slots__ = ("sign_key", "mmap", "badge_to_pid")

    def __init__(self, sign_key: SignKey):
        self.sign_key = sign_key
        self.mmap: Optional[FrozenMeasurementMap] = None
        self.badge_to_pid: Optional[dict[int, int]] = None

    @property
    def installed(self) -> bool:
        return self.mmap is not None

    def install(self, entries: list[tuple[int, bytes]]) -> None:
        if self.installed:
            raise SigningError("signer state is already installed")
        self.mmap = FrozenMeasurementMap(entries)
        # badges were assigned from a counter in spawn order, which is
        # exactly the transfer order
        self.badge_to_pid = {i + 1: pid for i, (pid, _) in enumerate(entries)}

    def snapshot(self) -> bytes:
        if not self.installed:
            raise SigningError("signer state not installed yet")
        assert self.mmap is not None and self.badge_to_pid is not None
        h = hashlib.sha256()
        h.update(b"mmap:")
        h.update(self.mmap.serialize())
        h.update(b"key:")
        h.update(self.sign_key.mode.value.encode("ascii"))
        h.update(self.sign_key.secret_bytes())
        h.update(b"badges:")
        for badge in sorted(self.badge_to_pid):
            h.update(struct.pack(">QQ", badge, self.badge_to_pid[badge]))
        return h.digest()


def decode_request(regs: list[int]) -> tuple[bytes, bytes]:
    """Split a validated 8-register request into (chal, pk)."""
    if len(regs) != REQUEST_LEN:
        raise SigningError(f"expected {REQUEST_LEN} registers, got {len(regs)}")
    raw = _REQUEST.pack(*regs)
    return raw[:CHAL_LEN], raw[CHAL_LEN:CHAL_LEN + PK_LEN]


def handle_request(state: SpState, badge: int, msg_len: int,
                   regs: list[int]) -> tuple[int, list[int]]:
    """Total request handler: always returns (status, reply registers).

    Whatever arrives, the caller gets an answer; errors are statuses, not
    exceptions. The identity that gets attested comes from ``badge``
    alone.
    """
    if msg_len != REQUEST_LEN or len(regs) < REQUEST_LEN:
        return STATUS_MALFORMED, [STATUS_MALFORMED]
    assert state.badge_to_pid is not None and state.mmap is not None
    pid = state.badge_to_pid.get(badge)
    if pid is None:
        return STATUS_UNKNOWN_BADGE, [STATUS_UNKNOWN_BADGE]
    m = state.mmap.lookup(pid)
    if m is None:
        return STATUS_PID_NOT_MEASURED, [STATUS_PID_NOT_MEASURED]
    chal, pk = decode_request(regs[:REQUEST_LEN])
    token = attest_token(state.sign_key, chal, pk, m)
    return STATUS_OK, [STATUS_OK] + words_from_bytes_be(token.sig)


def signing_program(state: SpState, boot_cap: int, attest_cap: int):
    """Build the SP program: collect measurements, then serve forever.

    Phase 1 receives transfer messages on ``boot_cap`` until the sentinel,
    acking each, and installs the frozen state. Phase 2 is the
    listen/sign/reply loop on ``attest_cap``; it never exits and never
    lets a request go unanswered.
    """

    def program(ctx: ProcessApi) -> Generator:
        entries: list[tuple[int, bytes]] = []
        recv_boot = Recv(boot_cap)
        while True:
            badge, msg_len = yield recv_boot
            if badge != BOOT_BADGE:
                # only boot-time authority may feed the map; nack and drop
                ctx.set_mr(0, 1)
                ctx.reply(1)
                continue
            first = ctx.get_mr(0)
            if msg_len == 1 and first == SENTINEL_PID:
                ctx.set_mr(0, 0)
                ctx.reply(1)
                break
            if msg_len != TRANSFER_LEN:
                ctx.set_mr(0, 1)
                ctx.reply(1)
                continue
            digest = bytes_from_words_be([ctx.get_mr(i) for i in range(1, 5)])
            entries.append((first, digest))
            ctx.set_mr(0, 0)
            ctx.reply(1)
        state.install(entries)
        recv_attest = Recv(attest_cap)
        get_mr, set_mr = ctx.get_mr, ctx.set_mr
        while True:
            badge, msg_len = yield recv_attest
            regs = [get_mr(i) for i in range(min(msg_len, MSG_MAX_LENGTH))]
            status, reply = handle_request(state, badge, msg_len, regs)
            for i, word in enumerate(reply):
                set_mr(i, word)
            ctx.reply(len(reply))

    return program
