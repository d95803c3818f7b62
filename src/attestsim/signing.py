"""The isolated signing process and its register-level protocols.

Two IPC protocols terminate here, both speaking 64-bit big-endian register
words:

Boot transfer (the whole map in one message of 1 + 5n registers):
    MR0 = entry count n, then each entry as its pid followed by its
    measurement digest as four words. Reply: MR0 = 0 once the map is
    installed; MR0 = 1 for a message that is not from boot authority or
    whose length disagrees with MR0, after which the signer keeps waiting.

Attestation request (exactly 8 registers):
    MR0..MR3 = 32-byte challenge, MR4..MR7 = 32-byte requester public key.
    Reply: MR0 = status, then the token words when status is 0.

The requesting process is identified by the badge the kernel stamped on
the message. Nothing in the payload can influence which measurement gets
signed.
"""

from __future__ import annotations

import struct
from typing import Generator, Iterable, Optional

from .crypto import CHAL_LEN, SignKey, attest_token, sha256
from .kernel import BOOT_BADGE, ProcessApi, Recv

REQUEST_LEN = 8               # registers in a well-formed signing request
ENTRY_LEN = 5                 # registers per map entry in the boot transfer
FIRST_BADGE = 1               # user badges count up from here, in spawn order

STATUS_OK = 0
STATUS_UNKNOWN_BADGE = 1
STATUS_MALFORMED = 3

# WORDS[n] is the big-endian layout of n 64-bit words, for n up to the 8 of
# a request or of an Ed25519 signature
WORDS = tuple(struct.Struct(f">{n}Q") for n in range(REQUEST_LEN + 1))
_REQUEST = WORDS[REQUEST_LEN]     # MR0..MR7 as the 64 request bytes
_DIGEST = WORDS[ENTRY_LEN - 1]    # a map entry's four digest words


class SigningError(Exception):
    pass


class FrozenMeasurementMap:
    """The signer's post-boot view of measurements: lookup only.

    There is no mutation method on this type at all; the boot pipeline
    hands over every entry at once, read in one pass, in transfer order.
    """

    __slots__ = ("_entries", "_index")

    def __init__(self, entries: Iterable[tuple[int, bytes]]):
        index: dict[int, bytes] = {}
        for pid, digest in entries:
            if len(digest) != 32:
                raise SigningError(f"pid {pid}: digest must be 32 bytes")
            if pid in index:
                raise SigningError(f"duplicate pid {pid} in transfer")
            index[pid] = bytes(digest)
        self._entries = tuple(index.items())
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
    """Everything the signing process owns: key and measurements. Badge
    ``FIRST_BADGE + i`` names map entry ``i``: boot mints badges and
    transfers entries in the same spawn order.

    Installed exactly once when the boot transfer completes and bitwise
    invariant afterwards; ``snapshot()`` digests the canonical
    serialization so invariance can be audited without copying the key
    out.
    """

    __slots__ = ("sign_key", "mmap")

    def __init__(self, sign_key: SignKey):
        self.sign_key = sign_key
        self.mmap: Optional[FrozenMeasurementMap] = None

    @property
    def installed(self) -> bool:
        return self.mmap is not None

    def install(self, entries: list[tuple[int, bytes]]) -> None:
        if self.installed:
            raise SigningError("signer state is already installed")
        self.mmap = FrozenMeasurementMap(entries)

    def snapshot(self) -> bytes:
        if self.mmap is None:
            raise SigningError("signer state not installed yet")
        return sha256(b"mmap:" + self.mmap.serialize() + b"key:"
                      + self.sign_key.mode.value.encode("ascii")
                      + self.sign_key.secret_bytes())


def handle_request(state: SpState, badge: int, msg_len: int,
                   regs: list[int]) -> tuple[int, list[int]]:
    """Total request handler: always returns (status, reply registers).

    ``regs`` holds the ``msg_len`` registers the request carried; a
    request is exactly ``REQUEST_LEN`` of them. Whatever arrives, the
    caller gets an answer; errors are statuses, not exceptions. The
    identity that gets attested comes from ``badge`` alone.
    """
    if msg_len != REQUEST_LEN or len(regs) != REQUEST_LEN:
        return STATUS_MALFORMED, [STATUS_MALFORMED]
    assert state.mmap is not None
    entries = state.mmap.entries()
    if not FIRST_BADGE <= badge < FIRST_BADGE + len(entries):
        return STATUS_UNKNOWN_BADGE, [STATUS_UNKNOWN_BADGE]
    raw = _REQUEST.pack(*regs)
    sig = attest_token(state.sign_key, raw[:CHAL_LEN], raw[CHAL_LEN:],
                       entries[badge - FIRST_BADGE][1])
    return STATUS_OK, [STATUS_OK, *WORDS[len(sig) // 8].unpack(sig)]


def signing_program(state: SpState, boot_cap: int, attest_cap: int):
    """Build the SP program: take the measurement map, then serve forever.

    Phase 1 waits on ``boot_cap`` for one boot-authority message carrying
    the whole map (``MR0`` entries of ``ENTRY_LEN`` registers each),
    installs the frozen state and only then acks with MR0 = 0; any other
    message is nacked with MR0 = 1 and ignored. Phase 2 is the
    listen/sign/reply loop on ``attest_cap``; it never exits and never
    lets a request go unanswered.
    """

    def program(ctx: ProcessApi) -> Generator:
        get_mr, set_mr, reply = ctx.get_mr, ctx.set_mr, ctx.reply
        recv_boot = Recv(boot_cap)
        while True:
            badge, msg_len = yield recv_boot
            # only boot-time authority may feed the map, and all of it at once
            if (badge == BOOT_BADGE and msg_len >= 1
                    and msg_len == 1 + ENTRY_LEN * get_mr(0)):
                break
            set_mr(0, 1)
            reply(1)
        words = [get_mr(i) for i in range(1, msg_len)]
        state.install([(words[i], _DIGEST.pack(*words[i + 1:i + ENTRY_LEN]))
                       for i in range(0, len(words), ENTRY_LEN)])
        set_mr(0, 0)
        reply(1)
        recv_attest = Recv(attest_cap)
        while True:
            # the kernel caps msg_len at MSG_MAX_LENGTH registers
            badge, msg_len = yield recv_attest
            _, answer = handle_request(state, badge, msg_len,
                                       list(map(get_mr, range(msg_len))))
            for i, word in enumerate(answer):
                set_mr(i, word)
            reply(len(answer))

    return program
