"""A fixed speed probe, run between rounds, that puts timings on one scale.

On a shared host the same code runs up to twice as fast at one moment as
at another: other tenants share the physical core and its caches, and
their load changes within seconds and lasts from seconds to tens of
minutes. A wall-clock figure then reports the neighbours as much as the
program. The load generator therefore runs ``SpeedProbe`` every
``EVERY_NS`` between rounds, on the CPU the daemon shares with it. The
probe is the same work in every run and never touches attestsim. Its
thread CPU time says how fast the CPU is at that moment.

``scale`` turns a timing into reference time: the time it would have
taken on a CPU on which the probe takes ``REF_NS``. On a 2-vCPU cloud VM
the probe took 0.45-0.9 ms, and the probe's time and the rounds' time
rose together. Across 1 s slices of attest-hmac-serial the standard
deviation of log(round p50) was 0.17; that of log(round p50 / probe) was
0.05.
"""

from __future__ import annotations

import hashlib
import hmac
import socket
import statistics
import struct
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

REF_NS = 500_000        # the probe's thread CPU time on the reference CPU
EVERY_NS = 20_000_000   # how often the load generator runs the probe

_BLOCK = bytes(4096)
_KEY = bytes(range(32))


class SpeedProbe:
    """The probe mixes the kinds of work a round does: interpreter work,
    socket system calls, C hashing and an Ed25519 signature and check.
    It uses its own socket pair and key; ``close`` releases the pair."""

    def __init__(self) -> None:
        self._tx, self._rx = socket.socketpair()
        self._sk = Ed25519PrivateKey.from_private_bytes(_KEY)
        self._pk = self._sk.public_key()

    def __call__(self) -> int:
        """Thread CPU time of one probe, in ns."""
        t0 = time.thread_time_ns()
        acc, table = 0, {}
        for i in range(100):
            b = struct.pack(">IQ", i, acc & 0xFFFFFFFF)
            table[i & 15] = b
            acc += len(b) + struct.unpack(">IQ", b)[0]
            acc ^= hash(b[2:])
        for _ in range(20):
            self._tx.send(_KEY + _KEY[:16])
            self._rx.recv(64)
        for _ in range(5):
            hashlib.sha256(_BLOCK).digest()
        for _ in range(20):
            hmac.digest(_KEY, _BLOCK[:64], "sha256")
        self._pk.verify(self._sk.sign(_BLOCK[:64]), _BLOCK[:64])
        return time.thread_time_ns() - t0

    def median(self, n: int = 5) -> float:
        return statistics.median(self() for _ in range(n))

    def close(self) -> None:
        self._tx.close()
        self._rx.close()


def scale(probe_ns: float) -> float:
    """Factor from a time measured while the probe took ``probe_ns`` to
    reference time; divide a rate by it."""
    return REF_NS / probe_ns
