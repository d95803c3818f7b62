"""Load generator loops: closed loops over the public verifier/wire API.

Each loop checks every verdict against what the benchmark itself knows
(the SHA-256 of the binaries it wrote, which pids the device runs) and
records timings in a ``Tally``. Only rounds whose verdict lands inside
the measurement window count toward latency and throughput; every
verdict, in or out of the window, counts toward ``attempted`` and
``failed``.
"""

from __future__ import annotations

import socket
import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from attestsim.verifier import (
    AttestFailure,
    ProverError,
    ReplayDetectedError,
    Verifier,
)
from attestsim.wire import ERR_UNKNOWN_PID, AttestRequest, AttestResponse, FrameStream
import attestsim.crypto
import attestsim.verifier
import attestsim.wire
import speed
from spans import RID, VALUE, Tracer, clock

DEVICE = "dev0"
PIPELINE_DEPTH = 32
BULK_BATCH = 50             # bulk auditor reconnects after this many rounds
BULK_SWEEP = range(1, 17)   # pids the bulk auditor probes, in order


@dataclass
class Tally:
    attest: list[tuple[int, int]] = field(default_factory=list)   # accepted (t0, t1)
    refused: list[int] = field(default_factory=list)              # expected refusals, t1
    sessions: list[tuple[int, int]] = field(default_factory=list)
    connects: list[tuple[int, int]] = field(default_factory=list)  # (local port, t)
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    bulk_rounds: int = 0

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failures[why] += 1

    def merge(self, other: "Tally") -> None:
        self.attest += other.attest
        self.refused += other.refused
        self.sessions += other.sessions
        self.connects += other.connects
        self.attempted += other.attempted
        self.failures += other.failures
        self.bulk_rounds += other.bulk_rounds


class Window:
    """Warm-up, then ``seconds`` of measurement. The thread that calls
    ``done`` takes ``snapshot`` at both edges, and once when the loop has
    done ``mark_rounds`` rounds, which is a point of equal work in every
    run whatever its speed. Between rounds it also runs ``probe`` every
    ``speed.EVERY_NS`` and keeps (time, probe ns) in ``probes``."""

    def __init__(self, warmup_s: float, seconds: float,
                 snapshot: Callable[[], dict], mark_rounds: int,
                 probe: Callable[[], int]):
        self.start = clock() + int(warmup_s * 1e9)
        self.end = self.start + int(seconds * 1e9)
        self._snapshot = snapshot
        self._mark_rounds = mark_rounds
        self._probe = probe
        self._next_probe = 0
        self.probes: list[tuple[int, int]] = []
        self.edges: dict[str, dict] = {}

    def done(self, rounds: int) -> bool:
        now = clock()
        if now >= self._next_probe:
            self.probes.append((now, self._probe()))
            now = clock()
            self._next_probe = now + speed.EVERY_NS
        if rounds >= self._mark_rounds and "mark" not in self.edges:
            self.edges["mark"] = self._snapshot()
        if now >= self.start and "start" not in self.edges:
            self.edges["start"] = self._snapshot()
        if now < self.end:
            return False
        if "end" not in self.edges:
            self.edges["end"] = self._snapshot()
        return True


@dataclass
class Context:
    verifier: Verifier
    address: tuple[str, int]
    up_pids: list[int]
    expected: dict[int, bytes]      # pid -> SHA-256 of the binary written
    window: Window
    tracer: Optional[Tracer] = None

    def connect(self, tally: Tally) -> FrameStream:
        t = clock()
        sock = socket.create_connection(self.address, timeout=self.verifier.timeout)
        tally.connects.append((sock.getsockname()[1], t))
        return FrameStream(sock)

    def accept(self, tally: Tally, pid: int, result, t0: int) -> None:
        """Count an accepted round; its measurement must be the benchmark's
        own SHA-256 of the binary it wrote for ``pid``."""
        tally.attempted += 1
        if result.pid != pid or result.measurement != self.expected[pid]:
            tally.failures["measurement"] += 1
            return
        tally.attest.append((t0, clock()))


def trace_verifier(tr: Tracer) -> None:
    """Spans around the verifier side's calls into attestsim."""
    verifier, wire = attestsim.verifier, attestsim.wire

    def round_of_challenge(args, result, rec, st):
        st.rid = rec[RID] = result[:8].hex()
        rec[VALUE] = len(args[0].ledger)    # outstanding after this issue

    tr.wrap(verifier.Verifier, "attest", "verifier.attest")
    tr.wrap(verifier.Verifier, "new_challenge", "verifier.new_challenge",
            round_of_challenge)
    tr.wrap(verifier.Verifier, "check_response", "verifier.check_response")
    tr.wrap(verifier.Verifier, "establish_channel", "verifier.establish_channel")
    tr.wrap(verifier, "verify_token", "crypto.verify_token")
    tr.wrap(attestsim.crypto, "ct_equal", "crypto.ct_equal")   # inside verify_token
    tr.wrap(verifier, "ct_equal", "crypto.ct_equal")           # confirm-token check
    tr.wrap(verifier, "derive_session_key", "crypto.derive_session_key")
    tr.wrap(verifier, "seal", "crypto.seal")
    tr.wrap(verifier, "open_sealed", "crypto.open_sealed")
    tr.wrap(wire, "encode", "wire.encode")
    tr.wrap(wire, "decode_payload", "wire.decode")


def replay_check(ctx: Context, stream: FrameStream, tally: Tally) -> None:
    """Re-present an accepted response: it must raise ReplayDetectedError."""
    verifier, pid = ctx.verifier, ctx.up_pids[0]
    chal = verifier.new_challenge()
    stream.send(AttestRequest(pid=pid, chal=chal))
    resp = stream.recv()
    if not isinstance(resp, AttestResponse):
        tally.fail(f"replay-check:reply {type(resp).__name__}")
        return
    try:
        verifier.check_response(DEVICE, pid, chal, resp)
        verifier.check_response(DEVICE, pid, chal, resp)
    except ReplayDetectedError:
        tally.attempted += 1
        return
    except AttestFailure as e:
        tally.fail(f"replay-check:{type(e).__name__}")
        return
    tally.fail("replay-check:accepted twice")


def attest_serial(ctx: Context) -> Tally:
    """One connection, one round in flight, round-robin over the pids."""
    tally, verifier, pids = Tally(), ctx.verifier, ctx.up_pids
    with ctx.connect(tally) as stream:
        i = 0
        while not ctx.window.done(len(tally.attest)):
            pid = pids[i % len(pids)]
            i += 1
            t0 = clock()
            try:
                result = verifier.attest(DEVICE, pid, stream)
            except AttestFailure as e:
                tally.fail(type(e).__name__)
                continue
            ctx.accept(tally, pid, result, t0)
        replay_check(ctx, stream, tally)
    return tally


def attest_pipelined(ctx: Context) -> Tally:
    """One connection, PIPELINE_DEPTH rounds in flight; a verdict frees a
    slot for the next challenge."""
    tally, verifier, pids, tr = Tally(), ctx.verifier, ctx.up_pids, ctx.tracer
    with ctx.connect(tally) as stream:
        stream.settimeout(verifier.timeout)
        inflight: deque = deque()
        issued = 0

        def issue() -> None:
            nonlocal issued
            pid = pids[issued % len(pids)]
            issued += 1
            t0 = clock()
            chal = verifier.new_challenge()
            stream.send(AttestRequest(pid=pid, chal=chal))
            inflight.append((t0, pid, chal))

        for _ in range(PIPELINE_DEPTH):
            issue()
        while inflight:
            t0, pid, chal = inflight.popleft()
            if tr is not None:
                tr.set_round(chal[:8].hex())
            resp = stream.recv()
            if not isinstance(resp, AttestResponse):
                tally.fail(f"reply:{type(resp).__name__}")
            else:
                try:
                    result = verifier.check_response(DEVICE, pid, chal, resp)
                except AttestFailure as e:
                    tally.fail(type(e).__name__)
                else:
                    ctx.accept(tally, pid, result, t0)
            if not ctx.window.done(len(tally.attest)):
                issue()
        replay_check(ctx, stream, tally)
    return tally


def _bulk_auditor(ctx: Context) -> Tally:
    """Sweeps BULK_SWEEP round-robin, reconnecting every BULK_BATCH rounds,
    and stops on a whole sweep so refusals are an exact share of rounds."""
    tally, verifier, up = Tally(), ctx.verifier, set(ctx.up_pids)
    finished = False
    while not finished:
        with ctx.connect(tally) as stream:
            for _ in range(BULK_BATCH):
                if (ctx.window.done(tally.bulk_rounds)
                        and tally.bulk_rounds % len(BULK_SWEEP) == 0):
                    finished = True
                    break
                pid = BULK_SWEEP[tally.bulk_rounds % len(BULK_SWEEP)]
                tally.bulk_rounds += 1
                t0 = clock()
                try:
                    result = verifier.attest(DEVICE, pid, stream)
                except ProverError as e:
                    if pid in up or e.code != ERR_UNKNOWN_PID:
                        tally.fail(f"ProverError:{e.code}")
                        continue
                    tally.attempted += 1
                    tally.refused.append(clock())
                    continue
                except AttestFailure as e:
                    tally.fail(type(e).__name__)
                    continue
                if pid not in up:
                    tally.fail("absent pid accepted")
                    continue
                ctx.accept(tally, pid, result, t0)
            if finished:
                replay_check(ctx, stream, tally)
    return tally


def _interactive_client(ctx: Context, stop: threading.Event) -> Tally:
    """Short sessions: connect, attest, establish a channel, close."""
    tally, verifier, pids = Tally(), ctx.verifier, ctx.up_pids
    j = 0
    while not stop.is_set() and clock() < ctx.window.end:
        pid = pids[j % len(pids)]
        j += 1
        t0 = clock()
        try:
            with ctx.connect(tally) as stream:
                result = verifier.attest(DEVICE, pid, stream)
                session = verifier.establish_channel(result, stream)
        except AttestFailure as e:
            tally.fail(f"session:{type(e).__name__}")
            continue
        t1 = clock()
        tally.attempted += 1
        if (result.measurement != ctx.expected[pid] or session.pid != pid
                or len(session.key) != 32):
            tally.failures["session:measurement"] += 1
            continue
        tally.sessions.append((t0, t1))
    return tally


def audit_mixed(ctx: Context) -> Tally:
    """Bulk auditor on this thread, interactive client on a second one;
    both share the verifier and so its nonce ledger."""
    stop = threading.Event()
    box: dict = {}

    def interactive() -> None:
        try:
            box["tally"] = _interactive_client(ctx, stop)
        except BaseException as e:      # re-raised on the main thread
            box["error"] = e

    thread = threading.Thread(target=interactive, name="interactive")
    thread.start()
    try:
        tally = _bulk_auditor(ctx)
    finally:
        stop.set()
        thread.join()
    if "error" in box:
        raise box["error"]
    tally.merge(box["tally"])
    return tally
