"""Work per frame, as counts that repeat exactly. First the calls the
interpreter makes (``sys.settrace`` "call" events, which include every
resume of a generator) for one verifier round and for one daemon-side
AttestRequest frame, to a live pid and to an absent one, fed to
``prover.Connection.receive`` with no socket. Timings on a shared machine
swing by tens of percent; this count does not, so a change that adds a
layer or a re-check to the per-frame path shows here first.

The bounds are the counts of an HMAC round. They include the register
calls of ``ProcessApi``, 26 per round: 8 ``set_mr`` and 8 ``get_mr`` for
the request, then 5 of each for the reply. The token is its signature
bytes on both sides, so neither side builds a token object.

Then the writes of a pipelining verifier: with ``PIPELINE_DEPTH`` rounds
in flight, a ``FrameStream`` sends each window of requests in one write.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import deque

import attestsim.prover as prover
from attestsim.verifier import Policy, Verifier
from attestsim.wire import (
    ERR_UNKNOWN_PID,
    AttestRequest,
    AttestResponse,
    ErrorMsg,
    FrameDecoder,
    FrameStream,
    decode_payload,
    encode,
)

DAEMON_FRAME_CALLS = 53     # feed, decode, route (kernel, relay, signer), encode
ABSENT_PID_FRAME_CALLS = 9  # feed, decode, route, refusal, encode
VERIFIER_ROUND_CALLS = 19   # challenge, send, recv, check_response
PIPELINE_DEPTH = 32         # rounds in flight, as perfbench's pipelined load


def calls_in(fn, *args) -> int:
    """Python calls made while ``fn(*args)`` runs, ``fn`` itself excluded.

    The collector runs first and stays off while counting. A collection
    in the window would count calls that are no work of ``fn``: each
    ``gc.callbacks`` entry (hypothesis installs one) at its start and end,
    and one resume per suspended program of a dead booted kernel it frees.
    """
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += 1          # a global trace function sees only "call" events
        return None

    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return count - 1


def test_a_dead_kernel_adds_no_calls_to_the_window(env):
    """A dead booted kernel is cyclic garbage, and collecting it resumes
    the relays' and the signer's programs to close them. It is collected
    before the window, so a collection forced inside counts no more."""
    baseline = calls_in(lambda: gc.collect())
    prover.build_runtime(env.config)        # dropped at once: a dead kernel
    assert calls_in(lambda: gc.collect()) == baseline


def test_daemon_frame_calls(env):
    conn = prover.Connection(prover.build_runtime(env.config))
    replies = [conn.receive(encode(AttestRequest(pid, os.urandom(32))))
               for pid in (1, 2, 1)]
    counts = [calls_in(conn.receive, encode(AttestRequest(pid, os.urandom(32))))
              for pid in (1, 2)]
    assert all(r[4] == 0x02 for r in replies)       # every frame was attested
    assert counts[0] == counts[1] <= DAEMON_FRAME_CALLS


def test_absent_pid_frame_calls(env):
    """A frame for a pid the device does not hold: refused before the
    kernel runs, so it costs a fraction of an attested frame."""
    conn = prover.Connection(prover.build_runtime(env.config))
    frame = encode(AttestRequest(9, bytes(32)))
    assert conn.receive(frame) == encode(ErrorMsg(ERR_UNKNOWN_PID))
    assert calls_in(conn.receive, frame) <= ABSENT_PID_FRAME_CALLS


def test_verifier_round_calls(env, daemon):
    verifier = Verifier(Policy.load(str(env.policy_path)))
    with FrameStream.connect(*daemon.address, timeout=5.0) as stream:
        verifier.attest("dev0", 1, stream)          # first use parses the key
        counts = [calls_in(verifier.attest, "dev0", pid, stream)
                  for pid in (1, 2)]
    assert counts[0] == counts[1] <= VERIFIER_ROUND_CALLS


class ScriptedDaemon:
    """A socket whose peer answers as the daemon does: each read returns
    the replies to every request written since the last read, in one
    chunk. An AttestResponse echoes the request's pid, and its challenge
    as the tag."""

    def __init__(self):
        self.decoder = FrameDecoder()
        self.replies = bytearray()
        self.sendalls = 0

    def gettimeout(self):
        return None

    def sendall(self, data) -> None:
        self.sendalls += 1
        for item in self.decoder.feed(bytes(data)):
            pid, chal = decode_payload(*item)
            self.replies += encode(AttestResponse(0, pid, bytes(32), chal))

    def recv(self, size: int) -> bytes:
        assert self.replies, "recv would block"
        data = bytes(self.replies[:size])
        del self.replies[:size]
        return data

    def close(self) -> None:
        pass


def test_pipelined_rounds_go_out_a_window_per_write():
    """Once the window is primed (one write per request, as with nothing
    unread), N more rounds with PIPELINE_DEPTH in flight make at most
    N / PIPELINE_DEPTH + 2 writes, and every reply answers its own round."""
    rounds = PIPELINE_DEPTH * 20
    peer = ScriptedDaemon()
    stream = FrameStream(peer)
    inflight: deque = deque()

    def issue(pid: int) -> None:
        chal = os.urandom(32)
        stream.send(AttestRequest(pid, chal))
        inflight.append((pid, chal))

    for pid in range(PIPELINE_DEPTH):
        issue(pid)
    assert peer.sendalls == PIPELINE_DEPTH
    peer.sendalls = 0
    for pid in range(PIPELINE_DEPTH, PIPELINE_DEPTH + rounds):
        expected = inflight.popleft()
        resp = stream.recv()
        assert (resp.pid, resp.sigma) == expected
        issue(pid)
    assert peer.sendalls <= rounds // PIPELINE_DEPTH + 2
