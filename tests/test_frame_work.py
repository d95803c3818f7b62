"""Work per frame, as counts that repeat exactly. First the calls the
interpreter makes (``sys.settrace`` "call" events, which include every
resume of a generator) for one daemon-side AttestRequest frame and for one
verifier round. Timings on a shared machine swing by tens of percent; this
count does not, so a change that adds a layer or a re-check to the
per-frame path shows here first.

The bounds are the counts of an HMAC round. They include the register
calls of ``ProcessApi``, 26 per round: 8 ``set_mr`` and 8 ``get_mr`` for
the request, then 5 of each for the reply. The token is its signature
bytes on both sides, so neither side builds a token object.

Then the writes of a pipelining verifier: with ``PIPELINE_DEPTH`` rounds
in flight, a ``FrameStream`` sends each window of requests in one write.
"""

from __future__ import annotations

import os
import sys
from collections import deque

import attestsim.prover as prover
from attestsim.prover import ProverServer
from attestsim.verifier import Policy, Verifier
from attestsim.wire import (
    AttestRequest,
    AttestResponse,
    FrameDecoder,
    FrameStream,
    decode_payload,
    encode,
)

DAEMON_FRAME_CALLS = 53     # feed, decode, route (kernel, relay, signer), encode
VERIFIER_ROUND_CALLS = 19   # challenge, send, recv, check_response
PIPELINE_DEPTH = 32         # rounds in flight, as perfbench's pipelined load


def calls_in(fn, *args) -> int:
    """Python calls made while ``fn(*args)`` runs, ``fn`` itself excluded."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += 1          # a global trace function sees only "call" events
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count - 1


def test_daemon_frame_calls(env):
    server = ProverServer(env.config)
    try:
        decoder = FrameDecoder()
        replies = []

        def frame(data: bytes) -> None:
            # what ProverServer.finish_request does with one frame of a read
            for item in decoder.feed(data):
                reply, _ = server._route(prover.decode_payload(*item), None)
                replies.append(prover.encode(reply))

        for pid in (1, 2, 1):
            frame(encode(AttestRequest(pid, os.urandom(32))))
        counts = [calls_in(frame, encode(AttestRequest(pid, os.urandom(32))))
                  for pid in (1, 2)]
    finally:
        server.server_close()
    assert all(r[4] == 0x02 for r in replies)       # every frame was attested
    assert counts[0] == counts[1] <= DAEMON_FRAME_CALLS


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
