"""Python work per frame, as a count that repeats exactly: the calls the
interpreter makes (``sys.settrace`` "call" events, which include every
resume of a generator) for one daemon-side AttestRequest frame and for one
verifier round. Timings on a shared machine swing by tens of percent; this
count does not, so a change that adds a layer or a re-check to the
per-frame path shows here first.

The bounds are the counts of an HMAC round. They include the register
calls of ``ProcessApi``, 26 per round: 8 ``set_mr`` and 8 ``get_mr`` for
the request, then 5 of each for the reply.
"""

from __future__ import annotations

import os
import sys

import attestsim.prover as prover
from attestsim.prover import ProverServer
from attestsim.verifier import Policy, Verifier
from attestsim.wire import AttestRequest, FrameDecoder, FrameStream, encode

DAEMON_FRAME_CALLS = 54     # feed, decode, route (kernel, relay, signer), encode
VERIFIER_ROUND_CALLS = 20   # challenge, send, recv, check_response


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
