"""Long-lived state stays bounded over many in-process attestation rounds:
the kernel's trace ring, its queues, and the verifier's nonce ledger, also
after a fault in the signer."""

from __future__ import annotations

import logging

import pytest

import attestsim.signing as signing
from attestsim.boot import SP_PID, ProcessSpec, bring_up, image_manifest
from attestsim.crypto import SignKey, SignMode
from attestsim.kernel import TRACE_LEN, ProcState
from attestsim.prover import DeviceFaultError, ProverRuntime
from attestsim.userland import make_relay_program
from attestsim.verifier import DevicePolicy, Policy, Verifier

ROUNDS = 20_000
TTL_ROUNDS = 49         # a challenge outlives 49 ticks of the fake clock
SKIP_EVERY = 10         # every 10th challenge is issued and never answered


def _queues(kernel):
    """Everything that could pile up between rounds."""
    return ({eid: (tuple(ep.send_queue), tuple(ep.recv_queue))
             for eid, ep in kernel._endpoints.items()},
            sum(len(rec.net_inbox) for rec in kernel._procs.values()),
            sum(len(rec.outbox) for rec in kernel._procs.values()),
            len(kernel._ready))


def test_state_stays_bounded_over_many_rounds():
    specs = [ProcessSpec(pid=pid, binary=bytes([pid]) * 256) for pid in (1, 2)]
    key = SignKey(SignMode.HMAC, bytes(range(32)))
    runtime = ProverRuntime(bring_up(image_manifest(), specs, key,
                                     make_relay_program))
    kernel = runtime.kernel
    golden = {pid: runtime.sp_state.mmap.lookup(pid) for pid in (1, 2)}
    now = [0.0]
    verifier = Verifier(Policy({"d": DevicePolicy("d", key.verify_key(), golden)}),
                        ttl=float(TTL_ROUNDS), clock=lambda: now[0])
    # between rounds only the signer waits, parked on its attest endpoint
    idle = _queues(kernel)
    assert sorted(idle[0].values()) == [((), ()), ((), (SP_PID,))]
    assert idle[1:] == (0, 0, 0)

    for r in range(ROUNDS):
        now[0] = float(r)
        chal = verifier.new_challenge()
        if r % SKIP_EVERY != SKIP_EVERY - 1:
            pid = 1 + r % 2
            verifier.check_response("d", pid, chal, runtime.attest_once(pid, chal))
        assert _queues(kernel) == idle
        # live: the unanswered challenges of the last TTL_ROUNDS + 1 ticks
        assert len(verifier.ledger) == min((TTL_ROUNDS + 1) // SKIP_EVERY,
                                           (r + 1) // SKIP_EVERY)

    assert len(kernel.trace) == TRACE_LEN


def test_signer_fault_stops_the_device_and_nothing_piles_up(monkeypatch, caplog):
    """One fault in the signer leaves the relay that called it blocked for
    good (the kernel's rendezvous rule). The runtime fails stop: every later
    request on every pid is refused before it reaches the kernel, so no
    relay's inbox grows, and the fault is logged once."""
    specs = [ProcessSpec(pid=pid, binary=bytes([pid]) * 256) for pid in (1, 2)]
    runtime = ProverRuntime(bring_up(image_manifest(), specs,
                                     SignKey(SignMode.HMAC, bytes(range(32))),
                                     make_relay_program))
    kernel = runtime.kernel
    inner = signing.handle_request
    faults = iter([RuntimeError("signer fault")])

    def faulty(*args):
        fault = next(faults, None)
        if fault is not None:
            raise fault
        return inner(*args)

    monkeypatch.setattr(signing, "handle_request", faulty)
    caplog.set_level(logging.INFO, logger="attestsim.prover")
    with pytest.raises(RuntimeError, match="signer fault"):
        runtime.attest_once(1, bytes(32))
    assert kernel.process_state(SP_PID) is ProcState.TERMINATED
    assert kernel.process_state(1) is ProcState.BLOCKED_CALL
    trace_len = len(kernel.trace)
    for r in range(1000):
        for pid in (1, 2):
            with pytest.raises(DeviceFaultError):
                runtime.attest_once(pid, r.to_bytes(32, "big"))
    assert _queues(kernel)[1:] == (0, 0, 0)
    assert len(kernel.trace) == trace_len
    faults_logged = [r.getMessage() for r in caplog.records
                     if r.getMessage().startswith("phase=fault")]
    assert faults_logged == [
        f"phase=fault pid={SP_PID} error=RuntimeError('signer fault')"]
