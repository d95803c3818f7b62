"""Secret independence, checked deterministically on execution traces.

The paper proves that the RA TCB's control flow does not depend on its
secrets. In the simulator control flow can be read exactly: two runs that
differ only in their secrets must execute the same sequence of Python
lines in the TCB modules (``kernel``, ``crypto``, ``signing``, ``boot``)
and leave the same kernel trace. This is the Python analogue of ct-verif
(Almeida, Barbosa, Barthe, Dupressoir, Emmi, "Verifying Constant-Time
Implementations", USENIX Security 2016).

What is compared, in both signing modes:

* a boot under a signing key and ``ROUNDS`` ``attest_once`` rounds, for
  two keys and two challenge sets: the secrets are the key and the
  challenges, while pids, binaries and the round order stay the same;
* ``signing.handle_request`` on its own, under two keys, for the same
  badge and registers;
* ``verify_token`` on a tag wrong in its first byte and on one wrong in
  its last byte;
* the verifier's ``check_response`` under two device keys, on an accepted
  round and on one rejected for a wrong tag: the verdicts must be equal
  too, and its lines are traced in ``verifier`` as well as the TCB.

Each comparison runs after an untraced warm-up, because first calls take
one-off paths (``VerifyKey`` builds its HMAC pads or its pyca key object
on first use). Two mutants show the check is not vacuous: an early-exit
comparator in place of ``crypto.ct_equal`` and a key-dependent branch in
the signer's ``handle_request``. Each is compiled under its module's own
file name, so its lines are inside the traced set.

Scope: ``sys.settrace`` sees Python lines only. The check cannot see into
C code: CPython's builtin SHA-256 (``_sha256``, or HACL*'s ``_sha2`` from
3.12), which hashes the token, the HMAC pads and the measurements;
``hmac.compare_digest``; the pyca ``cryptography`` primitives; and numpy.
Their timing stays the job of the statistical audit in
``attestsim.timing``.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attestsim.boot as boot
import attestsim.crypto as crypto
import attestsim.kernel as kernel
import attestsim.signing as signing
import attestsim.verifier as verifier
from attestsim.boot import ProcessSpec, bring_up, default_anchors
from attestsim.crypto import SignKey, SignMode, attest_token, verify_token
from attestsim.prover import ProverRuntime
from attestsim.signing import FIRST_BADGE, REQUEST_LEN, WORDS, SpState
from attestsim.userland import make_relay_program
from attestsim.verifier import DevicePolicy, Policy, SigInvalidError, Verifier
from attestsim.wire import AttestResponse

TCB = (kernel, crypto, signing, boot)
TCB_FILES = frozenset(module.__file__ for module in TCB)
SPECS = [ProcessSpec(pid=pid, binary=bytes([pid]) * 512) for pid in (1, 2, 3)]
ROUNDS = 20
PK = bytes(range(32))
M = bytes(range(32, 64))
MODES = pytest.mark.parametrize("mode", list(SignMode), ids=lambda m: m.value)

secrets = st.binary(min_size=32, max_size=32)
challenge_sets = st.lists(secrets, min_size=ROUNDS, max_size=ROUNDS)


def traced(fn, files: frozenset = TCB_FILES) -> tuple[list[tuple[str, int]], object]:
    """Run ``fn``; return the ``(file, line)`` of every line it executed in
    ``files`` (the TCB modules' by default), in order, and what ``fn``
    returned."""
    lines: list[tuple[str, int]] = []

    def local(frame, event, arg):
        if event == "line":
            lines.append((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = fn()
    finally:
        sys.settrace(previous)
    return lines, result


def device_run(mode: SignMode, secret: bytes, chals: list[bytes]):
    """Build the key, boot, and attest the pids in turn, one round per
    challenge. Returns the traced lines and the kernel trace."""

    def run():
        key = SignKey(mode, secret)
        runtime = ProverRuntime(
            bring_up(default_anchors(), SPECS, key, make_relay_program))
        for i, chal in enumerate(chals):
            runtime.attest_once(SPECS[i % len(SPECS)].pid, chal)
        return runtime

    lines, runtime = traced(run)
    return lines, list(runtime.kernel.trace)


def wrong_tag_lines(mode: SignMode, secret: bytes) -> tuple[list, list]:
    """``verify_token``'s lines on a tag wrong in its first byte, and on one
    wrong in its last byte."""
    key = SignKey(mode, secret)
    vk = key.verify_key()
    sig = attest_token(key, bytes(32), PK, M)
    verify_token(vk, bytes(32), PK, M, sig)                         # warm-up
    traces = []
    for pos in (0, len(sig) - 1):
        bad = bytearray(sig)
        bad[pos] ^= 1
        token = bytes(bad)
        lines, ok = traced(lambda: verify_token(vk, bytes(32), PK, M, token))
        assert ok is False
        traces.append(lines)
    return traces[0], traces[1]


def handle_request_lines(mode: SignMode, secret: bytes) -> list:
    """``handle_request``'s lines for one fixed badge and request, under
    the key ``secret``."""
    state = SpState(SignKey(mode, secret))
    state.install([(spec.pid, bytes([spec.pid]) * 32) for spec in SPECS])
    regs = list(WORDS[REQUEST_LEN].unpack(M + PK))
    badge = FIRST_BADGE + 1
    signing.handle_request(state, badge, REQUEST_LEN, regs)         # warm-up
    lines, (status, _) = traced(
        lambda: signing.handle_request(state, badge, REQUEST_LEN, regs))
    assert status == signing.STATUS_OK
    return lines


def check_response_run(mode: SignMode, secret: bytes, wrong_tag: bool):
    """One ``check_response`` under the device key ``secret``, after a
    warm-up round of the same kind. Returns its lines and its verdict:
    the accepted result without the key-made tag, or the rejection."""
    key = SignKey(mode, secret)
    dev = DevicePolicy("dev0", key.verify_key(), {1: M})
    chals = iter([bytes(32), bytes([1]) * 32])
    judge = Verifier(Policy({"dev0": dev}), clock=lambda: 0.0,
                     rng=lambda n: next(chals))
    for _ in range(2):
        chal = judge.new_challenge()
        sigma = attest_token(key, chal, PK, M)
        if wrong_tag:
            sigma = bytes([sigma[0] ^ 1]) + sigma[1:]
        resp = AttestResponse(0, 1, PK, sigma)

        def judged():
            try:
                result = judge.check_response("dev0", 1, chal, resp)
            except SigInvalidError as e:
                return type(e).__name__, str(e)
            return result._replace(sigma=b"")

        lines, verdict = traced(judged, TCB_FILES | {verifier.__file__})
    return lines, verdict


def compile_in(module, source: str, name: str, scope: dict):
    """``source``'s function ``name``, compiled as if it were in
    ``module``'s file, so that its lines are traced."""
    exec(compile(source, module.__file__, "exec"), scope)
    return scope[name]


@MODES
@settings(max_examples=10, deadline=None, derandomize=True)
@given(keys=st.lists(secrets, min_size=2, max_size=2, unique=True),
       chals=st.lists(challenge_sets, min_size=2, max_size=2))
def test_device_path_is_secret_independent(mode, keys, chals):
    device_run(mode, bytes(32), [bytes(32)] * ROUNDS)                # warm-up
    lines_a, trace_a = device_run(mode, keys[0], chals[0])
    lines_b, trace_b = device_run(mode, keys[1], chals[1])
    assert {f for f, _ in lines_a} == TCB_FILES     # every TCB module ran
    assert lines_a == lines_b
    assert trace_a == trace_b


@MODES
@settings(max_examples=10, deadline=None, derandomize=True)
@given(keys=st.lists(secrets, min_size=2, max_size=2, unique=True))
def test_handle_request_is_secret_independent(mode, keys):
    lines_a = handle_request_lines(mode, keys[0])
    assert {f for f, _ in lines_a} == {signing.__file__, crypto.__file__}
    assert lines_a == handle_request_lines(mode, keys[1])


@MODES
@pytest.mark.parametrize("wrong_tag", [False, True], ids=["accepted", "wrong-tag"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(keys=st.lists(secrets, min_size=2, max_size=2, unique=True))
def test_check_response_is_secret_independent(mode, wrong_tag, keys):
    lines_a, verdict_a = check_response_run(mode, keys[0], wrong_tag)
    lines_b, verdict_b = check_response_run(mode, keys[1], wrong_tag)
    assert verifier.__file__ in {f for f, _ in lines_a}
    assert verdict_a == verdict_b
    if wrong_tag:
        assert verdict_a == ("SigInvalidError", "token does not verify")
    else:
        assert verdict_a.pid == 1 and verdict_a.measurement == M
    assert lines_a == lines_b


@MODES
def test_verify_token_is_secret_independent(mode):
    first, last = wrong_tag_lines(mode, bytes(range(32)))
    assert first and first == last


def test_early_exit_comparator_is_caught(monkeypatch):
    early_exit = compile_in(crypto, (
        "def ct_equal(a, b):\n"
        "    for x, y in zip(a, b):\n"
        "        if x != y:\n"
        "            return False\n"
        "    return True\n"), "ct_equal", {})
    monkeypatch.setattr(crypto, "ct_equal", early_exit)
    first, last = wrong_tag_lines(SignMode.HMAC, bytes(range(32)))
    assert first != last


@MODES
def test_key_dependent_branch_in_the_signer_is_caught(mode, monkeypatch):
    leaky = compile_in(signing, (
        "def handle_request(state, badge, msg_len, regs):\n"
        "    if state.sign_key.secret_bytes()[0] & 1:\n"
        "        badge = badge\n"
        "    return inner(state, badge, msg_len, regs)\n"),
        "handle_request", {"inner": signing.handle_request})
    monkeypatch.setattr(signing, "handle_request", leaky)
    chals = [bytes(32)] * ROUNDS
    device_run(mode, bytes(32), chals)                               # warm-up
    lines_even, _ = device_run(mode, bytes(32), chals)
    lines_odd, _ = device_run(mode, bytes([1]) + bytes(31), chals)
    assert lines_even != lines_odd
