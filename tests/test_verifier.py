"""Verifier policy, challenge ledger, judgement order, channel, CLI."""

from __future__ import annotations

import hashlib
import json
import socket
import threading

import pytest

import attestsim.verifier as verifier_module
from attestsim.channel import CHANNEL_AD_CONFIRM, CHANNEL_AD_INIT, open_sealed, seal
from attestsim.crypto import SignKey, SignMode, attest_token, measure_binary
from attestsim.verifier import (
    AttestFailure,
    AttestResult,
    AttestTimeoutError,
    DevicePolicy,
    LedgerFullError,
    NonceLedger,
    PinMismatchError,
    Policy,
    PolicyError,
    ProverError,
    ReplayDetectedError,
    SigInvalidError,
    StaleChallengeError,
    Verifier,
    main as verifier_main,
)
from attestsim.wire import (
    AttestResponse,
    BadLengthError,
    ChannelConfirm,
    ErrorMsg,
    FrameStream,
)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_policy(sign_key: SignKey, up_specs) -> Policy:
    golden = {spec.pid: measure_binary(spec.binary) for spec in up_specs}
    dev = DevicePolicy(device_id="dev0", vk=sign_key.verify_key(), golden=golden)
    return Policy(devices={"dev0": dev})


def craft_response(key: SignKey, chal: bytes, pk: bytes, m: bytes,
                   pid: int) -> AttestResponse:
    return AttestResponse(status=0, pid=pid, pk=pk,
                          sigma=attest_token(key, chal, pk, m))


# --- policy files ---------------------------------------------------------

class TestPolicyLoad:
    def _write(self, tmp_path, entry):
        (tmp_path / "bin").mkdir(exist_ok=True)
        (tmp_path / "bin" / "one.bin").write_bytes(b"\x01" * 64)
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"devices": {"dev0": entry}}))
        return str(path)

    def _entry(self, **overrides):
        entry = {
            "mode": "hmac",
            "verify_key": "aa" * 32,
            "golden": {"1": "bin/one.bin"},
        }
        entry.update(overrides)
        return entry

    def test_golden_recomputed_from_binary(self, tmp_path):
        policy = Policy.load(self._write(tmp_path, self._entry()))
        dev = policy.device("dev0")
        assert dev.golden[1] == hashlib.sha256(b"\x01" * 64).digest()
        assert dev.vk.material == b"\xaa" * 32
        assert dev.address is None
        assert dev.pin_pk is False

    def test_address_and_pin_parsed(self, tmp_path):
        path = self._write(
            tmp_path, self._entry(address="127.0.0.1:7411", pin_pk=True))
        dev = Policy.load(path).device("dev0")
        assert dev.address == ("127.0.0.1", 7411)
        assert dev.pin_pk is True

    def test_absolute_golden_path(self, tmp_path):
        binary = tmp_path / "elsewhere.bin"
        binary.write_bytes(b"\x02" * 10)
        path = self._write(tmp_path, self._entry(golden={"4": str(binary)}))
        dev = Policy.load(path).device("dev0")
        assert dev.golden == {4: hashlib.sha256(b"\x02" * 10).digest()}

    @pytest.mark.parametrize("entry", [
        {"verify_key": "aa" * 32, "golden": {"1": "bin/one.bin"}},
        {"mode": "rot13", "verify_key": "aa" * 32, "golden": {"1": "bin/one.bin"}},
        {"mode": "hmac", "verify_key": "xx", "golden": {"1": "bin/one.bin"}},
        {"mode": "hmac", "verify_key": "aa" * 32},
        {"mode": "hmac", "verify_key": "aa" * 32, "golden": {}},
        {"mode": "hmac", "verify_key": "aa" * 32, "golden": {"one": "bin/one.bin"}},
        {"mode": "hmac", "verify_key": "aa" * 32, "golden": {"1": "bin/one.bin"},
         "address": "no-port"},
        {"mode": "hmac", "verify_key": "aa" * 32, "golden": {"1": "bin/one.bin"},
         "pin_pk": "false"},
    ], ids=["no-mode", "bad-mode", "bad-vk-hex", "no-golden", "empty-golden",
            "non-int-pid", "bad-address", "pin-pk-not-a-bool"])
    def test_malformed_entries(self, tmp_path, entry):
        with pytest.raises(PolicyError):
            Policy.load(self._write(tmp_path, entry))

    @pytest.mark.parametrize("entry", [
        {"mode": "hmac", "verify_key": 7, "golden": {"1": "bin/one.bin"}},
        {"mode": "hmac", "verify_key": "aa" * 31, "golden": {"1": "bin/one.bin"}},
        {"mode": "hmac", "verify_key": "aa" * 32, "golden": {"1": ["bin/one.bin"]}},
    ], ids=["vk-not-a-string", "vk-short", "golden-path-not-a-string"])
    def test_mistyped_fields_are_policy_errors(self, tmp_path, entry):
        with pytest.raises(PolicyError):
            Policy.load(self._write(tmp_path, entry))

    @pytest.mark.parametrize("blob", [b"{\"devices\": ", b"\xff\xfe{}"],
                             ids=["truncated-json", "not-utf8"])
    def test_unparsable_file_is_a_policy_error(self, tmp_path, blob):
        path = tmp_path / "policy.json"
        path.write_bytes(blob)
        with pytest.raises(PolicyError):
            Policy.load(str(path))

    def test_top_level_must_hold_devices(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(["not", "an", "object"]))
        with pytest.raises(PolicyError):
            Policy.load(str(path))

    def test_missing_golden_binary(self, tmp_path):
        path = self._write(tmp_path, self._entry(golden={"1": "bin/absent.bin"}))
        with pytest.raises(OSError):
            Policy.load(path)

    def test_empty_golden_binary_is_a_policy_error(self, tmp_path):
        (tmp_path / "empty.bin").write_bytes(b"")
        path = self._write(tmp_path, self._entry(golden={"7": "empty.bin"}))
        with pytest.raises(PolicyError, match="dev0.*pid 7"):
            Policy.load(path)

    def test_unknown_device(self, tmp_path):
        policy = Policy.load(self._write(tmp_path, self._entry()))
        with pytest.raises(PolicyError):
            policy.device("dev9")


# --- nonce ledger ---------------------------------------------------------

class TestNonceLedger:
    def test_issue_then_consume_is_fresh(self):
        clock = FakeClock()
        ledger = NonceLedger(ttl=30.0, clock=clock)
        ledger.issue(b"a" * 32)
        assert ledger.consume(b"a" * 32) == "fresh"

    def test_second_consume_is_unknown(self):
        ledger = NonceLedger(clock=FakeClock())
        ledger.issue(b"a" * 32)
        ledger.consume(b"a" * 32)
        assert ledger.consume(b"a" * 32) == "unknown"

    def test_never_issued_is_unknown(self):
        assert NonceLedger(clock=FakeClock()).consume(b"z" * 32) == "unknown"

    def test_expiry(self):
        clock = FakeClock()
        ledger = NonceLedger(ttl=30.0, clock=clock)
        ledger.issue(b"a" * 32)
        clock.advance(30.1)
        assert ledger.consume(b"a" * 32) == "expired"

    def test_boundary_is_still_fresh(self):
        clock = FakeClock()
        ledger = NonceLedger(ttl=30.0, clock=clock)
        ledger.issue(b"a" * 32)
        clock.advance(30.0)
        assert ledger.consume(b"a" * 32) == "fresh"

    def test_issue_purges_expired_entries(self):
        clock = FakeClock()
        ledger = NonceLedger(ttl=30.0, clock=clock)
        for i in range(50):
            ledger.issue(i.to_bytes(32, "big"))
        clock.advance(31.0)
        ledger.issue(b"n" * 32)
        assert len(ledger) == 1

    def test_purge_removes_exactly_the_expired(self):
        clock = FakeClock()
        ledger = NonceLedger(ttl=30.0, clock=clock)
        a, b, c, d, e, f = (bytes([i]) * 32 for i in range(6))
        for chal in (a, b, c, d):           # issued at t = 0, 5, 10, 15
            ledger.issue(chal)
            clock.advance(5.0)
        assert ledger.consume(b) == "fresh"
        ledger.issue(a)                     # re-issued at t = 20
        clock.advance(5.0)
        ledger.issue(e)                     # t = 25
        clock.advance(20.0)
        ledger.issue(f)                     # t = 45: cutoff 15 expires c only
        assert len(ledger) == 4
        assert ledger.consume(c) == "unknown"
        for chal in (d, a, e, f):           # d sits exactly on the cutoff
            assert ledger.consume(chal) == "fresh"
        assert len(ledger) == 0

    def test_cap_refuses_new_challenges_until_room_frees(self, monkeypatch):
        monkeypatch.setattr(verifier_module, "MAX_OUTSTANDING", 3)
        clock = FakeClock()
        ledger = NonceLedger(ttl=30.0, clock=clock)
        a, b, c, d, e = (bytes([i]) * 32 for i in range(5))
        for chal in (a, b, c):
            ledger.issue(chal)
            clock.advance(1.0)
        with pytest.raises(LedgerFullError):
            ledger.issue(d)
        assert len(ledger) == 3 and ledger.consume(d) == "unknown"
        ledger.issue(a)                     # a re-issue takes no new room
        assert len(ledger) == 3
        assert ledger.consume(b) == "fresh"
        ledger.issue(d)                     # a consume frees one slot
        with pytest.raises(LedgerFullError):
            ledger.issue(e)
        clock.advance(29.5)                 # c (t = 2) expires; a, d live
        ledger.issue(e)                     # the purge freed the room
        assert len(ledger) == 3
        for chal in (a, d, e):
            assert ledger.consume(chal) == "fresh"


# --- judging responses ----------------------------------------------------

class TestCheckResponse:
    @pytest.fixture
    def setup(self, sign_key, up_specs, runtime):
        policy = make_policy(sign_key, up_specs)
        verifier = Verifier(policy, clock=FakeClock())
        return policy, verifier, runtime

    def test_genuine_accepted(self, setup, up_specs):
        policy, verifier, runtime = setup
        chal = verifier.new_challenge()
        reply = runtime.attest_once(1, chal)
        resp = AttestResponse(status=reply.status, pid=1, pk=reply.pk,
                              sigma=reply.sigma)
        result = verifier.check_response("dev0", 1, chal, resp)
        assert result.pid == 1
        assert result.measurement == measure_binary(up_specs[0].binary)
        assert result.sigma == reply.sigma

    @pytest.mark.parametrize("right_key", [True, False], ids=["k+", "k-"])
    @pytest.mark.parametrize("right_m", [True, False], ids=["m+", "m-"])
    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "unissued"])
    def test_acceptance_lattice(self, setup, sign_mode, right_key, right_m, fresh):
        """Only the corner with the right key, the right measurement, and a
        live challenge is accepted; every other combination is rejected."""
        policy, verifier, _ = setup
        dev = policy.device("dev0")
        key = (SignKey(sign_mode, b"\x5a" * 32) if not right_key
               else self._device_key(sign_mode))
        m = dev.golden[1] if right_m else b"\x77" * 32
        chal = verifier.new_challenge() if fresh else b"\x09" * 32
        pk = key.verify_key().material
        resp = craft_response(key, chal, pk, m, pid=1)
        if right_key and right_m and fresh:
            assert verifier.check_response("dev0", 1, chal, resp).pk == pk
        elif not right_key or not right_m:
            with pytest.raises(SigInvalidError):
                verifier.check_response("dev0", 1, chal, resp)
        else:
            with pytest.raises(ReplayDetectedError):
                verifier.check_response("dev0", 1, chal, resp)

    def _device_key(self, mode):
        # mirrors the sign_key fixture: same seed stream, same first draw
        import random
        return SignKey(mode, random.Random(0xA77E57).randbytes(32))

    def test_nonzero_status_is_prover_error(self, setup):
        _, verifier, _ = setup
        chal = verifier.new_challenge()
        resp = AttestResponse(status=2, pid=1, pk=bytes(32), sigma=b"")
        with pytest.raises(ProverError) as ei:
            verifier.check_response("dev0", 1, chal, resp)
        assert ei.value.code == 2

    def test_response_must_name_requested_pid(self, setup, runtime):
        _, verifier, runtime = setup
        chal = verifier.new_challenge()
        reply = runtime.attest_once(1, chal)
        resp = AttestResponse(status=0, pid=2, pk=reply.pk, sigma=reply.sigma)
        with pytest.raises(SigInvalidError):
            verifier.check_response("dev0", 1, chal, resp)

    def test_sigma_length_checked_before_verify(self, setup, sign_key):
        _, verifier, _ = setup
        chal = verifier.new_challenge()
        want, wrong = (32, 64) if sign_key.mode is SignMode.HMAC else (64, 32)
        for sigma in (b"\x00" * 7, b"\x00" * wrong):
            resp = AttestResponse(status=0, pid=1, pk=bytes(32), sigma=sigma)
            with pytest.raises(SigInvalidError, match=(
                    f"^{sign_key.mode.value} token must be {want} bytes, "
                    f"got {len(sigma)}$")):
                verifier.check_response("dev0", 1, chal, resp)

    def test_unknown_pid_is_policy_error(self, setup):
        _, verifier, _ = setup
        chal = verifier.new_challenge()
        resp = AttestResponse(status=0, pid=99, pk=bytes(32), sigma=b"\x00" * 32)
        with pytest.raises(PolicyError):
            verifier.check_response("dev0", 99, chal, resp)

    def test_replay_of_accepted_response(self, setup, runtime):
        _, verifier, runtime = setup
        chal = verifier.new_challenge()
        reply = runtime.attest_once(1, chal)
        resp = AttestResponse(status=0, pid=1, pk=reply.pk, sigma=reply.sigma)
        verifier.check_response("dev0", 1, chal, resp)
        with pytest.raises(ReplayDetectedError):
            verifier.check_response("dev0", 1, chal, resp)

    def test_stale_challenge(self, setup, runtime):
        policy, _, runtime = setup
        clock = FakeClock()
        verifier = Verifier(policy, ttl=30.0, clock=clock)
        chal = verifier.new_challenge()
        reply = runtime.attest_once(1, chal)
        clock.advance(31.0)
        resp = AttestResponse(status=0, pid=1, pk=reply.pk, sigma=reply.sigma)
        with pytest.raises(StaleChallengeError):
            verifier.check_response("dev0", 1, chal, resp)

    def test_rejected_response_does_not_burn_challenge(self, setup, runtime):
        """A forged response must not consume the outstanding challenge:
        the genuine device can still answer it afterwards."""
        policy, verifier, runtime = setup
        dev = policy.device("dev0")
        chal = verifier.new_challenge()
        forged = craft_response(SignKey(dev.vk.mode, b"\x13" * 32), chal,
                                b"\x00" * 32, dev.golden[1], pid=1)
        with pytest.raises(SigInvalidError):
            verifier.check_response("dev0", 1, chal, forged)
        reply = runtime.attest_once(1, chal)
        resp = AttestResponse(status=0, pid=1, pk=reply.pk, sigma=reply.sigma)
        assert verifier.check_response("dev0", 1, chal, resp).pid == 1

    def test_pin_locks_first_seen_pk(self, setup, sign_key, runtime):
        policy, verifier, runtime = setup
        dev = policy.device("dev0")
        dev.pin_pk = True
        chal = verifier.new_challenge()
        reply = runtime.attest_once(1, chal)
        resp = AttestResponse(status=0, pid=1, pk=reply.pk, sigma=reply.sigma)
        verifier.check_response("dev0", 1, chal, resp)
        assert dev.pinned[1] == reply.pk
        # same signing key, different claimed pk: the signature is valid,
        # only the pin stops it
        chal2 = verifier.new_challenge()
        moved = craft_response(sign_key, chal2, b"\xee" * 32, dev.golden[1], pid=1)
        with pytest.raises(PinMismatchError):
            verifier.check_response("dev0", 1, chal2, moved)

    def test_without_pin_pk_change_is_allowed_when_signed(self, setup,
                                                         sign_key):
        policy, verifier, _ = setup
        dev = policy.device("dev0")
        assert dev.pin_pk is False
        chal = verifier.new_challenge()
        resp = craft_response(sign_key, chal, b"\xee" * 32, dev.golden[1], pid=1)
        assert verifier.check_response("dev0", 1, chal, resp).pk == b"\xee" * 32

    def test_racing_first_rounds_pin_exactly_one_pk(self, setup, sign_key,
                                                    monkeypatch):
        """Two first rounds for one pid, with different pks, both past the
        signature check before either is judged: one is accepted and
        pinned, the other is refused and keeps its challenge."""
        policy, verifier, _ = setup
        dev = policy.device("dev0")
        dev.pin_pk = True
        chals = [verifier.new_challenge() for _ in range(2)]
        pks = [b"\x11" * 32, b"\x22" * 32]
        resps = [craft_response(sign_key, c, pk, dev.golden[1], pid=1)
                 for c, pk in zip(chals, pks)]
        barrier = threading.Barrier(2, timeout=5)
        verify_token = verifier_module.verify_token

        def verify_then_meet(*args):
            ok = verify_token(*args)
            barrier.wait()
            return ok

        monkeypatch.setattr(verifier_module, "verify_token", verify_then_meet)
        outcomes: list = [None, None]

        def judge(i):
            try:
                outcomes[i] = verifier.check_response("dev0", 1, chals[i], resps[i])
            except AttestFailure as e:
                outcomes[i] = e

        threads = [threading.Thread(target=judge, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        winners = [i for i in range(2) if isinstance(outcomes[i], AttestResult)]
        assert len(winners) == 1, outcomes
        loser = 1 - winners[0]
        assert isinstance(outcomes[loser], PinMismatchError)
        assert dev.pinned == {1: pks[winners[0]]}
        assert verifier.ledger.consume(chals[loser]) == "fresh"

    def test_challenges_unique(self, setup):
        _, verifier, _ = setup
        seen = {verifier.new_challenge() for _ in range(100)}
        assert len(seen) == 100
        assert all(len(c) == 32 for c in seen)


# --- attest over a stream -------------------------------------------------

def _serve_once(remote: FrameStream, handler):
    """Run one request/response exchange on a background thread."""
    def body():
        msg = remote.recv()
        out = handler(msg)
        if out is not None:
            remote.send(out)
    t = threading.Thread(target=body, daemon=True)
    t.start()
    return t


class TestAttestStream:
    @pytest.fixture
    def pair(self):
        a, b = socket.socketpair()
        left, right = FrameStream(a), FrameStream(b)
        yield left, right
        left.close()
        right.close()

    def test_full_round_accepted(self, pair, sign_key, up_specs, runtime):
        left, right = pair
        verifier = Verifier(make_policy(sign_key, up_specs))

        def handler(msg):
            reply = runtime.attest_once(msg.pid, msg.chal)
            return AttestResponse(status=reply.status, pid=msg.pid,
                                  pk=reply.pk, sigma=reply.sigma)

        t = _serve_once(right, handler)
        result = verifier.attest("dev0", 2, left)
        t.join(timeout=5)
        assert result.pid == 2
        assert result.measurement == measure_binary(up_specs[1].binary)

    def test_silent_peer_times_out(self, pair, sign_key, up_specs):
        left, _ = pair
        verifier = Verifier(make_policy(sign_key, up_specs), timeout=0.2)
        with pytest.raises(AttestTimeoutError):
            verifier.attest("dev0", 1, left)

    def test_error_frame_surfaces_code(self, pair, sign_key, up_specs):
        left, right = pair
        verifier = Verifier(make_policy(sign_key, up_specs))
        t = _serve_once(right, lambda msg: ErrorMsg(code=1))
        with pytest.raises(ProverError) as ei:
            verifier.attest("dev0", 1, left)
        t.join(timeout=5)
        assert ei.value.code == 1

    @pytest.mark.parametrize("pid", [-1, 2**64])
    def test_pid_outside_u64_is_refused_before_send(self, sign_key, up_specs,
                                                    pid):
        """``encode``'s refusal of the verifier's own request is not a
        prover error: its ``WireError`` comes back, nothing is sent, and
        no challenge is left live."""
        verifier = Verifier(make_policy(sign_key, up_specs))
        a, b = socket.socketpair()
        with a, b:
            with pytest.raises(BadLengthError, match="pid"):
                verifier.attest("dev0", pid, FrameStream(a))
            assert len(verifier.ledger) == 0        # the challenge was withdrawn
            b.setblocking(False)
            with pytest.raises(BlockingIOError):
                b.recv(1)

    def test_unexpected_type_rejected(self, pair, sign_key, up_specs):
        left, right = pair
        verifier = Verifier(make_policy(sign_key, up_specs))
        t = _serve_once(
            right, lambda msg: ChannelConfirm(nonce=bytes(12), ct=bytes(16)))
        with pytest.raises(ProverError):
            verifier.attest("dev0", 1, left)
        t.join(timeout=5)


class TestChannel:
    @pytest.fixture
    def pair(self):
        a, b = socket.socketpair()
        left, right = FrameStream(a), FrameStream(b)
        yield left, right
        left.close()
        right.close()

    def _attested(self, verifier, runtime, pid=1):
        chal = verifier.new_challenge()
        reply = runtime.attest_once(pid, chal)
        resp = AttestResponse(status=0, pid=pid, pk=reply.pk, sigma=reply.sigma)
        return verifier.check_response("dev0", pid, chal, resp)

    def test_channel_with_real_process(self, pair, sign_key, up_specs, runtime):
        left, right = pair
        verifier = Verifier(make_policy(sign_key, up_specs))
        result = self._attested(verifier, runtime)

        def handler(msg):
            out = runtime.channel_once(1, result.chal, result.sigma, msg)
            return ChannelConfirm(nonce=out.nonce, ct=out.ct)

        t = _serve_once(right, handler)
        session = verifier.establish_channel(result, left)
        t.join(timeout=5)
        assert session.pid == 1
        assert len(session.key) == 32
        assert "redacted" in repr(session)
        assert session.key.hex() not in repr(session)

    def test_session_key_seals_traffic_both_ways(self, pair, sign_key,
                                                 up_specs, runtime):
        """After the handshake the verifier's key opens material sealed by
        the process side and vice versa (same key on both ends)."""
        left, right = pair
        verifier = Verifier(make_policy(sign_key, up_specs))
        result = self._attested(verifier, runtime)
        seen = {}

        def handler(msg):
            out = runtime.channel_once(1, result.chal, result.sigma, msg)
            seen["confirm"] = out
            return ChannelConfirm(nonce=out.nonce, ct=out.ct)

        t = _serve_once(right, handler)
        session = verifier.establish_channel(result, left)
        t.join(timeout=5)
        opened = open_sealed(session.key, seen["confirm"].nonce,
                             seen["confirm"].ct, CHANNEL_AD_CONFIRM)
        assert opened is not None and len(opened) == 32
        nonce = b"\x01" * 12
        ct = seal(session.key, nonce, b"hello device", CHANNEL_AD_INIT)
        assert open_sealed(session.key, nonce, ct, CHANNEL_AD_INIT) == b"hello device"

    def test_garbage_confirm_rejected(self, pair, sign_key, up_specs, runtime):
        from attestsim.verifier import ConfirmFailedError
        left, right = pair
        verifier = Verifier(make_policy(sign_key, up_specs))
        result = self._attested(verifier, runtime)
        t = _serve_once(
            right, lambda msg: ChannelConfirm(nonce=bytes(12), ct=b"\x00" * 48))
        with pytest.raises(ConfirmFailedError):
            verifier.establish_channel(result, left)
        t.join(timeout=5)

    def test_error_frame_fails_channel(self, pair, sign_key, up_specs, runtime):
        from attestsim.verifier import ConfirmFailedError
        left, right = pair
        verifier = Verifier(make_policy(sign_key, up_specs))
        result = self._attested(verifier, runtime)
        t = _serve_once(right, lambda msg: ErrorMsg(code=5))
        with pytest.raises(ConfirmFailedError):
            verifier.establish_channel(result, left)
        t.join(timeout=5)

    def test_wrong_process_cannot_complete(self, pair, sign_key, up_specs,
                                           runtime):
        """Handing the init to a different (also genuine) process: its
        relay key does not match the attested pk, so the confirm cannot
        authenticate."""
        from attestsim.verifier import ConfirmFailedError
        left, right = pair
        verifier = Verifier(make_policy(sign_key, up_specs))
        result = self._attested(verifier, runtime, pid=1)

        def handler(msg):
            out = runtime.channel_once(2, result.chal, result.sigma, msg)
            if hasattr(out, "ct"):
                return ChannelConfirm(nonce=out.nonce, ct=out.ct)
            return ErrorMsg(code=5)

        t = _serve_once(right, handler)
        with pytest.raises(ConfirmFailedError):
            verifier.establish_channel(result, left)
        t.join(timeout=5)


# --- CLI ------------------------------------------------------------------

class TestCli:
    def _policy_with_address(self, env, address, tmp_path, golden=None):
        raw = json.loads(env.policy_path.read_text())
        dev = raw["devices"]["dev0"]
        dev["address"] = f"{address[0]}:{address[1]}"
        if golden is not None:
            dev["golden"] = golden
        # golden paths in the original file are relative to its directory
        base = env.policy_path.parent
        dev["golden"] = {pid: str((base / p) if not str(p).startswith("/") else p)
                        for pid, p in dev["golden"].items()}
        out = tmp_path / "policy-cli.json"
        out.write_text(json.dumps(raw))
        return str(out)

    def test_attest_exit_zero(self, env, daemon, tmp_path, capsys):
        policy = self._policy_with_address(env, daemon.address, tmp_path)
        rc = verifier_main(["attest", "--device", "dev0", "--pid", "1",
                            "--policy", policy])
        out = capsys.readouterr().out
        assert rc == 0
        assert "accepted device=dev0 pid=1" in out

    def test_channel_exit_zero_prints_fingerprint(self, env, daemon, tmp_path,
                                                  capsys):
        policy = self._policy_with_address(env, daemon.address, tmp_path)
        rc = verifier_main(["channel", "--device", "dev0", "--pid", "2",
                            "--policy", policy])
        out = capsys.readouterr().out
        assert rc == 0
        assert "channel established key_fingerprint=" in out

    def test_wrong_golden_rejected_exit_two(self, env, daemon, tmp_path):
        other = tmp_path / "other.bin"
        other.write_bytes(b"\xfe" * 256)
        policy = self._policy_with_address(
            env, daemon.address, tmp_path,
            golden={"1": str(other), "2": str(other)})
        rc = verifier_main(["attest", "--device", "dev0", "--pid", "1",
                            "--policy", policy])
        assert rc == 2

    def test_dead_port_exit_three(self, env, tmp_path):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()
        probe.close()
        policy = self._policy_with_address(env, dead, tmp_path)
        rc = verifier_main(["attest", "--device", "dev0", "--pid", "1",
                            "--policy", policy, "--timeout", "0.5"])
        assert rc == 3

    def test_no_address_exit_four(self, env, tmp_path):
        raw = json.loads(env.policy_path.read_text())
        base = env.policy_path.parent
        dev = raw["devices"]["dev0"]
        dev["golden"] = {pid: str(base / p) for pid, p in dev["golden"].items()}
        out = tmp_path / "policy-noaddr.json"
        out.write_text(json.dumps(raw))
        rc = verifier_main(["attest", "--device", "dev0", "--pid", "1",
                            "--policy", str(out)])
        assert rc == 4

    @pytest.mark.parametrize("text", [
        "{",
        json.dumps({"devices": {"dev0": {
            "mode": "hmac", "verify_key": None, "golden": {"1": "x.bin"}}}}),
        json.dumps({"devices": {"dev0": {
            "mode": "hmac", "verify_key": "aa" * 32, "golden": {"1": "empty.bin"}}}}),
    ], ids=["unparsable", "mistyped-verify-key", "empty-golden-binary"])
    def test_malformed_policy_exit_four(self, tmp_path, capsys, text):
        (tmp_path / "empty.bin").write_bytes(b"")
        path = tmp_path / "policy-bad.json"
        path.write_text(text)
        rc = verifier_main(["attest", "--device", "dev0", "--pid", "1",
                            "--policy", str(path)])
        assert rc == 4
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_device_exit_four(self, env, daemon, tmp_path):
        policy = self._policy_with_address(env, daemon.address, tmp_path)
        rc = verifier_main(["attest", "--device", "devX", "--pid", "1",
                            "--policy", policy])
        assert rc == 4

    @staticmethod
    def _exit_code(argv):
        """What the process would exit with: argparse exits by raising."""
        try:
            return verifier_main(argv)
        except SystemExit as e:
            return e.code

    @pytest.mark.parametrize("args", [
        ["--pid", "1", "--timeout", "-1"],
        ["--pid", "1", "--timeout", "nan"],
        ["--pid", "1", "--timeout", "inf"],
        ["--pid", "1", "--timeout", "0"],
        ["--pid", "1", "--timeout", "1e30"],    # finite, beyond a time_t
        ["--pid", "1", "--timeout", "soon"],
        ["--pid", "abc"],
        ["--pid", "-1"],
        ["--pid", str(2**64)],
        [],                                     # --pid missing
    ], ids=["negative", "nan", "inf", "zero", "huge", "not-a-number",
            "pid-not-int", "pid-negative", "pid-beyond-u64", "pid-missing"])
    def test_usage_error_exit_four(self, env, tmp_path, capsys, args):
        """A usage error exits 4 with one line, before any connection:
        2 is reserved for a rejected attestation, 3 for transport."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()
        probe.close()
        policy = self._policy_with_address(env, dead, tmp_path)
        rc = self._exit_code(["attest", "--device", "dev0", "--policy", policy,
                              *args])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_no_command_exit_four(self, capsys):
        assert self._exit_code([]) == 4
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["attest", "--help"]])
    def test_help_exit_zero(self, argv, capsys):
        assert self._exit_code(argv) == 0
        assert "usage:" in capsys.readouterr().out
