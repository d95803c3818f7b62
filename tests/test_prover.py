"""Prover runtime and daemon: file loading, TCP behavior, fault handling."""

from __future__ import annotations

import json
import logging
import os
import re
import socket
import struct
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import attestsim.signing as signing
import attestsim.userland as userland
from attestsim.attacks import build_env
from attestsim.boot import (
    PST_PID,
    RESERVED_PID_BASE,
    SP_PID,
    bring_up,
    default_anchors,
)
from attestsim.channel import (
    CHANNEL_AD_CONFIRM,
    CHANNEL_AD_INIT,
    derive_session_key,
    open_sealed,
    seal,
    x25519_keypair,
)
from attestsim.crypto import SignMode, verify_token
from attestsim.kernel import NetRecv
import attestsim.prover as prover
from attestsim.prover import (
    BackgroundDaemon,
    NotAttestableError,
    ProverConfig,
    ProverRuntime,
    build_runtime,
    main as proverd_main,
)
from attestsim.userland import NetChannelFail, make_relay_program
from attestsim.verifier import ConfirmFailedError, Policy, PolicyError, Verifier
from attestsim.wire import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_NO_CONTEXT,
    ERR_UNKNOWN_PID,
    MAX_PAYLOAD,
    AttestRequest,
    AttestResponse,
    ChannelConfirm,
    ChannelInit,
    ErrorMsg,
    FrameDecoder,
    FrameStream,
    TruncatedError,
    decode_payload,
    encode,
    parse_address,
)

# the band boot keeps for its own processes: the live signer, the retired
# transfer process, and two pids no process holds
RESERVED_PIDS = [SP_PID, PST_PID, RESERVED_PID_BASE, 2**64 - 1]
RESERVED_IDS = ["sp", "pst", "band-base", "u64-max"]


class TestBuildRuntime:
    def test_boots_from_files(self, env):
        runtime = build_runtime(env.config)
        assert runtime.up_pids == {1, 2}
        assert runtime.sp_state.sign_key.mode is SignMode.HMAC

    def test_missing_keystore(self, env):
        config = ProverConfig(**{**env.config.__dict__,
                                 "keystore_path": str(env.root / "absent.hex")})
        with pytest.raises(OSError):
            build_runtime(config)


class TestRuntimeInjection:
    def test_unknown_pid(self, runtime):
        with pytest.raises(KeyError):
            runtime.attest_once(42, bytes(32))

    def test_round_adds_the_four_ipc_transitions(self, runtime, sign_key):
        """One round is the host event in, the request delivered to the
        signer (8 registers), its reply (status and the token's words) and
        the response out: nothing more, in either signing mode."""
        trace = runtime.kernel.trace
        sig_words = 4 if sign_key.mode is SignMode.HMAC else 8
        attest_ep = 2                   # the signer's second endpoint
        for pid, badge in ((1, 1), (3, 3), (1, 1)):
            before = len(trace)
            runtime.attest_once(pid, os.urandom(32))
            assert list(trace)[before:] == [
                ("net_in", pid, "AttestRequest"),
                ("deliver", pid, SP_PID, attest_ep, badge, 8),
                ("reply", SP_PID, pid, 1 + sig_words),
                ("net_out", pid, "AttestResponse"),
            ]

    @pytest.mark.parametrize("pid", RESERVED_PIDS, ids=RESERVED_IDS)
    def test_reserved_pids_never_reach_the_kernel(self, runtime, pid):
        """Refused before any event is injected: one injected at the live
        signer would sit in its inbox for good."""
        kernel = runtime.kernel
        trace = list(kernel.trace)
        init = ChannelInit(eph_pk=bytes(32), nonce=bytes(12), ct=bytes(48))
        with pytest.raises(NotAttestableError):
            runtime.attest_once(pid, bytes(32))
        with pytest.raises(NotAttestableError):
            runtime.channel_once(pid, bytes(32), bytes(32), init)
        assert list(kernel.trace) == trace
        assert not kernel._procs[SP_PID].net_inbox

    def test_bad_chal_length(self, runtime):
        with pytest.raises(ValueError):
            runtime.attest_once(1, b"short")

    def test_reply_verifies(self, runtime, sign_key, booted):
        chal = b"\x21" * 32
        reply = runtime.attest_once(1, chal)
        m = booted.sp_state.mmap.lookup(1)
        assert reply.status == 0
        assert verify_token(sign_key.verify_key(), chal, reply.pk, m, reply.sigma)

    @given(rounds=st.lists(st.tuples(st.sampled_from([1, 2, 3]),
                                     st.binary(min_size=32, max_size=32)),
                           min_size=1, max_size=8),
           data=st.data())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_channel_binds_any_accepted_round(self, runtime, rounds, data):
        """A channel confirms against any earlier accepted round of its
        pid, later rounds of that pid notwithstanding, and fails against
        another pid's process or another pid's round."""
        accepted = []
        for pid, chal in rounds:
            reply = runtime.attest_once(pid, chal)
            assert reply.status == 0
            accepted.append((pid, chal, reply.pk, reply.sigma))
        pid, chal, pk, sigma = data.draw(st.sampled_from(accepted))
        eph, eph_pk = x25519_keypair()
        key = derive_session_key(eph, pk, chal + pk + sigma)
        token, nonce = bytes([7]) * 32, bytes(12)
        init = ChannelInit(eph_pk, nonce,
                           seal(key, nonce, token, CHANNEL_AD_INIT))
        out = runtime.channel_once(pid, chal, sigma, init)
        assert isinstance(out, ChannelConfirm)
        assert open_sealed(key, out.nonce, out.ct, CHANNEL_AD_CONFIRM) == token
        refused = NetChannelFail("init did not authenticate")
        for other in {1, 2, 3} - {pid}:
            assert runtime.channel_once(other, chal, sigma, init) == refused
        for other, other_chal, _, other_sigma in accepted:
            if other != pid:
                assert runtime.channel_once(
                    pid, other_chal, other_sigma, init) == refused


SERVER_ONLY = [
    AttestResponse(status=0, pid=1, pk=bytes(32), sigma=b"\x00" * 32),
    ChannelConfirm(nonce=bytes(12), ct=bytes(16)),
    ErrorMsg(code=1),
]
# what a client may write: attests for live and absent pids, channel inits
# (bound or not), any type with any payload, and the types only a server sends
CLIENT_FRAMES = st.one_of(
    st.builds(lambda pid, chal: encode(AttestRequest(pid, chal)),
              st.sampled_from([1, 2, 3, 9, PST_PID]),
              st.binary(min_size=32, max_size=32)),
    st.builds(lambda eph_pk, ct: encode(ChannelInit(eph_pk, bytes(12), ct)),
              st.binary(min_size=32, max_size=32), st.binary(min_size=16, max_size=48)),
    st.builds(lambda mtype, payload: struct.pack(">IB", len(payload), mtype) + payload,
              st.integers(0, 255), st.binary(max_size=80)),
    st.sampled_from([encode(msg) for msg in SERVER_ONLY]),
)
OVERSIZE_HEADER = struct.pack(">IB", MAX_PAYLOAD + 1, 0x01)


class TestConnection:
    @pytest.mark.parametrize("sign_mode", [SignMode.HMAC], ids=["hmac"])
    @given(frames=st.lists(CLIENT_FRAMES, max_size=10), data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_replies_do_not_depend_on_the_reads(self, runtime, frames, data):
        """A stream cut into reads anywhere gets the same replies and the
        same ``decoder.lost`` as one read of all of it, whether framing is
        lost at some frame boundary or nowhere."""
        lost_at = data.draw(st.none() | st.integers(0, len(frames)))
        if lost_at is not None:
            frames.insert(lost_at, OVERSIZE_HEADER)
        stream = b"".join(frames)
        cuts = data.draw(st.sets(st.integers(0, len(stream))))
        bounds = sorted({0, len(stream), *cuts})
        whole = prover.Connection(runtime)
        expected = whole.receive(stream)
        split = prover.Connection(runtime)
        replies = [split.receive(stream[a:b]) for a, b in zip(bounds, bounds[1:])]
        assert b"".join(replies) == expected
        assert split.decoder.lost == whole.decoder.lost == (
            None if lost_at is None else MAX_PAYLOAD + 1)

    @pytest.mark.parametrize("sign_mode", [SignMode.HMAC], ids=["hmac"])
    def test_a_byte_after_a_frame_begins_the_next(self, runtime):
        """Bytes after a whole frame are no error: the frame is answered
        once, and the byte waits as the start of the next frame."""
        conn = prover.Connection(runtime)
        replies = conn.receive(encode(AttestRequest(1, bytes(32))) + b"\x00")
        [reply] = [decode_payload(*item) for item in FrameDecoder().feed(replies)]
        assert isinstance(reply, AttestResponse) and reply.status == 0
        assert conn.decoder.pending == 1 and conn.decoder.lost is None

    def test_a_reply_encode_refuses_costs_only_its_frame(self, up_specs,
                                                         sign_key, caplog):
        """A user process is untrusted: a reply it emits that the codec
        refuses is answered ``ERR_INTERNAL`` and logged, as a handler fault
        is, and the other frames of the same read still get theirs."""
        def factory(spec, sp_cap):
            if spec.pid == 1:
                def rogue(ctx):
                    while True:
                        event = yield NetRecv()
                        # status does not fit the frame's one byte
                        ctx.net_send(AttestResponse(300, event.pid, bytes(32), b""))
                return rogue
            return make_relay_program(spec, sp_cap)

        runtime = ProverRuntime(
            bring_up(default_anchors(), up_specs, sign_key, factory))
        conn = prover.Connection(runtime)
        replies = conn.receive(b"".join(
            encode(AttestRequest(pid, bytes(32))) for pid in (2, 1, 2)))
        first, refused, last = [decode_payload(*item)
                                for item in FrameDecoder().feed(replies)]
        assert isinstance(first, AttestResponse) and first.pid == 2
        assert refused == ErrorMsg(ERR_INTERNAL)
        assert isinstance(last, AttestResponse) and last.pid == 2
        assert conn.decoder.lost is None
        assert "handler fault on 'AttestRequest'" in caplog.text


def connect(daemon: BackgroundDaemon) -> FrameStream:
    return FrameStream.connect(*daemon.address, timeout=5.0)


class TestDaemonTcp:
    def test_attest_round(self, env, daemon):
        policy = Policy.load(str(env.policy_path))
        verifier = Verifier(policy)
        with connect(daemon) as stream:
            result = verifier.attest("dev0", 1, stream)
        assert result.pid == 1

    def test_attest_round_eddsa(self, tmp_path):
        env = build_env(tmp_path / "ed", mode=SignMode.ED25519)
        with BackgroundDaemon(env.config) as daemon:
            verifier = Verifier(Policy.load(str(env.policy_path)))
            with connect(daemon) as stream:
                result = verifier.attest("dev0", 2, stream)
        assert len(result.sigma) == 64

    def test_unknown_pid_error_frame(self, daemon):
        with connect(daemon) as stream:
            stream.send(AttestRequest(pid=9, chal=bytes(32)))
            reply = stream.recv()
        assert reply == ErrorMsg(code=ERR_UNKNOWN_PID)

    def test_channel_before_attest_has_no_context(self, env, daemon):
        init = ChannelInit(eph_pk=x25519_keypair()[1],
                           nonce=bytes(12), ct=bytes(16))
        with connect(daemon) as stream:
            stream.send(init)
            reply = stream.recv()
        assert reply == ErrorMsg(code=ERR_NO_CONTEXT)
        # only an accepted attestation binds a channel
        with connect(daemon) as stream:
            stream.send(AttestRequest(pid=9, chal=bytes(32)))
            assert stream.recv() == ErrorMsg(code=ERR_UNKNOWN_PID)
            stream.send(init)
            assert stream.recv() == ErrorMsg(code=ERR_NO_CONTEXT)
        verifier = Verifier(Policy.load(str(env.policy_path)))
        with connect(daemon) as stream:
            result = verifier.attest("dev0", 1, stream)
            stream.send(AttestRequest(pid=9, chal=bytes(32)))
            assert stream.recv() == ErrorMsg(code=ERR_UNKNOWN_PID)
            assert verifier.establish_channel(result, stream).pid == 1

    @pytest.mark.parametrize("msg", SERVER_ONLY, ids=["response", "confirm", "error"])
    def test_server_only_types_bounce(self, daemon, msg):
        with connect(daemon) as stream:
            stream.send(msg)
            assert stream.recv() == ErrorMsg(code=ERR_BAD_REQUEST)

    def test_undecodable_frame_keeps_stream_alive(self, env, daemon):
        """A frame with a bad body but honest length gets an Error frame
        and the connection keeps working."""
        policy = Policy.load(str(env.policy_path))
        verifier = Verifier(policy)
        with connect(daemon) as stream:
            stream.send_raw(struct.pack(">IB", 3, 0x01) + b"abc")
            assert stream.recv() == ErrorMsg(code=ERR_BAD_REQUEST)
            stream.send_raw(struct.pack(">IB", 2, 0x7F) + b"hi")
            assert stream.recv() == ErrorMsg(code=ERR_BAD_REQUEST)
            result = verifier.attest("dev0", 1, stream)
        assert result.pid == 1

    def test_oversize_length_answered_then_dropped(self, daemon):
        with connect(daemon) as stream:
            stream.send_raw(struct.pack(">IB", MAX_PAYLOAD + 1, 0x01))
            assert stream.recv() == ErrorMsg(code=ERR_BAD_REQUEST)
            with pytest.raises(TruncatedError, match="before a frame"):
                stream.recv()                       # the daemon hung up

    def test_unread_input_does_not_reset_the_last_reply(self, daemon):
        """The daemon ends its side of the stream before it closes, so the
        client reads the error frame and then end of stream, although the
        daemon left most of its input unread."""
        with connect(daemon) as stream:
            stream.send_raw(OVERSIZE_HEADER + bytes(100_000))
            assert stream.recv() == ErrorMsg(code=ERR_BAD_REQUEST)
            with pytest.raises(TruncatedError, match="before a frame"):
                stream.recv()

    def test_exit_stops_the_thread_and_the_listener(self, env):
        with BackgroundDaemon(env.config) as d:
            address = d.address
        assert not d.thread.is_alive()
        assert d.server.socket.fileno() == -1         # the listener is closed
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5)

    def test_reserved_pids_are_unknown(self, daemon):
        kernel = daemon.runtime.kernel
        trace = list(kernel.trace)
        with connect(daemon) as stream:
            for pid in RESERVED_PIDS:
                stream.send(AttestRequest(pid, bytes(32)))
                assert stream.recv() == ErrorMsg(ERR_UNKNOWN_PID)
        assert list(kernel.trace) == trace
        assert not kernel._procs[SP_PID].net_inbox

    def test_pipelined_requests_answered_in_order(self, env, daemon):
        """32 requests in one write come back as 32 replies, in order."""
        pids = [(1, 2, 9)[i % 3] for i in range(32)]
        chals = [bytes([i]) * 32 for i in range(32)]
        vk = env.key.verify_key()
        with connect(daemon) as stream:
            stream.send_raw(b"".join(encode(AttestRequest(pid=pid, chal=chal))
                                     for pid, chal in zip(pids, chals)))
            replies = [stream.recv() for _ in pids]
        for pid, chal, reply in zip(pids, chals, replies):
            if pid == 9:
                assert reply == ErrorMsg(code=ERR_UNKNOWN_PID)
                continue
            assert isinstance(reply, AttestResponse) and reply.pid == pid
            m = daemon.runtime.sp_state.mmap.lookup(pid)
            assert verify_token(vk, chal, reply.pk, m, reply.sigma)

    def test_frames_before_oversize_header_are_answered(self, daemon):
        with connect(daemon) as stream:
            stream.send_raw(
                encode(AttestRequest(pid=1, chal=bytes(32)))
                + encode(AttestRequest(pid=2, chal=bytes(32)))
                + struct.pack(">IB", MAX_PAYLOAD + 1, 0x01))
            first, second = stream.recv(), stream.recv()
            assert stream.recv() == ErrorMsg(code=ERR_BAD_REQUEST)
            with pytest.raises(TruncatedError, match="before a frame"):
                stream.recv()                       # the daemon hung up
        assert isinstance(first, AttestResponse) and first.pid == 1
        assert isinstance(second, AttestResponse) and second.pid == 2

    def test_torn_frame_then_fresh_connection(self, env, daemon):
        with connect(daemon) as stream:
            stream.send_raw(struct.pack(">IB", 40, 0x01) + bytes(5))
        # daemon dropped that one; a new connection is unaffected
        verifier = Verifier(Policy.load(str(env.policy_path)))
        with connect(daemon) as stream:
            assert verifier.attest("dev0", 2, stream).pid == 2

    def test_many_frames_one_connection(self, env, daemon):
        policy = Policy.load(str(env.policy_path))
        verifier = Verifier(policy)
        with connect(daemon) as stream:
            for i in range(10):
                result = verifier.attest("dev0", 1 + (i % 2), stream)
                assert result.pid == 1 + (i % 2)

    def test_sequential_connections(self, env, daemon):
        verifier = Verifier(Policy.load(str(env.policy_path)))
        for _ in range(5):
            with connect(daemon) as stream:
                assert verifier.attest("dev0", 1, stream).pid == 1

    def test_channel_routes_to_last_attested_pid(self, env, daemon):
        verifier = Verifier(Policy.load(str(env.policy_path)))
        with connect(daemon) as stream:
            verifier.attest("dev0", 1, stream)
            result2 = verifier.attest("dev0", 2, stream)
            session = verifier.establish_channel(result2, stream)
        assert session.pid == 2

    def test_channel_against_stale_result_fails(self, env, daemon):
        """After attesting a second pid the connection context moves on,
        so a channel keyed to the first result cannot complete."""
        verifier = Verifier(Policy.load(str(env.policy_path)))
        with connect(daemon) as stream:
            result1 = verifier.attest("dev0", 1, stream)
            verifier.attest("dev0", 2, stream)
            with pytest.raises(ConfirmFailedError):
                verifier.establish_channel(result1, stream)

    def test_channel_binds_the_connections_own_attestation(self, env, daemon):
        """The channel key comes from the connection's most recent accepted
        attestation, even after a second connection has asked the same
        pid for another one."""
        verifier = Verifier(Policy.load(str(env.policy_path)))
        a = connect(daemon)
        result = verifier.attest("dev0", 1, a)
        with connect(daemon) as b:
            chal = verifier.new_challenge()
            b.send(AttestRequest(pid=1, chal=chal))     # reply left unread
            time.sleep(0.05)            # b's request is at the daemon first
            with a:
                assert verifier.establish_channel(result, a).pid == 1
            resp = b.recv()
        assert verifier.check_response("dev0", 1, chal, resp).pid == 1

    def test_idle_connection_is_dropped_at_the_deadline(self, env, monkeypatch):
        """A silent client is closed after ``IO_TIMEOUT``; a client that
        connected behind it is then served."""
        monkeypatch.setattr(prover, "IO_TIMEOUT", 0.3)
        verifier = Verifier(Policy.load(str(env.policy_path)))
        with BackgroundDaemon(env.config) as d:
            with socket.create_connection(d.address, timeout=5) as idle:
                time.sleep(0.05)            # the daemon is now serving idle
                with connect(d) as stream:
                    t0 = time.monotonic()
                    assert idle.recv(1) == b""
                    assert time.monotonic() - t0 < 1.0
                    assert verifier.attest("dev0", 1, stream).pid == 1


def _raise_once(monkeypatch, module, name: str, fault: Exception) -> None:
    """Make ``module.name`` raise ``fault`` on its next call only."""
    inner = getattr(module, name)
    pending = [fault]

    def once(*args):
        if pending:
            raise pending.pop()
        return inner(*args)

    monkeypatch.setattr(module, name, once)


class _FaultOnce(tuple):
    """A tuple whose next lookup raises ``fault``; later ones index it."""

    def __new__(cls, items, fault: Exception):
        self = super().__new__(cls, items)
        self.pending = [fault]
        return self

    def __getitem__(self, index):
        if self.pending:
            raise self.pending.pop()
        return super().__getitem__(index)


class TestFaultContainment:
    def test_signer_fault_fails_stop(self, env, monkeypatch, caplog):
        _raise_once(monkeypatch, signing, "handle_request",
                    RuntimeError("signer fault"))
        with caplog.at_level(logging.INFO, logger="attestsim.prover"):
            with BackgroundDaemon(env.config) as d, connect(d) as stream:
                for pid in (1, 2, 1, 2, 7):
                    stream.send(AttestRequest(pid, os.urandom(32)))
                    assert stream.recv() == ErrorMsg(ERR_INTERNAL)
                assert d.runtime.fault is not None
                assert d.runtime.up_pids == {1, 2}
        assert [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("phase=fault")] == [
            f"phase=fault pid={SP_PID} error=RuntimeError('signer fault')"]

    def test_relay_fault_retires_only_its_pid(self, env, monkeypatch, caplog):
        verifier = Verifier(Policy.load(str(env.policy_path)))
        with caplog.at_level(logging.INFO, logger="attestsim.prover"):
            with BackgroundDaemon(env.config) as d, connect(d) as stream:
                # booted relays have bound their request layouts; a round
                # looks up WORDS only for the reply, once the signer has
                # answered, so only the relay faults
                monkeypatch.setattr(userland, "WORDS", _FaultOnce(
                    userland.WORDS, RuntimeError("relay fault")))
                stream.send(AttestRequest(1, os.urandom(32)))
                assert stream.recv() == ErrorMsg(ERR_INTERNAL)
                assert d.runtime.up_pids == {2} and d.runtime.fault is None
                stream.send(AttestRequest(1, os.urandom(32)))
                assert stream.recv() == ErrorMsg(ERR_UNKNOWN_PID)
                assert verifier.attest("dev0", 2, stream).pid == 2
        assert [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("phase=fault")] == [
            "phase=fault pid=1 error=RuntimeError('relay fault')"]


class TestPhaseLogs:
    def test_boot_precedes_listen(self, env, caplog):
        with caplog.at_level(logging.INFO):
            with BackgroundDaemon(env.config):
                pass
        messages = [r.getMessage() for r in caplog.records]

        def first(tag):
            for i, m in enumerate(messages):
                if tag in m:
                    return i
            raise AssertionError(f"no log line contains {tag!r}")

        order = [first("phase=boot "), first("phase=process-spawn"),
                 first("phase=measurement"), first("phase=boot-finalized"),
                 first("phase=listen")]
        assert order == sorted(order)


# the pyca packages of the channel's X25519, HKDF and ChaCha20-Poly1305
CHANNEL_PYCA = ["cryptography.hazmat.primitives.ciphers",
                "cryptography.hazmat.primitives.kdf",
                "cryptography.hazmat.primitives.asymmetric.x25519"]
# what building classes from generated source loads (``dataclasses`` pulls in
# ``inspect``)
CODEGEN = ["dataclasses", "inspect"]


class TestCliPlumbing:
    # role: (module imported, the attestsim modules it loads, other
    # modules it must not load)
    CLOSURES = {
        "signer": ("attestsim.signing", ["crypto", "kernel", "signing"],
                   ["socket", "attestsim.provision", *CHANNEL_PYCA, *CODEGEN]),
        "boot": ("attestsim.boot", ["boot", "crypto", "kernel", "signing"],
                 ["socket", "attestsim.provision", *CHANNEL_PYCA, *CODEGEN]),
        "channel": ("attestsim.channel", ["channel", "crypto"], ["socket"]),
        "wire": ("attestsim.wire", ["wire"], []),
        "verifier": ("attestsim.verifier",
                     ["channel", "crypto", "verifier", "wire"], ["logging"]),
        "daemon": ("attestsim.prover",
                   ["boot", "channel", "crypto", "kernel", "prover",
                    "provision", "signing", "userland", "wire"],
                   ["numpy", "attestsim.verifier", "attestsim.attacks",
                    "attestsim.timing", "socketserver",
                    "cryptography.hazmat.primitives.serialization",
                    *CODEGEN]),
    }

    @staticmethod
    def closure(statements: str, banned: list[str]) -> tuple[list, list]:
        """The attestsim modules, and the ``banned`` ones, that a fresh
        interpreter holds after running ``statements``."""
        code = (f"{statements}\nimport json, sys; print(json.dumps(["
                "sorted(m for m in sys.modules if m.startswith('attestsim.')), "
                f"sorted(set({banned!r}) & set(sys.modules))]))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        return tuple(json.loads(out.stdout))

    @pytest.mark.parametrize("role", CLOSURES)
    def test_import_closure(self, role):
        """Each role loads its own side and nothing else, in a fresh
        interpreter. The RA TCB (signer and boot) loads no network codec,
        relay, socket, channel crypto or file loader (``provision``);
        channel crypto loads no kernel and no socket; the wire codec loads
        no other attestsim module; the verifier loads no device code and
        no ``logging``; the daemon loads device code only: no numpy, no
        verifier, attack harness or timing audit, and no key serialization
        module, which would load pyca's ssh and dsa modules and a code
        generator. (Booting loads pyca's ec and rsa modules anyway: the
        relays' X25519 keys import the openssl backend, which imports
        them.) Neither the RA TCB nor the daemon loads a code generator
        (``CODEGEN``): their classes are written out in source."""
        module, own, banned = self.CLOSURES[role]
        loaded, found = self.closure(f"import {module}", banned)
        assert loaded == [f"attestsim.{name}" for name in own]
        assert found == []

    @pytest.mark.parametrize("mode", [SignMode.HMAC, SignMode.ED25519],
                             ids=["hmac", "eddsa"])
    def test_booted_daemon_closure(self, tmp_path, mode):
        """Booting a device loads no attestsim module and no banned module
        beyond the daemon's import closure: ``build_runtime`` runs in a
        fresh interpreter on a device that ``build_env`` wrote."""
        _, own, banned = self.CLOSURES["daemon"]
        args = list(vars(build_env(tmp_path / "env", mode).config).values())
        loaded, found = self.closure(
            "from attestsim.prover import ProverConfig, build_runtime\n"
            f"build_runtime(ProverConfig(*{args!r}))", banned)
        assert loaded == [f"attestsim.{name}" for name in own]
        assert found == []

    @pytest.mark.parametrize("listen", ["127.0.0.1:7411", "0.0.0.0:0",
                                        "h:65535"])
    def test_parse_listen(self, listen):
        host, port = parse_address(listen)
        assert listen == f"{host}:{port}"

    @pytest.mark.parametrize("listen", ["nohost", ":7411", "h:port", "",
                                        "h:65536", "h:70000", "h:99999",
                                        "h:\u0663\u0663", "h:\u00b2"])
    def test_parse_listen_rejects(self, listen):
        with pytest.raises(ValueError):
            parse_address(listen)

    def test_policy_address_rejects(self, env):
        raw = json.loads(env.policy_path.read_text())
        for address in ("h:port", "127.0.0.1:65536", "127.0.0.1:99999",
                        "h:\u0663\u0663", "h:\u00b2"):
            raw["devices"]["dev0"]["address"] = address
            env.policy_path.write_text(json.dumps(raw))
            with pytest.raises(PolicyError, match="host:port"):
                Policy.load(str(env.policy_path))

    def test_help_lists_only_deployment_options(self, capsys, env):
        with pytest.raises(SystemExit):
            proverd_main(["--help"])
        flags = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
        assert flags == {"--help", "--listen", "--keystore", "--anchors",
                         "--manifest"}
        assert list(vars(env.config)) == [
            "host", "port", "keystore_path", "anchors_path", "manifest_path"]

    def test_main_reports_missing_inputs(self, tmp_path, capsys):
        rc = proverd_main(["--listen", "127.0.0.1:0",
                           "--keystore", str(tmp_path / "no.hex"),
                           "--anchors", str(tmp_path / "no.json"),
                           "--manifest", str(tmp_path / "no.json")])
        assert rc == 1
        assert "proverd:" in capsys.readouterr().err

    def test_main_refuses_a_port_above_65535_before_boot(self, env, caplog,
                                                         capsys):
        config = env.config
        rc = proverd_main(["--listen", "127.0.0.1:70000",
                           "--keystore", config.keystore_path,
                           "--anchors", config.anchors_path,
                           "--manifest", config.manifest_path])
        assert rc == 1
        assert "0-65535" in capsys.readouterr().err
        assert not any("phase=boot" in r.getMessage() for r in caplog.records)

    def test_main_rejects_bad_listen(self, tmp_path, capsys):
        rc = proverd_main(["--listen", "bad",
                           "--keystore", "k", "--anchors", "a",
                           "--manifest", "m"])
        assert rc == 1
