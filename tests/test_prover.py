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
from dataclasses import fields

import pytest

from attestsim.attacks import build_env
from attestsim.crypto import AttestToken, SignMode, verify_token, x25519_public_key
import attestsim.prover as prover
from attestsim.prover import (
    BackgroundDaemon,
    ProverConfig,
    build_runtime,
    main as proverd_main,
)
from attestsim.verifier import ConfirmFailedError, Policy, PolicyError, Verifier
from attestsim.wire import (
    ERR_BAD_REQUEST,
    ERR_NO_CONTEXT,
    ERR_UNKNOWN_PID,
    MAX_PAYLOAD,
    AttestRequest,
    AttestResponse,
    ChannelConfirm,
    ChannelInit,
    ErrorMsg,
    FrameStream,
    encode,
    parse_address,
)


class TestBuildRuntime:
    def test_boots_from_files(self, env):
        runtime = build_runtime(env.config)
        assert runtime.up_pids == {1, 2}
        assert runtime.report.mode == SignMode.HMAC.value

    def test_missing_keystore(self, env):
        config = ProverConfig(**{**env.config.__dict__,
                                 "keystore_path": str(env.root / "absent.hex")})
        with pytest.raises(OSError):
            build_runtime(config)


class TestRuntimeInjection:
    def test_unknown_pid(self, runtime):
        with pytest.raises(KeyError):
            runtime.attest_once(42, bytes(32))

    def test_bad_chal_length(self, runtime):
        with pytest.raises(ValueError):
            runtime.attest_once(1, b"short")

    def test_reply_verifies(self, runtime, sign_key, booted):
        chal = b"\x21" * 32
        reply = runtime.attest_once(1, chal)
        m = booted.report.digest_of(1)
        token = AttestToken(sign_key.mode, reply.sigma)
        assert reply.status == 0
        assert verify_token(sign_key.verify_key(), chal, reply.pk, m, token)


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

    def test_channel_before_attest_has_no_context(self, daemon):
        init = ChannelInit(eph_pk=x25519_public_key(b"\x01" * 32),
                           nonce=bytes(12), ct=bytes(16))
        with connect(daemon) as stream:
            stream.send(init)
            reply = stream.recv()
        assert reply == ErrorMsg(code=ERR_NO_CONTEXT)

    @pytest.mark.parametrize("msg", [
        AttestResponse(status=0, pid=1, pk=bytes(32), sigma=b"\x00" * 32),
        ChannelConfirm(nonce=bytes(12), ct=bytes(16)),
        ErrorMsg(code=1),
    ], ids=["response", "confirm", "error"])
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
            assert stream.recv(allow_eof=True) is None

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
            m = daemon.runtime.report.digest_of(pid)
            assert verify_token(vk, chal, reply.pk, m,
                                AttestToken(vk.mode, reply.sigma))

    def test_frames_before_oversize_header_are_answered(self, daemon):
        with connect(daemon) as stream:
            stream.send_raw(
                encode(AttestRequest(pid=1, chal=bytes(32)))
                + encode(AttestRequest(pid=2, chal=bytes(32)))
                + struct.pack(">IB", MAX_PAYLOAD + 1, 0x01))
            first, second = stream.recv(), stream.recv()
            assert stream.recv() == ErrorMsg(code=ERR_BAD_REQUEST)
            assert stream.recv(allow_eof=True) is None
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


class TestCliPlumbing:
    def test_daemon_does_not_load_numpy(self):
        """The daemon's import closure holds device code only: no numpy,
        no verifier, attack harness or timing audit, and no key
        serialization (which pulls in the ssh/ec/rsa/dsa modules)."""
        banned = ["numpy", "attestsim.verifier", "attestsim.attacks",
                  "attestsim.timing", "cryptography.hazmat.primitives.serialization"]
        code = ("import sys, attestsim.prover; "
                f"print(sorted(set({banned!r}) & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("listen", ["127.0.0.1:7411", "0.0.0.0:0"])
    def test_parse_listen(self, listen):
        host, port = parse_address(listen)
        assert listen == f"{host}:{port}"

    @pytest.mark.parametrize("listen", ["nohost", ":7411", "h:port", ""])
    def test_parse_listen_rejects(self, listen):
        with pytest.raises(ValueError):
            parse_address(listen)

    def test_policy_address_rejects(self, env):
        raw = json.loads(env.policy_path.read_text())
        raw["devices"]["dev0"]["address"] = "h:port"
        env.policy_path.write_text(json.dumps(raw))
        with pytest.raises(PolicyError, match="host:port"):
            Policy.load(str(env.policy_path))

    def test_help_lists_only_deployment_options(self, capsys):
        with pytest.raises(SystemExit):
            proverd_main(["--help"])
        flags = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
        assert flags == {"--help", "--listen", "--keystore", "--anchors",
                         "--manifest"}
        assert [f.name for f in fields(ProverConfig)] == [
            "host", "port", "keystore_path", "anchors_path", "manifest_path"]

    def test_main_reports_missing_inputs(self, tmp_path, capsys):
        rc = proverd_main(["--listen", "127.0.0.1:0",
                           "--keystore", str(tmp_path / "no.hex"),
                           "--anchors", str(tmp_path / "no.json"),
                           "--manifest", str(tmp_path / "no.json")])
        assert rc == 1
        assert "proverd:" in capsys.readouterr().err

    def test_main_rejects_bad_listen(self, tmp_path, capsys):
        rc = proverd_main(["--listen", "bad",
                           "--keystore", "k", "--anchors", "a",
                           "--manifest", "m"])
        assert rc == 1
