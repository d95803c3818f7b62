"""Hook points: the per-layer spans of the benchmark wrap module and class
attributes by name (``perfbench/launcher.py`` on the daemon side,
``perfbench/workloads.py`` on the verifier side). Each test here wraps
the same names with a counter and checks that every one is still reached,
through that attribute, once per operation. A refactor that bypasses one
would otherwise zero its per-layer metric without any test failing."""

from __future__ import annotations

import os
import socket
import threading
from collections import Counter

import pytest

import attestsim.crypto as crypto
import attestsim.kernel as kernel
import attestsim.prover as prover
import attestsim.signing as signing
import attestsim.userland as userland
import attestsim.verifier as verifier
from attestsim.boot import measure_binary
from attestsim.channel import (
    CHANNEL_AD_INIT,
    NONCE_LEN,
    derive_session_key,
    seal,
    x25519_keypair,
)
from attestsim.crypto import SignMode
from attestsim.prover import BackgroundDaemon
from attestsim.verifier import DevicePolicy, Policy, Verifier
from attestsim.wire import ChannelConfirm, ChannelInit, FrameStream

ROUNDS = 5


@pytest.fixture
def counts(monkeypatch):
    """``hook(owner, name, when=None)`` wraps ``owner.name`` so that each
    call that returns (and for which ``when()`` holds) bumps
    ``counts[name]``."""
    tally: Counter = Counter()

    def hook(owner, name, when=None):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            result = inner(*args, **kwargs)
            if when is None or when():
                tally[name] += 1
            return result

        monkeypatch.setattr(owner, name, counted)

    tally.hook = hook
    return tally


def test_device_hooks_once_per_attest_once(runtime, counts):
    counts.hook(signing, "attest_token")
    counts.hook(signing, "handle_request")
    counts.hook(kernel.Kernel, "run")
    for i in range(ROUNDS):
        runtime.attest_once(1 + i % 3, os.urandom(32))
    assert counts == {"attest_token": ROUNDS, "handle_request": ROUNDS,
                      "run": ROUNDS}


def test_relay_channel_crypto_once_per_channel_once(runtime, counts):
    counts.hook(userland, "derive_session_key")
    counts.hook(userland, "seal")
    counts.hook(userland, "open_sealed")
    for _ in range(ROUNDS):
        chal = os.urandom(32)
        resp = runtime.attest_once(2, chal)
        eph, eph_pk = x25519_keypair()
        key = derive_session_key(eph, resp.pk, chal + resp.pk + resp.sigma)
        nonce = os.urandom(NONCE_LEN)
        init = ChannelInit(eph_pk, nonce, seal(key, nonce, os.urandom(32),
                                               CHANNEL_AD_INIT))
        assert isinstance(runtime.channel_once(2, chal, resp.sigma, init),
                          ChannelConfirm)
    assert counts == {"derive_session_key": ROUNDS, "seal": ROUNDS,
                      "open_sealed": ROUNDS}


def test_verify_token_once_per_check_response(runtime, up_specs, sign_key,
                                              counts):
    golden = {s.pid: measure_binary(s.binary) for s in up_specs}
    v = Verifier(Policy({"d": DevicePolicy("d", sign_key.verify_key(), golden)}))
    counts.hook(verifier, "verify_token")
    for _ in range(ROUNDS):
        chal = v.new_challenge()
        v.check_response("d", 3, chal, runtime.attest_once(3, chal))
    assert counts == {"verify_token": ROUNDS}


@pytest.mark.parametrize("sign_mode", [SignMode.HMAC], ids=["hmac"])
def test_ct_equal_once_per_hmac_check_response(runtime, up_specs, sign_key,
                                               counts):
    golden = {s.pid: measure_binary(s.binary) for s in up_specs}
    v = Verifier(Policy({"d": DevicePolicy("d", sign_key.verify_key(), golden)}))
    counts.hook(crypto, "ct_equal")
    for _ in range(ROUNDS):
        chal = v.new_challenge()
        v.check_response("d", 3, chal, runtime.attest_once(3, chal))
    assert counts == {"ct_equal": ROUNDS}


def test_daemon_hooks_once_per_frame(env, counts):
    v = Verifier(Policy.load(str(env.policy_path)))
    d = BackgroundDaemon(env.config)
    counts.hook(prover, "decode_payload")
    counts.hook(prover, "encode")
    counts.hook(socket.socket, "recv",
                when=lambda: threading.current_thread() is d.thread)
    with d:
        with FrameStream.connect(*d.address, timeout=5.0) as stream:
            for i in range(ROUNDS):
                assert v.attest("dev0", 1 + i % 2, stream).pid == 1 + i % 2
    # shutdown waits for the handler, so the read that saw EOF has returned
    assert counts == {"decode_payload": ROUNDS, "encode": ROUNDS,
                      "recv": ROUNDS + 1}
