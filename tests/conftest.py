"""Shared fixtures: deterministic keys, specs, booted systems, daemons."""

from __future__ import annotations

import random

import pytest

from attestsim.attacks import build_env
from attestsim.boot import ProcessSpec, bring_up, default_anchors
from attestsim.crypto import SignKey, SignMode
from attestsim.prover import BackgroundDaemon, ProverRuntime
from attestsim.userland import make_relay_program


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xA77E57)


@pytest.fixture
def up_specs(rng) -> list[ProcessSpec]:
    return [ProcessSpec(pid=pid, binary=rng.randbytes(2048))
            for pid in (1, 2, 3)]


@pytest.fixture(params=[SignMode.HMAC, SignMode.ED25519],
                ids=["hmac", "eddsa"])
def sign_mode(request) -> SignMode:
    return request.param


@pytest.fixture
def sign_key(sign_mode, rng) -> SignKey:
    return SignKey(sign_mode, rng.randbytes(32))


@pytest.fixture
def booted(up_specs, sign_key):
    return bring_up(default_anchors(), up_specs, sign_key, make_relay_program)


@pytest.fixture
def runtime(booted) -> ProverRuntime:
    return ProverRuntime(booted)


@pytest.fixture
def env(tmp_path):
    return build_env(tmp_path / "env")


@pytest.fixture
def daemon(env):
    with BackgroundDaemon(env.config) as d:
        yield d
