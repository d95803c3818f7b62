"""End-to-end acceptance criteria for the simulated attestation device.

Ten checks, one per test, each printing a single PASS/FAIL line with the
measured quantity next to its tolerance. These are deliberately heavier
than the unit suites: real boots, real sockets, full-rate audits. Run
them with ``pytest tests/test_acceptance.py -v``.
"""

from __future__ import annotations

import hashlib
import hmac as stdlib_hmac
import json
import random
import statistics
import struct
import time

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from scipy.stats import spearmanr

from attestsim.attacks import build_env
from attestsim.boot import ProcessSpec, bring_up, default_anchors, measure_binary
from attestsim.channel import (
    CHANNEL_AD_CONFIRM,
    CHANNEL_AD_INIT,
    derive_session_key,
    open_sealed,
    seal,
    x25519_shared,
)
from attestsim.crypto import SignKey, SignMode, sha256
from attestsim.kernel import (
    AuthorityError,
    Call,
    Capability,
    Kernel,
    ProcessApi,
    RegionRequest,
    Rights,
    WxViolationError,
)
from attestsim.prover import BackgroundDaemon, ProverRuntime
from attestsim.signing import STATUS_OK, FrozenMeasurementMap, handle_request
from attestsim.timing import audit_ct_equal, audit_symmetric_verify
from attestsim.userland import make_relay_program
from attestsim.verifier import (
    DevicePolicy,
    Policy,
    SigInvalidError,
    Verifier,
)
from attestsim.wire import (
    AttestRequest,
    AttestResponse,
    ChannelConfirm,
    ChannelInit,
    ErrorMsg,
    FrameStream,
    WireMessage,
    decode,
    encode,
    ERR_INTERNAL,
)


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def fresh_system(mode: SignMode, seed: int = 11, n_up: int = 3,
                 size: int = 2048):
    rng = random.Random(seed)
    specs = [ProcessSpec(pid=i + 1, binary=rng.randbytes(size))
             for i in range(n_up)]
    key = SignKey(mode, rng.randbytes(32))
    booted = bring_up(default_anchors(), specs, key, make_relay_program)
    return specs, key, booted, ProverRuntime(booted)


def policy_for(key: SignKey, specs) -> Policy:
    golden = {s.pid: measure_binary(s.binary) for s in specs}
    return Policy(devices={"dev0": DevicePolicy(
        device_id="dev0", vk=key.verify_key(), golden=golden)})


def independent_sigma(mode: SignMode, secret: bytes, chal: bytes, pk: bytes,
                      m: bytes) -> bytes:
    """Recompose the expected token with nothing from the package's token
    code path: stdlib hmac for one mode, the raw Ed25519 signer for the
    other, over a locally assembled preimage digest."""
    digest = hashlib.sha256(chal + pk + m).digest()
    if mode is SignMode.HMAC:
        return stdlib_hmac.new(secret, digest, hashlib.sha256).digest()
    return Ed25519PrivateKey.from_private_bytes(secret).sign(digest)


# --- 1: boot, attest, verify, both modes, under five seconds --------------

def test_01_end_to_end_both_modes():
    timings = {}
    for mode in (SignMode.HMAC, SignMode.ED25519):
        t0 = time.perf_counter()
        specs, key, booted, runtime = fresh_system(mode)
        verifier = Verifier(policy_for(key, specs))
        chal = verifier.new_challenge()
        reply = runtime.attest_once(2, chal)
        assert reply.status == STATUS_OK
        expected = independent_sigma(mode, key.secret_bytes(), chal, reply.pk,
                                     measure_binary(specs[1].binary))
        assert reply.sigma == expected, "sigma differs from independent composition"
        resp = AttestResponse(status=0, pid=2, pk=reply.pk, sigma=reply.sigma)
        result = verifier.check_response("dev0", 2, chal, resp)
        assert result.pid == 2
        timings[mode.value] = time.perf_counter() - t0
    ok = all(t < 5.0 for t in timings.values())
    verdict(1, "end-to-end attest accepted", ok,
            "sigma byte-equal to independent recomputation; "
            + ", ".join(f"{m}={t:.2f}s" for m, t in timings.items())
            + " (tolerance <5s each)")


# --- 2: only the right key with the right binary is accepted --------------

def test_02_key_binary_lattice(tmp_path):
    outcomes = {}
    for right_key in (True, False):
        for right_binary in (True, False):
            work = tmp_path / f"k{int(right_key)}b{int(right_binary)}"
            policy_key = None if right_key else SignKey(SignMode.HMAC,
                                                        b"\x66" * 32)
            env = build_env(work, policy_key=policy_key)
            if not right_binary:
                alt = env.root / "bin" / "up_1_alt.bin"
                alt.write_bytes(b"\x5c" * 4096)
                manifest = json.loads((env.root / "manifest.json").read_text())
                for entry in manifest:
                    if entry["pid"] == 1:
                        entry["binary"] = "bin/up_1_alt.bin"
                (env.root / "manifest.json").write_text(json.dumps(manifest))
            verifier = Verifier(Policy.load(str(env.policy_path)))
            with BackgroundDaemon(env.config) as daemon:
                with FrameStream.connect(*daemon.address, timeout=5) as stream:
                    try:
                        result = verifier.attest("dev0", 1, stream)
                        outcomes[(right_key, right_binary)] = "accepted"
                    except SigInvalidError:
                        outcomes[(right_key, right_binary)] = "rejected"
    ok = (outcomes[(True, True)] == "accepted"
          and all(v == "rejected" for c, v in outcomes.items() if c != (True, True)))
    verdict(2, "key/binary acceptance lattice", ok,
            "accepted only at (right key, right binary); lattice="
            + str({f"k{int(k)}b{int(b)}": v for (k, b), v in outcomes.items()}))


# --- 3: random single-bit tamper, 256 boots, total rejection --------------

def test_03_single_bit_tamper_sweep():
    rng = random.Random(0x7A3)
    base = rng.randbytes(1024)
    key = SignKey(SignMode.HMAC, rng.randbytes(32))
    policy = Policy(devices={"dev0": DevicePolicy(
        device_id="dev0", vk=key.verify_key(),
        golden={1: measure_binary(base)})})
    verifier = Verifier(policy)

    # control: the untampered binary must be accepted
    runtime = ProverRuntime(bring_up(
        default_anchors(), [ProcessSpec(pid=1, binary=base)], key,
        make_relay_program))
    chal = verifier.new_challenge()
    reply = runtime.attest_once(1, chal)
    verifier.check_response("dev0", 1, chal, AttestResponse(
        status=0, pid=1, pk=reply.pk, sigma=reply.sigma))

    runs, rejected = 256, 0
    for _ in range(runs):
        pos = rng.randrange(len(base))
        bit = 1 << rng.randrange(8)
        tampered = base[:pos] + bytes([base[pos] ^ bit]) + base[pos + 1:]
        rt = ProverRuntime(bring_up(
            default_anchors(), [ProcessSpec(pid=1, binary=tampered)], key,
            make_relay_program))
        chal = verifier.new_challenge()
        reply = rt.attest_once(1, chal)
        try:
            verifier.check_response("dev0", 1, chal, AttestResponse(
                status=0, pid=1, pk=reply.pk, sigma=reply.sigma))
        except SigInvalidError:
            rejected += 1
    verdict(3, "single-bit tamper rejection", rejected == runs,
            f"{rejected}/{runs} tampered boots rejected (tolerance: all)")


# --- 4: signer state is invariant under a mixed workload ------------------

def test_04_signer_state_invariant():
    rng = random.Random(0xC4)
    specs, key, booted, runtime = fresh_system(SignMode.HMAC, seed=21)
    snap_before = booted.sp_state.snapshot()
    last: dict[int, tuple[bytes, bytes, bytes]] = {}

    def do_attest() -> None:
        pid = rng.choice([1, 2, 3])
        chal = rng.randbytes(32)
        reply = runtime.attest_once(pid, chal)
        assert reply.status == STATUS_OK
        last[pid] = (chal, reply.pk, reply.sigma)

    def do_channel_ok() -> None:
        pid = rng.choice(sorted(last))
        chal, pk, sigma = last[pid]
        eph = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
        session = derive_session_key(eph, pk, chal + pk + sigma)
        token = rng.randbytes(32)
        nonce = rng.randbytes(12)
        out = runtime.channel_once(pid, chal, sigma, ChannelInit(
            eph_pk=eph.public_key().public_bytes_raw(), nonce=nonce,
            ct=seal(session, nonce, token, CHANNEL_AD_INIT)))
        echoed = open_sealed(session, out.nonce, out.ct, CHANNEL_AD_CONFIRM)
        assert echoed == token

    def do_channel_garbage() -> None:
        pid = rng.choice([1, 2, 3])
        chal, _, sigma = last[pid]
        eph = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
        runtime.channel_once(pid, chal, sigma, ChannelInit(
            eph_pk=eph.public_key().public_bytes_raw(),
            nonce=rng.randbytes(12), ct=rng.randbytes(48)))

    def do_malformed_direct() -> None:
        # straight at the signer's total request handler
        badge = rng.choice([0, 1, 2, 3, 7, 2**64 - 1])
        msg_len = rng.choice([0, 1, 7, 9, 120])
        regs = [rng.randrange(2**64) for _ in range(8)]
        handle_request(booted.sp_state, badge, msg_len, regs)

    for pid in (1, 2, 3):
        chal = rng.randbytes(32)
        reply = runtime.attest_once(pid, chal)
        last[pid] = (chal, reply.pk, reply.sigma)
    plan = (["attest"] * 600 + ["chan_ok"] * 150 + ["chan_garbage"] * 150
            + ["malformed"] * 100)
    rng.shuffle(plan)
    dispatch = {"attest": do_attest, "chan_ok": do_channel_ok,
                "chan_garbage": do_channel_garbage,
                "malformed": do_malformed_direct}
    for op in plan:
        dispatch[op]()
    snap_after = booted.sp_state.snapshot()
    ok = snap_after == snap_before
    verdict(4, "signer state invariant", ok,
            f"snapshot identical across {len(plan) + 3} mixed requests "
            f"(600 attest / 150 channel / 150 garbage / 100 malformed)")


# --- 5: published primitive vectors reproduce exactly ---------------------

def test_05_standards_vectors():
    checks = 0
    for msg, want in [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    ]:
        assert sha256(msg).hex() == want
        checks += 1
    for k, data, want in [
        (b"\x0b" * 20, b"Hi There",
         "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
        (b"Jefe", b"what do ya want for nothing?",
         "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    ]:
        assert stdlib_hmac.new(k, data, hashlib.sha256).hexdigest() == want
        checks += 1
    for seed, pk, msg, sig in [
        ("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
         "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
         "",
         "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
         "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"),
        ("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
         "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
         "af82",
         "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
         "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"),
    ]:
        key = SignKey(SignMode.ED25519, bytes.fromhex(seed))
        assert key.verify_key().material.hex() == pk
        assert key.sign_digest(bytes.fromhex(msg)).hex() == sig
        checks += 2
    shared = x25519_shared(
        X25519PrivateKey.from_private_bytes(bytes.fromhex(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")),
        bytes.fromhex("e6db6867583030db3594c1a424b15f7c"
                      "726624ec26b3353b10a903a6d0ab1c4c"))
    assert shared.hex() == ("c3da55379de9c6908e94ea4df28d084f"
                            "32eccf03491c71f754b4075577a28552")
    checks += 1
    verdict(5, "published vectors reproduced", True,
            f"{checks} SHA-256 / HMAC-SHA256 / Ed25519 / X25519 vectors exact")


# --- 6: symmetric mode is cheaper per round than the signature mode -------

def test_06_mode_latency_order():
    medians = {}
    for mode in (SignMode.HMAC, SignMode.ED25519):
        _, _, _, runtime = fresh_system(mode, seed=31)
        rng = random.Random(0x6E)
        times = []
        for _ in range(150):
            chal = rng.randbytes(32)
            t0 = time.perf_counter_ns()
            runtime.attest_once(1, chal)
            times.append(time.perf_counter_ns() - t0)
        medians[mode.value] = statistics.median(times) / 1e3
    ok = medians["hmac"] < medians["eddsa"]
    verdict(6, "hmac round cheaper than eddsa", ok,
            f"median hmac={medians['hmac']:.1f}us < eddsa={medians['eddsa']:.1f}us "
            f"over 150 rounds each")


# --- 7: boot time scales with what there is to measure --------------------

def test_07_boot_time_scales_with_process_count():
    rng = random.Random(0x7B)
    blobs = [rng.randbytes(512 * 1024) for _ in range(10)]
    key = SignKey(SignMode.HMAC, rng.randbytes(32))
    counts, medians = [], []
    for n in range(1, 11):
        specs = [ProcessSpec(pid=i + 1, binary=blobs[i]) for i in range(n)]
        bring_up(default_anchors(), specs, key, make_relay_program)  # warmup, discarded
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            bring_up(default_anchors(), specs, key, make_relay_program)
            runs.append(time.perf_counter() - t0)
        counts.append(n)
        medians.append(statistics.median(runs))
    rho = float(spearmanr(counts, medians).correlation)
    verdict(7, "boot scaling monotone", rho > 0.9,
            f"Spearman rho={rho:.3f} over 1..10 processes of 512 KiB "
            f"(tolerance >0.9)")


# --- 8: secret-dependent comparisons stay flat at full sample size --------

def test_08_comparator_flatness_full_scale():
    r1 = audit_ct_equal(samples=100_000)
    r2 = audit_symmetric_verify(samples=100_000)
    ok = r1.flat(10.0) and r2.flat(10.0)
    verdict(8, "comparison timing flat", ok,
            f"|t|: ct_equal={abs(r1.t_stat):.2f}, "
            f"hmac_verify={abs(r2.t_stat):.2f} "
            f"at 100000 samples/class (tolerance <10)")


# --- 9: the daemon survives bulk fuzz; the codec round-trips --------------

def _random_frame(rng: random.Random) -> bytes:
    if rng.random() < 0.05:
        pid = rng.choice([1, 2])
        return struct.pack(">IBQ", 40, 0x01, pid) + rng.randbytes(32)
    length = rng.randrange(0, 120)
    return struct.pack(">IB", length, rng.randrange(256)) + rng.randbytes(length)


def _recv_frame(sock) -> bytes:
    buf = b""
    while len(buf) < 5:
        chunk = sock.recv(5 - len(buf))
        if not chunk:
            raise ConnectionError("eof during header")
        buf += chunk
    length = struct.unpack(">I", buf[:4])[0]
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            raise ConnectionError("eof during payload")
        body += chunk
    return buf + body


def _random_message(rng: random.Random) -> WireMessage:
    kind = rng.randrange(5)
    if kind == 0:
        return AttestRequest(pid=rng.randrange(2**64), chal=rng.randbytes(32))
    if kind == 1:
        return AttestResponse(status=rng.randrange(256),
                              pid=rng.randrange(2**64),
                              pk=rng.randbytes(32),
                              sigma=rng.choice([b"", rng.randbytes(32),
                                                rng.randbytes(64)]))
    if kind == 2:
        return ChannelInit(eph_pk=rng.randbytes(32), nonce=rng.randbytes(12),
                           ct=rng.randbytes(16 + rng.randrange(200)))
    if kind == 3:
        return ChannelConfirm(nonce=rng.randbytes(12),
                              ct=rng.randbytes(16 + rng.randrange(200)))
    return ErrorMsg(code=rng.randrange(256))


def test_09_bulk_fuzz_and_codec(tmp_path):
    import socket as socketlib
    rng = random.Random(0x9F)
    for _ in range(10_000):
        msg = _random_message(rng)
        assert decode(encode(msg)) == msg

    env = build_env(tmp_path / "fuzzenv")
    total, chunk, internal_faults = 100_000, 200, 0
    sent = 0
    with BackgroundDaemon(env.config) as daemon:
        while sent < total:
            sock = socketlib.create_connection(daemon.address, timeout=15)
            try:
                for _ in range(25):
                    if sent >= total:
                        break
                    n = min(chunk, total - sent)
                    sock.sendall(b"".join(_random_frame(rng) for _ in range(n)))
                    for _ in range(n):
                        reply = decode(_recv_frame(sock))
                        if reply == ErrorMsg(code=ERR_INTERNAL):
                            internal_faults += 1
                    sent += n
            finally:
                sock.close()
        alive = daemon.thread.is_alive()
        verifier = Verifier(Policy.load(str(env.policy_path)))
        with FrameStream.connect(*daemon.address, timeout=5) as stream:
            final = verifier.attest("dev0", 1, stream)
    ok = sent == total and internal_faults == 0 and alive and final.pid == 1
    verdict(9, "daemon survives bulk fuzz", ok,
            f"{sent} frames answered in protocol, {internal_faults} internal "
            f"faults, daemon alive and still attesting; 10000 codec roundtrips")


# --- 10: the isolation story holds structurally ---------------------------

def test_10_structural_guarantees():
    notes = []

    api_surface = {n for n in dir(ProcessApi) if not n.startswith("_")}
    assert api_surface == {"get_mr", "set_mr", "reply", "net_send"}
    notes.append("process API minimal")

    cap = Capability(kind="endpoint", obj=0, rights=Rights(), badge=0)
    with pytest.raises(Exception):
        cap.badge = 9  # type: ignore[misc]
    notes.append("capability frozen")

    assert set(Call.__slots__) == {"cap", "msg_len"}
    assert not hasattr(Call(1, 0), "__dict__")
    notes.append("no badge in send syscall")

    mmap = FrozenMeasurementMap([(1, b"\x00" * 32)])
    public = {n for n in dir(mmap) if not n.startswith("_")}
    assert public == {"lookup", "entries", "serialize"}
    with pytest.raises(AttributeError):
        mmap.extra = 1  # type: ignore[attr-defined]
    notes.append("measurement map sealed")

    kernel = Kernel()
    with pytest.raises(WxViolationError):
        kernel.spawn_process(1, b"\x90", (
            RegionRequest("self_code",
                          Rights(read=True, write=True, execute=True)),))
    notes.append("W^X at spawn")

    rng = random.Random(0xA10)
    specs = [ProcessSpec(pid=1, binary=rng.randbytes(512))]
    key = SignKey(SignMode.HMAC, rng.randbytes(32))
    booted = bring_up(default_anchors(), specs, key, make_relay_program)
    with pytest.raises(AuthorityError):
        booted.kernel.spawn_process(9, b"\x00")
    notes.append("authority dropped")

    secret = key.secret_bytes()
    assert secret.hex() not in repr(key)
    assert secret.hex() not in repr(booted)
    assert booted.sp_state.sign_key.secret_bytes() == secret
    words = {struct.unpack(">Q", secret[i:i + 8])[0] for i in range(0, 32, 8)}
    for pid in booted.kernel.live_pids():
        assert not words & set(booted.kernel.registers(pid)), \
            f"key material visible in pid {pid} registers"
    notes.append("key confined to signer state")

    verdict(10, "structural guarantees", True, "; ".join(notes))
