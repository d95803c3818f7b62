"""Adversarial scenario harness: each attack runs and must be stopped.

Every scenario stands up whatever environment it needs (usually a real
daemon on a loopback port), performs the attack, and checks that the
defense that should stop it actually does. A scenario passes when the
attack FAILS in the expected way. Wire frames and key decisions are
recorded in a transcript for offline reading.
"""

from __future__ import annotations

import argparse
import logging
import random
import socket
import struct
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from . import boot as bootmod
from .boot import bring_up, default_anchors, secure_boot
from .crypto import SignKey, SignMode
from .kernel import Call, NetRecv
from .prover import BackgroundDaemon, ProverConfig, ProverRuntime
from .provision import DEVICE, load_keystore, load_user_manifest, write_device
from .signing import STATUS_MALFORMED, WORDS
from .timing import audit_comparator, audit_ct_equal
from .userland import make_relay_program
from .verifier import (
    AttestFailure,
    ConfirmFailedError,
    Policy,
    ReplayDetectedError,
    SigInvalidError,
    StaleChallengeError,
    Verifier,
)
from .wire import (
    AttestRequest,
    AttestResponse,
    ChannelConfirm,
    ChannelInit,
    FrameStream,
    encode,
)

FUZZ_OVERSIZE_LEN = 5000      # deliberately past the 4096 payload cap
ENV_PIDS = (1, 2)             # user processes every harness device runs
ENV_SEED = 7                  # seeds the binaries and the device key
STREAM_TIMEOUT = 5.0          # seconds per connect, read and write


@dataclass
class ScenarioResult:
    name: str
    ok: bool
    expected: str
    observed: str
    transcript: list[str]


class RecordingStream(FrameStream):
    """FrameStream that mirrors traffic into a transcript, hex per frame."""

    def __init__(self, sock: socket.socket, transcript: list[str]):
        super().__init__(sock)
        self.transcript = transcript

    @classmethod
    def connect_to(cls, address: tuple[str, int], transcript: list[str]
                   ) -> "RecordingStream":
        sock = socket.create_connection(address, timeout=STREAM_TIMEOUT)
        return cls(sock, transcript)

    def send_raw(self, data: bytes) -> None:
        self.transcript.append(f">> {data.hex()}")
        super().send_raw(data)

    def recv(self):
        msg = super().recv()
        self.transcript.append(f"<< {encode(msg).hex()}")
        return msg


@dataclass
class HarnessEnv:
    root: Path
    config: ProverConfig
    policy_path: Path
    key: SignKey
    binaries: dict[int, Path]


def build_env(root: Path, mode: SignMode = SignMode.HMAC,
              policy_key: Optional[SignKey] = None) -> HarnessEnv:
    """Lay out keystore, anchors, binaries, manifest, and policy on disk."""
    files = write_device(root, ENV_PIDS, mode, random.Random(ENV_SEED), policy_key)
    config = ProverConfig(
        host="127.0.0.1", port=0, keystore_path=str(files.keystore),
        anchors_path=str(files.anchors), manifest_path=str(files.manifest))
    return HarnessEnv(root=root, config=config, policy_path=files.policy,
                      key=files.key, binaries=files.binaries)


# --- scenarios ------------------------------------------------------------

Outcome = tuple[bool, str, str]


def expect_refusal(t: list[str], expected: type[Exception],
                   attack: Callable[[], object], if_accepted: str,
                   label: str = "verdict",
                   other: type[Exception] = AttestFailure) -> Outcome:
    """Run ``attack``, which is stopped when it raises ``expected``. A fail
    names the ``other`` exception raised instead, or ``if_accepted``."""
    name = expected.__name__
    try:
        attack()
    except expected as e:
        t.append(f"{label}: {e}")
        return True, name, name
    except other as e:
        return False, name, type(e).__name__
    return False, name, if_accepted


def capture_response(env: HarnessEnv, verifier: Verifier, t: list[str]
                     ) -> tuple[bytes, AttestResponse]:
    """Pid 1's answer to a new challenge, from a daemon stopped after it."""
    with BackgroundDaemon(env.config) as daemon:
        with RecordingStream.connect_to(daemon.address, t) as stream:
            chal = verifier.new_challenge()
            stream.send(AttestRequest(pid=1, chal=chal))
            return chal, stream.recv()


def scenario_replay(work: Path, t: list[str]) -> Outcome:
    env = build_env(work)
    verifier = Verifier(Policy.load(str(env.policy_path)))
    chal, resp = capture_response(env, verifier, t)
    result = verifier.check_response(DEVICE, 1, chal, resp)
    t.append(f"first presentation accepted, sigma={result.sigma.hex()[:32]}...")
    return expect_refusal(
        t, ReplayDetectedError,
        lambda: verifier.check_response(DEVICE, 1, chal, resp),
        "accepted twice", label="second presentation")


def scenario_stale_challenge(work: Path, t: list[str]) -> Outcome:
    env = build_env(work)
    now = [1000.0]
    verifier = Verifier(Policy.load(str(env.policy_path)), ttl=30.0,
                        clock=lambda: now[0])
    chal, resp = capture_response(env, verifier, t)
    now[0] += 31.0
    t.append("clock advanced 31s past issue (ttl 30s)")
    return expect_refusal(
        t, StaleChallengeError,
        lambda: verifier.check_response(DEVICE, 1, chal, resp),
        "accepted stale")


def scenario_tamper_binary(work: Path, t: list[str]) -> Outcome:
    """Flip one bit of a user binary on disk, reboot, attest again."""
    env = build_env(work)
    verifier = Verifier(Policy.load(str(env.policy_path)))
    with BackgroundDaemon(env.config) as daemon:
        with RecordingStream.connect_to(daemon.address, t) as stream:
            verifier.attest(DEVICE, 1, stream)
    t.append("baseline attestation accepted; daemon stopped")
    raw = bytearray(env.binaries[1].read_bytes())
    raw[100] ^= 0x01
    env.binaries[1].write_bytes(bytes(raw))
    t.append("flipped bit 0 of byte 100 in up_1.bin; restarting daemon")
    with BackgroundDaemon(env.config) as daemon:
        with RecordingStream.connect_to(daemon.address, t) as stream:
            outcome = expect_refusal(
                t, SigInvalidError, lambda: verifier.attest(DEVICE, 1, stream),
                "tampered binary accepted")
        if outcome[0]:
            # the untampered sibling must still pass after the reboot
            with RecordingStream.connect_to(daemon.address, t) as s2:
                verifier.attest(DEVICE, 2, s2)
            t.append("untampered pid 2 still accepted")
    return outcome


def scenario_tamper_boot_image(work: Path, t: list[str]) -> Outcome:
    bad_kernel = bytearray(bootmod.KERNEL_IMAGE)
    bad_kernel[0] ^= 0xFF
    t.append("corrupted first byte of the kernel image")
    # any other exception is reported by name, whatever surfaced
    return expect_refusal(
        t, bootmod.KernelHashMismatchError,
        lambda: secure_boot(default_anchors(), kernel_image=bytes(bad_kernel)),
        "corrupted image booted", label="boot refused", other=Exception)


def scenario_wrong_key(work: Path, t: list[str]) -> Outcome:
    """Device signs with a key the policy does not trust."""
    rogue_policy_key = SignKey(SignMode.HMAC, random.Random(99).randbytes(32))
    env = build_env(work, policy_key=rogue_policy_key)
    t.append("policy verify key differs from device keystore")
    verifier = Verifier(Policy.load(str(env.policy_path)))
    with BackgroundDaemon(env.config) as daemon:
        with RecordingStream.connect_to(daemon.address, t) as stream:
            return expect_refusal(
                t, SigInvalidError, lambda: verifier.attest(DEVICE, 1, stream),
                "untrusted key accepted")


def scenario_badge_forge(work: Path, t: list[str]) -> Outcome:
    """A process tries to pass itself off as another pid.

    There is no badge parameter anywhere in the send path, so the only
    lever is payload. The signing process ignores payload for identity:
    the rogue gets a signature over its OWN measurement, which the
    verifier refuses to accept for the target pid.
    """
    if "badge" in Call.__slots__ or hasattr(Call(0, 0), "__dict__"):
        return False, "no badge field on Call", "Call exposes a badge field"
    t.append(f"send syscall surface: fields {list(Call.__slots__)} (no badge)")
    env = build_env(work)
    verifier = Verifier(Policy.load(str(env.policy_path)))
    target_digest_pid = 2
    # rogue pid 1 answers; adversary relabels the response as pid 2
    chal, resp = capture_response(env, verifier, t)
    forged = AttestResponse(status=resp.status, pid=target_digest_pid,
                            pk=resp.pk, sigma=resp.sigma)
    t.append("relabeled pid-1 response as pid 2")
    return expect_refusal(
        t, SigInvalidError,
        lambda: verifier.check_response(DEVICE, target_digest_pid, chal, forged),
        "forged identity accepted")


def scenario_malformed_ipc(work: Path, t: list[str]) -> Outcome:
    """A rogue program sends a short request; the signer must answer with
    a malformed status and keep serving everyone else."""
    env = build_env(work)

    def factory(spec, sp_cap):
        if spec.pid == 1:
            def rogue(ctx):
                while True:
                    event = yield NetRecv()
                    for i, word in enumerate(
                            WORDS[5].unpack(event.chal + bytes(8))):
                        ctx.set_mr(i, word)
                    reply_len = yield Call(sp_cap, 5)   # 8 is well-formed
                    status = ctx.get_mr(0)
                    sigma = WORDS[reply_len - 1].pack(
                        *[ctx.get_mr(i) for i in range(1, reply_len)])
                    ctx.net_send(
                        AttestResponse(status, event.pid, bytes(32), sigma))
            return rogue
        return make_relay_program(spec, sp_cap)

    key = load_keystore(env.config.keystore_path)
    specs = load_user_manifest(env.config.manifest_path)
    system = bring_up(default_anchors(), specs, key, up_program_factory=factory)
    runtime = ProverRuntime(system)
    reply = runtime.attest_once(1, bytes(32))
    t.append(f"5-register request answered with status={reply.status}")
    if reply.status != STATUS_MALFORMED:
        return False, f"status {STATUS_MALFORMED}", f"status {reply.status}"
    good = runtime.attest_once(2, bytes(range(32)))
    t.append(f"follow-up valid request from pid 2: status={good.status}")
    if good.status != 0:
        return False, "signer survives", f"status {good.status} after malformed"
    t.append("kernel trace tail: "
             + "; ".join(str(e) for e in list(runtime.kernel.trace)[-6:]))
    return True, f"status {STATUS_MALFORMED}, signer survives", \
        f"status {reply.status}, signer survives"


def scenario_wire_fuzz(work: Path, t: list[str]) -> Outcome:
    """Throw random and near-valid garbage frames at a live daemon."""
    env = build_env(work)
    rng = random.Random(0xF022)
    verifier = Verifier(Policy.load(str(env.policy_path)))
    frames = 2000
    answered = dropped = 0
    with BackgroundDaemon(env.config) as daemon:
        stream: Optional[FrameStream] = None
        for i in range(frames):
            if stream is None:
                stream = FrameStream.connect(*daemon.address, timeout=STREAM_TIMEOUT)
            kind = rng.randrange(3)
            if kind == 0:       # valid header, random payload
                mtype = rng.randrange(0, 8)
                payload = rng.randbytes(rng.randrange(0, 128))
                raw = struct.pack(">IB", len(payload), mtype) + payload
            elif kind == 1:     # random but in-sync length
                payload = rng.randbytes(rng.randrange(0, 64))
                raw = struct.pack(">IB", len(payload), rng.randrange(256)) + payload
            else:               # oversize declaration: daemon drops us
                raw = struct.pack(">IB", FUZZ_OVERSIZE_LEN, 0x01)
            try:
                stream.send_raw(raw)
                stream.recv()
                answered += 1
            except Exception:
                dropped += 1
                stream.close()
                stream = None
        if stream is not None:
            stream.close()
        t.append(f"sent {frames} fuzz frames: {answered} answered, "
                 f"{dropped} dropped with the connection")
        with RecordingStream.connect_to(daemon.address, t) as s:
            result = verifier.attest(DEVICE, 1, s)
    t.append(f"daemon still attests correctly: sigma={result.sigma.hex()[:32]}...")
    return True, "daemon answers or drops, then still serves", \
        f"{answered} answered / {dropped} dropped, still serving"


def scenario_channel_theft(work: Path, t: list[str]) -> Outcome:
    """Adversary replays a captured (pk, sigma) but lacks the private key."""
    env = build_env(work)
    verifier = Verifier(Policy.load(str(env.policy_path)))
    with BackgroundDaemon(env.config) as daemon:
        with RecordingStream.connect_to(daemon.address, t) as stream:
            result = verifier.attest(DEVICE, 1, stream)
            session = verifier.establish_channel(result, stream)
            t.append(f"honest channel established: {session!r}")

        # now the adversary, holding only what went over the wire,
        # answers a fresh channel bootstrap itself
        with RecordingStream.connect_to(daemon.address, t) as stream:
            result = verifier.attest(DEVICE, 1, stream)
        left, right = socket.socketpair()
        rng = random.Random(0xBAD)

        def adversary() -> None:
            fs = FrameStream(right)
            try:
                init = fs.recv()
                assert isinstance(init, ChannelInit)
                # cannot decrypt init.ct; best effort is random garbage
                fs.send(ChannelConfirm(nonce=rng.randbytes(12),
                                       ct=rng.randbytes(32)))
            except Exception:
                pass
            finally:
                fs.close()

        thread = threading.Thread(target=adversary, daemon=True)
        thread.start()
        try:
            return expect_refusal(
                t, ConfirmFailedError,
                lambda: verifier.establish_channel(result, RecordingStream(left, t)),
                "impostor completed the channel")
        finally:
            thread.join(timeout=2)
            left.close()


def scenario_timing_audit(work: Path, t: list[str]) -> Outcome:
    """Negative and positive control for the comparator audit."""
    report = audit_ct_equal(samples=30_000, seed=1)
    t.append(f"ct_equal: |t|={abs(report.t_stat):.2f} "
             f"means={report.mean_ns[0]:.0f}/{report.mean_ns[1]:.0f} ns")

    def leaky(a: bytes, b: bytes) -> bool:
        for x, y in zip(a, b):
            if x != y:
                return False
        return True

    control = audit_comparator(leaky, samples=30_000, seed=1, label="early-exit")
    t.append(f"early-exit control: |t|={abs(control.t_stat):.2f}")
    ok = report.flat(10.0) and not control.flat(10.0)
    return ok, "ct_equal flat, early-exit flagged", \
        f"|t|={abs(report.t_stat):.2f} vs control |t|={abs(control.t_stat):.2f}"


SCENARIOS: dict[str, tuple[str, Callable[[Path, list[str]], Outcome]]] = {
    "replay": ("re-present an accepted response", scenario_replay),
    "stale-challenge": ("answer after the challenge ttl", scenario_stale_challenge),
    "tamper-binary": ("bit-flip a user binary, reboot, attest", scenario_tamper_binary),
    "tamper-boot-image": ("corrupt the kernel image under the anchors",
                          scenario_tamper_boot_image),
    "wrong-key": ("sign with a key the policy does not trust", scenario_wrong_key),
    "badge-forge": ("pass one process off as another", scenario_badge_forge),
    "malformed-ipc": ("short request straight at the signer", scenario_malformed_ipc),
    "wire-fuzz": ("random frames at a live daemon", scenario_wire_fuzz),
    "channel-theft": ("channel bootstrap with a stolen transcript",
                      scenario_channel_theft),
    "timing-audit": ("comparator flatness with a leaky control",
                     scenario_timing_audit),
}


def run_scenario(name: str, workdir: Optional[Path] = None) -> ScenarioResult:
    description, func = SCENARIOS[name]
    transcript: list[str] = [f"scenario: {name} ({description})"]
    if workdir is None:
        workdir = Path(tempfile.mkdtemp(prefix=f"attack-{name}-"))
    ok, expected, observed = func(workdir, transcript)
    transcript.append(f"expected={expected} observed={observed} "
                      f"result={'PASS' if ok else 'FAIL'}")
    return ScenarioResult(name=name, ok=ok, expected=expected,
                          observed=observed, transcript=transcript)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="attack-harness",
        description="Run adversarial scenarios against the simulated device.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one or all scenarios")
    runp.add_argument("--scenario", choices=list(SCENARIOS),
                      help="run a single scenario (default: all)")
    runp.add_argument("--transcript", help="write the full transcript here")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING)
    names = [args.scenario] if args.scenario else list(SCENARIOS)
    results = [run_scenario(n) for n in names]
    lines: list[str] = []
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.name:18s} "
              f"expected={r.expected}  observed={r.observed}")
        lines.extend(r.transcript)
        lines.append("")
    if args.transcript:
        Path(args.transcript).write_text("\n".join(lines) + "\n")
        print(f"transcript written to {args.transcript}")
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
