"""Challenge-response verification and secure-channel bootstrap.

The verifier trusts only its policy file (verify keys and golden binaries
per device) and its own clock and randomness. Golden measurements are
recomputed locally from the referenced binaries at policy load, never
taken from a prover. The policy and the binaries are read through
``wire.read_regular``, which refuses a file that is not regular.
Challenges are 32 random bytes, single-use, and expire; acceptance
consumes the challenge, so presenting the same response twice is
detected as replay.

A successful attestation can be extended into an authenticated channel:
ephemeral X25519 from the verifier, key derivation bound to the
attestation transcript (chal || pk || sigma), and a ChaCha20-Poly1305
confirm-token round trip. Only the process that owns the attested pk can
complete it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

from .channel import (
    CHANNEL_AD_CONFIRM,
    CHANNEL_AD_INIT,
    NONCE_LEN,
    derive_session_key,
    open_sealed,
    seal,
    x25519_keypair,
)
from .crypto import (
    CHAL_LEN,
    EmptyBinaryError,
    LengthMismatchError,
    SignMode,
    VerifyKey,
    ct_equal,
    measure_binary,
    verify_token,
)
from .wire import (
    MAX_TIMEOUT,
    AttestRequest,
    AttestResponse,
    ChannelConfirm,
    ChannelInit,
    ErrorMsg,
    FrameStream,
    WireError,
    load_json,
    parse_address,
    parse_hex32,
    read_regular,
    record,
)

DEFAULT_TTL = 30.0
DEFAULT_TIMEOUT = 5.0
MAX_OUTSTANDING = 65_536      # live challenges one ledger holds at most


class AttestFailure(Exception):
    """Base for every way an attestation can be rejected."""


class AttestTimeoutError(AttestFailure):
    pass


class SigInvalidError(AttestFailure):
    pass


class ReplayDetectedError(AttestFailure):
    pass


class StaleChallengeError(AttestFailure):
    pass


class ProverError(AttestFailure):
    """The prover answered, but with an error status or error frame."""

    def __init__(self, code: int, source: str):
        super().__init__(f"prover reported error {code} ({source})")
        self.code = code
        self.source = source


class ConfirmFailedError(AttestFailure):
    pass


class LedgerFullError(AttestFailure):
    """The nonce ledger holds its cap of live challenges; no new one is
    issued until some are consumed or expire."""


class PolicyError(Exception):
    pass


# --- policy ---------------------------------------------------------------

def decimal_pid(text: str) -> int:
    """A pid in ASCII decimal digits, 0 to 2**64 - 1, or ``ValueError``:
    ``int`` alone would also take "+1", " 1 ", "1_0" and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()) or int(text) >= 2**64:
        raise ValueError(f"not a decimal pid below 2**64: {text!r}")
    return int(text)


@dataclass
class DevicePolicy:
    """One device's verify key and golden measurements."""

    device_id: str
    vk: VerifyKey
    golden: dict[int, bytes]            # pid -> expected measurement
    address: Optional[tuple[str, int]] = None


@dataclass
class Policy:
    devices: dict[str, DevicePolicy]

    @classmethod
    def load(cls, path: str) -> "Policy":
        """Read policy JSON and recompute golden digests from the trusted
        binary copies it references (paths relative to the policy file)."""
        raw = load_json(path, PolicyError)
        if not isinstance(raw, dict) or not isinstance(raw.get("devices"), dict):
            raise PolicyError(f"{path}: expected an object with 'devices'")
        base = os.path.dirname(os.path.abspath(path))
        devices: dict[str, DevicePolicy] = {}
        for device_id, entry in raw["devices"].items():
            if not isinstance(entry, dict):
                raise PolicyError(f"{path}: device {device_id} must be an object")
            try:
                mode = SignMode(entry["mode"])
                vk = VerifyKey(mode, parse_hex32(entry["verify_key"]))
            except (KeyError, ValueError, TypeError) as e:
                raise PolicyError(
                    f"{path}: device {device_id}: bad mode/verify_key") from e
            golden_raw = entry.get("golden")
            if not isinstance(golden_raw, dict) or not golden_raw:
                raise PolicyError(
                    f"{path}: device {device_id} needs a 'golden' map")
            golden: dict[int, bytes] = {}
            for pid_str, binary_path in golden_raw.items():
                try:
                    pid = decimal_pid(pid_str)
                    if pid in golden:
                        raise ValueError("listed twice")
                    golden[pid] = measure_binary(
                        read_regular(os.path.join(base, binary_path), ValueError))
                except (ValueError, TypeError, EmptyBinaryError) as e:
                    raise PolicyError(
                        f"{path}: device {device_id}: golden pid {pid_str}: {e}") from e
            address = None
            if "address" in entry:
                try:
                    address = parse_address(str(entry["address"]))
                except ValueError as e:
                    raise PolicyError(f"{path}: device {device_id}: {e}") from e
            # no pk pinning here: refuse the ask rather than drop it silently
            if entry.get("pin_pk", False) is not False:
                raise PolicyError(
                    f"{path}: device {device_id}: pin_pk is not supported")
            devices[device_id] = DevicePolicy(
                device_id=device_id, vk=vk, golden=golden, address=address)
        return cls(devices=devices)

    def device(self, device_id: str) -> DevicePolicy:
        dev = self.devices.get(device_id)
        if dev is None:
            raise PolicyError(f"unknown device {device_id!r}")
        return dev


# --- nonce ledger ---------------------------------------------------------

class NonceLedger:
    """Single-use challenge tracking with expiry.

    ``consume`` removes the challenge, so a second consume of the same
    bytes reports "unknown" and the caller treats it as replay. Expired
    entries are purged as a side effect of issuing, which bounds growth.
    Under a monotonic clock the entries are kept in issue order, so the
    expired ones are a prefix and issuing costs amortised O(1). An
    ``OrderedDict`` pops its front in O(1); a plain dict does not.

    At most ``MAX_OUTSTANDING`` challenges are live at once; issuing one
    more raises ``LedgerFullError`` rather than growing without bound.
    """

    def __init__(self, ttl: float = DEFAULT_TTL,
                 clock: Callable[[], float] = time.monotonic):
        self.ttl = ttl
        self._clock = clock
        self._issued: OrderedDict[bytes, float] = OrderedDict()
        self._lock = threading.Lock()

    def issue(self, chal: bytes) -> None:
        now = self._clock()
        with self._lock:
            cutoff = now - self.ttl
            issued = self._issued
            while issued and next(iter(issued.values())) < cutoff:
                issued.popitem(last=False)
            # a re-issued challenge moves to the back, keeping issue order
            issued.pop(chal, None)
            if len(issued) >= MAX_OUTSTANDING:
                raise LedgerFullError(
                    f"{len(issued)} challenges outstanding (cap {MAX_OUTSTANDING})")
            issued[chal] = now

    def consume(self, chal: bytes) -> str:
        """Returns "fresh", "expired", or "unknown"; removes the entry."""
        now = self._clock()
        with self._lock:
            issued_at = self._issued.pop(chal, None)
        if issued_at is None:
            return "unknown"
        if now - issued_at > self.ttl:
            return "expired"
        return "fresh"

    def __len__(self) -> int:
        with self._lock:
            return len(self._issued)


# --- results --------------------------------------------------------------

@record
class AttestResult:
    device_id: str
    pid: int
    chal: bytes
    pk: bytes
    sigma: bytes
    measurement: bytes


class SessionKey:
    """Established channel key; repr never shows the key bytes."""

    __slots__ = ("key", "device_id", "pid")

    def __init__(self, key: bytes, device_id: str, pid: int):
        self.key = key
        self.device_id = device_id
        self.pid = pid

    def __repr__(self) -> str:
        return f"SessionKey(device={self.device_id!r}, pid={self.pid}, key=<redacted>)"


class Verifier:
    """Drives attestation rounds and judges responses against policy."""

    def __init__(self, policy: Policy, ttl: float = DEFAULT_TTL,
                 timeout: float = DEFAULT_TIMEOUT,
                 clock: Callable[[], float] = time.monotonic,
                 rng: Callable[[int], bytes] = os.urandom):
        self.policy = policy
        self.timeout = timeout
        self._rng = rng
        self.ledger = NonceLedger(ttl=ttl, clock=clock)

    def new_challenge(self) -> bytes:
        chal = self._rng(CHAL_LEN)
        self.ledger.issue(chal)
        return chal

    def check_response(self, device_id: str, pid: int, chal: bytes,
                       resp: AttestResponse) -> AttestResult:
        """Judge a captured response. Raises an AttestFailure subclass on
        any rejection; returns the accepted result otherwise.

        Order: prover status, response/request consistency, signature,
        then challenge freshness. The challenge is consumed only when the
        signature is good, so a bad response does not burn it, while
        re-presenting an accepted response is replay.
        """
        dev = self.policy.device(device_id)
        expected_m = dev.golden.get(pid)
        if expected_m is None:
            raise PolicyError(f"device {device_id!r} has no golden entry for pid {pid}")
        status, resp_pid, pk, sigma = resp
        if status != 0:
            raise ProverError(status, "signing-process")
        if resp_pid != pid:
            raise SigInvalidError(
                f"response names pid {resp_pid}, requested {pid}")
        try:
            good = verify_token(dev.vk, chal, pk, expected_m, sigma)
        except LengthMismatchError as e:
            raise SigInvalidError(str(e)) from e
        if not good:
            raise SigInvalidError("token does not verify")
        freshness = self.ledger.consume(chal)
        if freshness == "unknown":
            raise ReplayDetectedError("challenge was never issued or already used")
        if freshness == "expired":
            raise StaleChallengeError("challenge outlived its ttl")
        return tuple.__new__(AttestResult,
                             (device_id, pid, chal, pk, sigma, expected_m))

    def attest(self, device_id: str, pid: int, stream: FrameStream) -> AttestResult:
        """One full round over an open stream: challenge, send, judge.

        A round that returns no result withdraws its challenge, since no
        caller holds it: a pid ``encode`` refuses (its ``WireError``
        comes back, with nothing sent), an error frame, a refused
        response, an unexpected frame or a timeout. A stream whose deadline
        ever expired (``stream.timed_out``) is out of step, as a late reply
        would answer the next request, so every later round on it, by this
        verifier or any other, fails at once with ``AttestTimeoutError``
        and sends nothing.
        """
        if stream.timed_out:
            raise AttestTimeoutError("an earlier round on this stream timed out")
        chal = self.new_challenge()
        try:
            try:
                stream.settimeout(self.timeout)
                stream.send(tuple.__new__(AttestRequest, (pid, chal)))
                try:
                    resp = stream.recv()
                except WireError as e:
                    raise ProverError(255, f"protocol: {e}") from e
            except TimeoutError as e:
                raise AttestTimeoutError(f"no response within {self.timeout}s") from e
            if isinstance(resp, ErrorMsg):
                raise ProverError(resp.code, "daemon")
            if not isinstance(resp, AttestResponse):
                raise ProverError(255, f"unexpected {type(resp).__name__}")
            return self.check_response(device_id, pid, chal, resp)
        except BaseException:
            self.ledger.consume(chal)       # withdraw: no caller holds it
            raise

    def establish_channel(self, result: AttestResult, stream: FrameStream
                          ) -> SessionKey:
        """Bootstrap an authenticated channel from an accepted result.

        Fresh X25519 keypair per call; the session key binds the
        attestation transcript, so only the attested process (which holds
        the pk's private half) can decrypt the init and echo the token.
        A timed-out stream is refused, as in ``attest``.
        """
        if stream.timed_out:
            raise AttestTimeoutError("an earlier round on this stream timed out")
        eph_private, eph_pk = x25519_keypair()
        transcript = result.chal + result.pk + result.sigma
        key = derive_session_key(eph_private, result.pk, transcript)
        token = self._rng(32)
        nonce = os.urandom(NONCE_LEN)
        stream.settimeout(self.timeout)
        try:
            stream.send(ChannelInit(eph_pk=eph_pk, nonce=nonce,
                                    ct=seal(key, nonce, token, CHANNEL_AD_INIT)))
            resp = stream.recv()
        except TimeoutError as e:
            raise AttestTimeoutError(f"no confirm within {self.timeout}s") from e
        except WireError as e:
            raise ConfirmFailedError(f"protocol: {e}") from e
        if isinstance(resp, ErrorMsg):
            raise ConfirmFailedError(f"prover error {resp.code}")
        if not isinstance(resp, ChannelConfirm):
            raise ConfirmFailedError(f"unexpected {type(resp).__name__}")
        echoed = open_sealed(key, resp.nonce, resp.ct, CHANNEL_AD_CONFIRM)
        if echoed is None or len(echoed) != len(token) or not ct_equal(echoed, token):
            raise ConfirmFailedError("confirm token did not authenticate")
        return SessionKey(key=key, device_id=result.device_id, pid=result.pid)


# --- CLI ------------------------------------------------------------------

def _cli_attest(args: argparse.Namespace) -> int:
    policy = Policy.load(args.policy)
    dev = policy.device(args.device)
    if dev.address is None:
        raise PolicyError(f"device {args.device!r} has no address in policy")
    verifier = Verifier(policy, timeout=args.timeout)
    try:
        with FrameStream.connect(*dev.address, timeout=args.timeout) as stream:
            result = verifier.attest(args.device, args.pid, stream)
            if args.channel:
                session = verifier.establish_channel(result, stream)
    except AttestTimeoutError as e:
        print(f"timeout: {e}", file=sys.stderr)
        return 3
    except AttestFailure as e:
        print(f"rejected: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"transport: {e}", file=sys.stderr)
        return 3
    print(f"accepted device={result.device_id} pid={result.pid} "
          f"measurement={result.measurement.hex()} sigma={result.sigma.hex()}")
    if args.channel:
        fingerprint = hashlib.sha256(session.key).hexdigest()[:16]
        print(f"channel established key_fingerprint={fingerprint}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):      # exit 4 in one line, as policy errors do
        self.exit(4, f"error: {message}\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = _Parser(
        prog="verifier",
        description="Attest a remote simulated device and optionally "
                    "bootstrap an authenticated channel.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, with_channel in (("attest", False), ("channel", True)):
        p = sub.add_parser(name, help="run one attestation round"
                           + (" and establish a channel" if with_channel else ""))
        p.add_argument("--device", required=True, help="device id in the policy")
        p.add_argument("--pid", required=True, type=decimal_pid,
                       help="user process id to attest")
        p.add_argument("--policy", required=True, help="policy JSON path")
        p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                       help="seconds per read and write, above 0 and at most "
                            f"{MAX_TIMEOUT}")
        p.set_defaults(channel=with_channel)
    args = parser.parse_args(argv)
    if not 0 < args.timeout <= MAX_TIMEOUT:
        parser.error(f"--timeout {args.timeout} is not above 0 and at most "
                     f"{MAX_TIMEOUT}")
    try:
        return _cli_attest(args)
    except (PolicyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
