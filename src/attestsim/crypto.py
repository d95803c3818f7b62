"""Token composition, constant-time comparison, and keys.

Primitives (SHA-256, Ed25519) come from hashlib and the pyca cryptography
package; HMAC-SHA256 is built here on hashlib's SHA-256, from the key's
pads hashed once (RFC 2104). What is defined here, and covered
bit-for-bit by the test suite, is the composition:

* the 96-byte token preimage ``chal(32) || pk(32) || m(32)``,
* the token itself, ``Sign(K, SHA-256(preimage))`` in either HMAC-SHA256
  mode (32-byte tag) or Ed25519 mode (64-byte detached signature over the
  32-byte digest), carried as those signature bytes alone,
* the constant-time equality used wherever a secret-derived value is
  compared,
* ``measure_binary``.

The channel's crypto is in ``channel``, the keystore's loader in
``provision`` and its hex parser in ``wire``, all outside the RA TCB.
``Frozen``, the base of the immutable records, is here because this is
the one TCB module that imports no other attestsim module: the verifier
loads ``VerifyKey`` without the kernel.
"""

from __future__ import annotations

import hashlib
import os
from enum import Enum

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

DIGEST_LEN = 32
CHAL_LEN = 32
PK_LEN = 32
SEED_LEN = 32
HMAC_SIG_LEN = 32
ED25519_SIG_LEN = 64
SHA256_BLOCK_LEN = 64

# byte -> byte ^ pad, for bytes.translate
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class CryptoError(Exception):
    """Base for key, token, and channel failures."""


class LengthMismatchError(CryptoError):
    pass


class KeyZeroizedError(CryptoError):
    """A zeroized signing key was asked to sign or for its verify key."""


class EmptyBinaryError(CryptoError):
    pass


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def measure_binary(binary: bytes) -> bytes:
    """``m``, the SHA-256 of a process binary, for boot and verifier alike."""
    if len(binary) == 0:
        raise EmptyBinaryError("refusing to measure an empty binary")
    return sha256(binary)


def hmac_pads(key: bytes) -> tuple:
    """The SHA-256 states after absorbing ``K ^ ipad`` and ``K ^ opad``, as
    an (inner, outer) pair.

    These two blocks depend only on the key, so RFC 2104 section 4 hashes
    them once per key; each MAC then starts from copies of the states
    (``hmac_sha256``). A key longer than the 64-byte block would have to be
    hashed first. Every key here is 32 bytes, so longer ones are refused.
    """
    if len(key) > SHA256_BLOCK_LEN:
        raise LengthMismatchError(
            f"HMAC key of {len(key)} bytes exceeds the {SHA256_BLOCK_LEN}-byte block")
    block = key.ljust(SHA256_BLOCK_LEN, b"\0")
    return (hashlib.sha256(block.translate(_IPAD)),
            hashlib.sha256(block.translate(_OPAD)))


def hmac_sha256(pads: tuple, data: bytes) -> bytes:
    """HMAC-SHA256 of ``data`` under the key the pads came from: the same
    bytes as ``hmac.digest(key, data, "sha256")``."""
    inner, outer = pads
    inner = inner.copy()
    inner.update(data)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def ct_equal(a: bytes, b: bytes) -> bool:
    """Constant-time equality for equal-length byte strings.

    XORs the operands as fixed-width byte vectors and OR-reduces to a
    single accumulator; there is no early exit and no data-dependent
    branch. The vector ops run in machine-width registers, which keeps
    the timing profile flat where Python's variable-width integers do
    not (interpreter fast paths make zero operands measurably cheaper).

    numpy is imported here rather than at module level: only verifiers
    compare, so the prover daemon never loads it.
    """
    if len(a) != len(b):
        raise LengthMismatchError(f"lengths {len(a)} and {len(b)}")
    import numpy as np

    av = np.frombuffer(bytes(a), dtype=np.uint8)
    bv = np.frombuffer(bytes(b), dtype=np.uint8)
    acc = int(np.bitwise_or.reduce(av ^ bv, initial=0))
    return acc == 0


# --- records and keys -----------------------------------------------------

class Frozen:
    """Base of the immutable records, written out in source.

    A subclass names its fields once, in ``__slots__``, and its ``__init__``
    writes each with ``object.__setattr__``, as a frozen dataclass's does;
    no code is built at run time. A record equals only a record of the same
    type with equal fields, hashes over its fields, and refuses assignment
    and deletion. A record with state that is not a field lists its fields
    first in ``__slots__`` and overrides ``_values`` to return only those.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(object.__getattribute__(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, which takes the fields
        return (type(self), self._values())

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class SignMode(Enum):
    HMAC = "hmac"
    ED25519 = "eddsa"


# for the per-round checks: an enum member read through its class costs a
# lookup on every use
_HMAC = SignMode.HMAC


class SignKey:
    """Device signing secret: a 32-byte seed plus the mode fixed at boot.

    In HMAC mode the seed is the MAC key and the verifier holds the same
    bytes. In Ed25519 mode the seed is the private scalar seed and the
    verifier holds only the derived public key. What signing needs is
    built once, here, so a request does not redo it: the pyca key object
    in Ed25519 mode, the SHA-256 states of the padded key (``hmac_pads``)
    in HMAC mode. The repr never shows the secret.

    ``zeroize()`` scrubs the seed in place and drops the key object and
    the HMAC states. Both live in native memory that Python cannot
    overwrite, so dropping the references is all zeroize can do for them.
    Either way a zeroized key refuses to sign or to give its verify key.
    """

    __slots__ = ("mode", "_secret", "_ed25519", "_hmac_pads", "_zeroized")

    def __init__(self, mode: SignMode, secret: bytes):
        if not isinstance(mode, SignMode):
            raise TypeError(f"mode must be a SignMode, not {mode!r}")
        if len(secret) != SEED_LEN:
            raise LengthMismatchError(f"signing secret must be {SEED_LEN} bytes")
        self.mode = mode
        self._secret = bytearray(secret)
        self._ed25519 = (Ed25519PrivateKey.from_private_bytes(bytes(secret))
                         if mode is SignMode.ED25519 else None)
        self._hmac_pads = hmac_pads(secret) if mode is SignMode.HMAC else None
        self._zeroized = False

    def secret_bytes(self) -> bytes:
        return bytes(self._secret)

    def verify_key(self) -> "VerifyKey":
        if self._zeroized:
            raise KeyZeroizedError("signing key was zeroized")
        if self.mode is SignMode.HMAC:
            return VerifyKey(SignMode.HMAC, bytes(self._secret))
        return VerifyKey(SignMode.ED25519,
                         self._ed25519.public_key().public_bytes_raw())

    def sign_digest(self, digest: bytes) -> bytes:
        """HMAC tag or Ed25519 signature over ``digest``."""
        if self._zeroized:
            raise KeyZeroizedError("signing key was zeroized")
        if self.mode is _HMAC:
            return hmac_sha256(self._hmac_pads, digest)
        return self._ed25519.sign(digest)

    def zeroize(self) -> None:
        for i in range(len(self._secret)):
            self._secret[i] = 0
        self._ed25519 = None
        self._hmac_pads = None
        self._zeroized = True

    def __repr__(self) -> str:
        return f"SignKey(mode={self.mode.value}, secret=<redacted>)"


class VerifyKey(Frozen):
    """What the verifier stores per device: mode plus key material.

    What checking a token needs is built once, here, as ``SignKey`` does:
    the pyca public-key object in Ed25519 mode, the HMAC states
    (``hmac_pads``) in HMAC mode, and ``None`` for the other mode's. Neither
    is a field: ``_values`` returns mode and material, so equality,
    hashing, the repr, copies and pickles see only those.
    """

    __slots__ = ("mode", "material", "_ed25519", "_hmac_pads")

    def __init__(self, mode: SignMode, material: bytes):
        if not isinstance(mode, SignMode):
            raise TypeError(f"mode must be a SignMode, not {mode!r}")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "material", material)
        object.__setattr__(self, "_ed25519",
                           Ed25519PublicKey.from_public_bytes(material)
                           if mode is SignMode.ED25519 else None)
        object.__setattr__(self, "_hmac_pads",
                           hmac_pads(material) if mode is SignMode.HMAC else None)

    def _values(self) -> tuple:
        return (self.mode, self.material)


# --- token composition ----------------------------------------------------

def attest_preimage(chal: bytes, pk: bytes, m: bytes) -> bytes:
    """``chal || pk || m``, exactly 96 bytes, built by nested concatenation."""
    if len(chal) != CHAL_LEN:
        raise LengthMismatchError(f"chal must be {CHAL_LEN} bytes")
    if len(pk) != PK_LEN:
        raise LengthMismatchError(f"pk must be {PK_LEN} bytes")
    if len(m) != DIGEST_LEN:
        raise LengthMismatchError(f"m must be {DIGEST_LEN} bytes")
    return chal + pk + m


def attest_token(key: SignKey, chal: bytes, pk: bytes, m: bytes) -> bytes:
    """Sign the SHA-256 digest of the preimage under the key's mode: a
    32-byte HMAC tag or a 64-byte Ed25519 signature."""
    digest = hashlib.sha256(attest_preimage(chal, pk, m)).digest()
    return key.sign_digest(digest)


def verify_token(vk: VerifyKey, chal: bytes, pk: bytes, m: bytes,
                 sig: bytes) -> bool:
    """Check a token against the expected preimage; never raises on a bad
    signature, only on malformed inputs. A token of the wrong length for
    the key's mode is malformed: ``LengthMismatchError``."""
    want = HMAC_SIG_LEN if vk.mode is _HMAC else ED25519_SIG_LEN
    if len(sig) != want:
        raise LengthMismatchError(
            f"{vk.mode.value} token must be {want} bytes, got {len(sig)}")
    digest = hashlib.sha256(attest_preimage(chal, pk, m)).digest()
    if vk.mode is _HMAC:
        return ct_equal(hmac_sha256(vk._hmac_pads, digest), sig)
    try:
        vk._ed25519.verify(sig, digest)
    except InvalidSignature:
        return False
    return True


# --- keystore file --------------------------------------------------------
#
# ``attestsim.provision`` reads it; the writer stays here only because the
# benchmark imports it by this name.

def write_keystore(path: str, key: SignKey) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        os.fchmod(fd, 0o600)        # the open's mode only applies to a new file
        os.write(fd, f"{key.secret_bytes().hex()}\n{key.mode.value}\n".encode("ascii"))
    finally:
        os.close(fd)
