"""Crypto of the channel that an accepted attestation can be extended into.

The attested ``pk`` is the relay's X25519 key. The verifier brings an
ephemeral one, and both sides derive the session key by HKDF-SHA256 over
the shared secret, bound to the transcript ``chal || pk || sigma``. The
confirm round trip is ChaCha20-Poly1305 under that key. Only the relay
(``userland``) and the verifier load this module; the RA TCB does not.
"""

from __future__ import annotations

from typing import Optional

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .crypto import CryptoError, LengthMismatchError

SESSION_KEY_LEN = 32
NONCE_LEN = 12

CHANNEL_AD_INIT = b"attest-channel init"
CHANNEL_AD_CONFIRM = b"attest-channel confirm"


class AllZeroSharedSecretError(CryptoError):
    """X25519 produced the all-zero point (low-order peer key)."""


def x25519_keypair() -> tuple[X25519PrivateKey, bytes]:
    """A fresh X25519 private-key object and its raw public key. Keep the
    object: one rebuilt from bytes derives its public key again."""
    private = X25519PrivateKey.generate()
    return private, private.public_key().public_bytes_raw()


def x25519_shared(private: X25519PrivateKey, peer_public: bytes) -> bytes:
    """Raw X25519; rejects the contributory-behavior failure case."""
    pub = X25519PublicKey.from_public_bytes(peer_public)
    try:
        return private.exchange(pub)
    except ValueError as e:
        raise AllZeroSharedSecretError(str(e)) from e


def derive_session_key(private: X25519PrivateKey, peer_public: bytes,
                       transcript: bytes) -> bytes:
    """HKDF-SHA256 over the X25519 shared secret, bound to the attestation
    transcript (chal || pk || sigma) via the info parameter."""
    ikm = x25519_shared(private, peer_public)
    return HKDF(algorithm=SHA256(), length=SESSION_KEY_LEN, salt=None,
                info=transcript).derive(ikm)


def seal(key: bytes, nonce: bytes, plaintext: bytes, ad: bytes) -> bytes:
    if len(nonce) != NONCE_LEN:
        raise LengthMismatchError(f"nonce must be {NONCE_LEN} bytes")
    return ChaCha20Poly1305(key).encrypt(nonce, plaintext, ad)


def open_sealed(key: bytes, nonce: bytes, ciphertext: bytes, ad: bytes) -> Optional[bytes]:
    """AEAD open; returns None on authentication failure."""
    if len(nonce) != NONCE_LEN:
        raise LengthMismatchError(f"nonce must be {NONCE_LEN} bytes")
    try:
        return ChaCha20Poly1305(key).decrypt(nonce, ciphertext, ad)
    except InvalidTag:
        return None
