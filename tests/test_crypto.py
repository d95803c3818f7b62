"""Token composition and primitives against published test vectors.

The SHA-256, HMAC-SHA256, Ed25519, and X25519 expected values below are
the standard conformance vectors (FIPS 180-4 examples, RFC 4231, RFC 8032,
RFC 7748), frozen here as hex so a broken wrapper or a swapped primitive
fails loudly.
"""

from __future__ import annotations

import gc
import hashlib
import hmac as hmaclib
import os
import pickle
import stat

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from attestsim.channel import (
    CHANNEL_AD_CONFIRM,
    CHANNEL_AD_INIT,
    AllZeroSharedSecretError,
    derive_session_key,
    open_sealed,
    seal,
    x25519_keypair,
    x25519_shared,
)
from attestsim.crypto import (
    KeyZeroizedError,
    LengthMismatchError,
    SignKey,
    SignMode,
    VerifyKey,
    attest_preimage,
    attest_token,
    ct_equal,
    hmac_pads,
    hmac_sha256,
    sha256,
    verify_token,
    write_keystore,
)
from attestsim.provision import KeystoreError, load_keystore

SHA256_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
]

HMAC_VECTORS = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(0x01, 0x1a)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
]

ED25519_VECTORS = [
    ("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
     "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"),
    ("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
     "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"),
    ("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"),
]

X25519_SCALAR = "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"
X25519_U = "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"
X25519_OUT = "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
X25519_BASE_K = "09" + "00" * 31
X25519_BASE_OUT = "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"


def x25519_private(hex_scalar: str) -> X25519PrivateKey:
    return X25519PrivateKey.from_private_bytes(bytes.fromhex(hex_scalar))


class TestPrimitiveVectors:
    @pytest.mark.parametrize("msg,digest", SHA256_VECTORS)
    def test_sha256(self, msg, digest):
        assert sha256(msg).hex() == digest

    @pytest.mark.parametrize("key,msg,tag", HMAC_VECTORS)
    def test_hmac_sha256(self, key, msg, tag):
        assert hmaclib.new(key, msg, hashlib.sha256).hexdigest() == tag

    @pytest.mark.parametrize("seed,pk,msg,sig", ED25519_VECTORS)
    def test_ed25519(self, seed, pk, msg, sig):
        key = SignKey(SignMode.ED25519, bytes.fromhex(seed))
        assert key.verify_key().material.hex() == pk
        assert key.sign_digest(bytes.fromhex(msg)).hex() == sig

    def test_x25519_vector(self):
        assert x25519_shared(x25519_private(X25519_SCALAR),
                             bytes.fromhex(X25519_U)).hex() == X25519_OUT

    def test_x25519_base_point(self):
        k = x25519_private(X25519_BASE_K)
        assert x25519_shared(k, bytes.fromhex(X25519_BASE_K)).hex() == X25519_BASE_OUT
        assert k.public_key().public_bytes_raw().hex() == X25519_BASE_OUT

    def test_x25519_low_order_rejected(self):
        with pytest.raises(AllZeroSharedSecretError):
            x25519_shared(x25519_private(X25519_SCALAR), bytes(32))


class TestHmacPads:
    """HMAC-SHA256 from the key's pads hashed once (RFC 2104 section 4)."""

    @pytest.mark.parametrize("key,msg,tag", HMAC_VECTORS)
    def test_rfc4231_vectors(self, key, msg, tag):
        assert hmac_sha256(hmac_pads(key), msg).hex() == tag

    def test_key_longer_than_the_block_is_refused(self):
        assert hmac_sha256(hmac_pads(bytes(64)), b"m") == hmaclib.digest(
            bytes(64), b"m", "sha256")
        with pytest.raises(LengthMismatchError):
            hmac_pads(bytes(65))

    @given(secret=st.binary(min_size=32, max_size=32),
           digest=st.binary(min_size=32, max_size=32),
           chal=st.binary(min_size=32, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_sign_and_verify_agree_with_hmac_digest(self, secret, digest, chal):
        key = SignKey(SignMode.HMAC, secret)
        tag = hmaclib.digest(secret, digest, "sha256")
        # twice: each MAC starts from copies, the kept states stay as they were
        assert key.sign_digest(digest) == key.sign_digest(digest) == tag
        pk, m = digest, bytes(32)
        sig = hmaclib.digest(secret, sha256(chal + pk + m), "sha256")
        vk = VerifyKey(SignMode.HMAC, secret)
        assert verify_token(vk, chal, pk, m, sig)
        forged = bytes([sig[0] ^ 1]) + sig[1:]
        assert not verify_token(vk, chal, pk, m, forged)


class TestPreimage:
    def test_layout_is_concatenation(self):
        chal, pk, m = bytes(range(32)), bytes(range(32, 64)), bytes(range(64, 96))
        pre = attest_preimage(chal, pk, m)
        assert pre == chal + pk + m
        assert len(pre) == 96
        assert pre[:32] == chal and pre[32:64] == pk and pre[64:] == m

    @pytest.mark.parametrize("which", ["chal", "pk", "m"])
    @pytest.mark.parametrize("badlen", [0, 31, 33, 64])
    def test_length_enforced(self, which, badlen):
        parts = {"chal": bytes(32), "pk": bytes(32), "m": bytes(32)}
        parts[which] = bytes(badlen)
        with pytest.raises(LengthMismatchError):
            attest_preimage(parts["chal"], parts["pk"], parts["m"])


class TestToken:
    def setup_method(self):
        self.chal = bytes.fromhex("aa" * 32)
        self.pk = bytes.fromhex("bb" * 32)
        self.m = bytes.fromhex("cc" * 32)

    def test_hmac_token_matches_independent_composition(self):
        key = SignKey(SignMode.HMAC, bytes.fromhex("11" * 32))
        token = attest_token(key, self.chal, self.pk, self.m)
        expected = hmaclib.new(
            bytes.fromhex("11" * 32),
            hashlib.sha256(self.chal + self.pk + self.m).digest(),
            hashlib.sha256).digest()
        assert token == expected
        assert len(token) == 32

    def test_eddsa_token_verifies_via_raw_library(self):
        seed = bytes.fromhex("22" * 32)
        key = SignKey(SignMode.ED25519, seed)
        token = attest_token(key, self.chal, self.pk, self.m)
        assert len(token) == 64
        digest = hashlib.sha256(self.chal + self.pk + self.m).digest()
        Ed25519PrivateKey.from_private_bytes(seed).public_key().verify(
            token, digest)

    def test_eddsa_is_deterministic(self):
        key = SignKey(SignMode.ED25519, bytes.fromhex("33" * 32))
        t1 = attest_token(key, self.chal, self.pk, self.m)
        t2 = attest_token(key, self.chal, self.pk, self.m)
        assert t1 == t2

    @pytest.mark.parametrize("mode", [SignMode.HMAC, SignMode.ED25519])
    def test_verify_accepts_genuine(self, mode):
        key = SignKey(mode, bytes.fromhex("44" * 32))
        token = attest_token(key, self.chal, self.pk, self.m)
        assert verify_token(key.verify_key(), self.chal, self.pk, self.m, token)

    @pytest.mark.parametrize("mode", [SignMode.HMAC, SignMode.ED25519])
    @pytest.mark.parametrize("field", ["chal", "pk", "m", "sig"])
    def test_verify_rejects_any_flip(self, mode, field):
        key = SignKey(mode, bytes.fromhex("55" * 32))
        token = attest_token(key, self.chal, self.pk, self.m)
        parts = {"chal": self.chal, "pk": self.pk, "m": self.m}
        if field == "sig":
            token = bytes([token[0] ^ 1]) + token[1:]
        else:
            value = parts[field]
            parts[field] = bytes([value[0] ^ 1]) + value[1:]
        assert not verify_token(key.verify_key(), parts["chal"], parts["pk"],
                                parts["m"], token)

    def test_verify_rejects_cross_mode(self):
        # a 32-byte HMAC tag is a malformed Ed25519 token
        key = SignKey(SignMode.HMAC, bytes.fromhex("66" * 32))
        token = attest_token(key, self.chal, self.pk, self.m)
        eddsa_vk = SignKey(SignMode.ED25519, bytes.fromhex("66" * 32)).verify_key()
        with pytest.raises(LengthMismatchError,
                           match="eddsa token must be 64 bytes, got 32"):
            verify_token(eddsa_vk, self.chal, self.pk, self.m, token)

    @pytest.mark.parametrize("mode,badlen", [
        (SignMode.HMAC, 64), (SignMode.HMAC, 31),
        (SignMode.ED25519, 32), (SignMode.ED25519, 63)])
    def test_token_length_enforced_by_type(self, mode, badlen):
        vk = SignKey(mode, bytes.fromhex("77" * 32)).verify_key()
        with pytest.raises(LengthMismatchError,
                           match=f"{mode.value} token must be .* got {badlen}"):
            verify_token(vk, self.chal, self.pk, self.m, bytes(badlen))


class TestCtEqual:
    def test_empty(self):
        assert ct_equal(b"", b"")

    def test_exhaustive_length_one(self):
        for a in range(256):
            for b in range(256):
                assert ct_equal(bytes([a]), bytes([b])) == (a == b)

    def test_length_two_patterns(self):
        corners = [0x00, 0x01, 0x7F, 0x80, 0xFF]
        values = [bytes([x, y]) for x in corners for y in corners]
        for a in values:
            for b in values:
                assert ct_equal(a, b) == (a == b)
        # xor-delta sweep across both byte positions
        for base in range(0, 0x10000, 257):
            a = base.to_bytes(2, "big")
            for delta in (0x0001, 0x0100, 0x8080, 0xFFFF):
                b = (base ^ delta).to_bytes(2, "big")
                assert ct_equal(a, a)
                assert not ct_equal(a, b)

    @given(data=st.binary(max_size=64), flip=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=300, deadline=None)
    def test_equivalent_to_naive_equality(self, data, flip):
        other = bytearray(data)
        if other:
            other[flip % len(other)] ^= (flip >> 8) & 0xFF
        assert ct_equal(data, bytes(other)) == (data == bytes(other))

    def test_length_mismatch_raises(self):
        with pytest.raises(LengthMismatchError):
            ct_equal(b"ab", b"abc")


class TestSignKey:
    def test_secret_never_in_repr(self):
        key = SignKey(SignMode.HMAC, bytes.fromhex("77" * 32))
        assert "77" * 8 not in repr(key)
        assert "redacted" in repr(key)

    def test_zeroize(self):
        key = SignKey(SignMode.HMAC, bytes.fromhex("88" * 32))
        sha256_state = type(hashlib.sha256())

        def held_states():
            refs = gc.get_referents(key)
            refs += [r for ref in refs if isinstance(ref, tuple) for r in ref]
            return [ref for ref in refs if isinstance(ref, sha256_state)]

        assert len(held_states()) == 2
        key.zeroize()
        assert key.secret_bytes() == bytes(32)
        assert held_states() == []

    @pytest.mark.parametrize("mode", list(SignMode))
    def test_zeroized_key_refuses_to_sign(self, mode):
        key = SignKey(mode, bytes.fromhex("8a" * 32))
        attest_token(key, bytes(32), bytes(32), bytes(32))
        key.zeroize()
        assert not any(isinstance(ref, Ed25519PrivateKey)
                       for ref in gc.get_referents(key))
        with pytest.raises(KeyZeroizedError):
            attest_token(key, bytes(32), bytes(32), bytes(32))
        # nor gives a verify key: the zeroed seed's is not this key's
        with pytest.raises(KeyZeroizedError):
            key.verify_key()

    def test_secret_length_enforced(self):
        with pytest.raises(LengthMismatchError):
            SignKey(SignMode.HMAC, b"short")

    def test_hmac_verify_key_is_the_secret(self):
        secret = bytes.fromhex("99" * 32)
        key = SignKey(SignMode.HMAC, secret)
        vk = key.verify_key()
        assert vk.mode is SignMode.HMAC and vk.material == secret

    def test_eddsa_verify_key_matches_rfc_derivation(self):
        seed, pk, _, _ = ED25519_VECTORS[0]
        key = SignKey(SignMode.ED25519, bytes.fromhex(seed))
        assert key.verify_key().material.hex() == pk

    def test_eddsa_verify_key_parses_once_outside_equality(self):
        key = SignKey(SignMode.ED25519, bytes.fromhex("5a" * 32))
        vk, fresh = key.verify_key(), key.verify_key()
        args = (bytes(32), bytes(32), bytes(32))
        token = attest_token(key, *args)
        assert verify_token(vk, *args, token)
        parsed = vk._ed25519
        assert verify_token(vk, *args, token) and vk._ed25519 is parsed
        assert vk == fresh and hash(vk) == hash(fresh)
        assert repr(vk) == repr(fresh)

    def test_hmac_verify_key_keeps_its_pads_outside_equality(self):
        key = SignKey(SignMode.HMAC, bytes.fromhex("5b" * 32))
        vk, fresh = key.verify_key(), key.verify_key()
        args = (bytes(32), bytes(32), bytes(32))
        token = attest_token(key, *args)
        assert verify_token(vk, *args, token)
        pads = vk._hmac_pads
        assert verify_token(vk, *args, token) and vk._hmac_pads is pads
        assert vk == fresh and hash(vk) == hash(fresh)
        assert repr(vk) == repr(fresh)

    @pytest.mark.parametrize("mode", ["hmac", "eddsa", None, 0])
    @pytest.mark.parametrize("cls", [SignKey, VerifyKey])
    def test_mode_must_be_a_sign_mode(self, cls, mode):
        """A mode that is not a ``SignMode`` is refused when the key is
        built, not found out at the first sign or verify."""
        with pytest.raises(TypeError, match="SignMode"):
            cls(mode, bytes(32))

    @pytest.mark.parametrize("mode", list(SignMode))
    def test_secret_key_refuses_to_pickle(self, mode):
        with pytest.raises(TypeError):
            pickle.dumps(SignKey(mode, bytes(32)))


class TestKeystore:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ks.hex"
        key = SignKey(SignMode.ED25519, bytes.fromhex("ab" * 32))
        write_keystore(str(path), key)
        loaded = load_keystore(str(path))
        assert loaded.mode is SignMode.ED25519
        assert loaded.secret_bytes() == key.secret_bytes()
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600

    def test_overwrite_makes_a_world_readable_file_private(self, tmp_path):
        """The open's mode applies only to a new file, so an existing one is
        narrowed to 0600 before the secret goes in."""
        path = tmp_path / "ks.hex"
        path.write_text("old\n")
        os.chmod(path, 0o644)
        key = SignKey(SignMode.HMAC, bytes.fromhex("cd" * 32))
        write_keystore(str(path), key)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        assert load_keystore(str(path)).secret_bytes() == key.secret_bytes()

    def test_world_readable_refused(self, tmp_path):
        path = tmp_path / "ks.hex"
        write_keystore(str(path), SignKey(SignMode.HMAC, os.urandom(32)))
        os.chmod(path, 0o644)
        with pytest.raises(KeystoreError, match="world-readable"):
            load_keystore(str(path))

    @pytest.mark.parametrize("content", [
        "aabb\nhmac\n",                        # short secret
        "zz" * 32 + "\nhmac\n",                # not hex
        "ab" * 32 + "\nrot13\n",               # unknown mode
        "ab" * 32 + "\n",                      # missing mode line
        "ab" * 32 + "\nhmac\nextra\n",         # trailing junk
        # 64 characters that fromhex reads as 31 bytes, as it skips whitespace
        "ab" * 15 + "  " + "ab" * 16 + "\nhmac\n",
        "ab" * 15 + "\t\t" + "ab" * 16 + "\nhmac\n",
        "ab" * 15 + " \t" + "ab" * 16 + "\nhmac\n",
    ])
    def test_malformed_rejected(self, tmp_path, content):
        path = tmp_path / "ks.hex"
        path.write_text(content)
        os.chmod(path, 0o600)
        with pytest.raises(KeystoreError, match="ks.hex"):
            load_keystore(str(path))

    def test_non_ascii_rejected(self, tmp_path):
        path = tmp_path / "ks.hex"
        path.write_bytes(("ab" * 32 + "\nhmac\n").encode("ascii") + b"\xff\n")
        os.chmod(path, 0o600)
        with pytest.raises(KeystoreError, match="ASCII"):
            load_keystore(str(path))


class TestChannelCrypto:
    def test_both_sides_derive_the_same_key(self):
        a_priv = x25519_private("10" * 32)
        b_priv, b_pub = x25519_keypair()
        assert b_pub == b_priv.public_key().public_bytes_raw()
        a_pub = a_priv.public_key().public_bytes_raw()
        transcript = b"shared transcript"
        k1 = derive_session_key(a_priv, b_pub, transcript)
        k2 = derive_session_key(b_priv, a_pub, transcript)
        assert k1 == k2 and len(k1) == 32

    def test_transcript_binds_the_key(self):
        a_priv = x25519_private("10" * 32)
        b_pub = x25519_private("20" * 32).public_key().public_bytes_raw()
        assert derive_session_key(a_priv, b_pub, b"t1") != \
            derive_session_key(a_priv, b_pub, b"t2")

    def test_seal_open_roundtrip(self):
        key, nonce = bytes(range(32)), bytes(range(12))
        ct = seal(key, nonce, b"payload", CHANNEL_AD_INIT)
        assert open_sealed(key, nonce, ct, CHANNEL_AD_INIT) == b"payload"

    @pytest.mark.parametrize("tweak", ["key", "nonce", "ad", "ct"])
    def test_open_fails_closed(self, tweak):
        key, nonce = bytes(range(32)), bytes(range(12))
        ct = seal(key, nonce, b"payload", CHANNEL_AD_INIT)
        args = {"key": key, "nonce": nonce, "ct": ct, "ad": CHANNEL_AD_INIT}
        if tweak == "ad":
            args["ad"] = CHANNEL_AD_CONFIRM
        else:
            value = bytearray(args[tweak])
            value[0] ^= 1
            args[tweak] = bytes(value)
        assert open_sealed(args["key"], args["nonce"], args["ct"], args["ad"]) is None

    def test_nonce_length_enforced(self):
        with pytest.raises(LengthMismatchError):
            seal(bytes(32), bytes(11), b"x", b"ad")
