"""Signing process: request handling, state freeze, badge-bound identity."""

from __future__ import annotations

import hashlib
import hmac as hmaclib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestsim.boot import SP_PID, bring_up, default_anchors
from attestsim.crypto import SignKey, SignMode, verify_token
from attestsim.kernel import Call, Kernel, ProcState, Rights
from attestsim.signing import (
    ENTRY_LEN,
    FIRST_BADGE,
    REQUEST_LEN,
    STATUS_MALFORMED,
    STATUS_OK,
    STATUS_UNKNOWN_BADGE,
    WORDS,
    FrozenMeasurementMap,
    SigningError,
    SpState,
    handle_request,
    signing_program,
)
from attestsim.userland import make_relay_program
from attestsim.wire import AttestRequest, AttestResponse

KEY = SignKey(SignMode.HMAC, bytes.fromhex("5a" * 32))


def installed_state(entries=None, key=KEY) -> SpState:
    state = SpState(key)
    state.install(entries if entries is not None
                  else [(1, bytes([1]) * 32), (2, bytes([2]) * 32)])
    return state


def request_regs(chal: bytes, pk: bytes) -> list[int]:
    return list(WORDS[REQUEST_LEN].unpack(chal + pk))


def reply_sig(reply: list[int]) -> bytes:
    return WORDS[len(reply) - 1].pack(*reply[1:])


def signed_by(reply: list[int], chal: bytes, pk: bytes, m: bytes) -> bool:
    return verify_token(KEY.verify_key(), chal, pk, m, reply_sig(reply))


class TestWordCodec:
    def test_known_words(self):
        assert WORDS[1].unpack(b"\x00" * 7 + b"\x01") == (1,)
        assert WORDS[1].unpack(b"\x01" + b"\x00" * 7) == (1 << 56,)
        assert WORDS[1].pack(0xDEADBEEF) == b"\x00\x00\x00\x00\xde\xad\xbe\xef"

    def test_unaligned_length_rejected(self):
        with pytest.raises(struct.error):
            WORDS[1].unpack(b"\x00" * 9)

    @given(data=st.binary(min_size=0, max_size=64).filter(lambda b: len(b) % 8 == 0))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, data):
        layout = WORDS[len(data) // 8]
        assert layout.pack(*layout.unpack(data)) == data


class TestFrozenMap:
    def test_lookup(self):
        fmap = FrozenMeasurementMap([(3, bytes([3]) * 32)])
        assert fmap.lookup(3) == bytes([3]) * 32
        assert fmap.lookup(4) is None
        assert 3 in fmap and 4 not in fmap

    def test_no_mutation_surface(self):
        fmap = FrozenMeasurementMap([])
        public = {n for n in dir(fmap) if not n.startswith("_")}
        assert public == {"lookup", "entries", "serialize"}
        with pytest.raises(AttributeError):
            fmap.extra = 1  # type: ignore[attr-defined]

    def test_serialization_is_canonical(self):
        entries = [(1, bytes([1]) * 32), (2, bytes([2]) * 32)]
        blob = FrozenMeasurementMap(entries).serialize()
        assert blob == FrozenMeasurementMap(entries).serialize()
        assert blob[:8] == struct.pack(">Q", 2)
        assert blob[8:16] == struct.pack(">Q", 1)
        assert blob[16:48] == bytes([1]) * 32

    def test_duplicate_pid_rejected(self):
        with pytest.raises(SigningError):
            FrozenMeasurementMap([(1, bytes(32)), (1, bytes(32))])

    def test_digest_length_checked(self):
        with pytest.raises(SigningError):
            FrozenMeasurementMap([(1, bytes(31))])

    def test_one_shot_iterable_fills_both_tables(self):
        """Entries given as a generator are read once, into the entries,
        the length and the lookups alike, so every badge gets signed."""
        digests = {p: bytes([p]) * 32 for p in (1, 2)}
        fmap = FrozenMeasurementMap(iter(digests.items()))
        assert fmap.entries() == tuple(digests.items())
        assert len(fmap) == 2
        assert [fmap.lookup(p) for p in digests] == list(digests.values())
        state = installed_state(iter(digests.items()))
        chal, pk = bytes([7]) * 32, bytes([8]) * 32
        for badge, digest in enumerate(digests.values(), start=FIRST_BADGE):
            status, reply = handle_request(state, badge, REQUEST_LEN,
                                           request_regs(chal, pk))
            assert status == STATUS_OK
            assert signed_by(reply, chal, pk, digest)


class TestSpState:
    def test_install_exactly_once(self):
        state = SpState(KEY)
        assert not state.installed
        state.install([(1, bytes(32))])
        with pytest.raises(SigningError):
            state.install([(2, bytes(32))])

    def test_badges_count_from_one_in_order(self):
        digests = [bytes(32), bytes([1]) * 32]
        state = installed_state([(9, digests[0]), (4, digests[1])])
        chal, pk = bytes([7]) * 32, bytes([8]) * 32
        regs = request_regs(chal, pk)
        for badge, digest in zip((1, 2), digests):
            status, reply = handle_request(state, badge, REQUEST_LEN, regs)
            assert status == STATUS_OK
            assert signed_by(reply, chal, pk, digest)
        for badge in (0, 3):
            assert handle_request(state, badge, REQUEST_LEN, regs)[0] == \
                STATUS_UNKNOWN_BADGE

    def test_snapshot_requires_install(self):
        with pytest.raises(SigningError):
            SpState(KEY).snapshot()

    def test_snapshot_stable(self):
        state = installed_state()
        assert state.snapshot() == state.snapshot()

    @pytest.mark.parametrize("mode", list(SignMode))
    def test_snapshot_is_sha256_of_the_canonical_bytes(self, mode):
        """The map's count and entries as big-endian words, then the mode
        and the secret, hashed by the stdlib's SHA-256."""
        secret = bytes.fromhex("5a" * 32)
        serialized = (struct.pack(">QQ", 2, 1) + bytes([1]) * 32
                      + struct.pack(">Q", 2) + bytes([2]) * 32)
        want = hashlib.sha256(b"mmap:" + serialized + b"key:"
                              + mode.value.encode("ascii") + secret).digest()
        assert installed_state(key=SignKey(mode, secret)).snapshot() == want

    def test_snapshot_sensitive_to_every_component(self):
        base = installed_state().snapshot()
        other_map = installed_state([(1, bytes([9]) * 32), (2, bytes([2]) * 32)])
        assert other_map.snapshot() != base
        other_key = installed_state(key=SignKey(SignMode.HMAC, bytes.fromhex("5b" * 32)))
        assert other_key.snapshot() != base
        other_mode = installed_state(key=SignKey(SignMode.ED25519, bytes.fromhex("5a" * 32)))
        assert other_mode.snapshot() != base


class TestHandleRequest:
    def test_ok_path_matches_independent_composition(self):
        state = installed_state()
        chal, pk = bytes([7]) * 32, bytes([8]) * 32
        status, reply = handle_request(state, 1, REQUEST_LEN, request_regs(chal, pk))
        assert status == STATUS_OK
        assert reply[0] == STATUS_OK
        sigma = reply_sig(reply)
        expected = hmaclib.new(
            KEY.secret_bytes(),
            hashlib.sha256(chal + pk + bytes([1]) * 32).digest(),
            hashlib.sha256).digest()
        assert sigma == expected

    def test_identity_comes_from_badge(self):
        """The same payload signed under badge 1 vs badge 2 binds different
        measurements; nothing the payload says matters."""
        state = installed_state()
        chal, pk = bytes([7]) * 32, bytes([8]) * 32
        regs = request_regs(chal, pk)
        _, reply1 = handle_request(state, 1, REQUEST_LEN, regs)
        _, reply2 = handle_request(state, 2, REQUEST_LEN, regs)
        sig1, sig2 = reply_sig(reply1), reply_sig(reply2)
        vk = KEY.verify_key()
        assert verify_token(vk, chal, pk, bytes([1]) * 32, sig1)
        assert verify_token(vk, chal, pk, bytes([2]) * 32, sig2)
        assert not verify_token(vk, chal, pk, bytes([2]) * 32, sig1)

    def test_unknown_badge(self):
        state = installed_state()
        status, reply = handle_request(state, 77, REQUEST_LEN,
                                       request_regs(bytes(32), bytes(32)))
        assert (status, reply) == (STATUS_UNKNOWN_BADGE, [STATUS_UNKNOWN_BADGE])

    @given(entries=st.lists(
               st.tuples(st.integers(min_value=1, max_value=2**64 - 2),
                         st.binary(min_size=32, max_size=32)),
               max_size=16, unique_by=(lambda e: e[0], lambda e: e[1])),
           badge=st.one_of(st.integers(min_value=0, max_value=2**64 - 1),
                           st.integers(min_value=0, max_value=18)))
    @settings(max_examples=200, deadline=None)
    def test_badge_selects_its_transfer_entry(self, entries, badge):
        """A badge is signed for exactly when it names an installed entry,
        and the token binds that entry's digest and no other."""
        state = installed_state(entries)
        chal, pk = bytes([3]) * 32, bytes([4]) * 32
        status, reply = handle_request(state, badge, REQUEST_LEN,
                                       request_regs(chal, pk))
        in_range = FIRST_BADGE <= badge < FIRST_BADGE + len(entries)
        assert (status == STATUS_OK) == in_range
        if not in_range:
            assert (status, reply) == (STATUS_UNKNOWN_BADGE, [STATUS_UNKNOWN_BADGE])
            return
        for i, (_, digest) in enumerate(entries):
            assert signed_by(reply, chal, pk, digest) == (i == badge - FIRST_BADGE)

    @pytest.mark.parametrize("msg_len", [0, 1, 5, 7, 9, 120])
    def test_malformed_lengths(self, msg_len):
        state = installed_state()
        status, reply = handle_request(state, 1, msg_len, [0] * min(msg_len, 120))
        assert (status, reply) == (STATUS_MALFORMED, [STATUS_MALFORMED])

    @pytest.mark.parametrize("n_regs", [7, 9])
    def test_register_count_disagrees_with_msg_len(self, n_regs):
        state = installed_state()
        status, reply = handle_request(state, 1, REQUEST_LEN, [0] * n_regs)
        assert (status, reply) == (STATUS_MALFORMED, [STATUS_MALFORMED])

    @given(badge=st.integers(min_value=0, max_value=2**64 - 1),
           msg_len=st.integers(min_value=0, max_value=120),
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_total_over_arbitrary_inputs(self, badge, msg_len, seed):
        import random
        state = installed_state()
        regs = [random.Random(seed).randrange(2**64)
                for _ in range(min(msg_len, 120))]
        status, reply = handle_request(state, badge, msg_len, regs)
        assert status in (STATUS_OK, STATUS_UNKNOWN_BADGE, STATUS_MALFORMED)
        assert reply[0] == status
        assert len(reply) >= 1


def map_message(entries) -> list[int]:
    """The boot transfer's registers: count, then pid and digest words."""
    words = [len(entries)]
    for pid, digest in entries:
        words += [pid, *struct.unpack(">4Q", digest)]
    return words


def signer_on_boot_endpoint():
    """A kernel whose signing process waits for its map, and a sender:
    ``send(pid, badge, words, msg_len)`` calls the boot endpoint from a
    new process and returns the reply as ``(reply_len, MR0)``."""
    kernel = Kernel()
    state = SpState(KEY)
    kernel.spawn_process(SP_PID, b"sp")
    ep_boot = kernel.create_endpoint()
    ep_attest = kernel.create_endpoint()
    boot_recv = kernel.mint_badged_cap(ep_boot, None, Rights(read=True), SP_PID)
    attest_recv = kernel.mint_badged_cap(ep_attest, None, Rights(read=True), SP_PID)
    kernel.start_process(SP_PID, signing_program(state, boot_recv, attest_recv))
    kernel.run()

    def send(pid, badge, words, msg_len=None):
        kernel.spawn_process(pid, b"sender")
        cap = kernel.mint_badged_cap(ep_boot, badge, Rights(write=True), pid)
        replies = []

        def sender(ctx):
            for i, word in enumerate(words):
                ctx.set_mr(i, word)
            reply_len = yield Call(cap, len(words) if msg_len is None else msg_len)
            replies.append((reply_len, ctx.get_mr(0)))

        kernel.start_process(pid, sender)
        kernel.run()
        (reply,) = replies
        return reply

    return state, send


class TestInKernel:
    def test_rogue_sender_cannot_seed_the_map(self):
        """A badged (non-boot) sender on the boot endpoint gets nacked and
        contributes nothing to the measurement map, even with a
        well-formed map message."""
        state, send = signer_on_boot_endpoint()
        assert send(1, 6, map_message([(1, bytes(32))])) == (1, 1)
        assert not state.installed
        assert send(2, None, map_message([])) == (1, 0)
        assert state.installed
        assert len(state.mmap) == 0                # rogue entry never landed

    @pytest.mark.parametrize("words,msg_len", [
        ([1, 7, 0, 0, 0], None),
        ([1, 7, 0, 0, 0, 0, 0], None),
        ([0, 7, 0, 0, 0, 0], None),
        ([2**64 - 1], None),
        ([0], 0),
    ], ids=["one-short", "one-over", "count-too-small", "old-sentinel", "empty"])
    def test_boot_message_whose_length_disagrees_is_nacked(self, words, msg_len):
        """MR0 must count exactly the entries that follow; anything else is
        nacked, installs nothing, and the signer keeps waiting for a
        well-formed map, which it installs in transfer order."""
        state, send = signer_on_boot_endpoint()
        assert send(1, None, words, msg_len) == (1, 1)
        assert not state.installed
        entries = [(9, bytes([9]) * 32), (3, bytes([3]) * 32)]
        message = map_message(entries)
        assert len(message) == 1 + ENTRY_LEN * len(entries)
        assert send(2, None, message) == (1, 0)
        assert state.mmap.entries() == tuple(entries)

    def test_interleaved_callers_each_get_their_own_identity(self, up_specs, sign_key):
        system = bring_up(default_anchors(), up_specs, sign_key, make_relay_program)
        kernel = system.kernel
        chal = bytes([0xEE]) * 32
        kernel.inject_net(1, AttestRequest(1, chal))
        kernel.inject_net(2, AttestRequest(2, chal))
        kernel.run()
        vk = sign_key.verify_key()
        for pid in (1, 2):
            (reply,) = kernel.drain_net(pid)
            assert isinstance(reply, AttestResponse)
            assert reply.pid == pid
            assert reply.status == STATUS_OK
            assert verify_token(vk, chal, reply.pk,
                                system.sp_state.mmap.lookup(pid), reply.sigma)

    def test_sp_survives_malformed_and_keeps_serving(self, booted):
        kernel = booted.kernel
        assert kernel.process_state(SP_PID) is ProcState.BLOCKED_RECV
        kernel.inject_net(1, AttestRequest(1, bytes(32)))
        kernel.run()
        assert kernel.process_state(SP_PID) is ProcState.BLOCKED_RECV
