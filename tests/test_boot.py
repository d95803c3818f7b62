"""Measured boot pipeline: anchors, measurement, transfer, atomicity."""

from __future__ import annotations

import hashlib
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attestsim.boot import (
    CAPACITY,
    KERNEL_IMAGE,
    PST_PID,
    RP_IMAGE,
    SP_PID,
    CapacityExceededError,
    KernelHashMismatchError,
    ManifestError,
    NackFromSpError,
    ProcessSpec,
    TcbHashMismatchError,
    bring_up,
    default_anchors,
    finalize_boot,
    image_manifest,
    load_anchors,
    load_user_manifest,
    run_boot,
    secure_boot,
    transfer_mmap,
    write_anchor_file,
)
from attestsim.kernel import (
    AuthorityError,
    Kernel,
    MSG_MAX_LENGTH,
    ProcState,
    Recv,
    RegionRequest,
    Rights,
    WxViolationError,
)
from attestsim.crypto import (
    CryptoError,
    EmptyBinaryError,
    SignKey,
    SignMode,
    measure_binary,
)
from attestsim.signing import ENTRY_LEN, WORDS, SigningError, SpState
from attestsim.userland import make_relay_program


KEY = SignKey(SignMode.HMAC, bytes.fromhex("ab" * 32))


class TestSecureBoot:
    def test_genuine_images_boot(self):
        kernel = secure_boot(image_manifest())
        assert kernel.live_pids() == {PST_PID}
        kernel.create_endpoint()        # boot authority is not yet dropped

    def test_root_process_runs_the_anchored_image(self):
        """The image checked against ``rp_sha256`` is the code of the one
        process secure boot hands over: the spawn-and-transfer process."""
        kernel = secure_boot(image_manifest())
        assert kernel.live_pids() == {PST_PID}
        assert ("spawn", PST_PID, len(RP_IMAGE)) in kernel.trace

    def test_kernel_image_tamper_refused(self):
        bad = bytearray(KERNEL_IMAGE)
        bad[17] ^= 0x40
        with pytest.raises(KernelHashMismatchError):
            secure_boot(image_manifest(kernel_image=bytes(bad)))

    def test_rp_image_tamper_refused(self):
        bad = bytearray(RP_IMAGE)
        bad[-1] ^= 0x01
        with pytest.raises(TcbHashMismatchError):
            secure_boot(image_manifest(rp_image=bytes(bad)))

    def test_wrong_anchor_refused(self):
        anchors = default_anchors()
        anchors["kernel_sha256"] = "00" * 32
        with pytest.raises(KernelHashMismatchError):
            secure_boot(image_manifest(anchors))

    def test_anchor_file_must_be_an_object(self, tmp_path):
        path = tmp_path / "anchors.json"
        path.write_text(json.dumps([default_anchors()]))
        with pytest.raises(ManifestError):
            load_anchors(str(path))

    def test_anchor_file_roundtrip(self, tmp_path):
        path = tmp_path / "anchors.json"
        write_anchor_file(str(path))
        assert load_anchors(str(path)) == default_anchors()

    @pytest.mark.parametrize("blob", [b'{"kernel_sha256": ', b"\xff\xfe{}"],
                             ids=["truncated-json", "not-utf8"])
    def test_unparsable_anchor_file_is_a_manifest_error(self, tmp_path, blob):
        path = tmp_path / "anchors.json"
        path.write_bytes(blob)
        with pytest.raises(ManifestError):
            load_anchors(str(path))

    @pytest.mark.parametrize("payload", [
        {},
        {"kernel_sha256": "xy" * 32, "rp_sha256": "00" * 32},
        {"kernel_sha256": "00" * 31, "rp_sha256": "00" * 32},
        {"kernel_sha256": "00" * 32},
        # 64 characters that bytes.fromhex reads as 31 bytes, as it skips
        # whitespace: a malformed file, not an image mismatch
        *({**default_anchors(), field: cut(default_anchors()[field])}
          for field in ("kernel_sha256", "rp_sha256")
          for cut in (lambda d: d[:62] + "  ",
                      lambda d: d[:30] + "  " + d[32:],
                      lambda d: d[:30] + "\t\n" + d[32:])),
    ])
    def test_bad_anchor_files(self, tmp_path, payload):
        path = tmp_path / "anchors.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestError, match="anchors.json"):
            load_anchors(str(path))


class TestMeasurement:
    def test_measure_is_sha256(self):
        blob = b"some program bytes"
        assert measure_binary(blob) == hashlib.sha256(blob).digest()

    def test_empty_binary_refused(self):
        with pytest.raises(EmptyBinaryError):
            measure_binary(b"")
        assert issubclass(EmptyBinaryError, CryptoError)

    def test_map_keeps_insertion_order(self):
        specs = [ProcessSpec(pid=pid, binary=bytes([pid]) * 64)
                 for pid in (5, 2, 9)]
        kernel = secure_boot(image_manifest())
        sp_state = run_boot(kernel, specs, KEY, make_relay_program)
        assert [pid for pid, _ in sp_state.mmap.entries()] == [5, 2, 9]


class TestTransferProtocol:
    def test_word_layout_on_the_wire(self):
        """Independent check of the register encoding: one message holding
        MR0 = entry count, then per entry the pid and the digest as four
        big-endian u64 words; ack 0."""
        kernel = Kernel()
        ep = kernel.create_endpoint()
        kernel.spawn_process(PST_PID, b"pst")
        kernel.spawn_process(50, b"fake-sp")
        recv = kernel.mint_badged_cap(ep, None, Rights(read=True), 50)
        send = kernel.mint_badged_cap(ep, None, Rights(write=True), PST_PID)
        raw_messages = []

        def collector(ctx):
            while True:
                _, n = yield Recv(recv)
                raw_messages.append([ctx.get_mr(i) for i in range(n)])
                ctx.set_mr(0, 0)
                ctx.reply(1)

        kernel.start_process(50, collector)
        kernel.run()
        digest_a = hashlib.sha256(b"alpha").digest()
        digest_b = hashlib.sha256(b"beta").digest()
        transfer_mmap(kernel, send, [(12, digest_a), (34, digest_b)])

        assert raw_messages == [
            [2, 12, *struct.unpack(">4Q", digest_a),
             34, *struct.unpack(">4Q", digest_b)]]

    def test_full_map_fits_one_message(self):
        assert 1 + ENTRY_LEN * CAPACITY <= MSG_MAX_LENGTH

    def test_nack_aborts(self):
        kernel = Kernel()
        ep = kernel.create_endpoint()
        kernel.spawn_process(PST_PID, b"pst")
        kernel.spawn_process(50, b"refuser")
        recv = kernel.mint_badged_cap(ep, None, Rights(read=True), 50)
        send = kernel.mint_badged_cap(ep, None, Rights(write=True), PST_PID)

        def refuser(ctx):
            yield Recv(recv)
            ctx.set_mr(0, 1)
            ctx.reply(1)

        kernel.start_process(50, refuser)
        kernel.run()
        with pytest.raises(NackFromSpError):
            transfer_mmap(kernel, send, [(1, bytes(32))])

    @given(digest=st.binary(min_size=32, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_digest_word_packing_roundtrips(self, digest):
        layout = WORDS[ENTRY_LEN - 1]
        assert layout.pack(*layout.unpack(digest)) == digest


class TestRunBoot:
    def _boot(self, specs, key=KEY):
        kernel = secure_boot(image_manifest())
        sp_state = run_boot(kernel, specs, key, make_relay_program)
        finalize_boot(kernel)
        return kernel, sp_state

    def test_badges_follow_manifest_order(self, up_specs):
        kernel, _ = self._boot(up_specs)
        # the kernel's mint records: ("mint", eid, badge, pid, handle), with
        # badge -1 for an unbadged cap
        mints = [e for e in kernel.trace if e[0] == "mint" and e[2] != -1]
        assert [(pid, badge) for _, _, badge, pid, _ in mints] == \
            [(1, 1), (2, 2), (3, 3)]

    def test_measurements_match_binaries(self, up_specs):
        _, sp_state = self._boot(up_specs)
        assert sp_state.mmap.entries() == tuple(
            (spec.pid, hashlib.sha256(spec.binary).digest()) for spec in up_specs)

    def test_live_set_is_ups_plus_sp(self, up_specs):
        kernel, _ = self._boot(up_specs)
        assert kernel.live_pids() == {1, 2, 3, SP_PID}
        assert kernel.process_state(PST_PID) is ProcState.TERMINATED

    def test_boot_processes_cannot_come_back(self, up_specs):
        kernel, _ = self._boot(up_specs)
        with pytest.raises(AuthorityError):
            kernel.spawn_process(99, b"late")
        with pytest.raises(AuthorityError):
            kernel.terminate_process(SP_PID)

    def test_sp_is_listening_after_boot(self, up_specs):
        kernel, _ = self._boot(up_specs)
        assert kernel.process_state(SP_PID) is ProcState.BLOCKED_RECV

    def test_identical_binaries_get_equal_digests(self):
        blob = b"\x42" * 1024
        specs = [ProcessSpec(pid=1, binary=blob), ProcessSpec(pid=2, binary=blob)]
        _, sp_state = self._boot(specs)
        assert sp_state.mmap.lookup(1) == sp_state.mmap.lookup(2)
        assert len(sp_state.mmap) == 2

    def test_full_map_crosses_in_one_rendezvous(self):
        specs = [ProcessSpec(pid=pid, binary=bytes([pid]) * 8)
                 for pid in range(1, CAPACITY + 1)]
        system = bring_up(image_manifest(), specs, KEY, make_relay_program)
        transfers = [e for e in system.kernel.trace
                     if e[0] == "deliver" and e[1] == PST_PID]
        assert len(transfers) == 1
        assert transfers[0][-1] == 1 + ENTRY_LEN * CAPACITY
        assert [pid for pid, _ in system.sp_state.mmap.entries()] == \
            list(range(1, CAPACITY + 1))

    def test_zero_ups_is_a_valid_boot(self):
        kernel, sp_state = self._boot([])
        assert kernel.live_pids() == {SP_PID}
        assert len(sp_state.mmap) == 0

    def test_capacity_exceeded_tears_down(self):
        specs = [ProcessSpec(pid=i, binary=b"x" * 64)
                 for i in range(1, CAPACITY + 2)]
        kernel = secure_boot(image_manifest())
        with pytest.raises(CapacityExceededError):
            run_boot(kernel, specs, KEY, make_relay_program)
        assert kernel.live_pids() == set()
        with pytest.raises(AuthorityError):
            kernel.create_endpoint()

    def test_wx_spec_tears_down(self):
        specs = [ProcessSpec(
            pid=1, binary=b"x" * 64,
            regions=(RegionRequest("self_code",
                                   Rights(write=True, execute=True)),))]
        kernel = secure_boot(image_manifest())
        with pytest.raises(WxViolationError):
            run_boot(kernel, specs, KEY, make_relay_program)
        assert kernel.live_pids() == set()

    def test_empty_binary_tears_down(self):
        kernel = secure_boot(image_manifest())
        with pytest.raises(EmptyBinaryError):
            run_boot(kernel, [ProcessSpec(pid=1, binary=b"")], KEY,
                     make_relay_program)
        assert kernel.live_pids() == set()

    def test_signer_install_failure_tears_down(self, monkeypatch):
        """The signer's own SigningError during the map transfer is neither a
        kernel nor a boot error, and still leaves nothing half-booted."""
        def refuse(state, entries):
            raise SigningError("install refused")

        monkeypatch.setattr(SpState, "install", refuse)
        kernel = secure_boot(image_manifest())
        with pytest.raises(SigningError):
            run_boot(kernel, [ProcessSpec(pid=1, binary=b"x" * 64)], KEY,
                     make_relay_program)
        assert kernel.live_pids() == set()
        with pytest.raises(AuthorityError):
            kernel.create_endpoint()

    @pytest.mark.parametrize("pid", [0, SP_PID, 2**64 - 1])
    def test_reserved_pid_rejected(self, pid):
        kernel = secure_boot(image_manifest())
        with pytest.raises(ManifestError):
            run_boot(kernel, [ProcessSpec(pid=pid, binary=b"x")], KEY,
                     make_relay_program)

    def test_duplicate_pid_rejected(self):
        kernel = secure_boot(image_manifest())
        specs = [ProcessSpec(pid=1, binary=b"a"), ProcessSpec(pid=1, binary=b"b")]
        with pytest.raises(ManifestError):
            run_boot(kernel, specs, KEY, make_relay_program)

    def test_report_mode_tracks_key(self, up_specs):
        for mode in SignMode:
            key = SignKey(mode, bytes.fromhex("cd" * 32))
            system = bring_up(image_manifest(), up_specs, key, make_relay_program)
            assert system.sp_state.sign_key.mode is mode


class TestUserManifest:
    def _write(self, tmp_path, entries):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(entries))
        return str(path)

    def test_load_resolves_relative_paths(self, tmp_path):
        (tmp_path / "prog.bin").write_bytes(b"\x01\x02\x03")
        path = self._write(tmp_path, [{"pid": 4, "binary": "prog.bin"}])
        specs = load_user_manifest(path)
        assert specs == [ProcessSpec(pid=4, binary=b"\x01\x02\x03")]

    def test_caps_parsed(self, tmp_path):
        (tmp_path / "p.bin").write_bytes(b"z")
        path = self._write(tmp_path, [{
            "pid": 1, "binary": "p.bin",
            "caps": [{"region": "self_code", "read": True, "execute": True},
                     {"region": "heap", "read": True, "write": True}]}])
        (spec,) = load_user_manifest(path)
        assert spec.regions == (
            RegionRequest("self_code", Rights(read=True, execute=True)),
            RegionRequest("heap", Rights(read=True, write=True)))

    @pytest.mark.parametrize("entries", [
        {"pid": 1},                                   # not a list
        [["pid", 1]],                                 # entry not an object
        [{"binary": "p.bin"}],                        # missing pid
        [{"pid": "one", "binary": "p.bin"}],          # pid not an int
        [{"pid": True, "binary": "p.bin"}],           # bool masquerading
        [{"pid": 0, "binary": "p.bin"}],              # out of range
        [{"pid": 1}],                                 # missing binary
        [{"pid": 1, "binary": "p.bin", "caps": {}}],  # caps not a list
        [{"pid": 1, "binary": "p.bin",
          "caps": [{"read": True}]}],                 # cap without region
        [{"pid": 1, "binary": "p.bin"},
         {"pid": 1, "binary": "p.bin"}],              # duplicate pid
        [{"pid": 1, "binary": "p.bin",
          "caps": [{"region": "heap", "write": "false"}]}],  # flag not a bool
    ])
    def test_schema_violations(self, tmp_path, entries):
        (tmp_path / "p.bin").write_bytes(b"z")
        path = self._write(tmp_path, entries)
        with pytest.raises(ManifestError):
            load_user_manifest(path)

    @pytest.mark.parametrize("blob", [b'[{"pid": 1, ', b"\xff\xfe[]"],
                             ids=["truncated-json", "not-utf8"])
    def test_unparsable_manifest_is_a_manifest_error(self, tmp_path, blob):
        path = tmp_path / "manifest.json"
        path.write_bytes(blob)
        with pytest.raises(ManifestError):
            load_user_manifest(str(path))

    @pytest.mark.parametrize("cap", ["self_code", ["self_code"], None])
    def test_cap_entry_must_be_an_object(self, tmp_path, cap):
        (tmp_path / "p.bin").write_bytes(b"z")
        path = self._write(tmp_path, [{"pid": 1, "binary": "p.bin",
                                       "caps": [cap]}])
        with pytest.raises(ManifestError):
            load_user_manifest(path)

    def test_missing_binary_file(self, tmp_path):
        path = self._write(tmp_path, [{"pid": 1, "binary": "absent.bin"}])
        with pytest.raises(FileNotFoundError):
            load_user_manifest(path)
