"""Measured boot: image verification, spawn-and-measure, map transfer.

The pipeline brings a device from power-on to a steady state in which the
only live processes are the signing process and the user processes, the
signing process holds a frozen measurement map, and no live process holds
spawn/terminate authority.

Stages, in order:

1. ``secure_boot`` checks the kernel and root-process images against the
   trust anchors, the two SHA-256 digests ``load_anchors`` parses once
   into bytes, and hands back a fresh kernel holding one process, the
   spawn-and-transfer root process, spawned from the checked image.
2. ``run_boot`` spawns the signing process with its two endpoints, then
   each user process from the manifest (write-xor-execute checked by the
   kernel at spawn, binary hashed for the measurement map, send
   capability minted with the next counter badge), and has the root
   process transfer the map into the signing process over IPC.
3. ``finalize_boot`` terminates the root process and drops kernel
   authority for good.

Any failure mid-pipeline tears the kernel down to an empty, finalized
state; a partially booted device is never observable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from typing import Callable

from .crypto import SignKey, measure_binary, parse_hex32, sha256
from .kernel import (
    Call,
    Frozen,
    Kernel,
    ProcessApi,
    RegionRequest,
    Rights,
    SELF_CODE_REGION,
)
from .signing import FIRST_BADGE, WORDS, SpState, signing_program

log = logging.getLogger(__name__)

CAPACITY = 16                 # user processes the measurement map holds

# Boot-time and signer pids live in a reserved band at the top of the pid
# space so a manifest pid can never collide with them.
RESERVED_PID_BASE = 2**64 - 256
PST_PID = RESERVED_PID_BASE + 1
SP_PID = RESERVED_PID_BASE + 3

# a process's own code, readable and executable, and no other region
DEFAULT_REGIONS = (RegionRequest(SELF_CODE_REGION, Rights(read=True, execute=True)),)


class BootError(Exception):
    pass


class KernelHashMismatchError(BootError):
    pass


class TcbHashMismatchError(BootError):
    pass


class CapacityExceededError(BootError):
    pass


class NackFromSpError(BootError):
    pass


class ManifestError(BootError):
    pass


# --- images and anchors ---------------------------------------------------

def _keystream_blob(label: str, size: int) -> bytes:
    """Deterministic filler so image bytes look like real binaries."""
    out = bytearray()
    block = hashlib.sha256(label.encode("ascii")).digest()
    while len(out) < size:
        out += block
        block = hashlib.sha256(block).digest()
    return bytes(out[:size])


KERNEL_IMAGE = b"\x7fKRN" + _keystream_blob("kernel-image-v1", 8188)
RP_IMAGE = b"\x7fRTP" + _keystream_blob("root-process-image-v1", 8188)
SP_IMAGE = b"\x7fSGN" + _keystream_blob("signing-process-image-v1", 4092)


def default_anchors() -> dict[str, bytes]:
    """The digests of the built-in images, keyed as in anchor files."""
    return {"kernel_sha256": sha256(KERNEL_IMAGE), "rp_sha256": sha256(RP_IMAGE)}


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except ValueError as e:         # not UTF-8, or not JSON
        raise ManifestError(f"{path}: not a JSON file: {e}") from e


def load_anchors(path: str) -> dict[str, bytes]:
    """The anchor file's two digests, each parsed once into its 32 bytes."""
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ManifestError(f"{path}: top level must be a JSON object")
    anchors = {}
    for field_name in ("kernel_sha256", "rp_sha256"):
        try:
            anchors[field_name] = parse_hex32(raw.get(field_name))
        except ValueError as e:
            raise ManifestError(f"{path}: {field_name} must be 64 hex chars") from e
    return anchors


def write_anchor_file(path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({k: v.hex() for k, v in default_anchors().items()}, f, indent=2)
        f.write("\n")


# --- user-process manifest ------------------------------------------------

class ProcessSpec(Frozen):
    __slots__ = ("pid", "binary", "regions")

    def __init__(self, pid: int, binary: bytes,
                 regions: tuple[RegionRequest, ...] = DEFAULT_REGIONS):
        object.__setattr__(self, "pid", pid)
        object.__setattr__(self, "binary", binary)
        object.__setattr__(self, "regions", regions)


def _region_from_entry(entry: object) -> RegionRequest:
    if not isinstance(entry, dict):
        raise ManifestError("cap entry must be an object")
    region = entry.get("region")
    if not isinstance(region, str) or not region:
        raise ManifestError("cap entry needs a nonempty 'region'")
    flags = {name: entry.get(name, False) for name in ("read", "write", "execute")}
    for name, value in flags.items():
        if not isinstance(value, bool):
            raise ManifestError(f"cap entry '{name}' must be true or false")
    return RegionRequest(region, Rights(**flags))


def load_user_manifest(path: str) -> list[ProcessSpec]:
    """Read the JSON process manifest; binaries are loaded eagerly.

    Each entry: ``{"pid": n, "binary": "relative/or/abs/path",
    "caps": [{"region": ..., "read": ..., "write": ..., "execute": ...}]}``
    with ``caps`` defaulting to read+execute over the process's own code.
    """
    raw = _load_json(path)
    if not isinstance(raw, list):
        raise ManifestError(f"{path}: top level must be a JSON array")
    base = os.path.dirname(os.path.abspath(path))
    specs: list[ProcessSpec] = []
    seen: set[int] = set()
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ManifestError(f"{path}[{i}]: entry must be an object")
        pid = entry.get("pid")
        if not isinstance(pid, int) or isinstance(pid, bool):
            raise ManifestError(f"{path}[{i}]: 'pid' must be an integer")
        if not 1 <= pid < RESERVED_PID_BASE:
            raise ManifestError(
                f"{path}[{i}]: pid {pid} outside [1, {RESERVED_PID_BASE})")
        if pid in seen:
            raise ManifestError(f"{path}[{i}]: duplicate pid {pid}")
        seen.add(pid)
        binary_path = entry.get("binary")
        if not isinstance(binary_path, str):
            raise ManifestError(f"{path}[{i}]: 'binary' must be a path")
        binary_path = os.path.join(base, binary_path)   # keeps an absolute path
        with open(binary_path, "rb") as bf:
            binary = bf.read()
        caps = entry.get("caps")
        if caps is None:
            regions = DEFAULT_REGIONS
        elif isinstance(caps, list):
            regions = tuple(_region_from_entry(c) for c in caps)
        else:
            raise ManifestError(f"{path}[{i}]: 'caps' must be a list")
        specs.append(ProcessSpec(pid=pid, binary=binary, regions=regions))
    return specs


# --- pipeline -------------------------------------------------------------

class BootedSystem:
    """A finalized device; the signer's state owns key and measurements."""

    def __init__(self, kernel: Kernel, sp_state: SpState):
        self.kernel = kernel
        self.sp_state = sp_state


# ``factory(spec, sp_cap)`` returns a user process's program. The caller passes
# it (the daemon passes ``userland.make_relay_program``): boot loads no user code.
ProgramFactory = Callable[[ProcessSpec, int], Callable]


def secure_boot(anchors: dict[str, bytes], kernel_image: bytes = KERNEL_IMAGE,
                rp_image: bytes = RP_IMAGE) -> Kernel:
    """Check both images against their anchor digests (``load_anchors``);
    only if both match, return a fresh kernel holding ``PST_PID``, the
    boot-time spawn-and-transfer process, spawned from the root-process
    image just checked."""
    if sha256(kernel_image) != anchors["kernel_sha256"]:
        raise KernelHashMismatchError("kernel image does not match anchor")
    if sha256(rp_image) != anchors["rp_sha256"]:
        raise TcbHashMismatchError("root-process image does not match anchor")
    log.info("phase=boot kernel_sha256=%s rp_sha256=%s",
             anchors["kernel_sha256"].hex(), anchors["rp_sha256"].hex())
    kernel = Kernel()
    kernel.spawn_process(PST_PID, rp_image)
    return kernel


def transfer_mmap(kernel: Kernel, sp_boot_cap: int,
                  entries: list[tuple[int, bytes]]) -> None:
    """Send the whole map to the signer in one message on the boot endpoint.

    Runs as the spawn-and-transfer process ``PST_PID``. MR0 is the entry
    count n; each ``(pid, digest)`` follows as the pid and then the
    digest's four big-endian words, ``1 + 5n`` registers in all. The ack
    MR0 = 0 means the map is installed; any other reply aborts the boot.
    """
    words = [len(entries)]
    for pid, digest in entries:
        words += [pid, *WORDS[len(digest) // 8].unpack(digest)]

    def program(ctx: ProcessApi):
        for i, word in enumerate(words):
            ctx.set_mr(i, word)
        reply_len = yield Call(sp_boot_cap, len(words))
        if reply_len != 1 or ctx.get_mr(0) != 0:
            raise NackFromSpError(f"transfer of {len(entries)} entries was refused")

    kernel.start_process(PST_PID, program)
    kernel.run()


def run_boot(kernel: Kernel, specs: list[ProcessSpec], sign_key: SignKey,
             up_program_factory: ProgramFactory) -> SpState:
    """Spawn, measure, and wire up everything on a kernel from secure_boot.

    On return the signing process is live and serving, every user process
    is live and holds exactly one badged send capability to the signing
    endpoint, and the measurement map has been transferred and installed.
    Boot authority is still held; call ``finalize_boot`` next. Returns the
    signer's state, whose ``mmap`` is the one measurement table.
    """
    sp_state = SpState(sign_key)
    try:
        if len(specs) > CAPACITY:
            raise CapacityExceededError(
                f"{len(specs)} processes exceed map capacity {CAPACITY}")
        seen = set()
        for spec in specs:
            if spec.pid in seen:
                raise ManifestError(f"duplicate pid {spec.pid}")
            if not 1 <= spec.pid < RESERVED_PID_BASE:
                raise ManifestError(f"pid {spec.pid} is reserved")
            seen.add(spec.pid)

        log.info("phase=process-spawn pid=%#x role=signing-process", SP_PID)
        kernel.spawn_process(SP_PID, SP_IMAGE, DEFAULT_REGIONS)
        ep_boot = kernel.create_endpoint()
        ep_attest = kernel.create_endpoint()
        sp_boot_recv = kernel.mint_badged_cap(ep_boot, None, Rights(read=True), SP_PID)
        sp_attest_recv = kernel.mint_badged_cap(ep_attest, None, Rights(read=True), SP_PID)
        pst_send = kernel.mint_badged_cap(ep_boot, None, Rights(write=True), PST_PID)
        kernel.start_process(SP_PID, signing_program(sp_state, sp_boot_recv, sp_attest_recv))
        kernel.run()            # SP parks on the boot endpoint

        entries = []
        for badge, spec in enumerate(specs, start=FIRST_BADGE):
            log.info("phase=process-spawn pid=%d size=%d", spec.pid, len(spec.binary))
            digest = measure_binary(spec.binary)
            kernel.spawn_process(spec.pid, spec.binary, spec.regions)
            log.info("phase=measurement pid=%d sha256=%s", spec.pid, digest.hex())
            sp_cap = kernel.mint_badged_cap(ep_attest, badge, Rights(write=True), spec.pid)
            kernel.start_process(spec.pid, up_program_factory(spec, sp_cap))
            entries.append((spec.pid, digest))
        kernel.run()            # user processes park on their net queues

        transfer_mmap(kernel, pst_send, entries)
        if not sp_state.installed:
            raise NackFromSpError("signer never installed its state")
    except BaseException:
        # whatever failed (a kernel refusal, a boot check, the signer's own
        # SigningError from install), nothing half-booted is left behind
        _teardown(kernel)
        raise
    return sp_state


def finalize_boot(kernel: Kernel) -> None:
    """Terminate the transfer process and drop all kernel authority."""
    kernel.terminate_process(PST_PID)
    kernel.finalize()
    log.info("phase=boot-finalized live=%d", len(kernel.live_pids()))


def _teardown(kernel: Kernel) -> None:
    # boot failed: leave nothing behind but a finalized, empty kernel
    for pid in sorted(kernel.live_pids()):
        kernel.terminate_process(pid)
    kernel.finalize()


def bring_up(anchors: dict[str, bytes], specs: list[ProcessSpec],
             sign_key: SignKey, up_program_factory: ProgramFactory) -> BootedSystem:
    """Full pipeline: check the built-in images against ``anchors``, boot,
    transfer, finalize."""
    kernel = secure_boot(anchors)
    sp_state = run_boot(kernel, specs, sign_key, up_program_factory)
    finalize_boot(kernel)
    return BootedSystem(kernel=kernel, sp_state=sp_state)
