"""Measured boot: image verification, spawn-and-measure, map transfer.

The pipeline brings a device from power-on to a steady state in which the
only live processes are the signing process and the user processes, the
signing process holds a frozen measurement map, and no live process holds
spawn/terminate authority.

Stages, in order:

1. ``secure_boot`` checks the kernel, root-process and signer images
   against the trust anchors, three SHA-256 digests as bytes, and hands
   back a fresh kernel holding one process, the spawn-and-transfer root
   process, spawned from the checked image.
2. ``run_boot`` spawns the signing process from its checked image, with
   its two endpoints, then each user process from the manifest
   (write-xor-execute checked by the kernel at spawn, binary hashed for
   the measurement map, send capability minted with the next counter
   badge), and has the root process transfer the map into the signing
   process over IPC.
3. ``finalize_boot`` terminates the root process and drops kernel
   authority for good.

Any failure mid-pipeline tears the kernel down to an empty, finalized
state; a partially booted device is never observable.

Boot reads and prints nothing: ``attestsim.provision`` parses its anchors
and manifest on the host, and ``prover.build_runtime`` logs the phases of
a boot that finished. ``write_anchor_file`` stays only for the benchmark.
"""

from __future__ import annotations

import json
from typing import Callable

from .crypto import Frozen, SignKey, measure_binary, sha256
from .kernel import (
    Call,
    Kernel,
    ProcessApi,
    RegionRequest,
    Rights,
    SELF_CODE_REGION,
)
from .signing import FIRST_BADGE, WORDS, SpState, signing_program

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
    block = sha256(label.encode("ascii"))
    while len(out) < size:
        out += block
        block = sha256(block)
    return bytes(out[:size])


KERNEL_IMAGE = b"\x7fKRN" + _keystream_blob("kernel-image-v1", 8188)
RP_IMAGE = b"\x7fRTP" + _keystream_blob("root-process-image-v1", 8188)
SP_IMAGE = b"\x7fSGN" + _keystream_blob("signing-process-image-v1", 4092)


def default_anchors() -> dict[str, bytes]:
    """The digests of the built-in images, keyed as in anchor files."""
    return {"kernel_sha256": sha256(KERNEL_IMAGE), "rp_sha256": sha256(RP_IMAGE),
            "sp_sha256": sha256(SP_IMAGE)}


def write_anchor_file(path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({k: v.hex() for k, v in default_anchors().items()}, f, indent=2)
        f.write("\n")


# --- user processes -------------------------------------------------------

class ProcessSpec(Frozen):
    __slots__ = ("pid", "binary", "regions")

    def __init__(self, pid: int, binary: bytes,
                 regions: tuple[RegionRequest, ...] = DEFAULT_REGIONS):
        object.__setattr__(self, "pid", pid)
        object.__setattr__(self, "binary", binary)
        object.__setattr__(self, "regions", regions)


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
    """Check the kernel, root-process and signer images against their
    anchor digests; only if all three match, return a fresh kernel holding
    ``PST_PID``, the boot-time spawn-and-transfer process, spawned from the
    root-process image just checked. ``run_boot`` spawns the signer from
    the ``SP_IMAGE`` checked here."""
    if sha256(kernel_image) != anchors["kernel_sha256"]:
        raise KernelHashMismatchError("kernel image does not match anchor")
    if sha256(rp_image) != anchors["rp_sha256"]:
        raise TcbHashMismatchError("root-process image does not match anchor")
    if sha256(SP_IMAGE) != anchors["sp_sha256"]:
        raise TcbHashMismatchError("signing-process image does not match anchor")
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
            digest = measure_binary(spec.binary)
            kernel.spawn_process(spec.pid, spec.binary, spec.regions)
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
