"""Host-side provisioning: the device's input files, read and written.

The prover reads a keystore, an anchor file and a process manifest
(docs/formats.md) before it boots. Their parsers live here, outside the
RA TCB, which takes only parsed values: the ``SignKey``, the anchor
digests as bytes and the ``ProcessSpec`` list. Each file is read through
``_read_regular``, which refuses anything but a regular file, so that a
FIFO cannot block the daemon's start. ``write_device`` lays out a whole
device directory, policy included.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path
from random import Random

from .boot import (DEFAULT_REGIONS, RESERVED_PID_BASE, ManifestError, ProcessSpec,
                   write_anchor_file)
from .crypto import (SEED_LEN, CryptoError, SignKey, SignMode, measure_binary,
                     parse_hex32, write_keystore)
from .kernel import RegionRequest, Rights

DEVICE = "dev0"               # the device id in the policy ``write_device`` writes
BINARY_SIZE = 4096            # bytes of random code per user binary


class KeystoreError(CryptoError):
    pass


def _read_regular(path: str, error: type[Exception], private: bool = False) -> bytes:
    """The bytes of ``path``, opened without waiting for a FIFO's writer and
    refused with ``error`` unless the open fd is a regular file that, if
    ``private``, grants no world read."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        mode = os.fstat(fd).st_mode
        if not stat.S_ISREG(mode):
            raise error(f"{path}: not a regular file")
        if private and mode & stat.S_IROTH:
            raise error(f"{path} is world-readable; refusing to load")
        with open(fd, "rb", closefd=False) as f:
            return f.read()
    finally:
        os.close(fd)


def _load_json(path: str) -> object:
    try:
        return json.loads(_read_regular(path, ManifestError).decode("utf-8"))
    except ValueError as e:         # not UTF-8, or not JSON
        raise ManifestError(f"{path}: not a JSON file: {e}") from e


def load_anchors(path: str) -> dict[str, bytes]:
    """The anchor file's three digests, each parsed once into its 32 bytes."""
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ManifestError(f"{path}: top level must be a JSON object")
    anchors = {}
    for field_name in ("kernel_sha256", "rp_sha256", "sp_sha256"):
        try:
            anchors[field_name] = parse_hex32(raw.get(field_name))
        except ValueError as e:
            raise ManifestError(f"{path}: {field_name} must be 64 hex chars") from e
    return anchors


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
        binary = _read_regular(binary_path, ManifestError)
        caps = entry.get("caps")
        if caps is None:
            regions = DEFAULT_REGIONS
        elif isinstance(caps, list):
            regions = tuple(_region_from_entry(c) for c in caps)
        else:
            raise ManifestError(f"{path}[{i}]: 'caps' must be a list")
        specs.append(ProcessSpec(pid=pid, binary=binary, regions=regions))
    return specs


# --- keystore file ------------------------------------------------------------
#
# Two lines: 64 hex chars of secret, then a mode tag ("hmac" or "eddsa").
# World-readable keystores are refused outright.

def load_keystore(path: str) -> SignKey:
    raw = _read_regular(path, KeystoreError, private=True)
    if not raw.isascii():
        raise KeystoreError(f"{path}: keystore must be ASCII")
    lines = [ln.strip() for ln in raw.decode("ascii").splitlines() if ln.strip()]
    if len(lines) != 2:
        raise KeystoreError(f"{path}: expected secret line and mode line")
    secret_hex, mode_tag = lines
    try:
        secret = parse_hex32(secret_hex)
    except ValueError as e:
        raise KeystoreError(f"{path}: secret must be 64 hex chars") from e
    try:
        mode = SignMode(mode_tag)
    except ValueError as e:
        raise KeystoreError(f"{path}: unknown mode tag {mode_tag!r}") from e
    return SignKey(mode, secret)


class DeviceFiles:
    """The paths ``write_device`` wrote, the key, and each pid's measurement."""

    def __init__(self, root: Path, key: SignKey, measurements: dict[int, bytes]):
        self.keystore = root / "keystore.hex"
        self.anchors = root / "anchors.json"
        self.manifest = root / "manifest.json"
        self.policy = root / "policy.json"
        self.binaries = {pid: root / "bin" / f"up_{pid}.bin" for pid in measurements}
        self.key = key
        self.measurements = measurements


def write_device(root: Path, pids: tuple[int, ...], mode: SignMode, rng: Random,
                 policy_key: SignKey | None = None) -> DeviceFiles:
    """Lay out a device under ``root``: one binary per pid and then a
    ``mode`` key, both drawn from ``rng``; the anchors of the built-in
    images; a manifest; and a policy for ``DEVICE`` that trusts
    ``policy_key``'s verify key, the device key's by default."""
    binaries = {pid: rng.randbytes(BINARY_SIZE) for pid in pids}
    files = DeviceFiles(root, SignKey(mode, rng.randbytes(SEED_LEN)),
                        {pid: measure_binary(b) for pid, b in binaries.items()})
    (root / "bin").mkdir(parents=True, exist_ok=True)
    for pid, binary in binaries.items():
        files.binaries[pid].write_bytes(binary)
    write_keystore(str(files.keystore), files.key)
    write_anchor_file(str(files.anchors))
    files.manifest.write_text(json.dumps(
        [{"pid": pid, "binary": f"bin/up_{pid}.bin",
          "caps": [{"region": "self_code", "read": True, "execute": True}]}
         for pid in pids], indent=2))
    vk = (policy_key or files.key).verify_key()
    files.policy.write_text(json.dumps({"devices": {DEVICE: {
        "mode": vk.mode.value, "verify_key": vk.material.hex(),
        "golden": {str(pid): f"bin/up_{pid}.bin" for pid in pids}}}}, indent=2))
    return files
