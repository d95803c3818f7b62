"""Host-side provisioning: device files are read only from regular files,
and ``write_device`` lays out a directory the loaders read back.

A FIFO in place of an input file used to block its loader in ``open``
until a writer came. Each FIFO case runs in a fresh interpreter with a
deadline, so that a regression fails the test instead of hanging the
suite.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys

import pytest

from attestsim.boot import ManifestError, default_anchors
from attestsim.crypto import SignMode
from attestsim.provision import (
    DeviceFiles,
    KeystoreError,
    load_anchors,
    load_keystore,
    load_user_manifest,
    write_device,
)

PIDS = (1, 2)
DEADLINE_S = 10
# calls a loader on a path and prints the name of what it raised
LOAD = """
import sys
from attestsim import provision
try:
    getattr(provision, sys.argv[1])(sys.argv[2])
except Exception as e:
    print(type(e).__name__, e)
"""


@pytest.fixture
def device(tmp_path) -> DeviceFiles:
    return write_device(tmp_path / "dev", PIDS, SignMode.HMAC, random.Random(1))


# (loader, the file made a FIFO, the file passed to the loader, error)
FIFO_CASES = {
    "keystore": ("load_keystore", "keystore", "keystore", "KeystoreError"),
    "anchors": ("load_anchors", "anchors", "anchors", "ManifestError"),
    "manifest": ("load_user_manifest", "manifest", "manifest", "ManifestError"),
    "binary": ("load_user_manifest", "binary", "manifest", "ManifestError"),
}


@pytest.mark.parametrize("case", FIFO_CASES)
def test_fifo_is_refused_without_blocking(device, case):
    loader, fifo, arg, error = FIFO_CASES[case]
    paths = {"keystore": device.keystore, "anchors": device.anchors,
             "manifest": device.manifest, "binary": device.binaries[1]}
    os.remove(paths[fifo])
    os.mkfifo(paths[fifo], 0o600)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", LOAD, loader, str(paths[arg])],
                         env=env, capture_output=True, text=True,
                         timeout=DEADLINE_S, check=True)
    assert out.stdout == f"{error} {paths[fifo]}: not a regular file\n"


@pytest.mark.parametrize("loader,error", [
    (load_keystore, KeystoreError), (load_anchors, ManifestError),
    (load_user_manifest, ManifestError)])
def test_directory_is_refused(tmp_path, loader, error):
    with pytest.raises(error, match="not a regular file"):
        loader(str(tmp_path))


def test_written_device_loads_back(device):
    assert load_anchors(str(device.anchors)) == default_anchors()
    key = load_keystore(str(device.keystore))
    assert (key.mode, key.secret_bytes()) == (device.key.mode,
                                              device.key.secret_bytes())
    specs = load_user_manifest(str(device.manifest))
    assert [spec.pid for spec in specs] == list(PIDS)
    assert {spec.pid: hashlib.sha256(spec.binary).digest()
            for spec in specs} == device.measurements


def test_one_seed_gives_one_device(tmp_path):
    first, second = (write_device(tmp_path / name, PIDS, SignMode.ED25519,
                                  random.Random(5)) for name in ("a", "b"))
    assert first.measurements == second.measurements
    assert first.keystore.read_bytes() == second.keystore.read_bytes()
