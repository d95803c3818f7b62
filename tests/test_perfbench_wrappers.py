"""perfbench's span wrappers still find every name they wrap.

``perfbench/launcher.py`` (daemon side) and ``perfbench/workloads.py``
(verifier side) wrap attestsim's module and class attributes by name, so
a rename in ``src/`` would crash ``perfbench/run.py --trace 1`` with an
``AttributeError``. The check installs both sets in a fresh interpreter,
so no wrapper leaks into the rest of the suite, and nothing under
``perfbench/`` is changed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECK = """
import json, socket
import attestsim.boot, attestsim.crypto, attestsim.kernel, attestsim.prover
import attestsim.signing, attestsim.userland, attestsim.verifier, attestsim.wire
import launcher, workloads
from spans import Tracer

owners = {
    "boot": attestsim.boot, "crypto": attestsim.crypto,
    "Kernel": attestsim.kernel.Kernel, "prover": attestsim.prover,
    "ProverServer": attestsim.prover.ProverServer,
    "ProverRuntime": attestsim.prover.ProverRuntime,
    "signing": attestsim.signing, "userland": attestsim.userland,
    "verifier": attestsim.verifier, "Verifier": attestsim.verifier.Verifier,
    "wire": attestsim.wire, "socket": socket.socket,
}
before = {name: dict(vars(o)) for name, o in owners.items()}
tr = Tracer()
launcher.install(tr, {})
workloads.trace_verifier(tr)
wrapped = sorted(n for n, o in owners.items() if dict(vars(o)) != before[n])
tr.restore()
changed = sorted(n for n, o in owners.items() if dict(vars(o)) != before[n])
print(json.dumps({"wrapped": wrapped, "changed_after_restore": changed}))
"""


def test_wrappers_install_and_restore():
    path = [str(ROOT / "perfbench"), str(ROOT / "src"), *sys.path]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", CHECK], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["wrapped"] == sorted([
        "boot", "crypto", "Kernel", "prover", "ProverServer", "ProverRuntime",
        "signing", "userland", "verifier", "Verifier", "wire", "socket"])
    assert report["changed_after_restore"] == []
