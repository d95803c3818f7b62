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


# writes perfbench's device directory for each workload named on the command
# line, boots it through the provisioning loaders, and attests every pid
DEVICE_CHECK = """
import json, sys
from pathlib import Path
import run
from workloads import DEVICE
from attestsim.boot import bring_up
from attestsim.prover import ProverRuntime
from attestsim.provision import load_anchors, load_keystore, load_user_manifest
from attestsim.userland import make_relay_program
from attestsim.verifier import Policy, Verifier

report = {}
for name in sys.argv[2:]:
    wl, work = run.WORKLOADS[name], Path(sys.argv[1]) / name
    expected = run.write_device(work, wl, 1)
    system = bring_up(load_anchors(str(work / "anchors.json")),
                      load_user_manifest(str(work / "manifest.json")),
                      load_keystore(str(work / "keystore.hex")),
                      make_relay_program)
    runtime = ProverRuntime(system)
    verifier = Verifier(Policy.load(str(work / "policy.json")))
    accepted = []
    for pid in wl.pids:
        chal = verifier.new_challenge()
        result = verifier.check_response(DEVICE, pid, chal,
                                         runtime.attest_once(pid, chal))
        assert result.measurement == expected[pid]
        assert system.sp_state.mmap.lookup(pid) == expected[pid]
        accepted.append(pid)
    report[name] = {"mode": system.sp_state.sign_key.mode.value,
                    "accepted": accepted, "pids": list(wl.pids)}
print(json.dumps(report))
"""


def test_device_directory_boots_and_attests(tmp_path):
    """perfbench's ``write_device`` imports ``boot.write_anchor_file`` and
    ``crypto.write_keystore`` by name. The directory it writes loads through
    ``attestsim.provision``, boots (the anchor file carries all three image
    digests), and every pid is accepted with the measurement perfbench
    expects, in both signing modes."""
    path = [str(ROOT / "perfbench"), str(ROOT / "src"), *sys.path]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    names = ["attest-hmac-serial", "attest-eddsa-pipelined"]
    out = subprocess.run([sys.executable, "-c", DEVICE_CHECK, str(tmp_path),
                          *names], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert {name: r["mode"] for name, r in report.items()} == {
        "attest-hmac-serial": "hmac", "attest-eddsa-pipelined": "eddsa"}
    for r in report.values():
        assert r["accepted"] == r["pids"]
