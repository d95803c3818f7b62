"""Run proverd with spans around attestsim's daemon-side functions.

    python3 perfbench/launcher.py SPANS.json [proverd arguments ...]

Wraps module and class attributes of ``attestsim`` (nothing under
``src/`` is edited), then calls ``attestsim.prover.main`` with the
remaining arguments. On SIGTERM it writes the spans, the call counters
and the length of ``Kernel.trace`` to SPANS.json and exits 0.

A daemon-side round id is the first 8 bytes of the challenge, in hex, so
it matches the id the load generator gives the same round. A channel
frame carries no challenge; its spans keep the id of the round the
connection last attested, which is the round the channel is bound to.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys

import attestsim.boot as boot
import attestsim.kernel as kernel
import attestsim.prover as prover
import attestsim.signing as signing
import attestsim.userland as userland
import attestsim.wire as wire
from spans import RID, VALUE, Tracer


def install(tr: Tracer, captured: dict) -> None:
    def keep_runtime(args, result, rec, st):
        captured["runtime"] = result

    def client_port(args, result, rec, st):
        rec[VALUE] = args[2][1]         # finish_request(self, request, client_address)

    def round_of_frame(args, result, rec, st):
        if isinstance(result, wire.AttestRequest):
            st.rid = rec[RID] = result.chal[:8].hex()

    def count_errors(args, result, rec, st):
        if isinstance(args[0], wire.ErrorMsg):
            tr.counts[f"err_{args[0].code}"] += 1

    def keep_result(args, result, rec, st):
        rec[VALUE] = result

    tr.wrap(prover, "build_runtime", "prover.build_runtime", keep_runtime)
    tr.wrap(prover, "bring_up", "boot.bring_up")
    tr.wrap(boot, "secure_boot", "boot.secure_boot")
    tr.wrap(boot, "run_boot", "boot.run_boot")
    tr.wrap(boot, "finalize_boot", "boot.finalize_boot")
    tr.wrap(prover.ProverServer, "finish_request", "prover.serve_conn", client_port)
    tr.wrap(prover, "decode_payload", "wire.decode", round_of_frame)
    tr.wrap(prover, "encode", "wire.encode", count_errors)
    tr.wrap(prover.ProverRuntime, "attest_once", "prover.attest_once")
    tr.wrap(prover.ProverRuntime, "channel_once", "prover.channel_once")
    tr.wrap(kernel.Kernel, "run", "kernel.run", keep_result)
    tr.wrap(signing, "handle_request", "signing.handle_request")
    tr.wrap(signing, "attest_token", "crypto.attest_token")
    tr.wrap(userland, "derive_session_key", "crypto.derive_session_key")
    tr.wrap(userland, "seal", "crypto.seal")
    tr.wrap(userland, "open_sealed", "crypto.open_sealed")
    tr.count(socket.socket, "recv", "recv_calls")


def dump(path: str, tr: Tracer, captured: dict) -> None:
    runtime = captured.get("runtime")
    out = {"spans": tr.export(), "counts": dict(tr.counts),
           "kernel_trace_len": len(runtime.kernel.trace) if runtime else None}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(out, f, separators=(",", ":"))
    os.replace(tmp, path)


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    path, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer()
    captured: dict = {}
    install(tr, captured)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    try:
        return prover.main(argv)
    finally:
        dump(path, tr, captured)


if __name__ == "__main__":
    raise SystemExit(main())
