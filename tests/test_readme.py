"""The README's in-process quick start runs exactly as printed, and its
list of what proverd prints names the phases the daemon logs."""

from __future__ import annotations

import logging
import re
from pathlib import Path

import attestsim.signing as signing
from attestsim.crypto import sha256, verify_token
from attestsim.prover import BackgroundDaemon
from attestsim.wire import ERR_INTERNAL, AttestRequest, ErrorMsg, FrameStream

README = Path(__file__).resolve().parent.parent / "README.md"


def test_in_process_quick_start_runs_as_printed(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split(
        "## Quick start, in process", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    firmware = bytes(range(256)) * 16
    (tmp_path / "firmware.bin").write_bytes(firmware)
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(code, str(README), "exec"), scope)

    reply, key = scope["reply"], scope["key"]
    assert reply.status == 0 and reply.pid == 1
    assert verify_token(key.verify_key(), scope["chal"], reply.pk,
                        sha256(firmware), reply.sigma)


def test_what_proverd_prints_names_the_phases_a_daemon_logs(env, monkeypatch,
                                                            caplog):
    """The README's "What proverd prints" list names exactly the ``phase=``
    tags that a daemon logs as it boots, listens and meets a signer fault."""
    listing = README.read_text(encoding="utf-8").split(
        "What proverd prints", 1)[1].split("\n\n", 2)[1]
    listed = set(re.findall(r"`phase=([\w-]+)", listing))

    def fault(*args):
        raise RuntimeError("signer fault")

    monkeypatch.setattr(signing, "handle_request", fault)
    with caplog.at_level(logging.INFO):
        with BackgroundDaemon(env.config) as daemon, FrameStream.connect(
                *daemon.address, timeout=5.0) as stream:
            stream.send(AttestRequest(1, bytes(32)))
            assert stream.recv() == ErrorMsg(ERR_INTERNAL)
    logged = {m.group(1) for r in caplog.records
              if (m := re.match(r"phase=([\w-]+)", r.getMessage()))}
    assert listed == logged
