"""The README's in-process quick start runs exactly as printed."""

from __future__ import annotations

import re
from pathlib import Path

from attestsim.crypto import sha256, verify_token

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
