"""Every adversarial scenario must be stopped by the intended defense."""

from __future__ import annotations

import inspect

import pytest

import attestsim.attacks as attacks
from attestsim.attacks import SCENARIOS, main as harness_main, run_scenario

# the full-rate scenarios get their deep run in the acceptance suite
FAST = [n for n in SCENARIOS if n not in ("wire-fuzz", "timing-audit")]


@pytest.mark.parametrize("name", FAST)
def test_scenario_stopped(name, tmp_path):
    result = run_scenario(name, workdir=tmp_path / name)
    assert result.ok, (f"{name}: expected {result.expected}, "
                      f"observed {result.observed}")
    assert result.transcript[0].startswith(f"scenario: {name}")
    assert result.transcript[-1].endswith("result=PASS")


# the scenarios whose verdict goes through ``expect_refusal``
REFUSALS = ["replay", "stale-challenge", "tamper-binary", "tamper-boot-image",
            "wrong-key", "badge-forge", "channel-theft"]


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_verdict_in_transcript(name, tmp_path, monkeypatch):
    """The exception that stopped the attack is in the transcript as
    ``<label>: <exception text>``."""
    real = attacks.expect_refusal
    verdicts = []

    def spy(t, expected, attack, *args, **kwargs):
        call = inspect.signature(real).bind(t, expected, attack, *args, **kwargs)
        call.apply_defaults()

        def watched():
            try:
                return attack()
            except expected as e:
                verdicts.append(f"{call.arguments['label']}: {e}")
                raise

        return real(t, expected, watched, *args, **kwargs)

    monkeypatch.setattr(attacks, "expect_refusal", spy)
    result = run_scenario(name, workdir=tmp_path / name)
    assert result.ok and len(verdicts) == 1
    assert verdicts[0] in result.transcript


def test_wire_fuzz_scenario(tmp_path):
    result = run_scenario("wire-fuzz", workdir=tmp_path / "fuzz")
    assert result.ok, result.observed


def test_timing_audit_scenario(tmp_path):
    result = run_scenario("timing-audit", workdir=tmp_path / "timing")
    assert result.ok, result.observed


def test_transcripts_record_wire_traffic(tmp_path):
    result = run_scenario("replay", workdir=tmp_path / "replay")
    sent = [line for line in result.transcript if line.startswith(">>")]
    received = [line for line in result.transcript if line.startswith("<<")]
    # one AttestRequest out, one AttestResponse back, each logged once
    assert len(sent) == 1 and len(received) == 1
    assert sent[0].startswith(">> ") and not sent[0].startswith(">> (")


def test_cli_single_scenario(tmp_path, capsys):
    transcript = tmp_path / "t.log"
    rc = harness_main(["run", "--scenario", "replay",
                       "--transcript", str(transcript)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("PASS")
    assert "replay" in out.splitlines()[0]
    assert "scenario: replay" in transcript.read_text()
