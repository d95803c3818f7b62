"""``tools/perf_pairs.py`` summarizes canned perfbench result lines by the
claim rule: the win count, the medians against the base's quartiles, the
bound of each end-to-end metric, the base's spread against that bound,
the share of failed operations, each run's own correctness check, and
whether the two trees hold the same benchmark."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "perf_pairs", ROOT / "tools" / "perf_pairs.py")
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

METRICS = [
    {"name": "attest_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "attest_p50_us", "unit": "us", "better": "lower", "bound": 0.25},
]


def output(per_s, p50, failed=0, correct=True) -> str:
    """A run's standard output: report lines, then the one JSON line."""
    metrics = {"attest_per_s": {"value": per_s, "unit": "1/s"},
               "attest_p50_us": {"value": p50, "unit": "us"}}
    return ("perfbench attestsim workload=attest-hmac-serial seed=1\n"
            f"  attest_per_s {per_s}\n"
            + json.dumps({"correct": correct, "attempted": 1000,
                          "failed": failed, "metrics": metrics}) + "\n")


def pairs_of(base, change):
    return [(perf_pairs.result_of(output(*b)), perf_pairs.result_of(output(*c)))
            for b, c in zip(base, change)]


def row(rows, name):
    return next(r for r in rows if r["name"] == name)


def test_a_clear_gain_is_claimed():
    base = [(13000 + 10 * i, 70.0 + 0.1 * i) for i in range(10)]
    change = [(13800 + 10 * i, 67.0 + 0.1 * i) for i in range(10)]
    rows = perf_pairs.summarize(pairs_of(base, change), METRICS)
    per_s, p50 = row(rows, "attest_per_s"), row(rows, "attest_p50_us")
    assert per_s["wins"] == 10 and per_s["verdict"] == "gain"
    assert per_s["base"][0] == pytest.approx(13045)
    assert per_s["deltas"] == [800] * 10
    assert p50["wins"] == 10 and p50["verdict"] == "gain"  # lower is better


def test_eight_wins_in_ten_is_no_gain():
    base = [(13000, 70.0)] * 10
    change = [(13500, 70.0)] * 8 + [(12900, 70.0)] * 2
    rows = perf_pairs.summarize(pairs_of(base, change), METRICS)
    assert row(rows, "attest_per_s")["wins"] == 8
    assert row(rows, "attest_per_s")["verdict"] == "within bound"
    p50 = row(rows, "attest_p50_us")
    assert p50["wins"] == 0 and p50["verdict"] == "within bound"   # ties


def test_a_median_inside_the_base_spread_is_no_gain():
    base = [(12000 + 400 * i, 70.0) for i in range(10)]     # quartiles 1800 apart
    change = [(b + 300, 70.0) for b, _ in base]
    per_s = row(perf_pairs.summarize(pairs_of(base, change), METRICS),
                "attest_per_s")
    assert per_s["wins"] == 10 and per_s["verdict"] == "within bound"


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    base = [(10000 + 1000 * i, 70.0) for i in range(10)]    # quartiles 4500 apart
    change = [(b + 100, 70.0) for b, _ in base]
    per_s = row(perf_pairs.summarize(pairs_of(base, change), METRICS),
                "attest_per_s")
    assert per_s["wins"] == 10 and per_s["verdict"] == "unresolved"
    # unless every change run beats every base run
    base = [(10000, 70.0)] * 5 + [(19000, 70.0)] * 5         # 9000 apart
    change = [(19100, 70.0)] * 10
    per_s = row(perf_pairs.summarize(pairs_of(base, change), METRICS),
                "attest_per_s")
    assert per_s["verdict"] == "within bound"


def test_more_failed_operations_is_no_gain():
    base = [(13000 + 10 * i, 70.0 + 0.1 * i) for i in range(10)]
    change = [(13800 + 10 * i, 67.0 + 0.1 * i, 1) for i in range(10)]
    rows = perf_pairs.summarize(pairs_of(base, change), METRICS)
    assert row(rows, "attest_per_s")["wins"] == 10
    assert {r["verdict"] for r in rows} == {"within bound"}


def test_a_change_run_that_fails_its_check_is_no_gain():
    # say a refusal share that is not 1/4, with no failed operation
    base = [(13000 + 10 * i, 70.0 + 0.1 * i) for i in range(10)]
    change = [(13800 + 10 * i, 67.0 + 0.1 * i, 0, i != 3) for i in range(10)]
    rows = perf_pairs.summarize(pairs_of(base, change), METRICS)
    assert row(rows, "attest_per_s")["wins"] == 10
    assert {r["verdict"] for r in rows} == {"within bound"}


def test_a_loss_past_the_bound_is_reported():
    base = [(13000, 70.0)] * 3
    change = [(9000, 90.0)] * 3                 # -31% and +29%
    rows = perf_pairs.summarize(pairs_of(base, change), METRICS)
    assert {r["verdict"] for r in rows} == {"worse than bound"}


def test_report_counts_failures_and_missing_values():
    pairs = pairs_of([(13000, 70.0)], [(13100, None)])
    pairs[0][1]["failed"], pairs[0][1]["correct"] = 2, False
    rows = perf_pairs.summarize(pairs, METRICS)
    assert row(rows, "attest_p50_us")["verdict"] == "no samples"
    text = perf_pairs.report(rows, pairs)
    assert "base: 0 of 1000 operations failed; 0 of 1 runs not correct" in text
    assert "change: 2 of 1000 operations failed; 1 of 1 runs not correct" in text


def test_a_line_that_is_no_result_is_refused():
    with pytest.raises(ValueError):
        perf_pairs.result_of("perfbench: no attestsim sources\n")
    with pytest.raises(ValueError):
        perf_pairs.result_of("")


def test_a_run_without_a_result_keeps_the_finished_pairs(monkeypatch, capsys):
    """Pair 3's first run prints nothing: the report covers pairs 1 and 2,
    the run's message follows it, and the exit status is 1."""
    def run_once(tree, workload, seed, seconds):
        if seed == 3:
            raise ValueError(f"perf_pairs: {tree}: seed {seed}: the run printed nothing")
        per_s = 13000 if tree.name == "base" else 13100
        return perf_pairs.result_of(output(per_s, 70.0))

    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    code = perf_pairs.main(["--workload", "attest-hmac-serial", "--pairs", "5",
                            "--seconds", "1", "base", "change"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "2 of 5 pairs, seeds 1-2" in out
    assert "per pair: +100 +100\n" in out
    assert "change: 0 of 2000 operations failed" in out
    assert "pair 2/5 (seed 2) done" in err
    assert err.rstrip().endswith("base: seed 3: the run printed nothing")


def test_trees_with_different_benchmarks_read_no_gain(tmp_path, monkeypatch,
                                                       capsys):
    """A clear gain between trees whose ``perfbench/`` or
    ``BENCHMARK.json`` differ is not read as one; the report names the
    files, and a loss past the bound is still reported."""
    trees = {}
    for name in ("base", "change"):
        tree = trees[name] = tmp_path / name
        (tree / "perfbench" / "__pycache__").mkdir(parents=True)
        (tree / "BENCHMARK.json").write_text("{}")
        (tree / "perfbench" / "run.py").write_text("print()")
        (tree / "perfbench" / "__pycache__" / "run.pyc").write_text(name)
    assert perf_pairs.benchmark_diff(trees["base"], trees["change"]) == []
    (trees["change"] / "BENCHMARK.json").write_text('{"paths": []}')
    (trees["change"] / "perfbench" / "run.py").write_text("print(1)")
    (trees["change"] / "perfbench" / "extra.py").write_text("")

    def run_once(tree, workload, seed, seconds):
        per_s, p50 = (13000, 70.0) if tree.name == "base" else (13800, 90.0)
        return perf_pairs.result_of(output(per_s, p50))

    monkeypatch.setattr(perf_pairs, "run_once", run_once)
    assert perf_pairs.main(["--workload", "attest-hmac-serial", "--pairs", "10",
                            "--seconds", "1", str(trees["base"]),
                            str(trees["change"])]) == 0
    out = capsys.readouterr().out
    assert ("the trees' benchmarks differ, so no gain is read: BENCHMARK.json, "
            "perfbench/extra.py, perfbench/run.py\n") in out
    assert "10/10  within bound" in out         # +6%, every pair
    assert "0/10  worse than bound" in out      # p50 +29%
    assert "gain" not in out.replace("no gain is read", "")
