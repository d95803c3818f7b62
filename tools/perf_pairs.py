"""Interleaved pairs of perfbench runs in two source trees, and their verdict.

    python3 tools/perf_pairs.py --workload NAME --pairs 10 --seconds 8 BASE CHANGE

BASE and CHANGE are the roots of two source checkouts, say a clone of the
parent commit and the working tree. Pair ``i`` runs ``perfbench/run.py
--workload NAME --seed S+i --seconds T --trace 0`` in both trees, each
from its own root and with its own perfbench, BASE first in even pairs and
CHANGE first in odd ones. The script then prints, for each end-to-end
metric that ``BENCHMARK.json`` declares, each tree's median and quartiles,
the change in each pair, and the count of pairs that moved the metric the
better way (ties count for neither). Its verdict applies the claim rule
of ROADMAP.md: a gain holds when the change wins at least nine pairs in
ten, the medians differ by more than the distance between BASE's
quartiles, the change fails no larger share of its operations than BASE,
and no CHANGE run failed its own check (``"correct": false``), and the
two trees hold the same benchmark: a change that claims a gain may not
edit it, so when ``BENCHMARK.json`` or a file under ``perfbench/``
differs, the report names the files and reads no gain. Otherwise
the change's median is worse than the metric's bound of BASE's; or the
verdict is unresolved, when BASE's quartiles lie further apart than that
bound and not every CHANGE run beats every BASE run; or it is within
bound. Failed operations are totalled per tree. A run that prints no
result ends the series: the report covers the pairs finished before it,
then its message follows and the exit status is 1.

Standard library only; nothing under ``perfbench/`` is touched.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9             # pairs the change must win for a gain


def result_of(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise ValueError(f"not a perfbench result: {lines[-1][:200]!r}")
    return result


def value(result: dict, name: str) -> Optional[float]:
    entry = result["metrics"].get(name)
    return None if entry is None else entry["value"]


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def failed_share(results: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def benchmark_files(tree: Path) -> dict[str, bytes]:
    """``BENCHMARK.json`` and each file under ``perfbench/`` in ``tree``, by
    path relative to it, without compiled bytecode."""
    paths = [tree / "BENCHMARK.json", *(tree / "perfbench").rglob("*")]
    return {path.relative_to(tree).as_posix(): path.read_bytes()
            for path in paths
            if path.is_file() and "__pycache__" not in path.relative_to(tree).parts}


def benchmark_diff(base: Path, change: Path) -> list[str]:
    """The benchmark files whose bytes differ between the trees, or that
    only one of them has."""
    a, b = benchmark_files(base), benchmark_files(change)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict],
              benchmark_differs: bool = False) -> list[dict]:
    """One row per metric of ``metrics`` (``BENCHMARK.json``'s
    ``end_to_end`` entries) over ``(base, change)`` result pairs; no gain is
    read when the trees' benchmarks differ (``benchmark_diff``)."""
    blocked = (failed_share([c for _, c in pairs])
               > failed_share([b for b, _ in pairs])
               or not all(c["correct"] for _, c in pairs)
               or benchmark_differs)
    rows = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        both = [(value(b, name), value(c, name)) for b, c in pairs]
        both = [(b, c) for b, c in both if b is not None and c is not None]
        row = {"name": name, "unit": metric["unit"], "pairs": len(both),
               "deltas": [c - b for b, c in both]}
        if not both:
            row["verdict"] = "no samples"
            rows.append(row)
            continue
        base = [b for b, _ in both]
        change = [c for _, c in both]
        row["base"] = (statistics.median(base), *quartiles(base))
        row["change"] = (statistics.median(change), *quartiles(change))
        row["wins"] = sum((d > 0) if higher else (d < 0) for d in row["deltas"])
        diff = row["change"][0] - row["base"][0]
        gain = diff if higher else -diff
        spread = row["base"][2] - row["base"][1]
        bound = metric["bound"] * abs(row["base"][0])
        apart = min(change) > max(base) if higher else max(change) < min(base)
        if row["wins"] >= WIN_SHARE * len(both) and gain > spread and not blocked:
            row["verdict"] = "gain"
        elif -gain > bound:
            row["verdict"] = "worse than bound"
        elif spread > bound and not apart:
            row["verdict"] = "unresolved"
        else:
            row["verdict"] = "within bound"
        rows.append(row)
    return rows


def report(rows: list[dict], pairs: list[tuple[dict, dict]]) -> str:
    def fmt(x: float) -> str:
        return f"{x:.4g}"

    def spread(t: tuple[float, float, float]) -> str:
        return f"{fmt(t[0])} [{fmt(t[1])}, {fmt(t[2])}]"

    out = [f"{'metric':<16} {'unit':<4} {'base median [q1, q3]':<28} "
           f"{'change median [q1, q3]':<28} {'wins':>6}  verdict"]
    for row in rows:
        if "base" not in row:
            out.append(f"{row['name']:<16} {row['unit']:<4} {row['verdict']}")
            continue
        out.append(f"{row['name']:<16} {row['unit']:<4} {spread(row['base']):<28} "
                   f"{spread(row['change']):<28} "
                   f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}")
        out.append("  per pair: " + " ".join(f"{d:+.4g}" for d in row["deltas"]))
    for side, results in (("base", [b for b, _ in pairs]),
                          ("change", [c for _, c in pairs])):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        incorrect = sum(not r["correct"] for r in results)
        out.append(f"{side}: {failed} of {attempted} operations failed; "
                   f"{incorrect} of {len(results)} runs not correct")
    return "\n".join(out)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result of one run; ``ValueError`` if it printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        return result_of(done.stdout)
    except ValueError as e:
        raise ValueError(f"perf_pairs: {tree}: seed {seed}: {e}\n"
                         f"{done.stderr[-2000:]}") from e


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="tools/perf_pairs.py",
                                 description=__doc__.split("\n")[0])
    ap.add_argument("base", type=Path, help="root of the base source tree")
    ap.add_argument("change", type=Path, help="root of the changed source tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    differ = benchmark_diff(args.base, args.change)
    pairs, failure = [], None
    for i in range(args.pairs):
        seed = args.seed + i
        try:
            if i % 2 == 0:
                base = run_once(args.base, args.workload, seed, args.seconds)
                change = run_once(args.change, args.workload, seed, args.seconds)
            else:
                change = run_once(args.change, args.workload, seed, args.seconds)
                base = run_once(args.base, args.workload, seed, args.seconds)
        except ValueError as e:
            failure = str(e)
            break
        pairs.append((base, change))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
    print(f"{args.workload}: {len(pairs)} of {args.pairs} pairs, seeds "
          f"{args.seed}-{args.seed + len(pairs) - 1}, {args.seconds:g} s each, "
          f"base {args.base}, change {args.change}")
    if differ:
        print("the trees' benchmarks differ, so no gain is read: "
              + ", ".join(differ))
    print(report(summarize(pairs, metrics, bool(differ)), pairs), flush=True)
    if failure is not None:
        print(failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
