"""attestsim benchmark: a real proverd on loopback, driven by one generator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/attestsim``; there
is nothing to build). The benchmark writes a device directory (keystore,
anchors, binaries, manifest, policy) from ``--seed`` under
``.perfbench_out/<workload>/``, launches ``python -m attestsim.prover
--listen 127.0.0.1:0``, and drives it from this process through the
public ``attestsim.verifier`` and ``attestsim.wire`` API: at most two
threads and two connections. The daemon and this process are pinned to
the same CPU (see ``main``). The measured time is split between several
daemons launched one after another (see ``SEGMENTS``). Every verdict is
checked; a wrong one counts as failed and makes the exit code 1.

Time figures are reported in reference time: the load generator runs a
fixed speed probe between rounds (``speed.py``), and each round's latency
and each slice's rate are scaled by how fast the probe ran around them, so
that other tenants on the host move them less. Wall-clock figures are
printed next to them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` splits
``--seconds`` between an untraced phase and a phase against a daemon
started through ``launcher.py``, with spans on both sides of the socket,
and prints the per-layer metrics and the tracing overhead (traced minus
untraced). Spans are written to the output directory when the run ends.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import speed
from spans import END, NAME, START, VALUE, SpanIndex, Tracer
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

BINARY_SIZE = 4096
WARMUP_S = 0.5              # per daemon, before its share of the window
SLICE_S = 1.0               # attest figures are taken over slices this long
PROBE_SPAN = 5              # a round is scaled by the median of this many probes
# The untraced phase is split between this many daemons, launched one after
# another, and its figures pool their slices. About one daemon process in
# three runs 15-20% slower than the others for its whole life (on a 2-vCPU
# cloud VM, attest-hmac-serial, rounds sent to live daemons in turn); the
# speed probe runs in the generator and cannot see it, and with a single
# daemon per run that made the run's figures bimodal. The launches also
# give setup_s its samples, spread over the run's changing load.
SEGMENTS = 6
# daemon_rss_mib is the daemons' median peak RSS when they have done this
# many rounds: at the end of a fixed time it would grow with throughput,
# since Kernel.trace keeps every round
RSS_AT_ROUNDS = 2_000
TRACED_LAUNCHES = 3         # traced launches in --trace 1, for the boot spans
LISTEN_RE = re.compile(rb"phase=listen host=\S+ port=(\d+)")
LISTEN_POLL_S = 0.002
CLK_TCK = os.sysconf("SC_CLK_TCK")
TRANSPORT = ("TCP over the host loopback interface (127.0.0.1): no physical "
             "link is crossed, so wire latency and link rate are not measured")


@dataclass(frozen=True)
class Workload:
    mode: str                   # "hmac" or "eddsa"
    pids: tuple[int, ...]
    loop: str                   # function name in workloads.py
    why: str
    # Challenge lifetime. Where challenges are left outstanding, a short ttl
    # and a warm-up longer than it let the nonce ledger reach its steady
    # size (refusal rate x ttl) before measuring, so the figures do not
    # depend on how far into a growing ledger the run got.
    ttl: Optional[float] = None


WORKLOADS = {
    "attest-hmac-serial": Workload(
        "hmac", (1, 2, 3, 4), "attest_serial",
        "HMAC device, one connection, one round in flight: per-frame cost "
        "(kernel IPC, relay, wire codec, daemon read loop, verifier "
        "bookkeeping) dominates"),
    "attest-eddsa-pipelined": Workload(
        "eddsa", (1, 2, 3, 4), "attest_pipelined",
        "Ed25519 device, one connection, 32 rounds in flight: signing in "
        "the daemon and verify_token in the generator dominate"),
    "audit-mixed": Workload(
        "hmac", tuple(range(1, 13)), "audit_mixed",
        "bulk sweeps with 25% absent pids on one connection, channel "
        "sessions on another: accept, head-of-line blocking, channel "
        "crypto, large nonce ledger",
        ttl=5.0),
}

END_TO_END = [   # (name, unit)
    ("setup_s", "s"),
    ("attest_p50_us", "us"),
    ("attest_p99_us", "us"),
    ("attest_per_s", "1/s"),
    ("daemon_rss_mib", "MiB"),
]

# (name, unit, end-to-end metric it should move, workload where it does most)
PER_LAYER = [
    ("kernel.run_us", "us", "attest_p50_us, attest_per_s", "attest-hmac-serial (not attest-eddsa-pipelined)"),
    ("kernel.dispatches_per_round", "count", "attest_p50_us", "attest-hmac-serial"),
    ("kernel.trace_len_end", "count", "daemon_rss_mib", "audit-mixed"),
    ("signing.handle_request_us", "us", "attest_per_s", "attest-eddsa-pipelined"),
    ("crypto.attest_token_us", "us", "attest_per_s", "attest-eddsa-pipelined"),
    ("crypto.verify_token_us", "us", "attest_p50_us (HMAC); attest_per_s (Ed25519)", "attest-hmac-serial; attest-eddsa-pipelined"),
    ("crypto.ct_equal_us", "us", "attest_p50_us", "attest-hmac-serial"),
    ("crypto.derive_session_key_us.prover", "us", "session_p50_ms", "audit-mixed"),
    ("crypto.derive_session_key_us.verifier", "us", "session_p50_ms", "audit-mixed"),
    ("crypto.seal_us.prover", "us", "session_p50_ms", "audit-mixed"),
    ("crypto.seal_us.verifier", "us", "session_p50_ms", "audit-mixed"),
    ("crypto.open_sealed_us.prover", "us", "session_p50_ms", "audit-mixed"),
    ("crypto.open_sealed_us.verifier", "us", "session_p50_ms", "audit-mixed"),
    ("wire.encode_us.prover", "us", "attest_per_s", "attest-eddsa-pipelined, attest-hmac-serial"),
    ("wire.encode_us.verifier", "us", "attest_per_s", "attest-eddsa-pipelined, attest-hmac-serial"),
    ("wire.decode_us.prover", "us", "attest_per_s", "attest-eddsa-pipelined, attest-hmac-serial"),
    ("wire.decode_us.verifier", "us", "attest_per_s", "attest-eddsa-pipelined, attest-hmac-serial"),
    ("prover.recv_calls_per_frame", "count", "attest_per_s", "attest-eddsa-pipelined"),
    ("prover.attest_once_us", "us", "attest_p50_us", "attest-hmac-serial"),
    ("prover.channel_once_us", "us", "session_p50_ms", "audit-mixed"),
    ("prover.conn_wait_ms", "ms", "session_p50_ms, session_p90_ms", "audit-mixed (near 0 on one connection)"),
    ("prover.cpu_us_per_frame", "us", "attest_per_s", "all"),
    ("prover.busy_ratio", "ratio", "attest_per_s", "all: the daemon's share of the shared core"),
    ("prover.err_unknown_pid", "count", "fail_ratio sanity", "audit-mixed"),
    ("prover.err_unknown_pid_share", "ratio", "fail_ratio sanity", "audit-mixed (exactly 0.25 of bulk rounds)"),
    ("verifier.new_challenge_us", "us", "attest_per_s, session_p90_ms", "audit-mixed"),
    ("verifier.ledger_outstanding_max", "count", "attest_per_s, session_p90_ms", "audit-mixed (<= 33 elsewhere)"),
    ("verifier.check_response_us", "us", "attest_p50_us", "attest-hmac-serial"),
    ("verifier.establish_channel_us", "us", "session_p50_ms", "audit-mixed"),
    ("verifier.cpu_us_per_round", "us", "attest_per_s", "attest-eddsa-pipelined"),
    ("verifier.busy_ratio", "ratio", "attest_per_s", "all: the generator's share of the shared core"),
    ("boot.bring_up_ms", "ms", "setup_s", "audit-mixed (12 pids) vs 4 pids"),
    ("boot.secure_boot_ms", "ms", "setup_s", "audit-mixed (12 pids) vs 4 pids"),
    ("boot.run_boot_ms", "ms", "setup_s", "audit-mixed (12 pids) vs 4 pids"),
    ("boot.finalize_boot_ms", "ms", "setup_s", "audit-mixed (12 pids) vs 4 pids"),
    ("prover.start_ms", "ms", "setup_s", "all: interpreter start and imports"),
    ("session_p50_ms", "ms", "(end to end, untraced)", "audit-mixed"),
    ("session_p90_ms", "ms", "(end to end, untraced)", "audit-mixed"),
    ("sessions_per_s", "1/s", "(end to end, untraced)", "audit-mixed"),
    ("trace.overhead_attest_p50_us", "us", "(traced minus untraced)", "all"),
    ("trace.overhead_attest_per_s_pct", "%", "(untraced minus traced, share of untraced)", "all"),
]


# --- environment ------------------------------------------------------------

def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_provenance(src: Path) -> tuple[int, str]:
    """Line count of src/**/*.py and a digest of their contents."""
    lines, digest = 0, hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + data)
    return lines, digest.hexdigest()[:16]


def environment(seed: int, cpus: list[int], cpu: int) -> dict:
    import cryptography
    import numpy
    lines, digest = src_provenance(SRC)
    return {
        "cpu_count": os.cpu_count(),
        "affinity": cpus,
        "bench_cpu": cpu,
        "python": platform.python_version(),
        "cryptography": cryptography.__version__, "numpy": numpy.__version__,
        "commit": git_commit(ROOT), "src_sha256": digest, "src_lines": lines,
        "seed": seed,
    }


# --- device files -------------------------------------------------------------

def write_device(work: Path, wl: Workload, seed: int) -> dict[int, bytes]:
    """Keystore, anchors, binaries, manifest and policy from ``seed``.
    Returns pid -> SHA-256 of the binary written."""
    from attestsim.boot import write_anchor_file
    from attestsim.crypto import SignKey, SignMode, write_keystore
    from workloads import DEVICE

    rng = random.Random(f"{seed}:device")
    (work / "bin").mkdir(parents=True)
    expected, manifest = {}, []
    for pid in wl.pids:
        binary = rng.randbytes(BINARY_SIZE)
        (work / "bin" / f"up_{pid}.bin").write_bytes(binary)
        expected[pid] = hashlib.sha256(binary).digest()
        manifest.append({"pid": pid, "binary": f"bin/up_{pid}.bin"})
    key = SignKey(SignMode(wl.mode), rng.randbytes(32))
    write_keystore(str(work / "keystore.hex"), key)
    write_anchor_file(str(work / "anchors.json"))
    (work / "manifest.json").write_text(json.dumps(manifest))
    vk = key.verify_key()
    policy = {"devices": {DEVICE: {
        "mode": vk.mode.value, "verify_key": vk.material.hex(),
        "golden": {str(pid): f"bin/up_{pid}.bin" for pid in wl.pids}}}}
    (work / "policy.json").write_text(json.dumps(policy))
    return expected


# --- daemon processes ---------------------------------------------------------

def steal_s() -> float:
    """CPU time the hypervisor gave other guests, summed over all CPUs."""
    with open("/proc/stat", encoding="ascii") as f:
        return int(f.readline().split()[8]) / CLK_TCK


def proc_counters(pid: int) -> dict:
    """Daemon CPU seconds and peak RSS, read from outside the process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    cpu_s = (int(fields[11]) + int(fields[12])) / CLK_TCK    # utime + stime
    hwm_kib = 0
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                hwm_kib = int(line.split()[1])
    return {"cpu_s": cpu_s, "hwm_kib": hwm_kib}


class Daemon:
    """A launched proverd; its output goes to the file ``log``."""

    def __init__(self, proc: subprocess.Popen, log, spans_path: Optional[Path]):
        self.proc, self.log, self.spans_path = proc, log, spans_path
        self.port = 0
        self.setup_s = 0.0
        self._stopped = False

    def wait_listen(self, timeout: float = 60) -> int:
        """The port from the daemon's ``phase=listen`` line. The daemon
        boots on this process's CPU, so the log is polled only every
        LISTEN_POLL_S, not in a tight loop that would slow the boot it
        times. (A pipe would need a reader for the whole run.)"""
        path = Path(self.log.name)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            m = LISTEN_RE.search(path.read_bytes())
            if m:
                return int(m.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(LISTEN_POLL_S)
        self.terminate()
        tail = path.read_bytes()[-2000:].decode(errors="replace")
        raise RuntimeError(f"proverd did not start listening:\n{tail}")

    def terminate(self) -> None:
        """SIGTERM, wait for the exit (a traced daemon writes its spans
        first), and close the log."""
        if self._stopped:
            return
        self._stopped = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()

    def stop(self) -> Optional[dict]:
        """Terminate; a traced daemon's dump is returned."""
        self.terminate()
        if self.spans_path is None or not self.spans_path.exists():
            return None
        with open(self.spans_path, encoding="utf-8") as f:
            return json.load(f)


class Daemons:
    """Launches daemons on one CPU and stops every one it launched."""

    def __init__(self, work: Path, cpu: int):
        self.work, self.cpu = work, cpu
        self.started: list[Daemon] = []
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def launch(self, traced: bool) -> Daemon:
        n = len(self.started)
        spans_path = self.work / f"spans_prover_{n}.json" if traced else None
        head = ([sys.executable, str(HERE / "launcher.py"), str(spans_path)]
                if traced else [sys.executable, "-m", "attestsim.prover"])
        argv = head + ["--listen", "127.0.0.1:0",
                       "--keystore", "keystore.hex", "--anchors", "anchors.json",
                       "--manifest", "manifest.json"]
        cpu = self.cpu
        log = open(self.work / f"daemon_{n}.log", "wb")
        t0 = time.perf_counter()
        try:
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        except BaseException:
            log.close()
            raise
        daemon = Daemon(proc, log, spans_path)
        self.started.append(daemon)
        daemon.port = daemon.wait_listen()
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=10):
            daemon.setup_s = time.perf_counter() - t0
        return daemon

    def stop_all(self) -> None:
        for daemon in self.started:
            daemon.terminate()


# --- one phase of load ------------------------------------------------------------

@dataclass
class Segment:
    """One daemon's share of a phase."""
    tally: object
    window: object
    daemon_final: dict
    dump: Optional[dict]


@dataclass
class Phase:
    segments: list[Segment]
    seconds: float                      # measured per segment
    spans_verifier: Optional[list]


def run_phase(wl: Workload, work: Path, launch: Callable[[], Daemon], expected: dict,
              seed: int, seconds: float, segments: int, traced: bool,
              probe: SpeedProbe) -> Phase:
    """``seconds`` of load split between ``segments`` daemons from
    ``launch``. One verifier serves them all, so a nonce ledger that the
    first warm-up filled stays near its steady size."""
    import workloads
    from attestsim.verifier import DEFAULT_TTL, Policy, Verifier

    verifier = Verifier(Policy.load(str(work / "policy.json")), ttl=wl.ttl or DEFAULT_TTL,
                        rng=random.Random(f"{seed}:challenges:{traced}").randbytes)
    tracer = Tracer() if traced else None
    if tracer is not None:
        workloads.trace_verifier(tracer)
    phase = Phase([], seconds / segments, None)
    try:
        for k in range(segments):
            daemon = launch()
            pid = daemon.proc.pid

            def snapshot(pid: int = pid) -> dict:
                usage = resource.getrusage(resource.RUSAGE_SELF)
                counters = proc_counters(pid)
                return {"t": time.perf_counter_ns(), "daemon_cpu_s": counters["cpu_s"],
                        "daemon_hwm_kib": counters["hwm_kib"],
                        "gen_cpu_s": usage.ru_utime + usage.ru_stime, "steal_s": steal_s()}

            warmup = WARMUP_S + (wl.ttl or 0 if k == 0 else 0)
            window = workloads.Window(warmup, phase.seconds, snapshot, RSS_AT_ROUNDS, probe)
            ctx = workloads.Context(verifier, ("127.0.0.1", daemon.port), list(wl.pids),
                                    expected, window, tracer)
            tally = getattr(workloads, wl.loop)(ctx)
            final = proc_counters(pid)          # just before SIGTERM
            phase.segments.append(Segment(tally, window, final, daemon.stop()))
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        phase.spans_verifier = tracer.export()
        with open(work / "spans_verifier.json", "w", encoding="utf-8") as f:
            json.dump(phase.spans_verifier, f, separators=(",", ":"))
    return phase


# --- metrics --------------------------------------------------------------------

def tail(values: list, p: float) -> tuple[float, int]:
    """Nearest-rank percentile ``p`` of ``values`` and the sample count.
    NaN when fewer than 10 samples lie beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return math.nan, 0
    k = max(1, math.ceil(p * n))
    if p <= 0.5 or n - k >= 10:
        return float(xs[k - 1]), n
    return math.nan, n


def in_window(seg: Segment, t: int) -> bool:
    return seg.window.start <= t <= seg.window.end


@dataclass
class Slice:
    seconds: float
    wall: list[float]           # µs, accepted rounds that ended in the slice
    ref: list[float]            # the same rounds in reference time
    scale: float                # mean speed.scale over the slice's probes


def slices(seg: Segment, seconds: float) -> list[Slice]:
    """The segment's window cut into SLICE_S slices. A round is put into
    reference time by the probes around the moment it ended (the median of
    PROBE_SPAN of them), not by its slice's: the host's speed can change
    within a slice, and scaling the slow rounds by the fast part's factor
    would pass for a longer tail."""
    n = max(1, round(seconds / SLICE_S))
    width = (seg.window.end - seg.window.start) / n

    def index(t: int) -> int:
        return min(int((t - seg.window.start) / width), n - 1)

    times = [t for t, _ in seg.window.probes]
    ns = [v for _, v in seg.window.probes]
    h = PROBE_SPAN // 2
    k = [speed.scale(statistics.median(ns[max(0, i - h):i + h + 1]))
         for i in range(len(ns))]
    out = [Slice(seconds / n, [], [], 0.0) for _ in range(n)]
    for t0, t1 in seg.tally.attest:
        if in_window(seg, t1):
            s = out[index(t1)]
            us = (t1 - t0) / 1e3
            s.wall.append(us)
            # the load thread probes before its first round, so i >= 0
            s.ref.append(us * k[bisect.bisect_right(times, t1) - 1])
    per_slice: list[list[float]] = [[] for _ in range(n)]
    for t, f in zip(times, k):
        if in_window(seg, t):
            per_slice[index(t)].append(f)
    whole = statistics.fmean(f for fs in per_slice for f in fs)
    for s, fs in zip(out, per_slice):
        s.scale = statistics.fmean(fs) if fs else whole
    return out


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the per-slice figures.

    Dropping the quarter of slices on either side keeps a burst of
    interference that the speed probe did not follow from moving a
    figure; averaging the rest keeps more of the run's information than a
    median would.
    """
    xs = sorted(values)
    if not xs:
        return math.nan
    k = len(xs) // 4
    return statistics.fmean(xs[k:len(xs) - k])


def attest_figures(parts: list[Slice], adjust: bool) -> dict:
    """Interquartile means over the slices, in reference time with
    ``adjust`` and in wall-clock time without."""
    lat = [s.ref if adjust else s.wall for s in parts]
    p50s = [tail(xs, 0.50)[0] for xs in lat if xs]
    p99s = [v for v in (tail(xs, 0.99)[0] for xs in lat) if not math.isnan(v)]
    return {
        "attest_p50_us": interquartile_mean(p50s),
        "attest_p99_us": interquartile_mean(p99s),
        "attest_per_s": interquartile_mean(
            [len(s.wall) / s.seconds / (s.scale if adjust else 1) for s in parts]),
        "_p99_slices": len(p99s),
    }


def end_to_end(phase: Phase) -> dict:
    """Attest figures over the slices of every segment, in reference time,
    and in wall-clock time under ``wall``; session figures pool the
    windows, in wall-clock time."""
    segs = phase.segments
    parts = [s for seg in segs for s in slices(seg, phase.seconds)]
    sess = [(t1 - t0) / 1e6 for seg in segs for t0, t1 in seg.tally.sessions
            if in_window(seg, t1)]
    s50, ns = tail(sess, 0.50)
    s90, _ = tail(sess, 0.90)
    marks = [seg.window.edges["mark"]["daemon_hwm_kib"] / 1024
             for seg in segs if "mark" in seg.window.edges]
    return {
        **attest_figures(parts, adjust=True),
        "wall": attest_figures(parts, adjust=False),
        "probe_us": statistics.median(ns for seg in segs for _, ns in seg.window.probes) / 1e3,
        "daemon_rss_mib": statistics.median(marks) if marks else math.nan,
        "session_p50_ms": s50 if ns else 0.0,
        "session_p90_ms": s90 if ns else 0.0,
        "sessions_per_s": ns / (phase.seconds * len(segs)),
        "_attest_samples": sum(len(s.wall) for s in parts), "_session_samples": ns,
        "_slices": len(parts),
    }


def outside_counters(phase: Phase) -> dict:
    """Daemon and generator CPU over the windows, per frame and per round;
    the generator's excludes the speed probes."""
    wall = rounds = sessions = daemon_cpu = gen_cpu = 0.0
    for seg in phase.segments:
        tally, edges = seg.tally, seg.window.edges
        a, b = edges["start"], edges["end"]
        wall += (b["t"] - a["t"]) / 1e9
        rounds += (sum(1 for _, t1 in tally.attest if in_window(seg, t1))
                   + sum(1 for t1 in tally.refused if in_window(seg, t1)))
        sessions += sum(1 for _, t1 in tally.sessions if in_window(seg, t1))
        daemon_cpu += b["daemon_cpu_s"] - a["daemon_cpu_s"]
        probes_s = sum(ns for t, ns in seg.window.probes if in_window(seg, t)) / 1e9
        gen_cpu += b["gen_cpu_s"] - a["gen_cpu_s"] - probes_s
    frames = rounds + 2 * sessions      # a session sends an attest and a channel init
    return {
        "prover.cpu_us_per_frame": daemon_cpu * 1e6 / max(frames, 1),
        "prover.busy_ratio": daemon_cpu / wall,
        "verifier.cpu_us_per_round": gen_cpu * 1e6 / max(rounds + sessions, 1),
        "verifier.busy_ratio": gen_cpu / wall,
    }


def conn_wait_ms(tally, daemon_spans) -> float:
    """Generator connect -> daemon starts serving that connection, matched
    on the client port (both clocks are CLOCK_MONOTONIC)."""
    served: dict[int, list[int]] = {}
    for rec in daemon_spans:
        if rec[NAME] == "prover.serve_conn":
            served.setdefault(rec[VALUE], []).append(rec[START])
    waits = []
    for port, t in sorted(tally.connects, key=lambda c: c[1]):
        starts = served.get(port)
        if starts:
            waits.append((starts.pop(0) - t) / 1e6)
    return statistics.median(waits) if waits else 0.0


def per_layer(untraced: Phase, traced: Phase, e2e_u: dict, e2e_t: dict,
              boot_dumps: list[dict], setups_traced: list[float]) -> dict:
    (seg,) = traced.segments            # one traced daemon
    dump = seg.dump or {}
    d = SpanIndex(dump.get("spans", []))
    g = SpanIndex(traced.spans_verifier or [])
    counts = dump.get("counts", {})
    frames = len(d.records("wire.decode"))
    m = {
        "kernel.run_us": d.median_us("kernel.run", "prover.attest_once", self_time=True),
        "kernel.dispatches_per_round": d.median_value("kernel.run", "prover.attest_once"),
        "kernel.trace_len_end": float(dump.get("kernel_trace_len") or 0),
        "signing.handle_request_us": d.median_us("signing.handle_request"),
        "crypto.attest_token_us": d.median_us("crypto.attest_token"),
        "crypto.verify_token_us": g.median_us("crypto.verify_token"),
        "crypto.ct_equal_us": g.median_us("crypto.ct_equal"),
        "prover.recv_calls_per_frame": counts.get("recv_calls", 0) / max(frames, 1),
        "prover.attest_once_us": d.median_us("prover.attest_once"),
        "prover.channel_once_us": d.median_us("prover.channel_once"),
        "prover.conn_wait_ms": conn_wait_ms(seg.tally, d.spans),
        "prover.err_unknown_pid": float(counts.get("err_1", 0)),
        "prover.err_unknown_pid_share": (counts.get("err_1", 0) / seg.tally.bulk_rounds
                                         if seg.tally.bulk_rounds else 0.0),
        "verifier.new_challenge_us": g.median_us("verifier.new_challenge"),
        "verifier.ledger_outstanding_max": float(max(
            (r[VALUE] for r in g.records("verifier.new_challenge")), default=0)),
        "verifier.check_response_us": g.median_us("verifier.check_response"),
        "verifier.establish_channel_us": g.median_us("verifier.establish_channel"),
        "session_p50_ms": e2e_u["session_p50_ms"],
        "session_p90_ms": e2e_u["session_p90_ms"],
        "sessions_per_s": e2e_u["sessions_per_s"],
        "trace.overhead_attest_p50_us": e2e_t["attest_p50_us"] - e2e_u["attest_p50_us"],
        "trace.overhead_attest_per_s_pct":
            100 * (e2e_u["attest_per_s"] - e2e_t["attest_per_s"]) / e2e_u["attest_per_s"],
    }
    for layer in ("derive_session_key", "seal", "open_sealed"):
        m[f"crypto.{layer}_us.prover"] = d.median_us(f"crypto.{layer}")
        m[f"crypto.{layer}_us.verifier"] = g.median_us(f"crypto.{layer}")
    for op in ("encode", "decode"):
        m[f"wire.{op}_us.prover"] = d.median_us(f"wire.{op}")
        m[f"wire.{op}_us.verifier"] = g.median_us(f"wire.{op}")
    m.update(outside_counters(untraced))
    boots: dict[str, list[float]] = {}
    for b in boot_dumps:
        for rec in b["spans"]:
            if rec[NAME].startswith("boot."):
                boots.setdefault(rec[NAME], []).append((rec[END] - rec[START]) / 1e6)
    for stage in ("bring_up", "secure_boot", "run_boot", "finalize_boot"):
        m[f"boot.{stage}_ms"] = statistics.median(boots.get(f"boot.{stage}", [0.0]))
    m["prover.start_ms"] = statistics.median(
        s * 1e3 - b for s, b in zip(setups_traced, boots.get("boot.bring_up", [])))
    return m


# --- report ---------------------------------------------------------------------

def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


@dataclass
class Measured:
    setups: list[tuple[float, float]]   # (seconds, speed probe ns around the launch)
    untraced: Phase
    traced: Optional[Phase] = None
    setups_traced: Optional[list[float]] = None
    boot_dumps: Optional[list[dict]] = None


def measure(wl: Workload, work: Path, cpu: int, seed: int,
            phase_s: float, trace: bool) -> Measured:
    expected = write_device(work, wl, seed)
    daemons = Daemons(work, cpu)
    probe = SpeedProbe()
    try:
        daemons.launch(traced=False).stop()     # warm the file cache and bytecode
        setups: list[tuple[float, float]] = []

        def timed_launch() -> Daemon:
            before = probe.median()
            daemon = daemons.launch(traced=False)
            setups.append((daemon.setup_s, (before + probe.median()) / 2))
            return daemon

        out = Measured(setups, run_phase(wl, work, timed_launch, expected, seed,
                                         phase_s, SEGMENTS, False, probe))
        if trace:
            out.setups_traced, out.boot_dumps = [], []
            for _ in range(TRACED_LAUNCHES):
                daemon = daemons.launch(traced=True)
                out.setups_traced.append(daemon.setup_s)
                if len(out.setups_traced) < TRACED_LAUNCHES:
                    out.boot_dumps.append(daemon.stop())
            out.traced = run_phase(wl, work, lambda: daemon, expected, seed, phase_s, 1,
                                   True, probe)
            out.boot_dumps.append(out.traced.segments[0].dump)
        return out
    finally:
        daemons.stop_all()
        probe.close()


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "attestsim" / "prover.py").is_file():
        print(f"perfbench: no attestsim sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import attestsim
    if Path(attestsim.__file__).resolve().parent != (SRC / "attestsim").resolve():
        print(f"perfbench: imported attestsim from {attestsim.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the daemons are still stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    wl = WORKLOADS[args.workload]
    # The daemon and the generator share one CPU. On two CPUs every round
    # of a closed loop waits for the hypervisor to wake an idle virtual
    # CPU, and on a shared host that wake-up, not the program, set the
    # tail: on a 2-vCPU cloud VM with 14% steal, attest-hmac-serial's p99
    # was 1.8-10 ms split over two CPUs and 0.23-0.35 ms on one.
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[-1]
    os.sched_setaffinity(0, {cpu})
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(args.seed, cpus, cpu)
    # --trace 1 splits the measured time between the untraced and the
    # traced phase, so both kinds of run take about as long
    phase_s = args.seconds / 2 if args.trace else args.seconds
    run = measure(wl, work, cpu, args.seed, phase_s, bool(args.trace))

    segs = [seg for p in (run.untraced, run.traced) if p is not None for seg in p.segments]
    e2e = end_to_end(run.untraced)
    e2e["setup_s"] = statistics.median(t * speed.scale(ns) for t, ns in run.setups)
    e2e["wall"]["setup_s"] = statistics.median(t for t, _ in run.setups)
    attempted = sum(seg.tally.attempted for seg in segs)
    failures = sum((seg.tally.failures for seg in segs), Counter())
    failed = sum(failures.values())
    checks = [f"refused {len(seg.tally.refused)} of {seg.tally.bulk_rounds} bulk rounds, not 1/4"
              for seg in segs
              if seg.tally.bulk_rounds and len(seg.tally.refused) * 4 != seg.tally.bulk_rounds]
    if run.traced is not None:
        e2e_t = end_to_end(run.traced)
        layers = per_layer(run.untraced, run.traced, e2e, e2e_t, run.boot_dumps,
                           run.setups_traced)
        if (run.traced.segments[0].tally.bulk_rounds
                and layers["prover.err_unknown_pid_share"] != 0.25):
            checks.append("daemon ERR_UNKNOWN_PID count is not 1/4 of bulk rounds")
        metrics = {name: (layers[name], unit) for name, unit, _, _ in PER_LAYER}
    else:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END}
    if any(math.isnan(v) for v, _ in metrics.values()):
        checks.append("too few rounds for a metric (a percentile needs 10 samples "
                      f"beyond it, daemon_rss_mib {RSS_AT_ROUNDS} rounds); run longer")
    correct = failed == 0 and not checks

    print(f"perfbench attestsim workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {wl.why}")
    print(f"transport: {TRANSPORT}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"load: one generator process and proverd, both on cpu {cpu}; closed loop; "
          f"{phase_s:g} s measured per phase, the untraced one split between "
          f"{SEGMENTS} daemons launched in turn, each after a warm-up of {WARMUP_S:g} s "
          f"({WARMUP_S + (wl.ttl or 0):g} s for the first)")
    print(f"samples: attest={e2e['_attest_samples']} sessions={e2e['_session_samples']} "
          f"setup_launches={len(run.setups)}; attest figures are interquartile "
          f"means over {e2e['_slices']} slices of {phase_s / e2e['_slices']:.3g} s "
          f"({e2e['_p99_slices']} with >= 1000 rounds for a p99)")
    print(f"speed probe: median {fmt(e2e['probe_us'])} us of thread CPU time in the "
          f"window; reference {speed.REF_NS / 1e3:g} us. setup_s and attest_* are in "
          "reference time (wall-clock x reference / probe, per launch, round and slice); "
          "wall-clock figures follow in brackets")
    for name, unit in END_TO_END:
        wall = e2e["wall"].get(name)
        print(f"  {name:<18} {fmt(e2e[name]):>12} {unit:<4}"
              + (f" ({fmt(wall)} wall-clock)" if wall is not None else ""))
    if e2e["_session_samples"]:
        for name, unit in [("session_p50_ms", "ms"), ("session_p90_ms", "ms"),
                           ("sessions_per_s", "1/s")]:
            print(f"  {name:<18} {fmt(e2e[name]):>12} {unit:<4} (wall-clock)")
    edges = [seg.window.edges for seg in run.untraced.segments]
    steal = sum(e["end"]["steal_s"] - e["start"]["steal_s"] for e in edges) / (
        len(cpus) * sum(e["end"]["t"] - e["start"]["t"] for e in edges) / 1e9)
    print(f"  (host steal time during the windows: {100 * steal:.2g}% of the CPUs; "
          "other tenants were contending when this is above about 1%)")
    last = run.untraced.segments[-1]
    print(f"  (last daemon's peak RSS {fmt(last.daemon_final['hwm_kib'] / 1024)} MiB "
          f"at its end, after {len(last.tally.attest) + len(last.tally.refused)} rounds)")
    print(f"  {'fail_ratio':<18} {fmt(failed / max(attempted, 1)):>12} "
          f"({failed} of {attempted} ops; expected refusals count as successes)")
    for why, n in sorted(failures.items()):
        print(f"  failed: {why} x{n}")
    for problem in checks:
        print(f"  check failed: {problem}")
    if run.traced is not None:
        print("per layer (traced phase; cpu and busy figures from the untraced phase):")
        for name, unit, moves, where in PER_LAYER:
            print(f"  {name:<38} {fmt(layers[name]):>12} {unit:<6} moves {moves} on {where}")
        print(f"tracing overhead: attest_p50_us {fmt(e2e['attest_p50_us'])} -> "
              f"{fmt(e2e_t['attest_p50_us'])}, attest_per_s {fmt(e2e['attest_per_s'])} -> "
              f"{fmt(e2e_t['attest_per_s'])}")
        print(f"spans written to {work.relative_to(ROOT)}/spans_*.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": None if math.isnan(v) else v, "unit": unit}
                                  for name, (v, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
