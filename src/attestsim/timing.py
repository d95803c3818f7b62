"""Leakage audit for secret-dependent comparisons, Welch-t style.

Two input classes (equal operands vs first-byte-differs) are timed in a
randomly interleaved order with the collector disabled, the pooled upper
tail is cropped to shed scheduler outliers, and the class means are
compared with Welch's t statistic. |t| staying under a small bound across
a large sample is the flatness criterion; a comparator with an early exit
fails it by orders of magnitude.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .crypto import AttestToken, SignKey, SignMode, attest_token, ct_equal, verify_token

DEFAULT_SAMPLES = 100_000
CROP_QUANTILE = 0.99


@dataclass(frozen=True)
class TimingReport:
    label: str
    t_stat: float
    samples_per_class: int
    mean_ns: tuple[float, float]

    def flat(self, bound: float = 10.0) -> bool:
        return abs(self.t_stat) < bound


def welch_t(a: np.ndarray, b: np.ndarray) -> float:
    """Welch's two-sample t statistic (unequal variances)."""
    va = a.var(ddof=1) / len(a)
    vb = b.var(ddof=1) / len(b)
    denom = float(np.sqrt(va + vb))
    if denom == 0.0:
        return 0.0
    return float((a.mean() - b.mean()) / denom)


def measure_classes(op: Callable[[int], None], samples: int,
                    seed: int = 0, label: str = "op") -> TimingReport:
    """Time ``op(class_id)`` for class 0 and 1, interleaved at random.

    ``op`` must do the same work apart from the secret-dependent part
    under audit; the caller prepares per-class inputs up front.
    """
    order = [0, 1] * samples
    random.Random(seed).shuffle(order)
    timings: tuple[list[int], list[int]] = ([], [])
    clock = time.perf_counter_ns
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for cls in order[:2000]:      # warmup, discarded
            op(cls)
        for cls in order:
            t0 = clock()
            op(cls)
            timings[cls].append(clock() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    a = np.asarray(timings[0], dtype=np.float64)
    b = np.asarray(timings[1], dtype=np.float64)
    cutoff = np.quantile(np.concatenate([a, b]), CROP_QUANTILE)
    a = a[a <= cutoff]
    b = b[b <= cutoff]
    return TimingReport(label=label, t_stat=welch_t(a, b),
                        samples_per_class=samples,
                        mean_ns=(float(a.mean()), float(b.mean())))


def audit_comparator(compare: Callable[[bytes, bytes], bool],
                     samples: int = DEFAULT_SAMPLES, seed: int = 0,
                     label: str = "ct_equal") -> TimingReport:
    """Equal vs first-byte-differs over 32-byte random operands."""
    rng = random.Random(seed ^ 0x5EED)
    base = bytes(rng.randrange(256) for _ in range(32))
    diff = bytes([base[0] ^ 0x01]) + base[1:]
    pairs = ((base, bytes(base)), (base, diff))

    def op(cls: int) -> None:
        a, b = pairs[cls]
        compare(a, b)

    return measure_classes(op, samples, seed=seed, label=label)


def audit_ct_equal(samples: int = DEFAULT_SAMPLES, seed: int = 0) -> TimingReport:
    return audit_comparator(ct_equal, samples=samples, seed=seed)


def audit_symmetric_verify(samples: int = DEFAULT_SAMPLES, seed: int = 0
                           ) -> TimingReport:
    """Audit the HMAC-mode verification path: recompute-and-compare with a
    correct tag vs a first-byte-wrong tag."""
    rng = random.Random(seed ^ 0xA0D1)
    key = SignKey(SignMode.HMAC, bytes(rng.randrange(256) for _ in range(32)))
    vk = key.verify_key()
    chal = bytes(rng.randrange(256) for _ in range(32))
    pk = bytes(rng.randrange(256) for _ in range(32))
    m = bytes(rng.randrange(256) for _ in range(32))
    good = attest_token(key, chal, pk, m)
    bad = AttestToken(SignMode.HMAC,
                      bytes([good.sig[0] ^ 0x01]) + good.sig[1:])
    tokens = (good, bad)

    def op(cls: int) -> None:
        verify_token(vk, chal, pk, m, tokens[cls])

    return measure_classes(op, samples, seed=seed, label="hmac_verify")
