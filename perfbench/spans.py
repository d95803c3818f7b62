"""In-memory spans around calls into attestsim's public functions.

A ``Tracer`` replaces a module or class attribute with a wrapper that
records one span per call: name, start, end (``time.perf_counter_ns``,
which is CLOCK_MONOTONIC on Linux and so comparable across processes),
the enclosing span, a round id shared by a round's spans, the time its
child spans covered, and an optional value. Nothing inside ``src/`` is
edited; the wrappers are installed by the benchmark's own files, on the
verifier side by ``workloads.py`` and on the daemon side by
``launcher.py``.

Spans stay in memory (one list per thread) until ``export`` is called at
the end of a run.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

clock = time.perf_counter_ns

# span record layout: [name, start_ns, end_ns, parent_index, round_id,
#                      child_ns, value]
NAME, START, END, PARENT, RID, CHILD, VALUE = range(7)

Tag = Callable[[tuple, Any, list, "_ThreadState"], None]


class _ThreadState:
    __slots__ = ("spans", "stack", "rid")

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rid: Optional[str] = None


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []   # (owner, attr, original)
        self.counts: Counter = Counter()

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def set_round(self, rid: Optional[str]) -> None:
        self.state().rid = rid

    def wrap(self, owner: Any, attr: str, name: str,
             tag: Optional[Tag] = None) -> None:
        """Record a span for every call of ``owner.attr``.

        ``tag(args, result, record, state)`` runs after a call that
        returned, to set the record's round id or value from what the call
        saw or produced.
        """
        fn = self._replace(owner, attr)
        state = self.state

        def traced(*args, **kwargs):
            st = state()
            spans, stack = st.spans, st.stack
            rec = [name, 0, 0, stack[-1] if stack else -1, st.rid, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                stack.pop()
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD] += end - rec[START]
            if tag is not None:
                tag(args, result, rec, st)
            return result

        setattr(owner, attr, traced)

    def count(self, owner: Any, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        fn = self._replace(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def _replace(self, owner: Any, attr: str) -> Any:
        # an attribute a class inherits is shadowed, then deleted on restore
        own = attr in vars(owner)
        fn = getattr(owner, attr)
        self._undo.append((owner, attr, fn if own else None))
        return fn

    def restore(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            if fn is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, fn)

    def export(self) -> list[list]:
        """All threads' spans in one list, parent indices rebased."""
        out: list[list] = []
        with self._lock:
            states = list(self._states)
        for st in states:
            base = len(out)
            for rec in st.spans:
                rec = list(rec)
                if rec[PARENT] >= 0:
                    rec[PARENT] += base
                out.append(rec)
        return out


class SpanIndex:
    """Durations and self times by span name, optionally by parent name
    (``None``: any parent, ``""``: top level)."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self._by: dict[tuple[str, Optional[str]], list[list]] = defaultdict(list)
        for rec in spans:
            parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else ""
            self._by[(rec[NAME], None)].append(rec)
            self._by[(rec[NAME], parent)].append(rec)

    def records(self, name: str, parent: Optional[str] = None) -> list[list]:
        return self._by.get((name, parent), [])

    def median_us(self, name: str, parent: Optional[str] = None,
                  self_time: bool = False) -> float:
        """Median duration in µs (self time: minus child spans); 0 when the
        layer did not run."""
        recs = self.records(name, parent)
        if not recs:
            return 0.0
        if self_time:
            return statistics.median(r[END] - r[START] - r[CHILD] for r in recs) / 1e3
        return statistics.median(r[END] - r[START] for r in recs) / 1e3

    def median_value(self, name: str, parent: Optional[str] = None) -> float:
        values = [r[VALUE] for r in self.records(name, parent)
                  if r[VALUE] is not None]
        return float(statistics.median(values)) if values else 0.0
