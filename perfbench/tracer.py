"""Span tracer that wraps functions from outside the program under test.

``Tracer.patch`` replaces a module attribute or a class attribute with a
wrapper that records one span per call: name, start, end and parent span.
Each thread keeps its own span stack, so work done on a server thread nests
under that thread's spans and never under the client's.  A span's self time
is its duration minus the time its child spans on the same thread cover.

Spans are folded into per-name totals as they close, so memory stays flat on
runs with millions of calls; the first ``keep_spans`` raw spans are kept for
inspection.  ``restore`` puts back every patched attribute exactly as it
was; an untraced run installs no wrapper at all.
"""
from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from dataclasses import dataclass

# Percentiles a latency report may use, from the median upward.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_SAMPLES_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``count`` samples
    (rounded first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(pct * count / 100.0, 6)))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (which need not be sorted)."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), pct) - 1]


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it, or
    None when even the median has fewer than ten samples above it."""
    best = None
    for pct in PERCENTILE_LADDER:
        if count - _rank(count, pct) >= MIN_SAMPLES_BEYOND:
            best = pct
    return best


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    thread_id: int


class _ThreadState:
    def __init__(self, thread_id: int):
        self.thread_id = thread_id
        self.stack = []   # open spans: [name, start, child_s, span_id]
        self.totals = {}  # name -> SpanTotals
        self.counts = {}  # counter name -> number
        self.samples = {}  # sample name -> [seconds, ...]
        self.spans = []   # first raw spans, up to the tracer's keep limit


class Tracer:
    def __init__(self, clock=time.perf_counter, keep_spans: int = 0):
        self._clock = clock
        self._keep = keep_spans
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches = []  # (owner, attr, original) in patch order
        self._wrappers = {}  # id(function) -> wrapper, so aliases share one

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def count(self, key: str, n=1):
        counts = self._state().counts
        counts[key] = counts.get(key, 0) + n

    def sample(self, key: str, seconds: float):
        self._state().samples.setdefault(key, []).append(seconds)

    def wrap(self, name: str, fn, *, probe=None, sample: bool = False):
        """Wrapper recording a span named ``name`` around each call of ``fn``.

        ``probe(tracer, args, kwargs, result, seconds)`` runs after each call
        that returns normally; ``sample`` keeps every call's duration.
        """
        clock = self._clock
        state_of = self._state
        ids = self._ids
        keep = self._keep

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            span_id = next(ids)
            frame = [name, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                seconds = end - frame[1]
                parent_id = None
                if stack:
                    stack[-1][2] += seconds
                    parent_id = stack[-1][3]
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = SpanTotals()
                totals.calls += 1
                totals.total_s += seconds
                totals.self_s += seconds - frame[2]
                if sample:
                    state.samples.setdefault(name, []).append(seconds)
                if len(state.spans) < keep:
                    state.spans.append(Span(span_id, parent_id, name, frame[1],
                                            end, state.thread_id))
            if probe is not None:
                probe(self, args, kwargs, result, seconds)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, **options):
        """Replace ``owner.attr`` (a module or class attribute) by a traced
        wrapper.  Static and class methods keep their kind.  Patching the
        same function under a second owner reuses the first wrapper, so a
        name imported with ``from ... import`` reports under one span name.
        """
        original = vars(owner)[attr]
        if isinstance(original, (staticmethod, classmethod)):
            replacement = type(original)(self._wrapper_for(original.__func__, name, options))
        else:
            replacement = self._wrapper_for(original, name, options)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _wrapper_for(self, fn, name, options):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            wrapper = self._wrappers[id(fn)] = self.wrap(name, fn, **options)
        return wrapper

    def restore(self):
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._wrappers.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """Per-name span totals merged over every thread."""
        merged = {}
        for state in self._thread_states():
            for name, part in state.totals.items():
                into = merged.setdefault(name, SpanTotals())
                into.calls += part.calls
                into.total_s += part.total_s
                into.self_s += part.self_s
        return merged

    def counts(self) -> dict:
        merged = {}
        for state in self._thread_states():
            for key, n in state.counts.items():
                merged[key] = merged.get(key, 0) + n
        return merged

    def samples(self) -> dict:
        merged = {}
        for state in self._thread_states():
            for key, values in state.samples.items():
                merged.setdefault(key, []).extend(values)
        return merged

    def spans(self) -> list:
        kept = [span for state in self._thread_states() for span in state.spans]
        return sorted(kept, key=lambda span: span.start)

    def _thread_states(self) -> list:
        with self._states_lock:
            return list(self._states)
