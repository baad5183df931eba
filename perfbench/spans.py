"""Span recording for the traced benchmark run.

Spans come only from wrappers that the benchmark installs around the
program's public functions (module attributes are swapped, the program's
source is untouched). Spans are kept in memory and written out when the run
ends. Self time is a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import math
import random
import time
from collections import defaultdict
from typing import Any, Callable

_now = time.perf_counter_ns

# Argument tuples kept per kernel for the per-call timing.
SAMPLES_KEPT = 256
# Each timing repeat cycles through the samples for at least this long.
TIMING_MIN_NS = 20_000_000
TIMING_REPEATS = 5
# Steps of the reference loop that reads the speed of the shared host; about
# 1 ms on a fast phase of a 2-vCPU Xeon VM.
REFERENCE_STEPS = 2000


class Tracer:
    """Nested spans of one thread, grouped by operation id.

    Every span keeps a record (name, start, end, parent, operation, self
    time) and adds to per-name totals (calls, inclusive and self nanoseconds).
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.op: str | None = None
        self._stack: list[list] = []
        self._next_id = 0

    def enter(self, name: str) -> list:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, name, parent, _now(), 0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> int:
        end = _now()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        span_id, name, parent, start, child_ns = frame
        duration = end - start
        self_ns = duration - child_ns
        if self._stack:
            self._stack[-1][4] += duration
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += self_ns
        self.records.append({"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                             "parent": parent, "op": self.op, "self_ns": self_ns})
        return duration

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.frame: list | None = None
        self.duration_ns = 0

    def __enter__(self) -> "_SpanContext":
        self.frame = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.duration_ns = self.tracer.exit(self.frame)


class Patches:
    """Swap module or class attributes for wrappers; restore() undoes all."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Sampler:
    """Counts calls per name and keeps a seeded reservoir of their arguments,
    so the unwrapped function can be timed afterwards on real inputs."""

    def __init__(self, seed: int) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[tuple]] = defaultdict(list)
        self.functions: dict[str, Callable] = {}
        self._rng = random.Random(seed)

    def wrap(self, name: str, fn: Callable) -> Callable:
        self.functions.setdefault(name, fn)
        calls, samples, rng = self.calls, self.samples[name], self._rng

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            n = calls[name]
            if n <= SAMPLES_KEPT:
                samples.append((args, kwargs))
            else:
                slot = rng.randrange(n)
                if slot < SAMPLES_KEPT:
                    samples[slot] = (args, kwargs)
            return fn(*args, **kwargs)

        return counted


def time_per_call_ns(fn: Callable, samples: list[tuple]) -> float:
    """Median over repeats of the mean time per call of fn on the samples.

    Each repeat cycles through the samples until it has run for TIMING_MIN_NS.
    Exceptions the program raises on a sample (an infeasible solve) are part
    of that call's cost and are swallowed.
    """
    if not samples:
        return 0.0

    def cycle():
        for args, kwargs in samples:
            try:
                fn(*args, **kwargs)
            except (ValueError, RuntimeError):
                pass

    results = []
    for _ in range(TIMING_REPEATS):
        calls = 0
        start = _now()
        elapsed = 0
        while elapsed < TIMING_MIN_NS:
            cycle()
            calls += len(samples)
            elapsed = _now() - start
        results.append(elapsed / calls)
    results.sort()
    return results[len(results) // 2]


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x, self.y = x, y


def _reference_step(point: _Point, k: float) -> float:
    return math.log10(1.0 + point.x * k) + math.exp(-point.y / (k + 1.0))


def reference_loop_ns() -> int:
    """Time of a fixed pure-Python loop: the host's speed at this moment.

    Each step makes a small object, calls a function, does float math and
    stores into a dict, the mix of the program's scalar code. On a shared
    host whose speed swung 2x within four minutes, a solve-map pass over this
    loop's time stayed within 12 % across 10 s windows; over a bare integer
    loop's time, within 29 %.
    """
    start = _now()
    acc = 0.0
    last: dict[int, tuple[float, float]] = {}
    for i in range(REFERENCE_STEPS):
        point = _Point(i * 0.5, i * 0.25)
        acc += _reference_step(point, 3.0)
        last[i & 63] = (point.x, acc)
    return _now() - start
