"""Timing, host-speed probes and span recording around calls into spnforge.

Every call the benchmark makes into the package goes through `Clock.call`,
which keeps the call's start and end. `Tracer` also records a span (name,
start, end, parent, cell id) in memory. `Tracer.interpose` wraps the
package's internal stage functions (cone packing, duplicate insertion, bank
allocation, SIMT bank coloring) so that their spans nest under the public
call that made them; arguments and results pass through untouched.
`HostSpeed` converts host intervals to reference seconds.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from bisect import bisect_left

clock = time.perf_counter

NAME, START, END, PARENT, CELL = range(5)

# The CPU speed of a shared host drifts between runs and jumps, for seconds
# at a time, between a steady base and bursts of up to twice that speed.
# `HostSpeed` times a fixed probe loop every PROBE_PERIOD_S and scales each
# stretch of host time by REFERENCE_PROBE_S over the probe that follows it.
# REFERENCE_PROBE_S is the probe's time at the base speed of the 2-core
# x86-64 host the benchmark was defined on; it sets the scale, not the spread.
PROBE_PERIOD_S = 0.5
REFERENCE_PROBE_S = 0.004


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now.

    The loop does dict, set, tuple and heap work like the compiler's. The
    garbage collector is paused so that the program's heap does not slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        heap: list = []
        table: dict = {}
        seen = set()
        for i in range(3000):
            k = (i * 7919) % 1009
            table[k] = table.get(k, 0) + i
            seen.add((k, i & 15))
            heapq.heappush(heap, (k, i))
            if len(heap) > 64:
                heapq.heappop(heap)
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probes the host's speed from a SIGALRM timer while in a `with` block.

    The handler runs in the benchmark's only thread, between two bytecodes
    of whatever call is running; `seconds` removes the probe's own time.
    """

    def __init__(self):
        self.at: list[float] = []  # probe start times
        self.took: list[float] = []  # probe durations
        self._handler = None

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def _sample(self, signum=None, frame=None):
        t0 = clock()
        self.took.append(probe())
        self.at.append(t0)

    def sample(self):
        """Probe now, so that a short stretch ending here gets its own probe."""
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self._sample()

    def seconds(self, intervals) -> float:
        """Reference seconds spent in host intervals [(start, end), ...]."""
        if not self.at:
            return sum(b - a for a, b in intervals)
        total = 0.0
        for a, b in intervals:
            k = bisect_left(self.at, a)
            while k < len(self.at) and self.at[k] < b:
                total += (self.at[k] - a) * REFERENCE_PROBE_S / self.took[k]
                a = self.at[k] + self.took[k]
                k += 1
            total += max(0.0, b - a) * REFERENCE_PROBE_S / self.took[min(k, len(self.at) - 1)]
        return total


class Clock:
    """Times one call at a time; `last` is the latest call's (start, end)."""

    traced = False

    def __init__(self):
        self.last = (0.0, 0.0)
        self.cell = ""
        self.counting = False

    def call(self, name: str, fn, *args):
        t0 = clock()
        out = fn(*args)
        self.last = (t0, clock())
        return out

    def count(self, key: str, n: float):
        """Counters are per-layer metrics, kept only by `Tracer`."""


class Tracer(Clock):
    """A `Clock` that also keeps a span for every call, nested by call depth."""

    traced = True

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self._open: list[int] = []
        self._restore: list[tuple] = []
        self.counts: dict[str, float] = {}

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.cell]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = clock()
            self._open.pop()
            self.last = (span[START], span[END])

    def count(self, key: str, n: float):
        if self.counting:
            self.counts[key] = self.counts.get(key, 0) + n

    def interpose(self, module, attr: str, name: str, on_result=None):
        """Replace `module.attr` by a span-recording wrapper until `restore`.

        A name the module no longer has is skipped; its metrics then read 0.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            return

        def wrapper(*args, **kwargs):
            out = self.call(name, orig, *args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        self._restore.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def restore(self):
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)

    def layer_times(self, cells) -> dict[str, tuple[float, float, int]]:
        """Self time, inclusive time and call count per span name.

        Only spans whose cell id is in `cells` count. Self time is a span's
        duration minus the time its direct children cover.
        """
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        out: dict[str, tuple[float, float, int]] = {}
        for s, t in zip(self.spans, own):
            if s[CELL] in cells:
                a, b, n = out.get(s[NAME], (0.0, 0.0, 0))
                out[s[NAME]] = (a + t, b + s[END] - s[START], n + 1)
        return out


def span_cost(samples: int = 20000) -> float:
    """Seconds a `Tracer.call` adds over a direct call, per span."""

    def nop():
        return None

    probe = Tracer()
    t0 = clock()
    for _ in range(samples):
        nop()
    bare = clock() - t0
    t0 = clock()
    for _ in range(samples):
        probe.call("nop", nop)
    return max(0.0, (clock() - t0 - bare) / samples)
