"""Layer probes for the traced run.

Each probe replaces a public sparkforge function under the name its caller
looks it up by, and records the call's wall time, its self time (wall time
minus the time of probed calls made inside it) and optional counters.  A
call made while a span of the same name is open is not recorded again, so
totals never count the same interval twice.  Spans are aggregated in
memory and read once the traced pass ends.
"""

from __future__ import annotations

import functools
import statistics
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(lambda: array("d"))
        self.counters = Counter()
        self._open = Counter()
        self._child_time = []
        self._undo = []

    def wrap(self, owner, attr: str, span: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a probe recording spans named ``span``.

        ``on_result(tracer, result, args, kwargs)`` may add counters.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def probe(*args, **kwargs):
            if tracer._open[span]:
                return original(*args, **kwargs)
            tracer._open[span] += 1
            tracer._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = tracer._child_time.pop()
                tracer._open[span] -= 1
                if tracer._child_time:
                    tracer._child_time[-1] += dt
                tracer.calls[span] += 1
                tracer.total[span] += dt
                tracer.self_time[span] += dt - child
                tracer.durations[span].append(dt)
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        setattr(owner, attr, probe)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def total_ms(self, span: str) -> float:
        return self.total[span] * 1e3

    def self_ms(self, span: str) -> float:
        return self.self_time[span] * 1e3

    def mean_ms(self, span: str) -> float:
        n = self.calls[span]
        return self.total[span] * 1e3 / n if n else 0.0

    def p50_us(self, span: str) -> float:
        d = self.durations[span]
        return statistics.median(d) * 1e6 if d else 0.0
