"""In-memory tracer for one CLI process: coarse spans plus per-(layer, parent)
counters for the calls made once per iteration.

Coarse spans (cli, data.load, linop.norm, solvers, evaluate, persist.save)
record name, start, end and the index of the enclosing span. Hot calls
(T, T^T, the proxes and projections) are only summed into counters keyed
by the layer name and the enclosing span, so a 20 000-iteration solve adds
a handful of counters instead of 100 000 spans. Everything stays in memory until
`to_json` is called when the process ends.

A layer's self time is its span's duration minus the time its child spans
and the counters charged to it cover. The process is single-threaded, so
children never overlap and the covered time is their sum.
"""

from __future__ import annotations

import time

ROOT = -1


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []       # [name, start, end, parent, notes]
        self.counters = {}    # (layer, parent) -> [calls, seconds, flops]
        self._stack = [ROOT]

    def span(self, name, fn, note=None):
        """Wrap `fn` so each call records one span; `note(result)` may add
        a dict of facts (iteration counts and the like) to the span."""
        clock, spans, stack = self.clock, self.spans, self._stack

        def wrapped(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), None, stack[-1], None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if note is not None:
                rec[4] = note(result)
            return result

        return wrapped

    def counter(self, layer, fn, flops=None):
        """Wrap `fn` so each call adds its count, time and (optionally)
        `flops(*args)` to the counter of `layer` under the current span."""
        clock, counters, stack = self.clock, self.counters, self._stack

        def wrapped(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            key = (layer, stack[-1])
            c = counters.get(key)
            if c is None:
                c = counters[key] = [0, 0.0, 0.0]
            c[0] += 1
            c[1] += dt
            if flops is not None:
                c[2] += flops(*args)
            return result

        return wrapped

    def to_json(self):
        return {"spans": self.spans,
                "counters": [[layer, parent, *vals]
                             for (layer, parent), vals in self.counters.items()]}


def self_times(spans, counters):
    """Self time of every span: duration minus child spans and counters.

    `spans` is a list of [name, start, end, parent, ...] and `counters` a
    list of [layer, parent, calls, seconds, ...], as in `Tracer.to_json`.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] != ROOT:
            own[s[3]] -= s[2] - s[1]
    for c in counters:
        if c[1] != ROOT:
            own[c[1]] -= c[3]
    return own
