"""In-memory span tracer for the benchmark's traced run.

biakit modules bind imported names locally (`from .exactrank import
gaussian_rank`), so patching a function in its defining module alone misses
most callers. `Tracer.install` therefore replaces the function at every
module attribute that refers to it, which is where each caller looks it up,
and `uninstall` puts the originals back. Nothing under `src/` changes.

A span is `[id, parent_id, name, t0, t1]`; names are `<layer>.<function>`,
the layer being the biakit module that defines the function. Spans are only
recorded inside a benchmark call (`Tracer.call`), so the benchmark's own
correctness checks, which reuse public functions, never show up as layer
time.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

CALL_SPAN = "bench.call"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [0]
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def call(self):
        """Root span around one benchmark call."""
        rec = [len(self.spans) + 1, 0, CALL_SPAN, time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, hook):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if len(stack) == 1:
                return fn(*args, **kwargs)
            rec = [len(spans) + 1, stack[-1], name, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self, targets, sites) -> None:
        """Wrap each `(name, function, hook)` target at every module
        attribute in `sites` that refers to it."""
        for name, fn, hook in targets:
            wrapper = self._wrap(fn, name, hook)
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is fn:
                        self._patches.append((site, attr, fn))
                        setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, fn in reversed(self._patches):
            setattr(site, attr, fn)
        self._patches.clear()


def aggregate(spans) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds].

    Self time is a span's duration minus its direct children's; children
    of one span run one after another, so their durations do not overlap.
    """
    child = defaultdict(float)
    for sid, parent, _name, t0, t1 in spans:
        if parent:
            child[parent] += t1 - t0
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, _parent, name, t0, t1 in spans:
        agg = out[name]
        agg[0] += 1
        agg[1] += t1 - t0
        agg[2] += (t1 - t0) - child[sid]
    return dict(out)


def write_spans(spans, path) -> None:
    """Tab-separated spans, times in microseconds from the first span."""
    base = spans[0][3] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("id\tparent\tname\tstart_us\tend_us\n")
        for sid, parent, name, t0, t1 in spans:
            fh.write("%d\t%d\t%s\t%.3f\t%.3f\n"
                     % (sid, parent, name, (t0 - base) * 1e6, (t1 - base) * 1e6))
