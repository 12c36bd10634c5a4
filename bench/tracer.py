"""Spans and counts recorded from outside the package.

A ``Tracer`` replaces a layer's public functions at the attribute their
caller looks them up through (a module global such as
``lexsim.fitting.run``, or a class attribute such as
``Network.input_weights``) with a wrapper that records one span per call:
name, start, end, parent span and trial id. Optional hooks update counts at
the same boundary. ``uninstall`` puts every original back and checks that it
did. Spans stay in memory until ``write_spans`` at the end of the run.

The wrappers' own bookkeeping is timed and subtracted from every enclosing
span, so a layer's self time (its spans' duration minus the part covered by
child spans) does not absorb the tracer's cost. What remains of the cost
shows as ``trace_overhead_frac``.
"""

from __future__ import annotations

import csv
import functools
from collections import Counter, defaultdict
from time import perf_counter

MARK = "__bench_traced__"


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, trial id or -1, tracer time inside)
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.trial = -1
        self._stack: list[int] = []
        self._overhead = 0.0
        self._patches: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def traced(self, fn, name: str, before=None, after=None, transform=None):
        """``fn`` wrapped in a span. ``before(args)`` runs ahead of the call
        and its value goes to ``after(args, result, pre)``; ``transform(args,
        kwargs)`` may swap the arguments. None of the three is timed as part
        of any span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            pre = before(args) if before is not None else None
            if transform is not None:
                args, kwargs = transform(args, kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            t1 = perf_counter()
            tracer._overhead += t1 - t0
            ovh1 = tracer._overhead
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                stack.pop()
                tracer.spans[index] = (name, t1, t2, parent, tracer.trial,
                                       tracer._overhead - ovh1)
            if after is not None:
                after(args, result, pre)
            tracer._overhead += perf_counter() - t2
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        own = attr in vars(owner)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, self.traced(original, name, **hooks))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first, and verify."""
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        for owner, attr, original, _own in self._patches:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} was not restored")
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus tracer time minus the
        (likewise corrected) duration of direct children."""
        if self._stack:
            raise RuntimeError("spans still open")
        own = [end - start - inside for _n, start, end, _p, _t, inside in self.spans]
        selfs = list(own)
        for i, (_n, _s, _e, parent, _t, _i) in enumerate(self.spans):
            if parent >= 0:
                selfs[parent] -= own[i]
        totals: dict[str, float] = defaultdict(float)
        for (name, *_rest), value in zip(self.spans, selfs):
            totals[name] += value
        return dict(totals)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "trial",
                             "tracer_s"])
            for i, (name, start, end, parent, trial, inside) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent, trial,
                                 repr(inside)])


def is_traced(obj) -> bool:
    return getattr(obj, MARK, False)
