"""In-memory span tracing of cpqsd's public functions, from outside the package.

A Tracer replaces a function by a timing wrapper at the place its caller
looks it up (a module or class attribute), records one span per call
(name, start, end, parent span, op id) and lets a per-name hook read the
call's result into counters.  restore() puts every original back.  Nothing
inside cpqsd is edited, so an untraced run executes exactly the package's
code.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

SETUP_OP = -1


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = defaultdict(float)  # (op id, counter name) -> value
        self.maxima = {}  # counter name -> largest value seen
        self.op = SETUP_OP
        self._stack = []
        self._patched = []

    # ----- wrapping -----

    def wrap(self, owner, attr, name, on_result=None):
        """Replace owner.attr by a span-recording wrapper named `name`.

        on_result(tracer, args, result) runs after the call returns and may
        add counters; it runs outside the span, so it is not timed."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def restore(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def patched(self):
        """(owner, attribute, original) of every wrapper now installed."""
        return list(self._patched)

    # ----- counters -----

    def count(self, name, value=1.0):
        self.counts[(self.op, name)] += value

    def keep_max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # ----- reduction -----

    def self_times(self):
        """Per span: duration minus the time covered by its direct children.
        Calls run on one thread, so children never overlap."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (_, t0, t1, _, _), c in zip(self.spans, child)]

    def per_op(self, self_time=False):
        """{op id: {span name: total seconds}} (self time when asked)."""
        out = defaultdict(lambda: defaultdict(float))
        selfs = self.self_times() if self_time else None
        for i, (name, t0, t1, _, op) in enumerate(self.spans):
            out[op][name] += selfs[i] if self_time else t1 - t0
        return out

    def top_level_seconds(self, ops):
        """Total duration of spans without a parent, over the given ops."""
        ops = set(ops)
        return sum(t1 - t0 for _, t0, t1, parent, op in self.spans
                   if parent < 0 and op in ops)

    def counter_per_op(self):
        out = defaultdict(dict)
        for (op, name), v in self.counts.items():
            out[op][name] = v
        return out

    def dump(self):
        return {"spans": self.spans,
                "counts": [[op, name, v] for (op, name), v in self.counts.items()],
                "maxima": self.maxima}


def setup_plus_median(per_op_values, rounds, key):
    """Value of `key` in the set-up bucket plus its median over rounds, where
    each round is a list of op ids whose values are summed."""
    setup = per_op_values.get(SETUP_OP, {}).get(key, 0.0)
    sums = [sum(per_op_values.get(op, {}).get(key, 0.0) for op in ops)
            for ops in rounds]
    return setup + (statistics.median(sums) if sums else 0.0)
