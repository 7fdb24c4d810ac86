"""In-memory span recorder for the traced benchmark run.

A span has a name, a start and an end (perf_counter seconds), the id of the
span open around it, the pass (trace) it belongs to, and free-form
attributes such as counts or array shapes. Spans are kept in a list and
written out once the run ends.
"""

import statistics
import time
from contextlib import contextmanager

SETUP_TRACE = -1  # trace id of spans recorded while replaying the set-up commands


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.trace_id = 0

    def open(self, name, **attrs):
        """Start a span inside the innermost open one; returns its attributes."""
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "trace": self.trace_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return attrs

    def close(self):
        """End the innermost open span."""
        self.spans[self._stack.pop()]["end"] = time.perf_counter()

    @contextmanager
    def span(self, name, **attrs):
        attrs = self.open(name, **attrs)
        try:
            yield attrs
        finally:
            self.close()

    def call(self, name, fn, *args, **attrs):
        """Time one call of fn(*args) as a span and return its result."""
        with self.span(name, **attrs):
            return fn(*args)


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    covered = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + duration(s)
    return {s["id"]: duration(s) - covered.get(s["id"], 0.0) for s in spans}


def check_nesting(spans):
    """Problems with the span tree: unknown parents, children outside their
    parent's interval, negative self times. Empty when the tree is sound."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} has no valid end")
            continue
        p = s["parent"]
        if p is None:
            continue
        if p not in by_id:
            problems.append(f"span {s['id']} {s['name']} has unknown parent {p}")
        elif s["start"] < by_id[p]["start"] or s["end"] > by_id[p]["end"]:
            problems.append(f"span {s['id']} {s['name']} lies outside parent {p}")
    for sid, t in self_times(spans).items():
        if t < 0:
            problems.append(f"span {sid} {by_id[sid]['name']} has self time {t:.3g} s")
    return problems


def percentiles(values):
    """p50 and p90 of per-call values; p90 only with at least ten calls."""
    out = {"calls": len(values)}
    if len(values) >= 2:
        out["p50"] = statistics.median(values)
    if len(values) >= 10:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out
