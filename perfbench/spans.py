"""In-memory spans around the benchmark's own calls into rfhquad.

Nothing inside the package is instrumented.  A traced op records one
span per public call it makes, and then replays the public calls that
the layer makes on the same input as child spans, so each layer's cost
is timed directly.  A span's self time is its duration minus the summed
durations of its children: the children run right after their parent,
on the same input, rather than inside its interval.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    op: str  # "<workload>:<index>"
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_row(self) -> list:
        return [self.sid, self.name, self.op, self.parent, self.start, self.end,
                self.error, self.attrs or None]


class Tracer:
    """Records spans when on; when off, call() is a plain call."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[Span] = []
        self.op = ""

    def call(self, name, fn, *args, parent: Span | None = None, children=None, **attrs):
        """fn(*args) as span ``name``.  When tracing, ``children(span, result)``
        then replays the layer's own public calls; it runs after a failed
        call too, with result None, before the failure is raised."""
        if not self.on:
            return fn(*args)
        span = Span(len(self.spans), name, self.op,
                    None if parent is None else parent.sid, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        try:
            result = fn(*args)
        except Exception as exc:
            span.error = type(exc).__name__
            result = exc
        span.end = time.perf_counter()
        if children is not None:
            children(span, None if span.error else result)
        if span.error:
            raise result
        return result

    def replay(self, parent: Span, name, fn, *args, children=None, **attrs):
        """Time one constituent call of ``parent`` again on the same input.
        A failure is recorded on the span and returns None."""
        try:
            return self.call(name, fn, *args, parent=parent, children=children, **attrs)
        except Exception:
            return None


@dataclass
class LayerStats:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    attrs: Counter = field(default_factory=Counter)
    ops: set = field(default_factory=set)


def layer_stats(spans) -> dict:
    """Per span name: calls, busy and self seconds, failures by type,
    summed numeric attributes, and the ops that made the calls."""
    child_time: Counter = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.seconds
    out: dict = {}
    for s in spans:
        st = out.setdefault(s.name, LayerStats())
        st.calls += 1
        st.busy += s.seconds
        st.self_time += s.seconds - child_time[s.sid]
        if s.error:
            st.failed += 1
            st.errors[s.error] += 1
        st.attrs.update(s.attrs)
        st.ops.add(s.op)
    return out
