"""In-memory span tracer that wraps the program's public functions from outside.

`Tracer.instrument(targets)` rebinds each target attribute (a module-level
function where its caller looks it up, or a method on its class) to a
wrapper that records one span per call, and puts every original back on
exit, also when the block raises.  Nothing under `src/` is edited.

A span records its name, start and end (`time.perf_counter`), the span that
was open on the same thread when it began (its parent), the example it
belongs to and the thread.  Spans and counters go into lists and dicts
guarded by one lock; the stack of open spans and the current example live
in thread-local storage, so a threaded `predict_dataset` traces correctly.
"""

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    example: str | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """Rebind `owner.attr` and name its spans `name`.

    `example_of(args)` returns the example a call works on (its subtree
    inherits it); `count(tracer, args, kwargs, result)` adds counters after
    the call returns.
    """

    owner: object
    attr: str
    name: str
    example_of: object = None
    count: object = None


class Tracer:
    """Spans plus counters; counters are keyed `<phase>/<name>`, where
    `phase` is a label the caller sets between phases."""

    def __init__(self):
        self.phase = "none"
        self.spans = []
        self.counters = defaultdict(float)
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()

    # ------------------------------------------------------------ recording

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def example(self):
        """The example (as passed to the program) the current thread works on."""
        return getattr(self._local, "example", None)

    def add(self, name: str, amount: float = 1.0):
        with self._lock:
            self.counters[f"{self.phase}/{name}"] += amount

    def wrap(self, fn, target: Target):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            outer_example = tracer.example
            if target.example_of is not None:
                tracer._local.example = target.example_of(args)
            with tracer._lock:
                span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                example = tracer.example
                span = Span(span_id, target.name, start, end, parent, getattr(example, "id", None), threading.get_ident())
                tracer._local.example = outer_example
                with tracer._lock:
                    tracer.spans.append(span)
            tracer.add(f"{target.name}.calls")
            if target.count is not None:
                target.count(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def instrument(self, targets):
        """Rebind every target for the duration of the block; the originals
        are back on exit, also when the block or a lookup raises."""
        saved = []
        try:
            for target in targets:
                original = target.owner.__dict__[target.attr]
                setattr(target.owner, target.attr, self.wrap(original, target))
                saved.append((target.owner, target.attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -------------------------------------------------------------- output

    def write(self, path):
        """Spans as one JSON object per line, then the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(span)) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}, sort_keys=True) + "\n")


# ---------------------------------------------------------------- analysis


def self_times(spans):
    """{span id: duration minus the part of its interval that its children cover}."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered, cursor = 0.0, span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


def summarize(spans):
    """{name: {"calls", "total_s", "self_s"}} over every span."""
    own = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.id]
    return dict(table)
