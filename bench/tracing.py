"""Span tracing from outside the package, for the benchmark's traced runs.

The tracer replaces module attributes that the layers of `clbf` call each
other through with timing wrappers, and puts the originals back when the
run ends. A wrapper either records a span (id, parent, name, context,
start, end) or, for calls made hundreds of times per operation, only adds
its duration to a per-name total. Both kinds charge their duration to the
enclosing span, so a layer's self time is its spans' time minus the time
of the wrapped calls they made.

Spans stay in memory until `write` stores them as gzip JSON lines.
"""

from __future__ import annotations

import gzip
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.context = ""
        self.spans: list[tuple[int, int, str, str, int, int]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        # (context, name) -> [calls, total ns]
        self.totals: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list[int]] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[list[int], int]:
        frame = [0, next(self._ids)]  # [ns spent in wrapped children, span id]
        parent = self._stack[-1][1] if self._stack else -1
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, t0, t1, name, layer, record) -> int:
        self._stack.pop()
        dur = t1 - t0
        self.self_ns[layer] += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        agg = self.totals[(self.context, name)]
        agg[0] += 1
        agg[1] += dur
        if record:
            self.spans.append((frame[1], parent, name, self.context, t0, t1))
        return dur

    def wrap(self, fn, name: str, layer: str, record: bool = True, hook=None):
        """Timing wrapper around ``fn``; ``hook(tracer, args, result, ns)`` sees each return."""
        clock, opener, closer = time.perf_counter_ns, self._open, self._close

        def wrapper(*args, **kwargs):
            frame, parent = opener()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = closer(frame, parent, t0, clock(), name, layer, record)
            if hook is not None:
                hook(self, args, result, dur)
            return result

        wrapper.__wrapped__ = fn  # lets the cache scan see through the wrapper
        return wrapper

    def patch(self, owner, attr, name, layer, record=True, hook=None, adapt=None):
        """Replace ``owner.attr`` by its wrapper until `restore`.

        ``adapt`` turns the original into the callable actually wrapped.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        new = self.wrap(adapt(fn) if adapt else fn, name, layer, record, hook)
        if is_classmethod:
            new = classmethod(new)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def region(self, name: str, layer: str):
        """A span around benchmark code that is not itself a wrapped call."""
        frame, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(frame, parent, t0, time.perf_counter_ns(), name, layer, True)

    # ------------------------------------------------------------------
    # queries

    def calls(self, name: str, context: str | None = None) -> int:
        return sum(
            v[0] for (c, n), v in self.totals.items() if n == name and context in (None, c)
        )

    def total_ns(self, name: str, context: str | None = None) -> int:
        return sum(
            v[1] for (c, n), v in self.totals.items() if n == name and context in (None, c)
        )

    def self_shares(self, layers) -> dict[str, float]:
        whole = sum(self.self_ns.values())
        return {layer: self.self_ns.get(layer, 0) / whole if whole else 0.0 for layer in layers}

    def write(self, path: str, header: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
