"""In-memory span tracing for the benchmark.

Library functions are wrapped where their callers look them up (module
attributes of ``ngcodes.cli`` and ``ngcodes.descent``), so nothing under
``src/`` changes. Each span records its name, start, end and parent; spans
stay in memory and are written out once, at the end of a run. While
``alloc`` is set (and ``tracemalloc`` is tracing), each span also records the
peak memory allocated during the call, nested spans included.
"""
from __future__ import annotations

import contextlib
import inspect
import tracemalloc
from time import perf_counter


class Span:
    __slots__ = ("index", "name", "parent", "tag", "start", "end", "note", "base", "high")

    def __init__(self, index, name, parent, tag):
        self.index = index
        self.name = name
        self.parent = parent
        self.tag = tag
        self.start = self.end = 0.0
        self.note = None
        self.base = self.high = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def peak_bytes(self) -> int:
        return self.high - self.base


class Tracer:
    """Collects spans; ``tag`` labels the operation new spans belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tag = None
        self.alloc = False
        self._stack: list[Span] = []
        self._patched = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.tag)
        if self.alloc:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.high = max(parent.high, peak)
            tracemalloc.reset_peak()
            span.base = span.high = current
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self.alloc:
            span.high = max(span.high, tracemalloc.get_traced_memory()[1])
            if span.parent is not None:
                span.parent.high = max(span.parent.high, span.high)
            tracemalloc.reset_peak()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        """Replace ``module.attr`` by a traced wrapper until ``unwrap_all``.

        ``note(arguments, result)`` may attach a summary to the span, where
        ``arguments`` maps parameter names to the values of the call.
        """
        fn = getattr(module, attr)
        signature = inspect.signature(fn) if note is not None else None

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.note = note(signature.bind(*args, **kwargs).arguments, result)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def unwrap_all(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent.index] -= span.duration
        return own

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("index\tname\tparent\ttag\tstart_s\tend_s\tpeak_bytes\n")
            for s in self.spans:
                parent = -1 if s.parent is None else s.parent.index
                tag = "/".join(str(part) for part in s.tag) if s.tag else ""
                fh.write(f"{s.index}\t{s.name}\t{parent}\t{tag}\t{s.start:.9f}\t{s.end:.9f}\t{s.peak_bytes}\n")
