"""Spans and counters recorded from outside the library.

The tracer replaces a public function under the module attribute its callers
look it up by (``rmlab.experiments.spectral_summary`` and so on) with a
wrapper, and restores the original on exit. No library file changes.

With timing off a wrapper only counts calls and runs its observer, which
reads counts off the returned object (iterations, atoms, error radii). With
timing on it also records a span: name, optional sub-key, thread, start, end
and the span that was open on the same thread when it started. A span's
self time is its duration minus the durations of its children on the same
thread, so work a thread pool runs never counts against the span that
submitted it and self times cannot go negative.
"""
from __future__ import annotations

import functools
import importlib
import threading
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    sub: str | None
    thread: int
    start: float
    end: float
    request: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs wrappers; collects spans and per-request counters."""

    def __init__(self):
        self.timing = False
        self.request = 0
        self.spans: list[Span] = []
        self.counters: dict = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- wrapping

    def wrap(self, target: str, name: str, observe=None, sub=None) -> None:
        """Wrap ``module.attr`` (given as one dotted string) under span name.

        observe(result, args, kwargs, counters) runs under the tracer lock
        after each call; sub(args, kwargs) returns a sub-key (e.g. "n400")
        under which the span's duration is also grouped.
        """
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.timing:
                result = original(*args, **kwargs)
                self._count(name, observe, result, args, kwargs)
                return result
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = self._new_id()
            stack.append(span_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                key = sub(args, kwargs) if sub is not None else None
                span = Span(span_id, parent, name, key, threading.get_ident(), start, end, self.request)
                with self._lock:
                    self.spans.append(span)
            self._count(name, observe, result, args, kwargs)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, most recent first."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -------------------------------------------------------------- requests

    def begin(self, request: int) -> None:
        """Start a new request: spans get its id, counters start empty."""
        with self._lock:
            self.request = request
            self.counters = {}

    def take_counters(self) -> dict:
        with self._lock:
            out, self.counters = self.counters, {}
        return out

    # -------------------------------------------------------------- internals

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _count(self, name, observe, result, args, kwargs) -> None:
        with self._lock:
            calls = self.counters.setdefault("calls", {})
            calls[name] = calls.get(name, 0) + 1
            if observe is not None:
                observe(result, args, kwargs, self.counters)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: duration minus same-thread child durations."""
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent_id is not None and s.parent_id in own:
            own[s.parent_id] -= s.duration
    return own


def aggregate(spans: list[Span], requests: int) -> dict[str, dict]:
    """Per span name: self seconds per request, and the durations of single
    calls (in ms) overall and by sub-key."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"self_s": 0.0, "ms": [], "by_sub": {}})
        entry["self_s"] += own[s.span_id]
        entry["ms"].append(1e3 * s.duration)
        if s.sub is not None:
            entry["by_sub"].setdefault(s.sub, []).append(1e3 * s.duration)
    for entry in out.values():
        entry["self_s"] /= requests
    return out

