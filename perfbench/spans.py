"""Span recording for the traced benchmark run.

Spans are kept in memory as tuples and written as JSONL once the run ends.
The current span and the current op live in ``contextvars``, so a wrapper
only has to read them to know its parent. Self time is a span's duration
minus the part of its interval that its children cover.

Nothing here is active in an untraced run: wrappers are installed by
``Tracer.installed`` for the duration of a ``with`` block and the original
module attributes are put back in its ``finally``.
"""
from __future__ import annotations

import contextvars
import itertools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, NamedTuple

class Span(NamedTuple):
    span_id: int
    parent: int | None
    op: str | None
    name: str
    start: float
    end: float
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, timed with ``now`` (the benchmark passes its
    reference-speed clock). ``wrap`` returns a callable that records one span per
    call; ``info`` maps (args, kwargs, result) to span attributes and runs
    after the span has closed, so it is not part of the measured time. On
    an exception it gets ``result=None`` and the span gains ``error``."""

    def __init__(self, now: Callable[[], float] = time.perf_counter) -> None:
        self.now = now
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = \
            contextvars.ContextVar("perfbench_span", default=None)
        self._op: contextvars.ContextVar[str | None] = \
            contextvars.ContextVar("perfbench_op", default=None)

    @contextmanager
    def span(self, name: str, op: str | None = None, **attrs):
        """Span around a block. Passing ``op`` starts a new op id for the
        block; the yielded dict can receive attributes before it closes."""
        op_token = self._op.set(op) if op is not None else None
        parent = self._current.get()
        span_id = next(self._ids)
        token = self._current.set(span_id)
        start = self.now()
        try:
            yield attrs
        finally:
            end = self.now()
            self._current.reset(token)
            self.spans.append(Span(span_id, parent, self._op.get(), name,
                                   start, end, attrs or None))
            if op_token is not None:
                self._op.reset(op_token)

    def wrap(self, name: str, fn: Callable,
             info: Callable[[tuple, dict, Any], dict] | None = None) -> Callable:
        current, op_var, spans, ids = self._current, self._op, self.spans, self._ids
        now = self.now

        def traced(*args, **kwargs):
            parent = current.get()
            span_id = next(ids)
            token = current.set(span_id)
            start = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = now()
                current.reset(token)
                attrs = dict(info(args, kwargs, None) or {}) if info is not None else {}
                attrs["error"] = type(exc).__name__
                spans.append(Span(span_id, parent, op_var.get(), name, start, end, attrs))
                raise
            end = now()
            current.reset(token)
            attrs = info(args, kwargs, result) if info is not None else None
            spans.append(Span(span_id, parent, op_var.get(), name, start, end, attrs))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, patches: Iterable[tuple[Any, str, str, Callable | None]]):
        """Replace ``module.attr`` with a traced wrapper for each
        (module, attr, span name, info) and always restore the originals."""
        saved = []
        try:
            for module, attr, name, info in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, info))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                doc = {"id": s.span_id, "parent": s.parent, "op": s.op,
                       "name": s.name, "start": s.start, "end": s.end}
                if s.attrs:
                    doc.update(s.attrs)
                fh.write(json.dumps(doc, sort_keys=True, default=str) + "\n")


class NullTracer:
    """Stand-in for an untraced run: spans cost one context-manager entry."""

    @contextmanager
    def span(self, name: str, op: str | None = None, **attrs):
        yield attrs


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children's
    intervals, each clipped to the parent's interval."""
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.span_id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.span_id] = s.duration - covered
    return out
