"""In-memory span recording around public calls, and span arithmetic.

A :class:`Tracer` replaces a function or method with a wrapper that records
one span per call: name, start, end, the enclosing span on the same thread
(its parent) and the request id active on that thread.  Spans stay in a
list until :meth:`Tracer.dump` writes them as JSON lines when the run ends.
:meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rid", "thread",
                 "attrs")

    def __init__(self, id, name, start, end=None, parent=None, rid=None,
                 thread=None, attrs=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.thread = thread
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


class Tracer:
    """Wraps callables so that every call records a :class:`Span`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._last_lock = threading.Lock()
        self._last: dict = {}

    # -- per-thread context -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def last_span(self, name: str, thread: int | None = None):
        """The most recent finished span called ``name`` on ``thread``
        (any thread when ``None``)."""
        with self._last_lock:
            return self._last.get((name, thread))

    # -- recording ----------------------------------------------------------------

    def wrap(self, owner, attribute: str, name: str, *, request_id=None,
             after=None, when=None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attribute``.

        ``request_id(args, kwargs)`` may return an id that this span and
        every span nested in it on the same thread carry.  ``after(span,
        args, kwargs, result)`` runs once the span has ended, outside the
        timed interval, and may fill ``span.attrs``.  ``when()`` returning
        false skips recording for that call.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if when is not None and not when():
                return original(*args, **kwargs)
            local = tracer._local
            stack = tracer._stack()
            previous_rid = getattr(local, "rid", None)
            rid = request_id(args, kwargs) if request_id is not None else None
            if rid is not None:
                local.rid = rid
            span = Span(next(tracer._ids), name, 0.0,
                        parent=stack[-1] if stack else None,
                        rid=getattr(local, "rid", None),
                        thread=threading.get_ident())
            stack.append(span.id)
            result = None
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                local.rid = previous_rid
                if after is not None:
                    after(span, args, kwargs, result)
                tracer.spans.append(span)
                with tracer._last_lock:
                    tracer._last[(name, span.thread)] = span
                    tracer._last[(name, None)] = span

        self._patches.append((owner, attribute, owner.__dict__.get(attribute)
                              if isinstance(owner, type) else original))
        setattr(owner, attribute, wrapper)

    def record(self, name: str, start: float, end: float, rid=None,
               **attrs) -> Span:
        """Add a span measured by the caller (no wrapper involved)."""
        span = Span(next(self._ids), name, start, end, rid=rid,
                    thread=threading.get_ident(), attrs=attrs or None)
        self.spans.append(span)
        return span

    def restore(self) -> None:
        """Put every wrapped callable back (in reverse order)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def dump(self, path: Path) -> Path:
        """Write every span as one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
        return path


def load_spans(path: Path) -> list[Span]:
    """Read spans written by :meth:`Tracer.dump`."""
    spans = []
    with Path(path).open() as handle:
        for line in handle:
            spans.append(Span(**json.loads(line)))
    return spans


def named(spans, name: str, start: float | None = None,
          end: float | None = None) -> list[Span]:
    """Spans called ``name`` that began inside ``[start, end)``."""
    return [span for span in spans if span.name == name
            and (start is None or span.start >= start)
            and (end is None or span.start < end)]


def self_time(span: Span, children: list[Span]) -> float:
    """``span``'s duration minus the part of it its children cover."""
    intervals = sorted((max(child.start, span.start), min(child.end, span.end))
                       for child in children)
    covered = 0.0
    cursor = span.start
    for low, high in intervals:
        low = max(low, cursor)
        if high > low:
            covered += high - low
            cursor = high
    return span.duration - covered


def children_of(spans) -> dict:
    """Map span id → list of its child spans."""
    table: dict = {}
    for span in spans:
        if span.parent is not None:
            table.setdefault(span.parent, []).append(span)
    return table
