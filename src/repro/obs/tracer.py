"""Hierarchical span tracer: where did this diagnosis spend its time?

A :class:`Span` is one timed region of the pipeline — a stage, a cache
lookup, a fleet round-trip — with a name, monotonic-clock duration,
key/value attributes, and a parent.  Spans form a tree: the root of a
diagnosis job covers the whole run, its children are the five pipeline
stages plus collection, and their children attribute time further down
(constraint generation vs. solving, per-request round-trips).

Design constraints, in order:

* **Near-zero cost when disabled.** ``Tracer(enabled=False).span(...)``
  allocates nothing: it returns one shared no-op context manager whose
  ``__enter__`` yields one shared :data:`NULL_SPAN`.  Hot paths can be
  instrumented unconditionally and pay one attribute check when tracing
  is off — the Table 4 numbers must not move.
* **Thread-safe.** The current-span stack is thread-local (each worker
  thread nests its own spans correctly); the finished-span list is
  locked.  Cross-thread parentage — work fanned out to pool threads —
  is explicit: pass ``parent=span``.
* **Monotonic.** Durations come from ``perf_counter_ns``; wall-clock
  never enters a span, so traces from machines with stepping clocks
  still order correctly.
"""

from __future__ import annotations

import itertools
import json
import threading
from time import perf_counter_ns


class Span:
    """One finished-or-running timed region."""

    __slots__ = ("name", "span_id", "parent_id", "start_ns", "end_ns", "attrs", "thread")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        start_ns: int,
        thread: str,
        attrs: dict | None = None,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns: int | None = None
        self.attrs: dict = attrs or {}
        self.thread = thread

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9

    def set(self, **attrs) -> None:
        """Attach key/value attributes to the span."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "thread": self.thread,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"{self.duration_ns / 1e6:.3f}ms)"
        )


class _NullSpan:
    """The span handed out when tracing is disabled: absorbs everything."""

    __slots__ = ()

    name = "<disabled>"
    span_id = 0
    parent_id = None
    start_ns = 0
    end_ns = 0
    duration_ns = 0
    duration_s = 0.0
    attrs: dict = {}
    thread = ""

    def set(self, **attrs) -> None:
        pass

    def to_dict(self) -> dict:
        return {}


NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Shared no-op context manager: disabled tracing allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()

_UNSET = object()  # "use the current thread's span stack" sentinel


class _SpanContext:
    """The live context manager ``Tracer.span`` returns."""

    __slots__ = ("_tracer", "_name", "_parent", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, parent, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._start(self._name, self._parent, self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._span is not None
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self._span)
        return False


class Tracer:
    """Collects a run's spans; one tracer per observed process/run."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._finished: list[Span] = []
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, parent=_UNSET, **attrs):
        """Context manager for one timed region.

        ``parent`` defaults to the calling thread's innermost open span;
        pass an explicit :class:`Span` (or ``None`` for a root) when the
        work runs on a different thread than its logical parent.
        """
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, name, parent, attrs)

    def record(self, name: str, duration_s: float, parent=_UNSET, **attrs) -> Span | _NullSpan:
        """Record an already-elapsed region (e.g. queue wait measured
        before tracing could wrap it) as a finished span ending now."""
        if not self.enabled:
            return NULL_SPAN
        span = self._start(name, parent, attrs)
        span.start_ns -= int(duration_s * 1e9)
        self._finish(span)
        return span

    def _start(self, name: str, parent, attrs: dict) -> Span:
        stack = self._stack()
        if parent is _UNSET:
            parent_id = stack[-1].span_id if stack else None
        elif parent is None or isinstance(parent, _NullSpan):
            parent_id = None
        else:
            parent_id = parent.span_id
        span = Span(
            name,
            next(self._ids),
            parent_id,
            perf_counter_ns(),
            threading.current_thread().name,
            attrs,
        )
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end_ns = perf_counter_ns()
        stack = self._stack()
        if span in stack:  # tolerate exits out of order across threads
            stack.remove(span)
        with self._lock:
            self._finished.append(span)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- reading -----------------------------------------------------------

    def current(self) -> Span | None:
        """The calling thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def finished_spans(self) -> list[Span]:
        with self._lock:
            return list(self._finished)

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()

    def subtree(self, root: Span | _NullSpan) -> list[Span]:
        """``root`` plus every finished descendant, depth-first.

        Children finish before their parent, so once the root is
        finished the whole subtree is in the finished list.
        """
        if isinstance(root, _NullSpan):
            return []
        children = self._children_index()
        out: list[Span] = []
        work = [root]
        while work:
            span = work.pop()
            out.append(span)
            work.extend(reversed(children.get(span.span_id, ())))
        return out

    def _children_index(self) -> dict[int, list[Span]]:
        index: dict[int, list[Span]] = {}
        for span in self.finished_spans():
            if span.parent_id is not None:
                index.setdefault(span.parent_id, []).append(span)
        for kids in index.values():
            kids.sort(key=lambda s: (s.start_ns, s.span_id))
        return index

    # -- rendering ---------------------------------------------------------

    def render_tree(self, root: Span | None = None, max_attrs: int = 6) -> str:
        """Human-readable indented span tree (all roots, or one subtree)."""
        spans = self.finished_spans()
        if not spans:
            return "(no spans recorded)"
        children = self._children_index()
        ids = {s.span_id for s in spans}
        if root is not None:
            roots = [root]
        else:
            roots = sorted(
                (s for s in spans if s.parent_id is None or s.parent_id not in ids),
                key=lambda s: (s.start_ns, s.span_id),
            )
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            attrs = ""
            if span.attrs:
                shown = list(span.attrs.items())[:max_attrs]
                attrs = "  {" + ", ".join(f"{k}={v}" for k, v in shown) + "}"
            lines.append(
                f"{'  ' * depth}{span.name}  {span.duration_ns / 1e6:.3f} ms{attrs}"
            )
            for child in children.get(span.span_id, ()):
                walk(child, depth + 1)

        for r in roots:
            walk(r, 0)
        return "\n".join(lines)

    def to_jsonl(self) -> str:
        """One JSON object per span, start-ordered — the ``--trace-out``
        artifact format."""
        spans = sorted(self.finished_spans(), key=lambda s: (s.start_ns, s.span_id))
        return "\n".join(json.dumps(s.to_dict(), default=str) for s in spans)


NULL_TRACER = Tracer(enabled=False)
"""The shared disabled tracer un-observed code paths run against."""
