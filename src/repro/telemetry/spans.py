"""Hierarchical trace spans: where did this query's time go?

The paper's pitch — one compositional model served by multiple solver
backends — makes per-query attribution a first-class question: Zen's
authors tune backends per workload (Fig. 10), and that tuning needs a
timeline, not a pile of per-silo counters.  A :class:`Span` is one
named, timed region with structured attributes; spans nest, forming a
tree per top-level operation; a :class:`Tracer` owns the live span
stack (per thread) and the finished roots.

Design notes
------------
* **Near-zero cost when disabled.**  ``Tracer.enabled`` is a plain
  attribute; instrumented hot paths guard on it with one attribute
  read and branch.  :meth:`Tracer.span` returns a shared no-op
  context manager when disabled — no Span allocation, no clock read.
* **Monotonic timings, wall-clock placement.**  Durations come from
  ``perf_counter`` (immune to clock steps); each span also records a
  wall-clock start (epoch seconds, derived from per-process anchors
  stamped at ``enable()``), which is what lets span trees from
  *different processes* merge into one timeline: every process anchors
  against the same system clock.
* **Thread safety.**  The live span stack is ``threading.local`` (two
  threads tracing concurrently build independent trees); the finished
  roots list is guarded by a lock.
* **Cross-process propagation.**  A finished span tree serializes to
  plain dicts (:meth:`Span.to_dict`) that survive a pickle over the
  query service's result pipe; the parent grafts them back with
  :meth:`Tracer.adopt`, preserving the worker's pid so exporters can
  render each process as its own track.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter, time as wall_time
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "TRACER",
    "span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
]


class Span:
    """One named, timed region with attributes and child spans.

    ``start`` is wall-clock epoch seconds (cross-process comparable);
    ``duration_s`` is measured with the monotonic performance counter.
    A span is *open* until :meth:`Tracer.finish` (or the ``with``
    block) closes it; only closed spans should be exported.
    """

    __slots__ = (
        "name",
        "start",
        "duration_s",
        "attrs",
        "children",
        "pid",
        "tid",
        "_t0",
    )

    def __init__(
        self,
        name: str,
        start: float,
        pid: int,
        tid: int,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.start = start
        self.duration_s = 0.0
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self.pid = pid
        self.tid = tid
        self._t0 = 0.0

    def set(self, key: str, value: Any) -> "Span":
        """Attach (or overwrite) one structured attribute."""
        self.attrs[key] = value
        return self

    @property
    def end(self) -> float:
        """Wall-clock end time (epoch seconds)."""
        return self.start + self.duration_s

    def walk(self) -> Iterator["Span"]:
        """Iterate this span and every descendant, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict serialization (picklable, JSON-able)."""
        return {
            "name": self.name,
            "start": self.start,
            "dur": self.duration_s,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Rebuild a (closed) span tree from :meth:`to_dict` output."""
        root = cls(
            str(data.get("name", "")),
            float(data.get("start", 0.0)),
            int(data.get("pid", 0)),
            int(data.get("tid", 0)),
            data.get("attrs") or {},
        )
        root.duration_s = float(data.get("dur", 0.0))
        root.children = [
            cls.from_dict(child) for child in data.get("children", ())
        ]
        return root

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, dur={self.duration_s * 1000:.3f}ms, "
            f"children={len(self.children)})"
        )


class _NoopSpan:
    """Shared do-nothing span/context-manager for disabled tracers.

    Enters to itself so ``with span(...) as sp: sp.set(...)`` works
    identically whether tracing is on or off; ``set`` discards.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, key: str, value: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _SpanHandle:
    """Context manager binding one live span to a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", live: Span):
        self._tracer = tracer
        self._span = live

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc_value, tb) -> bool:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer.finish(self._span)
        return False


class Tracer:
    """Owns live span stacks (per thread) and finished root spans.

    One process-wide instance (:data:`TRACER`) is what the library's
    instrumentation points consult; tests may build private tracers.
    """

    def __init__(self, enabled: bool = False):
        #: Plain attribute on purpose: the hot-path guard is a single
        #: attribute read, not a property call.
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: List[Span] = []
        self._wall_anchor = 0.0
        self._mono_anchor = 0.0
        if enabled:
            self.enable()

    # -- lifecycle -------------------------------------------------------

    def enable(self) -> None:
        """Turn tracing on (stamps fresh clock anchors)."""
        self._wall_anchor = wall_time()
        self._mono_anchor = perf_counter()
        self.enabled = True

    def disable(self) -> None:
        """Turn tracing off (finished roots are kept until reset)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all finished roots and any live per-thread stack."""
        with self._lock:
            self._roots = []
        self._local = threading.local()

    def hard_reset(self) -> None:
        """Disable and drop everything (e.g. in a freshly forked child).

        A forked worker inherits the parent's enabled flag and the
        forking thread's live span stack; neither belongs to the
        child's own timeline.
        """
        self.disable()
        self.reset()

    # -- clock -----------------------------------------------------------

    def now_wall(self) -> float:
        """Current time on the trace's wall clock (epoch seconds)."""
        return self._wall_anchor + (perf_counter() - self._mono_anchor)

    def wall_from_monotonic(self, mono: float) -> float:
        """Map a ``time.monotonic``/``perf_counter`` reading to epoch.

        Valid for readings taken after :meth:`enable`; used to place
        retroactively recorded spans (e.g. scheduler attempts timed
        with an injected clock) on the shared timeline.
        """
        return self._wall_anchor + (mono - self._mono_anchor)

    # -- span stack ------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span (low-level; prefer :meth:`span`).

        The caller must pass the returned span to :meth:`finish`.
        """
        # One clock reading gives both the start and the origin of the
        # duration; a second one would make start + duration overshoot
        # the true end by whatever ran in between.
        now = perf_counter()
        live = Span(
            name,
            self.wall_from_monotonic(now),
            os.getpid(),
            threading.get_ident(),
            attrs,
        )
        live._t0 = now
        self._stack().append(live)
        return live

    def finish(self, live: Span) -> Span:
        """Close a span opened with :meth:`begin` and file it."""
        live.duration_s = perf_counter() - live._t0
        stack = self._stack()
        # Pop through abandoned inner spans (an exception may have
        # skipped their finish); attribute their time to the tree
        # rather than corrupting the stack.
        while stack:
            top = stack.pop()
            if top is live:
                break
            top.duration_s = perf_counter() - top._t0
            top.attrs.setdefault("abandoned", True)
            # Keep the abandoned span in the tree, under whatever is
            # still open beneath it (ultimately `live` itself).
            holder = stack[-1] if stack else live
            holder.children.append(top)
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(live)
        else:
            with self._lock:
                self._roots.append(live)
        return live

    def span(self, name: str, **attrs: Any):
        """Context manager for one traced region::

            with TRACER.span("compile", backend="sat") as sp:
                ...
                sp.set("bits", n)

        Returns a shared no-op object when tracing is disabled, so the
        guard costs one attribute read and no allocation beyond the
        call itself.
        """
        if not self.enabled:
            return _NOOP
        return _SpanHandle(self, self.begin(name, attrs))

    # -- recording & adoption -------------------------------------------

    def record(
        self,
        name: str,
        start_wall: float,
        duration_s: float,
        attrs: Optional[Dict[str, Any]] = None,
        children: Optional[List[Span]] = None,
        parent: Optional[Span] = None,
    ) -> Span:
        """File an already-measured span (retroactive instrumentation).

        Used by schedulers that time work with their own clock and
        only afterwards know the outcome to annotate.  The span is
        attached to ``parent`` when given (e.g. a dispatcher thread
        filing under the submitting thread's open span), else to the
        current open span on this thread, else becomes a root.
        """
        done = Span(
            name, start_wall, os.getpid(), threading.get_ident(), attrs
        )
        done.duration_s = max(0.0, duration_s)
        if children:
            done.children.extend(children)
        target = parent if parent is not None else self.current()
        if target is not None:
            target.children.append(done)
        else:
            with self._lock:
                self._roots.append(done)
        return done

    def adopt(
        self, tree: Dict[str, Any], parent: Optional[Span] = None
    ) -> Span:
        """Graft a serialized foreign span tree into this trace.

        The foreign spans keep their own pid/tid (a worker subprocess
        renders as its own track in the merged timeline).  Attached to
        ``parent`` when given, else to the current open span, else
        filed as a root.
        """
        foreign = Span.from_dict(tree)
        target = parent if parent is not None else self.current()
        if target is not None:
            target.children.append(foreign)
        else:
            with self._lock:
                self._roots.append(foreign)
        return foreign

    # -- results ---------------------------------------------------------

    def finished_roots(self) -> List[Span]:
        """Snapshot of the completed top-level spans, oldest first."""
        with self._lock:
            return list(self._roots)


#: The process-wide tracer every instrumentation point consults.
TRACER = Tracer()


def span(name: str, **attrs: Any):
    """Module-level shorthand for ``TRACER.span(name, **attrs)``."""
    if not TRACER.enabled:
        return _NOOP
    return TRACER.span(name, **attrs)


def enable_tracing() -> Tracer:
    """Enable the process-wide tracer and return it."""
    TRACER.enable()
    return TRACER


def disable_tracing() -> None:
    """Disable the process-wide tracer (finished spans are kept)."""
    TRACER.disable()


def tracing_enabled() -> bool:
    """Whether the process-wide tracer is currently recording."""
    return TRACER.enabled
