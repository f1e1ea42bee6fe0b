"""Span-scoped tracing over simulated time.

``with tracer.span("append"):`` brackets a region of a simulated
thread's execution.  On exit the span's elapsed simulated cycles are
recorded into a per-operation latency histogram on ``Stats``
(``span.<name>``).  A nested span's cycles count in its parent's
elapsed time too; no shipped span nests.

The tracer is deliberately decoupled from the engine: it is constructed
with *callables* for the clock and the current-thread name, so it works
for any time source and ``repro.obs`` never imports ``repro.sim``.
"""

from __future__ import annotations

from typing import Callable, Dict, List


class _Span:
    """One open span on a thread's span stack (context manager)."""

    __slots__ = ("tracer", "name", "thread", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.thread = ""
        self.start = 0.0

    def __enter__(self) -> "_Span":
        self.thread = self.tracer._current()
        self.start = self.tracer._clock()
        self.tracer._stacks.setdefault(self.thread, []).append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer._close(self, self.tracer._clock())


class Tracer:
    """Records span timings against an injected simulated clock."""

    def __init__(self, clock: Callable[[], float],
                 current: Callable[[], str], stats) -> None:
        self._clock = clock
        self._current = current
        self._stats = stats
        self._stacks: Dict[str, List[_Span]] = {}

    def span(self, name: str) -> _Span:
        """Open a named span: ``with tracer.span("append"): ...``"""
        return _Span(self, name)

    def _close(self, span: _Span, end: float) -> None:
        stack = self._stacks.get(span.thread, [])
        if not stack or stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order on "
                f"thread {span.thread!r}")
        stack.pop()
        self._stats.observe(f"span.{span.name}", end - span.start)

    def reset(self) -> None:
        self._stacks.clear()
