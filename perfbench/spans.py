"""In-memory spans for the benchmark's traced run.

The benchmark records spans from its own code only: :meth:`Tracer.patched`
temporarily replaces public functions and methods of the library with
wrappers that open a span around each call, and :meth:`Tracer.span` marks
the round itself. Nothing inside ``src/`` is instrumented.

Each span carries a name, start, end, its parent span and the round it
belongs to. The current span lives in a :mod:`contextvars` variable, so
under asyncio every task sees its own parent chain: a sync call made from
one sender task never nests under another task's open span.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: ``(owner, attribute, span name)``: ``getattr(owner, attribute)`` is
#: wrapped while the patch is active.
PatchTarget = Tuple[Any, str, str]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: Optional[int]
    round_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.round_id = 0
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[int]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(
                Span(name, start, end, span_id, parent, self.round_id)
            )

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call (or await, for a coroutine) in a span."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                with self.span(name):
                    return await fn(*args, **kwargs)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, targets: Sequence[PatchTarget]) -> Iterator[None]:
        """Wrap every target for the duration of the block (if enabled)."""
        if not self.enabled:
            yield
            return
        with patch_calls(
            (owner, attr, functools.partial(self.wrap, name=name))
            for owner, attr, name in targets
        ):
            yield


@contextlib.contextmanager
def patch_calls(replacements) -> Iterator[None]:
    """Set ``owner.attr = make(original)`` for each, restoring on exit."""
    saved = []
    try:
        for owner, attr, make in replacements:
            # Only attributes the owner defines itself: restoring an
            # inherited one would shadow the base class's afterwards.
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, make(getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, Dict[str, float]]:
    """Per round, per span name: summed self time (duration − children)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[int, Dict[str, float]] = {}
    for span in spans:
        own = span.duration - _covered(
            children.get(span.span_id, []), span.start, span.end
        )
        per_round = out.setdefault(span.round_id, {})
        per_round[span.name] = per_round.get(span.name, 0.0) + own
    return out


def uncovered_share(spans: Sequence[Span], round_name: str = "round") -> Dict[int, float]:
    """Per round: share of the round span that no top-level span covers."""
    rounds = {s.span_id: s for s in spans if s.name == round_name}
    tops: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent in rounds:
            tops.setdefault(span.parent, []).append((span.start, span.end))
    return {
        root.round_id: 1.0
        - _covered(tops.get(span_id, []), root.start, root.end) / root.duration
        for span_id, root in rounds.items()
        if root.duration > 0
    }
