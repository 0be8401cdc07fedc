"""In-memory span tracer that wraps the program's public calls from outside.

The traced run patches named methods and functions of the program with
timing wrappers (:meth:`Tracer.wrap`) and restores them afterwards; no
tracing code lives in the program itself.  Each span records its name,
start, end, parent span and request id.  Spans stay in memory until the run
ends; a span's self time is its duration minus the part of it that its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Optional[str]
    thread: int
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped calls; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: Optional[str]) -> None:
        """Request id inherited by root spans opened later on this thread."""
        self._local.request_id = request_id

    def call(self, name: str, fn: Callable, args, kwargs,
             request_id: Optional[str] = None,
             info: Optional[Callable] = None,
             pre_info: Optional[Dict[str, float]] = None):
        """Run ``fn(*args, **kwargs)`` inside one span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None:
            request_id = (
                parent.request_id if parent is not None
                else getattr(self._local, "request_id", None)
            )
        span = Span(next(self._ids), name, 0.0, 0.0,
                    parent.span_id if parent is not None else None,
                    request_id, threading.get_ident(), dict(pre_info or {}))
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if info is not None:
            span.info.update(info(args, kwargs, result))
        return result

    # -- patching ---------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             request_id: Optional[Callable] = None,
             info: Optional[Callable] = None,
             before: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``request_id(args, kwargs)`` names the request a span belongs to
        (by default it inherits its parent's); ``before(args, kwargs)`` and
        ``info(args, kwargs, result)`` return numbers stored on the span,
        taken before and after the call.  Class and static methods keep
        their kind, and a method inherited from a base class is shadowed on
        ``owner`` only.  :meth:`restore` undoes every patch.
        """
        own = vars(owner).get(attr, _INHERITED)
        original = getattr(owner, attr) if own is _INHERITED else own
        kind = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        fn = original.__func__ if kind is not None else original
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(
                name, fn, args, kwargs,
                request_id=request_id(args, kwargs) if request_id else None,
                info=info,
                pre_info=before(args, kwargs) if before else None,
            )

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, own))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


#: Marks a patched attribute that ``owner`` inherited rather than defined.
_INHERITED = object()


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    out: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            out.setdefault(span.parent, []).append(span)
    return out


def covered(start: float, end: float, intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    kids = children_of(spans)
    return {
        span.span_id: span.duration - covered(
            span.start, span.end,
            [(c.start, c.end) for c in kids.get(span.span_id, ())],
        )
        for span in spans
    }


def ancestors(span: Span, by_id: Dict[int, Span]) -> List[str]:
    """Names of the span's ancestors, nearest first."""
    names = []
    parent = span.parent
    while parent is not None and parent in by_id:
        names.append(by_id[parent].name)
        parent = by_id[parent].parent
    return names
