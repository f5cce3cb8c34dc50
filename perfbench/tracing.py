"""In-memory span tracer for the traced benchmark run.

The tracer patches public functions from the outside: each wrapper is
installed under the name its caller looks up (a module global such as
``repro.core.model.build_flows``, or a method on its class), records one
span per call with a link to the span that was open when it started, and
is removed again by :meth:`Tracer.uninstall`.  Spans stay in memory until
:meth:`Tracer.write` dumps them as JSON at the end of the run.

A span's *self time* is its duration minus the part of that interval its
child spans cover (:func:`self_times`); :func:`self_test` checks that
arithmetic on a hand-built tree with overlapping and overrunning children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

__all__ = ["Span", "Tracer", "self_times", "self_test"]


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "attrs")

    def __init__(
        self, sid: int, name: str, parent: Optional[int], start: float, end: float = 0.0
    ) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.attrs: dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``note(span, args, kwargs, result)``: copies counts from a call's
#: arguments and result into the span's attributes
Note = Callable[[Span, tuple, dict, Any], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, owner: Any, attr: str, name: str, note: Optional[Note] = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper named ``name``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        selfs = self_times(self.spans)
        rows = [
            {
                "id": s.sid,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self": selfs[s.sid],
                "attrs": s.attrs,
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows, default=str))


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: s.duration - _covered(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def self_test() -> bool:
    """Check :func:`self_times` on a tree whose answer is known: two
    overlapping children, a grandchild, and a child that overruns its
    parent (only the covered part counts)."""
    tree = [
        (0, None, 0.0, 10.0),
        (1, 0, 1.0, 4.0),
        (2, 0, 3.0, 6.0),
        (3, 1, 2.0, 3.0),
        (4, 0, 9.0, 12.0),
    ]
    spans = [Span(sid, f"s{sid}", parent, a, b) for sid, parent, a, b in tree]
    # root: 10 - |[1,6] u [9,10]| = 10 - 6; s1: 3 - 1; the rest are leaves
    expected = {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}
    got = self_times(spans)
    return all(abs(got[k] - v) < 1e-12 for k, v in expected.items())
