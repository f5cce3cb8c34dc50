"""Discrete-event kernel: a deterministic time-ordered typed event queue.

:class:`EventQueue` is a :mod:`heapq` binary heap of records ordered by
``(time, seq)``: simultaneous events fire in insertion order (or
reserved-sequence order), so runs are exactly reproducible for a fixed
seed.  The simulator's pending-event population is shallow (a handful
of records per in-flight worm), which is C heapq's best case; an
array-backed calendar queue over the integer-offset event grid was
measured at 0.80x of it at N=64 and removed (ENGINE_VERSION 5).

Events are *typed records* ``(time, seq, code, payload, pos)`` rather than
closures: the engine's hot loop dispatches on the integer ``code`` without
allocating a lambda (plus its cell objects) per event.  The codes:

``EV_REQUEST``
    A worm's header requests its next channel (payload: the worm).
``EV_RELEASE``
    A rigid-train drain release of one held position (payload: worm,
    ``pos`` the 1-based position).
``EV_INJECT``
    Offer a newly created worm to its injection channel (payload: worm).
``EV_CALL``
    A generic callable, fired with no arguments -- the compatibility path
    used by tests and ad-hoc scenarios (payload: the callable).

A queue *bound* to a :class:`~repro.sim.wormengine.WormEngine` delegates
:meth:`run_until` to the engine's fused dispatch loop (which also merges
externally generated arrivals and performs free-path fast-forwarding); an
unbound queue can only fire ``EV_CALL`` events.

Arrival generation is deliberately *outside* both kernels, including the
compiled one: each kernel merges the arrival stream through the same
narrow protocol (``arrivals.next_time`` + ``arrivals.fire(t)``), and the
C fast path (``kernel="c"``) calls ``fire`` back into Python per
arrival.  That boundary is what makes the traffic-source subsystem
(:mod:`repro.traffic.sources`) kernel-agnostic: CBR, ON/OFF, hotspot and
trace-replay streams are plain Python objects, yet the Python and the
compiled kernel consume them bit-identically (covered by
``tests/test_c_kernel.py`` and the traffic differential suite).  A new
source therefore never requires touching kernel code; the cost is one
Python call per *message*, which is amortised across the ~hundreds of
flit events each message generates.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

__all__ = [
    "ENGINE_VERSION",
    "EV_REQUEST",
    "EV_RELEASE",
    "EV_INJECT",
    "EV_CALL",
    "EventQueue",
]

#: behavioural version of the simulation kernel, stamped into cached
#: simulation results so nothing simulated by a different kernel is ever
#: served silently.  Bump on *any* kernel change, even result-preserving
#: ones -- provenance is the point.  History: 1 = closure-scheduling
#: kernel (PR 1); 2 = typed-event kernel with batched Poisson arrivals
#: and free-path fast-forwarding (bit-identical results to 1, proven by
#: the golden-seed suite); 3 = array-backed calendar queue over the
#: integer-offset event grid with a fully fused dispatch/release hot
#: path, the v2 heapq kernel retained alongside it for differential
#: testing (bit-identical results to 2: the golden-seed suite passed
#: unchanged and the randomized calendar/heap differential suite diffs
#: fire orders exactly); 4 = flat structure-of-arrays channel state
#: (:mod:`repro.sim.state`) shared by every kernel plus the optional
#: compiled dispatch fast path (:mod:`repro.sim._cstep`, ``kernel="c"``)
#: with mid-run bounce to the pure-Python kernel for anything the native
#: loop does not model (bit-identical results to 3 whether or not the
#: extension is built: golden-seed suite and the three-way
#: c/calendar/heap differential suite); 5 = one pure-Python kernel (the
#: v2 heapq hot path, ``kernel="python"``) and its C transcription over
#: the same heap (``kernel="c"``), the calendar queue and the ``auto``
#: pending-depth policy removed -- the kernel names stamped into cache
#: entries changed (bit-identical results to 4: golden-seed suite and
#: the c/python differential suite).
ENGINE_VERSION = 5

EV_REQUEST = 0
EV_RELEASE = 1
EV_INJECT = 2
EV_CALL = 3

_INF = math.inf


class EventQueue:
    """:mod:`heapq` event scheduler with deterministic tie-breaking.

    Records live in ``_heap`` ordered by ``(time, seq)``; ``seq`` is
    unique, so a comparison never reaches the payload.  The engine's
    fused loop (and the compiled kernel) pop and push ``_heap`` directly
    rather than through these methods: at the event rates it runs at,
    even one Python method call per event is a measurable tax.
    """

    __slots__ = ("_heap", "_seq", "_now", "_engine")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Any, int]] = []
        self._seq = 0
        self._now = 0.0
        self._engine = None

    @property
    def now(self) -> float:
        """Current simulation time (the timestamp of the last fired event)."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def bind_engine(self, engine) -> None:
        """Attach the :class:`WormEngine` that dispatches typed events;
        :meth:`run_until` then runs the engine's fused loop."""
        self._engine = engine

    def push(self, time: float, code: int, payload: Any, pos: int = 0) -> None:
        """Schedule a typed event record at ``time``.

        Scheduling in the past -- or at a time that cannot be ordered at
        all (NaN, infinity) -- is a programming error and raises.  The
        past check is *exact*: any ``time < now`` is rejected, at every
        magnitude of simulation time.  (An earlier kernel allowed a
        ``1e-9`` grace window, which silently vanished once ``now`` grew
        beyond ~``2**30`` cycles -- where one float ulp exceeds the
        epsilon -- so the guard's strictness depended on the clock, and
        small backwards steps it *did* accept ran the clock backwards.
        A queue ordered by ``(time, seq)`` must simply never accept a
        timestamp behind the clock.)
        """
        if not (self._now <= time < _INF):
            raise ValueError(
                f"cannot schedule at {time} (now={self._now}): timestamps "
                "must be finite, non-NaN and never behind the clock"
            )
        heapq.heappush(self._heap, (time, self._seq, code, payload, pos))
        self._seq += 1

    def schedule(self, time: float, action: Callable[[], None]) -> None:
        """Schedule a plain callable to fire at ``time`` (``EV_CALL``)."""
        self.push(time, EV_CALL, action)

    def _pop_record(self) -> tuple:
        rec = heapq.heappop(self._heap)
        self._now = rec[0]
        return rec

    def pop(self) -> tuple[float, Any]:
        """Remove and return the next ``(time, payload)`` pair.

        Only ``EV_CALL`` records may be popped through this compatibility
        accessor: a typed engine record's payload is *not* a callable
        result, and silently handing it out used to let misuse of a
        bound queue corrupt a run.  Typed records raise instead.
        """
        rec = self._pop_record()
        if rec[2] != EV_CALL:
            raise RuntimeError(
                f"typed event (code {rec[2]}) popped through the EV_CALL "
                "accessor; bound queues are drained by the engine loop"
            )
        return rec[0], rec[3]

    def run_until(self, horizon: float, *, max_events: int | None = None) -> int:
        """Fire events until the queue is empty or the next event would be
        after ``horizon``.  Returns the number of events fired.

        Bound queues delegate to the engine's dispatch loop; unbound
        queues fire ``EV_CALL`` events only.
        """
        if self._engine is not None:
            return self._engine.run_events(horizon, max_events=max_events)
        fired = 0
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            if max_events is not None and fired >= max_events:
                break
            time, _seq, code, payload, _pos = heapq.heappop(heap)
            self._now = time
            if code != EV_CALL:
                raise RuntimeError(
                    f"typed event (code {code}) on a queue with no bound engine"
                )
            payload()
            fired += 1
        return fired

    def peek_time(self) -> float | None:
        """Timestamp of the next event, or None if the queue is empty."""
        return self._heap[0][0] if self._heap else None
