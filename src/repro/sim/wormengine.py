"""The channel-acquisition engine shared by all simulator frontends.

Implements the wormhole mechanics -- FIFO channel queues, header
progression, rigid-train releases, absorb-and-forward clone timing,
deadlock detection/recovery -- independent of traffic generation, so the
same engine code runs under Poisson traffic (:class:`repro.sim.network.
NocSimulator`) and under scripted scenarios (:func:`repro.sim.scripted.
run_scripted`), which the test suite cross-checks cycle-exactly against the
brute-force per-flit simulator (:mod:`repro.sim.reference`).

The engine owns the simulator's hot loop, :meth:`WormEngine.run_events`:
a single dispatch over typed event records (:mod:`repro.sim.engine`)
merged with an optional externally generated arrival stream.  Two
properties make it fast without changing a single timestamp:

* **No per-event closures.**  Header hops and drain releases are integer-
  coded records dispatched inline, not scheduled lambdas.

* **Free-path fast-forwarding.**  When a header acquires position ``k``
  at time ``t`` and nothing in the system can interfere before ``t + 1``
  -- the next queued event and the next arrival are both later, and
  channel ``c_{k+1}`` is idle (an idle channel always has an empty FIFO)
  -- the header's ``t + 1`` hop is executed immediately instead of
  round-tripping through the queue, and the check repeats hop by hop.
  Every fast hop still counts as one fired event and advances the clock,
  so event counts, bookkeeping boundaries and all resulting statistics
  are bit-identical to the one-event-per-hop kernel; any possible
  interference (a pending event or arrival at or before the hop time, a
  busy channel, the horizon or the event budget) falls back to an
  ordinary scheduled request, whose sequence number ordering reproduces
  the legacy tie-breaking exactly.

:class:`CWormEngine` runs the same loop in C (:mod:`repro.sim._cstep`)
when the optional extension is built, and additionally completes
isolated worms ballistically; :class:`WormEngine` is its behavioural
oracle.
"""

from __future__ import annotations

import math
import sys
from heapq import heappop, heappush
from typing import Optional, Protocol

from repro.sim import cext
from repro.sim.deadlock import choose_victim, find_wait_cycle
from repro.sim.engine import EV_INJECT, EV_RELEASE, EV_REQUEST, EventQueue
from repro.sim.state import ChannelState
from repro.sim.worm import Worm

__all__ = [
    "KERNELS",
    "Tracer",
    "NullTracer",
    "ArrivalSource",
    "WormEngine",
    "CWormEngine",
    "c_kernel_status",
]

_NO_LIMIT = sys.maxsize


#: kernel name -> (event queue class, engine class).  "python" is the
#: pure-Python heapq kernel, "c" its compiled transcription (registered
#: only when the extension is built).  Both produce bit-identical results
#: (enforced by tests/test_c_kernel.py), so the knob selects *speed*,
#: never outcomes.
KERNELS = {}  # populated below, after the classes exist


class Tracer(Protocol):
    """Observation hooks; all times are simulation timestamps.

    Hooks are *optional*: a tracer that does not define a method is never
    called for that event, which keeps no-op observation free in the hot
    loop (the engine resolves the hooks once, at construction).
    """

    def on_acquire(self, worm: Worm, position: int, t: float) -> None: ...

    def on_release(self, worm: Worm, position: int, t: float) -> None: ...

    def on_clone_absorbed(self, worm: Worm, position: int, t: float) -> None: ...

    def on_complete(self, worm: Worm, t_done: float, recovered: bool) -> None: ...


class NullTracer:
    """No-op tracer (equivalent to passing ``tracer=None``)."""

    def on_acquire(self, worm: Worm, position: int, t: float) -> None:
        pass

    def on_release(self, worm: Worm, position: int, t: float) -> None:
        pass

    def on_clone_absorbed(self, worm: Worm, position: int, t: float) -> None:
        pass

    def on_complete(self, worm: Worm, t_done: float, recovered: bool) -> None:
        pass


class ArrivalSource(Protocol):
    """Externally generated arrivals merged into the event loop.

    ``next_time`` is the timestamp of the next arrival (``math.inf`` when
    exhausted); ``fire(t)`` consumes it -- updating ``next_time`` *before*
    performing any injection -- and returns the new ``next_time``.
    """

    next_time: float

    def fire(self, t: float) -> float: ...


class WormEngine:
    """Event-driven wormhole channel mechanics over a dense channel space.

    The engine owns channel state (holder + FIFO per channel) and drives
    worms through their paths; completion, releases and clone absorptions
    are reported through the :class:`Tracer`.  It schedules through the
    :class:`EventQueue`, pushing and popping its ``_heap`` directly.
    """

    def __init__(
        self,
        num_channels: int,
        events: EventQueue,
        tracer: Optional[Tracer] = None,
    ):
        self.events = events
        self.tracer: Tracer = tracer if tracer is not None else NullTracer()
        # flat channel state (see repro.sim.state): one store of truth
        # shared by the Python hot paths and the compiled stepper
        self.state = ChannelState(num_channels)
        self.holders = self.state.holders
        self.fifos = self.state.fifos
        self.fifo_heads = self.state.fifo_heads
        self._fifo_pop = self.state.fifo_pop
        self.deadlock_recoveries = 0
        self.active_worms = 0
        self.fault_drops = 0
        # resolve tracer hooks once; None means "never call" (hot path)
        hooked = None if isinstance(self.tracer, NullTracer) else self.tracer
        self._on_acquire = getattr(hooked, "on_acquire", None)
        self._on_release = getattr(hooked, "on_release", None)
        self._on_clone = getattr(hooked, "on_clone_absorbed", None)
        self._on_complete = getattr(hooked, "on_complete", None)
        self._heap = events._heap
        # fast-forward window state, valid only inside run_events
        self._arrivals: Optional[ArrivalSource] = None
        self._horizon = -math.inf
        self._remaining = 0
        events.bind_engine(self)

    # ------------------------------------------------------------------ #
    def run_events(
        self,
        horizon: float,
        max_events: int | None = None,
        arrivals: Optional[ArrivalSource] = None,
    ) -> int:
        """Fire queued events and arrivals in timestamp order (queue first
        on exact ties) until both are past ``horizon`` or ``max_events``
        have fired.  Returns the number of events fired; free-path fast
        hops, fast-chained drain releases and consumed arrivals each
        count as one event."""
        events = self.events
        heap = self._heap
        holders = self.holders
        limit = _NO_LIMIT if max_events is None else max_events
        # save the window state so neither a nested call (an EV_CALL
        # callback re-entering run_until) nor an exception escaping a
        # hook can leave a stale window armed for later top-level calls
        prev_remaining = self._remaining
        prev_horizon = self._horizon
        prev_arrivals = self._arrivals
        self._remaining = limit
        self._horizon = horizon
        self._arrivals = arrivals
        arr_t = arrivals.next_time if arrivals is not None else math.inf
        try:
            while self._remaining > 0:
                if heap and heap[0][0] <= arr_t:
                    rec = heap[0]
                    time = rec[0]
                    if time > horizon:
                        break
                    heappop(heap)
                    events._now = time
                    self._remaining -= 1
                    code = rec[2]
                    if code == EV_REQUEST:
                        worm = rec[3]
                        if not worm.done:
                            ch = worm.path[worm.ptr]
                            if holders[ch] is None:
                                self._grant(worm, ch, time, fast=True)
                            else:
                                self._block(worm, ch, time)
                    elif code == EV_RELEASE:
                        self._drain(rec[3], rec[4], time, rec[1])
                    elif code == EV_INJECT:
                        self.inject(rec[3], time)
                    else:  # EV_CALL
                        rec[3]()
                elif arr_t <= horizon:
                    events._now = arr_t
                    self._remaining -= 1
                    arr_t = arrivals.fire(arr_t)
                else:
                    break
            fired = limit - self._remaining
        finally:
            self._arrivals = prev_arrivals
            self._horizon = prev_horizon
            self._remaining = prev_remaining
        return fired

    # ------------------------------------------------------------------ #
    def inject(self, worm: Worm, t: float, fast: bool = True) -> None:
        """Offer a newly created worm to its injection channel at ``t``.

        ``fast=False`` disables free-path fast-forwarding for this
        injection; callers injecting *several* worms at the same timestamp
        (multicast port worms) must disable it for all but the last, so an
        early sibling cannot run ahead of a later one that has not been
        offered its injection channel yet.

        A worm that is already ``done`` (e.g. torn down by deadlock
        recovery, or handed back by a confused caller) is refused
        *before* the in-flight counter moves: counting it first and then
        silently dropping it in the request path leaked one
        ``active_worms`` slot per occurrence, creeping runs toward the
        saturation cutoff with worms that no longer existed."""
        if worm.done:
            return
        self.active_worms += 1
        self._request(worm, t, fast=fast)

    # ------------------------------------------------------------------ #
    def _request(self, worm: Worm, t: float, fast: bool = False) -> None:
        if worm.done:
            return
        ch = worm.path[worm.ptr]
        if self.holders[ch] is None:
            self._grant(worm, ch, t, fast)
        else:
            self._block(worm, ch, t)

    def _block(self, worm: Worm, ch: int, t: float) -> None:
        """Queue ``worm`` on busy channel ``ch``; detect/recover deadlock."""
        self.fifos[ch].append(worm)
        worm.blocked_on = ch
        cycle = find_wait_cycle(worm, self.holders)
        if cycle:
            self._recover(cycle, t)

    def _grant(self, worm: Worm, ch: int, t: float, fast: bool = False) -> None:
        """Grant ``ch`` to ``worm`` at ``t``.

        ``fast=True`` (dispatch depth only: it consumes the run window's
        event budget) adds free-path fast-forwarding: while nothing in
        the system can interfere before the next hop -- no queued event
        and no arrival at or before ``t + 1`` (events at exactly
        ``t + 1`` were scheduled earlier and must keep their priority),
        the next channel idle, budget and horizon permitting -- execute
        the hop immediately instead of round-tripping through the queue.
        A release below may wake a waiter whose follow-up request lands
        at ``t + 1``; the heap-head check sees it and falls back,
        preserving FIFO order.  The wake-up path out of a release grants
        with ``fast=False``."""
        holders = self.holders
        path = worm.path
        acq = worm.acq_times
        h = worm.H
        m = worm.message_length
        events = self.events
        heap = self._heap
        on_acquire = self._on_acquire
        while True:
            holders[ch] = worm
            worm.blocked_on = None
            acq.append(t)
            worm.ptr += 1
            k = worm.ptr
            if on_acquire is not None:
                on_acquire(worm, k, t)
            # early tail release: for messages shorter than the path, the
            # tail leaves position k - M exactly when the header acquires
            # position k
            pos = k - m
            if pos >= 1:
                self._release_position(worm, pos, t)
            if k >= h:
                self._finish_routing(worm, t)
                return
            u = t + 1.0
            if fast and self._remaining > 0 and u <= self._horizon:
                arrivals = self._arrivals
                if (
                    (not heap or heap[0][0] > u)
                    and (arrivals is None or arrivals.next_time > u)
                ):
                    ch = path[k]
                    if holders[ch] is None:
                        self._remaining -= 1
                        events._now = u
                        t = u
                        continue
            # fall back to an ordinary scheduled request: this push happens
            # at the same point of the event chronology as the legacy
            # kernel's, so its sequence number ordering is identical
            heappush(heap, (u, events._seq, EV_REQUEST, worm, 0))
            events._seq += 1
            return

    def _release_position(self, worm: Worm, pos: int, t: float) -> None:
        if pos in worm.clone_positions and self._on_clone is not None:
            self._on_clone(worm, pos, t + 1.0)
        ch = worm.path[pos - 1]
        if self.holders[ch] is not worm:
            return  # already released (teleported by deadlock recovery)
        if self._on_release is not None:
            self._on_release(worm, pos, t)
        self.holders[ch] = None
        if self.fifos[ch]:
            self._grant(self._fifo_pop(ch), ch, t)

    def _finish_routing(self, worm: Worm, t: float) -> None:
        # t == a_H: the header just acquired the ejection channel.  The
        # rigid-train drain releases positions first..H one cycle apart;
        # only the first release enters the queue.  The rest are either
        # fast-chained by _drain or pushed later *with sequence numbers
        # reserved here* -- the legacy kernel pushed the whole batch at
        # this moment with consecutive seqs, and reserving the same block
        # keeps every tie against other events breaking exactly as before.
        worm.done = True
        events = self.events
        h, m = worm.H, worm.message_length
        first = max(0, h - m) + 1
        seq = events._seq
        events._seq = seq + (h - first + 1)
        heappush(self._heap, (t + (m + first - h), seq, EV_RELEASE, worm, first))
        self.active_worms -= 1
        if self._on_complete is not None:
            self._on_complete(worm, t + m, False)

    def _drain(self, worm: Worm, pos: int, t: float, seq: int) -> None:
        """Fire the drain release of ``pos`` at ``t`` and fast-chain the
        remaining one-cycle-apart releases while nothing can interfere;
        on any possible interference, re-enter the queue with the next
        reserved sequence number."""
        events = self.events
        heap = self._heap
        h = worm.H
        while True:
            self._release_position(worm, pos, t)
            if pos >= h:
                return
            pos += 1
            seq += 1
            u = t + 1.0
            if self._remaining > 0 and u <= self._horizon:
                arrivals = self._arrivals
                if (
                    (not heap or heap[0][0] > u)
                    and (arrivals is None or arrivals.next_time > u)
                ):
                    self._remaining -= 1
                    events._now = u
                    t = u
                    continue
            heappush(heap, (u, seq, EV_RELEASE, worm, pos))
            return

    # ------------------------------------------------------------------ #
    def _recover(self, cycle: list[Worm], t: float) -> None:
        """Teleport the youngest worm out of ``cycle``.

        ``cycle`` is whatever loop :func:`find_wait_cycle` *reached*
        from the worm whose block triggered detection — which may
        exclude that worm entirely (a tail leading into a downstream
        loop).  Recovering any reached cycle is sufficient: freeing one
        of the loop's channels unblocks the whole waiting tail.
        """
        self.deadlock_recoveries += 1
        victim = choose_victim(cycle)
        if victim.blocked_on is not None:
            self.state.fifo_remove(victim.blocked_on, victim)
            victim.blocked_on = None
        for pos, ch in victim.held_channels():
            if self.holders[ch] is victim:
                if self._on_release is not None:
                    self._on_release(victim, pos, t)
                self.holders[ch] = None
                if self.fifos[ch]:
                    self._grant(self._fifo_pop(ch), ch, t)
        victim.done = True
        self.active_worms -= 1
        if self._on_complete is not None:
            self._on_complete(victim, victim.ideal_remaining_time(t), True)

    # ------------------------------------------------------------------ #
    def drop_worm(self, worm: Worm, t: float) -> None:
        """Tear ``worm`` down mid-flight because a fault killed a channel
        it holds or still needs.

        Same mechanics as deadlock recovery's teardown — dequeue from
        the blocked-on FIFO, release every held channel (waking FIFO
        waiters), mark done — but the worm is *lost*, not teleported:
        ``on_complete`` is never called (a dropped message is not a
        latency sample) and the loss is counted in ``fault_drops``
        instead of ``deadlock_recoveries``.
        """
        if worm.done:
            return
        if worm.blocked_on is not None:
            self.state.fifo_remove(worm.blocked_on, worm)
            worm.blocked_on = None
        for pos, ch in worm.held_channels():
            if self.holders[ch] is worm:
                if self._on_release is not None:
                    self._on_release(worm, pos, t)
                self.holders[ch] = None
                if self.fifos[ch]:
                    self._grant(self._fifo_pop(ch), ch, t)
        worm.done = True
        self.active_worms -= 1
        self.fault_drops += 1

    def disable_native(self, reason: str) -> None:
        """Turn off any compiled fast path for this engine instance.

        No-op for the pure-Python kernel; :class:`CWormEngine`
        overrides it.  The fault/QoS machinery calls this because the
        native stepper models neither mid-run channel-state mutation
        from EV_CALL callbacks nor non-FIFO arbitration — the run then
        takes the pure-Python oracle path, which stays bit-identical
        across both kernels.
        """


class CWormEngine(WormEngine):
    """:class:`WormEngine` with the compiled dispatch fast path.

    When the optional :mod:`repro.sim._cstep` extension is built and the
    run is one the native loop models -- the stock :class:`EventQueue`,
    no per-hop acquire/release hooks -- the fused dispatch loop and the
    injection grant/fast-forward path execute in C *over the very same
    Python objects* (worms, the queue's heap list, the flat
    :class:`~repro.sim.state.ChannelState` lists).  The C grant path
    also completes an isolated worm *ballistically*: when per-hop
    observation is off, the message is no shorter than its path, every
    channel ahead is idle, nobody waits behind the held rear and nothing
    is queued or arriving before the worm's final drain release, the
    whole remaining hop/drain chain is replayed in one pass with the
    same clock accumulation, sequence reservation, hook calls and event
    budget as the stepped loop.  Everything else -- and anything the
    native loop declines mid-run, such as timestamps at or past 2^52 --
    takes the inherited pure-Python path, which is the behavioural
    oracle: results are bit-identical by construction and enforced by
    the golden-seed and c/python differential suites.

    Because both sides share one store of truth, a *bounce* -- the C
    loop returning control mid-run -- needs zero state synchronisation:
    the Python kernel simply continues from the current queue/channel
    state.  ``c_runs`` / ``c_bounces`` / ``py_fallback_runs`` count how
    the work actually executed, and ``c_inactive_reason`` says why the
    fast path is off (None when armed); both feed run provenance.
    """

    def __init__(
        self,
        num_channels: int,
        events: EventQueue,
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(num_channels, events, tracer)
        reason = None
        if not cext.available():
            reason = cext.unavailable_reason() or "extension unavailable"
        elif type(events) is not EventQueue:
            reason = f"unsupported queue class {type(events).__name__}"
        elif self._on_acquire is not None or self._on_release is not None:
            reason = "per-hop acquire/release hooks attached"
        self.c_inactive_reason = reason
        self._c_ok = reason is None
        self._cstep = cext.module() if self._c_ok else None
        self.c_runs = 0
        self.c_bounces = 0
        self.py_fallback_runs = 0

    # ------------------------------------------------------------------ #
    def run_events(
        self,
        horizon: float,
        max_events: int | None = None,
        arrivals: Optional[ArrivalSource] = None,
    ) -> int:
        if not self._c_ok:
            self.py_fallback_runs += 1
            return super().run_events(horizon, max_events, arrivals)
        try:
            h = float(horizon)
        except (TypeError, OverflowError, ValueError):
            h = None
        if h is None or h != horizon:
            # a horizon that does not round-trip through float exactly
            # (a huge odd int, say) would silently move the boundary
            self.py_fallback_runs += 1
            return super().run_events(horizon, max_events, arrivals)
        self.c_runs += 1
        fired, bounced = self._cstep.run_events(self, h, max_events, arrivals)
        if bounced:
            # the native loop stopped at a clean iteration boundary in
            # front of something it does not model; the shared flat
            # state means the Python kernel just picks up the run
            self.c_bounces += 1
            budget = None if max_events is None else max_events - fired
            fired += super().run_events(horizon, budget, arrivals)
        return fired

    # ------------------------------------------------------------------ #
    def inject(self, worm: Worm, t: float, fast: bool = True) -> None:
        # injection must be native too: under light load whole worms
        # complete ballistically *inside* the injection call, so leaving
        # it in Python would leave most of the simulated work there
        if self._c_ok and type(t) is float:
            if self._cstep.inject(self, worm, t, fast):
                return
        super().inject(worm, t, fast=fast)

    # ------------------------------------------------------------------ #
    def disable_native(self, reason: str) -> None:
        """Permanently bounce this engine instance to the pure-Python
        oracle (counted per run in ``py_fallback_runs``); ``reason``
        lands in ``c_inactive_reason`` for provenance."""
        self._c_ok = False
        self._cstep = None
        if self.c_inactive_reason is None:
            self.c_inactive_reason = reason


def c_kernel_status() -> tuple[bool, Optional[str]]:
    """(available, reason_if_not) for the compiled ``"c"`` kernel."""
    return cext.available(), cext.unavailable_reason()


KERNELS["python"] = (EventQueue, WormEngine)
if cext.available():
    # registered only when the extension imported *and* configured
    # itself against the live class layouts: "c" is never a lie
    KERNELS["c"] = (EventQueue, CWormEngine)
