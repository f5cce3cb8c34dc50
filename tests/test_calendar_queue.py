"""Seeded differential and kernel-edge regressions for the event queue.

The calendar queue this file was written for is gone; its test ids are
kept stable.  What it checks now:

* a seeded queue-level differential: the same pushed event stream --
  on-grid and fractional timestamps, same-timestamp ties, nested
  ``run_until``, ``max_events`` truncation and far-future records --
  must fire in the same order with the same ``now`` trajectory on the
  :class:`~repro.sim.engine.EventQueue` (unbound, and bound to every
  registered engine) as on a plain-list reference queue;
* the kernel-edge regressions: the exact past-event guard, the
  typed-record ``pop`` guard and the ``active_worms`` injection leak.

The parameter ids name the classes of the two-kernel era.  The heapq
queue and engine survive under the plain names, so the ids now select
an unbound ``EventQueue`` (``EventQueue``) and one driven by the Python
engine's heap loop (``HeapEventQueue``); for the engine test, the
Python kernel (``WormEngine-EventQueue``) and the kernel a default
``kernel="auto"`` run uses, which is the compiled one when it is built
(``HeapWormEngine-HeapEventQueue``).

The hypothesis property test of the same queue contract is in
``tests/test_event_queue.py``.
"""

import math
import random

import pytest

from repro.sim import KERNELS
from repro.sim.engine import EV_INJECT, EventQueue
from repro.sim.worm import Worm, WormClass

from kernel_scenarios import bound_queue


QUEUES = [
    pytest.param(EventQueue, id="EventQueue"),
    pytest.param(bound_queue("python"), id="HeapEventQueue"),
]

_AUTO_KERNEL = "c" if "c" in KERNELS else "python"

ENGINES = [
    pytest.param("python", id="WormEngine-EventQueue"),
    pytest.param(_AUTO_KERNEL, id="HeapWormEngine-HeapEventQueue"),
]


# --------------------------------------------------------------------- #
# seeded queue-level differential


class _ListQueue:
    """Reference scheduler: an unsorted list scanned for the smallest
    ``(time, seq)`` on every pop -- slow, and obviously right."""

    def __init__(self):
        self._events = []
        self._seq = 0
        self.now = 0.0

    def __len__(self):
        return len(self._events)

    def schedule(self, time, action):
        assert time >= self.now
        self._events.append((time, self._seq, action))
        self._seq += 1

    def peek_time(self):
        return min(self._events)[0] if self._events else None

    def run_until(self, horizon, *, max_events=None):
        fired = 0
        while self._events and self.peek_time() <= horizon:
            if max_events is not None and fired >= max_events:
                break
            rec = min(self._events)
            self._events.remove(rec)
            self.now = rec[0]
            rec[2]()
            fired += 1
        return fired


def _drive(make_queue, seed: int) -> list:
    """Apply one deterministic pseudo-random op script to a queue and
    return the observable trace: every fired label with the queue's
    clock at firing, plus the per-chunk fired counts and clock probes."""
    rng = random.Random(seed)
    q = make_queue()
    trace: list = []
    label = 0

    def fire(tag):
        trace.append(("fire", tag, q.now))

    def push_some(base_rng, depth=0):
        nonlocal label
        for _ in range(base_rng.randrange(1, 5)):
            roll = base_rng.random()
            if roll < 0.45:
                # on-grid: the engine's own pattern, now + small int
                t = q.now + base_rng.randrange(1, 6)
            elif roll < 0.70:
                # off-grid fractional offset
                t = q.now + base_rng.randrange(0, 4) + base_rng.random()
            elif roll < 0.85:
                # same-timestamp tie burst
                t = q.now + base_rng.randrange(1, 3)
                tag = label
                label += 1
                q.schedule(t, lambda tag=tag: fire(tag))
                t = t + 0.0  # exact same float again
            else:
                # far future
                t = q.now + base_rng.randrange(200, 2000) + base_rng.random()
            tag = label
            label += 1
            if depth < 2 and base_rng.random() < 0.06:
                # nested consumption: the callback re-enters run_until
                horizon = t + base_rng.randrange(1, 4)

                def nested(tag=tag, horizon=horizon):
                    fire(tag)
                    trace.append(("nested", q.run_until(horizon)))

                q.schedule(t, nested)
            else:
                q.schedule(t, lambda tag=tag: fire(tag))

    for _ in range(40):
        push_some(rng)
        if rng.random() < 0.7:
            horizon = q.now + rng.randrange(1, 30)
            max_events = rng.choice([None, 1, 2, 7])
            fired = q.run_until(horizon, max_events=max_events)
            trace.append(("chunk", fired, q.now, q.peek_time(), len(q)))
    trace.append(("drain", q.run_until(1e9), q.now, len(q)))
    return trace


@pytest.mark.parametrize("seed", range(12))
def test_randomized_queue_differential(seed):
    reference = _drive(_ListQueue, seed)
    assert _drive(EventQueue, seed) == reference
    for kernel in sorted(KERNELS):
        assert _drive(bound_queue(kernel), seed) == reference, kernel


# --------------------------------------------------------------------- #
# kernel-edge regressions


@pytest.mark.parametrize("make_queue", QUEUES)
class TestPastEventGuard:
    def test_exact_guard_at_large_sim_time(self, make_queue):
        """At t ~ 1e12 one float ulp (~1.2e-4) dwarfs the old 1e-9
        epsilon; the guard must stay exact at every magnitude."""
        q = make_queue()
        q.schedule(1e12, lambda: None)
        q.run_until(2e12)
        assert q.now == 1e12
        q.schedule(q.now, lambda: None)  # exactly-now is legal
        before = math.nextafter(1e12, 0.0)
        with pytest.raises(ValueError, match="behind the clock"):
            q.schedule(before, lambda: None)

    def test_exact_guard_at_small_sim_time(self, make_queue):
        """The old guard accepted times up to 1e-9 *behind* the clock at
        small magnitudes, letting the clock run backwards."""
        q = make_queue()
        q.schedule(1.0, lambda: None)
        q.run_until(10.0)
        assert q.now == 1.0
        with pytest.raises(ValueError, match="behind the clock"):
            q.schedule(1.0 - 1e-10, lambda: None)

    def test_rejects_unorderable_times(self, make_queue):
        q = make_queue()
        with pytest.raises(ValueError):
            q.schedule(math.nan, lambda: None)
        with pytest.raises(ValueError):
            q.schedule(math.inf, lambda: None)


@pytest.mark.parametrize("make_queue", QUEUES)
def test_pop_refuses_typed_records(make_queue):
    """pop() hands out (time, payload) for EV_CALL records only; typed
    engine records must fail loudly instead of masquerading as
    callables."""
    q = make_queue()
    q.push(1.0, EV_INJECT, object())
    with pytest.raises(RuntimeError, match="typed event"):
        q.pop()
    q2 = make_queue()
    q2.schedule(1.0, lambda: "ok")
    t, payload = q2.pop()
    assert t == 1.0 and payload() == "ok"


@pytest.mark.parametrize("kernel", ENGINES)
def test_inject_done_worm_does_not_leak_active_count(kernel):
    """Injecting an already-done worm used to bump ``active_worms``
    before the request path silently dropped the worm, leaking one
    in-flight slot per occurrence toward the saturation cutoff."""
    queue_cls, engine_cls = KERNELS[kernel]
    events = queue_cls()
    engine = engine_cls(4, events)
    worm = Worm(1, WormClass.UNICAST, 0, 0.0, (0, 1, 2), 4)
    worm.done = True
    engine.inject(worm, 0.0)
    assert engine.active_worms == 0
    assert len(events) == 0  # nothing scheduled for the dead worm

    # a live worm still counts and completes normally
    live = Worm(2, WormClass.UNICAST, 0, 0.0, (0, 1, 2), 4)
    engine.inject(live, 0.0)
    assert engine.active_worms == 1
    events.run_until(100.0)
    assert engine.active_worms == 0 and live.done
