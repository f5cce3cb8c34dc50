"""Contract tests for the event queue (:class:`repro.sim.engine.EventQueue`).

* a ``hypothesis`` property test: random push scripts -- on-grid,
  off-grid, integer and far-future timestamps, same-timestamp ties,
  nested ``run_until`` from inside a callback, ``max_events``
  truncation -- must fire every event exactly once, in strictly
  increasing ``(time, seq)`` order, with ``now`` equal to the firing
  event's timestamp and never moving backwards.  The same script runs
  on an unbound queue and on queues bound to every registered engine
  (the Python loop and, when built, the compiled one, whose heap sifts
  are native), and all traces must be identical;
* the ``ENGINE_VERSION`` pin.

The seeded differential against a reference queue and the kernel-edge
regressions (the exact past-event guard, the typed-record ``pop`` guard
and the ``active_worms`` injection leak) are in
``tests/test_calendar_queue.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import KERNELS
from repro.sim.engine import ENGINE_VERSION, EventQueue

from kernel_scenarios import bound_queue

# --------------------------------------------------------------------- #
# property: sorted (time, seq) firing with a monotone clock

_push = st.tuples(
    st.just("push"),
    st.sampled_from(["grid", "frac", "int", "tie", "far", "nest"]),
    st.integers(0, 5),
    st.floats(0.0, 1.0, exclude_max=True),
)
_run = st.tuples(
    st.just("run"),
    st.integers(0, 30),
    st.sampled_from([None, 1, 2, 7]),
)
_scripts = st.lists(st.one_of(_push, _run), max_size=60)


def _drive(make_queue, script):
    """Apply ``script`` to a fresh queue; check the firing contract on
    the way and return the observable trace for cross-queue comparison."""
    q = make_queue()
    trace = []
    pushed = set()

    def schedule(t, then=None):
        key = (t, q._seq)
        pushed.add(key)

        def fire():
            assert q.now == t
            trace.append(("fire", key))
            if then is not None:
                then()

        q.schedule(t, fire)

    def run(horizon, max_events):
        before = q.now
        fired = q.run_until(horizon, max_events=max_events)
        assert q.now >= before
        if max_events is not None:
            assert fired <= max_events
        if max_events is None or fired < max_events:
            nxt = q.peek_time()
            assert nxt is None or nxt > horizon
        trace.append(("run", fired, q.now, q.peek_time(), len(q)))

    for op in script:
        if op[0] == "run":
            run(q.now + op[1], op[2])
            continue
        _, kind, k, frac = op
        if kind == "grid":  # the engine's own pattern: now + small int
            schedule(q.now + k)
        elif kind == "frac":
            schedule(q.now + k + frac)
        elif kind == "int":  # int timestamps through the public API
            schedule(int(q.now) + k + 1)
        elif kind == "tie":  # two records at the exact same float
            t = q.now + k
            schedule(t)
            schedule(t + 0.0)
        elif kind == "far":
            schedule(q.now + 200 * (k + 1) + frac)
        else:  # the callback re-enters run_until
            horizon = q.now + k + 2

            def nested(horizon=horizon):
                trace.append(("nested", q.run_until(horizon)))

            schedule(q.now + k, nested)
    trace.append(("drain", q.run_until(1e9), len(q)))

    fired = [entry[1] for entry in trace if entry[0] == "fire"]
    assert fired == sorted(fired)
    assert len(set(fired)) == len(fired)
    assert set(fired) == pushed
    return trace


@settings(max_examples=150, deadline=None)
@given(_scripts)
def test_fires_in_time_seq_order_on_every_queue(script):
    reference = _drive(EventQueue, script)
    for kernel in sorted(KERNELS):
        assert _drive(bound_queue(kernel), script) == reference, kernel


def test_engine_version_is_five():
    assert ENGINE_VERSION == 5
