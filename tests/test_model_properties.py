"""Properties of the Eq. 6 solve that tie the model to its maths: a solve
is converged (with a small residual) or saturated, never neither; the
saturation search brackets the threshold; latency grows with load.

The regression cases are loads at which the earlier damped iteration ran
out of steps undecided (unconverged but unsaturated) and the saturation
search counted them as stable; iterated without a cap, each diverges.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalyticalModel, TrafficSpec
from repro.routing import QuarcRouting
from repro.topology import QuarcTopology
from repro.workloads import random_multicast_sets

RECURSIONS = ("paper", "occupancy")


def _quarc_spec(n: int, sets_seed: int, rate: float, one_port: bool = False):
    topo = QuarcTopology(n)
    routing = QuarcRouting(topo)
    if one_port:
        sets = random_multicast_sets(routing, 4, sets_seed, mode="per_node")
    else:
        sets = random_multicast_sets(routing, max(3, n // 8), sets_seed)
    model = AnalyticalModel(topo, routing, one_port=one_port, recursion="occupancy")
    return model, TrafficSpec(rate, 0.05, 32, sets)


@pytest.mark.parametrize(
    "n, sets_seed, rate, one_port",
    [
        (16, 1, 0.009000778198242188, False),  # fig6 N=16 M=32 group 3; diverges at step 6742
        (16, 0, 0.009767532348632812, False),  # diverges at step 6174
        (32, 24, 0.0034580230712890625, False),  # diverges at step 12284
        (16, 1, 0.008975028991699219, True),  # one-port, per-node sets; step 7161
    ],
)
def test_iteration_cap_loads_are_saturated(n, sets_seed, rate, one_port):
    model, spec = _quarc_spec(n, sets_seed, rate, one_port)
    res = model.evaluate(spec)
    assert res.saturated and not res.converged
    assert math.isinf(res.unicast_latency) and math.isinf(res.multicast_latency)


@pytest.fixture(scope="module")
def quarc16():
    """fig6 N=16, M=32, alpha=5 %, group 3, sets seed 1, both recursions."""
    topo = QuarcTopology(16)
    routing = QuarcRouting(topo)
    sets = random_multicast_sets(routing, 3, 1)
    spec = TrafficSpec(1e-6, 0.05, 32, sets)
    models = {r: AnalyticalModel(topo, routing, recursion=r) for r in RECURSIONS}
    sats = {r: m.saturation_rate(spec) for r, m in models.items()}
    return models, spec, sats


@pytest.mark.parametrize("recursion", RECURSIONS)
def test_saturation_rate_brackets_threshold(quarc16, recursion):
    models, spec, sats = quarc16
    model, sat = models[recursion], sats[recursion]
    below = model.evaluate(spec.with_rate(sat))
    assert not below.saturated and below.converged and below.finite
    assert model.evaluate(spec.with_rate(sat + 1e-6)).saturated


@settings(max_examples=60, deadline=None)
@given(
    recursion=st.sampled_from(RECURSIONS),
    fraction=st.floats(min_value=0.0, max_value=2.0),
)
def test_converged_or_saturated_never_neither(quarc16, recursion, fraction):
    models, spec, sats = quarc16
    res = models[recursion].solve(spec.with_rate(fraction * sats[recursion]))
    assert res.converged == (not res.saturated)
    if res.converged:
        # residual of the returned x, against the solver's own stopping rule
        assert res.residual <= 1e-9 * max(1.0, spec.message_length)
    else:
        assert math.isinf(res.residual)


@settings(max_examples=40, deadline=None)
@given(
    recursion=st.sampled_from(RECURSIONS),
    lo=st.floats(min_value=0.0, max_value=1.0),
    hi=st.floats(min_value=0.0, max_value=1.0),
)
def test_latency_non_decreasing_below_saturation(quarc16, recursion, lo, hi):
    models, spec, sats = quarc16
    lo, hi = sorted((lo, hi))
    a = models[recursion].evaluate(spec.with_rate(lo * sats[recursion]))
    b = models[recursion].evaluate(spec.with_rate(hi * sats[recursion]))
    for key in ("unicast_latency", "multicast_latency"):
        la, lb = getattr(a, key), getattr(b, key)
        assert la <= lb * (1.0 + 1e-12), (key, lo, hi, la, lb)
