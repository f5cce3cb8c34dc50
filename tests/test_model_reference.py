"""Frozen analytical-model outputs: saturation rates, latencies,
utilisation, bottleneck names and the saturated/converged flags.

The fixture ``fixtures/model_reference.json`` holds what the model
computed before its fixed-point solver was replaced; a solver change
must reproduce it to within the stated tolerances.  Rates are frozen as
absolute numbers, so every evaluation runs at exactly the recorded load.

Regenerate (only for a change meant to move model results, and say so)::

    PYTHONPATH=src python tests/test_model_reference.py
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from repro.core import AnalyticalModel, TrafficSpec
from repro.routing import MeshRouting, QuarcRouting, SpidergonRouting, TorusRouting
from repro.topology import MeshTopology, QuarcTopology, SpidergonTopology, TorusTopology
from repro.workloads import hotspot_weights, random_multicast_sets

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "model_reference.json"

LATENCY_RTOL = 1e-7
SATURATION_ATOL = 2e-6
ALPHA = 0.05
MESSAGE_LENGTH = 32
RECURSIONS = ("paper", "occupancy")
QUARC_SIZES = (16, 32, 64)
SETS_SEEDS = (1, 24)
FRACTIONS = (0.25, 0.5, 0.75)


def _quarc(n: int):
    topo = QuarcTopology(n)
    return topo, QuarcRouting(topo)


def configs() -> dict[str, dict]:
    """name -> {topology, routing, one_port, sets, weights, fractions}."""
    out: dict[str, dict] = {}
    for n in QUARC_SIZES:
        for seed in SETS_SEEDS:
            topo, routing = _quarc(n)
            out[f"quarc{n}-seed{seed}"] = dict(
                topology=topo,
                routing=routing,
                one_port=False,
                sets=random_multicast_sets(routing, max(3, n // 8), seed),
                weights=None,
                fractions=FRACTIONS,
            )
    extras = {
        "quarc16-one-port": (*_quarc(16), True, None),
        "quarc16-hotspot": (*_quarc(16), False, hotspot_weights(16, [5], 8.0)),
    }
    spidergon = SpidergonTopology(16)
    extras["spidergon16"] = (spidergon, SpidergonRouting(spidergon), False, None)
    torus = TorusTopology(4, 4)
    extras["torus4x4"] = (torus, TorusRouting(torus), False, None)
    mesh = MeshTopology(4, 4)
    extras["mesh4x4"] = (mesh, MeshRouting(mesh), False, None)
    for name, (topo, routing, one_port, weights) in extras.items():
        out[name] = dict(
            topology=topo,
            routing=routing,
            one_port=one_port,
            sets=random_multicast_sets(routing, 4, 1, mode="per_node"),
            weights=weights,
            fractions=(0.5,),
        )
    return out


def _spec(cfg: dict, rate: float) -> TrafficSpec:
    return TrafficSpec(rate, ALPHA, MESSAGE_LENGTH, cfg["sets"], cfg["weights"])


def _model(cfg: dict, recursion: str) -> AnalyticalModel:
    return AnalyticalModel(
        cfg["topology"], cfg["routing"], one_port=cfg["one_port"], recursion=recursion
    )


def _point(model: AnalyticalModel, spec: TrafficSpec) -> dict:
    res = model.evaluate(spec)
    return {
        "unicast": res.unicast_latency,
        "multicast": res.multicast_latency,
        "max_utilization": res.max_utilization,
        "bottleneck": res.bottleneck_channel,
        "saturated": res.saturated,
        "converged": res.converged,
    }


def build_reference() -> dict:
    """Compute the fixture with the model as it stands."""
    ref = {}
    for name, cfg in configs().items():
        sat = _model(cfg, "occupancy").saturation_rate(_spec(cfg, 1e-6))
        points = []
        for fraction in cfg["fractions"]:
            rate = fraction * sat
            for recursion in RECURSIONS:
                got = _point(_model(cfg, recursion), _spec(cfg, rate))
                points.append({"rate": rate, "recursion": recursion, **got})
        ref[name] = {"saturation_rate": sat, "points": points}
    return ref


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def models() -> dict:
    cfgs = configs()
    return {
        name: (cfg, {r: _model(cfg, r) for r in RECURSIONS}) for name, cfg in cfgs.items()
    }


def _close(got: float, want: float) -> bool:
    if math.isnan(want) or math.isinf(want):
        return (math.isnan(got) and math.isnan(want)) or got == want
    return math.isclose(got, want, rel_tol=LATENCY_RTOL, abs_tol=0.0)


def test_fixture_covers_every_config(reference):
    assert sorted(reference) == sorted(configs())


@pytest.mark.parametrize("name", sorted(configs()))
def test_saturation_rate(models, reference, name):
    cfg, by_recursion = models[name]
    got = by_recursion["occupancy"].saturation_rate(_spec(cfg, 1e-6))
    assert abs(got - reference[name]["saturation_rate"]) <= SATURATION_ATOL


@pytest.mark.parametrize("name", sorted(configs()))
def test_frozen_points(models, reference, name):
    cfg, by_recursion = models[name]
    for want in reference[name]["points"]:
        got = _point(by_recursion[want["recursion"]], _spec(cfg, want["rate"]))
        tag = f"{name} {want['recursion']} @ {want['rate']!r}"
        for flag in ("saturated", "converged", "bottleneck"):
            assert got[flag] == want[flag], f"{tag}: {flag}"
        for key in ("unicast", "multicast", "max_utilization"):
            assert _close(got[key], want[key]), f"{tag}: {key} {got[key]!r} != {want[key]!r}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(build_reference(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
