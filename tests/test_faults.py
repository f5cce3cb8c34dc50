"""Fault injection, QoS priorities and evaluation monitors.

Covers the contract the subsystem ships with: fault specs are pure
picklable data that hash into task keys; kills drop exactly the traffic
that needs the dead hardware (with deterministic reroute of the rest);
heal restores the fault-free paths; QoS reorders channel FIFOs by class
priority; and every kernel and executor produces bitwise-identical
numbers because the fault/QoS paths bounce the compiled kernel onto the
pure-Python oracle while monitor-only runs leave it armed.
"""

import dataclasses
import json
import math
import pickle

import pytest

from repro.core.flows import TrafficSpec
from repro.faults import (
    FaultEvent,
    FaultSpec,
    QoSClass,
    QoSSpec,
    link_heal,
    link_kill,
    node_heal,
    node_kill,
)
from repro.monitors import MONITORS, build_monitors
from repro.orchestration.executor import ParallelExecutor, run_tasks
from repro.orchestration.tasks import SimTask
from repro.routing import QuarcRouting
from repro.sim import NocSimulator, SimConfig
from repro.sim.wormengine import KERNELS
from repro.topology import QuarcTopology
from repro.traffic.scenarios import SCENARIOS, Scenario
from repro.workloads import random_multicast_sets


@pytest.fixture(scope="module")
def quarc16():
    topo = QuarcTopology(16)
    return topo, QuarcRouting(topo)


KILL_01 = FaultSpec(
    events=(
        link_kill(900.0, 0, 1),
        link_kill(900.0, 1, 0),
        link_heal(6_000.0, 0, 1),
        link_heal(6_000.0, 1, 0),
    )
)

QOS_2 = QoSSpec(
    classes=(
        QoSClass("bulk", 0.75, priority=0),
        QoSClass("express", 0.25, priority=1),
    )
)

ALL_MONITORS = tuple(sorted(MONITORS))


def _cfg(**kw):
    base = dict(
        seed=5,
        warmup_cycles=500.0,
        target_unicast_samples=600,
        target_multicast_samples=80,
        max_cycles=60_000.0,
    )
    base.update(kw)
    return SimConfig(**base)


def _spec(routing, rate=0.008):
    sets = random_multicast_sets(routing, group_size=6, seed=7)
    return TrafficSpec(rate, 0.05, 32, sets)


def _digest(res):
    """The bitwise comparison unit of a run."""
    return (
        res.unicast.count,
        res.unicast.mean,
        res.multicast.count,
        res.multicast.mean,
        res.deadlock_recoveries,
        res.fault_drops,
        res.sim_time,
        res.events,
        res.generated_messages,
        res.completed_messages,
        json.dumps(res.monitors, sort_keys=True),
    )


class TestFaultSpecData:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "kill", "link", src=0, dst=1)
        with pytest.raises(ValueError):
            FaultEvent(1.0, "explode", "link", src=0, dst=1)
        with pytest.raises(ValueError):
            FaultEvent(1.0, "kill", "link", src=0, dst=0)
        with pytest.raises(ValueError):
            FaultEvent(1.0, "kill", "node")  # node kill needs node >= 0
        with pytest.raises(ValueError):
            FaultEvent(1.0, "kill", "node", node=3, src=1)  # mixed fields

    def test_spec_needs_events(self):
        with pytest.raises(ValueError):
            FaultSpec(events=())

    def test_events_sorted_heal_before_kill_at_ties(self):
        spec = FaultSpec(
            events=(link_kill(5.0, 2, 3), link_heal(5.0, 0, 1), node_kill(1.0, 4))
        )
        assert [e.time for e in spec.events] == [1.0, 5.0, 5.0]
        assert [e.action for e in spec.events] == ["kill", "heal", "kill"]

    def test_json_and_pickle_round_trip(self):
        for spec in (KILL_01, FaultSpec(events=(node_kill(3.0, 5),), reroute=False)):
            assert FaultSpec.from_json(spec.to_json()) == spec
            assert pickle.loads(pickle.dumps(spec)) == spec
        assert QoSSpec.from_json(QOS_2.to_json()) == QOS_2
        assert pickle.loads(pickle.dumps(QOS_2)) == QOS_2

    def test_qos_validation(self):
        with pytest.raises(ValueError):
            QoSSpec(classes=())
        with pytest.raises(ValueError):  # shares must sum to 1
            QoSSpec(classes=(QoSClass("a", 0.5), QoSClass("b", 0.4)))
        with pytest.raises(ValueError):  # unique names
            QoSSpec(classes=(QoSClass("a", 0.5), QoSClass("a", 0.5)))

    def test_unknown_dict_fields_rejected(self):
        d = KILL_01.as_dict()
        d["surprise"] = 1
        with pytest.raises(ValueError):
            FaultSpec.from_dict(d)
        e = link_kill(1.0, 0, 1).as_dict()
        e["surprise"] = 1
        with pytest.raises(ValueError):
            FaultEvent.from_dict(e)


BASE_TASK = dict(
    network="quarc",
    network_args=(16,),
    workload="random",
    group_size=6,
    message_rate=0.008,
    multicast_fraction=0.05,
    message_length=32,
)


class TestKeyHashing:
    """Forgot-to-hash-it: every FaultSpec/FaultEvent/QoS field must
    perturb the task key, and the defaults must not."""

    def key(self, **kw):
        return SimTask(**BASE_TASK, **kw).task_key()

    def test_defaults_leave_key_unchanged(self):
        assert self.key() == self.key(faults=None, qos=None, monitors=())
        d = SimTask(**BASE_TASK).canonical()
        assert "faults" not in d and "qos" not in d and "monitors" not in d

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda: FaultSpec(events=(link_kill(900.0, 0, 1),)),  # fewer events
            lambda: dataclasses.replace(KILL_01, reroute=False),
            lambda: FaultSpec(
                events=(link_kill(901.0, 0, 1),) + KILL_01.events[1:]
            ),  # time
            lambda: FaultSpec(
                events=(link_kill(900.0, 1, 2),) + KILL_01.events[1:]
            ),  # src/dst
            lambda: FaultSpec(events=KILL_01.events + (node_kill(2_000.0, 5),)),
            lambda: FaultSpec(events=KILL_01.events + (node_heal(3_000.0, 5),)),
        ],
        ids=["events", "reroute", "time", "link", "node-kill", "node-heal"],
    )
    def test_every_fault_field_perturbs_key(self, mutate):
        assert self.key(faults=mutate()) != self.key(faults=KILL_01)
        assert self.key(faults=KILL_01) != self.key()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda: QoSSpec(classes=(QoSClass("bulk", 1.0),)),
            lambda: QoSSpec(
                classes=(QoSClass("bulk", 0.7), QoSClass("express", 0.3, 1))
            ),  # share
            lambda: QoSSpec(
                classes=(QoSClass("bulk", 0.75), QoSClass("express", 0.25, 2))
            ),  # priority
            lambda: QoSSpec(
                classes=(QoSClass("slow", 0.75), QoSClass("express", 0.25, 1))
            ),  # name
        ],
        ids=["classes", "share", "priority", "name"],
    )
    def test_every_qos_field_perturbs_key(self, mutate):
        assert self.key(qos=mutate()) != self.key(qos=QOS_2)
        assert self.key(qos=QOS_2) != self.key()

    def test_monitors_perturb_key(self):
        assert self.key(monitors=("pdr",)) != self.key()
        assert self.key(monitors=("pdr",)) != self.key(monitors=("deadlock",))

    def test_task_json_round_trip_with_faults(self):
        task = SimTask(**BASE_TASK, faults=KILL_01, qos=QOS_2, monitors=("pdr",))
        rebuilt = SimTask(
            **BASE_TASK,
            faults=KILL_01.as_dict(),
            qos=QOS_2.as_dict(),
            monitors=["pdr"],
        )
        assert rebuilt == task and rebuilt.task_key() == task.task_key()


class TestReroute:
    def test_reroute_avoids_dead_link_deterministically(self, quarc16):
        topo, routing = quarc16
        dead = frozenset({(0, 1), (1, 0)})
        routes = [routing.reroute_unicast(0, 1, dead) for _ in range(3)]
        assert routes[0] == routes[1] == routes[2]
        assert all((l.src, l.dst) not in dead for l in routes[0].links)
        assert routes[0].links[-1].dst == 1

    def test_no_dead_links_matches_reachability(self, quarc16):
        topo, routing = quarc16
        route = routing.reroute_unicast(2, 9, frozenset())
        assert route is not None and route.links[-1].dst == 9

    def test_unreachable_returns_none(self, quarc16):
        topo, routing = quarc16
        # kill every link out of node 0
        dead = frozenset(
            (l.src, l.dst)
            for l in topo.links()
            if l.src == 0 or l.dst == 0
        )
        assert routing.reroute_unicast(0, 5, dead) is None


class TestMonitorFramework:
    def test_registry_and_unknown_name(self):
        mons = build_monitors(ALL_MONITORS)
        assert [m.name for m in mons] == list(ALL_MONITORS)
        with pytest.raises(ValueError):
            build_monitors(("nope",))
        with pytest.raises(ValueError):
            build_monitors(("pdr", "pdr"))

    def test_scenario_rejects_unknown_monitor(self):
        with pytest.raises(ValueError):
            Scenario(name="x", monitors=("nope",))

    def test_monitors_only_run_is_bitwise_unobserved(self, quarc16):
        """Attaching monitors without faults/QoS must not change the
        simulation -- same counts, same means, same event totals -- and
        must leave the compiled kernel armed."""
        topo, routing = quarc16
        spec = _spec(routing)
        plain = NocSimulator(topo, routing).run(spec, _cfg())
        watched = NocSimulator(topo, routing).run(
            spec, _cfg(), monitors=ALL_MONITORS
        )
        assert _digest(plain)[:-1] == _digest(watched)[:-1]
        assert plain.monitors is None
        assert set(watched.monitors) == set(ALL_MONITORS)
        assert watched.monitors["pdr"]["pdr"] == 1.0
        assert watched.monitors["deadlock"]["recoveries"] == 0

    def test_monitor_payloads_are_json_safe(self, quarc16):
        topo, routing = quarc16
        res = NocSimulator(topo, routing).run(
            _spec(routing), _cfg(), faults=KILL_01, monitors=ALL_MONITORS
        )
        json.dumps(res.monitors)  # raises on NaN/inf with allow_nan=False
        json.dumps(res.monitors, allow_nan=False)


class TestFaultInjection:
    def test_link_kill_drops_and_reroutes(self, quarc16):
        topo, routing = quarc16
        res = NocSimulator(topo, routing).run(
            _spec(routing), _cfg(), faults=KILL_01, monitors=ALL_MONITORS
        )
        pdr = res.monitors["pdr"]
        assert res.fault_drops > 0
        assert pdr["dropped"] == res.fault_drops
        assert pdr["generated"] == res.generated_messages
        assert 0.0 < pdr["pdr"] < 1.0
        # rerouted unicasts stretch past the baseline shortest path
        hs = res.monitors["hop-stretch"]
        assert hs["rerouted"] > 0
        assert hs["mean"] >= 1.0

    def test_heal_restores_fault_free_behaviour(self, quarc16):
        """After the heal, spawns use baseline routes again: a fault
        window that opens and closes before the first arrival drops
        nothing, reroutes nothing, and is statistically
        indistinguishable from the fault-free run.  (Not *bitwise*
        equal: the two fault events advance the engine's event counter,
        which quantises where the run's stop condition is checked --
        the frozen-golden pin covers truly fault-free runs only.)"""
        topo, routing = quarc16
        spec = _spec(routing)
        early = FaultSpec(
            events=(link_kill(0.01, 0, 1), link_heal(0.02, 0, 1))
        )
        faulted = NocSimulator(topo, routing).run(
            spec, _cfg(), faults=early, monitors=("pdr", "hop-stretch")
        )
        clean = NocSimulator(topo, routing).run(spec, _cfg())
        assert faulted.fault_drops == 0
        assert faulted.monitors["pdr"]["pdr"] == 1.0
        # every spawn happened outside the dead window: baseline routes
        assert faulted.monitors["hop-stretch"]["rerouted"] == 0
        assert faulted.monitors["hop-stretch"]["mean"] == 1.0
        assert faulted.generated_messages == clean.generated_messages
        assert faulted.unicast.mean == pytest.approx(clean.unicast.mean, rel=1e-3)
        assert abs(faulted.unicast.count - clean.unicast.count) <= 2

    def test_node_kill_drops_local_traffic(self, quarc16):
        topo, routing = quarc16
        res = NocSimulator(topo, routing).run(
            _spec(routing),
            _cfg(),
            faults=FaultSpec(events=(node_kill(900.0, 5),)),
            monitors=("pdr",),
        )
        assert res.fault_drops > 0
        assert res.monitors["pdr"]["pdr"] < 1.0

    def test_no_reroute_drops_instead(self, quarc16):
        topo, routing = quarc16
        spec = _spec(routing)
        rerouted = NocSimulator(topo, routing).run(
            spec, _cfg(), faults=KILL_01, monitors=("pdr",)
        )
        dropped = NocSimulator(topo, routing).run(
            spec,
            _cfg(),
            faults=dataclasses.replace(KILL_01, reroute=False),
            monitors=("pdr",),
        )
        assert dropped.fault_drops > rerouted.fault_drops

    def test_unknown_link_rejected(self, quarc16):
        topo, routing = quarc16
        # node 0's real links are the rim (1, 15) and the cross (8);
        # (0, 5) names hardware that does not exist
        with pytest.raises(ValueError, match="no such link"):
            NocSimulator(topo, routing).run(
                _spec(routing),
                _cfg(),
                faults=FaultSpec(events=(link_kill(1.0, 0, 5),)),
            )

    def test_out_of_range_node_rejected(self, quarc16):
        topo, routing = quarc16
        with pytest.raises(ValueError, match="node"):
            NocSimulator(topo, routing).run(
                _spec(routing),
                _cfg(),
                faults=FaultSpec(events=(node_kill(1.0, 99),)),
            )


class TestQoS:
    def test_qos_classes_partition_traffic(self, quarc16):
        topo, routing = quarc16
        res = NocSimulator(topo, routing).run(
            _spec(routing), _cfg(), qos=QOS_2, monitors=("class-latency",)
        )
        cl = res.monitors["class-latency"]
        assert set(cl) == {"bulk", "express"}
        total = cl["bulk"]["count"] + cl["express"]["count"]
        assert total == res.unicast.count + res.multicast.count
        # the 75/25 split should be visible at these volumes
        assert cl["bulk"]["count"] > cl["express"]["count"]

    def test_qos_run_is_deterministic(self, quarc16):
        topo, routing = quarc16
        spec = _spec(routing)
        a = NocSimulator(topo, routing).run(
            spec, _cfg(), qos=QOS_2, monitors=("class-latency",)
        )
        b = NocSimulator(topo, routing).run(
            spec, _cfg(), qos=QOS_2, monitors=("class-latency",)
        )
        assert _digest(a) == _digest(b)


class TestCrossKernelBitwise:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_faulted_qos_run_identical_on_every_kernel(self, quarc16, kernel):
        """Faults and QoS bounce the compiled kernel onto the pure
        oracle (documented), so all registered kernels must produce the
        same bits."""
        topo, routing = quarc16
        spec = _spec(routing)
        ref = NocSimulator(topo, routing, kernel="python").run(
            spec, _cfg(), faults=KILL_01, qos=QOS_2, monitors=ALL_MONITORS
        )
        got = NocSimulator(topo, routing, kernel=kernel).run(
            spec, _cfg(), faults=KILL_01, qos=QOS_2, monitors=ALL_MONITORS
        )
        assert _digest(got) == _digest(ref)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_near_saturation_recoveries_bitwise(self, quarc16, kernel):
        """Satellite A/B: the overload point that deadlocks the
        single-lane simulator must recover > 0 times and do so
        *identically* on every kernel (the C kernel takes its documented
        bounce when monitors' fault context is present -- here it stays
        armed, deadlock recovery is native)."""
        topo, routing = quarc16
        sets = random_multicast_sets(routing, group_size=6, seed=7)
        spec = TrafficSpec(0.012, 0.05, 32, sets)
        cfg = SimConfig(
            seed=3, warmup_cycles=2_000, target_unicast_samples=4_000,
            target_multicast_samples=400,
        )
        ref = NocSimulator(topo, routing, kernel="python").run(
            spec, cfg, monitors=("deadlock",)
        )
        got = NocSimulator(topo, routing, kernel=kernel).run(
            spec, cfg, monitors=("deadlock",)
        )
        assert ref.deadlock_recoveries > 0
        assert got.monitors["deadlock"]["recoveries"] == ref.deadlock_recoveries
        assert _digest(got) == _digest(ref)

    def test_dateline_lanes_recover_free_at_same_point(self, quarc16):
        """The same overload with lanes=2 dateline avoidance: zero
        recoveries, and the deadlock monitor reports a clean rate."""
        topo, routing = quarc16
        sets = random_multicast_sets(routing, group_size=6, seed=7)
        spec = TrafficSpec(0.012, 0.05, 32, sets)
        cfg = SimConfig(
            seed=3, warmup_cycles=2_000, target_unicast_samples=4_000,
            target_multicast_samples=400,
        )
        res = NocSimulator(topo, routing, lanes=2).run(
            spec, cfg, monitors=("deadlock",)
        )
        assert res.deadlock_recoveries == 0
        assert res.monitors["deadlock"]["recoveries"] == 0
        assert res.monitors["deadlock"]["recovery_rate"] == 0.0


class TestOrchestration:
    def _task(self, seed=5):
        return SimTask(
            **BASE_TASK,
            sim=_cfg(seed=seed),
            faults=KILL_01,
            qos=QOS_2,
            monitors=ALL_MONITORS,
        )

    def test_serial_parallel_bitwise(self):
        tasks = [self._task(seed=s) for s in (5, 6)]
        serial = run_tasks(tasks)
        parallel = run_tasks(tasks, executor=ParallelExecutor(jobs=2))
        for a, b in zip(serial, parallel):
            assert a.payload_equal(b)
            assert a.monitors == b.monitors
            assert a.fault_drops == b.fault_drops

    def test_cache_round_trip(self, tmp_path):
        from repro.experiments.io import ResultCache

        cache = ResultCache(tmp_path)
        task = self._task()
        first = run_tasks([task], cache=cache)[0]
        second = run_tasks([task], cache=cache)[0]
        assert not first.cached and second.cached
        assert second.payload_equal(first)
        assert second.monitors == first.monitors
        assert second.fault_drops == first.fault_drops

    def test_registry_scenario_runs_with_faults(self):
        from repro.traffic.scenarios import run_scenario

        s = dataclasses.replace(
            SCENARIOS["link-kill"], load_fractions=(0.4,), rates=()
        )
        res = run_scenario(s, samples=120)
        point = res.points[0]
        assert point.sim_monitors is not None
        assert set(point.sim_monitors) == set(ALL_MONITORS)
        assert point.sim_fault_drops >= 0
        assert math.isfinite(point.sim_unicast)

    def test_divergence_panel_flags_recovered_points(self):
        """A point with recoveries > 0 gets the dagger flag in the
        divergence summary (past the model's validity range)."""
        from repro.experiments.compare import (
            divergence_panels,
            render_divergence_summary,
        )
        from repro.experiments.runner import SweepPoint
        from repro.traffic.scenarios import ScenarioResult

        point = SweepPoint(
            rate=0.01,
            model_paper_unicast=50.0,
            model_paper_multicast=60.0,
            model_occupancy_unicast=48.0,
            model_occupancy_multicast=58.0,
            sim_unicast=47.0,
            sim_multicast=57.0,
            sim_deadlock_recoveries=3,
        )
        result = ScenarioResult(
            scenario=SCENARIOS["deadlock-onset"],
            saturation_rate=0.01,
            points=[point],
        )
        panel = divergence_panels([result])[0]
        assert panel.recovered_points == 1
        text = render_divergence_summary([result])
        assert "†1" in text
        assert "validity range" in text
