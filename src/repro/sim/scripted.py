"""Run scripted worm scenarios through the event-driven engine.

Produces the same :class:`repro.sim.reference.FlitLevelResult` records as
the brute-force per-flit oracle, enabling cycle-exact equivalence checks.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.engine import EV_INJECT
from repro.sim.reference import FlitLevelResult, ScriptedWorm
from repro.sim.worm import Worm, WormClass
from repro.sim.wormengine import KERNELS

__all__ = ["run_scripted"]


class _RecordingTracer:
    def __init__(self) -> None:
        self.results: dict[int, FlitLevelResult] = {}

    def _res(self, worm: Worm) -> FlitLevelResult:
        return self.results.setdefault(worm.uid, FlitLevelResult())

    def on_acquire(self, worm: Worm, position: int, t: float) -> None:
        self._res(worm).acquisition_times.append(int(t))

    def on_release(self, worm: Worm, position: int, t: float) -> None:
        self._res(worm).release_times[position] = int(t)

    def on_clone_absorbed(self, worm: Worm, position: int, t: float) -> None:
        self._res(worm).clone_absorptions[position] = int(t)

    def on_complete(self, worm: Worm, t_done: float, recovered: bool) -> None:
        if recovered:
            raise RuntimeError(
                f"scripted scenario deadlocked; worm {worm.uid} teleported"
            )
        self._res(worm).completion_time = int(t_done)


def run_scripted(
    num_channels: int,
    scripted: Sequence[ScriptedWorm],
    *,
    max_cycles: float = 100_000.0,
    kernel: str = "python",
) -> dict[int, FlitLevelResult]:
    """Replay ``scripted`` worms through the worm engine.

    ``kernel`` selects the event scheduler (a
    :data:`repro.sim.wormengine.KERNELS` key); the scripted scenarios are a
    convenient differential workload because every channel conflict in
    them is deliberate.
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; known: {sorted(KERNELS)}")
    queue_cls, engine_cls = KERNELS[kernel]
    events = queue_cls()
    tracer = _RecordingTracer()
    engine = engine_cls(num_channels, events, tracer)
    for sw in sorted(scripted, key=lambda s: (s.creation_time, s.uid)):
        worm = Worm(
            uid=sw.uid,
            klass=WormClass.UNICAST,
            source=-1,
            creation_time=float(sw.creation_time),
            path=sw.path,
            message_length=sw.message_length,
            clone_positions=sw.clone_positions,
        )
        events.push(float(sw.creation_time), EV_INJECT, worm)
    events.run_until(max_cycles)
    if engine.active_worms != 0:
        raise RuntimeError("scripted scenario did not complete (deadlock?)")
    return tracer.results
