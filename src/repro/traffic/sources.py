"""Pluggable traffic sources: the injection process as a first-class spec.

Everything the repo measured before this module existed -- and everything
in the paper -- assumed Poisson injection, which is exactly where the
analytical M/G/1 model is at home.  This module makes the injection
process declarative and pluggable so the model can be stressed *off* its
assumptions on purpose:

* :class:`SourceSpec` -- a frozen, JSON-serialisable description of one
  injection process.  It participates in :meth:`SimTask.task_key()
  <repro.orchestration.tasks.SimTask>` hashing, so the result cache and
  journal stay content-addressed per source.
* ``SOURCE_KINDS`` -- the registry of :class:`TrafficSource`
  implementations keyed by ``SourceSpec.kind``:

  ``poisson``
      The legacy process, routed through the same
      :func:`repro.sim.arrivals.make_arrival_stream` call the simulator
      always made -- bitwise-identical to the frozen goldens by
      construction (and proven so by ``tests/test_traffic_refactor.py``).
  ``cbr``
      Deterministic constant-bit-rate: each source emits exactly every
      ``1/rate`` cycles, offset by a per-source phase drawn once at
      setup (``cbr_jitter`` scales the phase window; 0 locks every
      source to the same phase -- the worst-case synchronous load).
  ``onoff``
      MMPP-style two-state bursts: Poisson arrivals at an elevated rate
      during ON windows, silence during OFF, with exponential or
      Pareto-tailed window durations.  The ON rate is scaled by the duty
      cycle so the long-run mean rate stays the nominal sweep rate;
      ``on_tail="pareto"`` produces the heavy-tailed bursts associated
      with self-similar traffic.
  ``hotspot``
      A destination-skew wrapper over any non-skewed base source: the
      arrival *timing* comes from ``base``, the destination draw is
      biased by :func:`repro.workloads.patterns.hotspot_weights` -- the
      same weight vector the analytical model consumes, so model and
      simulator cannot disagree about the skew.
  ``trace``
      Replay of a recorded JSONL arrival trace
      (:mod:`repro.traffic.trace`), content-addressed by the trace
      file's digest.

Determinism contract: every source draws all of its randomness from the
run's single seeded generator in merge order (see
:class:`repro.sim.arrivals.MergedArrivalStream`), so a fixed seed gives
one fixed arrival realisation on both kernels -- ``kernel="c"`` calls
back into the Python-side stream per arrival -- and on every executor.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.sim.arrivals import MergedArrivalStream, make_arrival_stream
from repro.workloads.patterns import hotspot_weights

__all__ = [
    "SourceSpec",
    "TrafficSource",
    "SOURCE_KINDS",
    "DEFAULT_SOURCE",
    "source_from_dict",
    "CBRArrivalStream",
    "OnOffArrivalStream",
]


# --------------------------------------------------------------------- #
# arrival streams
# --------------------------------------------------------------------- #
class CBRArrivalStream(MergedArrivalStream):
    """Constant-bit-rate arrivals: each source emits every ``1/rate``
    cycles, offset by a per-source phase drawn once at setup.

    The phase draw happens in source order (one ``rng.random()`` per
    source, unicast nodes then multicast nodes), scaled into
    ``[0, jitter * period)``.  After that the process is fully
    deterministic -- only destination draws consume the generator -- so
    the measured injection rate equals the nominal rate exactly.
    """

    __slots__ = ("_jitter",)

    def __init__(self, *args: Any, jitter: float = 1.0, **kwargs: Any) -> None:
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"cbr jitter must be in [0, 1], got {jitter}")
        self._jitter = jitter
        super().__init__(*args, **kwargs)

    def _initial_time(self, source: int, scale: float) -> float:
        # always consume the draw so the realisation depends on jitter
        # only through the scaling, not through generator alignment
        return self._rng.random() * (scale * self._jitter)

    def _next_gap(self, source: int, scale: float, t: float) -> float:
        return scale


class OnOffArrivalStream(MergedArrivalStream):
    """Two-state ON/OFF modulated Poisson arrivals.

    Each source alternates between ON windows (Poisson arrivals at rate
    ``rate / duty``) and silent OFF windows; ``duty = on_mean /
    (on_mean + off_mean)`` so the long-run mean rate is the nominal
    ``rate``.  Window durations are exponential (``tail="exp"``, the
    classic MMPP) or Pareto with shape ``alpha`` and the mean matched to
    ``on_mean``/``off_mean`` (``tail="pareto"``, heavy-tailed bursts
    toward self-similar load; requires ``alpha > 1`` for the mean to
    exist).

    Arrivals inside ON windows are memoryless, so an exponential gap
    that overruns the current window carries its residual into the next
    ON window -- exact for the modulated-Poisson construction and free
    of boundary bias.  Each source's first ON window opens at a uniform
    offset inside one mean cycle, decorrelating source phases.
    """

    __slots__ = ("_on_mean", "_off_mean", "_tail", "_alpha", "_duty", "_windows")

    def __init__(
        self,
        *args: Any,
        on_mean: float,
        off_mean: float,
        tail: str = "exp",
        alpha: float = 1.5,
        **kwargs: Any,
    ) -> None:
        if on_mean <= 0.0:
            raise ValueError(f"on_mean must be > 0, got {on_mean}")
        if off_mean < 0.0:
            raise ValueError(f"off_mean must be >= 0, got {off_mean}")
        if tail not in ("exp", "pareto"):
            raise ValueError(f"on_tail must be 'exp' or 'pareto', got {tail!r}")
        if tail == "pareto" and alpha <= 1.0:
            raise ValueError(f"pareto_alpha must be > 1, got {alpha}")
        self._on_mean = on_mean
        self._off_mean = off_mean
        self._tail = tail
        self._alpha = alpha
        self._duty = on_mean / (on_mean + off_mean)
        # per-source [start, end] of the current ON window
        self._windows: dict[int, list[float]] = {}
        super().__init__(*args, **kwargs)

    def _duration(self, mean: float) -> float:
        if mean <= 0.0:
            return 0.0
        if self._tail == "pareto":
            # Pareto(alpha, xm) with E = xm * alpha / (alpha - 1) = mean
            xm = mean * (self._alpha - 1.0) / self._alpha
            return xm * (1.0 + float(self._rng.pareto(self._alpha)))
        return float(self._rng.exponential(mean))

    def _arrival_after(self, source: int, t: float, scale: float) -> float:
        win = self._windows[source]
        # scale is 1/nominal-rate; ON-rate = rate/duty => ON-scale = scale*duty
        gap = float(self._rng.exponential(scale * self._duty))
        pos = t if t > win[0] else win[0]
        while pos + gap > win[1]:
            # carry the memoryless residual across the OFF window
            gap -= win[1] - pos
            win[0] = win[1] + self._duration(self._off_mean)
            win[1] = win[0] + self._duration(self._on_mean)
            pos = win[0]
        return pos + gap

    def _initial_time(self, source: int, scale: float) -> float:
        start = float(self._rng.random()) * (self._on_mean + self._off_mean)
        self._windows[source] = [start, start + self._duration(self._on_mean)]
        return self._arrival_after(source, -math.inf, scale)

    def _next_gap(self, source: int, scale: float, t: float) -> float:
        return self._arrival_after(source, t, scale) - t


# --------------------------------------------------------------------- #
# the declarative spec
# --------------------------------------------------------------------- #
@dataclass(frozen=True)  # repro-lint: boundary
class SourceSpec:
    """Declarative description of one injection process.

    A flat union of per-kind knobs (irrelevant ones keep their defaults
    and are validated away), so the spec stays a plain frozen dataclass:
    ``dataclasses.asdict`` gives the canonical nested-dict form that
    :meth:`SimTask.canonical() <repro.orchestration.tasks.SimTask>`
    hashes, and :func:`source_from_dict` round-trips it.
    """

    kind: str = "poisson"
    #: [cbr] per-source phase window as a fraction of the period
    cbr_jitter: float = 1.0
    #: [onoff] mean ON / OFF window durations (cycles)
    on_mean: float = 200.0
    off_mean: float = 600.0
    #: [onoff] window-duration tail: "exp" (MMPP) or "pareto" (heavy)
    on_tail: str = "exp"
    #: [onoff] Pareto shape for ``on_tail="pareto"`` (> 1)
    pareto_alpha: float = 1.5
    #: [hotspot] the wrapped timing process (any non-hotspot kind)
    base: Optional["SourceSpec"] = None
    #: [hotspot] skewed destination nodes and their weight multiplier
    hotspots: tuple[int, ...] = ()
    hotspot_factor: float = 8.0
    #: [trace] JSONL trace path and its content digest (auto-stamped
    #: from the file when left empty and the file is readable, so the
    #: task key changes whenever the trace content does)
    trace_path: str = ""
    trace_digest: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.base, dict):  # tolerate dict-form nesting
            object.__setattr__(self, "base", source_from_dict(self.base))
        if not isinstance(self.hotspots, tuple):
            object.__setattr__(self, "hotspots", tuple(self.hotspots))
        if self.kind not in SOURCE_KINDS:
            raise ValueError(
                f"unknown source kind {self.kind!r}; known: {sorted(SOURCE_KINDS)}"
            )
        SOURCE_KINDS[self.kind].validate(self)
        if self.kind == "trace" and not self.trace_digest:
            from repro.traffic.trace import try_trace_digest

            digest = try_trace_digest(self.trace_path)
            if digest:
                object.__setattr__(self, "trace_digest", digest)

    # ------------------------------------------------------------------ #
    @property
    def source(self) -> "TrafficSource":
        return SOURCE_KINDS[self.kind]

    @property
    def label(self) -> str:
        """Short provenance name, e.g. ``"onoff-pareto"`` or
        ``"hotspot(cbr)"`` -- stamped into results and cache entries."""
        return self.source.label(self)

    def describe(self) -> str:
        """One-line human description of the process."""
        return self.source.describe(self)

    def unicast_weights(self, num_nodes: int) -> Optional[tuple[float, ...]]:
        """Destination weight vector this source imposes (None: uniform).

        Consumed identically by the analytical model (via
        ``TrafficSpec.unicast_weights``) and the simulator's CDF draw,
        so a skewing source biases both sides the same way.
        """
        return self.source.unicast_weights(self, num_nodes)

    def make_stream(
        self,
        rng: np.random.Generator,
        num_nodes: int,
        unicast_rate: float,
        multicast_rate: float,
        multicast_nodes: Sequence[int],
        dest_cdfs: Optional[list[np.ndarray]],
        spawn: Callable[[float, int, int], None],
        *,
        arrival_mode: str = "legacy",
    ) -> Any:
        """Build this spec's arrival stream (the engine-facing
        ``ArrivalSource`` duck type -- trace replay shares no base
        class with the generated streams, so the static type is open)."""
        return self.source.make_stream(
            self, rng, num_nodes, unicast_rate, multicast_rate,
            multicast_nodes, dest_cdfs, spawn, arrival_mode=arrival_mode,
        )

    def as_dict(self) -> dict[str, Any]:
        """Canonical nested-dict form (JSON-ready)."""
        d = dataclasses.asdict(self)
        d["hotspots"] = list(d["hotspots"])
        return d


def source_from_dict(data: dict[str, Any]) -> SourceSpec:
    """Inverse of :meth:`SourceSpec.as_dict` (tolerates nested dicts)."""
    known = {f.name for f in dataclasses.fields(SourceSpec)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown SourceSpec fields: {sorted(unknown)}")
    kwargs = dict(data)
    if kwargs.get("base") is not None and isinstance(kwargs["base"], dict):
        kwargs["base"] = source_from_dict(kwargs["base"])
    if "hotspots" in kwargs:
        kwargs["hotspots"] = tuple(kwargs["hotspots"])
    return SourceSpec(**kwargs)


# --------------------------------------------------------------------- #
# source implementations
# --------------------------------------------------------------------- #
class TrafficSource:
    """Behaviour bound to one ``SourceSpec.kind`` (stateless singleton).

    Subclasses implement ``make_stream`` (build the engine-facing
    arrival stream for one run) and ``validate`` (reject inconsistent
    specs at construction time, so a bad spec can never reach a worker
    or poison the cache), plus the cosmetic ``label``/``describe``.
    """

    kind: str = ""

    def validate(self, spec: SourceSpec) -> None:
        pass

    def label(self, spec: SourceSpec) -> str:
        return self.kind

    def describe(self, spec: SourceSpec) -> str:
        return self.kind

    def unicast_weights(
        self, spec: SourceSpec, num_nodes: int
    ) -> Optional[tuple[float, ...]]:
        return None

    def make_stream(
        self,
        spec: SourceSpec,
        rng: np.random.Generator,
        num_nodes: int,
        unicast_rate: float,
        multicast_rate: float,
        multicast_nodes: Sequence[int],
        dest_cdfs: Optional[list[np.ndarray]],
        spawn: Callable[[float, int, int], None],
        *,
        arrival_mode: str = "legacy",
    ) -> Any:
        raise NotImplementedError

    @staticmethod
    def _require_legacy_mode(spec: SourceSpec, arrival_mode: str) -> None:
        # the vectorized block-draw path exists only for the Poisson
        # process; refusing loudly beats silently ignoring the request
        if arrival_mode != "legacy":
            raise ValueError(
                f"arrival_mode={arrival_mode!r} is only available for the "
                f"poisson source, not {spec.label!r}"
            )


class PoissonSource(TrafficSource):
    """The legacy memoryless process, via the unchanged arrivals layer."""

    kind = "poisson"

    def describe(self, spec: SourceSpec) -> str:
        return "memoryless Poisson injection (the paper's assumption)"

    def make_stream(
        self,
        spec: SourceSpec,
        rng: np.random.Generator,
        num_nodes: int,
        unicast_rate: float,
        multicast_rate: float,
        multicast_nodes: Sequence[int],
        dest_cdfs: Optional[list[np.ndarray]],
        spawn: Callable[[float, int, int], None],
        *,
        arrival_mode: str = "legacy",
    ) -> Any:
        # the exact call NocSimulator.run always made: same factory,
        # same argument order, same rng -- bitwise-identical realisation
        return make_arrival_stream(
            arrival_mode,
            rng, num_nodes, unicast_rate, multicast_rate,
            multicast_nodes, dest_cdfs, spawn,
        )


class CBRSource(TrafficSource):
    kind = "cbr"

    def validate(self, spec: SourceSpec) -> None:
        if not 0.0 <= spec.cbr_jitter <= 1.0:
            raise ValueError(
                f"cbr_jitter must be in [0, 1], got {spec.cbr_jitter}"
            )

    def describe(self, spec: SourceSpec) -> str:
        return (
            f"constant-bit-rate injection, per-source phase jitter "
            f"{spec.cbr_jitter:g}x the period"
        )

    def make_stream(
        self,
        spec: SourceSpec,
        rng: np.random.Generator,
        num_nodes: int,
        unicast_rate: float,
        multicast_rate: float,
        multicast_nodes: Sequence[int],
        dest_cdfs: Optional[list[np.ndarray]],
        spawn: Callable[[float, int, int], None],
        *,
        arrival_mode: str = "legacy",
    ) -> Any:
        self._require_legacy_mode(spec, arrival_mode)
        return CBRArrivalStream(
            rng, num_nodes, unicast_rate, multicast_rate,
            multicast_nodes, dest_cdfs, spawn, jitter=spec.cbr_jitter,
        )


class OnOffSource(TrafficSource):
    kind = "onoff"

    def validate(self, spec: SourceSpec) -> None:
        if spec.on_mean <= 0.0:
            raise ValueError(f"on_mean must be > 0, got {spec.on_mean}")
        if spec.off_mean < 0.0:
            raise ValueError(f"off_mean must be >= 0, got {spec.off_mean}")
        if spec.on_tail not in ("exp", "pareto"):
            raise ValueError(
                f"on_tail must be 'exp' or 'pareto', got {spec.on_tail!r}"
            )
        if spec.on_tail == "pareto" and spec.pareto_alpha <= 1.0:
            raise ValueError(
                f"pareto_alpha must be > 1, got {spec.pareto_alpha}"
            )

    def label(self, spec: SourceSpec) -> str:
        return "onoff-pareto" if spec.on_tail == "pareto" else "onoff"

    def describe(self, spec: SourceSpec) -> str:
        duty = spec.on_mean / (spec.on_mean + spec.off_mean)
        tail = (
            f"Pareto(alpha={spec.pareto_alpha:g})"
            if spec.on_tail == "pareto" else "exponential"
        )
        return (
            f"ON/OFF bursts: mean ON {spec.on_mean:g} / OFF "
            f"{spec.off_mean:g} cycles (duty {duty:.2f}), {tail} windows, "
            f"rate-preserving"
        )

    def make_stream(
        self,
        spec: SourceSpec,
        rng: np.random.Generator,
        num_nodes: int,
        unicast_rate: float,
        multicast_rate: float,
        multicast_nodes: Sequence[int],
        dest_cdfs: Optional[list[np.ndarray]],
        spawn: Callable[[float, int, int], None],
        *,
        arrival_mode: str = "legacy",
    ) -> Any:
        self._require_legacy_mode(spec, arrival_mode)
        return OnOffArrivalStream(
            rng, num_nodes, unicast_rate, multicast_rate,
            multicast_nodes, dest_cdfs, spawn,
            on_mean=spec.on_mean, off_mean=spec.off_mean,
            tail=spec.on_tail, alpha=spec.pareto_alpha,
        )


class HotspotSource(TrafficSource):
    kind = "hotspot"

    def validate(self, spec: SourceSpec) -> None:
        if spec.base is None:
            raise ValueError("hotspot source needs a base source")
        if spec.base.kind == "hotspot":
            raise ValueError("hotspot sources do not nest")
        if not spec.hotspots:
            raise ValueError("hotspot source needs at least one hotspot node")
        if spec.hotspot_factor < 1.0:
            raise ValueError(
                f"hotspot_factor must be >= 1, got {spec.hotspot_factor}"
            )

    def label(self, spec: SourceSpec) -> str:
        return f"hotspot({spec.base.label})"

    def describe(self, spec: SourceSpec) -> str:
        return (
            f"destination skew: nodes {list(spec.hotspots)} attract "
            f"{spec.hotspot_factor:g}x baseline, timing from "
            f"[{spec.base.describe()}]"
        )

    def unicast_weights(
        self, spec: SourceSpec, num_nodes: int
    ) -> Optional[tuple[float, ...]]:
        return hotspot_weights(num_nodes, spec.hotspots, spec.hotspot_factor)

    def make_stream(
        self,
        spec: SourceSpec,
        rng: np.random.Generator,
        num_nodes: int,
        unicast_rate: float,
        multicast_rate: float,
        multicast_nodes: Sequence[int],
        dest_cdfs: Optional[list[np.ndarray]],
        spawn: Callable[[float, int, int], None],
        *,
        arrival_mode: str = "legacy",
    ) -> Any:
        # destination skew acts through dest_cdfs (built by the caller
        # from unicast_weights); the timing process is the base's
        return spec.base.make_stream(
            rng, num_nodes, unicast_rate, multicast_rate,
            multicast_nodes, dest_cdfs, spawn, arrival_mode=arrival_mode,
        )


class TraceSource(TrafficSource):
    kind = "trace"

    def validate(self, spec: SourceSpec) -> None:
        if not spec.trace_path:
            raise ValueError("trace source needs trace_path")

    def label(self, spec: SourceSpec) -> str:
        return "trace"

    def describe(self, spec: SourceSpec) -> str:
        digest = spec.trace_digest or "unstamped"
        return f"replay of {spec.trace_path} (digest {digest})"

    def make_stream(
        self,
        spec: SourceSpec,
        rng: np.random.Generator,
        num_nodes: int,
        unicast_rate: float,
        multicast_rate: float,
        multicast_nodes: Sequence[int],
        dest_cdfs: Optional[list[np.ndarray]],
        spawn: Callable[[float, int, int], None],
        *,
        arrival_mode: str = "legacy",
    ) -> Any:
        self._require_legacy_mode(spec, arrival_mode)
        from repro.traffic.trace import TraceArrivalStream

        return TraceArrivalStream.from_file(
            spec.trace_path, num_nodes, spawn,
            expected_digest=spec.trace_digest or None,
        )


#: ``SourceSpec.kind`` -> stateless source implementation
SOURCE_KINDS: dict[str, TrafficSource] = {
    s.kind: s
    for s in (PoissonSource(), CBRSource(), OnOffSource(),
              HotspotSource(), TraceSource())
}

#: the spec every run uses when none is given -- the legacy process
DEFAULT_SOURCE = SourceSpec()
