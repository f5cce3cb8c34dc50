"""Expected maximum of independent exponential random variables (Eq. 9-12).

The paper associates the total waiting time experienced by the multicast
worm leaving injection port ``c`` of node ``j`` with an exponential random
variable of rate ``mu_{j,c} = 1 / sum_l w_l`` (Eq. 8).  Because the worms
leave the ports asynchronously, the multicast waiting time is the expected
time of the *last* absorption among the ``m`` port worms, i.e.
``E[max(E_1, ..., E_m)]`` of independent exponentials (Eq. 13).

The paper derives this with the memoryless property (Eq. 10-12); we provide

* :func:`expected_max_recursive` -- the paper's recursion, memoised over
  subsets (exact, exponential in ``m``; ``m <= ~20`` is practical and the
  paper's routers have ``m = 4``),
* :func:`expected_max_rows` -- the same recursion for many independent
  rate vectors at once (one numpy pass per subset),
* :func:`expected_max_inclusion_exclusion` -- the closed form
  ``sum_{S != {}} (-1)^{|S|+1} / sum_{i in S} mu_i`` (used as a cross-check
  and for larger ``m``),
* :func:`expected_max_iid` -- the harmonic-number special case
  ``H_m / mu`` for i.i.d. rates,
* :func:`expected_max_exponentials` -- the public entry point that also
  handles the degenerate rates the latency model produces at zero load
  (``mu = inf`` meaning "this port waits zero time", which is dropped from
  the maximum) and empty input (no ports used -> 0 waiting).

Rates must be positive; a rate of ``0`` would mean an almost-surely
infinite waiting time and yields ``math.inf``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "expected_min_exponentials",
    "expected_max_recursive",
    "expected_max_rows",
    "expected_max_inclusion_exclusion",
    "expected_max_iid",
    "expected_max_exponentials",
    "harmonic_number",
]


def _validated(rates: Iterable[float]) -> tuple[float, ...]:
    out = tuple(float(r) for r in rates)
    for r in out:
        if math.isnan(r):
            raise ValueError("exponential rates must not be NaN")
        if r < 0.0:
            raise ValueError(f"exponential rates must be >= 0, got {r}")
    return out


def harmonic_number(m: int) -> float:
    """The m-th harmonic number ``H_m = 1 + 1/2 + ... + 1/m``; ``H_0 = 0``."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return sum(1.0 / k for k in range(1, m + 1))


def expected_min_exponentials(rates: Sequence[float]) -> float:
    """``E[min]`` of independent exponentials: ``1 / (mu_1 + ... + mu_m)``.

    This is paper Eq. 10 (stated for two variables); the minimum of
    independent exponentials is itself exponential with the summed rate
    (Eq. 9).
    """
    rs = _validated(rates)
    if not rs:
        raise ValueError("expected_min_exponentials requires at least one rate")
    total = sum(r for r in rs if not math.isinf(r))
    if any(math.isinf(r) for r in rs):
        return 0.0
    if total == 0.0:
        return math.inf
    return 1.0 / total


def expected_max_recursive(rates: Sequence[float]) -> float:
    """Paper Eq. 12: recursion over subsets via the memoryless property.

    ``E[max] = 1/sum(mu) + sum_k (mu_k / sum(mu)) * E[max of the others]``.

    Exact but costs ``O(2^m * m)``; intended for the small ``m`` of
    multi-port routers (the Quarc has ``m = 4``).
    """
    rs = _validated(rates)
    rs = tuple(r for r in rs if not math.isinf(r))  # inf-rate => a.s. zero
    if not rs:
        return 0.0
    if any(r == 0.0 for r in rs):
        return math.inf
    if len(rs) > 20:
        raise ValueError(
            f"recursive E[max] is exponential in m; got m={len(rs)}, use "
            "expected_max_inclusion_exclusion instead"
        )

    @lru_cache(maxsize=None)
    def emax(subset: tuple[float, ...]) -> float:
        if len(subset) == 1:
            return 1.0 / subset[0]
        total = sum(subset)
        value = 1.0 / total
        for k, mu_k in enumerate(subset):
            rest = subset[:k] + subset[k + 1 :]
            value += (mu_k / total) * emax(rest)
        return value

    try:
        return emax(tuple(sorted(rs)))
    finally:
        emax.cache_clear()


def expected_max_rows(rates: np.ndarray) -> np.ndarray:
    """:func:`expected_max_recursive` for every row of a ``(rows, m)``
    array at once, over all ``2^m`` subsets.  A rate of 0 here marks an
    absent variable (or one that is almost surely 0), which drops out of
    the maximum; a row with no positive rate has ``E[max] = 0``."""
    rows, m = rates.shape
    emax = np.zeros((1 << m, rows))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for mask in range(1, 1 << m):
            members = [k for k in range(m) if mask >> k & 1]
            total = rates[:, members].sum(axis=1)
            acc = 1.0 + sum(rates[:, k] * emax[mask ^ (1 << k)] for k in members)
            emax[mask] = np.where(total > 0.0, acc / total, 0.0)
    return emax[-1]


def expected_max_inclusion_exclusion(rates: Sequence[float]) -> float:
    """Closed form ``E[max] = sum over nonempty subsets S of
    ``(-1)^{|S|+1} / sum_{i in S} mu_i``.

    Follows from ``E[max] = integral (1 - prod_i (1 - e^{-mu_i t})) dt``.
    Numerically well behaved for the small m used here.
    """
    rs = _validated(rates)
    rs = tuple(r for r in rs if not math.isinf(r))
    if not rs:
        return 0.0
    if any(r == 0.0 for r in rs):
        return math.inf
    m = len(rs)
    total = 0.0
    for size in range(1, m + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for subset in combinations(rs, size):
            total += sign / sum(subset)
    return total


def expected_max_iid(rate: float, m: int) -> float:
    """``E[max]`` of ``m`` i.i.d. exponentials of rate ``mu``: ``H_m / mu``."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m == 0:
        return 0.0
    (r,) = _validated([rate])
    if math.isinf(r):
        return 0.0
    if r == 0.0:
        return math.inf
    return harmonic_number(m) / r


def expected_max_exponentials(rates: Sequence[float], *, method: str = "recursive") -> float:
    """Public entry point for ``E[max]`` (paper Eq. 13).

    Parameters
    ----------
    rates:
        Rates ``mu_{j,c}`` of the per-port exponential waiting times.  An
        infinite rate denotes a port whose worm never waits (zero expected
        waiting) and is dropped; an empty sequence (multicast uses no ports,
        e.g. an empty destination set) yields 0.
    method:
        ``"recursive"`` (paper Eq. 12) or ``"inclusion-exclusion"``.
    """
    if method == "recursive":
        return expected_max_recursive(rates)
    if method == "inclusion-exclusion":
        return expected_max_inclusion_exclusion(rates)
    raise ValueError(f"unknown method {method!r}")
