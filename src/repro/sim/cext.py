"""Availability gate for the optional compiled stepper (:mod:`_cstep`).

The C extension is *optional*: the repo must remain fully functional --
tests green, ``kernel="auto"`` resolving to ``"python"`` -- on a machine with
no C compiler.  This module is the single place that knows whether the
extension imported, configured itself against the live class layouts,
and is therefore safe to drive; everything else asks :func:`available`
/ :func:`unavailable_reason` instead of importing :mod:`_cstep`
directly.

``configure`` hands the extension the actual :class:`~repro.sim.worm.
Worm` and :class:`~repro.sim.engine.EventQueue` classes so it can
resolve their ``__slots__`` member offsets at runtime -- the C code
never hard-codes a struct layout, so an interpreter or class-layout
change degrades to "extension unavailable" rather than corruption.  Any
failure during import *or* configuration is recorded as the reason
string surfaced in run provenance and ``python -m repro kernels``.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["available", "unavailable_reason", "module"]

_MOD = None
_ERROR: Optional[str] = None

_imported = None
if os.environ.get("REPRO_NO_CEXT"):
    # the same switch that skips the build also disables a built
    # extension at runtime, so the pure-Python story can be exercised
    # on any install (CI's compiler-free job sets it)
    _ERROR = "disabled by REPRO_NO_CEXT"
else:
    try:
        from repro.sim import _cstep as _imported
    except ImportError as exc:  # pragma: no cover - exercised on built installs
        _ERROR = f"extension not built ({exc})"

if _imported is not None:
    try:
        from repro.sim.engine import EV_INJECT, EV_RELEASE, EV_REQUEST, EventQueue
        from repro.sim.state import _FIFO_COMPACT
        from repro.sim.worm import Worm

        _imported.configure(
            Worm,
            EventQueue,
            EV_REQUEST,
            EV_RELEASE,
            EV_INJECT,
            _FIFO_COMPACT,
        )
    except Exception as exc:  # pragma: no cover - layout-drift safety net
        _ERROR = f"configure failed ({exc!r})"
    else:
        _MOD = _imported


def available() -> bool:
    """True iff the compiled stepper imported and configured itself."""
    return _MOD is not None


def unavailable_reason() -> Optional[str]:
    """Why the compiled stepper cannot be used (None when it can)."""
    return _ERROR


def module():
    """The configured extension module, or None."""
    return _MOD
