"""Root finding and the ODE wrapper.

Thin contracts over numpy/scipy with the error taxonomy of this package.
All routines are deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.integrate
import scipy.optimize

from . import errors

__all__ = ["OdeSpec", "find_root_monotone", "solve_ode"]


@dataclass(frozen=True)
class OdeSpec:
    """ODE integration tolerances and the state-magnitude blowup guard."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    blowup_guard: float = 1e12


def find_root_monotone(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    expand_budget: int = 60,
) -> float:
    """Root of a monotone scalar function, expanding the bracket if needed.

    The initial bracket [lo, hi] grows geometrically (factor 2 on width,
    both directions as signs dictate) until g changes sign, then brentq
    polishes to xtol = tol.
    """
    if not (lo < hi):
        raise errors.InvalidParameter(f"need lo < hi, got [{lo}, {hi}]")
    glo, ghi = g(lo), g(hi)
    if not (np.isfinite(glo) and np.isfinite(ghi)):
        raise errors.NonFinite("bracket endpoint evaluation not finite")
    budget = expand_budget
    width = hi - lo
    while glo * ghi > 0.0:
        if budget <= 0:
            raise errors.NoBracket(
                f"no sign change in [{lo}, {hi}] after {expand_budget} expansions"
            )
        budget -= 1
        width *= 2.0
        increasing = ghi > glo
        want_higher = (ghi > 0.0) == (not increasing)
        # monotone g: move the end that can still cross zero
        if want_higher:
            hi = hi + width
            ghi = g(hi)
        else:
            lo = lo - width
            glo = g(lo)
        if not (np.isfinite(glo) and np.isfinite(ghi)):
            raise errors.NonFinite("bracket expansion hit non-finite values")
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    return scipy.optimize.brentq(g, lo, hi, xtol=tol, rtol=4.0 * np.finfo(float).eps)


def solve_ode(
    rhs: Callable,
    t_span: tuple[float, float],
    y0: Sequence[float],
    spec: OdeSpec | None = None,
):
    """LSODA through scipy solve_ivp, with dense output and a terminal
    blowup guard on max|y|.

    Raises BlowupGuardTripped if the guard event fires and StepUnderflow
    when the stepper reports failure.
    """
    spec = spec or OdeSpec()

    def guard(t, y):
        return spec.blowup_guard - float(np.max(np.abs(y)))

    guard.terminal = True
    guard.direction = -1

    sol = scipy.integrate.solve_ivp(
        rhs,
        t_span,
        np.asarray(y0, dtype=float),
        method="LSODA",
        rtol=spec.rel_tol,
        atol=spec.abs_tol,
        dense_output=True,
        events=[guard],
    )
    if sol.status == -1:
        raise errors.StepUnderflow(f"ODE solver failed: {sol.message}")
    if sol.status == 1 and len(sol.t_events[0]) > 0:
        raise errors.BlowupGuardTripped(
            f"|y| reached {spec.blowup_guard:g} at t = {sol.t_events[0][0]:.6g}"
        )
    return sol
