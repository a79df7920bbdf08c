"""Self-similar inner profile: shooting, evaluation, tail asymptotics.

The profile phibar0(s) = e^{2s} v0(e^s)^{1-m} solves the stationary inner
equation

    (n-1) [ phi''/phi + b1 (phi'/phi)^2 + b2 phi'/phi ] = a0 - gamma*A*phi'

with v0 smooth at the origin, v0(0) = lambda.  Shooting integrates the
log-state (Z, P) = (log V, (log V)') of V = v0^m in s = log r, which keeps
every exponent O(s).  The stiff relaxation onto the slow manifold makes
explicit methods impractical past s ~ 50, so the shoot takes implicit
Radau IIA steps with the analytic Jacobian of (Z, P).

Evaluation reads the step table of that solution: step i on
[ts[i], ts[i+1]] contributes the cubic y(s) = sum_k coef[i,k] x^k in
x = (s - ts[i]) / h[i], the state at ts[i] plus the step's collocation
polynomial.  A point costs one sorted search and one Horner sum.
phibar0(s, derivs=True) returns (phibar0, phibar0', phibar0'') from that
one lookup: with c = (1-m)/m, phibar0' = phibar0 (2 + c P) and
phibar0'' = phibar0 ((2 + c P)^2 + c P'), P' from the shoot's P-equation.

The inverse reads the same table: log phibar0 = 2s + c Z(s) increases, so
a bisection of its values at the breakpoints locates the step, and a
safeguarded Newton iteration solves that step's cubic.  Below the table
the core law inverts in closed form; above it the same Newton iteration
solves the tail expansion inside a doubled bracket.

Far field.  Put phibar0 = a s + c log s + K + (d log s + e)/s + f (log s)^2/s
into the stationary equation times phibar0^2 and collect powers of s and
log s: the s^2 terms give a = a0/(gamma A), the s terms c = -(n-1) b2/(gamma
A), and the order-1 terms f = 0, d = c^2/a and e = e0 + e1 K, with
e0 = (n-1) b1/(gamma A) and e1 = c/a.  So the tail has one free constant,
K, matched to the table value at s_max (one linear equation, as e is
linear in K), and past s_max the profile is this expansion.  Its remainder
O((log s)^2/s^2) lies below its last retained term (d log s + e)/s.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left

import numpy as np

from . import errors, numerics
from .params import ModelParams, radial_diffusion
from .reporting import atomic_write

__all__ = [
    "SelfSimilarProfile",
    "shoot_v0",
    "verify_tail_asymptotics",
    "save_profile",
]


class SelfSimilarProfile:
    """Shot profile on a step table, with core and tail extensions.

    Evaluation branches, for a float or an array s alike:
      s < s_min          : core law  phibar0 = lambda^(1-m) e^{2s}
      s_min <= s <= s_max: Horner sums of the shoot's steps
      s > s_max          : far-field expansion a s + c log s + K + (d log s + e)/s

    inverse(y) is the s with phibar0(s) = y on the same branches.
    """

    def __init__(self, p: ModelParams, table: numerics.StepTable, s_min: float, s_max: float):
        self.p = p
        self._table = table
        # the inverse's step cubics on Python floats: Z rows highest power first
        self._ts = table.ts.tolist()
        self._h = table.h.tolist()
        self._zrows = table.coef[:, 0, ::-1].tolist()
        self._c = (1.0 - p.m) / p.m
        # log phibar0 at the breakpoints, each from the step it belongs to
        self._logs = (2.0 * table.ts + self._c * table(table.ts)[0]).tolist()
        self.s_min = float(s_min)
        self.s_max = float(s_max)
        a, c, d, e0, e1 = _tail_constants(p)
        self.slope_limit, self.c_log_exact = a, c
        # K from phibar0(s_max) = a S + c log S + K + (d log S + e0 + e1 K)/S
        S, log_S = self.s_max, math.log(self.s_max)
        self.K = (self.phibar0(S) - a * S - c * log_S - (d * log_S + e0) / S) / (1.0 + e1 / S)
        self._tail = (a, c, self.K, d, e0 + e1 * self.K)

    # -- internals ---------------------------------------------------------

    def _rhs_P(self, s: np.ndarray, Z: np.ndarray, P: np.ndarray) -> np.ndarray:
        c1, c2, k, q = _p_equation(self.p)
        E = np.exp(2.0 * s + q * Z)
        return -P * P - (self.p.n - 2) * P - k * E * (c1 + c2 * P)

    def _expansion(self, s, log_s):
        """The far-field expansion and its first two derivatives at s (float
        or array), given log s; 1/s powers are powers of u = 1/s, never of s."""
        a, c, K, d, e = self._tail
        u = 1.0 / s
        return (
            a * s + c * log_s + K + u * (d * log_s + e),
            a + u * (c + u * (d * (1.0 - log_s) - e)),
            u * u * (u * (d * (2.0 * log_s - 3.0) + 2.0 * e) - c),
        )

    def tail_deviation(self) -> tuple[float, float]:
        """(largest |table - expansion| on [s_max/4, s_max], the last
        retained term |d log s + e|/s at s_max/4)."""
        lo = self.s_max / 4.0
        s = np.linspace(lo, self.s_max, 301)
        deviation = np.max(np.abs(self.phibar0(s) - self._expansion(s, np.log(s))[0]))
        _, _, _, d, e = self._tail
        return float(deviation), abs(d * math.log(lo) + e) / lo

    # -- evaluation ----------------------------------------------------------

    def phibar0(self, s, derivs: bool = False):
        """phibar0(s) for any real s; with derivs, the triple (phibar0,
        phibar0', phibar0'') from the same pass.  A float s gives floats."""
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        out = np.empty((3 if derivs else 1, *s.shape))
        p = self.p
        c = self._c

        core = s < self.s_min
        tail = s > self.s_max
        mid = ~(core | tail)

        if np.any(core):
            val = np.exp((1.0 - p.m) * math.log(p.lam) + 2.0 * s[core])
            out[0, core] = val
            if derivs:
                out[1, core], out[2, core] = val * 2.0, val * 4.0
        if np.any(mid):
            Z, P = self._table(s[mid])
            val = np.exp(2.0 * s[mid] + c * Z)
            out[0, mid] = val
            if derivs:
                g = 2.0 + c * P
                out[1, mid] = val * g
                out[2, mid] = val * (g ** 2 + c * self._rhs_P(s[mid], Z, P))
        if np.any(tail):
            st = s[tail]
            out[:, tail] = self._expansion(st, np.log(st))[: len(out)]
        if scalar:
            out = [float(part[0]) for part in out]
        return tuple(out) if derivs else out[0]

    def inverse(self, y: float) -> float:
        """The s with phibar0(s) = y, for a finite y > 0.

        Below the table the core law gives s in closed form.  In the table
        a bisection of the breakpoint log-values picks the step, and
        _newton_in_bracket solves its cubic 2s + c Z(s) = log y, started
        from the linear interpolation of the step's end log-values.  Above
        the table it solves the tail expansion g(s) = y from the upper end
        of [s_max, hi], where hi doubles from 2 s_max until g(hi) >= y; a y
        that g reaches only past the float range raises OutOfDomain.  As K
        matches g(s_max) to the table's end value, a y with g(s_max) >= y
        is rounding at the seam and maps to s_max.
        """
        if not 0.0 < y < math.inf:
            raise errors.NonPositiveInput(f"phibar0 takes only finite values > 0, not {y}")
        L = math.log(y)
        logs = self._logs
        if L < logs[0]:
            return 0.5 * (L - (1.0 - self.p.m) * math.log(self.p.lam))
        if L <= logs[-1]:
            i = min(max(bisect_left(logs, L) - 1, 0), len(self._h) - 1)
            t0, h, zrow, c = self._ts[i], self._h[i], self._zrows[i], self._c

            def step_cubic(s):
                x = (s - t0) / h
                Z = dZ = 0.0
                for coef in zrow:
                    dZ = dZ * x + Z
                    Z = Z * x + coef
                return 2.0 * s + c * Z - L, 2.0 + c * dZ / h

            L0, L1 = logs[i], logs[i + 1]
            start = t0 + h * min(max((L - L0) / (L1 - L0), 0.0), 1.0)
            return _newton_in_bracket(step_cubic, start, t0, self._ts[i + 1])

        def tail(s):
            g, dg, _ = self._expansion(s, math.log(s))
            return g - y, dg

        if tail(self.s_max)[0] >= 0.0:  # rounding at the seam
            return self.s_max
        hi = 2.0 * self.s_max
        while tail(hi)[0] < 0.0:
            hi *= 2.0
            if hi == math.inf:
                raise errors.OutOfDomain(f"the phibar0 tail reaches {y!r} only past the float range")
        return _newton_in_bracket(tail, hi, self.s_max, hi)

    def stationary_residual(self, s):
        """Residual of the stationary inner equation at s (should be ~0)."""
        s = np.asarray(s, dtype=float)
        v, v1, v2 = self.phibar0(s, derivs=True)
        if np.any(v <= 0.0):
            raise errors.NonPositiveProfile("phibar0 <= 0 in residual evaluation")
        p = self.p
        return radial_diffusion(p, v, v1, v2) - (p.d.a0 - p.gamma * p.A * v1)


_NEWTON_ITERS = 60  # bisection alone closes a step, or a doubled tail bracket, in 60


def _newton_in_bracket(fdf, s: float, lo: float, hi: float) -> float:
    """Root of an increasing F in [lo, hi] by Newton from s, bisecting
    whenever a step would leave the bracket that the signs of F keep;
    fdf(s) returns (F(s), F'(s)).  Converged when a step moves s by at
    most 4 ulp; raises NonConvergent after _NEWTON_ITERS rounds."""
    for _ in range(_NEWTON_ITERS):
        F, dF = fdf(s)
        if F == 0.0:
            return s
        if F < 0.0:
            lo = s
        else:
            hi = s
        s_new = s - F / dF
        if not lo < s_new < hi:
            s_new = 0.5 * (lo + hi)
        if abs(s_new - s) <= 4.0 * math.ulp(s):
            return s_new
        s = s_new
    raise errors.NonConvergent(
        f"phibar0 inverse: no convergence in {_NEWTON_ITERS} rounds on [{lo!r}, {hi!r}]"
    )


def _p_equation(p: ModelParams):
    """Constants (c1, c2, k, q) of the shoot's P-equation
    P' = -P^2 - (n-2) P - k e^{2s + q Z} (c1 + c2 P)."""
    c1 = 2.0 * p.gamma * p.A / (1.0 - p.m)
    c2 = p.gamma * p.A / p.m
    return c1, c2, p.m / (p.n - 1), 1.0 / p.m - 1.0


def _tail_constants(p: ModelParams):
    """Constants (a, c, d, e0, e1) of the far-field expansion
    phibar0 = a s + c log s + K + (d log s + e0 + e1 K)/s (module docstring)."""
    a = p.d.a0 / (p.gamma * p.A)
    c = -(p.n - 1) * p.d.b2 / (p.gamma * p.A)
    return a, c, c * c / a, (p.n - 1) * p.d.b1 / (p.gamma * p.A), c / a


def shoot_v0(p: ModelParams, ode_spec: numerics.OdeSpec | None = None) -> SelfSimilarProfile:
    """Integrate the profile ODE from a series start at r0 = 1e-6 out to
    s_max = 400, to ode_spec (default: rel_tol 1e-10, abs_tol 1e-12).

    The quadratic series v0 = lambda + v2 r^2 + O(r^4) with
    v2 = -gamma A lambda^(2-m) / (n (n-1) (1-m)) seeds (Z, P) at s0 = log r0;
    a lambda^(2-m) beyond the float range raises NonFinite.
    """
    spec = ode_spec or numerics.OdeSpec(rel_tol=1e-10, abs_tol=1e-12)
    n, m, gamma, A, lam = p.n, p.m, p.gamma, p.A, p.lam
    r0, s_max = 1e-6, 400.0
    try:
        v2 = -gamma * A * lam ** (2.0 - m) / (n * (n - 1) * (1.0 - m))
    except OverflowError as exc:
        raise errors.NonFinite(
            f"series start of the shoot overflows at lambda = {lam:g}"
        ) from exc
    s0 = math.log(r0)
    vcore = lam + v2 * r0 ** 2
    if vcore <= 0.0:
        raise errors.NonPositiveInput("series start radius too large")
    Z0 = m * math.log(vcore)
    P0 = m * (2.0 * v2 * r0 ** 2) / vcore
    c1, c2, k, q = _p_equation(p)

    def rhs(s, Z, P):
        E = math.exp(2.0 * s + q * Z)
        return P, -P * P - (n - 2) * P - k * E * (c1 + c2 * P)

    def jac(s, Z, P):
        kE = k * math.exp(2.0 * s + q * Z)
        return 0.0, 1.0, -kE * q * (c1 + c2 * P), -2.0 * P - (n - 2) - kE * c2

    table = numerics.solve_ode(rhs, jac, (s0, s_max), [Z0, P0], spec)
    return SelfSimilarProfile(p, table, s_min=s0, s_max=s_max)


def verify_tail_asymptotics(profile: SelfSimilarProfile) -> dict:
    """Checks of the far-field expansion a s + c log s + K + (d log s + e)/s
    (module docstring) and of the shoot.

    The expansion's remainder lies below its last retained term, so the
    table must too: tail_deviation_max, the largest |table - expansion| on
    [s_max/4, s_max], against tail_last_term, that term at s_max/4.  K
    matches the values at s_max, and endpoint_slope_gap is phibar0'(s_max)
    minus the expansion's derivative.  Also returns monotonicity, the
    stationary residual on 200 points, and a tolerance-refinement
    comparison of the shoot itself.
    """
    S = profile.s_max
    deviation, last_term = profile.tail_deviation()
    s_grid = np.linspace(max(profile.s_min, 0.0) + 1e-3, S, 2000)
    res = profile.stationary_residual(np.linspace(1.0, S, 200))
    out = {
        "slope_limit": profile.slope_limit,
        "c_log_exact": profile.c_log_exact,
        "K": profile.K,
        "tail_deviation_max": deviation,
        "tail_last_term": last_term,
        "endpoint_slope_gap": profile.phibar0(S, derivs=True)[1]
        - profile._expansion(S, math.log(S))[1],
        "monotone": bool(np.all(profile.phibar0(s_grid, derivs=True)[1] > 0.0)),
        "stationary_residual_max": float(np.max(np.abs(res))),
    }
    fine = shoot_v0(profile.p, ode_spec=numerics.OdeSpec(rel_tol=2.5e-11, abs_tol=2.5e-13))
    s_chk = np.array([1.0, 10.0, 100.0, S])
    a, b = profile.phibar0(s_chk), fine.phibar0(s_chk)
    out["refinement_rel_diff"] = float(np.max(np.abs(a - b) / np.abs(b)))
    return out


def save_profile(profile: SelfSimilarProfile, path: str):
    """CSV dump (s, phibar0, dphibar0) on 2001 points with a JSON comment header."""
    header = {
        "s_min": profile.s_min,
        "s_max": profile.s_max,
        "slope_limit": profile.slope_limit,
        "tail_K": profile.K,
    }
    s = np.linspace(profile.s_min, profile.s_max, 2001)
    v, dv, _ = profile.phibar0(s, derivs=True)
    lines = ["# " + json.dumps(header, sort_keys=True), "s,phibar0,dphibar0"]
    lines.extend(",".join(repr(float(x)) for x in row) for row in zip(s, v, dv))
    atomic_write(path, "\n".join(lines) + "\n")
