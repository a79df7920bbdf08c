"""Self-similar inner profile: shooting, evaluation, tail asymptotics.

The profile phibar0(s) = e^{2s} v0(e^s)^{1-m} solves the stationary inner
equation

    (n-1) [ phi''/phi + b1 (phi'/phi)^2 + b2 phi'/phi ] = a0 - gamma*A*phi'

with v0 smooth at the origin, v0(0) = lambda.  Shooting integrates the
log-state (Z, P) = (log V, (log V)') of V = v0^m in s = log r, which keeps
every exponent O(s).  The stiff relaxation onto the slow manifold makes
explicit methods impractical past s ~ 50, so the shoot takes implicit
Radau IIA steps with the analytic Jacobian of (Z, P).

Gauge.  lambda enters only as a shift of s, so the shoot runs once, at
v0(0) = 1.  With k = (1-m)/2 log lambda, v0_lambda(r) = lambda
v0_1(lambda^((1-m)/2) r) is smooth with v0_lambda(0) = lambda, and its
log-state is Z_lambda(s) = Z_1(s + k) + m log lambda, P_lambda(s) =
P_1(s + k).  It solves the shoot's system: Z' = P holds for the shifted
pair, and the P-equation sees s and Z only through 2s + q Z with
q = 1/m - 1, where 2s + q Z_lambda(s) = 2(s + k) + q Z_1(s + k), as
q m log lambda = 2k.  Hence

    phibar0_lambda(s) = e^{2s} lambda^{1-m} v0_1(e^{s+k})^{1-m}
                      = phibar0_1(s + k),

and a barrier that reads phibar0(xi + C) is the same for every lambda
when C_lambda = C_1 - k: the matching absorbs lambda.  The table, the core
law, the far-field expansion and its constant K below all belong to
phibar0_1 and live in u = s + k; SelfSimilarProfile forms k and shifts
every public s (s_min, s_max, phibar0, inverse) by it.

Evaluation reads the step table of that solution: step i on
[ts[i], ts[i+1]] contributes the cubic y(u) = sum_k coef[i,k] x^k in
x = (u - ts[i]) / h[i], the state at ts[i] plus the step's collocation
polynomial.  A point costs one sorted search and one Horner sum.
phibar0(s, derivs=True) returns (phibar0, phibar0', phibar0'') from that
one lookup: with c = (1-m)/m, phibar0' = phibar0 (2 + c P) and
phibar0'' = phibar0 ((2 + c P)^2 + c P'), P' from the shoot's P-equation.

The inverse reads the same table: log phibar0_1 = 2u + c Z(u) increases,
so a bisection of its values at the breakpoints locates the step, and a
safeguarded Newton iteration solves that step's cubic.  Below the table
the core law inverts in closed form; above it the same Newton iteration
solves the tail expansion inside a doubled bracket.

Far field.  Put phibar0_1 = a u + c log u + K + (d log u + e)/u +
f (log u)^2/u into the stationary equation times phibar0_1^2 and collect
powers of u and log u: the u^2 terms give a = a0/(gamma A), the u terms
c = -(n-1) b2/(gamma A), and the order-1 terms f = 0, d = c^2/a and
e = e0 + e1 K, with e0 = (n-1) b1/(gamma A) and e1 = c/a.  So the tail has
one free constant, K, matched to the table value at u_max (one linear
equation, as e is linear in K), and past u_max the profile is this
expansion.  Its remainder O((log u)^2/u^2) lies below its last retained
term (d log u + e)/u.
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

    The table holds phibar0_1 on [u_min, u_max] = [ts[0], ts[-1]], and s
    reads it at u = s + k (module docstring).  Evaluation branches, for a
    float or an array s alike:
      u < u_min          : core law  phibar0 = e^{2u}
      u_min <= u <= u_max: Horner sums of the shoot's steps
      u > u_max          : far-field expansion a u + c log u + K + (d log u + e)/u

    inverse(y) is the s with phibar0(s) = y on the same branches.
    s_min and s_max are the table's ends in s.
    """

    def __init__(self, p: ModelParams, table: numerics.StepTable):
        self.p = p
        self._table = table
        self._k = 0.5 * (1.0 - p.m) * math.log(p.lam)
        # the inverse's step cubics on Python floats: Z rows highest power first
        self._ts = table.ts.tolist()
        self._h = table.h.tolist()
        self._zrows = table.coef[:, 0, ::-1].tolist()
        self._c = (1.0 - p.m) / p.m
        # log phibar0_1 at the breakpoints, each from the step it belongs to
        self._logs = (2.0 * table.ts + self._c * table(table.ts)[0]).tolist()
        self._u_min, self._u_max = self._ts[0], self._ts[-1]
        self.s_min, self.s_max = self._u_min - self._k, self._u_max - self._k
        a, c, d, e0, e1 = _tail_constants(p)
        self.slope_limit, self.c_log_exact = a, c
        # K from phibar0_1(U) = a U + c log U + K + (d log U + e0 + e1 K)/U
        U, log_U = self._u_max, math.log(self._u_max)
        self.K = (self._at(U) - a * U - c * log_U - (d * log_U + e0) / U) / (1.0 + e1 / U)
        self._tail = (a, c, self.K, d, e0 + e1 * self.K)

    # -- internals ---------------------------------------------------------

    def _expansion(self, u, log_u):
        """The far-field expansion and its first two derivatives at u (float
        or array), given log u; 1/u powers are powers of w = 1/u, never of u."""
        a, c, K, d, e = self._tail
        w = 1.0 / u
        return (
            a * u + c * log_u + K + w * (d * log_u + e),
            a + w * (c + w * (d * (1.0 - log_u) - e)),
            w * w * (w * (d * (2.0 * log_u - 3.0) + 2.0 * e) - c),
        )

    def tail_deviation(self) -> tuple[float, float]:
        """(largest |table - expansion| on [u_max/4, u_max], the last
        retained term |d log u + e|/u at u_max/4)."""
        lo = self._u_max / 4.0
        u = np.linspace(lo, self._u_max, 301)
        deviation = np.max(np.abs(self._at(u) - self._expansion(u, np.log(u))[0]))
        _, _, _, d, e = self._tail
        return float(deviation), abs(d * math.log(lo) + e) / lo

    def ratio_nondecreasing(self, s_hi: float) -> bool:
        """Whether h = phibar0/phibar0' is nondecreasing from 1/2 on s <=
        s_hi: 1/2 on the core law, 1/(2 + c P) at every breakpoint of the
        table (so P starts at or below 0 and does not increase over its
        steps), then g/g' of the tail expansion g on 200 points from u_max
        to s_hi, if s_hi lies past the table.  The margins of the residuals
        module read h through this order."""
        h = np.append(0.5, 1.0 / (2.0 + self._c * self._table(self._table.ts)[1]))
        if s_hi + self._k > self._u_max:
            u = np.linspace(self._u_max, s_hi + self._k, 200)
            h = np.append(h, np.divide(*self._expansion(u, np.log(u))[:2]))
        return bool(np.all(np.diff(h) >= 0.0))

    def _at(self, u, derivs: bool = False):
        """phibar0_1(u), or with derivs the triple of it and its first two
        derivatives; a float u gives floats.  The value alone of u inside
        the table reads only the table's Z state, with no branch masks."""
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        u = np.atleast_1d(u)
        c = self._c
        if not derivs and u.size and self._u_min <= u.min() and u.max() <= self._u_max:
            val = np.exp(2.0 * u + c * self._table(u, slice(1))[0])
            return float(val[0]) if scalar else val
        out = np.empty((3 if derivs else 1, *u.shape))

        core = u < self._u_min
        tail = u > self._u_max
        mid = ~(core | tail)

        if np.any(core):
            val = np.exp(2.0 * u[core])
            out[0, core] = val
            if derivs:
                out[1, core], out[2, core] = val * 2.0, val * 4.0
        if np.any(mid):
            Z, P = self._table(u[mid])
            val = np.exp(2.0 * u[mid] + c * Z)
            out[0, mid] = val
            if derivs:  # P' from the shoot's P-equation
                c1, c2, k, q = _p_equation(self.p)
                dP = -P * P - (self.p.n - 2) * P - k * np.exp(2.0 * u[mid] + q * Z) * (c1 + c2 * P)
                g = 2.0 + c * P
                out[1, mid] = val * g
                out[2, mid] = val * (g ** 2 + c * dP)
        if np.any(tail):
            ut = u[tail]
            out[:, tail] = self._expansion(ut, np.log(ut))[: len(out)]
        if scalar:
            out = [float(part[0]) for part in out]
        return tuple(out) if derivs else out[0]

    def _stationary_residual(self, u):
        """Residual of the stationary inner equation for phibar0_1 at u
        (should be ~0); as the equation is autonomous, that of phibar0 at
        s = u - k."""
        v, v1, v2 = self._at(u, derivs=True)
        if np.any(v <= 0.0):
            raise errors.NonPositiveProfile("phibar0 <= 0 in residual evaluation")
        p = self.p
        return radial_diffusion(p, v, v1, v2) - (p.d.a0 - p.gamma * p.A * v1)

    # -- evaluation ----------------------------------------------------------

    def phibar0(self, s, derivs: bool = False):
        """phibar0(s) for any real s; with derivs, the triple (phibar0,
        phibar0', phibar0'') from the same pass.  A float s gives floats."""
        return self._at(np.asarray(s, dtype=float) + self._k, derivs)

    def inverse(self, y: float) -> float:
        """The s with phibar0(s) = y, for a finite y > 0.

        Below the table the core law gives u in closed form.  In the table
        a bisection of the breakpoint log-values picks the step, and
        _newton_in_bracket solves its cubic 2u + c Z(u) = log y, started
        from the linear interpolation of the step's end log-values.  Above
        the table it solves the tail expansion g(u) = y from the upper end
        of [u_max, hi], where hi doubles from 2 u_max until g(hi) >= y; a y
        that g reaches only past the float range raises OutOfDomain.  As K
        matches g(u_max) to the table's end value, a y with g(u_max) >= y
        is rounding at the seam and maps to u_max.  Each branch returns
        its root u less k.
        """
        if not 0.0 < y < math.inf:
            raise errors.NonPositiveInput(f"phibar0 takes only finite values > 0, not {y}")
        L = math.log(y)
        logs = self._logs
        if L < logs[0]:
            return 0.5 * L - self._k
        if L <= logs[-1]:
            i = min(max(bisect_left(logs, L) - 1, 0), len(self._h) - 1)
            t0, h, zrow, c = self._ts[i], self._h[i], self._zrows[i], self._c

            def step_cubic(u):
                x = (u - t0) / h
                Z = dZ = 0.0
                for coef in zrow:
                    dZ = dZ * x + Z
                    Z = Z * x + coef
                return 2.0 * u + c * Z - L, 2.0 + c * dZ / h

            L0, L1 = logs[i], logs[i + 1]
            start = t0 + h * min(max((L - L0) / (L1 - L0), 0.0), 1.0)
            return _newton_in_bracket(step_cubic, start, t0, self._ts[i + 1]) - self._k

        def tail(u):
            g, dg, _ = self._expansion(u, math.log(u))
            return g - y, dg

        U = self._u_max
        if tail(U)[0] >= 0.0:  # rounding at the seam
            return self.s_max
        hi = 2.0 * U
        while tail(hi)[0] < 0.0:
            hi *= 2.0
            if hi == math.inf:
                raise errors.OutOfDomain(f"the phibar0 tail reaches {y!r} only past the float range")
        return _newton_in_bracket(tail, hi, U, hi) - self._k


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
    P' = -P^2 - (n-2) P - k e^{2u + q Z} (c1 + c2 P)."""
    c1 = 2.0 * p.gamma * p.A / (1.0 - p.m)
    c2 = p.gamma * p.A / p.m
    return c1, c2, p.m / (p.n - 1), 1.0 / p.m - 1.0


def _tail_constants(p: ModelParams):
    """Constants (a, c, d, e0, e1) of the far-field expansion
    phibar0_1 = a u + c log u + K + (d log u + e0 + e1 K)/u (module docstring)."""
    a = p.d.a0 / (p.gamma * p.A)
    c = -(p.n - 1) * p.d.b2 / (p.gamma * p.A)
    return a, c, c * c / a, (p.n - 1) * p.d.b1 / (p.gamma * p.A), c / a


def shoot_v0(p: ModelParams, rel_tol: float = 1e-10) -> SelfSimilarProfile:
    """Integrate the profile ODE of phibar0_1 from a series start at
    r0 = 1e-6 out to u = 400, to rel_tol and abs_tol = rel_tol/100.

    The quadratic series v0 = 1 + v2 r^2 + O(r^4) with
    v2 = -gamma A / (n (n-1) (1-m)) seeds (Z, P) at u0 = log r0.
    """
    abs_tol = rel_tol / 100.0
    n, m, gamma, A = p.n, p.m, p.gamma, p.A
    r0, u_max = 1e-6, 400.0
    v2 = -gamma * A / (n * (n - 1) * (1.0 - m))
    vcore = 1.0 + v2 * r0 ** 2
    if vcore <= 0.0:
        raise errors.NonPositiveInput("series start radius too large")
    Z0 = m * math.log(vcore)
    P0 = m * (2.0 * v2 * r0 ** 2) / vcore
    c1, c2, k, q = _p_equation(p)
    exp, n2 = math.exp, n - 2

    def rhs(u, Z, P):
        E = exp(2.0 * u + q * Z)
        return P, -P * P - n2 * P - k * E * (c1 + c2 * P)

    def jac(u, Z, P):
        kE = k * exp(2.0 * u + q * Z)
        return 0.0, 1.0, -kE * q * (c1 + c2 * P), -2.0 * P - n2 - kE * c2

    table = numerics.solve_ode(rhs, jac, (math.log(r0), u_max), [Z0, P0], rel_tol, abs_tol)
    return SelfSimilarProfile(p, table)


def verify_tail_asymptotics(profile: SelfSimilarProfile) -> dict:
    """Checks of the far-field expansion a u + c log u + K + (d log u + e)/u
    (module docstring) and of the shoot, all read from phibar0_1 in u, so
    that lambda changes none of them.

    The expansion's remainder lies below its last retained term, so the
    table must too: tail_deviation_max, the largest |table - expansion| on
    [u_max/4, u_max], against tail_last_term, that term at u_max/4.  K
    matches the values at u_max, and endpoint_slope_gap is phibar0'(u_max)
    minus the expansion's derivative.  Also returns monotonicity, the
    stationary residual on 200 points, and a tolerance-refinement
    comparison of the shoot itself.
    """
    U = profile._u_max
    deviation, last_term = profile.tail_deviation()
    u_grid = np.linspace(max(profile._u_min, 0.0) + 1e-3, U, 2000)
    res = profile._stationary_residual(np.linspace(1.0, U, 200))
    out = {
        "slope_limit": profile.slope_limit,
        "c_log_exact": profile.c_log_exact,
        "K": profile.K,
        "tail_deviation_max": deviation,
        "tail_last_term": last_term,
        "endpoint_slope_gap": profile._at(U, derivs=True)[1]
        - profile._expansion(U, math.log(U))[1],
        "monotone": bool(np.all(profile._at(u_grid, derivs=True)[1] > 0.0)),
        "stationary_residual_max": float(np.max(np.abs(res))),
    }
    fine = shoot_v0(profile.p, rel_tol=2.5e-11)
    u_chk = np.array([1.0, 10.0, 100.0, U])
    a, b = profile._at(u_chk), fine._at(u_chk)
    out["refinement_rel_diff"] = float(np.max(np.abs(a - b) / np.abs(b)))
    return out


def save_profile(profile: SelfSimilarProfile, path: str):
    """CSV dump (s, phibar0, dphibar0) on 2001 points of [s_min, s_max] with
    a JSON comment header; its tail_K is K, a constant of phibar0_1 in u."""
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
