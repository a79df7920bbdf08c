"""Inner-outer matching: shift constants, glued barriers, corner analysis.

For each sign the shift C_eps(tau) solves

    phibar0(xi1 + C) = (1 +/- eps) e^{gamma tau} psi^{+/-}(A + xi1 e^{-gamma tau}, tau)

so the glued profile

    wbar(xi, tau) = phibar0(xi + C(tau)) / (1 +/- eps)   for xi <= xi1
                  = e^{gamma tau} psi(A + xi e^{-gamma tau}, tau)  for xi > xi1

is continuous at xi1.  The matching radius xi1 is the config's
(outer.cfg.xi1), read once by MatchingSolver; the glued barriers and the
epsilon search take it from their solver.  The corner verdict compares
one-sided slopes there; epsilon bounds are the largest weights keeping the
corner verdicts (eps1) and the strict ordering psi+ > psi- > 0 (eps2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors, numerics
from .outer import OuterProfileSet, branch_variant
from .params import theta
from .selfsim import SelfSimilarProfile

__all__ = [
    "MatchingSolver",
    "GluedBarrier",
    "find_epsilon_bounds",
    "check_ordering",
]

_SIGN_FACTOR = {"+": 1.0, "-": -1.0}
_ROOT_TOL = 1e-10  # xtol of the shift-constant root find


class MatchingSolver:
    """Shift-constant solver at the config's matching radius xi1, with
    tau-memoization (tau rounded to 1e-12).

    variant declares the outer profile the caller expects; it must be
    branch_variant(gamma), the label of the one profile the outer set
    builds, and nothing is kept from it.
    """

    def __init__(self, profile: SelfSimilarProfile, outer_set: OuterProfileSet, variant: str):
        label = branch_variant(outer_set.p.gamma)
        if variant != label:
            raise errors.InvalidParameter(
                f"variant {variant!r} does not match the outer profile {label} "
                f"at gamma = {outer_set.p.gamma}"
            )
        self.profile = profile
        self.outer = outer_set
        self.xi1 = outer_set.cfg.xi1
        self._memo: dict = {}

    def outer_edge(self, sign: str, tau: float):
        """(e^{gamma tau} psi, psi_eta) at the matching edge gap xi1 e^{-gamma tau}."""
        gamma = self.outer.p.gamma
        gap = self.xi1 * math.exp(-gamma * tau)
        psi, dpsi, _, _ = self.outer.psi_bundle(sign, tau, gap=np.asarray(gap))
        return float(np.exp(gamma * tau) * psi), float(dpsi)

    def solve_matching(self, sign: str, eps: float, tau: float) -> float:
        """Shift C with phibar0(xi1 + C) = (1 +/- eps) * outer edge value."""
        if sign not in _SIGN_FACTOR:
            raise errors.InvalidParameter(f"sign must be '+' or '-', got {sign!r}")
        if not (0.0 <= eps < 0.25):
            raise errors.EpsilonOutOfRange(f"eps must be in [0, 1/4), got {eps}")
        key = (sign, round(float(eps), 15), round(float(tau) * 1e12))
        if key in self._memo:
            return self._memo[key]
        gamma, xi1 = self.outer.p.gamma, self.xi1
        psi = self.outer.psi_outer(sign, tau=tau, gap=np.asarray(xi1 * math.exp(-gamma * tau)))
        target = (1.0 + _SIGN_FACTOR[sign] * eps) * float(np.exp(gamma * tau) * psi)
        if not np.isfinite(target) or target <= 0.0:
            raise errors.TargetBelowRange(
                f"matching target {target} not positive at tau={tau} "
                f"(outer profile not yet positive near A; increase tau)"
            )

        def g(C):
            return self.profile.phibar0(xi1 + C) - target

        C = numerics.find_root_monotone(g, -60.0, 380.0, tol=_ROOT_TOL)
        self._memo[key] = C
        return C

    def C_prime(self, sign: str, eps: float, tau: float) -> float:
        """dC/dtau by a central difference of step 1e-4."""
        h = 1e-4
        cp = self.solve_matching(sign, eps, tau + h)
        cm = self.solve_matching(sign, eps, tau - h)
        return (cp - cm) / (2.0 * h)

    # -- quantitative matching limits ---------------------------------------

    def matching_limits(self) -> dict:
        """Edge-value and edge-slope limits at large tau (tau_ref = 40) for
        both signs.

        plus : the edge value grows linearly in tau; its increment slope
               tends to (n-1) theta2_plus / A.
        minus: the edge value itself converges to
               a0 xi1/(gamma A) + (n-1) theta1_minus/(gamma A xi1).
        both : the edge slope psi_eta tends to
               a0/(gamma A) - (n-1) theta2/(gamma A xi1) - (n-1) theta1/(gamma A xi1^2).
        """
        p, d, xi1 = self.outer.p, self.outer.d, self.xi1
        gamma, A, n = p.gamma, p.A, p.n
        out = {}
        tau_ref = 40.0
        taus = np.array([tau_ref - 10.0, tau_ref - 5.0, tau_ref])

        # plus edge value: increment slope over consecutive tau samples
        vals = [self.outer_edge("+", t)[0] for t in taus]
        inc = np.diff(vals) / np.diff(taus)
        limit_plus = (n - 1) * p.theta2_plus / A
        if abs(inc[-1] - inc[0]) > 0.05 * abs(limit_plus):
            raise errors.ExtrapolationUnstable(
                f"plus edge increment slope not settled: {inc}"
            )
        out["plus_increment_slope"] = float(inc[-1])
        out["plus_increment_limit"] = limit_plus
        out["plus_increment_rel_err"] = float(abs(inc[-1] - limit_plus) / abs(limit_plus))

        # minus edge value converges outright
        vminus = self.outer_edge("-", tau_ref)[0]
        limit_minus = d.a0 * xi1 / (gamma * A) + (n - 1) * p.theta1_minus / (gamma * A * xi1)
        out["minus_edge_value"] = float(vminus)
        out["minus_edge_limit"] = limit_minus
        out["minus_edge_rel_err"] = float(abs(vminus - limit_minus) / abs(limit_minus))

        # edge slopes for both signs
        for sign in ("+", "-"):
            th1 = theta(p, 1, sign)
            th2 = theta(p, 2, sign)
            slope = self.outer_edge(sign, tau_ref)[1]
            limit = (
                d.a0 / (gamma * A)
                - (n - 1) * th2 / (gamma * A * xi1)
                - (n - 1) * th1 / (gamma * A * xi1 ** 2)
            )
            tag = "plus" if sign == "+" else "minus"
            out[f"{tag}_edge_slope"] = float(slope)
            out[f"{tag}_edge_slope_limit"] = limit
            out[f"{tag}_edge_slope_rel_err"] = float(abs(slope - limit) / abs(limit))
        return out


@dataclass
class CornerReport:
    tau: float
    left_slope: float
    right_slope: float
    holds: bool


class GluedBarrier:
    """One glued barrier (sign, eps) built on a matching solver, glued at
    the solver's xi1.

    wbar gives values only (the radial solver calls it at every step);
    bundle gives the values with their xi and tau derivatives, and is the
    one derivative route for the glued profile.
    """

    def __init__(self, solver: MatchingSolver, sign: str, eps: float):
        if not (0.0 <= eps < 0.25):
            raise errors.EpsilonOutOfRange(f"eps must be in [0, 1/4), got {eps}")
        self.solver = solver
        self.sign = sign
        self.eps = float(eps)
        self.xi1 = float(solver.xi1)
        self.factor = 1.0 + _SIGN_FACTOR[sign] * self.eps

    @property
    def profile(self):
        return self.solver.profile

    @property
    def outer(self):
        return self.solver.outer

    def C(self, tau: float) -> float:
        return self.solver.solve_matching(self.sign, self.eps, tau)

    def C_prime(self, tau: float) -> float:
        return self.solver.C_prime(self.sign, self.eps, tau)

    def wbar(self, xi, tau: float):
        """Glued profile value in inner variables (see the module docstring)."""
        xi = np.asarray(xi, dtype=float)
        scalar = xi.ndim == 0
        xi = np.atleast_1d(xi)
        out = np.empty_like(xi)
        gamma = self.outer.p.gamma
        left = xi <= self.xi1
        if np.any(left):
            out[left] = self.profile.phibar0(xi[left] + self.C(tau)) / self.factor
        if np.any(~left):
            gap = xi[~left] * math.exp(-gamma * tau)
            out[~left] = math.exp(gamma * tau) * self.outer.psi_outer(self.sign, tau, gap=gap)
        return float(out[0]) if scalar else out

    def bundle(self, xi, tau: float):
        """(w, w_xi, w_xixi, w_tau) of the glued profile on a 1-D xi array.

        Left of xi1: phibar0 and its first two derivatives at xi + C(tau),
        with w_tau = phibar0' C'(tau).  Right of xi1: one psi_bundle call,
        mapped to inner variables by w = e^{gamma tau} psi.  w equals wbar
        bit for bit.
        """
        xi = np.asarray(xi, dtype=float)
        w, wx, wxx, wt = (np.empty_like(xi) for _ in range(4))
        gamma = self.outer.p.gamma
        left = xi <= self.xi1
        if np.any(left):
            arg = xi[left] + self.C(tau)
            d1 = self.profile.phibar0(arg, deriv=1)
            w[left] = self.profile.phibar0(arg) / self.factor
            wx[left] = d1 / self.factor
            wxx[left] = self.profile.phibar0(arg, deriv=2) / self.factor
            wt[left] = d1 * self.C_prime(tau) / self.factor
        if np.any(~left):
            right = xi[~left]
            egt = math.exp(gamma * tau)
            psi, dpsi, d2psi, dtau_psi = self.outer.psi_bundle(
                self.sign, tau, gap=right * math.exp(-gamma * tau)
            )
            w[~left] = egt * psi
            wx[~left] = dpsi
            wxx[~left] = math.exp(-gamma * tau) * d2psi
            wt[~left] = gamma * egt * psi - gamma * right * dpsi + egt * dtau_psi
        return w, wx, wxx, wt

    def continuity_mismatch(self, tau: float) -> float:
        lv = self.profile.phibar0(self.xi1 + self.C(tau)) / self.factor
        rv = self.wbar(np.nextafter(self.xi1, np.inf), tau)
        return abs(lv - float(rv)) / abs(lv)

    def corner_jump(self, tau: float) -> CornerReport:
        """One-sided slopes at xi1 and the sign-appropriate verdict.

        Supersolution (+) needs left >= right (concave kink); subsolution (-)
        needs left <= right.
        """
        left = self.profile.phibar0(self.xi1 + self.C(tau), deriv=1) / self.factor
        _, right = self.solver.outer_edge(self.sign, tau)
        if self.sign == "+":
            holds = left >= right
        else:
            holds = left <= right
        return CornerReport(tau=tau, left_slope=float(left), right_slope=float(right), holds=bool(holds))


def check_ordering(plus: GluedBarrier, minus: GluedBarrier, taus) -> dict:
    """Strict ordering psi+ > psi- > 0 for each tau, on 200 points of the
    glued window [-20, xi1 + 20]."""
    xi = np.linspace(-20.0, plus.xi1 + 20.0, 200)
    worst_gapc = np.inf
    worst_floor = np.inf
    for tau in np.atleast_1d(taus):
        wp = plus.wbar(xi, float(tau))
        wm = minus.wbar(xi, float(tau))
        worst_gapc = min(worst_gapc, float(np.min(wp - wm)))
        worst_floor = min(worst_floor, float(np.min(wm)))
    return {
        "min_gap": worst_gapc,
        "min_minus": worst_floor,
        "ordered": bool(worst_gapc > 0.0 and worst_floor > 0.0),
    }


def find_epsilon_bounds(solver: MatchingSolver, tau_grid) -> tuple[float, float]:
    """(eps1, eps2): largest corner-preserving and ordering-preserving weights.

    eps1 is joint over both signs: the corner verdict must hold for the plus
    and the minus barrier at every tau in tau_grid.  Bisection to 1e-3; the
    admissible range is capped at 1/4.  Raises NoAdmissibleEpsilon when even
    eps = 0 fails (xi1 too small).
    """
    taus = np.atleast_1d(np.asarray(tau_grid, dtype=float))

    def corner_ok(eps: float) -> bool:
        for sign in ("+", "-"):
            bar = GluedBarrier(solver, sign, eps)
            for tau in taus:
                if not bar.corner_jump(float(tau)).holds:
                    return False
        return True

    def ordering_ok(eps: float) -> bool:
        bp = GluedBarrier(solver, "+", eps)
        bm = GluedBarrier(solver, "-", eps)
        return check_ordering(bp, bm, taus)["ordered"]

    def largest(pred) -> float:
        if not pred(0.0):
            raise errors.NoAdmissibleEpsilon(
                f"verdict fails already at eps = 0 for xi1 = {solver.xi1}"
            )
        hi = 0.25 - 1e-9
        if pred(hi):
            return 0.25
        lo = 0.0
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            if pred(mid):
                lo = mid
            else:
                hi = mid
        return lo

    return largest(corner_ok), largest(ordering_ok)
