"""Inner-outer matching: shift constants, glued barriers, corner analysis.

For each sign the shift C_eps(tau) solves

    phibar0(xi1 + C) = (1 +/- eps) e^{gamma tau} psi^{+/-}(A + xi1 e^{-gamma tau}, tau)

so the glued profile

    wbar(xi, tau) = phibar0(xi + C(tau)) / (1 +/- eps)   for xi <= xi1
                  = e^{gamma tau} psi(A + xi e^{-gamma tau}, tau)  for xi > xi1

is continuous at xi1; GluedBarrier makes this split in one place for its
values (wbar) and its derivatives (bundle) alike.  The matching radius xi1
is the config's (outer.cfg.xi1), read once by MatchingSolver; the glued
barriers and the epsilon search take it from their solver.  C is read from the profile's
step table (SelfSimilarProfile.inverse of the target), so it depends on the
target alone, and C'(tau) is closed-form by implicit differentiation:
phibar0'(xi1 + C) C' = (1 +/- eps) w_tau(xi1+), the tau-derivative of the
outer side at fixed xi.  A matching edge gap xi1 e^{-gamma tau} that
underflows to 0 raises OutOfDomain naming gamma*tau.  The corner verdict
compares one-sided slopes there; epsilon bounds are the largest weights
keeping the corner verdicts (eps1) and the strict ordering
psi+ > psi- > 0 (eps2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
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


def _exp_gamma_tau(gamma: float, tau: float) -> float:
    """e^{gamma tau}, the map of the outer side to inner variables;
    OutOfDomain naming gamma*tau once it passes the float range."""
    try:
        return math.exp(gamma * tau)
    except OverflowError:
        raise errors.OutOfDomain(
            f"e^(gamma tau) overflows at gamma tau = {gamma * tau:.6g}"
        ) from None


def _outer_w_tau(gamma: float, tau: float, xi, psi, dpsi, dtau_psi):
    """d/dtau of the outer side w = e^{gamma tau} psi(A + xi e^{-gamma tau}, tau)
    at fixed xi, from psi, psi_eta and psi_tau at the gap xi e^{-gamma tau}."""
    egt = _exp_gamma_tau(gamma, tau)
    return gamma * egt * psi - gamma * xi * dpsi + egt * dtau_psi


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

    def _edge_gap(self, tau: float) -> float:
        """The matching edge gap xi1 e^{-gamma tau}; OutOfDomain once it
        underflows to 0."""
        gamma = self.outer.p.gamma
        gap = self.xi1 * math.exp(-gamma * tau)
        if gap == 0.0:
            raise errors.OutOfDomain(
                f"matching edge gap xi1 e^(-gamma tau) underflows to 0 at "
                f"gamma tau = {gamma * tau:.6g}"
            )
        return gap

    def outer_edge(self, sign: str, tau: float):
        """(e^{gamma tau} psi, psi_eta) at the matching edge gap xi1 e^{-gamma tau}."""
        gamma = self.outer.p.gamma
        psi, dpsi, _, _ = self.outer.psi_bundle(sign, tau, gap=np.asarray(self._edge_gap(tau)))
        return float(_exp_gamma_tau(gamma, tau) * psi), float(dpsi)

    def solve_matching(self, sign: str, eps: float, tau: float) -> float:
        """Shift C with phibar0(xi1 + C) = (1 +/- eps) * outer edge value,
        read from the profile's inverse."""
        if sign not in _SIGN_FACTOR:
            raise errors.InvalidParameter(f"sign must be '+' or '-', got {sign!r}")
        if not (0.0 <= eps < 0.25):
            raise errors.EpsilonOutOfRange(f"eps must be in [0, 1/4), got {eps}")
        key = (sign, round(float(eps), 15), round(float(tau) * 1e12))
        if key in self._memo:
            return self._memo[key]
        gamma = self.outer.p.gamma
        psi = self.outer.psi_outer(sign, tau=tau, gap=np.asarray(self._edge_gap(tau)))
        target = (1.0 + _SIGN_FACTOR[sign] * eps) * float(_exp_gamma_tau(gamma, tau) * psi)
        if not np.isfinite(target) or target <= 0.0:
            raise errors.TargetBelowRange(
                f"matching target {target} not positive at tau={tau} "
                f"(outer profile not yet positive near A; increase tau)"
            )
        C = self.profile.inverse(target) - self.xi1
        self._memo[key] = C
        return C

    def C_prime(self, sign: str, eps: float, tau: float) -> float:
        """dC/dtau = (1 +/- eps) w_tau(xi1+) / phibar0'(xi1 + C), the
        implicit derivative of the matching equation; w_tau is the outer
        side's tau-derivative at fixed xi (GluedBarrier.bundle's)."""
        C = self.solve_matching(sign, eps, tau)
        psi, dpsi, _, dtau_psi = self.outer.psi_bundle(
            sign, tau, gap=np.asarray(self._edge_gap(tau))
        )
        wt = _outer_w_tau(self.outer.p.gamma, tau, self.xi1, psi, dpsi, dtau_psi)
        factor = 1.0 + _SIGN_FACTOR[sign] * eps
        return float(factor * wt / self.profile.phibar0(self.xi1 + C, derivs=True)[1])

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
        p, xi1 = self.outer.p, self.xi1
        d = p.d
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
    one derivative route for the glued profile; both read _glued.
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

    def _glued(self, xi, tau: float, derivs: bool):
        """Rows (w,) or, with derivs, (w, w_xi, w_xixi, w_tau) on xi: left of
        xi1 one phibar0 call at xi + C(tau), with w_tau = phibar0' C'(tau);
        right of it one outer call, mapped by w = e^{gamma tau} psi."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.empty((4 if derivs else 1, *xi.shape))
        gamma = self.outer.p.gamma
        left = xi <= self.xi1
        if np.any(left):
            arg = xi[left] + self.C(tau)
            if derivs:
                v, d1, d2 = self.profile.phibar0(arg, derivs=True)
                out[:, left] = np.array((v, d1, d2, d1 * self.C_prime(tau))) / self.factor
            else:
                out[0, left] = self.profile.phibar0(arg) / self.factor
        if np.any(~left):
            right = xi[~left]
            egt, emgt = _exp_gamma_tau(gamma, tau), math.exp(-gamma * tau)
            gap = right * emgt
            if derivs:
                psi, dpsi, d2psi, dtau_psi = self.outer.psi_bundle(self.sign, tau, gap=gap)
                wt = _outer_w_tau(gamma, tau, right, psi, dpsi, dtau_psi)
                out[:, ~left] = (egt * psi, dpsi, emgt * d2psi, wt)
            else:
                out[0, ~left] = egt * self.outer.psi_outer(self.sign, tau, gap=gap)
        return out

    def wbar(self, xi, tau: float):
        """Glued profile value in inner variables (see the module docstring)."""
        w = self._glued(xi, tau, False)[0]
        return float(w[0]) if np.ndim(xi) == 0 else w

    def bundle(self, xi, tau: float):
        """(w, w_xi, w_xixi, w_tau) of the glued profile on a 1-D xi array;
        w equals wbar bit for bit."""
        return tuple(self._glued(xi, tau, True))

    def continuity_mismatch(self, tau: float) -> float:
        lv, rv = self.wbar([self.xi1, np.nextafter(self.xi1, np.inf)], tau)
        return float(abs(lv - rv) / abs(lv))

    def corner_slopes(self, tau: float) -> tuple[float, float, float]:
        """(edge value e^{gamma tau} psi, left slope, right slope) at xi1,
        from one outer evaluation of the edge."""
        edge, right = self.solver.outer_edge(self.sign, tau)
        left = self.profile.phibar0(self.xi1 + self.C(tau), derivs=True)[1] / self.factor
        return edge, left, right

    def corner_jump(self, tau: float) -> CornerReport:
        """One-sided slopes at xi1 and the sign-appropriate verdict.

        Supersolution (+) needs left >= right (concave kink); subsolution (-)
        needs left <= right.
        """
        _, left, right = self.corner_slopes(tau)
        holds = left >= right if self.sign == "+" else left <= right
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
