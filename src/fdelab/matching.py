"""Inner-outer matching: shift constants, glued barriers, corner analysis.

For each sign the shift C_eps(tau) solves

    phibar0(xi1 + C) = (1 +/- eps) e^{gamma tau} psi^{+/-}(A + xi1 e^{-gamma tau}, tau)

so the glued profile

    wbar(xi, tau) = phibar0(xi + C(tau)) / (1 +/- eps)   for xi <= xi1
                  = e^{gamma tau} psi(A + xi e^{-gamma tau}, tau)  for xi > xi1

is continuous at xi1; GluedBarrier.wbar makes this split in one place, and
the residuals module takes L1 of it in closed form on each side.  The
matching radius xi1 is the config's (outer.cfg.xi1), read once by
MatchingSolver; the glued barriers and the epsilon search take it from
their solver.  The corner verdict compares one-sided slopes there, and
weak_corner_term turns the same slopes into the sign and size of the
corner boundary term of the weak comparison argument; epsilon bounds are
the largest weights keeping the corner verdicts (eps1) and the strict
ordering psi+ > psi- > 0 (eps2).

Only the inverse depends on eps, so C comes in two steps: an edge reading
(MatchingSolver._read_edge: e^{gamma tau} and one psi_bundle call at the
edge gaps xi1 e^{-gamma tau}, no eps) and a shift solve (_shift: the
inverse of each target, in tau order).  C' is closed-form by implicit
differentiation of the same reading, phibar0'(xi1 + C) C' = (1 +/- eps)
w_tau(xi1+).  C, C', the corner slopes and the outer edge each take one
reading; the epsilon search reads each sign's edge once for all its steps.
A reading stops at the first tau whose edge gap underflows to 0 or whose
e^{gamma tau} overflows, with that tau's OutOfDomain.

Every tau-dependent method takes a 1-D sequence of taus and gives one
value per tau, or, for wbar, one xi row per tau.  Each value equals the
one a one-element sequence gives, bit for bit: e^{+/-gamma tau} comes
from math.exp one tau at a time (_exp_gamma_tau, outer._math_exp), and
the inverse is a loop over the targets.  An error is the one the first
offending tau raises, in tau order; in the epsilon search a corner
verdict that fails decides before a later tau's error.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import errors
from .outer import OuterProfileSet, _math_exp, branch_variant
from .params import theta
from .selfsim import SelfSimilarProfile

__all__ = [
    "MatchingSolver",
    "GluedBarrier",
    "find_epsilon_bounds",
    "check_ordering",
    "weak_corner_term",
]

_SIGN_FACTOR = {"+": 1.0, "-": -1.0}
# the corner verdict: the supersolution (+) needs left >= right (a concave
# kink), the subsolution (-) left <= right
_HOLDS = {"+": np.greater_equal, "-": np.less_equal}


def _exp_gamma_tau(gamma: float, tau: float) -> float:
    """e^{gamma tau}, the map of the outer side to inner variables;
    OutOfDomain naming gamma*tau once it passes the float range."""
    try:
        return math.exp(gamma * tau)
    except OverflowError:
        raise errors.OutOfDomain(
            f"e^(gamma tau) overflows at gamma tau = {gamma * tau:.6g}"
        ) from None


# an edge reading (module docstring): e^{gamma tau} and psi_bundle's four arrays
# at the taus read, and the OutOfDomain of the tau it stopped at, or None
_Edge = namedtuple("_Edge", "sign taus egt psi dpsi d2psi dtau_psi failure")


class MatchingSolver:
    """Shift-constant solver at the config's matching radius xi1; every
    call solves C at each tau it is given and keeps nothing.

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

    def _read_edge(self, sign: str, taus) -> _Edge:
        """The edge reading of sign over taus (module docstring)."""
        gamma = self.outer.p.gamma
        taus = np.asarray(taus, dtype=float).tolist()
        gaps, egts, failure = [], [], None
        for tau in taus:
            gap = self.xi1 * math.exp(-gamma * tau)
            try:
                if gap == 0.0:
                    raise errors.OutOfDomain(
                        f"matching edge gap xi1 e^(-gamma tau) underflows to 0 at "
                        f"gamma tau = {gamma * tau:.6g}"
                    )
                egts.append(_exp_gamma_tau(gamma, tau))
            except errors.OutOfDomain as exc:
                failure = exc
                break
            gaps.append(gap)
        read = taus[: len(gaps)]
        bundle = self.outer.psi_bundle(sign, np.array(read), gap=np.array(gaps))
        return _Edge(sign, read, np.array(egts), *bundle, failure)

    def _shift(self, edge: _Edge, eps: float):
        """(C, error): the shift solve of an edge reading up to the first
        target that fails; that target's error, else the reading's, or None."""
        targets = ((1.0 + _SIGN_FACTOR[edge.sign] * eps) * (edge.egt * edge.psi)).tolist()
        C = []
        for t, target in zip(edge.taus, targets):
            if not (math.isfinite(target) and target > 0.0):
                return C, errors.TargetBelowRange(
                    f"matching target {target} not positive at tau={t} "
                    f"(outer profile not yet positive near A; increase tau)"
                )
            try:
                C.append(self.profile.inverse(target) - self.xi1)
            except errors.FdelabError as exc:
                return C, exc
        return C, edge.failure

    def outer_edge(self, sign: str, taus):
        """(e^{gamma tau} psi, psi_eta) at the matching edge gap xi1 e^{-gamma tau}."""
        edge = self._read_edge(sign, taus)
        if edge.failure is not None:
            raise edge.failure
        return edge.egt * edge.psi, edge.dpsi

    def solve_matching(self, sign: str, eps: float, tau):
        """Shift C with phibar0(xi1 + C) = (1 +/- eps) * outer edge value,
        read from the profile's inverse."""
        return GluedBarrier(self, sign, eps).C(tau)

    # -- quantitative matching limits ---------------------------------------

    def matching_limits(self) -> dict:
        """Edge-value and edge-slope limits at large tau for both signs,
        read at tau_ref = max(40, 20/gamma) and the two taus 5 and 10 below.
        The edge values carry an O(gamma tau e^(-gamma tau)) remainder, so
        gamma tau_ref >= 20 keeps it at most about 20 e^(-20) = 4e-8.

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
        tau_ref = max(40.0, 20.0 / gamma)
        taus = np.array([tau_ref - 10.0, tau_ref - 5.0, tau_ref])
        edges = {sign: self.outer_edge(sign, taus) for sign in _SIGN_FACTOR}

        # plus edge value: increment slope over consecutive tau samples
        inc = np.diff(edges["+"][0]) / np.diff(taus)
        limit_plus = (n - 1) * p.theta2_plus / A
        if abs(inc[-1] - inc[0]) > 0.05 * abs(limit_plus):
            raise errors.ExtrapolationUnstable(
                f"plus edge increment slope not settled: {inc}"
            )
        out["plus_increment_slope"] = float(inc[-1])
        out["plus_increment_limit"] = limit_plus
        out["plus_increment_rel_err"] = float(abs(inc[-1] - limit_plus) / abs(limit_plus))

        # minus edge value converges outright
        vminus = edges["-"][0][-1]
        limit_minus = d.a0 * xi1 / (gamma * A) + (n - 1) * p.theta1_minus / (gamma * A * xi1)
        out["minus_edge_value"] = float(vminus)
        out["minus_edge_limit"] = limit_minus
        out["minus_edge_rel_err"] = float(abs(vminus - limit_minus) / abs(limit_minus))

        # edge slopes for both signs
        for sign in ("+", "-"):
            th1 = theta(p, 1, sign)
            th2 = theta(p, 2, sign)
            slope = edges[sign][1][-1]
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
    the solver's xi1; wbar gives its values."""

    def __init__(self, solver: MatchingSolver, sign: str, eps: float):
        if sign not in _SIGN_FACTOR:
            raise errors.InvalidParameter(f"sign must be '+' or '-', got {sign!r}")
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

    def C(self, taus):
        return self._solved(taus)[1]

    def _solved(self, taus):
        """(edge reading, C) over taus; raises the first offending tau's error."""
        edge = self.solver._read_edge(self.sign, taus)
        C, failure = self.solver._shift(edge, self.eps)
        if failure is not None:
            raise failure
        return edge, np.asarray(C)

    def C_and_C_prime(self, taus):
        """(C, dC/dtau) from one edge reading; C' by implicit differentiation
        (module docstring), w_tau = gamma w - gamma xi psi_eta + e^{gamma tau} psi_tau."""
        edge, C = self._solved(taus)
        gamma = self.outer.p.gamma
        wt = gamma * edge.egt * edge.psi - gamma * self.xi1 * edge.dpsi + edge.egt * edge.dtau_psi
        Cp = self.factor * wt / self.profile.phibar0(self.xi1 + C, derivs=True)[1]
        return C, Cp

    def wbar(self, xi, tau):
        """Glued profile value in inner variables (see the module docstring)
        on the (tau, xi) grid: one xi row shared by every tau, an array of
        shape (len(tau), len(xi)).  Left of xi1 one phibar0 call at
        xi + C(tau), right of it one outer call, mapped by
        w = e^{gamma tau} psi; a side that no xi reaches takes no
        tau-dependent factor, so a row right of xi1 solves no C."""
        xi, taus = np.asarray(xi, dtype=float), np.asarray(tau, dtype=float)
        out = np.empty((taus.size, xi.size))
        left = xi <= self.xi1
        if np.any(left):
            out[:, left] = self.profile.phibar0(xi[left] + self.C(taus)[:, None]) / self.factor
        if not np.all(left):
            gamma = self.outer.p.gamma
            egt = np.array([_exp_gamma_tau(gamma, t) for t in taus.tolist()])[:, None]
            gap = xi[~left] * _math_exp(-gamma, taus)[:, None]
            out[:, ~left] = egt * self.outer.psi_outer(self.sign, taus[:, None], gap=gap)
        return out

    def continuity_mismatch(self, taus):
        w = self.wbar([self.xi1, np.nextafter(self.xi1, np.inf)], taus)
        return np.abs(w[:, 0] - w[:, 1]) / np.abs(w[:, 0])

    def corner_slopes(self, taus):
        """(edge value e^{gamma tau} psi, left slope, right slope) at xi1,
        from one outer evaluation of the edge."""
        edge, C = self._solved(taus)
        left = self.profile.phibar0(self.xi1 + C, derivs=True)[1] / self.factor
        return edge.egt * edge.psi, left, edge.dpsi

    def corner_jump(self, taus) -> list:
        """One-sided slopes at xi1 and the sign's verdict (_HOLDS), one
        CornerReport per tau."""
        _, left, right = self.corner_slopes(taus)
        return [
            CornerReport(tau=t, left_slope=lo, right_slope=ro, holds=bool(_HOLDS[self.sign](lo, ro)))
            for t, lo, ro in zip(taus, left.tolist(), right.tolist())
        ]


def _softplus(q: float) -> float:
    if q > 0.0:
        return q + math.log1p(math.exp(-q))
    return math.log1p(math.exp(q))


def weak_corner_term(bar: GluedBarrier, tau_window: tuple[float, float]) -> dict:
    """Sign and log10-magnitude of the corner boundary term J1, from 48
    samples over tau_window, read in one corner_slopes call.

    The integrand lives on the moving interface r1(t) = exp(xi1 + A
    (T-t)^(-gamma)); every factor is assembled in logarithms because r1 is
    astronomically large while the product is astronomically small.  The
    slope jump (right - left) carries the sign: nonpositive for the plus
    barrier, nonnegative for the minus barrier, which is what the weak
    comparison argument needs.  An underflowing delta = e^{-tau} raises OutOfDomain.
    """
    p = bar.outer.p
    m, gamma, A, n = p.m, p.gamma, p.A, p.n
    xi1 = bar.xi1
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    c_m = (1.0 + gamma) * m / (1.0 - m)
    b1 = p.d.b1

    taus = np.linspace(tau_window[0], tau_window[1], 48)
    log_terms = []
    signs = []
    edges, lefts, rights = (part.tolist() for part in bar.corner_slopes(taus))
    for tau, edge_value, left, right in zip(taus.tolist(), edges, lefts, rights):
        delta = math.exp(-tau)
        if delta == 0.0:
            raise errors.OutOfDomain(f"delta = e^(-tau) underflows to 0 at tau = {tau:.6g}")
        jump = right - left
        if jump == 0.0:
            continue
        signs.append(math.copysign(1.0, jump))
        log_r1 = xi1 + A * math.exp(gamma * tau)
        # log E = log r1 + softplus(log(4 g^2 A^2) + (2g+2) tau + 2 log r1)/2
        q = math.log(4.0 * gamma * gamma * A * A) + (2.0 * gamma + 2.0) * tau + 2.0 * log_r1
        log_E = log_r1 + 0.5 * _softplus(q)
        log_psi = math.log(edge_value) - gamma * tau  # log of psi at the edge
        lt = (
            math.log(n - 1)
            - math.log(1.0 - m)
            + math.log(omega)
            + c_m * math.log(delta)
            + (n - 1) * log_r1
            - 2.0 * log_r1
            - log_E
            + b1 * (log_psi - 2.0 * log_r1)
            + math.log(abs(jump))
            + math.log(delta)  # dt = delta dtau
        )
        log_terms.append(lt)
    if not log_terms:
        raise errors.NonConvergent("corner term vanished identically on the window")
    sign_set = set(signs)
    sign = signs[0] if len(sign_set) == 1 else 0.0
    arr = np.asarray(log_terms)
    peak = float(np.max(arr))
    total = peak + math.log(np.sum(np.exp(arr - peak)) * (taus[1] - taus[0]))
    return {
        "sign": sign,
        "log10_abs": total / math.log(10.0),
        "sign_consistent": len(sign_set) == 1,
        "n_samples": len(log_terms),
    }


def check_ordering(plus: GluedBarrier, minus: GluedBarrier, taus) -> dict:
    """Strict ordering psi+ > psi- > 0 for each tau, on 200 points of the
    glued window [-20, xi1 + 20], from one wbar call per barrier."""
    xi = _ordering_window(plus.xi1)
    return _ordering(plus.wbar(xi, taus), minus.wbar(xi, taus))


def _ordering_window(xi1: float):
    return np.linspace(-20.0, xi1 + 20.0, 200)


def _ordering(wp, wm) -> dict:
    """check_ordering's verdict from the plus and minus values on its window."""
    # folded tau by tau as min(worst, row) does, so a NaN row is passed over
    worst_gapc = min([np.inf, *np.min(wp - wm, axis=1).tolist()])
    worst_floor = min([np.inf, *np.min(wm, axis=1).tolist()])
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
    edges = [solver._read_edge(sign, tau_grid) for sign in _SIGN_FACTOR]
    xi1 = float(solver.xi1)

    def shifted(eps: float):
        """Per sign, plus first: (edge reading, 1 +/- eps, C, error) at eps."""
        for edge in edges:
            yield edge, 1.0 + _SIGN_FACTOR[edge.sign] * eps, *solver._shift(edge, eps)

    def corner_ok(eps: float) -> bool:
        # as a loop over the taus goes: a verdict that fails decides before
        # an error at a later tau is raised
        for edge, factor, C, failure in shifted(eps):
            left = solver.profile.phibar0(xi1 + np.asarray(C), derivs=True)[1] / factor
            if not np.all(_HOLDS[edge.sign](left, edge.dpsi[: len(C)])):
                return False
            if failure is not None:
                raise failure
        return True

    def ordering_ok(eps: float) -> bool:
        # check_ordering's wbar on its window: left of xi1 as wbar takes it,
        # right of it the eps-free outer side
        w = []
        for edge, factor, C, failure in shifted(eps):
            if failure is not None:
                raise failure
            inner = solver.profile.phibar0(xi[xi <= xi1] + np.asarray(C)[:, None]) / factor
            w.append(np.hstack([inner, outer_side[edge.sign]]))
        return _ordering(*w)["ordered"]

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

    eps1 = largest(corner_ok)
    xi = _ordering_window(xi1)
    outer_side = {s: GluedBarrier(solver, s, 0.0).wbar(xi[xi > xi1], tau_grid) for s in _SIGN_FACTOR}
    return eps1, largest(ordering_ok)
