"""Independent reference routes for the barrier operators and profiles.

The package evaluates the operators through the rescaled term evaluators
(OuterProfileSet.l0_terms, l1_terms_evaluator); the raw residuals, the mapped
outer evaluator, the exact decompositions and the single corrector profiles
here are second routes that the tests compare those against.
"""

import dataclasses
import math

import numpy as np

from fdelab import errors
from fdelab.matching import GluedBarrier
from fdelab.outer import OuterProfileSet
from fdelab.params import theta


def phi_correction(outer: OuterProfileSet, i: int, gap, deriv: int = 0):
    """Corrector profile phi_i (i = 1, 2, 3) or its first/second derivative."""
    pr = outer._prims(gap)
    if i == 1:
        return outer._phi1_prims(pr, True)[deriv]
    if i == 2:
        return outer._phi2_prims(pr, True)[deriv]
    if i == 3:
        return outer._phi3_prims(pr, True)[deriv]
    raise errors.InvalidParameter(f"i must be 1, 2, or 3, got {i}")


def L0_residual(evaluator, gap, tau, p, d):
    """L0 residual from an evaluator(gap, tau) -> (w, w_eta, w_etaeta, w_tau)."""
    gap = np.asarray(gap, dtype=float)
    w, we, wee, wt = evaluator(gap, tau)
    if np.any(w <= 0.0):
        raise errors.NonPositiveProfile("outer profile <= 0 inside L0")
    eta = p.A + gap
    g = p.gamma
    visc = np.exp(-2.0 * g * tau) * (wee / w + d.b1 * (we / w) ** 2)
    drift = d.b2 * np.exp(-g * tau) * we / w
    return wt - (p.n - 1) * (visc + drift) - (g * eta * we + w - d.a0)


def L1_residual(evaluator, xi, tau, p, d):
    """L1 residual from an evaluator(xi, tau) -> (w, w_xi, w_xixi, w_tau)."""
    xi = np.asarray(xi, dtype=float)
    w, wx, wxx, wt = evaluator(xi, tau)
    if np.any(w <= 0.0):
        raise errors.NonPositiveProfile("inner profile <= 0 inside L1")
    g = p.gamma
    return (
        np.exp(-g * tau) * (wt - (1.0 + g) * w)
        - (p.n - 1) * (wxx / w + d.b1 * (wx / w) ** 2 + d.b2 * wx / w)
        + d.a0
        - g * p.A * wx
    )


def at_C10_zero(outer: OuterProfileSet) -> OuterProfileSet:
    """The same profile family at C10 = 0: the paper's psi1 (gamma > 1) or
    psi2 (gamma <= 1), since phi4 = phi3 + C10 v."""
    return OuterProfileSet(outer.p, dataclasses.replace(outer.cfg, C10=0.0))


def outer_psi_evaluator(outer: OuterProfileSet, sign: str):
    """Adapter: psi as an L0 evaluator keyed on the gap."""

    def ev(gap, tau):
        return outer.psi_bundle(sign, tau, gap=gap)

    return ev


def outer_as_inner_evaluator(outer: OuterProfileSet, sign: str):
    """Adapter: Psi = e^{gamma tau} psi(A + xi e^{-gamma tau}, tau) for L1.

    Realizes the change of variables tying the two operators together:
    L1 of this evaluator equals L0(psi) at the mapped point.
    """
    g = outer.p.gamma

    def ev(xi, tau):
        xi = np.asarray(xi, dtype=float)
        gap = xi * math.exp(-g * tau)
        if np.any(gap <= 0.0):
            raise errors.OutOfDomain("mapped evaluator needs xi > 0")
        psi, dpsi, d2psi, dtau = outer.psi_bundle(sign, tau, gap=gap)
        egt = math.exp(g * tau)
        w = egt * psi
        wx = dpsi
        wxx = math.exp(-g * tau) * d2psi
        wt = g * egt * psi - g * xi * dpsi + egt * dtau
        return w, wx, wxx, wt

    return ev


def psi1_residual_decomposed(outer: OuterProfileSet, sign: str, gap, tau):
    """Exact decomposition L0(psi1) = (n-1)(e^{-2gt} I1 + e^{-gt} I2).

    I1 = (phi0''/phi0 + theta1 phi0'^2/phi0^2) - (psi''/psi + b1 psi'^2/psi^2)
    I2 = theta2 phi0'/phi0 - b2 psi'/psi
    Valid for psi1 (gamma > 1, so no correction rows, and C10 = 0; see
    at_C10_zero) at every (eta, tau); serves as the independent second
    route for the L0 implementation.
    """
    p, d = outer.p, outer.d
    if outer.C10 != 0.0 or outer.correction_coeffs(sign):
        raise errors.InvalidParameter("psi1 needs gamma > 1 and C10 = 0")
    gap = np.asarray(gap, dtype=float)
    th1 = theta(p, 1, sign)
    th2 = theta(p, 2, sign)
    phi0 = outer.phi0(gap)
    dphi0 = outer.phi0(gap, deriv=1)
    d2phi0 = outer.phi0(gap, deriv=2)
    psi, dpsi, d2psi, _ = outer.psi_bundle(sign, tau, gap=gap)
    I1 = (d2phi0 / phi0 + th1 * (dphi0 / phi0) ** 2) - (
        d2psi / psi + d.b1 * (dpsi / psi) ** 2
    )
    I2 = th2 * dphi0 / phi0 - d.b2 * dpsi / psi
    g = p.gamma
    return (p.n - 1) * (np.exp(-2.0 * g * tau) * I1 + np.exp(-g * tau) * I2)


def inner_residual_closed(barrier: GluedBarrier, xi, tau: float):
    """Closed form of L1 on the inner piece of a glued barrier:

    L1 = [ e^{-gt} (phibar0' C' - (1+gamma) phibar0) +/- eps gamma A phibar0' ]
         / (1 +/- eps),   evaluated at xi + C(tau).
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi > barrier.xi1):
        raise errors.OutOfDomain("closed inner residual only applies at xi <= xi1")
    p = barrier.outer.p
    arg = xi + barrier.C(tau)
    pb = barrier.profile.phibar0(arg)
    dpb = barrier.profile.phibar0(arg, deriv=1)
    cp = barrier.C_prime(tau)
    s = 1.0 if barrier.sign == "+" else -1.0
    num = np.exp(-p.gamma * tau) * (dpb * cp - (1.0 + p.gamma) * pb) + (
        s * barrier.eps * p.gamma * p.A * dpb
    )
    return num / barrier.factor
