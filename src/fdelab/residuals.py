"""Barrier operator residuals and sign verification over regions.

Outer operator (eta, tau variables; profile what = psi):

    L0(w) = w_tau - (n-1) { e^{-2 gamma tau} (w_ee/w + b1 w_e^2/w^2)
            + b2 e^{-gamma tau} w_e/w } - (gamma eta w_e + w - a0)

Inner operator (xi, tau variables; profile wbar):

    L1(w) = e^{-gamma tau} (w_tau - (1+gamma) w)
            - (n-1) { w_xx/w + b1 w_x^2/w^2 + b2 w_x/w } + a0 - gamma A w_x

A supersolution has residual >= 0, a subsolution <= 0.  Verification
samples a region grid of shape (n_tau, n_space), one row per tau, in one
evaluator call, compares against a pointwise atol proportional to the local
operator scale, and reports strict violations and the inconclusive fraction
separately.  The L0 evaluator is OuterProfileSet.l0_terms, the rescaled
cancellation-free form derived in the outer module; the L1 evaluator is
l1_terms_evaluator over a glued barrier, from the closed forms below.  A
region is a kind plus a tau window; three kinds are sampled, near_A and
far_field for L0 and inner_glued for L1, and the ends of each band come
from the threshold config (xi0, xi1, delta0, delta1) or, where no config
value applies, from the module constants _FAR_CUT and _XI_LO.

L1 of a glued barrier, in closed form on each side of the corner xi1.
Left (xi <= xi1), w = phibar0(s)/(1 +/- eps) at s = xi + C(tau): w_x and
w_tau are phibar0' and phibar0' C' over (1 +/- eps), the bracket of L1 does
not change when w is scaled, and the stationary equation makes (n-1) times
it at phibar0 equal a0 - gamma A phibar0'.  So

    L1 = [e^{-gamma tau} (phibar0' C' - (1+gamma) phibar0)
          +/- eps gamma A phibar0'] / (1 +/- eps),

with no phibar0'' and no O(1) terms cancelling to an O(phibar0) residual;
the scale, the three terms' magnitudes over (1 +/- eps), falls with phibar0,
so the margin over it does not decay as xi falls.  This treats phibar0 as
the exact solution; the table's gap to it is its stationary residual, which
the selfsim-tail check bounds.  phibar0' is read on the P route, phibar0
(2 + c P), not as the Z cubic's s-derivative (about 5e-8 relative apart):
(Z, P) is the state that solves the stationary equation, and C' divides by
the same phibar0' at xi1.  Right (xi > xi1), w = e^{gamma tau} psi(eta, tau)
at eta = A + xi e^{-gamma tau} gives w_x = psi_eta, w_xx = e^{-gamma tau}
psi_etaeta and e^{-gamma tau} (w_tau - (1+gamma) w) = psi_tau - gamma
(eta - A) psi_eta - psi, so L1(w) = L0(psi) exactly: e^{-gamma tau} times
l0_terms, residual and scale alike.

Outer thresholds.  psi^sign passes its L0 verdict for eta >= A + xi0
e^{-gamma tau}, tau >= tau_start, and find_thresholds computes xi0.  At
gap = xi e^{-gamma tau} with xi fixed, phi0, the phi2 part of h and the log
in phi3 (I ~ gamma log gap) give psi ~ e^{-gamma tau} F / (gamma A), and
L0(psi) -> G, with ' = d/dxi and c fixed by A, gamma and eta0:

    F = a0 xi + (n-1) theta1/xi + (n-1) theta2 (gamma tau - log xi) + theta2 c,
    G = (n-1) [theta2/xi + theta1/xi^2 - F''/F - b1 (F'/F)^2 - b2 F'/F].

The next terms, led by the log in phi1, are smaller by a relative
O(gamma tau e^{-gamma tau}).

Minus sign: theta2^- = 0, so tau, gamma and A drop out, and
xi^4 F^2 G / (n-1) is a quintic (_minus_quintic), negative at large xi as
b2 > 0.  psi^- > 0 needs F > 0, for theta1^- < 0 xi > sqrt((n-1)
|theta1^-|/a0), so G < 0 above xi*, the larger of that bound and the
largest real root (1.79506097 at n = 3, m = 0.1, theta1^- = -1).
xi0^- = max(cfg.xi0, 1.05 xi*): the smallest xi0 that passes the sampled
verdict lies above xi* by 0.23 (gamma 1.5), 0.45 (gamma 0.5) and at most
0.96 (eight parameter sets) times gamma tau_start e^{-gamma tau_start},
which the default tau_start (gamma tau_start >= log 160) keeps below 3.2%.
An xi0^- above xi1 is refused: the verdict must reach the glue corner.

Plus sign: F gains (n-1) theta2^+ gamma tau while F' and F'' do not depend
on tau, so G -> (n-1) (theta2^+/xi + theta1^+/xi^2) > 0, with no positive
root.  At tau_start G < 0 only below xi = 0.0090 (gamma 1.5) and 0.0148
(gamma 0.5), where the sampled verdict stops passing too, and that end
falls as tau grows; so xi0^+ is the floor cfg.xi0 for tau >= tau_start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import errors
from .matching import GluedBarrier
from .outer import OuterProfileSet, _math_exp
from .params import theta

__all__ = [
    "l1_terms_evaluator",
    "Region",
    "ResidualReport",
    "verify_sign_region",
    "find_thresholds",
]


def l1_terms_evaluator(barrier: GluedBarrier):
    """The L1 residual of a glued barrier with its term-magnitude scale, as
    a terms_fn for verify_sign_region, from the closed forms of the module
    docstring.  C and C' are read at the taus whose row reaches xi <= xi1,
    from one edge reading, and e^{-gamma tau} from outer._math_exp, so
    each row equals a call at its own tau, bit for bit."""
    p, g = barrier.outer.p, barrier.outer.p.gamma
    pm_eps = barrier.eps if barrier.sign == "+" else -barrier.eps

    def ev(xi, tau):
        xi, taus = np.asarray(xi, dtype=float), np.ravel(tau)
        col = _math_exp(-g, taus)[:, None]
        res, scale = np.empty(xi.shape), np.empty(xi.shape)
        left = xi <= barrier.xi1
        if np.any(left):
            rows = left.any(axis=1)
            shifts = np.zeros((2, taus.size, 1))
            shifts[:, rows, 0] = barrier.C_and_C_prime(taus[rows])
            C, Cp, e = (np.broadcast_to(a, xi.shape)[left] for a in (*shifts, col))
            v, dv, _ = barrier.profile.phibar0(xi[left] + C, derivs=True)
            if np.any(v <= 0.0):
                raise errors.NonPositiveProfile("inner profile <= 0 inside L1")
            terms = (e * dv * Cp, -e * (1.0 + g) * v, pm_eps * g * p.A * dv)
            res[left] = (terms[0] + terms[1] + terms[2]) / barrier.factor
            scale[left] = (np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2])) / barrier.factor
        right = ~left
        if np.any(right):
            e, t = (np.broadcast_to(a, xi.shape)[right] for a in (col, taus[:, None]))
            r, sc = barrier.outer.l0_terms(barrier.sign, t, gap=xi[right] * e)
            res[right], scale[right] = e * r, e * sc
        return res, scale

    return ev


# -- region sweeps -------------------------------------------------------------


# Ends of the bands that the config does not set: gap 2e4 for the far
# field, xi = -7 for the inner band.  -7 is no resolution limit (the inner
# margin over its scale does not decay); where the band should start, the
# table start with the core law below it, is open, so the grid stays put.
_FAR_CUT = 2e4
_XI_LO = -7.0


@dataclass(frozen=True)
class Region:
    """Sampling region: a kind and a tau window.  The band ends come from
    the config passed to verify_sign_region and the constants above;
    find_thresholds passes the config with its computed xi0.

    Outer regions of the L0 verdicts (space variable = gap = eta - A,
    log-spaced):
      kind = "near_A":    gap in [xi0 e^{-gamma tau}, delta0], per tau.
      kind = "far_field": gap in [delta0, _FAR_CUT], tau-independent.
    Inner region of the L1 verdict (space variable = xi, linear):
      kind = "inner_glued": xi in [_XI_LO, xi1 + delta1], corner skipped.
    """

    kind: str
    tau_lo: float
    tau_hi: float


_OUTER_KINDS = ("near_A", "far_field")


@dataclass
class ResidualReport:
    """One sign verdict, in the layout of the report: its fields are the
    keys the report writes, and the report serializes it as it stands, so
    a field added here appears in the report.  kind and tau_window are
    those of the sampled Region; worst_point is (space, tau, residual)."""

    operator: str
    kind: str
    want: str
    tau_window: tuple
    n_points: int = 0
    n_violations: int = 0
    n_inconclusive: int = 0
    min_residual: float = math.inf
    max_residual: float = -math.inf
    worst_point: tuple = ()
    passed: bool = False
    inconclusive_frac: float = 0.0


def _space_grid(region: Region, taus, cfg, gamma: float):
    """Space grid of shape (len(taus), cfg.grid_eta); row i belongs to
    taus[i], and the band ends come from cfg.

    Kinds that do not depend on tau repeat one row.  Raises EmptyRegion
    when a band or the corner-masked row has no points, or when the lower
    end of a near_A row underflows to 0.
    """
    taus = np.asarray(taus, dtype=float)
    n_space = cfg.grid_eta
    if region.kind == "near_A":
        lo = cfg.xi0 * _math_exp(-gamma, taus)
        empty = lo >= cfg.delta0
        if np.any(empty):
            tau = float(taus[np.argmax(empty)])
            raise errors.EmptyRegion(
                f"near_A region empty at tau={tau}: xi0 e^(-gamma tau) >= delta0"
            )
        if np.any(lo == 0.0):
            tau = float(taus[np.argmax(lo == 0.0)])
            raise errors.EmptyRegion(
                f"near_A region unresolvable at tau={tau}: xi0 e^(-gamma tau) "
                "underflows to 0"
            )
        return np.geomspace(lo, cfg.delta0, n_space, axis=1)
    if region.kind == "far_field":
        row = np.geomspace(cfg.delta0, _FAR_CUT, n_space)
    elif region.kind == "inner_glued":
        row = np.linspace(_XI_LO, cfg.xi1 + cfg.delta1, n_space)
        row = row[np.abs(row - cfg.xi1) > 1e-9]
        if row.size == 0:
            raise errors.EmptyRegion(
                "inner_glued region empty: every point sits on the corner xi1"
            )
    else:
        raise errors.InvalidParameter(f"unknown region kind {region.kind!r}")
    return np.tile(row, (taus.size, 1))


def verify_sign_region(terms_fn, want: str, region: Region, p, cfg) -> ResidualReport:
    """Sample the residual over the region and classify the sign verdict.

    The grid has cfg.grid_eta points in space and cfg.grid_tau in tau; the
    region kind fixes the space variable and the report's operator label
    (L0 for near_A and far_field, L1 for inner_glued), and cfg the band
    ends (see _space_grid).  terms_fn(space, tau) -> (residual, scale)
    supplies the residual together with its local term-magnitude scale;
    use OuterProfileSet.l0_terms (rescaled L0, as find_thresholds binds
    it) or l1_terms_evaluator.  It is called
    once, with space the whole grid of shape (n_tau, n_space) and tau an
    (n_tau, 1) column (row i of space belongs to tau[i, 0]), and must
    return arrays of the grid's shape.

    want: "+" for supersolution (residual >= 0), "-" for subsolution.
    A point is a strict violation when the residual crosses beyond
    atol = cfg.sign_atol_factor * scale in the forbidden direction,
    inconclusive when |residual| <= atol.  A point whose residual or scale
    is not finite counts as a violation.  Passing requires zero violations
    and an inconclusive fraction at most cfg.inconclusive_frac.  The worst
    point is the first non-finite point if there is one, else the first
    minimum of signed residual / atol, in tau order, then in space order.
    A grid with no points raises InvalidParameter.
    """
    n_space, n_tau = cfg.grid_eta, cfg.grid_tau
    if want not in ("+", "-"):
        raise errors.InvalidParameter(f"want must be '+' or '-', got {want!r}")
    if n_space < 1 or n_tau < 1:
        raise errors.InvalidParameter(
            f"sampling grid has no points: n_space={n_space}, n_tau={n_tau}"
        )
    taus = np.linspace(region.tau_lo, region.tau_hi, n_tau)
    space = _space_grid(region, taus, cfg, p.gamma)
    res, scale = terms_fn(space, taus[:, None])
    res = np.asarray(res, dtype=float)
    atol = cfg.sign_atol_factor * np.asarray(scale, dtype=float)
    if res.shape != space.shape or atol.shape != space.shape:
        raise errors.InvalidParameter(
            f"terms_fn returned shapes {res.shape} and {atol.shape} "
            f"for a grid of shape {space.shape}"
        )
    signed = res if want == "+" else -res
    broken = ~(np.isfinite(res) & np.isfinite(atol))
    if broken.any():
        worst = int(np.argmax(broken))
    else:
        # at sign_atol_factor 0 the ratio overflows to +/-inf, keeping its sign
        with np.errstate(over="ignore"):
            worst = int(np.argmin(signed / np.maximum(atol, 1e-300)))
    i, j = np.unravel_index(worst, res.shape)
    n_violations = int(np.count_nonzero((signed < -atol) | broken))
    n_inconclusive = int(np.count_nonzero((np.abs(res) <= atol) & ~broken))
    frac = n_inconclusive / res.size
    return ResidualReport(
        operator="L0" if region.kind in _OUTER_KINDS else "L1",
        kind=region.kind,
        want=want,
        tau_window=(region.tau_lo, region.tau_hi),
        n_points=res.size,
        n_violations=n_violations,
        n_inconclusive=n_inconclusive,
        min_residual=float(np.min(res)),
        max_residual=float(np.max(res)),
        worst_point=(float(space[i, j]), float(taus[i]), float(res[i, j])),
        passed=n_violations == 0 and frac <= cfg.inconclusive_frac,
        inconclusive_frac=frac,
    )


# relative margin of the minus threshold over its leading-order root xi*
# (module docstring)
_XI0_MARGIN = 0.05


def _minus_quintic(p) -> list:
    """Coefficients, highest power first, of the quintic P whose sign is the
    sign of the leading-order minus residual G (module docstring)."""
    d, th = p.d, p.theta1_minus
    c1 = (p.n - 1) * th
    return [
        -d.b2 * d.a0 ** 2,
        (th - d.b1) * d.a0 ** 2,
        0.0,
        2.0 * d.a0 * c1 * (th + d.b1 - 1.0),
        d.b2 * c1 * c1,
        (th - d.b1 - 2.0) * c1 * c1,
    ]


def find_thresholds(outer: OuterProfileSet, sign: str) -> dict:
    """The outer thresholds of psi^sign and their sign verdicts (a
    supersolution for "+", a subsolution for "-").

    xi0 is computed as in the module docstring; tau_start and delta0 are
    the config's.  Each band (near_A, far_field) is sampled over
    [tau_start, tau_start + 20] and, if all pass, over [tau_start + 5,
    tau_start + 25].  Returns the thresholds, "passed" and "reports" (by
    kind, from the first window or from the one that failed).  An empty
    band or a non-positive profile fails the verdict, with its message
    under "error".  A bad sign, for "+" C10 >= outer.C10_star (kappa <= 0,
    see the outer module), or for "-" a computed xi0 > xi1 raises
    InvalidParameter, and a quintic that overflows raises NonFinite.
    """
    p, cfg = outer.p, outer.cfg
    th1 = theta(p, 1, sign)
    if sign == "+" and outer.C10 >= outer.C10_star:
        kappa = p.theta2_plus * p.gamma * (outer.C10_star - outer.C10)
        raise errors.InvalidParameter(
            f"C10 = {outer.C10:g} is not below C10* = {outer.C10_star:.6g}: the "
            f"far-field coefficient kappa = {kappa:.6g} of the plus L0 residual "
            "is not positive, so the supersolution verdict fails far out"
        )
    xi0 = cfg.xi0
    if sign == "-":
        quintic = _minus_quintic(p)
        if not np.all(np.isfinite(quintic)):
            raise errors.NonFinite(f"minus threshold quintic overflows at theta1- = {th1:g}")
        roots = np.roots(quintic)
        real = roots.real[np.abs(roots.imag) <= 1e-9 * np.abs(roots)]
        xi_star = max(math.sqrt((p.n - 1) * max(-th1, 0.0) / p.d.a0), *real)
        xi0 = max(xi0, (1.0 + _XI0_MARGIN) * xi_star)
        if xi0 > cfg.xi1:
            raise errors.InvalidParameter(f"minus threshold xi0 = {xi0:.6g} exceeds xi1 = "
                                          f"{cfg.xi1:g}, so the verdict misses the glue corner")
    band = replace(cfg, xi0=xi0)

    def ev(gap, tau):
        return outer.l0_terms(sign, tau, gap=gap)

    th = {
        "sign": sign,
        "tau_start": cfg.tau_start,
        "xi0": xi0,
        "delta0": cfg.delta0,
        "passed": False,
        "reports": {},
    }
    try:
        for tau in (cfg.tau_start, cfg.tau_start + 5.0):
            reports = {
                kind: verify_sign_region(ev, sign, Region(kind, tau, tau + 20.0), p, band)
                for kind in _OUTER_KINDS
            }
            if not all(rep.passed for rep in reports.values()):
                th["reports"] = reports
                return th
            th["reports"] = th["reports"] or reports
    except (errors.EmptyRegion, errors.NonPositiveProfile) as exc:
        th["error"] = str(exc)
        return th
    th["passed"] = True
    return th
