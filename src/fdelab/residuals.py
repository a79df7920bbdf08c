"""Barrier operator residuals and sign verification over regions.

Outer operator (eta, tau variables; profile what = psi):

    L0(w) = w_tau - (n-1) { e^{-2 gamma tau} (w_ee/w + b1 w_e^2/w^2)
            + b2 e^{-gamma tau} w_e/w } - (gamma eta w_e + w - a0)

Inner operator (xi, tau variables; profile wbar):

    L1(w) = e^{-gamma tau} (w_tau - (1+gamma) w)
            - (n-1) { w_xx/w + b1 w_x^2/w^2 + b2 w_x/w } + a0 - gamma A w_x

A supersolution has residual >= 0, a subsolution <= 0.  Verification
samples a region in chunks of consecutive taus, at most _CHUNK_POINTS
points each, one evaluator call per chunk, its space samples against the
chunk's tau column: one space row that every tau shares where the band
does not depend on tau, the chunk's row per tau for near_A, whose lower
end moves with tau.  It compares against a pointwise atol proportional to
the local operator scale, folds each chunk's counts, extremes and worst
point into the verdict as it arrives, and reports strict violations and
the inconclusive fraction separately.  The L0 evaluator is
OuterProfileSet.l0_terms, the rescaled cancellation-free form derived in the outer module; the L1 evaluator is
l1_terms_evaluator, right of the glue corner xi1, and left of it
verify_inner decides L1's sign in closed form (below).  A region is a kind
plus a tau window; three kinds are sampled, near_A and far_field for L0
and inner_glued for L1, and the ends of each band come from the threshold
config (xi0, xi1, delta0, delta1), the far field's outer end from the
module constant _FAR_CUT.

L1 of a glued barrier, on each side of the corner xi1.  Right (xi > xi1),
w = e^{gamma tau} psi(eta, tau) at eta = A + xi e^{-gamma tau} gives
w_x = psi_eta, w_xx = e^{-gamma tau} psi_etaeta and e^{-gamma tau} (w_tau
- (1+gamma) w) = psi_tau - gamma (eta - A) psi_eta - psi, so L1(w) =
L0(psi) exactly: e^{-gamma tau} times l0_terms, residual and scale alike.
Left (xi <= xi1), w = phibar0(s)/(1 +/- eps) at s = xi + C(tau): w_x and
w_tau are phibar0' and phibar0' C' over (1 +/- eps), the bracket of L1 does
not change when w is scaled, and the stationary equation makes (n-1) times
it at phibar0 equal a0 - gamma A phibar0'.  So

    L1 = [e^{-gamma tau} (phibar0' C' - (1+gamma) phibar0)
          +/- eps gamma A phibar0'] / (1 +/- eps),

and, divided by phibar0'/(1 +/- eps) > 0, L1 has the sign of the margin

    m(tau, s) = e^{-gamma tau} (C' - (1+gamma) h(s)) +/- eps gamma A,
    h = phibar0/phibar0'.

h is 1/2 on the core law (phibar0' = 2 phibar0), 1/(2 + c P) on the table
(phibar0' = phibar0 (2 + c P), selfsim) and g/g' on the tail expansion g.
So h is nondecreasing in s from 1/2 when P starts at or below 0 and does
not increase over the table's steps, h does not step down where the tail
takes over, and g/g' does not decrease on the tail;
SelfSimilarProfile.ratio_nondecreasing checks that on the s range the
margins read.  Then, at each tau and over every xi <= xi1, xi ->
-infinity included, the plus margin is smallest at the corner, h =
h(xi1 + C+(tau)), and the minus margin is largest on the core, h = 1/2:
left_margin gives these two scalars per tau, over the scale e^{-gamma tau}
(|C'| + (1+gamma) h) + eps gamma A, the three terms' magnitudes.  This
treats phibar0 as the exact solution; the table's gap to it is its
stationary residual, which the selfsim-tail check bounds.  phibar0' is read
on the P route, phibar0 (2 + c P), not as the Z cubic's s-derivative (about
5e-8 relative apart): (Z, P) is the state that solves the stationary
equation, and C' divides by the same phibar0' at xi1.

Start of the inner verdict.  verify_inner reads both margins on one tau
column from tau_match, at the sampled verdict's tau step 6/(grid_tau - 1).
Each margin is the constant +/- eps gamma A plus e^{-gamma tau} B(tau),
where B is bounded for the minus sign (C-' -> 0 as C- converges) and
grows at most linearly for the plus sign (C+' tends to a constant slope,
and h(s) ~ s on the tail).  So the sign settles once e^{-gamma tau} |B|
falls below eps gamma A, and over 12/gamma e^{-gamma tau} B falls by
e^{-12} = 6e-6 times B's linear growth.  The column spans 6 + 12/gamma:
a start within twelve e-folds of e^{-gamma tau} past tau_match, and the
sampled window of 6 after it.  tau*+/- is the first column tau from which
the margin keeps the barrier's sign, beyond sign_atol_factor times its
scale, to the column's end; a start that leaves less than 6 before the end
counts as none.  tau3 = max(tau_match, tau*+, tau*-), and the right half
(xi1, xi1 + delta1] is sampled over [tau3, tau3 + 6].  The margins say
nothing of tau past the column's end.

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
largest real root (1.79506097 at n = 3, m = 0.1, theta1^- = -1).  That
root is isolated between the real roots of the derivatives and bisected
with signs taken in exact integer arithmetic (polyroot), so it
is the float nearest the root of the quintic's float coefficients, with
no LAPACK call.
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
from .matching import _SIGN_FACTOR, GluedBarrier
from .outer import OuterProfileSet, _math_exp
from .params import theta

__all__ = [
    "l1_terms_evaluator",
    "left_margin",
    "verify_inner",
    "Region",
    "ResidualReport",
    "verify_sign_region",
    "find_thresholds",
]


def l1_terms_evaluator(barrier: GluedBarrier):
    """The L1 residual of a glued barrier right of its corner xi1, with its
    term-magnitude scale, as a terms_fn for verify_sign_region: e^{-gamma
    tau} times l0_terms at the mapped gaps xi e^{-gamma tau} (module
    docstring).  Like GluedBarrier.wbar it takes one xi row that every tau
    shares, here against a tau column, and returns arrays of shape (n_tau,
    n_xi); every xi must lie right of xi1, where the left side's closed form
    is left_margin.  e^{-gamma tau} comes from outer._math_exp, once per
    tau, so each row equals a call at its own tau, bit for bit."""
    g = barrier.outer.p.gamma

    def ev(xi, tau):
        taus = np.ravel(tau)
        col = _math_exp(-g, taus)[:, None]
        r, sc = barrier.outer.l0_terms(barrier.sign, taus[:, None], gap=np.ravel(xi) * col)
        return col * r, col * sc

    return ev


def left_margin(barrier: GluedBarrier, taus):
    """(margin, scale, corner) per tau: the margin m of L1 left of xi1 that
    decides its sign on every xi <= xi1 (module docstring), at the corner
    h = h(xi1 + C) for the plus sign and on the core h = 1/2 for the minus
    sign; the sum of its three terms' magnitudes; and the corner's
    s = xi1 + C.  One C_and_C_prime reading, and for the plus sign one
    phibar0 call."""
    p = barrier.outer.p
    C, Cp = barrier.C_and_C_prime(taus)
    corner = barrier.xi1 + C
    h = np.divide(*barrier.profile.phibar0(corner, derivs=True)[:2]) if barrier.sign == "+" else 0.5
    e = _math_exp(-p.gamma, taus)
    terms = (e * Cp, -e * (1.0 + p.gamma) * h,
             _SIGN_FACTOR[barrier.sign] * barrier.eps * p.gamma * p.A)
    scale = np.abs(terms[0]) + np.abs(terms[1]) + abs(terms[2])
    return terms[0] + terms[1] + terms[2], scale, corner


# the left margins' tau column: the sampled window of 6 past a start within
# twelve e-folds of e^{-gamma tau} (module docstring)
_COLUMN_EFOLDS = 12.0


def verify_inner(bars, tau_match: float) -> dict:
    """The inner sign verdict of the glued pair bars = (plus, minus) from
    its start tau3 (module docstring): "passed", tau3, the tau column read,
    per sign tau* and the smallest left margin over its scale from tau3
    (with its tau), the h check, and the right half's sampled reports over
    [tau3, tau3 + 6].  A sign whose margin finds no start on the column,
    or an h that is not nondecreasing on the s range read, fails the
    verdict before any sampling, with tau3 None and the reason under
    "error"."""
    p, cfg = bars[0].outer.p, bars[0].outer.cfg
    step = 6.0 / (cfg.grid_tau - 1)
    taus = tau_match + step * np.arange(math.ceil((6.0 + _COLUMN_EFOLDS / p.gamma) / step) + 1)
    out = {"passed": False, "tau3": None, "tau_column": [tau_match, float(taus[-1])],
           "tau_star": {}, "left_margin": {}, "reports": {}}
    margins = {bar.sign: left_margin(bar, taus) for bar in bars}
    for sign, (m, scale, _) in margins.items():
        keeps = _SIGN_FACTOR[sign] * m > cfg.sign_atol_factor * scale
        start = np.logical_and.accumulate(keeps[::-1])[::-1] & (taus + 6.0 <= taus[-1])
        out["tau_star"][sign] = float(taus[start][0]) if start.any() else None
    s_hi = max(float(np.max(corner)) for _, _, corner in margins.values())
    out["h_nondecreasing"] = bars[0].profile.ratio_nondecreasing(s_hi)
    missing = [{"+": "plus", "-": "minus"}[s] for s, tau in out["tau_star"].items() if tau is None]
    if missing or not out["h_nondecreasing"]:
        out["error"] = (f"the {' and '.join(missing)} left margin finds no start on the tau column"
                        if missing else f"h = phibar0/phibar0' falls on s <= {s_hi:.6g}")
        return out
    out["tau3"] = tau3 = max(out["tau_star"].values())
    j = int(np.searchsorted(taus, tau3))
    for sign, (m, scale, _) in margins.items():
        ratio = _SIGN_FACTOR[sign] * m[j:] / scale[j:]
        out["left_margin"][sign] = {"min_over_scale": float(ratio.min()),
                                    "tau": float(taus[j + int(ratio.argmin())])}
    region = Region("inner_glued", tau3, tau3 + 6.0)
    out["reports"] = {b.sign: verify_sign_region(l1_terms_evaluator(b), b.sign, region, p, cfg)
                      for b in bars}
    out["passed"] = all(rep.passed for rep in out["reports"].values())
    return out


# -- region sweeps -------------------------------------------------------------


# The far field's outer end, gap 2e4.
_FAR_CUT = 2e4


@dataclass(frozen=True)
class Region:
    """Sampling region: a kind and a tau window.  The band ends come from
    the config passed to verify_sign_region and from _FAR_CUT;
    find_thresholds passes the config with its computed xi0.

    Outer regions of the L0 verdicts (space variable = gap = eta - A,
    log-spaced):
      kind = "near_A":    gap in [xi0 e^{-gamma tau}, delta0], a row per tau.
      kind = "far_field": gap in [delta0, _FAR_CUT], one row for every tau.
    Inner region of the L1 verdict (space variable = xi, linear):
      kind = "inner_glued": xi in (xi1, xi1 + delta1], the corner left
                            out, one row for every tau; left of xi1 the
                            margins of verify_inner decide L1's sign.
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
    """Space samples of the region, with the band ends from cfg: for
    near_A, whose lower end xi0 e^{-gamma tau} moves with tau, a grid of
    shape (len(taus), cfg.grid_eta) with row i at taus[i]; for far_field
    and inner_glued, which do not depend on tau, one (1, n) row that every
    tau shares; inner_glued's row is the n points of (xi1, xi1 + delta1]
    after xi1 on an even grid.  Raises EmptyRegion when a near_A band is
    empty or its lower end underflows to 0.
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
        row = np.linspace(cfg.xi1, cfg.xi1 + cfg.delta1, n_space + 1)[1:]
    else:
        raise errors.InvalidParameter(f"unknown region kind {region.kind!r}")
    return row[None, :]


def _chunk_point(space, taus, res, at):
    """(space, tau, residual) at the flat index at of a chunk's residual."""
    i, j = np.unravel_index(at, res.shape)
    return float(np.broadcast_to(space, res.shape)[i, j]), float(taus[i]), float(res[i, j])


# Points of one verdict chunk.  l0_terms holds about 190-250 B per point at
# its peak (tracemalloc), so a chunk's working set is 0.4-0.5 MB, below the
# 0.54 MB that one wbar call on a barrier block of the sandwich holds
# (pde._BLOCK_POINTS); one pass over verify's 200 x 40 grid held 1.5 MB.
_CHUNK_POINTS = 2048


def verify_sign_region(terms_fn, want: str, region: Region, p, cfg) -> ResidualReport:
    """Sample the residual over the region and classify the sign verdict.

    The grid has cfg.grid_eta points in space and cfg.grid_tau in tau; the
    region kind fixes the space variable and the report's operator label
    (L0 for near_A and far_field, L1 for inner_glued), and cfg the band
    ends (see _space_grid).  terms_fn(space, tau) -> (residual, scale)
    supplies the residual together with its local term-magnitude scale;
    use OuterProfileSet.l0_terms (rescaled L0, as find_thresholds binds
    it) or l1_terms_evaluator.  It is called once per chunk of
    max(1, _CHUNK_POINTS // grid_eta) consecutive taus, with tau the
    chunk's (n_chunk, 1) column and space what _space_grid gives: the one
    (1, n_space) row that every tau shares, built once per verdict, or for
    near_A the chunk's (n_chunk, n_space) grid, whose row i belongs to
    tau[i, 0].  It must return arrays of the shape the two broadcast to,
    (n_chunk, n_space), one value per point the report counts.  So no
    (n_tau, n_space) array is ever built: the verdict's working set is one
    chunk's (see _CHUNK_POINTS for the budget's measured derivation), or
    one space row's when grid_eta exceeds the budget.

    want: "+" for supersolution (residual >= 0), "-" for subsolution.
    A point is a strict violation when the residual crosses beyond
    atol = cfg.sign_atol_factor * scale in the forbidden direction,
    inconclusive when |residual| <= atol.  A point whose residual or scale
    is not finite counts as a violation.  Passing requires zero violations
    and an inconclusive fraction at most cfg.inconclusive_frac.  The worst
    point is the first non-finite point if there is one, else the first
    minimum of signed residual / atol, in tau order, then in space order.
    Each chunk's counts, np.minimum/np.maximum extremes (a NaN carries
    through) and worst candidate are folded in as it arrives, so the
    report is the one a single pass over the whole grid gives.  A grid
    with no points raises InvalidParameter; a band that is empty or
    underflows raises EmptyRegion at the first chunk that holds such a tau.
    """
    n_space, n_tau = cfg.grid_eta, cfg.grid_tau
    if want not in ("+", "-"):
        raise errors.InvalidParameter(f"want must be '+' or '-', got {want!r}")
    if n_space < 1 or n_tau < 1:
        raise errors.InvalidParameter(
            f"sampling grid has no points: n_space={n_space}, n_tau={n_tau}"
        )
    taus = np.linspace(region.tau_lo, region.tau_hi, n_tau)
    step = max(1, _CHUNK_POINTS // n_space)
    shared = None if region.kind == "near_A" else _space_grid(region, taus, cfg, p.gamma)
    n_violations = n_inconclusive = 0
    lo, hi = math.inf, -math.inf
    broken_at = best = None  # the first non-finite point; (ratio, point) of the first minimum
    for k in range(0, n_tau, step):
        tau = taus[k:k + step]
        space = _space_grid(region, tau, cfg, p.gamma) if shared is None else shared
        shape = (tau.size, space.shape[1])
        res, scale = terms_fn(space, tau[:, None])
        res = np.asarray(res, dtype=float)
        atol = cfg.sign_atol_factor * np.asarray(scale, dtype=float)
        if res.shape != shape or atol.shape != shape:
            raise errors.InvalidParameter(
                f"terms_fn returned shapes {res.shape} and {atol.shape} "
                f"for a chunk of shape {shape}"
            )
        signed = res if want == "+" else -res
        broken = ~(np.isfinite(res) & np.isfinite(atol))
        n_violations += int(np.count_nonzero((signed < -atol) | broken))
        n_inconclusive += int(np.count_nonzero((np.abs(res) <= atol) & ~broken))
        lo, hi = float(np.minimum(lo, np.min(res))), float(np.maximum(hi, np.max(res)))
        if broken_at is not None:
            continue
        if broken.any():
            broken_at = _chunk_point(space, tau, res, int(np.argmax(broken)))
            continue
        # at sign_atol_factor 0 the ratio overflows to +/-inf, keeping its sign
        with np.errstate(over="ignore"):
            ratio = signed / np.maximum(atol, 1e-300)
        at = int(np.argmin(ratio))
        if best is None or ratio.flat[at] < best[0]:
            best = (ratio.flat[at], _chunk_point(space, tau, res, at))
    n_points = n_tau * n_space
    frac = n_inconclusive / n_points
    return ResidualReport(
        operator="L0" if region.kind in _OUTER_KINDS else "L1",
        kind=region.kind,
        want=want,
        tau_window=(region.tau_lo, region.tau_hi),
        n_points=n_points,
        n_violations=n_violations,
        n_inconclusive=n_inconclusive,
        min_residual=lo,
        max_residual=hi,
        worst_point=broken_at or best[1],
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
    InvalidParameter, a quintic that overflows raises NonFinite and one
    without a real root NonConvergent.
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
        # imported here, so that simulate, which imports this module but finds
        # no thresholds, does not compile polyroot
        from .polyroot import largest_real_root

        xi_star = max(math.sqrt((p.n - 1) * max(-th1, 0.0) / p.d.a0),
                      largest_real_root(quintic))
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
