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
l1_terms_evaluator over a glued barrier.  A region is a kind plus a tau
window; three kinds are sampled, near_A and far_field for L0 and
inner_glued for L1, and the ends of each band come from the threshold
config (xi0, xi1, delta0, delta1) or, where no config value applies, from
the module constants _FAR_CUT and _XI_LO.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import errors
from .matching import GluedBarrier
from .outer import OuterProfileSet, branch_variant
from .params import radial_diffusion, theta

__all__ = [
    "l1_terms_evaluator",
    "Region",
    "ResidualReport",
    "verify_sign_region",
    "find_thresholds",
]


def l1_terms_evaluator(barrier: GluedBarrier):
    """The L1 residual of a glued barrier with its term-magnitude scale, as
    a terms_fn for verify_sign_region.

    It takes xi of shape (n_tau, n_space) and the (n_tau, 1) tau column and
    evaluates one barrier.bundle call per row, since C(tau) and C'(tau)
    are taken at one tau.
    """
    p = barrier.outer.p
    d, g = p.d, p.gamma

    def ev(xi, tau):
        rows = [barrier.bundle(x, float(t)) for x, t in zip(xi, np.ravel(tau))]
        w, wx, wxx, wt = (np.stack(part) for part in zip(*rows))
        if np.any(w <= 0.0):
            raise errors.NonPositiveProfile("inner profile <= 0 inside L1")
        e1 = np.exp(-g * tau)
        terms = (
            e1 * (wt - (1.0 + g) * w),
            -radial_diffusion(p, w, wx, wxx),
            np.full_like(w, d.a0),
            -g * p.A * wx,
        )
        res = terms[0] + terms[1] + terms[2] + terms[3]
        scale = sum(np.abs(t) for t in terms)
        return res, scale

    return ev


# -- region sweeps -------------------------------------------------------------


# Ends of the bands that the config does not set.  The far-field band is
# cut at gap 2e4.  The inner band starts at xi = -7 to respect the verdict
# resolution: the "-" barrier's inner margin decays like e^{2(xi + C2)}
# with C2 bounded, so below xi ~ -8 it falls under atol = 1e-9 * a0 at
# every tau and the points can only ever be inconclusive.
_FAR_CUT = 2e4
_XI_LO = -7.0


@dataclass(frozen=True)
class Region:
    """Sampling region: a kind and a tau window.  The band ends come from
    the config passed to verify_sign_region and the constants above.

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
    operator: str
    region: Region
    want: str
    n_points: int = 0
    n_violations: int = 0
    n_inconclusive: int = 0
    min_residual: float = math.inf
    max_residual: float = -math.inf
    worst_point: tuple = ()
    passed: bool = False
    inconclusive_frac: float = 0.0

    def to_dict(self) -> dict:
        out = {
            "operator": self.operator,
            "kind": self.region.kind,
            "want": self.want,
            "tau_window": [self.region.tau_lo, self.region.tau_hi],
            "n_points": self.n_points,
            "n_violations": self.n_violations,
            "n_inconclusive": self.n_inconclusive,
            "inconclusive_frac": self.inconclusive_frac,
            "min_residual": self.min_residual,
            "max_residual": self.max_residual,
            "worst_point": list(self.worst_point),
            "passed": self.passed,
        }
        return out


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
        lo = np.array([cfg.xi0 * math.exp(-gamma * float(t)) for t in taus])
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
    report = ResidualReport(
        operator="L0" if region.kind in _OUTER_KINDS else "L1",
        region=region,
        want=want,
        n_points=res.size,
        n_violations=int(np.count_nonzero((signed < -atol) | broken)),
        n_inconclusive=int(np.count_nonzero((np.abs(res) <= atol) & ~broken)),
        min_residual=float(np.min(res)),
        max_residual=float(np.max(res)),
        worst_point=(float(space[i, j]), float(taus[i]), float(res[i, j])),
    )
    report.inconclusive_frac = report.n_inconclusive / report.n_points
    report.passed = (
        report.n_violations == 0
        and report.inconclusive_frac <= cfg.inconclusive_frac
    )
    return report


# rungs of the threshold ladder: doublings of tau_start and xi0, halvings
# of delta0
_TAU_DOUBLINGS = 3
_XI_DOUBLINGS = 6
_DELTA_HALVINGS = 3


def find_thresholds(
    outer: OuterProfileSet,
    sign: str,
    regions: tuple = ("near_A", "far_field"),
) -> dict:
    """Search thresholds making the outer sign verdicts of psi^sign pass.

    The verdict wanted is the sign itself: a supersolution for "+", a
    subsolution for "-".  Realizes the existential constants: starting
    from the configured (tau_start, xi0, delta0), the ladder doubles
    tau_start and xi0 and halves delta0 (preferring small tau, then small
    xi0, then few delta halvings) until every requested region verdict
    passes over the tau window [tau_start, tau_start + 20]; the first
    passing tuple is re-verified at tau_start + 5 (the verdict must be
    tau-monotone) and recorded.  Only an empty band (EmptyRegion) or a
    non-positive profile makes a rung infeasible; a bad sign or region
    kind raises InvalidParameter before the ladder starts, and so does a
    plus far-field search at C10 >= outer.C10_star, where the leading
    far-field coefficient kappa of the plus residual is not positive (see
    the outer module) and no rung can pass.  Raises
    ThresholdSearchExhausted when the ladder is exhausted.  The starting
    xi0 respects the lower bound sqrt((n-1)|theta1|/a0).
    """
    p, cfg = outer.p, outer.cfg
    if not regions or any(kind not in _OUTER_KINDS for kind in regions):
        raise errors.InvalidParameter(
            f"regions must be outer kinds from {_OUTER_KINDS}, got {regions!r}"
        )

    th1 = theta(p, 1, sign)
    if sign == "+" and "far_field" in regions and outer.C10 >= outer.C10_star:
        kappa = p.theta2_plus * p.gamma * (outer.C10_star - outer.C10)
        raise errors.InvalidParameter(
            f"C10 = {outer.C10:g} is not below C10* = {outer.C10_star:.6g}: the "
            f"far-field coefficient kappa = {kappa:.6g} of the plus L0 residual "
            "is not positive, so the supersolution verdict fails far out"
        )
    variant = branch_variant(p.gamma)

    def ev(gap, tau):
        return outer.l0_terms(sign, tau, gap=gap)

    xi0_base = max(cfg.xi0, math.sqrt((p.n - 1) * abs(th1) / p.d.a0))

    def regions_pass(tau_start, xi0, delta0):
        reports = {}
        rung = replace(cfg, xi0=xi0, delta0=delta0)
        for kind in regions:
            region = Region(kind=kind, tau_lo=tau_start, tau_hi=tau_start + 20.0)
            try:
                rep = verify_sign_region(ev, sign, region, p, rung)
            except (errors.EmptyRegion, errors.NonPositiveProfile):
                # infeasible tuple (empty band / profile not yet positive)
                return False, reports
            reports[kind] = rep
            if not rep.passed:
                return False, reports
        return True, reports

    steps = 0
    for k_tau in range(_TAU_DOUBLINGS + 1):
        tau_start = cfg.tau_start * 2.0 ** k_tau
        for k_xi in range(_XI_DOUBLINGS + 1):
            xi0 = xi0_base * 2.0 ** k_xi
            for k_delta in range(_DELTA_HALVINGS + 1):
                delta0 = cfg.delta0 / 2.0 ** k_delta
                steps += 1
                ok, reports = regions_pass(tau_start, xi0, delta0)
                if not ok:
                    continue
                ok5, reports5 = regions_pass(tau_start + 5.0, xi0, delta0)
                if not ok5:
                    continue
                return {
                    "variant": variant,
                    "sign": sign,
                    "tau_start": tau_start,
                    "xi0": xi0,
                    "delta0": delta0,
                    "ladder_steps": steps,
                    "reports": reports,
                }
    raise errors.ThresholdSearchExhausted(
        f"no passing thresholds for {variant}{sign} on {'/'.join(regions)} "
        f"after {steps} ladder steps (tau_start up to "
        f"{cfg.tau_start * 2.0 ** _TAU_DOUBLINGS:g}, xi0 up to "
        f"{xi0_base * 2.0 ** _XI_DOUBLINGS:g}, delta0 down to "
        f"{cfg.delta0 / 2.0 ** _DELTA_HALVINGS:g})"
    )
