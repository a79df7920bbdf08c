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
separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .matching import GluedBarrier
from .outer import OuterProfileSet
from .params import theta

__all__ = [
    "L0_residual",
    "L1_residual",
    "outer_psi_evaluator",
    "outer_as_inner_evaluator",
    "outer_terms_evaluator",
    "l1_terms_evaluator",
    "psi1_residual_decomposed",
    "inner_residual_closed",
    "Region",
    "ResidualReport",
    "verify_sign_region",
    "find_thresholds",
]


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


def outer_psi_evaluator(outer: OuterProfileSet, variant: str, sign: str):
    """Adapter: psi as an L0 evaluator keyed on the gap."""

    def ev(gap, tau):
        return outer.psi_bundle(variant, sign, tau, gap=gap)

    return ev


def outer_as_inner_evaluator(outer: OuterProfileSet, variant: str, sign: str):
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
        psi, dpsi, d2psi, dtau = outer.psi_bundle(variant, sign, tau, gap=gap)
        egt = math.exp(g * tau)
        w = egt * psi
        wx = dpsi
        wxx = math.exp(-g * tau) * d2psi
        wt = g * egt * psi - g * xi * dpsi + egt * dtau
        return w, wx, wxx, wt

    return ev


def glued_evaluator(barrier: GluedBarrier):
    """Adapter: a glued barrier as an L1 evaluator (second xi-derivative
    by the piecewise analytic formulas on each side of xi1).

    tau is a scalar, or an (n_tau, 1) column with xi of shape
    (n_tau, n_space); the column form evaluates one row per tau, since
    C(tau) is a root find at one tau.
    """
    outer = barrier.outer
    g = outer.p.gamma

    def ev(xi, tau):
        if np.ndim(tau):
            rows = [ev_row(x, float(t)) for x, t in zip(xi, np.ravel(tau))]
            return tuple(np.stack(part) for part in zip(*rows))
        return ev_row(xi, tau)

    def ev_row(xi, tau):
        xi = np.asarray(xi, dtype=float)
        w = barrier.wbar(xi, tau)
        wx = barrier.wbar(xi, tau, deriv="dxi")
        wt = barrier.wbar(xi, tau, deriv="dtau")
        wxx = np.empty_like(np.atleast_1d(w), dtype=float)
        xiarr = np.atleast_1d(xi)
        left = xiarr <= barrier.xi1
        if np.any(left):
            arg = xiarr[left] + barrier.C(tau)
            wxx[left] = barrier.profile.phibar0(arg, deriv=2) / barrier.factor
        if np.any(~left):
            gap = xiarr[~left] * math.exp(-g * tau)
            _, _, d2psi, _ = outer.psi_bundle(
                barrier.solver.variant, barrier.sign, tau, gap=gap
            )
            wxx[~left] = math.exp(-g * tau) * d2psi
        if np.ndim(xi) == 0:
            return w, wx, float(wxx[0]), wt
        return w, wx, wxx, wt

    return ev


def psi1_residual_decomposed(outer: OuterProfileSet, sign: str, gap, tau):
    """Exact decomposition L0(psi1) = (n-1)(e^{-2gt} I1 + e^{-gt} I2).

    I1 = (phi0''/phi0 + theta1 phi0'^2/phi0^2) - (psi''/psi + b1 psi'^2/psi^2)
    I2 = theta2 phi0'/phi0 - b2 psi'/psi
    Valid for the row-free variant psi1 at every (eta, tau); serves as the
    independent second route for the L0 implementation.
    """
    p, d = outer.p, outer.d
    gap = np.asarray(gap, dtype=float)
    th1 = theta(p, 1, sign)
    th2 = theta(p, 2, sign)
    phi0 = outer.phi0(gap=gap)
    dphi0 = outer.phi0(gap=gap, deriv=1)
    d2phi0 = outer.phi0(gap=gap, deriv=2)
    psi, dpsi, d2psi, _ = outer.psi_bundle("psi1", sign, tau, gap=gap)
    I1 = (d2phi0 / phi0 + th1 * (dphi0 / phi0) ** 2) - (
        d2psi / psi + d.b1 * (dpsi / psi) ** 2
    )
    I2 = th2 * dphi0 / phi0 - d.b2 * dpsi / psi
    g = p.gamma
    return (p.n - 1) * (np.exp(-2.0 * g * tau) * I1 + np.exp(-g * tau) * I2)


def outer_terms_evaluator(outer: OuterProfileSet, variant: str, sign: str):
    """Rescaled cancellation-free L0 terms for any psi variant.

    Dropping the identically-zero phi0 group and folding each corrector
    through its defining ODE leaves

        e^{gamma tau} L0(psi) = -F1 - (n-1) b2 psi'/psi
            - e^{-gamma tau} [ F2 + (n-1)(psi''/psi + b1 (psi'/psi)^2) ]
            - sum_{k>=3} e^{-(k-1) gamma tau} S_k

    with F1 = theta2 (f3 [+ C10 gamma eta^{-1-1/gamma} for phi4 variants]),
    F2 = f1 + theta1 f2 and S_k = gamma sum_j j c_kj v_{k,j-1}.  Every term
    carries its own decay factor, so the roundoff floor tracks the local
    term scale instead of eps * a0; this is what makes sign verdicts
    meaningful after rescaling by e^{gamma tau}.

    Returns an evaluator(gap, tau) -> (residual, scale) where scale is the
    sum of the magnitudes of the individual terms.  tau is a scalar, or an
    (n_tau, 1) column against a gap grid of shape (n_tau, n_space); the
    decay factors come from math.exp one tau at a time (see _math_exp), so
    a column gives the same bits as one call per tau.
    """
    p, d = outer.p, outer.d
    n1, g = p.n - 1, p.gamma
    th1 = theta(p, 1, sign)
    th2 = theta(p, 2, sign)
    phi4_like = variant in ("psi3", "psi4")
    has_rows = variant in ("psi2", "psi4")
    C10 = outer.C10 if phi4_like else 0.0
    if has_rows:
        table = outer.correction_coeffs(variant, sign)
        ks = sorted({k for (k, _) in table})
    else:
        table, ks = {}, []

    def ev(gap, tau):
        gap = np.asarray(gap, dtype=float)
        eta = p.A + gap
        f1, f2, f3 = outer.f_sources(gap=gap)
        psi, dpsi, d2psi, _ = outer.psi_bundle(variant, sign, tau, gap=gap)
        if np.any(psi <= 0.0):
            raise errors.NonPositiveProfile("outer profile <= 0 inside L0")
        rat = dpsi / psi
        pieces = [-th2 * f3, -n1 * d.b2 * rat]
        if phi4_like and th2 != 0.0:
            pieces.append(-th2 * C10 * g * eta ** (-1.0 - 1.0 / g))
        e1 = _math_exp(-g, tau)
        pieces.append(-e1 * (f1 + th1 * f2))
        pieces.append(-e1 * n1 * (d2psi / psi + d.b1 * rat ** 2))
        for k in ks:
            sk = np.zeros_like(gap)
            for j in range(1, k + 1):
                c = table.get((k, j), 0.0)
                if c != 0.0:
                    sk = sk + (g * j * c) * outer.vkj(k, j - 1, gap=gap)
            pieces.append(-_math_exp(-(k - 1) * g, tau) * sk)
        res = np.zeros_like(gap)
        scale = np.zeros_like(gap)
        for piece in pieces:
            res = res + piece
            scale = scale + np.abs(piece)
        return res, scale

    return ev


def _math_exp(rate: float, tau):
    """e^(rate tau) by math.exp, for a scalar tau or elementwise over a
    tau column.  np.exp can differ from math.exp in the last bit, which
    would move report fields that sit at roundoff level."""
    if np.ndim(tau) == 0:
        return math.exp(rate * tau)
    tau = np.asarray(tau)
    return np.array([math.exp(rate * t) for t in tau.ravel()]).reshape(tau.shape)


def l1_terms_evaluator(evaluator, p, d):
    """Wrap an L1 bundle evaluator into (residual, term-magnitude scale)."""
    n1, g = p.n - 1, p.gamma

    def ev(xi, tau):
        xi = np.asarray(xi, dtype=float)
        w, wx, wxx, wt = evaluator(xi, tau)
        if np.any(w <= 0.0):
            raise errors.NonPositiveProfile("inner profile <= 0 inside L1")
        e1 = np.exp(-g * tau)
        terms = (
            e1 * (wt - (1.0 + g) * w),
            -n1 * (wxx / w + d.b1 * (wx / w) ** 2 + d.b2 * wx / w),
            np.full_like(np.atleast_1d(w), d.a0, dtype=float),
            -g * p.A * wx,
        )
        res = terms[0] + terms[1] + terms[2] + terms[3]
        scale = sum(np.abs(t) for t in terms)
        return res, scale

    return ev


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


# -- region sweeps -------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """Sampling region descriptor.

    Outer regions (space variable = gap = eta - A, log-spaced):
      kind = "near_A":    gap in [xi0 e^{-gamma tau}, delta0], per tau.
      kind = "far_field": gap in [delta0, far_cut], tau-independent.
      kind = "glued":     gap in [xi0 e^{-gamma tau}, far_cut], per tau
                          (the union region eta >= A + xi0 e^{-gamma tau}).
    Inner regions (space variable = xi, linear):
      kind = "inner":       xi in [xi_lo, xi1].
      kind = "inner_glued": xi in [xi_lo, xi1 + delta1], corner skipped.

    The default xi_lo respects the verdict resolution: the "-" barrier's
    inner margin decays like e^{2(xi + C2)} with C2 bounded, so below
    xi ~ -8 it falls under atol = 1e-9 * a0 at every tau and the points
    can only ever be inconclusive.
    """

    kind: str
    tau_lo: float
    tau_hi: float
    xi0: float = 1.0
    xi1: float = 10.0
    delta0: float = 0.25
    delta1: float = 20.0
    far_cut: float = 2e4
    xi_lo: float = -7.0


_OUTER_KINDS = ("near_A", "far_field", "glued")


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


def _space_grid(region: Region, taus, n_space: int, gamma: float):
    """Space grid of shape (len(taus), n_space); row i belongs to taus[i].

    Kinds that do not depend on tau repeat one row.  Raises EmptyRegion
    when a band or the corner-masked row has no points.
    """
    taus = np.asarray(taus, dtype=float)
    if region.kind in ("near_A", "glued"):
        lo = np.array([region.xi0 * math.exp(-gamma * float(t)) for t in taus])
        hi = region.delta0 if region.kind == "near_A" else region.far_cut
        empty = lo >= hi
        if np.any(empty):
            tau = float(taus[np.argmax(empty)])
            raise errors.EmptyRegion(
                f"{region.kind} region empty at tau={tau}: "
                "xi0 e^(-gamma tau) >= upper bound"
            )
        return np.geomspace(lo, hi, n_space, axis=1)
    if region.kind == "far_field":
        row = np.geomspace(region.delta0, region.far_cut, n_space)
    elif region.kind == "inner":
        row = np.linspace(region.xi_lo, region.xi1, n_space)
    elif region.kind == "inner_glued":
        row = np.linspace(region.xi_lo, region.xi1 + region.delta1, n_space)
        row = row[np.abs(row - region.xi1) > 1e-9]
        if row.size == 0:
            raise errors.EmptyRegion(
                "inner_glued region empty: every point sits on the corner xi1"
            )
    else:
        raise errors.InvalidParameter(f"unknown region kind {region.kind!r}")
    return np.tile(row, (taus.size, 1))


def verify_sign_region(
    operator: str,
    terms_fn,
    want: str,
    region: Region,
    p,
    d,
    n_space: int = 200,
    n_tau: int = 40,
    atol_factor: float = 1e-9,
    inconclusive_frac: float = 1e-3,
    raise_on_fail: bool = False,
) -> ResidualReport:
    """Sample the residual over the region and classify the sign verdict.

    operator is a report label ("L0" or "L1"; the region kind already
    fixes the space variable).  terms_fn(space, tau) -> (residual, scale)
    supplies the residual together with its local term-magnitude scale;
    use outer_terms_evaluator (rescaled L0) or l1_terms_evaluator.  It is
    called once, with space the whole grid of shape (n_tau, n_space) and
    tau an (n_tau, 1) column (row i of space belongs to tau[i, 0]), and
    must return arrays of the grid's shape.

    want: "+" for supersolution (residual >= 0), "-" for subsolution.
    A point is a strict violation when the residual crosses beyond
    atol = atol_factor * scale in the forbidden direction, inconclusive
    when |residual| <= atol.  A point whose residual or scale is not
    finite counts as a violation.  Passing requires zero violations and an
    inconclusive fraction at most inconclusive_frac.  The worst point is
    the first non-finite point if there is one, else the first minimum of
    signed residual / atol, in tau order, then in space order.  A grid with no points raises InvalidParameter.  With
    raise_on_fail, a failing verdict raises VerdictViolated carrying the
    worst point.
    """
    if want not in ("+", "-"):
        raise errors.InvalidParameter(f"want must be '+' or '-', got {want!r}")
    if n_space < 1 or n_tau < 1:
        raise errors.InvalidParameter(
            f"sampling grid has no points: n_space={n_space}, n_tau={n_tau}"
        )
    taus = np.linspace(region.tau_lo, region.tau_hi, n_tau)
    space = _space_grid(region, taus, n_space, p.gamma)
    res, scale = terms_fn(space, taus[:, None])
    res = np.asarray(res, dtype=float)
    atol = atol_factor * np.asarray(scale, dtype=float)
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
        worst = int(np.argmin(signed / np.maximum(atol, 1e-300)))
    i, j = np.unravel_index(worst, res.shape)
    report = ResidualReport(
        operator=operator,
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
        and report.inconclusive_frac <= inconclusive_frac
    )
    if raise_on_fail and not report.passed:
        raise errors.VerdictViolated(
            f"{operator} {want} verdict failed on {region.kind}: "
            f"{report.n_violations} violations, "
            f"{report.inconclusive_frac:.2%} inconclusive; worst point "
            f"(space, tau, residual) = {report.worst_point}"
        )
    return report


def find_thresholds(
    outer: OuterProfileSet,
    variant: str,
    sign: str,
    want: str | None = None,
    regions: tuple = ("near_A", "far_field"),
    tau_doublings: int = 3,
    xi_doublings: int = 6,
    delta_halvings: int = 3,
    tau_span: float = 20.0,
) -> dict:
    """Search thresholds making the outer sign verdicts pass.

    Realizes the existential constants: starting from the configured
    (tau_start, xi0, delta0), the ladder doubles tau_start and xi0 and
    halves delta0 (preferring small tau, then small xi0, then few delta
    halvings) until every requested region verdict passes; the first
    passing tuple is re-verified at tau_start + 5 (the verdict must be
    tau-monotone) and recorded.  Only an empty band (EmptyRegion) or a
    non-positive profile makes a rung infeasible; a bad want or region
    kind raises InvalidParameter before the ladder starts.  Raises
    ThresholdSearchExhausted when the ladder is exhausted.  The starting
    xi0 respects the lower bound sqrt((n-1)|theta1|/a0).
    """
    p, d, cfg = outer.p, outer.d, outer.cfg
    if want is None:
        want = sign  # supersolution for +, subsolution for -
    if want not in ("+", "-"):
        raise errors.InvalidParameter(f"want must be '+' or '-', got {want!r}")
    if not regions or any(kind not in _OUTER_KINDS for kind in regions):
        raise errors.InvalidParameter(
            f"regions must be outer kinds from {_OUTER_KINDS}, got {regions!r}"
        )
    ev = outer_terms_evaluator(outer, variant, sign)
    th1 = theta(p, 1, sign)
    xi0_base = max(cfg.xi0, math.sqrt((p.n - 1) * abs(th1) / d.a0))

    def regions_pass(tau_start, xi0, delta0):
        reports = {}
        for kind in regions:
            region = Region(
                kind=kind,
                tau_lo=tau_start,
                tau_hi=tau_start + tau_span,
                xi0=xi0,
                xi1=cfg.xi1,
                delta0=delta0,
                delta1=cfg.delta1,
            )
            try:
                rep = verify_sign_region(
                    "L0", ev, want, region, p, d,
                    n_space=cfg.grid_eta, n_tau=cfg.grid_tau,
                    atol_factor=cfg.sign_atol_factor,
                    inconclusive_frac=cfg.inconclusive_frac,
                )
            except (errors.EmptyRegion, errors.NonPositiveProfile):
                # infeasible tuple (empty band / profile not yet positive)
                return False, reports
            reports[kind] = rep
            if not rep.passed:
                return False, reports
        return True, reports

    steps = 0
    for k_tau in range(tau_doublings + 1):
        tau_start = cfg.tau_start * 2.0 ** k_tau
        for k_xi in range(xi_doublings + 1):
            xi0 = xi0_base * 2.0 ** k_xi
            for k_delta in range(delta_halvings + 1):
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
        f"{cfg.tau_start * 2.0 ** tau_doublings:g}, xi0 up to "
        f"{xi0_base * 2.0 ** xi_doublings:g}, delta0 down to "
        f"{cfg.delta0 / 2.0 ** delta_halvings:g})"
    )
