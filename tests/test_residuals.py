"""Residual operators: two-route identities, sign verdicts, threshold search."""

import math

import numpy as np
import pytest

from fdelab import errors, residuals
from fdelab.matching import GluedBarrier
from fdelab.outer import OuterProfileSet, branch_variant
from fdelab.params import make_params
from fdelab.residuals import (
    Region,
    ResidualReport,
    _space_grid,
    find_thresholds,
    glued_evaluator,
    l1_terms_evaluator,
    verify_sign_region,
)
from reference_routes import (
    L0_residual,
    L1_residual,
    at_C10_zero,
    inner_residual_closed,
    outer_as_inner_evaluator,
    outer_psi_evaluator,
    psi1_residual_decomposed,
)

# Frozen inner-side subsolution defect of the eps = 0 glued minus barrier
# at the reference set (xi1 = 10).
INNER_DEFECT_XI0 = -2.577075856538493e-07
INNER_DEFECT_XI5 = -4.062183213897597e-06


# -- operator identities ------------------------------------------------------

def test_psi1_two_route_residual(outer_ref):
    # raw L0 against the exact decomposition; agreement is limited only by
    # roundoff in the raw route (psi1 is the ref profile at C10 = 0)
    out = at_C10_zero(outer_ref)
    gaps = np.logspace(-3, 3, 60)
    for sign in ("+", "-"):
        for tau in (6.0, 10.0):
            raw = L0_residual(
                outer_psi_evaluator(out, sign), gaps, tau, out.p, out.d
            )
            dec = psi1_residual_decomposed(out, sign, gaps, tau)
            assert np.max(np.abs(raw - dec)) < 1e-12


def test_inner_outer_transform_identity(outer_ref):
    # L1 applied to the mapped outer ansatz reproduces L0 pointwise
    out = outer_ref
    xis = np.linspace(0.5, 20.0, 40)
    tau = 8.0
    gaps = xis * math.exp(-out.p.gamma * tau)
    l1 = L1_residual(
        outer_as_inner_evaluator(out, "+"), xis, tau, out.p, out.d
    )
    l0 = L0_residual(
        outer_psi_evaluator(out, "+"), gaps, tau, out.p, out.d
    )
    assert np.allclose(l1, l0, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "gamma,variant,tau",
    [(1.5, "psi3", 6.0), (0.5, "psi4", 6.0), (0.3, "psi4", 10.0)],
)
def test_decomposed_terms_match_raw_l0(gamma, variant, tau):
    # e^{-gamma tau} times the rescaled decomposition must equal raw L0 to
    # roundoff in the raw term sum, at every recurrence depth (N = 1, 2, 3)
    p = make_params(3, 0.1, gamma, 2.0, theta1_minus=-1.0)
    assert branch_variant(gamma) == variant
    out = OuterProfileSet(p)
    d = out.d
    xi0b = math.sqrt((p.n - 1) / d.a0)
    for sign in ("+", "-"):
        lo = max(1e-3, 2.0 * xi0b * math.exp(-gamma * tau)) if sign == "-" else 1e-3
        gaps = np.geomspace(lo, 1e3, 60)
        res, _ = out.l0_terms(sign, tau, gap=gaps)
        raw = L0_residual(outer_psi_evaluator(out, sign), gaps, tau, p, d)
        w, we, wee, wt = out.psi_bundle(sign, tau, gap=gaps)
        eta = p.A + gaps
        visc = math.exp(-2.0 * gamma * tau) * (wee / w + d.b1 * (we / w) ** 2)
        drift = d.b2 * math.exp(-gamma * tau) * we / w
        raw_scale = (
            np.abs(wt)
            + (p.n - 1) * (np.abs(visc) + np.abs(drift))
            + np.abs(gamma * eta * we)
            + np.abs(w)
            + d.a0
        )
        diff = np.abs(math.exp(-gamma * tau) * res - raw)
        assert np.max(diff / raw_scale) < 1e-13


def test_inner_closed_form_matches_numeric_l1(solver_ref):
    bar = GluedBarrier(solver_ref, "-", 0.01)
    xis = np.linspace(-5.0, 9.5, 30)
    num = L1_residual(glued_evaluator(bar), xis, 12.0, bar.outer.p, bar.outer.d)
    closed = inner_residual_closed(bar, xis, 12.0)
    assert np.max(np.abs(num - closed)) < 1e-12


def test_inner_defect_frozen(solver_ref):
    # eps = 0 leaves the pure e^{-gamma tau} transport defect; negative is
    # the correct direction for the subsolution
    bar = GluedBarrier(solver_ref, "-", 0.0)
    d0 = float(inner_residual_closed(bar, 0.0, 10.0))
    d5 = float(inner_residual_closed(bar, 5.0, 10.0))
    assert d0 == pytest.approx(INNER_DEFECT_XI0, rel=1e-6)
    assert d5 == pytest.approx(INNER_DEFECT_XI5, rel=1e-6)
    assert d0 < 0.0 and d5 < 0.0


def test_l1_terms_evaluator_consistent(solver_ref):
    bar = GluedBarrier(solver_ref, "-", 0.01)
    ev = l1_terms_evaluator(glued_evaluator(bar), bar.outer.p, bar.outer.d)
    xis = np.linspace(-3.0, 8.0, 20)
    res, scale = ev(xis, 12.0)
    want = L1_residual(glued_evaluator(bar), xis, 12.0, bar.outer.p, bar.outer.d)
    assert np.allclose(res, want, rtol=1e-10, atol=1e-14)
    assert np.all(scale > 0.0)


# -- domain guards ------------------------------------------------------------

def test_nonpositive_profile_rejected(p_ref, d_ref):
    def bad(gap, tau):
        z = np.zeros_like(np.asarray(gap, dtype=float))
        return z - 1.0, z, z, z

    with pytest.raises(errors.NonPositiveProfile):
        L0_residual(bad, np.array([1.0]), 8.0, p_ref, d_ref)


def test_mapped_evaluator_needs_positive_xi(outer_ref):
    ev = outer_as_inner_evaluator(outer_ref, "+")
    with pytest.raises(errors.OutOfDomain):
        ev(np.array([-1.0]), 8.0)


def test_inner_closed_form_domain(solver_ref):
    bar = GluedBarrier(solver_ref, "-", 0.0)
    with pytest.raises(errors.OutOfDomain):
        inner_residual_closed(bar, 10.5, 10.0)


# -- verdict classification ---------------------------------------------------

REGION = Region(kind="inner", tau_lo=1.0, tau_hi=2.0, xi1=5.0, xi_lo=-5.0)


def _const_terms(value):
    def terms(space, tau):
        r = np.full_like(space, value)
        return r, np.ones_like(space)

    return terms


def test_verdict_passes_on_clean_sign(p_ref):
    rep = verify_sign_region(
        "L1", _const_terms(1.0), "+", REGION, p_ref, n_space=50, n_tau=4
    )
    assert rep.passed
    assert rep.n_points == 200
    assert rep.n_violations == 0
    assert rep.n_inconclusive == 0
    assert rep.min_residual == rep.max_residual == 1.0
    rep_minus = verify_sign_region(
        "L1", _const_terms(-1.0), "-", REGION, p_ref, n_space=50, n_tau=4
    )
    assert rep_minus.passed


def test_verdict_counts_violations(p_ref):
    def terms(space, tau):
        r = np.ones_like(space)
        r[..., 3] = -1e-3
        return r, np.ones_like(space)

    rep = verify_sign_region(
        "L1", terms, "+", REGION, p_ref, n_space=50, n_tau=2
    )
    assert not rep.passed
    assert rep.n_violations == 2
    assert rep.worst_point[2] == pytest.approx(-1e-3)


@pytest.mark.parametrize("want", ["+", "-"])
def test_verdict_fails_on_nan_everywhere(p_ref, want):
    # NaN is neither below -atol nor within atol: it must still fail
    rep = verify_sign_region(
        "L1", _const_terms(math.nan), want, REGION, p_ref, n_space=10, n_tau=3
    )
    assert not rep.passed
    assert rep.n_violations == rep.n_points == 30
    assert rep.n_inconclusive == 0
    assert math.isnan(rep.worst_point[2])


def test_verdict_worst_point_is_first_non_finite(p_ref):
    def terms(space, tau):
        r = np.ones_like(space)
        r[0, 7] = -1.0  # a finite violation before the broken point
        r[1, 4] = math.nan
        scale = np.ones_like(space)
        scale[2, 2] = math.inf  # a non-finite scale also counts
        return r, scale

    rep = verify_sign_region(
        "L1", terms, "+", REGION, p_ref, n_space=10, n_tau=3
    )
    assert not rep.passed
    assert rep.n_violations == 3
    assert rep.n_inconclusive == 0
    taus = np.linspace(REGION.tau_lo, REGION.tau_hi, 3)
    assert rep.worst_point[1] == taus[1]
    assert math.isnan(rep.worst_point[2])


def test_verdict_counts_inconclusive(p_ref):
    rep = verify_sign_region(
        "L1", _const_terms(0.0), "+", REGION, p_ref, n_space=50, n_tau=2
    )
    assert not rep.passed
    assert rep.n_inconclusive == rep.n_points == 100
    assert rep.inconclusive_frac == 1.0
    assert rep.n_violations == 0


def test_verdict_rejects_bad_want(p_ref):
    with pytest.raises(errors.InvalidParameter):
        verify_sign_region("L1", _const_terms(1.0), "up", REGION, p_ref)


def test_report_to_dict_keys(p_ref):
    rep = verify_sign_region(
        "L1", _const_terms(1.0), "+", REGION, p_ref, n_space=10, n_tau=2
    )
    out = rep.to_dict()
    for key in ("operator", "kind", "want", "tau_window", "n_points",
                "n_violations", "n_inconclusive", "inconclusive_frac",
                "min_residual", "max_residual", "worst_point", "passed"):
        assert key in out


def test_region_defaults():
    region = Region(kind="inner", tau_lo=8.0, tau_hi=20.0)
    assert region.xi_lo == -7.0
    assert region.xi1 == 10.0
    assert region.delta0 == 0.25
    assert region.delta1 == 20.0
    assert region.far_cut == 2e4


def test_region_grid_construction(p_ref):
    seen = {}

    def record(space, tau):
        seen.setdefault("grids", []).append(np.asarray(space))
        return np.ones_like(space), np.ones_like(space)

    glued = Region(kind="inner_glued", tau_lo=10.0, tau_hi=12.0,
                   xi1=10.0, delta1=20.0, xi_lo=-7.0)
    verify_sign_region("L1", record, "+", glued, p_ref,
                       n_space=101, n_tau=2)
    for grid in seen["grids"]:
        assert grid.min() >= -7.0
        assert grid.max() <= 30.0
        assert np.all(np.abs(grid - 10.0) > 1e-10)  # corner excluded


def test_empty_near_a_band_rejected(p_ref):
    # xi0 e^{-gamma tau} above delta0 leaves no band to sample
    region = Region(kind="near_A", tau_lo=0.0, tau_hi=1.0, xi0=1.0, delta0=0.25)
    with pytest.raises(errors.InvalidParameter):
        verify_sign_region("L0", _const_terms(1.0), "+", region, p_ref)


def test_unknown_region_kind_rejected(p_ref):
    region = Region(kind="everywhere", tau_lo=1.0, tau_hi=2.0)
    with pytest.raises(errors.InvalidParameter):
        verify_sign_region("L0", _const_terms(1.0), "+", region, p_ref)


def test_empty_band_is_empty_region(p_ref):
    region = Region(kind="glued", tau_lo=-20.0, tau_hi=1.0, xi0=1.0, far_cut=2e4)
    with pytest.raises(errors.EmptyRegion, match="tau=-20.0"):
        verify_sign_region("L0", _const_terms(1.0), "+", region, p_ref)
    assert issubclass(errors.EmptyRegion, errors.InvalidParameter)


@pytest.mark.parametrize("n_space,n_tau", [(50, 0), (0, 4), (-1, 4), (50, -2)])
def test_grid_without_points_rejected(p_ref, n_space, n_tau):
    # a verdict over no points must not pass, whatever the residual
    with pytest.raises(errors.InvalidParameter, match="no points"):
        verify_sign_region("L1", _const_terms(-1.0), "+", REGION, p_ref,
                           n_space=n_space, n_tau=n_tau)


def test_corner_masked_row_without_points_rejected(p_ref):
    # one sample, and it sits on the corner xi1 that inner_glued skips
    region = Region(kind="inner_glued", tau_lo=10.0, tau_hi=12.0,
                    xi1=10.0, delta1=20.0, xi_lo=10.0)
    with pytest.raises(errors.EmptyRegion):
        verify_sign_region("L1", _const_terms(1.0), "+", region, p_ref,
                           n_space=1, n_tau=4)


def test_terms_fn_of_wrong_shape_rejected(p_ref):
    def one_row(space, tau):
        return np.ones(space.shape[-1]), np.ones(space.shape[-1])

    with pytest.raises(errors.InvalidParameter, match="shape"):
        verify_sign_region("L1", one_row, "+", REGION, p_ref,
                           n_space=10, n_tau=3)


# -- batched sweep against the per-tau loop -----------------------------------

def _space_row(region, tau, n_space, gamma):
    """One tau row of the sampling grid, built on its own."""
    if region.kind in ("near_A", "glued"):
        lo = region.xi0 * math.exp(-gamma * tau)
        hi = region.delta0 if region.kind == "near_A" else region.far_cut
        return np.geomspace(lo, hi, n_space)
    if region.kind == "far_field":
        return np.geomspace(region.delta0, region.far_cut, n_space)
    if region.kind == "inner":
        return np.linspace(region.xi_lo, region.xi1, n_space)
    grid = np.linspace(region.xi_lo, region.xi1 + region.delta1, n_space)
    return grid[np.abs(grid - region.xi1) > 1e-9]


def _verify_per_tau(operator, terms_fn, want, region, p, n_space, n_tau,
                    atol_factor=1e-9, inconclusive_frac=1e-3):
    """Reference sweep: one terms_fn call per tau row with a scalar tau."""
    report = ResidualReport(operator=operator, region=region, want=want)
    taus = np.linspace(region.tau_lo, region.tau_hi, n_tau)
    worst = None
    for tau in taus:
        space = _space_row(region, float(tau), n_space, p.gamma)
        res, scale = terms_fn(space, float(tau))
        res = np.atleast_1d(np.asarray(res, dtype=float))
        atol = atol_factor * np.atleast_1d(np.asarray(scale, dtype=float))
        signed = res if want == "+" else -res
        report.n_points += res.size
        report.n_violations += int(np.count_nonzero(signed < -atol))
        report.n_inconclusive += int(np.count_nonzero(np.abs(res) <= atol))
        report.min_residual = min(report.min_residual, float(np.min(res)))
        report.max_residual = max(report.max_residual, float(np.max(res)))
        bad = signed / np.maximum(atol, 1e-300)
        i = int(np.argmin(bad))
        if worst is None or bad[i] < worst[0]:
            worst = (float(bad[i]), float(space[i]), float(tau), float(res[i]))
    report.worst_point = worst[1:]
    report.inconclusive_frac = report.n_inconclusive / report.n_points
    report.passed = (
        report.n_violations == 0
        and report.inconclusive_frac <= inconclusive_frac
    )
    return report


@pytest.mark.parametrize("kind", ["near_A", "far_field", "glued", "inner", "inner_glued"])
@pytest.mark.parametrize("gamma,tau_lo,n_space", [(1.5, 10.0, 200), (0.5, 11.15, 100),
                                                  (0.3, 3.0, 37)])
def test_space_grid_rows_match_per_tau_grids(kind, gamma, tau_lo, n_space):
    region = Region(kind=kind, tau_lo=tau_lo, tau_hi=tau_lo + 20.0, xi0=2.0,
                    delta0=0.25 if gamma > 1.0 else 4.0)
    taus = np.linspace(region.tau_lo, region.tau_hi, 40)
    grid = _space_grid(region, taus, n_space, gamma)
    for tau, row in zip(taus, grid):
        assert np.array_equal(row, _space_row(region, float(tau), n_space, gamma))


@pytest.mark.parametrize("setup", ["ref", "low"])
@pytest.mark.parametrize("kind", ["near_A", "far_field", "glued"])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_batched_l0_sweep_equals_per_tau_loop(request, setup, kind, sign):
    # psi3 on ref; psi4 on low carries the correction rows k = 3, 4
    outer = request.getfixturevalue(f"outer_{setup}")
    tau_lo = outer.cfg.tau_start
    region = Region(kind=kind, tau_lo=tau_lo, tau_hi=tau_lo + 20.0, xi0=2.0)

    def ev(gap, tau):
        return outer.l0_terms(sign, tau, gap=gap)

    got = verify_sign_region("L0", ev, sign, region, outer.p,
                             n_space=120, n_tau=12)
    want = _verify_per_tau("L0", ev, sign, region, outer.p, 120, 12)
    assert got == want


@pytest.mark.parametrize("sign", ["+", "-"])
def test_batched_l1_sweep_equals_per_tau_loop(solver_ref, sign):
    bar = GluedBarrier(solver_ref, sign, 0.01)
    p, d = bar.outer.p, bar.outer.d
    ev = l1_terms_evaluator(glued_evaluator(bar), p, d)
    region = Region(kind="inner_glued", tau_lo=12.0, tau_hi=18.0, xi1=10.0,
                    delta1=20.0)
    got = verify_sign_region("L1", ev, sign, region, p, n_space=81, n_tau=5)
    want = _verify_per_tau("L1", ev, sign, region, p, 81, 5)
    assert got == want


# -- threshold search ---------------------------------------------------------

def test_minus_thresholds_reference(thresholds_minus_ref):
    th = thresholds_minus_ref
    assert th["variant"] == "psi3"
    assert th["sign"] == "-"
    assert th["tau_start"] == 10.0
    assert th["xi0"] == 2.0
    assert th["delta0"] == 0.25
    assert th["ladder_steps"] == 5
    assert th["reports"]["near_A"].passed
    assert th["reports"]["far_field"].passed


def test_minus_thresholds_low_gamma(thresholds_minus_low):
    th = thresholds_minus_low
    assert th["variant"] == "psi4"
    assert th["tau_start"] == pytest.approx(11.150347630467653, rel=1e-12)
    assert th["xi0"] == 2.0
    assert th["delta0"] == 0.25
    assert th["ladder_steps"] == 5


def test_plus_near_corner_passes_at_base_rung(outer_ref):
    th = find_thresholds(outer_ref, "+", regions=("near_A",))
    assert th["tau_start"] == 10.0
    assert th["xi0"] == 1.0
    assert th["delta0"] == 0.25
    assert th["ladder_steps"] == 1


def test_plus_far_field_exhausts_ladder(outer_ref, monkeypatch):
    # the supersolution verdict cannot hold in the far field; the ladder
    # must exhaust instead of reporting a spurious pass
    for name in ("_TAU_DOUBLINGS", "_XI_DOUBLINGS", "_DELTA_HALVINGS"):
        monkeypatch.setattr(residuals, name, 1)
    with pytest.raises(errors.ThresholdSearchExhausted):
        find_thresholds(outer_ref, "+")


def test_threshold_arguments_checked_before_the_ladder(outer_ref):
    # argument errors must not be reported as an exhausted ladder
    with pytest.raises(errors.InvalidParameter, match="sign"):
        find_thresholds(outer_ref, "up")
    for regions in (("nearA",), ("near_A", "inner"), ()):
        with pytest.raises(errors.InvalidParameter, match="regions"):
            find_thresholds(outer_ref, "-", regions=regions)


def test_empty_band_rung_is_infeasible(outer_low, monkeypatch):
    # at low gamma the large-xi0 rungs leave no near-A band; those rungs are
    # skipped and the search still ends in ThresholdSearchExhausted
    empty = []
    grid = residuals._space_grid

    def counting_grid(*args):
        try:
            return grid(*args)
        except errors.EmptyRegion:
            empty.append(args[0])
            raise

    monkeypatch.setattr(residuals, "_space_grid", counting_grid)
    monkeypatch.setattr(residuals, "_TAU_DOUBLINGS", 0)
    with pytest.raises(errors.ThresholdSearchExhausted):
        find_thresholds(outer_low, "+")
    assert empty and all(region.kind == "near_A" for region in empty)


def test_xi0_lower_bound_respected():
    # strong theta1 forces the corner margin out to sqrt((n-1)|theta1|/a0)
    p = make_params(3, 0.1, 1.5, 2.0, theta1_minus=-30.0)
    out = OuterProfileSet(p)
    bound = math.sqrt((p.n - 1) * 30.0 / out.d.a0)
    th = find_thresholds(out, "-", regions=("near_A",))
    assert th["xi0"] >= bound
    assert th["xi0"] == pytest.approx(2.0 * bound, rel=1e-12)
