"""Residual operators: two-route identities, sign verdicts, outer thresholds."""

import dataclasses
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import sympy as sp

from fdelab import errors, polyroot, residuals
from fdelab import outer as outer_mod
from fdelab.matching import GluedBarrier, MatchingSolver, find_epsilon_bounds
from fdelab.outer import OuterProfileSet, branch_variant
from fdelab.params import ModelParams, ThresholdConfig, default_thresholds, theta
from fdelab.reporting import make_check
from fdelab.selfsim import SelfSimilarProfile, shoot_v0
from fdelab.residuals import (
    Region,
    ResidualReport,
    _space_grid,
    find_thresholds,
    l1_terms_evaluator,
    left_margin,
    verify_inner,
    verify_sign_region,
)
from reference_routes import (
    L0_residual,
    L1_residual,
    L1_terms,
    at_C10,
    full_band_verdict,
    glued_raw_evaluator,
    l1_terms_on_grid,
    outer_as_inner_evaluator,
    outer_psi_evaluator,
    psi1_residual_decomposed,
)

XI1 = 10.0  # the matching radius of the default config

# Frozen inner-side subsolution defect of the eps = 0 glued minus barrier
# at the reference set (xi1 = 10).
INNER_DEFECT_XI0 = -2.577075856538493e-07
INNER_DEFECT_XI5 = -4.062183213897597e-06


# -- operator identities ------------------------------------------------------

def test_psi1_two_route_residual(outer_ref):
    # raw L0 against the exact decomposition; agreement is limited only by
    # roundoff in the raw route (psi1 is the ref profile at the default
    # C10 = 0)
    out = outer_ref
    gaps = np.logspace(-3, 3, 60)
    for sign in ("+", "-"):
        for tau in (6.0, 10.0):
            raw = L0_residual(
                outer_psi_evaluator(out, sign), gaps, tau, out.p
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
        outer_as_inner_evaluator(out, "+"), xis, tau, out.p
    )
    l0 = L0_residual(
        outer_psi_evaluator(out, "+"), gaps, tau, out.p
    )
    assert np.allclose(l1, l0, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "gamma,variant,tau",
    [(1.5, "psi3", 6.0), (0.5, "psi4", 6.0), (0.3, "psi4", 10.0)],
)
def test_decomposed_terms_match_raw_l0(gamma, variant, tau):
    # e^{-gamma tau} times the rescaled decomposition must equal raw L0 to
    # roundoff in the raw term sum, at every recurrence depth (N = 1, 2, 3),
    # at the default C10 = 0 and with the resonant C10 term of F1
    p = ModelParams(3, 0.1, gamma, 2.0, theta1_minus=-1.0)
    assert branch_variant(gamma) == variant
    base = OuterProfileSet(p, default_thresholds(p))
    d = p.d
    xi0b = math.sqrt((p.n - 1) / d.a0)
    for out, sign in itertools.product((base, at_C10(base, 4.0)), ("+", "-")):
        lo = max(1e-3, 2.0 * xi0b * math.exp(-gamma * tau)) if sign == "-" else 1e-3
        gaps = np.geomspace(lo, 1e3, 60)
        (res,), _ = out.l0_terms(sign, np.array([[tau]]), gap=gaps[None, :])
        raw = L0_residual(outer_psi_evaluator(out, sign), gaps, tau, p)
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


def _l1_at(bar, xi, tau):
    """The evaluator's (residual, scale) on one xi row at a float tau."""
    res, scale = l1_terms_evaluator(bar)(np.atleast_1d(xi)[None, :], np.array([[tau]]))
    return res[0], scale[0]


def _closed_l1_at(bar, xi, tau):
    """L1 in closed form on both sides of xi1 (the reference route) on one
    xi row at a float tau: (residual, scale)."""
    res, scale = l1_terms_on_grid(bar)(np.atleast_1d(xi)[None, :], np.array([[tau]]))
    return res[0], scale[0]


# a point on the core law for both signs at the ref config: s = xi + C
# lies below the table start s_min = log 1e-6 for tau in [10, 20]
XI_CORE = -25.0


def test_inner_closed_form_matches_numeric_l1(solver_ref):
    # left of xi1 the package decides L1's sign from left_margin: the plus
    # margin is L1 at the corner, the minus margin L1 on the core, each
    # over phibar0'/(1 +/- eps).  Both have the sign of L1 of the raw glued
    # derivatives there, and the margin over its scale equals the closed
    # form's L1 over its scale
    taus = np.array([10.0, 12.0, 16.0])
    for sign, xi in (("+", XI1), ("-", XI_CORE)):
        bar = GluedBarrier(solver_ref, sign, 0.01)
        margin, scale, corner = left_margin(bar, taus)
        np.testing.assert_array_equal(corner, XI1 + bar.C(taus))
        for i, tau in enumerate(taus.tolist()):
            raw = L1_residual(glued_raw_evaluator(bar), np.array([xi]), tau, bar.outer.p)[0]
            res, res_scale = _closed_l1_at(bar, [xi], tau)
            assert np.sign(margin[i]) == np.sign(raw) == np.sign(res[0]) != 0.0
            assert margin[i] / scale[i] == pytest.approx(res[0] / res_scale[0], rel=1e-12)


def test_inner_defect_frozen(solver_ref):
    # eps = 0 leaves the pure e^{-gamma tau} transport defect; negative is
    # the correct direction for the subsolution.  The minus margin is the
    # largest L1 over phibar0' left of xi1, so it lies above both
    bar = GluedBarrier(solver_ref, "-", 0.0)
    d0, d5 = _closed_l1_at(bar, [0.0, 5.0], 10.0)[0].tolist()
    assert d0 == pytest.approx(INNER_DEFECT_XI0, rel=1e-6)
    assert d5 == pytest.approx(INNER_DEFECT_XI5, rel=1e-6)
    assert d0 < 0.0 and d5 < 0.0
    (C,), (margin,) = bar.C([10.0]), left_margin(bar, [10.0])[0]
    dv = bar.profile.phibar0(np.array([0.0, 5.0]) + C, derivs=True)[1]
    assert margin < 0.0 and np.all(np.array([d0, d5]) / dv < margin)


def test_l1_terms_evaluator_consistent(solver_ref):
    # one row per tau of the column, each against the raw residual
    bar = GluedBarrier(solver_ref, "-", 0.01)
    ev = l1_terms_evaluator(bar)
    xis = np.linspace(10.5, 29.0, 20)
    for x in (xis, xis + 0.5):
        res, scale = ev(x, np.array([[12.0], [14.0]]))
        assert res.shape == scale.shape == (2, 20)
        for row, tau in zip(res, (12.0, 14.0)):
            want = L1_residual(glued_raw_evaluator(bar), x, tau, bar.outer.p)
            assert np.allclose(row, want, rtol=1e-10, atol=1e-14)
        assert np.all(scale > 0.0)


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("setup,tau_lo", [("ref", 10.0), ("low", 15.150347630467653)])
def test_l1_evaluator_matches_raw_l1_on_the_band(request, setup, tau_lo, sign):
    # on the verdict's band (xi1, xi1 + delta1], right of the corner, the
    # closed form agrees with L1 of the raw glued derivatives to 1e-12 of
    # the raw terms' magnitude
    bar = GluedBarrier(request.getfixturevalue(f"solver_{setup}"), sign, 0.018)
    cfg = bar.outer.cfg
    taus = np.linspace(tau_lo, tau_lo + 6.0, 4)
    xi = _space_grid(Region("inner_glued", tau_lo, tau_lo + 6.0), taus, cfg, bar.outer.p.gamma)
    step = cfg.delta1 / cfg.grid_eta
    assert xi[0, 0] == pytest.approx(cfg.xi1 + step, rel=1e-15)
    assert xi[0, -1] == cfg.xi1 + cfg.delta1
    res, _ = l1_terms_evaluator(bar)(xi, taus[:, None])
    raw = glued_raw_evaluator(bar)
    for i, tau in enumerate(taus.tolist()):
        terms = L1_terms(raw, xi[0], tau, bar.outer.p)
        raw_scale = sum(np.abs(t) for t in terms)
        assert np.max(np.abs(res[i] - sum(terms)) / raw_scale) < 1e-12


@pytest.mark.parametrize("sign", ["+", "-"])
def test_inner_margin_stays_away_from_zero_below_the_band(solver_ref, eps_ref, sign):
    # the raw route's margin over its scale decays like phibar0 ~ e^{2 xi}
    # to rounding; the closed form's stays bounded away from 0.  At tau =
    # 10 and the weight verify recommends, eps1/2, the left margin over its
    # scale is 0.9993 (+) and 0.99999 (-), and the closed form's L1 over
    # its scale on [-25, -7] lies at or above it, as h >= 1/2 and h <= h
    # at the corner make it (residuals docstring)
    bar = GluedBarrier(solver_ref, sign, 0.5 * eps_ref[0])
    factor = 1.0 if sign == "+" else -1.0
    margin, scale, _ = left_margin(bar, [10.0])
    bound = factor * margin[0] / scale[0]
    res, res_scale = _closed_l1_at(bar, np.linspace(-25.0, -7.0, 181), 10.0)
    assert bound > 0.5
    assert np.min(factor * res / res_scale) >= bound * (1.0 - 1e-12)


def test_far_left_underflow_is_a_nonpositive_profile(solver_ref):
    # phibar0 at xi = -400 underflows to 0, which L1 formed pointwise
    # cannot divide by; the left margin covers it without evaluating it
    bar = GluedBarrier(solver_ref, "-", 0.01)
    assert bar.wbar([-400.0], [10.0])[0, 0] == 0.0
    with pytest.raises(errors.NonPositiveProfile):
        _closed_l1_at(bar, [-400.0, 0.0], 10.0)
    margin, scale, _ = left_margin(bar, [10.0])
    assert -margin[0] / scale[0] > 0.5


# -- domain guards ------------------------------------------------------------

def test_nonpositive_profile_rejected(p_ref):
    def bad(gap, tau):
        z = np.zeros_like(np.asarray(gap, dtype=float))
        return z - 1.0, z, z, z

    with pytest.raises(errors.NonPositiveProfile):
        L0_residual(bad, np.array([1.0]), 8.0, p_ref)


def test_mapped_evaluator_needs_positive_xi(outer_ref):
    ev = outer_as_inner_evaluator(outer_ref, "+")
    with pytest.raises(errors.OutOfDomain):
        ev(np.array([-1.0]), 8.0)


def test_inner_closed_form_domain(solver_ref):
    # the inner closed form covers xi <= xi1, the corner included; right
    # of it the residual is e^{-gamma tau} l0_terms at the mapped gap, bit
    # for bit
    bar = GluedBarrier(solver_ref, "-", 0.0)
    tau, right = 10.0, np.nextafter(XI1, np.inf)
    res, scale = _closed_l1_at(bar, [XI1], tau)
    raw = L1_residual(glued_raw_evaluator(bar), np.array([XI1]), tau, bar.outer.p)
    assert abs(res[0] - raw[0]) < 1e-12
    res, scale = _l1_at(bar, [right], tau)
    e = math.exp(-bar.outer.p.gamma * tau)
    l0, l0_scale = bar.outer.l0_terms("-", np.array([[tau]]), gap=np.array([[right * e]]))
    assert (res[0], scale[0]) == (e * l0[0, 0], e * l0_scale[0, 0])


# -- verdict classification ---------------------------------------------------

# on the config's band (xi1, xi1 + delta1] = (10, 30]
REGION = Region(kind="inner_glued", tau_lo=1.0, tau_hi=2.0)


def _grid(cfg, n_space, n_tau):
    return dataclasses.replace(cfg, grid_eta=n_space, grid_tau=n_tau)


def _ones(space, tau):
    """Ones over the points of a verdict: space against the tau column."""
    return np.ones(np.broadcast_shapes(np.shape(space), np.shape(tau)))


def _const_terms(value):
    def terms(space, tau):
        return value * _ones(space, tau), _ones(space, tau)

    return terms


def test_verdict_passes_on_clean_sign(p_ref, cfg_ref):
    rep = verify_sign_region(
        _const_terms(1.0), "+", REGION, p_ref, _grid(cfg_ref, 50, 4)
    )
    assert rep.passed
    assert rep.n_points == 200
    assert rep.n_violations == 0
    assert rep.n_inconclusive == 0
    assert rep.min_residual == rep.max_residual == 1.0
    rep_minus = verify_sign_region(
        _const_terms(-1.0), "-", REGION, p_ref, _grid(cfg_ref, 50, 4)
    )
    assert rep_minus.passed


def test_verdict_counts_violations(p_ref, cfg_ref):
    def terms(space, tau):
        r = _ones(space, tau)
        r[..., 3] = -1e-3
        return r, _ones(space, tau)

    rep = verify_sign_region(
        terms, "+", REGION, p_ref, _grid(cfg_ref, 50, 2)
    )
    assert not rep.passed
    assert rep.n_violations == 2
    assert rep.worst_point[2] == pytest.approx(-1e-3)


@pytest.mark.parametrize("want", ["+", "-"])
def test_verdict_fails_on_nan_everywhere(p_ref, want, cfg_ref):
    # NaN is neither below -atol nor within atol: it must still fail
    rep = verify_sign_region(
        _const_terms(math.nan), want, REGION, p_ref, _grid(cfg_ref, 10, 3)
    )
    assert not rep.passed
    assert rep.n_violations == rep.n_points == 30
    assert rep.n_inconclusive == 0
    assert math.isnan(rep.worst_point[2])


def test_verdict_worst_point_is_first_non_finite(p_ref, cfg_ref):
    def terms(space, tau):
        r = _ones(space, tau)
        r[0, 7] = -1.0  # a finite violation before the broken point
        r[1, 4] = math.nan
        scale = _ones(space, tau)
        scale[2, 2] = math.inf  # a non-finite scale also counts
        return r, scale

    rep = verify_sign_region(
        terms, "+", REGION, p_ref, _grid(cfg_ref, 10, 3)
    )
    assert not rep.passed
    assert rep.n_violations == 3
    assert rep.n_inconclusive == 0
    taus = np.linspace(REGION.tau_lo, REGION.tau_hi, 3)
    assert rep.worst_point[1] == taus[1]
    assert math.isnan(rep.worst_point[2])


def test_verdict_counts_inconclusive(p_ref, cfg_ref):
    rep = verify_sign_region(
        _const_terms(0.0), "+", REGION, p_ref, _grid(cfg_ref, 50, 2)
    )
    assert not rep.passed
    assert rep.n_inconclusive == rep.n_points == 100
    assert rep.inconclusive_frac == 1.0
    assert rep.n_violations == 0


def test_verdict_rejects_bad_want(p_ref, cfg_ref):
    with pytest.raises(errors.InvalidParameter):
        verify_sign_region(_const_terms(1.0), "up", REGION, p_ref, cfg_ref)


def test_report_serializes_as_its_fields(p_ref, cfg_ref):
    # a verdict goes into a check as it stands, with the keys and values of
    # the report layout
    rep = verify_sign_region(
        _const_terms(1.0), "+", REGION, p_ref, _grid(cfg_ref, 10, 2)
    )
    out = make_check("verdict", rep.passed, {"report": rep})["details"]["report"]
    assert out == {
        "operator": "L1",
        "kind": "inner_glued",
        "want": "+",
        "tau_window": [1.0, 2.0],
        "n_points": 20,
        "n_violations": 0,
        "n_inconclusive": 0,
        "inconclusive_frac": 0.0,
        "min_residual": 1.0,
        "max_residual": 1.0,
        "worst_point": [12.0, 1.0, 1.0],
        "passed": True,
    }
    # the region kind names the operator
    far = Region(kind="far_field", tau_lo=1.0, tau_hi=2.0)
    assert verify_sign_region(
        _const_terms(1.0), "+", far, p_ref, _grid(cfg_ref, 10, 2)
    ).operator == "L0"


def test_region_is_a_kind_and_a_tau_window(p_ref, cfg_ref):
    # the band ends come from the config, or from the module constant
    # _FAR_CUT where the config has none; the inner band starts right of
    # the corner xi1, whatever its points
    assert [f.name for f in dataclasses.fields(Region)] == ["kind", "tau_lo", "tau_hi"]
    assert residuals._FAR_CUT == 2e4 and not hasattr(residuals, "_XI_LO")
    cfg = dataclasses.replace(cfg_ref, xi0=0.5, xi1=4.0, delta0=0.125, delta1=2.0, grid_eta=9)
    taus = np.array([10.0, 11.0])
    near = _space_grid(Region("near_A", 10.0, 11.0), taus, cfg, p_ref.gamma)
    assert near[:, 0].tolist() == [0.5 * math.exp(-1.5 * t) for t in taus]
    assert np.all(near[:, -1] == 0.125)
    far = _space_grid(Region("far_field", 10.0, 11.0), taus, cfg, p_ref.gamma)
    assert far[0, 0] == 0.125 and far[0, -1] == pytest.approx(2e4, rel=1e-15)
    inner = _space_grid(Region("inner_glued", 10.0, 11.0), taus, cfg, p_ref.gamma)
    assert inner.shape == (1, 9) and inner[0, 0] == pytest.approx(4.0 + 2.0 / 9.0, rel=1e-15)
    assert inner[0, -1] == 6.0
    one = dataclasses.replace(cfg, grid_eta=1)
    inner = _space_grid(Region("inner_glued", 10.0, 11.0), taus, one, p_ref.gamma)
    assert inner.tolist() == [[6.0]]


def test_region_grid_construction(p_ref, cfg_ref):
    seen = {}

    def record(space, tau):
        seen.setdefault("grids", []).append(np.asarray(space))
        return _ones(space, tau), _ones(space, tau)

    glued = Region(kind="inner_glued", tau_lo=10.0, tau_hi=12.0)
    verify_sign_region(record, "+", glued, p_ref, _grid(cfg_ref, 101, 2))
    for grid in seen["grids"]:
        assert grid.shape == (1, 101)
        assert grid.min() > 10.0  # corner excluded
        assert grid.max() == 30.0


def test_empty_near_a_band_rejected(p_ref, cfg_ref):
    # xi0 e^{-gamma tau} above delta0 leaves no band to sample
    region = Region(kind="near_A", tau_lo=0.0, tau_hi=1.0)
    assert (cfg_ref.xi0, cfg_ref.delta0) == (1.0, 0.25)
    with pytest.raises(errors.InvalidParameter):
        verify_sign_region(_const_terms(1.0), "+", region, p_ref, cfg_ref)


def test_unknown_region_kind_rejected(p_ref, cfg_ref):
    region = Region(kind="everywhere", tau_lo=1.0, tau_hi=2.0)
    with pytest.raises(errors.InvalidParameter):
        verify_sign_region(_const_terms(1.0), "+", region, p_ref, cfg_ref)


def test_empty_band_is_empty_region(p_ref, cfg_ref):
    region = Region(kind="near_A", tau_lo=-20.0, tau_hi=1.0)
    with pytest.raises(errors.EmptyRegion, match="tau=-20.0"):
        verify_sign_region(_const_terms(1.0), "+", region, p_ref, cfg_ref)
    assert issubclass(errors.EmptyRegion, errors.InvalidParameter)


@pytest.mark.parametrize("n_space,n_tau", [(50, 0), (0, 4), (-1, 4), (50, -2)])
def test_grid_without_points_rejected(p_ref, n_space, n_tau, cfg_ref):
    # a verdict over no points must not pass, whatever the residual
    with pytest.raises(errors.InvalidParameter, match="no points"):
        verify_sign_region(_const_terms(-1.0), "+", REGION, p_ref,
                           _grid(cfg_ref, n_space, n_tau))


def test_terms_fn_of_wrong_shape_rejected(p_ref, cfg_ref):
    def one_row(space, tau):
        return np.ones(space.shape[-1]), np.ones(space.shape[-1])

    with pytest.raises(errors.InvalidParameter, match="shape"):
        verify_sign_region(one_row, "+", REGION, p_ref, _grid(cfg_ref, 10, 3))


# -- batched sweep against the per-tau loop -----------------------------------

def _space_row(region, cfg, tau, gamma):
    """One tau row of the sampling grid, built on its own."""
    n_space = cfg.grid_eta
    if region.kind == "near_A":
        return np.geomspace(cfg.xi0 * math.exp(-gamma * tau), cfg.delta0, n_space)
    if region.kind == "far_field":
        return np.geomspace(cfg.delta0, residuals._FAR_CUT, n_space)
    return np.linspace(cfg.xi1, cfg.xi1 + cfg.delta1, n_space + 1)[1:]


def _verify_per_tau(operator, terms_fn, want, region, p, cfg,
                    atol_factor=1e-9, inconclusive_frac=1e-3):
    """Reference sweep: one terms_fn call per tau row with a scalar tau."""
    report = ResidualReport(operator=operator, kind=region.kind, want=want,
                            tau_window=(region.tau_lo, region.tau_hi))
    taus = np.linspace(region.tau_lo, region.tau_hi, cfg.grid_tau)
    worst = None
    for tau in taus:
        space = _space_row(region, cfg, float(tau), p.gamma)
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


@pytest.mark.parametrize("kind", ["near_A", "far_field", "inner_glued"])
@pytest.mark.parametrize("gamma,tau_lo,n_space", [(1.5, 10.0, 200), (0.5, 11.15, 100),
                                                  (0.3, 3.0, 37)])
def test_space_grid_rows_match_per_tau_grids(kind, gamma, tau_lo, n_space):
    region = Region(kind=kind, tau_lo=tau_lo, tau_hi=tau_lo + 20.0)
    cfg = ThresholdConfig(eta0=3.0, xi0=2.0, xi1=10.0, tau_start=tau_lo,
                          delta0=0.25 if gamma > 1.0 else 4.0, grid_eta=n_space)
    taus = np.linspace(region.tau_lo, region.tau_hi, 40)
    grid = _space_grid(region, taus, cfg, gamma)
    # near_A moves with tau; the other bands are one row that every tau shares
    assert grid.shape == ((40 if kind == "near_A" else 1), n_space)
    for tau, row in zip(taus, np.broadcast_to(grid, (40, n_space))):
        assert np.array_equal(row, _space_row(region, cfg, float(tau), gamma))


def _chunk_rows(monkeypatch, rows, n_space):
    """Set the verdict's chunk budget to rows tau rows of n_space points
    and a few points more, which still makes chunks of rows taus."""
    monkeypatch.setattr(residuals, "_CHUNK_POINTS", rows * n_space + n_space // 2)


@pytest.mark.parametrize("setup", ["ref", "low"])
@pytest.mark.parametrize("kind", ["near_A", "far_field"])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_batched_l0_sweep_equals_per_tau_loop(request, monkeypatch, setup, kind, sign):
    # psi3 on ref; psi4 on low carries the correction rows k = 3, 4; the
    # 12 taus go in chunks of one tau, and in ragged ones of 5, 5 and 2
    outer = request.getfixturevalue(f"outer_{setup}")
    tau_lo = outer.cfg.tau_start
    region = Region(kind=kind, tau_lo=tau_lo, tau_hi=tau_lo + 20.0)
    cfg = dataclasses.replace(_grid(outer.cfg, 120, 12), xi0=2.0)

    def ev(gap, tau):
        return outer.l0_terms(sign, tau, gap=gap)

    want = _verify_per_tau("L0", ev, sign, region, outer.p, cfg)
    for rows in (1, 5):
        _chunk_rows(monkeypatch, rows, 120)
        assert verify_sign_region(ev, sign, region, outer.p, cfg) == want, rows


@pytest.mark.parametrize("sign", ["+", "-"])
def test_batched_l1_sweep_equals_per_tau_loop(solver_ref, monkeypatch, sign):
    # the 5 taus go in ragged chunks of 2, 2 and 1
    bar = GluedBarrier(solver_ref, sign, 0.01)
    p = bar.outer.p
    ev = l1_terms_evaluator(bar)
    region = Region(kind="inner_glued", tau_lo=12.0, tau_hi=18.0)
    cfg = _grid(bar.outer.cfg, 81, 5)
    _chunk_rows(monkeypatch, 2, 81)

    def one_tau(xi, tau):
        res, scale = ev(xi[None, :], np.array([[tau]]))
        return res[0], scale[0]

    got = verify_sign_region(ev, sign, region, p, cfg)
    want = _verify_per_tau("L1", one_tau, sign, region, p, cfg)
    assert got == want


def _marked_terms(n_tau, marks):
    """A terms_fn over REGION's grid of n_tau taus: residual 1 and scale 1,
    but residual v at tau sample i and space point j for (i, j): v in
    marks, whatever chunk holds it."""
    taus = np.linspace(REGION.tau_lo, REGION.tau_hi, n_tau)

    def terms(space, tau):
        r = _ones(space, tau)
        for (i, j), v in marks.items():
            r[tau[:, 0] == taus[i], j] = v
        return r, _ones(space, tau)

    return terms


def _one_pass(monkeypatch, *args):
    """The verdict in one chunk of the whole grid, the fold's reference."""
    with monkeypatch.context() as m:
        m.setattr(residuals, "_CHUNK_POINTS", 10 ** 9)
        return verify_sign_region(*args)


def test_fold_worst_point_is_the_first_non_finite_in_a_later_chunk(p_ref, cfg_ref, monkeypatch):
    # chunks of 4, 4 and 1 taus: a finite violation in the first, a NaN in
    # the second and an inf in the third; the NaN is the worst point
    marks = {(0, 7): -1.0, (5, 4): math.nan, (8, 2): math.inf}
    args = (_marked_terms(9, marks), "+", REGION, p_ref, _grid(cfg_ref, 10, 9))
    _chunk_rows(monkeypatch, 4, 10)
    rep = verify_sign_region(*args)
    assert repr(rep) == repr(_one_pass(monkeypatch, *args))
    taus = np.linspace(REGION.tau_lo, REGION.tau_hi, 9)
    assert rep.n_violations == 3 and rep.worst_point[1] == taus[5]
    assert math.isnan(rep.worst_point[2]) and math.isnan(rep.min_residual)


def test_fold_carries_nan_extremes_from_a_later_chunk(solver_ref, monkeypatch):
    # the ref inner verdict over [150, 250] is finite for its first 4 taus,
    # +-inf from the fifth and NaN over the last 5 (l0_terms overflows at
    # large gamma tau): the NaN of the last chunks reaches min and max, and
    # the worst point is the first inf
    bar = GluedBarrier(solver_ref, "+", 0.018)
    cfg = bar.outer.cfg
    args = (l1_terms_evaluator(bar), "+", Region("inner_glued", 150.0, 250.0), bar.outer.p, cfg)
    _chunk_rows(monkeypatch, 3, cfg.grid_eta)
    rep = verify_sign_region(*args)
    assert repr(rep) == repr(_one_pass(monkeypatch, *args))
    assert math.isnan(rep.min_residual) and math.isnan(rep.max_residual)
    taus = np.linspace(150.0, 250.0, cfg.grid_tau)
    assert rep.worst_point[1] == taus[4] and rep.worst_point[2] == -math.inf
    assert rep.n_violations == rep.n_points - 4 * cfg.grid_eta


def test_fold_keeps_the_first_of_a_minimum_tied_across_chunks(p_ref, cfg_ref, monkeypatch):
    # chunks of 3 taus: one minimum at the last point of the first chunk,
    # the same at the first point of the second and inside it
    marks = {(2, 9): -1.0, (3, 0): -1.0, (4, 5): -1.0}
    args = (_marked_terms(6, marks), "+", REGION, p_ref, _grid(cfg_ref, 10, 6))
    _chunk_rows(monkeypatch, 3, 10)
    rep = verify_sign_region(*args)
    assert rep == _one_pass(monkeypatch, *args)
    row = np.linspace(XI1, XI1 + cfg_ref.delta1, 11)[1:]
    assert rep.worst_point == (row[9], np.linspace(1.0, 2.0, 6)[2], -1.0)
    assert (rep.n_violations, rep.min_residual, rep.max_residual) == (3, -1.0, 1.0)


def _traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_near_a_verdict_memory_is_one_chunk(outer_ref, thresholds_minus_ref):
    # at 800 x 160 points a near_A verdict holds one chunk's working set,
    # below 1 MB of traced peak (22.5 MB as one pass over the whole grid),
    # and four times the taus do not raise it (3.8 times as one pass)
    def ev(gap, tau):
        return outer_ref.l0_terms("-", tau, gap=gap)

    base = dataclasses.replace(outer_ref.cfg, xi0=thresholds_minus_ref["xi0"], grid_eta=800)
    region = Region("near_A", base.tau_start, base.tau_start + 20.0)
    peaks = {}
    for n_tau in (40, 160):
        cfg = dataclasses.replace(base, grid_tau=n_tau)
        verify_sign_region(ev, "-", region, outer_ref.p, cfg)  # first-call allocations aside
        peaks[n_tau] = _traced_peak(verify_sign_region, ev, "-", region, outer_ref.p, cfg)
    assert peaks[160] < 2 ** 20
    assert peaks[160] < 1.25 * peaks[40]


def test_l1_evaluator_reads_the_edge_once(solver_ref, monkeypatch):
    """Left of xi1, C and C' of every tau of the column come from one edge
    reading, and C from one inverse per tau; the sampled right half reads
    no edge and solves no C."""
    bar = GluedBarrier(solver_ref, "+", 0.01)
    reads, inverses = [], []
    read_edge, inverse = MatchingSolver._read_edge, SelfSimilarProfile.inverse

    def spied_read(self, sign, taus):
        reads.append(list(taus))
        return read_edge(self, sign, taus)

    def spied_inverse(self, y):
        inverses.append(y)
        return inverse(self, y)

    monkeypatch.setattr(MatchingSolver, "_read_edge", spied_read)
    monkeypatch.setattr(SelfSimilarProfile, "inverse", spied_inverse)
    left_margin(bar, np.linspace(12.0, 18.0, 5))
    assert (len(reads), len(reads[0]), len(inverses)) == (1, 5, 5)
    reads.clear(), inverses.clear()
    region = Region(kind="inner_glued", tau_lo=12.0, tau_hi=18.0)
    verify_sign_region(l1_terms_evaluator(bar), "+", region, bar.outer.p,
                       _grid(bar.outer.cfg, 81, 5))
    assert (reads, inverses) == ([], [])


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("setup,tau_lo", [("ref", 10.0), ("low", 15.150347630467653)])
def test_l1_evaluator_row_equals_the_grid_route(request, setup, tau_lo, sign):
    # one xi row against the tau column gives the bits of the same closed
    # forms over the tiled grid, one tau per point
    bar = GluedBarrier(request.getfixturevalue(f"solver_{setup}"), sign, 0.018)
    cfg = bar.outer.cfg
    taus = np.linspace(tau_lo, tau_lo + 6.0, cfg.grid_tau)
    row = _space_grid(Region("inner_glued", tau_lo, tau_lo + 6.0), taus, cfg, bar.outer.p.gamma)
    assert row.shape == (1, cfg.grid_eta) and np.all(row > XI1)
    res, scale = l1_terms_evaluator(bar)(row, taus[:, None])
    want_res, want_scale = l1_terms_on_grid(bar)(np.tile(row, (taus.size, 1)), taus[:, None])
    assert np.array_equal(res, want_res) and np.array_equal(scale, want_scale)


@pytest.mark.parametrize("setup", ["ref", "low"])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_far_field_verdict_equals_the_tiled_grid(request, setup, sign):
    # the far-field band's one gap row against each chunk's tau column
    # reports what the tiled (n_chunk, grid_eta) grids report, field for field
    outer = request.getfixturevalue(f"outer_{setup}")
    cfg = outer.cfg
    region = Region("far_field", cfg.tau_start, cfg.tau_start + 20.0)

    def ev(gap, tau):
        return outer.l0_terms(sign, tau, gap=gap)

    def tiled(gap, tau):
        return ev(np.tile(gap, (len(tau), 1)), tau)

    got = verify_sign_region(ev, sign, region, outer.p, cfg)
    want = verify_sign_region(tiled, sign, region, outer.p, cfg)
    assert got == want
    assert got.n_points == cfg.grid_tau * cfg.grid_eta


def test_tau_independent_bands_build_one_row(outer_low, monkeypatch):
    """A far-field verdict builds the primitives of one row of grid_eta
    gaps per tau chunk, never a gap grid, and takes the decay factors once
    per tau of the chunk; near_A builds every point of its moving grid, a
    chunk at a time.  A budget of seven rows and a bit leaves a ragged last
    chunk."""
    outer, cfg = outer_low, outer_low.cfg
    monkeypatch.setattr(residuals, "_CHUNK_POINTS", 7 * cfg.grid_eta + 3)
    chunks = [7] * (cfg.grid_tau // 7) + [cfg.grid_tau % 7]
    gaps, factors = [], []
    prims, math_exp = OuterProfileSet._prims, outer_mod._math_exp

    def spied_prims(self, gap):
        gaps.append(np.shape(gap))
        return prims(self, gap)

    def spied_exp(rate, tau):
        factors.append(np.shape(tau))
        return math_exp(rate, tau)

    monkeypatch.setattr(OuterProfileSet, "_prims", spied_prims)
    monkeypatch.setattr(outer_mod, "_math_exp", spied_exp)
    monkeypatch.setattr(residuals, "_math_exp", spied_exp)

    def ev(gap, tau):
        return outer.l0_terms("+", tau, gap=gap)

    assert cfg.grid_tau % 7 and sum(chunks) == cfg.grid_tau
    region = Region("far_field", cfg.tau_start, cfg.tau_start + 20.0)
    assert verify_sign_region(ev, "+", region, outer.p, cfg).passed
    # psi4 on low: e^{-gamma tau} and the rows k = 3, 4
    assert gaps == [(1, cfg.grid_eta)] * len(chunks)
    assert factors == [(n, 1) for n in chunks for _ in range(3)]
    gaps.clear(), factors.clear()
    region = Region("near_A", cfg.tau_start, cfg.tau_start + 20.0)
    assert verify_sign_region(ev, "+", region, outer.p, cfg).passed
    assert gaps == [(n, cfg.grid_eta) for n in chunks]
    assert factors == [shape for n in chunks for shape in [(n,)] + [(n, 1)] * 3]


# -- inner verdict: left margins and the start tau3 ----------------------------

def _verified_pair(gamma):
    """The glued pair at gamma (ref otherwise, default grids) with verify's
    weight eps1/2 and its tau_match: the eps window read from tau_start,
    escalated by 4 until one opens."""
    p = ModelParams(3, 0.1, gamma, 2.0, theta1_minus=-1.0)
    outer = OuterProfileSet(p, default_thresholds(p))
    solver = MatchingSolver(shoot_v0(p), outer, branch_variant(gamma))
    tau_match = outer.cfg.tau_start
    for _ in range(7):
        try:
            eps1, eps2 = find_epsilon_bounds(solver, [tau_match, tau_match + 2.0, tau_match + 5.0])
            break
        except errors.NoAdmissibleEpsilon:
            tau_match += 4.0
    else:
        pytest.fail(f"no eps window opens up to tau_match {tau_match} at gamma {gamma}")
    eps = 0.5 * min(eps1, eps2)
    return (GluedBarrier(solver, "+", eps), GluedBarrier(solver, "-", eps)), tau_match


@pytest.mark.parametrize("gamma", [1.5, 0.5, 0.15, 0.2, 0.7])
def test_former_full_band_verdict_passes_from_tau3(gamma):
    # the former sampled verdict on [-7, xi1 + delta1], both sides of the
    # corner, passes over [tau3, tau3 + 6] for both signs; on ref and low
    # tau3 is tau_match (10 and 15.150347630467653), as the ladder found it
    bars, tau_match = _verified_pair(gamma)
    inner = verify_inner(bars, tau_match)
    assert inner["passed"] and inner["h_nondecreasing"] and "error" not in inner
    tau3 = inner["tau3"]
    assert tau3 == max(tau_match, *inner["tau_star"].values())
    if gamma in (1.5, 0.5):
        assert tau3 == tau_match == {1.5: 10.0, 0.5: 15.150347630467653}[gamma]
    for bar in bars:
        assert full_band_verdict(bar, tau3).passed
        assert inner["left_margin"][bar.sign]["min_over_scale"] > 0.0


def test_plus_start_at_gamma_0_3_is_where_the_full_band_verdict_passes():
    # at gamma 0.3 the plus margin sets tau3 = tau*+ = 31.148 past tau_match
    # 21.917; the former full-band plus verdict fails half a tau earlier
    # (23 violations at 30.648) and passes from tau3
    bars, tau_match = _verified_pair(0.3)
    inner = verify_inner(bars, tau_match)
    assert inner["passed"]
    tau3 = inner["tau3"]
    assert tau3 == inner["tau_star"]["+"] > inner["tau_star"]["-"] == tau_match
    assert tau3 == pytest.approx(31.148015281548652, rel=1e-12)
    early = full_band_verdict(bars[0], tau3 - 0.5)
    assert not early.passed and early.n_violations == 23
    for bar in bars:
        assert full_band_verdict(bar, tau3).passed


def test_inner_verdict_without_a_start_names_the_sign(solver_ref, monkeypatch):
    # at eps = 0 the plus margin e^(-gamma tau) (C+' - (1+gamma) h) keeps
    # the wrong sign on the whole column: the verdict fails before any
    # sampling and names the plus margin; the minus margin still starts
    sampled = []
    monkeypatch.setattr(residuals, "verify_sign_region", lambda *a: sampled.append(a))
    bars = GluedBarrier(solver_ref, "+", 0.0), GluedBarrier(solver_ref, "-", 0.0)
    out = verify_inner(bars, 10.0)
    assert (out["passed"], out["tau3"], out["reports"], sampled) == (False, None, {}, [])
    assert out["tau_star"] == {"+": None, "-": 10.0} and out["tau_column"] == [10.0, 24.0]
    assert out["error"] == "the plus left margin finds no start on the tau column"


def test_inner_verdict_fails_when_h_falls(solver_ref, eps_ref, monkeypatch):
    # the margins bound L1 left of xi1 only while h = phibar0/phibar0' is
    # nondecreasing from 1/2 on the s range they read; when the check says
    # otherwise the verdict fails with the reason, before any sampling
    sampled, read = [], []
    monkeypatch.setattr(residuals, "verify_sign_region", lambda *a: sampled.append(a))
    monkeypatch.setattr(SelfSimilarProfile, "ratio_nondecreasing",
                        lambda self, s_hi: read.append(s_hi) or False)
    bars = tuple(GluedBarrier(solver_ref, sign, 0.5 * eps_ref[0]) for sign in "+-")
    out = verify_inner(bars, 10.0)
    assert (out["passed"], out["tau3"], out["h_nondecreasing"], sampled) == (False, None, False, [])
    assert out["tau_star"] == {"+": 10.0, "-": 10.0}
    # the largest s read is the plus corner at the column's end
    (s_hi,) = read
    assert s_hi == max(XI1 + bars[0].C(10.0 + 6.0 / 39.0 * np.arange(92)))
    assert out["error"] == f"h = phibar0/phibar0' falls on s <= {s_hi:.6g}"


# -- outer thresholds ---------------------------------------------------------

# largest root of the minus quintic at n = 3, m = 0.1, theta1- = -1
# (any gamma and A), the float nearest it, and the minus threshold 1.05
# times it
XI_STAR_REF = 1.7950609747455597
XI0_MINUS_REF = 1.8848140234828377


def test_minus_thresholds_reference(thresholds_minus_ref, outer_ref):
    th = thresholds_minus_ref
    assert branch_variant(outer_ref.p.gamma) == "psi3"
    assert th["sign"] == "-"
    assert th["tau_start"] == 10.0
    assert th["xi0"] == pytest.approx(XI0_MINUS_REF, rel=1e-12)
    assert th["delta0"] == 0.25
    assert th["passed"] and "error" not in th
    assert th["reports"]["near_A"].passed
    assert th["reports"]["far_field"].passed


def test_minus_thresholds_low_gamma(thresholds_minus_low, outer_low):
    th = thresholds_minus_low
    assert branch_variant(outer_low.p.gamma) == "psi4"
    assert th["tau_start"] == pytest.approx(11.150347630467653, rel=1e-12)
    assert th["xi0"] == pytest.approx(XI0_MINUS_REF, rel=1e-12)
    assert th["delta0"] == 0.25
    assert th["passed"]


def test_plus_near_corner_passes_at_base_rung(outer_ref):
    # the plus threshold is the floor cfg.xi0 at the config's tau_start
    th = find_thresholds(outer_ref, "+")
    assert th["tau_start"] == 10.0
    assert th["xi0"] == 1.0
    assert th["delta0"] == 0.25
    assert th["passed"]
    assert [rep.tau_window[0] for rep in th["reports"].values()] == [10.0, 10.0]


def _leading_G(outer, sign, xi, tau):
    """The leading-order near-A residual G of the residuals docstring."""
    p, d = outer.p, outer.p.d
    n1, g = p.n - 1, p.gamma
    th1, th2 = theta(p, 1, sign), theta(p, 2, sign)
    c = n1 * (math.log(g * p.A) + outer._lexp0)
    F = d.a0 * xi + n1 * th1 / xi + n1 * th2 * (g * tau - np.log(xi)) + th2 * c
    F1 = d.a0 - n1 * th1 / xi ** 2 - n1 * th2 / xi
    F2 = 2.0 * n1 * th1 / xi ** 3 + n1 * th2 / xi ** 2
    return n1 * (th2 / xi + th1 / xi ** 2 - F2 / F - d.b1 * (F1 / F) ** 2 - d.b2 * F1 / F)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_leading_order_residual_is_the_near_a_limit(outer_all, sign):
    # at gap = xi e^(-gamma tau), L0 = e^(-gamma tau) l0_terms tends to G;
    # the next terms are O(gamma tau e^(-gamma tau)) relative
    g = outer_all.p.gamma
    tau = outer_all.cfg.tau_start + 40.0
    xi = np.geomspace(0.01 if sign == "+" else 2.0, 1e3, 25)
    (res,), _ = outer_all.l0_terms(sign, np.array([[tau]]), gap=xi[None, :] * math.exp(-g * tau))
    np.testing.assert_allclose(res * math.exp(-g * tau), _leading_G(outer_all, sign, xi, tau),
                               rtol=1e-8)


def _near_A_passes(outer, sign, xi0, grid=(100, 20)):
    """The sampled near-A verdict over both threshold windows at xi0."""
    cfg = dataclasses.replace(_grid(outer.cfg, *grid), xi0=xi0)

    def ev(gap, tau):
        return outer.l0_terms(sign, tau, gap=gap)

    for tau in (cfg.tau_start, cfg.tau_start + 5.0):
        region = Region(kind="near_A", tau_lo=tau, tau_hi=tau + 20.0)
        if not verify_sign_region(ev, sign, region, outer.p, cfg).passed:
            return False
    return True


def _smallest_passing_xi0(outer, sign, lo, hi):
    assert _near_A_passes(outer, sign, hi) and not _near_A_passes(outer, sign, lo)
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _near_A_passes(outer, sign, mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("setup", ["ref", "low"])
@pytest.mark.parametrize("theta1", [-1.0, -0.9])  # b1 = -0.889
def test_minus_xi0_bounds_the_sampled_verdict(request, setup, theta1):
    # the sampled verdict's smallest passing xi0 lies between the
    # leading-order root xi* and the computed xi0 = 1.05 xi*
    base = request.getfixturevalue(f"outer_{setup}")
    p = dataclasses.replace(base.p, theta1_minus=theta1)
    outer = OuterProfileSet(p, base.cfg)
    th = find_thresholds(outer, "-")
    assert th["passed"]
    xi_star = th["xi0"] / 1.05
    if theta1 == -1.0:
        assert xi_star == pytest.approx(XI_STAR_REF, rel=1e-12)
    found = _smallest_passing_xi0(outer, "-", xi_star, th["xi0"])
    assert xi_star < found < th["xi0"]
    # found is 1.07e-6 (ref) and 0.95% (low) above xi*, inside the 5% margin
    assert found / xi_star - 1.0 < 0.02


def test_plus_near_a_limit_is_the_leading_order_crossing(outer_all):
    # G+ at tau_start is negative only below a crossing two orders under
    # the floor xi0 = 1, and the sampled verdict stops passing there too
    tau = outer_all.cfg.tau_start
    xi = np.geomspace(1e-4, 1e6, 200001)
    negative = xi[_leading_G(outer_all, "+", xi, tau) < 0.0]
    crossing = negative.max()
    assert crossing < 0.02 * outer_all.cfg.xi0
    assert _near_A_passes(outer_all, "+", 1.1 * crossing)
    assert not _near_A_passes(outer_all, "+", 0.9 * crossing)


def test_minus_quintic_is_the_leading_order_residual():
    # xi^4 F^2 G / (n-1) from a symbolic G, against the coded coefficients
    xi, a0, b1, b2, n, th1 = sp.symbols("xi a0 b1 b2 n theta1")
    F = a0 * xi + (n - 1) * th1 / xi
    G = (n - 1) * (th1 / xi ** 2 - sp.diff(F, xi, 2) / F - b1 * (sp.diff(F, xi) / F) ** 2
                   - b2 * sp.diff(F, xi) / F)
    P = sp.Poly(sp.cancel(G * xi ** 4 * F ** 2 / (n - 1)), xi)
    assert P.degree() == 5
    for p in (ModelParams(3, 0.1, 1.5, 2.0, theta1_minus=-1.0),
              ModelParams(5, 0.05, 0.3, 1.2), ModelParams(8, 0.55, 1.0, 2.0)):
        values = {a0: p.d.a0, b1: p.d.b1, b2: p.d.b2, n: p.n, th1: p.theta1_minus}
        want = [float(c.subs(values)) for c in P.all_coeffs()]
        np.testing.assert_allclose(residuals._minus_quintic(p), want, rtol=1e-12, atol=1e-12)
    ref = {a0: 28.0 / 9.0, b1: -8.0 / 9.0, b2: 5.0 / 9.0, n: 3, th1: -1.0}
    roots = sp.Poly(P.as_expr().subs(ref), xi).nroots()
    assert max(float(r) for r in roots if r.is_real) == pytest.approx(XI_STAR_REF, rel=1e-12)


def test_failed_recheck_window_is_reported(outer_ref, monkeypatch):
    # a verdict that passes at tau_start but not over the window from
    # tau_start + 5 fails the thresholds, and the failing window is reported
    verdict = residuals.verify_sign_region

    def late_fail(terms_fn, want, region, p, cfg):
        report = verdict(terms_fn, want, region, p, cfg)
        report.passed = report.passed and region.tau_lo == cfg.tau_start
        return report

    monkeypatch.setattr(residuals, "verify_sign_region", late_fail)
    th = find_thresholds(outer_ref, "-")
    assert th["passed"] is False and "error" not in th
    assert [rep.tau_window[0] for rep in th["reports"].values()] == [15.0, 15.0]


@pytest.mark.parametrize("setup, grid", [("ref", (200, 40)), ("low", (100, 20))],
                         ids=["ref-200x40", "low-100x20"])
def test_c10_star_splits_the_plus_far_field_verdict(request, setup, grid):
    # kappa = theta2+ gamma (C10_star - C10) is the leading far-field
    # coefficient of the plus residual: the sampled verdict passes just
    # below C10_star and fails just above it
    base = request.getfixturevalue(f"outer_{setup}")
    for factor, passed in ((0.98, True), (1.02, False)):
        out = at_C10(base, factor * base.C10_star)
        cfg = _grid(out.cfg, *grid)

        def ev(gap, tau, out=out):
            return out.l0_terms("+", tau, gap=gap)

        for tau in (cfg.tau_start, cfg.tau_start + 5.0):
            region = Region(kind="far_field", tau_lo=tau, tau_hi=tau + 20.0)
            rep = verify_sign_region(ev, "+", region, out.p, cfg)
            assert rep.passed is passed, (factor, tau)
            assert (rep.n_violations == 0) is passed


def test_plus_far_field_above_c10_star_fails_before_the_ladder(outer_ref, monkeypatch):
    # at C10 >= C10_star kappa <= 0, so the supersolution verdict cannot
    # hold far out: find_thresholds says so before any band is sampled
    sampled = []
    monkeypatch.setattr(residuals, "verify_sign_region", lambda *a: sampled.append(a))
    for C10 in (4.0, outer_ref.C10_star):
        with pytest.raises(errors.InvalidParameter, match=r"C10\* = 0\.907086.*kappa"):
            find_thresholds(at_C10(outer_ref, C10), "+")
    assert sampled == []


def test_minus_threshold_beyond_xi1_fails_before_any_band(monkeypatch):
    # at theta1- = -1e8 the F > 0 bound puts xi0- at 8.4e3, far past the
    # glue corner xi1 = 10: the outer verdict could not reach the corner,
    # so find_thresholds refuses the config before any band is sampled
    p = ModelParams(3, 0.1, 1.5, 2.0, theta1_minus=-1e8)
    out = OuterProfileSet(p, default_thresholds(p))
    sampled = []
    monkeypatch.setattr(residuals, "verify_sign_region", lambda *a: sampled.append(a))
    with pytest.raises(errors.InvalidParameter, match=r"xi0 = 8419\.36 exceeds xi1 = 10"):
        find_thresholds(out, "-")
    assert sampled == []


def test_threshold_arguments_checked_before_the_ladder(outer_ref, monkeypatch):
    # a bad sign is an argument error, raised before any band is sampled
    sampled = []
    monkeypatch.setattr(residuals, "verify_sign_region", lambda *a: sampled.append(a))
    with pytest.raises(errors.InvalidParameter, match="sign"):
        find_thresholds(outer_ref, "up")
    assert sampled == []


def test_xi0_lower_bound_respected():
    # F > 0 needs xi > sqrt((n-1)|theta1|/a0); xi* is the larger of that
    # bound and the quintic's largest root, and xi0 = 1.05 xi*
    for p, bound_binds in ((ModelParams(3, 0.1, 1.5, 2.0, theta1_minus=-30.0), False),
                           (ModelParams(8, 0.55, 1.0, 2.0, theta1_minus=-30.0), True)):
        out = OuterProfileSet(p, default_thresholds(p))
        bound = math.sqrt((p.n - 1) * 30.0 / p.d.a0)
        roots = np.roots(residuals._minus_quintic(p))
        largest = max(roots.real[np.abs(roots.imag) < 1e-9 * np.abs(roots)])
        assert bool(largest < bound) is bound_binds
        th = find_thresholds(out, "-")
        assert th["xi0"] == pytest.approx(1.05 * max(bound, largest), rel=1e-12)
        assert th["reports"]["near_A"].passed


def _np_largest_root(coeffs):
    """The reference root: the largest of np.roots's roots (the companion
    matrix's eigenvalues) whose imaginary part is below 1e-9 of their
    modulus."""
    roots = np.roots(coeffs)
    return float(max(roots.real[np.abs(roots.imag) <= 1e-9 * np.abs(roots)]))


def _mp_largest_root(coeffs):
    """The largest real root of the exact float coefficients, to 30 digits."""
    with mpmath.workdps(30):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in coeffs], maxsteps=50, extraprec=100)
        return max(mpmath.re(r) for r in roots if abs(mpmath.im(r)) <= 1e-20 * abs(r))


def _quintic_cases():
    """Minus quintics over n 3..8, m across (0, (n-2)/(n+2)) and theta1-
    from just below b1 to -1e8, whose coefficients span 30 decades, with
    the two cases of test_xi0_lower_bound_respected."""
    cases = [ModelParams(3, 0.1, 1.5, 2.0, theta1_minus=-30.0),
             ModelParams(8, 0.55, 1.0, 2.0, theta1_minus=-30.0)]
    for n in range(3, 9):
        m_crit = (n - 2) / (n + 2)
        for m in (0.05 * m_crit, 0.5 * m_crit, 0.95 * m_crit):
            b1 = ModelParams(n, m, 1.5, 2.0).d.b1
            for th in (b1 - 0.05, b1 - 1.0, -30.0, -1e8):
                cases.append(ModelParams(n, m, 1.5, 2.0, theta1_minus=min(th, b1 - 0.05)))
    return cases


def test_largest_quintic_root_is_nearest_the_exact_root():
    # the bisected root agrees with np.roots and lies at least as close as
    # it to the exact root of the float coefficients, within half an ulp
    for p in _quintic_cases():
        coeffs = residuals._minus_quintic(p)
        got, ref, exact = polyroot.largest_real_root(coeffs), _np_largest_root(coeffs), \
            _mp_largest_root(coeffs)
        assert got == pytest.approx(ref, rel=1e-9), p
        assert abs(got - exact) <= abs(ref - exact), p
        assert abs(got - exact) <= 0.5 * math.ulp(got), p


def test_largest_root_of_simple_polynomials():
    # exact roots come back exactly, a triple root included; a polynomial
    # without a real root, or whose root 1e600 is no float, raises
    # NonConvergent
    assert polyroot.largest_real_root([1.0, 0.0, -2.0]) == math.sqrt(2.0)
    assert polyroot.largest_real_root([1.0, -3.0, 3.0, -1.0]) == 1.0
    assert polyroot.largest_real_root([0.0, -2.0, 0.0, 6.0]) == math.sqrt(3.0)
    assert polyroot.largest_real_root([1.0, 0.0, 0.0]) == 0.0
    for coeffs in ([1.0, 0.0, 1.0], [1e-300, -1e300]):
        with pytest.raises(errors.NonConvergent, match="no real root"):
            polyroot.largest_real_root(coeffs)


def test_float_keys_order_the_floats():
    floats = [-math.inf, -1e308, -1.0, -5e-324, 0.0, 5e-324, 1.0, np.nextafter(1.0, 2.0), 1e308]
    keys = [polyroot._float_key(x) for x in floats]
    assert keys == sorted(keys) and polyroot._float_key(-0.0) == 0
    assert [polyroot._key_float(k) for k in keys] == floats
    assert keys[-2] - keys[-3] == 1 and keys[3:6] == [-1, 0, 1]
