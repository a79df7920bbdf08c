"""Residual operators: two-route identities, sign verdicts, outer thresholds."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
import sympy as sp

from fdelab import errors, residuals
from fdelab import outer as outer_mod
from fdelab.matching import GluedBarrier, MatchingSolver
from fdelab.outer import OuterProfileSet, branch_variant
from fdelab.params import ModelParams, ThresholdConfig, default_thresholds, theta
from fdelab.reporting import make_check
from fdelab.selfsim import SelfSimilarProfile
from fdelab.residuals import (
    Region,
    ResidualReport,
    _space_grid,
    find_thresholds,
    l1_terms_evaluator,
    verify_sign_region,
)
from reference_routes import (
    L0_residual,
    L1_residual,
    L1_terms,
    at_C10,
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


def test_inner_closed_form_matches_numeric_l1(solver_ref):
    # the package's closed form against L1 of the raw glued derivatives
    bar = GluedBarrier(solver_ref, "-", 0.01)
    xis = np.linspace(-5.0, 9.5, 30)
    num = L1_residual(glued_raw_evaluator(bar), xis, 12.0, bar.outer.p)
    closed, _ = _l1_at(bar, xis, 12.0)
    assert np.max(np.abs(num - closed)) < 1e-12


def test_inner_defect_frozen(solver_ref):
    # eps = 0 leaves the pure e^{-gamma tau} transport defect; negative is
    # the correct direction for the subsolution
    bar = GluedBarrier(solver_ref, "-", 0.0)
    d0, d5 = _l1_at(bar, [0.0, 5.0], 10.0)[0].tolist()
    assert d0 == pytest.approx(INNER_DEFECT_XI0, rel=1e-6)
    assert d5 == pytest.approx(INNER_DEFECT_XI5, rel=1e-6)
    assert d0 < 0.0 and d5 < 0.0


def test_l1_terms_evaluator_consistent(solver_ref):
    # one row per tau of the column, each against the raw residual
    bar = GluedBarrier(solver_ref, "-", 0.01)
    ev = l1_terms_evaluator(bar)
    xis = np.linspace(-3.0, 8.0, 20)
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
    # on the verdict's band [-7, xi1 + delta1], both sides of the corner,
    # the closed forms agree with L1 of the raw glued derivatives to
    # 1e-12 of the raw terms' magnitude
    bar = GluedBarrier(request.getfixturevalue(f"solver_{setup}"), sign, 0.018)
    cfg = bar.outer.cfg
    taus = np.linspace(tau_lo, tau_lo + 6.0, 4)
    xi = _space_grid(Region("inner_glued", tau_lo, tau_lo + 6.0), taus, cfg, bar.outer.p.gamma)
    assert xi[0, 0] == -7.0 and xi[0, -1] == cfg.xi1 + cfg.delta1
    res, _ = l1_terms_evaluator(bar)(xi, taus[:, None])
    raw = glued_raw_evaluator(bar)
    for i, tau in enumerate(taus.tolist()):
        terms = L1_terms(raw, xi[0], tau, bar.outer.p)
        raw_scale = sum(np.abs(t) for t in terms)
        assert np.max(np.abs(res[i] - sum(terms)) / raw_scale) < 1e-12


@pytest.mark.parametrize("sign", ["+", "-"])
def test_inner_margin_stays_away_from_zero_below_the_band(solver_ref, eps_ref, sign):
    # the raw route's margin over its scale decays like phibar0 ~ e^{2 xi}
    # to rounding; the closed form's stays bounded away from 0: at tau = 10
    # and the weight verify recommends, eps1/2, it is at least 0.9998 (+)
    # and 0.99999 (-) on [-25, -7]
    bar = GluedBarrier(solver_ref, sign, 0.5 * eps_ref[0])
    res, scale = _l1_at(bar, np.linspace(-25.0, -7.0, 181), 10.0)
    signed = res if sign == "+" else -res
    assert np.min(signed / scale) > 0.5


def test_far_left_underflow_is_a_nonpositive_profile(solver_ref):
    # phibar0 at xi = -400 underflows to 0, which L1 cannot divide by
    bar = GluedBarrier(solver_ref, "-", 0.01)
    assert bar.wbar([-400.0], [10.0])[0, 0] == 0.0
    with pytest.raises(errors.NonPositiveProfile):
        _l1_at(bar, [-400.0, 0.0], 10.0)


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
    res, scale = _l1_at(bar, [XI1, right], tau)
    raw = L1_residual(glued_raw_evaluator(bar), np.array([XI1]), tau, bar.outer.p)
    assert abs(res[0] - raw[0]) < 1e-12
    e = math.exp(-bar.outer.p.gamma * tau)
    l0, l0_scale = bar.outer.l0_terms("-", np.array([[tau]]), gap=np.array([[right * e]]))
    assert (res[1], scale[1]) == (e * l0[0, 0], e * l0_scale[0, 0])


# -- verdict classification ---------------------------------------------------

# on the config's band [-7, xi1 + delta1] = [-7, 30], no grid point of the
# verdict tests falls on the skipped corner xi1 = 10
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
        "worst_point": [-7.0, 1.0, 1.0],
        "passed": True,
    }
    # the region kind names the operator
    far = Region(kind="far_field", tau_lo=1.0, tau_hi=2.0)
    assert verify_sign_region(
        _const_terms(1.0), "+", far, p_ref, _grid(cfg_ref, 10, 2)
    ).operator == "L0"


def test_region_is_a_kind_and_a_tau_window(p_ref, cfg_ref):
    # the band ends come from the config, or from the module constants
    # where the config has none
    assert [f.name for f in dataclasses.fields(Region)] == ["kind", "tau_lo", "tau_hi"]
    assert (residuals._XI_LO, residuals._FAR_CUT) == (-7.0, 2e4)
    cfg = dataclasses.replace(cfg_ref, xi0=0.5, xi1=4.0, delta0=0.125, delta1=2.0, grid_eta=9)
    taus = np.array([10.0, 11.0])
    near = _space_grid(Region("near_A", 10.0, 11.0), taus, cfg, p_ref.gamma)
    assert near[:, 0].tolist() == [0.5 * math.exp(-1.5 * t) for t in taus]
    assert np.all(near[:, -1] == 0.125)
    far = _space_grid(Region("far_field", 10.0, 11.0), taus, cfg, p_ref.gamma)
    assert far[0, 0] == 0.125 and far[0, -1] == pytest.approx(2e4, rel=1e-15)
    inner = _space_grid(Region("inner_glued", 10.0, 11.0), taus, cfg, p_ref.gamma)
    assert inner[0, 0] == -7.0 and inner[0, -1] == 6.0


def test_region_grid_construction(p_ref, cfg_ref):
    seen = {}

    def record(space, tau):
        seen.setdefault("grids", []).append(np.asarray(space))
        return _ones(space, tau), _ones(space, tau)

    glued = Region(kind="inner_glued", tau_lo=10.0, tau_hi=12.0)
    verify_sign_region(record, "+", glued, p_ref, _grid(cfg_ref, 101, 2))
    for grid in seen["grids"]:
        assert grid.shape == (1, 101)
        assert grid.min() >= -7.0
        assert grid.max() <= 30.0
        assert np.all(np.abs(grid - 10.0) > 1e-10)  # corner excluded


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


def test_corner_masked_row_without_points_rejected(p_ref, cfg_ref, monkeypatch):
    # one sample, and it sits on the corner xi1 that inner_glued skips
    monkeypatch.setattr(residuals, "_XI_LO", cfg_ref.xi1)
    region = Region(kind="inner_glued", tau_lo=10.0, tau_hi=12.0)
    with pytest.raises(errors.EmptyRegion):
        verify_sign_region(_const_terms(1.0), "+", region, p_ref, _grid(cfg_ref, 1, 4))


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
    grid = np.linspace(residuals._XI_LO, cfg.xi1 + cfg.delta1, n_space)
    return grid[np.abs(grid - cfg.xi1) > 1e-9]


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


@pytest.mark.parametrize("setup", ["ref", "low"])
@pytest.mark.parametrize("kind", ["near_A", "far_field"])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_batched_l0_sweep_equals_per_tau_loop(request, setup, kind, sign):
    # psi3 on ref; psi4 on low carries the correction rows k = 3, 4
    outer = request.getfixturevalue(f"outer_{setup}")
    tau_lo = outer.cfg.tau_start
    region = Region(kind=kind, tau_lo=tau_lo, tau_hi=tau_lo + 20.0)
    cfg = dataclasses.replace(_grid(outer.cfg, 120, 12), xi0=2.0)

    def ev(gap, tau):
        return outer.l0_terms(sign, tau, gap=gap)

    got = verify_sign_region(ev, sign, region, outer.p, cfg)
    want = _verify_per_tau("L0", ev, sign, region, outer.p, cfg)
    assert got == want


@pytest.mark.parametrize("sign", ["+", "-"])
def test_batched_l1_sweep_equals_per_tau_loop(solver_ref, sign):
    bar = GluedBarrier(solver_ref, sign, 0.01)
    p = bar.outer.p
    ev = l1_terms_evaluator(bar)
    region = Region(kind="inner_glued", tau_lo=12.0, tau_hi=18.0)
    cfg = _grid(bar.outer.cfg, 81, 5)

    def one_tau(xi, tau):
        res, scale = ev(xi[None, :], np.array([[tau]]))
        return res[0], scale[0]

    got = verify_sign_region(ev, sign, region, p, cfg)
    want = _verify_per_tau("L1", one_tau, sign, region, p, cfg)
    assert got == want


def test_l1_evaluator_reads_the_edge_once(solver_ref, monkeypatch):
    """C and C' of every tau come from one edge reading, and C from one
    inverse per tau, when the xi row reaches xi <= xi1."""
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
    region = Region(kind="inner_glued", tau_lo=12.0, tau_hi=18.0)
    verify_sign_region(l1_terms_evaluator(bar), "+", region, bar.outer.p,
                       _grid(bar.outer.cfg, 81, 5))
    assert (len(reads), len(reads[0]), len(inverses)) == (1, 5, 5)
    # a row right of xi1 reaches no xi <= xi1, so it solves no C
    reads.clear(), inverses.clear()
    l1_terms_evaluator(bar)(np.linspace(11.0, 20.0, 7), np.array([[12.0], [13.0], [14.0]]))
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
    assert row.shape == (1, cfg.grid_eta) and np.any(row < XI1) and np.any(row > XI1)
    res, scale = l1_terms_evaluator(bar)(row, taus[:, None])
    want_res, want_scale = l1_terms_on_grid(bar)(np.tile(row, (taus.size, 1)), taus[:, None])
    assert np.array_equal(res, want_res) and np.array_equal(scale, want_scale)


@pytest.mark.parametrize("setup", ["ref", "low"])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_far_field_verdict_equals_the_tiled_grid(request, monkeypatch, setup, sign):
    # the far-field band's one gap row against the tau column reports what
    # the tiled (grid_tau, grid_eta) grid reports, field for field
    outer = request.getfixturevalue(f"outer_{setup}")
    cfg = outer.cfg
    region = Region("far_field", cfg.tau_start, cfg.tau_start + 20.0)

    def ev(gap, tau):
        return outer.l0_terms(sign, tau, gap=gap)

    got = verify_sign_region(ev, sign, region, outer.p, cfg)
    row = residuals._space_grid
    monkeypatch.setattr(residuals, "_space_grid",
                        lambda *a: np.tile(row(*a), (cfg.grid_tau, 1)))
    want = verify_sign_region(ev, sign, region, outer.p, cfg)
    assert got == want
    assert got.n_points == cfg.grid_tau * cfg.grid_eta


def test_tau_independent_bands_build_one_row(outer_low, monkeypatch):
    """A far-field verdict builds the primitives of its grid_eta gaps once
    and takes the decay factors once per tau; near_A builds every point of
    its moving grid."""
    outer, cfg = outer_low, outer_low.cfg
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

    region = Region("far_field", cfg.tau_start, cfg.tau_start + 20.0)
    assert verify_sign_region(ev, "+", region, outer.p, cfg).passed
    # psi4 on low: e^{-gamma tau} and the rows k = 3, 4
    assert gaps == [(1, cfg.grid_eta)]
    assert factors == [(cfg.grid_tau, 1)] * 3
    gaps.clear(), factors.clear()
    region = Region("near_A", cfg.tau_start, cfg.tau_start + 20.0)
    assert verify_sign_region(ev, "+", region, outer.p, cfg).passed
    assert gaps == [(cfg.grid_tau, cfg.grid_eta)]
    assert factors == [(cfg.grid_tau,)] + [(cfg.grid_tau, 1)] * 3


# -- outer thresholds ---------------------------------------------------------

# largest root of the minus quintic at n = 3, m = 0.1, theta1- = -1
# (any gamma and A), and the minus threshold 1.05 times it
XI_STAR_REF = 1.795060974745561
XI0_MINUS_REF = 1.8848140234828392


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
