"""Matching layer: C(tau) solves, corner inequalities, epsilon windows."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from fdelab import comoving, errors, matching
from fdelab.matching import (
    GluedBarrier,
    MatchingSolver,
    check_ordering,
    find_epsilon_bounds,
)
from fdelab.outer import OuterProfileSet, branch_variant
from fdelab.params import ModelParams, default_thresholds
from fdelab.selfsim import shoot_v0
from numdiff import fd_derivative
from reference_routes import glued_raw_evaluator, masked_wbar
from shoot_sweep import shoot_or_error, sweep_params

XI1 = 10.0  # the matching radius of the default config

# Frozen matching constants at the reference set (xi1 = 10, eps = 0,
# the default C10 = 0).
C_PLUS_REF = {
    8.0: 9.51782701318659,
    10.0: 12.56550247808627,
    16.0: 21.677892878902185,
    40.0: 57.93950701212667,
}
C_MINUS_REF_16 = -0.4530757400619458
C_MINUS_REF_40 = -0.45307573802160883

EPS1_REF = 0.03613281235546875
EPS1_LOW = 0.028320312386718748


def test_branch_variant_selection():
    assert branch_variant(1.5) == "psi3"
    assert branch_variant(0.5) == "psi4"
    assert branch_variant(0.3) == "psi4"


def test_matching_limits_meet_their_bars_at_gamma_03():
    # the edge values carry an O(gamma tau e^(-gamma tau)) remainder: read
    # at tau 40, the minus edge value missed its 1e-6 bar by 7.45e-5 at
    # gamma 0.3; tau_ref = max(40, 20/gamma) puts gamma tau_ref at 20
    p = ModelParams(3, 0.1, 0.3, 2.0, theta1_minus=-1.0)
    out = OuterProfileSet(p, default_thresholds(p))
    limits = MatchingSolver(shoot_v0(p), out, branch_variant(p.gamma)).matching_limits()
    assert limits["plus_increment_rel_err"] < 5e-2
    assert limits["minus_edge_rel_err"] < 1e-6
    assert limits["plus_edge_slope_rel_err"] < 5e-3
    assert limits["minus_edge_slope_rel_err"] < 5e-3


@pytest.mark.parametrize(
    "gamma", [0.3, 0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 1.5, 3.0]
)
def test_correction_rows_exist_exactly_under_the_psi4_label(gamma, profile_ref):
    # rows k = 3..2N exist iff 2N >= 3 iff gamma <= 1, the psi4 label, also
    # at the ulp neighbours of 1; the solver accepts only that label
    p = ModelParams(3, 0.1, gamma, 2.0, theta1_minus=-1.0)
    out = OuterProfileSet(p, default_thresholds(p))
    label = branch_variant(gamma)
    for sign in ("+", "-"):
        rows = out.correction_coeffs(sign)
        assert all(c != 0.0 for row in rows.values() for c in row.values())
        has_rows = bool(rows)
        assert has_rows == (label == "psi4")
    MatchingSolver(profile_ref, out, label)
    other = "psi3" if label == "psi4" else "psi4"
    with pytest.raises(errors.InvalidParameter, match="variant"):
        MatchingSolver(profile_ref, out, other)


def test_solver_reads_xi1_from_config(solver_ref, solver_low, cfg_ref, cfg_low):
    # the matching radius is the config's, and the glued barriers share it
    assert solver_ref.xi1 == cfg_ref.xi1 == XI1
    assert solver_low.xi1 == cfg_low.xi1 == XI1
    assert GluedBarrier(solver_ref, "+", 0.0).xi1 == XI1


def test_c_plus_frozen(solver_ref):
    for tau, want in C_PLUS_REF.items():
        got = solver_ref.solve_matching("+", 0.0, [tau])[0]
        assert got == pytest.approx(want, rel=1e-10)


def test_c_minus_frozen_and_saturating(solver_ref):
    c16 = solver_ref.solve_matching("-", 0.0, [16.0])[0]
    c40 = solver_ref.solve_matching("-", 0.0, [40.0])[0]
    assert c16 == pytest.approx(C_MINUS_REF_16, rel=1e-10)
    assert c40 == pytest.approx(C_MINUS_REF_40, rel=1e-10)
    # the subsolution constant saturates while C+ grows like e^(gamma tau)
    assert abs(c40 - c16) < 1e-8
    assert solver_ref.solve_matching("+", 0.0, [40.0])[0] > 2.0 * C_PLUS_REF[16.0]


def test_c_plus_growth_rate(solver_ref, p_ref):
    # C+ increments scale with the outer edge: C(tau+1) - C(tau) approaches
    # a constant times e^(gamma tau) only through the edge value; check the
    # tau-16 -> tau-40 increment against the frozen values for coherence
    got = C_PLUS_REF[40.0] - C_PLUS_REF[16.0]
    inc = (solver_ref.solve_matching("+", 0.0, [40.0])[0]
           - solver_ref.solve_matching("+", 0.0, [16.0])[0])
    assert inc == pytest.approx(got, rel=1e-9)


def test_matching_limits_closed_forms(solver_ref, p_ref, d_ref):
    ml = solver_ref.matching_limits()
    p, d = p_ref, d_ref
    n1, gA = p.n - 1, p.gamma * p.A
    assert ml["plus_increment_limit"] == pytest.approx(
        n1 * p.theta2_plus / p.A, rel=1e-12
    )
    assert ml["minus_edge_limit"] == pytest.approx(
        d.a0 * XI1 / gA + n1 * p.theta1_minus / (gA * XI1), rel=1e-12
    )
    assert ml["plus_edge_slope_limit"] == pytest.approx(
        d.a0 / gA - n1 * (p.theta2_plus * XI1 + p.theta1_plus) / (gA * XI1**2),
        rel=1e-12,
    )
    assert ml["minus_edge_slope_limit"] == pytest.approx(
        d.a0 / gA - n1 * p.theta1_minus / (gA * XI1**2), rel=1e-12
    )
    for key in ("plus_increment", "minus_edge", "plus_edge_slope",
                "minus_edge_slope"):
        assert ml[f"{key}_rel_err"] < 1e-9


def test_corner_inequality_at_eps_zero(solver_ref):
    # supersolution needs left slope >= right slope at the corner;
    # subsolution needs the reverse
    (plus,) = GluedBarrier(solver_ref, "+", 0.0).corner_jump([16.0])
    assert plus.holds
    assert plus.left_slope == pytest.approx(1.0260448301474918, rel=1e-9)
    assert plus.right_slope == pytest.approx(0.9266666656728635, rel=1e-9)
    assert plus.left_slope > plus.right_slope

    (minus,) = GluedBarrier(solver_ref, "-", 0.0).corner_jump([16.0])
    assert minus.holds
    assert minus.left_slope == pytest.approx(1.0063602355826702, rel=1e-9)
    assert minus.right_slope == pytest.approx(1.0437037033795549, rel=1e-9)
    assert minus.left_slope < minus.right_slope


def test_corner_inequality_fails_at_large_eps(solver_ref):
    # eps steepens the inner side; past the admissible window the
    # subsolution corner flips
    (bad,) = GluedBarrier(solver_ref, "-", 0.05).corner_jump([16.0])
    assert not bad.holds
    assert bad.left_slope == pytest.approx(1.0579771008713095, rel=1e-9)
    assert bad.left_slope > bad.right_slope


def test_continuity_at_corner(solver_ref):
    for sign in ("+", "-"):
        bar = GluedBarrier(solver_ref, sign, 0.01)
        assert abs(bar.continuity_mismatch([16.0])[0]) < 1e-9


def test_c_prime_matches_fd(solver_ref):
    bar = GluedBarrier(solver_ref, "+", 0.0)
    for tau in (10.0, 16.0):
        fd = (bar.C([tau + 1e-3])[0] - bar.C([tau - 1e-3])[0]) / 2e-3
        (C,), (C_prime,) = bar.C_and_C_prime([tau])
        assert C == bar.C([tau])[0]
        assert C_prime == pytest.approx(fd, rel=1e-5)


def test_epsilon_bounds_reference(eps_ref):
    eps1, eps2 = eps_ref
    assert eps1 == pytest.approx(EPS1_REF, rel=1e-12)
    assert eps2 == 0.25


def test_epsilon_bounds_low_gamma_needs_later_tau(solver_low):
    # at gamma = 0.5 the corner inequality is still violated on the CLI's
    # default tau window; it opens about four units later
    with pytest.raises(errors.NoAdmissibleEpsilon):
        find_epsilon_bounds(solver_low, [11.15, 13.15, 16.15])
    eps1, eps2 = find_epsilon_bounds(solver_low, [15.15, 17.15, 20.15])
    assert eps1 == pytest.approx(EPS1_LOW, rel=1e-12)
    assert eps2 == 0.25


def test_epsilon_widens_barriers(solver_ref):
    # C+ grows and C- falls as eps increases: the pair separates
    cp = [solver_ref.solve_matching("+", e, [16.0])[0] for e in (0.0, 0.01, 0.03)]
    cm = [solver_ref.solve_matching("-", e, [16.0])[0] for e in (0.0, 0.01, 0.03)]
    assert cp[0] < cp[1] < cp[2]
    assert cm[0] > cm[1] > cm[2]


def test_epsilon_out_of_range(solver_ref):
    with pytest.raises(errors.EpsilonOutOfRange):
        GluedBarrier(solver_ref, "+", 0.3)
    with pytest.raises(errors.EpsilonOutOfRange):
        solver_ref.solve_matching("+", -0.01, [16.0])


def test_sign_other_than_plus_or_minus_is_refused(solver_ref):
    # the barrier used to fail on a bare KeyError from its sign factor
    for sign in ("x", "", None, "+-"):
        with pytest.raises(errors.InvalidParameter, match="sign must be"):
            GluedBarrier(solver_ref, sign, 0.0)
        with pytest.raises(errors.InvalidParameter, match="sign must be"):
            solver_ref.solve_matching(sign, 0.0, [16.0])


def test_solver_keeps_nothing_per_tau(solver_ref):
    """C at 20,000 distinct taus (10 x 1,000 per sign) leaves less than
    64 KB behind, about 3 bytes a tau; a store of every C kept more than
    3 MB."""
    solver_ref.solve_matching("+", 0.018, [10.0])  # one-time allocations are not growth
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for sign in ("+", "-"):
            for k in range(10):
                solver_ref.solve_matching(sign, 0.018, 10.0 + k + np.arange(1000) / 1000.0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


def test_ordering_of_glued_pair(solver_ref, eps_ref):
    eps = 0.5 * min(eps_ref)
    plus = GluedBarrier(solver_ref, "+", eps)
    minus = GluedBarrier(solver_ref, "-", eps)
    rep = check_ordering(plus, minus, [10.0, 12.0, 15.0])
    assert rep["ordered"] is True
    assert rep["min_gap"] > 0.0
    assert rep["min_minus"] >= 0.0


def test_wbar_continuous_across_corner(solver_ref):
    bar = GluedBarrier(solver_ref, "-", 0.01)
    tau = 14.0
    lo = bar.wbar([XI1 - 1e-8], [tau])[0, 0]
    hi = bar.wbar([XI1 + 1e-8], [tau])[0, 0]
    assert hi == pytest.approx(lo, rel=1e-6)


def test_outer_edge_consistent_with_corner(solver_ref):
    (val,), (slope,) = solver_ref.outer_edge("+", [16.0])
    (rep,) = GluedBarrier(solver_ref, "+", 0.0).corner_jump([16.0])
    assert slope == pytest.approx(rep.right_slope, rel=1e-12)
    assert val == pytest.approx(
        GluedBarrier(solver_ref, "+", 0.0).wbar([XI1 + 1e-12], [16.0])[0, 0], rel=1e-9
    )


# (solver fixture, tau) per variant: psi3 on ref, psi4 with correction rows
# on low, where the matching target turns positive only at later tau
VALUE_ROUTE_CASES = [("solver_ref", 12.0), ("solver_low", 17.0)]


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("solver_name,tau", VALUE_ROUTE_CASES)
def test_wbar_value_equals_psi_bundle(request, solver_name, tau, sign):
    solver = request.getfixturevalue(solver_name)
    bar = GluedBarrier(solver, sign, 0.01)
    xi = np.linspace(XI1 + 1e-3, 5.0 * XI1, 41)
    gamma = solver.outer.p.gamma
    psi = solver.outer.psi_bundle(sign, tau, gap=xi * math.exp(-gamma * tau))[0]
    assert np.all(bar.wbar(xi, [tau])[0] == math.exp(gamma * tau) * psi)


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("solver_name,tau", VALUE_ROUTE_CASES)
def test_solve_matching_target_equals_outer_edge(request, solver_name, tau, sign):
    # C meets the target (1 +/- eps) times the outer edge value to the
    # resolution of phibar0 itself: its exponent 2s + c Z(s) carries
    # rounding of about ulp(2s)
    solver = request.getfixturevalue(solver_name)
    eps = 0.01
    (edge_value,), _ = solver.outer_edge(sign, [tau])
    target = (1.0 + (eps if sign == "+" else -eps)) * edge_value
    s = XI1 + solver.solve_matching(sign, eps, [tau])[0]
    assert abs(solver.profile.phibar0(s) / target - 1.0) <= 2.0 * math.ulp(2.0 * s)


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("solver_name", ["solver_ref", "solver_low"])
def test_c_from_the_table_matches_the_root_search(request, solver_name, sign):
    # the table inverse and scipy's brentq root of phibar0(xi1 + C) =
    # target agree to well within brentq's own tolerance of 1e-10
    solver = request.getfixturevalue(solver_name)
    for tau in (10.0, 17.0, 25.0, 40.0):
        for eps in (0.0, 0.02):
            (edge_value,), _ = solver.outer_edge(sign, [tau])
            target = (1.0 + (eps if sign == "+" else -eps)) * edge_value
            if target <= 0.0:  # low's outer edge turns positive only later
                continue
            want = scipy.optimize.brentq(
                lambda C: solver.profile.phibar0(XI1 + C) - target, -60.0, 380.0, xtol=1e-10
            )
            assert abs(solver.solve_matching(sign, eps, [tau])[0] - want) <= 1e-10


# points left of the corner and right of it
OFF_CORNER_XI = np.array([-5.0, 0.0, 9.0, 11.0, 20.0, 40.0])


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("solver_name,tau", VALUE_ROUTE_CASES)
def test_reference_glued_derivatives_match_fd(request, solver_name, tau, sign):
    # the raw derivatives that the L1 reference route reads, against
    # differences of wbar, which stay on one side of xi1 at every point;
    # the bounds are relative to w, since w_tau of the minus barrier is
    # tiny left of the corner
    bar = GluedBarrier(request.getfixturevalue(solver_name), sign, 0.01)
    w, wx, wxx, wt = glued_raw_evaluator(bar)(OFF_CORNER_XI, tau)
    assert np.all(w == bar.wbar(OFF_CORNER_XI, [tau])[0])
    for k, x in enumerate(OFF_CORNER_XI):
        fx = fd_derivative(lambda z: bar.wbar([z], [tau])[0, 0], x)
        fxx = fd_derivative(lambda z: bar.wbar([z], [tau])[0, 0], x, order=2)
        ft = fd_derivative(lambda t: bar.wbar([x], [t])[0, 0], tau)
        assert abs(wx[k] - fx) <= 1e-7 * w[k], x
        assert abs(wxx[k] - fxx) <= 1e-5 * w[k], x
        assert abs(wt[k] - ft) <= 1e-7 * w[k], x


# -- tau arrays ------------------------------------------------------------------
#
# A tau array equals one-element calls, bit for bit.


# both sides of the corner, the corner itself and its upper ulp neighbour
GRID_XI = np.array([-20.0, -5.0, 0.0, 9.0, XI1, np.nextafter(XI1, np.inf), 11.0, 20.0, 40.0])


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("solver_name,tau", VALUE_ROUTE_CASES)
def test_grid_wbar_equals_per_tau_calls(request, solver_name, tau, sign):
    taus = tau + np.linspace(0.0, 6.0, 13)
    bar = GluedBarrier(request.getfixturevalue(solver_name), sign, 0.01)
    w = bar.wbar(GRID_XI, taus)
    assert w.shape == (13, GRID_XI.size)
    for i, t in enumerate(taus.tolist()):
        assert np.array_equal(w[i], bar.wbar(GRID_XI, [t])[0])
        assert [bar.wbar([x], taus)[i, 0] for x in GRID_XI] == bar.wbar(GRID_XI, [t])[0].tolist()


@pytest.mark.parametrize("sign", ["+", "-"])
def test_corner_readings_on_a_tau_array_equal_per_tau_calls(solver_ref, sign):
    taus = [10.0, 12.0, 15.0, 16.0]
    bar = GluedBarrier(solver_ref, sign, 0.01)
    assert bar.corner_jump(taus) == [bar.corner_jump([t])[0] for t in taus]
    slopes = bar.corner_slopes(np.array(taus))
    for i, t in enumerate(taus):
        assert tuple(part[i] for part in slopes) == tuple(part[0] for part in bar.corner_slopes([t]))
    assert bar.continuity_mismatch(taus).tolist() == [bar.continuity_mismatch([t])[0] for t in taus]
    assert [part.tolist() for part in bar.solver.outer_edge(sign, taus)] == [
        [bar.solver.outer_edge(sign, [t])[k][0] for t in taus] for k in (0, 1)
    ]


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("solver_name,tau", VALUE_ROUTE_CASES)
def test_wbar_equals_the_masked_per_point_route(request, solver_name, tau, sign, monkeypatch):
    # wbar's two rectangular sides against a route that gives every grid
    # point its own tau, on the rows its callers read: a sandwich block (20
    # planned taus x 401 xi on [-xi1, 4 xi1]), check_ordering's window, the
    # continuity row at xi1 and a row right of xi1, which reads no matching
    # edge (the epsilon search's outer side relies on that)
    reads = []
    read_edge = MatchingSolver._read_edge

    def counted(self, sign, taus):
        reads.append(list(taus))
        return read_edge(self, sign, taus)

    bar = GluedBarrier(request.getfixturevalue(solver_name), sign, 0.01)
    deltas = comoving._planned_deltas(math.exp(-tau), math.exp(-tau - 0.6), 0.01)[:20]
    window = [tau, tau + 2.0, tau + 5.0]
    cases = [
        (np.linspace(-XI1, 4.0 * XI1, 401), [-math.log(d) for d in deltas], 1),
        (matching._ordering_window(XI1), window, 1),
        ([XI1, np.nextafter(XI1, np.inf)], window, 1),
        (np.linspace(XI1 + 1e-3, 5.0 * XI1, 41), window, 0),
    ]
    monkeypatch.setattr(MatchingSolver, "_read_edge", counted)
    for xi, taus, n_reads in cases:
        reads.clear()
        w = bar.wbar(xi, taus)
        assert len(reads) == n_reads
        assert w.shape == (len(taus), len(xi))
        assert np.array_equal(w, masked_wbar(bar, xi, taus))


SWEEP_SUBSET = list(sweep_params())[::16]


@pytest.mark.parametrize(
    "p", SWEEP_SUBSET, ids=[f"n{p.n}-m{p.m:.3f}-g{p.gamma:g}-A{p.A:g}" for p in SWEEP_SUBSET]
)
def test_matching_on_a_tau_array_equals_scalar_calls(p):
    cfg = default_thresholds(p)
    outer = OuterProfileSet(p, cfg)
    profile = shoot_or_error(p)
    taus = cfg.tau_start + np.arange(0.0, 30.0, 3.0)
    solver = MatchingSolver(profile, outer, branch_variant(p.gamma))
    for sign in ("+", "-"):
        for eps in (0.0, 0.02):
            bar = GluedBarrier(solver, sign, eps)
            C, Cp = bar.C_and_C_prime(taus)
            assert C.tolist() == [solver.solve_matching(sign, eps, [t])[0] for t in taus.tolist()]
            assert Cp.tolist() == [bar.C_and_C_prime([t])[1][0] for t in taus.tolist()]


def test_tau_array_raises_the_first_offending_taus_error(solver_ref, monkeypatch):
    # a negative outer edge at tau 12 and an overflowing e^(gamma tau) at
    # tau 480 (gamma tau = 720): the array raises what the loop of
    # one-element calls raises first, after solving the taus before it
    psi_bundle = OuterProfileSet.psi_bundle

    def negative_at_12(self, sign, tau, *, gap):
        psi, *derivs = psi_bundle(self, sign, tau, gap=gap)
        return (np.where(np.asarray(tau) == 12.0, -psi, psi), *derivs)

    # the edge reading's psi: C is solved from it alone
    monkeypatch.setattr(OuterProfileSet, "psi_bundle", negative_at_12)
    taus = [10.0, 12.0, 480.0, 520.0]
    with pytest.raises(errors.TargetBelowRange) as scalar:
        for t in taus:
            solver_ref.solve_matching("+", 0.0, [t])
    with pytest.raises(errors.TargetBelowRange) as array:
        solver_ref.solve_matching("+", 0.0, taus)
    assert str(array.value) == str(scalar.value)
    leading, _ = solver_ref._shift(solver_ref._read_edge("+", taus), 0.0)
    assert leading == solver_ref.solve_matching("+", 0.0, [10.0]).tolist()
    for rest in (taus[2:], taus[3:]):
        with pytest.raises(errors.OutOfDomain) as scalar:
            solver_ref.solve_matching("+", 0.0, rest[:1])
        with pytest.raises(errors.OutOfDomain) as array:
            solver_ref.solve_matching("+", 0.0, rest)
        assert str(array.value) == str(scalar.value)


def test_epsilon_search_reads_each_edge_once(solver_ref, monkeypatch):
    """Both bisections solve C from one edge reading per sign, made before
    they start, however many steps they take."""
    signs, shifts = [], []
    psi_bundle, shift = OuterProfileSet.psi_bundle, MatchingSolver._shift

    def spied_bundle(self, sign, tau, *, gap):
        signs.append(sign)
        return psi_bundle(self, sign, tau, gap=gap)

    def spied_shift(self, edge, eps):
        shifts.append(eps)
        return shift(self, edge, eps)

    monkeypatch.setattr(OuterProfileSet, "psi_bundle", spied_bundle)
    monkeypatch.setattr(MatchingSolver, "_shift", spied_shift)
    eps1, _ = find_epsilon_bounds(solver_ref, [10.0, 12.0, 15.0])
    assert eps1 == EPS1_REF
    assert signs == ["+", "-"]
    # eps1's bisection from 1/4 down to 1e-3 alone takes 8 steps
    assert len(shifts) > 2 * 8


def test_corner_slopes_read_the_edge_once(solver_ref, monkeypatch):
    reads = []
    read_edge = MatchingSolver._read_edge

    def spied_read(self, sign, taus):
        reads.append(list(taus))
        return read_edge(self, sign, taus)

    bar = GluedBarrier(solver_ref, "-", 0.01)
    want = bar.corner_slopes([10.0, 12.0, 15.0])
    monkeypatch.setattr(MatchingSolver, "_read_edge", spied_read)
    got = bar.corner_slopes([10.0, 12.0, 15.0])
    assert reads == [[10.0, 12.0, 15.0]]
    assert [part.tolist() for part in got] == [part.tolist() for part in want]


def test_corner_verdict_that_fails_first_decides_before_a_later_error():
    # at gamma = 51 the plus corner fails at tau 10 (its right slope is
    # NaN) and the edge gap underflows at tau 15 (gamma tau = 765): the
    # epsilon search meets the failing verdict first, as a loop over the
    # taus does, while the corner readings themselves raise
    p = ModelParams(3, 0.1, 51.0, 2.0, theta1_minus=-1.0)
    solver = MatchingSolver(shoot_v0(p), OuterProfileSet(p, default_thresholds(p)), "psi3")
    taus = [10.0, 12.0, 15.0]
    with pytest.raises(errors.OutOfDomain, match="underflows"):
        GluedBarrier(solver, "+", 0.0).corner_jump(taus)
    with pytest.raises(errors.NoAdmissibleEpsilon):
        find_epsilon_bounds(solver, taus)
