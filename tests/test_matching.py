"""Matching layer: C(tau) solves, corner inequalities, epsilon windows."""

import math

import numpy as np
import pytest

from fdelab import errors, matching, numerics
from fdelab.matching import (
    GluedBarrier,
    MatchingSolver,
    check_ordering,
    find_epsilon_bounds,
)
from fdelab.outer import OuterProfileSet, branch_variant
from fdelab.params import make_params
from numdiff import fd_derivative

XI1 = 10.0  # the matching radius of the default config

# Frozen matching constants at the reference set (xi1 = 10, eps = 0).
C_PLUS_REF = {
    8.0: 10.849035963515531,
    10.0: 13.894178403042151,
    16.0: 23.001624579361014,
    40.0: 59.2561600567407,
}
C_MINUS_REF_16 = -0.4530757400619458
C_MINUS_REF_40 = -0.45307573802160883

EPS1_REF = 0.03613281235546875
EPS1_LOW = 0.028320312386718748


def test_branch_variant_selection():
    assert branch_variant(1.5) == "psi3"
    assert branch_variant(0.5) == "psi4"
    assert branch_variant(0.3) == "psi4"


@pytest.mark.parametrize(
    "gamma", [0.3, 0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 1.5, 3.0]
)
def test_correction_rows_exist_exactly_under_the_psi4_label(gamma, profile_ref):
    # rows k = 3..2N exist iff 2N >= 3 iff gamma <= 1, the psi4 label, also
    # at the ulp neighbours of 1; the solver accepts only that label
    out = OuterProfileSet(make_params(3, 0.1, gamma, 2.0, theta1_minus=-1.0))
    label = branch_variant(gamma)
    for sign in ("+", "-"):
        has_rows = any(c != 0.0 for c in out.correction_coeffs(sign).values())
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
        got = solver_ref.solve_matching("+", 0.0, tau)
        assert got == pytest.approx(want, rel=1e-10)


def test_c_minus_frozen_and_saturating(solver_ref):
    c16 = solver_ref.solve_matching("-", 0.0, 16.0)
    c40 = solver_ref.solve_matching("-", 0.0, 40.0)
    assert c16 == pytest.approx(C_MINUS_REF_16, rel=1e-10)
    assert c40 == pytest.approx(C_MINUS_REF_40, rel=1e-10)
    # the subsolution constant saturates while C+ grows like e^(gamma tau)
    assert abs(c40 - c16) < 1e-8
    assert solver_ref.solve_matching("+", 0.0, 40.0) > 2.0 * C_PLUS_REF[16.0]


def test_c_plus_growth_rate(solver_ref, p_ref):
    # C+ increments scale with the outer edge: C(tau+1) - C(tau) approaches
    # a constant times e^(gamma tau) only through the edge value; check the
    # tau-16 -> tau-40 increment against the frozen values for coherence
    got = C_PLUS_REF[40.0] - C_PLUS_REF[16.0]
    inc = solver_ref.solve_matching("+", 0.0, 40.0) - solver_ref.solve_matching(
        "+", 0.0, 16.0
    )
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
    plus = GluedBarrier(solver_ref, "+", 0.0).corner_jump(16.0)
    assert plus.holds
    assert plus.left_slope == pytest.approx(1.0264555924767151, rel=1e-9)
    assert plus.right_slope == pytest.approx(0.9266666656671204, rel=1e-9)
    assert plus.left_slope > plus.right_slope

    minus = GluedBarrier(solver_ref, "-", 0.0).corner_jump(16.0)
    assert minus.holds
    assert minus.left_slope == pytest.approx(1.0063602355826702, rel=1e-9)
    assert minus.right_slope == pytest.approx(1.0437037033795549, rel=1e-9)
    assert minus.left_slope < minus.right_slope


def test_corner_inequality_fails_at_large_eps(solver_ref):
    # eps steepens the inner side; past the admissible window the
    # subsolution corner flips
    bad = GluedBarrier(solver_ref, "-", 0.05).corner_jump(16.0)
    assert not bad.holds
    assert bad.left_slope == pytest.approx(1.0579771008713095, rel=1e-9)
    assert bad.left_slope > bad.right_slope


def test_continuity_at_corner(solver_ref):
    for sign in ("+", "-"):
        bar = GluedBarrier(solver_ref, sign, 0.01)
        assert abs(bar.continuity_mismatch(16.0)) < 1e-9


def test_c_prime_matches_fd(solver_ref):
    bar = GluedBarrier(solver_ref, "+", 0.0)
    for tau in (10.0, 16.0):
        fd = (bar.C(tau + 1e-3) - bar.C(tau - 1e-3)) / 2e-3
        assert bar.C_prime(tau) == pytest.approx(fd, rel=1e-5)


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
    cp = [solver_ref.solve_matching("+", e, 16.0) for e in (0.0, 0.01, 0.03)]
    cm = [solver_ref.solve_matching("-", e, 16.0) for e in (0.0, 0.01, 0.03)]
    assert cp[0] < cp[1] < cp[2]
    assert cm[0] > cm[1] > cm[2]


def test_epsilon_out_of_range(solver_ref):
    with pytest.raises(errors.EpsilonOutOfRange):
        GluedBarrier(solver_ref, "+", 0.3)
    with pytest.raises(errors.EpsilonOutOfRange):
        solver_ref.solve_matching("+", -0.01, 16.0)


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
    lo = bar.wbar(XI1 - 1e-8, tau)
    hi = bar.wbar(XI1 + 1e-8, tau)
    assert hi == pytest.approx(lo, rel=1e-6)


def test_outer_edge_consistent_with_corner(solver_ref):
    val, slope = solver_ref.outer_edge("+", 16.0)
    rep = GluedBarrier(solver_ref, "+", 0.0).corner_jump(16.0)
    assert slope == pytest.approx(rep.right_slope, rel=1e-12)
    assert val == pytest.approx(
        GluedBarrier(solver_ref, "+", 0.0).wbar(XI1 + 1e-12, 16.0), rel=1e-9
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
    assert np.all(bar.wbar(xi, tau) == math.exp(gamma * tau) * psi)


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("solver_name,tau", VALUE_ROUTE_CASES)
def test_solve_matching_target_equals_outer_edge(request, solver_name, tau, sign):
    shared = request.getfixturevalue(solver_name)
    solver = MatchingSolver(shared.profile, shared.outer, branch_variant(shared.outer.p.gamma))
    eps = 0.01
    edge_value, _ = solver.outer_edge(sign, tau)
    target = (1.0 + (eps if sign == "+" else -eps)) * edge_value
    want = numerics.find_root_monotone(
        lambda C: solver.profile.phibar0(XI1 + C) - target,
        -60.0, 380.0, tol=matching._ROOT_TOL,
    )
    assert solver.solve_matching(sign, eps, tau) == want


# points left of the corner, on it, and right of it
BUNDLE_XI = np.array([-5.0, 0.0, 9.0, XI1, 11.0, 20.0, 40.0])


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("solver_name,tau", VALUE_ROUTE_CASES)
def test_bundle_value_equals_wbar(request, solver_name, tau, sign):
    bar = GluedBarrier(request.getfixturevalue(solver_name), sign, 0.01)
    w = bar.bundle(BUNDLE_XI, tau)[0]
    assert np.all(w == bar.wbar(BUNDLE_XI, tau))
    assert w[3] == bar.wbar(XI1, tau)


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("solver_name,tau", VALUE_ROUTE_CASES)
def test_bundle_derivatives_match_fd(request, solver_name, tau, sign):
    # differences of wbar stay on one side of xi1 at every point off the
    # corner; the bounds are relative to w, since w_tau of the minus
    # barrier is tiny left of the corner
    bar = GluedBarrier(request.getfixturevalue(solver_name), sign, 0.01)
    off_corner = BUNDLE_XI[BUNDLE_XI != XI1]
    w, wx, wxx, wt = bar.bundle(off_corner, tau)
    for k, x in enumerate(off_corner):
        fx = fd_derivative(lambda z: bar.wbar(z, tau), x)
        fxx = fd_derivative(lambda z: bar.wbar(z, tau), x, order=2)
        ft = fd_derivative(lambda t: bar.wbar(x, t), tau)
        assert abs(wx[k] - fx) <= 1e-7 * w[k], x
        assert abs(wxx[k] - fxx) <= 1e-5 * w[k], x
        assert abs(wt[k] - ft) <= 1e-7 * w[k], x
