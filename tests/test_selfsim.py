"""First-order self-similar profile: shooting, tail fit, stationarity."""

import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from fdelab import errors, numerics, selfsim
from fdelab.selfsim import save_profile, shoot_v0, verify_tail_asymptotics
from numdiff import fd_derivative
from shoot_sweep import inverse_round_trip, shoot_or_error, sweep_params

# Frozen from the first converged shoot at each parameter set.  The tail
# slope limit a0/(gamma A) and log power -b2/gamma are closed forms; the
# fitted values carry the finite-window truncation of the fit.
REF_SLOPE_FIT = 1.0369970662341002
REF_K1 = 1.2597151915030282
LOW_SLOPE_FIT = 3.1110242519169926
LOW_K1 = 2.1197401677658836


def test_reference_tail_fit_frozen(profile_ref):
    assert profile_ref.fit.slope == pytest.approx(REF_SLOPE_FIT, rel=1e-10)
    assert profile_ref.fit.K1 == pytest.approx(REF_K1, rel=1e-6)
    assert profile_ref.fit.window == (40.0, 400.0)


def test_low_gamma_tail_fit_frozen(profile_low):
    assert profile_low.fit.slope == pytest.approx(LOW_SLOPE_FIT, rel=1e-10)
    assert profile_low.fit.K1 == pytest.approx(LOW_K1, rel=1e-6)


def test_slope_limit_closed_form(profile_ref, profile_low):
    for prof in (profile_ref, profile_low):
        p, d = prof.p, prof.p.d
        assert prof.slope_limit == pytest.approx(d.a0 / (p.gamma * p.A), rel=1e-12)
    assert profile_ref.slope_limit == pytest.approx(28.0 / 27.0, rel=1e-12)


def test_log_power_closed_form(profile_ref, profile_low):
    # tail phibar0 ~ K1 e^(slope s) s^(-b2/gamma)
    for prof in (profile_ref, profile_low):
        assert prof.c_log_exact == pytest.approx(
            -prof.p.d.b2 / prof.p.gamma, rel=1e-12
        )


def test_tail_asymptotics_report(profile_all):
    rep = verify_tail_asymptotics(profile_all)
    assert rep["monotone"] is True
    assert rep["slope_rel_err"] < 1e-4
    assert rep["c_log_rel_err"] < 0.05
    assert rep["stationary_residual_max"] < 1e-6
    assert rep["refinement_rel_diff"] < 1e-6
    assert abs(rep["K1_window_shift"]) < 0.02


def test_stationary_residual_on_grid(profile_all):
    ss = np.linspace(-8.0, 40.0, 500)
    res = profile_all.stationary_residual(ss)
    assert np.max(np.abs(res)) < 1e-6


def test_monotone_increasing(profile_ref):
    ss = np.linspace(profile_ref.s_min + 1.0, 50.0, 400)
    vals = profile_ref.phibar0(ss)
    assert np.all(np.diff(vals) > 0.0)


def test_flat_core_limit(profile_all):
    # w = r^2 u^(1-m) with u -> lam at the origin: e^(-2s) phibar0 -> lam^(1-m)
    p = profile_all.p
    want = p.lam ** (1.0 - p.m)
    got = math.exp(20.0) * profile_all.phibar0(-10.0)
    assert got == pytest.approx(want, rel=1e-6)


def test_v0_pin_through_phibar0(profile_ref):
    # phibar0(0) = v0(1)^(1-m): the profile value at unit radius
    p = profile_ref.p
    assert profile_ref.phibar0(0.0) == pytest.approx(
        0.6453049837181274 ** (1.0 - p.m), rel=1e-8
    )


def test_phibar0_derivative_matches_fd(profile_ref):
    # core, table and tail points (s_max = 400); phibar0'' against the
    # difference of phibar0', whose roundoff floor sits far below that of
    # a second difference
    def d1(s):
        return profile_ref.phibar0(s, derivs=True)[1]

    for s0 in (-2.0, 1.0, 10.0, 450.0, 1000.0):
        _, v1, v2 = profile_ref.phibar0(s0, derivs=True)
        scale = max(1.0, s0)
        assert v1 == pytest.approx(fd_derivative(profile_ref.phibar0, s0, scale=scale), rel=1e-6)
        assert v2 == pytest.approx(fd_derivative(d1, s0, scale=scale), rel=1e-5)


def test_derivs_triple_carries_the_value_bit_for_bit(profile_ref):
    s = np.array([-20.0, -2.0, 1.0, 10.0, 399.0, 450.0, 1000.0])
    v, v1, v2 = profile_ref.phibar0(s, derivs=True)
    assert np.array_equal(v, profile_ref.phibar0(s))
    assert v.shape == v1.shape == v2.shape == s.shape
    for x in s:
        triple = profile_ref.phibar0(float(x), derivs=True)
        assert [type(t) for t in triple] == [float, float, float]
        assert triple[0] == profile_ref.phibar0(float(x))


def test_tail_extension_continuous(profile_ref):
    # beyond s_max the profile switches to the fitted tail law; the jump
    # is bounded by the fit truncation, not machine precision
    smax = profile_ref.s_max
    lo = profile_ref.phibar0(smax - 1e-9)
    hi = profile_ref.phibar0(smax + 1e-9)
    assert hi == pytest.approx(lo, rel=1e-4)


def test_endpoint_slope_gap_is_the_c_log_term(profile_all):
    # phibar0' = slope_limit + c_log/s + o(1/s), so the endpoint slope gap
    # the tail check reports is the c_log/s term, not a defect
    prof = profile_all
    gap = verify_tail_asymptotics(prof)["endpoint_slope_gap"]
    assert gap == pytest.approx(prof.c_log_exact / prof.s_max, rel=1e-2)


def test_fresh_shoot_warns_slope_not_converged(p_ref):
    # a fresh shoot still ends with its slope off the limit, but says so in
    # the selfsim-tail details and no longer through a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = shoot_v0(p_ref)
    assert verify_tail_asymptotics(prof)["endpoint_slope_gap"] != 0.0


def test_slope_converged_flag(profile_ref):
    # finite s_max leaves the endpoint slope ~1e-3 off the limit
    assert not hasattr(profile_ref, "slope_converged")
    gap = verify_tail_asymptotics(profile_ref)["endpoint_slope_gap"]
    assert 1e-4 < abs(gap) < 1e-2


def test_save_profile_deterministic(profile_ref, tmp_path):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    save_profile(profile_ref, f1)
    save_profile(profile_ref, f2)
    b1 = f1.read_bytes()
    assert b1 == f2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "s,phibar0,dphibar0"
    assert len(lines) == 2003


def test_save_profile_creates_missing_directory(profile_ref, tmp_path):
    path = tmp_path / "fresh" / "selfsim.csv"
    save_profile(profile_ref, path)
    save_profile(profile_ref, tmp_path / "selfsim.csv")
    assert path.read_bytes() == (tmp_path / "selfsim.csv").read_bytes()


def test_step_table_matches_scipy_radau_dense_output():
    # y = (e^-t, 1/(1+t)): both components stay away from zero, so the
    # comparison is relative everywhere; the port takes scipy's steps, and
    # the two dense outputs differ by rounding, far below the tolerances
    def rhs(t, u, v):
        return -u, -v * v

    def jac(t, u, v):
        return -1.0, 0.0, 0.0, -2.0 * v

    tab = numerics.solve_ode(rhs, jac, (0.0, 20.0), [1.0, 1.0],
                             numerics.OdeSpec(rel_tol=1e-10, abs_tol=1e-12))
    ref = scipy.integrate.solve_ivp(
        lambda t, y: rhs(t, *y), (0.0, 20.0), [1.0, 1.0], method="Radau",
        jac=lambda t, y: np.reshape(jac(t, *y), (2, 2)), rtol=1e-10, atol=1e-12,
        dense_output=True,
    )
    assert tab.ts[0] == 0.0 and tab.ts[-1] == 20.0
    assert len(tab.ts) == len(ref.t)
    assert np.all(tab.h == np.diff(tab.ts))
    rng = np.random.default_rng(7)
    s = np.concatenate([rng.uniform(0.0, 20.0, 10000), tab.ts])
    want = ref.sol(s)
    got = tab(s)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-11
    # a breakpoint belongs to the lower step, which ends on the next state
    start = tab.coef[1:, :, 0].T
    assert np.max(np.abs(tab(tab.ts[1:-1]) - start) / np.abs(start)) < 1e-14
    assert tab(3.0) == pytest.approx(ref.sol(3.0), rel=1e-11)


def test_scalar_route_matches_array_route(profile_ref):
    # a scalar s takes the array route and comes back as a float
    assert type(profile_ref.phibar0(1.0)) is float


def _lsoda_phibar0(profile, s):
    """phibar0 at s from scipy's LSODA at rtol 1e-13, started from the
    shoot's own initial state: a tight reference, within about 2e-10 of
    scipy's Radau at the same tolerance."""
    p = profile.p
    n, m, gamma, A = p.n, p.m, p.gamma, p.A

    def rhs(t, y):
        Z, P = y
        E = math.exp(2.0 * t + (1.0 / m - 1.0) * Z)
        return [P, -P * P - (n - 2) * P
                - (m / (n - 1)) * E * (2.0 * gamma * A / (1.0 - m) + gamma * A / m * P)]

    tab = profile._table
    sol = scipy.integrate.solve_ivp(
        rhs, (tab.ts[0], tab.ts[-1]), tab.coef[0, :, 0], method="LSODA",
        rtol=1e-13, atol=1e-15, dense_output=True,
    )
    return np.exp(2.0 * s + (1.0 - m) / m * sol.sol(s)[0])


# every 16th case of the 81-case sweep: n 3, 4 and 6, all three m
# fractions, gamma 0.3 and 3, A 1.05, 2 and 5
SWEEP_SUBSET = list(sweep_params())[::16]


@pytest.mark.parametrize(
    "p", SWEEP_SUBSET, ids=[f"n{p.n}-m{p.m:.3f}-g{p.gamma:g}-A{p.A:g}" for p in SWEEP_SUBSET]
)
def test_shoot_sweep_subset_matches_tight_reference(p):
    prof = shoot_or_error(p)
    assert not isinstance(prof, errors.FdelabError), prof
    s = np.linspace(prof.s_min, prof.s_max, 2001)
    want = _lsoda_phibar0(prof, s)
    assert np.max(np.abs(prof.phibar0(s) - want) / want) < 1e-8
    # the inverse round trips core, table and tail as on ref and low
    inner, tail = inverse_round_trip(prof)
    assert inner <= 2.0 and tail <= TAIL_ROUND_TRIP


def test_inverse_round_trips_the_core_and_the_table(profile_all):
    # phibar0(inverse(y)) = y to the resolution of phibar0 itself, whose
    # exponent 2s + c Z(s) carries rounding of about ulp(2s)
    prof = profile_all
    rng = np.random.default_rng(11)
    s = np.concatenate([
        rng.uniform(prof.s_min - 10.0, prof.s_min, 200),  # core law
        rng.uniform(prof.s_min, prof.s_max, 2000),  # step table
        prof._table.ts[1:-1:25],  # breakpoints
    ])
    y = prof.phibar0(s)
    back = np.array([prof.inverse(v) for v in y.tolist()])
    ulps = np.spacing(2.0 * np.maximum(np.abs(s), 1.0))
    assert np.all(np.abs(prof.phibar0(back) / y - 1.0) <= 2.0 * ulps)
    assert np.array_equal(back < prof.s_min, s < prof.s_min)
    # the core law inverts in closed form
    y = prof.phibar0(prof.s_min - 5.0)
    want = 0.5 * (math.log(y) - (1.0 - prof.p.m) * math.log(prof.p.lam))
    assert prof.inverse(y) == want


# the tail inverse is Newton to 4 ulp in s on slope*s + c_log*log(s) + K1
TAIL_ROUND_TRIP = 2e-15


def test_inverse_round_trips_the_tail(profile_all):
    prof = profile_all
    s = np.array([prof.s_max + 0.5, 1e3, 1e5])
    y = prof.phibar0(s)
    back = np.array([prof.inverse(v) for v in y.tolist()])
    assert np.all(np.abs(back / s - 1.0) <= 1e-15)
    assert np.all(np.abs(prof.phibar0(back) / y - 1.0) <= TAIL_ROUND_TRIP)


def test_inverse_beyond_the_float_range_is_out_of_domain(profile_ref):
    # slope 1.037 on ref: the tail reaches 1.7e308 only at s ~ 1.64e308,
    # past the last doubling of the bracket that stays finite
    with pytest.raises(errors.OutOfDomain, match="1.7e"):
        profile_ref.inverse(1.7e308)


def test_inverse_budget_runs_out_loudly(profile_ref, monkeypatch):
    # an unconverged Newton iteration raises instead of returning its last s
    monkeypatch.setattr(selfsim, "_NEWTON_ITERS", 1)
    with pytest.raises(errors.NonConvergent, match="phibar0 inverse"):
        profile_ref.inverse(profile_ref.phibar0(100.3))


def test_inverse_maps_the_seam_jump_to_s_max(profile_ref):
    # the table's end value inverts to s_max; a tail lifted above it opens
    # a jump at s_max, and every target inside that jump maps to s_max
    prof = copy.copy(profile_ref)
    top = prof.phibar0(prof.s_max)
    assert prof.inverse(top) == prof.s_max
    prof.fit = dataclasses.replace(prof.fit, K1=prof.fit.K1 + 0.01)
    lifted = prof.phibar0(math.nextafter(prof.s_max, math.inf))
    assert lifted > top
    for y in (math.nextafter(top, math.inf), 0.5 * (top + lifted)):
        assert prof.inverse(y) == prof.s_max
    above = prof.inverse(math.nextafter(lifted, math.inf) + 1e-6)
    assert above > prof.s_max


@pytest.mark.parametrize("y", [0.0, -1.0, math.inf, math.nan])
def test_inverse_needs_a_finite_positive_value(profile_ref, y):
    with pytest.raises(errors.NonPositiveInput):
        profile_ref.inverse(y)
