"""First-order self-similar profile: shooting, tail fit, stationarity."""

import math
import warnings

import numpy as np
import pytest

from fdelab import errors, numerics
from fdelab.selfsim import (
    nordsieck_table,
    save_profile,
    shoot_v0,
    verify_tail_asymptotics,
)
from numdiff import fd_derivative

# Frozen from the first converged shoot at each parameter set.  The tail
# slope limit a0/(gamma A) and log power -b2/gamma are closed forms; the
# fitted values carry the finite-window truncation of the fit.
REF_SLOPE_FIT = 1.0369970861873008
REF_K1 = 1.2597049440544046
LOW_SLOPE_FIT = 3.111024178156926
LOW_K1 = 2.119677314892524


def test_reference_tail_fit_frozen(profile_ref):
    assert profile_ref.fit.slope == pytest.approx(REF_SLOPE_FIT, rel=1e-10)
    assert profile_ref.fit.K1 == pytest.approx(REF_K1, rel=1e-6)
    assert profile_ref.fit.window == (40.0, 400.0)


def test_low_gamma_tail_fit_frozen(profile_low):
    assert profile_low.fit.slope == pytest.approx(LOW_SLOPE_FIT, rel=1e-10)
    assert profile_low.fit.K1 == pytest.approx(LOW_K1, rel=1e-6)


def test_slope_limit_closed_form(profile_ref, profile_low):
    for prof in (profile_ref, profile_low):
        p, d = prof.p, prof.d
        assert prof.slope_limit == pytest.approx(d.a0 / (p.gamma * p.A), rel=1e-12)
    assert profile_ref.slope_limit == pytest.approx(28.0 / 27.0, rel=1e-12)


def test_log_power_closed_form(profile_ref, profile_low):
    # tail phibar0 ~ K1 e^(slope s) s^(-b2/gamma)
    for prof in (profile_ref, profile_low):
        assert prof.c_log_exact == pytest.approx(
            -prof.d.b2 / prof.p.gamma, rel=1e-12
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
    for s0 in (-2.0, 1.0, 10.0):
        fd = fd_derivative(profile_ref.phibar0, s0)
        assert profile_ref.phibar0(s0, deriv=1) == pytest.approx(fd, rel=1e-6)


def test_tail_extension_continuous(profile_ref):
    # beyond s_max the profile switches to the fitted tail law; the jump
    # is bounded by the fit truncation, not machine precision
    smax = profile_ref.s_max
    lo = profile_ref.phibar0(smax - 1e-9)
    hi = profile_ref.phibar0(smax + 1e-9)
    assert hi == pytest.approx(lo, rel=1e-4)


def test_fresh_shoot_warns_slope_not_converged(p_ref):
    from fdelab.selfsim import shoot_v0 as shoot
    with pytest.warns(errors.SlopeNotConverged):
        shoot(p_ref)


def test_slope_converged_flag(profile_ref):
    # finite s_max leaves the endpoint slope ~1e-3 off the limit
    assert profile_ref.slope_converged is False


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
    save_profile(profile_ref, path, n_points=11)
    save_profile(profile_ref, tmp_path / "selfsim.csv", n_points=11)
    assert path.read_bytes() == (tmp_path / "selfsim.csv").read_bytes()


def test_nordsieck_table_matches_dense_output():
    # y = (e^-t, 1/(1+t)): both components stay away from zero, so the
    # comparison is relative everywhere
    sol = numerics.solve_ode(lambda t, y: [-y[0], -y[1] * y[1]], (0.0, 20.0), [1.0, 1.0])
    tab = nordsieck_table(sol.sol)
    assert tab.ts[0] == 0.0 and tab.ts[-1] == 20.0
    rng = np.random.default_rng(7)
    s = np.concatenate([rng.uniform(0.0, 20.0, 10000), tab.ts])
    want = sol.sol(s)
    got = tab(s)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14
    assert tab(3.0) == pytest.approx(sol.sol(3.0), rel=1e-14)


def test_scalar_route_matches_array_route(profile_ref):
    tab = profile_ref._table
    assert tab.ts[0] == profile_ref.s_min and tab.ts[-1] == profile_ref.s_max
    rng = np.random.default_rng(3)
    s = np.concatenate(
        [rng.uniform(profile_ref.s_min, profile_ref.s_max, 2000), tab.ts[::10]]
    )
    want = profile_ref.phibar0(s)
    got = np.array([profile_ref.phibar0(float(x)) for x in s])
    assert np.max(np.abs(got - want) / want) <= 4e-16
    assert type(profile_ref.phibar0(1.0)) is float
