"""Physical-scale solver, barrier assembly, sandwich run, extinction fits."""

import math

import numpy as np
import pytest

from fdelab import errors, pde
from fdelab.matching import GluedBarrier
from fdelab.pde import (
    PhysicalBarrierPair,
    assemble_u_barriers,
    calibrate_tolerance,
    comparison_sandwich,
    extinction_rate,
    make_manufactured,
    solve_radial_fde,
    weak_corner_term,
)

TAU0 = 10.0
EPS_SMOKE = 0.018  # below the admissible ceiling eps1 ~ 0.036 at xi1 = 10


@pytest.fixture(scope="module")
def barrier_pair(solver_ref):
    plus = GluedBarrier(solver_ref, "+", EPS_SMOKE, 10.0)
    minus = GluedBarrier(solver_ref, "-", EPS_SMOKE, 10.0)
    return assemble_u_barriers(plus, minus, TAU0)


@pytest.fixture(scope="module")
def uniform_traj(p_ref, d_ref):
    # w = a0 * delta solves the flow exactly: F(const) = -a0 and w_t = -a0
    ds, de = math.exp(-10.0), math.exp(-12.0)
    a0 = d_ref.a0
    return solve_radial_fde(
        p_ref, d_ref, xi_window=(-10.0, 30.0), n_cells=100,
        delta_start=ds, delta_end=de,
        w0=lambda x: a0 * ds * np.ones_like(x),
        bc=lambda delta: (a0 * delta, a0 * delta),
    )


def test_uniform_profile_reproduced_to_rounding(uniform_traj, d_ref):
    rel = np.abs(uniform_traj.W / (d_ref.a0 * uniform_traj.deltas[:, None]) - 1.0)
    assert np.max(rel) <= 1e-12
    assert uniform_traj.deltas[0] == pytest.approx(math.exp(-10.0), rel=1e-14)
    assert uniform_traj.deltas[-1] == pytest.approx(math.exp(-12.0), rel=1e-12)


def test_amplitude_observable(uniform_traj, p_ref, d_ref):
    want = (d_ref.a0 * uniform_traj.deltas) ** (1.0 / (1.0 - p_ref.m))
    np.testing.assert_allclose(uniform_traj.amplitude(), want, rtol=1e-12)


def test_trajectory_csv_layout(uniform_traj, tmp_path):
    path = tmp_path / "traj.csv"
    uniform_traj.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,s,xi,w,u,log10_u"
    n_frames = len(range(0, len(uniform_traj.deltas), 10))
    n_cols = len(range(0, len(uniform_traj.xi), 8))
    assert len(lines) == 1 + n_frames * n_cols
    first = path.read_bytes()
    uniform_traj.to_csv(str(path))
    assert path.read_bytes() == first


def test_trajectory_csv_creates_missing_directory(uniform_traj, tmp_path):
    # a fresh --out directory must not lose the artifact after the solve
    path = tmp_path / "fresh" / "traj.csv"
    uniform_traj.to_csv(str(path))
    uniform_traj.to_csv(str(tmp_path / "traj.csv"))
    assert path.read_bytes() == (tmp_path / "traj.csv").read_bytes()


def test_manufactured_convergence_second_order(p_ref, d_ref):
    """Halving h with dtau/4 shrinks the manufactured error ~4x."""
    W_exact, bind = make_manufactured(p_ref, d_ref)
    ds = math.exp(-10.0)

    def run(n_cells, dtau):
        xi = np.linspace(-5.0, 5.0, n_cells + 1)
        traj = solve_radial_fde(
            p_ref, d_ref, xi_window=(-5.0, 5.0), n_cells=n_cells,
            delta_start=ds, delta_end=ds * math.exp(-1.0),
            w0=lambda x: W_exact(x, ds),
            bc=lambda delta: (
                float(W_exact(xi[0], delta)), float(W_exact(xi[-1], delta))
            ),
            source=bind(xi), dtau=dtau,
        )
        err = 0.0
        for k in range(len(traj.deltas)):
            scale = traj.deltas[k] ** (1.0 + p_ref.gamma)
            err = max(err, float(np.max(np.abs(traj.W[k] - W_exact(xi, traj.deltas[k])))) / scale)
        return err

    e_coarse = run(40, 0.02)
    e_fine = run(80, 0.005)
    assert 3.5 <= e_coarse / e_fine <= 4.5


def test_calibrated_tolerance_scales_with_safety(p_ref, d_ref):
    kw = dict(
        xi_window=(-5.0, 5.0), n_cells=40,
        delta_start=math.exp(-10.0), delta_end=math.exp(-11.0), dtau=0.02,
    )
    c1 = calibrate_tolerance(p_ref, d_ref, safety=1.0, **kw)
    c5 = calibrate_tolerance(p_ref, d_ref, safety=5.0, **kw)
    assert c1 > 0.0
    assert c5 / c1 == pytest.approx(5.0, rel=1e-12)


def test_manufactured_rejects_sign_changing_data(p_ref, d_ref):
    with pytest.raises(errors.InvalidParameter):
        make_manufactured(p_ref, d_ref, c1=1.0, c2=1.0)


def test_solver_input_guards(p_ref, d_ref):
    bc = lambda delta: (1.0, 1.0)
    with pytest.raises(errors.InvalidParameter):
        solve_radial_fde(p_ref, d_ref, xi_window=(-5.0, 5.0), n_cells=10,
                         delta_start=1e-5, delta_end=1e-4,
                         w0=lambda x: np.ones_like(x), bc=bc)
    with pytest.raises(errors.InvalidParameter):
        solve_radial_fde(p_ref, d_ref, xi_window=(-5.0, 5.0), n_cells=10,
                         delta_start=1e-4, delta_end=1e-5,
                         w0=lambda x: np.ones(3), bc=bc)
    with pytest.raises(errors.PositivityLost):
        solve_radial_fde(p_ref, d_ref, xi_window=(-5.0, 5.0), n_cells=10,
                         delta_start=1e-4, delta_end=1e-5,
                         w0=lambda x: -np.ones_like(x), bc=bc)


def test_weak_corner_term_signs(solver_ref):
    """Corner slope jump: concave kink for the plus glue, convex for minus."""
    plus = GluedBarrier(solver_ref, "+", EPS_SMOKE, 10.0)
    minus = GluedBarrier(solver_ref, "-", EPS_SMOKE, 10.0)
    jp = weak_corner_term(plus, (10.0, 12.0))
    jm = weak_corner_term(minus, (10.0, 12.0))
    assert jp["sign"] == -1.0
    assert jm["sign"] == 1.0
    assert jp["sign_consistent"] and jm["sign_consistent"]
    assert jp["n_samples"] == 48
    # the corner sits at s = xi1 + A e^{gamma tau}: the u-weighted term is tiny
    assert jp["log10_abs"] < -1000.0
    assert jm["log10_abs"] < -1000.0


def test_pair_requires_sign_order(solver_ref):
    plus = GluedBarrier(solver_ref, "+", EPS_SMOKE, 10.0)
    minus = GluedBarrier(solver_ref, "-", EPS_SMOKE, 10.0)
    with pytest.raises(errors.InvalidParameter):
        PhysicalBarrierPair(minus, plus, TAU0)


def test_assemble_checks_epsilon_ceiling(solver_ref):
    plus = GluedBarrier(solver_ref, "+", EPS_SMOKE, 10.0)
    minus = GluedBarrier(solver_ref, "-", EPS_SMOKE, 10.0)
    with pytest.raises(errors.EpsilonOutOfRange):
        assemble_u_barriers(plus, minus, TAU0, eps_bounds=(0.017, 0.25))


def test_pair_corner_radius(barrier_pair, p_ref):
    t = p_ref.T - math.exp(-TAU0)
    shift = p_ref.A * math.exp(-TAU0) ** (-p_ref.gamma)
    assert barrier_pair.log_r1(t) == pytest.approx(10.0 + shift, rel=1e-12)


def test_pair_wbar_matches_barriers(barrier_pair):
    xi = np.linspace(-4.0, 12.0, 9)
    wp, wm = barrier_pair.wbar_pair(xi, 11.0)
    np.testing.assert_allclose(wp, barrier_pair.plus.wbar(xi, 11.0), rtol=1e-13)
    np.testing.assert_allclose(wm, barrier_pair.minus.wbar(xi, 11.0), rtol=1e-13)
    assert np.all(wp > wm)


def test_log_u_core_limit(barrier_pair, p_ref):
    """log u at r -> 0 approaches the closed-form origin value."""
    t = p_ref.T - math.exp(-TAU0)
    shift = p_ref.A * math.exp(-TAU0) ** (-p_ref.gamma)
    for sign in "+-":
        origin = barrier_pair.log_u_origin(sign, t)
        d10 = float(barrier_pair.log_u(sign, shift - 10.0, t)) - origin
        d20 = float(barrier_pair.log_u(sign, shift - 20.0, t)) - origin
        assert abs(d20) < 1e-4
        assert abs(d20) <= abs(d10)
    # the minus corner constant is near the core already: bitwise-level match
    assert abs(float(barrier_pair.log_u("-", shift - 20.0, t))
               - barrier_pair.log_u_origin("-", t)) < 1e-12


def test_log_u_beyond_extinction(barrier_pair, p_ref):
    with pytest.raises(errors.TimeBeyondExtinction):
        barrier_pair.log_u("+", 1.0, p_ref.T)
    with pytest.raises(errors.TimeBeyondExtinction):
        barrier_pair.log_u_origin("-", p_ref.T + 0.5)


def test_sandwich_smoke(barrier_pair):
    """Short window: ordering holds; fits degrade to NaN below two decades."""
    report = comparison_sandwich(barrier_pair, tau_end=10.6, n_cells=400, dtau=0.01)
    assert report.passed
    assert report.tol_rel > 0.0
    assert report.max_overshoot <= report.tol_rel
    assert report.max_undershoot <= report.tol_rel
    assert sorted(report.runs) == ["lower", "mid", "upper"]
    assert report.runs["mid"].W.shape[1] == 401
    for fit in report.fits.values():
        assert math.isnan(fit["exponent"])
        assert fit["n_points"] == 0
        assert fit["decades"] == pytest.approx(0.6 / math.log(10.0), rel=1e-12)
    assert report.to_dict()["runs"] == {}


def test_sandwich_rejects_unknown_initial(barrier_pair):
    with pytest.raises(errors.InvalidParameter):
        comparison_sandwich(barrier_pair, tau_end=10.2, n_cells=40,
                            dtau=0.02, initial="bogus")


def test_extinction_rate_recovers_power_law():
    deltas = np.exp(-np.linspace(4.0, 10.0, 60))
    amps = 3.7 * deltas ** 2.5
    fit = extinction_rate(deltas, amps)
    assert fit["exponent"] == pytest.approx(2.5, abs=1e-12)
    assert fit["prefactor_log"] == pytest.approx(math.log(3.7), abs=1e-12)
    assert fit["stderr"] < 1e-12
    assert fit["n_points"] == 46  # points within the final two decades
    assert fit["decades"] == pytest.approx(6.0 / math.log(10.0), rel=1e-12)


def test_extinction_rate_window_override():
    deltas = np.exp(-np.linspace(4.0, 10.0, 60))
    amps = 3.7 * deltas ** 2.5
    fit = extinction_rate(deltas, amps, fit_decades=1.0)
    assert fit["n_points"] == 23


def test_extinction_rate_guards():
    deltas = np.exp(-np.linspace(4.0, 10.0, 60))
    amps = 3.7 * deltas ** 2.5
    with pytest.raises(errors.InsufficientDecades):
        extinction_rate(deltas[:10], amps[:10])
    with pytest.raises(errors.NonPositiveInput):
        extinction_rate(deltas, 0.0 * amps)


def test_tridiagonal_solve_zero_pivot_is_newton_divergence():
    from fdelab.pde import _tridiagonal_solve

    x = _tridiagonal_solve(
        np.array([1.0]), np.array([2.0, 2.0]), np.array([1.0]), np.array([3.0, 3.0])
    )
    assert x == pytest.approx([1.0, 1.0], rel=1e-15)
    # [[1, 1], [1, 1]] eliminates to a zero second pivot
    with pytest.raises(errors.NewtonDiverged):
        _tridiagonal_solve(
            np.array([1.0]), np.array([1.0, 1.0]), np.array([1.0]), np.array([1.0, 2.0])
        )


def test_singular_newton_matrix_rejects_the_step(p_ref, d_ref, monkeypatch):
    # Jacobian with d0 = 1/(dt theta) and no off-diagonals: every interior
    # row of I - dt theta J_F is exactly zero
    def singular_jac(W, dxi, sigma, p, d, source_vals, want_jac):
        F = np.ones(len(W) - 2)
        if not want_jac:
            return F, None, None, None
        return F, np.zeros_like(F), np.full_like(F, 2.0), np.zeros_like(F)

    monkeypatch.setattr(pde, "_rhs_and_jac", singular_jac)
    W = np.ones(9)
    with pytest.raises(errors.NewtonDiverged):
        pde._implicit_step(
            W, 1.0, 0.5, 1.0, 0.1, p_ref, d_ref, lambda delta: (1.0, 1.0), None, 12
        )
