"""Comoving solver, sandwich run, extinction fits, corner term."""

import math
import warnings

import numpy as np
import pytest

from fdelab import errors, pde
from fdelab.matching import GluedBarrier
from fdelab.pde import (
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
    plus = GluedBarrier(solver_ref, "+", EPS_SMOKE)
    minus = GluedBarrier(solver_ref, "-", EPS_SMOKE)
    return plus, minus


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


def test_calibrated_tolerance_scales_with_safety(barrier_pair, p_ref, d_ref):
    """The sandwich tolerance is the safety factor 5 times the normalized
    error of the manufactured calibration run on the sandwich grid."""
    report = comparison_sandwich(
        *barrier_pair, tau0=TAU0, tau_end=10.2, n_cells=200, dtau=0.01
    )
    ds = math.exp(-TAU0)
    xi = np.linspace(-10.0, 40.0, 201)
    run, error = pde._manufactured_row(p_ref, d_ref, xi, ds)
    (traj,) = pde._solve_rows(
        p_ref, d_ref, xi, [run], delta_start=ds, delta_end=math.exp(-10.2), dtau=0.01
    )
    assert error(traj) > 0.0
    assert report.tol_rel == 5.0 * error(traj)


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
    plus = GluedBarrier(solver_ref, "+", EPS_SMOKE)
    minus = GluedBarrier(solver_ref, "-", EPS_SMOKE)
    jp = weak_corner_term(plus, (10.0, 12.0))
    jm = weak_corner_term(minus, (10.0, 12.0))
    assert jp["sign"] == -1.0
    assert jm["sign"] == 1.0
    assert jp["sign_consistent"] and jm["sign_consistent"]
    assert jp["n_samples"] == 48
    # the corner sits at s = xi1 + A e^{gamma tau}: the u-weighted term is tiny
    assert jp["log10_abs"] < -1000.0
    assert jm["log10_abs"] < -1000.0


def test_pair_requires_sign_order(barrier_pair, monkeypatch):
    """The sandwich rejects barriers out of (plus, minus) order before any solve."""
    plus, minus = barrier_pair
    solves = []
    monkeypatch.setattr(pde, "_solve_rows", lambda *a, **k: solves.append(a))
    for pair in ((minus, plus), (plus, plus), (minus, minus)):
        with pytest.raises(errors.InvalidParameter, match="in order"):
            comparison_sandwich(*pair, tau0=TAU0, tau_end=10.2, n_cells=40, dtau=0.02)
    assert solves == []


def test_log_u_core_limit(barrier_pair, p_ref):
    """Deep in the core wbar follows the law lam^(1-m) e^{2(xi + C(tau))},
    reached through the shift constant C(tau)."""

    def core_law_error(bar, xi):
        law = p_ref.lam ** (1.0 - p_ref.m) * math.exp(2.0 * (xi + bar.C(TAU0)))
        return abs(bar.wbar(xi, TAU0) * bar.factor / law - 1.0)

    for bar in barrier_pair:
        assert core_law_error(bar, -20.0) < 1e-4
        assert core_law_error(bar, -20.0) <= core_law_error(bar, -10.0)
    # the minus shift constant puts xi = -20 inside the core already
    _, minus = barrier_pair
    assert core_law_error(minus, -20.0) < 1e-12


def test_sandwich_smoke(barrier_pair):
    """Short window: ordering holds; fits degrade to NaN below two decades."""
    report = comparison_sandwich(
        *barrier_pair, tau0=TAU0, tau_end=10.6, n_cells=400, dtau=0.01
    )
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
    # solver counters per run: (Newton iterations, most in one step, rejections)
    counters = {
        kind: (run.newton_iters, run.newton_iters_max, run.step_rejections)
        for kind, run in report.runs.items()
    }
    assert counters == {"lower": (256, 6, 0), "upper": (246, 5, 0), "mid": (252, 8, 0)}


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
    # bands with d0 = 1/(dt theta) and no off-diagonals: every interior
    # row of I - dt theta J_F is exactly zero
    def flat_rhs(W, dxi, sigma, p, d):
        F = np.ones((W.shape[0], W.shape[1] - 2))
        return F, np.zeros_like(F), np.zeros_like(F)

    def singular_bands(W0, D1, D2, dxi, sigma, p, d):
        return np.zeros_like(W0), np.full_like(W0, 2.0), np.zeros_like(W0)

    monkeypatch.setattr(pde, "_rhs", flat_rhs)
    monkeypatch.setattr(pde, "_jac_bands", singular_bands)
    (res,) = pde._step_rows(
        np.ones((1, 9)), [1.0], [0.5], [1.0], [(1.0, 1.0)], 0.1, p_ref, d_ref, [None],
    )
    assert isinstance(res, errors.NewtonDiverged)


# -- runs as rows of one joint solve -------------------------------------------

def test_mixed_row_failures_in_one_round(p_ref, d_ref, monkeypatch):
    """A healthy row, a NaN source, a singular Newton system and a full
    Newton step that leaves positivity, stepped in one call: each row ends
    as it does alone, its source is called as often, only finite positive
    iterates reach the shared array stages, the NaN row stops with
    NonFinite before any solve, and no warning escapes."""
    a0, ds = d_ref.a0, math.exp(-10.0)
    dn = ds * (1.0 - 0.005)
    uniform = a0 * ds * np.ones(101)
    dipped = uniform.copy()
    dipped[50] *= 3e-4  # the full Newton step overshoots below zero here
    nan_calls = []

    def nan_source(W, delta):
        nan_calls.append(delta)
        return np.full_like(W, math.nan)

    rows = [  # (W_old, ends, source)
        (uniform, (a0 * dn, a0 * dn), None),
        (uniform, (a0 * dn, a0 * dn), nan_source),
        (2.0 * uniform, (2.0 * a0 * dn, 2.0 * a0 * dn), None),
        (dipped, (a0 * dn, a0 * dn), None),
    ]

    def step(rows):
        n = len(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return pde._step_rows(
                np.stack([r[0] for r in rows]), [ds] * n, [dn] * n, [1.0] * n,
                [r[1] for r in rows], 0.4, p_ref, d_ref, [r[2] for r in rows],
            )

    # gtsv raises on the first Newton system of row 2 alone, and after
    # that on exactly that system; the NaN row stops before any solve
    solve, calls, singular = pde._tridiagonal_solve, [], []

    def spy(dl, d, du, b):
        assert np.all(np.isfinite(b))
        calls.append([a.copy() for a in (dl, d, du, b)])
        if not singular or all(map(np.array_equal, calls[-1], singular)):
            raise errors.NewtonDiverged("singular by construction")
        return solve(dl, d, du, b)

    rhs, bands = pde._rhs, pde._jac_bands

    def checked_rhs(W, *args):
        assert np.all(np.isfinite(W)) and np.all(W > 0.0)
        return rhs(W, *args)

    def checked_bands(W0, D1, D2, *args):
        assert all(np.all(np.isfinite(a)) for a in (W0, D1, D2)) and np.all(W0 > 0.0)
        return bands(W0, D1, D2, *args)

    monkeypatch.setattr(pde, "_tridiagonal_solve", spy)
    monkeypatch.setattr(pde, "_rhs", checked_rhs)
    monkeypatch.setattr(pde, "_jac_bands", checked_bands)
    (singular_alone,) = step([rows[2]])
    singular.extend(calls[0])
    del calls[:]
    (dipped_alone,) = step([rows[3]])
    X0 = dipped.copy()
    X0[[0, -1]] = a0 * dn
    assert np.min(X0 + solve(*calls[0])) < 0.0
    alone = [step([rows[0]])[0], step([rows[1]])[0], singular_alone, dipped_alone]
    n_nan_calls = len(nan_calls)
    together = step(rows)

    assert [type(r).__name__ for r in alone] == [
        "tuple", "NonFinite", "NewtonDiverged", "tuple",
    ]
    for a, b in zip(together, alone):
        if isinstance(b, errors.FdelabError):
            assert type(a) is type(b)
        else:
            assert np.array_equal(a[0], b[0]) and a[1] == b[1]
    assert len(nan_calls) == 2 * n_nan_calls


def _assert_same_runs(together, alone):
    assert len(together) == len(alone)
    for a, b in zip(together, alone):
        assert isinstance(a, pde.Trajectory) and isinstance(b, pde.Trajectory)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.deltas, b.deltas)
        assert a.newton_iters_max == b.newton_iters_max
        assert a.newton_iters == b.newton_iters
        assert a.step_rejections == b.step_rejections


def test_sandwich_rows_match_lone_runs(barrier_pair, p_ref, d_ref):
    """Calibration, lower, upper and mid solved together give each lone run's bits."""
    ds, de = math.exp(-TAU0), math.exp(-10.6)
    xi = np.linspace(-10.0, 40.0, 201)

    def runs():
        calibration, _ = pde._manufactured_row(p_ref, d_ref, xi, ds)
        return [calibration, *pde._sandwich_rows(*barrier_pair, xi, ds).values()]

    kw = dict(delta_start=ds, delta_end=de, dtau=0.01)
    together = pde._solve_rows(p_ref, d_ref, xi, runs(), **kw)
    alone = [pde._solve_rows(p_ref, d_ref, xi, [run], **kw)[0] for run in runs()]
    _assert_same_runs(together, alone)
    assert len(together[0].deltas) == 63


def _uniform_run(a0, ds, bc):
    return pde._Run(a0 * ds * np.ones(101), bc)


def _bc_failing_at(a0, calls, n_bad):
    # the uniform solution's end values, except a negative left end on the
    # calls whose 1-based number is in n_bad
    def bc(delta):
        calls.append(delta)
        lo = -a0 * delta if len(calls) in n_bad else a0 * delta
        return lo, a0 * delta

    return bc


def test_rejected_row_keeps_its_own_steps(p_ref, d_ref):
    """One PositivityLost rejection in a row changes only that row's deltas."""
    ds, de = math.exp(-10.0), math.exp(-12.0)
    a0 = d_ref.a0
    xi = np.linspace(-10.0, 30.0, 101)
    kw = dict(delta_start=ds, delta_end=de, dtau=0.01)
    good = lambda delta: (a0 * delta, a0 * delta)
    calls_together, calls_alone = [], []
    together = pde._solve_rows(p_ref, d_ref, xi, [
        _uniform_run(a0, ds, good),
        _uniform_run(a0, ds, _bc_failing_at(a0, calls_together, {3})),
    ], **kw)
    alone = [
        pde._solve_rows(p_ref, d_ref, xi, [_uniform_run(a0, ds, good)], **kw)[0],
        pde._solve_rows(p_ref, d_ref, xi, [
            _uniform_run(a0, ds, _bc_failing_at(a0, calls_alone, {3}))
        ], **kw)[0],
    ]
    _assert_same_runs(together, alone)
    steady, flaky = together
    assert steady.step_rejections == 0
    assert flaky.step_rejections == 1
    assert len(steady.deltas) - 1 == 202
    # one bc call per accepted step plus the rejected one
    assert len(calls_together) == len(flaky.deltas) == len(calls_alone)
    assert not np.array_equal(flaky.deltas, steady.deltas)
    assert flaky.deltas[-1] == steady.deltas[-1]


def test_nan_boundary_value_rejects_the_step(p_ref, d_ref):
    """A NaN end value is a rejected step, never a NaN frame."""
    ds, de = math.exp(-10.0), math.exp(-10.5)
    a0 = d_ref.a0
    calls = []

    def bc(delta):
        calls.append(delta)
        return (math.nan if len(calls) == 3 else a0 * delta), a0 * delta

    traj = solve_radial_fde(
        p_ref, d_ref, xi_window=(-10.0, 30.0), n_cells=100,
        delta_start=ds, delta_end=de, w0=lambda x: a0 * ds * np.ones_like(x), bc=bc,
    )
    assert traj.step_rejections == 1
    assert np.all(np.isfinite(traj.W))
    assert len(calls) == len(traj.deltas)


def test_failed_row_stops_alone(p_ref, d_ref):
    """A row that keeps failing records its error; the other row finishes."""
    ds, de = math.exp(-10.0), math.exp(-10.5)
    a0 = d_ref.a0
    xi = np.linspace(-10.0, 30.0, 101)
    kw = dict(delta_start=ds, delta_end=de, dtau=0.01)
    good = lambda delta: (a0 * delta, a0 * delta)
    calls = []
    steady, failed = pde._solve_rows(p_ref, d_ref, xi, [
        _uniform_run(a0, ds, good),
        _uniform_run(a0, ds, _bc_failing_at(a0, calls, range(2, 10 ** 6))),
    ], **kw)
    assert isinstance(failed, errors.PositivityLost)
    # one accepted step, then 13 rejections halve the warmup step 0.005
    # below 1e-6
    assert len(calls) == 1 + 13
    (lone,) = pde._solve_rows(p_ref, d_ref, xi, [_uniform_run(a0, ds, good)], **kw)
    _assert_same_runs([steady], [lone])
    with pytest.raises(errors.PositivityLost):
        solve_radial_fde(
            p_ref, d_ref, xi_window=(-10.0, 30.0), n_cells=100,
            delta_start=ds, delta_end=de, w0=lambda x: a0 * ds * np.ones_like(x),
            bc=_bc_failing_at(a0, [], range(2, 10 ** 6)),
        )


def test_zero_end_value_rejects_before_newton(p_ref, d_ref, monkeypatch):
    """An end value of 0.0 rejects the step without a Newton solve, like
    any other rejection, until the step underflows."""
    ds, de = math.exp(-10.0), math.exp(-10.5)
    a0 = d_ref.a0
    calls, solves = [], []
    step_rows = pde._step_rows

    def counted(*args):
        solves.append(args[1])
        return step_rows(*args)

    def bc(delta):
        calls.append(delta)
        return (0.0 if len(calls) >= 2 else a0 * delta), a0 * delta

    monkeypatch.setattr(pde, "_step_rows", counted)
    with pytest.raises(errors.PositivityLost, match="end values"):
        solve_radial_fde(
            p_ref, d_ref, xi_window=(-10.0, 30.0), n_cells=100,
            delta_start=ds, delta_end=de, w0=lambda x: a0 * ds * np.ones_like(x), bc=bc,
        )
    # one accepted step, then 13 rejections halve the warmup step 0.005
    # below 1e-6; only the accepted step reached Newton
    assert len(calls) == 1 + 13
    assert len(solves) == 1


@pytest.mark.parametrize("n_cells, dtau", [
    (-1, 0.01), (0, 0.01), (1, 0.01), (40, 0.0), (40, -0.01), (40, math.nan),
])
def test_bad_window_is_rejected_before_the_grid(barrier_pair, p_ref, d_ref, monkeypatch,
                                                 n_cells, dtau):
    """Too few cells or a step that is not finite and > 0 raise before any solve."""
    solves = []
    monkeypatch.setattr(pde, "_solve_rows", lambda *a, **k: solves.append(a))
    with pytest.raises(errors.InvalidParameter):
        comparison_sandwich(*barrier_pair, tau0=TAU0, tau_end=10.2,
                            n_cells=n_cells, dtau=dtau)
    with pytest.raises(errors.InvalidParameter):
        solve_radial_fde(
            p_ref, d_ref, xi_window=(-10.0, 30.0), n_cells=n_cells,
            delta_start=math.exp(-10.0), delta_end=math.exp(-10.5),
            w0=np.ones_like, bc=lambda delta: (1.0, 1.0), dtau=dtau,
        )
    assert solves == []


@pytest.mark.parametrize("late, early", [(0, 2), (1, 3), (2, 3)])
def test_sandwich_raises_the_first_row_error(barrier_pair, monkeypatch, late, early):
    """Rows 0..3 are calibration, lower, upper, mid: the earlier row's error
    wins even when a later row failed first."""
    names = ["calibration", "lower", "upper", "mid"]
    solve_rows = pde._solve_rows

    def failing(bc, name, n_call):
        calls = []

        def wrapped(delta):
            calls.append(delta)
            if len(calls) >= n_call:
                raise errors.TargetBelowRange(f"{name} bc failed")
            return bc(delta)

        return wrapped

    def patched(p, d, xi, runs, **kw):
        runs = list(runs)
        for row, n_call in ((late, 12), (early, 2)):
            runs[row] = pde._Run(
                runs[row].w0, failing(runs[row].bc, names[row], n_call), runs[row].source
            )
        return solve_rows(p, d, xi, runs, **kw)

    monkeypatch.setattr(pde, "_solve_rows", patched)
    with pytest.raises(errors.TargetBelowRange, match=f"^{names[late]} bc failed$"):
        comparison_sandwich(
            *barrier_pair, tau0=TAU0, tau_end=10.2, n_cells=200, dtau=0.01
        )
