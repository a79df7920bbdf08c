"""Comoving solver, sandwich run, extinction fits, corner term."""

import dataclasses
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fdelab import comoving, errors, pde
from fdelab.matching import GluedBarrier, MatchingSolver, weak_corner_term
from fdelab.pde import comparison_sandwich, extinction_rate, make_manufactured
from reference_routes import jac_bands, solve_kept, solve_radial_fde
from sandwich_sweep import Window, run_window

TAU0 = 10.0
EPS_SMOKE = 0.018  # below the admissible ceiling eps1 ~ 0.036 at xi1 = 10


@pytest.fixture(scope="module")
def barrier_pair(solver_ref):
    plus = GluedBarrier(solver_ref, "+", EPS_SMOKE)
    minus = GluedBarrier(solver_ref, "-", EPS_SMOKE)
    return plus, minus


@pytest.fixture(scope="module")
def smoke_report(barrier_pair):
    """The sandwich on the smoke window: 63 frames of 401 points."""
    return comparison_sandwich(
        *barrier_pair, tau0=TAU0, tau_end=10.6, n_cells=400, dtau=0.01
    )


def _lone_mid_run(barrier_pair, p, xi, tau_end):
    """The sandwich's mid run solved alone, keeping every frame."""
    deltas = comoving._planned_deltas(math.exp(-TAU0), math.exp(-tau_end), 0.01)
    rows, _ = pde._sandwich_rows(*barrier_pair, xi, deltas)
    (traj,) = solve_kept(p, xi, [rows["mid"]], deltas)
    return traj


@pytest.fixture(scope="module")
def uniform_traj(p_ref, d_ref):
    # w = a0 * delta solves the flow exactly: F(const) = -a0 and w_t = -a0
    ds, de = math.exp(-10.0), math.exp(-12.0)
    a0 = d_ref.a0
    return solve_radial_fde(
        p_ref, xi_window=(-10.0, 30.0), n_cells=100,
        delta_start=ds, delta_end=de, dtau=0.01,
        w0=lambda x: a0 * ds * np.ones_like(x),
        bc=lambda delta: (a0 * delta, a0 * delta),
    )


def test_uniform_profile_reproduced_to_rounding(uniform_traj, d_ref):
    rel = np.abs(uniform_traj.W / (d_ref.a0 * uniform_traj.deltas[:, None]) - 1.0)
    assert np.max(rel) <= 1e-12
    assert uniform_traj.deltas[0] == pytest.approx(math.exp(-10.0), rel=1e-14)
    assert uniform_traj.deltas[-1] == pytest.approx(math.exp(-12.0), rel=1e-12)


def test_amplitude_observable(barrier_pair, p_ref, monkeypatch):
    """The fits read sup_xi W^{1/(1-m)} of every mid frame, raised as one
    array, and each barrier's peak per frame, bit for bit as the kept
    frames of the mid run solved alone give them (a fit window of 0.2
    decades lets the smoke window fit)."""
    monkeypatch.setattr(pde, "_FIT_DECADES", 0.2)
    report = comparison_sandwich(
        *barrier_pair, tau0=TAU0, tau_end=10.6, n_cells=200, dtau=0.01
    )
    xi = np.linspace(-10.0, 40.0, 201)
    traj = _lone_mid_run(barrier_pair, p_ref, xi, 10.6)
    power = 1.0 / (1.0 - p_ref.m)
    want = {"solution": np.max(traj.W, axis=1) ** power}
    for name, bar in zip(("upper_barrier", "lower_barrier"), barrier_pair):
        W = pde._barrier_W(bar, xi, traj.deltas, p_ref)
        want[name] = np.array([np.max(row) ** power for row in W])
    assert report.runs["mid"].frames == len(traj.deltas)
    for name, amp in want.items():
        assert report.fits[name] == extinction_rate(traj.deltas, amp), name
        assert report.fits[name]["n_points"] > 2


def test_trajectory_csv_layout(smoke_report, barrier_pair, p_ref, tmp_path):
    """The CSV holds every 8th point of every 10th mid frame: its w column
    is those values of the kept frames of the mid run solved alone."""
    path = tmp_path / "traj.csv"
    smoke_report.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,s,xi,w,u,log10_u"
    n_frames = len(range(0, smoke_report.runs["mid"].frames, 10))
    n_cols = len(range(0, len(smoke_report.xi), 8))
    assert len(lines) == 1 + n_frames * n_cols
    traj = _lone_mid_run(barrier_pair, p_ref, smoke_report.xi, 10.6)
    w = [float(line.split(",")[3]) for line in lines[1:]]
    assert w == traj.W[::10, ::8].ravel().tolist()
    first = path.read_bytes()
    smoke_report.to_csv(str(path))
    assert path.read_bytes() == first


def test_trajectory_csv_creates_missing_directory(smoke_report, tmp_path):
    # a fresh --out directory must not lose the artifact after the solve
    path = tmp_path / "fresh" / "traj.csv"
    smoke_report.to_csv(str(path))
    smoke_report.to_csv(str(tmp_path / "traj.csv"))
    assert path.read_bytes() == (tmp_path / "traj.csv").read_bytes()


def test_manufactured_convergence_second_order(p_ref):
    """Halving h with dtau/4 shrinks the manufactured error ~4x."""
    W_exact, bind = make_manufactured(p_ref)
    ds = math.exp(-10.0)

    def run(n_cells, dtau):
        xi = np.linspace(-5.0, 5.0, n_cells + 1)
        traj = solve_radial_fde(
            p_ref, xi_window=(-5.0, 5.0), n_cells=n_cells,
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


def test_calibrated_tolerance_scales_with_safety(barrier_pair, p_ref):
    """The sandwich tolerance is the safety factor 5 times the normalized
    error of the manufactured calibration run on the sandwich grid, its
    maximum over every frame, reduced as each frame is accepted."""
    report = comparison_sandwich(
        *barrier_pair, tau0=TAU0, tau_end=10.2, n_cells=200, dtau=0.01
    )
    ds = math.exp(-TAU0)
    xi = np.linspace(-10.0, 40.0, 201)
    deltas = comoving._planned_deltas(ds, math.exp(-10.2), 0.01)
    run, error = pde._manufactured_row(p_ref, xi, ds)
    (traj,) = solve_kept(p_ref, xi, [run], deltas)
    W_exact, _ = make_manufactured(p_ref)
    worst = max(
        float(np.max(np.abs(W - W_exact(xi, delta)))) / delta ** (1.0 + p_ref.gamma)
        for delta, W in zip(traj.deltas, traj.W)
    )
    assert worst > 0.0
    assert report.tol_rel == 5.0 * worst
    pde._solve_rows(p_ref, xi, [run], deltas)
    assert error() == worst


def test_solver_input_guards(p_ref):
    bc = lambda delta: (1.0, 1.0)
    with pytest.raises(errors.InvalidParameter):
        solve_radial_fde(p_ref, xi_window=(-5.0, 5.0), n_cells=10,
                         delta_start=1e-5, delta_end=1e-4, dtau=0.01,
                         w0=lambda x: np.ones_like(x), bc=bc)
    with pytest.raises(errors.InvalidParameter):
        solve_radial_fde(p_ref, xi_window=(-5.0, 5.0), n_cells=10,
                         delta_start=1e-4, delta_end=1e-5, dtau=0.01,
                         w0=lambda x: np.ones(3), bc=bc)
    with pytest.raises(errors.PositivityLost):
        solve_radial_fde(p_ref, xi_window=(-5.0, 5.0), n_cells=10,
                         delta_start=1e-4, delta_end=1e-5, dtau=0.01,
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


def test_weak_corner_term_reads_each_edge_once(solver_ref, monkeypatch):
    """The edge values and both slopes come from one reading of the edge
    at all 48 taus."""
    calls = []
    edge = MatchingSolver._read_edge

    def spy(self, *a):
        calls.append(a)
        return edge(self, *a)

    # on the class: undoing a patch of the session's solver instance would
    # leave the bound method behind as an instance attribute
    monkeypatch.setattr(MatchingSolver, "_read_edge", spy)
    weak_corner_term(GluedBarrier(solver_ref, "+", EPS_SMOKE), (10.0, 12.0))
    monkeypatch.undo()
    assert len(calls) == 1
    assert np.array_equal(calls[0][1], np.linspace(10.0, 12.0, 48))
    assert "_read_edge" not in vars(solver_ref)


def test_weak_corner_term_refuses_an_underflowing_delta(solver_low):
    # e^(-tau) is 0 past tau = 745: its log would end in a bare ValueError
    with pytest.raises(errors.OutOfDomain, match="underflows to 0 at tau = 760"):
        weak_corner_term(GluedBarrier(solver_low, "+", EPS_SMOKE), (760.0, 766.0))


def test_pair_requires_sign_order(barrier_pair, monkeypatch):
    """The sandwich rejects barriers out of (plus, minus) order before any solve."""
    plus, minus = barrier_pair
    solves = []
    monkeypatch.setattr(pde, "_solve_rows", lambda *a, **k: solves.append(a))
    for pair in ((minus, plus), (plus, plus), (minus, minus)):
        with pytest.raises(errors.InvalidParameter, match="in order"):
            comparison_sandwich(*pair, tau0=TAU0, tau_end=10.2, n_cells=40, dtau=0.02)
    assert solves == []


def test_a_window_past_the_step_budget_is_refused_before_any_row_steps(barrier_pair, monkeypatch):
    """tau 10 -> 10.5 at dtau 1e-6 needs about 5e5 planned steps, past the
    budget of 2e5: StepUnderflow from the plan, before any row is
    stepped."""

    def stepped(*args, **kwargs):
        raise AssertionError("_solve_rows entered")

    monkeypatch.setattr(pde, "_solve_rows", stepped)
    with pytest.raises(errors.StepUnderflow, match="budget"):
        comparison_sandwich(*barrier_pair, tau0=TAU0, tau_end=10.5, n_cells=40, dtau=1e-6)


def test_log_u_core_limit(barrier_pair, p_ref):
    """Deep in the core wbar follows the law lam^(1-m) e^{2(xi + C(tau))},
    reached through the shift constant C(tau)."""

    def core_law_error(bar, xi):
        law = p_ref.lam ** (1.0 - p_ref.m) * math.exp(2.0 * (xi + bar.C([TAU0])[0]))
        return abs(bar.wbar([xi], [TAU0])[0, 0] * bar.factor / law - 1.0)

    for bar in barrier_pair:
        assert core_law_error(bar, -20.0) < 1e-4
        assert core_law_error(bar, -20.0) <= core_law_error(bar, -10.0)
    # the minus shift constant puts xi = -20 inside the core already
    _, minus = barrier_pair
    assert core_law_error(minus, -20.0) < 1e-12


def test_sandwich_smoke(smoke_report):
    """Short window: ordering holds; fits degrade to NaN below two decades."""
    report = smoke_report
    assert report.passed
    assert report.tol_rel > 0.0
    assert report.max_overshoot <= report.tol_rel
    assert report.max_undershoot <= report.tol_rel
    assert sorted(report.runs) == ["lower", "mid", "upper"]
    # the grid has 401 points, which the report carries; the runs keep no
    # grid, no deltas and no frames
    assert report.xi.shape == (401,)
    assert all(type(run) is pde.Trajectory for run in report.runs.values())
    assert {"W", "deltas", "p", "xi"}.isdisjoint(
        f.name for f in dataclasses.fields(pde.Trajectory))
    assert [run.frames for run in report.runs.values()] == [63] * 3
    for fit in report.fits.values():
        assert math.isnan(fit["exponent"])
        assert fit["n_points"] == 0
        assert fit["decades"] == pytest.approx(0.6 / math.log(10.0), rel=1e-12)
    # solver counters per run: (Newton iterations, most in one step,
    # cold retries)
    counters = {
        kind: (run.newton_iters, run.newton_iters_max, run.cold_retries)
        for kind, run in report.runs.items()
    }
    assert counters == {
        "lower": (89, 6, 0), "upper": (85, 5, 0), "mid": (91, 8, 0),
    }


def test_simulate_ref_window_takes_the_pinned_newton_path(solver_ref, monkeypatch):
    """The window of the benchmark's simulate-ref workload (ref at verify's
    eps, 400 cells, tau 10 to 10 + 2.2 ln 10, dtau 0.01) takes a pinned
    Newton path: per run its frames, summed and most Newton iterations,
    and no cold retry.  From the extrapolated start (_extrapolated) a run
    takes at most 1.1 Newton iterations per step.  Each row's worst step is
    cold: the mid run's first step converges at iteration 8 of 12, at 0.29
    of its tolerance, and the calibration's fifth at iteration 4."""
    eps = 0.018066406177734376
    bars = GluedBarrier(solver_ref, "+", eps), GluedBarrier(solver_ref, "-", eps)
    solve_rows, solved = pde._solve_rows, []

    def recorded(*args, **kwargs):
        solved.extend(solve_rows(*args, **kwargs))
        return solved

    monkeypatch.setattr(pde, "_solve_rows", recorded)
    report = comparison_sandwich(*bars, tau0=TAU0, tau_end=TAU0 + 2.2 * math.log(10.0),
                                 n_cells=400, dtau=0.01)
    path = [(t.frames, t.newton_iters, t.newton_iters_max, t.cold_retries)
            for t in solved]  # calibration, lower, upper, mid
    assert path == [(508, 526, 4, 0), (508, 533, 6, 0), (508, 529, 5, 0),
                    (508, 535, 8, 0)]
    assert all(iters <= 1.1 * (frames - 1) for frames, iters, _, _ in path)
    assert report.passed


def test_simulate_ref_rows_carry_no_step_sawtooth(solver_ref, p_ref):
    """On simulate-ref's window every row's log W is smooth in the step
    index: over the frames after the warm-up and before the short last
    step, the largest 4th step difference of log W over the interior
    points stays below 1e-7 in the median over frames.  Trapezoidal steps
    left a sawtooth c (-1)^k there of 6.3e-7 (calibration) to 2.3e-5
    (lower and mid); backward Euler damps it."""
    eps = 0.018066406177734376
    plus, minus = GluedBarrier(solver_ref, "+", eps), GluedBarrier(solver_ref, "-", eps)
    xi = np.linspace(-plus.xi1, 4.0 * plus.xi1, 401)
    deltas = comoving._planned_deltas(math.exp(-TAU0), math.exp(-TAU0 - 2.2 * math.log(10.0)),
                                      0.01)
    calibration, _ = pde._manufactured_row(p_ref, xi, deltas[0])
    rows, _ = pde._sandwich_rows(plus, minus, xi, deltas)
    for traj in solve_kept(p_ref, xi, [calibration, *rows.values()], deltas):
        L = np.log(traj.W[comoving._WARMUP_STEPS:-1, 1:-1])  # frames a full step apart
        fourth = np.abs(np.diff(L, 4, axis=0)).max(axis=1)
        assert np.median(fourth) <= 1e-7


def test_extinction_rate_recovers_power_law():
    deltas = np.exp(-np.linspace(4.0, 10.0, 60))
    amps = 3.7 * deltas ** 2.5
    fit = extinction_rate(deltas, amps)
    assert fit["exponent"] == pytest.approx(2.5, abs=1e-12)
    assert fit["prefactor_log"] == pytest.approx(math.log(3.7), abs=1e-12)
    assert fit["stderr"] < 1e-12
    assert fit["n_points"] == 46  # points within the final two decades
    assert fit["decades"] == pytest.approx(6.0 / math.log(10.0), rel=1e-12)


def test_extinction_rate_window_override(monkeypatch):
    monkeypatch.setattr(pde, "_FIT_DECADES", 1.0)
    deltas = np.exp(-np.linspace(4.0, 10.0, 60))
    amps = 3.7 * deltas ** 2.5
    fit = extinction_rate(deltas, amps)
    assert fit["n_points"] == 23


def test_extinction_rate_guards():
    deltas = np.exp(-np.linspace(4.0, 10.0, 60))
    amps = 3.7 * deltas ** 2.5
    with pytest.raises(errors.InsufficientDecades):
        extinction_rate(deltas[:10], amps[:10])
    with pytest.raises(errors.NonPositiveInput):
        extinction_rate(deltas, 0.0 * amps)


def test_extinction_rate_needs_two_distinct_deltas_in_its_window():
    # three decades, but the final two hold one point (or two at one
    # delta): there is no line to fit, and no exponent is reported
    with pytest.raises(errors.InsufficientDecades, match="hold 1 point"):
        extinction_rate([1.0, 1e-3], [1.0, 1e-6])
    with pytest.raises(errors.InsufficientDecades, match="hold 2 point"):
        extinction_rate([1.0, 1e-3, 1e-3], [1.0, 1e-6, 1e-6])


@pytest.mark.parametrize("at", [0, 1])
def test_extinction_rate_refuses_nan(at):
    # a NaN delta or amplitude is not positive: no bare numpy error from an
    # empty window, and no NaN fit
    deltas, amps = [1.0, 1e-3, 1e-4], [1.0, 1e-6, 1e-7]
    for series in (deltas, amps):
        bad = list(series)
        bad[at] = math.nan
        with pytest.raises(errors.NonPositiveInput):
            extinction_rate(*((bad, amps) if series is deltas else (deltas, bad)))


@pytest.mark.parametrize("seed", range(6))
def test_extinction_rate_closed_form_matches_least_squares(seed):
    # noisy power laws over irregular deltas, against a least-squares
    # solve of the same window
    rng = np.random.default_rng(seed)
    deltas = np.exp(-np.sort(rng.uniform(8.0, 20.0, 40 + 50 * seed)))
    noise = rng.normal(0.0, 10.0 ** -(1 + seed % 3), deltas.size)
    amps = 3.7 * deltas ** 2.78 * np.exp(noise)
    fit = extinction_rate(deltas, amps)
    window = deltas <= deltas.min() * 10.0 ** pde._FIT_DECADES
    x, y = np.log(deltas[window]), np.log(amps[window])
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    stderr = math.sqrt(float(resid @ resid) / (x.size - 2) / float(np.sum((x - x.mean()) ** 2)))
    assert fit["n_points"] == x.size
    assert fit["exponent"] == pytest.approx(coef[0], rel=1e-12, abs=0.0)
    assert fit["prefactor_log"] == pytest.approx(coef[1], rel=1e-12, abs=0.0)
    assert fit["stderr"] == pytest.approx(stderr, rel=1e-9, abs=0.0)


def _lone_solve(bands):
    """x of one system (dl, d, du, b) from a one-row _Bands, or the
    NewtonDiverged of its zero pivot."""
    block = comoving._Bands(1, len(bands[1]))

    def fill(*flat):
        for band, a in zip(flat, bands):
            band[:] = a

    step, failed = block.solve(1, fill)
    return failed[0] if failed else step[0, 1:-1]


def test_lone_gtsv_zero_pivot_is_newton_divergence():
    x = _lone_solve(([1.0], [2.0, 2.0], [1.0], [3.0, 3.0]))
    assert x == pytest.approx([1.0, 1.0], rel=1e-15)
    # [[1, 1], [1, 1]] eliminates to a zero second pivot
    assert isinstance(_lone_solve(([1.0], [1.0, 1.0], [1.0], [1.0, 2.0])), errors.NewtonDiverged)


@pytest.fixture(scope="module")
def gtsv_routes():
    """The binders bind(dl, d, du, b) -> solve(n) of numpy's OpenBLAS dgtsv
    through ctypes and of scipy's dgtsv."""
    routes = comoving._openblas_gtsv(), comoving._scipy_gtsv()
    if None in routes:
        pytest.skip("needs both numpy's scipy_dgtsv_64_ and scipy")
    return routes


def _bands(rng, n):
    """A random tridiagonal system whose diagonal is weighted by factors
    from 0.1 to 10, so that gtsv both keeps and interchanges rows."""
    d = rng.standard_normal(n) * 10.0 ** rng.uniform(-1.0, 1.0, n)
    return rng.standard_normal(n - 1), d, rng.standard_normal(n - 1), rng.standard_normal(n)


def test_gtsv_routes_give_equal_bits(gtsv_routes):
    """Both routes return the same info and leave the same bits in all four
    arrays, x in b, on 3000 systems of 399 unknowns and on N = 1 and 2."""
    rng = np.random.default_rng(20)
    for n, count in ((399, 3000), (1, 100), (2, 100)):
        for _ in range(count):
            bands = _bands(rng, n)
            results = []
            for bind in gtsv_routes:
                work = [a.copy() for a in bands]
                results.append((bind(*work)(n), work))
            (info_c, c), (info_s, s) = results
            assert info_c == info_s == 0
            assert all(np.array_equal(x.view(np.int64), y.view(np.int64)) for x, y in zip(c, s))
            # and x solves the system to rounding
            dl, d, du, b = bands
            x = c[3]
            Ax = d * x + np.r_[0.0, dl * x[:-1]] + np.r_[du * x[1:], 0.0]
            size = np.abs(d * x) + np.r_[0.0, np.abs(dl * x[:-1])] + np.r_[np.abs(du * x[1:]), 0.0]
            assert np.all(np.abs(Ax - b) <= 1e-12 * size.max())


def test_singular_gtsv_gives_one_info_and_newton_divergence(gtsv_routes, monkeypatch):
    """A singular matrix gives the same nonzero info on both routes, and
    through the ctypes route a _Bands solve gives NewtonDiverged."""
    openblas, _ = gtsv_routes
    singular = [  # (dl, d, du, b)
        ([1.0], [1.0, 1.0], [1.0], [1.0, 2.0]),
        ([], [0.0], [], [1.0]),
        ([1.0, 0.0, 1.0], [2.0, 1.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0] * 4),  # row 2 is 0
    ]
    for bands in singular:
        infos = [bind(*[np.array(a, dtype=float) for a in bands])(len(bands[1]))
                 for bind in gtsv_routes]
        assert infos[0] == infos[1] > 0
    monkeypatch.setattr(comoving, "_gtsv", openblas)
    for bands in singular:
        x = _lone_solve(bands)
        assert isinstance(x, errors.NewtonDiverged) and "gtsv info" in str(x)


def test_stacked_gtsv_solves_each_row_as_alone(gtsv_routes, monkeypatch):
    """A Newton round passes its systems to gtsv as one flat system, in
    one call, whose rows are joined by two identity rows with zero
    couplings: on each route, every row gets the bits of its lone solve,
    on rows that pivot, and a step of exactly 0 at its ends.  A zero pivot
    in a middle row stops gtsv in that row's block, and a NaN in one row's
    diagonal spreads over the seams to every x (and into the couplings
    themselves); either sends every row to its lone solve, so each row
    still gets its lone x, or the NewtonDiverged of its lone info, and the
    seams are identity rows again."""
    rng = np.random.default_rng(24)
    n = 399
    regular = [_bands(rng, n) for _ in range(5)]
    singular = list(regular)  # no pivot in the diagonal, sub- or superdiagonal
    singular[2] = [np.zeros(n - 1), np.zeros(n), np.zeros(n - 1), regular[2][3]]
    spread = list(regular)
    spread[1] = [regular[1][0], regular[1][1].copy(), *regular[1][2:]]
    spread[1][1][200] = math.nan
    for route in gtsv_routes:
        monkeypatch.setattr(comoving, "_gtsv", route)
        for case, first_info in ((regular, 0), (singular, None), (spread, 0)):
            lone = []
            for bands in case:
                work = [a.copy() for a in bands]
                info = route(*work)(n)
                lone.append(work[3] if info == 0 else info)
            if first_info is None:
                assert lone[2] > 0 and all(isinstance(x, np.ndarray) for x in lone[:2] + lone[3:])
                first_info = 2 * (n + 2) + lone[2]  # the zero pivot, counted from row 0
            block, infos = comoving._Bands(5, n), []
            gtsv = block.gtsv
            block.gtsv = lambda size: infos.append((size, gtsv(size))) or infos[-1][1]

            def fill(*flat):  # row j's unknowns start at flat position j (n + 2)
                for j, bands in enumerate(case):
                    for band, a in zip(flat, bands):
                        band[j * (n + 2):j * (n + 2) + len(a)] = a

            step, failed = block.solve(5, fill)
            assert infos == [(5 * (n + 2) - 2, first_info)]
            if case is spread:
                assert np.isnan(lone[1]).any() and not np.isnan(lone[0]).any()
            assert set(failed) == {j for j, want in enumerate(lone) if isinstance(want, int)}
            for j, want in enumerate(lone):
                if isinstance(want, int):
                    assert isinstance(failed[j], errors.NewtonDiverged), failed[j]
                    assert str(failed[j]).endswith(f"(gtsv info {want})")
                    assert not step[j].any()
                else:
                    assert np.array_equal(step[j, 1:-1], want, equal_nan=True)
                    assert not step[j, ::n + 1].any()
            dl, d, du, _ = block.tri
            for band in (dl, du):  # the couplings of points c and c + 1 at the seams
                assert not band[:, ::n + 1].any() and not band[:, -2].any()
            assert np.all(d[:, ::n + 1] == 1.0)


def test_openblas_lookup_falls_back_to_none(monkeypatch):
    """A library that will not load or lacks the symbol gives no route."""
    def no_library(path):
        raise OSError(path)

    monkeypatch.setattr(comoving.ctypes, "CDLL", no_library)
    assert comoving._openblas_gtsv() is None
    monkeypatch.setattr(comoving.ctypes, "CDLL", lambda path: object())
    assert comoving._openblas_gtsv() is None


def test_no_lapack_route_is_one_error_naming_both(monkeypatch):
    monkeypatch.setattr(comoving, "_gtsv", None)
    monkeypatch.setattr(comoving.ctypes, "CDLL", lambda path: object())
    monkeypatch.setitem(sys.modules, "scipy.linalg.lapack", None)
    with pytest.raises(errors.LapackUnavailable) as info:
        comoving._Bands(1, 2)
    assert "scipy_dgtsv_64_" in str(info.value)
    assert "scipy.linalg.lapack" in str(info.value)
    assert info.value.__context__ is None and info.value.__cause__ is None
    assert comoving._gtsv is None  # the next solve looks again


def test_singular_newton_matrix_rejects_the_step(p_ref, monkeypatch):
    # a flat row, whose residual dt*a0 is far above its tolerance,
    # and a Newton matrix whose interior rows are all exactly zero
    written = []

    def singular_bands(dl, diag, du, *args):
        written.append(len(diag))
        for band in (dl, diag, du):
            band[...] = 0.0

    monkeypatch.setattr(comoving, "_newton_bands", singular_bands)
    (res,), _ = comoving._step_rows(np.ones((1, 9)), 1.0, 0.5, [(1.0, 1.0)], 0.1, p_ref, [None],
                                    comoving._Bands(1, 7), np.ones((1, 9)))
    assert isinstance(res, errors.NewtonDiverged)
    # the patched bands were the ones solved: once as the round's block,
    # once more for the lone solve that follows a zero pivot
    assert written == [7, 7]


def _newton_matrix_rows(rng, p, k, M, dxi):
    """k random positive rows of M points, each with its own step and
    drift speed near the sandwich's, and the bands (dl, diag, du) that
    _newton_bands writes for them."""
    delta = np.exp(-rng.uniform(10.0, 13.0, k))
    W = p.d.a0 * delta[:, None] * np.exp(rng.uniform(-0.3, 0.3, (k, M)))
    dt = delta * rng.uniform(0.001, 0.01, k)
    sigma = np.array([comoving._drift_speed(p, x) for x in delta])
    _, e, rho = comoving._stencil(W)
    kappa = -dt * (p.n - 1) / dxi ** 2
    alpha = dt * sigma / (2.0 * dxi)
    bands = np.zeros((k, M - 3)), np.zeros((k, M - 2)), np.zeros((k, M - 3))
    for j in range(k):  # each row alone, with its own floats; row j's interior is flat j M ..
        interior = slice(j * M, j * M + M - 2)
        comoving._newton_bands(*(band[j] for band in bands), W[j, 1:-1], e[interior],
                               rho[interior], float(kappa[j]), float(alpha[j]), dxi, p)
    return W, dt, sigma, bands


def test_newton_bands_match_the_raw_jacobian(p_ref):
    """The Newton matrix I - dt J_F that _newton_bands writes from the
    stencil quotients matches the one from the raw stencil's Jacobian
    bands (reference_routes.jac_bands) to 1e-12 relative, entry by entry,
    on random positive rows."""
    rng = np.random.default_rng(26)
    dxi = 0.125
    W, dt, sigma, (dl, diag, du) = _newton_matrix_rows(rng, p_ref, 200, 401, dxi)
    Wm, W0, Wp = W[:, :-2], W[:, 1:-1], W[:, 2:]
    dm, d0, dp = jac_bands(W0, (Wp - Wm) / (2.0 * dxi), (Wp - 2.0 * W0 + Wm) / dxi ** 2,
                           dxi, sigma[:, None], p_ref)
    k = dt[:, None]
    for new, ref in ((dl, -k * dm[:, 1:]), (diag, 1.0 - k * d0), (du, -k * dp[:, :-1])):
        assert np.all(np.abs(new - ref) <= 1e-12 * np.abs(ref))


def test_newton_bands_match_an_exact_finite_difference(p_ref):
    """Each entry of the Newton matrix equals the central difference of
    the residual G_j = X_j - C_j - dt F_j(X) in X_{j-1}, X_j and
    X_{j+1}, taken in exact rational arithmetic with a step of 2^-40 of
    X, to 1e-12 relative; F is the raw form (n-1)(D2/W + b1 (D1/W)^2 +
    b2 D1/W) + sigma D1 - a0."""
    rng = np.random.default_rng(27)
    dxi = 0.125
    W, dt, sigma, bands = _newton_matrix_rows(rng, p_ref, 3, 12, dxi)
    h, b1, b2 = Fraction(dxi), Fraction(p_ref.d.b1), Fraction(p_ref.d.b2)

    def G(X, j, row):  # C_j drops out of the difference
        D1 = (X[j + 1] - X[j - 1]) / (2 * h)
        D2 = (X[j + 1] - 2 * X[j] + X[j - 1]) / (h * h)
        F = (p_ref.n - 1) * (D2 / X[j] + b1 * (D1 / X[j]) ** 2 + b2 * D1 / X[j])
        F += Fraction(sigma[row]) * D1 - Fraction(p_ref.d.a0)
        return X[j] - Fraction(dt[row]) * F

    for row in range(3):
        X = [Fraction(x) for x in W[row]]
        for j in range(1, len(X) - 1):
            for band, col, l in ((bands[0], j - 2, j - 1), (bands[1], j - 1, j),
                                 (bands[2], j - 1, j + 1)):
                if not 0 <= col < band.shape[1]:
                    continue  # the ends are Dirichlet values, not unknowns
                step = X[l] / 2 ** 40
                up, down = list(X), list(X)
                up[l] += step
                down[l] -= step
                exact = float((G(up, j, row) - G(down, j, row)) / (2 * step))
                assert abs(band[row, col] - exact) <= 1e-12 * abs(exact), (row, j, l)


# -- runs as rows of one joint solve -------------------------------------------

def test_mixed_row_failures_in_one_round(p_ref, d_ref, monkeypatch):
    """A healthy row, a NaN source, a singular Newton system and a full
    Newton step that leaves positivity, stepped in one call: each row ends
    as it does alone, its source is called as often (once per step), only
    finite positive iterates reach the shared array stages, the NaN row
    stops with NonFinite before any solve, and no warning escapes."""
    a0, ds = d_ref.a0, math.exp(-10.0)
    dn = ds * (1.0 - 0.005)
    uniform = a0 * ds * np.ones(101)
    dipped = uniform.copy()
    dipped[50] *= 3e-4  # the full Newton step overshoots below zero here
    nan_calls = []

    def nan_source(delta):
        nan_calls.append(delta)
        return np.full(101, math.nan)

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
            W_old = np.stack([r[0] for r in rows])
            out, X = comoving._step_rows(W_old, ds, dn, [r[1] for r in rows], 0.4, p_ref,
                                         [r[2] for r in rows], comoving._Bands(n, 99), W_old)
            # each accepted row as (new frame, iterations)
            return [res if isinstance(res, errors.FdelabError) else (X[j], res)
                    for j, res in enumerate(out)]

    # gtsv finds the first Newton system of row 2 alone singular, and after
    # that exactly that system, wherever it sits in a round's flat system
    # (99 interior points per row, each row's starting 101 positions after
    # the last); the NaN row stops before any solve
    route, calls, singular = comoving._lapack(), [], []

    def spy_bind(dl, d, du, b):
        gtsv = route(dl, d, du, b)

        def spied(size):
            assert np.all(np.isfinite(b[:size]))
            for j in range(0, size, 101):
                calls.append([dl[j:j + 98].copy(), d[j:j + 99].copy(),
                              du[j:j + 98].copy(), b[j:j + 99].copy()])
                if not singular or all(map(np.array_equal, calls[-1], singular)):
                    for band, length in ((dl, 98), (d, 99), (du, 98)):
                        band[j:j + length] = 0.0
            return gtsv(size)

        return spied

    stencil, bands, checked = comoving._stencil, comoving._newton_bands, dict(stencil=0, bands=0)

    def checked_stencil(W, *args):
        checked["stencil"] += 1
        assert np.all(np.isfinite(W)) and np.all(W > 0.0)
        return stencil(W, *args)

    def checked_bands(dl, diag, du, W, e, rho, *args):
        checked["bands"] += 1
        assert all(np.all(np.isfinite(a)) for a in (W, e, rho)) and np.all(W > 0.0)
        return bands(dl, diag, du, W, e, rho, *args)

    monkeypatch.setattr(comoving, "_gtsv", spy_bind)
    monkeypatch.setattr(comoving, "_stencil", checked_stencil)
    monkeypatch.setattr(comoving, "_newton_bands", checked_bands)
    (singular_alone,) = step([rows[2]])
    singular.extend(calls[0])
    del calls[:]
    (dipped_alone,) = step([rows[3]])
    # the Newton systems cover the interior points
    dl, d, du, x = calls[0]
    assert route(dl, d, du, x)(99) == 0 and np.min(dipped[1:-1] + x) < 0.0
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
    assert n_nan_calls == 1 and len(nan_calls) == 2
    # the checks above ran: every step evaluates the stencil, and every
    # step but the NaN row's solves a Newton system
    assert checked["stencil"] > 0 and checked["bands"] > 0


def _assert_same_runs(together, alone):
    assert len(together) == len(alone)
    for a, b in zip(together, alone):
        assert isinstance(a, pde.Trajectory) and isinstance(b, pde.Trajectory)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.deltas, b.deltas)
        assert a.newton_iters_max == b.newton_iters_max
        assert a.newton_iters == b.newton_iters
        assert a.cold_retries == b.cold_retries


def test_sandwich_rows_match_lone_runs(barrier_pair, p_ref):
    """Calibration, lower, upper and mid solved together give each lone run's bits."""
    ds, de = math.exp(-TAU0), math.exp(-10.6)
    xi = np.linspace(-10.0, 40.0, 201)

    deltas = comoving._planned_deltas(ds, de, 0.01)

    def runs():
        # solve_kept swaps each row's consumer for one that keeps every frame
        calibration, _ = pde._manufactured_row(p_ref, xi, ds)
        rows, _ = pde._sandwich_rows(*barrier_pair, xi, deltas)
        return [calibration, *rows.values()]

    together = solve_kept(p_ref, xi, runs(), deltas)
    alone = [solve_kept(p_ref, xi, [run], deltas)[0] for run in runs()]
    _assert_same_runs(together, alone)
    assert len(together[0].deltas) == 63


def _uniform_run(a0, ds, bc):
    return comoving._Run(a0 * ds * np.ones(101), bc, None)  # solve_kept gives it a consumer


def _bc_failing_at(a0, calls, n_bad):
    # the uniform solution's end values, except a negative left end on the
    # calls whose 1-based number is in n_bad
    def bc(delta):
        calls.append(delta)
        lo = -a0 * delta if len(calls) in n_bad else a0 * delta
        return lo, a0 * delta

    return bc


def test_a_row_that_fails_inside_its_step_group_leaves_the_others_alone(p_ref, d_ref):
    """Three rows take each planned step in one _step_rows call until the
    middle row's source turns NaN at its second step and stops it with
    NonFinite; from then on the first and last rows take the steps
    together.  Both keep the bits of their lone runs, frame by frame."""
    ds, de = math.exp(-10.0), math.exp(-10.1)
    xi = np.linspace(-5.0, 5.0, 101)
    a0 = d_ref.a0

    def runs():
        calibration, _ = pde._manufactured_row(p_ref, xi, ds)
        calls = []

        def nan_at_second_step(delta):
            calls.append(delta)
            return np.full(101, math.nan if len(calls) == 2 else 0.0)

        failing = comoving._Run(a0 * ds * np.ones(101), lambda delta: (a0 * delta, a0 * delta),
                           None, nan_at_second_step)
        doubled = comoving._Run(2.0 * a0 * ds * np.ones(101),
                           lambda delta: (2.0 * a0 * delta, 2.0 * a0 * delta), None)
        return [calibration, failing, doubled]

    deltas = comoving._planned_deltas(ds, de, 0.01)
    first, failed, last = solve_kept(p_ref, xi, runs(), deltas)
    assert isinstance(failed, errors.NonFinite)
    lone = [solve_kept(p_ref, xi, [run], deltas)[0] for j, run in enumerate(runs()) if j != 1]
    _assert_same_runs([first, last], lone)
    assert len(first.deltas) == 13


def test_a_row_whose_cold_retry_fails_stops_after_two_attempts(p_ref, d_ref, monkeypatch):
    """Three rows take the planned steps together.  At the eighth step the
    doubled row's extrapolated start and then its cold retry are rejected
    (by construction), so it stops with that error after exactly two attempts
    of the step, the retry a call of that row alone from its last frame.
    The other two rows reach delta_end with the bits of their lone runs."""
    ds, de = math.exp(-10.0), math.exp(-10.1)
    xi = np.linspace(-5.0, 5.0, 101)
    a0 = d_ref.a0
    deltas = comoving._planned_deltas(ds, de, 0.01)
    step_rows, attempts = comoving._step_rows, []

    def runs():
        calibration, _ = pde._manufactured_row(p_ref, xi, ds)
        doubled = comoving._Run(2.0 * a0 * ds * np.ones(101),
                           lambda delta: (2.0 * a0 * delta, 2.0 * a0 * delta), None)
        return [calibration, doubled, _uniform_run(a0, ds, lambda delta: (a0 * delta, a0 * delta))]

    def rejecting(W_old, delta_old, delta_new, ends, *args):
        out, X = step_rows(W_old, delta_old, delta_new, ends, *args)
        for j, end in enumerate(ends):
            if end[0] == 2.0 * a0 * delta_new:  # the doubled row
                attempts.append((delta_new, len(ends), np.array_equal(args[-1][j], W_old[j])))
                if delta_new == deltas[8]:
                    out[j] = errors.NewtonDiverged("rejected by construction")
        return out, X

    monkeypatch.setattr(comoving, "_step_rows", rejecting)
    first, failed, last = solve_kept(p_ref, xi, runs(), deltas)
    monkeypatch.undo()
    assert isinstance(failed, errors.NewtonDiverged)
    # (delta, rows in the call, cold start) of each attempt of the doubled row
    assert attempts == [(deltas[k], 3, True) for k in range(1, 8)] + [
        (deltas[8], 3, False), (deltas[8], 1, True)]
    lone = [solve_kept(p_ref, xi, [run], deltas)[0] for j, run in enumerate(runs()) if j != 1]
    _assert_same_runs([first, last], lone)
    assert first.deltas.tolist() == last.deltas.tolist() == deltas


def test_nan_boundary_value_rejects_the_step(p_ref, d_ref):
    """A NaN end value rejects the step before Newton and stops the run
    with PositivityLost at that planned delta, never a NaN frame."""
    ds, de = math.exp(-10.0), math.exp(-10.5)
    a0 = d_ref.a0
    xi = np.linspace(-10.0, 30.0, 101)
    deltas = comoving._planned_deltas(ds, de, 0.01)
    calls, frames = [], []

    def bc(delta):
        calls.append(delta)
        return (math.nan if len(calls) == 3 else a0 * delta), a0 * delta

    run = comoving._Run(a0 * ds * np.ones(101), bc, lambda delta, W: frames.append(W.copy()))
    (res,) = pde._solve_rows(p_ref, xi, [run], deltas)
    assert isinstance(res, errors.PositivityLost)
    assert str(res) == (f"end values (nan, {a0 * deltas[3]!r}) not finite and positive "
                        f"at delta = {deltas[3]:.6e}")
    assert calls == deltas[1:4]
    assert len(frames) == 3 and np.all(np.isfinite(frames))


def test_failed_row_stops_alone(p_ref, d_ref):
    """A row whose end value turns negative stops at that planned delta
    and records its error; the other row finishes."""
    ds, de = math.exp(-10.0), math.exp(-10.5)
    a0 = d_ref.a0
    xi = np.linspace(-10.0, 30.0, 101)
    deltas = comoving._planned_deltas(ds, de, 0.01)
    good = lambda delta: (a0 * delta, a0 * delta)
    calls = []
    steady, failed = solve_kept(p_ref, xi, [
        _uniform_run(a0, ds, good),
        _uniform_run(a0, ds, _bc_failing_at(a0, calls, range(2, 10 ** 6))),
    ], deltas)
    assert isinstance(failed, errors.PositivityLost)
    # one accepted step, then the second planned step's end values stop
    # the row; an end-value rejection is never retried cold
    assert calls == deltas[1:3]
    (lone,) = solve_kept(p_ref, xi, [_uniform_run(a0, ds, good)], deltas)
    _assert_same_runs([steady], [lone])
    with pytest.raises(errors.PositivityLost):
        solve_radial_fde(
            p_ref, xi_window=(-10.0, 30.0), n_cells=100,
            delta_start=ds, delta_end=de, dtau=0.01, w0=lambda x: a0 * ds * np.ones_like(x),
            bc=_bc_failing_at(a0, [], range(2, 10 ** 6)),
        )


def test_rows_keep_their_lone_bits_across_the_seams(p_ref, d_ref, monkeypatch):
    """A step's rows are one flat vector, and the first and last point of
    each row, the seams, read two rows at once.  Beside a row 1e300 above
    them the seam quotients overflow to inf.  A row whose damped line
    search cannot stay positive stops on the first step beside a row that
    took its full Newton step and iterates on from that trial's quotients,
    and keeps its last frame while the others step on, gathered.  Every
    other row gets the bits of its lone run, the one that halves its line
    search too, none ends in NonFinite, and no RuntimeWarning escapes."""
    ds, de = math.exp(-10.0), math.exp(-10.1)
    a0 = d_ref.a0
    xi = np.linspace(-5.0, 5.0, 101)
    deltas = comoving._planned_deltas(ds, de, 0.01)
    far = 1e300 * a0 * ds * np.ones(101)  # a0 dt is below its rounding: it stays put
    dipped, sunk = a0 * ds * np.ones(101), a0 * ds * np.ones(101)
    dipped[50] *= 3e-4  # the full Newton step overshoots below zero here
    sunk[50] *= 1e-20  # and here every step of lambda >= 1e-4
    uniform = lambda delta: (a0 * delta, a0 * delta)

    def runs():
        made, _ = pde._manufactured_row(p_ref, xi, ds)
        return [made, comoving._Run(far, lambda delta: (far[0], far[-1]), None),
                comoving._Run(sunk, uniform, None), comoving._Run(dipped, uniform, None)]

    with np.errstate(over="ignore", invalid="ignore"):  # the premise: inf at the seams
        _, e, rho = comoving._stencil(np.stack([run.w0 for run in runs()]))
        t = e + rho * (0.25 * d_ref.b1 * rho + 0.05 * d_ref.b2)  # the residual's diffusion term
    # flat position q is point q + 1: the last point of row 0 and the first
    # of row 2 each have a neighbour in the far row 1
    assert np.isinf(t[[99, 201]]).all()
    step_rows, calls = comoving._step_rows, []

    def recorded(W_old, *args):
        calls.append(len(W_old))
        return step_rows(W_old, *args)

    monkeypatch.setattr(comoving, "_step_rows", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = solve_kept(p_ref, xi, runs(), deltas)
        assert calls == [4] + [3] * (len(deltas) - 2)  # row 2 is not gathered
        alone = [solve_kept(p_ref, xi, [run], deltas)[0] for run in runs()]
    assert isinstance(together[2], errors.PositivityLost)
    assert type(alone[2]) is type(together[2]) and str(alone[2]) == str(together[2])
    assert not any(isinstance(x, errors.NonFinite) for x in together)
    _assert_same_runs([together[j] for j in (0, 1, 3)], [alone[j] for j in (0, 1, 3)])
    assert together[0].frames == together[1].frames == together[3].frames == len(deltas)


def test_non_finite_residual_stops_the_run_at_once(p_ref, d_ref, monkeypatch):
    """A source that is NaN at every delta makes the first step's residual
    non-finite; no start repairs that, so the run stops after one
    attempt."""
    ds, de = math.exp(-10.0), math.exp(-10.5)
    a0 = d_ref.a0
    sources, attempts = [], []
    step_rows = comoving._step_rows

    def counted(*args):
        attempts.append(args[2])
        return step_rows(*args)

    def nan_source(delta):
        sources.append(delta)
        return np.full(101, math.nan)

    monkeypatch.setattr(comoving, "_step_rows", counted)
    with pytest.raises(errors.NonFinite, match="not finite"):
        solve_radial_fde(
            p_ref, xi_window=(-10.0, 30.0), n_cells=100, delta_start=ds, delta_end=de,
            dtau=0.01, w0=lambda x: a0 * ds * np.ones_like(x),
            bc=lambda delta: (a0 * delta, a0 * delta), source=nan_source,
        )
    # one attempt, at the warmup step 0.005, and the source called once,
    # at the new delta
    assert attempts == [ds * (1.0 - 0.005)]
    assert sources == [ds * (1.0 - 0.005)]


def test_zero_end_value_rejects_before_newton(p_ref, d_ref, monkeypatch):
    """An end value of 0.0 rejects the step without a Newton solve and
    stops the run at that planned delta.  No start changes an end value,
    so such a rejection is not retried cold."""
    ds, de = math.exp(-10.0), math.exp(-10.5)
    a0 = d_ref.a0
    calls, solves = [], []
    step_rows = comoving._step_rows

    def counted(*args):
        solves.append(args[1])
        return step_rows(*args)

    def bc(delta):
        calls.append(delta)
        return (0.0 if len(calls) >= 2 else a0 * delta), a0 * delta

    monkeypatch.setattr(comoving, "_step_rows", counted)
    with pytest.raises(errors.PositivityLost, match="end values"):
        solve_radial_fde(
            p_ref, xi_window=(-10.0, 30.0), n_cells=100,
            delta_start=ds, delta_end=de, dtau=0.01, w0=lambda x: a0 * ds * np.ones_like(x), bc=bc,
        )
    # one accepted step, then the second planned step's end values stop
    # the run; only the accepted step reached Newton
    assert calls == comoving._planned_deltas(ds, de, 0.01)[1:3]
    assert len(solves) == 1


@pytest.mark.parametrize("n_cells, dtau", [
    (-1, 0.01), (0, 0.01), (1, 0.01), (40, 0.0), (40, -0.01), (40, math.nan),
])
def test_bad_window_is_rejected_before_the_grid(barrier_pair, p_ref, monkeypatch,
                                                 n_cells, dtau):
    """Too few cells or a step that is not finite and > 0 raise before any solve."""
    solves = []
    monkeypatch.setattr(pde, "_solve_rows", lambda *a, **k: solves.append(a))
    with pytest.raises(errors.InvalidParameter):
        comparison_sandwich(*barrier_pair, tau0=TAU0, tau_end=10.2,
                            n_cells=n_cells, dtau=dtau)
    with pytest.raises(errors.InvalidParameter):
        solve_radial_fde(
            p_ref, xi_window=(-10.0, 30.0), n_cells=n_cells,
            delta_start=math.exp(-10.0), delta_end=math.exp(-10.5),
            w0=np.ones_like, bc=lambda delta: (1.0, 1.0), dtau=dtau,
        )
    assert solves == []


def test_a_grid_past_the_memory_budget_is_refused_before_the_grid(barrier_pair, monkeypatch):
    """n_cells = 10^9 would make the joint solve hold about 1 TB; the
    sandwich refuses it with InvalidParameter once the steps are planned,
    before the manufactured row or any other grid is built."""
    def unreachable(*args):
        raise AssertionError("a grid past the memory budget reached the grid")

    monkeypatch.setattr(pde, "_manufactured_row", unreachable)
    with pytest.raises(errors.InvalidParameter, match="GiB"):
        comparison_sandwich(*barrier_pair, tau0=TAU0, tau_end=10.2, n_cells=10 ** 9, dtau=0.01)


def test_samples_past_the_memory_budget_are_refused_before_the_grid(barrier_pair, monkeypatch):
    """Half the largest grid the joint solve may hold, over tau 10 -> 10.5
    at dtau 1e-5 (50,003 planned frames), would add about 3.26 GiB of the
    mid run's samples (W[::8] of every 10th frame) to 0.5 GiB of solve:
    InvalidParameter once the steps are planned, before the rows are
    built.  Over tau 10 -> 10.2 at dtau 0.01 (23 frames) the samples fit
    and the same grid reaches the rows."""
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(pde, "_manufactured_row", reached)
    half = (pde._MEMORY_BUDGET // pde._POINT_BYTES - 1) // 2
    with pytest.raises(errors.InvalidParameter, match=r"over 50003 planned frames .* 3\.76 GiB"):
        comparison_sandwich(*barrier_pair, tau0=TAU0, tau_end=10.5, n_cells=half, dtau=1e-5)
    with pytest.raises(Reached):
        comparison_sandwich(*barrier_pair, tau0=TAU0, tau_end=10.2, n_cells=half, dtau=0.01)


@pytest.mark.parametrize("tau0, tau_end, named", [
    (300.0, 301.0, "750"), (283.0, 283.5, "708.75"), (-300.0, -299.0, "-750"),
])
def test_window_whose_drift_leaves_the_float_range_is_refused(
        barrier_pair, monkeypatch, tau0, tau_end, named):
    """On ref (A gamma = 3) the drift speed A gamma delta^(-gamma-1)
    overflows once (1+gamma) tau passes 709.78 - log 3 = 708.68, and
    delta^(1+gamma) once (1+gamma) tau0 falls below -709.78: either raises
    OutOfDomain naming (1+gamma) tau before any barrier row is built."""
    built = []
    monkeypatch.setattr(pde, "_sandwich_rows", lambda *a: built.append(a))
    with pytest.raises(errors.OutOfDomain, match=rf"\(1\+gamma\) tau = {named}$"):
        comparison_sandwich(*barrier_pair, tau0=tau0, tau_end=tau_end, n_cells=40, dtau=0.01)
    assert built == []


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

    def patched(p, xi, runs, deltas):
        runs = list(runs)
        for row, n_call in ((late, 12), (early, 2)):
            runs[row] = dataclasses.replace(
                runs[row], bc=failing(runs[row].bc, names[row], n_call)
            )
        return solve_rows(p, xi, runs, deltas)

    monkeypatch.setattr(pde, "_solve_rows", patched)
    prefix = rf"{names[late]} run \(n_cells 200, tau0 10\.0\): "
    with pytest.raises(errors.TargetBelowRange, match=f"^{prefix}{names[late]} bc failed$"):
        comparison_sandwich(
            *barrier_pair, tau0=TAU0, tau_end=10.2, n_cells=200, dtau=0.01
        )


@pytest.mark.parametrize("eps, tau0, tau_end, n_cells, row", [
    (0.0, 20.0, 20.5, 400, "mid"), (EPS_SMOKE, TAU0, 10.6, 100, "lower"),
])
def test_sandwich_error_names_the_failing_run(solver_ref, eps, tau0, tau_end, n_cells, row):
    """A run that cannot step raises its own error class, named by run,
    n_cells and tau0: on ref from tau0 = 20 at 400 cells only the mid run
    stalls, and on the 100-cell smoke window the lower and mid runs do,
    the lower run's error being raised."""
    bars = GluedBarrier(solver_ref, "+", eps), GluedBarrier(solver_ref, "-", eps)
    prefix = rf"^{row} run \(n_cells {n_cells}, tau0 {tau0}\): Newton stalled at "
    with pytest.raises(errors.NewtonDiverged, match=prefix) as info:
        comparison_sandwich(*bars, tau0=tau0, tau_end=tau_end, n_cells=n_cells, dtau=0.01)
    assert type(info.value.__cause__) is errors.NewtonDiverged


def test_underflowing_start_is_out_of_domain(solver_ref, monkeypatch):
    """From tau0 = 160 on ref, delta^(1+gamma) = e^(-400) makes the product
    under the mid run's geometric mean underflow to 0 at every point,
    although the barriers stay ordered; the sandwich refuses that start as
    OutOfDomain naming (1+gamma) tau0, before any row steps, where it used
    to report the data as leaving the sandwich."""
    eps = 0.018066406177734376
    bars = GluedBarrier(solver_ref, "+", eps), GluedBarrier(solver_ref, "-", eps)
    xi = np.linspace(-10.0, 40.0, 401)
    assert np.all(np.diff(np.vstack([bar.wbar(xi, [160.0]) for bar in bars[::-1]]), axis=0) > 0.0)
    stepped = []
    monkeypatch.setattr(pde, "_solve_rows", lambda *a, **kw: stepped.append(a))
    with pytest.raises(errors.OutOfDomain, match=r"^mid run \(n_cells 400, tau0 160\.0\): start "
                       r"is not positive at \(1\+gamma\) tau0 = 400$"):
        comparison_sandwich(*bars, tau0=160.0, tau_end=160.5, n_cells=400, dtau=0.01)
    assert stepped == []


def _growth_rates(W):
    """The log growth rates log(W_k / W_(k-1)) of frames W[k] as the solve
    keeps them, newest first."""
    return [np.log(W[k] / W[k - 1]) for k in range(len(W) - 1, 0, -1)]


def test_extrapolated_start_follows_a_cubic():
    """log W that is a cubic in the step index is extrapolated to rounding
    from the last four frames; the last frame, the cold start, misses it by
    about its first difference."""
    rng = np.random.default_rng(11)
    a = rng.uniform(-1.0, 1.0, (4, 3, 1)) * np.array([1e-2, 1e-5, 1e-8, 1.0])[:, None, None]
    base = np.log(rng.uniform(1e-12, 1e-10, (3, 401)))

    def W(k):  # frame k of three rows
        return np.exp(base + a[0] * k + a[1] * k ** 2 + a[2] * k ** 3 + a[3])

    for k in (4, 40, 200):
        frames = [W(j) for j in range(k - 4, k)]
        start = comoving._extrapolated(frames[-1], _growth_rates(frames))
        assert np.max(np.abs(start / W(k) - 1.0)) < 1e-13
        assert np.max(np.abs(frames[-1] / W(k) - 1.0)) > 1e-3


def test_extrapolated_start_gives_each_row_its_lone_bits():
    """The start of the rows of one step gives each row the bits of its
    lone evaluation."""
    rng = np.random.default_rng(12)
    W = np.exp(rng.uniform(-30.0, -20.0, (4, 401)))
    rates = [rng.uniform(-0.05, 0.05, (4, 401)) for _ in range(comoving._RATES)]
    start = comoving._extrapolated(W, rates)
    for j in range(4):
        lone = comoving._extrapolated(W[j:j + 1], [r[j:j + 1] for r in rates])
        assert np.array_equal(start[j].view(np.int64), lone[0].view(np.int64))


def test_extrapolated_start_falls_back_to_the_last_frame():
    """A row whose start overflows, underflows to 0 or is NaN starts from
    its last frame instead, without a warning; the other rows keep their
    extrapolated start."""
    rng = np.random.default_rng(13)
    W = np.exp(rng.uniform(-30.0, -20.0, (4, 401)))
    rates = [rng.uniform(-0.05, 0.05, (4, 401)) for _ in range(comoving._RATES)]
    fine = comoving._extrapolated(W, rates)
    rates[2][0, 7] = 800.0  # e^800 overflows
    rates[2][1, 9] = -800.0  # e^-800 underflows to 0
    rates[0][2, 11] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = comoving._extrapolated(W, rates)
    assert np.array_equal(start[:3], W[:3])
    assert np.array_equal(start[3], fine[3])


def test_extrapolated_start_falls_back_without_a_warning_anywhere():
    """The fallback also covers a difference of rates that overflows or is
    inf - inf, and a finite exponential whose product with W overflows,
    each without a warning."""
    W = np.full((4, 5), 1e300)
    W[:3] = 1e-10
    rates = [np.zeros((4, 5)) for _ in range(comoving._RATES)]
    rates[0][0, 1], rates[1][0, 1] = 1e308, -1e308  # r0 - r1 overflows
    rates[0][1, 2] = rates[1][1, 2] = math.inf  # r0 - r1 is inf - inf
    rates[2][3, 3] = 100.0  # e^100 is finite, 1e300 e^100 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = comoving._extrapolated(W, rates)
    assert np.array_equal(start[[0, 1, 3]], W[[0, 1, 3]])
    assert np.array_equal(start[2], W[2])  # rates of 0 give the last frame itself


def test_warmup_and_last_steps_start_cold(p_ref, d_ref, monkeypatch):
    """Every step starts cold from the last frame until four frames lie a
    full step apart, every later step from the extrapolated start, and the
    short last step cold again.  Steps 1 to 4 are half steps and 5 to 7 full
    ones, so step 8 is the first to start from the extrapolant."""
    ds, de = math.exp(-10.0), math.exp(-10.2)
    deltas = comoving._planned_deltas(ds, de, 0.01)
    assert deltas[-1] / deltas[-2] > deltas[-2] / deltas[-3]  # the last step is short
    starts, formed = [], []
    extrapolated, step_rows = comoving._extrapolated, comoving._step_rows

    def step(*args):
        starts.append("cold" if np.array_equal(args[-1], args[0]) else "extrapolated")
        return step_rows(*args)

    def wrapped(*args):
        formed.append(len(starts))  # the index of the step it starts
        return extrapolated(*args)

    monkeypatch.setattr(comoving, "_extrapolated", wrapped)
    monkeypatch.setattr(comoving, "_step_rows", step)
    a0 = d_ref.a0
    traj = solve_radial_fde(
        p_ref, xi_window=(-10.0, 30.0), n_cells=100, delta_start=ds, delta_end=de,
        dtau=0.01, w0=lambda x: a0 * ds * np.ones_like(x),
        bc=lambda delta: (a0 * delta, a0 * delta),
    )
    assert traj.cold_retries == 0
    n = len(deltas) - 1
    assert starts == ["cold"] * 7 + ["extrapolated"] * (n - 8) + ["cold"]
    assert formed == list(range(7, n - 1))


def test_rejected_extrapolated_step_retries_cold_then_stops(p_ref, d_ref, monkeypatch):
    """A rejected step that started from the extrapolant is tried again at
    the same step from the last frame; a rejected cold start stops the
    run with its error after exactly these two attempts.  A step that
    started cold, such as a warm-up step, is not retried."""
    ds, de = math.exp(-10.0), math.exp(-10.1)
    a0 = d_ref.a0
    step_rows = comoving._step_rows
    tries, fail = [], set()

    def flaky(W_old, *args):
        start = args[-1]
        tries.append((args[1], np.array_equal(start, W_old)))
        if len(tries) in fail:
            return [errors.NewtonDiverged("rejected by construction")], None
        return step_rows(W_old, *args)

    def run():
        del tries[:]
        return solve_radial_fde(
            p_ref, xi_window=(-10.0, 30.0), n_cells=100, delta_start=ds, delta_end=de,
            dtau=0.01, w0=lambda x: a0 * ds * np.ones_like(x),
            bc=lambda delta: (a0 * delta, a0 * delta),
        )

    monkeypatch.setattr(comoving, "_step_rows", flaky)
    plain = run()
    assert [cold for _, cold in tries] == [True] * 7 + [False] * (len(tries) - 8) + [True]
    assert plain.cold_retries == 0
    third, eighth = tries[2][0], tries[7][0]

    fail.add(8)  # the eighth step's extrapolated start fails; its cold retry passes
    retried = run()
    assert tries[7:9] == [(eighth, False), (eighth, True)]
    assert retried.cold_retries == 1
    assert np.array_equal(retried.deltas, plain.deltas)

    fail.add(9)  # the cold retry fails too: the run stops at that step
    with pytest.raises(errors.NewtonDiverged, match="by construction"):
        run()
    assert tries[7:] == [(eighth, False), (eighth, True)]

    fail.clear()
    fail.add(3)  # the third step starts cold: its rejection stops the run
    with pytest.raises(errors.NewtonDiverged, match="by construction"):
        run()
    assert tries[2:] == [(third, True)]


def test_a_step_depends_on_its_frame_and_start_alone(p_ref, monkeypatch):
    """No per-row state passes from one step to the next: every step
    attempt of a manufactured run, replayed as a lone _step_rows call on
    fresh bands from the same last frame and start, gives its iterations
    and new frame bit for bit, the cold retry of a rejected extrapolated
    start included."""
    ds, de = math.exp(-10.0), math.exp(-10.1)
    xi = np.linspace(-5.0, 5.0, 101)
    run, _ = pde._manufactured_row(p_ref, xi, ds)
    calls = []
    step_rows = comoving._step_rows

    def recorded(W_old, delta_old, *args):
        if len(calls) == 7:  # the first extrapolated start: its cold retry follows
            calls.append(None)
            return [errors.NewtonDiverged("rejected by construction")], None
        out, X = step_rows(W_old, delta_old, *args)
        calls.append(((W_old.copy(), delta_old, *args[:-2], args[-1].copy()), out, X.copy()))
        return out, X

    monkeypatch.setattr(comoving, "_step_rows", recorded)
    (traj,) = solve_kept(p_ref, xi, [run], comoving._planned_deltas(ds, de, 0.01))
    monkeypatch.undo()
    assert traj.cold_retries == 1 and calls[7] is None and len(calls) == len(traj.deltas)
    for call in calls[:7] + calls[8:]:
        (*args, start), out, X = call
        replay, X_replay = comoving._step_rows(*args, comoving._Bands(1, 99), start)
        assert replay == out
        assert np.array_equal(X_replay.view(np.int64), X.view(np.int64))


def test_a_row_rejected_beside_another_keeps_its_lone_bits(p_ref, d_ref, monkeypatch):
    """Two rows step together and, at step 12, one row's extrapolated start
    is rejected while the other's is accepted: the rejected row retries the
    step cold alone.  Every extrapolated start reads each row's last frame
    and the log growth rates of its last three steps, the rate over the
    retried step included; and each row's frames and Newton work equal its
    lone run with the same rejection."""
    ds, de = math.exp(-10.0), math.exp(-10.2)
    xi = np.linspace(-5.0, 5.0, 101)
    deltas = comoving._planned_deltas(ds, de, 0.01)
    first = comoving._WARMUP_STEPS + comoving._RATES + 1  # the first extrapolated step
    assert first < 12 < len(deltas) - 1
    a0 = d_ref.a0
    made, _ = pde._manufactured_row(p_ref, xi, ds)
    uniform = comoving._Run(a0 * ds * np.ones_like(xi),
                            lambda delta: (a0 * delta, a0 * delta), None)
    step_rows, extrapolated = comoving._step_rows, comoving._extrapolated
    rejected, starts = [], []

    def rejecting(W_old, delta_old, *args):
        sources, start = args[-3], args[-1]
        out, X = step_rows(W_old, delta_old, *args)
        if delta_old == deltas[11] and start is not W_old:  # the manufactured row's try
            out = [errors.NewtonDiverged("rejected by construction") if source is not None
                   else x for x, source in zip(out, sources)]
            rejected.append([source is not None for source in sources])
        return out, X

    def recorded(W, rates):
        starts.append((W.copy(), [r.copy() for r in rates]))
        return extrapolated(W, rates)

    monkeypatch.setattr(comoving, "_step_rows", rejecting)
    monkeypatch.setattr(comoving, "_extrapolated", recorded)
    both = solve_kept(p_ref, xi, [made, uniform], deltas)
    steps = range(first, len(deltas) - 1)
    assert len(starts) == len(steps)
    for k, (W, rates) in zip(steps, starts):
        for i, traj in enumerate(both):
            assert np.array_equal(W[i], traj.W[k - 1])
            for j, rate in enumerate(rates, 1):
                assert np.array_equal(rate[i], np.log(traj.W[k - j] / traj.W[k - j - 1]))
    alone = [solve_kept(p_ref, xi, [run], deltas)[0] for run in (made, uniform)]
    # beside the uniform row, and alone; the uniform row alone takes that
    # step from its extrapolated start as well
    assert rejected == [[True, False], [True], [False]]
    assert [t.cold_retries for t in both] == [1, 0] == [t.cold_retries for t in alone]
    for joint, lone in zip(both, alone):
        assert np.array_equal(joint.W.view(np.int64), lone.W.view(np.int64))
        assert (joint.frames, joint.newton_iters) == (lone.frames, lone.newton_iters)


def test_newton_rounds_take_one_gtsv_call_and_one_residual(barrier_pair, monkeypatch):
    """On the smoke window, a Newton round calls gtsv once for all its
    rows, a step attempt evaluates the stencil once for its tolerances'
    floor on the old frame, once for its start and once per trial iterate,
    and the calibration source runs once per attempt of its row."""
    counts = dict(gtsv=0, stencil=0, source=0, attempts=0, calibration=0, rounds=0)
    route, stencil, step_rows = comoving._lapack(), comoving._stencil, comoving._step_rows
    manufactured = pde.make_manufactured

    def counting_bind(*bands):
        gtsv = route(*bands)

        def solve(size):
            counts["gtsv"] += 1
            return gtsv(size)

        return solve

    def counted_stencil(*args):
        counts["stencil"] += 1
        return stencil(*args)

    def counted_step_rows(*args):
        counts["attempts"] += 1
        counts["calibration"] += args[6][0] is not None
        results = step_rows(*args)
        counts["rounds"] += max(results[0])  # each row's Newton iterations
        return results

    def counted_manufactured(p):
        W_exact, bind = manufactured(p)

        def counted_bind(xi):
            source = bind(xi)

            def counted_source(delta):
                counts["source"] += 1
                return source(delta)

            return counted_source

        return W_exact, counted_bind

    monkeypatch.setattr(comoving, "_gtsv", counting_bind)
    monkeypatch.setattr(comoving, "_stencil", counted_stencil)
    monkeypatch.setattr(comoving, "_step_rows", counted_step_rows)
    monkeypatch.setattr(pde, "make_manufactured", counted_manufactured)
    report = comparison_sandwich(*barrier_pair, tau0=TAU0, tau_end=10.6, n_cells=400, dtau=0.01)
    assert all(t.cold_retries == 0 for t in report.runs.values())
    assert counts["attempts"] == report.runs["mid"].frames - 1 == counts["calibration"]
    assert counts["gtsv"] == counts["rounds"]
    assert (counts["attempts"], counts["rounds"]) == (62, 91)
    # per attempt one call for the floor on the old frame, one for its
    # start and one per trial iterate (91 rounds, no halved line-search
    # trial)
    assert counts["stencil"] == 62 + 62 + 91
    assert counts["source"] == counts["calibration"]


def _end_values(barrier_pair, p, delta):
    """Each row's end values at delta from two-point _barrier_W calls."""
    plus, minus = barrier_pair
    wp = pde._barrier_W(plus, np.array([-10.0, 40.0]), [delta], p)[0]
    wm = pde._barrier_W(minus, np.array([-10.0, 40.0]), [delta], p)[0]
    return {kind: tuple(w.tolist()) for kind, w in
            (("lower", wm), ("upper", wp), ("mid", np.sqrt(wp * wm)))}


def test_end_table_equals_two_point_barrier_values(barrier_pair, p_ref):
    """Every planned delta's end values, for every row, read from the end
    columns of the barrier blocks, equal two-point _barrier_W evaluations,
    bit for bit."""
    xi = np.linspace(-10.0, 40.0, 201)
    deltas = comoving._planned_deltas(math.exp(-TAU0), math.exp(-10.6), 0.01)
    assert len(deltas) == 63 > pde._BLOCK_POINTS // len(xi)  # more than one block
    rows, _ = pde._sandwich_rows(*barrier_pair, xi, deltas)
    for delta in deltas[1:]:
        want = _end_values(barrier_pair, p_ref, delta)
        assert {kind: run.bc(delta) for kind, run in rows.items()} == want


@pytest.mark.parametrize("block", [True, False])
def test_block_reads_equal_grid_reads(barrier_pair, p_ref, monkeypatch, block):
    """What a run reads from the barrier blocks equals what the barriers
    give on the grid at that delta (_barrier_W), bit for bit, from a block
    and, where the block's evaluation raised, from the delta evaluated
    alone: each run's bc ends are on(kind, Wp[[0, -1]], Wm[[0, -1]]), and
    the mid consumer's barrier peaks are max W^{1/(1-m)} of each barrier."""
    xi = np.linspace(-10.0, 40.0, 201)
    deltas = comoving._planned_deltas(math.exp(-TAU0), math.exp(-10.6), 0.01)
    delta = deltas[30]
    Wp, Wm = (pde._barrier_W(bar, xi, [delta], p_ref)[0] for bar in barrier_pair)
    evaluated, barrier_W = [], pde._barrier_W

    def blocks_raise(bar, x, at, p):
        evaluated.append(len(at))
        if len(at) > 1 and not block:
            raise errors.OutOfDomain("block raised by construction")
        return barrier_W(bar, x, at, p)

    monkeypatch.setattr(pde, "_barrier_W", blocks_raise)
    rows, report = pde._sandwich_rows(*barrier_pair, xi, deltas)
    for kind, run in rows.items():
        want = pde._on(kind, Wp[[0, -1]], Wm[[0, -1]]).tolist()
        assert [x.hex() for x in run.bc(delta)] == [x.hex() for x in want], kind
    rows["mid"].consume(delta, np.sqrt(Wp * Wm))  # the mid run's first frame
    # block 0 (40 deltas) once per barrier; or, once its first evaluation
    # raised, per barrier each read: the first frame's, three bc ends and
    # the consumer's
    assert evaluated == ([40, 40] if block else [40] + [1, 1] * 5)
    power = 1.0 / (1.0 - p_ref.m)
    assert [x.hex() for x in report.upper_barrier] == [float(np.max(Wp) ** power).hex()]
    assert [x.hex() for x in report.lower_barrier] == [float(np.max(Wm) ** power).hex()]


def test_barrier_blocks_are_read_at_planned_deltas_only(barrier_pair, monkeypatch):
    """On the 200-cell smoke window, where the mid run retries a step
    cold, the rows read the barriers at the planned deltas only, every one
    of them, in order, and each block of planned deltas is evaluated once
    per barrier."""
    asked, at = [], pde._BarrierBlocks.at
    evaluated, barrier_W = [], pde._barrier_W

    def spy(self, delta):
        asked.append(delta)
        return at(self, delta)

    monkeypatch.setattr(pde._BarrierBlocks, "at", spy)
    monkeypatch.setattr(pde, "_barrier_W", lambda *a: evaluated.append(list(a[2])) or barrier_W(*a))
    report = comparison_sandwich(*barrier_pair, tau0=TAU0, tau_end=10.6, n_cells=200, dtau=0.01)
    deltas = comoving._planned_deltas(math.exp(-TAU0), math.exp(-10.6), 0.01)
    assert [t.cold_retries for t in report.runs.values()] == [0, 0, 0]
    assert set(asked) == set(deltas)
    assert asked == sorted(asked, reverse=True)
    size = pde._BLOCK_POINTS // 201
    assert evaluated == [deltas[k:k + size] for k in range(0, len(deltas), size) for _ in range(2)]


def test_sandwich_barrier_calls_grow_with_blocks_not_steps(barrier_pair, monkeypatch):
    """Doubling the smoke window doubles the steps but adds, per barrier
    and tau block, at most one call to the inner evaluator and two to the
    outer one: the matching edge (psi_bundle) and the grid (psi_outer)."""
    from fdelab.outer import OuterProfileSet
    from fdelab.selfsim import SelfSimilarProfile

    counts = {}
    for cls, name in ((OuterProfileSet, "psi_outer"), (OuterProfileSet, "psi_bundle"),
                      (SelfSimilarProfile, "phibar0")):
        def counted(*a, _fn=getattr(cls, name), _name=name, **k):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*a, **k)
        monkeypatch.setattr(cls, name, counted)

    def run(tau_end):
        counts.clear()
        report = comparison_sandwich(
            *barrier_pair, tau0=TAU0, tau_end=tau_end, n_cells=400, dtau=0.01
        )
        frames = report.runs["mid"].frames
        return dict(counts), frames, -(-frames // (pde._BLOCK_POINTS // 401))

    short, frames, blocks = run(10.6)
    long, frames2, blocks2 = run(10.0 + 2 * 0.6)
    assert frames >= 60 and frames2 - frames >= 55  # 60 more steps
    for name in ("psi_bundle", "psi_outer", "phibar0"):
        assert 0 < long[name] - short[name] <= 2 * (blocks2 - blocks), name


def test_accepted_frames_hold_the_dirichlet_values_exactly(barrier_pair, p_ref):
    """Every accepted frame of every row ends on the bc values of its delta,
    bit for bit (with a full-size Newton system, gtsv's pivoting left the
    lower row's left end up to 1e-13 off on this grid)."""
    ds, de = math.exp(-TAU0), math.exp(-10.3)
    xi = np.linspace(-10.0, 40.0, 401)
    calibration, _ = pde._manufactured_row(p_ref, xi, ds)
    deltas = comoving._planned_deltas(ds, de, 0.01)
    rows, _ = pde._sandwich_rows(*barrier_pair, xi, deltas)
    runs = [calibration, *rows.values()]
    given = [{} for _ in runs]

    def recorded(bc, seen):
        def wrapped(delta):
            seen[delta] = bc(delta)
            return seen[delta]
        return wrapped

    runs = [dataclasses.replace(r, bc=recorded(r.bc, seen)) for r, seen in zip(runs, given)]
    trajs = solve_kept(p_ref, xi, runs, deltas)
    for traj, seen in zip(trajs, given):
        for delta, W in zip(traj.deltas[1:], traj.W[1:]):
            assert (W[0], W[-1]) == tuple(seen[delta])


def test_sandwich_memory_grows_by_scalars_not_grid_rows(barrier_pair):
    """Every frame is reduced when it is accepted, so from 63 to 242
    frames the traced peak of a sandwich run grows by less than a quarter
    of a grid row (401 points) per added frame; a store of every frame
    grows by four rows.  Both windows span more than two barrier blocks,
    so both runs peak while a block is evaluated."""
    def peak(tau_end):
        tracemalloc.start()
        try:
            report = comparison_sandwich(
                *barrier_pair, tau0=TAU0, tau_end=tau_end, n_cells=400, dtau=0.01
            )
            return tracemalloc.get_traced_memory()[1], report.runs["mid"].frames
        finally:
            tracemalloc.stop()

    peak(10.6)  # one-time allocations (the gtsv lookup, caches) are not growth
    (short, n_short), (long, n_long) = peak(10.6), peak(12.4)
    assert (n_short, n_long) == (63, 242)
    assert n_short > 2 * (pde._BLOCK_POINTS // 401)
    assert long - short < (n_long - n_short) * 401 * 8 / 4


def test_two_cells_step_one_interior_point(p_ref, d_ref):
    """With two cells the Newton system has a single interior unknown."""
    ds, de = math.exp(-10.0), math.exp(-10.2)
    a0 = d_ref.a0
    traj = solve_radial_fde(
        p_ref, xi_window=(-10.0, 30.0), n_cells=2, delta_start=ds, delta_end=de,
        dtau=0.01, w0=lambda x: a0 * ds * np.ones_like(x),
        bc=lambda delta: (a0 * delta, a0 * delta),
    )
    rel = np.abs(traj.W / (a0 * traj.deltas[:, None]) - 1.0)
    assert traj.W.shape[1] == 3 and np.max(rel) <= 1e-12


@pytest.mark.parametrize("window, outcome, frames", [
    # the smoke window: every row completes without a cold retry
    (Window("ref", EPS_SMOKE, TAU0, 200, 0.01), [0, 0, 0, 0], [63] * 4),
    # the smoke window on 100 cells: the lower and mid rows stall at once
    (Window("ref", EPS_SMOKE, TAU0, 100, 0.01), ("NewtonDiverged", "lower"), [63, 1, 63, 1]),
    # the Newton kernel overflows on these windows: no RuntimeWarning
    # escapes, and the checks of a non-finite residual or solve decide
    (Window("low", 0.0, 17.0, 100, 0.01), ("NewtonDiverged", "lower"), [63, 1, 1, 1]),
    (Window("low", 0.0, 17.0, 100, 0.05), ("NewtonDiverged", "lower"), [15, 1, 1, 1]),
    # a smaller step fails first: the mid run's first step stalls at dtau
    # 0.005, and the window completes at 0.01
    (Window("ref", EPS_SMOKE, 14.0, 400, 0.005), ("NewtonDiverged", "mid"), [123, 123, 123, 1]),
    (Window("ref", EPS_SMOKE, 14.0, 400, 0.01), [0, 0, 0, 0], [63] * 4),
], ids=["ref-200", "ref-100", "low-overflow-0.01", "low-overflow-0.05", "ref-tau0-14-0.005",
        "ref-tau0-14-0.01"])
def test_sandwich_sweep_subset(request, window, outcome, frames):
    """Windows of tests/sandwich_sweep.py with their pinned outcome: a
    passing report with each run's cold retries, or the error class and
    the run it names; and each row's accepted frames."""
    out = run_window(request.getfixturevalue(f"solver_{window.config}"), window)
    res = out.result
    if isinstance(outcome, list):
        assert isinstance(res, pde.SandwichReport) and res.passed, res
        assert [t.cold_retries for t in out.trajs] == outcome
    else:
        assert type(res).__name__ == outcome[0] and isinstance(res, errors.FdelabError), res
        assert str(res).startswith(f"{outcome[1]} run (n_cells {window.n_cells}, ")
    assert out.frames == frames
