"""Comoving solver, sandwich run, extinction fits, corner term."""

import dataclasses
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fdelab import errors, pde
from fdelab.matching import GluedBarrier, MatchingSolver, weak_corner_term
from fdelab.pde import comparison_sandwich, extinction_rate, make_manufactured
from reference_routes import jac_bands, solve_kept, solve_radial_fde

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
    ds, de = math.exp(-TAU0), math.exp(-tau_end)
    rows, _ = pde._sandwich_rows(*barrier_pair, xi, pde._planned_deltas(ds, de, 0.01))
    mid = rows["mid"]
    (traj,) = solve_kept(p, xi, [mid], delta_start=ds, delta_end=de, dtau=0.01)
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
    kw = dict(delta_start=ds, delta_end=math.exp(-10.2), dtau=0.01)
    run, error = pde._manufactured_row(p_ref, xi, ds)
    (traj,) = solve_kept(p_ref, xi, [run], **kw)
    W_exact, _ = make_manufactured(p_ref)
    worst = max(
        float(np.max(np.abs(W - W_exact(xi, delta)))) / delta ** (1.0 + p_ref.gamma)
        for delta, W in zip(traj.deltas, traj.W)
    )
    assert worst > 0.0
    assert report.tol_rel == 5.0 * worst
    pde._solve_rows(p_ref, xi, [run], **kw)
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
    """tau 10 -> 10.5 at dtau 1e-6 needs about 5e5 steps with no step
    rejected, past the budget of 2e5: StepUnderflow from the plan, before
    any row is stepped."""

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
    # rejections, cold retries)
    counters = {
        kind: (run.newton_iters, run.newton_iters_max, run.step_rejections,
               run.cold_retries)
        for kind, run in report.runs.items()
    }
    assert counters == {
        "lower": (132, 7, 0, 0), "upper": (130, 5, 0, 0), "mid": (140, 11, 0, 0),
    }


def test_simulate_ref_window_takes_the_pinned_newton_path(solver_ref, monkeypatch):
    """The window of the benchmark's simulate-ref workload (ref at verify's
    eps, 400 cells, tau 10 to 10 + 2.2 ln 10, dtau 0.01) takes a pinned
    Newton path: per run its frames, summed and most Newton iterations,
    and no step rejection or cold retry.  The mid run's first step
    converges at iteration 11 of 12, 2.4% inside its tolerance, so a
    rounding change in G, the Newton bands, the tolerance floor or the
    predictor can show here."""
    eps = 0.018066406177734376
    bars = GluedBarrier(solver_ref, "+", eps), GluedBarrier(solver_ref, "-", eps)
    solve_rows, solved = pde._solve_rows, []

    def recorded(*args, **kwargs):
        solved.extend(solve_rows(*args, **kwargs))
        return solved

    monkeypatch.setattr(pde, "_solve_rows", recorded)
    report = comparison_sandwich(*bars, tau0=TAU0, tau_end=TAU0 + 2.2 * math.log(10.0),
                                 n_cells=400, dtau=0.01)
    path = [(t.frames, t.newton_iters, t.newton_iters_max, t.step_rejections, t.cold_retries)
            for t in solved]  # calibration, lower, upper, mid
    assert path == [(508, 510, 3, 0, 0), (508, 1022, 7, 0, 0), (508, 1020, 5, 0, 0),
                    (508, 1030, 11, 0, 0)]
    assert report.passed


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


def _lone_solve(bands):
    """x of one system (dl, d, du, b) from a one-row _Bands, or the
    NewtonDiverged of its zero pivot."""
    block = pde._Bands(1, len(bands[1]))

    def fill(*rows):
        for row, a in zip(rows, bands):
            row[0] = a

    (x,) = block.solve(1, fill)
    return x


def test_lone_gtsv_zero_pivot_is_newton_divergence():
    x = _lone_solve(([1.0], [2.0, 2.0], [1.0], [3.0, 3.0]))
    assert x == pytest.approx([1.0, 1.0], rel=1e-15)
    # [[1, 1], [1, 1]] eliminates to a zero second pivot
    assert isinstance(_lone_solve(([1.0], [1.0, 1.0], [1.0], [1.0, 2.0])), errors.NewtonDiverged)


@pytest.fixture(scope="module")
def gtsv_routes():
    """The binders bind(dl, d, du, b) -> solve(n) of numpy's OpenBLAS dgtsv
    through ctypes and of scipy's dgtsv."""
    routes = pde._openblas_gtsv(), pde._scipy_gtsv()
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
    monkeypatch.setattr(pde, "_gtsv", openblas)
    for bands in singular:
        x = _lone_solve(bands)
        assert isinstance(x, errors.NewtonDiverged) and "gtsv info" in str(x)


def test_stacked_gtsv_solves_each_row_as_alone(gtsv_routes, monkeypatch):
    """A Newton round passes its systems to gtsv as one block-diagonal
    system with zero couplings, in one call: on each route, every row
    gets the bits of its lone solve, on rows that pivot.  A zero pivot in
    a middle row stops gtsv in that row's block, and a NaN in one row's
    diagonal spreads over the couplings to every x (and into the couplings
    themselves); either sends every row to its lone solve, so each row
    still gets its lone x, or the NewtonDiverged of its lone info, and the
    couplings are zero again for the next round."""
    rng = np.random.default_rng(24)
    n = 399
    regular = [_bands(rng, n) for _ in range(5)]
    singular = list(regular)  # no pivot in the diagonal, sub- or superdiagonal
    singular[2] = [np.zeros(n - 1), np.zeros(n), np.zeros(n - 1), regular[2][3]]
    spread = list(regular)
    spread[1] = [regular[1][0], regular[1][1].copy(), *regular[1][2:]]
    spread[1][1][200] = math.nan
    for route in gtsv_routes:
        monkeypatch.setattr(pde, "_gtsv", route)
        for case, first_info in ((regular, 0), (singular, None), (spread, 0)):
            lone = []
            for bands in case:
                work = [a.copy() for a in bands]
                info = route(*work)(n)
                lone.append(work[3] if info == 0 else info)
            if first_info is None:
                assert lone[2] > 0 and all(isinstance(x, np.ndarray) for x in lone[:2] + lone[3:])
                first_info = 2 * n + lone[2]  # the zero pivot, counted from row 0
            block, infos = pde._Bands(5, n), []
            gtsv = block.gtsv
            block.gtsv = lambda size: infos.append((size, gtsv(size))) or infos[-1][1]

            def fill(dl, d, du, b):
                for j, bands in enumerate(case):
                    for band, a in zip((dl[j], d[j], du[j], b[j]), bands):
                        band[:] = a

            out = block.solve(5, fill)
            assert infos == [(5 * n, first_info)]
            if case is spread:
                assert np.isnan(lone[1]).any() and not np.isnan(lone[0]).any()
            for x, want in zip(out, lone):
                if isinstance(want, int):
                    assert isinstance(x, errors.NewtonDiverged), x
                    assert str(x).endswith(f"(gtsv info {want})")
                else:
                    assert np.array_equal(x, want, equal_nan=True)
            assert not block.dl[:, -1].any() and not block.du[:, -1].any()


def test_openblas_lookup_falls_back_to_none(monkeypatch):
    """A library that will not load or lacks the symbol gives no route."""
    def no_library(path):
        raise OSError(path)

    monkeypatch.setattr(pde.ctypes, "CDLL", no_library)
    assert pde._openblas_gtsv() is None
    monkeypatch.setattr(pde.ctypes, "CDLL", lambda path: object())
    assert pde._openblas_gtsv() is None


def test_no_lapack_route_is_one_error_naming_both(monkeypatch):
    monkeypatch.setattr(pde, "_gtsv", None)
    monkeypatch.setattr(pde.ctypes, "CDLL", lambda path: object())
    monkeypatch.setitem(sys.modules, "scipy.linalg.lapack", None)
    with pytest.raises(errors.LapackUnavailable) as info:
        pde._Bands(1, 2)
    assert "scipy_dgtsv_64_" in str(info.value)
    assert "scipy.linalg.lapack" in str(info.value)
    assert info.value.__context__ is None and info.value.__cause__ is None
    assert pde._gtsv is None  # the next solve looks again


def test_singular_newton_matrix_rejects_the_step(p_ref, monkeypatch):
    # a flat row, whose residual dt*theta*a0 is far above its tolerance,
    # and a Newton matrix whose interior rows are all exactly zero
    written = []

    def singular_bands(dl, diag, du, *args):
        written.append(len(diag))
        for band in (dl, diag, du):
            band[...] = 0.0

    monkeypatch.setattr(pde, "_newton_bands", singular_bands)
    old = np.stack((np.ones((1, 7)), np.zeros((1, 7)), np.zeros((1, 7))), 1)
    (res,), _, _ = pde._step_rows(
        np.ones((1, 9)), 1.0, 0.5, 1.0, [(1.0, 1.0)], 0.1, p_ref, [None],
        old, pde._Bands(1, 7), np.ones((1, 9)),
    )
    assert isinstance(res, errors.NewtonDiverged)
    # the patched bands were the ones solved: once as the round's block,
    # once more for the lone solve that follows a zero pivot
    assert written == [1, 1]


def _newton_matrix_rows(rng, p, k, M, dxi):
    """k random positive rows of M points, each with its own step, theta
    and drift speed near the sandwich's, and the bands (dl, diag, du)
    that _newton_bands writes for them."""
    delta = np.exp(-rng.uniform(10.0, 13.0, k))
    W = p.d.a0 * delta[:, None] * np.exp(rng.uniform(-0.3, 0.3, (k, M)))
    dt = delta * rng.uniform(0.001, 0.01, k)
    theta = rng.choice([0.5, 1.0], k)
    sigma = np.array([pde._drift_speed(p, x) for x in delta])
    _, e, rho, _ = pde._stencil(W, dxi, p)
    kappa = (-dt * theta * (p.n - 1) / dxi ** 2)[:, None]
    alpha = (dt * theta * sigma / (2.0 * dxi))[:, None]
    bands = np.zeros((k, M - 3)), np.zeros((k, M - 2)), np.zeros((k, M - 3))
    pde._newton_bands(*bands, W[:, 1:-1], e, rho, kappa, alpha, dxi, p)
    return W, dt * theta, sigma, bands


def test_newton_bands_match_the_raw_jacobian(p_ref):
    """The Newton matrix I - dt theta J_F that _newton_bands writes from the
    stencil quotients matches the one from the raw stencil's Jacobian
    bands (reference_routes.jac_bands) to 1e-12 relative, entry by entry,
    on random positive rows."""
    rng = np.random.default_rng(26)
    dxi = 0.125
    W, implicit, sigma, (dl, diag, du) = _newton_matrix_rows(rng, p_ref, 200, 401, dxi)
    Wm, W0, Wp = W[:, :-2], W[:, 1:-1], W[:, 2:]
    dm, d0, dp = jac_bands(W0, (Wp - Wm) / (2.0 * dxi), (Wp - 2.0 * W0 + Wm) / dxi ** 2,
                           dxi, sigma[:, None], p_ref)
    k = implicit[:, None]
    for new, ref in ((dl, -k * dm[:, 1:]), (diag, 1.0 - k * d0), (du, -k * dp[:, :-1])):
        assert np.all(np.abs(new - ref) <= 1e-12 * np.abs(ref))


def test_newton_bands_match_an_exact_finite_difference(p_ref):
    """Each entry of the Newton matrix equals the central difference of
    the residual G_j = X_j - C_j - dt theta F_j(X) in X_{j-1}, X_j and
    X_{j+1}, taken in exact rational arithmetic with a step of 2^-40 of
    X, to 1e-12 relative; F is the raw form (n-1)(D2/W + b1 (D1/W)^2 +
    b2 D1/W) + sigma D1 - a0."""
    rng = np.random.default_rng(27)
    dxi = 0.125
    W, implicit, sigma, bands = _newton_matrix_rows(rng, p_ref, 3, 12, dxi)
    h, b1, b2 = Fraction(dxi), Fraction(p_ref.d.b1), Fraction(p_ref.d.b2)

    def G(X, j, row):  # C_j drops out of the difference
        D1 = (X[j + 1] - X[j - 1]) / (2 * h)
        D2 = (X[j + 1] - 2 * X[j] + X[j - 1]) / (h * h)
        F = (p_ref.n - 1) * (D2 / X[j] + b1 * (D1 / X[j]) ** 2 + b2 * D1 / X[j])
        F += Fraction(sigma[row]) * D1 - Fraction(p_ref.d.a0)
        return X[j] - Fraction(implicit[row]) * F

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
    as it does alone, its source is called as often (once per step, and
    once here for the F it carries in), only finite positive iterates
    reach the shared array stages, the NaN row stops with NonFinite before
    any solve, and no warning escapes."""
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
            sources = [r[2] for r in rows]
            # F (sources added), e and rho of W_old, as a solve carries them in
            d, e, rho, t = pde._stencil(W_old, 0.4, p_ref)
            F = pde._rhs(d, t, np.full((n, 1), pde._drift_speed(p_ref, ds)), 0.4, p_ref)
            for i, source in enumerate(sources):
                if source is not None:
                    F[i] += source(ds)[1:-1]
            out, X, carried = pde._step_rows(
                W_old, ds, dn, 1.0, [r[1] for r in rows], 0.4, p_ref,
                sources, np.stack((F, e, rho), 1), pde._Bands(n, 99), W_old,
            )
            # each accepted row as (new frame, iterations, carried row)
            return [res if isinstance(res, errors.FdelabError) else (X[j], res, carried[j])
                    for j, res in enumerate(out)]

    # gtsv finds the first Newton system of row 2 alone singular, and after
    # that exactly that system, wherever it sits in a round's block of
    # systems (99 interior points per row); the NaN row stops before any
    # solve
    route, calls, singular = pde._lapack(), [], []

    def spy_bind(dl, d, du, b):
        gtsv = route(dl, d, du, b)

        def spied(size):
            assert np.all(np.isfinite(b[:size]))
            for j in range(0, size, 99):
                calls.append([dl[j:j + 98].copy(), d[j:j + 99].copy(),
                              du[j:j + 98].copy(), b[j:j + 99].copy()])
                if not singular or all(map(np.array_equal, calls[-1], singular)):
                    for band, length in ((dl, 98), (d, 99), (du, 98)):
                        band[j:j + length] = 0.0
            return gtsv(size)

        return spied

    stencil, bands, checked = pde._stencil, pde._newton_bands, dict(stencil=0, bands=0)

    def checked_stencil(W, *args):
        checked["stencil"] += 1
        assert np.all(np.isfinite(W)) and np.all(W > 0.0)
        return stencil(W, *args)

    def checked_bands(dl, diag, du, W, e, rho, *args):
        checked["bands"] += 1
        assert all(np.all(np.isfinite(a)) for a in (W, e, rho)) and np.all(W > 0.0)
        return bands(dl, diag, du, W, e, rho, *args)

    monkeypatch.setattr(pde, "_gtsv", spy_bind)
    monkeypatch.setattr(pde, "_stencil", checked_stencil)
    monkeypatch.setattr(pde, "_newton_bands", checked_bands)
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
            assert np.array_equal(a[0], b[0]) and a[1] == b[1] and np.array_equal(a[2], b[2])
    assert len(nan_calls) == 2 * n_nan_calls
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
        assert a.step_rejections == b.step_rejections


def test_sandwich_rows_match_lone_runs(barrier_pair, p_ref):
    """Calibration, lower, upper and mid solved together give each lone run's bits."""
    ds, de = math.exp(-TAU0), math.exp(-10.6)
    xi = np.linspace(-10.0, 40.0, 201)

    def runs():
        # solve_kept swaps each row's consumer for one that keeps every frame
        calibration, _ = pde._manufactured_row(p_ref, xi, ds)
        deltas = pde._planned_deltas(ds, de, 0.01)
        rows, _ = pde._sandwich_rows(*barrier_pair, xi, deltas)
        return [calibration, *rows.values()]

    kw = dict(delta_start=ds, delta_end=de, dtau=0.01)
    together = solve_kept(p_ref, xi, runs(), **kw)
    alone = [solve_kept(p_ref, xi, [run], **kw)[0] for run in runs()]
    _assert_same_runs(together, alone)
    assert len(together[0].deltas) == 63


def _uniform_run(a0, ds, bc):
    return pde._Run(a0 * ds * np.ones(101), bc, None)  # solve_kept gives it a consumer


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
    together = solve_kept(p_ref, xi, [
        _uniform_run(a0, ds, good),
        _uniform_run(a0, ds, _bc_failing_at(a0, calls_together, {3})),
    ], **kw)
    alone = [
        solve_kept(p_ref, xi, [_uniform_run(a0, ds, good)], **kw)[0],
        solve_kept(p_ref, xi, [
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


def test_a_row_that_fails_inside_its_step_group_leaves_the_others_alone(p_ref, d_ref):
    """Three rows take each step as one group until the middle row's
    source turns NaN at its second step and stops it with NonFinite; from
    then on the first and last rows step as the group (0, 2).  Both keep
    the bits of their lone runs, frame by frame."""
    ds, de = math.exp(-10.0), math.exp(-10.1)
    xi = np.linspace(-5.0, 5.0, 101)
    a0 = d_ref.a0

    def runs():
        calibration, _ = pde._manufactured_row(p_ref, xi, ds)
        calls = []

        def nan_at_second_step(delta):  # call 1 is the initial frame's
            calls.append(delta)
            return np.full(101, math.nan if len(calls) == 3 else 0.0)

        failing = pde._Run(a0 * ds * np.ones(101), lambda delta: (a0 * delta, a0 * delta),
                           None, nan_at_second_step)
        doubled = pde._Run(2.0 * a0 * ds * np.ones(101),
                           lambda delta: (2.0 * a0 * delta, 2.0 * a0 * delta), None)
        return [calibration, failing, doubled]

    kw = dict(delta_start=ds, delta_end=de, dtau=0.01)
    first, failed, last = solve_kept(p_ref, xi, runs(), **kw)
    assert isinstance(failed, errors.NonFinite)
    lone = [solve_kept(p_ref, xi, [run], **kw)[0] for j, run in enumerate(runs()) if j != 1]
    _assert_same_runs([first, last], lone)
    assert len(first.deltas) == 13


def test_nan_boundary_value_rejects_the_step(p_ref, d_ref):
    """A NaN end value is a rejected step, never a NaN frame."""
    ds, de = math.exp(-10.0), math.exp(-10.5)
    a0 = d_ref.a0
    calls = []

    def bc(delta):
        calls.append(delta)
        return (math.nan if len(calls) == 3 else a0 * delta), a0 * delta

    traj = solve_radial_fde(
        p_ref, xi_window=(-10.0, 30.0), n_cells=100,
        delta_start=ds, delta_end=de, dtau=0.01, w0=lambda x: a0 * ds * np.ones_like(x), bc=bc,
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
    steady, failed = solve_kept(p_ref, xi, [
        _uniform_run(a0, ds, good),
        _uniform_run(a0, ds, _bc_failing_at(a0, calls, range(2, 10 ** 6))),
    ], **kw)
    assert isinstance(failed, errors.PositivityLost)
    # one accepted step, then 13 rejections halve the warmup step 0.005
    # below 1e-6; an end-value rejection is never retried cold
    assert len(calls) == 1 + 13
    (lone,) = solve_kept(p_ref, xi, [_uniform_run(a0, ds, good)], **kw)
    _assert_same_runs([steady], [lone])
    with pytest.raises(errors.PositivityLost):
        solve_radial_fde(
            p_ref, xi_window=(-10.0, 30.0), n_cells=100,
            delta_start=ds, delta_end=de, dtau=0.01, w0=lambda x: a0 * ds * np.ones_like(x),
            bc=_bc_failing_at(a0, [], range(2, 10 ** 6)),
        )


def test_non_finite_residual_stops_the_run_at_once(p_ref, d_ref, monkeypatch):
    """A source that is NaN at every delta makes the first step's residual
    non-finite; a smaller step cannot repair that, so the run stops after
    one attempt instead of halving the step 12 more times."""
    ds, de = math.exp(-10.0), math.exp(-10.5)
    a0 = d_ref.a0
    sources, attempts = [], []
    step_rows = pde._step_rows

    def counted(*args):
        attempts.append(args[2])
        return step_rows(*args)

    def nan_source(delta):
        sources.append(delta)
        return np.full(101, math.nan)

    monkeypatch.setattr(pde, "_step_rows", counted)
    with pytest.raises(errors.NonFinite, match="not finite"):
        solve_radial_fde(
            p_ref, xi_window=(-10.0, 30.0), n_cells=100, delta_start=ds, delta_end=de,
            dtau=0.01, w0=lambda x: a0 * ds * np.ones_like(x),
            bc=lambda delta: (a0 * delta, a0 * delta), source=nan_source,
        )
    # one attempt, at the warmup step 0.005: the source at the initial
    # frame, for the F it carries in, and once at the new delta
    assert attempts == [ds * (1.0 - 0.005)]
    assert sources == [ds, ds * (1.0 - 0.005)]


def test_zero_end_value_rejects_before_newton(p_ref, d_ref, monkeypatch):
    """An end value of 0.0 rejects the step without a Newton solve, like
    any other rejection, until the step underflows.  No start changes an
    end value, so such a rejection halves the step without a cold retry."""
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
            p_ref, xi_window=(-10.0, 30.0), n_cells=100,
            delta_start=ds, delta_end=de, dtau=0.01, w0=lambda x: a0 * ds * np.ones_like(x), bc=bc,
        )
    # one accepted step, then 13 rejections halve the warmup step 0.005
    # below 1e-6; only the accepted step reached Newton
    assert len(calls) == 1 + 13
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
    at dtau 1e-5 (50,003 planned frames), would add about 2 GiB of the mid
    run's samples (W[::8] of every 10th frame) to 0.5 GiB of solve:
    InvalidParameter once the steps are planned, before the rows are
    built.  Over tau 10 -> 10.2 at dtau 0.01 (23 frames) the samples fit
    and the same grid reaches the rows."""
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(pde, "_manufactured_row", reached)
    half = (pde._MEMORY_BUDGET // pde._POINT_BYTES - 1) // 2
    with pytest.raises(errors.InvalidParameter, match=r"over 50003 planned frames .* 2\.5 GiB"):
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

    def patched(p, xi, runs, **kw):
        runs = list(runs)
        for row, n_call in ((late, 12), (early, 2)):
            runs[row] = dataclasses.replace(
                runs[row], bc=failing(runs[row].bc, names[row], n_call)
            )
        return solve_rows(p, xi, runs, **kw)

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


def test_predictor_gives_each_row_its_lone_bits():
    """The predictor of a step group, with its float exponent r, gives
    each row the bits of its lone W (W / W_prev)^r, including the
    exponents 0.5 and 2.0 that numpy takes as sqrt and square; r = 0 gives
    W, and so does the row of a guess that overflows."""
    rng = np.random.default_rng(7)
    W = np.exp(rng.uniform(-30.0, -20.0, (6, 401)))
    W_prev = W * np.exp(rng.uniform(-0.05, 0.05, (6, 401)))
    W_prev[5, 3] = 1e-300  # (W / W_prev)^r overflows
    for r in (1.0, 2.0, 0.5, 2.005):
        guess = pde._predicted(W[:5], W_prev[:5], r)
        for j in range(5):
            lone = W[j] * (W[j] / W_prev[j]) ** r
            assert np.array_equal(guess[j].view(np.int64), lone.view(np.int64))
    assert np.array_equal(pde._predicted(W, W_prev, 0.0), W)
    guess = pde._predicted(W, W_prev, 40.0)
    assert np.array_equal(guess[5], W[5])
    assert np.all(guess[:5] > 0.0) and np.all(guess[:5] < math.inf)


def test_rejected_predicted_step_retries_cold_before_it_halves(p_ref, d_ref, monkeypatch):
    """A rejected step that started from the predictor is tried again at
    the same step from the last frame; only a rejected cold start halves
    the step.  The row's first step has no predictor and starts cold."""
    ds, de = math.exp(-10.0), math.exp(-10.1)
    a0 = d_ref.a0
    step_rows = pde._step_rows
    tries, fail = [], set()

    def flaky(W_old, *args):
        start = args[-1]
        tries.append((args[1], np.array_equal(start, W_old)))
        if len(tries) in fail:
            return [errors.NewtonDiverged("rejected by construction")], None, None
        return step_rows(W_old, *args)

    def run():
        del tries[:]
        return solve_radial_fde(
            p_ref, xi_window=(-10.0, 30.0), n_cells=100, delta_start=ds, delta_end=de,
            dtau=0.01, w0=lambda x: a0 * ds * np.ones_like(x),
            bc=lambda delta: (a0 * delta, a0 * delta),
        )

    monkeypatch.setattr(pde, "_step_rows", flaky)
    plain = run()
    assert [cold for _, cold in tries] == [True] + [False] * (len(tries) - 1)
    assert (plain.step_rejections, plain.cold_retries) == (0, 0)
    third = tries[2][0]

    fail.add(3)  # the third step's predicted start fails; its cold retry passes
    retried = run()
    assert tries[2:4] == [(third, False), (third, True)]
    assert (retried.step_rejections, retried.cold_retries) == (0, 1)
    assert np.array_equal(retried.deltas, plain.deltas)

    fail.add(4)  # the cold retry fails too: the step halves, predicted again
    halved = run()
    assert tries[2:4] == [(third, False), (third, True)]
    assert tries[4][1] is False and third < tries[4][0] < plain.deltas[2]
    assert (halved.step_rejections, halved.cold_retries) == (1, 1)


def test_carried_rhs_equals_a_fresh_one(p_ref, monkeypatch):
    """The F (source added), e and rho that a row carries into each
    attempt equal a fresh _stencil and _rhs of its last frame plus its
    source there, bit for bit: after an accepted step, after a step that a negative end value
    rejected and halved, and on the cold retry of a rejected predicted
    start."""
    ds, de = math.exp(-10.0), math.exp(-10.1)
    xi = np.linspace(-5.0, 5.0, 101)
    run, _ = pde._manufactured_row(p_ref, xi, ds)
    bc_calls, step_calls, fresh = [], [], []
    step_rows = pde._step_rows

    def bc(delta):  # a negative left end on the third call, as _bc_failing_at
        bc_calls.append(delta)
        lo, hi = run.bc(delta)
        return (-lo if len(bc_calls) == 3 else lo), hi

    def checked(W_old, delta_old, *args):
        step_calls.append(delta_old)
        sigma = pde._drift_speed(p_ref, delta_old)
        d, e, rho, t = pde._stencil(W_old, xi[1] - xi[0], p_ref)
        F = pde._rhs(d, t, sigma, xi[1] - xi[0], p_ref)
        F += run.source(delta_old)[1:-1]
        fresh.append(np.array_equal(np.stack((F, e, rho), 1).view(np.int64),
                                     args[-3].view(np.int64)))
        if len(step_calls) == 5:  # a predicted start: its cold retry follows
            return [errors.NewtonDiverged("rejected by construction")], None, None
        return step_rows(W_old, delta_old, *args)

    monkeypatch.setattr(pde, "_step_rows", checked)
    (traj,) = solve_kept(p_ref, xi, [dataclasses.replace(run, bc=bc)],
                         delta_start=ds, delta_end=de, dtau=0.01)
    assert (traj.step_rejections, traj.cold_retries) == (1, 1)
    # bc call 3 rejects the third step before Newton: its halved retry is
    # step call 3; step call 6 retries call 5 cold, from the same frame
    assert step_calls[:3] == traj.deltas[:3].tolist()
    assert step_calls[4] == step_calls[5] == traj.deltas[4]
    assert len(fresh) == len(traj.deltas) and all(fresh)


def test_newton_rounds_take_one_gtsv_call_and_one_residual(barrier_pair, monkeypatch):
    """On the smoke window, a Newton round calls gtsv once for all its
    rows, a step attempt evaluates the stencil once for its start and once
    per trial iterate (the old frame's F is carried in), and the
    calibration source runs once per attempt of its row and once for the
    initial frame."""
    counts = dict(gtsv=0, stencil=0, source=0, attempts=0, calibration=0, rounds=0)
    route, stencil, step_rows = pde._lapack(), pde._stencil, pde._step_rows
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
        counts["calibration"] += args[7][0] is not None
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

    monkeypatch.setattr(pde, "_gtsv", counting_bind)
    monkeypatch.setattr(pde, "_stencil", counted_stencil)
    monkeypatch.setattr(pde, "_step_rows", counted_step_rows)
    monkeypatch.setattr(pde, "make_manufactured", counted_manufactured)
    report = comparison_sandwich(*barrier_pair, tau0=TAU0, tau_end=10.6, n_cells=400, dtau=0.01)
    assert all(t.step_rejections == t.cold_retries == 0 for t in report.runs.values())
    assert counts["attempts"] == report.runs["mid"].frames - 1 == counts["calibration"]
    assert counts["gtsv"] == counts["rounds"]
    assert (counts["attempts"], counts["rounds"]) == (62, 140)
    # one call for the initial frames, then per attempt one for its start
    # and one per trial iterate (140 rounds, 6 halved line-search trials);
    # evaluating the old frame in every attempt as well made it 270
    assert counts["stencil"] == 1 + 62 + 140 + 6
    assert counts["source"] == counts["calibration"] + 1


def _end_values(barrier_pair, p, delta):
    """Each row's end values at delta from two-point _barrier_W calls."""
    plus, minus = barrier_pair
    wp = pde._barrier_W(plus, np.array([-10.0, 40.0]), [delta], p)[0]
    wm = pde._barrier_W(minus, np.array([-10.0, 40.0]), [delta], p)[0]
    return {kind: tuple(w.tolist()) for kind, w in
            (("lower", wm), ("upper", wp), ("mid", np.sqrt(wp * wm)))}


def test_lagging_row_reuses_the_barrier_end_values(barrier_pair, p_ref, monkeypatch):
    """A block of planned deltas is evaluated once, when the first row
    reaches it: a mid row one round behind the upper row, which has
    entered the next block, reads the last delta of the block before
    without a barrier evaluation, bit for bit as two-point _barrier_W
    calls give the values."""
    xi = np.linspace(-10.0, 40.0, 401)
    deltas = pde._planned_deltas(math.exp(-TAU0), math.exp(-10.6), 0.01)
    size = pde._BLOCK_POINTS // len(xi)  # planned deltas per block
    assert len(deltas) > size
    rows, _ = pde._sandwich_rows(*barrier_pair, xi, deltas)
    evaluated = []
    barrier_W = pde._barrier_W
    monkeypatch.setattr(pde, "_barrier_W", lambda *a: evaluated.append(a) or barrier_W(*a))
    d1, d2 = deltas[size - 1], deltas[size]  # the last of block 0, the first of block 1
    upper = [rows["upper"].bc(d1), rows["upper"].bc(d2)]
    mid = rows["mid"].bc(d1)  # one round behind the upper row
    assert [list(a[2]) for a in evaluated] == [deltas[size:2 * size]] * 2  # block 1, per barrier
    monkeypatch.setattr(pde, "_barrier_W", barrier_W)
    want = _end_values(barrier_pair, p_ref, d1)
    assert upper[0] == want["upper"] and mid == want["mid"]
    assert upper[1] == _end_values(barrier_pair, p_ref, d2)["upper"]


def test_end_table_equals_two_point_barrier_values(barrier_pair, p_ref):
    """Every planned delta's end values, for every row, read from the end
    columns of the barrier blocks, equal two-point _barrier_W evaluations,
    bit for bit."""
    xi = np.linspace(-10.0, 40.0, 201)
    deltas = pde._planned_deltas(math.exp(-TAU0), math.exp(-10.6), 0.01)
    assert len(deltas) == 63 > pde._BLOCK_POINTS // len(xi)  # more than one block
    rows, _ = pde._sandwich_rows(*barrier_pair, xi, deltas)
    for delta in deltas[1:]:
        want = _end_values(barrier_pair, p_ref, delta)
        assert {kind: run.bc(delta) for kind, run in rows.items()} == want


def test_off_schedule_delta_reads_a_direct_evaluation(barrier_pair, p_ref, monkeypatch):
    """A rejected step (a negative end value, as in
    test_rejected_row_keeps_its_own_steps) takes the lower row off the
    planned deltas; its end values there come from their own evaluation,
    once per barrier and delta, and equal two-point _barrier_W values, and
    its frames hold them."""
    ds, de = math.exp(-TAU0), math.exp(-10.1)
    xi = np.linspace(-10.0, 40.0, 201)
    deltas = pde._planned_deltas(ds, de, 0.01)
    rows, _ = pde._sandwich_rows(*barrier_pair, xi, deltas)
    lower = rows["lower"]
    read = {}

    def flaky(delta):
        read[delta] = lower.bc(delta)
        return (-1.0, read[delta][1]) if len(read) == 3 else read[delta]

    own = []  # the deltas of evaluations at a single delta
    barrier_W = pde._barrier_W

    def counted(bar, x, at, p):
        if len(at) == 1:
            own.append(at[0])
        return barrier_W(bar, x, at, p)

    monkeypatch.setattr(pde, "_barrier_W", counted)
    (traj,) = solve_kept(p_ref, xi, [dataclasses.replace(lower, bc=flaky)],
                         delta_start=ds, delta_end=de, dtau=0.01)
    monkeypatch.setattr(pde, "_barrier_W", barrier_W)
    assert traj.step_rejections == 1
    planned = set(deltas)
    off = [d for d in traj.deltas[1:].tolist() if d not in planned]
    assert len(off) >= 5
    assert own == [d for d in read if d not in planned for _ in range(2)]
    for delta in off:
        assert read[delta] == _end_values(barrier_pair, p_ref, delta)["lower"]
    for delta, W in zip(traj.deltas[1:].tolist(), traj.W[1:]):
        assert (W[0], W[-1]) == read[delta]


@pytest.mark.parametrize("planned", [True, False])
def test_block_reads_equal_grid_reads(barrier_pair, p_ref, planned):
    """What a run reads from the barrier blocks equals what the barriers
    give on the grid at that delta (_barrier_W), bit for bit, at a planned
    delta (a block) and off the plan (the row's own evaluation): each
    run's bc ends are on(kind, Wp[[0, -1]], Wm[[0, -1]]), and the mid
    consumer's barrier peaks are max W^{1/(1-m)} of each barrier."""
    xi = np.linspace(-10.0, 40.0, 201)
    deltas = pde._planned_deltas(math.exp(-TAU0), math.exp(-10.6), 0.01)
    delta = deltas[30] if planned else deltas[30] * (1.0 - 1e-3)
    assert (delta in deltas) is planned
    rows, report = pde._sandwich_rows(*barrier_pair, xi, deltas)
    Wp, Wm = (pde._barrier_W(bar, xi, [delta], p_ref)[0] for bar in barrier_pair)
    for kind, run in rows.items():
        want = pde._on(kind, Wp[[0, -1]], Wm[[0, -1]]).tolist()
        assert [x.hex() for x in run.bc(delta)] == [x.hex() for x in want], kind
    rows["mid"].consume(delta, np.sqrt(Wp * Wm))  # the mid run's first frame
    power = 1.0 / (1.0 - p_ref.m)
    assert [x.hex() for x in report.upper_barrier] == [float(np.max(Wp) ** power).hex()]
    assert [x.hex() for x in report.lower_barrier] == [float(np.max(Wm) ** power).hex()]


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
    deltas = pde._planned_deltas(ds, de, 0.01)
    rows, _ = pde._sandwich_rows(*barrier_pair, xi, deltas)
    runs = [calibration, *rows.values()]
    given = [{} for _ in runs]

    def recorded(bc, seen):
        def wrapped(delta):
            seen[delta] = bc(delta)
            return seen[delta]
        return wrapped

    runs = [dataclasses.replace(r, bc=recorded(r.bc, seen)) for r, seen in zip(runs, given)]
    trajs = solve_kept(p_ref, xi, runs, delta_start=ds, delta_end=de, dtau=0.01)
    for traj, seen in zip(trajs, given):
        for delta, W in zip(traj.deltas[1:], traj.W[1:]):
            assert (W[0], W[-1]) == tuple(seen[delta])


def test_sandwich_memory_grows_by_scalars_not_grid_rows(barrier_pair):
    """Every frame is reduced when it is accepted, so from 63 to 242
    frames the traced peak of a sandwich run grows by less than a quarter
    of a grid row (401 points) per added frame; a store of every frame
    grows by four rows.  Both windows span more than two barrier blocks,
    so both runs peak while a block is evaluated with one block kept."""
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
