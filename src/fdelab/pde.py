"""Radial PDE laboratory: sandwich runs of the comoving solver
(fdelab.comoving) between the glued barriers, the manufactured run that
calibrates their tolerance, and the extinction-rate fits.

The sandwich (comparison_sandwich) evaluates both barriers on the whole
grid, one wbar call per barrier and block of planned deltas of at most
_BLOCK_POINTS points, when the rows reach the block.  Each evaluation
also forms every run's end values and both barriers' peaks as floats, so
a step reads them without touching the grid.  Each frame is reduced into
the one SandwichReport when it is accepted, so what a run keeps grows by
a few scalars per step, never by grid rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import errors
from .comoving import (
    _STEP_BUDGET, Trajectory, _drift_speed, _finished, _planned_deltas, _Run, _solve_rows,
)
from .matching import GluedBarrier
from .params import ModelParams, radial_diffusion
from .reporting import write_csv

__all__ = [
    "Trajectory",
    "make_manufactured",
    "comparison_sandwich",
    "extinction_rate",
]


# Bytes per grid point that the sandwich's joint solve holds at its peak:
# float64 values for its 4 rows.  comoving._solve_rows keeps a frame and
# the log growth rates of the last 3 steps per row (16 values) and forms
# the extrapolated start (4); a cold start and the last frame of a step of
# every row are views of its frames.  _Bands keeps 4 bands per row (16),
# whose b is also the Newton step; _step_rows holds the step constant C,
# X and X_try (12), G, e and rho of the iterate (12), the trial's stencil
# while it is formed (20), and up to 4 more after a round in which only
# some rows took their trial.  The runs add xi, 4 initial rows and the
# manufactured profile and source arrays (12).  That is 96 values; traced
# sandwiches at 20,000 cells (ref, tau0 10 to 14, 0.15 in tau) peak at up
# to 737 bytes per point.  The mid run's CSV samples (W[::8] of every 10th
# frame) come on top, and SandwichReport.to_csv streams its rows from them
# without a list of its own; comparison_sandwich checks solve and samples
# together against _MEMORY_BUDGET once the steps are planned, before it
# allocates anything per cell.
_POINT_BYTES = 8 * (20 + 16 + 48 + 12)
_MEMORY_BUDGET = 1 << 30  # bytes the sandwich's grid arrays may hold


def _check_window(n_cells, dtau, tau0, tau_end):
    """InvalidParameter unless the grid has at least two cells, dtau is a
    finite step > 0, and tau0 < tau_end with both delta = e^{-tau} finite
    and > 0; checked before any grid or barrier is built.  The grid's size
    is checked against _MEMORY_BUDGET once the steps are planned
    (comparison_sandwich)."""
    if not n_cells >= 2:
        raise errors.InvalidParameter(f"need n_cells >= 2, got {n_cells}")
    if not 0.0 < dtau < math.inf:
        raise errors.InvalidParameter(f"need a finite dtau > 0, got {dtau}")
    try:  # with tau0 < tau_end the other two bounds follow
        ok = tau0 < tau_end and math.exp(-tau0) < math.inf and math.exp(-tau_end) > 0.0
    except OverflowError:
        ok = False
    if not ok:
        raise errors.InvalidParameter(
            f"need tau0 < tau_end with e^(-tau) finite and > 0 at both, "
            f"got tau0 = {tau0}, tau_end = {tau_end}"
        )


def _check_drift(p: ModelParams, *deltas):
    """OutOfDomain unless the drift speed A gamma delta^(-gamma-1) and
    delta^(1+gamma) are finite and > 0 at the window's ends, and so on all
    of it: the speed overflows once (1+gamma) tau = -(1+gamma) log delta
    passes 709.78 - log(A gamma), delta^(1+gamma) once it falls below
    -709.78.  Checked before any barrier is evaluated."""
    for delta in deltas:
        try:
            ok = _drift_speed(p, delta) < math.inf and delta ** (1.0 + p.gamma) > 0.0
        except OverflowError:
            ok = False
        if not ok:
            raise errors.OutOfDomain(
                "the drift speed or delta^(1+gamma) leaves the float range at "
                f"(1+gamma) tau = {-(1.0 + p.gamma) * math.log(delta):.6g}"
            )


# -- manufactured solution and tolerance calibration ---------------------------


_MANUFACTURED = (2.0, 0.5, 0.7)  # (c1, c2, k) with |c2| < |c1|: W stays positive


def make_manufactured(p: ModelParams):
    """Exact solution W = delta^{1+gamma} (c1 + c2 sin(k xi)) and its source.

    The source S = W_t - F(W) - sigma W_xi is analytic; feeding it to the
    solver makes W an exact solution for convergence studies.  F(W) is
    the same at every delta, since radial_diffusion is invariant under
    scaling W and its derivatives by one factor, so bind forms it once.
    """
    c1, c2, k = _MANUFACTURED

    def W_exact(xi, delta):
        return delta ** (1.0 + p.gamma) * (c1 + c2 * np.sin(k * xi))

    def bind(xi):
        sin = np.sin(k * xi)
        prof = c1 + c2 * sin
        dprof = c2 * k * np.cos(k * xi)
        F = radial_diffusion(p, prof, dprof, -c2 * k * k * sin) - p.d.a0

        def S(delta):
            out = (-(1.0 + p.gamma) * delta ** p.gamma) * prof
            out -= F
            out -= (_drift_speed(p, delta) * delta ** (1.0 + p.gamma)) * dprof
            return out

        return S

    return W_exact, bind


def _manufactured_row(p: ModelParams, xi, delta_start: float):
    """The manufactured calibration run on grid xi as a row, and a reader
    of its normalized error max |W_num - W_true| / delta^{1+gamma} over
    the frames accepted so far, which its consumer keeps."""
    W_exact, bind = make_manufactured(p)
    profile = W_exact(xi, 1.0)  # W_exact(xi, delta) is delta^{1+gamma} times this
    worst = 0.0

    def consume(delta, W):
        nonlocal worst
        scale = delta ** (1.0 + p.gamma)
        worst = max(worst, float(np.max(np.abs(W - scale * profile))) / scale)

    def bc(delta):
        return float(W_exact(xi[0], delta)), float(W_exact(xi[-1], delta))

    return _Run(W_exact(xi, delta_start), bc, consume, bind(xi)), lambda: worst


_SAFETY = 5.0  # factor on the manufactured error that gives tol_rel
_FIT_DECADES = 2.0  # decades of T - t that the extinction fit spans


# -- sandwich runs -------------------------------------------------------------


@dataclass
class SandwichReport:
    """The sandwich's one result record, on grid xi.

    The consumers of _sandwich_rows fill it as frames are accepted: the
    worst under- and overshoot over all runs, in units of delta^{1+gamma},
    and per mid frame its delta, max W, the peaks of the barriers' u =
    W^{1/(1-m)} and, every 10th frame, the CSV sample.
    comparison_sandwich then sets tol_rel, runs (a Trajectory per run),
    passed and fits.
    """

    p: ModelParams
    xi: np.ndarray
    tol_rel: float = math.nan
    runs: dict = field(default_factory=dict)
    max_undershoot: float = 0.0  # worst (W_lowbar - W)/scale over all runs
    max_overshoot: float = 0.0   # worst (W - W_upbar)/scale
    passed: bool = False
    fits: dict = field(default_factory=dict)
    deltas: list = field(default_factory=list)  # per mid frame
    solution: list = field(default_factory=list)  # max W per mid frame
    upper_barrier: list = field(default_factory=list)  # max u of each barrier per mid frame
    lower_barrier: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # (delta, W[::8]) per 10th mid frame

    def to_dict(self) -> dict:
        keys = ("tol_rel", "max_undershoot", "max_overshoot", "passed", "fits")
        return {key: getattr(self, key) for key in keys}

    def to_csv(self, path: str):
        """Rows (t, s, xi, w, u, log10_u) of the mid run on every 10th frame
        and every 8th grid point, streamed: write_csv writes each row as
        this generator forms it, from Python floats, and no list of the
        rows is built."""
        p, xi = self.p, self.xi[::8].tolist()

        def rows():
            for delta, W in self.samples:
                t = p.T - delta
                shift = p.A * delta ** (-p.gamma)
                for x, w in zip(xi, W.tolist()):
                    s = x + shift
                    log10_u = (math.log10(w) - 2.0 * s / math.log(10.0)) / (1.0 - p.m)
                    u = 10.0 ** log10_u if log10_u > -300.0 else 0.0
                    yield t, s, x, w, u, log10_u

        write_csv(path, ["t", "s", "xi", "w", "u", "log10_u"], rows())


def _barrier_W(bar: GluedBarrier, xi: np.ndarray, deltas, p: ModelParams):
    """delta^{1+gamma} wbar(xi, -log delta) on the (deltas, xi) grid, from
    one wbar call."""
    deltas = [float(delta) for delta in deltas]
    scale = np.array([delta ** (1.0 + p.gamma) for delta in deltas])
    return scale[:, None] * bar.wbar(xi, np.array([-math.log(delta) for delta in deltas]))


_BLOCK_POINTS = 1 << 13  # grid points per barrier block of the sandwich
_KINDS = ("lower", "upper", "mid")  # the sandwich's runs on the barriers


def _on(kind, Wp, Wm):
    """The barrier values that a run of this kind starts from and keeps
    at its ends: the lower barrier, the upper one, or their geometric mean."""
    if kind == "mid":
        return np.sqrt(Wp * Wm)
    return Wm if kind == "lower" else Wp


class _Reading(NamedTuple):
    """Both barriers at one delta: on the grid, each run's Dirichlet ends
    (kind -> (W_lo, W_hi)), and the peaks of the barriers' u = W^{1/(1-m)}
    as floats (plus, minus)."""

    W_plus: np.ndarray
    W_minus: np.ndarray
    ends: dict
    peaks: tuple


class _BarrierBlocks:
    """Both barriers (_barrier_W) at the planned deltas, as _Readings.

    The deltas are evaluated a block of at most _BLOCK_POINTS points at a
    time, when the rows reach the block, and since every row steps the
    same planned deltas only that block is kept.  In a block whose
    evaluation raised, each delta is evaluated alone as it is read.  A
    block takes one inner and two outer calls per barrier: the matching
    edge that C(tau) is solved from, and the grid.  Each evaluation forms
    every run's Dirichlet ends and both barriers' peaks once, for all its
    deltas, so a step's bc and the mid consumer read floats and never slice
    or reduce the grid.
    """

    def __init__(self, plus: GluedBarrier, minus: GluedBarrier, xi, deltas):
        self.bars, self.xi, self.deltas = (plus, minus), xi, deltas
        self.p = plus.outer.p
        self.index = {delta: j for j, delta in enumerate(deltas)}
        self.size = max(1, _BLOCK_POINTS // len(xi))  # deltas per block
        self.block = None, None  # (number, its _Readings, or None if it raised)

    def _evaluate(self, deltas) -> list:
        Wp, Wm = (_barrier_W(bar, self.xi, deltas, self.p) for bar in self.bars)
        ends = {kind: _on(kind, Wp[:, [0, -1]], Wm[:, [0, -1]]).tolist() for kind in _KINDS}
        power = 1.0 / (1.0 - self.p.m)
        peaks = [[float(x ** power) for x in W.max(axis=1)] for W in (Wp, Wm)]
        return [_Reading(Wp[r], Wm[r], {kind: tuple(ends[kind][r]) for kind in _KINDS},
                         (peaks[0][r], peaks[1][r])) for r in range(len(deltas))]

    def at(self, delta) -> _Reading:
        """Both barriers at a planned delta."""
        k, r = divmod(self.index[delta], self.size)
        if self.block[0] != k:
            self.block = k, None  # the last block is not held through the evaluation
            try:
                self.block = k, self._evaluate(self.deltas[k * self.size:(k + 1) * self.size])
            except errors.FdelabError:
                pass
        readings = self.block[1]
        return self._evaluate([delta])[0] if readings is None else readings[r]


def _sandwich_rows(plus: GluedBarrier, minus: GluedBarrier, xi, deltas):
    """The lower, upper and mid runs as rows (on the lower barrier, the
    upper one and their geometric mean) over the planned deltas, and the
    SandwichReport that their consumers fill.  bc reads its run's ends
    from one _BarrierBlocks; a consumer checks every 5th frame against the
    barriers on the grid and keeps, per mid frame, max W, the barrier
    peaks and every 10th frame's CSV sample.
    """
    p = plus.outer.p
    blocks = _BarrierBlocks(plus, minus, xi, deltas)
    report = SandwichReport(p, xi)

    def bc(kind):
        def at(delta):
            return blocks.at(delta).ends[kind]
        return at

    def consume(kind):
        frame = itertools.count()

        def reduce(delta, W):
            n = next(frame)
            if n % 5 and kind != "mid":
                return
            bars = blocks.at(delta)
            if n % 5 == 0:
                scale = delta ** (1.0 + p.gamma)
                report.max_undershoot = max(report.max_undershoot,
                                            float(np.max((bars.W_minus - W) / scale)))
                report.max_overshoot = max(report.max_overshoot,
                                           float(np.max((W - bars.W_plus) / scale)))
            if kind == "mid":
                report.deltas.append(delta)
                report.solution.append(float(np.max(W)))
                report.upper_barrier.append(bars.peaks[0])
                report.lower_barrier.append(bars.peaks[1])
                if n % 10 == 0:
                    report.samples.append((delta, W[::8].copy()))

        return reduce

    first = blocks.at(deltas[0])
    rows = {
        kind: _Run(np.array(_on(kind, first.W_plus, first.W_minus)), bc(kind),
                   consume=consume(kind))
        for kind in _KINDS
    }
    return rows, report


def comparison_sandwich(
    plus: GluedBarrier,
    minus: GluedBarrier,
    *,
    tau0: float,
    tau_end: float,
    n_cells: int,
    dtau: float,
) -> SandwichReport:
    """Evolve data between the barriers from tau0 to tau_end and verify it
    stays sandwiched.

    The pair must come in sign order (plus, minus), n_cells >= 2, dtau a
    finite step > 0 and tau0 < tau_end with both e^{-tau} finite and > 0;
    anything else raises InvalidParameter before any solve.  A window
    whose drift speed leaves the float range raises OutOfDomain, and one
    whose planned steps (_planned_deltas) the step budget cannot cover
    raises StepUnderflow.  Once the steps are planned, a grid whose solve and
    mid-run samples over the planned frames would hold more than
    _MEMORY_BUDGET raises InvalidParameter; all of these come before the
    grid is built or any row is stepped.  A run whose start is not
    positive, as delta^{1+gamma} times the barriers or the product under
    the mid run's geometric mean underflows (from (1+gamma) tau0 near 365
    on ref at 400 cells), raises OutOfDomain naming (1+gamma) tau0, after
    the grid is built and before any row is stepped.  The grid is xi in
    [-xi1, 4 xi1] with n_cells cells, and dtau is the step as a fraction
    of delta (the CLI's simulate window).
    Three runs: data/BC on the lower barrier, on the upper barrier, and on
    the pointwise geometric mean ("mid", the reported solution).  Initial
    data outside the barriers is rejected (this covers the doubled-data
    precondition check).  Every 5th frame of each run is checked against
    the calibrated grid tolerance in units of delta^{1+gamma}.

    The calibration run and the three runs are four rows of one joint
    solve that steps them all through the planned deltas (_solve_rows),
    whose frames are reduced as they are accepted (_sandwich_rows).  A run
    that cannot take a planned step stops there with its error.  Errors
    are raised in row order, with NotBetweenBarriers (it needs tol_rel)
    after the calibration's.  A run's error is raised as its own class,
    its message prefixed with the run (calibration, lower, upper or mid),
    n_cells and tau0.
    """
    if plus.sign != "+" or minus.sign != "-":
        raise errors.InvalidParameter("pass (plus, minus) barriers in order")
    _check_window(n_cells, dtau, tau0, tau_end)
    p = plus.outer.p
    delta_start = math.exp(-float(tau0))
    delta_end = math.exp(-tau_end)
    _check_drift(p, delta_start, delta_end)
    deltas = _planned_deltas(delta_start, delta_end, dtau)
    if not _finished(deltas[-1], delta_end):
        raise errors.StepUnderflow(f"step budget exhausted: {_STEP_BUDGET} steps of dtau {dtau} "
                                   f"do not reach tau_end {tau_end} from tau0 {tau0}")
    held = (n_cells + 1) * _POINT_BYTES + 8 * (n_cells // 8 + 1) * ((len(deltas) + 9) // 10)
    if held > _MEMORY_BUDGET:  # the solve and the samples of the planned frames
        raise errors.InvalidParameter(
            f"n_cells {n_cells} over {len(deltas)} planned frames would hold about "
            f"{held / 2**30:.3g} GiB with the mid run's samples, over the budget of "
            f"{_MEMORY_BUDGET / 2**30:g} GiB"
        )
    xi = np.linspace(-plus.xi1, 4.0 * plus.xi1, n_cells + 1)
    calibration, calibration_error = _manufactured_row(p, xi, delta_start)
    rows, report = _sandwich_rows(plus, minus, xi, deltas)
    for name, row in rows.items():  # delta^{1+gamma} wbar, or the mean's product, underflows
        if not np.all(row.w0 > 0.0):
            raise errors.OutOfDomain(f"{name} run (n_cells {n_cells}, tau0 {tau0}): start is not"
                                     f" positive at (1+gamma) tau0 = {(1 + p.gamma) * tau0:.6g}")
    solved = dict(zip(("calibration", *rows),
                      _solve_rows(p, xi, [calibration, *rows.values()], deltas)))

    def run(name):
        res = solved[name]
        if isinstance(res, errors.FdelabError):
            raise type(res)(f"{name} run (n_cells {n_cells}, tau0 {tau0}): {res}") from res
        return res

    run("calibration")
    report.tol_rel = tol_rel = _SAFETY * calibration_error()
    W0 = rows["mid"].w0
    Wm0, Wp0 = rows["lower"].w0, rows["upper"].w0
    slack = tol_rel * delta_start ** (1.0 + p.gamma)
    if np.any(W0 < Wm0 - slack) or np.any(W0 > Wp0 + slack):
        raise errors.NotBetweenBarriers("initial data leaves the barrier sandwich at tau0")
    report.runs = {name: run(name) for name in rows}
    report.passed = report.max_undershoot <= tol_rel and report.max_overshoot <= tol_rel

    # extinction fits; sup W^{1/(1-m)} is raised as one array
    deltas = np.array(report.deltas)
    amps = {
        "solution": np.array(report.solution) ** (1.0 / (1.0 - p.m)),
        "upper_barrier": np.array(report.upper_barrier),
        "lower_barrier": np.array(report.lower_barrier),
    }
    span = math.log10(float(deltas.max() / deltas.min()))
    for name, amp in amps.items():
        try:
            report.fits[name] = extinction_rate(deltas, amp)
        except errors.InsufficientDecades:
            report.fits[name] = {"exponent": math.nan, "prefactor_log": math.nan,
                                 "stderr": math.inf, "n_points": 0, "decades": span}
    return report


def extinction_rate(deltas, amplitudes) -> dict:
    """Least-squares exponent of amplitude ~ delta^rate over the final
    _FIT_DECADES decades, in closed form: in log-log coordinates the slope
    is Sxy/Sxx from sums about the means, and stderr is the residual
    standard error over sqrt(Sxx).  NonPositiveInput unless every delta and
    amplitude is > 0 (NaN is not); InsufficientDecades unless the deltas
    span _FIT_DECADES decades and the window holds two distinct ones."""
    deltas = np.asarray(deltas, dtype=float)
    amps = np.asarray(amplitudes, dtype=float)
    if not (np.all(amps > 0.0) and np.all(deltas > 0.0)):  # NaN is not positive
        raise errors.NonPositiveInput("extinction fit needs positive series")
    span = math.log10(deltas.max() / deltas.min())
    if span < _FIT_DECADES:
        raise errors.InsufficientDecades(
            f"trajectory spans {span:.2f} decades of T - t, need {_FIT_DECADES}"
        )
    mask = deltas <= deltas.min() * 10.0 ** _FIT_DECADES
    x = np.log(deltas[mask])
    y = np.log(amps[mask])
    n_pts = x.size
    if not x.max() > x.min():  # Sxx would be 0
        raise errors.InsufficientDecades(
            f"the final {_FIT_DECADES} decades hold {n_pts} point(s) at one delta, "
            "need two distinct deltas"
        )
    x_mean, y_mean = float(x.mean()), float(y.mean())
    dx, dy = x - x_mean, y - y_mean
    sxx = float(np.sum(dx * dx))
    slope = float(np.sum(dx * dy)) / sxx
    resid = dy - slope * dx
    stderr = math.sqrt(float(np.sum(resid * resid)) / max(n_pts - 2, 1) / sxx)
    return {"exponent": slope, "prefactor_log": y_mean - slope * x_mean,
            "stderr": stderr, "n_points": n_pts, "decades": span}
