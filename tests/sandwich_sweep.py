"""Deterministic window sweep of the comparison sandwich.

Every window passes the sandwich's own checks, so comparison_sandwich
must either return a SandwichReport or raise an FdelabError.  The sweep
runs 480 windows of 0.6 in tau: the reference config (n 3, m 0.1,
gamma 1.5, A 2, theta1_minus -1) from tau0 10, 12, 14, 15, 16 and 20,
and the low config (the same with gamma 0.5) from tau0 15, 17, 19, 20, 21
and 25; each at eps 0 and 0.018, on 100, 200, 400 and 800 cells, with
dtau 0.005, 0.01, 0.02, 0.05 and 0.1.  Each line gives the outcome (the
report's check, tolerance and worst under- and overshoot, or the error
class and the run it names), then per row (calibration, lower, upper,
mid) its accepted frames, and for a row that finished its most Newton
iterations in one step and its cold retries, and the time.  The last
line counts the outcomes, and over the rows that finished, the cold
retries and the most Newton iterations of any step.  Run it with

    PYTHONPATH=src python -W error::RuntimeWarning tests/sandwich_sweep.py [--json PATH]

--json writes each window's outcome (SandwichReport.to_dict(), or the
error class and run) to PATH, for comparing two source trees.  A window
that ends in any other exception, a RuntimeWarning included, is counted as
bare.  tests/test_pde.py runs a subset of it.
"""

import argparse
import contextlib
import dataclasses
import itertools
import json
import sys
import time
from typing import NamedTuple

from fdelab import errors, pde
from fdelab.matching import GluedBarrier, MatchingSolver
from fdelab.outer import OuterProfileSet, branch_variant
from fdelab.params import ModelParams, default_thresholds
from fdelab.selfsim import shoot_v0

CONFIGS = {"ref": 1.5, "low": 0.5}  # name -> gamma
TAU0S = {"ref": (10.0, 12.0, 14.0, 15.0, 16.0, 20.0), "low": (15.0, 17.0, 19.0, 20.0, 21.0, 25.0)}
EPSILONS = (0.0, 0.018)
CELLS = (100, 200, 400, 800)
DTAUS = (0.005, 0.01, 0.02, 0.05, 0.1)
SPAN = 0.6  # tau_end - tau0
ROWS = ("calibration", "lower", "upper", "mid")


class Window(NamedTuple):
    config: str
    eps: float
    tau0: float
    n_cells: int
    dtau: float


class Outcome(NamedTuple):
    """A window's SandwichReport or exception, and per row its accepted
    frames and its Trajectory (None for a row that stopped)."""

    result: object
    frames: list
    trajs: list


def sweep_windows():
    """The 480 windows of the sweep, in a fixed order."""
    for config in CONFIGS:
        yield from itertools.starmap(Window, itertools.product(
            [config], EPSILONS, TAU0S[config], CELLS, DTAUS))


def make_solver(config: str) -> MatchingSolver:
    """The matching solver of the ref or low config."""
    p = ModelParams(3, 0.1, CONFIGS[config], 2.0, theta1_minus=-1.0)
    return MatchingSolver(shoot_v0(p), OuterProfileSet(p, default_thresholds(p)),
                          branch_variant(p.gamma))


@contextlib.contextmanager
def recorded_rows():
    """While active, each pde._solve_rows call counts its rows' accepted
    frames (through their consumers) and keeps their results: yields a
    list of (frames, results) per call."""
    calls, solve_rows = [], pde._solve_rows

    def recorded(p, xi, runs, *args, **kwargs):
        frames = [0] * len(runs)

        def counting(i, consume):
            def counted(delta, W):
                frames[i] += 1
                return consume(delta, W)
            return counted

        runs = [dataclasses.replace(run, consume=counting(i, run.consume))
                for i, run in enumerate(runs)]
        results = solve_rows(p, xi, runs, *args, **kwargs)
        calls.append((frames, results))
        return results

    pde._solve_rows = recorded
    try:
        yield calls
    finally:
        pde._solve_rows = solve_rows


def run_window(solver: MatchingSolver, window: Window) -> Outcome:
    """The sandwich on one window of the solver's config."""
    bars = GluedBarrier(solver, "+", window.eps), GluedBarrier(solver, "-", window.eps)
    with recorded_rows() as calls:
        try:
            result = pde.comparison_sandwich(
                *bars, tau0=window.tau0, tau_end=window.tau0 + SPAN,
                n_cells=window.n_cells, dtau=window.dtau)
        except Exception as exc:  # a bare exception is a finding; the sweep goes on
            result = exc
    frames, results = calls[0] if calls else ([0] * len(ROWS), [None] * len(ROWS))
    trajs = [res if isinstance(res, pde.Trajectory) else None for res in results]
    return Outcome(result, frames, trajs)


def failing_run(exc: Exception) -> str:
    """The run that an error of comparison_sandwich names, or '-'."""
    head = str(exc).split(" run (", 1)
    return head[0] if len(head) == 2 and head[0] in ROWS else "-"


def describe(outcome: Outcome) -> str:
    res = outcome.result
    if isinstance(res, pde.SandwichReport):
        what = (f"{'passed' if res.passed else 'failed'}, tol_rel {res.tol_rel!r}, "
                f"under {res.max_undershoot!r}, over {res.max_overshoot!r}")
    else:
        kind = "" if isinstance(res, errors.FdelabError) else "BARE "
        what = f"{kind}{type(res).__name__} on {failing_run(res)}"
    rows = []
    for name, n, traj in zip(ROWS, outcome.frames, outcome.trajs):
        solver = f"{traj.newton_iters_max} Newton, {traj.cold_retries} cold" if traj else "stopped"
        rows.append(f"{name} {n} ({solver})")
    return f"{what}; {'; '.join(rows)}"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--json", help="write each window's outcome to this file")
    args = parser.parse_args()
    start = time.perf_counter()
    solvers = {config: make_solver(config) for config in CONFIGS}
    counts, took_failing, record = dict(report=0, error=0, bare=0), 0.0, []
    cold, most = 0, 0  # over the rows that finished
    for window in sweep_windows():
        t0 = time.perf_counter()
        outcome = run_window(solvers[window.config], window)
        took = time.perf_counter() - t0
        finished = [traj for traj in outcome.trajs if traj]
        cold += sum(traj.cold_retries for traj in finished)
        most = max([most, *(traj.newton_iters_max for traj in finished)])
        res = outcome.result
        if isinstance(res, pde.SandwichReport):
            counts["report"] += 1
            record.append([list(window), res.to_dict()])
        else:
            counts["error" if isinstance(res, errors.FdelabError) else "bare"] += 1
            took_failing += took
            record.append([list(window), [type(res).__name__, failing_run(res)]])
        print(f"{window.config} eps={window.eps:g} tau0={window.tau0:g} cells={window.n_cells} "
              f"dtau={window.dtau:g}: {describe(outcome)} ({took:.3f} s)")
    print(f"{len(record)} windows in {time.perf_counter() - start:.1f} s: {counts['report']} "
          f"reports, {counts['error']} FdelabErrors ({took_failing:.1f} s), "
          f"{counts['bare']} bare exceptions; finished rows: {cold} cold retries, "
          f"at most {most} Newton iterations in one step")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=0)
    return 0 if counts["bare"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
