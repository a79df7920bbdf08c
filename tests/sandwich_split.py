"""Where the time of a simulate run goes, measured in process.

    PYTHONPATH=src python tests/sandwich_split.py [--runs N]

Runs the simulate-ref workload of perfbench/run.py (`simulate --force` on
the reference config) N times (default 5) through fdelab.cli.main in this
process, into a temporary directory, with timers around the command and
around pde._solve_rows, comoving._step_rows (one backward-Euler step of
all rows), pde._barrier_W, the Newton start comoving._extrapolated (the
smooth four-frame extrapolant; the other steps start from the last frame)
and pde.SandwichReport.to_csv.  Each line gives a name's median wall time
per run, inclusive of what it calls, and its calls per run.  The last lines
give each row's Newton iterations (summed and most in one step) in the
last run.  The first run also compiles and imports fdelab.pde and
fdelab.comoving.  The exit status is 2 if one of the wrapped names is
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402

from fdelab import cli, comoving, pde  # noqa: E402

WRAPPED = {  # printed name -> (owner, attribute)
    "_solve_rows": (pde, "_solve_rows"),
    "_step_rows": (comoving, "_step_rows"),
    "_barrier_W": (pde, "_barrier_W"),
    "_extrapolated": (comoving, "_extrapolated"),
    "to_csv": (pde.SandwichReport, "to_csv"),
}


ROWS = ("calibration", "lower", "upper", "mid")  # the rows of the joint solve


def timed(fn, seconds: list, calls: list, results: list | None = None):
    """fn with each call's wall time added to seconds[0] and counted in
    calls[0]; with results, its last return value kept in results[0]."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
            if results is not None:
                results[:] = [value]
            return value
        finally:
            seconds[0] += time.perf_counter() - start
            calls[0] += 1

    return wrapper


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="simulate runs (default 5)")
    args = parser.parse_args(argv)
    missing = [name for name, (owner, attr) in WRAPPED.items() if not hasattr(owner, attr)]
    if missing:
        print(f"missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    totals = {name: ([0.0], [0]) for name in ("command", *WRAPPED)}
    solved = []  # the last _solve_rows result: per row its Trajectory or error
    for name, (owner, attr) in WRAPPED.items():
        setattr(owner, attr, timed(getattr(owner, attr), *totals[name],
                                   solved if name == "_solve_rows" else None))
    wl = WORKLOADS["simulate-ref"]
    per_run = {name: [] for name in totals}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(wl.config, sort_keys=True))
        command = timed(cli.main, *totals["command"])
        for _ in range(args.runs):
            before = {name: (s[0], c[0]) for name, (s, c) in totals.items()}
            with contextlib.redirect_stdout(io.StringIO()):  # the command's own report line
                rc = command([*wl.args, "--config", str(config), "--out", str(Path(tmp) / "out")])
            if rc not in (0, 1):
                print(f"simulate exited {rc}", file=sys.stderr)
                return rc
            for name, (s, c) in totals.items():
                per_run[name].append((s[0] - before[name][0], c[0] - before[name][1]))
    print(f"simulate-ref, median of {args.runs} in-process runs")
    for name, runs in per_run.items():
        ms = statistics.median(s for s, _ in runs) * 1e3
        print(f"  {name:<13} {ms:8.1f} ms  {statistics.median(c for _, c in runs):7.0f} calls")
    print("Newton iterations per row (summed, most in one step)")
    for row, traj in zip(ROWS, solved[0]):
        iters = (f"{traj.newton_iters:7d} {traj.newton_iters_max:4d}"
                 if isinstance(traj, pde.Trajectory) else type(traj).__name__)
        print(f"  {row:<13} {iters}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
