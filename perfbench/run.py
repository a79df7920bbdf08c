"""fdelab benchmark driver.

    python3 perfbench/run.py --workload verify-ref --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each repetition runs the CLI as a
fresh `python -m fdelab.cli ...` process against the checkout's `src/`, one
process at a time (one closed-loop client; the driver starts no threads).

--trace 0 measures the end-to-end metrics: set-up time (median of cold
probe processes), then wall time and peak RSS of the command process,
repeated while another repetition still fits in --seconds (at least one).
Times are rescaled to a reference CPU speed measured while the process runs
(see run_process); the plain wall time is printed beside them.
--trace 1 runs the command once untraced and once under perfbench/spans.py
and reports the per-layer metrics.

Every repetition is checked: exit code 0 or 1, a report written, no
traceback other than an fdelab error, and artifacts byte-identical to the
first run of the workload in this checkout.  The last stdout line is one
JSON object with keys correct, attempted, failed and metrics.  The workloads
are fixed parameter sets, so --seed selects nothing; it is echoed only.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference"

sys.path.insert(0, str(HERE))
from spans import PER_LAYER, layer_metrics  # noqa: E402

REF = {"n": 3, "m": 0.1, "gamma": 1.5, "A": 2.0, "T": 1.0, "lambda": 1.0,
       "theta1_minus": -1.0}


@dataclass(frozen=True)
class Workload:
    args: tuple  # CLI arguments before --config; args[0] names the report
    config: dict


WORKLOADS = {
    # the reference config at default grids: time goes to the vectorised
    # outer evaluator and the 112-rung threshold ladder; no vkj calls
    "verify-ref": Workload(("verify",), REF),
    # psi4 with correction rows k=3,4: the only workload calling outer.vkj;
    # half grids keep one run near 30 s with the same verdicts and ladder
    "verify-low": Workload(("verify",), {**REF, "gamma": 0.5, "grid_eta": 100,
                                         "grid_tau": 20}),
    # many tiny phibar0/wbar calls inside Newton steps, the pde solver and
    # the solve_matching memo; tau0/eps are verify-ref's recommended values
    # at the seed, so no verify report is needed (verify exits 1 today)
    "simulate-ref": Workload(("simulate", "--force"),
                             {**REF, "tau0": 10.0, "eps": 0.018066406177734376}),
}

END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "checks_passed": "count"}
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run must end within 180 s
REL_TOL = 1e-9  # float agreement bar for the reference reports


# -- processes -----------------------------------------------------------------

# On a shared host the speed of a core can drift by tens of percent within
# minutes, and the command's CPU time drifts with it.  So a measured process is
# paused (SIGSTOP) every PAUSE_EVERY_S while the driver times a fixed numpy
# kernel; each running segment is rescaled by the speed measured right after
# it.  Reported times are seconds at REF_CALLS_PER_S kernel calls per second.
PAUSE_EVERY_S = 0.5
CALIBRATE_S = 0.05
POLL_S = 0.002  # exit-detection granularity
REF_CALLS_PER_S = 2000.0
_X = np.linspace(1.0, 2.0, 2000)
_Y = np.linspace(1.0, 2.0, 24)


def _kernel() -> float:
    # half vector arithmetic, half small-array calls bound by the interpreter,
    # the two kinds of work the workloads mix
    acc = 0.0
    for i in range(15):
        acc += float(np.sum(np.exp(-_X * (i * 1e-3)) * np.log1p(_X)))
    for i in range(60):
        acc += float(np.log1p(_Y[i % 8:] * (1.0 + i * 1e-3)).sum())
    return acc


def speed() -> float:
    """Calibration kernel calls per second on this core, right now."""
    start = time.perf_counter()
    calls = 0
    while time.perf_counter() - start < CALIBRATE_S:
        _kernel()
        calls += 1
    return calls / (time.perf_counter() - start)


@dataclass
class Proc:
    rc: int
    wall_s: float  # running time, pauses excluded
    ref_s: float  # wall_s rescaled to the reference speed (0 when not calibrated)
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def run_process(argv, env, log_dir: Path, deadline: float, calibrate: bool) -> Proc:
    """Run argv from ROOT and wait for it; rusage is the child's own
    (os.wait4), not RUSAGE_CHILDREN's maximum over every child so far.
    A child still running at the deadline is killed (rc -9)."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    wall = ref = 0.0
    status = usage = None
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        seg = now = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        try:
            while status is None and now < deadline:
                time.sleep(POLL_S)
                pid, st, ru = os.wait4(proc.pid, os.WNOHANG)
                now = time.perf_counter()
                if pid:
                    status, usage = st, ru
                elif calibrate and now - seg >= PAUSE_EVERY_S:
                    os.kill(proc.pid, signal.SIGSTOP)
                    wall += now - seg
                    ref += (now - seg) * speed() / REF_CALLS_PER_S
                    os.kill(proc.pid, signal.SIGCONT)
                    seg = time.perf_counter()
        finally:
            if status is None:  # deadline passed, or the driver is being stopped
                os.kill(proc.pid, signal.SIGKILL)  # also ends a stopped process
                _, _, usage = os.wait4(proc.pid, 0)
                now = time.perf_counter()
        wall += now - seg
        if calibrate:
            ref += (now - seg) * speed() / REF_CALLS_PER_S
    proc.returncode = -9 if status is None else os.waitstatus_to_exitcode(status)
    return Proc(
        rc=proc.returncode,
        wall_s=wall,
        ref_s=ref,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


# -- output checks -------------------------------------------------------------


def uncaught_exception(stderr: str) -> str | None:
    """Last line of a traceback that is not an fdelab error, else None."""
    if "Traceback (most recent call last)" not in stderr:
        return None
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    last = lines[-1] if lines else ""
    return None if last.startswith("fdelab.errors.") else last


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def check_run(wl: Workload, proc: Proc, out: Path, first: Path):
    """(report, problems) for one command process."""
    problems = []
    if proc.rc not in (0, 1):
        problems.append(f"exit code {proc.rc}")
    exc = uncaught_exception(proc.stderr)
    if exc:
        problems.append(f"uncaught {exc}")
    stem = wl.args[0]
    reports = sorted(out.glob(f"{stem}-*.json"))
    if len(reports) != 1:
        problems.append(f"{len(reports)} {stem} reports written")
        return None, problems
    report = json.loads(reports[0].read_text())
    if not report.get("checks"):
        problems.append("report lists no checks")
    if first.is_dir():
        if not same_files(first, out):
            problems.append("artifacts differ from the first run of this workload")
    elif not problems:
        shutil.copytree(out, first)
    return report, problems


def report_figures(report: dict) -> dict:
    checks = report.get("checks", [])
    figures = {
        "checks_passed": sum(1 for c in checks if c.get("passed") is True),
        "checks_failed": sum(1 for c in checks if c.get("passed") is not True),
        "rate_rel_err": 0.0,
    }
    for c in checks:
        if c.get("name") == "extinction-rate":
            fit, expected = c["details"]["fit"], c["details"]["expected"]
            figures["rate_rel_err"] = abs(float(fit["exponent"]) / expected - 1.0)
    return figures


def drift(ref, new, path: str = "$") -> list[str]:
    """Paths where `new` leaves the reference at the reproducibility bar:
    bool/int/str equal, floats within REL_TOL relative."""
    if isinstance(ref, dict) and isinstance(new, dict):
        out = []
        for key in sorted(set(ref) | set(new)):
            if key not in ref or key not in new:
                out.append(f"{path}.{key}")
            else:
                out += drift(ref[key], new[key], f"{path}.{key}")
        return out
    if isinstance(ref, list) and isinstance(new, list):
        if len(ref) != len(new):
            return [f"{path}[len]"]
        out = []
        for i, (a, b) in enumerate(zip(ref, new)):
            out += drift(a, b, f"{path}[{i}]")
        return out
    if isinstance(ref, float) or isinstance(new, float):
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (ref, new))
        if numeric and abs(ref - new) <= REL_TOL * max(abs(ref), abs(new)):
            return []
        return [path]
    return [] if (type(ref) is type(new) and ref == new) else [path]


# -- runs ----------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list):
        self.attempted += 1
        self.problems += [f"{label}: {p}" for p in problems]

    @property
    def failed(self) -> int:
        return len({p.split(":", 1)[0] for p in self.problems})


def measure(name: str, seconds: float, trace: bool, deadline: float) -> tuple[Tally, dict]:
    wl = WORKLOADS[name]
    home = WORK / name
    out, first, logs = home / "out", home / "first", home / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    config = home / "config.json"
    config.write_text(json.dumps(wl.config, sort_keys=True))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cli = [*wl.args, "--config", str(config.relative_to(ROOT)),
           "--out", str(out.relative_to(ROOT))]
    tally = Tally()
    reports = []

    def command(label: str, prefix=("-m", "fdelab.cli"), calibrate=True):
        # a fresh directory each time, as verify creates it before simulate
        # runs there; Trajectory.to_csv does not create a missing directory
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        proc = run_process([sys.executable, *prefix, *cli], env, logs, deadline, calibrate)
        report, problems = check_run(wl, proc, out, first)
        tally.record(label, problems)
        if report is not None:
            reports.append(report)
        print(f"{label}: rc {proc.rc}, {proc.wall_s:.3f} s wall, {proc.ref_s:.3f} s at "
              f"reference speed, {proc.cpu_s:.3f} s cpu, {proc.rss_mb:.1f} MB"
              + "".join(f"; {p}" for p in problems))
        return proc

    if trace:
        # no calibration pauses: a paused process would count them in its spans
        plain = command("untraced", calibrate=False)
        stats_path = home / "spans.json"
        stats_path.unlink(missing_ok=True)
        traced = command("traced", (str(HERE / "spans.py"), str(stats_path), "--"), False)
        if not stats_path.is_file():
            tally.problems.append("traced: no span statistics written")
            return tally, {k: 0 for k in PER_LAYER}
        dump = json.loads(stats_path.read_text())
        if dump["missing"]:
            print("layers not found (0 calls): " + ", ".join(dump["missing"]))
        values = layer_metrics(dump, traced.wall_s, plain.wall_s)
        if reports:
            figures = report_figures(reports[0])
            values["report.checks_failed"] = figures["checks_failed"]
            values["report.rate_rel_err"] = figures["rate_rel_err"]
        return tally, {k: values.get(k, 0) for k in PER_LAYER}

    setup, env_line = [], ""
    for i in range(SETUP_SAMPLES):
        proc = run_process([sys.executable, str(HERE / "probe.py"), str(config), str(SRC)],
                           env, logs, deadline, True)
        problems = [] if proc.rc == 0 else [f"exit code {proc.rc}: {proc.stderr.strip()[-300:]}"]
        tally.record(f"setup {i + 1}", problems)
        if proc.rc == 0:
            setup.append(proc.ref_s)
            env_line = proc.stdout.strip().splitlines()[-1]
    print(f"environment: {env_line}")

    walls, refs, rss = [], [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        proc = command(f"run {len(walls) + 1}")
        took = time.perf_counter() - start
        walls.append(proc.wall_s)
        refs.append(proc.ref_s)
        rss.append(proc.rss_mb)
        # another repetition only if it is expected to end within --seconds
        if time.perf_counter() - begin + took > seconds or time.perf_counter() + 2 * took > deadline:
            break

    print(f"wall_s {statistics.median(walls)!r} s")
    values = {
        "wall_ref_s": statistics.median(refs),
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mb": statistics.median(rss),
    }
    if reports:
        figures = report_figures(reports[0])
        values["checks_passed"] = figures["checks_passed"]
        print(f"checks_failed {figures['checks_failed']} count")
        if wl.args[0] == "simulate":
            print(f"rate_rel_err {figures['rate_rel_err']!r} ratio")
        ref_path = REFERENCE / f"{name}.json"
        if ref_path.is_file():
            moved = drift(json.loads(ref_path.read_text()), reports[0])
            shown = ", ".join(moved[:12]) + (" ..." if len(moved) > 12 else "")
            print(f"drift from {ref_path.relative_to(ROOT)}: {len(moved)} fields"
                  + (f": {shown}" if moved else ""))
    return tally, {k: values.get(k, 0) for k in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    # a stopped driver still ends its child: run_process cleans up on exit
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fdelab" / "cli.py").is_file():
        print(f"no fdelab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed} (fixed parameter set), "
          f"seconds {args.seconds:g}, trace {args.trace}")
    tally, values = measure(args.workload, args.seconds, bool(args.trace),
                            start + DEADLINE_S)
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    finite = all(math.isfinite(v) for v in values.values())
    metrics = {k: {"value": v if math.isfinite(v) else 0.0, "unit": units[k]}
               for k, v in values.items()}
    print(json.dumps({
        "correct": tally.failed == 0 and finite,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
