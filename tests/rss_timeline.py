"""Which stage of a command holds its peak memory, measured in a fresh process.

    PYTHONPATH=src python tests/rss_timeline.py [--workload NAME ...]
    PYTHONPATH=src python tests/rss_timeline.py --config PATH [--command ARGS]

Runs each named workload of perfbench/run.py (default: all of them) once,
or with --config the command ARGS (default "verify", or say "simulate
--force") once on the JSON config at PATH, such as a verify at refined
grids.  Each run is a fresh Python process that calls fdelab.cli.main
with the command's report lines sent to os.devnull.  The process reads
its ru_maxrss after the imports and after each stage returns: shoot
(selfsim.shoot_v0), tail check (verify_tail_asymptotics), thresholds
(find_thresholds), inner
verdict (verify_inner), sandwich rows (pde._solve_rows), fits
(pde.extinction_rate), CSV (SandwichReport.to_csv) and report
(reporting.write_json).  verify runs the first four stages, simulate the
shoot and the last three; both end with the report.  A stage called more
than once is read after its last call.  Each line gives a stage, the peak
so far in MB and its growth over the line before; the last line, exit,
is the peak of the whole process (os.wait4), interpreter exit included,
and `peak at` names the first line that reached it.  The exit status is 2 if a
wrapped name is missing or a command exits other than 0 or 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402

IMPORTS = "imports"
STAGES = {  # command -> (stage, module, attribute path) in call order
    "verify": (
        ("shoot", "fdelab.cli", "shoot_v0"),
        ("tail check", "fdelab.cli", "verify_tail_asymptotics"),
        ("thresholds", "fdelab.cli", "find_thresholds"),
        ("inner verdict", "fdelab.cli", "verify_inner"),
        ("report", "fdelab.cli", "write_json"),
    ),
    "simulate": (
        ("shoot", "fdelab.cli", "shoot_v0"),
        ("sandwich rows", "fdelab.pde", "_solve_rows"),
        ("fits", "fdelab.pde", "extinction_rate"),
        ("CSV", "fdelab.pde", "SandwichReport.to_csv"),
        ("report", "fdelab.cli", "write_json"),
    ),
}

# The measured process: argv is the stages as JSON, then the marks file and
# the CLI arguments.  It imports only what the command imports (fdelab.pde
# only for a stage of it) before its first reading.
_CHILD = """
import contextlib, importlib, json, os, resource, sys

stages, marks_path, argv = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3:]
from fdelab import cli
owners = []
for stage, module, path in stages:
    *owner_path, attr = path.split(".")
    owner = importlib.import_module(module)
    for name in owner_path:
        owner = getattr(owner, name, None)
    if not hasattr(owner, attr):
        print(f"missing: {module}.{path}", file=sys.stderr)
        sys.exit(2)
    owners.append((stage, owner, attr))
marks = {}

def mark(stage):
    marks.pop(stage, None)  # a stage is read after its last call
    marks[stage] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

def after(fn, stage):
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            mark(stage)
    return wrapper

mark(%r)
for stage, owner, attr in owners:
    setattr(owner, attr, after(getattr(owner, attr), stage))
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
    rc = cli.main(argv)
with open(marks_path, "w") as fh:
    json.dump(list(marks.items()), fh)
sys.exit(rc)
""" % IMPORTS


def timeline(args, config: dict) -> tuple[int, list, float]:
    """(exit code, [(stage, peak so far in MB)] in stage order, the
    process's peak in MB) for the CLI command args (args[0] names it) on
    config, run in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    stages = json.dumps(STAGES[args[0]])
    with tempfile.TemporaryDirectory() as tmp:
        config_path, marks_path = Path(tmp) / "config.json", Path(tmp) / "marks.json"
        config_path.write_text(json.dumps(config, sort_keys=True))
        argv = [sys.executable, "-c", _CHILD, stages, str(marks_path),
                *args, "--config", str(config_path), "--out", str(Path(tmp) / "out")]
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        marks = json.loads(marks_path.read_text()) if marks_path.exists() else []
    return rc, [(stage, kb / 1024.0) for stage, kb in marks], usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--config", type=Path, help="JSON config to run instead of the workloads")
    parser.add_argument("--command", default="verify",
                        help='CLI arguments before --config, with --config (default "verify")')
    args = parser.parse_args(argv)
    if args.config is not None and args.workload:
        parser.error("--config and --workload exclude each other")
    if args.config is not None:
        command = tuple(shlex.split(args.command))
        if not command or command[0] not in STAGES:
            parser.error(f"--command must start with one of {sorted(STAGES)}")
        runs = [(str(args.config), command, json.loads(args.config.read_text()))]
    else:
        runs = [(name, WORKLOADS[name].args, WORKLOADS[name].config)
                for name in args.workload or WORKLOADS]
    for name, command, config in runs:
        rc, marks, peak = timeline(command, config)
        if rc not in (0, 1):
            print(f"{name}: exited {rc}", file=sys.stderr)
            return 2
        print(f"{name} (exit {rc}), ru_maxrss in MB")
        rows = [*marks, ("exit", peak)]
        last = 0.0
        for stage, mb in rows:
            print(f"  {stage:<14} {mb:7.2f}  {mb - last:+7.2f}")
            last = mb
        print(f"  peak at {next(stage for stage, mb in rows if mb == peak)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
