"""Compare the artifacts that two source trees write for the benchmark
workloads.

    python tests/compare_trees.py OLD_SRC NEW_SRC [--reference REF_SRC] [--out DIR]

Each *_SRC is the `src` directory of a checkout.  The jobs are the
workloads of perfbench/run.py (verify-ref, verify-low, simulate-ref),
`profile` on ref and low, and simulate-smoke, the CLI smoke window of
tests/test_cli.py (200 cells, tau 10 to 10.6), a second sandwich grid.
Each job runs once per tree, one CLI process at a time, into the same
--out directory, since reports embed that path; the artifacts are moved
aside after each run.

For each artifact the script prints whether the two trees wrote identical
bytes.  For a JSON report it lists the fields that differ at all, and
those past 1e-9 relative (perfbench/run.py's drift, the bar for a report
that matches its predecessor).  For a CSV it counts the rows that differ
and gives the largest relative difference of a cell.  With --reference,
a third tree (say one with tighter tolerances) runs the same jobs, and of
the fields past 1e-9 those that moved away from it are listed: a number
whose distance to the reference grew, or any other value that left it.
That is how a deliberate correction shows that it corrects.

The exit status is 0 only when every artifact is identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import REL_TOL, WORKLOADS, Workload, drift  # noqa: E402

JOBS = {
    **WORKLOADS,
    "profile-ref": Workload(("profile",), WORKLOADS["verify-ref"].config),
    "profile-low": Workload(("profile",), WORKLOADS["verify-low"].config),
    "simulate-smoke": Workload(("simulate", "--force"), {
        **WORKLOADS["verify-ref"].config,
        "tau0": 10.0, "tau_end": 10.6, "n_cells": 200, "dtau": 0.01, "eps": 0.018,
    }),
}


def run_job(src: Path, name: str, work: Path, keep: Path) -> str:
    """Run job `name` with the fdelab of `src` into work/out, move what it
    wrote to `keep`, and return a line on how the process ended."""
    wl = JOBS[name]
    out, config = work / "out", work / "config.json"
    config.write_text(json.dumps(wl.config, sort_keys=True))
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "fdelab.cli", *wl.args, "--config", str(config), "--out", str(out)],
        cwd=work, env=env, capture_output=True, text=True, stdin=subprocess.DEVNULL,
    )
    shutil.rmtree(keep, ignore_errors=True)
    shutil.move(str(out), str(keep))
    tail = proc.stderr.strip().splitlines()[-1:] or [""]
    return f"rc {proc.returncode}" + (f" ({tail[0]})" if proc.returncode not in (0, 1) else "")


def leaves(obj, path: str = "$") -> dict:
    """Every scalar of a JSON document by the path that drift names it."""
    if isinstance(obj, dict):
        return {k: v for key in obj for k, v in leaves(obj[key], f"{path}.{key}").items()}
    if isinstance(obj, list):
        return {k: v for i, x in enumerate(obj) for k, v in leaves(x, f"{path}[{i}]").items()}
    return {path: obj}


def _same(a, b) -> bool:
    return type(a) is type(b) and repr(a) == repr(b)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def moved_away(old, new, ref) -> bool:
    """Whether new is further from the reference value than old."""
    if all(_number(x) and math.isfinite(x) for x in (old, new, ref)):
        return abs(new - ref) > abs(old - ref)
    return not _same(new, ref)


def compare_json(old: Path, new: Path, ref: Path | None) -> list[str]:
    a, b = json.loads(old.read_text()), json.loads(new.read_text())
    la, lb = leaves(a), leaves(b)
    differ = [k for k in sorted(set(la) | set(lb)) if k not in la or k not in lb
              or not _same(la[k], lb[k])]
    past = drift(a, b)
    lines = [f"  {len(differ)} fields differ, {len(past)} past {REL_TOL:g} relative"]
    lines += [f"    differs: {k}: {la.get(k)!r} -> {lb.get(k)!r}" for k in differ if k not in past]
    lines += [f"    past:    {k}: {la.get(k)!r} -> {lb.get(k)!r}" for k in past]
    if ref is not None:
        lr = leaves(json.loads(ref.read_text()))
        away = [k for k in past if not (k in la and k in lb and k in lr)
                or moved_away(la[k], lb[k], lr[k])]
        lines.append(f"  {len(away)} of the {len(past)} fields past {REL_TOL:g} moved away "
                     "from the reference")
        lines += [f"    away:    {k}: {la.get(k)!r} -> {lb.get(k)!r} (reference "
                  f"{lr.get(k)!r})" for k in away]
    return lines


def compare_csv(old: Path, new: Path) -> list[str]:
    """Comment lines (#) compared as text, then the table cell by cell."""
    a, b = old.read_text().splitlines(), new.read_text().splitlines()
    notes = [x != y for x, y in zip(a, b) if x.startswith("#") or y.startswith("#")]
    lines = [f"  {sum(notes)} of {len(notes)} comment lines differ"] if any(notes) else []
    a, b = ([row for row in csv.reader(t) if row and not row[0].startswith("#")] for t in (a, b))
    if len(a) != len(b) or a[:1] != b[:1]:
        return lines + [f"  {len(a)} -> {len(b)} rows, header {a[:1]} -> {b[:1]}"]
    rows, worst = 0, 0.0
    for ra, rb in zip(a[1:], b[1:]):
        if ra == rb:
            continue
        rows += 1
        for x, y in zip(ra, rb):
            if x != y:
                try:
                    x, y = float(x), float(y)
                    worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
                except (ValueError, ZeroDivisionError):
                    worst = math.inf
    return lines + [f"  {rows} of {len(a) - 1} rows differ, largest cell difference "
                    f"{worst:.3g} relative"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="src directory of the old tree")
    parser.add_argument("new", type=Path, help="src directory of the new tree")
    parser.add_argument("--reference", type=Path, help="src directory of a reference tree")
    parser.add_argument("--out", type=Path,
                        help="work directory (default: a temporary one, removed at the end)")
    args = parser.parse_args(argv)
    trees = {"old": args.old, "new": args.new}
    if args.reference is not None:
        trees["reference"] = args.reference
    for src in trees.values():
        if not (src / "fdelab" / "cli.py").is_file():
            parser.error(f"no fdelab sources under {src}")
    with tempfile.TemporaryDirectory() as tmp:
        base = (args.out or Path(tmp)).resolve()
        identical = True
        for name in JOBS:
            work = base / name
            work.mkdir(parents=True, exist_ok=True)
            ended = {label: run_job(src.resolve(), name, work, work / label)
                     for label, src in trees.items()}
            print(f"{name}: " + ", ".join(f"{k} {v}" for k, v in ended.items()))
            names = sorted({p.name for label in ("old", "new") for p in (work / label).iterdir()})
            for artifact in names:
                old, new = work / "old" / artifact, work / "new" / artifact
                if not (old.is_file() and new.is_file()):
                    identical = False
                    print(f"{artifact}: written by the {'new' if new.is_file() else 'old'} "
                          "tree only")
                    continue
                same = old.read_bytes() == new.read_bytes()
                identical &= same
                print(f"{artifact}: {'identical' if same else 'DIFFERS'}")
                if same:
                    continue
                if artifact.endswith(".json"):
                    ref = work / "reference" / artifact
                    print("\n".join(compare_json(old, new, ref if ref.is_file() else None)))
                elif artifact.endswith(".csv"):
                    print("\n".join(compare_csv(old, new)))
    print("all artifacts identical" if identical else "artifacts differ")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
