"""The benchmark harness's calls into the package.

perfbench/ drives the package through fixed entry points: probe.py builds
one workload's shared objects, and spans.py wraps a fixed list of layers
for the traced run.  Both run here against this tree in a fresh process,
so a change of a name or signature they use fails tier-1.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"

REF = {"n": 3, "m": 0.1, "gamma": 1.5, "A": 2.0, "T": 1.0, "lambda": 1.0,
       "theta1_minus": -1.0}

# layers of spans.LAYERS that no longer exist in the package; the traced
# run reports them at 0 calls, and no other layer may join them
KNOWN_MISSING = {
    "outer.OuterProfileSet.f_sources",
    "outer.OuterProfileSet.vkj",
    "numerics.integrate_panels",
    "pde._implicit_step",
    "pde.calibrate_tolerance",
}


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


def test_probe_builds_the_reference_workload(tmp_path):
    config = tmp_path / "ref.json"
    config.write_text(json.dumps(REF))
    proc = _run([str(BENCH / "probe.py"), str(config), str(SRC)])
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    assert set(json.loads(line)) == {"python", "numpy", "scipy", "fdelab", "nproc"}


_INSTALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
import fdelab.cli
import spans
print(json.dumps(spans.install(spans.Recorder())))
"""


def test_traced_layers_exist():
    proc = _run(["-c", _INSTALL, str(BENCH)])
    assert proc.returncode == 0, proc.stderr
    missing = json.loads(proc.stdout.splitlines()[-1])
    assert set(missing) <= KNOWN_MISSING
