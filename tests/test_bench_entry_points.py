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

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"

# layers of spans.LAYERS that no longer exist in the package; the traced
# run reports them at 0 calls, and no other layer may join them
KNOWN_MISSING = {
    "outer.OuterProfileSet.f_sources",
    "outer.OuterProfileSet.vkj",
    "numerics.integrate_panels",
    "pde._implicit_step",
    "pde.calibrate_tolerance",
    # moved to matching, and importing the CLI no longer loads pde
    "pde.weak_corner_term",
    "numerics.find_root_monotone",
}


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


_WORKLOADS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from run import WORKLOADS
print(json.dumps({name: w.config for name, w in WORKLOADS.items()}))
"""


def _workload_configs() -> dict:
    """The config of every workload in perfbench/run.py, read from the
    driver in a fresh process."""
    proc = _run(["-c", _WORKLOADS, str(BENCH)])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


WORKLOAD_CONFIGS = _workload_configs()


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_probe_builds_every_benchmark_workload(name, tmp_path):
    # the benchmark loads each of these configs; a key the loader rejects
    # or a parameter set it cannot build would stop the benchmark
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(WORKLOAD_CONFIGS[name], sort_keys=True))
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
