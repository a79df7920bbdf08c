"""Set-up probe: import fdelab and build one workload's shared objects.

Run as a fresh process per sample; its wall time from spawn to exit is one
`setup_s` sample.  Prints the environment as one JSON line.

    PYTHONPATH=src python3 perfbench/probe.py CONFIG.json SRC_DIR
"""

import json
import os
import sys


def main(config: str, src: str) -> int:
    import numpy
    import scipy

    import fdelab
    from fdelab.matching import MatchingSolver
    from fdelab.outer import OuterProfileSet, branch_variant
    from fdelab.params import load_config
    from fdelab.selfsim import shoot_v0

    origin = os.path.realpath(fdelab.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        print(f"fdelab imported from {origin}, not from {src}", file=sys.stderr)
        return 3
    p, cfg, _ = load_config(config)
    outer = OuterProfileSet(p, cfg)
    MatchingSolver(shoot_v0(p), outer, branch_variant(p.gamma))
    print(json.dumps({
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fdelab": fdelab.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
