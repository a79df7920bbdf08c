"""Deterministic parameter sweep of the inner-profile shoot.

Every case passes validate_params, so the shoot must either return a
profile or raise an FdelabError.  Run the whole sweep (81 cases) with

    PYTHONPATH=src python tests/shoot_sweep.py

tests/test_selfsim.py runs a subset of it.
"""

import itertools
import sys
import time
import warnings

from fdelab import errors
from fdelab.params import ModelParams
from fdelab.selfsim import shoot_v0

N_VALUES = (3, 4, 6)
M_FRACTIONS = (0.05, 0.5, 0.95)  # of the critical exponent (n - 2) / (n + 2)
GAMMAS = (0.3, 1.5, 3.0)
AS = (1.05, 2.0, 5.0)


def sweep_params():
    """The 81 parameter sets of the sweep, in a fixed order."""
    for n, frac, gamma, A in itertools.product(N_VALUES, M_FRACTIONS, GAMMAS, AS):
        yield ModelParams(n, frac * (n - 2) / (n + 2), gamma, A)


def shoot_or_error(p):
    """The shot profile, or the FdelabError the shoot raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", errors.SlopeNotConverged)
        try:
            return shoot_v0(p)
        except errors.FdelabError as exc:
            return exc


def main() -> int:
    start = time.perf_counter()
    cases = list(sweep_params())
    for p in cases:
        t0 = time.perf_counter()
        res = shoot_or_error(p)
        took = time.perf_counter() - t0
        what = (f"{type(res).__name__}: {res}" if isinstance(res, errors.FdelabError)
                else f"{len(res._table.h)} steps, K1 {res.fit.K1:.10g}")
        print(f"n={p.n} m={p.m:.4f} gamma={p.gamma:g} A={p.A:g}: {what} ({took:.3f} s)")
    print(f"{len(cases)} cases in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
