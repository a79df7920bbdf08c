"""Deterministic parameter sweep of the inner-profile shoot.

Every case passes validate_params, so the shoot must either return a
profile or raise an FdelabError.  Each profile also round-trips its
inverse: phibar0(inverse(y)) against y on the core, the step table and the
tail, in units of the resolution of phibar0 (ulp(2s) relative on the core
and the table, whose exponent 2s + c Z(s) carries rounding of about
ulp(2s); a plain relative error on the tail), and its table stays within
the last retained term of the far-field expansion (the tail margin,
deviation over last term, below 1).  Each line also gives the most rounds
that one safeguarded Newton solve of the inverse took in the round trip
(selfsim._newton_in_bracket, wrapped here to count them; it allows 60),
and ends with the shoot's accepted steps, rejected step attempts, Newton
iterations and time.  Run the whole sweep (81 cases) with

    PYTHONPATH=src python tests/shoot_sweep.py

tests/test_selfsim.py runs a subset of it.
"""

import contextlib
import itertools
import sys
import time

import numpy as np

from fdelab import errors, selfsim
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
    try:
        return shoot_v0(p)
    except errors.FdelabError as exc:
        return exc


def inverse_round_trip(prof) -> tuple[float, float]:
    """Worst |phibar0(inverse(y)) / y - 1| over core and table points in
    units of ulp(2s), and over tail points as a relative error; phibar0 is
    evaluated on arrays, the inverse point by point."""
    rng = np.random.default_rng(0)
    inner = np.concatenate([
        rng.uniform(prof.s_min - 10.0, prof.s_min, 50),
        rng.uniform(prof.s_min, prof.s_max, 500),
        prof._table.ts[1:-1],
    ])
    tail = np.array([prof.s_max + 1.0, 2.0 * prof.s_max, 1e4])
    worst = []
    for s in (inner, tail):
        y = prof.phibar0(s)
        back = np.array([prof.inverse(v) for v in y.tolist()])
        worst.append(np.abs(prof.phibar0(back) / y - 1.0))
    ulps = np.spacing(2.0 * np.maximum(np.abs(inner), 1.0))
    return float(np.max(worst[0] / ulps)), float(np.max(worst[1]))


@contextlib.contextmanager
def newton_rounds():
    """Count the rounds of selfsim._newton_in_bracket while active: yields
    a one-item list that holds the most rounds (evaluations of F) that one
    call took."""
    most, solve = [0], selfsim._newton_in_bracket

    def counted(fdf, s, lo, hi):
        rounds = 0

        def fdf_counted(x):
            nonlocal rounds
            rounds += 1
            return fdf(x)

        try:
            return solve(fdf_counted, s, lo, hi)
        finally:
            most[0] = max(most[0], rounds)

    selfsim._newton_in_bracket = counted
    try:
        yield most
    finally:
        selfsim._newton_in_bracket = solve


def main() -> int:
    start = time.perf_counter()
    cases = list(sweep_params())
    worst = [0.0, 0.0, 0.0, 0]
    for p in cases:
        t0 = time.perf_counter()
        res = shoot_or_error(p)
        took = time.perf_counter() - t0
        if isinstance(res, errors.FdelabError):
            what, solver = f"{type(res).__name__}: {res}", ""
        else:
            with newton_rounds() as rounds:
                inner, tail = inverse_round_trip(res)
            deviation, last_term = res.tail_deviation()
            margin = deviation / last_term
            worst = [max(worst[0], inner), max(worst[1], tail), max(worst[2], margin),
                     max(worst[3], rounds[0])]
            what = (f"K {res.K:.10g}, tail margin {margin:.3f}, "
                    f"inverse {inner:.2f} ulp(2s), tail {tail:.1e}, "
                    f"at most {rounds[0]} Newton rounds")
            tab = res._table
            solver = (f"{len(tab.h)} steps, {tab.attempts - len(tab.h)} rejected, "
                      f"{tab.newton_iters} Newton, ")
        print(f"n={p.n} m={p.m:.4f} gamma={p.gamma:g} A={p.A:g}: {what} ({solver}{took:.3f} s)")
    print(f"{len(cases)} cases in {time.perf_counter() - start:.1f} s; inverse round trip "
          f"at most {worst[0]:.2f} ulp(2s) on core and table, {worst[1]:.1e} on the tail; "
          f"tail margin at most {worst[2]:.3f}; at most {worst[3]} Newton rounds in one inverse")
    return 0


if __name__ == "__main__":
    sys.exit(main())
