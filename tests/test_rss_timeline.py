"""tests/rss_timeline.py reads a fresh command process's peak memory after
each stage, on the 16x4 verify and the simulate smoke configs."""

import pytest

from rss_timeline import IMPORTS, STAGES, timeline

SMOKE = {"n": 3, "m": 0.1, "gamma": 1.5, "A": 2.0, "T": 1.0, "lambda": 1.0,
         "theta1_minus": -1.0}


@pytest.mark.parametrize("args, extra", [
    (("verify",), {"grid_eta": 16, "grid_tau": 4}),
    (("simulate", "--force"),
     {"tau0": 10.0, "tau_end": 10.6, "n_cells": 200, "dtau": 0.01, "eps": 0.018}),
], ids=["verify-16x4", "simulate-smoke"])
def test_timeline_names_every_stage(args, extra):
    rc, marks, peak = timeline(args, dict(SMOKE, **extra))
    assert rc in (0, 1)
    # every stage is read, in call order, and the peak so far never falls
    assert [stage for stage, _ in marks] == [IMPORTS, *(s for s, *_ in STAGES[args[0]])]
    mb = [mb for _, mb in marks]
    assert 0.0 < mb[0] and mb == sorted(mb) and mb[-1] <= peak
