"""tests/rss_timeline.py reads a fresh command process's peak memory after
each stage, on the 16x4 verify and the simulate smoke configs, and runs a
command on a config file with --config."""

import json

import pytest

from rss_timeline import IMPORTS, STAGES, main, timeline

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


def test_config_option_runs_the_command_on_the_file(tmp_path, capsys):
    # --config runs verify by default, --command names another command;
    # each prints its stages in call order and the line of its peak
    verify, simulate = tmp_path / "verify.json", tmp_path / "simulate.json"
    verify.write_text(json.dumps(dict(SMOKE, grid_eta=16, grid_tau=4)))
    simulate.write_text(json.dumps(dict(SMOKE, tau0=10.0, tau_end=10.6, n_cells=200,
                                        dtau=0.01, eps=0.018)))
    for path, command in ((verify, []), (simulate, ["--command", "simulate --force"])):
        assert main(["--config", str(path), *command]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"{path} (exit ")
        stages = [IMPORTS, *(s for s, *_ in STAGES[(command or ["", "verify"])[1].split()[0]])]
        assert [line.split()[0] for line in lines[1:-2]] == [s.split()[0] for s in stages]
        assert lines[-2].split()[0] == "exit" and lines[-1].startswith("  peak at ")


@pytest.mark.parametrize("argv", [["--config", "c.json", "--workload", "verify-ref"],
                                  ["--config", "c.json", "--command", "profile"]])
def test_config_option_rejects_bad_arguments(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
