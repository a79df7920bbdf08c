"""Command-line plumbing: dry runs, gating, and error exits."""

import json

import pytest

from fdelab.cli import main

SMOKE = {
    "n": 3, "m": 0.1, "gamma": 1.5, "A": 2.0,
    "T": 1.0, "lambda": 1.0, "theta1_minus": -1.0,
}


@pytest.fixture()
def smoke_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMOKE))
    return str(path)


@pytest.mark.parametrize("command", ["profile", "verify", "simulate", "report"])
def test_dry_run_plans_without_writing(command, smoke_config, tmp_path, capsys):
    out = tmp_path / "runs"
    rc = main([command, "--config", smoke_config, "--out", str(out), "--dry-run"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "would" in captured.out
    assert not out.exists()


def test_simulate_gated_on_verification(smoke_config, tmp_path, capsys):
    rc = main(["simulate", "--config", smoke_config, "--out", str(tmp_path / "runs")])
    assert rc == 2
    assert "run verify first or pass --force" in capsys.readouterr().err


def test_report_requires_artifacts(smoke_config, tmp_path, capsys):
    rc = main(["report", "--config", smoke_config, "--out", str(tmp_path / "runs")])
    assert rc == 2
    assert "no artifacts" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    rc = main(["verify", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc = main(["verify", "--config", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_out_of_range_parameters(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(SMOKE, m=0.9)))
    rc = main(["verify", "--config", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_config_must_name_required_keys(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"n": 3, "m": 0.1}))
    rc = main(["profile", "--config", str(path)])
    assert rc == 2
    assert "missing required keys" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


VERIFY_CHECKS = [
    "selfsim-tail", "outer-thresholds-plus", "outer-thresholds-minus",
    "epsilon-window", "matching-order", "matching-limits",
    "corner-plus", "corner-minus", "barrier-ordering", "inner-signs",
    "weak-corner-plus", "weak-corner-minus",
]


@pytest.mark.filterwarnings("ignore::fdelab.errors.SlopeNotConverged")
def test_verify_end_to_end_is_reproducible(smoke_config, tmp_path):
    # small grids keep the whole checklist quick; a rerun rewrites the same bytes
    out = tmp_path / "runs"
    argv = ["verify", "--config", smoke_config, "--out", str(out),
            "--grid-eta", "16", "--grid-tau", "4"]
    rc = main(argv)
    assert rc in (0, 1)
    (path,) = out.glob("verify-*.json")
    first = path.read_bytes()
    report = json.loads(first)
    assert [c["name"] for c in report["checks"]] == VERIFY_CHECKS
    assert report["all_passed"] == (rc == 0)
    assert main(argv) == rc
    assert path.read_bytes() == first


@pytest.mark.filterwarnings("ignore::fdelab.errors.SlopeNotConverged")
def test_simulate_end_to_end_is_reproducible(tmp_path):
    # a 0.6-tau window passes the sandwich but spans too few decades for
    # the extinction-rate fit; a rerun rewrites the same bytes
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(
        SMOKE, tau0=10.0, tau_end=10.6, n_cells=200, dtau=0.01, eps=0.018,
    )))
    out = tmp_path / "runs"
    argv = ["simulate", "--force", "--config", str(config), "--out", str(out)]
    assert main(argv) == 1
    (report_path,) = out.glob("simulate-*.json")
    (csv_path,) = out.glob("trajectory-*.csv")
    first = report_path.read_bytes(), csv_path.read_bytes()
    report = json.loads(first[0])
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [
        ("sandwich", True), ("extinction-rate", False),
    ]
    assert report["all_passed"] is False
    assert main(argv) == 1
    assert (report_path.read_bytes(), csv_path.read_bytes()) == first
