"""Command-line plumbing: dry runs, gating, and error exits."""

import json
import math
import os
from pathlib import Path

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


GOLDEN = Path(__file__).parent / "data"
REL_TOL = 1e-9


def assert_matches(got, want, where="report"):
    """bool/int/str/None fields equal, floats within REL_TOL relative."""
    if isinstance(want, float) and isinstance(got, float):
        same = got == want or (math.isnan(got) and math.isnan(want))
        assert same or abs(got - want) <= REL_TOL * max(abs(got), abs(want)), (
            f"{where}: {got!r} != {want!r}"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def assert_report_matches(path, out, golden: str):
    """Compare a JSON report with its golden, artifact paths taken relative
    to the --out directory."""
    report = json.loads(path.read_text())
    report["artifacts"] = [os.path.relpath(a, out) for a in report["artifacts"]]
    assert_matches(report, json.loads((GOLDEN / golden).read_text()))


def _csv_cells(text: str):
    header, *rows = text.splitlines()
    return [header.split(",")] + [[float(v) for v in row.split(",")] for row in rows]


@pytest.mark.filterwarnings("ignore::fdelab.errors.SlopeNotConverged")
def test_verify_end_to_end_is_reproducible(tmp_path):
    # small grids keep the whole checklist quick; a rerun rewrites the same
    # bytes, and both reports match the goldens (ref: psi3; low: gamma 0.5,
    # psi4 with its correction rows)
    for name, gamma in (("ref", 1.5), ("low", 0.5)):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(dict(SMOKE, gamma=gamma, grid_eta=16, grid_tau=4)))
        out = tmp_path / f"runs-{name}"
        argv = ["verify", "--config", str(config), "--out", str(out)]
        rc = main(argv)
        assert rc in (0, 1)
        (path,) = out.glob("verify-*.json")
        first = path.read_bytes()
        report = json.loads(first)
        assert [c["name"] for c in report["checks"]] == VERIFY_CHECKS
        assert report["all_passed"] == (rc == 0)
        assert main(argv) == rc
        assert path.read_bytes() == first
        assert_report_matches(path, out, f"verify-{name}-16x4.json")


def profile_summary(out) -> dict:
    """The parts of a `profile` run pinned by the goldens: the derived
    constants, the header and every 20th row of the profile table, and the
    two header lines of the self-similar table."""
    (derived,) = out.glob("derived-*.json")
    (profiles,) = out.glob("profiles-*.csv")
    (selfsim,) = out.glob("selfsim-*.csv")
    header, *rows = _csv_cells(profiles.read_text())
    comment, columns = selfsim.read_text().splitlines()[:2]
    assert comment.startswith("# ")
    return {
        "derived": json.loads(derived.read_text()),
        "profiles_header": header,
        "profiles_rows": rows[::20],
        "selfsim_header": json.loads(comment[2:]),
        "selfsim_columns": columns,
    }


@pytest.mark.filterwarnings("ignore::fdelab.errors.SlopeNotConverged")
@pytest.mark.parametrize("name, gamma", [("ref", 1.5), ("low", 0.5)])
def test_profile_matches_golden(name, gamma, tmp_path):
    # ref tabulates psi3, low psi4 with its correction rows
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMOKE, gamma=gamma)))
    out = tmp_path / "runs"
    assert main(["profile", "--config", str(config), "--out", str(out)]) == 0
    want = json.loads((GOLDEN / f"profile-{name}.json").read_text())
    assert_matches(profile_summary(out), want, f"profile-{name}")


@pytest.mark.filterwarnings("ignore::fdelab.errors.SlopeNotConverged")
def test_simulate_end_to_end_is_reproducible(tmp_path):
    # a 0.6-tau window passes the sandwich but spans too few decades for
    # the extinction-rate fit; a rerun rewrites the same bytes, and the
    # report and trajectory match the goldens
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
    assert_report_matches(report_path, out, "simulate-smoke.json")
    assert_matches(
        _csv_cells(csv_path.read_text()),
        _csv_cells((GOLDEN / "trajectory-smoke.csv").read_text()),
        "trajectory",
    )
