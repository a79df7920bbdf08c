"""Command-line plumbing: dry runs, gating, and error exits."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fdelab import errors, residuals
from fdelab.cli import main
from fdelab.params import load_config
from fdelab.reporting import canonical_json, config_hash

SMOKE = {
    "n": 3, "m": 0.1, "gamma": 1.5, "A": 2.0,
    "T": 1.0, "lambda": 1.0, "theta1_minus": -1.0,
}


@pytest.fixture()
def smoke_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMOKE))
    return str(path)


@pytest.mark.parametrize("extra", [
    {}, {"grid_eta": 16, "grid_tau": 4},
    {"tau0": 10.0, "tau_end": 10.6, "n_cells": 200, "dtau": 0.01, "eps": 0.018},
], ids=["smoke", "verify-16x4", "simulate-smoke"])
def test_config_hash_is_the_sha256_of_the_canonical_config(tmp_path, extra):
    # the built-in sha256 that config_hash uses gives hashlib's digest, so
    # artifact names do not depend on which module computed it
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMOKE, **extra)))
    p, cfg, extras = load_config(str(path))
    payload = {"params": dataclasses.asdict(p), "thresholds": dataclasses.asdict(cfg),
               "extras": extras}
    want = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()[:12]
    assert config_hash(p, cfg, extras) == want


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


# each of these ended in a bare TypeError, ValueError or numpy error
# traceback, ran n = 3.5 as n = 3, or (m = 1) divided by zero
@pytest.mark.parametrize("command, config", [
    ("simulate", dict(SMOKE, n_cells="x")),
    ("simulate", dict(SMOKE, n_cells=400.5)),
    ("simulate", dict(SMOKE, dtau=None)),
    ("simulate", dict(SMOKE, tau0=[1])),
    ("simulate", dict(SMOKE, eps="0.01")),
    ("verify", dict(SMOKE, tau_start=math.nan)),
    # every config value is a number: a list of [k, value] pairs is refused
    ("verify", dict(SMOKE, C10=[[3, 1.0]])),
    ("verify", dict(SMOKE, delta0=[])),
    ("verify", dict(SMOKE, grid_eta=50.5)),
    ("verify", dict(SMOKE, grid_tau=True)),
    ("verify", dict(SMOKE, eta0=None)),
    ("verify", dict(SMOKE, sign_atol_factor="1e-9")),
    ("verify", dict(SMOKE, C10="0.5")),
    ("verify", dict(SMOKE, n=3.5)),
    ("verify", dict(SMOKE, m=1.0)),
    ("verify", dict(SMOKE, gamma="1.5")),
    ("verify", dict(SMOKE, T=math.inf)),
    # ModelParams fills a theta given as None; the config takes numbers only
    ("verify", dict(SMOKE, theta2_plus=None)),
    ("verify", dict(SMOKE, theta1_minus=[-1.0])),
    ("verify", [SMOKE]),
    # these inverted the verdict: a negative atol made correct-sign points
    # near zero violations, and an inconclusive share of 1 passed a region
    # where no point was conclusive
    ("verify", dict(SMOKE, sign_atol_factor=-1.0)),
    ("verify", dict(SMOKE, inconclusive_frac=1.0)),
    ("verify", dict(SMOKE, inconclusive_frac=-0.5)),
    # C10 is a number; null no longer asks for a search
    ("verify", dict(SMOKE, C10=None)),
    # C10 >= C10_star = 0.907 leaves the plus far-field coefficient kappa
    # <= 0, so the plus threshold search refuses it before any rung
    ("verify", dict(SMOKE, C10=4.0)),
    # delta = e^(-tau) leaves the float range: a bare OverflowError at
    # tau0 -1000, a math domain error at tau 800
    ("simulate", dict(SMOKE, tau0=-1000)),
    ("simulate", dict(SMOKE, tau0=800, tau_end=801)),
    # the drift speed delta^(-gamma-1) = e^((1+gamma) tau) overflows once
    # (1+gamma) tau passes ~709.8: a bare OverflowError at tau 300
    ("simulate", dict(SMOKE, tau0=300, tau_end=301)),
    # the inner band (xi1, xi1 + delta1] would lie left of the corner
    ("verify", dict(SMOKE, delta1=0.0)),
])
def test_malformed_config_values_exit_2(command, config, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    force = ["--force"] if command == "simulate" else []
    rc = main([command, *force, "--config", str(path), "--out", str(tmp_path / "runs")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "runs").exists()


def test_misspelt_config_key_is_rejected(tmp_path, capsys):
    # a misspelt key used to run the default grids under a new config hash;
    # the keys of the constants the construction fixes (theta2- = 0, the
    # free constants of phi1, phi3 and the correction rows) are refused the
    # same way, and so is epsilon, which simulate reads as the window key eps
    path = tmp_path / "typo.json"
    for key, value in (("grid_etaa", 50), ("theta2_minus", 0.0), ("epsilon", 0.0),
                       ("homog_C1", 0.0), ("homog_C3", 0.0), ("seed_constants", [])):
        path.write_text(json.dumps(dict(SMOKE, **{key: value})))
        rc = main(["verify", "--config", str(path), "--out", str(tmp_path / "runs")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config keys") and f"'{key}'" in err
        assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["profile", "verify", "report"])
def test_force_is_a_simulate_flag(command, smoke_config, tmp_path, capsys):
    # only simulate reads --force; the other commands refuse it as usage
    with pytest.raises(SystemExit) as exc:
        main([command, "--force", "--config", smoke_config, "--out", str(tmp_path / "runs")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_cli(args, python_flags=()):
    """The CLI in a fresh process, so a traceback shows on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *python_flags, "-m", "fdelab.cli", *args],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("command, stem, text", [
    ("simulate", "verify", "[]"),
    ("simulate", "verify", '{"all_passed": true, "recommended": 5}'),
    ("report", "verify", "[]"),
])
def test_stage_report_that_is_not_an_object_is_an_error(smoke_config, tmp_path,
                                                         command, stem, text):
    # a stage report, or its recommended entry, that is not a JSON object
    # exits 2 with an error naming the file, not with a traceback
    out = tmp_path / "runs"
    out.mkdir()
    path = out / f"{stem}-{config_hash(*load_config(smoke_config))}.json"
    path.write_text(text)
    proc = _run_cli([command, "--config", smoke_config, "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and str(path) in proc.stderr
    assert "Traceback" not in proc.stderr


# the error each gamma below ends in, named with gamma*tau
GAMMA_TAU_ERRORS = {
    50.0: "matching edge gap xi1 e^(-gamma tau) underflows to 0 at gamma tau = ",
    51.0: "e^(gamma tau) overflows at gamma tau = ",
}


@pytest.mark.parametrize("extra, rc", [
    # at tau_start 100 the near-A bands reach gaps of ~1e-78 and pass
    ({"tau_start": 100.0}, 0),
    # the near-A band underflows, which fails the threshold checks; the
    # matching edge gap then underflows too, and the error names it with
    # gamma*tau
    ({"gamma": 50.0}, 2),
    # atol is 0, so the worst-point ratio residual / atol overflows to inf;
    # no point is inconclusive, and every check passes
    ({"sign_atol_factor": 0}, 0),
    # gamma*tau passes 709.78 before the edge gap underflows: e^(gamma tau)
    # overflows on the matching path
    ({"gamma": 51.0}, 2),
])
def test_underflowing_near_a_band_ends_in_a_report_or_an_error(extra, rc, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMOKE, grid_eta=16, grid_tau=4, **extra)))
    out = tmp_path / "runs"
    # overflows stay inside the outer evaluators and the verdict: a numpy
    # warning would end the run in a traceback
    proc = _run_cli(["verify", "--config", str(config), "--out", str(out)],
                    ("-W", "error::RuntimeWarning"))
    assert proc.returncode == rc, proc.stderr
    assert "Traceback" not in proc.stderr
    if rc == 2:
        assert "\nerror: " + GAMMA_TAU_ERRORS[extra["gamma"]] in "\n" + proc.stderr
    else:
        (report,) = out.glob("verify-*.json")
        assert json.loads(report.read_text())["all_passed"] is True


@pytest.mark.parametrize("gamma, error", [
    # the limits settle at tau_ref = max(40, 20/gamma); read at tau 40 the
    # plus increment slope had not settled, and verify wrote no report
    (0.15, None),
    # the edge gap underflows at tau_ref = 40: the check fails and names it,
    # where verify ended with the error and wrote no report
    (20.0, "matching edge gap xi1 e^(-gamma tau) underflows to 0 at gamma tau = 800"),
])
def test_matching_limits_check_at_small_and_large_gamma(gamma, error, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMOKE, gamma=gamma, grid_eta=16, grid_tau=4)))
    out = tmp_path / "runs"
    proc = _run_cli(["verify", "--config", str(config), "--out", str(out)])
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
    (report,) = out.glob("verify-*.json")
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    check = checks["matching-limits"]
    if error is None:
        assert check["passed"] is True
    else:
        assert check["passed"] is False
        assert check["details"] == {"error": error}


def test_underflowing_weak_corner_window_fails_its_checks(tmp_path):
    # at tau_start 760 the weak corner term's delta = e^(-tau) underflows
    # to 0; its log ended verify in a bare ValueError and wrote no report
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMOKE, gamma=0.5, grid_eta=16, grid_tau=4,
                                      tau_start=760.0)))
    out = tmp_path / "runs"
    proc = _run_cli(["verify", "--config", str(config), "--out", str(out)])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    (report,) = out.glob("verify-*.json")
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    for label in ("plus", "minus"):
        check = checks[f"weak-corner-{label}"]
        assert check["passed"] is False
        assert check["details"]["error"].startswith("delta = e^(-tau) underflows to 0 at tau = ")


def test_verify_does_not_depend_on_lambda(tmp_path):
    # phibar0 at lambda is phibar0 at 1 shifted by k = (1-m)/2 log lambda,
    # which C absorbs: every check passes with lambda = 1's recommendation,
    # and C moves by -k up to rounding, out to the ends of the float range
    def verify(lam):
        config = tmp_path / f"lambda-{lam}.json"
        config.write_text(json.dumps(dict(SMOKE, grid_eta=16, grid_tau=4, **{"lambda": lam})))
        out = tmp_path / f"runs-{lam}"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
        (report,) = out.glob("verify-*.json")
        return json.loads(report.read_text())

    def c_minus(report):
        (order,) = [c for c in report["checks"] if c["name"] == "matching-order"]
        return order["details"]["C_minus"]

    base = verify(1.0)
    for lam in (1e-300, 0.5, 1.2, 3.0, 1e300):
        report = verify(lam)
        assert [c["passed"] for c in report["checks"]] == [True] * 12
        assert report["recommended"] == base["recommended"]
        k = 0.5 * (1.0 - SMOKE["m"]) * math.log(lam)
        for got, want in zip(c_minus(report), c_minus(base), strict=True):
            assert abs(got + k - want) <= 1e-12


def test_simulate_from_an_underflowing_start_names_gamma_tau0(tmp_path):
    # from tau0 160 on ref the mid run's start underflows to 0 although the
    # barriers stay ordered: simulate exits 2 naming (1+gamma) tau0, not
    # the sandwich
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMOKE, tau0=160.0, eps=0.018066406177734376)))
    out = tmp_path / "runs"
    proc = _run_cli(["simulate", "--force", "--config", str(config), "--out", str(out)])
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: mid run (n_cells 400, tau0 160.0): ")
    assert "(1+gamma) tau0 = 400" in proc.stderr and "sandwich" not in proc.stderr


# gamma -> the checks verify fails at 16x4 grids (n 3, m 0.1, A 2,
# theta1- -1); at gamma 0.1 the minus threshold's 5% margin is too small
GAMMA_SWEEP_FAILURES = {0.1: ["outer-thresholds-minus"], 0.15: [], 0.2: [], 0.3: [], 0.7: [],
                        3.0: []}


@pytest.mark.parametrize("gamma", sorted(GAMMA_SWEEP_FAILURES))
def test_verify_across_the_gamma_range(gamma, tmp_path):
    # the inner verdict starts at tau3, computed from its left margins
    # however far past tau_match it lies (tau_match + 26 at gamma 0.1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMOKE, gamma=gamma, grid_eta=16, grid_tau=4)))
    out = tmp_path / "runs"
    rc = main(["verify", "--config", str(config), "--out", str(out)])
    (report,) = out.glob("verify-*.json")
    checks = json.loads(report.read_text())["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == GAMMA_SWEEP_FAILURES[gamma]
    assert rc == (1 if GAMMA_SWEEP_FAILURES[gamma] else 0)
    (inner,) = [c["details"] for c in checks if c["name"] == "inner-signs"]
    assert inner["h_nondecreasing"] and inner["tau3"] == max(inner["tau_star"].values())


def test_inner_verdict_resolves_its_band_end(tmp_path):
    # at theta1- = -30 L1 formed from the raw glued derivatives left 4 of
    # the 64 minus points at xi = -7 inside atol, and verify exited 1; the
    # left margins now close xi <= xi1 without sampling it, and the sampled
    # right half resolves every point
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMOKE, theta1_minus=-30.0, grid_eta=16, grid_tau=4)))
    out = tmp_path / "runs"
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
    (report,) = out.glob("verify-*.json")
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert all(c["passed"] for c in checks.values()) and len(checks) == 12
    for rep in checks["inner-signs"]["details"]["reports"].values():
        assert rep["passed"] and rep["n_inconclusive"] == 0 and rep["n_violations"] == 0


def _threshold_checks(out):
    (report,) = out.glob("verify-*.json")
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    return [checks[f"outer-thresholds-{label}"] for label in ("plus", "minus")]


def test_failing_threshold_verdict_fails_its_check(tmp_path):
    # an atol of twice the term scale leaves every sampled point
    # inconclusive, so each threshold verdict fails and reports why
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMOKE, grid_eta=16, grid_tau=4, sign_atol_factor=2.0)))
    out = tmp_path / "runs"
    proc = _run_cli(["verify", "--config", str(config), "--out", str(out)])
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "FAIL outer-thresholds-plus" in proc.stdout
    for check in _threshold_checks(out):
        details = check["details"]
        assert check["passed"] is False and "error" not in details
        assert sorted(details["reports"]) == ["far_field", "near_A"]
        for rep in details["reports"].values():
            assert rep["passed"] is False and rep["n_inconclusive"] == rep["n_points"]


def test_empty_threshold_band_fails_its_check(smoke_config, tmp_path, monkeypatch, capsys):
    # an empty near-A band fails both threshold checks with its reason
    grid = residuals._space_grid

    def empty_near_A(region, *args):
        if region.kind == "near_A":
            raise errors.EmptyRegion("near_A region empty at tau=10.0")
        return grid(region, *args)

    monkeypatch.setattr(residuals, "_space_grid", empty_near_A)
    out = tmp_path / "runs"
    assert main(["verify", "--config", smoke_config, "--out", str(out)]) == 1
    assert "FAIL outer-thresholds-minus" in capsys.readouterr().out
    for check in _threshold_checks(out):
        assert check["passed"] is False
        assert check["details"]["error"] == "near_A region empty at tau=10.0"
        assert check["details"]["reports"] == {}


@pytest.mark.parametrize("extra, name", [
    ({"gamma": 1e-300}, "gamma"),  # A^(1/gamma)
    ({"gamma": 1e300}, "gamma"),  # gamma^3
    ({"gamma": 1e-6, "A": 1.0001}, "gamma"),  # expm1 in the closed form of I
    ({"theta1_minus": -1e160}, "theta1-"),  # theta1^2 in the minus threshold quintic
])
def test_overflowing_parameters_exit_2(extra, name, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMOKE, grid_eta=16, grid_tau=4, **extra)))
    proc = _run_cli(["verify", "--config", str(config), "--out", str(tmp_path / "runs")])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "overflow" in proc.stderr
    assert f"{name} = " in proc.stderr


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


@pytest.mark.parametrize("name, gamma", [("ref", 1.5), ("low", 0.5)])
def test_profile_matches_golden(name, gamma, tmp_path):
    # ref tabulates psi3, low psi4 with its correction rows
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SMOKE, gamma=gamma)))
    out = tmp_path / "runs"
    assert main(["profile", "--config", str(config), "--out", str(out)]) == 0
    want = json.loads((GOLDEN / f"profile-{name}.json").read_text())
    assert_matches(profile_summary(out), want, f"profile-{name}")


def _key_count(node, key) -> int:
    """How often key names an entry of a dict anywhere in a JSON tree."""
    if isinstance(node, dict):
        return (key in node) + sum(_key_count(v, key) for v in node.values())
    if isinstance(node, list):
        return sum(_key_count(v, key) for v in node)
    return 0


def test_report_writes_each_config_block_once(tmp_path):
    # params and thresholds sit at the root of the merged report only;
    # each stage block keeps the rest of its report, and verify's derived
    # values add C10 and C10_star to simulate's
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(
        SMOKE, grid_eta=16, grid_tau=4, tau0=10.0, tau_end=10.6, n_cells=200, dtau=0.01,
        eps=0.018,
    )))
    out = tmp_path / "runs"
    common = ["--config", str(config), "--out", str(out)]
    assert main(["verify", *common]) == 0
    assert main(["simulate", *common]) == 1  # the window is too short for the rate fit
    assert main(["report", *common]) == 1
    (merged_path,) = out.glob("report-*.json")
    merged = json.loads(merged_path.read_text())
    assert _key_count(merged, "params") == _key_count(merged, "thresholds") == 1
    for stem in ("verify", "simulate"):
        (path,) = out.glob(f"{stem}-*.json")
        stage = json.loads(path.read_text())
        assert merged["params"] == stage["params"]
        assert merged["thresholds"] == stage["thresholds"]
        assert merged[stem] == {
            k: v for k, v in stage.items() if k not in ("params", "thresholds")
        }
    derived = merged["verify"]["derived"], merged["simulate"]["derived"]
    assert set(derived[0]) - set(derived[1]) == {"C10", "C10_star"}


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


def test_simulate_smoke_steps_all_rows_through_one_plan(tmp_path, monkeypatch):
    # the smoke window is 62 planned steps, each one _step_rows call of all
    # four rows with no cold retry, and the report and trajectory still
    # match the goldens
    from fdelab import comoving

    rows, step_rows = [], comoving._step_rows

    def counted(W_old, *args):
        rows.append(len(W_old))
        return step_rows(W_old, *args)

    monkeypatch.setattr(comoving, "_step_rows", counted)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(
        SMOKE, tau0=10.0, tau_end=10.6, n_cells=200, dtau=0.01, eps=0.018,
    )))
    out = tmp_path / "runs"
    assert main(["simulate", "--force", "--config", str(config), "--out", str(out)]) == 1
    assert rows == [4] * 62
    (report_path,) = out.glob("simulate-*.json")
    (csv_path,) = out.glob("trajectory-*.csv")
    assert_report_matches(report_path, out, "simulate-smoke.json")
    assert_matches(
        _csv_cells(csv_path.read_text()),
        _csv_cells((GOLDEN / "trajectory-smoke.csv").read_text()),
        "trajectory",
    )
