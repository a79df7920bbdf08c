"""Command line entry point.

Subcommands:
  profile   tabulate the outer profiles, the glued barrier ingredients,
            and the self-similar inner profile to CSV/JSON artifacts.
  verify    run the full verification checklist (sign verdicts, matching
            invariants, corner and ordering checks) and write a report.
  simulate  evolve initial data between the barriers and fit the
            amplitude decay rate.
  report    merge the verify/simulate artifacts of a config into one
            summary report.

Artifacts are addressed by a short hash of the effective config, so a
rerun with the same config and flags reproduces identical bytes at the
same paths.  Nothing written here carries a timestamp.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import errors
from .matching import (
    GluedBarrier,
    MatchingSolver,
    check_ordering,
    find_epsilon_bounds,
)
from .outer import OuterProfileSet, branch_variant
from .params import load_config, params_to_dict, validate_params
from .pde import comparison_sandwich, weak_corner_term
from .reporting import (
    base_report,
    config_hash,
    make_check,
    write_csv,
    write_json,
)
from .residuals import Region, glued_evaluator, l1_terms_evaluator, verify_sign_region
from .residuals import find_thresholds as search_thresholds
from .selfsim import save_profile, shoot_v0, verify_tail_asymptotics

__all__ = ["main"]


# -- plumbing ------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--config", required=True,
                    help="JSON config with model parameters and options")
    sp.add_argument("--out", default="runs", help="artifact directory")
    sp.add_argument("--force", action="store_true",
                    help="skip gating preconditions")
    sp.add_argument("--dry-run", action="store_true",
                    help="print the plan without computing or writing")


def _load(args):
    p, cfg, extras = load_config(args.config)
    d = validate_params(p)
    cfg = cfg.validated(p)
    h = config_hash(p, cfg, extras)
    return p, d, cfg, extras, h


def _artifact(args, stem: str, h: str, ext: str) -> str:
    return os.path.join(args.out, f"{stem}-{h}.{ext}")


# -- profile -------------------------------------------------------------------


def cmd_profile(args) -> int:
    p, d, cfg, extras, h = _load(args)
    paths = {
        "profiles": _artifact(args, "profiles", h, "csv"),
        "selfsim": _artifact(args, "selfsim", h, "csv"),
        "derived": _artifact(args, "derived", h, "json"),
    }
    if args.dry_run:
        for v in paths.values():
            print(f"profile {h}: would write {v}")
        return 0

    outer = OuterProfileSet(p, cfg)
    n_eta = max(cfg.grid_eta, 400)
    gaps = np.geomspace(1e-6, 2e4, n_eta)
    rows = outer.profile_rows(p.A + gaps, cfg.tau_start, "+")
    write_csv(paths["profiles"],
              ["eta", "phi0", "phi1", "phi2", "phi3", "phi4",
               "h_plus", "h_minus", "psi", "psi_eta", "psi_etaeta"],
              rows)

    profile = shoot_v0(p)
    save_profile(profile, paths["selfsim"])

    payload = params_to_dict(p, d)
    payload["variant"] = branch_variant(p.gamma)
    payload["tau_snapshot"] = cfg.tau_start
    payload["C2"] = outer.C2
    payload["C10"] = outer.C10
    write_json(paths["derived"], payload)
    for v in paths.values():
        print(f"profile {h}: wrote {v}")
    return 0


# -- verify --------------------------------------------------------------------


def _search_inner_start(solver, eps: float, tau_lo: float):
    """Smallest tau (8 steps of 2 from tau_lo) where both glued barriers
    pass the inner sign verdict; returns (tau, reports) or (None, reports)."""
    p, d, cfg = solver.outer.p, solver.outer.d, solver.outer.cfg
    tau = tau_lo
    reports = {}
    for _ in range(8):
        ok = True
        reports = {}
        for sign in ("+", "-"):
            bar = GluedBarrier(solver, sign, eps)
            region = Region(kind="inner_glued", tau_lo=tau, tau_hi=tau + 6.0,
                            xi1=solver.xi1, delta1=cfg.delta1)
            rep = verify_sign_region(
                "L1", l1_terms_evaluator(glued_evaluator(bar), p, d),
                sign, region, p,
                n_space=cfg.grid_eta, n_tau=cfg.grid_tau,
                atol_factor=cfg.sign_atol_factor,
                inconclusive_frac=cfg.inconclusive_frac,
            )
            reports[sign] = rep
            ok = ok and rep.passed
        if ok:
            return tau, reports
        tau += 2.0
    return None, reports


def cmd_verify(args) -> int:
    p, d, cfg, extras, h = _load(args)
    out_json = _artifact(args, "verify", h, "json")
    if args.dry_run:
        print(f"verify {h}: would write {out_json}")
        return 0

    report = base_report(p, d, cfg)
    checks = report["checks"]
    variant = branch_variant(p.gamma)
    report["variant"] = variant

    outer = OuterProfileSet(p, cfg)
    profile = shoot_v0(p)
    solver = MatchingSolver(profile, outer, variant)

    # 1. self-similar tail asymptotics
    tail = verify_tail_asymptotics(profile)
    tail_ok = (
        tail["slope_rel_err"] < 1e-3
        and tail["c_log_rel_err"] < 0.1
        and tail["monotone"]
        and tail["stationary_residual_max"] < 1e-6
        and tail["refinement_rel_diff"] < 1e-6
    )
    checks.append(make_check("selfsim-tail", tail_ok, tail))

    # 2. outer sign thresholds for both signs of the branch variant
    tau_lo = cfg.tau_start
    thresholds = {}
    for sign in ("+", "-"):
        try:
            th = search_thresholds(outer, sign)
            ok = True
        except errors.ThresholdSearchExhausted as exc:
            th = {"error": str(exc)}
            ok = False
            # report which half of the region is actually attainable
            try:
                near = search_thresholds(outer, sign, regions=("near_A",))
                th["near_A_only"] = {k: v for k, v in near.items()
                                     if k != "reports"}
            except errors.ThresholdSearchExhausted as exc2:
                th["near_A_only"] = {"error": str(exc2)}
        thresholds[sign] = th
        detail = {k: v for k, v in th.items() if k != "reports"}
        if "reports" in th:
            detail["reports"] = {k: r.to_dict() for k, r in th["reports"].items()}
            tau_lo = max(tau_lo, th["tau_start"])
        checks.append(make_check(f"outer-thresholds-{'plus' if sign == '+' else 'minus'}",
                                 ok, detail))

    # 3. admissible epsilon window; the corner inequality is asymptotic in
    # tau, so the window search escalates tau_match until one opens
    tau_match = tau_lo
    eps_use = 0.0
    eps_detail = {}
    for _ in range(7):
        taus = [tau_match, tau_match + 2.0, tau_match + 5.0]
        try:
            eps1, eps2 = find_epsilon_bounds(solver, taus)
            eps_use = 0.5 * min(eps1, eps2)
            eps_detail = {"eps1": eps1, "eps2": eps2, "eps_use": eps_use,
                          "tau_match": tau_match}
            break
        except errors.NoAdmissibleEpsilon as exc:
            eps_detail = {"error": str(exc), "tau_match": tau_match}
            tau_match += 4.0
    checks.append(make_check("epsilon-window", eps_use > 0.0, eps_detail))
    taus = [tau_match, tau_match + 2.0, tau_match + 5.0]

    # 4. matching invariants at the working tau window
    c_plus = [solver.solve_matching("+", 0.0, t) for t in taus]
    c_minus = [solver.solve_matching("-", 0.0, t) for t in taus]
    order_ok = all(cp > cm for cp, cm in zip(c_plus, c_minus))
    checks.append(make_check("matching-order", order_ok, {
        "taus": taus, "C_plus": c_plus, "C_minus": c_minus,
    }))
    limits = solver.matching_limits()
    lim_ok = (
        limits["plus_increment_rel_err"] < 5e-2
        and limits["minus_edge_rel_err"] < 1e-6
        and limits["plus_edge_slope_rel_err"] < 5e-3
        and limits["minus_edge_slope_rel_err"] < 5e-3
    )
    checks.append(make_check("matching-limits", lim_ok, limits))

    # 5. corner verdicts and continuity at the working epsilon
    for sign, label in (("+", "plus"), ("-", "minus")):
        bar = GluedBarrier(solver, sign, eps_use)
        jumps = [bar.corner_jump(t) for t in taus]
        cont = max(bar.continuity_mismatch(t) for t in taus)
        ok = all(j.holds for j in jumps) and cont < 1e-9
        checks.append(make_check(f"corner-{label}", ok, {
            "continuity_max": cont,
            "jumps": [dataclasses.asdict(j) for j in jumps],
        }))

    # 6. strict ordering of the glued pair
    bp = GluedBarrier(solver, "+", eps_use)
    bm = GluedBarrier(solver, "-", eps_use)
    ordering = check_ordering(bp, bm, taus)
    checks.append(make_check("barrier-ordering", ordering["ordered"], ordering))

    # 7. inner sign verdicts on the glued barriers
    tau3, inner_reports = _search_inner_start(solver, eps_use, tau_match)
    inner_ok = tau3 is not None
    checks.append(make_check("inner-signs", inner_ok, {
        "tau3": tau3,
        "reports": {k: r.to_dict() for k, r in inner_reports.items()},
    }))
    tau0 = tau3 if tau3 is not None else tau_match

    # 8. weak corner boundary term: sign must match the comparison direction
    for sign, label, want in (("+", "plus", -1.0), ("-", "minus", 1.0)):
        bar = GluedBarrier(solver, sign, eps_use)
        try:
            wct = weak_corner_term(bar, (tau0, tau0 + 6.0))
            ok = wct["sign_consistent"] and wct["sign"] == want
        except errors.NonConvergent as exc:
            wct, ok = {"error": str(exc)}, False
        checks.append(make_check(f"weak-corner-{label}", ok, wct))

    report["recommended"] = {
        "tau0": tau0,
        "eps": eps_use,
        "variant": variant,
    }
    report["all_passed"] = all(c["passed"] for c in checks)
    report["artifacts"] = [out_json]
    write_json(out_json, report)

    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}")
    print(f"verify {h}: {'all checks passed' if report['all_passed'] else 'FAILURES present'}")
    return 0 if report["all_passed"] else 1


# -- simulate ------------------------------------------------------------------


def cmd_simulate(args) -> int:
    p, d, cfg, extras, h = _load(args)
    out_json = _artifact(args, "simulate", h, "json")
    out_csv = _artifact(args, "trajectory", h, "csv")
    verify_path = _artifact(args, "verify", h, "json")

    if args.dry_run:
        print(f"simulate {h}: would read {verify_path}")
        for path in (out_json, out_csv):
            print(f"simulate {h}: would write {path}")
        return 0

    recommended = {}
    if os.path.exists(verify_path):
        with open(verify_path, encoding="utf-8") as fh:
            verify_report = json.load(fh)
        if not verify_report.get("all_passed") and not args.force:
            print(f"simulate {h}: verification failed for this config; "
                  "rerun verify or pass --force", file=sys.stderr)
            return 2
        recommended = verify_report.get("recommended", {})
    elif not args.force:
        print(f"simulate {h}: no verification report at {verify_path}; "
              "run verify first or pass --force", file=sys.stderr)
        return 2

    tau0 = float(extras.get("tau0", recommended.get("tau0", cfg.tau_start)))
    eps = float(extras.get("eps", recommended.get("eps", p.epsilon)))
    tau_end = float(extras.get("tau_end", tau0 + 2.2 * math.log(10.0)))
    n_cells = int(extras.get("n_cells", 400))
    dtau = float(extras.get("dtau", 0.01))

    variant = branch_variant(p.gamma)
    outer = OuterProfileSet(p, cfg)
    profile = shoot_v0(p)
    solver = MatchingSolver(profile, outer, variant)
    plus = GluedBarrier(solver, "+", eps)
    minus = GluedBarrier(solver, "-", eps)
    sandwich = comparison_sandwich(
        plus, minus, tau0=tau0, tau_end=tau_end, n_cells=n_cells, dtau=dtau,
    )
    sandwich.runs["mid"].to_csv(out_csv)

    payload = base_report(p, d, cfg)
    payload["variant"] = variant
    payload["window"] = {"tau0": tau0, "tau_end": tau_end,
                         "n_cells": n_cells, "dtau": dtau, "eps": eps}
    payload["sandwich"] = sandwich.to_dict()
    rate_fit = sandwich.fits.get("solution", {})
    exponent = rate_fit.get("exponent")
    rate_ok = (
        isinstance(exponent, float)
        and math.isfinite(exponent)
        and abs(exponent / d.exponent_rate - 1.0) <= 0.03
    )
    payload["checks"] = [
        make_check("sandwich", sandwich.passed, {
            "max_undershoot": sandwich.max_undershoot,
            "max_overshoot": sandwich.max_overshoot,
            "tol_rel": sandwich.tol_rel,
        }),
        make_check("extinction-rate", rate_ok, {
            "fit": rate_fit, "expected": d.exponent_rate,
        }),
    ]
    payload["all_passed"] = all(c["passed"] for c in payload["checks"])
    payload["artifacts"] = [out_json, out_csv]
    write_json(out_json, payload)

    for c in payload["checks"]:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}")
    print(f"simulate {h}: wrote {out_json}")
    return 0 if payload["all_passed"] else 1


# -- report --------------------------------------------------------------------


def cmd_report(args) -> int:
    p, d, cfg, extras, h = _load(args)
    out_json = _artifact(args, "report", h, "json")
    if args.dry_run:
        print(f"report {h}: would write {out_json}")
        return 0

    merged = {"config_hash": h, "params": dataclasses.asdict(p)}
    all_passed = True
    found = False
    for stem in ("verify", "simulate"):
        path = _artifact(args, stem, h, "json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                merged[stem] = json.load(fh)
            found = True
            all_passed = all_passed and merged[stem].get("all_passed", False)
    if not found:
        print(f"report {h}: no artifacts found under {args.out}", file=sys.stderr)
        return 2
    merged["all_passed"] = all_passed
    write_json(out_json, merged)
    print(f"report {h}: {'all stages passed' if all_passed else 'FAILURES present'}")
    return 0 if all_passed else 1


# -- entry ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fdelab",
        description="barrier construction and verification for fast diffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("profile", help="tabulate profiles to CSV")
    _add_common(sp)
    sp.set_defaults(func=cmd_profile)

    sv = sub.add_parser("verify", help="run the verification checklist")
    _add_common(sv)
    sv.set_defaults(func=cmd_verify)

    ss = sub.add_parser("simulate", help="evolve data between the barriers")
    _add_common(ss)
    ss.set_defaults(func=cmd_simulate)

    sr = sub.add_parser("report", help="merge stage artifacts into a summary")
    _add_common(sr)
    sr.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (errors.FdelabError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
