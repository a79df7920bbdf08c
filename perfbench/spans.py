"""Span recorder and call wrappers for the traced benchmark run.

The traced run times the calls into each fdelab layer from outside the
package: it replaces public functions and methods with wrappers that open
a span around the call, then runs the ordinary CLI entry point.  Spans are
aggregated per name as they close (call count, points handled, inclusive
time and self time), so memory stays flat however many calls a run makes.
A span's self time is its duration minus the durations of the wrapped
calls made inside it.

Run as a script it traces one CLI invocation and writes the aggregates:

    PYTHONPATH=src python3 perfbench/spans.py STATS.json -- verify --config CFG --out DIR
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["Layer", "LAYERS", "Recorder", "install", "layer_metrics", "PER_LAYER"]


@dataclass
class Stat:
    calls: int = 0
    raised: int = 0
    points: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Recorder:
    """Aggregates nested spans by name; clock is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.top_level_s = 0.0
        self._stack: list[list[float]] = []  # [start, time spent in children]

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def count(self, name: str, value: float = 1):
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: float):
        self.counters[name] = max(self.counters.get(name, value), value)

    def enter(self):
        self._stack.append([self.clock(), 0.0])

    def exit(self, st: Stat):
        start, children = self._stack.pop()
        dur = self.clock() - start
        st.total_s += dur
        st.self_s += dur - children
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.top_level_s += dur

    def wrap(self, name: str, fn, points=None, on_result=None):
        stat = self.stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if points is not None:
                stat.points += points(args, kwargs)
            self.enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                self.exit(stat)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def to_dict(self) -> dict:
        return {
            "stats": {k: asdict(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "top_level_s": self.top_level_s,
        }


# -- what to wrap --------------------------------------------------------------


def _size_of(*names, index=1, minus=0):
    """Points extractor: size of the first of `names` passed by keyword,
    else of the positional argument at `index` (self counts for methods)."""

    def points(args, kwargs):
        for name in names:
            if kwargs.get(name) is not None:
                return int(np.size(kwargs[name])) - minus
        if len(args) > index and args[index] is not None:
            return int(np.size(args[index])) - minus
        return 0

    return points


def _on_verdict(rec: Recorder, report):
    rec.count("residuals.verdict_points", report.n_points)
    rec.count("residuals.verdict_passed", int(report.passed))


def _on_step(rec: Recorder, result):
    its = result[1]
    rec.count("pde.newton_iters", its)
    rec.maximum("pde.newton_iters_max", its)


@dataclass(frozen=True)
class Layer:
    module: str  # submodule of the package that defines the name
    path: str  # "function" or "Class.method"
    span: str
    points: object = None
    on_result: object = None


# pde._implicit_step is private, but it is the only per-step entry point of
# the radial solver; a NewtonDiverged/PositivityLost it raises is a rejected
# step that the solver retries at half the step.
LAYERS = (
    Layer("outer", "OuterProfileSet.__init__", "outer.construct"),
    Layer("outer", "OuterProfileSet.psi_bundle", "outer.psi_bundle", _size_of("gap", index=4)),
    Layer("outer", "OuterProfileSet.f_sources", "outer.f_sources", _size_of("eta", "gap")),
    Layer("outer", "OuterProfileSet.vkj", "outer.vkj", _size_of("eta", "gap", index=3)),
    Layer("numerics", "integrate_panels", "numerics.integrate_panels",
          _size_of("edges", index=1, minus=1)),
    Layer("numerics", "find_root_monotone", "numerics.find_root_monotone"),
    Layer("selfsim", "shoot_v0", "selfsim.shoot_v0"),
    Layer("selfsim", "SelfSimilarProfile.phibar0", "selfsim.phibar0", _size_of("s")),
    Layer("matching", "MatchingSolver.solve_matching", "matching.solve_matching"),
    Layer("matching", "GluedBarrier.wbar", "matching.wbar", _size_of("xi")),
    Layer("matching", "find_epsilon_bounds", "matching.find_epsilon_bounds"),
    Layer("residuals", "verify_sign_region", "residuals.verify_sign_region",
          on_result=_on_verdict),
    Layer("residuals", "find_thresholds", "residuals.find_thresholds"),
    Layer("pde", "_implicit_step", "pde.implicit_step", on_result=_on_step),
    Layer("pde", "calibrate_tolerance", "pde.calibrate_tolerance"),
    Layer("pde", "weak_corner_term", "pde.weak_corner_term"),
)


def install(rec: Recorder, package: str = "fdelab", layers=LAYERS) -> list[str]:
    """Wrap every layer found among the loaded modules of `package`.

    A function is replaced under every name any package module bound it to
    (`from .x import f as g` included); a method is replaced on its class.
    Returns the layers whose name no longer exists: they stay at 0 calls.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    missing = []
    for layer in layers:
        rec.stat(layer.span)
        owner = sys.modules.get(f"{package}.{layer.module}")
        *cls_path, attr = layer.path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append(f"{layer.module}.{layer.path}")
            continue
        wrapper = rec.wrap(layer.span, fn, layer.points, layer.on_result)
        if cls_path:
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, wrapper)
    return missing


# -- per-layer metrics ---------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "outer.psi_bundle.calls": "count",
    "outer.psi_bundle.points": "count",
    "outer.psi_bundle.self_s": "s",
    "outer.f_sources.points": "count",
    "outer.f_sources.self_s": "s",
    "outer.vkj.calls": "count",
    "outer.vkj.points": "count",
    "outer.vkj.self_s": "s",
    "outer.construct_s": "s",
    "numerics.integrate_panels.panels": "count",
    "numerics.integrate_panels.self_s": "s",
    "numerics.find_root_monotone.calls": "count",
    "selfsim.shoot_v0.calls": "count",
    "selfsim.shoot_v0.s": "s",
    "selfsim.phibar0.calls": "count",
    "selfsim.phibar0.points": "count",
    "selfsim.phibar0.self_s": "s",
    "matching.solve_matching.calls": "count",
    "matching.memo_hit_ratio": "ratio",
    "matching.wbar.calls": "count",
    "matching.wbar.points": "count",
    "matching.wbar.self_s": "s",
    "matching.wbar.s": "s",
    "matching.find_epsilon_bounds.s": "s",
    "residuals.verify_sign_region.calls": "count",
    "residuals.verify_sign_region.self_s": "s",
    "residuals.verdict_points": "count",
    "residuals.verdict_pass_ratio": "ratio",
    "residuals.find_thresholds.s": "s",
    "pde.steps_accepted": "count",
    "pde.step_rejections": "count",
    "pde.newton_iters": "count",
    "pde.newton_iters_max": "count",
    "pde.implicit_step.self_s": "s",
    "pde.calibrate_tolerance.s": "s",
    "pde.weak_corner_term.s": "s",
    "report.checks_failed": "count",
    "report.rate_rel_err": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dump: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metric values (without the report.* ones) from a Recorder dump."""
    stats, counters = dump["stats"], dump["counters"]

    def s(span, field):
        return stats.get(span, {}).get(field, 0)

    steps = s("pde.implicit_step", "calls")
    rejected = s("pde.implicit_step", "raised")
    verdicts = s("residuals.verify_sign_region", "calls") - s("residuals.verify_sign_region", "raised")
    return {
        "outer.psi_bundle.calls": s("outer.psi_bundle", "calls"),
        "outer.psi_bundle.points": s("outer.psi_bundle", "points"),
        "outer.psi_bundle.self_s": s("outer.psi_bundle", "self_s"),
        "outer.f_sources.points": s("outer.f_sources", "points"),
        "outer.f_sources.self_s": s("outer.f_sources", "self_s"),
        "outer.vkj.calls": s("outer.vkj", "calls"),
        "outer.vkj.points": s("outer.vkj", "points"),
        "outer.vkj.self_s": s("outer.vkj", "self_s"),
        "outer.construct_s": s("outer.construct", "total_s"),
        "numerics.integrate_panels.panels": s("numerics.integrate_panels", "points"),
        "numerics.integrate_panels.self_s": s("numerics.integrate_panels", "self_s"),
        "numerics.find_root_monotone.calls": s("numerics.find_root_monotone", "calls"),
        "selfsim.shoot_v0.calls": s("selfsim.shoot_v0", "calls"),
        "selfsim.shoot_v0.s": s("selfsim.shoot_v0", "total_s"),
        "selfsim.phibar0.calls": s("selfsim.phibar0", "calls"),
        "selfsim.phibar0.points": s("selfsim.phibar0", "points"),
        "selfsim.phibar0.self_s": s("selfsim.phibar0", "self_s"),
        "matching.solve_matching.calls": s("matching.solve_matching", "calls"),
        # every memo miss of solve_matching runs exactly one root find
        "matching.memo_hit_ratio": _ratio(
            s("matching.solve_matching", "calls") - s("numerics.find_root_monotone", "calls"),
            s("matching.solve_matching", "calls"),
        ),
        "matching.wbar.calls": s("matching.wbar", "calls"),
        "matching.wbar.points": s("matching.wbar", "points"),
        "matching.wbar.self_s": s("matching.wbar", "self_s"),
        "matching.wbar.s": s("matching.wbar", "total_s"),
        "matching.find_epsilon_bounds.s": s("matching.find_epsilon_bounds", "total_s"),
        "residuals.verify_sign_region.calls": s("residuals.verify_sign_region", "calls"),
        "residuals.verify_sign_region.self_s": s("residuals.verify_sign_region", "self_s"),
        "residuals.verdict_points": counters.get("residuals.verdict_points", 0),
        "residuals.verdict_pass_ratio": _ratio(
            counters.get("residuals.verdict_passed", 0), verdicts),
        "residuals.find_thresholds.s": s("residuals.find_thresholds", "total_s"),
        "pde.steps_accepted": steps - rejected,
        "pde.step_rejections": rejected,
        "pde.newton_iters": counters.get("pde.newton_iters", 0),
        "pde.newton_iters_max": counters.get("pde.newton_iters_max", 0),
        "pde.implicit_step.self_s": s("pde.implicit_step", "self_s"),
        "pde.calibrate_tolerance.s": s("pde.calibrate_tolerance", "total_s"),
        "pde.weak_corner_term.s": s("pde.weak_corner_term", "total_s"),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.unattributed_s": traced_wall_s - dump["top_level_s"],
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py STATS.json -- <fdelab cli arguments>", file=sys.stderr)
        return 2
    stats_path, cli_args = argv[0], argv[2:]
    import fdelab.cli

    rec = Recorder()
    missing = install(rec)
    try:
        return fdelab.cli.main(cli_args)
    finally:
        dump = rec.to_dict()
        dump["missing"] = missing
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
