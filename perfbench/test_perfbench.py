"""Self-tests for the benchmark harness; they run no workload.

    python3 -m pytest -q perfbench
"""

import sys
import time
import types

import pytest

from run import drift, run_process, uncaught_exception
from spans import Layer, Recorder, install, layer_metrics


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    rec = Recorder(clock)

    def leaf(dt):
        clock.now += dt

    def mid():
        clock.now += 1.0
        inner(2.0)
        clock.now += 0.5
        inner(3.0)

    def top():
        mid()
        clock.now += 4.0

    inner = rec.wrap("leaf", leaf)
    mid = rec.wrap("mid", mid)
    rec.wrap("top", top)()
    leaf(10.0)  # unwrapped: belongs to nobody

    assert rec.stats["leaf"].calls == 2
    assert rec.stats["leaf"].total_s == rec.stats["leaf"].self_s == 5.0
    assert rec.stats["mid"].total_s == 6.5
    assert rec.stats["mid"].self_s == 1.5
    assert rec.stats["top"].total_s == 10.5
    assert rec.stats["top"].self_s == 4.0
    assert rec.top_level_s == 10.5


def test_raised_call_closes_its_span_and_counts():
    clock = FakeClock()
    rec = Recorder(clock)

    def fail():
        clock.now += 2.0
        raise ValueError

    wrapped = rec.wrap("f", fail)
    with pytest.raises(ValueError):
        wrapped()
    assert (rec.stats["f"].calls, rec.stats["f"].raised) == (1, 1)
    assert rec.stats["f"].self_s == 2.0
    assert rec.top_level_s == 2.0


def test_install_patches_aliases_and_methods_and_tolerates_missing_names():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def solve(x):
        return x + 1

    class Thing:
        def run(self, xs):
            return len(xs)

    core.solve, core.Thing = solve, Thing
    user.search = solve  # bound under another name, as cli binds search_thresholds
    layers = (
        Layer("core", "solve", "core.solve"),
        Layer("core", "Thing.run", "core.run", points=lambda a, k: len(a[1])),
        Layer("core", "gone", "core.gone"),
    )
    saved = {k: sys.modules.get(k) for k in ("fakepkg", "fakepkg.core", "fakepkg.user")}
    sys.modules.update({"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user})
    try:
        rec = Recorder()
        missing = install(rec, "fakepkg", layers)
        assert core.solve(1) == 2 and user.search(2) == 3
        assert Thing().run([1, 2, 3]) == 3
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v
    assert missing == ["core.gone"]
    assert rec.stats["core.solve"].calls == 2
    assert (rec.stats["core.run"].calls, rec.stats["core.run"].points) == (1, 3)
    assert rec.stats["core.gone"].calls == 0


def _dump(stats, counters=None, top=0.0):
    return {"stats": stats, "counters": counters or {}, "top_level_s": top}


def test_memo_hit_ratio_is_share_of_solves_without_a_root_find():
    dump = _dump({
        "matching.solve_matching": {"calls": 3695},
        "numerics.find_root_monotone": {"calls": 1176},
    })
    ratio = layer_metrics(dump, 1.0, 1.0)["matching.memo_hit_ratio"]
    assert ratio == pytest.approx(1.0 - 1176 / 3695)
    assert layer_metrics(_dump({}), 1.0, 1.0)["matching.memo_hit_ratio"] == 0.0


def test_step_and_verdict_counts_and_trace_overhead():
    dump = _dump(
        {"pde.implicit_step": {"calls": 2061, "raised": 22},
         "residuals.verify_sign_region": {"calls": 4, "raised": 0}},
        {"residuals.verdict_passed": 1, "residuals.verdict_points": 800},
        top=9.0,
    )
    m = layer_metrics(dump, 10.0, 9.5)
    assert (m["pde.steps_accepted"], m["pde.step_rejections"]) == (2039, 22)
    assert m["residuals.verdict_pass_ratio"] == 0.25
    assert m["residuals.verdict_points"] == 800
    assert m["trace.overhead_s"] == 0.5
    assert m["trace.unattributed_s"] == 1.0


def test_drift_uses_the_reproducibility_bar():
    ref = {"a": 1.0, "b": [1, "x", True], "c": {"d": 2.0}}
    assert drift(ref, {"a": 1.0 + 5e-10, "b": [1, "x", True], "c": {"d": 2.0}}) == []
    assert drift(ref, {"a": 1.0 + 5e-9, "b": [1, "x", True], "c": {"d": 2.0}}) == ["$.a"]
    assert drift(ref, {"a": 1.0, "b": [2, "y", False], "c": {}}) == [
        "$.b[0]", "$.b[1]", "$.b[2]", "$.c.d"]
    assert drift(ref, {**ref, "b": [1]}) == ["$.b[len]"]
    assert drift({"x": 0.0}, {"x": 0.0}) == []
    assert drift({"x": 0.0}, {"x": 1e-300}) == ["$.x"]
    assert drift({"x": "nan"}, {"x": 1.0}) == ["$.x"]
    assert drift({"x": True}, {"x": 1}) == ["$.x"]


def test_only_non_fdelab_tracebacks_count_as_uncaught():
    assert uncaught_exception("warning: slow\n") is None
    tb = "Traceback (most recent call last):\n  File \"x\", line 1\n"
    assert uncaught_exception(tb + "fdelab.errors.NoBracket: no sign change\n") is None
    assert uncaught_exception(tb + "ZeroDivisionError: division by zero\n") == (
        "ZeroDivisionError: division by zero")


def test_run_process_reports_exit_code_and_calibrated_time(tmp_path):
    code = "import sys, time\nt = time.time()\nwhile time.time() - t < 0.8: pass\nsys.exit(1)"
    proc = run_process([sys.executable, "-c", code], None, tmp_path,
                       time.perf_counter() + 30, calibrate=True)
    assert proc.rc == 1
    assert 0.7 < proc.wall_s < 5.0  # pauses for calibration are excluded
    assert proc.ref_s > 0.0 and proc.rss_mb > 0.0


def test_run_process_kills_a_child_past_the_deadline(tmp_path):
    start = time.perf_counter()
    proc = run_process([sys.executable, "-c", "import time; time.sleep(60)"], None,
                       tmp_path, start + 0.5, calibrate=True)
    assert proc.rc == -9
    assert time.perf_counter() - start < 10
