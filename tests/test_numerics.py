"""The Radau ODE stepper, and the finite-difference test helper."""

import math

import numpy as np
import pytest
import scipy.integrate

from fdelab import errors, numerics
from numdiff import fd_derivative

SPEC = (1e-10, 1e-12)  # the shoot's (rel_tol, abs_tol)


def _linear(t, u, v):
    # u = e^-t, v = e^-t - e^-2t from (1, 0)
    return -u, u - 2.0 * v


def _linear_jac(t, u, v):
    return -1.0, 0.0, 1.0, -2.0


def test_solve_ode_exponential():
    tab = numerics.solve_ode(_linear, _linear_jac, (0.0, 5.0), [1.0, 0.0], *SPEC)
    ref = scipy.integrate.solve_ivp(
        lambda t, y: _linear(t, *y), (0.0, 5.0), [1.0, 0.0], method="Radau",
        jac=lambda t, y: np.reshape(_linear_jac(t, *y), (2, 2)),
        rtol=1e-10, atol=1e-12, dense_output=True,
    )
    assert len(tab.ts) == len(ref.t) and tab.ts[-1] == 5.0
    s = np.linspace(0.0, 5.0, 1001)
    assert np.max(np.abs(tab(s) - ref.sol(s))) < 1e-14
    u, v = tab(5.0)
    assert u == pytest.approx(math.exp(-5.0), rel=1e-9)
    assert v == pytest.approx(math.exp(-5.0) - math.exp(-10.0), rel=1e-9)


def test_solve_ode_blowup_guard(monkeypatch):
    # u = 1/(1 - t) blows up at t = 1
    monkeypatch.setattr(numerics, "_BLOWUP_GUARD", 1e6)
    with pytest.raises(errors.BlowupGuardTripped, match="1e\\+06"):
        numerics.solve_ode(lambda t, u, v: (u * u, u), lambda t, u, v: (2.0 * u, 0.0, 1.0, 0.0),
                           (0.0, 2.0), [1.0, 0.0], *SPEC)


def _decay(t, u, v):
    # u = e^-t, v = 1/(1+t) from (1, 1)
    return -u, -v * v


def _decay_jac(t, u, v):
    return -1.0, 0.0, 0.0, -2.0 * v


@pytest.mark.parametrize("where,times", [("rhs", 2), ("jac", 1)])
def test_solve_ode_overflow_halves_the_step(where, times):
    # the first calls past t = 1 overflow: a failed Newton iteration is
    # retried once with a fresh Jacobian, then the step is halved; a
    # Jacobian that overflows fails the step at once; the solution is
    # unharmed
    overflowed = []

    def overflow(t):
        if t > 1.0 and len(overflowed) < times:
            overflowed.append(t)
            raise OverflowError("math range error")

    def rhs(t, u, v):
        if where == "rhs":
            overflow(t)
        return _decay(t, u, v)

    def jac(t, u, v):
        if where == "jac":
            overflow(t)
        return _decay_jac(t, u, v)

    tab = numerics.solve_ode(rhs, jac, (0.0, 20.0), [1.0, 1.0], *SPEC)
    assert len(overflowed) == times
    clean = numerics.solve_ode(_decay, _decay_jac, (0.0, 20.0), [1.0, 1.0], *SPEC)
    k = int(np.searchsorted(clean.ts, overflowed[0])) - 1  # the step that failed
    assert np.array_equal(tab.ts[: k + 1], clean.ts[: k + 1])
    assert tab.h[k] <= 0.5 * clean.h[k]
    s = np.linspace(0.0, 20.0, 1001)
    assert np.all(np.abs(tab(s) - clean(s)) <= 1e-8 * clean(s) + 1e-11)  # abs_tol 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("times", [1, 2])
def test_solve_ode_nonfinite_stage_retries_then_halves(bad, times):
    # the first stage values past t = 1 are not finite: the Newton
    # iteration fails and is retried once with a fresh Jacobian at the
    # step's start, which takes the step when only one call failed and
    # halves it when both did; the solution is unharmed
    hits, jac_ts, clean_jac_ts = [], [], []

    def rhs(t, u, v):
        if t > 1.0 and len(hits) < times:
            hits.append(t)
            return -u, bad
        return _decay(t, u, v)

    def jac(t, u, v):
        jac_ts.append(t)
        return _decay_jac(t, u, v)

    tab = numerics.solve_ode(rhs, jac, (0.0, 20.0), [1.0, 1.0], *SPEC)
    assert len(hits) == times
    clean = numerics.solve_ode(
        _decay, lambda t, u, v: clean_jac_ts.append(t) or _decay_jac(t, u, v),
        (0.0, 20.0), [1.0, 1.0], *SPEC,
    )
    k = int(np.searchsorted(clean.ts, hits[0])) - 1  # the step that failed
    assert np.array_equal(tab.ts[: k + 1], clean.ts[: k + 1])
    assert clean.ts[k] in jac_ts and clean.ts[k] not in clean_jac_ts
    if times == 1:
        assert tab.ts[k + 1] == clean.ts[k + 1]
    else:
        assert tab.h[k] == pytest.approx(0.5 * clean.h[k], rel=1e-12)
    s = np.linspace(0.0, 20.0, 1001)
    assert np.all(np.abs(tab(s) - clean(s)) <= 1e-8 * clean(s) + 1e-11)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["rhs", "jac"])
def test_solve_ode_nonfinite_at_step_close_halves_the_step(where, bad):
    # rhs at the new state, or the Jacobian recomputed there, is not
    # finite at the first step close past t = 1: that step is halved and
    # the solution is unharmed
    clean = numerics.solve_ode(_decay, _decay_jac, (0.0, 20.0), [1.0, 1.0], *SPEC)
    # the state at each breakpoint past t = 1, where a step closes
    ends = zip(clean.ts[1:-1].tolist(), clean.coef[1:, :, 0].tolist())
    closes = {(t, u, v) for t, (u, v) in ends if t > 1.0}
    hits = []

    def rhs(t, u, v):
        if where == "rhs" and not hits and (t, u, v) in closes:
            hits.append(t)
            return -u, bad
        return _decay(t, u, v)

    def jac(t, u, v):
        if where == "jac" and not hits and (t, u, v) in closes:
            hits.append(t)
            return -1.0, 0.0, 0.0, bad
        return _decay_jac(t, u, v)

    tab = numerics.solve_ode(rhs, jac, (0.0, 20.0), [1.0, 1.0], *SPEC)
    assert len(hits) == 1
    k = int(np.searchsorted(clean.ts, hits[0])) - 1  # the step that closes there
    assert clean.ts[k + 1] == hits[0]
    assert np.array_equal(tab.ts[: k + 1], clean.ts[: k + 1])
    assert tab.h[k] == pytest.approx(0.5 * clean.h[k], rel=1e-12)
    s = np.linspace(0.0, 20.0, 1001)
    assert np.all(np.abs(tab(s) - clean(s)) <= 1e-8 * clean(s) + 1e-11)


def test_solve_ode_step_underflow():
    # every evaluation past t = 1 overflows, so the steps shrink onto t = 1
    def rhs(t, u, v):
        if t > 1.0:
            raise OverflowError("math range error")
        return _linear(t, u, v)

    with pytest.raises(errors.StepUnderflow):
        numerics.solve_ode(rhs, _linear_jac, (0.0, 2.0), [1.0, 0.0], *SPEC)


def test_solve_ode_step_budget(monkeypatch):
    # the linear system takes 646 steps on [0, 5]
    monkeypatch.setattr(numerics, "_ODE_STEP_BUDGET", 10)
    with pytest.raises(errors.StepUnderflow, match="budget"):
        numerics.solve_ode(_linear, _linear_jac, (0.0, 5.0), [1.0, 0.0], *SPEC)


def test_fd_derivative_orders():
    f = math.sin
    d1 = fd_derivative(f, 1.0, order=1)
    d2 = fd_derivative(f, 1.0, order=2)
    assert d1 == pytest.approx(math.cos(1.0), abs=1e-9)
    assert d2 == pytest.approx(-math.sin(1.0), abs=1e-6)
