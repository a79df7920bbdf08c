"""Root finding, ODE wrapper, and the finite-difference test helper."""

import math

import pytest

from fdelab import errors, numerics
from numdiff import fd_derivative


def test_find_root_monotone_basic():
    r = numerics.find_root_monotone(lambda x: x * x - 2.0, 0.0, 1.0)
    assert r == pytest.approx(math.sqrt(2.0), abs=1e-11)


def test_find_root_monotone_expands_bracket():
    # root at 1000; initial bracket far short of it
    r = numerics.find_root_monotone(lambda x: x - 1000.0, 0.0, 1.0)
    assert r == pytest.approx(1000.0, abs=1e-8)


def test_find_root_monotone_no_bracket():
    with pytest.raises(errors.NoBracket):
        numerics.find_root_monotone(lambda x: 1.0 + x * x, 0.0, 1.0,
                                    expand_budget=8)


def test_solve_ode_exponential():
    sol = numerics.solve_ode(lambda t, y: -y, (0.0, 5.0), [1.0])
    assert float(sol.sol(5.0)[0]) == pytest.approx(math.exp(-5.0), rel=1e-7)


def test_solve_ode_blowup_guard():
    spec = numerics.OdeSpec(blowup_guard=1e6)
    with pytest.raises(errors.BlowupGuardTripped):
        numerics.solve_ode(lambda t, y: y * y, (0.0, 2.0), [1.0], spec=spec)


def test_fd_derivative_orders():
    f = math.sin
    d1 = fd_derivative(f, 1.0, order=1)
    d2 = fd_derivative(f, 1.0, order=2)
    assert d1 == pytest.approx(math.cos(1.0), abs=1e-9)
    assert d2 == pytest.approx(-math.sin(1.0), abs=1e-6)
