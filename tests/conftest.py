"""Shared fixtures: parameter sets, profile shoots, matching solvers.

Everything expensive is session-scoped; the reference set is (n=3, m=0.1,
gamma=1.5, A=2) with theta1_minus = -1 (the matching-limit criterion needs
it), the low-gamma set swaps gamma=0.5 to drive the psi4/coefficient
branch.
"""

import pytest

from fdelab.matching import MatchingSolver, find_epsilon_bounds
from fdelab.outer import OuterProfileSet, branch_variant
from fdelab.params import ModelParams, default_thresholds
from fdelab.residuals import find_thresholds
from fdelab.selfsim import shoot_v0


@pytest.fixture(scope="session")
def p_ref():
    return ModelParams(3, 0.1, 1.5, 2.0, theta1_minus=-1.0)


@pytest.fixture(scope="session")
def d_ref(p_ref):
    return p_ref.d


@pytest.fixture(scope="session")
def cfg_ref(p_ref):
    return default_thresholds(p_ref)


@pytest.fixture(scope="session")
def p_low():
    return ModelParams(3, 0.1, 0.5, 2.0, theta1_minus=-1.0)


@pytest.fixture(scope="session")
def d_low(p_low):
    return p_low.d


@pytest.fixture(scope="session")
def cfg_low(p_low):
    return default_thresholds(p_low)


@pytest.fixture(scope="session")
def outer_ref(p_ref, cfg_ref):
    return OuterProfileSet(p_ref, cfg_ref)


@pytest.fixture(scope="session")
def outer_low(p_low, cfg_low):
    return OuterProfileSet(p_low, cfg_low)


@pytest.fixture(scope="session")
def profile_ref(p_ref):
    return shoot_v0(p_ref)


@pytest.fixture(scope="session")
def profile_low(p_low):
    return shoot_v0(p_low)


@pytest.fixture(scope="session")
def solver_ref(profile_ref, outer_ref, p_ref):
    return MatchingSolver(profile_ref, outer_ref, branch_variant(p_ref.gamma))


@pytest.fixture(scope="session")
def solver_low(profile_low, outer_low, p_low):
    return MatchingSolver(profile_low, outer_low, branch_variant(p_low.gamma))


@pytest.fixture(scope="session")
def eps_ref(solver_ref):
    """(eps1, eps2) for the reference set on the CLI's tau window."""
    return find_epsilon_bounds(solver_ref, [10.0, 12.0, 15.0])


@pytest.fixture(scope="session")
def thresholds_minus_ref(outer_ref):
    return find_thresholds(outer_ref, "-")


@pytest.fixture(scope="session")
def thresholds_minus_low(outer_low):
    return find_thresholds(outer_low, "-")


@pytest.fixture(scope="session", params=["ref", "low"])
def outer_all(request, outer_ref, outer_low):
    """Outer profile set in both regimes (N = 1 and N = 2)."""
    return outer_ref if request.param == "ref" else outer_low


@pytest.fixture(scope="session", params=["ref", "low"])
def profile_all(request, profile_ref, profile_low):
    """Shot profile in both regimes."""
    return profile_ref if request.param == "ref" else profile_low
