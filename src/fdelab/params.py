"""Model parameters, derived constants, thresholds and config loading.

Parameter conventions match the fast diffusion setting
    u_t = ((n-1)/m) Delta u^m,  n >= 3,  0 < m < (n-2)/(n+2),
with extinction time T, anisotropy amplitude A, rate parameter gamma,
and corrector weights theta1/theta2 per sign.  All derived constants are
computed once and passed around explicitly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import errors

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "radial_diffusion",
    "ThresholdConfig",
    "make_params",
    "validate_params",
    "default_thresholds",
    "load_config",
    "params_to_dict",
]


@dataclass(frozen=True)
class ModelParams:
    """Immutable model parameter set.

    theta2_minus must equal 0; the remaining theta fields obey strict
    inequalities against b1, b2 (see validate_params).
    """

    n: int
    m: float
    gamma: float
    A: float
    T: float = 1.0
    lam: float = 1.0
    theta1_minus: float = 0.0
    theta1_plus: float = 0.0
    theta2_minus: float = 0.0
    theta2_plus: float = 0.0
    epsilon: float = 0.0


@dataclass(frozen=True)
class DerivedConstants:
    """Constants fixed by (n, m, gamma)."""

    a0: float
    b1: float
    b2: float
    N: int
    exponent_rate: float


def _derived(n: int, m: float, gamma: float) -> DerivedConstants:
    one_m = 1.0 - m
    a0 = 2.0 * (n - 1) * (n - 2 - n * m) / one_m
    b1 = (2.0 * m - 1.0) / one_m
    b2 = (n - 2 - m * (n + 2)) / one_m
    # smallest integer strictly greater than (1 + 1/gamma)/2
    half = (1.0 + 1.0 / gamma) / 2.0
    N = int(math.floor(half)) + 1
    rate = (1.0 + gamma) / one_m
    return DerivedConstants(a0=a0, b1=b1, b2=b2, N=N, exponent_rate=rate)


def radial_diffusion(p: ModelParams, d: DerivedConstants, w, w1, w2):
    """(n-1) [w''/w + b1 (w'/w)^2 + b2 w'/w] from w and its first two
    derivatives in the logarithmic radius, the diffusion term of every
    w-equation (inner profile, L1 residual, comoving PDE)."""
    return (p.n - 1) * (w2 / w + d.b1 * (w1 / w) ** 2 + d.b2 * w1 / w)


def make_params(
    n: int,
    m: float,
    gamma: float,
    A: float,
    T: float = 1.0,
    lam: float = 1.0,
    epsilon: float = 0.0,
    **theta_overrides: float,
) -> ModelParams:
    """Build a ModelParams with default corrector weights.

    Defaults: theta1_minus = b1 - 1, theta1_plus = max(0, b1) + 1,
    theta2_minus = 0, theta2_plus = b2 + 1 (a margin of 1 on each strict
    inequality).  Any of the four can be overridden by keyword.
    """
    if not (gamma > 0.0):
        raise errors.InvalidParameter(f"gamma must be positive, got {gamma}")
    d = _derived(n, m, gamma)
    thetas = {
        "theta1_minus": d.b1 - 1.0,
        "theta1_plus": max(0.0, d.b1) + 1.0,
        "theta2_minus": 0.0,
        "theta2_plus": d.b2 + 1.0,
    }
    for key, val in theta_overrides.items():
        if key not in thetas:
            raise TypeError(f"unknown parameter {key!r}")
        thetas[key] = float(val)
    p = ModelParams(
        n=int(n), m=float(m), gamma=float(gamma), A=float(A), T=float(T),
        lam=float(lam), epsilon=float(epsilon), **thetas,
    )
    validate_params(p)
    return p


def validate_params(p: ModelParams) -> DerivedConstants:
    """Check every parameter inequality; return the derived constants.

    Raises InvalidParameter naming the violated condition.
    """
    if not isinstance(p.n, (int, np.integer)) or p.n < 3:
        raise errors.InvalidParameter(f"n must be an integer >= 3, got {p.n}")
    m_crit = (p.n - 2) / (p.n + 2)
    if not (0.0 < p.m):
        raise errors.InvalidParameter(f"m must satisfy m > 0, got {p.m}")
    if p.m == m_crit:
        raise errors.InvalidParameter(
            f"m = (n-2)/(n+2) = {m_crit} is the borderline case b2 = 0; "
            "the construction requires m strictly below it"
        )
    if not (p.m < m_crit):
        raise errors.InvalidParameter(
            f"m must satisfy m < (n-2)/(n+2) = {m_crit}, got {p.m}"
        )
    if not (p.gamma > 0.0):
        raise errors.InvalidParameter(f"gamma must be positive, got {p.gamma}")
    if not (p.A > 1.0):
        raise errors.InvalidParameter(f"A must satisfy A > 1, got {p.A}")
    if not (p.T > 0.0):
        raise errors.InvalidParameter(f"T must be positive, got {p.T}")
    if not (p.lam > 0.0):
        raise errors.InvalidParameter(f"lambda must be positive, got {p.lam}")
    if not (0.0 <= p.epsilon < 0.25):
        raise errors.InvalidParameter(
            f"epsilon must lie in [0, 1/4), got {p.epsilon}"
        )
    d = _derived(p.n, p.m, p.gamma)
    if p.theta2_minus != 0.0:
        raise errors.InvalidParameter(
            f"theta2_minus must equal 0, got {p.theta2_minus}"
        )
    if not (p.theta1_minus < d.b1):
        raise errors.InvalidParameter(
            f"theta1_minus must be < b1 = {d.b1}, got {p.theta1_minus}"
        )
    if not (p.theta1_plus > max(0.0, d.b1)):
        raise errors.InvalidParameter(
            f"theta1_plus must be > max(0, b1) = {max(0.0, d.b1)}, "
            f"got {p.theta1_plus}"
        )
    if not (p.theta2_plus > d.b2):
        raise errors.InvalidParameter(
            f"theta2_plus must be > b2 = {d.b2}, got {p.theta2_plus}"
        )
    return d


def theta(p: ModelParams, which: int, sign: str) -> float:
    """theta1 or theta2 for sign '+' or '-'."""
    if sign not in ("+", "-"):
        raise errors.InvalidParameter(f"sign must be '+' or '-', got {sign!r}")
    if which == 1:
        return p.theta1_plus if sign == "+" else p.theta1_minus
    if which == 2:
        return p.theta2_plus if sign == "+" else p.theta2_minus
    raise errors.InvalidParameter(f"which must be 1 or 2, got {which}")


@dataclass(frozen=True)
class ThresholdConfig:
    """Tunable thresholds and search controls.

    C10 = None means: determine by doubling when OuterProfileSet is
    constructed, which fixes C10 for the life of the set.  C10 = 0 gives
    the paper's psi1/psi2 (phi4 = phi3).
    seed_constants holds (k, value) pairs seeding the homogeneous part
    c_{k,0} of the correction coefficient rows.
    """

    eta0: float
    xi0: float
    xi1: float
    tau_start: float
    delta0: float = 0.25
    delta1: float = 20.0
    homog_C1: float = 0.0
    homog_C3: float = 0.0
    C10: float | None = None
    max_doublings: int = 24
    grid_eta: int = 200
    grid_tau: int = 40
    sign_atol_factor: float = 1e-9
    inconclusive_frac: float = 1e-3
    seed_constants: tuple = ()

    def validated(self, p: ModelParams) -> "ThresholdConfig":
        if not (self.eta0 > p.A):
            raise errors.InvalidParameter(
                f"eta0 must exceed A = {p.A}, got {self.eta0}"
            )
        if not (0.0 < self.xi0 <= self.xi1):
            raise errors.InvalidParameter(
                f"need 0 < xi0 <= xi1, got xi0={self.xi0}, xi1={self.xi1}"
            )
        if not (self.delta0 > 0.0):
            raise errors.InvalidParameter(f"delta0 must be positive, got {self.delta0}")
        # near-A band must fit below the far-field split at tau_start
        if self.xi1 * math.exp(-p.gamma * self.tau_start) > self.delta0:
            raise errors.InvalidParameter(
                "tau_start too small: xi1*exp(-gamma*tau_start) "
                f"= {self.xi1 * math.exp(-p.gamma * self.tau_start):.3g} "
                f"exceeds delta0 = {self.delta0}"
            )
        if self.grid_eta < 8 or self.grid_tau < 4:
            raise errors.InvalidParameter("grid sizes too small to be meaningful")
        return self


def default_thresholds(p: ModelParams, d: DerivedConstants) -> ThresholdConfig:
    """Starting thresholds; searches may enlarge tau_start and xi0."""
    xi0 = max(1.0, math.sqrt((p.n - 1) * abs(p.theta1_minus) / d.a0))
    tau0 = max(10.0, (1.0 / p.gamma) * math.log(4.0 * 10.0 / 0.25) + 1.0)
    cfg = ThresholdConfig(eta0=p.A + 1.0, xi0=xi0, xi1=10.0, tau_start=tau0)
    return cfg.validated(p)


# -- config I/O ---------------------------------------------------------------

_PARAM_KEYS = {
    "n", "m", "gamma", "A", "T", "lam", "epsilon",
    "theta1_minus", "theta1_plus", "theta2_minus", "theta2_plus",
}
_THRESHOLD_KEYS = {
    "eta0", "xi0", "xi1", "tau_start", "delta0", "delta1",
    "homog_C1", "homog_C3", "C10", "max_doublings", "grid_eta", "grid_tau",
    "sign_atol_factor", "inconclusive_frac", "seed_constants",
}


def load_config(path: str):
    """Read a JSON config into (ModelParams, ThresholdConfig, extras).

    Accepts "lambda" as an alias for lam.  Threshold keys not present fall
    back to defaults derived from the parameters.  Unknown keys are returned
    in extras (the CLI reads the simulate window from them).
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if "lambda" in raw:
        raw.setdefault("lam", raw.pop("lambda"))

    pkw = {k: raw[k] for k in list(raw) if k in _PARAM_KEYS}
    theta_overrides = {
        k: pkw.pop(k) for k in list(pkw) if k.startswith("theta")
    }
    missing = {"n", "m", "gamma", "A"} - set(pkw)
    if missing:
        raise errors.InvalidParameter(f"config missing required keys: {sorted(missing)}")
    p = make_params(**pkw, **theta_overrides)
    d = validate_params(p)

    tkw = {k: raw[k] for k in raw if k in _THRESHOLD_KEYS}
    if "seed_constants" in tkw:
        tkw["seed_constants"] = tuple(tuple(pair) for pair in tkw["seed_constants"])
    base = default_thresholds(p, d)
    cfg = replace(base, **tkw).validated(p) if tkw else base

    extras = {k: raw[k] for k in raw if k not in _PARAM_KEYS | _THRESHOLD_KEYS}
    return p, cfg, extras


def params_to_dict(p: ModelParams, d: DerivedConstants) -> dict:
    return {"params": asdict(p), "derived": asdict(d)}
