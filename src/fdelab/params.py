"""Model parameters, derived constants, thresholds and config loading.

Parameter conventions match the fast diffusion setting
    u_t = ((n-1)/m) Delta u^m,  n >= 3,  0 < m < (n-2)/(n+2),
with extinction time T, anisotropy amplitude A, rate parameter gamma,
and corrector weights theta1/theta2 per sign.  theta2^- is 0 in the
construction, so it is no field: theta(p, 2, "-") returns 0.  The other
three weights obey strict inequalities against b1 and b2; a weight left
unset takes the margin of 1 on its inequality (theta1_minus = b1 - 1,
theta1_plus = max(0, b1) + 1, theta2_plus = b2 + 1).  A ModelParams checks
itself when it is built (validate_params) and holds its derived constants
as the attribute d, so every parameter set in the package is admissible
and carries its own a0, b1, b2, N and exponent rate.  Every config value
is a number, type-checked where it enters (config_value), and a config key
that nothing reads is rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import errors

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "radial_diffusion",
    "ThresholdConfig",
    "config_value",
    "validate_params",
    "default_thresholds",
    "load_config",
    "params_to_dict",
]


@dataclass(frozen=True)
class ModelParams:
    """Immutable model parameter set, admissible by construction.

    Building one (dataclasses.replace included) stores every field but n
    as a float and runs validate_params, which gives a theta left as None
    its margin default and raises InvalidParameter on the first violated
    condition.  The derived constants are the attribute d, which is not a
    field: asdict, ==, hash and repr see the nine fields only.
    """

    n: int
    m: float
    gamma: float
    A: float
    T: float = 1.0
    lam: float = 1.0
    theta1_minus: float | None = None
    theta1_plus: float | None = None
    theta2_plus: float | None = None

    def __post_init__(self):
        for f in fields(self)[1:]:  # every field after n is real
            value = getattr(self, f.name)
            if value is not None:
                object.__setattr__(self, f.name, float(value))
        object.__setattr__(self, "d", validate_params(self))


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


def radial_diffusion(p: ModelParams, w, w1, w2):
    """(n-1) [w''/w + b1 (w'/w)^2 + b2 w'/w] from w and its first two
    derivatives in the logarithmic radius, the diffusion term of every
    w-equation (inner profile, L1 residual, comoving PDE)."""
    d = p.d
    return (p.n - 1) * (w2 / w + d.b1 * (w1 / w) ** 2 + d.b2 * w1 / w)


def validate_params(p: ModelParams) -> DerivedConstants:
    """Check every parameter inequality; return the derived constants.

    ModelParams runs this when it is built and keeps the result as p.d;
    the package calls it nowhere else.  Once b1 and b2 are known, a theta
    left as None takes its margin default, and then the theta inequalities
    are checked.  Raises InvalidParameter naming the violated condition.
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
    d = _derived(p.n, p.m, p.gamma)
    margins = {
        "theta1_minus": d.b1 - 1.0,
        "theta1_plus": max(0.0, d.b1) + 1.0,
        "theta2_plus": d.b2 + 1.0,
    }
    for name, margin in margins.items():
        if getattr(p, name) is None:
            object.__setattr__(p, name, margin)
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
    """theta1 or theta2 for sign '+' or '-'; theta2^- is 0."""
    if sign not in ("+", "-"):
        raise errors.InvalidParameter(f"sign must be '+' or '-', got {sign!r}")
    if which == 1:
        return p.theta1_plus if sign == "+" else p.theta1_minus
    if which == 2:
        return p.theta2_plus if sign == "+" else 0.0
    raise errors.InvalidParameter(f"which must be 1 or 2, got {which}")


@dataclass(frozen=True)
class ThresholdConfig:
    """Tunable thresholds, verdict grids and verdict tolerances.

    xi0 is a floor: residuals.find_thresholds raises the minus threshold
    to its computed value, which also keeps psi^- positive.

    C10 is the resonant constant of phi4 = phi3 + C10 eta^(-1-1/gamma)
    log eta.  The default 0 gives the paper's psi1/psi2 (phi4 = phi3); the
    plus thresholds need C10 below the closed-form bound C10_star of
    OuterProfileSet (see the outer module), and no lower bound applies.
    C10 is the one free constant of the outer profiles that the config
    sets: phi1, phi3 and the correction rows carry none (see the outer
    module).
    """

    eta0: float
    xi0: float
    xi1: float
    tau_start: float
    delta0: float = 0.25
    delta1: float = 20.0
    C10: float = 0.0
    grid_eta: int = 200
    grid_tau: int = 40
    sign_atol_factor: float = 1e-9
    inconclusive_frac: float = 1e-3

    def validated(self, p: ModelParams) -> "ThresholdConfig":
        if not (self.eta0 > p.A):
            raise errors.InvalidParameter(
                f"eta0 must exceed A = {p.A}, got {self.eta0}"
            )
        if not (0.0 < self.xi0 <= self.xi1):
            raise errors.InvalidParameter(
                f"need 0 < xi0 <= xi1, got xi0={self.xi0}, xi1={self.xi1}"
            )
        # delta1 <= 0 would put the sampled inner band left of the corner xi1
        if not (self.delta0 > 0.0 and self.delta1 > 0.0):
            raise errors.InvalidParameter(f"need delta0, delta1 > 0: {self.delta0}, {self.delta1}")
        # near-A band must fit below the far-field split at tau_start
        if self.xi1 * math.exp(-p.gamma * self.tau_start) > self.delta0:
            raise errors.InvalidParameter(
                "tau_start too small: xi1*exp(-gamma*tau_start) "
                f"= {self.xi1 * math.exp(-p.gamma * self.tau_start):.3g} "
                f"exceeds delta0 = {self.delta0}"
            )
        if self.grid_eta < 8 or self.grid_tau < 4:
            raise errors.InvalidParameter("grid sizes too small to be meaningful")
        # a negative atol or an inconclusive share of 1 inverts the verdict
        if not (self.sign_atol_factor >= 0.0):
            raise errors.InvalidParameter(
                f"sign_atol_factor must be >= 0, got {self.sign_atol_factor}"
            )
        if not (0.0 <= self.inconclusive_frac < 1.0):
            raise errors.InvalidParameter(
                f"inconclusive_frac must lie in [0, 1), got {self.inconclusive_frac}"
            )
        return self


def default_thresholds(p: ModelParams) -> ThresholdConfig:
    """Default thresholds: the floor xi0 = 1, and a tau_start of at least
    10 at which xi1 e^(-gamma tau_start) stays below delta0 / 4.

    Not checked here: load_config and OuterProfileSet check the config
    they use, so a config keyword can repair a default that fails.
    """
    tau0 = max(10.0, (1.0 / p.gamma) * math.log(4.0 * 10.0 / 0.25) + 1.0)
    return ThresholdConfig(eta0=p.A + 1.0, xi0=1.0, xi1=10.0, tau_start=tau0)


# -- config I/O ---------------------------------------------------------------

_PARAM_KEYS = {f.name for f in fields(ModelParams)}
_THRESHOLD_KEYS = {f.name for f in fields(ThresholdConfig)}
# the simulate window, which the CLI checks where it reads it from extras
_WINDOW_KEYS = {"tau0", "eps", "tau_end", "n_cells", "dtau"}
_INTEGER_KEYS = {"n", "grid_eta", "grid_tau", "n_cells"}


def _finite(value) -> bool:
    """True for an int or float, not a bool, with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def config_value(key: str, value):
    """A config value after the type check of its key.

    Every config value is a number.  An integer key takes an integral
    number and gives an int; every other key takes a finite number,
    returned as given.  Anything else raises InvalidParameter naming the
    key.
    """
    if not _finite(value):
        raise errors.InvalidParameter(f"{key} must be a finite number, got {value!r}")
    if key in _INTEGER_KEYS:
        if not float(value).is_integer():
            raise errors.InvalidParameter(f"{key} must be an integer, got {value!r}")
        return int(value)
    return value


def load_config(path: str):
    """Read a JSON config into (ModelParams, ThresholdConfig, extras).

    Accepts "lambda" as an alias for lam, but not both.  Every parameter and threshold
    key is type-checked by config_value before use.  Threshold keys not
    present fall back to defaults derived from the parameters, and
    parameters not present to the ModelParams defaults.  The simulate
    window keys are returned in extras unchecked (the CLI checks them where
    it reads them); any other key raises InvalidParameter naming it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise errors.InvalidParameter(f"config must be a JSON object, got {raw!r}")
    if "lambda" in raw:
        if "lam" in raw:
            raise errors.InvalidParameter('config gives both "lam" and "lambda"; give one')
        raw["lam"] = raw.pop("lambda")
    unknown = set(raw) - _PARAM_KEYS - _THRESHOLD_KEYS - _WINDOW_KEYS
    if unknown:
        raise errors.InvalidParameter(f"unknown config keys: {sorted(unknown)}")
    known = {k: config_value(k, v) for k, v in raw.items() if k in _PARAM_KEYS | _THRESHOLD_KEYS}

    pkw = {k: v for k, v in known.items() if k in _PARAM_KEYS}
    missing = {"n", "m", "gamma", "A"} - set(pkw)
    if missing:
        raise errors.InvalidParameter(f"config missing required keys: {sorted(missing)}")
    p = ModelParams(**pkw)

    tkw = {k: v for k, v in known.items() if k in _THRESHOLD_KEYS}
    cfg = replace(default_thresholds(p), **tkw).validated(p)

    extras = {k: raw[k] for k in raw if k in _WINDOW_KEYS}
    return p, cfg, extras


def params_to_dict(p: ModelParams) -> dict:
    return {"params": asdict(p), "derived": asdict(p.d)}
