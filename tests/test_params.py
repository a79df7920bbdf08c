"""Parameter validation, derived constants, config loading."""

import json
import math

import pytest

from fdelab import errors
from fdelab.params import (
    ThresholdConfig,
    default_thresholds,
    load_config,
    make_params,
    params_to_dict,
    validate_params,
)


def test_reference_derived_constants(p_ref, d_ref):
    # closed forms at n=3, m=0.1, gamma=1.5
    assert d_ref.a0 == pytest.approx(28.0 / 9.0, rel=1e-14)
    assert d_ref.b1 == pytest.approx(-8.0 / 9.0, rel=1e-14)
    assert d_ref.b2 == pytest.approx(5.0 / 9.0, rel=1e-14)
    assert d_ref.exponent_rate == pytest.approx(25.0 / 9.0, rel=1e-14)
    assert d_ref.N == 1


def test_branch_count_by_gamma(p_low, d_low):
    # N = floor((1 + 1/gamma)/2) + 1
    assert d_low.N == 2
    p3 = make_params(3, 0.1, 0.3, 2.0)
    assert validate_params(p3).N == 3


def test_theta_defaults(d_ref):
    p = make_params(3, 0.1, 1.5, 2.0)
    assert p.theta1_minus == pytest.approx(d_ref.b1 - 1.0)
    assert p.theta1_plus == pytest.approx(1.0)  # max(0, b1) + 1
    assert p.theta2_minus == 0.0
    assert p.theta2_plus == pytest.approx(d_ref.b2 + 1.0)


def test_theta_overrides_pass_through():
    p = make_params(3, 0.1, 1.5, 2.0, theta1_minus=-1.0, theta2_plus=2.0)
    assert p.theta1_minus == -1.0
    assert p.theta2_plus == 2.0


@pytest.mark.parametrize("bad", [
    dict(n=2, m=0.1, gamma=1.5, A=2.0),      # needs n >= 3
    dict(n=3, m=0.2, gamma=1.5, A=2.0),      # m = (n-2)/(n+2) boundary
    dict(n=3, m=0.25, gamma=1.5, A=2.0),     # above the range
    dict(n=3, m=-0.1, gamma=1.5, A=2.0),
    dict(n=3, m=0.1, gamma=0.0, A=2.0),
    dict(n=3, m=0.1, gamma=1.5, A=0.0),
    dict(n=3, m=0.1, gamma=1.5, A=2.0, T=0.0),
])
def test_invalid_parameters_rejected(bad):
    with pytest.raises(errors.InvalidParameter):
        make_params(**bad)


def test_default_thresholds_shape(p_ref, d_ref, cfg_ref):
    assert cfg_ref.eta0 == pytest.approx(p_ref.A + 1.0)
    # xi0 = max(1, sqrt((n-1)|theta1-|/a0)) = 1 at the reference thetas
    assert cfg_ref.xi0 == pytest.approx(1.0)
    assert cfg_ref.xi1 == pytest.approx(10.0)
    assert cfg_ref.tau_start >= 0.0
    big = make_params(3, 0.1, 1.5, 2.0, theta1_minus=-30.0)
    cfg_big = default_thresholds(big, validate_params(big))
    assert cfg_big.xi0 == pytest.approx(
        math.sqrt(2.0 * 30.0 / validate_params(big).a0))


def test_load_config_round_trip(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "n": 3, "m": 0.1, "gamma": 1.5, "A": 2.0, "T": 1.0,
        "lambda": 2.0, "theta1_minus": -1.0,
        "xi1": 12.0, "tau0": 16.0,
    }))
    p, cfg, extras = load_config(str(cfgfile))
    d = validate_params(p)
    assert p.lam == 2.0
    assert p.theta1_minus == -1.0
    assert cfg.xi1 == 12.0
    assert extras == {"tau0": 16.0}
    blob = params_to_dict(p, d)
    assert blob["params"]["m"] == 0.1
    assert blob["derived"]["a0"] == pytest.approx(d.a0)


def test_load_config_missing_keys(tmp_path):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"n": 3, "m": 0.1}))
    with pytest.raises(errors.InvalidParameter):
        load_config(str(cfgfile))


def test_threshold_config_validation(p_ref, cfg_ref):
    import dataclasses
    assert cfg_ref.validated(p_ref) is cfg_ref
    bad = dataclasses.replace(cfg_ref, eta0=p_ref.A)
    with pytest.raises(errors.InvalidParameter):
        bad.validated(p_ref)
