"""Parameter validation, derived constants, config loading."""

import dataclasses
import json
import math

import pytest

from fdelab import errors
from fdelab.params import (
    ModelParams,
    ThresholdConfig,
    default_thresholds,
    load_config,
    params_to_dict,
    theta,
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
    p3 = ModelParams(3, 0.1, 0.3, 2.0)
    assert p3.d.N == 3


def test_theta_defaults():
    # b1 = 0.5 > 0 at n = 10, m = 0.6, so theta1_plus = max(0, b1) + 1 = b1 + 1
    p = ModelParams(10, 0.6, 1.5, 2.0)
    assert p.d.b1 == pytest.approx(0.5) and p.d.b2 == pytest.approx(2.0)
    assert p.theta1_minus == pytest.approx(-0.5)
    assert p.theta1_plus == pytest.approx(1.5)
    assert p.theta2_plus == pytest.approx(3.0)
    # theta2- is no field: the construction fixes it at 0
    assert theta(p, 2, "-") == 0.0 and not hasattr(p, "theta2_minus")


def test_theta_overrides_pass_through():
    p = ModelParams(3, 0.1, 1.5, 2.0, theta1_minus=-1.0, theta2_plus=2.0)
    assert p.theta1_minus == -1.0
    assert p.theta2_plus == 2.0


def test_model_params_fill_default_weights():
    # a weight left out takes a margin of 1 on its strict inequality, and
    # every real field is stored as a float, so an int A hashes as 2.0
    p = ModelParams(3, 0.1, 1.5, 2.0)
    d = p.d
    assert (p.theta1_minus, p.theta1_plus, theta(p, 2, "-"), p.theta2_plus) == (
        d.b1 - 1.0, max(0.0, d.b1) + 1.0, 0.0, d.b2 + 1.0
    )
    same = ModelParams(3, 0.1, 1.5, 2)
    assert type(same.A) is float and same == p and hash(same) == hash(p)
    # an explicit None is the margin too; a weight that breaks its
    # inequality still raises
    assert ModelParams(3, 0.1, 1.5, 2.0, theta2_plus=None) == p
    with pytest.raises(errors.InvalidParameter, match="theta1_plus"):
        ModelParams(3, 0.1, 1.5, 2.0, theta1_plus=0.0)


@pytest.mark.parametrize("bad", [
    dict(n=2, m=0.1, gamma=1.5, A=2.0),      # needs n >= 3
    dict(n=3, m=0.2, gamma=1.5, A=2.0),      # m = (n-2)/(n+2) boundary
    dict(n=3, m=0.25, gamma=1.5, A=2.0),     # above the range
    dict(n=3, m=-0.1, gamma=1.5, A=2.0),
    dict(n=3, m=0.1, gamma=0.0, A=2.0),
    dict(n=3, m=0.1, gamma=1.5, A=0.0),
    dict(n=3, m=0.1, gamma=1.5, A=2.0, T=0.0),
    dict(n=3.5, m=0.1, gamma=1.5, A=2.0),    # not truncated to 3
    dict(n=3, m=1.0, gamma=1.5, A=2.0),      # 1 - m divides b1 and b2
])
def test_invalid_parameters_rejected(bad):
    with pytest.raises(errors.InvalidParameter):
        ModelParams(**bad)


def test_default_thresholds_shape(p_ref, cfg_ref):
    assert cfg_ref.eta0 == pytest.approx(p_ref.A + 1.0)
    # xi0 is the floor 1 whatever theta1-: residuals.find_thresholds owns
    # the bound sqrt((n-1)|theta1-|/a0) (test_xi0_lower_bound_respected)
    assert cfg_ref.xi0 == pytest.approx(1.0)
    assert cfg_ref.xi1 == pytest.approx(10.0)
    assert cfg_ref.tau_start >= 0.0
    big = ModelParams(3, 0.1, 1.5, 2.0, theta1_minus=-30.0)
    assert default_thresholds(big).xi0 == 1.0


def test_load_config_round_trip(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "n": 3, "m": 0.1, "gamma": 1.5, "A": 2.0, "T": 1.0,
        "lambda": 2.0, "theta1_minus": -1.0,
        "xi1": 12.0, "tau0": 16.0,
    }))
    p, cfg, extras = load_config(str(cfgfile))
    assert p.lam == 2.0
    assert p.theta1_minus == -1.0
    assert cfg.xi1 == 12.0
    assert extras == {"tau0": 16.0}
    blob = params_to_dict(p)
    assert blob["params"]["m"] == 0.1
    assert blob["derived"]["a0"] == pytest.approx(p.d.a0)


def test_load_config_takes_lam_or_lambda_not_both(tmp_path):
    # "lambda" used to be dropped in silence when "lam" was given too
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"n": 3, "m": 0.1, "gamma": 1.5, "A": 2.0,
                                   "lam": 1.0, "lambda": 3.0}))
    with pytest.raises(errors.InvalidParameter, match='"lam" and "lambda"'):
        load_config(str(cfgfile))


def test_load_config_missing_keys(tmp_path):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"n": 3, "m": 0.1}))
    with pytest.raises(errors.InvalidParameter):
        load_config(str(cfgfile))


def test_threshold_config_validation(p_ref, cfg_ref):
    assert cfg_ref.validated(p_ref) is cfg_ref
    bad = dataclasses.replace(cfg_ref, eta0=p_ref.A)
    with pytest.raises(errors.InvalidParameter):
        bad.validated(p_ref)
    # the verdict knobs that would invert the verdict name their key
    for key, value in (("sign_atol_factor", -1.0), ("inconclusive_frac", 1.0),
                       ("inconclusive_frac", -0.5)):
        with pytest.raises(errors.InvalidParameter, match=key):
            dataclasses.replace(cfg_ref, **{key: value}).validated(p_ref)


@pytest.mark.parametrize("key", ["delta0", "delta1"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
def test_band_widths_must_be_positive(p_ref, cfg_ref, key, value):
    # delta1 <= 0 would put the sampled inner band (xi1, xi1 + delta1]
    # left of the corner, where left_margin decides L1's sign
    cfg = dataclasses.replace(cfg_ref, **{key: value})
    with pytest.raises(errors.InvalidParameter, match=rf"^need delta0, delta1 > 0: "
                                                     rf"{cfg.delta0}, {cfg.delta1}$"):
        cfg.validated(p_ref)


def test_params_check_themselves(p_ref):
    # every ModelParams is admissible: replace re-runs the checks, and the
    # derived constants ride along without being a field
    with pytest.raises(errors.InvalidParameter, match="m must satisfy"):
        dataclasses.replace(p_ref, m=0.5)
    # theta2- and epsilon are no fields, so replace refuses them
    for key in ("theta2_minus", "epsilon"):
        with pytest.raises(TypeError, match=key):
            dataclasses.replace(p_ref, **{key: 0.0})
    same = dataclasses.replace(p_ref)
    assert same == p_ref and hash(same) == hash(p_ref)
    assert same.d == p_ref.d
    assert [f.name for f in dataclasses.fields(p_ref)] == [
        "n", "m", "gamma", "A", "T", "lam", "theta1_minus", "theta1_plus", "theta2_plus",
    ]
    assert "d" not in dataclasses.asdict(p_ref)
