"""First-order self-similar profile: shooting, tail expansion, stationarity."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import sympy as sp

from fdelab import errors, numerics, selfsim
from fdelab.params import ModelParams
from fdelab.selfsim import save_profile, shoot_v0, verify_tail_asymptotics
from numdiff import fd_derivative
from shoot_sweep import inverse_round_trip, shoot_or_error, sweep_params

# Frozen from the first converged shoot at each parameter set.  The tail
# constants a, c, d, e0 and e1 are closed forms; K is the one constant
# matched to the table at s_max.
REF_K = 1.3113855841796591
LOW_K = 2.225201216467787


def test_reference_tail_fit_frozen(profile_ref):
    assert profile_ref.K == pytest.approx(REF_K, rel=1e-9)
    a, c, d, e0, e1 = selfsim._tail_constants(profile_ref.p)
    assert d == pytest.approx(0.1322751322751323, rel=1e-12)
    assert profile_ref._tail == (a, c, profile_ref.K, d, e0 + e1 * profile_ref.K)


def test_low_gamma_tail_fit_frozen(profile_low):
    assert profile_low.K == pytest.approx(LOW_K, rel=1e-9)


def test_slope_limit_closed_form(profile_ref, profile_low):
    for prof in (profile_ref, profile_low):
        p, d = prof.p, prof.p.d
        assert prof.slope_limit == pytest.approx(d.a0 / (p.gamma * p.A), rel=1e-12)
    assert profile_ref.slope_limit == pytest.approx(28.0 / 27.0, rel=1e-12)


def test_log_power_closed_form(profile_ref, profile_low):
    # tail phibar0 ~ K1 e^(slope s) s^(-b2/gamma)
    for prof in (profile_ref, profile_low):
        assert prof.c_log_exact == pytest.approx(
            -prof.p.d.b2 / prof.p.gamma, rel=1e-12
        )


def test_tail_asymptotics_report(profile_all):
    rep = verify_tail_asymptotics(profile_all)
    assert list(rep) == [
        "slope_limit", "c_log_exact", "K", "tail_deviation_max", "tail_last_term",
        "endpoint_slope_gap", "monotone", "stationary_residual_max", "refinement_rel_diff",
    ]
    assert rep["monotone"] is True
    # the table stays within 1e-2 of the expansion's last retained term
    # (1.85e-5 against 4.5e-3 on ref, 2.1e-5 against 7.5e-3 on low)
    assert rep["tail_deviation_max"] < 1e-2 * rep["tail_last_term"]
    assert rep["K"] == profile_all.K
    assert rep["stationary_residual_max"] < 1e-6
    assert rep["refinement_rel_diff"] < 1e-6


def test_tail_constants_solve_the_stationary_equation():
    # put phibar0 = a s + c log s + K + (d log s + e)/s + f (log s)^2/s
    # into the stationary equation times phibar0^2, with s = 1/t and
    # log s = ell: with a = a0/(gA) and c = -(n-1) b2/(gA) no negative
    # power of t is left, and the order-1 part fixes f, d and e
    t, ell, K, d, e, f = sp.symbols("t ell K d e f")
    n, gA, a0, b1, b2 = sp.symbols("n gA a0 b1 b2", positive=True)
    s = sp.symbols("s", positive=True)
    a, c = a0 / gA, -(n - 1) * b2 / gA
    phi = a * s + c * sp.log(s) + K + (d * sp.log(s) + e) / s + f * sp.log(s) ** 2 / s
    p1, p2 = phi.diff(s), phi.diff(s, 2)
    R = (n - 1) * (p2 * phi + b1 * p1 ** 2 + b2 * p1 * phi) - (a0 - gA * p1) * phi ** 2
    R = sp.Poly(sp.expand(R.subs(sp.log(s), ell).subs(s, 1 / t)), t, ell)
    order1 = [R.coeff_monomial(ell ** k) for k in (2, 1, 0)]
    (sol,) = sp.solve(order1, [f, d, e], dict=True)
    assert sol[f] == 0
    assert sp.simplify(sol[d] - c ** 2 / a) == 0
    assert sp.simplify(sol[e] - ((n - 1) * b1 / gA + c / a * K)) == 0
    for p in (ModelParams(3, 0.1, 1.5, 2.0), ModelParams(3, 0.1, 0.5, 2.0), *SWEEP_SUBSET):
        at = {n: p.n, gA: p.gamma * p.A, a0: p.d.a0, b1: p.d.b1, b2: p.d.b2}
        want = [a, c, sol[d], sol[e].subs(K, 0), sol[e].diff(K)]
        got = selfsim._tail_constants(p)
        assert got == pytest.approx([float(w.subs(at)) for w in want], rel=1e-13)


@pytest.mark.parametrize("which", [0, 1])
def test_tail_check_catches_a_perturbed_p_equation(p_ref, monkeypatch, which):
    # c1 or c2 of the P-equation 1e-4 off: the shoot's far field leaves the
    # expansion by far more than its last retained term
    consts = list(selfsim._p_equation(p_ref))
    consts[which] *= 1.0 + 1e-4
    monkeypatch.setattr(selfsim, "_p_equation", lambda p: tuple(consts))
    deviation, last_term = shoot_v0(p_ref).tail_deviation()
    assert deviation > 10.0 * last_term


def test_stationary_residual_on_grid(profile_all):
    ss = np.linspace(-8.0, 40.0, 500)
    res = profile_all._stationary_residual(ss)
    assert np.max(np.abs(res)) < 1e-6


def test_monotone_increasing(profile_ref):
    ss = np.linspace(profile_ref.s_min + 1.0, 50.0, 400)
    vals = profile_ref.phibar0(ss)
    assert np.all(np.diff(vals) > 0.0)


@pytest.mark.parametrize("gamma", [1.5, 0.5, 0.25])
def test_ratio_nondecreasing_from_one_half(gamma):
    # h = phibar0/phibar0' is 1/2 on the core law and does not fall over
    # the table: the check at the breakpoints agrees with h read on
    # 200,001 points of [s_min - 5, s_max]
    prof = shoot_v0(ModelParams(3, 0.1, gamma, 2.0))
    assert prof.ratio_nondecreasing(prof.s_min - 5.0) and prof.ratio_nondecreasing(prof.s_max)
    v, dv, _ = prof.phibar0(np.linspace(prof.s_min - 5.0, prof.s_max, 200001), derivs=True)
    assert (v / dv).min() == 0.5 and np.all(np.diff(v / dv) >= 0.0)


def test_ratio_check_sees_a_rising_p_and_the_tail_seam(p_ref, profile_ref):
    # a P that rises at one breakpoint fails the table check
    table = profile_ref._table
    coef = table.coef.copy()
    coef[500, 1, 0] = coef[499, 1, 0] + 1e-3
    bent = selfsim.SelfSimilarProfile(p_ref, dataclasses.replace(table, coef=coef))
    assert not bent.ratio_nondecreasing(profile_ref.s_min)
    # past the table h is g/g' of the tail expansion g, which rises; read
    # from u_max on, so the check also sees the seam, where h steps from
    # 1/(2 + c P) of the table to g/g' (down, by 1.6e-7, on ref)
    U, c = profile_ref._u_max, profile_ref._c
    u = np.linspace(U, U + 5000.0, 2001)
    g, dg, _ = profile_ref._expansion(u, np.log(u))
    assert np.all(np.diff(g / dg) > 0.0)
    step = g[0] / dg[0] - 1.0 / (2.0 + c * table(U)[1])
    assert step == pytest.approx(-1.6e-7, rel=0.05)
    assert not profile_ref.ratio_nondecreasing(profile_ref.s_max + 50.0)


def test_flat_core_limit(profile_all):
    # w = r^2 u^(1-m) with u -> lam at the origin: e^(-2s) phibar0 -> lam^(1-m)
    p = profile_all.p
    want = p.lam ** (1.0 - p.m)
    got = math.exp(20.0) * profile_all.phibar0(-10.0)
    assert got == pytest.approx(want, rel=1e-6)


def test_v0_pin_through_phibar0(profile_ref):
    # phibar0(0) = v0(1)^(1-m): the profile value at unit radius
    p = profile_ref.p
    assert profile_ref.phibar0(0.0) == pytest.approx(
        0.6453049837181274 ** (1.0 - p.m), rel=1e-8
    )


def test_phibar0_derivative_matches_fd(profile_ref):
    # core, table and tail points (s_max = 400); phibar0'' against the
    # difference of phibar0', whose roundoff floor sits far below that of
    # a second difference
    def d1(s):
        return profile_ref.phibar0(s, derivs=True)[1]

    for s0 in (-2.0, 1.0, 10.0, 450.0, 1000.0):
        _, v1, v2 = profile_ref.phibar0(s0, derivs=True)
        scale = max(1.0, s0)
        assert v1 == pytest.approx(fd_derivative(profile_ref.phibar0, s0, scale=scale), rel=1e-6)
        assert v2 == pytest.approx(fd_derivative(d1, s0, scale=scale), rel=1e-5)


def test_derivs_triple_carries_the_value_bit_for_bit(profile_ref):
    s = np.array([-20.0, -2.0, 1.0, 10.0, 399.0, 450.0, 1000.0])
    v, v1, v2 = profile_ref.phibar0(s, derivs=True)
    assert np.array_equal(v, profile_ref.phibar0(s))
    assert v.shape == v1.shape == v2.shape == s.shape
    for x in s:
        triple = profile_ref.phibar0(float(x), derivs=True)
        assert [type(t) for t in triple] == [float, float, float]
        assert triple[0] == profile_ref.phibar0(float(x))


def test_value_alone_reads_the_z_state_bit_for_bit(profile_ref):
    """The value alone, on a (tau, xi)-like grid inside the table (no branch
    masks) and on a grid across the core, the table and the tail, has the
    bits of the triple's value, which reads both states of the table; and
    StepTable(t, states) has the bits of those rows of StepTable(t), at
    the breakpoints too."""
    prof, tab = profile_ref, profile_ref._table
    inside = np.linspace(prof.s_min + 1.0, prof.s_max - 1.0, 20 * 161).reshape(20, 161)
    across = np.linspace(prof.s_min - 5.0, prof.s_max + 5.0, 20 * 161).reshape(20, 161)
    for s in (inside, across):
        assert np.array_equal(prof.phibar0(s), prof.phibar0(s, derivs=True)[0])
    t = np.concatenate([tab.ts, np.linspace(tab.ts[0], tab.ts[-1], 1001)])
    for states in (slice(1), slice(1, 2), slice(None)):
        assert np.array_equal(tab(t, states), tab(t)[states])


def test_tail_extension_continuous(profile_ref):
    # beyond s_max the profile switches to the tail expansion, whose K is
    # matched to the table's end value: the value is continuous up to
    # rounding, the slope up to the endpoint slope gap
    smax = profile_ref.s_max
    lo, dlo, _ = profile_ref.phibar0(smax, derivs=True)
    hi, dhi, _ = profile_ref.phibar0(math.nextafter(smax, math.inf), derivs=True)
    assert hi == pytest.approx(lo, rel=4e-16)
    assert dhi == pytest.approx(dlo, rel=1e-9)


def test_endpoint_slope_gap_meets_the_expansion(profile_all):
    # phibar0' = a + c/s + O(log s / s^2): the slope is off the limit a by
    # the c/s term at s_max, but meets the expansion's derivative there to
    # far below that term
    prof = profile_all
    S = prof.s_max
    slope = prof.phibar0(S, derivs=True)[1]
    assert slope - prof.slope_limit == pytest.approx(prof.c_log_exact / S, rel=1e-2)
    gap = verify_tail_asymptotics(prof)["endpoint_slope_gap"]
    assert abs(gap) < 1e-4 * abs(prof.c_log_exact / S)


def test_fresh_shoot_warns_slope_not_converged(p_ref):
    # a fresh shoot still ends with its slope off the limit, but says so in
    # the selfsim-tail details and no longer through a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = shoot_v0(p_ref)
    assert verify_tail_asymptotics(prof)["endpoint_slope_gap"] != 0.0


def test_slope_converged_flag(profile_ref):
    # finite s_max leaves the endpoint slope ~1e-3 off the limit (the c/s
    # term), and the tail check's gap is measured against the expansion
    assert not hasattr(profile_ref, "slope_converged")
    off = profile_ref.phibar0(profile_ref.s_max, derivs=True)[1] - profile_ref.slope_limit
    assert 1e-4 < abs(off) < 1e-2
    gap = verify_tail_asymptotics(profile_ref)["endpoint_slope_gap"]
    assert abs(gap) < 1e-9


def test_save_profile_deterministic(profile_ref, tmp_path):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    save_profile(profile_ref, f1)
    save_profile(profile_ref, f2)
    b1 = f1.read_bytes()
    assert b1 == f2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "s,phibar0,dphibar0"
    assert len(lines) == 2003


def test_save_profile_creates_missing_directory(profile_ref, tmp_path):
    path = tmp_path / "fresh" / "selfsim.csv"
    save_profile(profile_ref, path)
    save_profile(profile_ref, tmp_path / "selfsim.csv")
    assert path.read_bytes() == (tmp_path / "selfsim.csv").read_bytes()


def test_step_table_matches_scipy_radau_dense_output():
    # y = (e^-t, 1/(1+t)): both components stay away from zero, so the
    # comparison is relative everywhere; the port takes scipy's steps, and
    # the two dense outputs differ by rounding, far below the tolerances
    def rhs(t, u, v):
        return -u, -v * v

    def jac(t, u, v):
        return -1.0, 0.0, 0.0, -2.0 * v

    tab = numerics.solve_ode(rhs, jac, (0.0, 20.0), [1.0, 1.0], 1e-10, 1e-12)
    ref = scipy.integrate.solve_ivp(
        lambda t, y: rhs(t, *y), (0.0, 20.0), [1.0, 1.0], method="Radau",
        jac=lambda t, y: np.reshape(jac(t, *y), (2, 2)), rtol=1e-10, atol=1e-12,
        dense_output=True,
    )
    assert tab.ts[0] == 0.0 and tab.ts[-1] == 20.0
    assert len(tab.ts) == len(ref.t)
    assert np.all(tab.h == np.diff(tab.ts))
    rng = np.random.default_rng(7)
    s = np.concatenate([rng.uniform(0.0, 20.0, 10000), tab.ts])
    want = ref.sol(s)
    got = tab(s)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-11
    # a breakpoint belongs to the lower step, which ends on the next state
    start = tab.coef[1:, :, 0].T
    assert np.max(np.abs(tab(tab.ts[1:-1]) - start) / np.abs(start)) < 1e-14
    assert tab(3.0) == pytest.approx(ref.sol(3.0), rel=1e-11)


# sha256 of ts.tobytes() and coef.tobytes() (first 16 hex digits) and the
# solver counters (accepted steps, attempts, Newton iterations, Jacobian
# evaluations) of the shoot on ref and low, at the default tolerances and
# at the refinement shoot's.  The stepper must reproduce its tables bit
# for bit; the hashes hold for one libm, whose exp may round differently
# on another platform.
_FINE = 2.5e-11  # rel_tol of the refinement shoot
SHOOT_PINS = [
    ("ref", None, "efc59055ddd75e18", "42c2e6e2d3e5f586", (1077, 1096, 2593, 266)),
    ("ref", _FINE, "584737162e088c17", "3f3310da8a042a2a", (1492, 1513, 3360, 289)),
    ("low", None, "575d298a51d17e92", "1b00689278853a68", (1077, 1097, 2595, 266)),
    ("low", _FINE, "78fc643a5ceaf158", "7c13a951f98b0bff", (1507, 1528, 3391, 289)),
]


@pytest.mark.parametrize("which,rel_tol,ts_sha,coef_sha,counts", SHOOT_PINS,
                         ids=["ref", "ref-fine", "low", "low-fine"])
def test_shoot_step_table_pinned_bit_for_bit(request, which, rel_tol, ts_sha, coef_sha, counts):
    prof = request.getfixturevalue(f"profile_{which}")
    tab = prof._table if rel_tol is None else shoot_v0(prof.p, rel_tol=rel_tol)._table
    assert hashlib.sha256(tab.ts.tobytes()).hexdigest()[:16] == ts_sha
    assert hashlib.sha256(tab.coef.tobytes()).hexdigest()[:16] == coef_sha
    assert (len(tab.h), tab.attempts, tab.newton_iters, tab.jac_evals) == counts


def test_scalar_route_matches_array_route(profile_ref):
    # a scalar s takes the array route and comes back as a float
    assert type(profile_ref.phibar0(1.0)) is float


def _lsoda_phibar0(profile, s):
    """phibar0 at s from scipy's LSODA at rtol 1e-13, started from the
    shoot's own initial state: a tight reference, within about 2e-10 of
    scipy's Radau at the same tolerance."""
    p = profile.p
    n, m, gamma, A = p.n, p.m, p.gamma, p.A

    def rhs(t, y):
        Z, P = y
        E = math.exp(2.0 * t + (1.0 / m - 1.0) * Z)
        return [P, -P * P - (n - 2) * P
                - (m / (n - 1)) * E * (2.0 * gamma * A / (1.0 - m) + gamma * A / m * P)]

    tab = profile._table
    sol = scipy.integrate.solve_ivp(
        rhs, (tab.ts[0], tab.ts[-1]), tab.coef[0, :, 0], method="LSODA",
        rtol=1e-13, atol=1e-15, dense_output=True,
    )
    return np.exp(2.0 * s + (1.0 - m) / m * sol.sol(s)[0])


# every 16th case of the 81-case sweep: n 3, 4 and 6, all three m
# fractions, gamma 0.3 and 3, A 1.05, 2 and 5
SWEEP_SUBSET = list(sweep_params())[::16]


@pytest.mark.parametrize(
    "p", SWEEP_SUBSET, ids=[f"n{p.n}-m{p.m:.3f}-g{p.gamma:g}-A{p.A:g}" for p in SWEEP_SUBSET]
)
def test_shoot_sweep_subset_matches_tight_reference(p):
    prof = shoot_or_error(p)
    assert not isinstance(prof, errors.FdelabError), prof
    s = np.linspace(prof.s_min, prof.s_max, 2001)
    want = _lsoda_phibar0(prof, s)
    assert np.max(np.abs(prof.phibar0(s) - want) / want) < 1e-8
    # the inverse round trips core, table and tail as on ref and low
    inner, tail = inverse_round_trip(prof)
    assert inner <= 2.0 and tail <= TAIL_ROUND_TRIP
    # the table stays within the expansion's last retained term (at most
    # 0.065 of it over the whole sweep)
    deviation, last_term = prof.tail_deviation()
    assert deviation < last_term


def test_inverse_round_trips_the_core_and_the_table(profile_all):
    # phibar0(inverse(y)) = y to the resolution of phibar0 itself, whose
    # exponent 2s + c Z(s) carries rounding of about ulp(2s)
    prof = profile_all
    rng = np.random.default_rng(11)
    s = np.concatenate([
        rng.uniform(prof.s_min - 10.0, prof.s_min, 200),  # core law
        rng.uniform(prof.s_min, prof.s_max, 2000),  # step table
        prof._table.ts[1:-1:25],  # breakpoints
    ])
    y = prof.phibar0(s)
    back = np.array([prof.inverse(v) for v in y.tolist()])
    ulps = np.spacing(2.0 * np.maximum(np.abs(s), 1.0))
    assert np.all(np.abs(prof.phibar0(back) / y - 1.0) <= 2.0 * ulps)
    assert np.array_equal(back < prof.s_min, s < prof.s_min)
    # the core law inverts in closed form
    y = prof.phibar0(prof.s_min - 5.0)
    want = 0.5 * (math.log(y) - (1.0 - prof.p.m) * math.log(prof.p.lam))
    assert prof.inverse(y) == want


# the tail inverse is Newton to 4 ulp in s on a s + c log s + K + (d log s + e)/s
TAIL_ROUND_TRIP = 2e-15


def test_inverse_round_trips_the_tail(profile_all):
    prof = profile_all
    s = np.array([prof.s_max + 0.5, 1e3, 1e5])
    y = prof.phibar0(s)
    back = np.array([prof.inverse(v) for v in y.tolist()])
    assert np.all(np.abs(back / s - 1.0) <= 1e-15)
    assert np.all(np.abs(prof.phibar0(back) / y - 1.0) <= TAIL_ROUND_TRIP)


def test_inverse_beyond_the_float_range_is_out_of_domain(profile_ref):
    # slope 1.037 on ref: the tail reaches 1.7e308 only at s ~ 1.64e308,
    # past the last doubling of the bracket that stays finite
    with pytest.raises(errors.OutOfDomain, match="1.7e"):
        profile_ref.inverse(1.7e308)


def test_inverse_budget_runs_out_loudly(profile_ref, monkeypatch):
    # an unconverged Newton iteration raises instead of returning its last s
    monkeypatch.setattr(selfsim, "_NEWTON_ITERS", 1)
    with pytest.raises(errors.NonConvergent, match="phibar0 inverse"):
        profile_ref.inverse(profile_ref.phibar0(100.3))


def test_inverse_meets_the_tail_at_s_max(profile_ref):
    # K matches the tail to the table's end value, so no jump opens at
    # s_max: targets just below, at and above the end value round trip,
    # in order, to the table's resolution ulp(2s), and the end value maps
    # to s_max
    prof = profile_ref
    top = prof.phibar0(prof.s_max)
    assert prof.inverse(top) == prof.s_max
    ys = [top * (1.0 - 1e-12), math.nextafter(top, 0.0), top,
          math.nextafter(top, math.inf), top * (1.0 + 1e-12)]
    back = [prof.inverse(y) for y in ys]
    assert back == sorted(back)
    assert back[0] < prof.s_max < back[-1]
    for y, s in zip(ys, back):
        assert abs(prof.phibar0(s) / y - 1.0) <= 2.0 * math.ulp(2.0 * prof.s_max)


@pytest.mark.parametrize("y", [0.0, -1.0, math.inf, math.nan])
def test_inverse_needs_a_finite_positive_value(profile_ref, y):
    with pytest.raises(errors.NonPositiveInput):
        profile_ref.inverse(y)


@pytest.mark.parametrize("lam", [0.5, 1.2, 2.0, 3.0, 1e-300, 1e300])
def test_shoot_completes_away_from_lambda_one(p_ref, profile_ref, lam):
    """lambda is a gauge (selfsim docstring): the shoot seeds v0(0) = 1
    whatever lambda is, so its step table is lambda = 1's bit for bit, and
    phibar0_lambda(s) = phibar0_1(s + k) with k = (1-m)/2 log(lambda), on
    the core, the step table and the tail alike, while the inverse at
    lambda is lambda = 1's minus k.  Both hold to rounding, out to the
    ends of the float range."""
    p = ModelParams(p_ref.n, p_ref.m, p_ref.gamma, p_ref.A, lam=lam,
                    theta1_minus=p_ref.theta1_minus)
    prof = shoot_v0(p)
    for name in ("ts", "h", "coef"):
        assert getattr(prof._table, name).tobytes() == getattr(profile_ref._table, name).tobytes()
    k = 0.5 * (1.0 - p.m) * math.log(lam)
    assert prof.s_min == profile_ref.s_min - k and prof.s_max == profile_ref.s_max - k
    rng = np.random.default_rng(5)
    s = np.concatenate([
        rng.uniform(prof.s_min - 10.0, prof.s_min, 50),  # core law
        rng.uniform(prof.s_min, prof.s_max, 500),  # step table
        [prof.s_max + 1.0, prof.s_max + 400.0, 1e4],  # tail
    ])
    for got, want in zip(prof.phibar0(s, derivs=True), profile_ref.phibar0(s + k, derivs=True)):
        assert np.max(np.abs(got / want - 1.0)) < 1e-13
    y = prof.phibar0(s)
    back = np.array([prof.inverse(v) for v in y.tolist()])
    want = np.array([profile_ref.inverse(v) for v in y.tolist()]) - k
    assert np.max(np.abs(back - want) / np.maximum(np.abs(want), 1.0)) < 1e-13
    # to the resolution of phibar0 at s, whose exponent carries ulp(2s) and ulp(2u)
    ulps = np.spacing(2.0 * np.maximum(np.maximum(np.abs(s), np.abs(s + k)), 1.0))
    assert np.all(np.abs(prof.phibar0(back) / y - 1.0) <= 2.0 * ulps)
