"""Outer-region profiles: corrector ODEs, correction tables, asymptotic laws."""

import collections
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fdelab import errors
from fdelab.outer import OuterProfileSet
from fdelab.params import ModelParams, default_thresholds
from numdiff import fd_derivative
from reference_routes import at_C10, phi_correction

# Distinguished constants at the reference parameters, frozen from the
# closed forms b1q = (n-1)(gamma+1)A^(1/gamma)/gamma^3 and
# b3q = -(n-1)A^(1/gamma)/gamma^2.
B1Q_REF = 2.35170526217511
B3Q_REF = -1.411023157305066
C2_REF = 4.546251210146356
# C10_star = (n-1) A^(1/gamma) (theta2+ - b2) / (gamma^2 theta2+)
C10_STAR_REF = 0.9070863154103995
C10_STAR_LOW = 20.57142857142857

# a nonzero C10, so that phi4 carries its resonant log term
RESONANT_C10 = 4.0

# Correction rows {k: {j: c_kj}} of the low-gamma regime (N = 2), frozen
# from a run of the recurrence at gamma = 0.5; c_{k,0} = 0, so j = 0 is
# absent.  Row 4 is theta2-independent.
# psi2 is psi4 at the default C10 = 0; LOW_PSI4_PLUS is psi4 at C10 = 64.
LOW_PSI2_PLUS = {
    3: {1: -1066.0241583746804, 2: 384.0},
    4: {1: 3097.363366204352, 2: -8640.0 / 7.0},
}
LOW_PSI4_PLUS = {
    3: {1: -170.0241583746801, 2: -384.0},
    4: {1: 3097.363366204352, 2: -8640.0 / 7.0},
}



def _quotients(p):
    ga, A, n1 = p.gamma, p.A, p.n - 1
    b1q = n1 * (ga + 1.0) * A ** (1.0 / ga) / ga**3
    b3q = -n1 * A ** (1.0 / ga) / ga**2
    return b1q, b3q


def _xparts(p, gaps):
    # same closed form the profiles are built from, kept cancellation-free
    t = np.log1p(gaps / p.A) / p.gamma
    return np.exp(-t), -np.expm1(-t)


def _quad_gap(f, g_lo, g_hi):
    """Signed int_{g_lo}^{g_hi} f(gap) dgap by adaptive quadrature in log(gap).

    The substitution keeps integrands that are singular like 1/gap at the
    corner smooth and bounded.
    """
    val, _ = quad(lambda y: f(math.exp(y)) * math.exp(y), math.log(g_lo),
                  math.log(g_hi), epsabs=0.0, epsrel=1e-13, limit=400)
    return val


def _b2q(p):
    return (p.n - 1) * p.A ** (2.0 / p.gamma) / p.gamma**3


def _c2_density(p):
    """rho^(-1-1/gamma) (1-x)^(-2) as a function of the gap rho - A."""

    def f(g):
        _, omx = _xparts(p, g)
        return (p.A + g) ** (-1.0 - 1.0 / p.gamma) / omx**2

    return f


def _c2_quad(out):
    # C2 = b2q int_{eta0}^inf rho^(-1-1/gamma) (1-x)^(-2) drho; the
    # integrand decays like rho^(-1-1/gamma), so beyond a gap of 1e60 the
    # tail is below 1e-19 of the total for gamma <= 3
    p = out.p
    return _b2q(p) * _quad_gap(_c2_density(p), out.cfg.eta0 - p.A, 1e60)


@pytest.fixture(scope="module", params=[0.5, 1.5, 3.0])
def outer_gamma(request):
    """Outer profile set at gamma in {0.5, 1.5, 3} (N = 2, 1, 1)."""
    p = ModelParams(3, 0.1, request.param, 2.0)
    return OuterProfileSet(p, default_thresholds(p))


def test_quotient_constants_reference(p_ref):
    b1q, b3q = _quotients(p_ref)
    assert math.isclose(b1q, B1Q_REF, rel_tol=1e-12)
    assert math.isclose(b3q, B3Q_REF, rel_tol=1e-12)


def test_c2_constant(outer_ref):
    assert math.isclose(outer_ref.C2, C2_REF, rel_tol=1e-9)


def test_c2_matches_quadrature(outer_gamma):
    assert math.isclose(outer_gamma.C2, _c2_quad(outer_gamma), rel_tol=1e-9)


# from deep in the corner, where I ~ gamma log(gap), out to the far field
I_GAPS = np.logspace(-12.0, 6.0, 19)


def test_corrector_integral_matches_quadrature(outer_gamma):
    # I(eta) = int_{eta0}^eta rho^-1 (1-x)^-1 drho
    out = outer_gamma
    p = out.p

    def integrand(g):
        _, omx = _xparts(p, g)
        return 1.0 / ((p.A + g) * omx)

    got = out._prims(I_GAPS).I
    for g, val in zip(I_GAPS, got):
        want = _quad_gap(integrand, out.cfg.eta0 - p.A, g)
        assert val == pytest.approx(want, rel=1e-9, abs=1e-12), g


# -- corrector ODEs ---------------------------------------------------------

GAPS = np.logspace(-6.0, 6.0, 1000)


def _ode_residual(lhs_terms):
    resid = sum(lhs_terms)
    scale = sum(np.abs(t) for t in lhs_terms)
    return np.max(np.abs(resid) / scale)


def test_phi0_ode(outer_all):
    out = outer_all
    p, ga = out.p, out.p.gamma
    eta = p.A + GAPS
    f = out.phi0(gap=GAPS)
    f1 = out.phi0(gap=GAPS, derivs=True)[1]
    r = _ode_residual([ga * eta * f1, f, -out.p.d.a0 * np.ones_like(f)])
    assert r < 1e-12


def test_phi1_ode(outer_all):
    out = outer_all
    p, ga = out.p, out.p.gamma
    b1q, _ = _quotients(p)
    eta = p.A + GAPS
    _, omx = _xparts(p, GAPS)
    f = phi_correction(out, 1, GAPS)
    f1 = phi_correction(out, 1, GAPS, deriv=1)
    src = ga * b1q * eta ** (-2.0 - 1.0 / ga) / omx
    r = _ode_residual([ga * eta * f1, (1.0 + 2.0 * ga) * f, -src])
    assert r < 1e-12


def test_phi2_ode(outer_all):
    out = outer_all
    p, ga = out.p, out.p.gamma
    eta = p.A + GAPS
    x, omx = _xparts(p, GAPS)
    f = phi_correction(out, 2, GAPS)
    f1 = phi_correction(out, 2, GAPS, deriv=1)
    r = _ode_residual([ga * eta * f1, (2.0 + 2.0 * ga) * f, x * f / omx])
    assert r < 1e-12


def test_phi3_ode(outer_all):
    out = outer_all
    p, ga = out.p, out.p.gamma
    _, b3q = _quotients(p)
    eta = p.A + GAPS
    _, omx = _xparts(p, GAPS)
    f = phi_correction(out, 3, GAPS)
    f1 = phi_correction(out, 3, GAPS, deriv=1)
    src = ga * b3q * eta ** (-1.0 - 1.0 / ga) / omx
    r = _ode_residual([ga * eta * f1, (1.0 + ga) * f, -src])
    assert r < 1e-12


def test_phi4_ode(outer_all):
    # phi4 solves the phi3 equation with the extra resonant source
    # C10 * gamma * eta^(-1-1/gamma)
    out = at_C10(outer_all, RESONANT_C10)
    p, ga = out.p, out.p.gamma
    _, b3q = _quotients(p)
    eta = p.A + GAPS
    _, omx = _xparts(p, GAPS)
    f = out.phi4(gap=GAPS)
    f1 = out.phi4(gap=GAPS, derivs=True)[1]
    src = ga * b3q * eta ** (-1.0 - 1.0 / ga) / omx
    extra = out.C10 * ga * eta ** (-1.0 - 1.0 / ga)
    r = _ode_residual([ga * eta * f1, (1.0 + ga) * f, -src, -extra])
    assert r < 1e-12


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(min_value=3, max_value=6),
    j=st.integers(min_value=0, max_value=4),
    lg=st.floats(min_value=-10.0, max_value=10.0),
)
def test_vkj_recurrence_identity(outer_ref, k, j, lg):
    # the row basis v_{k,j} = eta^(-k-1/gamma) (log eta)^j behind the row
    # sums S_k of l0_terms: gamma*eta*v' + (1 + k*gamma)*v = gamma*j*v_{k,j-1}
    assume(j <= k)
    out = outer_ref
    ga, A = out.p.gamma, out.p.A
    g = 10.0**lg
    eta = A + g
    pr = out._prims(g)
    v, v1, _ = out._powlog_prims(k + 1.0 / ga, j, pr, True)
    rhs = ga * j * out._powlog_prims(k + 1.0 / ga, j - 1, pr, False)[0] if j >= 1 else 0.0
    lhs = ga * eta * v1 + (1.0 + k * ga) * v
    scale = abs(ga * eta * v1) + abs((1.0 + k * ga) * v) + abs(rhs)
    assert abs(lhs - rhs) <= 1e-12 * scale


# -- cross-route and composition identities ---------------------------------

def test_phi2_quadrature_route_matches_closed_form(outer_all):
    # phi2 = eta^(-2-1/gamma) (C2 - b2q J(eta)) with
    # J(eta) = int_{eta0}^eta rho^(-1-1/gamma) (1-x)^(-2) drho
    out = outer_all
    p = out.p
    c2 = _c2_quad(out)
    for eta in (p.A + 0.5, 2.0 * p.A, 10.0 * p.A, 100.0 * p.A):
        J = _quad_gap(_c2_density(p), out.cfg.eta0 - p.A, eta - p.A)
        qr = eta ** (-2.0 - 1.0 / p.gamma) * (c2 - _b2q(p) * J)
        cl = float(phi_correction(out, 2, eta - p.A))
        assert math.isclose(qr, cl, rel_tol=1e-9)


def test_h_is_phi1_plus_theta1_phi2(outer_all):
    out = outer_all
    p = out.p
    for g in (1e-3, 1.0, 1e3):
        for sign, th1 in (("+", p.theta1_plus), ("-", p.theta1_minus)):
            for deriv in (0, 1, 2):
                hv = out.h(sign=sign, derivs=True, gap=g)[deriv]
                comp = phi_correction(out, 1, g, deriv=deriv)
                comp += th1 * phi_correction(out, 2, g, deriv=deriv)
                assert math.isclose(float(hv), float(comp), rel_tol=1e-14)


def test_phi4_is_phi3_plus_resonant_log(outer_all):
    out = at_C10(outer_all, RESONANT_C10)
    ga = out.p.gamma
    g = 2.0
    eta = out.p.A + g
    extra = out.C10 * eta ** (-1.0 - 1.0 / ga) * math.log(eta)
    lhs = float(out.phi4(gap=g))
    rhs = float(phi_correction(out, 3, g)) + extra
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_c10_values(outer_ref, outer_low):
    # the default C10 is the paper's 0; C10_star is the closed form
    assert outer_ref.C10 == outer_low.C10 == 0.0
    assert outer_ref.C10_star == pytest.approx(C10_STAR_REF, rel=1e-12)
    assert outer_low.C10_star == pytest.approx(C10_STAR_LOW, rel=1e-12)
    for out in (outer_ref, outer_low):
        p = out.p
        want = (p.n - 1) * p.A ** (1.0 / p.gamma) * (p.theta2_plus - p.d.b2) / (
            p.gamma ** 2 * p.theta2_plus
        )
        assert out.C10_star == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("kw", [
    dict(n=3, m=0.1, gamma=1.5, A=2.0, theta1_minus=-1.0),
    dict(n=3, m=0.1, gamma=0.5, A=2.0, theta1_minus=-1.0),
    dict(n=4, m=0.2, gamma=1.0, A=3.0),
    dict(n=5, m=0.05, gamma=0.3, A=1.2),
    dict(n=6, m=0.4, gamma=3.0, A=5.0),
    dict(n=3, m=0.19, gamma=0.7, A=1.05),
], ids=["ref", "low", "n4", "n5", "n6", "n3-A1.05"])
def test_psi_plus_positive_at_C10_zero(kw):
    # psi+ > 0 needs no lower bound on C10: phi4 -> +inf near A whatever
    # C10 is, and phi0 -> a0 dominates far out (the outer module docstring)
    p = ModelParams(**kw)
    cfg = default_thresholds(p)
    out = OuterProfileSet(p, cfg)
    assert out.C10 == 0.0
    for tau in (cfg.tau_start, cfg.tau_start + 25.0):
        gaps = np.geomspace(cfg.xi0 * math.exp(-p.gamma * tau), 1e6 * p.A, 400)
        assert np.all(out.psi_outer("+", tau, gap=gaps) > 0.0), tau


# -- correction tables -------------------------------------------------------

@pytest.mark.parametrize("gamma", [1.5, 3.0])
def test_reference_tables_empty(gamma):
    # N = 1 for gamma > 1: no correction rows at all
    p = ModelParams(3, 0.1, gamma, 2.0, theta1_minus=-1.0)
    out = OuterProfileSet(p, default_thresholds(p))
    assert out.p.d.N == 1
    for each in (out, at_C10(out, RESONANT_C10)):
        for sign in ("+", "-"):
            assert each.correction_coeffs(sign) == {}


def _assert_rows(table, want, rel, abs=0.0):
    # the same rows and, within each, the same log powers j, in k then j
    # order, with every stored entry nonzero
    assert list(table) == list(want)
    for k, row in want.items():
        assert list(table[k]) == list(row), k
        assert all(c != 0.0 for c in table[k].values()), k
        for j, c in row.items():
            assert table[k][j] == pytest.approx(c, rel=rel, abs=abs), (k, j)


def test_low_gamma_psi2_table(outer_low):
    _assert_rows(outer_low.correction_coeffs("+"), LOW_PSI2_PLUS, rel=1e-9, abs=1e-12)


def test_low_gamma_psi4_table(outer_low):
    _assert_rows(at_C10(outer_low, 64.0).correction_coeffs("+"), LOW_PSI4_PLUS,
                 rel=1e-9, abs=1e-12)


def test_low_gamma_minus_row3_vanishes(outer_low):
    # theta2^- = 0 kills the third-order source on the subsolution side,
    # so row 3 is absent and row 4 stays
    for out in (outer_low, at_C10(outer_low, 64.0)):
        assert list(out.correction_coeffs("-")) == [4]


def test_low_gamma_row4_shared(outer_low):
    ref_row = outer_low.correction_coeffs("+")[4]
    assert ref_row
    for out in (outer_low, at_C10(outer_low, 64.0)):
        for sign in ("+", "-"):
            _assert_rows({4: out.correction_coeffs(sign)[4]}, {4: ref_row}, rel=1e-12)


def test_gamma_03_table_shape():
    # N = 3 regime: rows k = 3..6 with log powers up to 3; c_{k,0} = 0 is
    # not stored
    p = ModelParams(3, 0.1, 0.3, 2.0)
    out = OuterProfileSet(p, default_thresholds(p))
    assert out.p.d.N == 3
    table = out.correction_coeffs("+")
    assert {k: list(row) for k, row in table.items()} == {
        3: [1, 2], 4: [1, 2], 5: [1, 2, 3], 6: [1, 2, 3],
    }
    assert all(math.isfinite(c) and c != 0.0 for row in table.values() for c in row.values())


# -- near-A laws -------------------------------------------------------------

def test_h_near_corner_laws(outer_all):
    # gap * h -> theta1 (n-1)/(gamma A), with the derivative laws that
    # follow from h ~ theta1 c / gap
    out = outer_all
    p = out.p
    c_na = (p.n - 1) / (p.gamma * p.A)
    g = 1e-5
    for sign, th1 in (("+", p.theta1_plus), ("-", p.theta1_minus)):
        assert g * out.h(sign=sign, gap=g) == pytest.approx(th1 * c_na, rel=1e-3)
        assert g * g * out.h(sign=sign, derivs=True, gap=g)[1] == pytest.approx(
            -th1 * c_na, rel=1e-3
        )
        assert g**3 * out.h(sign=sign, derivs=True, gap=g)[2] == pytest.approx(
            2.0 * th1 * c_na, rel=1e-3
        )


def test_phi3_near_corner_log_law(outer_all):
    # phi3 ~ c log(1/gap); the limit is read off by linear extrapolation
    # in 1/log(1/gap), which removes the O(1/log) contamination
    out = outer_all
    p = out.p
    c_na = (p.n - 1) / (p.gamma * p.A)
    gaps = (1e-4, 1e-5, 1e-6)
    xs = [1.0 / math.log(1.0 / g) for g in gaps]
    ys = [float(phi_correction(out, 3, g)) / math.log(1.0 / g) for g in gaps]
    slope, intercept = np.polyfit(xs, ys, 1)
    assert intercept == pytest.approx(c_na, rel=2e-3)
    g = 1e-5
    assert g * phi_correction(out, 3, g, deriv=1) == pytest.approx(
        -c_na, rel=1e-3
    )
    assert g * g * phi_correction(out, 3, g, deriv=2) == pytest.approx(
        c_na, rel=1e-3
    )


def test_phi0_linear_at_corner(outer_all):
    out = outer_all
    g = 1e-120
    want = out.p.d.a0 * g / (out.p.gamma * out.p.A)
    assert float(out.phi0(gap=g)) == pytest.approx(want, rel=1e-6)


# -- far-field laws ----------------------------------------------------------

def test_h_far_field_log_coefficient(outer_all):
    # h = b1q eta^(-2-1/gamma) (log eta + O(1)) as eta -> inf
    out = outer_all
    p = out.p
    b1q, _ = _quotients(p)
    etas = np.logspace(4, 6, 40)
    w = etas ** (-2.0 - 1.0 / p.gamma)
    basis = np.column_stack([w * np.log(etas), w])
    coef, *_ = np.linalg.lstsq(basis, out.h(sign="+", gap=etas - p.A), rcond=None)
    assert coef[0] == pytest.approx(b1q, rel=1e-2)


def test_phi3_far_field_laws(outer_all):
    # phi3 and its derivatives carry b3q eta^(-1-1/gamma) log eta leading
    # behaviour; each derivative multiplies by the power-law exponent
    out = outer_all
    p = out.p
    _, b3q = _quotients(p)
    q = 1.0 + 1.0 / p.gamma
    etas = np.logspace(4, 6, 40)
    w = etas**-q
    basis = np.column_stack([w * np.log(etas), w])
    targets = {0: b3q, 1: -q * b3q, 2: q * (q + 1.0) * b3q}
    for deriv, want in targets.items():
        y = phi_correction(out, 3, etas - p.A, deriv=deriv) * etas**deriv
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        assert coef[0] == pytest.approx(want, rel=2e-2)


def test_far_field_seeds(outer_gamma):
    # profile * eta^p - (c1 log eta + c0) = bq gamma log(1 - x) -> 0 for
    # the seeds of the correction recurrence; the bound allows for rounding
    out = outer_gamma
    p = out.p
    b1q, b3q = _quotients(p)
    etas = np.logspace(4.0, 24.0, 6)
    x, _ = _xparts(p, etas - p.A)
    L = np.log(etas)
    for seed, i, pexp, bq in (
        (out._bq1, 1, 2.0 + 1.0 / p.gamma, b1q),
        (out._bq3, 3, 1.0 + 1.0 / p.gamma, b3q),
    ):
        c1, c0 = out._farfield(seed)
        assert c1 == pytest.approx(bq, rel=1e-14)
        resid = phi_correction(out, i, etas - p.A) * etas**pexp - (c1 * L + c0)
        bound = 2.0 * p.gamma * abs(bq) * x + 1e-12 * (abs(c1) * L + abs(c0))
        assert np.all(np.abs(resid) <= bound), i


def test_phi4_far_field_limit(outer_all):
    # eta^(1+1/gamma) phi4 / log eta -> C10 + b3q; direct evaluation at
    # eta = 1e6 still carries a few percent of 1/log eta contamination,
    # so the limit is extrapolated linearly in 1/log eta
    out = outer_all
    p = out.p
    _, b3q = _quotients(p)
    want = out.C10 + b3q
    etas = (1e4, 1e5, 1e6)
    xs = [1.0 / math.log(e) for e in etas]
    ys = [
        float(out.phi4(gap=e - p.A)) * e ** (1.0 + 1.0 / p.gamma) / math.log(e)
        for e in etas
    ]
    slope, intercept = np.polyfit(xs, ys, 1)
    assert intercept == pytest.approx(want, rel=2e-2)


# -- assembled ansatz --------------------------------------------------------

def test_psi_outer_decays_to_phi0(outer_all):
    tau = 40.0 if outer_all.p.gamma > 1.0 else 80.0
    ph0 = float(outer_all.phi0(gap=1.0))
    for out in (outer_all, at_C10(outer_all, RESONANT_C10)):
        for sign in ("+", "-"):
            ps = float(out.psi_outer(sign, tau, gap=1.0))
            assert abs(ps - ph0) <= 1e-10


def test_psi_outer_decay_rate(outer_ref):
    # |psi - phi0| contracts by e^(-gamma dtau) per unit of tau; at gap 1
    # (eta0) phi4 = 0 at C10 = 0, so the e^(-gamma tau) term is read at gap 3
    out = outer_ref
    ga = out.p.gamma
    assert float(out.phi4(gap=3.0)) != 0.0
    ph0 = float(out.phi0(gap=3.0))
    r6 = abs(float(out.psi_outer("+", 6.0, gap=3.0)) - ph0)
    r8 = abs(float(out.psi_outer("+", 8.0, gap=3.0)) - ph0)
    assert r8 / r6 == pytest.approx(math.exp(-2.0 * ga), rel=0.1)


def test_psi_bundle_matches_psi_outer(outer_ref, outer_low):
    # the value route sums the same terms in the same order: equal bits
    # (psi1 and psi3 at C10 = 4 on ref, psi2 and psi4 at C10 = 4 on low)
    gaps = np.array([1e-4, 0.5, 2.0, 10.0, 1e3])
    for base in (outer_ref, outer_low):
        for out in (base, at_C10(base, RESONANT_C10)):
            for sign in ("+", "-"):
                for tau in (9.0, np.array([[9.0], [12.0]])):
                    psi = out.psi_bundle(sign, tau, gap=gaps)[0]
                    assert np.array_equal(psi, out.psi_outer(sign, tau, gap=gaps))


def test_one_pass_per_outer_evaluation(outer_low, monkeypatch):
    """l0_terms builds the primitives once for the sources, psi and the row
    sums S_k; each psi term is evaluated once for all derivative orders."""
    calls = collections.Counter()
    for name in ("_prims", "_profile_CI"):
        def counted(*args, _f=getattr(OuterProfileSet, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(OuterProfileSet, name, counted)
    gaps = np.geomspace(1e-3, 1e3, 50)
    # psi4 at gamma = 0.5 carries the rows k = 3, 4; phi1 and phi3 are the
    # two _profile_CI terms
    outer_low.l0_terms("+", np.array([[12.0]]), gap=gaps[None, :])
    assert calls == {"_prims": 1, "_profile_CI": 2}
    calls.clear()
    outer_low.psi_bundle("+", 12.0, gap=gaps)
    assert calls == {"_prims": 1, "_profile_CI": 2}


# -- derivative evaluators vs finite differences -----------------------------

def test_profile_derivatives_match_fd(outer_ref):
    out = outer_ref
    resonant = at_C10(out, RESONANT_C10)
    cases = [
        (lambda g: float(out.phi0(gap=g)), lambda g: float(out.phi0(gap=g, derivs=True)[1])),
        (
            lambda g: float(phi_correction(out, 1, g)),
            lambda g: float(phi_correction(out, 1, g, deriv=1)),
        ),
        (
            lambda g: float(phi_correction(out, 3, g)),
            lambda g: float(phi_correction(out, 3, g, deriv=1)),
        ),
        (
            lambda g: float(resonant.phi4(gap=g)),
            lambda g: float(resonant.phi4(gap=g, derivs=True)[1]),
        ),
        (
            lambda g: float(out.h(sign="-", gap=g)),
            lambda g: float(out.h(sign="-", derivs=True, gap=g)[1]),
        ),
    ]
    for g0 in (0.5, 10.0):
        for f, f1 in cases:
            fd = fd_derivative(f, g0, order=1, scale=max(1.0, g0))
            assert f1(g0) == pytest.approx(fd, rel=1e-6)


def test_second_derivatives_match_fd(outer_ref):
    out = at_C10(outer_ref, RESONANT_C10)
    for g0 in (0.5, 10.0):
        fd = fd_derivative(lambda g: float(out.phi4(gap=g)), g0, order=2,
                           scale=max(1.0, g0))
        assert float(out.phi4(gap=g0, derivs=True)[2]) == pytest.approx(fd, rel=1e-6)


def test_psi_outer_derivatives_match_fd(outer_ref):
    # psi_bundle's derivatives against differences of the psi_outer value
    out = outer_ref
    g0, tau0 = 2.0, 8.0
    _, d_eta, d_etaeta, d_tau = out.psi_bundle("+", tau0, gap=g0)
    assert float(d_eta) == pytest.approx(
        fd_derivative(lambda g: float(out.psi_outer("+", tau0, gap=g)), g0),
        rel=1e-6,
    )
    assert float(d_etaeta) == pytest.approx(
        fd_derivative(lambda g: float(out.psi_outer("+", tau0, gap=g)), g0,
                      order=2),
        rel=1e-6,
    )
    assert float(d_tau) == pytest.approx(
        fd_derivative(lambda t: float(out.psi_outer("+", t, gap=g0)), tau0),
        rel=1e-6,
    )


# -- domain handling ---------------------------------------------------------

def test_domain_violations_raise(outer_ref):
    with pytest.raises(errors.OutOfDomain):
        outer_ref.phi0(gap=-0.1)
    with pytest.raises(errors.OutOfDomain):
        outer_ref.phi0(gap=0.0)


# -- tabulation --------------------------------------------------------------

def test_profile_rows_shape(outer_ref):
    etas = np.array([3.0, 4.0, 10.0])
    rows = outer_ref.profile_rows(etas, 8.0, "+")
    assert rows.shape[0] == 3
    assert np.allclose(rows[:, 0], etas)
    assert np.allclose(rows[:, 1], outer_ref.phi0(gap=etas - outer_ref.p.A))
    assert np.all(np.isfinite(rows))
