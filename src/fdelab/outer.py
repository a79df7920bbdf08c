"""Outer-region profiles phi0..phi4, corrector sums, and psi evaluators.

Everything takes the gap eta - A > 0, never eta itself, so that evaluation
stays accurate down to gaps of order exp(-gamma*tau) for large tau.  With
x = (A/eta)^(1/gamma) the primitives are

    phi0 = a0 (1 - x)
    I(eta) = int_{eta0}^eta rho^{-1} (1-x(rho))^{-1} drho
    phi1 = eta^(-2-1/gamma) bq1 I
    phi2 = (n-1) A^(2/gamma) gamma^{-2} eta^(-2-2/gamma) / (1-x)
    phi3 = eta^(-1-1/gamma) bq3 I
    phi4 = phi3 + C10 eta^(-1-1/gamma) log eta
    h    = phi1 + theta1 phi2

The substitution l = log(rho/A)/gamma, so x = e^(-l) and drho/rho = gamma dl,
turns rho^{-1} (1-x)^{-1} drho into gamma d log(e^l - 1), and
rho^(-1-1/gamma) (1-x)^(-2) drho into gamma A^(-1/gamma) d(-1/(1-x)).  Hence,
with l = log1p(gap/A)/gamma and l0 its value at eta0,

    I(eta) = gamma [log expm1(l) - log expm1(l0)]
    C2 = b2q int_{eta0}^inf rho^(-1-1/gamma) (1-x)^(-2) drho
       = b2q gamma eta0^(-1/gamma) / (1 - x0),

exact at every gap.  The free constants of phi1 and phi3, the multiples of
their homogeneous solutions eta^(-2-1/gamma) and eta^(-1-1/gamma), are 0,
so both vanish at eta0, where I does.

psi = sum_k e^(-k gamma tau) T_k with T_0 = phi0, T_1 = theta2 phi4, T_2 = h
and the correction rows T_k = sum_j c_kj v_{k,j}, v_{k,j} = eta^(-k-1/gamma)
(log eta)^j, 3 <= k <= 2N.  The recurrence of correction_coeffs fixes c_kj
for j >= 1, with c_{k,0} = 0 in every row.  The rows are stored once, as
{k: {j: c_kj}} holding only the nonzero c_kj: a zero entry (c_{k,0} among
them) and a row without a nonzero entry are absent.  Rows exist exactly
when 2N >= 3, that is when gamma <= 1; branch_variant labels the profile
psi4 then and psi3 otherwise.
The paper's psi1/psi2 are psi3/psi4 at C10 = 0 (phi4 = phi3 + 0 v, bit for
bit), and C10 = 0 is the default, so the labels psi3/psi4 of a default
config name the paper's psi1/psi2 without a second profile path.  Each
term returns its value, or its value with both eta derivatives, from one
evaluation; _psi_sum lists the terms once, and psi_outer and psi_bundle
share it.

l0_terms evaluates the outer operator L0 of residuals.py on psi.  Dropping
the identically-zero phi0 group and folding each corrector through its
defining ODE leaves

    e^{gamma tau} L0(psi) = -F1 - (n-1) b2 psi'/psi
        - e^{-gamma tau} [ F2 + (n-1)(psi''/psi + b1 (psi'/psi)^2) ]
        - sum_{k>=3} e^{-(k-1) gamma tau} S_k

with f1, f2, f3 the corrector sources (r = x / (eta (1-x)))

    f1 = (n-1)(gamma+1) gamma^-2 r / eta,  f2 = -(n-1) gamma^-2 r^2,
    f3 = -(n-1) gamma^-1 r,

F1 = theta2 (f3 + C10 gamma eta^{-1-1/gamma}),
F2 = f1 + theta1 f2 and S_k = gamma sum_j j c_kj v_{k,j-1}.  Every term
carries its own decay factor, so the roundoff floor tracks the local term
scale instead of eps * a0; this is what makes sign verdicts meaningful after
rescaling by e^{gamma tau}.  The scale returned beside the residual is the
sum of the magnitudes of these terms.

The admissible C10.  theta2^- = 0, so C10 enters psi^+ alone, through
theta2^+ e^(-gamma tau) phi4.  Far out, x ~ A^(1/gamma) eta^(-1/gamma),
r ~ A^(1/gamma) eta^(-1-1/gamma) and psi'/psi ~ phi0'/phi0 = r/gamma, and
every term that carries a power of e^{-gamma tau} decays faster in eta, so

    e^{gamma tau} L0(psi^+) = kappa eta^(-1-1/gamma) (1 + o(1)),
    kappa = (n-1) A^(1/gamma) (theta2^+ - b2) / gamma - theta2^+ C10 gamma.

The supersolution verdict needs kappa > 0 in the far field, that is

    C10 < C10_star = (n-1) A^(1/gamma) (theta2^+ - b2) / (gamma^2 theta2^+)
                   = -bq3 (theta2^+ - b2) / theta2^+,

which is positive since theta2^+ > b2 > 0.  C10 needs no lower bound:
psi^+ > 0 does not depend on it.  Near A, phi3 -> +inf (bq3 < 0 and
I -> -inf) while the C10 term stays bounded, so phi4 -> +inf; far out
phi0 -> a0 dominates every decaying term; and l0_terms raises
NonPositiveProfile wherever psi <= 0 on a sampled band.  So the paper's
C10 = 0 is admissible for every parameter set, and a configured
C10 >= C10_star is rejected before the plus sign verdicts are sampled
(residuals.find_thresholds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .params import ModelParams, ThresholdConfig, theta

__all__ = ["OuterProfileSet", "branch_variant"]


def branch_variant(gamma: float) -> str:
    """Report label of the outer profile: psi3 for gamma > 1, else psi4,
    the profile with correction rows (2N >= 3 exactly when gamma <= 1).
    At the default C10 = 0 they are the paper's psi1 and psi2."""
    return "psi3" if gamma > 1.0 else "psi4"


@dataclass
class _Primitives:
    """Per-gap primitive quantities shared by all profile formulas."""

    gap: np.ndarray
    logeta: np.ndarray
    eta: np.ndarray
    x: np.ndarray
    omx: np.ndarray  # 1 - x, computed as -expm1(-log1p(gap/A)/gamma)
    I: np.ndarray
    I1: np.ndarray  # I'
    I2: np.ndarray  # I''


class OuterProfileSet:
    """Profile family for one parameter set.

    Fixes at construction the distinguished constant C2, the configured
    C10 (default 0, the paper's psi1/psi2) with its closed-form bound
    C10_star (module docstring), and the nonzero correction rows of each
    sign, which exist exactly when 2N >= 3 (gamma <= 1).  The profile psi
    of each sign is thereby one expression.  cfg is checked against p; a
    constant beyond the float range raises NonFinite naming gamma, A and
    eta0.
    """

    def __init__(self, p: ModelParams, cfg: ThresholdConfig):
        self.p = p
        self.cfg = cfg.validated(p)

        n, gamma, A = p.n, p.gamma, p.A
        self._p1 = 2.0 + 1.0 / gamma
        self._p2 = 2.0 + 2.0 / gamma
        self._p3 = 1.0 + 1.0 / gamma
        g0 = self.cfg.eta0 - A  # > 0: the config is checked
        try:
            self._bq1 = (n - 1) * (gamma + 1.0) * A ** (1.0 / gamma) / gamma ** 3
            self._bq3 = -(n - 1) * A ** (1.0 / gamma) / gamma ** 2
            self._kap2 = (n - 1) * A ** (2.0 / gamma) / gamma ** 2
            self._b2q = (n - 1) * A ** (2.0 / gamma) / gamma ** 3
            # closed forms of I and C2 from the module docstring
            lg0 = math.log1p(g0 / A) / gamma
            self._lexp0 = math.log(math.expm1(lg0))
        except OverflowError as exc:
            raise errors.NonFinite(
                f"outer profile constants overflow at gamma = {gamma:g}, "
                f"A = {A:g}, eta0 = {self.cfg.eta0:g}"
            ) from exc
        self.C2 = self._b2q * gamma * self.cfg.eta0 ** (-1.0 / gamma) / -math.expm1(-lg0)
        self.C10 = float(self.cfg.C10)
        self.C10_star = -self._bq3 * (p.theta2_plus - p.d.b2) / p.theta2_plus
        self._rows = {sign: self.correction_coeffs(sign) for sign in ("+", "-")}

    # -- primitive layer -------------------------------------------------

    def _prims(self, gap) -> _Primitives:
        gap = np.asarray(gap, dtype=float)
        if np.any(gap <= 0.0):
            raise errors.OutOfDomain("eta must exceed A (gap > 0)")
        A, gamma = self.p.A, self.p.gamma
        # x and 1-x from the gap, exact for gaps down to ~1e-300
        l1p = np.log1p(gap / A)
        lg = l1p / gamma
        x = np.exp(-lg)
        omx = -np.expm1(-lg)
        logeta = math.log(A) + l1p
        eta = np.exp(logeta)
        # expm1 overflows only beyond gap/A ~ e^(709 gamma), far past any grid
        I = gamma * (np.log(np.expm1(lg)) - self._lexp0)
        I1 = 1.0 / (eta * omx)
        I2 = -(1.0 / omx + x / (gamma * omx ** 2)) / eta ** 2
        return _Primitives(gap=gap, logeta=logeta, eta=eta, x=x, omx=omx, I=I, I1=I1, I2=I2)

    # -- elementary profiles ----------------------------------------------
    #
    # Each term function returns (value,) or, with derivs, (value, d/deta,
    # d2/deta2) from one evaluation.

    def _phi0_prims(self, pr: _Primitives, derivs: bool):
        a0, gamma = self.p.d.a0, self.p.gamma
        value = a0 * pr.omx
        if not derivs:
            return (value,)
        d1 = a0 * pr.x / (gamma * pr.eta)
        d2 = -a0 * pr.x * (1.0 + gamma) / (gamma ** 2 * pr.eta ** 2)
        return value, d1, d2

    def _profile_CI(self, pexp: float, b: float, pr: _Primitives, derivs: bool):
        E = np.exp(-pexp * pr.logeta)
        value = E * (b * pr.I)
        if not derivs:
            return (value,)
        d1 = -pexp * value / pr.eta + b * E * pr.I1
        d2 = (
            pexp * (pexp + 1.0) * value / pr.eta ** 2
            - 2.0 * pexp * b * E * pr.I1 / pr.eta
            + b * E * pr.I2
        )
        return value, d1, d2

    def _phi1_prims(self, pr, derivs):
        return self._profile_CI(self._p1, self._bq1, pr, derivs)

    def _phi3_prims(self, pr, derivs):
        return self._profile_CI(self._p3, self._bq3, pr, derivs)

    def _phi2_prims(self, pr, derivs):
        gamma = self.p.gamma
        u = 1.0 / pr.omx
        value = self._kap2 * np.exp(-self._p2 * pr.logeta) * u
        if not derivs:
            return (value,)
        lam = -(self._p2 + pr.x * u / gamma) / pr.eta
        d1 = value * lam
        lamp = (self._p2 + pr.x * u / gamma) / pr.eta ** 2 + pr.x * u * (
            1.0 + pr.x * u
        ) / (gamma ** 2 * pr.eta ** 2)
        d2 = value * (lam ** 2 + lamp)
        return value, d1, d2

    def _powlog_prims(self, pexp: float, j: int, pr: _Primitives, derivs: bool):
        """eta^(-pexp) * (log eta)^j for j >= 0, the correction-row basis."""
        L = pr.logeta
        E = np.exp(-pexp * L)
        Lj = L ** j
        value = E * Lj
        if not derivs:
            return (value,)
        Ljm1 = L ** (j - 1) if j >= 1 else np.zeros_like(L)
        d1 = E / pr.eta * (-pexp * Lj + j * Ljm1)
        Ljm2 = L ** (j - 2) if j >= 2 else np.zeros_like(L)
        d2 = (
            E
            / pr.eta ** 2
            * (
                pexp * (pexp + 1.0) * Lj
                - j * (2.0 * pexp + 1.0) * Ljm1
                + j * (j - 1.0) * Ljm2
            )
        )
        return value, d1, d2

    def _phi4_prims(self, pr, derivs):
        return _plus(
            self._phi3_prims(pr, derivs), self.C10, self._powlog_prims(self._p3, 1, pr, derivs)
        )

    def _h_prims(self, pr, sign: str, derivs: bool):
        return _plus(
            self._phi1_prims(pr, derivs), theta(self.p, 1, sign), self._phi2_prims(pr, derivs)
        )

    def _f_sources(self, pr: _Primitives):
        """Source terms (f1, f2, f3) of the corrector ODEs."""
        n, gamma = self.p.n, self.p.gamma
        r = pr.x / (pr.eta * pr.omx)
        f1 = (n - 1) * (gamma + 1.0) / gamma ** 2 * r / pr.eta
        f2 = -(n - 1) / gamma ** 2 * r ** 2
        f3 = -(n - 1) / gamma * r
        return f1, f2, f3

    # -- public profile API: the value, or with derivs the triple --------

    def phi0(self, gap, derivs: bool = False):
        parts = self._phi0_prims(self._prims(gap), derivs)
        return parts if derivs else parts[0]

    def phi4(self, gap, derivs: bool = False):
        parts = self._phi4_prims(self._prims(gap), derivs)
        return parts if derivs else parts[0]

    def h(self, gap, sign: str, derivs: bool = False):
        parts = self._h_prims(self._prims(gap), sign, derivs)
        return parts if derivs else parts[0]

    # -- far-field seeds and coefficient tables -----------------------------

    def _farfield(self, bq: float) -> tuple[float, float]:
        """(c1, c0) with profile * eta^p = c1 log(eta) + c0 + O(x) far afield,
        for profile = eta^(-p) bq I: phi1 (the eta^(-2-1/gamma) block of h)
        with bq1, phi3 with bq3.  I = log(eta) - log(A) - gamma log expm1(l0)
        + gamma log(1 - x), and gamma log(1 - x) = O(x).
        """
        return bq, -bq * (math.log(self.p.A) + self.p.gamma * self._lexp0)

    @staticmethod
    def _d2coeff(row: dict, P: float, i: int) -> float:
        """L^i coefficient of (sum_j row[j] eta^(-P) L^j)'' * eta^(P+2)."""
        return (
            P * (P + 1.0) * row.get(i, 0.0)
            - (i + 1.0) * (2.0 * P + 1.0) * row.get(i + 1, 0.0)
            + (i + 1.0) * (i + 2.0) * row.get(i + 2, 0.0)
        )

    def correction_coeffs(self, sign: str) -> dict[int, dict[int, float]]:
        """The nonzero correction rows {k: {j: c_kj}}, 3 <= k <= 2N, in k
        then j order; empty for N = 1 (gamma > 1).

        Rows are generated by the far-field cancellation recurrence along
        each parity chain; the chain is seeded by the far-field expansions
        of h (even) and theta2 * phi4 (odd).  The recurrence fixes c_kj for
        j >= 1 and leaves c_{k,0} free; every row takes c_{k,0} = 0.  Zero
        entries are absent, and so is a row without a nonzero entry (row 3
        of the minus sign, where theta2^- = 0).
        """
        n, gamma = self.p.n, self.p.gamma
        a0 = self.p.d.a0
        th2 = theta(self.p, 2, sign)

        c1h, c0h = self._farfield(self._bq1)
        c1p, c0p = self._farfield(self._bq3)
        # phi4 adds C10 * eta^(-1-1/gamma) L to the odd seed profile
        c1p = c1p + self.C10
        rows = {2: {0: c0h, 1: c1h}, 1: {0: th2 * c0p, 1: th2 * c1p}}
        for k in range(3, 2 * self.p.d.N + 1):
            P = (k - 2) + 1.0 / gamma
            row = {}
            for i in range((k + 1) // 2):
                c = -(n - 1) * self._d2coeff(rows[k - 2], P, i) / (a0 * gamma * (i + 1.0))
                if c != 0.0:
                    row[i + 1] = c
            rows[k] = row
        return {k: row for k, row in rows.items() if k >= 3 and row}

    # -- psi assembly --------------------------------------------------------

    def _psi_sum(self, sign: str, tau, pr: _Primitives, derivs: bool):
        """(psi,) or, with derivs, (psi, psi_eta, psi_etaeta, psi_tau): one
        evaluation per term T_k, each weighted by e^(-k gamma tau), so the
        tau derivative is analytic."""
        tau = np.asarray(tau, dtype=float)
        gamma = self.p.gamma
        th2 = theta(self.p, 2, sign)
        zero = (0.0,) * (3 if derivs else 1)
        terms = [
            (1, tuple(th2 * b for b in self._phi4_prims(pr, derivs))),
            (2, self._h_prims(pr, sign, derivs)),
        ]
        for k, row in self._rows[sign].items():
            T = zero
            for j, c in row.items():
                T = _plus(T, c, self._powlog_prims(k + 1.0 / gamma, j, pr, derivs))
            terms.append((k, T))
        acc, dtau = _plus(zero, 1.0, self._phi0_prims(pr, derivs)), 0.0
        for k, T in terms:
            w = np.exp(-k * gamma * tau)
            acc = _plus(acc, w, T)
            if derivs:
                dtau = dtau + (-k * gamma) * w * T[0]
        return (*acc, dtau) if derivs else acc

    def psi_outer(self, sign: str, tau, *, gap):
        """Outer barrier profile psi; gap and tau broadcast together.

        The value alone, summed as psi_bundle sums it, so both give the
        same bits; derivatives come from psi_bundle.  Like l0_terms, both
        evaluate under one np.errstate: a term that overflows or divides by
        zero at large gamma tau comes back as inf or NaN, which the matching
        target and the sign verdicts reject.
        """
        with np.errstate(all="ignore"):
            return self._psi_sum(sign, tau, self._prims(gap), False)[0]

    def psi_bundle(self, sign: str, tau, *, gap):
        """(psi, psi_eta, psi_etaeta, psi_tau) in one pass over the terms,
        each of the shape gap and tau broadcast to; the derivative route
        for psi outside l0_terms."""
        with np.errstate(all="ignore"):
            return self._psi_sum(sign, tau, self._prims(gap), True)

    def l0_terms(self, sign: str, tau, *, gap):
        """(e^{gamma tau} L0(psi), sum of its term magnitudes) in the folded
        form of the module docstring, all from one _prims build.

        tau is an (n_tau, 1) column, and gap a (1, n_space) row that every
        tau shares or an (n_tau, n_space) grid with a row per tau; both
        results have the shape they broadcast to.  The sources and psi's
        terms are built once per gap, and the decay factors come from
        _math_exp once per tau, so a point gives the same bits whatever
        else is evaluated with it.

        Gaps near e^(-gamma tau) at large gamma tau overflow some terms; the
        evaluation runs under one np.errstate, so those points come back as
        inf or NaN, which verify_sign_region counts as violations.
        """
        with np.errstate(all="ignore"):
            pr = self._prims(gap)
            p, d = self.p, self.p.d
            n1, g = p.n - 1, p.gamma
            th1 = theta(p, 1, sign)
            th2 = theta(p, 2, sign)
            f1, f2, f3 = self._f_sources(pr)
            psi, dpsi, d2psi, _ = self._psi_sum(sign, tau, pr, True)
            if np.any(psi <= 0.0):
                raise errors.NonPositiveProfile("outer profile <= 0 inside L0")
            rat = dpsi / psi
            pieces = [-th2 * f3, -n1 * d.b2 * rat]
            if th2 != 0.0:
                # eta as A + gap, which can differ from pr.eta in the last bit
                pieces.append(-th2 * self.C10 * g * (p.A + pr.gap) ** (-1.0 - 1.0 / g))
            e1 = _math_exp(-g, tau)
            pieces.append(-e1 * (f1 + th1 * f2))
            pieces.append(-e1 * n1 * (d2psi / psi + d.b1 * rat ** 2))
            for k, row in self._rows[sign].items():
                pexp = k + 1.0 / g
                sk = np.zeros_like(pr.gap)
                for j, c in row.items():
                    sk = sk + (g * j * c) * self._powlog_prims(pexp, j - 1, pr, False)[0]
                pieces.append(-_math_exp(-(k - 1) * g, tau) * sk)
            res = np.zeros_like(pr.gap)
            scale = np.zeros_like(pr.gap)
            for piece in pieces:
                res = res + piece
                scale = scale + np.abs(piece)
            return res, scale

    # -- table dump ----------------------------------------------------------

    def profile_rows(self, eta_grid, tau: float, sign: str):
        """Rows (eta, phi0..phi4, h+, h-, psi, psi_eta, psi_etaeta) for CSV."""
        eta_grid = np.asarray(eta_grid, dtype=float)
        gap = eta_grid - self.p.A
        pr = self._prims(gap)
        psi, dpsi, d2psi, _ = self.psi_bundle(sign, tau, gap=gap)
        cols = [
            eta_grid,
            self.phi0(gap),
            self._phi1_prims(pr, False)[0],
            self._phi2_prims(pr, False)[0],
            self._phi3_prims(pr, False)[0],
            self.phi4(gap),
            self.h(gap, "+"),
            self.h(gap, "-"),
            psi,
            dpsi,
            d2psi,
        ]
        return np.column_stack(cols)


def _plus(a_parts, c, b_parts):
    """a + c b, part by part."""
    return tuple(a + c * b for a, b in zip(a_parts, b_parts))


def _math_exp(rate: float, tau):
    """e^(rate tau) by math.exp, elementwise over a tau sequence or column.
    np.exp can differ from math.exp in the last bit, which would move
    report fields that sit at roundoff level.  The one home of the per-tau
    decay factors: l0_terms, the glued barrier's outer side
    (matching.GluedBarrier.wbar), the L1 evaluator and the near_A band
    (residuals) all take theirs from here, one call per tau, never per
    space point."""
    tau = np.asarray(tau, dtype=float)
    return np.array([math.exp(rate * t) for t in tau.ravel().tolist()]).reshape(tau.shape)
