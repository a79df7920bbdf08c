"""Outer-region profiles phi0..phi4, corrector sums, and psi evaluators.

Everything takes the gap eta - A > 0, never eta itself, so that evaluation
stays accurate down to gaps of order exp(-gamma*tau) for large tau.  With
x = (A/eta)^(1/gamma) the primitives are

    phi0 = a0 (1 - x)
    I(eta) = int_{eta0}^eta rho^{-1} (1-x(rho))^{-1} drho
    phi1 = eta^(-2-1/gamma) (C1 + bq1 I)
    phi2 = (n-1) A^(2/gamma) gamma^{-2} eta^(-2-2/gamma) / (1-x)
    phi3 = eta^(-1-1/gamma) (C3 + bq3 I)
    phi4 = phi3 + C10 eta^(-1-1/gamma) log eta
    h    = phi1 + theta1 phi2

The substitution l = log(rho/A)/gamma, so x = e^(-l) and drho/rho = gamma dl,
turns rho^{-1} (1-x)^{-1} drho into gamma d log(e^l - 1), and
rho^(-1-1/gamma) (1-x)^(-2) drho into gamma A^(-1/gamma) d(-1/(1-x)).  Hence,
with l = log1p(gap/A)/gamma and l0 its value at eta0,

    I(eta) = gamma [log expm1(l) - log expm1(l0)]
    C2 = b2q int_{eta0}^inf rho^(-1-1/gamma) (1-x)^(-2) drho
       = b2q gamma eta0^(-1/gamma) / (1 - x0),

exact at every gap.  psi_bundle assembles the tau-weighted sum with its
analytic eta and tau derivatives in one pass and is the one derivative
route for psi; psi_outer gives the value alone with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .params import (
    ModelParams,
    ThresholdConfig,
    default_thresholds,
    theta,
    validate_params,
)

__all__ = ["OuterProfileSet", "branch_variant", "VARIANTS"]

VARIANTS = ("psi1", "psi2", "psi3", "psi4")


def branch_variant(gamma: float) -> str:
    """Variant selection rule: psi3 for gamma > 1, else psi4."""
    return "psi3" if gamma > 1.0 else "psi4"


def _phi_variant(variant: str) -> str:
    if variant in ("psi1", "psi2"):
        return "phi3"
    if variant in ("psi3", "psi4"):
        return "phi4"
    raise errors.InvalidParameter(f"unknown variant {variant!r}")


def _has_rows(variant: str) -> bool:
    return variant in ("psi2", "psi4")


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

    Holds the distinguished constant C2, the positivity constant C10
    (searched by doubling when the config leaves it None), and the
    correction coefficient tables per (variant, sign).
    """

    def __init__(self, p: ModelParams, cfg: ThresholdConfig | None = None):
        self.p = p
        self.d = validate_params(p)
        self.cfg = cfg or default_thresholds(p, self.d)
        self.cfg.validated(p, self.d)

        n, gamma, A = p.n, p.gamma, p.A
        self._p1 = 2.0 + 1.0 / gamma
        self._p2 = 2.0 + 2.0 / gamma
        self._p3 = 1.0 + 1.0 / gamma
        self._bq1 = (n - 1) * (gamma + 1.0) * A ** (1.0 / gamma) / gamma ** 3
        self._bq3 = -(n - 1) * A ** (1.0 / gamma) / gamma ** 2
        self._kap2 = (n - 1) * A ** (2.0 / gamma) / gamma ** 2
        self._b2q = (n - 1) * A ** (2.0 / gamma) / gamma ** 3

        g0 = self.cfg.eta0 - A
        if g0 <= 0.0:
            raise errors.InvalidParameter("eta0 must exceed A")
        # closed forms of I and C2 from the module docstring
        lg0 = math.log1p(g0 / A) / gamma
        self._lexp0 = math.log(math.expm1(lg0))
        self.C2 = self._b2q * gamma * self.cfg.eta0 ** (-1.0 / gamma) / -math.expm1(-lg0)
        self._C10: float | None = (
            float(self.cfg.C10) if self.cfg.C10 is not None else None
        )
        self._coeff_cache: dict[tuple[str, str], dict] = {}

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

    @staticmethod
    def _pack(value, d1, d2, deriv):
        if deriv == 0:
            return value
        if deriv == 1:
            return d1
        if deriv == 2:
            return d2
        raise errors.InvalidParameter(f"deriv must be 0, 1, or 2, got {deriv}")

    def _phi0_prims(self, pr: _Primitives, deriv: int):
        a0, gamma = self.d.a0, self.p.gamma
        value = a0 * pr.omx
        d1 = a0 * pr.x / (gamma * pr.eta)
        d2 = -a0 * pr.x * (1.0 + gamma) / (gamma ** 2 * pr.eta ** 2)
        return self._pack(value, d1, d2, deriv)

    def _profile_CI(self, pexp: float, C: float, b: float, pr: _Primitives, deriv: int):
        E = np.exp(-pexp * pr.logeta)
        value = E * (C + b * pr.I)
        if deriv == 0:
            return value
        d1 = -pexp * value / pr.eta + b * E * pr.I1
        if deriv == 1:
            return d1
        d2 = (
            pexp * (pexp + 1.0) * value / pr.eta ** 2
            - 2.0 * pexp * b * E * pr.I1 / pr.eta
            + b * E * pr.I2
        )
        return self._pack(value, d1, d2, deriv)

    def _phi1_prims(self, pr, deriv):
        return self._profile_CI(self._p1, self.cfg.homog_C1, self._bq1, pr, deriv)

    def _phi3_prims(self, pr, deriv):
        return self._profile_CI(self._p3, self.cfg.homog_C3, self._bq3, pr, deriv)

    def _phi2_prims(self, pr, deriv):
        gamma = self.p.gamma
        u = 1.0 / pr.omx
        value = self._kap2 * np.exp(-self._p2 * pr.logeta) * u
        if deriv == 0:
            return value
        lam = -(self._p2 + pr.x * u / gamma) / pr.eta
        d1 = value * lam
        if deriv == 1:
            return d1
        lamp = (self._p2 + pr.x * u / gamma) / pr.eta ** 2 + pr.x * u * (
            1.0 + pr.x * u
        ) / (gamma ** 2 * pr.eta ** 2)
        d2 = value * (lam ** 2 + lamp)
        return d2

    def _powlog_prims(self, pexp: float, j: int, pr: _Primitives, deriv: int):
        """eta^(-pexp) * (log eta)^j and derivatives; j < 0 gives 0."""
        if j < 0:
            return np.zeros_like(pr.gap)
        L = pr.logeta
        E = np.exp(-pexp * L)
        Lj = L ** j
        value = E * Lj
        if deriv == 0:
            return value
        Ljm1 = L ** (j - 1) if j >= 1 else np.zeros_like(L)
        d1 = E / pr.eta * (-pexp * Lj + j * Ljm1)
        if deriv == 1:
            return d1
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
        return d2

    def _phi4_prims(self, pr, deriv):
        return self._phi3_prims(pr, deriv) + self.C10 * self._powlog_prims(
            self._p3, 1, pr, deriv
        )

    # -- public profile API -----------------------------------------------

    def phi0(self, gap, deriv: int = 0):
        return self._phi0_prims(self._prims(gap), deriv)

    def f_sources(self, gap):
        """Source terms (f1, f2, f3) of the corrector ODEs."""
        pr = self._prims(gap)
        n, gamma = self.p.n, self.p.gamma
        r = pr.x / (pr.eta * pr.omx)
        f1 = (n - 1) * (gamma + 1.0) / gamma ** 2 * r / pr.eta
        f2 = -(n - 1) / gamma ** 2 * r ** 2
        f3 = -(n - 1) / gamma * r
        return f1, f2, f3

    def phi4(self, gap, deriv: int = 0):
        return self._phi4_prims(self._prims(gap), deriv)

    def h(self, gap, sign: str, deriv: int = 0):
        pr = self._prims(gap)
        th1 = theta(self.p, 1, sign)
        return self._phi1_prims(pr, deriv) + th1 * self._phi2_prims(pr, deriv)

    def vkj(self, k: int, j: int, gap, deriv: int = 0):
        """Correction basis eta^(-k-1/gamma) (log eta)^j for k >= 3."""
        if k < 3:
            raise errors.InvalidParameter(f"vkj requires k >= 3, got {k}")
        if j > k:
            raise errors.InvalidParameter(f"vkj requires j <= k, got j={j}, k={k}")
        gap = np.asarray(gap, dtype=float)
        if np.any(self.p.A + gap <= 1.0):
            raise errors.OutOfDomain("vkj requires eta > 1")
        pr = self._prims(gap)
        return self._powlog_prims(k + 1.0 / self.p.gamma, j, pr, deriv)

    # -- distinguished constants -------------------------------------------

    @property
    def C10(self) -> float:
        """Positivity constant of phi4, searched by doubling when unset."""
        if self._C10 is None:
            self._C10 = self._search_C10()
        return self._C10

    def _search_C10(self) -> float:
        gaps = np.geomspace(1e-6, 1e4 * self.p.A - self.p.A, 400)
        pr = self._prims(gaps)
        phi3 = self._phi3_prims(pr, 0)
        v = self._powlog_prims(self._p3, 1, pr, 0)
        c = 1.0
        for _ in range(self.cfg.max_doublings):
            # phi4 >= (c/2) v  <=>  phi3 >= -(c/2) v on the grid
            if np.all(phi3 + 0.5 * c * v >= 0.0):
                return c
            c *= 2.0
        raise errors.PositivityUnattained(
            f"no C10 up to {c:g} makes phi4 dominate its log envelope"
        )

    # -- far-field seeds and coefficient tables -----------------------------

    def _farfield(self, which: str) -> tuple[float, float]:
        """(c1, c0) with profile * eta^p = c1 log(eta) + c0 + O(x) far afield.

        which = "h-part" gives phi1 (the eta^(-2-1/gamma) block of h);
        which = "p-part" gives phi3.  For profile = eta^(-p) (C + bq I),
        I = log(eta) - log(A) - gamma log expm1(l0) + gamma log(1 - x), and
        gamma log(1 - x) = O(x).
        """
        if which == "h-part":
            C, bq = self.cfg.homog_C1, self._bq1
        elif which == "p-part":
            C, bq = self.cfg.homog_C3, self._bq3
        else:
            raise errors.InvalidParameter(f"unknown far-field part {which!r}")
        return bq, C - bq * (math.log(self.p.A) + self.p.gamma * self._lexp0)

    @staticmethod
    def _d2coeff(row: dict, P: float, i: int) -> float:
        """L^i coefficient of (sum_j row[j] eta^(-P) L^j)'' * eta^(P+2)."""
        return (
            P * (P + 1.0) * row.get(i, 0.0)
            - (i + 1.0) * (2.0 * P + 1.0) * row.get(i + 1, 0.0)
            + (i + 1.0) * (i + 2.0) * row.get(i + 2, 0.0)
        )

    def correction_coeffs(self, variant: str, sign: str) -> dict:
        """Coefficient table {(k, j): c_kj} for 3 <= k <= 2N.

        Rows are generated by the far-field cancellation recurrence along
        each parity chain; the chain is seeded by the far-field expansions
        of h (even) and theta2 * Phi (odd).  Seeds c_{k,0} come from the
        config; absent seeds are zero.
        """
        key = (variant, sign)
        if key in self._coeff_cache:
            return dict(self._coeff_cache[key])
        if variant not in VARIANTS:
            raise errors.InvalidParameter(f"unknown variant {variant!r}")
        n, gamma = self.p.n, self.p.gamma
        a0 = self.d.a0
        N = self.d.N
        th2 = theta(self.p, 2, sign)
        seeds = dict(self.cfg.seed_constants)

        c1h, c0h = self._farfield("h-part")
        c1p, c0p = self._farfield("p-part")
        if _phi_variant(variant) == "phi4":
            # phi4 adds C10 * eta^(-1-1/gamma) L to the odd seed profile
            c1p = c1p + self.C10
        rows: dict[int, dict] = {2: {0: c0h, 1: c1h}, 1: {0: th2 * c0p, 1: th2 * c1p}}

        table: dict[tuple[int, int], float] = {}
        for k in range(3, 2 * N + 1):
            prev = rows[k - 2]
            P = (k - 2) + 1.0 / gamma
            row = {0: float(seeds.get(k, 0.0))}
            jmax = int(math.ceil(k / 2))
            for i in range(0, jmax):
                num = self._d2coeff(prev, P, i)
                row[i + 1] = -(n - 1) * num / (a0 * gamma * (i + 1.0))
            rows[k] = row
            for j in range(0, jmax + 1):
                table[(k, j)] = row.get(j, 0.0)
        self._coeff_cache[key] = table
        return dict(table)

    # -- psi assembly --------------------------------------------------------

    def _psi_terms(self, variant: str, sign: str):
        """List of (k, eval(pr, deriv)) pairs: psi = sum_k e^(-k gamma tau) T_k."""
        th1 = theta(self.p, 1, sign)
        th2 = theta(self.p, 2, sign)
        phivar = _phi_variant(variant)

        def t0(pr, deriv):
            return self._phi0_prims(pr, deriv)

        def t1(pr, deriv):
            base = self._phi3_prims(pr, deriv) if phivar == "phi3" else self._phi4_prims(pr, deriv)
            return th2 * base

        def t2(pr, deriv):
            return self._phi1_prims(pr, deriv) + th1 * self._phi2_prims(pr, deriv)

        terms = [(0, t0), (1, t1), (2, t2)]
        if _has_rows(variant):
            table = self.correction_coeffs(variant, sign)
            by_k: dict[int, dict] = {}
            for (k, j), c in table.items():
                if c != 0.0:
                    by_k.setdefault(k, {})[j] = c

            def make_row(row_k, row_c):
                def trow(pr, deriv):
                    acc = np.zeros_like(pr.gap)
                    pexp = row_k + 1.0 / self.p.gamma
                    for j, c in sorted(row_c.items()):
                        acc = acc + c * self._powlog_prims(pexp, j, pr, deriv)
                    return acc

                return trow

            for row_k in sorted(by_k):
                terms.append((row_k, make_row(row_k, by_k[row_k])))
        return terms

    def psi_outer(self, variant: str, sign: str, tau, *, gap):
        """Outer barrier profile psi; gap and tau broadcast together.

        The value alone, summed term by term in the order psi_bundle
        uses, so both give the same bits; derivatives come from psi_bundle.
        """
        pr = self._prims(gap)
        tau = np.asarray(tau, dtype=float)
        gamma = self.p.gamma
        acc = 0.0
        for k, term in self._psi_terms(variant, sign):
            w = np.exp(-k * gamma * tau) if k else 1.0
            acc = acc + w * term(pr, 0)
        return acc

    def psi_bundle(self, variant: str, sign: str, tau, *, gap):
        """(psi, psi_eta, psi_etaeta, psi_tau) in one pass over the terms.

        The only derivative route for psi: tau derivatives are analytic,
        since each term carries the weight e^(-k gamma tau).
        """
        pr = self._prims(gap)
        tau = np.asarray(tau, dtype=float)
        gamma = self.p.gamma
        vals = [0.0, 0.0, 0.0, 0.0]
        for k, term in self._psi_terms(variant, sign):
            w = np.exp(-k * gamma * tau) if k else 1.0
            t_val = term(pr, 0)
            vals[0] = vals[0] + w * t_val
            vals[1] = vals[1] + w * term(pr, 1)
            vals[2] = vals[2] + w * term(pr, 2)
            if k:
                vals[3] = vals[3] + (-k * gamma) * w * t_val
        shape = np.broadcast(pr.gap, tau).shape
        return tuple(np.broadcast_to(v, shape).copy() for v in vals)

    # -- table dump ----------------------------------------------------------

    def profile_rows(self, eta_grid, tau: float, variant: str, sign: str):
        """Rows (eta, phi0..phi4, h+, h-, psi, psi_eta, psi_etaeta) for CSV."""
        eta_grid = np.asarray(eta_grid, dtype=float)
        gap = eta_grid - self.p.A
        pr = self._prims(gap)
        psi, dpsi, d2psi, _ = self.psi_bundle(variant, sign, tau, gap=gap)
        cols = [
            eta_grid,
            self.phi0(gap),
            self._phi1_prims(pr, 0),
            self._phi2_prims(pr, 0),
            self._phi3_prims(pr, 0),
            self.phi4(gap),
            self.h(gap, "+"),
            self.h(gap, "-"),
            psi,
            dpsi,
            d2psi,
        ]
        return np.column_stack(cols)
