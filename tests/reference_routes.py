"""Independent reference routes for the barrier operators, profiles and
the comoving solver.

The package evaluates the operators through the rescaled term evaluators
(OuterProfileSet.l0_terms, and l1_terms_evaluator from its closed forms);
the raw residuals, the raw derivatives of the glued barrier, the mapped
outer evaluator, the exact decompositions and the single corrector
profiles here are second routes that the tests compare those against.
The L1 evaluator takes one xi row right of the corner xi1 that every tau
shares, and left of xi1 residuals.left_margin decides L1's sign from two
scalars per tau.  The closed forms of both sides over any (tau, xi) grid,
one tau per point, are here (l1_terms_on_grid, whose left branch is the
package's former left side), and with them the former full-band inner
verdict on [-7, xi1 + delta1] (full_band_verdict).
The comoving solver builds its Newton bands from stencil quotients
(comoving._newton_bands) and reduces every frame as it is accepted; the raw
Jacobian bands and the solves that keep every frame are here.
"""

import dataclasses
import math
from unittest import mock

import numpy as np

from fdelab import comoving, errors, pde, residuals
from fdelab.matching import GluedBarrier, _exp_gamma_tau
from fdelab.outer import OuterProfileSet, _math_exp
from fdelab.params import theta


def phi_correction(outer: OuterProfileSet, i: int, gap, deriv: int = 0):
    """Corrector profile phi_i (i = 1, 2, 3) or its first/second derivative."""
    pr = outer._prims(gap)
    if i == 1:
        return outer._phi1_prims(pr, True)[deriv]
    if i == 2:
        return outer._phi2_prims(pr, True)[deriv]
    if i == 3:
        return outer._phi3_prims(pr, True)[deriv]
    raise errors.InvalidParameter(f"i must be 1, 2, or 3, got {i}")


def L0_residual(evaluator, gap, tau, p):
    """L0 residual from an evaluator(gap, tau) -> (w, w_eta, w_etaeta, w_tau)."""
    gap = np.asarray(gap, dtype=float)
    w, we, wee, wt = evaluator(gap, tau)
    if np.any(w <= 0.0):
        raise errors.NonPositiveProfile("outer profile <= 0 inside L0")
    eta = p.A + gap
    d, g = p.d, p.gamma
    visc = np.exp(-2.0 * g * tau) * (wee / w + d.b1 * (we / w) ** 2)
    drift = d.b2 * np.exp(-g * tau) * we / w
    return wt - (p.n - 1) * (visc + drift) - (g * eta * we + w - d.a0)


def L1_terms(evaluator, xi, tau, p):
    """The four terms of the L1 residual, from an evaluator(xi, tau) ->
    (w, w_xi, w_xixi, w_tau); their magnitudes sum to the raw scale."""
    xi = np.asarray(xi, dtype=float)
    w, wx, wxx, wt = evaluator(xi, tau)
    if np.any(w <= 0.0):
        raise errors.NonPositiveProfile("inner profile <= 0 inside L1")
    d, g = p.d, p.gamma
    return (
        np.exp(-g * tau) * (wt - (1.0 + g) * w),
        -(p.n - 1) * (wxx / w + d.b1 * (wx / w) ** 2 + d.b2 * wx / w),
        np.full_like(w, d.a0),
        -g * p.A * wx,
    )


def L1_residual(evaluator, xi, tau, p):
    """L1 residual from an evaluator(xi, tau) -> (w, w_xi, w_xixi, w_tau)."""
    t = L1_terms(evaluator, xi, tau, p)
    return t[0] + t[1] + t[2] + t[3]


def at_C10(outer: OuterProfileSet, C10: float) -> OuterProfileSet:
    """The same profile family at another C10 (phi4 = phi3 + C10 v); the
    default C10 = 0 gives the paper's psi1 (gamma > 1) or psi2 (gamma <= 1)."""
    return OuterProfileSet(outer.p, dataclasses.replace(outer.cfg, C10=C10))


def outer_psi_evaluator(outer: OuterProfileSet, sign: str):
    """Adapter: psi as an L0 evaluator keyed on the gap."""

    def ev(gap, tau):
        return outer.psi_bundle(sign, tau, gap=gap)

    return ev


def outer_as_inner_evaluator(outer: OuterProfileSet, sign: str):
    """Adapter: Psi = e^{gamma tau} psi(A + xi e^{-gamma tau}, tau) for L1.

    Realizes the change of variables tying the two operators together:
    L1 of this evaluator equals L0(psi) at the mapped point.
    """
    g = outer.p.gamma

    def ev(xi, tau):
        xi = np.asarray(xi, dtype=float)
        gap = xi * math.exp(-g * tau)
        if np.any(gap <= 0.0):
            raise errors.OutOfDomain("mapped evaluator needs xi > 0")
        psi, dpsi, d2psi, dtau = outer.psi_bundle(sign, tau, gap=gap)
        egt = math.exp(g * tau)
        w = egt * psi
        wx = dpsi
        wxx = math.exp(-g * tau) * d2psi
        wt = g * egt * psi - g * xi * dpsi + egt * dtau
        return w, wx, wxx, wt

    return ev


def psi1_residual_decomposed(outer: OuterProfileSet, sign: str, gap, tau):
    """Exact decomposition L0(psi1) = (n-1)(e^{-2gt} I1 + e^{-gt} I2).

    I1 = (phi0''/phi0 + theta1 phi0'^2/phi0^2) - (psi''/psi + b1 psi'^2/psi^2)
    I2 = theta2 phi0'/phi0 - b2 psi'/psi
    Valid for psi1 (gamma > 1, so no correction rows, and the default
    C10 = 0) at every (eta, tau); serves as the independent second route
    for the L0 implementation.
    """
    p, d = outer.p, outer.p.d
    if outer.C10 != 0.0 or outer.correction_coeffs(sign):
        raise errors.InvalidParameter("psi1 needs gamma > 1 and C10 = 0")
    gap = np.asarray(gap, dtype=float)
    th1 = theta(p, 1, sign)
    th2 = theta(p, 2, sign)
    phi0, dphi0, d2phi0 = outer.phi0(gap, derivs=True)
    psi, dpsi, d2psi, _ = outer.psi_bundle(sign, tau, gap=gap)
    I1 = (d2phi0 / phi0 + th1 * (dphi0 / phi0) ** 2) - (
        d2psi / psi + d.b1 * (dpsi / psi) ** 2
    )
    I2 = th2 * dphi0 / phi0 - d.b2 * dpsi / psi
    g = p.gamma
    return (p.n - 1) * (np.exp(-2.0 * g * tau) * I1 + np.exp(-g * tau) * I2)


def masked_wbar(barrier: GluedBarrier, xi, taus):
    """The glued profile on the (tau, xi) grid by masked points: xi is one
    row shared by every tau or one row per tau, every point carries its
    own tau, and each side of xi1 takes its per-tau factors (C left of
    it, e^{+/-gamma tau} right of it) only at the taus whose row reaches
    it, spread over that side's points.  The second route for
    GluedBarrier.wbar, which forms them once per tau on a shared row."""
    taus = np.asarray(taus, dtype=float)
    grid = np.broadcast_to(np.asarray(xi, dtype=float), (taus.size, np.shape(xi)[-1]))
    out = np.empty(grid.shape)
    gamma = barrier.outer.p.gamma

    def at(side, per_tau):
        """per_tau over the taus whose row meets side, spread to side's points."""
        rows = side.any(axis=1)
        col = np.zeros((taus.size, 1))
        col[rows, 0] = per_tau(taus[rows])
        return np.broadcast_to(col, grid.shape)[side]

    left = grid <= barrier.xi1
    if np.any(left):
        out[left] = barrier.profile.phibar0(grid[left] + at(left, barrier.C)) / barrier.factor
    right = ~left
    if np.any(right):
        tau_pts = np.broadcast_to(taus[:, None], grid.shape)[right]
        egt = at(right, lambda t: [_exp_gamma_tau(gamma, s) for s in t.tolist()])
        emgt = at(right, lambda t: [math.exp(-gamma * s) for s in t.tolist()])
        out[right] = egt * barrier.outer.psi_outer(barrier.sign, tau_pts, gap=grid[right] * emgt)
    return out


def glued_raw_evaluator(barrier: GluedBarrier):
    """Adapter: the raw (w, w_xi, w_xixi, w_tau) of a glued barrier for L1
    at one tau.  Left of xi1 phibar0's triple at xi + C(tau), with
    w_tau = phibar0' C'(tau), over (1 +/- eps); right of it
    outer_as_inner_evaluator."""
    outer_side = outer_as_inner_evaluator(barrier.outer, barrier.sign)

    def ev(xi, tau):
        xi = np.asarray(xi, dtype=float)
        parts = np.empty((4, *xi.shape))
        left = xi <= barrier.xi1
        if np.any(left):
            (C,), (C_prime,) = barrier.C_and_C_prime([tau])
            v, d1, d2 = barrier.profile.phibar0(xi[left] + C, derivs=True)
            parts[:, left] = np.array((v, d1, d2, d1 * C_prime)) / barrier.factor
        if np.any(~left):
            parts[:, ~left] = outer_side(xi[~left], tau)
        return tuple(parts)

    return ev


def l1_terms_on_grid(barrier: GluedBarrier):
    """The closed-form L1 terms_fn over a grid of shape (n_tau, n_xi), row
    i at tau[i, 0], whose rows may differ: each point takes its own tau's
    factors, spread over the masked points, and l0_terms gets one tau per
    point.  C and C' are read at the taus whose row reaches xi <= xi1."""
    p, g = barrier.outer.p, barrier.outer.p.gamma
    pm_eps = barrier.eps if barrier.sign == "+" else -barrier.eps

    def ev(xi, tau):
        xi, taus = np.asarray(xi, dtype=float), np.ravel(tau)
        col = _math_exp(-g, taus)[:, None]
        res, scale = np.empty(xi.shape), np.empty(xi.shape)
        left = xi <= barrier.xi1
        if np.any(left):
            rows = left.any(axis=1)
            shifts = np.zeros((2, taus.size, 1))
            shifts[:, rows, 0] = barrier.C_and_C_prime(taus[rows])
            C, Cp, e = (np.broadcast_to(a, xi.shape)[left] for a in (*shifts, col))
            v, dv, _ = barrier.profile.phibar0(xi[left] + C, derivs=True)
            if np.any(v <= 0.0):
                raise errors.NonPositiveProfile("inner profile <= 0 inside L1")
            terms = (e * dv * Cp, -e * (1.0 + g) * v, pm_eps * g * p.A * dv)
            res[left] = (terms[0] + terms[1] + terms[2]) / barrier.factor
            scale[left] = (np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2])) / barrier.factor
        right = ~left
        if np.any(right):
            e, t = (np.broadcast_to(a, xi.shape)[right] for a in (col, taus[:, None]))
            r, sc = barrier.outer.l0_terms(barrier.sign, t, gap=xi[right] * e)
            res[right], scale[right] = e * r, e * sc
        return res, scale

    return ev


def full_band_verdict(barrier: GluedBarrier, tau_lo: float, cfg=None):
    """The former inner verdict of barrier over [tau_lo, tau_lo + 6]:
    verify_sign_region on grid_eta points of [-7, xi1 + delta1], the corner
    xi1 skipped, one row shared by every tau, with L1 in closed form on both
    sides of xi1 (l1_terms_on_grid on the tiled row)."""
    cfg = cfg or barrier.outer.cfg
    row = np.linspace(-7.0, cfg.xi1 + cfg.delta1, cfg.grid_eta)
    row = row[np.abs(row - cfg.xi1) > 1e-9][None, :]
    ev = l1_terms_on_grid(barrier)

    def terms(xi, tau):
        return ev(np.broadcast_to(xi, (tau.shape[0], xi.shape[1])), tau)

    region = residuals.Region("inner_glued", tau_lo, tau_lo + 6.0)
    with mock.patch.object(residuals, "_space_grid", lambda *args: row):
        return residuals.verify_sign_region(terms, barrier.sign, region, barrier.outer.p, cfg)


# -- comoving solver -------------------------------------------------------------


def jac_bands(W0, D1, D2, dxi, sigma, p):
    """Bands (dF/dW_{j-1}, dF/dW_j, dF/dW_{j+1}) of F(W) + sigma W_xi on
    the interior points, from the raw stencil D1 = (W+ - W-)/(2 dxi),
    D2 = (W+ - 2W + W-)/dxi^2 at the interior values W0."""
    d = p.d
    n1 = p.n - 1
    h2W = dxi * dxi * W0
    W0sq = W0 * W0
    curv = 1.0 / h2W
    grad = d.b1 * D1 / (dxi * W0 * W0)
    drift = d.b2 / (2.0 * dxi * W0)
    adv = sigma / (2.0 * dxi)
    dF_dp = n1 * (curv + grad + drift) + adv
    dF_dm = n1 * (curv - grad - drift) - adv
    dF_d0 = n1 * (
        -2.0 / h2W
        - D2 / W0sq
        - 2.0 * d.b1 * D1 * D1 / (W0 ** 3)
        - d.b2 * D1 / W0sq
    )
    return dF_dm, dF_d0, dF_dp


class _Kept:
    """A run's consumer that keeps every delta and a copy of every frame."""

    def __init__(self):
        self.deltas, self.W = [], []

    def __call__(self, delta, W):
        self.deltas.append(delta)
        self.W.append(W.copy())


@dataclasses.dataclass
class KeptTrajectory(pde.Trajectory):
    """A Trajectory with its accepted deltas and frames, shape (frames, points)."""

    deltas: np.ndarray = None
    W: np.ndarray = None


def solve_kept(p, xi, runs, deltas):
    """pde._solve_rows through the planned deltas with each run's consumer
    replaced by one that keeps every frame: per run its KeptTrajectory or
    the FdelabError that stopped it."""
    kept = [_Kept() for _ in runs]
    results = pde._solve_rows(
        p, xi, [dataclasses.replace(run, consume=k) for run, k in zip(runs, kept)], deltas
    )
    return [
        res if isinstance(res, errors.FdelabError)
        else KeptTrajectory(**vars(res), deltas=np.array(k.deltas), W=np.array(k.W))
        for res, k in zip(results, kept)
    ]


def solve_radial_fde(p, *, xi_window, n_cells, delta_start, delta_end, dtau, w0, bc,
                     source=None):
    """One comoving run from delta_start down to delta_end on n_cells
    cells of xi_window, keeping every frame: w0(xi) gives initial data,
    bc(delta) -> (W_lo, W_hi) the Dirichlet values and source(delta) an
    optional extra right-hand side on the grid.  The one-row case of the
    joint solve, through the planned deltas of the window; a bad window
    raises InvalidParameter before the grid is built, and a run's error is
    raised."""
    pde._check_window(n_cells, dtau, -math.log(delta_start), -math.log(delta_end))
    xi = np.linspace(xi_window[0], xi_window[1], n_cells + 1)
    (res,) = solve_kept(p, xi, [comoving._Run(w0(xi), bc, None, source)],
                        comoving._planned_deltas(delta_start, delta_end, dtau))
    if isinstance(res, errors.FdelabError):
        raise res
    return res
