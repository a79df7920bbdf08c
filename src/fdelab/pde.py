"""Radial PDE laboratory: comoving solver, physical barriers, sandwich runs.

The evolution is posed for W(xi, t) = w(s, t) in the comoving frame
xi = s - A (T-t)^(-gamma), where the w-equation gains a drift:

    W_t = F(W) + sigma(t) W_xi,
    F(W) = (n-1) [W_xixi/W + b1 W_xi^2/W^2 + b2 W_xi/W] - a0,
    sigma(t) = A gamma (T-t)^(-gamma-1).

Time is tracked through delta = T - t with the exact geometric update
delta_{k+1} = delta_k (1 - dtau), so the uniform-in-w profile a0*delta is
reproduced to rounding accuracy by the trapezoidal stepper.  Space is a
uniform xi grid with central second-order differences; steps are implicit
(theta = 1/2 after a short backward-Euler warmup that damps the stiff
transient of non-equilibrium initial data), solved by a damped Newton
iteration with an analytic tridiagonal Jacobian and positivity rejection.
Each Newton system goes straight to LAPACK gtsv (Gaussian elimination with
partial pivoting on the three diagonals); a singular matrix counts as a
diverged Newton step, which halves the time step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv as _gtsv

from . import errors
from .matching import GluedBarrier
from .params import DerivedConstants, ModelParams
from .reporting import write_csv

__all__ = [
    "PhysicalBarrierPair",
    "assemble_u_barriers",
    "Trajectory",
    "solve_radial_fde",
    "make_manufactured",
    "calibrate_tolerance",
    "comparison_sandwich",
    "extinction_rate",
    "weak_corner_term",
]


# -- physical-space barriers ---------------------------------------------------


class PhysicalBarrierPair:
    """u-space barrier pair evaluated through logarithms.

    All radial positions enter as log r; values are returned as log u so
    that radii of order exp(A e^{gamma tau}) and the attendant underflows
    are handled exactly.
    """

    def __init__(self, plus: GluedBarrier, minus: GluedBarrier, tau0: float):
        if plus.sign != "+" or minus.sign != "-":
            raise errors.InvalidParameter("pass (plus, minus) barriers in order")
        self.plus = plus
        self.minus = minus
        self.tau0 = float(tau0)
        self.p = plus.outer.p
        self.t0 = self.p.T - math.exp(-tau0)

    def _bar(self, sign: str) -> GluedBarrier:
        return self.plus if sign == "+" else self.minus

    def log_r1(self, t: float) -> float:
        delta = self.p.T - t
        return self.plus.xi1 + self.p.A * delta ** (-self.p.gamma)

    def log_u(self, sign: str, log_r, t: float):
        """log u^{sign}(r, t) for log r given; handles the r = 0 limit
        via the core law of the inner profile."""
        p = self.p
        delta = p.T - t
        if delta <= 0.0:
            raise errors.TimeBeyondExtinction(f"need t < T = {p.T}")
        tau = -math.log(delta)
        log_r = np.asarray(log_r, dtype=float)
        xi = log_r - p.A * delta ** (-p.gamma)
        wbar = self._bar(sign).wbar(xi, tau)
        log_w = (1.0 + p.gamma) * math.log(delta) + np.log(wbar)
        return (log_w - 2.0 * log_r) / (1.0 - p.m)

    def log_u_origin(self, sign: str, t: float):
        """log u^{sign}(0, t): the r -> 0 limit, finite for all t < T."""
        p = self.p
        bar = self._bar(sign)
        delta = p.T - t
        if delta <= 0.0:
            raise errors.TimeBeyondExtinction(f"need t < T = {p.T}")
        tau = -math.log(delta)
        C = bar.C(tau)
        val = (
            (1.0 + p.gamma) * math.log(delta)
            + 2.0 * (C - p.A * delta ** (-p.gamma))
            - math.log(bar.factor)
        )
        return math.log(p.lam) + val / (1.0 - p.m)

    def wbar_pair(self, xi, tau: float):
        return self.plus.wbar(xi, tau), self.minus.wbar(xi, tau)


def assemble_u_barriers(
    plus: GluedBarrier,
    minus: GluedBarrier,
    tau0: float,
    eps_bounds: tuple[float, float] | None = None,
) -> PhysicalBarrierPair:
    """Barrier pair for the physical equation, guarding the epsilon range."""
    if eps_bounds is not None:
        cap = min(eps_bounds)
        for bar in (plus, minus):
            if bar.eps >= cap:
                raise errors.EpsilonOutOfRange(
                    f"eps = {bar.eps} not below min(eps1, eps2) = {cap}"
                )
    return PhysicalBarrierPair(plus, minus, tau0)


# -- solver --------------------------------------------------------------------


@dataclass
class Trajectory:
    """Saved frames of a comoving run."""

    p: ModelParams
    d: DerivedConstants
    xi: np.ndarray
    deltas: np.ndarray
    W: np.ndarray  # shape (frames, len(xi))
    newton_iters_max: int = 0

    @property
    def taus(self) -> np.ndarray:
        return -np.log(self.deltas)

    def amplitude(self) -> np.ndarray:
        """sup_xi W^{1/(1-m)} per frame (the weighted amplitude observable)."""
        return np.max(self.W, axis=1) ** (1.0 / (1.0 - self.p.m))

    def to_csv(self, path: str, stride: int = 10, xi_stride: int = 8):
        """Rows (t, s, xi, w, u, log10_u) on a strided subgrid."""
        p = self.p
        rows = []
        for k in range(0, len(self.deltas), stride):
            delta = self.deltas[k]
            t = p.T - delta
            shift = p.A * delta ** (-p.gamma)
            for j in range(0, len(self.xi), xi_stride):
                xi = self.xi[j]
                w = self.W[k, j]
                s = xi + shift
                log10_u = (math.log10(w) - 2.0 * s / math.log(10.0)) / (1.0 - p.m)
                u = 10.0 ** log10_u if log10_u > -300.0 else 0.0
                rows.append((t, s, xi, w, u, log10_u))
        write_csv(path, ["t", "s", "xi", "w", "u", "log10_u"], rows)


def _rhs_and_jac(W, dxi, sigma, p, d, source_vals, want_jac):
    """F(W) + sigma W_xi (+ source) on interior points, and the Jacobian bands."""
    n1 = p.n - 1
    Wm = W[:-2]
    W0 = W[1:-1]
    Wp = W[2:]
    D1 = (Wp - Wm) / (2.0 * dxi)
    D2 = (Wp - 2.0 * W0 + Wm) / (dxi * dxi)
    F = n1 * (D2 / W0 + d.b1 * (D1 / W0) ** 2 + d.b2 * D1 / W0) - d.a0 + sigma * D1
    if source_vals is not None:
        F = F + source_vals[1:-1]
    if not want_jac:
        return F, None, None, None
    dF_dp = n1 * (1.0 / (dxi * dxi * W0) + d.b1 * D1 / (dxi * W0 * W0) + d.b2 / (2.0 * dxi * W0)) + sigma / (2.0 * dxi)
    dF_dm = n1 * (1.0 / (dxi * dxi * W0) - d.b1 * D1 / (dxi * W0 * W0) - d.b2 / (2.0 * dxi * W0)) - sigma / (2.0 * dxi)
    dF_d0 = n1 * (
        -2.0 / (dxi * dxi * W0)
        - D2 / (W0 * W0)
        - 2.0 * d.b1 * D1 * D1 / (W0 ** 3)
        - d.b2 * D1 / (W0 * W0)
    )
    return F, dF_dm, dF_d0, dF_dp


def _tridiagonal_solve(dl, d, du, b):
    """LAPACK gtsv solve of the tridiagonal system (dl, d, du) x = b.

    The inputs are overwritten.  A zero pivot raises NewtonDiverged, so
    the caller's step halving applies.
    """
    _, _, _, x, info = _gtsv(
        dl, d, du, b, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1
    )
    if info != 0:
        raise errors.NewtonDiverged(f"tridiagonal Newton matrix singular (gtsv info {info})")
    return x


def _implicit_step(
    W_old, delta_old, delta_new, theta_w, dxi, p, d, bc, source, newton_max
):
    """One theta-weighted implicit step; returns (W_new, iterations)."""
    dt = delta_old - delta_new
    sigma_old = p.A * p.gamma * delta_old ** (-p.gamma - 1.0)
    sigma_new = p.A * p.gamma * delta_new ** (-p.gamma - 1.0)
    src_old = source(W_old, delta_old) if source else None
    F_old, _, _, _ = _rhs_and_jac(W_old, dxi, sigma_old, p, d, src_old, False)
    lo, hi = bc(delta_new)

    X = W_old.copy()
    X[0], X[-1] = lo, hi
    M = len(W_old)
    # the achievable residual is bounded below by rounding of the bracket
    # X - W_old - dt*(...), whose raw terms are of size W and dt*|F|
    w_scale = float(np.max(W_old))
    f_scale = d.a0 + float(np.max(np.abs(F_old)))
    tol = max(5e-14 * w_scale, 150.0 * 2.3e-16 * (w_scale + dt * f_scale))

    def G_of(X):
        src = source(X, delta_new) if source else None
        F_new, dm, d0, dp = _rhs_and_jac(X, dxi, sigma_new, p, d, src, True)
        G = np.empty(M)
        G[0] = X[0] - lo
        G[-1] = X[-1] - hi
        G[1:-1] = X[1:-1] - W_old[1:-1] - dt * (
            theta_w * F_new + (1.0 - theta_w) * F_old
        )
        return G, dm, d0, dp

    G, dm, d0, dp = G_of(X)
    it = 0
    while np.max(np.abs(G)) > tol:
        if it >= newton_max:
            raise errors.NewtonDiverged(
                f"Newton stalled at |G| = {np.max(np.abs(G)):.3e} "
                f"(tol {tol:.3e}) at delta = {delta_new:.6e}"
            )
        it += 1
        # tridiagonal Jacobian of G: I - dt*theta*J_F on interior, identity at ends
        dl = np.zeros(M - 1)
        dl[:-1] = -dt * theta_w * dm
        diag = np.ones(M)
        diag[1:-1] = 1.0 - dt * theta_w * d0
        du = np.zeros(M - 1)
        du[1:] = -dt * theta_w * dp
        step = _tridiagonal_solve(dl, diag, du, -G)
        lam = 1.0
        G_norm = np.max(np.abs(G))
        while True:
            X_try = X + lam * step
            if np.all(X_try > 0.0):
                G_try, dm_t, d0_t, dp_t = G_of(X_try)
                if np.max(np.abs(G_try)) < G_norm or lam < 0.1:
                    X, G, dm, d0, dp = X_try, G_try, dm_t, d0_t, dp_t
                    break
            lam *= 0.5
            if lam < 1e-4:
                raise errors.PositivityLost(
                    f"no positive damped Newton step at delta = {delta_new:.6e}"
                )
    return X, it


def solve_radial_fde(
    p: ModelParams,
    d: DerivedConstants,
    *,
    xi_window: tuple[float, float],
    n_cells: int,
    delta_start: float,
    delta_end: float,
    w0,
    bc,
    source=None,
    dtau: float = 0.01,
    warmup_steps: int = 4,
    newton_max: int = 12,
) -> Trajectory:
    """Integrate the comoving equation from delta_start down to delta_end.

    w0(xi) gives initial data, bc(delta) -> (W_lo, W_hi) the Dirichlet
    values, source(W, delta) an optional extra right-hand side on the grid.
    The first warmup_steps use backward Euler at half the step to damp the
    non-equilibrium transient; afterwards the scheme is trapezoidal.
    Positivity failures reject and halve the step before giving up.
    """
    if not (0.0 < delta_end < delta_start):
        raise errors.InvalidParameter("need 0 < delta_end < delta_start")
    xi = np.linspace(xi_window[0], xi_window[1], n_cells + 1)
    dxi = xi[1] - xi[0]
    W = np.asarray(w0(xi), dtype=float).copy()
    if W.shape != xi.shape:
        raise errors.InvalidParameter("w0 must return one value per grid point")
    if np.any(W <= 0.0):
        raise errors.PositivityLost("initial data not strictly positive")

    frames = [W.copy()]
    deltas = [delta_start]
    delta = delta_start
    max_iters = 0
    step_idx = 0
    while delta > delta_end * (1.0 + 1e-12):
        if step_idx < warmup_steps:
            frac, theta_w = 0.5 * dtau, 1.0
        else:
            frac, theta_w = dtau, 0.5
        # land exactly on delta_end at the final step
        frac = min(frac, 1.0 - delta_end / delta)
        attempt = frac
        while True:
            delta_new = delta * (1.0 - attempt)
            try:
                W_new, its = _implicit_step(
                    W, delta, delta_new, theta_w, dxi, p, d, bc, source, newton_max
                )
                break
            except (errors.NewtonDiverged, errors.PositivityLost):
                attempt *= 0.5
                if attempt < 1e-6:
                    raise
        W = W_new
        delta = delta_new
        max_iters = max(max_iters, its)
        frames.append(W.copy())
        deltas.append(delta)
        step_idx += 1
        if step_idx > 200000:
            raise errors.StepUnderflow("step budget exhausted")
    return Trajectory(
        p=p, d=d, xi=xi, deltas=np.asarray(deltas), W=np.vstack(frames),
        newton_iters_max=max_iters,
    )


# -- manufactured solution and tolerance calibration ---------------------------


def make_manufactured(p: ModelParams, d: DerivedConstants, c1: float = 2.0,
                      c2: float = 0.5, k: float = 0.7):
    """Exact solution W = delta^{1+gamma} (c1 + c2 sin(k xi)) and its source.

    The source S = W_t - F(W) - sigma W_xi is analytic; feeding it to the
    solver makes W an exact solution for convergence studies.
    """
    if abs(c2) >= abs(c1):
        raise errors.InvalidParameter("need |c2| < |c1| for positivity")
    n1 = p.n - 1

    def W_exact(xi, delta):
        return delta ** (1.0 + p.gamma) * (c1 + c2 * np.sin(k * xi))

    def bind(xi):
        sin = np.sin(k * xi)
        cos = np.cos(k * xi)
        prof = c1 + c2 * sin
        dprof = c2 * k * cos
        d2prof = -c2 * k * k * sin

        def S(W_unused, delta):
            amp = delta ** (1.0 + p.gamma)
            W = amp * prof
            Wx = amp * dprof
            Wxx = amp * d2prof
            Wt = -(1.0 + p.gamma) * delta ** p.gamma * prof
            sigma = p.A * p.gamma * delta ** (-p.gamma - 1.0)
            F = n1 * (Wxx / W + d.b1 * (Wx / W) ** 2 + d.b2 * Wx / W) - d.a0
            return Wt - F - sigma * Wx

        return S

    return W_exact, bind


def calibrate_tolerance(
    p: ModelParams,
    d: DerivedConstants,
    *,
    xi_window: tuple[float, float],
    n_cells: int,
    delta_start: float,
    delta_end: float,
    dtau: float,
    safety: float = 5.0,
) -> float:
    """Normalized discretization error from a manufactured run.

    Returns tol_rel with the property that |W_num - W_true| <= tol_rel *
    delta^{1+gamma} held on the manufactured problem, scaled by `safety`.
    This is the grid tolerance used by the sandwich checks.
    """
    W_exact, bind = make_manufactured(p, d)
    xi = np.linspace(xi_window[0], xi_window[1], n_cells + 1)
    S = bind(xi)
    traj = solve_radial_fde(
        p, d, xi_window=xi_window, n_cells=n_cells,
        delta_start=delta_start, delta_end=delta_end,
        w0=lambda x: W_exact(x, delta_start),
        bc=lambda delta: (
            float(W_exact(xi[0], delta)), float(W_exact(xi[-1], delta))
        ),
        source=S, dtau=dtau,
    )
    err = 0.0
    for idx in range(len(traj.deltas)):
        delta = traj.deltas[idx]
        scale = delta ** (1.0 + p.gamma)
        err = max(err, float(np.max(np.abs(traj.W[idx] - W_exact(xi, delta)))) / scale)
    return safety * err


# -- sandwich runs -------------------------------------------------------------


@dataclass
class SandwichReport:
    tol_rel: float
    runs: dict = field(default_factory=dict)
    max_undershoot: float = 0.0  # worst (W_lowbar - W)/scale over all runs
    max_overshoot: float = 0.0   # worst (W - W_upbar)/scale
    passed: bool = False
    fits: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "tol_rel": self.tol_rel,
            "max_undershoot": self.max_undershoot,
            "max_overshoot": self.max_overshoot,
            "passed": self.passed,
            "fits": self.fits,
            "runs": {k: v for k, v in self.runs.items() if not hasattr(v, "W")},
        }


def _barrier_W(bar: GluedBarrier, xi: np.ndarray, delta: float, p: ModelParams):
    tau = -math.log(delta)
    return delta ** (1.0 + p.gamma) * bar.wbar(xi, tau)


def comparison_sandwich(
    pair: PhysicalBarrierPair,
    *,
    tau_end: float,
    n_cells: int = 400,
    dtau: float = 0.01,
    xi_span: tuple[float, float] | None = None,
    check_stride: int = 5,
    initial: str = "mid",
) -> SandwichReport:
    """Evolve data between the barriers and verify it stays sandwiched.

    Three runs: data/BC on the lower barrier, on the upper barrier, and on
    the pointwise geometric mean ("mid", the reported solution).  Initial
    data outside the barriers is rejected (this covers the doubled-data
    precondition check).  Violations are measured against the calibrated
    grid tolerance in units of delta^{1+gamma}.
    """
    p, d = pair.p, pair.plus.outer.d
    xi1 = pair.plus.xi1
    window = xi_span or (-xi1, 4.0 * xi1)
    delta_start = math.exp(-pair.tau0)
    delta_end = math.exp(-tau_end)

    tol_rel = calibrate_tolerance(
        p, d, xi_window=window, n_cells=n_cells,
        delta_start=delta_start, delta_end=delta_end, dtau=dtau,
    )

    xi = np.linspace(window[0], window[1], n_cells + 1)
    Wp0 = _barrier_W(pair.plus, xi, delta_start, p)
    Wm0 = _barrier_W(pair.minus, xi, delta_start, p)

    def data_for(kind: str):
        if kind == "lower":
            return Wm0.copy()
        if kind == "upper":
            return Wp0.copy()
        if kind == "mid":
            return np.sqrt(Wp0 * Wm0)
        raise errors.InvalidParameter(f"unknown run kind {kind!r}")

    W0 = data_for(initial)
    slack = tol_rel * delta_start ** (1.0 + p.gamma)
    if np.any(W0 < Wm0 - slack) or np.any(W0 > Wp0 + slack):
        raise errors.NotBetweenBarriers(
            "initial data leaves the barrier sandwich at tau0"
        )

    ends = xi[[0, -1]]

    def bc_for(kind: str):
        if kind in ("lower", "upper"):
            bar = pair.minus if kind == "lower" else pair.plus
            return lambda delta: tuple(_barrier_W(bar, ends, delta, p).tolist())

        def bc_mid(delta):
            wp = _barrier_W(pair.plus, ends, delta, p)
            wm = _barrier_W(pair.minus, ends, delta, p)
            return tuple(np.sqrt(wp * wm).tolist())

        return bc_mid

    report = SandwichReport(tol_rel=tol_rel)
    trajs = {}
    for kind in ("lower", "upper", "mid"):
        traj = solve_radial_fde(
            p, d, xi_window=window, n_cells=n_cells,
            delta_start=delta_start, delta_end=delta_end,
            w0=lambda x, kind=kind: data_for(kind),
            bc=bc_for(kind), dtau=dtau,
        )
        trajs[kind] = traj
        for idx in range(0, len(traj.deltas), check_stride):
            delta = traj.deltas[idx]
            scale = delta ** (1.0 + p.gamma)
            Wp = _barrier_W(pair.plus, xi, delta, p)
            Wm = _barrier_W(pair.minus, xi, delta, p)
            under = float(np.max((Wm - traj.W[idx]) / scale))
            over = float(np.max((traj.W[idx] - Wp) / scale))
            report.max_undershoot = max(report.max_undershoot, under)
            report.max_overshoot = max(report.max_overshoot, over)
    report.passed = (
        report.max_undershoot <= tol_rel and report.max_overshoot <= tol_rel
    )
    report.runs = trajs

    # extinction fits: barriers from their formulas on the same frames
    mid = trajs["mid"]
    amp_sol = mid.amplitude()
    amps = {"solution": amp_sol}
    for name, bar in (("upper_barrier", pair.plus), ("lower_barrier", pair.minus)):
        vals = []
        for delta in mid.deltas:
            Wb = _barrier_W(bar, xi, float(delta), p)
            vals.append(np.max(Wb) ** (1.0 / (1.0 - p.m)))
        amps[name] = np.asarray(vals)
    span = math.log10(float(mid.deltas.max() / mid.deltas.min()))
    for name, amp in amps.items():
        try:
            report.fits[name] = extinction_rate(mid.deltas, amp)
        except errors.InsufficientDecades:
            report.fits[name] = {
                "exponent": math.nan,
                "prefactor_log": math.nan,
                "stderr": math.inf,
                "n_points": 0,
                "decades": span,
            }
    return report


def extinction_rate(deltas, amplitudes, fit_decades: float = 2.0) -> dict:
    """Least-squares exponent of amplitude ~ delta^rate over the final decades."""
    deltas = np.asarray(deltas, dtype=float)
    amps = np.asarray(amplitudes, dtype=float)
    if np.any(amps <= 0.0) or np.any(deltas <= 0.0):
        raise errors.NonPositiveInput("extinction fit needs positive series")
    span = math.log10(deltas.max() / deltas.min())
    if span < fit_decades:
        raise errors.InsufficientDecades(
            f"trajectory spans {span:.2f} decades of T - t, need {fit_decades}"
        )
    cut = deltas.min() * 10.0 ** fit_decades
    mask = deltas <= cut
    x = np.log(deltas[mask])
    y = np.log(amps[mask])
    A = np.column_stack([x, np.ones_like(x)])
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    n_pts = int(np.count_nonzero(mask))
    dof = max(n_pts - 2, 1)
    resid = y - A @ coef
    sigma2 = float(resid @ resid) / dof
    sx2 = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(sigma2 / sx2) if sx2 > 0 else math.inf
    return {
        "exponent": float(coef[0]),
        "prefactor_log": float(coef[1]),
        "stderr": stderr,
        "n_points": n_pts,
        "decades": span,
    }


# -- weak corner term ----------------------------------------------------------

def _softplus(q: float) -> float:
    if q > 0.0:
        return q + math.log1p(math.exp(-q))
    return math.log1p(math.exp(q))


def weak_corner_term(
    bar: GluedBarrier,
    tau_window: tuple[float, float],
    n_tau: int = 48,
) -> dict:
    """Sign and log10-magnitude of the corner boundary term J1.

    The integrand lives on the moving interface r1(t) = exp(xi1 + A
    (T-t)^(-gamma)); every factor is assembled in logarithms because r1 is
    astronomically large while the product is astronomically small.  The
    slope jump (right - left) carries the sign: nonpositive for the plus
    barrier, nonnegative for the minus barrier, which is what the weak
    comparison argument needs.
    """
    p = bar.outer.p
    m, gamma, A, n = p.m, p.gamma, p.A, p.n
    xi1 = bar.xi1
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    c_m = (1.0 + gamma) * m / (1.0 - m)
    b1 = (2.0 * m - 1.0) / (1.0 - m)

    taus = np.linspace(tau_window[0], tau_window[1], n_tau)
    log_terms = []
    signs = []
    for tau in taus:
        tau = float(tau)
        delta = math.exp(-tau)
        rep = bar.corner_jump(tau)
        jump = rep.right_slope - rep.left_slope
        if jump == 0.0:
            continue
        signs.append(math.copysign(1.0, jump))
        log_r1 = xi1 + A * math.exp(gamma * tau)
        # log E = log r1 + softplus(log(4 g^2 A^2) + (2g+2) tau + 2 log r1)/2
        q = math.log(4.0 * gamma * gamma * A * A) + (2.0 * gamma + 2.0) * tau + 2.0 * log_r1
        log_E = log_r1 + 0.5 * _softplus(q)
        edge_value, _ = bar.solver.outer_edge(bar.sign, xi1, tau)
        log_psi = math.log(edge_value) - gamma * tau  # log of psi at the edge
        lt = (
            math.log(n - 1)
            - math.log(1.0 - m)
            + math.log(omega)
            + c_m * math.log(delta)
            + (n - 1) * log_r1
            - 2.0 * log_r1
            - log_E
            + b1 * (log_psi - 2.0 * log_r1)
            + math.log(abs(jump))
            + math.log(delta)  # dt = delta dtau
        )
        log_terms.append(lt)
    if not log_terms:
        raise errors.NonConvergent("corner term vanished identically on the window")
    sign_set = set(signs)
    sign = signs[0] if len(sign_set) == 1 else 0.0
    arr = np.asarray(log_terms)
    peak = float(np.max(arr))
    total = peak + math.log(np.sum(np.exp(arr - peak)) * (taus[1] - taus[0]))
    return {
        "sign": sign,
        "log10_abs": total / math.log(10.0),
        "sign_consistent": len(sign_set) == 1,
        "n_samples": len(log_terms),
    }
