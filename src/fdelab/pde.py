"""Radial PDE laboratory: comoving solver, sandwich runs, corner term.

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
Newton starts from the geometric predictor W_n (W_n / W_{n-1})^r,
r = log(delta_new / delta_n) / log(delta_n / delta_{n-1}), of the last two
frames.  A run's first step starts cold from W_n, and so does the retry
of a step whose predicted start was rejected; only a rejected cold start
halves the time step.  The Jacobian bands are built from the residual's
difference stencil only for iterates that take a Newton solve.  Each
Newton system covers the interior points, so the Dirichlet ends keep
their values exactly, and goes straight to LAPACK gtsv (Gaussian
elimination with partial pivoting on the three diagonals); a singular
matrix counts as a diverged Newton step.  gtsv is the ILP64
scipy_dgtsv_64_ of the OpenBLAS that numpy's wheel already loads, called
through ctypes and looked up on the first solve, so a process that never
steps the PDE does no extra work and none loads scipy.  Where numpy lacks
that symbol (a numpy built on another BLAS), scipy's dgtsv is the
fallback; where both exist, they give the same bits.  A Newton residual
that is not finite stops the run at once with NonFinite, without halving
the step.

Independent runs on one grid are stepped together as the rows of one
(runs, points) array: each round every unfinished row tries one step from
its own delta, with its own step size, theta, tolerance, Newton count and
damping, and a rejected row halves its own step while the others go on.
Every array stage of a Newton iteration runs elementwise, on the whole
array under a row mask or, for the Jacobian bands, on the iterating rows
alone; rows that are not iterating sit still with a zero step, and each
row keeps its own gtsv call (a batched sweep without
pivoting would change the bits), so a run gives the same bits alone or
beside others.  Frames go into per-row buffers that grow as they fill.  A
row that fails records its error and stops alone; comparison_sandwich
solves its manufactured calibration run and its lower, upper and mid runs
as four rows and raises their errors in that order, with
NotBetweenBarriers after the calibration's.

The barriers are evaluated on tau arrays, never one delta at a time.
Before stepping, the sandwich evaluates both barriers' end values at every
delta of the planned schedule (_planned_deltas: the deltas of a run that
no step rejection halves), one wbar call per barrier and block of deltas;
a row that leaves the schedule after a rejection evaluates its ends at
its own delta.  After stepping, one pass over the mid run's deltas
evaluates both barriers on the whole grid, again in blocks of at most
_BLOCK_POINTS grid points per call, so memory does not grow with the run.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .matching import GluedBarrier
from .params import ModelParams, radial_diffusion
from .reporting import write_csv

__all__ = [
    "Trajectory",
    "solve_radial_fde",
    "make_manufactured",
    "comparison_sandwich",
    "extinction_rate",
    "weak_corner_term",
]


# -- solver --------------------------------------------------------------------


@dataclass
class Trajectory:
    """Saved frames of a comoving run."""

    p: ModelParams
    xi: np.ndarray
    deltas: np.ndarray
    W: np.ndarray  # shape (frames, len(xi))
    newton_iters_max: int = 0  # most Newton iterations of one accepted step
    newton_iters: int = 0  # Newton iterations summed over accepted steps
    step_rejections: int = 0  # rejected step attempts, each halving the step
    cold_retries: int = 0  # predicted starts rejected and retried from the last frame

    def amplitude(self) -> np.ndarray:
        """sup_xi W^{1/(1-m)} per frame (the weighted amplitude observable)."""
        return np.max(self.W, axis=1) ** (1.0 / (1.0 - self.p.m))

    def to_csv(self, path: str):
        """Rows (t, s, xi, w, u, log10_u) on every 10th frame and every 8th
        grid point."""
        p = self.p
        rows = []
        for k in range(0, len(self.deltas), 10):
            delta = self.deltas[k]
            t = p.T - delta
            shift = p.A * delta ** (-p.gamma)
            for j in range(0, len(self.xi), 8):
                xi = self.xi[j]
                w = self.W[k, j]
                s = xi + shift
                log10_u = (math.log10(w) - 2.0 * s / math.log(10.0)) / (1.0 - p.m)
                u = 10.0 ** log10_u if log10_u > -300.0 else 0.0
                rows.append((t, s, xi, w, u, log10_u))
        write_csv(path, ["t", "s", "xi", "w", "u", "log10_u"], rows)


def _drift_speed(p: ModelParams, delta: float) -> float:
    """sigma = A gamma delta^(-gamma-1), the speed of the comoving frame."""
    return p.A * p.gamma * delta ** (-p.gamma - 1.0)


def _rhs(W, dxi, sigma, p):
    """F(W) + sigma W_xi on the interior points of each row of W.

    sigma is a column of per-row drift speeds.  Returns F with the
    difference stencil (D1, D2) that the Jacobian bands are built from.
    """
    Wm = W[:, :-2]
    W0 = W[:, 1:-1]
    Wp = W[:, 2:]
    D1 = (Wp - Wm) / (2.0 * dxi)
    D2 = (Wp - 2.0 * W0 + Wm) / (dxi * dxi)
    F = radial_diffusion(p, W0, D1, D2) - p.d.a0 + sigma * D1
    return F, D1, D2


def _jac_bands(W0, D1, D2, dxi, sigma, p):
    """Bands (dF/dW_{j-1}, dF/dW_j, dF/dW_{j+1}) of _rhs from its stencil."""
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


_DOUBLE = np.dtype(np.float64)
_gtsv = None  # the gtsv route, chosen on the first solve


def _address(a):
    """Pointer to a's data for a raw LAPACK call; None (null) for an empty
    band, which gtsv does not read."""
    return ctypes.byref(ctypes.c_char.from_buffer(a)) if a.size else None


def _openblas_gtsv():
    """dgtsv of the OpenBLAS that numpy's wheel loads, or None.

    The symbol is the ILP64 build's scipy_dgtsv_64_ (64-bit N, NRHS, LDB
    and INFO), looked up through the handle of numpy's linalg extension,
    whose dependencies dlsym searches too.  The returned solve takes the
    checked bands and writes x over b.
    """
    try:
        fn = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_dgtsv_64_
    except (OSError, AttributeError):
        return None
    integer, band = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    fn.argtypes = [integer, integer, band, band, band, band, integer, integer]
    fn.restype = None
    nrhs = ctypes.c_int64(1)

    def solve(dl, d, du, b):
        n, info = ctypes.c_int64(len(d)), ctypes.c_int64()
        fn(n, nrhs, _address(dl), _address(d), _address(du), _address(b), n, info)
        return info.value

    return solve


def _scipy_gtsv():
    """scipy's f2py-wrapped dgtsv on the checked bands, or None without
    scipy.  The bands pass the wrapper's own checks, so it writes x over b."""
    try:
        from scipy.linalg.lapack import dgtsv
    except ImportError:
        return None

    def solve(dl, d, du, b):
        if len(d) == 1:  # the wrapper wants bands of at least one entry
            dl, du = np.zeros(1), np.zeros(1)
        return dgtsv(
            dl, d, du, b, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1
        )[4]

    return solve


def _tridiagonal_solve(dl, d, du, b):
    """LAPACK gtsv solve of the tridiagonal system (dl, d, du) x = b.

    The solve overwrites all four arrays and returns b, which holds x.  The
    first solve picks the route: the ILP64 dgtsv of the OpenBLAS that
    numpy already loads, called through ctypes, else scipy's dgtsv; where
    both exist, they give the same bits; with neither, LapackUnavailable
    names both.  Bands that are not 1-D, C-contiguous, aligned, writeable
    float64 arrays of lengths N - 1, N, N - 1 and N are refused with
    ValueError, since raw pointers would misread them and scipy's wrapper
    would solve a copy.  A zero pivot raises NewtonDiverged, so the
    caller's step halving applies.
    """
    global _gtsv
    if _gtsv is None:
        _gtsv = _openblas_gtsv() or _scipy_gtsv()
        if _gtsv is None:
            raise errors.LapackUnavailable(
                "no LAPACK dgtsv: numpy's bundled OpenBLAS has no scipy_dgtsv_64_ "
                "and scipy.linalg.lapack cannot be imported"
            )
    n = len(d)
    if not (
        dl.shape == du.shape == (n - 1,) and b.shape == d.shape == (n,)
        and dl.dtype == d.dtype == du.dtype == b.dtype == _DOUBLE
        and dl.flags.carray and d.flags.carray and du.flags.carray and b.flags.carray
    ):
        raise ValueError("gtsv takes 1-D C-contiguous, aligned, writeable float64 "
                         "bands of lengths N - 1, N, N - 1 and N")
    info = _gtsv(dl, d, du, b)
    if info != 0:
        raise errors.NewtonDiverged(f"tridiagonal Newton matrix singular (gtsv info {info})")
    return b


def _column(values) -> np.ndarray:
    return np.array(values, dtype=float)[:, None]


_NEWTON_MAX = 12  # Newton iterations before a step is rejected


def _step_rows(W_old, delta_old, delta_new, theta, ends, dxi, p, sources, start):
    """One theta-weighted implicit step for every row of W_old.

    Row i steps from delta_old[i] to delta_new[i] with weight theta[i], the
    Dirichlet values ends[i] = (W_lo, W_hi) at delta_new[i] and the optional
    extra right-hand side sources[i].  Its Newton iteration starts from the
    positive row start[i] with the Dirichlet values put at its ends, and
    each Newton system covers the interior points only, so the ends keep
    those values exactly.  Every per-row scalar (step, drift speed,
    tolerance, damping) is a Python float computed as for a lone run.  The
    Jacobian bands are built for the rows that take a Newton solve only;
    the other array stages (residual, trial iterate) run on the whole
    array and each update writes only the rows it selects: a row that is
    not being tried keeps its positive iterate (damping 0, zero step), a
    trial row that is not positive falls back to its iterate before the
    residual, and a row's source is called only when that row is tried.
    The Newton systems go one row at a time to _tridiagonal_solve (gtsv
    of numpy's OpenBLAS, else scipy's, with the same bits), so a row's bits
    do not depend on the other rows.  A row whose residual is not finite
    stops with NonFinite before its next solve.  Returns per row
    (W_new, iterations), or the NewtonDiverged, PositivityLost or
    NonFinite that rejected its step.
    """
    k, M = W_old.shape
    out = [None] * k
    dt = [a - b for a, b in zip(delta_old, delta_new)]
    sigma_old = _column([_drift_speed(p, x) for x in delta_old])
    sigma_new = _column([_drift_speed(p, x) for x in delta_new])
    F_old, D1_old, _ = _rhs(W_old, dxi, sigma_old, p)
    for i, source in enumerate(sources):
        if source is not None:
            F_old[i] += source(W_old[i], delta_old[i])[1:-1]
    dt_col, theta_col = _column(dt), _column(theta)
    # the Newton matrix I - dt*theta*J_F takes these per-row factors
    jac_neg = _column([-h * t for h, t in zip(dt, theta)])
    jac_pos = _column([h * t for h, t in zip(dt, theta)])
    # F_old enters every residual of the step through the same product
    F_old_part = _column([1.0 - t for t in theta]) * F_old
    W_old_in = W_old[:, 1:-1]

    # the achievable residual is bounded below by rounding of the bracket
    # X - W_old - dt*(...), whose raw terms are of size W and dt*|F|, and
    # by rounding inside F, whose stencil terms (the drift sigma*D1 against
    # D2 and a0) cancel to a net |F| far below their raw size T
    w_scale = W_old.max(axis=1).tolist()
    f_scale = [p.d.a0 + f for f in np.abs(F_old).max(axis=1).tolist()]
    Wm, W0, Wp = W_old[:, :-2], W_old_in, W_old[:, 2:]
    M1 = (Wp + Wm) / (2.0 * dxi)
    M2 = (Wp + 2.0 * W0 + Wm) / (dxi * dxi)
    T = (p.n - 1) * (
        M2 / W0 + 2.0 * abs(p.d.b1) * np.abs(D1_old) * M1 / W0 ** 2 + abs(p.d.b2) * M1 / W0
    ) + p.d.a0 + sigma_old * M1
    floor = (2.3e-16 * (2.0 * W0 + dt_col * T)).max(axis=1).tolist()
    tol = [max(5e-14 * w, 150.0 * 2.3e-16 * (w + h * f), g)
           for w, h, f, g in zip(w_scale, dt, f_scale, floor)]

    def residual(X, tried):
        """G on the interior points of every row of X and its stencil
        (D1, D2); sources on tried rows.  The ends hold their Dirichlet
        values exactly, so their residual is 0 and is not formed."""
        F_new, D1, D2 = _rhs(X, dxi, sigma_new, p)
        for i, source in enumerate(sources):
            if source is not None and tried[i]:
                F_new[i] += source(X[i], delta_new[i])[1:-1]
        G = X[:, 1:-1] - W_old_in - dt_col * (theta_col * F_new + F_old_part)
        return G, D1, D2

    X = np.array(start, dtype=float)
    X[:, [0, -1]] = ends
    G, D1, D2 = residual(X, [True] * k)
    G_norm = np.abs(G).max(axis=1).tolist()
    its = [0] * k
    step = np.zeros_like(X)  # nonzero only on rows in a line search
    while True:
        lam = [0.0] * k  # line-search damping; 0 on rows that sit still
        for i in range(k):
            if out[i] is not None:
                continue
            if G_norm[i] <= tol[i]:
                out[i] = (X[i], its[i])
            elif not math.isfinite(G_norm[i]):
                out[i] = errors.NonFinite(
                    f"Newton residual not finite at delta = {delta_new[i]:.6e}"
                )
            elif its[i] >= _NEWTON_MAX:
                out[i] = errors.NewtonDiverged(
                    f"Newton stalled at |G| = {G_norm[i]:.3e} "
                    f"(tol {tol[i]:.3e}) at delta = {delta_new[i]:.6e}"
                )
            else:
                its[i] += 1
                lam[i] = 1.0
        iterating = [i for i in range(k) if lam[i]]
        if not iterating:
            return out
        # the Newton system I - dt*theta*J_F on the interior points of the
        # iterating rows only; the ends keep their Dirichlet values, so
        # their step is exactly 0
        rows = slice(None) if len(iterating) == k else iterating
        dm, d0, dp = _jac_bands(X[rows, 1:-1], D1[rows], D2[rows], dxi, sigma_new[rows], p)
        dl = jac_neg[rows] * dm[:, 1:]
        diag = 1.0 - jac_pos[rows] * d0
        du = jac_neg[rows] * dp[:, :-1]
        for r, i in enumerate(iterating):
            try:
                step[i, 1:-1] = _tridiagonal_solve(dl[r], diag[r], du[r], -G[i])
            except errors.NewtonDiverged as exc:
                out[i], lam[i] = exc, 0.0

        # damped line search, each row with its own lambda
        while any(lam):
            X_try = X + _column(lam) * step
            positive = (X_try > 0.0).all(axis=1).tolist()
            if not all(positive):  # only trial rows can leave positivity
                np.copyto(X_try, X, where=~np.array(positive)[:, None])
            tried = [ok and t > 0.0 for ok, t in zip(positive, lam)]
            if any(tried):
                G_try, D1_try, D2_try = residual(X_try, tried)
                G_try_norm = np.abs(G_try).max(axis=1).tolist()
            taken = [False] * k
            for i in range(k):
                if not lam[i]:
                    continue
                if tried[i] and (G_try_norm[i] < G_norm[i] or lam[i] < 0.1):
                    taken[i], G_norm[i], lam[i] = True, G_try_norm[i], 0.0
                else:
                    lam[i] *= 0.5
                    if lam[i] >= 1e-4:
                        continue
                    out[i], lam[i] = errors.PositivityLost(
                        f"no positive damped Newton step at delta = {delta_new[i]:.6e}"
                    ), 0.0
                step[i] = 0.0  # the row leaves the line search
            if all(taken):  # no row has finished, so no result views the old X
                X, G, D1, D2 = X_try, G_try, D1_try, D2_try
            elif any(taken):
                taken = np.array(taken)[:, None]
                for a, a_try in ((X, X_try), (G, G_try), (D1, D1_try), (D2, D2_try)):
                    np.copyto(a, a_try, where=taken)


@dataclass
class _Run:
    """One row of a joint solve: initial data on the grid, bc(delta) ->
    (W_lo, W_hi), and an optional extra right-hand side source(W, delta)."""

    w0: np.ndarray
    bc: object
    source: object = None


_STEP_BUDGET = 200000
_WARMUP_STEPS = 4  # backward-Euler steps that damp the initial transient


def _finished(delta, delta_end) -> bool:
    """A run at delta has reached delta_end, up to rounding of the steps."""
    return not delta > delta_end * (1.0 + 1e-12)


def _step_plan(step_idx, delta, delta_end, dtau):
    """(fraction of delta, theta) of the next step: backward Euler at half
    the step during the warmup, trapezoidal afterwards, and the final step
    lands exactly on delta_end."""
    if step_idx < _WARMUP_STEPS:
        frac, theta = 0.5 * dtau, 1.0
    else:
        frac, theta = dtau, 0.5
    return min(frac, 1.0 - delta_end / delta), theta


def _planned_deltas(delta_start, delta_end, dtau) -> list:
    """delta_start and the deltas after each step of a run that no step
    rejection halves, as _solve_rows computes them, for at most the step
    budget; delta_start alone for a window _solve_rows rejects."""
    deltas = [delta_start]
    if not 0.0 < delta_end < delta_start:
        return deltas
    while not _finished(deltas[-1], delta_end) and len(deltas) <= _STEP_BUDGET + 1:
        frac, _ = _step_plan(len(deltas) - 1, deltas[-1], delta_end, dtau)
        deltas.append(deltas[-1] * (1.0 - frac))
    return deltas


def _predicted(W, W_prev, delta, delta_prev, delta_new):
    """The geometric predictor W (W / W_prev)^r of the row at delta_new,
    r = log(delta_new / delta) / log(delta / delta_prev), or W itself where
    that is not finite and positive."""
    r = math.log(delta_new / delta) / math.log(delta / delta_prev)
    with np.errstate(over="ignore"):
        guess = W * (W / W_prev) ** r
    return guess if np.all((guess > 0.0) & (guess < math.inf)) else W


def _solve_rows(p, xi, runs, *, delta_start, delta_end, dtau) -> list:
    """Step every run from delta_start down to delta_end as one row of a
    shared implicit solve; returns per run its Trajectory or the
    FdelabError that stopped it.

    Each round, every unfinished row tries one step from its own delta.
    Newton starts from the geometric predictor of the row's last two
    frames; the row's first step, and the retry after a predicted start
    is rejected, start cold from the last frame.  A row whose cold step is
    rejected halves its own step and retries in the next round while the
    other rows go on; so does a row whose end values are not finite and
    positive, since no start changes those.  It stops with the rejection
    once the step falls below 1e-6 of delta, with StepUnderflow once the
    step budget is spent, with any FdelabError its bc raises, or at once
    with a NonFinite step result.  Frames go straight into one buffer per
    row, which starts at 16 frames and grows by an eighth plus 16 whenever
    it is full.
    """
    if not (0.0 < delta_end < delta_start):
        raise errors.InvalidParameter("need 0 < delta_end < delta_start")
    dxi = xi[1] - xi[0]
    R, M = len(runs), len(xi)
    out = [None] * R
    frames = [None] * R
    for i, run in enumerate(runs):
        w0 = np.asarray(run.w0, dtype=float)
        if w0.shape != xi.shape:
            out[i] = errors.InvalidParameter("w0 must return one value per grid point")
        elif np.any(w0 <= 0.0):
            out[i] = errors.PositivityLost("initial data not strictly positive")
        else:
            frames[i] = np.empty((16, M))
            frames[i][0] = w0
    # row i stands at deltas[i][-1] with its latest frame at len(deltas[i]) - 1
    deltas = [[delta_start] for _ in range(R)]
    delta_new, ends = [0.0] * R, [None] * R
    attempt = [None] * R  # None: the row starts a new step
    cold = [True] * R  # the row's next attempt starts from its last frame
    theta = [0.0] * R
    iters_max, iters, rejections, retries = [0] * R, [0] * R, [0] * R, [0] * R
    live = [i for i in range(R) if out[i] is None]
    while True:
        for i in live:
            delta, n = deltas[i][-1], len(deltas[i])
            if attempt[i] is None:
                if _finished(delta, delta_end):
                    out[i] = Trajectory(
                        p=p, xi=xi, deltas=np.asarray(deltas[i]), W=frames[i][:n],
                        newton_iters_max=iters_max[i], newton_iters=iters[i],
                        step_rejections=rejections[i], cold_retries=retries[i],
                    )
                    continue
                attempt[i], theta[i] = _step_plan(n - 1, delta, delta_end, dtau)
            delta_new[i] = delta * (1.0 - attempt[i])
            try:
                ends[i] = runs[i].bc(delta_new[i])
            except errors.FdelabError as exc:
                out[i] = exc
        live = [i for i in live if out[i] is None]
        if not live:
            return out
        # an end value that is not a finite positive number rejects the
        # step before Newton, which could leave a nearby positive value
        results = {
            i: errors.PositivityLost(
                f"end values {ends[i]} not finite and positive at delta = {delta_new[i]:.6e}"
            )
            for i in live
            if not all(0.0 < e < math.inf for e in ends[i])
        }
        bad_ends = set(results)
        stepped = [i for i in live if i not in results]
        if stepped:
            # copies, so no view keeps a frame buffer alive once it grows
            last = np.stack([frames[i][len(deltas[i]) - 1] for i in stepped])
            start = np.stack([
                W if cold[i] else _predicted(
                    W, frames[i][len(deltas[i]) - 2], deltas[i][-1], deltas[i][-2],
                    delta_new[i],
                )
                for i, W in zip(stepped, last)
            ])
            results.update(zip(stepped, _step_rows(
                last, [deltas[i][-1] for i in stepped], [delta_new[i] for i in stepped],
                [theta[i] for i in stepped], [ends[i] for i in stepped], dxi, p,
                [runs[i].source for i in stepped], start,
            )))
        for i in live:
            res = results[i]
            if isinstance(res, errors.FdelabError):
                if not (cold[i] or i in bad_ends or isinstance(res, errors.NonFinite)):
                    cold[i] = True  # the same step again, from the last frame
                    retries[i] += 1
                    continue
                rejections[i] += 1
                attempt[i] *= 0.5
                cold[i] = len(deltas[i]) == 1
                if attempt[i] < 1e-6 or isinstance(res, errors.NonFinite):
                    out[i] = res
                continue
            W_new, its = res
            attempt[i], cold[i] = None, False
            iters_max[i] = max(iters_max[i], its)
            iters[i] += its
            n = len(deltas[i])  # the new frame's index
            if n == len(frames[i]):
                grown = np.empty((n + n // 8 + 16, M))
                grown[:n] = frames[i]
                frames[i] = grown
            frames[i][n] = W_new
            deltas[i].append(delta_new[i])
            if n > _STEP_BUDGET:
                out[i] = errors.StepUnderflow("step budget exhausted")
        live = [i for i in live if out[i] is None]


def _check_window(n_cells, dtau):
    """InvalidParameter unless the grid has at least two cells and dtau is
    a finite step > 0; checked before any grid is built."""
    if not n_cells >= 2:
        raise errors.InvalidParameter(f"need n_cells >= 2, got {n_cells}")
    if not 0.0 < dtau < math.inf:
        raise errors.InvalidParameter(f"need a finite dtau > 0, got {dtau}")


def solve_radial_fde(
    p: ModelParams,
    *,
    xi_window: tuple[float, float],
    n_cells: int,
    delta_start: float,
    delta_end: float,
    dtau: float,
    w0,
    bc,
    source=None,
) -> Trajectory:
    """Integrate the comoving equation from delta_start down to delta_end.

    w0(xi) gives initial data, bc(delta) -> (W_lo, W_hi) the Dirichlet
    values, source(W, delta) an optional extra right-hand side on the grid.
    The first four steps use backward Euler at half the step to damp the
    non-equilibrium transient; afterwards the scheme is trapezoidal.
    Newton starts from the predictor of the last two frames.  Newton
    failures (no convergence in 12 iterations) and positivity failures of
    a predicted start retry the step cold from the last frame; those of a
    cold start halve the step before giving up, and so does an end value
    that is not finite and > 0, before any Newton iteration.  A
    Newton residual that is not finite raises NonFinite at once.
    n_cells < 2 or a dtau that is not a finite step > 0 raises
    InvalidParameter before the grid is built.  This is the one-row case
    of the joint solve that comparison_sandwich uses, so a run gives the
    same bits alone or as a row beside others.
    """
    _check_window(n_cells, dtau)
    xi = np.linspace(xi_window[0], xi_window[1], n_cells + 1)
    (res,) = _solve_rows(
        p, xi, [_Run(w0(xi), bc, source)], delta_start=delta_start,
        delta_end=delta_end, dtau=dtau,
    )
    if isinstance(res, errors.FdelabError):
        raise res
    return res


# -- manufactured solution and tolerance calibration ---------------------------


_MANUFACTURED = (2.0, 0.5, 0.7)  # (c1, c2, k) with |c2| < |c1|: W stays positive


def make_manufactured(p: ModelParams):
    """Exact solution W = delta^{1+gamma} (c1 + c2 sin(k xi)) and its source.

    The source S = W_t - F(W) - sigma W_xi is analytic; feeding it to the
    solver makes W an exact solution for convergence studies.
    """
    c1, c2, k = _MANUFACTURED

    def W_exact(xi, delta):
        return delta ** (1.0 + p.gamma) * (c1 + c2 * np.sin(k * xi))

    def bind(xi):
        sin = np.sin(k * xi)
        cos = np.cos(k * xi)
        prof = c1 + c2 * sin
        dprof = c2 * k * cos
        d2prof = -c2 * k * k * sin

        def S(_W, delta):
            amp = delta ** (1.0 + p.gamma)
            W = amp * prof
            Wx = amp * dprof
            Wxx = amp * d2prof
            Wt = -(1.0 + p.gamma) * delta ** p.gamma * prof
            sigma = _drift_speed(p, delta)
            F = radial_diffusion(p, W, Wx, Wxx) - p.d.a0
            return Wt - F - sigma * Wx

        return S

    return W_exact, bind


def _manufactured_row(p: ModelParams, xi, delta_start: float):
    """The manufactured calibration run on grid xi as a row, and the
    reduction of its trajectory to the normalized error max |W_num -
    W_true| / delta^{1+gamma} over all frames."""
    W_exact, bind = make_manufactured(p)
    run = _Run(
        w0=W_exact(xi, delta_start),
        bc=lambda delta: (
            float(W_exact(xi[0], delta)), float(W_exact(xi[-1], delta))
        ),
        source=bind(xi),
    )

    def error(traj: Trajectory) -> float:
        err = 0.0
        for idx in range(len(traj.deltas)):
            delta = traj.deltas[idx]
            scale = delta ** (1.0 + p.gamma)
            err = max(err, float(np.max(np.abs(traj.W[idx] - W_exact(xi, delta)))) / scale)
        return err

    return run, error


_SAFETY = 5.0  # factor on the manufactured error that gives tol_rel
_FIT_DECADES = 2.0  # decades of T - t that the extinction fit spans


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
        }


def _barrier_W(bar: GluedBarrier, xi: np.ndarray, deltas, p: ModelParams):
    """delta^{1+gamma} wbar(xi, -log delta) on the (deltas, xi) grid, from
    one wbar call."""
    deltas = [float(delta) for delta in deltas]
    scale = np.array([delta ** (1.0 + p.gamma) for delta in deltas])
    return scale[:, None] * bar.wbar(xi, np.array([-math.log(delta) for delta in deltas]))


_BLOCK_POINTS = 1 << 15  # grid points per barrier evaluation of the sandwich


def _barrier_pairs(plus: GluedBarrier, minus: GluedBarrier, xi, deltas, p: ModelParams):
    """(delta, W_plus, W_minus) per delta, both barriers from _barrier_W on
    blocks of deltas of at most _BLOCK_POINTS grid points."""
    block = max(1, _BLOCK_POINTS // len(xi))
    for i in range(0, len(deltas), block):
        part = deltas[i:i + block]
        yield from zip(part, _barrier_W(plus, xi, part, p), _barrier_W(minus, xi, part, p))


def _sandwich_rows(plus: GluedBarrier, minus: GluedBarrier, xi, deltas) -> dict:
    """The lower, upper and mid runs as rows: data and Dirichlet values on
    the lower barrier, on the upper barrier, and on their pointwise
    geometric mean.

    deltas is the planned schedule, deltas[0] the start.  The end values
    at every later planned delta are evaluated here, before any step, by
    _barrier_pairs.  A bc closure reads them from that table and evaluates
    a delta off the schedule (a row whose step a rejection halved) on its
    own, with the same bits.  If the table's evaluation raises an
    FdelabError, the table keeps the blocks before the failing one, and
    the rows meet the error at the step whose delta raises it.
    """
    p = plus.outer.p
    Wp0, Wm0 = (_barrier_W(bar, xi, deltas[:1], p)[0] for bar in (plus, minus))
    ends = xi[[0, -1]]

    def ends_at(kind, delta):
        if kind == "mid":
            return np.sqrt(ends_at("upper", delta) * ends_at("lower", delta))
        return _barrier_W(plus if kind == "upper" else minus, ends, [delta], p)[0]

    planned = {}
    try:
        for delta, wp, wm in _barrier_pairs(plus, minus, ends, deltas[1:], p):
            planned[delta] = {"lower": wm, "upper": wp, "mid": np.sqrt(wp * wm)}
    except errors.FdelabError:
        pass  # the deltas past the table raise it again at their own step

    def bc(kind):
        def at(delta):
            hit = planned.get(delta)
            return tuple((hit[kind] if hit is not None else ends_at(kind, delta)).tolist())
        return at

    return {
        "lower": _Run(Wm0, bc("lower")),
        "upper": _Run(Wp0, bc("upper")),
        "mid": _Run(np.sqrt(Wp0 * Wm0), bc("mid")),
    }


def comparison_sandwich(
    plus: GluedBarrier,
    minus: GluedBarrier,
    *,
    tau0: float,
    tau_end: float,
    n_cells: int,
    dtau: float,
) -> SandwichReport:
    """Evolve data between the barriers from tau0 to tau_end and verify it
    stays sandwiched.

    The pair must come in sign order (plus, minus), n_cells >= 2 and dtau a
    finite step > 0; anything else raises InvalidParameter before any
    solve.  The grid is xi in [-xi1, 4 xi1] with n_cells cells, and dtau
    is the step as a fraction of delta (the CLI's simulate window).
    Three runs: data/BC on the lower barrier, on the upper barrier, and on
    the pointwise geometric mean ("mid", the reported solution).  Initial
    data outside the barriers is rejected (this covers the doubled-data
    precondition check).  Every 5th frame of each run is checked against
    the calibrated grid tolerance in units of delta^{1+gamma}.

    The manufactured calibration run and the three runs are solved as four
    rows of one joint solve.  A row that fails does not stop the others;
    the errors are raised in the order of the old sequential runs: the
    calibration's, then NotBetweenBarriers (it needs tol_rel), then the
    lower, upper and mid runs'.
    """
    if plus.sign != "+" or minus.sign != "-":
        raise errors.InvalidParameter("pass (plus, minus) barriers in order")
    _check_window(n_cells, dtau)
    p = plus.outer.p
    xi1 = plus.xi1
    delta_start = math.exp(-float(tau0))
    delta_end = math.exp(-tau_end)

    xi = np.linspace(-xi1, 4.0 * xi1, n_cells + 1)
    calibration, error = _manufactured_row(p, xi, delta_start)
    rows = _sandwich_rows(plus, minus, xi, _planned_deltas(delta_start, delta_end, dtau))
    calib, *solved = _solve_rows(
        p, xi, [calibration, *rows.values()], delta_start=delta_start,
        delta_end=delta_end, dtau=dtau,
    )
    if isinstance(calib, errors.FdelabError):
        raise calib
    tol_rel = _SAFETY * error(calib)
    del calib  # its frames are not needed for the barrier pass

    W0 = rows["mid"].w0
    Wm0, Wp0 = rows["lower"].w0, rows["upper"].w0
    slack = tol_rel * delta_start ** (1.0 + p.gamma)
    if np.any(W0 < Wm0 - slack) or np.any(W0 > Wp0 + slack):
        raise errors.NotBetweenBarriers(
            "initial data leaves the barrier sandwich at tau0"
        )
    for res in solved:
        if isinstance(res, errors.FdelabError):
            raise res
    trajs = dict(zip(rows, solved))

    # one pass over the mid run's frames evaluates both barriers once per
    # delta for the extinction fits and for every check frame at that
    # delta; check frames at other deltas (the lower run after a
    # rejection) get a pass of their own.  No block of barrier values is
    # kept beyond its pass.
    report = SandwichReport(tol_rel=tol_rel)
    waiting = {}
    for kind, traj in trajs.items():
        for idx in range(0, len(traj.deltas), 5):
            waiting.setdefault(traj.deltas[idx], []).append(traj.W[idx])

    def check_frames(delta, Wp, Wm):
        scale = delta ** (1.0 + p.gamma)
        for W in waiting.pop(delta, ()):
            under = float(np.max((Wm - W) / scale))
            over = float(np.max((W - Wp) / scale))
            report.max_undershoot = max(report.max_undershoot, under)
            report.max_overshoot = max(report.max_overshoot, over)

    mid = trajs["mid"]
    peaks = {"upper_barrier": [], "lower_barrier": []}
    for delta, Wp, Wm in _barrier_pairs(plus, minus, xi, mid.deltas.tolist(), p):
        peaks["upper_barrier"].append(np.max(Wp) ** (1.0 / (1.0 - p.m)))
        peaks["lower_barrier"].append(np.max(Wm) ** (1.0 / (1.0 - p.m)))
        check_frames(delta, Wp, Wm)
    for delta, Wp, Wm in _barrier_pairs(plus, minus, xi, list(waiting), p):
        check_frames(delta, Wp, Wm)
    report.passed = (
        report.max_undershoot <= tol_rel and report.max_overshoot <= tol_rel
    )
    report.runs = trajs

    # extinction fits: barriers from their formulas on the same frames
    amps = {"solution": mid.amplitude()}
    for name, vals in peaks.items():
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


def extinction_rate(deltas, amplitudes) -> dict:
    """Least-squares exponent of amplitude ~ delta^rate over the final
    _FIT_DECADES decades."""
    deltas = np.asarray(deltas, dtype=float)
    amps = np.asarray(amplitudes, dtype=float)
    if np.any(amps <= 0.0) or np.any(deltas <= 0.0):
        raise errors.NonPositiveInput("extinction fit needs positive series")
    span = math.log10(deltas.max() / deltas.min())
    if span < _FIT_DECADES:
        raise errors.InsufficientDecades(
            f"trajectory spans {span:.2f} decades of T - t, need {_FIT_DECADES}"
        )
    cut = deltas.min() * 10.0 ** _FIT_DECADES
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


def weak_corner_term(bar: GluedBarrier, tau_window: tuple[float, float]) -> dict:
    """Sign and log10-magnitude of the corner boundary term J1, from 48
    samples over tau_window, read in one corner_slopes call.

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
    b1 = p.d.b1

    taus = np.linspace(tau_window[0], tau_window[1], 48)
    log_terms = []
    signs = []
    edges, lefts, rights = (part.tolist() for part in bar.corner_slopes(taus))
    for tau, edge_value, left, right in zip(taus.tolist(), edges, lefts, rights):
        delta = math.exp(-tau)
        jump = right - left
        if jump == 0.0:
            continue
        signs.append(math.copysign(1.0, jump))
        log_r1 = xi1 + A * math.exp(gamma * tau)
        # log E = log r1 + softplus(log(4 g^2 A^2) + (2g+2) tau + 2 log r1)/2
        q = math.log(4.0 * gamma * gamma * A * A) + (2.0 * gamma + 2.0) * tau + 2.0 * log_r1
        log_E = log_r1 + 0.5 * _softplus(q)
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
