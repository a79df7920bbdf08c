"""Radial PDE laboratory: comoving solver and sandwich runs.

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
Newton starts from a geometric predictor of the last two frames
(_predicted); a rejected predicted start is retried cold, and only a
rejected cold start halves the step.  Each Newton system covers the
interior points, so the Dirichlet ends keep their values exactly.

The Newton kernel reads everything from one stencil pass per iterate
(_stencil).  At an interior point with value W, neighbours W+ and W-
and spacing h, D1 = (W+ - W-)/(2h), D2 = (W+ - 2W + W-)/h^2, and the
quotients r1 = D1/W, q = D2/W give

    F = (n-1) (q + b1 r1^2 + b2 r1) + sigma D1 - a0.

The stencil keeps them scaled by h: e = ((W+ - W) + (W- - W))/W = h^2 q,
whose two differences are exact for neighbours within a factor 2 of W,
and rho = (W+ - W-)/W = 2h r1.  With
t = e + rho (b1 rho/4 + b2 h/2) = h^2 (q + b1 r1^2 + b2 r1),
F = (n-1) t/h^2 + sigma (W+ - W-)/(2h) - a0 (_rhs).  Differentiating,

    dF/dW+- = (n-1)/(h^2 W) (1 +- g) +- sigma/(2h),   g = h (b1 r1 + b2/2),
    dF/dW   = -(n-1)/(h^2 W) (2 + h^2 q + h^2 r1 (2 b1 r1 + b2)),

that is g = (b1 rho + b2 h)/2 and a diagonal bracket 2 + e + rho g.
With E = -dt theta (n-1)/(h^2 W) and alpha = dt theta sigma/(2h), the
Newton matrix I - dt theta J_F has the sub-, main and superdiagonals
E(1 - g) + alpha, 1 - E(2 + e + rho g) and E(1 + g) - alpha
(_newton_bands), written straight into the gtsv bands.  The residual
G = X - W_old - dt (theta F(X) + (1 - theta) F_old) of an iterate X is
X - C - K t - alpha (X+ - X-) with K = dt theta (n-1)/h^2 and the step's
constant C = W_old + dt (1 - theta) F_old - dt theta (a0 - S), S a run's
extra source at the new delta, formed once per step.

Newton stops at the step's tolerance, which is never below a bound on
the rounding of G: 2.3e-16 (2 W + dt T) on the old frame, where T bounds
the raw size of the terms of F, whose drift sigma D1 cancels against the
diffusion and a0 to a net |F| far below it:

    T = (n-1) (M2/W + 2 |b1| |D1| M1/W^2 + |b2| M1/W) + a0 + sigma M1,

M1 = (W+ + W-)/(2h) and M2 = (W+ + 2W + W-)/h^2.  With S = W+ + W- and
s = S/W = 2 + e in the old frame, M2/W = (s + 2)/h^2,
|D1| M1/W^2 = |rho| s/(4h^2) and M1/W = s/(2h), so

    dt T = dt (n-1)/h^2 (s (1 + |b1| |rho|/2 + |b2| h/2) + 2) + dt a0
           + dt sigma s W/(2h),

the same terms bounded the same way, from the e and rho that a row
carries out of the step that accepted its frame.

Independent runs on one grid are the rows of one (runs, points) array
(_solve_rows).  Each round, the rows that take the same step (the same
delta, new delta, theta, predictor exponent and frame slot) are stepped
together as a step group, in one _step_rows call whose step factors are
Python floats; each row keeps its own tolerance and damping.  When no row
rejects a step, as on the sandwich's windows, every round is one group of
all rows.  A Newton round passes its rows' systems to LAPACK gtsv in one
call, as one block-diagonal system with zero couplings (_Bands), and every
factor is the float a lone run computes, so a run gives the same bits
alone or beside others.  _Bands is the only holder of gtsv bindings: it
binds the stacked system once and each row once, on bands it allocates
itself, and after a zero pivot or a non-finite x solves each row through
that row's binding.  A row keeps its last two frames, and F, e and rho of
the last for its next step, hands every accepted frame, the initial one
too, to its run's consumer, and counts its frames and solver work in its
Trajectory as it goes.

The sandwich (comparison_sandwich) evaluates both barriers on the whole
grid, one wbar call per barrier and block of planned deltas of at most
_BLOCK_POINTS points, when the first row reaches the block; a row off the
plan evaluates its own delta once per barrier and step.  Each evaluation
also forms every run's end values and both barriers' peaks as floats, so
a step reads them without touching the grid.  Each frame is reduced into
the one SandwichReport when it is accepted, so what a run keeps grows by
a few scalars per step, never by grid rows.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import errors
from .matching import GluedBarrier
from .params import ModelParams, radial_diffusion
from .reporting import write_csv

__all__ = [
    "Trajectory",
    "make_manufactured",
    "comparison_sandwich",
    "extinction_rate",
]


# -- solver --------------------------------------------------------------------


@dataclass
class Trajectory:
    """A comoving run: its frame count and solver counters."""

    frames: int = 1  # accepted frames, the initial one included
    newton_iters_max: int = 0  # most Newton iterations of one accepted step
    newton_iters: int = 0  # Newton iterations summed over accepted steps
    step_rejections: int = 0  # rejected step attempts, each halving the step
    cold_retries: int = 0  # predicted starts rejected and retried from the last frame


def _drift_speed(p: ModelParams, delta: float) -> float:
    """sigma = A gamma delta^(-gamma-1), the speed of the comoving frame."""
    return p.A * p.gamma * delta ** (-p.gamma - 1.0)


def _stencil(W, dxi, p):
    """The stencil of the interior points of each row of W as quotients:
    d = W+ - W-, e = ((W+ - W) + (W- - W))/W, rho = d/W and
    t = e + rho (b1 rho/4 + b2 dxi/2), from which _rhs forms F and
    _newton_bands the Newton matrix (module docstring)."""
    Wm, W0, Wp = W[:, :-2], W[:, 1:-1], W[:, 2:]
    up = Wp - W0
    down = Wm - W0
    d = up - down
    up += down
    e = np.divide(up, W0, out=up)
    rho = d / W0
    t = rho * (0.25 * p.d.b1)
    t += 0.5 * p.d.b2 * dxi
    t *= rho
    t += e
    return d, e, rho, t


def _rhs(d, t, sigma, dxi, p):
    """F(W) + sigma W_xi of each row from its stencil (d, t); sigma is the
    drift speed, a float for a step group or a column of per-row speeds."""
    F = t * ((p.n - 1) / (dxi * dxi))
    F += (sigma / (2.0 * dxi)) * d
    F -= p.d.a0
    return F


def _newton_bands(dl, diag, du, W, e, rho, kappa, alpha, dxi, p):
    """Write the Newton matrix I - dt theta J_F of each row into its bands:
    the subdiagonal dl (points 1..), the diagonal and the superdiagonal du
    (points ..-2), from the interior values W and the quotients (e, rho)
    of _stencil.  kappa = -dt theta (n-1)/dxi^2 and alpha =
    dt theta sigma/(2 dxi) are a step group's floats, or columns of
    per-row factors."""
    E = kappa / W
    g = rho * (0.5 * p.d.b1)
    g += 0.5 * p.d.b2 * dxi
    np.multiply(rho, g, out=diag)
    diag += e
    diag += 2.0
    diag *= E
    np.subtract(1.0, diag, out=diag)
    g *= E
    np.add(E[:, :-1], g[:, :-1], out=du)
    du -= alpha
    np.subtract(E[:, 1:], g[:, 1:], out=dl)
    dl += alpha


_gtsv = None  # bind(dl, d, du, b) -> solve(n) of the gtsv route, chosen on the first solve


def _openblas_gtsv():
    """bind(dl, d, du, b) -> solve(n) of the leading n unknowns through the
    dgtsv of the OpenBLAS that numpy's wheel loads, or None.

    The symbol is the ILP64 build's scipy_dgtsv_64_ (64-bit N, NRHS, LDB
    and INFO), looked up through the handle of numpy's linalg extension,
    whose dependencies dlsym searches too.  A bound solve keeps the bands'
    addresses, writes x over b and returns gtsv's info."""
    try:
        fn = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_dgtsv_64_
    except (OSError, AttributeError):
        return None
    integer, band = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    fn.argtypes = [integer, integer, band, band, band, band, integer, integer]
    fn.restype = None
    nrhs = ctypes.c_int64(1)

    def bind(dl, d, du, b):
        bands, info = [band(a.ctypes.data) for a in (dl, d, du, b)], ctypes.c_int64()

        def solve(n):
            size = ctypes.c_int64(n)
            fn(size, nrhs, *bands, size, info)
            return info.value

        return solve

    return bind


def _scipy_gtsv():
    """scipy's f2py-wrapped dgtsv in the same form, or None without scipy.
    The leading bands pass the wrapper's own checks, so it writes x over b."""
    try:
        from scipy.linalg.lapack import dgtsv
    except ImportError:
        return None

    def bind(dl, d, du, b):
        def solve(n):  # the wrapper wants off-diagonal bands of at least one entry
            lower, upper = (dl[:n - 1], du[:n - 1]) if n > 1 else (np.zeros(1), np.zeros(1))
            return dgtsv(lower, d[:n], upper, b[:n], overwrite_dl=1, overwrite_d=1,
                         overwrite_du=1, overwrite_b=1)[4]
        return solve

    return bind


def _lapack():
    """The gtsv binder, picked on the first call: numpy's bundled OpenBLAS
    through ctypes, else scipy's dgtsv (same bits); with neither,
    LapackUnavailable names both."""
    global _gtsv
    if _gtsv is None:
        _gtsv = _openblas_gtsv() or _scipy_gtsv()
        if _gtsv is None:
            raise errors.LapackUnavailable(
                "no LAPACK dgtsv: numpy's bundled OpenBLAS has no scipy_dgtsv_64_ "
                "and scipy.linalg.lapack cannot be imported"
            )
    return _gtsv


class _Bands:
    """Newton systems of up to `rows` rows of n unknowns as one block-diagonal
    system, the one owner of gtsv bindings: row j's bands are dl[j, :-1],
    d[j], du[j, :-1] and b[j], and the couplings dl[j, -1], du[j, -1] are
    exactly zero, so each row gets the bits of its lone solve, up to signs
    of 0.  gtsv is bound once to the stacked system and once to each row,
    on C-contiguous float64 bands that this class allocates, so no raw
    pointer can misread a caller's array."""

    def __init__(self, rows, n):
        self.dl, self.d, self.du, self.b = bands = [np.zeros((rows, n)) for _ in range(4)]
        bind = _lapack()
        self.gtsv = bind(*(a.reshape(-1) for a in bands))
        self.lone = [bind(*row) for row in zip(*bands)]

    def solve(self, r, fill):
        """x of the leading r systems, which fill(dl, d, du, b) writes, from
        one gtsv call; after a zero pivot (gtsv stops there) or a non-finite
        x (it crosses the couplings), each row's lone x or NewtonDiverged."""
        bands = self.dl[:r, :-1], self.d[:r], self.du[:r, :-1], self.b[:r]
        fill(*bands)
        if self.gtsv(bands[3].size) == 0 and np.isfinite(bands[3]).all():
            return bands[3]
        fill(*bands)
        self.dl[:, -1] = self.du[:, -1] = 0.0
        out = []
        for solve, x in zip(self.lone, bands[3]):
            info = solve(len(x))
            out.append(x if info == 0 else errors.NewtonDiverged(
                f"tridiagonal Newton matrix singular (gtsv info {info})"))
        return out


_NEWTON_MAX = 12  # Newton iterations before a step is rejected


def _step_rows(W_old, delta_old, delta_new, theta, ends, dxi, p, sources, old, bands, start):
    """One theta-weighted implicit step, from delta_old to delta_new with
    weight theta, for every row of W_old: a step group.

    The step's factors (dt, both drift speeds, K, alpha, the step
    constant's weight and shift, the floor's factors of dt T) are Python
    floats shared by the rows, computed as for a lone run.  Row i has the
    Dirichlet values ends[i] = (W_lo, W_hi) and the optional extra
    right-hand side sources[i](delta_new), called once.  old holds per row
    (F_old, e_old, rho_old): F, sources added, and the quotients e and rho
    of W_old (_stencil).  Newton starts from the positive start[i] with
    the Dirichlet values at its ends; its systems cover the interior points
    only.  Each row has its own tolerance and damping.  The array stages
    run on all rows and each update writes only the rows it selects: a row
    not being tried keeps its positive iterate, and a trial row that is not
    positive falls back to its iterate.  A round's Newton systems go to
    gtsv as one system in bands (a _Bands).  A row whose residual is not
    finite stops with NonFinite before its next solve.

    Returns (out, X, carried): out[i] is row i's Newton iterations or the
    error that rejected its step; the accepted rows of X are their new
    frames, and those of carried the next step's old rows (F, e, rho).
    """
    k = len(W_old)
    out = [None] * k
    n1, h2, a0 = p.n - 1, dxi * dxi, p.d.a0
    dt = delta_old - delta_new
    sigma_old, sigma_new = _drift_speed(p, delta_old), _drift_speed(p, delta_new)
    implicit = dt * theta
    # the residual's K and alpha (the Newton matrix's kappa is -K), the step
    # constant's weight of F_old and its shift, and the floor's factors of
    # dt T (module docstring)
    K = implicit * n1 / h2
    alpha = implicit * sigma_new / (2.0 * dxi)
    weight, shift = dt * (1.0 - theta), -implicit * a0
    curv, base = dt * n1 / h2, dt * (2.0 * n1 / h2 + a0)
    drift = dt * sigma_old / (2.0 * dxi)
    F_old, e_old, rho_old = old.swapaxes(0, 1)
    W_in = W_old[:, 1:-1]

    # the achievable residual is bounded below by rounding of the bracket
    # X - W_old - dt*(...), whose raw terms are of size W and dt*|F|, and
    # by rounding inside F, whose stencil terms cancel to a net |F| far
    # below their raw size T
    w_scale = W_old.max(axis=1).tolist()
    f_scale = [a0 + f for f in np.abs(F_old).max(axis=1).tolist()]
    s_old = e_old + 2.0
    size = np.abs(rho_old)  # becomes 2W + dt T
    size *= 0.5 * abs(p.d.b1)
    size += 1.0 + 0.5 * abs(p.d.b2) * dxi
    size *= s_old
    size *= curv
    size += base
    near = np.multiply(drift, s_old, out=s_old)  # the terms that scale with W
    near += 2.0
    near *= W_in
    size += near
    floor = size.max(axis=1).tolist()
    tol = [max(5e-14 * w, 150.0 * 2.3e-16 * (w + dt * f), 2.3e-16 * g)
           for w, f, g in zip(w_scale, f_scale, floor)]

    # G = X - C - K t - alpha d with the step's constant C (module docstring)
    C = weight * F_old
    C += W_in
    C += shift
    sourced = [(i, source(delta_new)[1:-1]) for i, source in enumerate(sources)
               if source is not None]
    for i, S in sourced:
        C[i] += implicit * S

    def residual(X):
        """G on the interior points of every row of X and the stencil of
        X.  The ends hold their Dirichlet values exactly, so their
        residual is 0 and is not formed."""
        d, e, rho, t = _stencil(X, dxi, p)
        G = X[:, 1:-1] - C
        part = K * t
        G -= part
        np.multiply(alpha, d, out=part)
        G -= part
        return G, d, e, rho, t

    X = np.array(start, dtype=float)
    X[:, [0, -1]] = ends
    G, d, e, rho, t = residual(X)
    G_norm = np.abs(G).max(axis=1).tolist()
    its = [0] * k
    converged = [False] * k
    step = np.zeros_like(X)  # nonzero only on rows in a line search
    while True:
        lam = [0.0] * k  # line-search damping; 0 on rows that sit still
        for i in range(k):
            if converged[i] or out[i] is not None:
                continue
            if G_norm[i] <= tol[i]:
                converged[i] = True
            elif not math.isfinite(G_norm[i]):
                out[i] = errors.NonFinite(f"Newton residual not finite at delta = {delta_new:.6e}")
            elif its[i] >= _NEWTON_MAX:
                out[i] = errors.NewtonDiverged(
                    f"Newton stalled at |G| = {G_norm[i]:.3e} "
                    f"(tol {tol[i]:.3e}) at delta = {delta_new:.6e}"
                )
            else:
                its[i] += 1
                lam[i] = 1.0
        iterating = [i for i in range(k) if lam[i]]
        if not iterating:
            break
        # the Newton system I - dt*theta*J_F on the interior points of the
        # iterating rows only; the ends keep their Dirichlet values, so
        # their step is exactly 0
        rows = slice(None) if len(iterating) == k else iterating

        def fill(dl, diag, du, b):
            _newton_bands(dl, diag, du, X[rows, 1:-1], e[rows], rho[rows], -K, alpha, dxi, p)
            np.negative(G[rows], out=b)

        for i, x in zip(iterating, bands.solve(len(iterating), fill)):
            if isinstance(x, errors.NewtonDiverged):
                out[i], lam[i] = x, 0.0
            else:
                step[i, 1:-1] = x

        # damped line search, each row with its own lambda; step holds
        # lambda times the Newton step, halved with lambda (exactly, as
        # lambda is a power of 2)
        while any(lam):
            searching = [i for i in range(k) if lam[i]]
            X_try = X + step
            positive = (X_try > 0.0).all(axis=1).tolist()
            if not all(positive):  # only trial rows can leave positivity
                np.copyto(X_try, X, where=~np.array(positive)[:, None])
            tried = [ok and x > 0.0 for ok, x in zip(positive, lam)]
            if any(tried):
                trial = residual(X_try)
                G_try_norm = np.abs(trial[0]).max(axis=1).tolist()
            taken = [False] * k
            for i in searching:
                if tried[i] and (G_try_norm[i] < G_norm[i] or lam[i] < 0.1):
                    taken[i], G_norm[i], lam[i] = True, G_try_norm[i], 0.0
                else:
                    lam[i] *= 0.5
                    if lam[i] >= 1e-4:
                        step[i] *= 0.5
                        continue
                    out[i], lam[i] = errors.PositivityLost(
                        f"no positive damped Newton step at delta = {delta_new:.6e}"
                    ), 0.0
                step[i] = 0.0  # the row leaves the line search
            # a row outside the line search evaluated its own unchanged
            # iterate, so once every searching row took its step the trial
            # is swapped in whole
            if all(taken[i] for i in searching):
                X, (G, d, e, rho, t) = X_try, trial
            elif any(taken):
                taken = np.array(taken)[:, None]
                for a, a_try in zip((X, G, d, e, rho, t), (X_try, *trial)):
                    np.copyto(a, a_try, where=taken)
            trial = None  # a refused trial is not held through the next one

    # a row that stopped is never taken again, so X and its stencil still
    # hold every converged row's last iterate
    F = _rhs(d, t, sigma_new, dxi, p)
    for i, S in sourced:
        F[i] += S
    for i in range(k):
        if converged[i]:
            out[i] = its[i]
    return out, X, np.stack((F, e, rho), 1)


@dataclass
class _Run:
    """One row of a joint solve: initial data on the grid, bc(delta) ->
    (W_lo, W_hi), consume(delta, W) of each accepted frame (the initial
    one too; W is overwritten two frames later, so copy what is kept) and
    an optional extra right-hand side source(delta) on the grid, evaluated
    once per step attempt and once for the initial frame."""

    w0: np.ndarray
    bc: object
    consume: object
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
    budget, for a window that _check_window passed."""
    deltas = [delta_start]
    while not _finished(deltas[-1], delta_end) and len(deltas) <= _STEP_BUDGET + 1:
        frac, _ = _step_plan(len(deltas) - 1, deltas[-1], delta_end, dtau)
        deltas.append(deltas[-1] * (1.0 - frac))
    return deltas


def _predicted(W, W_prev, r):
    """The geometric predictor W (W / W_prev)^r of each row at the step
    group's next delta, r = log(delta_new / delta) / log(delta / delta_prev)
    a float shared by the rows, or the row of W where that is not finite
    and positive.  A float r takes numpy's scalar power path, the one a lone
    row takes (sqrt at 0.5, square at 2).  r = 0 gives W."""
    with np.errstate(over="ignore"):
        guess = W * (W / W_prev) ** r
    np.copyto(guess, W, where=~((guess > 0.0) & (guess < math.inf)).all(axis=1)[:, None])
    return guess


def _solve_rows(p, xi, runs, *, delta_start, delta_end, dtau) -> list:
    """Step every run from delta_start down to delta_end as one row of a
    shared implicit solve; returns per run its Trajectory or the
    FdelabError that stopped it.

    Each round, every unfinished row tries one step from its own delta.
    The rows that share a step (delta, new delta, theta, predictor
    exponent and frame slot) take it as one step group, in one _step_rows
    call; when no row rejects a step, every round is one group.  Newton
    starts from the geometric predictor of the row's last two frames, the
    only ones it keeps (each accepted frame goes to its run's consumer),
    formed for the whole group at once; the row's first step, and the
    retry after a predicted start is rejected, start cold from the last
    frame (r = 0).  F, e and rho of a row's last frame, which the step
    that accepted it handed back, serve every attempt from it.  A row whose
    cold step is rejected halves its own step and retries in the next
    round while the other rows go on; so does a row whose end values are
    not finite and positive, since no start changes those.  It stops with
    the rejection once the step falls below 1e-6 of delta, with
    StepUnderflow once the step budget is spent, with any FdelabError its
    bc raises, or at once with a NonFinite step result.  The window is
    one that _check_window passed.
    """
    dxi = xi[1] - xi[0]
    R, M = len(runs), len(xi)
    out = [None] * R
    frames = np.ones((R, 2, M))  # frame n of row i at frames[i, n % 2]; unset slots stay finite
    for i, run in enumerate(runs):
        w0 = np.asarray(run.w0, dtype=float)
        if w0.shape != xi.shape:
            out[i] = errors.InvalidParameter("w0 must return one value per grid point")
        elif np.any(w0 <= 0.0):
            out[i] = errors.PositivityLost("initial data not strictly positive")
        else:
            frames[i, 0] = w0
            run.consume(delta_start, frames[i, 0])
    live = [i for i in range(R) if out[i] is None]
    # F, sources added, e and rho of row i's last frame
    d, e, rho, t = _stencil(frames[:, 0], dxi, p)
    F = _rhs(d, t, _drift_speed(p, delta_start), dxi, p)
    for i in live:
        if runs[i].source is not None:
            F[i] += runs[i].source(delta_start)[1:-1]
    old = np.stack((F, e, rho), 1)
    del d, e, rho, t, F
    bands = _Bands(R, M - 2)
    # row i: trajs[i] counts its frames and solver work so far; deltas[i]
    # holds its last one or two deltas
    trajs = [Trajectory() for _ in range(R)]
    deltas = [[delta_start] for _ in range(R)]
    delta_new, ends = [0.0] * R, [None] * R
    attempt = [None] * R  # None: the row starts a new step
    cold = [True] * R  # the row's next attempt starts from its last frame
    theta = [0.0] * R
    while True:
        for i in live:
            delta = deltas[i][-1]
            if attempt[i] is None:
                if _finished(delta, delta_end):
                    out[i] = trajs[i]
                    continue
                attempt[i], theta[i] = _step_plan(trajs[i].frames - 1, delta, delta_end, dtau)
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
        results = {i: errors.PositivityLost(
            f"end values {ends[i]} not finite and positive at delta = {delta_new[i]:.6e}"
        ) for i in live if not all(0.0 < e < math.inf for e in ends[i])}
        bad_ends = set(results)
        groups = {}  # (delta, delta_new, theta, r, slot of the new frame) -> rows
        for i in live:
            if i not in bad_ends:
                delta = deltas[i][-1]
                r = 0.0 if cold[i] else (math.log(delta_new[i] / delta)
                                         / math.log(delta / deltas[i][-2]))
                key = delta, delta_new[i], theta[i], r, trajs[i].frames % 2
                groups.setdefault(key, []).append(i)
        for (delta, new, th, r, slot), group in groups.items():
            last = frames[group, 1 - slot]
            res, X, carried = _step_rows(
                last, delta, new, th, [ends[i] for i in group], dxi, p,
                [runs[i].source for i in group], old[group], bands,
                _predicted(last, frames[group, slot], r),
            )
            accepted = [j for j, x in enumerate(res) if not isinstance(x, errors.FdelabError)]
            if accepted:
                kept = [group[j] for j in accepted]
                frames[kept, slot], old[kept] = X[accepted], carried[accepted]
            results.update(zip(group, res))
            del last, X, carried  # not held through the next group's step
        for i in live:
            res, traj = results[i], trajs[i]
            if isinstance(res, errors.FdelabError):
                if not (cold[i] or i in bad_ends or isinstance(res, errors.NonFinite)):
                    cold[i] = True  # the same step again, from the last frame
                    traj.cold_retries += 1
                    continue
                traj.step_rejections += 1
                attempt[i] *= 0.5
                cold[i] = traj.frames == 1
                if attempt[i] < 1e-6 or isinstance(res, errors.NonFinite):
                    out[i] = res
                continue
            attempt[i], cold[i] = None, False
            traj.newton_iters_max = max(traj.newton_iters_max, res)
            traj.newton_iters += res
            deltas[i] = [deltas[i][-1], delta_new[i]]
            runs[i].consume(delta_new[i], frames[i, traj.frames % 2])
            traj.frames += 1
            if traj.frames > _STEP_BUDGET + 1:
                out[i] = errors.StepUnderflow("step budget exhausted")
        live = [i for i in live if out[i] is None]


# Bytes per grid point that the sandwich's joint solve holds at its peak:
# float64 values for its 4 rows.  _solve_rows keeps 2 frames and the 3
# carried rows (F, e, rho) per row (20 values), and copies the group's
# last frame and carried rows for _step_rows and forms the predicted start
# (20); _Bands keeps 4 bands per row (16); _step_rows holds X, step and
# X_try (12), G and the 4 stencil arrays of the iterate and of the trial
# (40), the step constant C and the floor's size and s_old (12), the
# stencil's and the residual's temporaries (8), and at its end F and the
# carried stack (16).  The runs add xi, 4 initial rows and the
# manufactured profile and source arrays (12).  That is 156 values; a
# traced sandwich at 20,000 cells peaks at 1,174 bytes per point.  The mid
# run's CSV samples (W[::8] of every 10th frame) come on top;
# comparison_sandwich checks the two together against _MEMORY_BUDGET once
# the steps are planned, before it allocates anything per cell.
_POINT_BYTES = 8 * (40 + 16 + 88 + 12)
_MEMORY_BUDGET = 1 << 30  # bytes the sandwich's grid arrays may hold


def _check_window(n_cells, dtau, tau0, tau_end):
    """InvalidParameter unless the grid has at least two cells, dtau is a
    finite step > 0, and tau0 < tau_end with both delta = e^{-tau} finite
    and > 0; checked before any grid or barrier is built.  The grid's size
    is checked against _MEMORY_BUDGET once the steps are planned
    (comparison_sandwich)."""
    if not n_cells >= 2:
        raise errors.InvalidParameter(f"need n_cells >= 2, got {n_cells}")
    if not 0.0 < dtau < math.inf:
        raise errors.InvalidParameter(f"need a finite dtau > 0, got {dtau}")
    try:  # with tau0 < tau_end the other two bounds follow
        ok = tau0 < tau_end and math.exp(-tau0) < math.inf and math.exp(-tau_end) > 0.0
    except OverflowError:
        ok = False
    if not ok:
        raise errors.InvalidParameter(
            f"need tau0 < tau_end with e^(-tau) finite and > 0 at both, "
            f"got tau0 = {tau0}, tau_end = {tau_end}"
        )


def _check_drift(p: ModelParams, *deltas):
    """OutOfDomain unless the drift speed A gamma delta^(-gamma-1) and
    delta^(1+gamma) are finite and > 0 at the window's ends, and so on all
    of it: the speed overflows once (1+gamma) tau = -(1+gamma) log delta
    passes 709.78 - log(A gamma), delta^(1+gamma) once it falls below
    -709.78.  Checked before any barrier is evaluated."""
    for delta in deltas:
        try:
            ok = _drift_speed(p, delta) < math.inf and delta ** (1.0 + p.gamma) > 0.0
        except OverflowError:
            ok = False
        if not ok:
            raise errors.OutOfDomain(
                "the drift speed or delta^(1+gamma) leaves the float range at "
                f"(1+gamma) tau = {-(1.0 + p.gamma) * math.log(delta):.6g}"
            )


# -- manufactured solution and tolerance calibration ---------------------------


_MANUFACTURED = (2.0, 0.5, 0.7)  # (c1, c2, k) with |c2| < |c1|: W stays positive


def make_manufactured(p: ModelParams):
    """Exact solution W = delta^{1+gamma} (c1 + c2 sin(k xi)) and its source.

    The source S = W_t - F(W) - sigma W_xi is analytic; feeding it to the
    solver makes W an exact solution for convergence studies.  F(W) is
    the same at every delta, since radial_diffusion is invariant under
    scaling W and its derivatives by one factor, so bind forms it once.
    """
    c1, c2, k = _MANUFACTURED

    def W_exact(xi, delta):
        return delta ** (1.0 + p.gamma) * (c1 + c2 * np.sin(k * xi))

    def bind(xi):
        sin = np.sin(k * xi)
        prof = c1 + c2 * sin
        dprof = c2 * k * np.cos(k * xi)
        F = radial_diffusion(p, prof, dprof, -c2 * k * k * sin) - p.d.a0

        def S(delta):
            out = (-(1.0 + p.gamma) * delta ** p.gamma) * prof
            out -= F
            out -= (_drift_speed(p, delta) * delta ** (1.0 + p.gamma)) * dprof
            return out

        return S

    return W_exact, bind


def _manufactured_row(p: ModelParams, xi, delta_start: float):
    """The manufactured calibration run on grid xi as a row, and a reader
    of its normalized error max |W_num - W_true| / delta^{1+gamma} over
    the frames accepted so far, which its consumer keeps."""
    W_exact, bind = make_manufactured(p)
    profile = W_exact(xi, 1.0)  # W_exact(xi, delta) is delta^{1+gamma} times this
    worst = 0.0

    def consume(delta, W):
        nonlocal worst
        scale = delta ** (1.0 + p.gamma)
        worst = max(worst, float(np.max(np.abs(W - scale * profile))) / scale)

    def bc(delta):
        return float(W_exact(xi[0], delta)), float(W_exact(xi[-1], delta))

    return _Run(W_exact(xi, delta_start), bc, consume, bind(xi)), lambda: worst


_SAFETY = 5.0  # factor on the manufactured error that gives tol_rel
_FIT_DECADES = 2.0  # decades of T - t that the extinction fit spans


# -- sandwich runs -------------------------------------------------------------


@dataclass
class SandwichReport:
    """The sandwich's one result record, on grid xi.

    The consumers of _sandwich_rows fill it as frames are accepted: the
    worst under- and overshoot over all runs, in units of delta^{1+gamma},
    and per mid frame its delta, max W, the peaks of the barriers' u =
    W^{1/(1-m)} and, every 10th frame, the CSV sample.
    comparison_sandwich then sets tol_rel, runs (a Trajectory per run),
    passed and fits.
    """

    p: ModelParams
    xi: np.ndarray
    tol_rel: float = math.nan
    runs: dict = field(default_factory=dict)
    max_undershoot: float = 0.0  # worst (W_lowbar - W)/scale over all runs
    max_overshoot: float = 0.0   # worst (W - W_upbar)/scale
    passed: bool = False
    fits: dict = field(default_factory=dict)
    deltas: list = field(default_factory=list)  # per mid frame
    solution: list = field(default_factory=list)  # max W per mid frame
    upper_barrier: list = field(default_factory=list)  # max u of each barrier per mid frame
    lower_barrier: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # (delta, W[::8]) per 10th mid frame

    def to_dict(self) -> dict:
        keys = ("tol_rel", "max_undershoot", "max_overshoot", "passed", "fits")
        return {key: getattr(self, key) for key in keys}

    def to_csv(self, path: str):
        """Rows (t, s, xi, w, u, log10_u) of the mid run on every 10th frame
        and every 8th grid point."""
        p, xi = self.p, self.xi[::8]
        rows = []
        for delta, W in self.samples:
            t = p.T - delta
            shift = p.A * delta ** (-p.gamma)
            for x, w in zip(xi, W):
                s = x + shift
                log10_u = (math.log10(w) - 2.0 * s / math.log(10.0)) / (1.0 - p.m)
                u = 10.0 ** log10_u if log10_u > -300.0 else 0.0
                rows.append((t, s, x, w, u, log10_u))
        write_csv(path, ["t", "s", "xi", "w", "u", "log10_u"], rows)


def _barrier_W(bar: GluedBarrier, xi: np.ndarray, deltas, p: ModelParams):
    """delta^{1+gamma} wbar(xi, -log delta) on the (deltas, xi) grid, from
    one wbar call."""
    deltas = [float(delta) for delta in deltas]
    scale = np.array([delta ** (1.0 + p.gamma) for delta in deltas])
    return scale[:, None] * bar.wbar(xi, np.array([-math.log(delta) for delta in deltas]))


_BLOCK_POINTS = 1 << 13  # grid points per barrier block of the sandwich
_KINDS = ("lower", "upper", "mid")  # the sandwich's runs on the barriers


def _on(kind, Wp, Wm):
    """The barrier values that a run of this kind starts from and keeps
    at its ends: the lower barrier, the upper one, or their geometric mean."""
    if kind == "mid":
        return np.sqrt(Wp * Wm)
    return Wm if kind == "lower" else Wp


class _Reading(NamedTuple):
    """Both barriers at one delta: on the grid, each run's Dirichlet ends
    (kind -> (W_lo, W_hi)), and the peaks of the barriers' u = W^{1/(1-m)}
    as floats (plus, minus)."""

    W_plus: np.ndarray
    W_minus: np.ndarray
    ends: dict
    peaks: tuple


class _BarrierBlocks:
    """Both barriers (_barrier_W) at the deltas the sandwich rows reach,
    as _Readings.

    Planned deltas are evaluated a block of at most _BLOCK_POINTS points
    at a time, when a row first reaches the block; the block before stays,
    so a row one round behind needs no second evaluation.  A delta off the
    plan, or in a block whose evaluation raised, is evaluated alone and
    kept as its row's latest, for the row's bc and consumer.  A block
    takes one inner and two outer calls per barrier: the matching edge
    that C(tau) is solved from, and the grid.  Each evaluation forms every
    run's Dirichlet ends and both barriers' peaks once, for all its
    deltas, so a step's bc and the mid consumer read floats and never
    slice or reduce the grid.
    """

    def __init__(self, plus: GluedBarrier, minus: GluedBarrier, xi, deltas):
        self.bars, self.xi, self.deltas = (plus, minus), xi, deltas
        self.p = plus.outer.p
        self.index = {delta: j for j, delta in enumerate(deltas)}
        self.size = max(1, _BLOCK_POINTS // len(xi))  # deltas per block
        self.blocks = {}  # number -> list of _Readings, or None if it raised
        self.own = {}  # row -> (delta, _Reading)

    def _evaluate(self, deltas) -> list:
        Wp, Wm = (_barrier_W(bar, self.xi, deltas, self.p) for bar in self.bars)
        ends = {kind: _on(kind, Wp[:, [0, -1]], Wm[:, [0, -1]]).tolist() for kind in _KINDS}
        power = 1.0 / (1.0 - self.p.m)
        peaks = [[float(x ** power) for x in W.max(axis=1)] for W in (Wp, Wm)]
        return [_Reading(Wp[r], Wm[r], {kind: tuple(ends[kind][r]) for kind in _KINDS},
                         (peaks[0][r], peaks[1][r])) for r in range(len(deltas))]

    def at(self, delta, row) -> _Reading:
        """Both barriers at delta, as row reads them."""
        j = self.index.get(delta)
        if j is not None:
            k, r = divmod(j, self.size)
            if k not in self.blocks:
                while len(self.blocks) > 1:
                    del self.blocks[next(iter(self.blocks))]
                try:
                    self.blocks[k] = self._evaluate(self.deltas[k * self.size:(k + 1) * self.size])
                except errors.FdelabError:
                    self.blocks[k] = None
            block = self.blocks[k]
            if block is not None:
                return block[r]
        hit = self.own.get(row)
        if hit is None or hit[0] != delta:
            hit = self.own[row] = delta, self._evaluate([delta])[0]
        return hit[1]


def _sandwich_rows(plus: GluedBarrier, minus: GluedBarrier, xi, deltas):
    """The lower, upper and mid runs as rows (on the lower barrier, the
    upper one and their geometric mean) over the planned deltas, and the
    SandwichReport that their consumers fill.  bc reads its run's ends
    from one _BarrierBlocks; a consumer checks every 5th frame against the
    barriers on the grid and keeps, per mid frame, max W, the barrier
    peaks and every 10th frame's CSV sample.
    """
    p = plus.outer.p
    blocks = _BarrierBlocks(plus, minus, xi, deltas)
    report = SandwichReport(p, xi)

    def bc(kind):
        def at(delta):
            return blocks.at(delta, kind).ends[kind]
        return at

    def consume(kind):
        frame = itertools.count()

        def reduce(delta, W):
            n = next(frame)
            if n % 5 and kind != "mid":
                return
            bars = blocks.at(delta, kind)
            if n % 5 == 0:
                scale = delta ** (1.0 + p.gamma)
                report.max_undershoot = max(report.max_undershoot,
                                            float(np.max((bars.W_minus - W) / scale)))
                report.max_overshoot = max(report.max_overshoot,
                                           float(np.max((W - bars.W_plus) / scale)))
            if kind == "mid":
                report.deltas.append(delta)
                report.solution.append(float(np.max(W)))
                report.upper_barrier.append(bars.peaks[0])
                report.lower_barrier.append(bars.peaks[1])
                if n % 10 == 0:
                    report.samples.append((delta, W[::8].copy()))

        return reduce

    first = blocks.at(deltas[0], None)
    rows = {
        kind: _Run(np.array(_on(kind, first.W_plus, first.W_minus)), bc(kind),
                   consume=consume(kind))
        for kind in _KINDS
    }
    return rows, report


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

    The pair must come in sign order (plus, minus), n_cells >= 2, dtau a
    finite step > 0 and tau0 < tau_end with both e^{-tau} finite and > 0;
    anything else raises InvalidParameter before any solve.  A window
    whose drift speed leaves the float range raises OutOfDomain, and one
    that the step budget cannot cover even with no step rejected raises
    StepUnderflow.  Once the steps are planned, a grid whose solve and
    mid-run samples over the planned frames would hold more than
    _MEMORY_BUDGET raises InvalidParameter; all of these come before the
    grid is built or any row is stepped.  The grid is xi in
    [-xi1, 4 xi1] with n_cells cells, and dtau is the step as a fraction
    of delta (the CLI's simulate window).
    Three runs: data/BC on the lower barrier, on the upper barrier, and on
    the pointwise geometric mean ("mid", the reported solution).  Initial
    data outside the barriers is rejected (this covers the doubled-data
    precondition check).  Every 5th frame of each run is checked against
    the calibrated grid tolerance in units of delta^{1+gamma}.

    The calibration run and the three runs are four rows of one joint
    solve whose frames are reduced as they are accepted (_sandwich_rows).
    Errors are raised in row order, with NotBetweenBarriers (it needs
    tol_rel) after the calibration's.  A run's error is raised as its own
    class, its message prefixed with the run (calibration, lower, upper
    or mid), n_cells and tau0.
    """
    if plus.sign != "+" or minus.sign != "-":
        raise errors.InvalidParameter("pass (plus, minus) barriers in order")
    _check_window(n_cells, dtau, tau0, tau_end)
    p = plus.outer.p
    delta_start = math.exp(-float(tau0))
    delta_end = math.exp(-tau_end)
    _check_drift(p, delta_start, delta_end)
    deltas = _planned_deltas(delta_start, delta_end, dtau)
    if not _finished(deltas[-1], delta_end):
        raise errors.StepUnderflow(f"step budget exhausted: {_STEP_BUDGET} steps of dtau {dtau} "
                                   f"do not reach tau_end {tau_end} from tau0 {tau0}")
    held = (n_cells + 1) * _POINT_BYTES + 8 * (n_cells // 8 + 1) * ((len(deltas) + 9) // 10)
    if held > _MEMORY_BUDGET:  # the solve and the samples of the planned frames
        raise errors.InvalidParameter(
            f"n_cells {n_cells} over {len(deltas)} planned frames would hold about "
            f"{held / 2**30:.3g} GiB with the mid run's samples, over the budget of "
            f"{_MEMORY_BUDGET / 2**30:g} GiB"
        )
    xi = np.linspace(-plus.xi1, 4.0 * plus.xi1, n_cells + 1)
    calibration, calibration_error = _manufactured_row(p, xi, delta_start)
    rows, report = _sandwich_rows(plus, minus, xi, deltas)
    solved = dict(zip(("calibration", *rows), _solve_rows(
        p, xi, [calibration, *rows.values()], delta_start=delta_start,
        delta_end=delta_end, dtau=dtau,
    )))

    def run(name):
        res = solved[name]
        if isinstance(res, errors.FdelabError):
            raise type(res)(f"{name} run (n_cells {n_cells}, tau0 {tau0}): {res}") from res
        return res

    run("calibration")
    report.tol_rel = tol_rel = _SAFETY * calibration_error()
    W0 = rows["mid"].w0
    Wm0, Wp0 = rows["lower"].w0, rows["upper"].w0
    slack = tol_rel * delta_start ** (1.0 + p.gamma)
    if np.any(W0 < Wm0 - slack) or np.any(W0 > Wp0 + slack):
        raise errors.NotBetweenBarriers("initial data leaves the barrier sandwich at tau0")
    report.runs = {name: run(name) for name in rows}
    report.passed = report.max_undershoot <= tol_rel and report.max_overshoot <= tol_rel

    # extinction fits; sup W^{1/(1-m)} is raised as one array
    deltas = np.array(report.deltas)
    amps = {
        "solution": np.array(report.solution) ** (1.0 / (1.0 - p.m)),
        "upper_barrier": np.array(report.upper_barrier),
        "lower_barrier": np.array(report.lower_barrier),
    }
    span = math.log10(float(deltas.max() / deltas.min()))
    for name, amp in amps.items():
        try:
            report.fits[name] = extinction_rate(deltas, amp)
        except errors.InsufficientDecades:
            report.fits[name] = {"exponent": math.nan, "prefactor_log": math.nan,
                                 "stderr": math.inf, "n_points": 0, "decades": span}
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
    mask = deltas <= deltas.min() * 10.0 ** _FIT_DECADES
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
    return {"exponent": float(coef[0]), "prefactor_log": float(coef[1]), "stderr": stderr,
            "n_points": n_pts, "decades": span}
