"""The comoving radial solver: implicit steps of independent runs on one
grid, as the rows of one array.

The evolution is posed for W(xi, t) = w(s, t) in the comoving frame
xi = s - A (T-t)^(-gamma), where the w-equation gains a drift:

    W_t = F(W) + sigma(t) W_xi,
    F(W) = (n-1) [W_xixi/W + b1 W_xi^2/W^2 + b2 W_xi/W] - a0,
    sigma(t) = A gamma (T-t)^(-gamma-1).

Time is tracked through delta = T - t with the exact geometric update
delta_{k+1} = delta_k (1 - dtau), so the uniform-in-w profile a0*delta is
reproduced to rounding accuracy by the implicit stepper.  Space is a
uniform xi grid with central second-order differences.  Every step is
backward Euler, solved by a damped Newton iteration with an analytic
tridiagonal Jacobian and positivity rejection.  Backward Euler is
L-stable, so it damps the stiff modes that the trapezoidal rule leaves as
a sawtooth (-1)^k in the step index k, and no theta-method is both
positivity-preserving for every step size and second order (Bolley and
Crouzeix, RAIRO Anal. Numer. 12, 1978).  Each Newton system covers the
interior points, so the Dirichlet ends keep their values exactly.

Newton starts in one of two ways.  log W of each row is smooth in k, so
once four frames lie a full step apart Newton starts from
exp(4 L0 - 6 L1 + 4 L2 - L3), L0..L3 = log W of the last four frames,
newest first, which is exact for a cubic in k (_extrapolated), and takes
about one Newton round per step.  Every other step (the warm-up half
steps, the first full steps and the short last step) starts cold, from
the row's last frame.  A rejected extrapolated start is retried cold, and
a rejected cold start stops the run.

The Newton kernel reads everything from one stencil pass per iterate
(_stencil).  At an interior point with value W, neighbours W+ and W-
and spacing h, D1 = (W+ - W-)/(2h), D2 = (W+ - 2W + W-)/h^2, and the
quotients r1 = D1/W, q = D2/W give

    F = (n-1) (q + b1 r1^2 + b2 r1) + sigma D1 - a0.

The stencil keeps them scaled by h: e = ((W+ - W) + (W- - W))/W = h^2 q,
whose two differences are exact for neighbours within a factor 2 of W,
and rho = (W+ - W-)/W = 2h r1.  With
t = e + rho (b1 rho/4 + b2 h/2) = h^2 (q + b1 r1^2 + b2 r1),
F = (n-1) t/h^2 + sigma (W+ - W-)/(2h) - a0.  Differentiating,

    dF/dW+- = (n-1)/(h^2 W) (1 +- g) +- sigma/(2h),   g = h (b1 r1 + b2/2),
    dF/dW   = -(n-1)/(h^2 W) (2 + h^2 q + h^2 r1 (2 b1 r1 + b2)),

that is g = (b1 rho + b2 h)/2 and a diagonal bracket 2 + e + rho g.
With E = -dt (n-1)/(h^2 W) and alpha = dt sigma/(2h), the Newton matrix
I - dt J_F has the sub-, main and superdiagonals E(1 - g) + alpha,
1 - E(2 + e + rho g) and E(1 + g) - alpha (_newton_bands), written
straight into the gtsv bands.  The residual G = X - W_old - dt (F(X) + S)
of an iterate X, S a run's extra source at the new delta, is
X - C - K t - alpha (X+ - X-) with K = dt (n-1)/h^2 and the step's
constant C = W_old - dt (a0 - S), formed once per step.

Newton stops at the step's tolerance (_tolerances), which is never below a
bound on the rounding of G: 2.3e-16 (2 W + dt T) on the old frame, where T
bounds the raw size of the terms of F, whose drift sigma D1 cancels
against the diffusion and a0 to a net |F| far below it:

    T = (n-1) (M2/W + 2 |b1| |D1| M1/W^2 + |b2| M1/W) + a0 + sigma M1,

M1 = (W+ + W-)/(2h) and M2 = (W+ + 2W + W-)/h^2.  With S = W+ + W- and
s = S/W = 2 + e in the old frame, M2/W = (s + 2)/h^2,
|D1| M1/W^2 = |rho| s/(4h^2) and M1/W = s/(2h), so

    dt T = dt (n-1)/h^2 (s (1 + |b1| |rho|/2 + |b2| h/2) + 2) + dt a0
           + dt sigma s W/(2h),

the same terms bounded the same way, from the e and rho of one stencil
pass over the old frame.  Backward Euler evaluates F at the iterate only,
so outside F the bracket adds just W_old, X and the constant's dt a0: the
tolerance's middle term is 150 roundings of W + dt a0, W the row's
largest value.  (On simulate-ref the floor binds at every row-step.)

Independent runs on one grid are the rows of one C-contiguous (runs,
points) array (_solve_rows), stepped through one schedule of planned
deltas (_planned_deltas).  Each planned step is one _step_rows call of
every live row, whose step factors are Python floats; each row keeps its
own tolerance and damping.  The rows whose extrapolated start is
rejected retry the step cold, together, in a second call.  Every factor
is the float a lone run computes, so a run gives the same bits alone or
beside others.

The array passes of a step (_stencil, the residual, _tolerances and
_newton_bands) treat the rows as one flat vector: they read
W.reshape(-1)[:-2], [1:-1] and [2:], the flat interior (_flat) and its
neighbours.  The first and last point of each row are its Dirichlet ends,
where the flat stencil reaches into the next or the previous row; those
2 (rows - 1) seam positions are computed and discarded.  The residual and
the tolerances' floor are zeroed there before each row's largest value is
read from a (rows, points) reshape, and in the Newton system they are
identity rows, d = 1 and b = 0 with zero couplings (_Bands), so that one
gtsv call solves the stacked rows with each row's lone bits.  A step
costs its count of numpy calls more than its count of rows, and a call on
the contiguous flat vector costs less than on strided (rows, points - 2)
interior views: one subtraction on 4 rows of 401 points took 1.0 us
against 2.7 us, and one simulate-ref step of all four rows 150 us against
175 us (timeit; numpy 2.4, Python 3.11, a 2-core x86-64 host).

_Bands is the only holder of gtsv bindings: it binds the stacked system
once and each row once, on bands it allocates itself, and after a zero
pivot or a non-finite x solves each row through that row's binding.  A
row keeps only its last frame and the log growth rates log(W_k / W_(k-1))
of its last three steps, each formed from the new frame and the last one
when its step is accepted: a step reads nothing else of the steps before
it.  The all-rows step (every step of the sandwich, unless a row stopped
or retries) reads and writes those as whole contiguous slices; a subset
of rows is gathered and scattered by index.
A row hands every accepted frame, the initial one too, to its run's
consumer, and counts its frames and solver work in its Trajectory as it
goes.

fdelab.pde runs the comparison sandwich on this solver.  The two are
separate modules because every command compiles its modules from source
when no bytecode is cached, and the compile of one module holds its
whole syntax tree: with both in one module, simulate-ref peaked about
0.6 MB higher (Python 3.11).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .params import ModelParams

__all__ = ["Trajectory"]


# -- solver --------------------------------------------------------------------


@dataclass
class Trajectory:
    """A comoving run that took every planned step: its frame count and
    solver counters."""

    frames: int = 1  # accepted frames, the initial one included
    newton_iters_max: int = 0  # most Newton iterations of one accepted step
    newton_iters: int = 0  # Newton iterations summed over accepted steps
    cold_retries: int = 0  # extrapolated starts rejected and retried from the last frame


def _drift_speed(p: ModelParams, delta: float) -> float:
    """sigma = A gamma delta^(-gamma-1), the speed of the comoving frame."""
    return p.A * p.gamma * delta ** (-p.gamma - 1.0)


def _flat(a):
    """The flat interior of a C-contiguous (rows, points) array a: every
    point of a.reshape(-1) but its first and last, the positions q = 0, 1,
    ... of the flat kernel (point q + 1 of the stack)."""
    return a.reshape(-1)[1:-1]


def _stencil(W):
    """The stencil of the flat interior of W (_flat) as quotients, flat
    arrays like it: d = W+ - W-, e = ((W+ - W) + (W- - W))/W and
    rho = d/W, from which _step_rows forms the residual, _newton_bands the
    Newton matrix and _tolerances the floor (module docstring).  At the
    first and last point of each row, the seams, the neighbours lie in
    two rows; what is formed there is never read."""
    flat = W.reshape(-1)
    Wm, W0, Wp = flat[:-2], flat[1:-1], flat[2:]
    up = Wp - W0
    down = Wm - W0
    d = up - down
    up += down
    e = np.divide(up, W0, out=up)
    return d, e, d / W0


def _newton_bands(dl, diag, du, W, e, rho, kappa, alpha, dxi, p):
    """Write the Newton matrix I - dt J_F of the flat interior into gtsv's
    bands: the subdiagonal dl (positions 1..), the diagonal and the
    superdiagonal du (positions ..-2), from the flat interior values W and
    quotients (e, rho) of _stencil.  kappa = -dt (n-1)/dxi^2 and
    alpha = dt sigma/(2 dxi) are the floats of one step.  What is written
    at the seams (the ends of the rows) is overwritten by _Bands."""
    E = kappa / W
    g = rho * (0.5 * p.d.b1)
    g += 0.5 * p.d.b2 * dxi
    np.multiply(rho, g, out=diag)
    diag += e
    diag += 2.0
    diag *= E
    np.subtract(1.0, diag, out=diag)
    g *= E
    np.add(E[:-1], g[:-1], out=du)
    du -= alpha
    np.subtract(E[1:], g[1:], out=dl)
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


_IDENTITY = np.array([0.0, 1.0, 0.0, 0.0])[:, None, None]  # (dl, d, du, b) of an identity row


class _Bands:
    """Newton systems of up to `rows` rows of n unknowns as one flat
    tridiagonal system, the one owner of gtsv bindings.

    The bands tri = (dl, d, du, b) are (rows, n + 2) arrays laid out like
    the rows' frames, and gtsv solves the flat interior of the stack
    (_flat): row j's unknowns, its interior points, are one run of it, and
    between the last unknown of a row and the first of the next sit the
    ends of both rows.  Those seams are identity rows, d = 1 and b = 0,
    with zero couplings, so gtsv never pivots across them and each row
    gets the bits of its lone solve, up to signs of 0 (LAPACK dgtsv: a zero
    subdiagonal entry takes no row interchange and subtracts exact zeros).
    Column c of a row holds d and b of point c, and dl and du the
    couplings of points c and c + 1 below and above the diagonal.  gtsv is
    bound once to the stacked system and once to each row, on C-contiguous
    float64 bands that this class allocates, so no raw pointer can misread
    a caller's array."""

    def __init__(self, rows, n):
        self.tri = np.zeros((4, rows, n + 2))
        bind = _lapack()
        flat = self.tri.reshape(4, -1)
        self.gtsv = bind(*flat[:, 1:])
        self.lone = [bind(*flat[:, j * (n + 2) + 1:]) for j in range(rows)]

    def solve(self, r, fill, idle=()):
        """The Newton steps of the leading r rows as their (r, n + 2) block
        of b, with exact zeros at each row's ends: fill(dl, d, du, b) writes
        gtsv's bands of the flat system, the ends of every row and each row
        in idle become identity rows (step 0), and one gtsv call solves it.
        After a zero pivot (gtsv stops there) or a non-finite x (it crosses
        the seams), the system is written again and each row not in idle
        is solved alone.  Returns (step, failed): failed maps each row whose
        lone system is singular to its NewtonDiverged, and its step is 0."""
        tri = self.tri[:, :r]
        m = tri.shape[2]
        size = r * m - 2
        flat = self.tri.reshape(4, -1)[:, :r * m]
        bands = flat[0, 1:size], flat[1, 1:-1], flat[2, 1:size], flat[3, 1:-1]

        def write():
            fill(*bands)
            tri[:, :, ::m - 1] = _IDENTITY
            tri[::2, :, -2] = 0.0
            for j in idle:
                tri[:, j] = _IDENTITY[:, 0]

        write()
        step = tri[3]
        if self.gtsv(size) == 0 and np.isfinite(step).all():
            return step, {}
        write()
        failed = {}
        for j, solve in enumerate(self.lone[:r]):
            info = 0 if j in idle else solve(m - 2)
            if info:
                failed[j] = errors.NewtonDiverged(
                    f"tridiagonal Newton matrix singular (gtsv info {info})")
                step[j] = 0.0
        return step, failed


_NEWTON_MAX = 12  # Newton iterations before a step is rejected


def _tolerances(W_old, dt, sigma_old, dxi, p):
    """Each row's Newton tolerance for a step of dt from W_old:
    max(5e-14 W, 150 * 2.3e-16 (W + dt a0), 2.3e-16 (2 W + dt T)), W the
    row's largest value and 2 W + dt T the floor of the module docstring,
    formed from one stencil pass over W_old and zeroed at the seams before
    each row's largest value is read."""
    n1, h2, a0 = p.n - 1, dxi * dxi, p.d.a0
    _, s, rho = _stencil(W_old)  # e of W_old, made s = e + 2
    s += 2.0
    floor = np.empty_like(W_old)  # 2W + dt T on the flat interior, from |rho|
    size = np.abs(rho, out=_flat(floor))
    size *= 0.5 * abs(p.d.b1)
    size += 1.0 + 0.5 * abs(p.d.b2) * dxi
    size *= s
    size *= dt * n1 / h2
    size += dt * (2.0 * n1 / h2 + a0)
    s *= dt * sigma_old / (2.0 * dxi)  # the terms that scale with W
    s += 2.0
    s *= _flat(W_old)
    size += s
    floor[:, ::floor.shape[1] - 1] = 0.0
    return [max(5e-14 * w, 150.0 * 2.3e-16 * (w + dt * a0), 2.3e-16 * g)
            for w, g in zip(W_old.max(axis=1).tolist(), floor.max(axis=1).tolist())]


def _step_rows(W_old, delta_old, delta_new, ends, dxi, p, sources, bands, start):
    """One backward-Euler step from delta_old to delta_new for every row of
    the C-contiguous (rows, points) array W_old.

    The step's factors (dt, both drift speeds, K, alpha, the step
    constant's shift and the tolerances' factors) are Python floats shared
    by the rows, computed as for a lone run.  Row i has the Dirichlet
    values ends[i] = (W_lo, W_hi) and the optional extra right-hand side
    sources[i](delta_new), called once.  Newton starts from the positive
    start[i] with the Dirichlet values at its ends; its systems cover the
    interior points only.  Each row has its own tolerance (_tolerances, from
    W_old) and damping; nothing else of the earlier steps is read.  The
    array stages run on the flat interior of all rows (_flat) and each
    update writes only the rows it selects: a row not being tried keeps
    its positive iterate, and a trial row that is not positive falls back
    to its iterate.  A round's Newton systems go to gtsv as one system in
    bands (a _Bands), where the rows that do not iterate are identity
    rows.  A row whose residual is not finite stops with NonFinite before
    its next solve.

    Returns (out, X): out[i] is row i's Newton iterations or the error that
    rejected its step, and the accepted rows of X are their new frames.
    """
    k, M = W_old.shape
    out = [None] * k
    dt = delta_old - delta_new
    tol = _tolerances(W_old, dt, _drift_speed(p, delta_old), dxi, p)
    # the residual's K and alpha (the Newton matrix's kappa is -K) and
    # G = X - C - K t - alpha d with the step's constant C (module docstring)
    K = dt * (p.n - 1) / (dxi * dxi)
    alpha = dt * _drift_speed(p, delta_new) / (2.0 * dxi)
    C = W_old - dt * p.d.a0  # whole rows: its ends are finite and never read
    for i, source in enumerate(sources):
        if source is not None:
            C[i, 1:-1] += dt * source(delta_new)[1:-1]

    def residual(X):
        """G of every row of X, shaped like X, and the flat quotients e and
        rho of X.  The ends hold their Dirichlet values exactly, so their
        residual is 0: G is formed on whole rows and set to 0 at the ends,
        which also drops what the seams formed."""
        d, e, rho = _stencil(X)
        t = rho * (0.25 * p.d.b1)  # t = e + rho (b1 rho/4 + b2 dxi/2), times K
        t += 0.5 * p.d.b2 * dxi
        t *= rho
        t += e
        t *= K
        G = X - C
        g = _flat(G)
        g -= t
        d *= alpha
        g -= d
        G[:, ::M - 1] = 0.0
        return G, e, rho

    X = np.array(start, dtype=float)
    X[:, ::M - 1] = ends
    G, e, rho = residual(X)
    G_norm = np.abs(G).max(axis=1).tolist()
    its = [0] * k
    converged = [False] * k
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
        if not any(lam):
            break

        # the Newton system I - dt*J_F on the interior points; the ends and
        # the rows that sit still are identity rows, so their step is 0
        def fill(dl, diag, du, b):
            _newton_bands(dl, diag, du, _flat(X), e, rho, -K, alpha, dxi, p)
            np.negative(_flat(G), out=b)

        # step is the bands' b: lambda times the Newton step, halved with
        # lambda (exactly, as lambda is a power of 2), 0 on rows outside the
        # line search
        step, failed = bands.solve(k, fill, [i for i in range(k) if not lam[i]])
        for i, x in failed.items():
            out[i], lam[i] = x, 0.0

        # damped line search, each row with its own lambda
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
                X, (G, e, rho) = X_try, trial
            elif any(taken):
                where = np.repeat(taken, M).reshape(k, M)  # the points of the rows taken
                np.copyto(X, X_try, where=where)
                np.copyto(G, trial[0], where=where)
                for a, a_try in zip((e, rho), trial[1:]):
                    np.copyto(a, a_try, where=_flat(where))
            trial = a_try = None  # no part of a refused trial is held through the next one

    # a row that stopped is never taken again, so X still holds every
    # converged row's last iterate
    for i in range(k):
        if converged[i]:
            out[i] = its[i]
    return out, X


@dataclass
class _Run:
    """One row of a joint solve: initial data on the grid, bc(delta) ->
    (W_lo, W_hi), consume(delta, W) of each accepted frame (the initial
    one too; W is overwritten by the row's next accepted frame, so copy
    what is kept) and
    an optional extra right-hand side source(delta) on the grid, evaluated
    once per step attempt."""

    w0: np.ndarray
    bc: object
    consume: object
    source: object = None


_STEP_BUDGET = 200000
_WARMUP_STEPS = 4  # half steps that ease Newton through the initial transient


def _finished(delta, delta_end) -> bool:
    """A run at delta has reached delta_end, up to rounding of the steps."""
    return not delta > delta_end * (1.0 + 1e-12)


def _planned_deltas(delta_start, delta_end, dtau) -> list:
    """The joint solve's one step schedule: delta_start and the delta after
    each step, for at most the step budget, for a window that _check_window
    passed.  The first _WARMUP_STEPS steps take 0.5 dtau of delta, the
    later ones dtau, and the final step lands exactly on delta_end."""
    deltas = [delta_start]
    while not _finished(deltas[-1], delta_end) and len(deltas) <= _STEP_BUDGET + 1:
        frac = 0.5 * dtau if len(deltas) <= _WARMUP_STEPS else dtau
        deltas.append(deltas[-1] * (1.0 - min(frac, 1.0 - delta_end / deltas[-1])))
    return deltas


_RATES = 3  # steps whose log growth rates the extrapolated start reads


def _extrapolated(W, rates):
    """The start exp(4 L0 - 6 L1 + 4 L2 - L3) of each row, L0..L3 the logs
    of its last four frames, newest first, which is exact for a cubic in
    the step index, or the row of W (its last frame, exp L0) where that is
    not finite and positive.

    It is formed as W exp(3 (r0 - r1) + r2) from rates = (r0, r1, r2), the
    log growth rates log(W_j / W_(j-1)) of the row's last three steps,
    newest first.  A rate is the log of a ratio near 1, rounded to about
    1e-16, where log W itself (near -25 on ref) is rounded to about 4e-15,
    which the weights would add up to 6e-14 in a start that Newton may
    accept unchanged."""
    r0, r1, r2 = rates
    with np.errstate(over="ignore", invalid="ignore"):
        guess = np.exp(3.0 * (r0 - r1) + r2) * W
    np.copyto(guess, W, where=~((guess > 0.0) & (guess < math.inf)).all(axis=1)[:, None])
    return guess


def _solve_rows(p, xi, runs, deltas) -> list:
    """Step every run through the planned deltas (_planned_deltas) as one
    row of a shared implicit solve; returns per run its Trajectory or the
    FdelabError that stopped it.

    Each planned step is one _step_rows call of every live row.  Once the
    last four frames lie a full step apart, every step but the short last
    one starts from _extrapolated, the smooth extrapolant of log W from the
    log growth rates of the last three steps, formed for every row; every
    other step starts cold from the row's last frame.  A row's state is
    that frame, the only one kept (each accepted frame goes to its run's
    consumer), and its rates: when a row's step is accepted, its rate over
    the step is formed from the new frame and the last one, and the new
    frame then overwrites the last.  The frames are stored as one
    (rows, points) array, so that when every row steps, the last frame,
    the start and the new frame are whole contiguous slices; a subset of
    rows (a cold retry, or beside a row that stopped) is gathered and
    scattered by index.  The rows whose extrapolated start is rejected
    retry the same step cold, together, in a second call.  A row stops
    with its error on a rejected cold step, a NonFinite result, end values
    that are not finite and positive (no start changes those), or an
    FdelabError from its bc; the other rows go on.  The steps run with
    numpy's overflow and invalid-value warnings off, so that the checks for
    a non-finite residual or solve decide.
    """
    dxi = xi[1] - xi[0]
    R, M = len(runs), len(xi)
    out = [None] * R
    frames = np.ones((R, M))  # every row's last accepted frame; unset rows stay finite
    rates = np.zeros((_RATES, R, M))  # log(W_k / W_(k-1)) of every row at rates[k % _RATES]
    for i, run in enumerate(runs):
        w0 = np.asarray(run.w0, dtype=float)
        if w0.shape != xi.shape:
            out[i] = errors.InvalidParameter("w0 must return one value per grid point")
        elif np.any(w0 <= 0.0):
            out[i] = errors.PositivityLost("initial data not strictly positive")
        else:
            frames[i] = w0
            run.consume(deltas[0], frames[i])
    live = [i for i in range(R) if out[i] is None]
    bands = _Bands(R, M - 2)
    trajs = [Trajectory() for _ in range(R)]
    for k in range(1, len(deltas)):
        if not live:
            break
        delta, new = deltas[k - 1], deltas[k]
        ends = {}
        for i in live:
            try:
                ends[i] = runs[i].bc(new)
            except errors.FdelabError as exc:
                out[i] = exc
                continue
            # an end value that is not a finite positive number stops the
            # row before Newton, which could leave a nearby positive value
            if not all(0.0 < e < math.inf for e in ends[i]):
                out[i] = errors.PositivityLost(
                    f"end values {ends[i]} not finite and positive at delta = {new:.6e}")
        rows = [i for i in live if out[i] is None]
        cold = not _WARMUP_STEPS + _RATES < k < len(deltas) - 1
        while rows:
            pick = slice(None) if len(rows) == R else rows  # all rows as views, or gathered
            last = frames[pick]
            if cold:
                start = last
            else:
                ring = [rates[(k - j) % _RATES] for j in range(1, _RATES + 1)]  # newest first
                start = _extrapolated(frames, ring)[pick]
            with np.errstate(over="ignore", invalid="ignore"):
                res, X = _step_rows(last, delta, new, [ends[i] for i in rows], dxi, p,
                                    [runs[i].source for i in rows], bands, start)
            accepted = [j for j, x in enumerate(res) if not isinstance(x, errors.FdelabError)]
            if accepted:
                if len(accepted) < len(rows):
                    pick, last, X = [rows[j] for j in accepted], last[accepted], X[accepted]
                # a quotient past the float range gives an infinite rate,
                # and _extrapolated the last frame
                with np.errstate(over="ignore", divide="ignore"):
                    rates[k % _RATES, pick] = np.log(X / last)
                frames[pick] = X
            del last, start, X  # not held through the retry
            retry = []
            for i, x in zip(rows, res):
                traj = trajs[i]
                if not isinstance(x, errors.FdelabError):
                    traj.newton_iters_max = max(traj.newton_iters_max, x)
                    traj.newton_iters += x
                    runs[i].consume(new, frames[i])
                    traj.frames += 1
                elif cold or isinstance(x, errors.NonFinite):
                    out[i] = x
                else:  # the same step again, from the last frame
                    traj.cold_retries += 1
                    retry.append(i)
            rows, cold = retry, True
        live = [i for i in live if out[i] is None]
    for i in live:
        out[i] = trajs[i]
    return out
