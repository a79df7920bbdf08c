"""The ODE stepper of the inner shoot and the step table it returns.

The stepper is a port that loads no scipy module: Radau IIA of order 5
for a system of two states on Python floats (Hairer & Wanner, Solving
ODEs II, sec. IV.8), with scipy's error estimate, initial step and step
controller.  It returns the StepTable of the solution, which evaluates
the states at any t by one sorted search and one Horner sum.  Both are
deterministic for fixed inputs and raise the error taxonomy of this
package.

The step kernel is straight-line code: scipy's Radau operations in
scipy's order, written out on Python floats for two states, with no
array or comprehension in a step and no helper call in a Newton
iteration (the 2x2 Newton systems take closed-form inverses where scipy
takes LU, so the steps match scipy's to rounding).  Its tables are fixed
bit for bit, and the tests pin the shoot's by hash: a rewrite must keep
every float operation and its order, complex products included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import errors

__all__ = ["StepTable", "solve_ode"]


# -- Radau IIA of order 5 on two states ------------------------------------------
#
# Hairer & Wanner, Solving ODEs II, sec. IV.8, with the constants, Newton
# iteration, error estimate, initial step and step controller of scipy's
# Radau solver (scipy/integrate/_ivp/radau.py).  The eigenvectors T of the
# Butcher matrix split each three-stage Newton system into one real and one
# complex 2x2 system, and each is solved by its closed-form inverse.

_S6 = 6.0 ** 0.5
_C = ((4.0 - _S6) / 10.0, (4.0 + _S6) / 10.0, 1.0)  # stage nodes
_E = ((-13.0 - 7.0 * _S6) / 3.0, (-13.0 + 7.0 * _S6) / 3.0, -1.0 / 3.0)
_MU_REAL = 3.0 + 3.0 ** (2.0 / 3.0) - 3.0 ** (1.0 / 3.0)
_MU_COMPLEX = complex(
    3.0 + 0.5 * (3.0 ** (1.0 / 3.0) - 3.0 ** (2.0 / 3.0)),
    -0.5 * (3.0 ** (5.0 / 6.0) + 3.0 ** (7.0 / 6.0)),
)
_T = (
    (0.09443876248897524, -0.14125529502095421, 0.03002919410514742),
    (0.25021312296533332, 0.20412935229379994, -0.38294211275726192),
    (1.0, 1.0, 0.0),
)
_TI = (
    (4.17871859155190428, 0.32768282076106237, 0.52337644549944951),
    (-4.17871859155190428, -0.32768282076106237, 0.47662355450055044),
    (0.50287263494578682, -2.57192694985560522, 0.59603920482822492),
)
_TI_COMPLEX = tuple(complex(a, b) for a, b in zip(_TI[1], _TI[2]))
# the dense output of a step is y_old + Q [x, x^2, x^3] with Q = Z^T P
_P = (
    (13.0 / 3.0 + 7.0 * _S6 / 3.0, -23.0 / 3.0 - 22.0 * _S6 / 3.0, 10.0 / 3.0 + 5.0 * _S6),
    (13.0 / 3.0 - 7.0 * _S6 / 3.0, -23.0 / 3.0 + 22.0 * _S6 / 3.0, 10.0 / 3.0 - 5.0 * _S6),
    (1.0 / 3.0, -8.0 / 3.0, 10.0 / 3.0),
)
_NEWTON_MAXITER = 6
_MIN_FACTOR, _MAX_FACTOR = 0.2, 10.0
_ODE_STEP_BUDGET = 100000  # accepted steps before StepUnderflow
_BLOWUP_GUARD = 1e12  # state magnitude that raises BlowupGuardTripped


@dataclass(frozen=True)
class StepTable:
    """The steps of an ascending ODE solution, stacked.

    Step i covers [ts[i], ts[i+1]] (a breakpoint belongs to the lower
    step, as in scipy's OdeSolution) and there y = sum_k coef[i, :, k] x^k
    with x = (t - ts[i]) / h[i]: coef[i, :, 0] is the state at ts[i] and
    coef[i, :, 1:] the collocation polynomial Q of the step.
    """

    ts: np.ndarray  # (steps + 1,) breakpoints
    h: np.ndarray  # (steps,) ts[i+1] - ts[i]
    coef: np.ndarray  # (steps, states, 4)
    # solver counters; the accepted steps are len(h)
    attempts: int  # step attempts, accepted or rejected
    newton_iters: int  # Newton iterations begun, failed ones included
    jac_evals: int  # calls of jac

    def __call__(self, t, states=slice(None)) -> np.ndarray:
        """States at t, shape (states,) + t.shape, like OdeSolution; a
        slice of states evaluates those alone, gathering only their
        coefficients, with the same bits."""
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, len(self.h) - 1)
        x = ((t - self.ts[i]) / self.h[i])[..., None]
        c = self.coef[:, states][i]
        y = c[..., -1]
        for k in range(c.shape[-1] - 2, -1, -1):
            y = y * x + c[..., k]
        return np.moveaxis(y, -1, 0)


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old) -> float:
    """Step factor of the predictive (Gustafsson) controller."""
    if error_norm == 0.0:
        return math.inf
    if error_norm_old is None or h_abs_old is None:
        multiplier = 1.0
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    return min(1.0, multiplier) * error_norm ** -0.25


def _initial_step(rhs, t0, y, t_bound, f0, rtol, atol) -> float:
    """Initial step for an error estimate of order 3 (Hairer, Norsett &
    Wanner, Solving ODEs I, sec. II.4), as scipy selects it."""
    interval = t_bound - t0
    s0, s1 = atol + abs(y[0]) * rtol, atol + abs(y[1]) * rtol
    a, b, c, d = y[0] / s0, y[1] / s1, f0[0] / s0, f0[1] / s1
    d0 = math.sqrt(a * a + b * b) / 2.0 ** 0.5  # root mean squares
    d1 = math.sqrt(c * c + d * d) / 2.0 ** 0.5
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = rhs(t0 + h0, y[0] + h0 * f0[0], y[1] + h0 * f0[1])
    a, b = (f1[0] - f0[0]) / s0, (f1[1] - f0[1]) / s1
    d2 = math.sqrt(a * a + b * b) / 2.0 ** 0.5 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.25
    return min(100.0 * h0, h1, interval)


def solve_ode(
    rhs: Callable,
    jac: Callable,
    t_span: tuple[float, float],
    y0: Sequence[float],
    rel_tol: float,
    abs_tol: float,
) -> StepTable:
    """Radau IIA of order 5 to rel_tol and abs_tol for a system of two
    states on an ascending t_span, on Python floats; returns the StepTable.

    rhs(t, u, v) returns the derivatives (u', v') and jac(t, u, v) the
    Jacobian (du'/du, du'/dv, dv'/du, dv'/dv), all as floats.  A stage
    value that is not finite or an OverflowError in rhs fails the Newton
    iteration: it is retried once with a fresh Jacobian, then the step is
    halved.  A singular Newton matrix fails it the same way.  An
    OverflowError in jac, or an OverflowError or a value that is not
    finite in the evaluations that close a step, halves the step at once.
    Raises StepUnderflow when the step falls below ten spacings of t or
    the step budget is spent, BlowupGuardTripped when a state reaches
    _BLOWUP_GUARD, and NonFinite when rhs or jac is not finite at the
    start.
    """
    rtol, atol = rel_tol, abs_tol
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t < t_bound:
        raise errors.InvalidParameter(f"need an ascending t_span, got {t_span}")
    y = (float(y0[0]), float(y0[1]))
    try:
        f = rhs(t, *y)
        J = jac(t, *y)
        h_next = _initial_step(rhs, t, y, t_bound, f, rtol, atol)
    except OverflowError as exc:
        raise errors.NonFinite(f"ODE right-hand side overflows at t = {t:.6g}") from exc
    if not all(math.isfinite(v) for v in (*f, *J)):
        raise errors.NonFinite(f"ODE right-hand side not finite at t = {t:.6g}")
    newton_tol = max(10.0 * math.ulp(1.0) / rtol, min(0.03, rtol ** 0.5))
    isfinite, sqrt = math.isfinite, math.sqrt
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = _TI
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = _T
    g0, g1, g2 = _TI_COMPLEX
    (P00, P01, P02), (P10, P11, P12), (P20, P21, P22) = _P
    E0, E1, E2 = _E
    C0, C1 = _C[0], _C[1]  # and _C[2] = 1
    (u, v), (fu, fv) = y, f
    h_abs_old = error_norm_old = None
    current_jac = True
    inv_ok = False  # whether the inverses below are those of the current h and J
    attempts = newton_iters = 0
    jac_evals = 1
    ts, rows = [t], []  # rows[i] = (u, Q[0, :], v, Q[1, :]) of the step at ts[i]
    while t < t_bound:
        if len(rows) >= _ODE_STEP_BUDGET:
            raise errors.StepUnderflow(f"ODE step budget exhausted at t = {t:.6g}")
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        if h_next < min_step:
            h_abs, h_ref, err_ref = min_step, None, None
        else:
            h_abs, h_ref, err_ref = h_next, h_abs_old, error_norm_old
        s0, s1 = atol + abs(u) * rtol, atol + abs(v) * rtol
        rejected = False
        while True:
            if h_abs < min_step:
                raise errors.StepUnderflow(f"ODE step below {min_step:.3g} at t = {t:.6g}")
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            attempts += 1
            m_real, m_complex = _MU_REAL / h, _MU_COMPLEX / h
            t0, t1, t2 = t + h * C0, t + h * C1, t + h
            if rows:  # the last step's cubic predicts the stage increments Z
                x0, x1, x2 = (t0 - t_old) / h_last, (t1 - t_old) / h_last, (t2 - t_old) / h_last
                xx0, xx1, xx2 = x0 * x0, x1 * x1, x2 * x2
                Z0 = (
                    du0 * x0 + du1 * xx0 + du2 * (xx0 * x0) + uo - u,
                    dv0 * x0 + dv1 * xx0 + dv2 * (xx0 * x0) + vo - v,
                    du0 * x1 + du1 * xx1 + du2 * (xx1 * x1) + uo - u,
                    dv0 * x1 + dv1 * xx1 + dv2 * (xx1 * x1) + vo - v,
                    du0 * x2 + du1 * xx2 + du2 * (xx2 * x2) + uo - u,
                    dv0 * x2 + dv1 * xx2 + dv2 * (xx2 * x2) + vo - v,
                )
            else:
                Z0 = (0.0,) * 6
            while True:
                if not inv_ok:  # (sr, jb; jc, pr) / det_r inverts m_real I - J, and
                    # (sc, jb; jc, pc) / det_c inverts m_complex I - J
                    ja, jb, jc, jd = J
                    pr, sr, pc, sc = m_real - ja, m_real - jd, m_complex - ja, m_complex - jd
                    det_r, det_c = pr * sr - jb * jc, pc * sc - jb * jc
                    inv_ok = True
                converged = False
                if det_r != 0.0 and det_c != 0.0:
                    # simplified Newton iteration for the stage increments Z
                    # (3 x 2): a stage value that is not finite, or an
                    # OverflowError in rhs, ends it unconverged
                    z00, z01, z10, z11, z20, z21 = Z0
                    # W = TI Z: the stage increments in the eigenbasis of the Butcher matrix
                    w00, w01 = a0 * z00 + a1 * z10 + a2 * z20, a0 * z01 + a1 * z11 + a2 * z21
                    w10, w11 = b0 * z00 + b1 * z10 + b2 * z20, b0 * z01 + b1 * z11 + b2 * z21
                    w20, w21 = c0 * z00 + c1 * z10 + c2 * z20, c0 * z01 + c1 * z11 + c2 * z21
                    for k in range(_NEWTON_MAXITER):
                        try:
                            f00, f01 = rhs(t0, u + z00, v + z01)
                            f10, f11 = rhs(t1, u + z10, v + z11)
                            f20, f21 = rhs(t2, u + z20, v + z21)
                        except OverflowError:  # math.exp past the float range
                            break
                        if not (isfinite(f00) and isfinite(f01) and isfinite(f10)
                                and isfinite(f11) and isfinite(f20) and isfinite(f21)):
                            break
                        x0 = f00 * a0 + f10 * a1 + f20 * a2 - m_real * w00
                        x1 = f01 * a0 + f11 * a1 + f21 * a2 - m_real * w01
                        dr0, dr1 = (sr * x0 + jb * x1) / det_r, (jc * x0 + pr * x1) / det_r
                        x0 = f00 * g0 + f10 * g1 + f20 * g2 - m_complex * complex(w10, w20)
                        x1 = f01 * g0 + f11 * g1 + f21 * g2 - m_complex * complex(w11, w21)
                        dc0, dc1 = (sc * x0 + jb * x1) / det_c, (jc * x0 + pc * x1) / det_c
                        dc0r, dc1r, dc0i, dc1i = dc0.real, dc1.real, dc0.imag, dc1.imag
                        e0, e1, e2 = dr0 / s0, dr1 / s1, dc0r / s0
                        e3, e4, e5 = dc1r / s1, dc0i / s0, dc1i / s1
                        dW_norm = sqrt(e0 * e0 + e1 * e1 + e2 * e2
                                       + e3 * e3 + e4 * e4 + e5 * e5) / _S6
                        if k:
                            rate = dW_norm / dW_norm_old
                            if rate >= 1.0 or (rate ** (_NEWTON_MAXITER - k) / (1.0 - rate)
                                               * dW_norm > newton_tol):
                                break
                        w00, w01 = w00 + dr0, w01 + dr1
                        w10, w11 = w10 + dc0r, w11 + dc1r
                        w20, w21 = w20 + dc0i, w21 + dc1i
                        # Z = T W
                        z00, z01 = p0 * w00 + p1 * w10 + p2 * w20, p0 * w01 + p1 * w11 + p2 * w21
                        z10, z11 = q0 * w00 + q1 * w10 + q2 * w20, q0 * w01 + q1 * w11 + q2 * w21
                        z20, z21 = r0 * w00 + r1 * w10 + r2 * w20, r0 * w01 + r1 * w11 + r2 * w21
                        if dW_norm == 0.0 or k and rate / (1.0 - rate) * dW_norm < newton_tol:
                            converged = True
                            break
                        dW_norm_old = dW_norm
                    n_iter = k + 1
                    newton_iters += n_iter
                if converged or current_jac:
                    break
                try:
                    jac_evals += 1
                    J = jac(t, u, v)
                except OverflowError:
                    break
                current_jac = True
                inv_ok = False
            if not converged:
                h_abs *= 0.5
                inv_ok = False
                continue
            un, vn = u + z20, v + z21
            ze0 = (z00 * E0 + z10 * E1 + z20 * E2) / h
            ze1 = (z01 * E0 + z11 * E1 + z21 * E2) / h
            x0, x1 = fu + ze0, fv + ze1
            er0, er1 = (sr * x0 + jb * x1) / det_r, (jc * x0 + pr * x1) / det_r
            a, b = abs(u), abs(un)  # below, max(a, b) as max() takes a NaN
            es0 = atol + (b if b > a else a) * rtol
            a, b = abs(v), abs(vn)
            es1 = atol + (b if b > a else a) * rtol
            x0, x1 = er0 / es0, er1 / es1
            error_norm = sqrt(x0 * x0 + x1 * x1) / 2.0 ** 0.5
            safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
            recompute_jac = n_iter > 2 and rate > 1e-3
            try:
                if rejected and error_norm > 1.0:
                    fe0, fe1 = rhs(t, u + er0, v + er1)
                    x0, x1 = fe0 + ze0, fe1 + ze1
                    er0, er1 = (sr * x0 + jb * x1) / det_r, (jc * x0 + pr * x1) / det_r
                    x0, x1 = er0 / es0, er1 / es1
                    error_norm = sqrt(x0 * x0 + x1 * x1) / 2.0 ** 0.5
                if error_norm <= 1.0:
                    fn0, fn1 = rhs(t_new, un, vn)
                    if recompute_jac:
                        jac_evals += 1
                        J_new = jac(t_new, un, vn)
                    else:
                        J_new = J
                    if (isfinite(fn0) and isfinite(fn1) and isfinite(J_new[0])
                            and isfinite(J_new[1]) and isfinite(J_new[2]) and isfinite(J_new[3])):
                        break
                    error_norm = math.nan
            except OverflowError:
                error_norm = math.nan
            if math.isnan(error_norm):  # an overflow fails the step like Newton
                h_abs *= 0.5
                inv_ok = False
                continue
            factor = _predict_factor(h_abs, h_ref, error_norm, err_ref)
            h_abs *= max(_MIN_FACTOR, safety * factor)
            inv_ok = False
            rejected = True

        factor = min(_MAX_FACTOR, safety * _predict_factor(h_abs, h_ref, error_norm, err_ref))
        if not recompute_jac and factor < 1.2:
            factor = 1.0
        else:
            inv_ok = False
        J, current_jac = J_new, recompute_jac
        h_abs_old, error_norm_old = h_next, error_norm
        h_next = h_abs * factor
        # the dense output Q = Z^T P of the step
        du0, du1, du2 = (z00 * P00 + z10 * P10 + z20 * P20, z00 * P01 + z10 * P11 + z20 * P21,
                         z00 * P02 + z10 * P12 + z20 * P22)
        dv0, dv1, dv2 = (z01 * P00 + z11 * P10 + z21 * P20, z01 * P01 + z11 * P11 + z21 * P21,
                         z01 * P02 + z11 * P12 + z21 * P22)
        rows.append((u, du0, du1, du2, v, dv0, dv1, dv2))
        t_old, h_last, uo, vo = t, h, u, v
        t, u, v, fu, fv = t_new, un, vn, fn0, fn1
        ts.append(t)
        if not (abs(u) < _BLOWUP_GUARD and abs(v) < _BLOWUP_GUARD):
            raise errors.BlowupGuardTripped(f"|y| reached {_BLOWUP_GUARD:g} at t = {t:.6g}")
    ts = np.array(ts)
    return StepTable(ts=ts, h=ts[1:] - ts[:-1], coef=np.array(rows).reshape(-1, 2, 4),
                     attempts=attempts, newton_iters=newton_iters, jac_evals=jac_evals)
