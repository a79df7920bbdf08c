"""The largest real root of a polynomial with float coefficients, by
bisection with exact signs, with no LAPACK call.

The float coefficients are exact rationals with power-of-two denominators,
so one common scale makes them integers, and the sign of the polynomial at
any float, or at the midpoint of two floats, is exact in integer
arithmetic.  The real roots are isolated recursively: the polynomial is
monotone between consecutive real roots of its derivative, so each of
those intervals holds at most one root, which bisection on the float
ordering brackets between two neighbouring floats in at most 64 halvings;
the sign at their midpoint picks the nearer.  So each root found is the
float nearest the exact root of the given coefficients.  find_thresholds
reads the largest root of the minus quintic (residuals module docstring)
here rather than from the companion matrix's eigenvalues: those cost a
LAPACK call, whose first use maps about 1 MB into verify's peak, and were
7.2e-16 relative off that root at n = 3, m = 0.1, theta1^- = -1, where
this is 1.9e-17 off.
"""

from __future__ import annotations

import math
import struct

from . import errors

__all__ = ["largest_real_root"]


def _float_key(x: float) -> int:
    """An integer that orders floats as their values do: consecutive floats
    have consecutive keys, and -0.0 and 0.0 share the key 0."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def _key_float(k: int) -> float:
    """The float whose _float_key is k."""
    return struct.unpack("<d", struct.pack("<Q", k if k >= 0 else -k | 1 << 63))[0]


def _sign_at(U, num: int, den: int) -> int:
    """The sign of the polynomial with integer coefficients U (highest power
    first) at num/den, den > 0, in exact integer arithmetic."""
    acc, den_k = U[0], 1
    for u in U[1:]:
        den_k *= den
        acc = acc * num + u * den_k
    return (acc > 0) - (acc < 0)


def _root_between(U, a: float, b: float):
    """The root of U in [a, b], a < b, rounded to the nearest float, if U
    changes sign there or vanishes at an end; else None.  U must be
    monotone on [a, b].  Bisects the float keys (at most 64 halvings) to
    two neighbouring floats, and picks the one on the root's side of their
    midpoint."""
    sa, sb = _sign_at(U, *a.as_integer_ratio()), _sign_at(U, *b.as_integer_ratio())
    if sa == 0 or sb == 0:
        return a if sa == 0 else b
    if sa == sb:
        return None
    lo, hi = _float_key(a), _float_key(b)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s = _sign_at(U, *_key_float(mid).as_integer_ratio())
        if s == 0:
            return _key_float(mid)
        lo, hi = (mid, hi) if s == sa else (lo, mid)
    (pa, qa), (pb, qb) = _key_float(lo).as_integer_ratio(), _key_float(hi).as_integer_ratio()
    nearer_hi = _sign_at(U, pa * qb + pb * qa, 2 * qa * qb) == sa
    return _key_float(hi if nearer_hi else lo)


def _real_roots(U) -> list:
    """The real roots of the polynomial with integer coefficients U
    (highest power first, U[0] != 0), ascending, each the float nearest
    it.  U is monotone between the real roots of its derivative, and all
    its roots lie within twice Fujiwara's bound 2 max_k |U_k/U_0|^(1/k),
    so each such interval holds at most one root, found by _root_between.
    The bound is capped at 4 e^708 (1.2e308), beyond which no root is
    sought, and a multiple root that falls between two floats can be
    missed."""
    d = len(U) - 1
    if d == 0:
        return []
    logs = [(math.log(abs(u)) - math.log(abs(U[0]))) / k for k, u in enumerate(U[1:], 1) if u]
    bound = 4.0 * math.exp(min(max(logs, default=0.0), 708.0))
    ends = [-bound, *_real_roots([u * (d - k) for k, u in enumerate(U[:-1])]), bound]
    roots = []
    for a, b in zip(ends, ends[1:]):
        root = _root_between(U, a, b)
        if root is not None and root not in roots[-1:]:
            roots.append(root)
    return roots


def largest_real_root(coeffs) -> float:
    """The largest real root of the polynomial with finite float
    coefficients coeffs (highest power first), the float nearest the
    root of those exact coefficients; NonConvergent if it has none within
    the float range."""
    ratios = [float(c).as_integer_ratio() for c in coeffs]
    den = max(q for _, q in ratios)  # powers of 2, so den // q is exact
    U = [num * (den // q) for num, q in ratios]
    while U and U[0] == 0:
        U.pop(0)
    roots = _real_roots(U) if U else []
    if not roots:
        raise errors.NonConvergent(f"the polynomial {list(coeffs)} has no real root "
                                   "within the float range")
    return roots[-1]
