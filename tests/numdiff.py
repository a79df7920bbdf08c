"""Finite-difference derivatives for checking analytic derivative evaluators."""

from typing import Callable


def fd_derivative(
    f: Callable[[float], float],
    x: float,
    order: int = 1,
    scale: float = 1.0,
) -> float:
    """4th-order central finite difference of order 1 or 2 at x.

    First derivative uses h = 1e-5*scale.  Second derivative uses
    h = 1e-3*scale: the second difference has a roundoff floor of about
    30*eps/h^2, so h = 1e-5 could never certify 1e-6 agreement; 1e-3
    balances roundoff (~3e-10) against the h^4 truncation term.
    """
    if order == 1:
        h = 1e-5 * scale
        return (
            -f(x + 2 * h) + 8.0 * f(x + h) - 8.0 * f(x - h) + f(x - 2 * h)
        ) / (12.0 * h)
    if order == 2:
        h = 1e-3 * scale
        return (
            -f(x + 2 * h)
            + 16.0 * f(x + h)
            - 30.0 * f(x)
            + 16.0 * f(x - h)
            - f(x - 2 * h)
        ) / (12.0 * h * h)
    raise ValueError(f"order must be 1 or 2, got {order}")
