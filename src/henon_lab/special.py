"""Modified Bessel functions of the first kind, Gamma, and sphere measures."""
from __future__ import annotations

import math

__all__ = ["bessel_i", "bessel_i_prime", "gamma_fn", "surface_measure"]

_MAX_ARG = 10.0


def _bessel_series(nu: float, x: float) -> float:
    # sum_k (x/2)^(2k+nu) / (k! Gamma(nu+k+1)); all terms positive for
    # nu > -1 and x > 0, so the sum carries no cancellation.
    half = 0.5 * x
    term = math.exp(nu * math.log(half) - math.lgamma(nu + 1.0))
    total = term
    ratio = half * half
    for k in range(1, 200):
        term *= ratio / (k * (nu + k))
        total += term
        if term <= 1e-17 * total:
            return total
    raise ValueError(f"Bessel series did not converge for nu={nu}, x={x}")


def _check_bessel_args(nu: float, x: float) -> None:
    if nu < 0:
        raise ValueError(f"order must be >= 0, got {nu}")
    if not 0.0 < x <= _MAX_ARG:
        raise ValueError(f"argument must lie in (0, {_MAX_ARG}], got {x}")


def bessel_i(nu: float, x: float) -> float:
    """I_nu(x) by power series; relative error below 1e-12 on (0, 10]."""
    _check_bessel_args(nu, x)
    return _bessel_series(nu, x)


def bessel_i_prime(nu: float, x: float) -> float:
    """I_nu'(x) via the recurrence I_nu' = I_(nu-1) - (nu/x) I_nu.

    The series core accepts orders down to nu - 1 > -1, which the
    recurrence needs at half-integer orders below 1.
    """
    _check_bessel_args(nu, x)
    if nu == 0.0:
        return _bessel_series(1.0, x)
    return _bessel_series(nu - 1.0, x) - nu / x * _bessel_series(nu, x)


def gamma_fn(x: float) -> float:
    """Gamma(x) for positive real x."""
    if x <= 0:
        raise ValueError(f"argument must be positive, got {x}")
    return math.gamma(x)


def surface_measure(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (0.5 * n) / gamma_fn(0.5 * n)
