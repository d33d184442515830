"""Bracketed scalar root finding (Brent's method)."""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BracketError, ConvergenceError

__all__ = ["brent_root", "sign_change_pairs"]


def brent_root(f: Callable[[float], float], a: float, b: float, *,
               f_tol: float = 1e-12, x_tol: float = 1e-13,
               max_iter: int = 200, fa: float | None = None,
               fb: float | None = None) -> float:
    """Root of f in [a, b], accepted on either |f| <= f_tol or bracket
    collapse below x_tol.

    Inverse-quadratic / secant steps with bisection safeguarding.  The
    bracket must straddle a sign change, and the method keeps one at every
    step, so an interval narrowed to x_tol has located the root to that
    accuracy even when f is too noisy near it to pass the f test (the value
    floor is ~ |f'| x_tol plus whatever noise f itself carries).  Raises
    ConvergenceError only when max_iter is spent with neither criterion met.
    """
    a, b = float(a), float(b)
    fa = float(f(a)) if fa is None else float(fa)
    fb = float(f(b)) if fb is None else float(fb)
    return _brent(f, a, b, fa, fb, f_tol, x_tol, max_iter)


def _brent(f, a, b, fa, fb, f_tol, x_tol, max_iter):
    # brent_root after its argument handling.  flux_ode locates ODE events
    # with this core, so that each brent_root call stays one root solve of a
    # solver (perfbench/tracer.py counts those calls).
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketError(f"no sign change on [{a:.6g}, {b:.6g}]: "
                           f"f(a)={fa:.6g}, f(b)={fb:.6g}")

    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if math.copysign(1.0, fb) == math.copysign(1.0, fc):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * x_tol
        xm = 0.5 * (c - b)
        if abs(fb) <= f_tol:
            return b
        if abs(xm) <= tol1:
            return b if abs(fb) <= abs(fc) else c
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                pnum = 2.0 * xm * s
                pden = 1.0 - s
            else:
                qa = fa / fc
                qb = fb / fc
                pnum = s * (2.0 * xm * qa * (qa - qb) - (b - a) * (qb - 1.0))
                pden = (qa - 1.0) * (qb - 1.0) * (s - 1.0)
            if pnum > 0:
                pden = -pden
            pnum = abs(pnum)
            if 2.0 * pnum < min(3.0 * xm * pden - abs(tol1 * pden), abs(e * pden)):
                e, d = d, pnum / pden
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = float(f(b))
    if abs(fb) <= f_tol:
        return b
    raise ConvergenceError(
        f"root iteration exhausted near x={b:.9g} with |f|={abs(fb):.3g} > "
        f"{f_tol:.3g} and bracket width {abs(c - b):.3g} > {x_tol:.3g}")


def sign_change_pairs(fs) -> list[int]:
    """Indices i such that [i, i+1] brackets a root (sign change or exact zero)."""
    fs = np.asarray(fs, dtype=float)
    s = np.sign(fs)
    return [int(i) for i in np.nonzero((s[:-1] * s[1:] < 0) | (s[1:] == 0.0))[0]]
