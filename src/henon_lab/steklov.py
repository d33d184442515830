"""Nonlinear Steklov eigenproblem on the unit ball and its limiting form.

The first eigenvalue lambda_p and its radial eigenfunction phi_p solve

    -(r^(n-1) (phi')^(p-1))' + r^(n-1) phi^(p-1) = 0,   phi > 0, phi' > 0,

with the boundary relation (phi'(1))^(p-1) = lambda_p phi(1)^(p-1).  Because
the equation is homogeneous, a single outward integration from an arbitrary
origin value yields the eigenvalue as flux(1) / u(1)^(p-1); no shooting loop
is needed.  The eigenfunction is then rescaled to unit W^1_p norm, which
pins the boundary value at (lambda_p * |S|)^(-1/p).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .flux_ode import (SEED_RADIUS, FluxState, integrate_flux_ode,
                       step_quadrature)
from .mesh import RadialFunction, RadialGrid, build_grid, check_dimension
from .special import bessel_i, surface_measure

__all__ = ["SteklovSolution", "steklov_eigenvalue", "solve_steklov",
           "bessel_lambda2", "limit_form_min_closed"]


def _validate(n: int, p: float) -> None:
    check_dimension(n)
    if not 2.0 <= p <= n:
        raise ValueError(f"need 2 <= p <= n, got p={p} at n={n}")


def _shoot(n: int, p: float, tol: float):
    # Homogeneity: the origin value is arbitrary, 1.0 keeps magnitudes tame.
    return integrate_flux_ode(1.0, 1.0 / n, p=p, n=n, tol=tol)


def _boundary_quotient(end: FluxState, n: int, p: float, tol: float) -> float:
    """lambda_p = F(1) / u(1)^(p-1) of a shot, checked to lie in (0, 1/n)."""
    lam = end.flux / end.value ** (p - 1.0)
    if not 0.0 < lam < 1.0 / n:
        raise ConvergenceError(
            f"eigenvalue quotient {lam:.6g} escaped (0, 1/n); "
            f"integration tolerance {tol:g} is likely too loose")
    return float(lam)


def steklov_eigenvalue(n: int, p: float, *, tol: float = 1e-10) -> float:
    """First Steklov eigenvalue lambda_p, by a single outward integration.

    The value is a boundary quotient of the integrated profile and does not
    involve any spatial grid, so it is cheap enough for parameter scans.
    """
    _validate(n, p)
    return _boundary_quotient(_shoot(n, p, tol).end, n, p, tol)


@dataclass
class SteklovSolution:
    """Eigenpair (lambda_p, phi_p) with phi_p normalized in W^1_p."""

    n: int
    p: float
    lambda_p: float
    phi: RadialFunction
    phi0: float  # phi_p(0)
    phi1: float  # phi_p(1), equals (lambda_p |S|)^(-1/p)
    surface_measure: float
    grid: RadialGrid
    diagnostics: dict = field(default_factory=dict)


def solve_steklov(n: int, p: float, *, refinement: int = 8,
                  tol: float = 1e-10) -> SteklovSolution:
    """Solve for the eigenpair and normalize the eigenfunction.

    The returned phi carries dense evaluators valid on all of [0, 1].  The
    W^1_p norm is integrated on the steps of the shot (`step_quadrature`);
    the grid at `refinement` only fixes where nodal values are tabulated.
    """
    _validate(n, p)
    grid = build_grid(n, refinement=refinement)

    traj = _shoot(n, p, tol)
    lam = _boundary_quotient(traj.end, n, p, tol)
    meas = surface_measure(n)
    rq, weights = step_quadrature(traj)
    values, slopes = traj.profile_at(rq)
    norm_p = meas * float(np.dot(weights, (np.abs(slopes) ** p
                                           + np.abs(values) ** p)
                                 * rq ** (n - 1)))
    scale = norm_p ** (-1.0 / p)

    phi = traj.tabulate(grid, scale)
    phi1_exact = (lam * meas) ** (-1.0 / p)
    diagnostics = {
        "ode_steps": int(traj.rs.size),
        "ode_tol": tol,
        "seed_radius": SEED_RADIUS,
        "w1p_norm_raw": float(norm_p ** (1.0 / p)),
        # |phi(1) - (lambda |S|)^(-1/p)| / phi(1): quadrature + ODE error.
        "boundary_identity_rel_err": float(abs(phi.boundary_value - phi1_exact)
                                           / phi1_exact),
    }
    return SteklovSolution(n=n, p=p, lambda_p=lam, phi=phi,
                           phi0=float(phi.origin_value),
                           phi1=float(phi.boundary_value),
                           surface_measure=meas, grid=grid,
                           diagnostics=diagnostics)


def bessel_lambda2(n: int) -> float:
    """Closed form for p = 2: lambda_2 = I_(n/2)(1) / I_(n/2-1)(1).

    The p = 2 eigenfunction is r^(1-n/2) I_(n/2-1)(r), whose boundary
    quotient is 1 - n/2 + I'_(n/2-1)(1) / I_(n/2-1)(1); the recurrence
    I'_nu = I_(nu+1) + (nu/x) I_nu turns it into a ratio of two positive
    series, free of the cancellation in the derivative form.
    """
    check_dimension(n)
    return bessel_i(n / 2.0, 1.0) / bessel_i(n / 2.0 - 1.0, 1.0)


def limit_form_min_closed(n: int, p: float, lambda_p: float) -> float:
    """Minimum of the limiting quadratic form over {w : w(1) = 1}, closed form.

    The minimizer is proportional to phi_p' and the minimum value is
    lambda_p^(2/p - 1/(p-1) - 1) |S|^(2/p - 1) (1 - (n-1) lambda_p).
    `second_variation.limit_form_min_numeric` is the P1 counterpart.
    """
    _validate(n, p)
    meas = surface_measure(n)
    return (lambda_p ** (2.0 / p - 1.0 / (p - 1.0) - 1.0)
            * meas ** (2.0 / p - 1.0) * (1.0 - (n - 1.0) * lambda_p))
