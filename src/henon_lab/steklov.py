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
                       profile_evaluators, series_seed)
from .mesh import (RadialFunction, RadialGrid, TridiagForm, build_grid,
                   check_dimension, ldlt, ldlt_solve)
from .special import bessel_i, bessel_i_prime, surface_measure

__all__ = ["SteklovSolution", "steklov_eigenvalue", "solve_steklov",
           "bessel_lambda2", "limit_form_matrix", "limit_form_min_closed",
           "limit_form_min_numeric"]


def _validate(n: int, p: float) -> None:
    check_dimension(n)
    if not 2.0 <= p < np.inf:
        raise ValueError(f"p must be finite and >= 2, got {p}")


def _shoot(n: int, p: float, tol: float, dense: bool = True):
    # Homogeneity: the origin value is arbitrary, 1.0 keeps magnitudes tame.
    seed = series_seed(p, n, 1.0, SEED_RADIUS, 1.0 / n)
    nm1 = n - 1

    def rhs(r, u):
        return r ** nm1 * u ** (p - 1.0)

    return integrate_flux_ode(rhs, seed, 1.0, p=p, n=n, tol=tol, dense=dense)


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
    return _boundary_quotient(_shoot(n, p, tol, dense=False).end, n, p, tol)


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


def solve_steklov(n: int, p: float, *, grid: RadialGrid | None = None,
                  refinement: int = 8, tol: float = 1e-10) -> SteklovSolution:
    """Solve for the eigenpair and normalize the eigenfunction.

    The returned phi carries dense evaluators valid on all of [0, 1]; the
    grid only fixes where nodal values are tabulated and how norms are
    integrated.
    """
    _validate(n, p)
    if grid is None:
        grid = build_grid(n, refinement=refinement)
    elif grid.n != n:
        raise ValueError(f"grid was built for n={grid.n}, requested n={n}")

    traj = _shoot(n, p, tol)
    lam = _boundary_quotient(traj.end, n, p, tol)
    value_fn, grad_fn = profile_evaluators(traj, 1.0, 1.0 / n)
    meas = surface_measure(n)
    rq = grid.quad_x
    uq = value_fn(rq)
    duq = grad_fn(rq)
    norm_p = meas * grid.integrate((np.abs(duq) ** p + np.abs(uq) ** p)
                                   * rq ** (n - 1))
    scale = norm_p ** (-1.0 / p)

    phi = RadialFunction(grid, scale * value_fn(grid.nodes),
                         scale * grad_fn(grid.nodes),
                         _value_fn=lambda r: scale * value_fn(r),
                         _deriv_fn=lambda r: scale * grad_fn(r))
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
    """Closed form for p = 2: lambda_2 = 1 - n/2 + I'_(n/2-1)(1) / I_(n/2-1)(1).

    The p = 2 eigenfunction is r^(1-n/2) I_(n/2-1)(r); differentiating and
    evaluating the boundary quotient gives this expression.
    """
    check_dimension(n)
    nu = n / 2.0 - 1.0
    return 1.0 - n / 2.0 + bessel_i_prime(nu, 1.0) / bessel_i(nu, 1.0)


def limit_form_min_closed(n: int, p: float,
                          lambda_p: float | None = None) -> float:
    """Minimum of the limiting quadratic form over {w : w(1) = 1}, closed form.

    The minimizer is proportional to phi_p' and the minimum value is
    lambda_p^(2/p - 1/(p-1) - 1) |S|^(2/p - 1) (1 - (n-1) lambda_p).
    """
    _validate(n, p)
    if lambda_p is None:
        lambda_p = steklov_eigenvalue(n, p)
    meas = surface_measure(n)
    return (lambda_p ** (2.0 / p - 1.0 / (p - 1.0) - 1.0)
            * meas ** (2.0 / p - 1.0) * (1.0 - (n - 1.0) * lambda_p))


def limit_form_matrix(sol: SteklovSolution,
                      grid: RadialGrid | None = None) -> TridiagForm:
    """P1 matrix of the limiting quadratic form

        Q[w] = int_0^1 [ (p-1)(phi') ^(p-2) w'^2 r^(n-1)
                         + (n-1)(phi')^(p-2) w^2 r^(n-3)
                         + (p-1) phi^(p-2) w^2 r^(n-1) ] dr.

    It is the mode-1 form A of `second_variation.pencil_forms` at mu = 0,
    where q and alpha drop out, with phi_p in place of v.
    """
    # second_variation imports henon, which imports this module.
    from .second_variation import pencil_forms

    if grid is None:
        grid = sol.grid
    a_form, _ = pencil_forms(grid, p=sol.p, n=sol.n, q=2.0, alpha=0.0, mu=0.0,
                             value_fn=sol.phi, deriv_fn=sol.phi.derivative)
    return a_form


def limit_form_min_numeric(sol: SteklovSolution,
                           grid: RadialGrid | None = None
                           ) -> tuple[float, RadialFunction]:
    """Minimize the limiting form over P1 functions with w(1) = 1.

    The constrained minimum solves the interior tridiagonal system with the
    boundary column moved to the right-hand side; the matrix is symmetric
    positive definite, so an LDL^T solve without pivoting suffices.
    """
    if grid is None:
        grid = sol.grid
    form = limit_form_matrix(sol, grid)
    m = form.size - 1  # interior unknowns, node m is pinned at 1
    rhs = np.zeros(m)
    rhs[-1] = -form.off[m - 1]
    w = np.empty(form.size)
    w[:m] = ldlt_solve(*ldlt(form.diag[:m], form.off[:m - 1]), rhs)
    w[m] = 1.0
    return float(form.quad_form(w)), RadialFunction.from_nodes(grid, w)
