"""Direct minimization of the weighted radial quotient over P1 profiles.

An independent route to the ground level: instead of shooting on the
Euler-Lagrange equation, minimize

    Q(u) = S^(1 - p/q) * N(u) / D(u)^(p/q),
    N(u) = int_0^1 (|u'|^p + |u|^p) r^(n-1) dr,
    D(u) = int_0^1 r^(alpha+n-1) |u|^q dr,

over piecewise-linear u > 0 with free boundary values, S the surface
measure.  The quotient is scale invariant and smooth away from u = 0, so a
quasi-Newton descent from the constant profile converges to the radial
ground level; agreement with the shooting value cross-checks both routes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import ConvergenceError
from .henon import validate_parameters
from .mesh import RadialFunction, RadialGrid, build_grid
from .special import surface_measure

__all__ = ["VariationalResult", "minimize_quotient"]

_FLOOR = 1e-12  # lower bound on node values; keeps |u|^(q-2) finite
_MAX_ITER = 2000  # L-BFGS iterations; evaluations are capped at ten times this


@dataclass
class VariationalResult:
    """Outcome of the direct quotient minimization."""

    n: int
    p: float
    q: float
    alpha: float
    mu: float
    v: RadialFunction          # minimizer, W^1_p norm one on the ball
    history: list[float]       # quotient at the start and at each iterate
    diagnostics: dict = field(default_factory=dict)


def _quotient_pieces(grid: RadialGrid, p: float, q: float, alpha: float):
    n = grid.n
    xs = grid.quad_x
    cells = grid.quad_cell
    h = grid.widths()[cells]
    phi_r = (xs - grid.nodes[cells]) / h
    phi_l = 1.0 - phi_r
    vol = grid.quad_w * xs ** (n - 1)
    wgt = grid.quad_w * xs ** (alpha + n - 1.0)
    size = grid.num_nodes

    def evaluate(u: np.ndarray):
        """(Q, grad Q) for node values u > 0."""
        uq = u[cells] * phi_l + u[cells + 1] * phi_r
        du = (u[cells + 1] - u[cells]) / h
        abs_du = np.abs(du)
        num = float(np.dot(vol, abs_du ** p + uq ** p))
        den = float(np.dot(wgt, uq ** q))
        quotient = num / den ** (p / q)

        # dN and dD against the P1 hat functions, accumulated per node.
        coef_du = vol * p * abs_du ** (p - 1.0) * np.sign(du) / h
        coef_u = vol * p * uq ** (p - 1.0)
        coef_d = wgt * q * uq ** (q - 1.0)
        dnum = np.zeros(size)
        dden = np.zeros(size)
        np.add.at(dnum, cells, coef_u * phi_l - coef_du)
        np.add.at(dnum, cells + 1, coef_u * phi_r + coef_du)
        np.add.at(dden, cells, coef_d * phi_l)
        np.add.at(dden, cells + 1, coef_d * phi_r)
        grad = quotient * (dnum / num - (p / q) * dden / den)
        return quotient, grad, num

    return evaluate


def minimize_quotient(n: int, p: float, q: float, alpha: float, *,
                      grid: RadialGrid | None = None,
                      refinement: int = 7) -> VariationalResult:
    """Minimize the radial quotient directly; no shooting involved.

    The discrete minimum overestimates the continuum level by the P1
    interpolation error, so the returned mu exceeds the shooting value by
    O(grid^(-2)) but never sits meaningfully below it.
    """
    validate_parameters(n, p, q, alpha)
    if grid is None:
        grid = build_grid(n, refinement=refinement, alpha_hint=alpha)
    measure = surface_measure(n)
    prefactor = measure ** (1.0 - p / q)
    evaluate = _quotient_pieces(grid, p, q, alpha)

    def objective(u):
        quotient, grad, _ = evaluate(u)
        return prefactor * quotient, prefactor * grad

    history: list[float] = []

    def record(u):
        history.append(float(objective(u)[0]))

    start = np.full(grid.num_nodes, (n / measure) ** (1.0 / p))
    record(start)
    res = minimize(objective, start, jac=True, method="L-BFGS-B",
                   bounds=[(_FLOOR, None)] * grid.num_nodes,
                   callback=record,
                   options={"maxiter": _MAX_ITER, "maxfun": 10 * _MAX_ITER,
                            "ftol": 1e-14, "gtol": 1e-10})
    if not res.success and "ITERATIONS" not in str(res.message).upper():
        raise ConvergenceError(
            f"quotient minimization stalled: {res.message}")

    u = np.asarray(res.x, dtype=float)
    quotient, grad, num = evaluate(u)
    mu = prefactor * quotient
    # Same normalization convention as the shooting route: the full-ball
    # W^1_p norm, surface measure included, equals one.
    values = u / (measure * num) ** (1.0 / p)
    diagnostics = {"iterations": int(res.nit), "evaluations": int(res.nfev),
                   "converged": bool(res.success),
                   "message": str(res.message),
                   "grad_norm": float(np.linalg.norm(prefactor * grad))}
    return VariationalResult(n=n, p=p, q=q, alpha=alpha, mu=float(mu),
                             v=RadialFunction.from_nodes(grid, values),
                             history=history, diagnostics=diagnostics)
