"""Direct minimization of the weighted radial quotient over P1 profiles.

An independent route to the ground level: instead of shooting on the
Euler-Lagrange equation, minimize

    Q(u) = S^(1 - p/q) * N(u) / D(u)^(p/q),
    N(u) = int_0^1 (|u'|^p + |u|^p) r^(n-1) dr,
    D(u) = int_0^1 r^(alpha+n-1) |u|^q dr,

over piecewise-linear u > 0 with free boundary values, S the surface
measure.  The descent runs on f(u) = log N - (p/q) log D, whose Hessian
over the node values is a tridiagonal part N''/N - (p/q) D''/D (each cell
couples two nodes) plus the rank-2 part -a a^T + (p/q) b b^T, a = grad N / N,
b = grad D / D.  f is scale invariant, so each damped Newton step is taken
in the hyperplane b^T s = 0; one LDL^T factor of the damped tridiagonal
part and two back-substitutions solve it in O(N).  Agreement of the
minimum with the shooting value cross-checks both routes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError
from .henon import validate_parameters
from .mesh import RadialFunction, RadialGrid, build_grid, ldlt, ldlt_solve
from .special import surface_measure

__all__ = ["VariationalResult", "minimize_quotient"]

_MAX_STEPS = 100     # accepted Newton steps
_GRAD_TOL = 1e-10    # on max |u_i df/du_i|, which is scale free
_ROUNDING = 4 * np.finfo(float).eps  # rounding allowance on f and on u
_ARMIJO = 1e-4       # sufficient-decrease fraction of the Newton slope
_HALVINGS = 4        # backtracks before the damping is raised instead
_MAX_DAMPING = 1e12  # beyond it the step is too short to make progress


@dataclass
class VariationalResult:
    """Outcome of the direct quotient minimization."""

    mu: float
    v: RadialFunction          # minimizer, W^1_p norm one on the ball
    history: list[float]       # quotient at the start and at each step
    diagnostics: dict = field(default_factory=dict)


@dataclass
class MinimizeResult:
    """Final node values and work counts of `minimize`."""

    x: np.ndarray
    nit: int        # accepted Newton steps
    nfev: int       # quotient evaluations
    success: bool   # the gradient test was met
    message: str


class _Point(NamedTuple):
    """f = log N - ratio log D at u, its gradient and curvature pieces."""

    f: float
    num: float         # N
    scale: float       # 1 + |log N| + ratio |log D|; f is exact to eps times it
    grad: np.ndarray   # a - ratio b
    a: np.ndarray      # grad N / N
    b: np.ndarray      # grad D / D
    diag: np.ndarray   # tridiagonal part N''/N - ratio D''/D
    off: np.ndarray


class _LogQuotient:
    """Value, gradient and Hessian pieces of log N - (p/q) log D."""

    def __init__(self, grid: RadialGrid, p: float, q: float, alpha: float):
        n = grid.n
        xs = grid.quad_x
        self.p, self.q, self.ratio = p, q, p / q
        self.cells = grid.quad_cell
        self.size = grid.num_nodes
        self.calls = 0
        self.h = grid.widths()[self.cells]
        self.phi_r = (xs - grid.nodes[self.cells]) / self.h
        self.phi_l = 1.0 - self.phi_r
        self.vol = grid.quad_w * xs ** (n - 1)
        self.wgt = grid.quad_w * xs ** (alpha + n - 1.0)

    def _nodes(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Per-abscissa contributions to the left and right node, summed."""
        cells = self.size - 1
        out = np.zeros(self.size)
        out[:-1] += np.bincount(self.cells, left, minlength=cells)
        out[1:] += np.bincount(self.cells, right, minlength=cells)
        return out

    def __call__(self, u: np.ndarray) -> _Point:
        self.calls += 1
        p, q, ratio = self.p, self.q, self.ratio
        phi_l, phi_r, h = self.phi_l, self.phi_r, self.h
        with np.errstate(all="ignore"):
            u_l, u_r = u[self.cells], u[self.cells + 1]
            uq = u_l * phi_l + u_r * phi_r
            du = (u_r - u_l) / h
            abs_du = np.abs(du)
            up_2, dp_2, uq_2 = uq ** (p - 2.0), abs_du ** (p - 2.0), uq ** (q - 2.0)
            num = float(np.dot(self.vol, abs_du * abs_du * dp_2 + uq * uq * up_2))
            den = float(np.dot(self.wgt, uq * uq * uq_2))
            log_num, log_den = np.log(num), np.log(den)

            # First and second derivatives against the P1 hat functions.
            flux = self.vol * p * dp_2 * du / h
            mass_n = self.vol * p * up_2 * uq
            mass_d = self.wgt * q * uq_2 * uq
            a = self._nodes(mass_n * phi_l - flux, mass_n * phi_r + flux) / num
            b = self._nodes(mass_d * phi_l, mass_d * phi_r) / den
            stiff = self.vol * p * (p - 1.0) * dp_2 / (h * h * num)
            curv = (self.vol * p * (p - 1.0) * up_2 / num
                    - ratio * self.wgt * q * (q - 1.0) * uq_2 / den)
            diag = self._nodes(stiff + curv * phi_l ** 2,
                               stiff + curv * phi_r ** 2)
            off = np.bincount(self.cells, curv * phi_l * phi_r - stiff,
                              minlength=self.size - 1)
            point = _Point(float(log_num - ratio * log_den), num,
                           1.0 + abs(log_num) + ratio * abs(log_den),
                           a - ratio * b, a, b, diag, off)
        if not all(np.all(np.isfinite(x)) for x in point):
            raise ConvergenceError(
                f"quotient evaluation is not finite (N = {num:.6g}, "
                f"D = {den:.6g})")
        return point


def _gradient_floor(point: _Point, u: np.ndarray) -> np.ndarray:
    """Rounding floor of u * grad f: eps-relative changes of the node values
    move grad f by up to eps |H| u, dominated by the tridiagonal part."""
    spread = np.abs(point.diag) * u
    spread[:-1] += np.abs(point.off) * u[1:]
    spread[1:] += np.abs(point.off) * u[:-1]
    return _ROUNDING * u * spread


def _newton_step(point: _Point, damping: float) -> np.ndarray | None:
    """Minimizer of the damped quadratic model of f over b^T s = 0.

    With T the damped tridiagonal part and y_a = T^-1 a, y_b = T^-1 b, the
    bordered system (T - a a^T) s + nu b = -g, b^T s = 0 has the solution
    s = (y_a - (a.y_b / b.y_b) y_b) / (sigma - 1), where
    sigma = a.y_a - (a.y_b)^2 / b.y_b (Sherman-Morrison on the rank-1 part;
    the b b^T part vanishes on the hyperplane).  Returns None unless the
    model is positive definite on the hyperplane: by Haynsworth inertia T
    has no negative direction there iff it has no negative pivot, or one
    with b.y_b < 0; then T - a a^T is definite iff sigma < 1.
    """
    # Levenberg-Marquardt damping, scaled by the diagonal.
    pivots, multipliers = ldlt(point.diag + damping * np.abs(point.diag),
                               point.off)
    y_a = ldlt_solve(pivots, multipliers, point.a)
    y_b = ldlt_solve(pivots, multipliers, point.b)
    g_ab, g_bb = float(np.dot(point.a, y_b)), float(np.dot(point.b, y_b))
    sigma = float(np.dot(point.a, y_a)) - g_ab * g_ab / g_bb
    if not math.isfinite(sigma):
        raise ConvergenceError("Newton step is not finite")
    negative = sum(piv < 0.0 for piv in pivots) - (g_bb < 0.0)
    if negative != 0 or not sigma < 1.0:
        return None
    with np.errstate(all="ignore"):
        step = (y_a - (g_ab / g_bb) * y_b) / (sigma - 1.0)
    if not np.all(np.isfinite(step)):
        raise ConvergenceError("Newton step is not finite")
    return step


def _line_search(evaluate: _LogQuotient, u: np.ndarray, point: _Point,
                 step: np.ndarray):
    """Armijo backtracking along `step` from the longest t <= 1 that keeps
    u > 0.  Returns (t, new iterate, its point), or None after _HALVINGS.

    Near the minimum f is flat to rounding, so a trial whose f is within
    rounding of the current one is judged by the trapezoid estimate
    t (g.s + g_new.s) / 2 of its decrease, which errs by O(t^3 |s|^3) only.
    """
    slope = float(np.dot(point.grad, step))
    rounding = _ROUNDING * point.scale
    t = 1.0
    while np.any(u + t * step <= 0.0):
        t *= 0.5
    for _ in range(_HALVINGS + 1):
        trial = u + t * step
        trial /= np.max(trial)
        new = evaluate(trial)
        decrease = _ARMIJO * t * slope
        if new.f - point.f <= decrease:
            return t, trial, new
        new_slope = float(np.dot(new.grad, step))
        if (new.f - point.f <= rounding
                and 0.5 * t * (slope + new_slope) <= decrease):
            return t, trial, new
        t *= 0.5
    return None


def minimize(evaluate: _LogQuotient, x0: np.ndarray,
             callback=None) -> MinimizeResult:
    """Damped Newton descent on the scale-free f = log N - (p/q) log D.

    Each step minimizes the Levenberg-damped quadratic model in the
    hyperplane b^T s = 0 (`_newton_step`) and goes through an Armijo line
    search (`_line_search`).  The damping is raised tenfold whenever the
    model is indefinite or the search fails, and lowered tenfold after a
    full step (Nocedal & Wright ch. 3 and 10).  Iterates are rescaled to
    max u = 1, which leaves f unchanged and keeps u^q in range.  The
    gradient test is |u_i df/du_i| <= _GRAD_TOL plus its rounding floor at
    every node.  `callback(f)` sees the start and every accepted iterate.
    """
    u = x0 / np.max(x0)
    point = evaluate(u)
    nit, damping = 0, 0.0
    if callback is not None:
        callback(point.f)
    while True:
        if np.all(np.abs(u * point.grad)
                  <= _GRAD_TOL + _gradient_floor(point, u)):
            return MinimizeResult(u, nit, evaluate.calls, True,
                                  "gradient test met")
        if nit == _MAX_STEPS:
            return MinimizeResult(u, nit, evaluate.calls, False,
                                  f"step cap of {_MAX_STEPS} reached")
        if damping > _MAX_DAMPING:
            return MinimizeResult(u, nit, evaluate.calls, False,
                                  "line search stalled")
        step = _newton_step(point, damping)
        found = None if step is None else _line_search(
            evaluate, u, point, step)
        if found is None:
            damping = max(10.0 * damping, 1e-3)
            continue
        t, u, point = found
        nit += 1
        if callback is not None:
            callback(point.f)
        if t == 1.0:
            damping = 0.0 if damping < 1e-6 else 0.1 * damping


def minimize_quotient(n: int, p: float, q: float, alpha: float, *,
                      grid: RadialGrid | None = None,
                      refinement: int = 7) -> VariationalResult:
    """Minimize the radial quotient directly; no shooting involved.

    The discrete minimum overestimates the continuum level by the P1
    interpolation error, so the returned mu exceeds the shooting value by
    O(grid^(-2)) but never sits meaningfully below it.  Raises
    ConvergenceError if the quotient or a step stops being finite.
    """
    validate_parameters(n, p, q, alpha)
    if grid is None:
        grid = build_grid(n, refinement=refinement, alpha_hint=alpha)
    measure = surface_measure(n)
    prefactor = measure ** (1.0 - p / q)
    evaluate = _LogQuotient(grid, p, q, alpha)
    history: list[float] = []

    def record(f):
        history.append(prefactor * float(np.exp(f)))

    try:
        # 1 + r^2, not a constant: |u'|^(p-2) vanishes on a constant, so for
        # p > 2 its Newton model has no stiffness.  Over the first 20
        # `radial --oracle` points of the benchmark seeds 1-10 the constant
        # start took a median of 15 steps (at most 100), this one 7 (31).
        res = minimize(evaluate, 1.0 + grid.nodes ** 2, callback=record)
        point = evaluate(res.x)
    except ArithmeticError as exc:
        raise ConvergenceError(f"quotient minimization broke down: {exc}")
    mu = history[-1]
    # Same normalization convention as the shooting route: the full-ball
    # W^1_p norm, surface measure included, equals one.
    scale = (measure * point.num) ** (1.0 / p)
    diagnostics = {"iterations": res.nit, "evaluations": res.nfev,
                   "converged": res.success, "message": res.message,
                   # |grad Q| at the returned profile, of W^1_p norm one
                   "grad_norm": float(mu * scale * np.linalg.norm(point.grad))}
    return VariationalResult(mu=float(mu),
                             v=RadialFunction.from_nodes(grid, res.x / scale),
                             history=history, diagnostics=diagnostics)
