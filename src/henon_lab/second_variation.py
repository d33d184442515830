"""Second variation of the quotient at a ground state, mode by mode.

For an angular mode of index ell >= 1 the second variation along
perturbations h(r) Y_ell reduces to the quadratic pencil A - sigma B with

    A[h] = int_0^1 [ (p-1)(v')^(p-2) h'^2 r^(n-1)
                     + ell(ell+n-2) (v')^(p-2) h^2 r^(n-3)
                     + (p-1) v^(p-2) h^2 r^(n-1)
                     - (q-1) mu^(q/p) r^(alpha+n-1) v^(q-2) h^2 ] dr,
    B[h] = int_0^1 [ h'^2 r^(n-1) + ell(ell+n-2) h^2 r^(n-3)
                     + h^2 r^(n-1) ] dr.

sigma = min eig(A, B) decides stability of the mode: positive means the
ground state is a strict local minimizer in that direction.  B is positive
definite, so the minimum eigenvalue is found by Sturm-sequence bisection on
the tridiagonal P1 matrices followed by shifted inverse iteration, which
stops on a backward error measured against |A||h| and raises
ConvergenceError when it cannot meet it.  Both use the LDL^T sweep of
A - s B (`mesh.ldlt`), on numpy alone.  The dense solve `dense_min_eig`,
which loads scipy, is a reference for tests only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, SolverError
from .henon import HenonSolution, solve_henon
from .mesh import (ZERO_PIVOT, RadialFunction, RadialGrid, TridiagForm,
                   assemble_forms, ldlt)
from .mesh import ldlt_solve as solve_banded  # perfbench counts this name
from .rootfind import brent_root, sign_change_pairs

__all__ = ["PencilResult", "pencil_forms", "second_variation_forms",
           "pencil_min_eig", "min_second_variation", "eigenprofile_steepness",
           "EigenprofileReport", "eigenprofile_properties",
           "schrodinger_potential", "PotentialProfile", "potential_profile",
           "potential_sign_change", "ScanCell", "PositivityScan",
           "positivity_scan"]


def pencil_forms(grid: RadialGrid, *, p: float, n: int, q: float,
                 alpha: float, mu: float, value_fn: Callable,
                 deriv_fn: Callable, ell: int = 1
                 ) -> tuple[TridiagForm, TridiagForm]:
    """Assemble (A, B) for the given profile evaluators.

    mu = 0 drops the focusing term, which turns A into the limiting form of
    the Steklov eigenfunction; the stability analysis leans on that shared
    code path.
    """
    if not (isinstance(ell, (int, np.integer)) and ell >= 1):
        raise ValueError(f"angular index must be an integer >= 1, got {ell!r}")
    ang = float(ell * (ell + n - 2))
    muf = mu ** (q / p)

    def weight(r):
        return np.abs(deriv_fn(r)) ** (p - 2.0)

    def stiff_a(r):
        return (p - 1.0) * weight(r) * r ** (n - 1)

    def mass_a(r):
        vals = np.abs(value_fn(r))
        return (ang * weight(r) * r ** (n - 3.0)
                + (p - 1.0) * vals ** (p - 2.0) * r ** (n - 1)
                - (q - 1.0) * muf * r ** (alpha + n - 1.0) * vals ** (q - 2.0))

    def stiff_b(r):
        return r ** (n - 1.0)

    def mass_b(r):
        return ang * r ** (n - 3.0) + r ** (n - 1.0)

    # (v')^(p-2) degenerates like r^((p-2)/(p-1)) at the origin for p > 2;
    # B's coefficients are smooth, so only A needs the substituted first cell.
    first_cell = p / (p - 1.0) if p > 2.0 else None
    a_form = assemble_forms(grid, stiff_a, mass_a, first_cell_exponent=first_cell)
    b_form = assemble_forms(grid, stiff_b, mass_b)
    return a_form, b_form


def second_variation_forms(sol: HenonSolution, ell: int = 1,
                           grid: RadialGrid | None = None
                           ) -> tuple[TridiagForm, TridiagForm]:
    """Pencil of the second variation at a solved ground state."""
    if grid is None:
        grid = sol.grid
    return pencil_forms(grid, p=sol.p, n=sol.n, q=sol.q, alpha=sol.alpha,
                        mu=sol.mu, value_fn=sol.v, deriv_fn=sol.v.derivative,
                        ell=ell)


def _sturm_count(a_form: TridiagForm, b_form: TridiagForm, s: float) -> int:
    """Pencil eigenvalues below s: the negative LDL^T pivots of A - s B."""
    pivots, _ = ldlt(a_form.diag - s * b_form.diag,
                     a_form.off - s * b_form.off)
    return sum(piv < 0.0 for piv in pivots)


def _rayleigh(a_form: TridiagForm, b_form: TridiagForm, x: np.ndarray) -> float:
    return a_form.quad_form(x) / b_form.quad_form(x)


def pencil_min_eig(a_form: TridiagForm, b_form: TridiagForm
                   ) -> tuple[float, np.ndarray, dict]:
    """Smallest eigenpair of (A, B), B positive definite.

    Returns (sigma, h, diagnostics) with h normalized to h^T B h = 1 and
    h[-1] >= 0.  Bisection with Sturm counts brackets sigma to near machine
    width; inverse iteration shifted just below the bracket then recovers
    the eigenvector, one solve per step with one LDL^T factor per shift.
    It stops once the backward error
    ||A h - rho B h|| / || |A||h| + |rho||B||h| || (2-norms, reported as
    `residual`) is at most 4 N eps and a further step no longer halves it.
    A shift that hits an exact zero pivot is stepped down and the matrix
    refactored, as in LAPACK's dstein.
    Missing the test in 30 steps (a NaN never meets it), or a Rayleigh
    quotient rho off the bisected sigma by more than 1e-7 relative, raises
    ConvergenceError.
    """
    size = a_form.size
    if size != b_form.size:
        raise ValueError("pencil forms have mismatched sizes")
    nodes_probe = np.linspace(0.0, 1.0, size)
    probes = [np.ones(size), nodes_probe, 1.0 - nodes_probe]
    hi = min(_rayleigh(a_form, b_form, x) for x in probes)
    scale = max(1.0, abs(hi))
    # The probe quotient bounds sigma from above, but only strictly when the
    # probe is not an eigenvector; pad upward until the count confirms it.
    pad = 1e-12 * scale
    attempts = 0
    while _sturm_count(a_form, b_form, hi) < 1:
        hi += pad
        pad *= 2.0
        attempts += 1
        if attempts > 120:
            raise ConvergenceError("failed to bracket the smallest eigenvalue")
    lo, step = hi - scale, scale
    while _sturm_count(a_form, b_form, lo) > 0:
        step *= 2.0
        lo -= step
        if step > 1e18 * scale:
            raise ConvergenceError("smallest eigenvalue escaped the search")
    for _ in range(200):
        width = hi - lo
        if width <= 1e-14 * max(1.0, abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if _sturm_count(a_form, b_form, mid) >= 1:
            hi = mid
        else:
            lo = mid

    sigma = 0.5 * (lo + hi)
    width = hi - lo
    shift = lo - max(1e-14 * max(1.0, abs(lo)), width)
    abs_a = TridiagForm(np.abs(a_form.diag), np.abs(a_form.off))
    abs_b = TridiagForm(np.abs(b_form.diag), np.abs(b_form.off))
    tol = 4.0 * size * np.finfo(float).eps
    h = np.ones(size) / math.sqrt(b_form.quad_form(np.ones(size)))
    rho, backward, previous, pivots = sigma, np.inf, np.inf, None
    for iterations in range(1, 31):
        if pivots is None:  # factor once per shift
            pivots, multipliers = ldlt(a_form.diag - shift * b_form.diag,
                                       a_form.off - shift * b_form.off)
            if ZERO_PIVOT in pivots:
                pivots = None
                shift -= width + 1e-14 * max(1.0, abs(shift))
                continue
        y = solve_banded(pivots, multipliers, b_form.matvec(h))
        h = y / math.sqrt(b_form.quad_form(y))
        rho = a_form.quad_form(h)
        # Measure the residual against |A||h| (Oettli-Prager), not ||A h||:
        # A's coefficients span many orders of magnitude where the profile
        # concentrates, so A h cancels and a normwise residual stays far
        # above eps even for a dense solver's eigenvector.
        resid = a_form.matvec(h) - rho * b_form.matvec(h)
        abs_h = np.abs(h)
        magnitude = abs_a.matvec(abs_h) + abs(rho) * abs_b.matvec(abs_h)
        backward = float(np.linalg.norm(resid) / np.linalg.norm(magnitude))
        # Meeting the test does not mean the iterate has settled: at
        # (5, 2.998, 3.19, 380), ell = 1, N = 2561, the step that met it
        # left a normwise residual of 1.2e-8 and the next one 3e-13.  So,
        # like dstein's extra steps, go on while a step still halves it.
        if backward <= tol and backward >= 0.5 * previous:
            break
        previous = backward
    near = abs(rho - sigma) <= 1e-7 * max(1.0, abs(sigma))
    if not (backward <= tol and near):  # NaN fails both tests
        raise ConvergenceError(
            f"inverse iteration ended at backward error {backward:.3g} "
            f"(target {tol:.3g}) and quotient {rho!r} after {iterations} "
            f"steps; bisection gave sigma {sigma!r}")
    if h[-1] < 0.0:
        h = -h
    diagnostics = {"method": "sturm+inverse", "iterations": iterations,
                   "bisection_width": float(width), "residual": backward}
    return float(rho), h, diagnostics


def eigh(*args, **kwargs):
    """scipy.linalg.eigh, imported on the first call."""
    from scipy.linalg import eigh as dense_eigh
    return dense_eigh(*args, **kwargs)


def dense_min_eig(a_form: TridiagForm, b_form: TridiagForm) -> float:
    """Smallest pencil eigenvalue by a dense O(N^3) solve: a test reference."""
    vals = eigh(a_form.to_dense(), b_form.to_dense(), eigvals_only=True,
                subset_by_index=[0, 0])
    return float(vals[0])


@dataclass
class PencilResult:
    """Smallest second-variation eigenvalue of one angular mode."""

    sigma: float
    lambda_reg: float  # max(0, -sigma): size of the instability, if any
    ell: int
    angular: float     # ell (ell + n - 2)
    p: float
    h: RadialFunction  # eigenfunction, B-normalized, h(1) > 0
    grid: RadialGrid
    diagnostics: dict = field(default_factory=dict)


def min_second_variation(sol: HenonSolution, ell: int = 1,
                         grid: RadialGrid | None = None) -> PencilResult:
    """Minimize the mode-ell second variation at a ground state."""
    if grid is None:
        grid = sol.grid
    a_form, b_form = second_variation_forms(sol, ell=ell, grid=grid)
    sigma, h, diagnostics = pencil_min_eig(a_form, b_form)
    return PencilResult(sigma=sigma, lambda_reg=max(0.0, -sigma), ell=int(ell),
                        angular=float(ell * (ell + sol.n - 2)), p=sol.p,
                        h=RadialFunction.from_nodes(grid, h), grid=grid,
                        diagnostics=diagnostics)


def eigenprofile_steepness(result: PencilResult) -> float:
    """sup of r h'(r) / h(1) over interior nodes.

    A refinement-stable value indicates the eigenprofile's growth is resolved
    rather than a mesh artifact.
    """
    grid = result.grid
    h = result.h.values
    if h[-1] == 0.0:
        raise ValueError("eigenprofile vanishes at the boundary")
    return float(np.max(grid.nodes[1:-1] * result.h.derivatives[1:-1]) / h[-1])


@dataclass
class EigenprofileReport:
    """Shape diagnostics of the minimizing profile h."""

    monotone: bool            # h' > 0 at all interior nodes
    steepness: float          # sup r h'/h(1); empirical growth constant
    origin_slope: float | None
    expected_origin_slope: float


def eigenprofile_properties(result: PencilResult) -> EigenprofileReport:
    """Monotonicity, growth bound, and origin exponent of the eigenprofile.

    origin_slope is the log-log slope of h' fit on cell midpoints with r
    in [1e-3, 1e-2].  expected_origin_slope is the reference exponent
    -1/(p-1) (lambda_reg > 0) or -(p-2)/(p-1) (lambda_reg = 0) from the
    local balance that drops the angular part of the constraint metric.
    With that term active the lambda_reg > 0 balance is instead
    (r^(n-1) h')' = (n-1) r^(n-3) h, whose admissible branch is h ~ r,
    so the measured slope flattens toward 0 there.  Diagnostics only:
    nothing here raises on a violated property.
    """
    grid = result.grid
    h = result.h.values
    p = result.p
    monotone = bool(np.all(result.h.derivatives[1:-1] > 0.0))
    steepness = eigenprofile_steepness(result)

    slopes = grid.cell_slopes(h)
    mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    window = (mids >= 1e-3) & (mids <= 1e-2) & (slopes > 0.0)
    if result.lambda_reg > 0.0:
        expected = -1.0 / (p - 1.0)
    else:
        expected = -(p - 2.0) / (p - 1.0)
    origin_slope = None
    if np.count_nonzero(window) >= 4:
        origin_slope = float(np.polyfit(np.log(mids[window]),
                                        np.log(slopes[window]), 1)[0])
    return EigenprofileReport(monotone=monotone, steepness=steepness,
                              origin_slope=origin_slope,
                              expected_origin_slope=expected)


@dataclass
class PotentialProfile:
    """The linearized potential sampled on a grid, with its refined zeros."""

    lam: float
    grid: RadialGrid
    values: np.ndarray          # V at grid.nodes[1:] (V is singular at 0)
    sign_changes: list[float]   # refined radii, possibly empty or several


@dataclass
class ScanCell:
    q: float
    alpha: float
    sigma: float | None
    error: str | None = None


@dataclass
class PositivityScan:
    """sigma over a (q, alpha) grid; failures are recorded per cell."""

    n: int
    p: float
    q_values: list[float]
    alpha_values: list[float]
    cells: list[ScanCell]

    def positive_at_largest_alpha(self, q: float) -> bool | None:
        top = max(self.alpha_values)
        for cell in self.cells:
            if cell.q == q and cell.alpha == top:
                return None if cell.sigma is None else cell.sigma > 0.0
        raise KeyError(q)


def positivity_scan(n: int, p: float, q_list, alpha_list, *,
                    refinement: int = 8, tol: float = 1e-10,
                    ell: int = 1) -> PositivityScan:
    """Tabulate sigma over q and alpha; per-cell failures do not stop it."""
    q_values = [float(q) for q in q_list]
    alpha_values = [float(a) for a in alpha_list]
    if not q_values or not alpha_values:
        raise ValueError("scan needs at least one q and one alpha")
    cells = []
    for q in q_values:
        for alpha in alpha_values:
            try:
                sol = solve_henon(n, p, q, alpha, refinement=refinement,
                                  tol=tol)
                result = min_second_variation(sol, ell=ell)
                cells.append(ScanCell(q=q, alpha=alpha, sigma=result.sigma))
            except (SolverError, ValueError) as exc:
                cells.append(ScanCell(q=q, alpha=alpha, sigma=None,
                                      error=str(exc)))
    return PositivityScan(n=n, p=p, q_values=q_values,
                          alpha_values=alpha_values, cells=cells)


def schrodinger_potential(sol: HenonSolution, lam: float = 0.0) -> Callable:
    """Zero-order coefficient of the linearized operator, as a callable.

        V(r) = (n-1)(v')^(p-2) / r^2 + (p-1) v^(p-2) + lam
               - (q-1) mu^(q/p) r^alpha v^(q-2)

    The balance of the Steklov-like part against the focusing term switches
    sign once inside the boundary layer.
    """
    p, n, q, alpha = sol.p, sol.n, sol.q, sol.alpha
    muf = sol.mu ** (q / p)
    v, dv = sol.v, sol.v.derivative

    def potential(r):
        r = np.asarray(r, dtype=float)
        vals = np.abs(v(r))
        return ((n - 1.0) * np.abs(dv(r)) ** (p - 2.0) / r ** 2
                + (p - 1.0) * vals ** (p - 2.0) + lam
                - (q - 1.0) * muf * r ** alpha * vals ** (q - 2.0))

    return potential


def potential_profile(sol: HenonSolution, lam: float = 0.0,
                      grid: RadialGrid | None = None) -> PotentialProfile:
    """Sample the potential on the grid and refine every sign change.

    Zero or several crossings are reported as data, not as an error; for
    large alpha a single crossing inside the boundary layer is expected.
    The node at r = 0 is skipped (the centrifugal term is singular there).
    """
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if grid is None:
        grid = sol.grid
    potential = schrodinger_potential(sol, lam=lam)
    rs = grid.nodes[1:]
    vals = potential(rs)
    changes = []
    for i in sign_change_pairs(vals):
        fa, fb = float(vals[i]), float(vals[i + 1])
        changes.append(brent_root(lambda r: float(potential(r)),
                                  float(rs[i]), float(rs[i + 1]),
                                  f_tol=1e-7 * max(abs(fa), abs(fb)),
                                  x_tol=1e-13, fa=fa, fb=fb))
    return PotentialProfile(lam=lam, grid=grid, values=vals,
                            sign_changes=changes)


def potential_sign_change(sol: HenonSolution, lam: float = 0.0) -> float:
    """The unique sign-change radius of the potential; raises if not unique.

    For large alpha the crossing sits inside the boundary layer, past
    1 - 3 log(alpha)/(2 alpha).
    """
    profile = potential_profile(sol, lam=lam)
    if len(profile.sign_changes) != 1:
        raise ConvergenceError(
            f"expected one sign change of the potential, found "
            f"{len(profile.sign_changes)}")
    return profile.sign_changes[0]
