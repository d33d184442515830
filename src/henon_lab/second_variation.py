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
definite, so the minimum eigenvalue of the tridiagonal P1 matrices is found
in three steps (Parlett, The Symmetric Eigenvalue Problem, ch. 3-4 and 7):
a coarse Sturm-sequence bracket, anchored a sixteenth of its value below
the least quotient of four probe vectors (one of them the hat at the
origin node, where the p > 2 ground mode concentrates) and bisected only
until a Rayleigh quotient near sigma can be proved nearer sigma than
sigma_2; safeguarded Rayleigh-quotient iteration from the best probe,
which moves the shift to the Rayleigh quotient once that proof holds and
stops on a backward error measured against |A||h|; and two Sturm counts
at rho -+ SIGMA_TOL max(1, |rho|) that certify the Rayleigh quotient rho
as the smallest eigenvalue.  A refused certificate restarts inverse
iteration once from the linear probe (or from ones); a missed backward
error or a second refusal raises ConvergenceError.  Every step sweeps the
LDL^T pivot recurrence of A - s B on plain floats, on numpy alone: a Sturm
count runs the count-only sweep `mesh.negative_pivots`, and inverse
iteration factors with `mesh.ldlt` once per shift, which also returns the
factor's inertia for the bracket, and solves with `mesh.ldlt_solve`.
Each step forms A h and B h once.  The dense solve `dense_min_eig`, which
loads scipy, is a reference for tests only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .henon import HenonSolution
from .mesh import (RadialFunction, RadialGrid, TridiagForm, assemble_forms,
                   ldlt, negative_pivots)
from .mesh import ldlt_solve as solve_banded  # perfbench counts this name
from .steklov import SteklovSolution

__all__ = ["PencilResult", "pencil_forms", "second_variation_forms",
           "limit_form_matrix", "limit_form_min_numeric", "pencil_min_eig",
           "min_second_variation", "eigenprofile_steepness",
           "EigenprofileReport", "eigenprofile_properties"]

# `pencil_min_eig` certifies |sigma - rho| <= SIGMA_TOL max(1, |rho|) for
# the rho it returns; every `second-variation` record states it.
SIGMA_TOL = 1e-7


def pencil_forms(grid: RadialGrid, *, p: float, n: int, q: float,
                 alpha: float, mu: float, profile: RadialFunction,
                 ell: int = 1) -> tuple[TridiagForm, TridiagForm]:
    """Assemble (A, B) at the given profile.

    mu = 0 drops the focusing term, which turns A into the limiting form of
    the Steklov eigenfunction (`limit_form_matrix`); the stability analysis
    leans on that shared code path.
    """
    if not (isinstance(ell, (int, np.integer)) and ell >= 1):
        raise ValueError(f"angular index must be an integer >= 1, got {ell!r}")
    ang = float(ell * (ell + n - 2))
    muf = mu ** (q / p)

    def weights_a(r):
        # At p = 2 both powers below are x**0.0, which is 1.0 for every x
        # (NaN included), so the profile's slope is not evaluated at all.
        if p == 2.0:
            vals = np.abs(profile(r))
            weight = power = 1.0
        else:
            vals, slopes = profile.value_and_derivative(r)
            vals = np.abs(vals)
            weight = np.abs(slopes) ** (p - 2.0)
            power = vals ** (p - 2.0)
        volume = r ** (n - 1)
        return ((p - 1.0) * weight * volume,
                ang * weight * r ** (n - 3.0)
                + (p - 1.0) * power * volume
                - (q - 1.0) * muf * r ** (alpha + n - 1.0) * vals ** (q - 2.0))

    def weights_b(r):
        volume = r ** (n - 1.0)
        return volume, ang * r ** (n - 3.0) + volume

    # (v')^(p-2) degenerates like r^((p-2)/(p-1)) at the origin for p > 2;
    # B's coefficients are smooth, so only A needs the substituted first cell.
    first_cell = p / (p - 1.0) if p > 2.0 else None
    a_form = assemble_forms(grid, weights_a, first_cell_exponent=first_cell)
    b_form = assemble_forms(grid, weights_b)
    return a_form, b_form


def second_variation_forms(sol: HenonSolution, ell: int = 1,
                           grid: RadialGrid | None = None
                           ) -> tuple[TridiagForm, TridiagForm]:
    """Pencil of the second variation at a solved ground state."""
    if grid is None:
        grid = sol.grid
    return pencil_forms(grid, p=sol.p, n=sol.n, q=sol.q, alpha=sol.alpha,
                        mu=sol.mu, profile=sol.v, ell=ell)


def limit_form_matrix(sol: SteklovSolution,
                      grid: RadialGrid | None = None) -> TridiagForm:
    """P1 matrix of the limiting quadratic form

        Q[w] = int_0^1 [ (p-1)(phi') ^(p-2) w'^2 r^(n-1)
                         + (n-1)(phi')^(p-2) w^2 r^(n-3)
                         + (p-1) phi^(p-2) w^2 r^(n-1) ] dr.

    It is the mode-1 form A of `pencil_forms` at mu = 0, where q and alpha
    drop out, with phi_p in place of v.
    """
    if grid is None:
        grid = sol.grid
    a_form, _ = pencil_forms(grid, p=sol.p, n=sol.n, q=2.0, alpha=0.0, mu=0.0,
                             profile=sol.phi)
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
    pivots, multipliers, _, _ = ldlt(form.diag[:m], form.off[:m - 1])
    w[:m] = solve_banded(pivots, multipliers, rhs)
    w[m] = 1.0
    return float(form.quad_form(w)), RadialFunction.from_nodes(grid, w)


def pencil_min_eig(a_form: TridiagForm, b_form: TridiagForm
                   ) -> tuple[float, np.ndarray, dict]:
    """Smallest eigenpair of (A, B), B positive definite.

    Returns (sigma, h, diagnostics) with h normalized to h^T B h = 1 and
    h[-1] >= 0.  Four probe vectors (ones, the linear ramp, one minus it,
    and the hat at node 0) bound sigma from above by their quotients; the
    least, hi, anchors the bracket at lo = hi - w, w = max(|hi|, 1e-4)/16.
    A lo with an eigenvalue below it becomes hi and lo steps down by
    doubling; when the first lo holds, one Sturm count at
    hi + 4 (hi - lo) that finds exactly one eigenvalue proves sigma_2 above
    that point.  Bisection with Sturm counts narrows the bracket until its
    width is a quarter of above_second - hi, where above_second is the
    largest x whose count is exactly 1, so sigma_2 > x.  Inverse iteration
    starts from the best probe at the shift lo, one solve per step with one
    LDL^T factor per shift, and each factor's inertia (no negative pivot,
    or exactly one) raises lo or above_second.  While the backward error is
    above its target, a Rayleigh quotient rho < (lo + above_second) / 2,
    which proves rho nearer sigma than sigma_2, becomes the next shift
    (`refactorizations` counts these).  It stops once the backward error
    ||A h - rho B h|| / || |A||h| + |rho||B||h| || (2-norms, reported as
    `residual`) is at most 4 N eps and a further step no longer halves it.
    A shift that hits an exact zero pivot is stepped down and the matrix
    refactored, as in LAPACK's dstein.  Two Sturm counts certify the
    Rayleigh quotient rho: none below rho - delta and at least one below
    rho + delta, delta = SIGMA_TOL max(1, |rho|), prove
    |sigma - rho| <= delta.  A refused certificate restarts inverse
    iteration once, from the linear probe (from ones if the linear probe
    was the start).  Missing the backward-error test in 30 steps (a NaN
    never meets it), or a second refused certificate, raises
    ConvergenceError.  `iterations` counts the steps of both runs and
    `sturm_counts` the count-only sweeps.
    """
    size = a_form.size
    if size != b_form.size:
        raise ValueError("pencil forms have mismatched sizes")
    sturm_counts = 0

    def count(s: float) -> int:
        """Pencil eigenvalues below s: the negative pivots of A - s B."""
        nonlocal sturm_counts
        sturm_counts += 1
        return negative_pivots(a_form.diag - s * b_form.diag,
                               a_form.off - s * b_form.off)

    # At p > 2 the discrete ground mode is a spike on node 0, which only
    # the hat there overlaps much.
    nodes_probe, origin_hat = np.linspace(0.0, 1.0, size), np.zeros(size)
    origin_hat[0] = 1.0
    probes = [np.ones(size), nodes_probe, 1.0 - nodes_probe, origin_hat]
    quotients = [a_form.quad_form(x) / b_form.quad_form(x) for x in probes]
    hi = min(quotients)
    best = quotients.index(hi)
    scale = max(1.0, abs(hi))
    # The probe quotient bounds sigma from above, but only strictly when the
    # probe is not an eigenvector; pad upward until the count confirms it.
    pad = 1e-12 * scale
    attempts = 0
    while (found := count(hi)) < 1:
        hi += pad
        pad *= 2.0
        attempts += 1
        if attempts > 120:
            raise ConvergenceError("failed to bracket the smallest eigenvalue")
    # A count of exactly 1 at x proves sigma_2 > x; keep the largest such x.
    above_second = hi if found == 1 else -math.inf

    def record(x: float, found: int) -> None:
        """Narrow the bracket by `found` eigenvalues below x."""
        nonlocal lo, hi, above_second
        if found == 0:
            lo = max(lo, x)
        else:
            hi = min(hi, x)
            if found == 1:
                above_second = max(above_second, x)

    # The best probe's quotient is close above sigma: the origin hat's
    # within 0.04-0.6% at p > 2, ones' or the linear probe's within 3-48%
    # at p = 2 (the pencils of perfbench's `pencil` workload).  So the
    # bracket starts hi/16 below hi (measured against 1/4 to 1/64 on those
    # pencils); the floor lets a hi near 0 pass sigma = -1 in 15
    # doublings.  When that lo holds, one count at hi + 4 (hi - lo) that
    # finds exactly one eigenvalue meets the quarter-gap stop below.
    step = max(abs(hi), 1e-4) / 16.0
    lo = hi - step
    if (found := count(lo)) == 0:
        up = hi + 4.0 * (hi - lo)
        record(up, count(up))
    while found > 0:
        record(lo, found)
        step *= 2.0
        lo -= step
        if step > 1e18 * scale:
            raise ConvergenceError("smallest eigenvalue escaped the search")
        found = count(lo)
    # Stop once the bracket is a quarter of the gap above it, so that a
    # Rayleigh quotient near sigma passes the shift test below, or at
    # machine width for a cluster.  (hi + 4 width rounds as `up` does, so
    # an up count of exactly 1 meets the test.)
    for _ in range(200):
        width = hi - lo
        if (hi + 4.0 * width <= above_second
                or width <= 1e-14 * max(1.0, abs(lo), abs(hi))):
            break
        mid = 0.5 * (lo + hi)
        record(mid, count(mid))

    # count(lo) = 0 puts lo at or below sigma: the first shift.
    width, shift = hi - lo, lo
    abs_a = TridiagForm(np.abs(a_form.diag), np.abs(a_form.off))
    abs_b = TridiagForm(np.abs(b_form.diag), np.abs(b_form.off))
    tol = 4.0 * size * np.finfo(float).eps
    pivots, iterations, refactorizations = None, 0, 0
    # Inverse iteration starts from the best probe.  h = ones is
    # B-orthogonal to the odd ground mode of a mirror-symmetric pencil, so
    # a refused certificate restarts from the linear probe (from ones when
    # the linear probe was the start).
    for start in (probes[best], probes[0] if best == 1 else probes[1]):
        h = start / math.sqrt(b_form.quad_form(start))
        bh = b_form.matvec(h)
        rho, backward, previous = math.nan, np.inf, np.inf
        for steps in range(1, 31):
            if pivots is None:  # factor once per shift
                pivots, multipliers, negatives, singular = ldlt(
                    a_form.diag - shift * b_form.diag,
                    a_form.off - shift * b_form.off)
                if singular:
                    pivots = None
                    shift -= width + 1e-14 * max(1.0, abs(shift))
                    continue
                # The factor's inertia narrows the bracket for free: only
                # whether none, one or more pivots are negative matters.
                record(shift, negatives)
            y = solve_banded(pivots, multipliers, bh)
            h = y / math.sqrt(b_form.quad_form(y))
            # A h and B h once each: for rho, the residual and (B h) the
            # next step's right-hand side.
            ah, bh = a_form.matvec(h), b_form.matvec(h)
            rho = float(np.dot(h, ah))
            # Measure the residual against |A||h| (Oettli-Prager), not
            # ||A h||: A's coefficients span many orders of magnitude where
            # the profile concentrates, so A h cancels and a normwise
            # residual stays far above eps even for a dense solver's
            # eigenvector.
            resid = ah - rho * bh
            abs_h = np.abs(h)
            magnitude = abs_a.matvec(abs_h) + abs(rho) * abs_b.matvec(abs_h)
            # (A h = 0 with rho = 0 is exact: the floor makes it 0, not 0/0.)
            backward = float(np.linalg.norm(resid) / max(
                np.linalg.norm(magnitude), np.finfo(float).tiny))
            # Meeting the test does not mean the iterate has settled: at
            # (5, 2.998, 3.19, 380), ell = 1, N = 2561, the step that met
            # it left a normwise residual of 1.2e-8 and the next one 3e-13.
            # So, like dstein's extra steps, go on while a step still
            # halves it.
            if backward <= tol and backward >= 0.5 * previous:
                break
            previous = backward
            # Rayleigh shift: rho < (lo + above_second) / 2 proves rho
            # nearer sigma than sigma_2, so inverse iteration shifted to rho
            # still converges to sigma, at a rate that falls with rho -
            # sigma.  Once the backward error is met a new factor buys
            # nothing.
            if backward > tol and rho < 0.5 * (lo + above_second):
                shift, pivots = rho, None
                refactorizations += 1
        iterations += steps
        if not backward <= tol:  # NaN fails the test
            raise ConvergenceError(
                f"inverse iteration ended at backward error {backward:.3g} "
                f"(target {tol:.3g}) and quotient {rho!r} after {steps} "
                f"steps")
        delta = SIGMA_TOL * max(1.0, abs(rho))
        below, upto = count(rho - delta), count(rho + delta)
        if below == 0 and upto >= 1:
            break
    else:
        raise ConvergenceError(
            f"inverse iteration met backward error {backward:.3g} at "
            f"quotient {rho!r}, but Sturm counts put {below} eigenvalues "
            f"below rho - {delta:.3g} and {upto} below rho + {delta:.3g}, "
            f"so rho is not the smallest")
    if h[-1] < 0.0:
        h = -h
    diagnostics = {"method": "sturm+inverse", "iterations": iterations,
                   "refactorizations": refactorizations,
                   "bisection_width": float(width), "residual": backward,
                   "sturm_counts": sturm_counts}
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
