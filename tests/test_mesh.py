"""Grid construction, quadrature exactness, and the tridiagonal forms."""
from __future__ import annotations

import numpy as np
import pytest

from henon_lab.henon import solve_henon
from henon_lab.mesh import (MAX_DIMENSION, MAX_REFINEMENT, ZERO_PIVOT,
                            RadialFunction, TridiagForm, assemble_forms,
                            build_grid, ldlt, ldlt_solve, negative_pivots)
from henon_lab.steklov import solve_steklov
from henon_lab.variational import minimize_quotient


def test_grid_basic_shape():
    grid = build_grid(4, refinement=5)
    assert grid.nodes[0] == 0.0 and grid.nodes[-1] == 1.0
    assert np.all(np.diff(grid.nodes) > 0.0)
    assert grid.num_cells == grid.num_nodes - 1
    assert grid.quad_x.shape == grid.quad_w.shape == grid.quad_cell.shape
    assert grid.quad_cell.max() == grid.num_cells - 1


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_volume_quadrature_exact(n):
    # The default rule must integrate the volume weight itself exactly.
    grid = build_grid(n, refinement=4)
    assert abs(grid.integrate(grid.quad_x ** (n - 1)) - 1.0 / n) < 1e-14


def test_quadrature_smooth_integrand():
    # int_0^1 r^4 e^r dr = 9e - 24, to 20 digits 0.46453645613140711824.
    grid = build_grid(5, refinement=6)
    r = grid.quad_x
    val = grid.integrate(r ** 4 * np.exp(r))
    assert abs(val - 0.46453645613140711824) < 1e-10


def test_alpha_layer_resolution():
    alpha = 300.0
    grid = build_grid(4, refinement=6, alpha_hint=alpha)
    inside = np.count_nonzero(grid.nodes > 1.0 - 10.0 / alpha)
    assert inside >= 50, f"only {inside} nodes inside the boundary layer"


def test_grid_validation():
    with pytest.raises(ValueError, match="integer >= 3"):
        build_grid(2)
    # Far above the cap, the Gauss rule of ceil(n/2) points per cell alone
    # would need gigabytes.
    for n in (MAX_DIMENSION + 1, 100000):
        with pytest.raises(ValueError, match=f"<= {MAX_DIMENSION}"):
            build_grid(n)
    with pytest.raises(ValueError, match="refinement"):
        build_grid(4, refinement=0)
    with pytest.raises(ValueError, match="refinement"):
        build_grid(4, refinement=MAX_REFINEMENT + 1)
    # A float, even a whole one, and a bool are not refinement levels; the
    # solvers that build their own grid pass the check on.
    for bad in (8.5, 8.0, True, np.float64(8.0)):
        with pytest.raises(ValueError, match="refinement must be an integer"):
            build_grid(4, refinement=bad, alpha_hint=400.0)
    for solve in (lambda r: solve_henon(4, 2.0, 3.0, 400.0, refinement=r),
                  lambda r: solve_steklov(4, 2.0, refinement=r),
                  lambda r: minimize_quotient(4, 2.0, 3.0, 400.0,
                                              refinement=r)):
        with pytest.raises(ValueError, match="refinement must be an integer"):
            solve(8.0)
    assert build_grid(4, refinement=np.int64(8)).num_nodes == \
        build_grid(4, refinement=8).num_nodes
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="alpha_hint"):
            build_grid(4, alpha_hint=bad)


def test_slope_helpers():
    grid = build_grid(3, refinement=6)
    vals = grid.nodes ** 2
    mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    assert np.allclose(grid.cell_slopes(vals), 2.0 * mids, atol=1e-12)
    # Linear data is differentiated exactly whatever the grading.
    lin = 3.0 * grid.nodes - 1.0
    assert np.allclose(grid.interior_derivatives(lin), 3.0, atol=1e-12)
    # On a quadratic the centered difference carries the grading bias
    # (h_right - h_left), no more and no less.
    widths = grid.widths()
    expect = 2.0 * grid.nodes[1:-1] + (widths[1:] - widths[:-1])
    assert np.allclose(grid.interior_derivatives(vals), expect, atol=1e-12)


def test_radial_function_interpolation():
    # Without evaluators a profile is the P1 function on its nodes: exact on
    # linear data, and its derivative is the slope of the cell holding r,
    # the cell on the right at a node and the last cell at r = 1.  The
    # nodal derivative table plays no part.
    grid = build_grid(4, refinement=4)
    x = grid.nodes
    line = RadialFunction(grid, 2.0 - 3.0 * x, np.zeros_like(x))
    r = np.linspace(0.0, 1.0, 701)
    assert np.max(np.abs(line(r) - (2.0 - 3.0 * r))) <= 1e-14
    assert np.max(np.abs(line.derivative(r) + 3.0)) <= 1e-12
    f = RadialFunction.from_nodes(grid, x ** 2)
    slopes = grid.cell_slopes(f.values)
    mids = 0.5 * (x[:-1] + x[1:])
    assert np.array_equal(f(mids), 0.5 * (f.values[:-1] + f.values[1:]))
    assert np.array_equal(f.derivative(mids), slopes)
    assert np.array_equal(f.derivative(x[:-1]), slopes)
    assert f.derivative(1.0) == slopes[-1]
    assert f(x[3]) == f.values[3]
    assert f.origin_value == f.values[0]
    assert f.boundary_value == f.values[-1]


def test_radial_function_prefers_dense_evaluator():
    grid = build_grid(4, refinement=3)
    f = RadialFunction(grid, np.exp(grid.nodes), np.exp(grid.nodes),
                       _value_fn=np.exp,
                       _profile_fn=lambda r: (np.exp(r), np.exp(r)))
    # With evaluators attached the coarse nodal table must not matter.
    assert abs(f(0.123456) - np.exp(0.123456)) < 1e-15
    assert abs(f.derivative(0.123456) - np.exp(0.123456)) < 1e-15


def test_tridiag_form_consistency():
    rng = np.random.default_rng(7)
    grid = build_grid(4, refinement=4)
    form = assemble_forms(grid, lambda r: (r ** 3, 1.0 + r ** 2))
    dense = form.to_dense()
    assert np.allclose(dense, dense.T)
    v = rng.standard_normal(form.size)
    assert np.allclose(form.matvec(v), dense @ v)
    assert np.isclose(form.quad_form(v), v @ dense @ v)


@pytest.mark.parametrize("size", [1, 2, 3, 200])
def test_ldlt_solve_matches_dense_solve(size):
    # Diagonally dominant, so symmetric positive definite.
    rng = np.random.default_rng(size)
    form = TridiagForm(rng.uniform(2.0, 3.0, size),
                       rng.uniform(-1.0, 1.0, size - 1))
    rhs = rng.standard_normal(size)
    pivots, multipliers, _, _ = ldlt(form.diag, form.off)
    got = ldlt_solve(pivots, multipliers, rhs)
    want = np.linalg.solve(form.to_dense(), rhs)
    assert got.shape == (size,)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def _negative_pivots(diag, off, shift):
    pivots, _, negatives, _ = ldlt(diag - shift, off)
    count = sum(piv < 0.0 for piv in pivots)
    assert negative_pivots(diag - shift, off) == negatives == count
    return count


def test_ldlt_negative_pivots_count_eigenvalues_below_shift():
    rng = np.random.default_rng(3)
    diag, off = rng.standard_normal(60), rng.standard_normal(59)
    eigs = np.linalg.eigvalsh(TridiagForm(diag, off).to_dense())
    between = 0.5 * (eigs[:-1] + eigs[1:])
    shifts = [eigs[0] - 1.0, eigs[-1] + 1.0, *between[::7]]
    for shift in shifts:
        assert _negative_pivots(diag, off, shift) == np.sum(eigs < shift)

    # The 1D Laplacian shifted by 2 has an exactly zero first pivot; at even
    # size 2 is no eigenvalue, and half the spectrum lies below it.
    size = 40
    diag, off = np.full(size, 2.0), np.full(size - 1, -1.0)
    pivots, _, _, singular = ldlt(diag - 2.0, off)
    assert pivots[0] == ZERO_PIVOT and singular
    eigs = np.linalg.eigvalsh(TridiagForm(diag, off).to_dense())
    assert _negative_pivots(diag, off, 2.0) == np.sum(eigs < 2.0) == size // 2


def _ldlt_reference(diag, off):
    """The factor loop as first written, with e * e in the loop."""
    d, e = diag.tolist(), off.tolist()
    piv = d[0] if d[0] != 0.0 else ZERO_PIVOT
    pivots, multipliers = [piv], []
    for d_i, e_i in zip(d[1:], e):
        multipliers.append(e_i / piv)
        piv = d_i - e_i * e_i / piv
        if piv == 0.0:
            piv = ZERO_PIVOT
        pivots.append(piv)
    return pivots, multipliers


def _ldlt_solve_reference(pivots, multipliers, rhs):
    """The solve as first written: substitute, divide, substitute."""
    x = rhs.tolist()
    for i, m in enumerate(multipliers):
        x[i + 1] -= m * x[i]
    x = [x_i / piv for x_i, piv in zip(x, pivots)]
    for i in range(len(multipliers) - 1, -1, -1):
        x[i] -= multipliers[i] * x[i + 1]
    return np.array(x)


def _indefinite_input(size, zero_at):
    """An indefinite tridiagonal matrix whose pivot `zero_at` (if any) is
    exactly zero: d_k is set to e_{k-1}^2 / piv_{k-1} as the loop rounds it."""
    rng = np.random.default_rng(size)
    diag = rng.uniform(-2.0, 2.0, size)
    off = rng.uniform(-1.0, 1.0, size - 1)
    if zero_at == 0:
        diag[0] = 0.0
    elif zero_at is not None:
        pivots, _ = _ldlt_reference(diag, off)
        e = off[zero_at - 1]
        diag[zero_at] = e * e / pivots[zero_at - 1]
    return diag, off, rng.standard_normal(size)


@pytest.mark.parametrize("size, zero_at", [
    (1, None), (2, None), (3, None), (641, None),
    (1, 0), (3, 1), (641, 0), (641, 320), (641, 640)])
def test_sweeps_match_the_reference_loops_bit_for_bit(size, zero_at):
    diag, off, rhs = _indefinite_input(size, zero_at)
    ref_pivots, ref_multipliers = _ldlt_reference(diag, off)
    if zero_at is not None:
        assert ref_pivots[zero_at] == ZERO_PIVOT
    pivots, multipliers, negatives, singular = ldlt(diag, off)
    assert pivots == ref_pivots and multipliers == ref_multipliers
    assert negative_pivots(diag, off) == negatives == sum(
        p < 0.0 for p in ref_pivots)
    assert singular == (ZERO_PIVOT in ref_pivots)
    # Past a zero pivot the solution over- or underflows; tobytes compares
    # inf, NaN and signed zeros bit for bit where == would not.
    got = ldlt_solve(pivots, multipliers, rhs)
    want = _ldlt_solve_reference(ref_pivots, ref_multipliers, rhs)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_assembled_mass_integrates_monomials():
    n = 4
    grid = build_grid(n, refinement=5)
    form = assemble_forms(grid, lambda r: (np.zeros_like(r), r ** (n - 1)))
    ones = np.ones(form.size)
    # ones^T M ones = int r^(n-1) = 1/n; the P1 mass lumps nothing.
    assert abs(form.quad_form(ones) - 1.0 / n) < 1e-14
    ramp = grid.nodes
    # ramp is exactly representable, so ramp^T M ramp = int r^(n+1).
    assert abs(form.quad_form(ramp) - 1.0 / (n + 2)) < 1e-13


def test_assembled_stiffness_on_linear_function():
    n = 3
    grid = build_grid(n, refinement=5)
    form = assemble_forms(grid, lambda r: (r ** (n - 1), np.zeros_like(r)))
    ramp = grid.nodes
    assert abs(form.quad_form(ramp) - 1.0 / n) < 1e-14


def test_first_cell_substitution_exactness_class():
    # In t = r^e the rule is plain Gauss, so weights r^((k+1)e - 1), which
    # become the monomials t^k, must integrate exactly; the plain rule
    # cannot do that for fractional exponents.  Exact first-cell stiffness
    # of the corner hat: int_0^h0 r^a dr / h0^2.
    e = 2.5 / 1.5  # p/(p-1) at p = 2.5
    grid = build_grid(4, refinement=4)
    h0 = grid.nodes[1]
    for k in (0, 1, 3):
        a = (k + 1) * e - 1.0
        weights = lambda r, a=a: (r ** a, np.zeros_like(r))
        fancy = assemble_forms(grid, weights, first_cell_exponent=e)
        plain = assemble_forms(grid, weights)
        exact = h0 ** (a + 1.0) / (a + 1.0) / h0 ** 2
        assert abs(fancy.diag[0] - exact) / exact < 1e-13
        assert abs(plain.diag[0] - exact) / exact > 1e-5


def test_first_cell_substitution_is_local():
    e = 2.5 / 1.5
    grid = build_grid(4, refinement=4)
    weights = lambda r: (r ** 2.3, r ** 2.3)
    fancy = assemble_forms(grid, weights, first_cell_exponent=e)
    plain = assemble_forms(grid, weights)
    # Only entries fed by cell 0 may move.
    assert np.array_equal(fancy.diag[2:], plain.diag[2:])
    assert np.array_equal(fancy.off[1:], plain.off[1:])
    assert not np.isclose(fancy.diag[0], plain.diag[0], rtol=1e-12)
