"""Grid construction, quadrature exactness, and the tridiagonal forms."""
from __future__ import annotations

import numpy as np
import pytest

from henon_lab.mesh import (MAX_REFINEMENT, ZERO_PIVOT, RadialFunction,
                            TridiagForm, assemble_forms, build_grid, ldlt,
                            ldlt_solve)


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
    assert abs(grid.integrate(lambda r: r ** (n - 1)) - 1.0 / n) < 1e-14


def test_quadrature_smooth_integrand():
    # int_0^1 r^4 e^r dr = 9e - 24, to 20 digits 0.46453645613140711824.
    grid = build_grid(5, refinement=6)
    val = grid.integrate(lambda r: r ** 4 * np.exp(r))
    assert abs(val - 0.46453645613140711824) < 1e-10


def test_alpha_layer_resolution():
    alpha = 300.0
    grid = build_grid(4, refinement=6, alpha_hint=alpha)
    inside = np.count_nonzero(grid.nodes > 1.0 - 10.0 / alpha)
    assert inside >= 50, f"only {inside} nodes inside the boundary layer"


def test_grid_validation():
    with pytest.raises(ValueError, match="integer >= 3"):
        build_grid(2)
    with pytest.raises(ValueError, match="refinement"):
        build_grid(4, refinement=0)
    with pytest.raises(ValueError, match="refinement"):
        build_grid(4, refinement=MAX_REFINEMENT + 1)
    with pytest.raises(ValueError, match="alpha_hint"):
        build_grid(4, alpha_hint=-1.0)


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
    grid = build_grid(4, refinement=7)
    f = RadialFunction(grid, np.sin(grid.nodes), np.cos(grid.nodes))
    r = np.linspace(0.0, 1.0, 701)
    assert np.max(np.abs(f(r) - np.sin(r))) < 1e-8
    assert np.max(np.abs(f.derivative(r) - np.cos(r))) < 1e-6
    assert f.origin_value == f.values[0]
    assert f.boundary_value == f.values[-1]


def test_radial_function_prefers_dense_evaluator():
    grid = build_grid(4, refinement=3)
    f = RadialFunction(grid, np.exp(grid.nodes), np.exp(grid.nodes),
                       _value_fn=np.exp, _deriv_fn=np.exp)
    # With evaluators attached the coarse nodal table must not matter.
    assert abs(f(0.123456) - np.exp(0.123456)) < 1e-15


def test_tridiag_form_consistency():
    rng = np.random.default_rng(7)
    grid = build_grid(4, refinement=4)
    form = assemble_forms(grid, lambda r: r ** 3, lambda r: 1.0 + r ** 2)
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
    got = ldlt_solve(*ldlt(form.diag, form.off), rhs)
    want = np.linalg.solve(form.to_dense(), rhs)
    assert got.shape == (size,)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def _negative_pivots(diag, off, shift):
    pivots, _ = ldlt(diag - shift, off)
    return sum(piv < 0.0 for piv in pivots)


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
    pivots, _ = ldlt(diag - 2.0, off)
    assert pivots[0] == ZERO_PIVOT
    eigs = np.linalg.eigvalsh(TridiagForm(diag, off).to_dense())
    assert _negative_pivots(diag, off, 2.0) == np.sum(eigs < 2.0) == size // 2


def test_assembled_mass_integrates_monomials():
    n = 4
    grid = build_grid(n, refinement=5)
    form = assemble_forms(grid, lambda r: np.zeros_like(r),
                          lambda r: r ** (n - 1))
    ones = np.ones(form.size)
    # ones^T M ones = int r^(n-1) = 1/n; the P1 mass lumps nothing.
    assert abs(form.quad_form(ones) - 1.0 / n) < 1e-14
    ramp = grid.nodes
    # ramp is exactly representable, so ramp^T M ramp = int r^(n+1).
    assert abs(form.quad_form(ramp) - 1.0 / (n + 2)) < 1e-13


def test_assembled_stiffness_on_linear_function():
    n = 3
    grid = build_grid(n, refinement=5)
    form = assemble_forms(grid, lambda r: r ** (n - 1),
                          lambda r: np.zeros_like(r))
    ramp = grid.nodes
    assert abs(form.quad_form(ramp) - 1.0 / n) < 1e-14


def test_first_cell_substitution_exactness_class():
    # In t = r^e the rule is plain Gauss, so weights r^((k+1)e - 1), which
    # become the monomials t^k, must integrate exactly; the plain rule
    # cannot do that for fractional exponents.  Exact first-cell stiffness
    # of the corner hat: int_0^h0 r^a dr / h0^2.
    e = 2.5 / 1.5  # p/(p-1) at p = 2.5
    grid = build_grid(4, refinement=4)
    zero = lambda r: np.zeros_like(r)
    h0 = grid.nodes[1]
    for k in (0, 1, 3):
        a = (k + 1) * e - 1.0
        weight = lambda r, a=a: r ** a
        fancy = assemble_forms(grid, weight, zero, first_cell_exponent=e)
        plain = assemble_forms(grid, weight, zero)
        exact = h0 ** (a + 1.0) / (a + 1.0) / h0 ** 2
        assert abs(fancy.diag[0] - exact) / exact < 1e-13
        assert abs(plain.diag[0] - exact) / exact > 1e-5


def test_first_cell_substitution_is_local():
    e = 2.5 / 1.5
    grid = build_grid(4, refinement=4)
    weight = lambda r: r ** 2.3
    fancy = assemble_forms(grid, weight, weight, first_cell_exponent=e)
    plain = assemble_forms(grid, weight, weight)
    # Only entries fed by cell 0 may move.
    assert np.array_equal(fancy.diag[2:], plain.diag[2:])
    assert np.array_equal(fancy.off[1:], plain.off[1:])
    assert not np.isclose(fancy.diag[0], plain.diag[0], rtol=1e-12)
