"""Second-variation pencil: assembly identities, eigensolver, diagnostics."""
import contextlib
import io
import json
import time

import numpy as np
import pytest

from henon_lab import cli, second_variation
from henon_lab.errors import ConvergenceError
from henon_lab.mesh import build_grid
from henon_lab.second_variation import (dense_min_eig,
                                        eigenprofile_properties,
                                        eigenprofile_steepness,
                                        min_second_variation, pencil_forms,
                                        pencil_min_eig, positivity_scan,
                                        potential_profile,
                                        potential_sign_change,
                                        schrodinger_potential,
                                        second_variation_forms)
from henon_lab.steklov import limit_form_matrix


def _const_forms(grid, **overrides):
    kwargs = dict(p=2.0, n=grid.n, q=3.0, alpha=0.0, mu=0.0,
                  value_fn=lambda r: np.ones_like(np.asarray(r, dtype=float)),
                  deriv_fn=lambda r: np.ones_like(np.asarray(r, dtype=float)))
    kwargs.update(overrides)
    return pencil_forms(grid, **kwargs)


def test_constraint_form_moment():
    # For ell = 1 at n = 4 the full-ones quadratic of B integrates
    # 3r + r^3 over (0, 1), which is 7/4 exactly.
    grid = build_grid(4, refinement=6)
    _, b_form = _const_forms(grid)
    assert abs(b_form.quad_form(np.ones(b_form.size)) - 1.75) <= 1e-12
    assert b_form.size == grid.nodes.size


def test_angular_index_validation():
    grid = build_grid(4, refinement=4)
    with pytest.raises(ValueError, match="angular index"):
        _const_forms(grid, ell=0)


def test_zero_mu_matches_limit_form(steklov):
    # Dropping the focusing term must reproduce the limiting-form matrix of
    # the Steklov eigenfunction, entry for entry.
    sol = steklov(4, 2.5)
    lf = limit_form_matrix(sol)
    a_form, _ = pencil_forms(sol.grid, p=sol.p, n=sol.n, q=3.7, alpha=123.0,
                             mu=0.0, value_fn=sol.phi,
                             deriv_fn=sol.phi.derivative)
    scale = np.max(np.abs(lf.diag))
    assert np.max(np.abs(a_form.diag - lf.diag)) <= 1e-12 * scale
    assert np.max(np.abs(a_form.off - lf.off)) <= 1e-12 * scale


def test_limit_pencil_is_positive(steklov):
    sol = steklov(4, 2.0)
    a_form, b_form = pencil_forms(sol.grid, p=2.0, n=4, q=3.0, alpha=0.0,
                                  mu=0.0, value_fn=sol.phi,
                                  deriv_fn=sol.phi.derivative)
    sigma, h, _ = pencil_min_eig(a_form, b_form)
    assert sigma > 0.0
    assert abs(b_form.quad_form(h) - 1.0) <= 1e-10
    assert h[-1] >= 0.0


def _sturm_count_loop(a_form, b_form, s):
    """The pivot recurrence over numpy scalars, as Sturm counts were taken
    before the LDL^T sweep was shared with the solves."""
    d = a_form.diag - s * b_form.diag
    e = a_form.off - s * b_form.off
    count = 0
    piv = d[0]
    for i in range(d.size):
        if i:
            piv = d[i] - e[i - 1] * e[i - 1] / piv
        if piv == 0.0:
            piv = -1e-300
        if piv < 0.0:
            count += 1
    return count


def test_sturm_count_matches_the_scalar_loop(ground_state):
    # Same arithmetic on plain floats, so the same counts, including at
    # shifts within rounding of sigma where the last pivot is noise.
    sol = ground_state(4, 2.0, 3.0, 400.0)
    forms = second_variation_forms(sol, grid=build_grid(4, refinement=9,
                                                        alpha_hint=400.0))
    sigma, _, _ = pencil_min_eig(*forms)
    shifts = [sigma * (1.0 + k * 1e-14) for k in range(-40, 41)]
    shifts += [sigma * k for k in (-3.0, 0.0, 0.5, 1.5, 2.0)]
    counts = [second_variation._sturm_count(*forms, s) for s in shifts]
    assert counts == [_sturm_count_loop(*forms, s) for s in shifts]
    assert 0 in counts and max(counts) > 1


def test_coarse_pencil_matches_dense(ground_state):
    sol = ground_state(4, 2.0, 3.0, 50.0)
    grid = build_grid(4, refinement=4)
    a_form, b_form = second_variation_forms(sol, grid=grid)
    sigma, _, _ = pencil_min_eig(a_form, b_form)
    dense = dense_min_eig(a_form, b_form)
    assert abs(sigma - dense) <= 1e-12 * max(1.0, abs(dense))


def _backward_error_bound(size):
    return 4.0 * size * np.finfo(float).eps


def test_single_path_without_dense_solve(ground_state, monkeypatch):
    # Inverse iteration meets its backward-error test on its own at sizes
    # where a plain normwise residual cannot be met, so nothing dense runs.
    sol = ground_state(4, 2.0, 3.0, 400.0)
    grid10 = build_grid(4, refinement=10, alpha_hint=400.0)
    reference = dense_min_eig(*second_variation_forms(sol, grid=grid10))

    def no_dense(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(second_variation, "eigh", no_dense)
    result = min_second_variation(sol, grid=grid10)
    assert result.diagnostics["method"] == "sturm+inverse"
    assert (result.diagnostics["residual"]
            <= _backward_error_bound(grid10.num_nodes))
    assert abs(result.sigma - reference) <= 1e-8 * abs(reference)

    grid12 = build_grid(4, refinement=12, alpha_hint=400.0)
    t0 = time.perf_counter()
    fine = min_second_variation(sol, grid=grid12)
    elapsed = time.perf_counter() - t0
    assert fine.diagnostics["method"] == "sturm+inverse"
    assert (fine.diagnostics["residual"]
            <= _backward_error_bound(grid12.num_nodes))
    # Refinements 10 and 12 differ by discretization error only.
    assert abs(fine.sigma - reference) <= 1e-6 * abs(reference)
    assert elapsed < 2.0


def _zero_pivot_in_inverse_iteration(monkeypatch, times):
    """Give the first `times` factorizations that inverse iteration asks for
    an exactly zero first pivot; the Sturm counts factor unchanged."""
    factor, count = second_variation.ldlt, second_variation._sturm_count
    state = {"counting": False, "left": times}

    def counting(*args):
        state["counting"] = True
        try:
            return count(*args)
        finally:
            state["counting"] = False

    def singular(diag, off):
        if not state["counting"] and state["left"]:
            state["left"] -= 1
            diag = diag.copy()
            diag[0] = 0.0
        return factor(diag, off)

    monkeypatch.setattr(second_variation, "_sturm_count", counting)
    monkeypatch.setattr(second_variation, "ldlt", singular)
    return state


def test_singular_shift_steps_off_the_zero_pivot(ground_state, monkeypatch):
    # At this pencil's shift the LDL^T pivots come within 4.5e-13 of zero
    # but never reach it, so the first shifted factorization is made
    # exactly singular; the shift steps down and the iteration carries on.
    sol = ground_state(3, 2.0, 2.1111932638798687, 20.665832096064587)
    state = _zero_pivot_in_inverse_iteration(monkeypatch, 1)
    result = min_second_variation(sol)
    assert state["left"] == 0
    diag = result.diagnostics
    assert diag["method"] == "sturm+inverse"
    assert np.isfinite(diag["residual"])
    assert diag["residual"] <= _backward_error_bound(sol.grid.num_nodes)
    assert abs(result.sigma - 0.72385163727) <= 1e-9 * 0.72385163727


def test_iteration_settles_past_the_backward_error_test(ground_state):
    # The step that first meets the backward-error test here still leaves
    # a normwise residual of 1.2e-8, above the 1e-8 that second-variation
    # records state; the steps after it settle the eigenvector.
    n, p, q, alpha = 5, 2.9983314369848033, 3.1935803293829714, \
        380.2162309461887
    sol = ground_state(n, p, q, alpha)
    grid = build_grid(n, refinement=11, alpha_hint=alpha)
    a_form, b_form = second_variation_forms(sol, grid=grid)
    result = min_second_variation(sol, grid=grid)
    h = result.h.values
    ah, bh = a_form.matvec(h), b_form.matvec(h)
    normwise = (np.linalg.norm(ah - result.sigma * bh)
                / (np.linalg.norm(ah) + abs(result.sigma) * np.linalg.norm(bh)))
    assert normwise <= 1e-8
    assert result.diagnostics["residual"] <= _backward_error_bound(
        grid.num_nodes)


def test_failed_factorization_is_a_solver_error(ground_state, monkeypatch):
    sol = ground_state(4, 2.0, 3.0, 400.0)
    forms = second_variation_forms(sol, grid=build_grid(4, refinement=6))
    _zero_pivot_in_inverse_iteration(monkeypatch, float("inf"))
    with pytest.raises(ConvergenceError, match="backward error"):
        pencil_min_eig(*forms)

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["second-variation", "--n", "4", "--p", "2", "--q",
                         "3", "--alpha", "400", "--refine", "6"])
    assert code == 1
    record, end = json.JSONDecoder().raw_decode(out.getvalue())
    assert not out.getvalue()[end:].strip()
    assert record["error"]["type"] == "ConvergenceError"


def test_non_finite_iterate_is_a_solver_error(ground_state, monkeypatch):
    # NaN fails every comparison, so the exit test must ask that the
    # backward error be met, not merely that it not be missed.
    sol = ground_state(4, 2.0, 3.0, 400.0)
    forms = second_variation_forms(sol, grid=build_grid(4, refinement=6))

    def not_finite(pivots, multipliers, rhs):
        return np.full(rhs.size, np.nan)

    monkeypatch.setattr(second_variation, "solve_banded", not_finite)
    with pytest.raises(ConvergenceError, match="backward error"):
        pencil_min_eig(*forms)


def test_min_second_variation_packaging(ground_state):
    result = min_second_variation(ground_state(4, 2.0, 3.0, 400.0))
    assert result.sigma > 0.0
    assert result.lambda_reg == 0.0
    assert result.ell == 1 and result.angular == 3.0
    assert result.diagnostics["method"] == "sturm+inverse"
    assert result.h.boundary_value > 0.0
    assert eigenprofile_steepness(result) > 0.0


def test_eigenprofile_shapes(ground_state):
    # Stable point, p = 2: monotone profile with a flat origin exponent.
    rep = eigenprofile_properties(
        min_second_variation(ground_state(4, 2.0, 3.0, 400.0)))
    assert rep.monotone
    assert rep.expected_origin_slope == 0.0
    assert abs(rep.origin_slope) <= 0.05
    assert 1.0 < rep.steepness < 2.0

    # Stable point, p > 2: the eigenprofile concentrates at the origin, the
    # interior monotonicity and the fit window both give way.  Data, not
    # an error.
    rep = eigenprofile_properties(
        min_second_variation(ground_state(4, 2.5, 3.0, 400.0)))
    assert not rep.monotone
    assert rep.origin_slope is None

    # Unstable point (large q): lambda_reg > 0.  The angular part of the
    # constraint metric forces h ~ r near the origin, so the measured
    # exponent of h' sits near 0 rather than at the reference value.
    result = min_second_variation(ground_state(3, 2.5, 14.0, 400.0))
    assert result.sigma < 0.0
    assert result.lambda_reg == -result.sigma
    rep = eigenprofile_properties(result)
    assert rep.monotone
    assert rep.expected_origin_slope == -1.0 / 1.5
    assert abs(rep.origin_slope) <= 0.15


def test_potential_crossing_in_layer(ground_state):
    sol = ground_state(4, 2.5, 3.0, 400.0)
    r0 = potential_sign_change(sol)
    alpha = sol.alpha
    assert r0 > 1.0 - 1.5 * np.log(alpha) / alpha
    assert r0 < 1.0
    potential = schrodinger_potential(sol)
    assert abs(potential(r0)) <= 1e-6
    assert potential(1.0) < 0.0
    # Adding the focusing term back leaves the manifestly positive part.
    rs = np.linspace(0.05, 1.0, 50)
    muf = sol.mu ** (sol.q / sol.p)
    focusing = (sol.q - 1.0) * muf * rs ** sol.alpha * sol.v(rs) ** (sol.q - 2.0)
    assert np.all(potential(rs) + focusing > 0.0)


def test_potential_profile_api(ground_state):
    sol = ground_state(4, 2.0, 3.0, 400.0)
    profile = potential_profile(sol)
    assert profile.values.size == sol.grid.nodes.size - 1
    assert len(profile.sign_changes) == 1
    with pytest.raises(ValueError, match="nonnegative"):
        potential_profile(sol, lam=-1.0)


def test_no_crossing_reported():
    # The constant profile at alpha = 0 keeps the potential positive on all
    # of (0, 1]; the unique-crossing accessor must refuse.
    from henon_lab.henon import solve_henon
    sol = solve_henon(4, 2.0, 2.2, 0.0)
    with pytest.raises(ConvergenceError, match="sign change"):
        potential_sign_change(sol)


def test_positivity_scan_isolates_failures():
    scan = positivity_scan(4, 2.0, (3.0, 1.5), (200.0, 400.0), refinement=6)
    assert len(scan.cells) == 4
    good = [c for c in scan.cells if c.q == 3.0]
    bad = [c for c in scan.cells if c.q == 1.5]
    assert all(c.sigma is not None and c.sigma > 0.0 for c in good)
    assert all(c.sigma is None and "q > p" in c.error for c in bad)
    assert scan.positive_at_largest_alpha(3.0) is True
    assert scan.positive_at_largest_alpha(1.5) is None
    with pytest.raises(KeyError):
        scan.positive_at_largest_alpha(2.7)
    with pytest.raises(ValueError, match="at least one"):
        positivity_scan(4, 2.0, (), (100.0,))
