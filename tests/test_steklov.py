"""Eigenvalue shooting, normalization identities, and the limiting form."""
import numpy as np
import pytest

from henon_lab.errors import ConvergenceError
from henon_lab.mesh import MAX_DIMENSION, build_grid
from henon_lab.second_variation import limit_form_min_numeric
from henon_lab.special import surface_measure
from henon_lab.steklov import (bessel_lambda2, limit_form_min_closed,
                               solve_steklov, steklov_eigenvalue)

# lambda_2(n) = 1 - n/2 + I'_(n/2-1)(1)/I_(n/2-1)(1), 30-digit evaluations.
LAMBDA2 = {
    3: 0.31303528549933130364,
    4: 0.24019372387008974111,
    5: 0.19452804946532511362,
    6: 0.16330611761053413534,
}


def test_p2_matches_bessel_closed_form():
    for n, want in LAMBDA2.items():
        assert abs(bessel_lambda2(n) - want) <= 1e-13
        lam = steklov_eigenvalue(n, 2.0)
        assert abs(lam - want) <= 1e-9 * want, n


def test_highest_dimension_still_matches_bessel():
    # At n = MAX_DIMENSION the startup flux r^n is near the smallest
    # normal float, and the shot still meets the closed form.
    want = bessel_lambda2(MAX_DIMENSION)
    assert abs(steklov_eigenvalue(MAX_DIMENSION, 2.0) - want) <= 1e-8 * want


def test_bessel_lambda2_matches_mpmath():
    # The reference keeps the derivative form, so this also checks the
    # recurrence that turns it into the ratio I_(n/2)(1) / I_(n/2-1)(1).
    import mpmath

    for n in range(3, MAX_DIMENSION + 1):
        with mpmath.workdps(40):
            nu = mpmath.mpf(n) / 2 - 1
            want = float(1 - mpmath.mpf(n) / 2
                         + mpmath.besseli(nu, 1, derivative=1)
                         / mpmath.besseli(nu, 1))
        assert abs(bessel_lambda2(n) - want) <= 1e-13 * want, n


def test_eigenvalue_window_and_monotonicity():
    lams = []
    for n in (3, 4, 5, 6):
        lam = steklov_eigenvalue(n, 2.5)
        assert 0.0 < lam < 1.0 / n
        lams.append(lam)
    # Larger dimension dilutes the boundary quotient.
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_grid_free_and_full_solves_agree(steklov):
    sol = steklov(4, 2.5)
    lam = steklov_eigenvalue(4, 2.5)
    assert sol.lambda_p == lam


def test_normalization_and_boundary_identity(steklov):
    for n, p in [(3, 2.0), (4, 2.5), (5, 3.0)]:
        sol = steklov(n, p)
        grid = sol.grid
        rq = grid.quad_x
        u = sol.phi(rq)
        du = sol.phi.derivative(rq)
        norm = sol.surface_measure * grid.integrate(
            (np.abs(du) ** p + np.abs(u) ** p) * rq ** (n - 1))
        assert abs(norm - 1.0) <= 1e-8
        want_phi1 = (sol.lambda_p * sol.surface_measure) ** (-1.0 / p)
        assert abs(sol.phi1 - want_phi1) <= 1e-9 * want_phi1
        assert sol.diagnostics["boundary_identity_rel_err"] <= 1e-9
        assert 0.0 < sol.phi0 < sol.phi1
        assert sol.surface_measure == surface_measure(n)


def test_profile_monotone_and_positive(steklov):
    sol = steklov(4, 3.0)
    r = np.linspace(0.0, 1.0, 500)
    vals = sol.phi(r)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(sol.phi.derivative(r[1:]) > 0.0)


def test_limit_form_closed_values(steklov):
    # At p = 2 the closed form collapses to (1 - (n-1) lambda)/lambda.
    cases = {
        (3, 2.0): 1.1945280494653251136,
        (4, 2.0): 1.1633061176105341353,
    }
    for (n, p), want in cases.items():
        got = limit_form_min_closed(n, p, lambda_p=LAMBDA2[n])
        assert abs(got - want) <= 1e-12 * want


def test_limit_form_numeric_matches_closed(steklov):
    sol = steklov(4, 2.5)
    closed = limit_form_min_closed(4, 2.5, lambda_p=sol.lambda_p)
    numeric, minimizer = limit_form_min_numeric(sol)
    assert abs(numeric - closed) <= 1e-3 * closed
    # The minimizer is proportional to phi'.
    r = sol.grid.nodes[1:]
    ref = sol.phi.derivative(r)
    w = minimizer.values[1:]
    corr = np.corrcoef(w, ref)[0, 1]
    assert corr >= 0.999
    assert minimizer.boundary_value == 1.0


def test_limit_form_refinement_improves(steklov):
    sol = steklov(3, 2.0)
    closed = limit_form_min_closed(3, 2.0, lambda_p=sol.lambda_p)
    errs = []
    for refinement in (5, 7):
        grid = build_grid(3, refinement=refinement)
        numeric, _ = limit_form_min_numeric(sol, grid=grid)
        assert numeric >= closed - 1e-12  # discrete minimum sits above
        errs.append(numeric - closed)
    assert errs[1] < errs[0]


def test_validation():
    with pytest.raises(ValueError):
        steklov_eigenvalue(2, 2.0)
    with pytest.raises(ValueError):
        steklov_eigenvalue(4, 1.0)


def test_loose_tolerance_detected():
    # A loose integration either stays inside (0, 1/n) or trips the guard;
    # the tight default must deliver the full advertised accuracy.
    lam_tight = steklov_eigenvalue(3, 2.0, tol=1e-12)
    assert abs(lam_tight - LAMBDA2[3]) <= 1e-10
    try:
        lam_loose = steklov_eigenvalue(3, 2.0, tol=1e-3)
    except ConvergenceError:
        return
    assert 0.0 < lam_loose < 1.0 / 3.0
