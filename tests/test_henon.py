"""Ground-state shooting: parameter window, identities, and asymptotics."""
import numpy as np
import pytest

from henon_lab.errors import BracketError, ConvergenceError
from henon_lab.henon import (admissible_q_upper, critical_exponent,
                             derivative_asymptotics, limit_comparison,
                             resample, solve_henon, validate_parameters)
from henon_lab.mesh import build_grid
from henon_lab.special import surface_measure
from henon_lab.steklov import bessel_lambda2


def test_exponent_helpers():
    assert critical_exponent(4, 2.0) == 4.0
    assert critical_exponent(3, 3.0) == np.inf
    assert admissible_q_upper(4, 2.0, 0.0) == 4.0
    assert admissible_q_upper(4, 2.0, 4.0) == 8.0
    assert abs(admissible_q_upper(5, 2.5, 10.0) - 15.0) <= 1e-12


def test_parameter_window_messages():
    with pytest.raises(ValueError, match="integer >= 3"):
        validate_parameters(2, 2.0, 3.0, 1.0)
    with pytest.raises(ValueError, match="2 <= p < n"):
        validate_parameters(4, 1.5, 3.0, 1.0)
    with pytest.raises(ValueError, match="2 <= p < n"):
        validate_parameters(4, 4.0, 5.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        validate_parameters(4, 2.0, 3.0, -0.5)
    with pytest.raises(ValueError, match="constant profile"):
        validate_parameters(4, 2.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="compactness"):
        validate_parameters(4, 2.0, 9.0, 1.0)


def test_quotient_identity_and_residual(ground_state):
    for n, p, q, alpha in [(4, 2.0, 3.0, 50.0), (4, 2.5, 3.0, 200.0)]:
        sol = ground_state(n, p, q, alpha)
        assert sol.diagnostics["mu_quotient_rel_err"] <= 1e-6
        assert sol.shoot_res <= 1e-6 * sol.d0
        assert sol.mu > 0.0 and sol.norm_w > 0.0 and sol.d0 > 0.0
        # v = w / ||w|| carries unit norm through the same quadrature.
        rq = sol.grid.quad_x
        vq, dvq = sol.v(rq), sol.v.derivative(rq)
        norm_p = surface_measure(n) * sol.grid.integrate(
            (np.abs(dvq) ** p + np.abs(vq) ** p) * rq ** (n - 1))
        assert abs(norm_p - 1.0) <= 1e-10


def test_large_alpha_prediction(ground_state):
    # mu ~ (alpha+n)^(p/q) |S|^(1-p/q) lambda_p within 10% already at 100.
    n, p, q, alpha = 4, 2.0, 3.0, 100.0
    sol = ground_state(n, p, q, alpha)
    meas = surface_measure(n)
    predicted = (alpha + n) ** (p / q) * meas ** (1.0 - p / q) * bessel_lambda2(n)
    assert abs(sol.mu / predicted - 1.0) <= 0.10


def test_zero_alpha_constant_profile():
    # At alpha = 0 the constant w = 1 zeroes the flux identically; the
    # shooting must land on it and mu reduces to the volume-ratio value.
    n, p, q = 4, 2.0, 2.2
    sol = solve_henon(n, p, q, 0.0)
    assert abs(sol.d0 - 1.0) <= 1e-8
    r = np.linspace(0.0, 1.0, 200)
    assert np.max(np.abs(sol.w(r) - 1.0)) <= 1e-8
    meas = surface_measure(n)
    want_mu = (meas / n) ** ((q - p) / q)
    assert abs(sol.mu - want_mu) <= 1e-8 * want_mu


def test_profile_shape(ground_state):
    sol = ground_state(4, 2.0, 3.0, 50.0)
    r = np.linspace(0.0, 1.0, 400)
    vals = sol.w(r)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) > 0.0)  # increasing toward the boundary
    assert abs(sol.w.origin_value - sol.d0) <= 1e-10 * sol.d0


def test_resample_preserves_mu(ground_state):
    sol = ground_state(4, 2.0, 3.0, 50.0)
    fine = build_grid(4, refinement=9, alpha_hint=50.0)
    re = resample(sol, fine)
    assert re.diagnostics["resampled"] is True
    assert abs(re.mu - sol.mu) <= 1e-10 * sol.mu
    assert re.d0 == sol.d0
    with pytest.raises(ValueError, match="grid was built"):
        resample(sol, build_grid(5, refinement=6))


def test_bracket_override_and_failure():
    sol = solve_henon(4, 2.0, 3.0, 25.0)
    again = solve_henon(4, 2.0, 3.0, 25.0,
                        d_lo=sol.d0 * 0.8, d_hi=sol.d0 * 1.25)
    assert abs(again.d0 - sol.d0) <= 1e-6 * sol.d0
    # The root solve stops at a relative f tolerance, so d0 keeps ~1e-8 of
    # slack; mu inherits at most the same order through the quotient.
    assert abs(again.mu - sol.mu) <= 1e-7 * sol.mu
    with pytest.raises(BracketError):
        solve_henon(4, 2.0, 3.0, 25.0, d_lo=1e9, d_hi=2e9, max_expansions=0)
    with pytest.raises(ValueError, match="d_lo < d_hi"):
        solve_henon(4, 2.0, 3.0, 25.0, d_lo=2.0, d_hi=1.0)


def test_non_finite_quotient_is_a_convergence_error():
    # The root lands near d0 = 1e84, where w^q overflows the quadrature;
    # mu = inf must not be returned as a result.
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ConvergenceError, match="not finite"):
        solve_henon(5, 3.877, 3.897, 295.3)


def test_endpoint_exponents(ground_state):
    rep = derivative_asymptotics(ground_state(4, 2.0, 3.0, 400.0))
    assert rep.expected == 1.0
    assert rep.boundary_monotone and rep.origin_monotone
    assert abs(rep.boundary_slope - 1.0) <= 0.05
    assert abs(rep.origin_slope - 1.0) <= 0.05


def test_asymptotics_needs_deep_layer(ground_state):
    with pytest.raises(ValueError, match="alpha >= 100"):
        derivative_asymptotics(ground_state(4, 2.0, 3.0, 50.0))


def test_limit_comparison_validation():
    with pytest.raises(ValueError, match="two strictly increasing"):
        limit_comparison(4, 2.0, 3.0, alphas=(100.0,))
    with pytest.raises(ValueError, match="two strictly increasing"):
        limit_comparison(4, 2.0, 3.0, alphas=(200.0, 100.0))
