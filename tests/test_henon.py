"""Ground-state shooting: parameter window, identities, and asymptotics."""
import json
import math
import warnings

import numpy as np
import pytest

from cli_child import run_cli
from henon_lab.errors import BracketError, ConvergenceError, IntegrationError
from henon_lab.henon import (_initial_center, admissible_q_upper,
                             critical_exponent, derivative_asymptotics,
                             limit_comparison, one_root_span, resample,
                             shooting_miss, solve_henon, validate_parameters)
from henon_lab.mesh import build_grid
from henon_lab.rootfind import sign_change_pairs
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
    # A non-finite q fails both comparisons; it is named, not blamed on the
    # compactness bound.
    for q in (math.nan, math.inf):
        with pytest.raises(ValueError, match="q must be finite") as info:
            validate_parameters(4, 2.0, q, 1.0)
        assert "compactness" not in str(info.value)


def test_quotient_identity_and_residual(ground_state):
    for n, p, q, alpha in [(4, 2.0, 3.0, 50.0), (4, 2.5, 3.0, 200.0)]:
        sol = ground_state(n, p, q, alpha)
        assert sol.diagnostics["mu_quotient_rel_err"] <= 1e-6
        assert sol.shoot_res <= 1e-8
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
    # The root solve stops at a flux tolerance, so d0 keeps ~1e-8 of slack;
    # mu inherits at most the same order through the quotient.
    assert abs(again.mu - sol.mu) <= 1e-7 * sol.mu
    # A pair above the root moves down by 4x: one expansion, one more trial.
    low = solve_henon(4, 2.0, 3.0, 25.0, d_lo=sol.d0 * 2.0, d_hi=sol.d0 * 3.0)
    assert low.diagnostics["expansions"] == 1
    assert low.diagnostics["bracket"] == (sol.d0 * 0.5, sol.d0 * 2.0)
    assert abs(low.mu - sol.mu) <= 1e-7 * sol.mu
    with pytest.raises(BracketError):
        solve_henon(4, 2.0, 3.0, 25.0, d_lo=1e9, d_hi=2e9, max_expansions=0)
    with pytest.raises(ValueError, match="d_lo <= d_hi"):
        solve_henon(4, 2.0, 3.0, 25.0, d_lo=2.0, d_hi=1.0)


def _band(n, p):
    return "p = 2" if p == 2.0 else "2 < p <= 3" if p <= 3.0 else "p > 3"


def test_trials_per_solve_by_p_band():
    # The centre-out bracket costs 2 trials at the prediction and Brent on
    # the flux a few more; the old 16-point scan alone cost 16.
    trials = {}
    for n in (4, 5):
        for p in (2.0, 2.5 if n == 4 else 3.0, n - 0.5):
            for alpha in (10.0, 400.0):
                for dq in (0.1, 2.0):
                    sol = solve_henon(n, p, p + dq, alpha, refinement=5)
                    trials.setdefault(_band(n, p), []).append(
                        sol.diagnostics["trials"])
    for band, counts in trials.items():
        assert np.median(counts) <= 8, (band, counts)
        assert max(counts) <= 16, (band, counts)


def test_shooting_residual_has_one_root():
    # Within one_root_span solve_henon brackets a single sign change; this
    # carries the evidence for that over n, p, alpha and q - p.  Sixteen
    # geometric points span [c/10, 10c] around the prediction c; where they
    # all share a sign (the root lies beyond, at small alpha and q near p)
    # the scan continues at the same ratio toward the root.
    for n in (3, 4, 5, 6):
        for p in sorted({2.0, 2.5, 3.0, n - 0.5} - {float(n)}):
            for alpha in (0.0, 5.0, 400.0, 3000.0):
                top = one_root_span(n, p, alpha)
                if top == 0.0:
                    continue
                for q in (p + min(0.05, top / 2.0), p + top):
                    c = _initial_center(n, p, q, alpha)
                    ds = list(np.geomspace(c / 10.0, 10.0 * c, 16))
                    ratio = ds[1] / ds[0]
                    fs = [shooting_miss(n, p, q, alpha, d, tol=1e-6)
                          for d in ds]
                    while len(ds) < 32 and not sign_change_pairs(fs):
                        if fs[-1] > 0.0:
                            ds.append(ds[-1] * ratio)
                            fs.append(shooting_miss(n, p, q, alpha, ds[-1],
                                                    tol=1e-6))
                        else:
                            ds.insert(0, ds[0] / ratio)
                            fs.insert(0, shooting_miss(n, p, q, alpha, ds[0],
                                                       tol=1e-6))
                    assert len(sign_change_pairs(fs)) == 1, (n, p, q, alpha)


def test_several_roots_beyond_one_root_span():
    # At q - p = 42.75, alpha = 5 the residual changes sign three times; the
    # root the centre-out bracket would meet has mu = 4.96, the ground state
    # mu = 1.179.  The scan solves all three and keeps the least.
    assert 42.75 > one_root_span(5, 4.5, 5.0)
    sol = solve_henon(5, 4.5, 47.25, 5.0)
    roots = sol.diagnostics["competing_roots"]
    assert len(roots) == 3
    assert sol.mu == min(mu for _, mu in roots)
    assert abs(sol.mu - 1.1792) <= 1e-3
    assert sol.diagnostics["mu_quotient_rel_err"] <= 1e-8
    # Close roots flatten the residual there; the flux-scale stop alone
    # left a quotient error of 5e-6 at this ground state.
    flat = solve_henon(6, 5.5, 63.25, 5.0)
    assert abs(flat.mu - 0.253783) <= 1e-6
    assert flat.diagnostics["mu_quotient_rel_err"] <= 1e-7
    # A scan trial whose seed overflows (at 10c here) is left out, and the
    # other fifteen still bracket the root.
    far = solve_henon(4, 3.0, 607.5, 400.0)
    assert abs(far.mu - 4.26861) <= 1e-4
    assert "competing_roots" not in far.diagnostics
    with pytest.raises(IntegrationError, match="not finite"):
        shooting_miss(4, 3.0, 607.5, 400.0, 10.0 * far.d0)


def test_non_finite_quotient_is_a_convergence_error():
    # The root lands near d0 = 1e84, where w^q overflows the quadrature;
    # mu = inf must not be returned as a result.
    with pytest.raises(ConvergenceError, match="not finite"):
        solve_henon(5, 3.877, 3.897, 295.3)


def test_overflowing_quadrature_raises_without_warnings():
    # The quadrature of this profile overflows; the finiteness check must
    # raise, with no numpy RuntimeWarning in process or on the CLI's stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="not finite"):
            solve_henon(3, 2.0, 2.01, 400.0)
    proc = run_cli("radial", "--n", "3", "--p", "2", "--q", "2.01",
                   "--alpha", "400")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "ConvergenceError"
    assert "Warning" not in proc.stderr


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
