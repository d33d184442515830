"""Ground-state shooting: parameter window, identities, and asymptotics."""
import contextlib
import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_child import parse_record, run_cli
from henon_lab import cli, flux_ode, henon
from henon_lab.errors import (BracketError, ConvergenceError,
                              IntegrationError, SolverError)
from henon_lab.henon import (_MAX_EXPANSIONS, _bracket, _initial_center,
                             admissible_q_upper, critical_exponent,
                             derivative_asymptotics, limit_comparison,
                             one_root_span, shooting_miss, solve_henon,
                             validate_parameters)
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
    assert np.max(np.abs(sol.norm_w * sol.v(r) - 1.0)) <= 1e-8
    meas = surface_measure(n)
    want_mu = (meas / n) ** ((q - p) / q)
    assert abs(sol.mu - want_mu) <= 1e-8 * want_mu


def test_profile_shape(ground_state):
    sol = ground_state(4, 2.0, 3.0, 50.0)
    r = np.linspace(0.0, 1.0, 400)
    vals = sol.norm_w * sol.v(r)  # w
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) > 0.0)  # increasing toward the boundary
    assert abs(sol.norm_w * sol.v.origin_value - sol.d0) <= 1e-10 * sol.d0


def test_bracket_steps_outward_until_the_sign_changes():
    # A falling residual with its root at 5.5; `tried` records each trial.
    tried = []

    def miss(d):
        tried.append(d)
        return 5.5 - d

    # From a point below the root: 2x first, then 4x.
    assert _bracket(miss, 1.0, 1.0, 4.5, 4.5) == (2.0, 8.0, 3.5, -2.5, 2)
    assert tried == [2.0, 8.0]
    # From a pair below the root: 4x at once.
    tried.clear()
    assert _bracket(miss, 1.0, 1.5, 4.5, 4.0) == (1.5, 6.0, 4.0, -0.5, 1)
    assert tried == [6.0]
    # A pair above the root moves down.
    tried.clear()
    assert _bracket(miss, 8.0, 12.0, -2.5, -6.5) == (2.0, 8.0, 3.5, -2.5, 1)
    assert tried == [2.0]
    # A residual that never changes sign spends the cap, then gives up.
    tried.clear()
    with pytest.raises(BracketError, match=f"{_MAX_EXPANSIONS} expansions"):
        _bracket(lambda d: tried.append(d) or 1.0, 1.0, 1.0, 1.0, 1.0)
    assert len(tried) == _MAX_EXPANSIONS


def _band(n, p):
    return "p = 2" if p == 2.0 else "2 < p <= 3" if p <= 3.0 else "p > 3"


def _integrations(monkeypatch):
    """(tol, origin value, accepted steps) of every shooting trial from now
    on.  A centre-out trial from d >= 1 integrates y = w/d from the same
    seed state as every other such trial, so trials are told apart by d."""
    runs = []
    trial = henon._trial

    def spy(n, p, q, alpha, d, tol, scale):
        traj = trial(n, p, q, alpha, d, tol, scale)
        runs.append((tol, d, int(traj.rs.size) - 1))
        return traj

    monkeypatch.setattr(henon, "_trial", spy)
    return runs


def test_trials_per_solve_by_p_band(monkeypatch):
    # The centre-out bracket tries 2 origin values at the prediction and
    # Brent on the scale-free residual a few more; the old 16-point scan
    # alone tried 16, and Brent on the raw flux up to 13 at p > 3.  Only
    # trials near the root run at full tolerance.
    runs = _integrations(monkeypatch)
    origins, full = {}, {}
    for n in (4, 5):
        for p in (2.0, 2.5 if n == 4 else 3.0, n - 0.5):
            for alpha in (10.0, 400.0):
                for dq in (0.1, 2.0):
                    runs.clear()
                    sol = solve_henon(n, p, p + dq, alpha, refinement=5)
                    assert len(runs) == sol.diagnostics["trials"]
                    origins.setdefault(_band(n, p), []).append(
                        len({d for _, d, _ in runs}))
                    full.setdefault(_band(n, p), []).append(
                        sum(tol == 1e-10 for tol, _, _ in runs))
    for band, counts in origins.items():
        assert np.median(counts) <= 7, (band, counts)
        assert max(counts) <= 10, (band, counts)
        assert np.median(full[band]) <= 4, (band, full[band])


GOLDEN_RADIAL = [(4, 2.0, 3.0, 400.0), (4, 3.0, 3.5, 100.0),
                 (5, 2.5, 4.0, 25.0), (3, 2.0, 2.2, 0.0)]
# Shooting trials of one default solve at the golden radial points:
# (relaxed integrations, full-tolerance integrations, accepted steps).
SOLVE_WORK = {
    (4, 2.0, 3.0, 400.0): (3, 2, 304),
    (4, 3.0, 3.5, 100.0): (4, 2, 432),
    (5, 2.5, 4.0, 25.0): (4, 3, 494),
    (3, 2.0, 2.2, 0.0): (4, 3, 35),
}
# Radii of the root trial (accepted steps + 1), "ode_steps": at d0 = 1.2e10
# and at d0 = 1.71.  On the unscaled profile w they were 498 and 108: the
# flux ~ d^(p-1) r^n / n held the step test relative near the origin.
ROOT_STEPS = {
    (6, 4.046719675909051, 4.144259316177739, 65.8519232974908): 164,
    (5, 2.5, 4.0, 10.0): 102,
}


def test_shooting_work_at_the_golden_points(monkeypatch):
    # Far from the root a trial runs at the relaxed tolerance; near it at
    # full tolerance, once per origin value, and the trial at the root is
    # the profile: no origin value is integrated twice at full tolerance.
    runs = _integrations(monkeypatch)
    for point in GOLDEN_RADIAL:
        runs.clear()
        sol = solve_henon(*point)
        assert len(runs) == sol.diagnostics["trials"]
        full = [d for tol, d, _ in runs if tol == 1e-10]
        assert len(set(full)) == len(full), point
        work = (len(runs) - len(full), len(full),
                sum(steps for _, _, steps in runs))
        assert work == SOLVE_WORK[point], (point, work)


def test_root_trial_steps_are_pinned():
    for point, steps in ROOT_STEPS.items():
        assert solve_henon(*point).diagnostics["ode_steps"] == steps, point


def test_mu_meets_the_printed_tolerance(monkeypatch):
    # `radial` states mu to max(tol, 1e-7) relative.  The reference
    # integrates at 1e-12 and stops Brent at a scale-free residual of
    # 1e-14 (centre-out path) or a flux of 1e-14 (a+b)^(p-1) on the bracket
    # [a, b] (scan path).
    mus = {point: solve_henon(*point).mu for point in GOLDEN_RADIAL}
    monkeypatch.setattr(henon, "_RESIDUAL_TOL", 1e-14)
    monkeypatch.setattr(henon, "_FLUX_TOL", 1e-14)
    for point, mu in mus.items():
        ref = solve_henon(*point, tol=1e-12).mu
        assert abs(mu - ref) <= cli._MU_TOL_FLOOR * ref, (point, mu, ref)


@st.composite
def centre_out_points(draw):
    n = draw(st.integers(3, 6))
    p = draw(st.floats(2.0, n - 0.5))
    alpha = draw(st.floats(5.0, 400.0))
    span = one_root_span(n, p, alpha)
    u = draw(st.floats(0.0, 1.0))
    return n, p, p + 0.05 * (span / 0.05) ** u, alpha


@settings(derandomize=True, max_examples=60, deadline=None)
@given(centre_out_points())
def test_relaxed_trials_keep_the_solve(point):
    # Relaxed residuals steer the bracket and Brent only far from the
    # root, so the solve meets the `shoot` invariants, and mu stays within
    # 1e-7 of the solve that runs every trial at full tolerance.
    sol = solve_henon(*point)
    assert math.isfinite(sol.mu)
    assert sol.diagnostics["mu_quotient_rel_err"] <= 1e-6
    assert np.all(sol.v.values > 0.0)
    with mock.patch.object(henon, "_RELAXED_FLOOR", math.inf):
        full = solve_henon(*point)
    assert abs(sol.mu - full.mu) <= 1e-7 * full.mu, (point, sol.mu, full.mu)


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
    # At q = 2000 the residual is noise-floored near its roots; the scan
    # integrates w, whose flux tolerance is relative to F(1), and finds
    # the ground state among two verified roots.
    big = solve_henon(5, 4.5, 2000.0, 400.0)
    assert abs(big.mu - 3.9565) <= 1e-4
    assert len(big.diagnostics["competing_roots"]) == 2


# Scan-path points where one competing root fails its quotient check:
# (point, d0 of that root, its quotient error, the ground state's mu).
FAILING_COMPETITOR = [
    ((5, 4.1492357979689505, 46.3233984216942, 4.865953370121124),
     6.5197, 7.7e-4, 4.146333),
    ((5, 4.226606550119202, 121.9271269083708, 17.74515448679415),
     5.419, 2.0e-4, 4.206928),
]


def test_a_failing_competing_root_is_dropped():
    # Verified roots of lower mu exist at both points, so the root that
    # fails is listed as (d0, mu, quotient error), not raised.
    for point, d0, err, mu in FAILING_COMPETITOR:
        sol = solve_henon(*point)
        assert abs(sol.mu - mu) <= 1e-6 * mu, point
        assert sol.diagnostics["mu_quotient_rel_err"] <= henon.MU_QUOTIENT_TOL
        assert np.all(sol.v.values > 0.0)
        assert len(sol.diagnostics["competing_roots"]) == 2
        assert sol.mu == min(m for _, m in sol.diagnostics["competing_roots"])
        [(dropped_d0, dropped_mu, dropped_err)] = \
            sol.diagnostics["dropped_roots"]
        assert abs(dropped_d0 - d0) <= 1e-3 * d0, point
        assert abs(dropped_err - err) <= 0.05 * err, point
        assert sol.mu < dropped_mu * (1.0 - dropped_err)


@pytest.mark.parametrize("d0_range, err", [((0.0, 1.0), 1e-3),
                                           ((6.0, 7.0), 0.06)])
def test_a_failing_root_raises_without_a_clearly_lower_verified_one(
        monkeypatch, d0_range, err):
    # First the ground state's root (d0 = 0.6756) fails: no verified root
    # lies below it.  Then the root at d0 = 6.52 (mu 4.3897) fails with a
    # quotient error of 6%, so its mu may be as low as 4.126, below the
    # verified 4.1463.
    finalize = henon._finalize

    def with_error(*args):
        sol = finalize(*args)
        if d0_range[0] < sol.d0 < d0_range[1]:
            sol.diagnostics["mu_quotient_rel_err"] = err
        return sol

    monkeypatch.setattr(henon, "_finalize", with_error)
    with pytest.raises(ConvergenceError,
                       match=f"quotient error {err:.3g}, above 1e-06"):
        solve_henon(*FAILING_COMPETITOR[0][0])


# Large-q points where a Gauss rule on the output grid left quotient errors
# of 1.4e-5 to 3.1e-5, and mu at refinement 12 of that rule.
LARGE_Q_MU = {
    (5, 4.5, 445.95, 50.0): 4.874080263,
    (5, 4.5, 298.8, 50.0): 0.8797975352,
    (4, 3.7, 1154.77, 100.0): 5.175941112,
}


def test_large_q_points_meet_the_quotient_contract():
    for point, mu in LARGE_Q_MU.items():
        sol = solve_henon(*point)
        assert sol.diagnostics["mu_quotient_rel_err"] <= henon.MU_QUOTIENT_TOL
        assert abs(sol.mu - mu) <= 1e-6 * mu, (point, sol.mu)


@pytest.mark.xfail(strict=True,
                   reason="the scan solves one root per sign change its 16 "
                          "samples see, and a sample bracket can hold "
                          "several roots")
def test_scan_returns_the_least_mu_root():
    # The scan bracket (0.7715, 1.0487) at this point holds 11 sign changes,
    # and every root there completes with v > 0 and a quotient error below
    # 3e-7.  Brent returns the root at d0 = 0.93666, mu = 5.175941 (the
    # value LARGE_Q_MU pins); the root of least mu is at d0 = 0.806402,
    # mu = 4.794199, with a quotient error of about 1e-11.  A scan that
    # finds it passes this test; then drop the xfail mark and re-pin
    # LARGE_Q_MU.
    sol = solve_henon(4, 3.7, 1154.77, 100.0)
    assert sol.mu <= 4.79420 * (1.0 + 1e-6), sol.mu


def test_mu_does_not_depend_on_the_output_grid():
    # N and D are integrated on the steps of the root trial, so the grid
    # changes only the tabulated profile.
    for point in [(4, 3.0, 3.5, 100.0), (5, 4.5, 298.8, 50.0)]:
        sols = [solve_henon(*point, refinement=k) for k in (6, 8, 10)]
        assert len({(s.mu, s.d0, s.norm_w) for s in sols}) == 1, point
        nodes = [s.grid.num_nodes for s in sols]
        assert nodes[0] < nodes[1] < nodes[2]


def test_quotient_error_above_the_contract_is_a_convergence_error(
        monkeypatch):
    # Weights skewed toward r = 1 leave a quotient error of about 1.1e-5.
    rule = henon.step_quadrature

    def skewed(traj):
        rq, weights = rule(traj)
        return rq, weights * (1.0 + 1e-4 * rq)

    monkeypatch.setattr(henon, "step_quadrature", skewed)
    with pytest.raises(ConvergenceError, match="above 1e-06"):
        solve_henon(4, 2.0, 3.0, 50.0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["radial", "--n", "4", "--p", "2", "--q", "3",
                         "--alpha", "50"])
    assert code == 1
    record = parse_record(out.getvalue())
    assert record["error"]["type"] == "ConvergenceError"


# A lattice spreads the draws: with st.floats(0, 1) half the examples of
# admissible_points had q - p below 0.1 and alpha below 50.
_FRACTIONS = st.sampled_from(np.linspace(0.0, 1.0, 65).tolist())


@st.composite
def admissible_points(draw):
    n = draw(st.integers(3, 6))
    p = draw(st.floats(2.0, n - 0.5))
    alpha = 400.0 * draw(_FRACTIONS)
    top = min(10.0, admissible_q_upper(n, p, alpha) - p)
    return n, p, p + 0.05 * (top / 0.05) ** draw(_FRACTIONS), alpha


@settings(derandomize=True, max_examples=150, deadline=None)
@given(admissible_points())
def test_every_solve_meets_its_invariants_or_raises_a_typed_error(point):
    # q - p stays at most 10: past it, at p >= 3.5, the multi-root scan
    # takes tens of trials per solve.
    try:
        sol = solve_henon(*point)
    except (SolverError, ValueError):
        return
    assert sol.diagnostics["mu_quotient_rel_err"] <= 1e-6, point
    assert sol.shoot_res <= 1e-8, point
    assert np.all(sol.v.values > 0.0), point


# Near q = p the origin value reaches 1e84-1e307; the centre-out trials
# integrate y = w/d and the quadrature runs on y, so none of these
# overflows.
NEAR_Q_EQUAL_P = [(5, 3.877, 3.897, 295.3), (3, 2.0, 2.01, 400.0),
                  (6, 2.0, 2.006, 100.0), (6, 2.0, 2.00403, 100.0)]


def test_near_q_equal_p_points_solve():
    for point in NEAR_Q_EQUAL_P:
        sol = solve_henon(*point)
        assert sol.d0 > 1e80 and math.isfinite(sol.norm_w), point
        assert sol.diagnostics["mu_quotient_rel_err"] <= 1e-6, point
        assert sol.shoot_res <= 1e-8, point
        assert np.all(sol.v.values > 0.0), point
    # Here the root lies past the largest float: the bracket gives up.  Its
    # trials keep a finite scale-free residual.
    point = (4, 3.0, 3.0011547819846895, 6.25)
    with pytest.raises(BracketError, match="no sign change"):
        solve_henon(*point)
    assert math.isfinite(shooting_miss(*point, 1e299))


def test_non_finite_quotient_is_a_convergence_error():
    # The root lands at d0 = 1.2e308, and ||w|| = d0 ||y|| overflows;
    # mu = inf must not be returned as a result.
    with pytest.raises(ConvergenceError, match="not finite"):
        solve_henon(6, 2.0, 2.004022, 100.0)


def test_overflowing_quadrature_raises_without_warnings():
    # The norm of this profile overflows; the finiteness check must raise,
    # with no numpy RuntimeWarning in process or on the CLI's stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="not finite"):
            solve_henon(6, 2.0, 2.004022, 100.0)
    proc = run_cli("radial", "--n", "6", "--p", "2", "--q", "2.004022",
                   "--alpha", "100")
    assert proc.returncode == 1
    assert parse_record(proc.stdout)["error"]["type"] == "ConvergenceError"
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


def test_limit_profile_error_halves_with_each_doubling_of_alpha():
    # At criterion 6's points sup |v - phi_p| falls like 1/alpha:
    # 8.0e-4, 4.06e-4, 2.05e-4 at (4, 2, 3) and 1.07e-3, 5.44e-4, 2.75e-4
    # at (4, 2.5, 3).
    alphas = (100.0, 200.0, 400.0)
    for n, p, q in [(4, 2.0, 3.0), (4, 2.5, 3.0)]:
        report = limit_comparison(n, p, q, alphas=alphas)
        assert tuple(pt.alpha for pt in report.points) == alphas
        assert report.sup_err_decreasing, (n, p, q)
        errs = [pt.sup_err for pt in report.points]
        for err, half in zip(errs, errs[1:]):
            assert 0.4 <= half / err <= 0.6, (n, p, q, errs)
        assert errs[-1] <= 1e-3 * report.phi_sup


def test_limit_comparison_validation():
    with pytest.raises(ValueError, match="two strictly increasing"):
        limit_comparison(4, 2.0, 3.0, alphas=(100.0,))
    with pytest.raises(ValueError, match="two strictly increasing"):
        limit_comparison(4, 2.0, 3.0, alphas=(200.0, 100.0))
