"""Flux-form integration against closed-form radial solutions and scipy."""
from __future__ import annotations

import math

import numpy as np
import pytest

from henon_lab import flux_ode, henon
from henon_lab.errors import IntegrationError
from henon_lab.flux_ode import (SEED_RADIUS, FluxState, grad_from_flux,
                                integrate_flux_ode, profile_evaluators,
                                series_seed)


def _linear_rhs(n):
    def rhs(r, u):
        return r ** (n - 1) * u
    return rhs


def test_seed_validation():
    with pytest.raises(ValueError, match="p must exceed 1"):
        series_seed(1.0, 3, 1.0, 1e-4, 1.0 / 3)
    with pytest.raises(ValueError, match="n must be"):
        series_seed(2.0, 2, 1.0, 1e-4, 1.0 / 2)
    with pytest.raises(ValueError, match="seed radius"):
        series_seed(2.0, 3, 1.0, 0.1, 1.0 / 3)
    with pytest.raises(ValueError, match="positive"):
        series_seed(2.0, 3, -1.0, 1e-4, 1.0 / 3)


def test_grad_from_flux_roundtrip():
    rng = np.random.default_rng(3)
    p, n = 2.7, 4
    r = rng.uniform(0.1, 1.0, 50)
    du = rng.normal(size=50)
    flux = r ** (n - 1) * np.abs(du) ** (p - 2.0) * du
    assert np.allclose(grad_from_flux(flux, r, p, n), du, atol=1e-12)


def test_sinh_profile_n3_p2():
    # (r^2 u')' = r^2 u with u bounded at 0 has u = u0 sinh(r)/r, hence
    # u(1) = u0 sinh(1) and F(1) = r^2 u'|_1 = u0 (cosh 1 - sinh 1).
    seed = series_seed(2.0, 3, 1.0, 1e-5, 1.0 / 3)
    traj = integrate_flux_ode(_linear_rhs(3), seed, p=2.0, n=3, tol=1e-11)
    assert traj.status == "completed"
    end = traj.end
    assert abs(end.value - 1.1752011936438014) < 1e-9
    assert abs(end.flux - 0.3678794411714423) < 1e-9


def test_dense_output_tracks_solution():
    seed = series_seed(2.0, 3, 1.0, 1e-5, 1.0 / 3)
    traj = integrate_flux_ode(_linear_rhs(3), seed, p=2.0, n=3, tol=1e-11)
    r = np.linspace(0.05, 1.0, 40)
    assert np.max(np.abs(traj.value_at(r) - np.sinh(r) / r)) < 1e-9
    exact_grad = (np.cosh(r) * r - np.sinh(r)) / r ** 2
    assert np.max(np.abs(traj.grad_at(r) - exact_grad)) < 1e-8


def test_no_dense_output_raises_on_query():
    seed = series_seed(2.0, 3, 1.0, 1e-5, 1.0 / 3)
    traj = integrate_flux_ode(_linear_rhs(3), seed, p=2.0, n=3, tol=1e-8,
                              dense=False)
    with pytest.raises(ValueError, match="dense"):
        traj.value_at(0.5)


def test_value_cap_terminates():
    # u' = u / r^(n-1) style blow-up: force it with an aggressive source.
    def rhs(r, u):
        return 50.0 * r ** 2 * u

    seed = series_seed(2.0, 3, 1.0, 1e-4, 1.0 / 3)
    traj = integrate_flux_ode(rhs, seed, p=2.0, n=3, tol=1e-9, value_cap=10.0)
    assert traj.status == "capped"
    assert abs(traj.end.value) <= 10.0 * (1.0 + 1e-8)
    assert traj.end.radius < 1.0


def test_zero_crossing_terminates():
    # A strong sink drives u through zero before r = 1.
    def rhs(r, u):
        return -200.0 * r ** 2

    seed = series_seed(2.0, 3, 1.0, 1e-4, 1.0 / 3)
    traj = integrate_flux_ode(rhs, seed, p=2.0, n=3, tol=1e-9,
                              stop_on_nonpositive=True)
    assert traj.status == "hit_zero"
    assert abs(traj.end.value) < 1e-8


def test_seed_window_validation():
    seed = series_seed(2.0, 3, 1.0, 1e-4, 1.0 / 3)
    with pytest.raises(ValueError, match="seed radius"):
        integrate_flux_ode(_linear_rhs(3), seed, r_end=1e-5, p=2.0, n=3)
    with pytest.raises(ValueError, match="tolerance"):
        integrate_flux_ode(_linear_rhs(3), seed, p=2.0, n=3, tol=0.0)


def test_profile_evaluators_splice_below_seed():
    p, n = 2.5, 4
    seed = series_seed(p, n, 1.0, 1e-4, 1.0 / n)
    traj = integrate_flux_ode(_linear_rhs(n), seed, p=p, n=n, tol=1e-10)
    value_fn, grad_fn = profile_evaluators(traj, 1.0, 1.0 / n)
    r = np.array([0.0, 1e-6, 5e-5, 2e-4, 0.5, 1.0])
    vals = value_fn(r)
    assert vals[0] == 1.0
    assert np.all(np.diff(vals) > 0.0)
    # Series and dense branch meet continuously at the seed radius.
    below, above = value_fn(1e-4 * (1 - 1e-9)), value_fn(1e-4 * (1 + 1e-9))
    assert abs(below - above) < 1e-12
    # The startup gradient follows r^(1/(p-1)) with the flux coefficient.
    expect = (1.0 / n) ** (1.0 / (p - 1.0)) * (5e-5) ** (1.0 / (p - 1.0))
    assert abs(grad_fn(5e-5) - expect) / expect < 1e-10


def _scipy_rk45(rhs_flux, seed, p, n, tol, value_cap=None, stop=False):
    """The same integration through scipy's solve_ivp (RK45), events and
    all, as the package ran it before it had its own stepper."""
    from scipy.integrate import solve_ivp

    inv_exp = 1.0 / (p - 1.0)

    def rhs(r, y):
        return (math.copysign((abs(y[1]) / r ** (n - 1)) ** inv_exp, y[1]),
                rhs_flux(r, y[0]))

    events = []
    if value_cap is not None:
        def cap(r, y):
            return value_cap - abs(y[0])
        cap.terminal = True
        events.append(cap)
    if stop:
        def zero(r, y):
            return y[0]
        zero.terminal = True
        zero.direction = -1
        events.append(zero)
    sol = solve_ivp(rhs, (seed.radius, 1.0), (seed.value, seed.flux),
                    method="RK45", rtol=tol, atol=tol, dense_output=True,
                    events=events or None)
    status = "completed"
    if sol.status == 1:
        status = "capped" if value_cap is not None and sol.t_events[0].size \
            else "hit_zero"
    return sol, status


def _henon_case(n, p, q, alpha, center_factor):
    d = center_factor * henon._initial_center(n, p, q, alpha)
    seed = series_seed(p, n, d, SEED_RADIUS,
                       henon._flux_coeff(n, p, q, alpha, d))
    return henon._rhs_factory(n, p, q, alpha), seed, d


def _steklov_case():
    seed = series_seed(2.5, 4, 1.0, SEED_RADIUS, 1.0 / 4)
    return (lambda r, u: r ** 3 * u ** 1.5), seed


@pytest.mark.parametrize("case", ["steklov", "hit_zero", "capped"])
def test_stepper_takes_scipy_rk45_steps(case, monkeypatch):
    # Same tableau, initial step, error norm and step control as scipy's
    # RK45, so the same steps are accepted and rejected.  States agree to
    # rounding here.  scipy sums the stages with BLAS (fused multiply-adds),
    # and over 234 Henon trials step control amplified that rounding to
    # 5e-11 relative at worst, without changing a single step count.
    if case == "steklov":
        (rhs_flux, seed), p, n, tol, cap, stop = _steklov_case(), 2.5, 4, \
            1e-10, None, False
    elif case == "hit_zero":
        rhs_flux, seed, d = _henon_case(4, 2.0, 3.0, 25.0, 316.0)
        p, n, tol, cap, stop = 2.0, 4, 1e-8, 1e6 * d, True
    else:
        rhs_flux, seed, d = _henon_case(5, 2.5, 4.0, 25.0, 1.0)
        p, n, tol, cap, stop = 2.5, 5, 1e-10, 1.2 * d, True
    runs = []
    stepper = flux_ode.solve_ivp

    def spy(*args, **kwargs):
        runs.append(stepper(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(flux_ode, "solve_ivp", spy)
    traj = integrate_flux_ode(rhs_flux, seed, p=p, n=n, tol=tol,
                              value_cap=cap, stop_on_nonpositive=stop)
    ref, status = _scipy_rk45(rhs_flux, seed, p, n, tol, cap, stop)
    assert traj.status == status == ("completed" if case == "steklov"
                                     else case)
    assert traj.rs.size == ref.t.size
    assert runs[0].nfev == ref.nfev
    assert abs(traj.end.radius - ref.t[-1]) <= 1e-12 * ref.t[-1]
    # Relative to each component's size along the run: a zero crossing
    # ends at u = 0, where a plain relative error means nothing.
    scale = np.max(np.abs(ref.y), axis=1)
    end = np.array([traj.end.value, traj.end.flux])
    assert np.all(np.abs(end - ref.y[:, -1]) <= 1e-12 * scale)
    r = np.linspace(traj.rs[0], traj.rs[-1], 1000)
    dense = np.stack([traj.value_at(r), traj.flux_at(r)])
    assert np.all(np.abs(dense - ref.sol(r)) <= 1e-12 * scale[:, None])


def test_overflowing_stage_is_rejected_not_raised(monkeypatch):
    # At q = 607.5, w^(q-1) overflows once w > 3.223.  From d = 3.0 the
    # trial's largest value is 3.08, but trial stages overshoot past the
    # threshold in mid-integration; those steps are rejected and shrunk,
    # and the trial is classified.  From d = 3.2 the solution itself
    # crosses the threshold, and the run ends as an IntegrationError.
    overflows = []
    factory = henon._rhs_factory

    def watched(*params):
        rhs = factory(*params)

        def spy(r, w):
            try:
                return rhs(r, w)
            except OverflowError:
                overflows.append(r)
                raise
        return spy

    monkeypatch.setattr(henon, "_rhs_factory", watched)
    assert henon._trial(4, 3.0, 607.5, 400.0, 3.0, 1e-8).status == "hit_zero"
    assert overflows and min(overflows) > SEED_RADIUS
    overflows.clear()
    with pytest.raises(IntegrationError, match="stalled"):
        henon._trial(4, 3.0, 607.5, 400.0, 3.2, 1e-8)
    assert overflows and min(overflows) > SEED_RADIUS


def test_complex_rhs_is_an_integration_error():
    # u falls through zero, and u ** 1.5 of a negative float is complex.
    with pytest.raises(IntegrationError, match="complex|j\\)"):
        integrate_flux_ode(lambda r, u: u ** 1.5, FluxState(0.1, 1.0, -1.0),
                           p=2.0, n=3)
