"""Flux-form integration against closed-form radial solutions."""
from __future__ import annotations

import numpy as np
import pytest

from henon_lab.flux_ode import (FluxState, grad_from_flux, integrate_flux_ode,
                                profile_evaluators, series_seed)


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
