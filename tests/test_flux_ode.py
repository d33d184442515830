"""Flux-form integration against closed-form radial solutions and scipy."""
from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from henon_lab import flux_ode, henon
from henon_lab.errors import IntegrationError
from henon_lab.flux_ode import (SEED_RADIUS, grad_from_flux,
                                integrate_flux_ode)


def test_seed_validation():
    with pytest.raises(ValueError, match="p must exceed 1"):
        integrate_flux_ode(1.0, 1.0 / 3, p=1.0, n=3)
    with pytest.raises(ValueError, match="n must be"):
        integrate_flux_ode(1.0, 1.0 / 2, p=2.0, n=2)
    with pytest.raises(ValueError, match="positive"):
        integrate_flux_ode(-1.0, 1.0 / 3, p=2.0, n=3)
    with pytest.raises(ValueError, match="tolerance"):
        integrate_flux_ode(1.0, 1.0 / 3, p=2.0, n=3, tol=0.0)


def test_seed_window_validation():
    # The run covers [SEED_RADIUS, 1]; a tolerance that is not finite and
    # positive is refused.
    for tol in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            integrate_flux_ode(1.0, 1.0 / 3, p=2.0, n=3, tol=tol)
    traj = integrate_flux_ode(1.0, 1.0 / 3, p=2.0, n=3)
    assert traj.status == "completed"
    assert traj.rs[0] == SEED_RADIUS and traj.end.radius == 1.0


@pytest.mark.parametrize("coeff", [math.inf, -math.inf, math.nan])
def test_non_finite_flux_coefficient_is_an_integration_error(coeff):
    # henon._trial passes the coefficient on when d^(q-1) or its sink
    # d^(q-p) overflows.
    with pytest.raises(IntegrationError, match="not finite"):
        integrate_flux_ode(1.0, coeff, p=2.5, n=3)


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
    traj = integrate_flux_ode(1.0, 1.0 / 3, p=2.0, n=3, tol=1e-11)
    assert traj.status == "completed"
    end = traj.end
    assert abs(end.value - 1.1752011936438014) < 1e-9
    assert abs(end.flux - 0.3678794411714423) < 1e-9


def test_dense_output_tracks_solution():
    traj = integrate_flux_ode(1.0, 1.0 / 3, p=2.0, n=3, tol=1e-11)
    r = np.linspace(0.05, 1.0, 40)
    assert np.max(np.abs(traj.value_at(r) - np.sinh(r) / r)) < 1e-9
    values, grads = traj.profile_at(r)
    assert np.array_equal(values, traj.value_at(r))
    exact_grad = (np.cosh(r) * r - np.sinh(r)) / r ** 2
    assert np.max(np.abs(grads - exact_grad)) < 1e-8


def test_dense_output_is_built_once_on_first_evaluation():
    # A run keeps its steps as recorded; the quartic coefficients are built
    # on the first query, replace the stage derivatives, and serve every
    # later query.
    traj = integrate_flux_ode(1.0, 1.0 / 3, p=2.0, n=3, tol=1e-8)
    assert traj._coef is None
    assert len(traj._steps) == len(traj._stages) == traj.rs.size - 1
    first = traj.value_at(0.5)
    coef = traj._coef
    assert coef.shape == (2, 4, traj.rs.size - 1) and traj._stages is None
    assert traj.value_at(0.5) == first and traj._coef is coef


def test_value_cap_terminates():
    # Blow-up: a negative sink makes the source 50 u.
    traj = integrate_flux_ode(1.0, 1.0 / 3, p=2.0, n=3, sink=-49.0, tol=1e-9,
                              value_cap=10.0)
    assert traj.status == "capped"
    assert abs(traj.end.value) <= 10.0 * (1.0 + 1e-8)
    assert traj.end.radius < 1.0


def test_zero_crossing_terminates():
    # A strong sink, source -200 u, drives u = sin(kr)/(kr), k = 200^(1/2),
    # through zero at r = pi/k before r = 1.
    traj = integrate_flux_ode(1.0, 1.0 / 3, p=2.0, n=3, sink=201.0, tol=1e-9,
                              stop_on_nonpositive=True)
    assert traj.status == "hit_zero"
    assert abs(traj.end.value) < 1e-8
    assert abs(traj.end.radius - math.pi / 200 ** 0.5) < 1e-6


def test_trajectory_splices_the_series_below_seed():
    p, n = 2.5, 4
    traj = integrate_flux_ode(1.0, 1.0 / n, p=p, n=n, tol=1e-10)
    assert traj.rs[0] == SEED_RADIUS and traj.rs[-1] == 1.0
    value_fn = traj.value_at
    r = np.array([0.0, 1e-6, 5e-5, 2e-4, 0.5, 1.0])
    vals = value_fn(r)
    assert vals[0] == 1.0
    assert np.all(np.diff(vals) > 0.0)
    # Series and dense branch meet continuously at the seed radius.
    below, above = value_fn(1e-4 * (1 - 1e-9)), value_fn(1e-4 * (1 + 1e-9))
    assert abs(below - above) < 1e-12
    # The startup gradient follows r^(1/(p-1)) with the flux coefficient.
    expect = (1.0 / n) ** (1.0 / (p - 1.0)) * (5e-5) ** (1.0 / (p - 1.0))
    assert abs(traj.profile_at(5e-5)[1] - expect) / expect < 1e-10


def _source(p, sink, alpha, q):
    """The source s(r, u) of the family, as henon (sink = 1) and steklov
    (sink = 0) stated it before the family moved into flux_ode, with the
    sink factor of henon's scaled trials written in (1.0 * x is x)."""
    if sink == 0.0:
        return lambda r, u: u ** (p - 1.0)
    pm1, qm1 = p - 1.0, q - 1.0

    def source(r, w):
        # Trial steps may poke below zero; fractional powers need w >= 0.
        w = w if w > 0.0 else 0.0
        return w ** pm1 - sink * r ** alpha * w ** qm1

    return source


def _reference_rhs(p, n, source):
    """The (u', F') closure as flux_ode built it around a source callable."""
    inv_exp = 1.0 / (p - 1.0)
    nm1 = n - 1

    def rhs(r, u, flux):
        rn = r ** nm1
        df = rn * source(r, u)
        if df != df or type(df) is complex:
            raise IntegrationError(
                f"flux right-hand side returned {df!r} at r={r:.6g}",
                last_radius=r)
        return math.copysign((abs(flux) / rn) ** inv_exp, flux), df

    return rhs


def _outcome(fun, r, u, flux):
    try:
        return [struct.pack("<d", x) for x in fun(r, u, flux)]
    except (ArithmeticError, IntegrationError) as exc:
        return type(exc)


@pytest.mark.parametrize("n, p, sink, alpha, q", [
    (3, 2.0, 1.0, 400.0, 404.0),   # p = 2
    (4, 2.0, 1.0, 25.0, 3.0),
    (4, 2.5, 1.0, 25.0, 3.0),      # p > 2
    (5, 4.5, 1.0, 5.0, 47.25),
    (4, 3.0, 1.0, 400.0, 607.5),   # w^(q-1) overflows once w > 3.223
    (4, 2.5, 0.0, 0.0, 2.0),       # Steklov
    (3, 2.0, 0.0, 0.0, 2.0),
])
def test_fused_rhs_matches_the_source_closure_bit_for_bit(n, p, sink, alpha,
                                                          q):
    # One closure call per stage instead of rhs calling the source, and no
    # ** 1.0 at p = 2 (IEEE pow(x, 1.0) is x): the same bytes, and the same
    # exception where a stage overflows or its state is inf.  The Steklov
    # source is compared where it was defined, u > 0.
    fused = flux_ode._flux_rhs(p, n, sink, alpha, q)
    reference = _reference_rhs(p, n, _source(p, sink, alpha, q))
    rng = np.random.default_rng(11)
    rs = np.concatenate(([SEED_RADIUS, 1.0], rng.uniform(SEED_RADIUS, 1.0,
                                                          400)))
    us = np.concatenate(([0.0, -0.0, -1.0, 3.3, 1e300, math.inf],
                         rng.lognormal(0.0, 2.0, 200),
                         -rng.lognormal(0.0, 2.0, 200)))
    fluxes = rng.normal(size=us.size) * 10.0 ** rng.uniform(-12, 3, us.size)
    if sink == 0.0:
        us = np.abs(us) + 1e-3
    outcomes = set()
    for r, u, flux in zip(rs, us, fluxes):
        got = _outcome(fused, float(r), float(u), float(flux))
        assert got == _outcome(reference, float(r), float(u), float(flux)), \
            (r, u, flux)
        outcomes.add(got if isinstance(got, type) else bytes)
    assert bytes in outcomes
    if q > 600.0:
        assert OverflowError in outcomes


def _scipy_rk45(source, traj, p, n, tol, value_cap=None, stop=False):
    """The integration of `traj` through scipy's solve_ivp (RK45), from its
    first state, events and all, as the package ran it before it had its
    own stepper."""
    from scipy.integrate import solve_ivp

    inv_exp = 1.0 / (p - 1.0)

    def rhs(r, y):
        rn = r ** (n - 1)
        return (math.copysign((abs(y[1]) / rn) ** inv_exp, y[1]),
                rn * source(r, y[0]))

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
    sol = solve_ivp(rhs, (traj.rs[0], 1.0), (traj.values[0], traj.fluxes[0]),
                    method="RK45", rtol=tol, atol=tol, dense_output=True,
                    events=events or None)
    status = "completed"
    if sol.status == 1:
        status = "capped" if value_cap is not None and sol.t_events[0].size \
            else "hit_zero"
    return sol, status


def _henon_case(n, p, q, alpha, center_factor):
    """The scaled trial y = w/d from d = center_factor c, as henon._trial
    integrates it: y(0) = 1 and sink d^(q-p)."""
    d = center_factor * henon._initial_center(n, p, q, alpha)
    assert d >= 1.0
    sink = d ** (q - p)
    coeff = 1.0 / n - sink / (alpha + n) * SEED_RADIUS ** alpha
    return (sink, alpha, q), 1.0, coeff


def _steklov_case():
    return (0.0, 0.0, 2.0), 1.0, 1.0 / 4


@pytest.mark.parametrize("case", ["steklov", "hit_zero", "capped"])
def test_stepper_takes_scipy_rk45_steps(case, monkeypatch):
    # Same tableau, initial step, error norm and step control as scipy's
    # RK45, so the same steps are accepted and rejected.  States agree to
    # rounding here.  scipy sums the stages with BLAS (fused multiply-adds),
    # and over 234 Henon trials step control amplified that rounding to
    # 5e-11 relative at worst, without changing a single step count.
    if case == "steklov":
        (family, d, coeff), p, n, tol, cap, stop = _steklov_case(), 2.5, 4, \
            1e-10, None, False
    elif case == "hit_zero":
        family, d, coeff = _henon_case(4, 2.0, 3.0, 25.0, 316.0)
        p, n, tol, cap, stop = 2.0, 4, 1e-8, 1e6, True
    else:
        family, d, coeff = _henon_case(5, 2.5, 4.0, 25.0, 1.0)
        p, n, tol, cap, stop = 2.5, 5, 1e-10, 1.2, True
    sink, alpha, q = family
    runs = []
    stepper = flux_ode.solve_ivp

    def spy(*args, **kwargs):
        runs.append(stepper(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(flux_ode, "solve_ivp", spy)
    traj = integrate_flux_ode(d, coeff, p=p, n=n, sink=sink, alpha=alpha, q=q,
                              tol=tol, value_cap=cap, stop_on_nonpositive=stop)
    ref, status = _scipy_rk45(_source(p, sink, alpha, q), traj, p, n, tol,
                              cap, stop)
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
    dense = traj._states(r)
    assert np.all(np.abs(dense - ref.sol(r)) <= 1e-12 * scale[:, None])


def test_overflowing_stage_is_rejected_not_raised(monkeypatch):
    # At q = 607.5, w^(q-1) overflows once w > 3.223.  The scan path
    # integrates w: from d = 3.0 the trial's largest value is 3.08, but
    # trial stages overshoot past the threshold in mid-integration; those
    # steps are rejected and shrunk, and the trial is classified.  From
    # d = 3.2 the solution itself crosses the threshold, and the run ends as
    # an IntegrationError.  The centre-out path's trial from d >= 1
    # integrates y = w/d with sink d^(q-p), where y^(q-1) overflows once
    # y > 3.223: from both origin values y stays below 1.03, stages still
    # overshoot, and both trials are classified; the scaled run ends as an
    # IntegrationError only where the sink itself overflows (d > 3.236), at
    # the seed.
    overflows = []
    stepper = flux_ode.solve_ivp

    def watched(fun, *args, **kwargs):
        def spy(r, u, flux):
            try:
                return fun(r, u, flux)
            except OverflowError:
                overflows.append(r)
                raise
        return stepper(spy, *args, **kwargs)

    monkeypatch.setattr(flux_ode, "solve_ivp", watched)
    assert henon._trial(4, 3.0, 607.5, 400.0, 3.0, 1e-8).status == "hit_zero"
    assert overflows and min(overflows) > SEED_RADIUS
    overflows.clear()
    with pytest.raises(IntegrationError, match="stalled"):
        henon._trial(4, 3.0, 607.5, 400.0, 3.2, 1e-8)
    assert overflows and min(overflows) > SEED_RADIUS
    for d in (3.0, 3.2):
        overflows.clear()
        assert henon._trial(4, 3.0, 607.5, 400.0, d, 1e-8, d).status \
            == "hit_zero"
        assert overflows and min(overflows) > SEED_RADIUS
    overflows.clear()
    with pytest.raises(IntegrationError, match="seed state .* not finite"):
        henon._trial(4, 3.0, 607.5, 400.0, 3.24, 1e-8, 3.24)
    assert not overflows


def test_overflowed_stage_state_is_an_integration_error():
    # With source u - u/2 the profile from u(0) = 1e308 passes the largest
    # float before r = 1; a stage state of inf makes the source inf - inf,
    # and the run ends.
    with pytest.raises(IntegrationError, match="returned nan"):
        integrate_flux_ode(1e308, 1e308, p=2.0, n=3, sink=0.5, q=2.0)
