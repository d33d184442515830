"""Adaptive integration of singular radial ODEs in flux form.

A radial quasilinear equation -(r^(n-1) |u'|^(p-2) u')' + (rhs) = 0 is
integrated as a first-order system in (u, F) with F = r^(n-1) |u'|^(p-2) u'.
The gradient is recovered as u' = sign(F) (|F|/r^(n-1))^(1/(p-1)), which
stays well-defined where u' vanishes and p > 2, unlike inverting |u'|^(p-2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError
from .mesh import check_dimension

__all__ = ["FluxState", "FluxTrajectory", "series_seed", "integrate_flux_ode",
           "grad_from_flux", "profile_evaluators"]

# Radius where every outward integration leaves the startup series.
SEED_RADIUS = 1e-4


@dataclass(frozen=True)
class FluxState:
    """Value and flux of a radial profile at one radius."""

    radius: float
    value: float
    flux: float


def grad_from_flux(flux, radius, p: float, n: int):
    """Recover u' from the flux F = r^(n-1) |u'|^(p-2) u'."""
    flux = np.asarray(flux, dtype=float)
    radius = np.asarray(radius, dtype=float)
    mag = (np.abs(flux) / radius ** (n - 1)) ** (1.0 / (p - 1.0))
    return np.sign(flux) * mag


def _series_amplitude(p: float, flux_coeff: float) -> float:
    """sign(c) |c|^(1/(p-1)): u' = amp r^(1/(p-1)) where the flux is c r^n."""
    return math.copysign(abs(flux_coeff) ** (1.0 / (p - 1.0)), flux_coeff)


def series_seed(p: float, n: int, u0: float, r_seed: float,
                flux_coeff: float) -> FluxState:
    """Leading-order startup state for profiles bounded at the origin.

    Near r = 0 the flux of a bounded profile is c r^n at leading order,
    c = flux_coeff (u0^(p-1)/n for the Steklov equation), so
    u(r) = u0 + sign(c) |c|^(1/(p-1)) ((p-1)/p) r^(p/(p-1)) + o(r^(p/(p-1))).
    """
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    check_dimension(n)
    if not 0.0 < r_seed <= 1e-2:
        raise ValueError(f"seed radius must lie in (0, 1e-2], got {r_seed}")
    if u0 <= 0.0:
        raise ValueError(f"origin value must be positive, got {u0}")
    amp = _series_amplitude(p, flux_coeff)
    value = u0 + amp * (p - 1.0) / p * r_seed ** (p / (p - 1.0))
    return FluxState(radius=r_seed, value=value, flux=flux_coeff * r_seed ** n)


@dataclass
class FluxTrajectory:
    """Accepted steps of a flux-form integration plus dense evaluators."""

    p: float
    n: int
    rs: np.ndarray
    values: np.ndarray
    fluxes: np.ndarray
    status: str  # 'completed' | 'capped' | 'hit_zero'
    _dense: object = field(default=None, repr=False)

    @property
    def end(self) -> FluxState:
        return FluxState(float(self.rs[-1]), float(self.values[-1]),
                         float(self.fluxes[-1]))

    def _states(self, r):
        r = np.asarray(r, dtype=float)
        if self._dense is None:
            raise ValueError("trajectory was integrated without dense output")
        return self._dense(np.clip(r, self.rs[0], self.rs[-1]))

    def value_at(self, r):
        return self._states(r)[0]

    def flux_at(self, r):
        return self._states(r)[1]

    def grad_at(self, r):
        r = np.asarray(r, dtype=float)
        return grad_from_flux(self.flux_at(r), np.clip(r, self.rs[0], None),
                              self.p, self.n)


def integrate_flux_ode(rhs_flux: Callable[[float, float], float],
                       seed: FluxState, r_end: float = 1.0, *,
                       p: float, n: int, tol: float = 1e-10,
                       value_cap: float | None = None,
                       stop_on_nonpositive: bool = False,
                       dense: bool = True) -> FluxTrajectory:
    """Integrate (u, F) from the seed radius to r_end.

    Parameters
    ----------
    rhs_flux : callable
        F'(r) = rhs_flux(r, u).
    value_cap : float, optional
        Terminate (status 'capped') once |u| exceeds this blow-up threshold.
    stop_on_nonpositive : bool
        Terminate (status 'hit_zero') when u crosses zero from above; used by
        shooting, where such a trial is classified rather than an error.
    """
    if not seed.radius < r_end <= 1.0:
        raise ValueError(f"need seed radius < r_end <= 1, got {seed.radius}, {r_end}")
    if tol <= 0:
        raise ValueError("tolerance must be positive")

    if not (math.isfinite(seed.value) and math.isfinite(seed.flux)):
        raise IntegrationError(
            f"seed state ({seed.value:.6g}, {seed.flux:.6g}) at "
            f"r={seed.radius:.6g} is not finite", last_radius=seed.radius)

    inv_exp = 1.0 / (p - 1.0)
    nm1 = n - 1

    def rhs(r, y):
        u, flux = y
        df = rhs_flux(r, u)
        if math.isnan(df):
            raise IntegrationError(
                f"flux right-hand side returned NaN at r={r:.6g}",
                last_radius=r)
        du = math.copysign((abs(flux) / r ** nm1) ** inv_exp, flux)
        return (du, df)

    events = []
    if value_cap is not None:
        def cap_event(r, y):
            return value_cap - abs(y[0])
        cap_event.terminal = True
        events.append(cap_event)
    if stop_on_nonpositive:
        def zero_event(r, y):
            return y[0]
        zero_event.terminal = True
        zero_event.direction = -1
        events.append(zero_event)

    sol = solve_ivp(rhs, (seed.radius, r_end), (seed.value, seed.flux),
                    method="RK45", rtol=tol, atol=tol,
                    dense_output=dense, events=events or None)
    if sol.status == -1:
        last = float(sol.t[-1]) if sol.t.size else seed.radius
        raise IntegrationError(
            f"integration stalled at r={last:.6g}: {sol.message}", last_radius=last)

    status = "completed"
    if sol.status == 1 and events:
        if value_cap is not None and sol.t_events[0].size:
            status = "capped"
        else:
            status = "hit_zero"
    return FluxTrajectory(p=p, n=n, rs=sol.t, values=sol.y[0], fluxes=sol.y[1],
                          status=status, _dense=sol.sol if dense else None)


def profile_evaluators(traj: FluxTrajectory, u0: float, flux_coeff: float):
    """Evaluators for (u, u') on all of [0, 1], splicing the startup series.

    Below the seed radius the trajectory has no data; there the flux behaves
    like flux_coeff * r^n, so u' = sign(c) |c|^(1/(p-1)) r^(1/(p-1)) and
    u = u0 + sign(c) |c|^(1/(p-1)) ((p-1)/p) r^(p/(p-1)).  Above it the dense
    interpolant is used.  Returns (value_fn, grad_fn), each vectorized.
    """
    p = traj.p
    r0 = float(traj.rs[0])
    inv = 1.0 / (p - 1.0)
    amp = _series_amplitude(p, flux_coeff)

    def value_fn(r):
        r = np.asarray(r, dtype=float)
        series = u0 + amp * (p - 1.0) / p * r ** (1.0 + inv)
        dense_vals = traj.value_at(np.maximum(r, r0))
        return np.where(r < r0, series, dense_vals)

    def grad_fn(r):
        r = np.asarray(r, dtype=float)
        series = amp * r ** inv
        dense_grads = traj.grad_at(np.maximum(r, r0))
        return np.where(r < r0, series, dense_grads)

    return value_fn, grad_fn
