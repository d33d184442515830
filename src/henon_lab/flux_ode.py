"""Adaptive integration of singular radial ODEs in flux form.

A radial quasilinear equation -(r^(n-1) |u'|^(p-2) u')' + (rhs) = 0 is
integrated as a first-order system in (u, F) with F = r^(n-1) |u'|^(p-2) u'.
The gradient is recovered as u' = sign(F) (|F|/r^(n-1))^(1/(p-1)), which
stays well-defined where u' vanishes and p > 2, unlike inverting |u'|^(p-2).

The stepper is the Dormand-Prince 5(4) pair (Dormand & Prince 1980) with
local extrapolation and Shampine's quartic continuous extension (Shampine
1986), on plain floats.  Step control follows Hairer, Norsett & Wanner,
*Solving ODEs I*, II.4: the initial step from two derivative samples, the
RMS error over atol + rtol max(|y|, |y_new|), a 0.9 safety factor, step
factors in [0.2, 10] and no growth right after a rejection.  These are
scipy's RK45 rules, so the two accept and reject the same steps; their
states differ by rounding.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import IntegrationError
from .mesh import check_dimension
from .rootfind import _brent

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
    # Full length and quartic coefficients (2, 4, steps) of each step.
    _steps: np.ndarray | None = field(default=None, repr=False)
    _coef: np.ndarray | None = field(default=None, repr=False)

    @property
    def end(self) -> FluxState:
        return FluxState(float(self.rs[-1]), float(self.values[-1]),
                         float(self.fluxes[-1]))

    def _states(self, r):
        """(u, F) at radii r from the step holding each radius."""
        if self._coef is None:
            raise ValueError("trajectory was integrated without dense output")
        r = np.clip(np.asarray(r, dtype=float), self.rs[0], self.rs[-1])
        # A radius on a step boundary takes the earlier step.
        i = np.clip(np.searchsorted(self.rs, r) - 1, 0, self._steps.size - 1)
        h = self._steps[i]
        x = (r - self.rs[i]) / h
        c = self._coef[:, :, i]
        start = np.stack([self.values[i], self.fluxes[i]])
        return start + h * x * (c[:, 0] + x * (c[:, 1] + x * (c[:, 2]
                                                             + x * c[:, 3])))

    def value_at(self, r):
        return self._states(r)[0]

    def flux_at(self, r):
        return self._states(r)[1]

    def grad_at(self, r):
        r = np.asarray(r, dtype=float)
        return grad_from_flux(self.flux_at(r), np.clip(r, self.rs[0], None),
                              self.p, self.n)


# Dormand-Prince 5(4): stage nodes, stage weights, fifth-order weights, and
# error weights (fifth minus fourth order, the last one on the derivative at
# the new point).  Stage 1 carries no weight in either sum.
_C1, _C2, _C3, _C4 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A1 = 1 / 5
_A2 = (3 / 40, 9 / 40)
_A3 = (44 / 45, -56 / 15, 32 / 9)
_A4 = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_A5 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
      1 / 40)
# Shampine's continuous extension: y(t + x h) = y + h sum_k (K^T P)_k x^(k+1)
# over the seven stage derivatives K.
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5  # the error estimate is fourth order
_SQRT2 = 2 ** 0.5
_EVENT_XTOL = 4 * sys.float_info.epsilon


@dataclass
class OdeSteps:
    """What `solve_ivp` returns: accepted radii, states and work done."""

    t: np.ndarray      # accepted radii; an event radius ends the last step
    y: np.ndarray      # (2, t.size) states (u, F) at t
    nfev: int          # right-hand side calls, six per attempted step + 2
    status: str        # 'completed' | 'capped' | 'hit_zero'
    steps: np.ndarray | None  # full step lengths, with dense output only
    coef: np.ndarray | None   # (2, 4, steps) quartic coefficients


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / _SQRT2


def _event_radius(g, a: float, b: float) -> float:
    """Root of g on the step [a, b] (scipy's brentq tolerance, 4 eps)."""
    ga, gb = g(a), g(b)
    if ga * gb > 0.0:  # the quartic's end rounds past the step's end state
        return b
    return _brent(g, a, b, ga, gb, 0.0, _EVENT_XTOL, 200)


def solve_ivp(fun, r0: float, r_end: float, u0: float, flux0: float, *,
              tol: float, value_cap: float | None = None,
              stop_on_nonpositive: bool = False,
              dense: bool = True) -> OdeSteps:
    """Dormand-Prince 5(4) for (u, F)' = fun(r, u, F) on [r0, r_end].

    atol = rtol = tol.  A step whose stages overflow, or whose error or new
    state is not finite, is rejected and shrunk; a step below ten float
    spacings of r raises IntegrationError.  Integration stops early where
    the dense output has u cross zero downward (stop_on_nonpositive) or
    |u| reach value_cap.
    """
    try:
        k0u, k0f = fun(r0, u0, flux0)
    except OverflowError:
        k0u = k0f = math.inf
    if not (math.isfinite(k0u) and math.isfinite(k0f)):
        raise IntegrationError(f"derivative at r={r0:.6g} is not finite",
                               last_radius=r0)
    # Initial step (Hairer, Norsett & Wanner II.4) from the derivative at r0
    # and at one explicit Euler step.
    span = r_end - r0
    scale_u, scale_f = tol + abs(u0) * tol, tol + abs(flux0) * tol
    d0 = _rms(u0 / scale_u, flux0 / scale_f)
    d1 = _rms(k0u / scale_u, k0f / scale_f)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    try:
        ku, kf = fun(r0 + h0, u0 + h0 * k0u, flux0 + h0 * k0f)
        d2 = _rms((ku - k0u) / scale_u, (kf - k0f) / scale_f) / h0
    except OverflowError:
        d2 = math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    h_abs = min(100 * h0, h1, span)

    a10 = _A1
    a20, a21 = _A2
    a30, a31, a32 = _A3
    a40, a41, a42, a43 = _A4
    a50, a51, a52, a53, a54 = _A5
    b0, b2, b3, b4, b5 = _B
    e0, e2, e3, e4, e5, e6 = _E
    r, u, f = r0, u0, flux0
    rs, us, fs, hs, ks = [r], [u], [f], [], []
    attempts = 0
    status = "completed"
    while r < r_end:
        min_step = 10.0 * (math.nextafter(r, math.inf) - r)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(
                    f"integration stalled at r={r:.6g}: the step fell below "
                    "ten float spacings", last_radius=r)
            r_new = min(r + h_abs, r_end)
            h = h_abs = r_new - r
            attempts += 1
            try:
                k1u, k1f = fun(r + _C1 * h, u + (k0u * a10) * h,
                               f + (k0f * a10) * h)
                k2u, k2f = fun(r + _C2 * h, u + (k0u * a20 + k1u * a21) * h,
                               f + (k0f * a20 + k1f * a21) * h)
                k3u, k3f = fun(r + _C3 * h,
                               u + (k0u * a30 + k1u * a31 + k2u * a32) * h,
                               f + (k0f * a30 + k1f * a31 + k2f * a32) * h)
                k4u, k4f = fun(r + _C4 * h,
                               u + (k0u * a40 + k1u * a41 + k2u * a42
                                    + k3u * a43) * h,
                               f + (k0f * a40 + k1f * a41 + k2f * a42
                                    + k3f * a43) * h)
                k5u, k5f = fun(r + h,
                               u + (k0u * a50 + k1u * a51 + k2u * a52
                                    + k3u * a53 + k4u * a54) * h,
                               f + (k0f * a50 + k1f * a51 + k2f * a52
                                    + k3f * a53 + k4f * a54) * h)
                u_new = u + h * (k0u * b0 + k2u * b2 + k3u * b3 + k4u * b4
                                 + k5u * b5)
                f_new = f + h * (k0f * b0 + k2f * b2 + k3f * b3 + k4f * b4
                                 + k5f * b5)
                k6u, k6f = fun(r + h, u_new, f_new)
                err = _rms((k0u * e0 + k2u * e2 + k3u * e3 + k4u * e4
                            + k5u * e5 + k6u * e6) * h
                           / (tol + max(abs(u), abs(u_new)) * tol),
                           (k0f * e0 + k2f * e2 + k3f * e3 + k4f * e4
                            + k5f * e5 + k6f * e6) * h
                           / (tol + max(abs(f), abs(f_new)) * tol))
            except OverflowError:
                err = math.inf
            if err < 1.0 and math.isfinite(u_new) and math.isfinite(f_new):
                factor = (_MAX_FACTOR if err == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            # max() keeps the floor when err is NaN.
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected = True

        stages = (k0u, k1u, k2u, k3u, k4u, k5u, k6u,
                  k0f, k1f, k2f, k3f, k4f, k5f, k6f)
        # Event tests as scipy's: u falls to zero or below, or the cap gap
        # touches or changes sign.
        at_zero = stop_on_nonpositive and u >= 0.0 and u_new <= 0.0
        if value_cap is None:
            at_cap = False
        else:
            gap, gap_new = value_cap - abs(u), value_cap - abs(u_new)
            at_cap = gap <= 0.0 <= gap_new or gap >= 0.0 >= gap_new
        if at_zero or at_cap:
            (cu, cf) = (np.reshape(stages, (2, 7)) @ _P).tolist()

            def state_at(radius):
                x = (radius - r) / h
                return (u + h * x * (cu[0] + x * (cu[1] + x * (cu[2]
                                                               + x * cu[3]))),
                        f + h * x * (cf[0] + x * (cf[1] + x * (cf[2]
                                                               + x * cf[3]))))

            events = []
            if at_cap:
                events.append((_event_radius(
                    lambda rho: value_cap - abs(state_at(rho)[0]), r, r_new),
                    "capped"))
            if at_zero:
                events.append((_event_radius(lambda rho: state_at(rho)[0], r,
                                             r_new), "hit_zero"))
            # The earlier event ends the run; 'capped' wins a tie.
            r_new, status = min(events, key=lambda item: item[0])
            u_new, f_new = state_at(r_new)
        rs.append(r_new)
        us.append(u_new)
        fs.append(f_new)
        if dense:
            hs.append(h)
            ks.append(stages)
        if status != "completed":
            break
        r, u, f, k0u, k0f = r_new, u_new, f_new, k6u, k6f

    steps = coef = None
    if dense:
        steps = np.array(hs)
        coef = np.moveaxis(np.reshape(ks, (-1, 2, 7)) @ _P, 0, -1)
    return OdeSteps(t=np.array(rs), y=np.array([us, fs]),
                    nfev=2 + 6 * attempts, status=status, steps=steps,
                    coef=coef)


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
        F'(r) = rhs_flux(r, u).  A NaN or complex result ends the run as
        an IntegrationError.
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

    def rhs(r, u, flux):
        df = rhs_flux(r, u)
        # On plain floats a negative base to a fractional power is complex
        # where numpy gave NaN; both mean the right-hand side is undefined.
        if isinstance(df, complex) or math.isnan(df):
            raise IntegrationError(
                f"flux right-hand side returned {df!r} at r={r:.6g}",
                last_radius=r)
        return math.copysign((abs(flux) / r ** nm1) ** inv_exp, flux), df

    sol = solve_ivp(rhs, float(seed.radius), float(r_end), float(seed.value),
                    float(seed.flux), tol=tol, value_cap=value_cap,
                    stop_on_nonpositive=stop_on_nonpositive, dense=dense)
    return FluxTrajectory(p=p, n=n, rs=sol.t, values=sol.y[0],
                          fluxes=sol.y[1], status=sol.status,
                          _steps=sol.steps, _coef=sol.coef)


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
