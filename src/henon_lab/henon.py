r"""Radial ground states of a Henon-type problem by scaled shooting.

Minimizers of the quotient

    Q(w) = ||w||_{W^1_p}^p / (int_B |x|^alpha |w|^q dx)^(p/q)

over W^1_p(B) \ {0} can be rescaled so that the Euler-Lagrange equation
carries no multiplier: the profile w solves

    -(r^(n-1) |w'|^(p-2) w')' + r^(n-1) w^(p-1) = r^(alpha+n-1) w^(q-1)

with w > 0, w'(0) = 0, w'(1) = 0.  The minimum value of the quotient is then
mu = ||w||_{W^1_p}^(p(q-p)/q), and the unit-norm minimizer is v = w / ||w||.

The profile is found by shooting on the origin value d = w(0) (Keller's
shooting method): integrate outward and drive the boundary flux
F(1) = |w'(1)|^(p-2) w'(1) to zero.  Each centre-out trial (see below)
from d >= 1 integrates the scaled profile y = w/d (below d = 1, w itself),
which solves the same flux ODE with y(0) = 1 and the sink term multiplied
by d^(q-p).  On w the flux F ~ d^(p-1) r^n / n makes the step test purely
relative near the origin, about 90 steps per decade of r, and near q = p,
where d reaches 1e300, w^q overflows the quadrature.  The slope
w'(1) = sign(F) |F|^(1/(p-1)) has an infinite derivative at its root when
p > 2, which slows Brent's method to bisection; the flux does not.  Trials
that die (w hits zero) or blow up before r = 1 are mapped to continuous
surrogate residuals so the root-finder sees a sign change.  Where the
residual is known to change sign once (`one_root_span`), the bracket grows
centre-out from the large-alpha prediction c: one trial at c, one at 2c or
c/2 as the residual's sign points, then 4x wider per expansion.  There
Brent runs on the scale-free residual F(1)/(2d)^(p-1) = F_y(1)/2^(p-1),
read off y: F(1) itself grows like d^(p-1), by 2^(p-1) across the first
bracket, which slows the secant and inverse-quadratic steps.  Elsewhere
(alpha < 5, or large q - p) the residual can change sign three or five
times, so sixteen trials of w scan [c/10, 10c], every sign change is solved
on F(1), and the root of least mu is the ground state.  Trials far from the
root run at a relaxed tolerance, trials near it at the full one, and the
full-tolerance trial at Brent's root is kept as the profile: no trial is
integrated twice at full tolerance.  Its norm and mu are integrated on its
own steps (`flux_ode.step_quadrature`), so they do not depend on the output
grid.  A root whose quotient misses mu by more than MU_QUOTIENT_TOL raises
ConvergenceError, unless a verified root of the scan has clearly lower mu.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, ConvergenceError, IntegrationError
from .flux_ode import (SEED_RADIUS, grad_from_flux, integrate_flux_ode,
                       step_quadrature)
from .mesh import RadialFunction, RadialGrid, build_grid, check_dimension
from .rootfind import brent_root, sign_change_pairs
from .special import surface_measure
from .steklov import _boundary_quotient, _shoot as _steklov_shot, solve_steklov

__all__ = ["HenonSolution", "validate_parameters", "critical_exponent",
           "admissible_q_upper", "one_root_span", "shooting_miss",
           "solve_henon", "SlopeReport", "derivative_asymptotics",
           "LimitPoint", "LimitReport", "limit_comparison"]

# Trial profiles w larger than this multiple of max(1, d) are classified as
# blow-up.  The threshold must scale with d: near q = p the true origin
# value itself is astronomically large (d grows like mu^(q/(p(q-p)))), so an
# absolute cutoff would misclassify the solution itself.  The centre-out
# trials integrate y = w / max(1, d) (`_trial`), on which the cap is
# _CAP_FACTOR.
_CAP_FACTOR = 1e6

# The flux of the trial from d scales like d^(p-1): with w = d y,
# F(1; d) = d^(p-1) F_y(1), where y(0) = 1 and y solves the flux ODE with
# sink d^(q-p).  On the centre-out path Brent runs on the scale-free
# residual g(d) = F(1) / (2d)^(p-1), which has the sign and the root of
# F(1) and is read off y with no power of d formed, and accepts an origin
# value once |g| <= _RESIDUAL_TOL.  On the scan path it runs on F(1) and
# stops once |F(1)| <= _FLUX_TOL (a+b)^(p-1) on the bracket [a, b].  At
# alpha = 0, n = 4, a stop of 1e-9 on g left the constant profile's d0 = 1
# off by 2.4e-8, and 3e-10 by 1e-12.
_RESIDUAL_TOL = 3e-10
_FLUX_TOL = 1e-9
# Trials away from the root run at max(tol, _RELAXED_TOL).  On the
# centre-out path such a residual g is used only where |g| > _RELAXED_FLOOR:
# over 3,450 trials with |g| < 1e-2 of `shoot` seeds 1-8 (perfbench) the
# relaxed error in g stayed below 1.06e-6 of the flux scale (2d)^(p-1),
# at (5, 2, 9.834, 18.82) from d = 1.109.
_RELAXED_TOL = 1e-8
_RELAXED_FLOOR = 1e-4
_SCAN_POINTS = 16  # residual samples over [c/10, 10c] outside one_root_span
_MAX_EXPANSIONS = 12  # bracket steps before the search gives up
_PROBE_POINTS = 501  # uniform radii for the sup distance to phi_p
_SLOPE_POINTS = 40  # radii in each log-log window of `derivative_asymptotics`
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# Largest relative gap between mu and the quotient of the profile that a
# solve returns; every `radial` record states it.
MU_QUOTIENT_TOL = 1e-6


def critical_exponent(n: int, p: float) -> float:
    """Sobolev critical exponent p* = np/(n-p), infinite for p >= n."""
    return n * p / (n - p) if p < n else math.inf


def admissible_q_upper(n: int, p: float, alpha: float) -> float:
    """Largest admissible q, namely p* + p alpha/(n-p) = p(n+alpha)/(n-p).

    The weight |x|^alpha relaxes the critical exponent: the quotient stays
    well-defined (and attained) for q up to this alpha-shifted threshold.
    """
    return p * (n + alpha) / (n - p)


def one_root_span(n: int, p: float, alpha: float) -> float:
    """Largest q - p at which the shooting residual changes sign only once.

    min(10, q_max - p), with q_max - p halved at p >= 3.5; zero for p > 3
    below alpha = 5, where at p >= 3.5 the residual changes sign three times
    already near q - p = 1.  The residual-scan test in tests/test_henon.py
    checks this span.  Past it, at q - p of about 20 and alpha <= 60, three
    sign changes appear again.
    """
    if alpha < 5.0 and p > 3.0:
        return 0.0
    width = admissible_q_upper(n, p, alpha) - p
    return min(10.0, width / 2.0 if p >= 3.5 else width)


def validate_parameters(n: int, p: float, q: float, alpha: float) -> None:
    check_dimension(n)
    if not 2.0 <= p < n:
        raise ValueError(f"p must satisfy 2 <= p < n, got p={p} at n={n}")
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha}")
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")
    upper = admissible_q_upper(n, p, alpha)
    if q <= p:
        raise ValueError(
            f"need q > p, got q={q} at p={p}; q = p degenerates to the "
            "constant profile (the quotient reduces to the volume ratio)")
    if not q < upper:
        raise ValueError(
            f"need q < p(n+alpha)/(n-p) = {upper:.6g}, got q={q}; beyond "
            "it the weighted quotient loses compactness")


def _trial(n, p, q, alpha, d, tol, scale=1.0):
    """Integrate the trial from origin value d as the profile y = w / scale.

    y(0) = d / scale, and y solves the Henon flux ODE with sink
    lambda = scale^(q-p).  The centre-out path passes scale = max(1, d)
    (`shooting_miss`): unscaled, the flux F ~ d^(p-1) r^n / n makes the
    step test atol + rtol |F| purely relative on a degree-n power law near
    the origin, about 90 steps per decade of r; on y the absolute part of
    the test binds there, and a large d costs no extra steps.  Below d = 1
    the trial is w itself, since there y = w/d would exceed w.  The scan
    path integrates w (scale 1).  The cap keeps its meaning on every
    scale, |w| >= _CAP_FACTOR max(1, d).  The startup flux coefficient
    keeps the sink contribution, which makes the seed exact for the
    constant solution w = 1 when alpha = 0.
    """
    y0 = np.float64(d) / scale
    # The sink or y0^(q-1) can overflow far above the root; the coefficient
    # then comes out non-finite and the integrator raises IntegrationError
    # on it.
    with np.errstate(over="ignore", invalid="ignore"):
        sink = np.float64(scale) ** (q - p)
        coeff = (y0 ** (p - 1.0) / n
                 - sink * y0 ** (q - 1.0) / (alpha + n) * SEED_RADIUS ** alpha)
    return integrate_flux_ode(float(y0), float(coeff), p=p, n=n,
                              sink=float(sink), alpha=alpha, q=q, tol=tol,
                              value_cap=_CAP_FACTOR * (max(1.0, d) / scale),
                              stop_on_nonpositive=True)


def shooting_miss(n: int, p: float, q: float, alpha: float, d: float, *,
                  tol: float = 1e-10, keep: dict | None = None) -> float:
    """Shooting residual of the trial from d: the boundary flux
    F(1) = |w'(1)|^(p-2) w'(1), or a multiple of it with the same sign.

    A trial that dies at r* < 1 takes the slope surrogate
    s = w'(r*) - (1 - r*) (more negative the earlier the death), one that
    blows up s = w'(r*) + (1 - r*); sign(s) |s|^(p-1) then meets F(1)
    continuously as r* -> 1.  Unlike w'(1), F(1) has a finite slope in d
    at the root when p > 2.  The point decides the residual.  Beyond
    `one_root_span` (the scan path) it is F(1) of the trial of w itself.
    Within it (the centre-out path) it is g = F(1) / (2d)^(p-1): the trial
    integrates y = w / max(1, d) (`_trial`), and
    g = sign(s) |s / (2d)|^(p-1) is read off y with no power of d formed,
    s / (2d) = (y'(r*) -+ (1 - r*) / max(1, d)) / (2 y(0)).  A residual
    beyond the float range raises IntegrationError.
    A dict passed as `keep` receives the trial's trajectory under d.
    """
    scale_free = q - p <= one_root_span(n, p, alpha)
    scale = max(1.0, float(d)) if scale_free else 1.0
    traj = _trial(n, p, q, alpha, d, tol, scale)
    if keep is not None:
        keep[d] = traj
    end = traj.end
    if traj.status == "completed" and not scale_free:
        return end.flux
    slope = float(grad_from_flux(end.flux, end.radius, p, n))
    gap = (1.0 - end.radius) / scale
    s = slope - gap if traj.status == "hit_zero" else slope + gap
    if scale_free:
        s /= 2.0 * traj.u0
    try:
        res = math.copysign(abs(s) ** (p - 1.0), s)
    except OverflowError:
        res = math.inf
    if not math.isfinite(res):
        raise IntegrationError(
            f"shooting residual of the trial from origin value {d:.6g} is "
            "outside the float range", last_radius=end.radius)
    return res


def _initial_center(n: int, p: float, q: float, alpha: float) -> float:
    """Predicted origin value from the large-alpha asymptotics.

    mu is close to (alpha+n)^(p/q) |S|^(1-p/q) lambda_p and the profile is
    close to ||w|| phi_p, so d ~ mu^(q/(p(q-p))) phi_p(0).  The prediction
    only seeds a bracket; moderate alpha is handled by the outward expansion.
    """
    end = _steklov_shot(n, p, 1e-8).end
    lam = _boundary_quotient(end, n, p, 1e-8)
    meas = surface_measure(n)
    mu_pred = meas ** (1.0 - p / q) * (alpha + n) ** (p / q) * lam
    phi0 = (lam * meas) ** (-1.0 / p) / end.value
    # Near q = p the exponent is huge: judge the size in log space first.
    expo = q / (p * (q - p))
    log_power = expo * math.log(mu_pred)
    log_center = log_power + math.log(phi0)
    if max(abs(log_power), abs(log_center)) >= _LOG_FLOAT_MAX:
        raise BracketError(
            f"predicted origin value exp({log_center:.6g}) is outside the "
            f"float range at q - p = {q - p:.6g}; no shooting bracket fits")
    return mu_pred ** expo * phi0


def _bracket(miss, lo: float, hi: float, f_lo: float, f_hi: float):
    """Step [lo, hi] outward until the residual changes sign.

    The residual falls with d, so a positive value at hi moves the pair up
    and a negative value at lo moves it down.  A pair that is one point
    (lo == hi) takes a first step of 2x, any other pair 4x.  Each expansion
    costs one trial; after _MAX_EXPANSIONS of them it raises BracketError.
    Returns (lo, hi, f_lo, f_hi, expansions).
    """
    expansions = 0
    while f_lo * f_hi > 0.0:
        if expansions >= _MAX_EXPANSIONS:
            raise BracketError(
                f"no sign change of the shooting residual in "
                f"[{lo:.4g}, {hi:.4g}] after {expansions} expansions")
        expansions += 1
        step = 2.0 if lo == hi else 4.0
        if f_hi > 0.0:  # residual still positive at the top: root above
            lo, f_lo = hi, f_hi
            hi *= step
            f_hi = miss(hi)
        else:
            hi, f_hi = lo, f_lo
            lo /= step
            f_lo = miss(lo)
    return lo, hi, f_lo, f_hi, expansions


@dataclass
class HenonSolution:
    """Ground state: mu, the origin value and norm of the multiplier-free
    profile w, and the unit-norm profile v = w / ||w||."""

    n: int
    p: float
    q: float
    alpha: float
    d0: float        # origin value w(0) of the multiplier-free profile
    mu: float        # minimum of the quotient, ||w||^(p(q-p)/q)
    norm_w: float    # ||w||_{W^1_p}
    # Scale-free Neumann residual |F(1)| / ||w||^(p-1) = |v'(1)|^(p-1): the
    # boundary flux of v left by the root solve.
    shoot_res: float
    v: RadialFunction  # w / ||w||, tabulated on grid; w is norm_w * v
    grid: RadialGrid
    diagnostics: dict = field(default_factory=dict)


def _finalize(n, p, q, alpha, grid, d0, traj, diagnostics) -> HenonSolution:
    """Package the completed trial `traj`, the profile y = w / scale, as v.

    The scale is d0 / y(0): max(1, d0) on the centre-out path, 1 on the
    scan path (`shooting_miss`).  N = int (|y'|^p + y^p) r^(n-1) and
    D = int r^(alpha+n-1) y^q are integrated by `step_quadrature` on the
    trial's own steps; the grid only tabulates v = y / ||y||.  The quotient
    |S|^(1-p/q) N / D^(p/q) does not depend on the scale of the profile,
    and ||w|| = scale ||y||; then mu = ||w||^(p(q-p)/q) and the quotient
    are the same number for the exact profile, since Q(w) = mu rests on the
    weak form; their relative gap, "mu_quotient_rel_err", checks quadrature
    and the boundary residual at once (`solve_henon` judges it).  A gap that
    is not finite (as where ||w|| overflows) raises ConvergenceError.
    """
    meas = surface_measure(n)
    rq, weights = step_quadrature(traj)
    yq, dyq = traj.profile_at(rq)
    yq = np.maximum(yq, 0.0)
    # An overflowing profile is caught by the finiteness check below; the
    # sums stay numpy floats, so D = 0 gives inf, not an exception.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num_int = np.dot(weights, (np.abs(dyq) ** p + yq ** p) * rq ** (n - 1))
        den_int = np.dot(weights, rq ** (alpha + n - 1) * yq ** q)
        norm_y = (meas * num_int) ** (1.0 / p)
        norm_w = np.float64(d0 / traj.u0) * norm_y
        mu = norm_w ** (p * (q - p) / q)
        mu_quotient = meas ** (1.0 - p / q) * num_int / den_int ** (p / q)
        rel_err = abs(mu_quotient - mu) / mu
    if not (math.isfinite(mu) and math.isfinite(rel_err)):
        raise ConvergenceError(
            f"profile at origin value {d0:.8g} gave mu = {mu:.6g} with "
            f"quotient error {rel_err:.3g}: its quadrature is not finite")

    inv = 1.0 / norm_y
    diagnostics = dict(diagnostics)
    diagnostics["mu_quotient_rel_err"] = float(rel_err)
    shoot_res = abs(traj.end.flux) * inv ** (p - 1.0)
    return HenonSolution(n=n, p=p, q=q, alpha=alpha, d0=float(d0),
                         mu=float(mu), norm_w=float(norm_w),
                         shoot_res=float(shoot_res),
                         v=traj.tabulate(grid, inv), grid=grid,
                         diagnostics=diagnostics)


def solve_henon(n: int, p: float, q: float, alpha: float, *,
                refinement: int = 8, tol: float = 1e-10) -> HenonSolution:
    """Shoot for the ground state and package profile, mu, and diagnostics.

    Within `one_root_span` the bracket starts at the large-alpha
    prediction c and steps outward until the residual changes sign; the
    residual there is the scale-free g(d) = F(1)/(2d)^(p-1), and Brent
    stops at |g| <= 3e-10.  Every trial there, bracket step or Brent
    evaluation, first runs at the relaxed tolerance max(tol, 1e-8); its
    residual counts only while |g| exceeds 1e-4, about 100 times the
    relaxed integration error near the root.  The first residual below
    that floor is re-run at `tol`, and so is every later trial of the
    solve, so Brent's stop test only ever sees full-tolerance values.
    Beyond the span, sixteen trials at the relaxed tolerance scan
    [c/10, 10c] geometrically, and Brent solves each sign change of F(1)
    at `tol`, stopping at |F(1)| <= 1e-9 (a+b)^(p-1) on the bracket
    [a, b]; the root of least mu is returned, and "competing_roots" lists
    them all when there are several.  A root whose quotient misses mu by
    more than MU_QUOTIENT_TOL raises ConvergenceError, unless another root
    passed with mu below its mu (1 - quotient error): then it is dropped
    and listed in "dropped_roots" as (d0, mu, quotient error).  On both
    paths the profile is the full-tolerance trial at Brent's root, and
    "trials" counts every integration.  mu, d0 and norm_w come from that
    trial alone (`_finalize`); the grid at `refinement` only tabulates v.
    """
    validate_parameters(n, p, q, alpha)
    grid = build_grid(n, refinement=refinement, alpha_hint=alpha)

    scan = q - p > one_root_span(n, p, alpha)
    center = _initial_center(n, p, q, alpha)

    relaxed = max(tol, _RELAXED_TOL)
    trials, kept = 0, {}
    full = relaxed == tol  # once set, every trial runs at tol

    def relaxed_miss(d):
        nonlocal trials
        trials += 1
        return shooting_miss(n, p, q, alpha, d, tol=relaxed)

    def full_miss(d):
        nonlocal trials
        trials += 1
        kept.clear()  # Brent's root is nearly always its last trial
        return shooting_miss(n, p, q, alpha, d, tol=tol, keep=kept)

    def centre_miss(d):
        nonlocal full
        if not full:
            g = relaxed_miss(d)
            if abs(g) > _RELAXED_FLOOR:
                return g
            full = True
        return full_miss(d)

    if scan:
        bracket_miss, root_miss = relaxed_miss, full_miss
        ds, fs = [], []
        for d in np.geomspace(center / 10.0, center * 10.0, _SCAN_POINTS):
            try:
                fs.append(relaxed_miss(d))
            except IntegrationError:  # overflow; the neighbours still bracket
                continue
            ds.append(d)
        if not ds:
            raise BracketError(f"every trial in [{center / 10.0:.4g}, "
                               f"{center * 10.0:.4g}] broke down")
        brackets = [(ds[i], ds[i + 1], fs[i], fs[i + 1])
                    for i in sign_change_pairs(fs)]
        lo, hi, f_lo, f_hi = ds[0], ds[-1], fs[0], fs[-1]
    else:
        bracket_miss = root_miss = centre_miss
        brackets = []
        lo = hi = center
        f_lo = f_hi = bracket_miss(center)
    expansions = 0
    if not brackets:
        *pair, expansions = _bracket(bracket_miss, lo, hi, f_lo, f_hi)
        brackets = [tuple(pair)]

    candidates, failed, early = [], [], None
    for a, b, fa, fb in brackets:
        # The quotient is stationary at the root, so mu is quadratically
        # insensitive to the leftover error in d.  The stop is scale-free
        # (a bound on g, or on F(1) relative to (a+b)^(p-1)), since a wide
        # bracket makes the endpoint residuals arbitrarily large; but where
        # close roots flatten the residual, 1e-6 of the endpoint residuals
        # is the tighter test.
        f_tol = _FLUX_TOL * (a + b) ** (p - 1.0) if scan else _RESIDUAL_TOL
        d0 = brent_root(root_miss, a, b,
                        f_tol=min(f_tol, 1e-6 * max(abs(fa), abs(fb))),
                        x_tol=1e-12 * max(1.0, b), fa=fa, fb=fb)
        if d0 not in kept:  # a bracket end, a relaxed or an earlier trial
            full_miss(d0)
        final = kept[d0]
        if final.status != "completed":  # spurious crossing of a surrogate
            early = ConvergenceError(
                f"profile at the fitted origin value {d0:.8g} terminated "
                f"early ({final.status} at r={final.end.radius:.6g})")
            continue
        diagnostics = {"bracket": (float(a), float(b)),
                       "expansions": expansions,
                       "ode_steps": int(final.rs.size)}
        sol = _finalize(n, p, q, alpha, grid, d0, final, diagnostics)
        passed = sol.diagnostics["mu_quotient_rel_err"] <= MU_QUOTIENT_TOL
        (candidates if passed else failed).append(sol)
    if not (candidates or failed):
        raise early
    best = min(candidates, key=lambda sol: sol.mu, default=None)
    dropped = []
    for sol in failed:
        err = sol.diagnostics["mu_quotient_rel_err"]
        if best is None or not best.mu < sol.mu * (1.0 - err):
            raise ConvergenceError(
                f"profile at origin value {sol.d0:.8g} gave mu = "
                f"{sol.mu:.10g} with quotient error {err:.3g}, above "
                f"{MU_QUOTIENT_TOL:g}")
        dropped.append((sol.d0, sol.mu, err))
    best.diagnostics["trials"] = trials
    if len(candidates) > 1:
        best.diagnostics["competing_roots"] = [
            (sol.d0, sol.mu) for sol in candidates]
    if dropped:
        best.diagnostics["dropped_roots"] = dropped
    return best


@dataclass
class SlopeReport:
    """Log-log growth rates of v' at both degenerate ends.

    The boundary slope is fit against log(1-r) deep inside the layer,
    1 - r in [1e-3/alpha, 0.1/alpha]: there the cumulative mass of the
    weight r^(alpha+n-1) is still linear in 1 - r and the flux obeys the
    clean power law (v')^(p-1) ~ alpha (1-r).  Past 1-r ~ 1/alpha that
    mass saturates and the local slope decays toward zero, so a window on
    the far side of the layer would measure the crossover, not the
    exponent.  The origin slope is fit against log r on r in [1e-3, 1e-2].
    Both tend to `expected` = 1/(p-1): the profile leaves the origin and
    meets the Neumann boundary with the same power.
    A slope of None flags a monotonicity violation (v' <= 0 somewhere in
    that window), which is a finding, not an exception.
    """

    expected: float
    boundary_slope: float | None
    origin_slope: float | None
    boundary_monotone: bool
    origin_monotone: bool


def _window_slope(dv, xs, anchor_vals) -> tuple[float | None, bool]:
    vals = dv(anchor_vals)
    if not np.all(vals > 0.0):
        return None, False
    return float(np.polyfit(np.log(xs), np.log(vals), 1)[0]), True


def derivative_asymptotics(sol: HenonSolution) -> SlopeReport:
    """Fit the endpoint growth exponents of v'; needs alpha >= 100.

    Below alpha = 100 the boundary layer is too shallow for the fit window
    to sit inside it.
    """
    if sol.alpha < 100.0:
        raise ValueError(f"slope windows are calibrated for alpha >= 100, "
                         f"got alpha={sol.alpha:g}")
    dv = sol.v.derivative
    alpha = sol.alpha
    s = np.geomspace(1e-3 / alpha, 0.1 / alpha, _SLOPE_POINTS)
    boundary_slope, boundary_ok = _window_slope(dv, s, 1.0 - s)
    r = np.geomspace(1e-3, 1e-2, _SLOPE_POINTS)
    origin_slope, origin_ok = _window_slope(dv, r, r)
    return SlopeReport(expected=1.0 / (sol.p - 1.0),
                       boundary_slope=boundary_slope,
                       origin_slope=origin_slope,
                       boundary_monotone=boundary_ok,
                       origin_monotone=origin_ok)


@dataclass
class LimitPoint:
    alpha: float
    rho: float      # mu / ((alpha+n)^(p/q) |S|^(1-p/q) lambda_p)
    sup_err: float  # max |v - phi_p| on a uniform probe grid


@dataclass
class LimitReport:
    """Convergence of (mu, v) toward the Steklov pair as alpha grows."""

    phi_sup: float  # max of phi_p, the scale for judging sup_err
    points: list[LimitPoint]
    rho_err_decreasing: bool
    sup_err_decreasing: bool


_DEFAULT_ALPHAS = (25.0, 50.0, 100.0, 200.0, 400.0)


def limit_comparison(n: int, p: float, q: float,
                     alphas=_DEFAULT_ALPHAS) -> LimitReport:
    """Compare ground states against the Steklov limit along increasing alpha.

    For each alpha the ratio rho and the sup distance between v and phi_p
    are recorded; the trend flags report whether both errors decrease over
    the last (up to) three entries.  Both solvers run at their defaults.
    """
    alphas = [float(a) for a in alphas]
    if len(alphas) < 2 or any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("needs at least two strictly increasing alphas")
    stek = solve_steklov(n, p)
    rs = np.linspace(0.0, 1.0, _PROBE_POINTS)
    phi_vals = stek.phi(rs)
    meas, lam = stek.surface_measure, stek.lambda_p

    points = []
    for alpha in alphas:
        sol = solve_henon(n, p, q, alpha)
        rho = sol.mu / ((alpha + n) ** (p / q) * meas ** (1.0 - p / q) * lam)
        sup_err = float(np.max(np.abs(sol.v(rs) - phi_vals)))
        points.append(LimitPoint(alpha=alpha, rho=float(rho), sup_err=sup_err))

    rho_errs = [abs(pt.rho - 1.0) for pt in points[-3:]]
    sup_errs = [pt.sup_err for pt in points[-3:]]
    return LimitReport(
        phi_sup=float(np.max(phi_vals)), points=points,
        rho_err_decreasing=all(b < a for a, b in zip(rho_errs, rho_errs[1:])),
        sup_err_decreasing=all(b < a for a, b in zip(sup_errs, sup_errs[1:])))
