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
F(1) = |w'(1)|^(p-2) w'(1) to zero.  The slope w'(1) = sign(F) |F|^(1/(p-1))
has an infinite derivative at its root when p > 2, which slows Brent's
method to bisection; the flux does not.  Trials that die (w hits zero) or
blow up before r = 1 are mapped to continuous surrogate residuals so the
root-finder sees a sign change.  Where the residual is known to change
sign once (`one_root_span`), the bracket grows centre-out from the
large-alpha prediction c: one trial at c, one at 2c or c/2 as the
residual's sign points, then 4x wider per expansion.  Elsewhere (alpha < 5,
or large q - p) it can change sign three or five times, so sixteen trials
scan [c/10, 10c], every sign change is solved, and the root of least mu is
the ground state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, ConvergenceError, IntegrationError
from .flux_ode import (SEED_RADIUS, grad_from_flux, integrate_flux_ode,
                       profile_evaluators, series_seed)
from .mesh import RadialFunction, RadialGrid, build_grid, check_dimension
from .rootfind import brent_root, sign_change_pairs
from .special import surface_measure
from .steklov import _boundary_quotient, _shoot as _steklov_shot, solve_steklov

__all__ = ["HenonSolution", "validate_parameters", "critical_exponent",
           "admissible_q_upper", "one_root_span", "shooting_miss",
           "solve_henon", "resample", "SlopeReport", "derivative_asymptotics",
           "LimitPoint", "LimitReport", "limit_comparison"]

# Trial profiles larger than this multiple of the origin value are classified
# as blow-up.  The threshold must scale with d: near q = p the true origin
# value itself is astronomically large (d grows like mu^(q/(p(q-p)))), so an
# absolute cutoff would misclassify the solution itself.
_CAP_FACTOR = 1e6

# Brent accepts an origin value once |F(1)| <= _FLUX_TOL (a+b)^(p-1) on the
# bracket [a, b]: the flux of the trial scales like d^(p-1).
_FLUX_TOL = 1e-9
_SCAN_POINTS = 16  # residual samples over [c/10, 10c] outside one_root_span
_PROBE_POINTS = 501  # uniform radii for the sup distance to phi_p
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


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


def _flux_coeff(n: int, p: float, q: float, alpha: float, d: float) -> float:
    """Startup flux coefficient c, F = c r^n, of the trial with origin value d.

    The flux starts as (a - b r^alpha) r^n with a = d^(p-1)/n and
    b = d^(q-1)/(alpha+n); keeping the sink contribution makes the seed exact
    for the constant solution w = 1 when alpha = 0.
    """
    return (d ** (p - 1.0) / n
            - d ** (q - 1.0) / (alpha + n) * SEED_RADIUS ** alpha)


def _rhs_factory(n: int, p: float, q: float, alpha: float):
    nm1, pm1, qm1 = n - 1, p - 1.0, q - 1.0

    def rhs(r, w):
        # Trial steps may poke below zero; fractional powers need w >= 0.
        w = w if w > 0.0 else 0.0
        return r ** nm1 * (w ** pm1 - r ** alpha * w ** qm1)

    return rhs


def _trial(n, p, q, alpha, d, tol, dense=False):
    # d^(q-1) can overflow far above the root; the seed then comes out
    # non-finite and the integrator raises IntegrationError on it.
    with np.errstate(over="ignore", invalid="ignore"):
        coeff = _flux_coeff(n, p, q, alpha, np.float64(d))
    seed = series_seed(p, n, d, SEED_RADIUS, coeff)
    return integrate_flux_ode(_rhs_factory(n, p, q, alpha), seed, 1.0,
                              p=p, n=n, tol=tol,
                              value_cap=_CAP_FACTOR * max(1.0, d),
                              stop_on_nonpositive=True, dense=dense)


def shooting_miss(n: int, p: float, q: float, alpha: float, d: float, *,
                  tol: float = 1e-10) -> float:
    """Boundary flux F(1) = |w'(1)|^(p-2) w'(1) of the trial from d.

    A trial that dies at r* < 1 takes the slope surrogate
    s = w'(r*) - (1 - r*) (more negative the earlier the death), one that
    blows up s = w'(r*) + (1 - r*); both return sign(s) |s|^(p-1), which
    meets F(1) continuously as r* -> 1.  The residual falls through zero
    once, and unlike w'(1) it has a finite slope in d there when p > 2.
    """
    traj = _trial(n, p, q, alpha, d, tol)
    end = traj.end
    if traj.status == "completed":
        return end.flux
    slope = float(grad_from_flux(end.flux, end.radius, p, n))
    s = slope - (1.0 - end.radius) if traj.status == "hit_zero" \
        else slope + (1.0 - end.radius)
    return math.copysign(abs(s) ** (p - 1.0), s)


def _initial_center(n: int, p: float, q: float, alpha: float) -> float:
    """Predicted origin value from the large-alpha asymptotics.

    mu is close to (alpha+n)^(p/q) |S|^(1-p/q) lambda_p and the profile is
    close to ||w|| phi_p, so d ~ mu^(q/(p(q-p))) phi_p(0).  The prediction
    only seeds a bracket; moderate alpha is handled by the outward expansion.
    """
    end = _steklov_shot(n, p, 1e-8, dense=False).end
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


def _bracket(miss, lo: float, hi: float, f_lo: float, f_hi: float,
             max_expansions: int):
    """Step [lo, hi] outward until the residual changes sign.

    The residual falls with d, so a positive value at hi moves the pair up
    and a negative value at lo moves it down.  A pair that is one point
    (lo == hi) takes a first step of 2x, any other pair 4x.  Each expansion
    costs one trial.  Returns (lo, hi, f_lo, f_hi, expansions).
    """
    expansions = 0
    while f_lo * f_hi > 0.0:
        if expansions >= max_expansions:
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
    """Ground-state profile with its multiplier and normalized version."""

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
    w: RadialFunction
    v: RadialFunction  # w / ||w||
    grid: RadialGrid
    diagnostics: dict = field(default_factory=dict)


def _finalize(n, p, q, alpha, grid, d0, boundary_flux, value_fn, grad_fn,
              diagnostics) -> HenonSolution:
    """Integrate norm and quotient of w; boundary_flux is the F(1) of w."""
    meas = surface_measure(n)
    rq = grid.quad_x
    wq = np.maximum(value_fn(rq), 0.0)
    dwq = grad_fn(rq)
    # An overflowing profile is caught by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        num_int = grid.integrate((np.abs(dwq) ** p + wq ** p) * rq ** (n - 1))
        den_int = grid.integrate(rq ** (alpha + n - 1) * wq ** q)
    norm_w = (meas * num_int) ** (1.0 / p)
    mu = norm_w ** (p * (q - p) / q)
    # Same number through the quotient; agreement checks quadrature and the
    # boundary residual at once, since Q(w) = mu rests on the weak form.
    mu_quotient = meas ** (1.0 - p / q) * num_int / den_int ** (p / q)
    rel_err = abs(mu_quotient - mu) / mu
    if not (math.isfinite(mu) and math.isfinite(rel_err)):
        raise ConvergenceError(
            f"profile at origin value {d0:.8g} gave mu = {mu:.6g} with "
            f"quotient error {rel_err:.3g}: its quadrature is not finite")

    w = RadialFunction(grid, np.asarray(value_fn(grid.nodes), dtype=float),
                       np.asarray(grad_fn(grid.nodes), dtype=float),
                       _value_fn=value_fn, _deriv_fn=grad_fn)
    inv = 1.0 / norm_w
    v = RadialFunction(grid, inv * w.values, inv * w.derivatives,
                       _value_fn=lambda r: inv * np.asarray(value_fn(r)),
                       _deriv_fn=lambda r: inv * np.asarray(grad_fn(r)))
    diagnostics = dict(diagnostics)
    diagnostics["mu_quotient_rel_err"] = float(rel_err)
    shoot_res = abs(boundary_flux) * inv ** (p - 1.0)
    return HenonSolution(n=n, p=p, q=q, alpha=alpha, d0=float(d0),
                         mu=float(mu), norm_w=float(norm_w),
                         shoot_res=float(shoot_res), w=w, v=v,
                         grid=grid, diagnostics=diagnostics)


def _root_profile(n, p, q, alpha, grid, tol, miss, bracket, expansions):
    """Brent on one bracket, then the full-tolerance profile at its root."""
    a, b, fa, fb = bracket
    # The quotient is stationary at the root, so mu is quadratically
    # insensitive to the leftover error in d.  The stop is judged against
    # the flux scale d^(p-1), since a wide bracket makes the endpoint
    # residuals arbitrarily large; but where close roots flatten the
    # residual, 1e-6 of the endpoint residuals is the tighter test.
    d0 = brent_root(lambda d: miss(d, tol), a, b,
                    f_tol=min(_FLUX_TOL * (a + b) ** (p - 1.0),
                              1e-6 * max(abs(fa), abs(fb))),
                    x_tol=1e-12 * max(1.0, b), fa=fa, fb=fb)
    final = _trial(n, p, q, alpha, d0, tol, dense=True)
    if final.status != "completed":
        raise ConvergenceError(
            f"profile at the fitted origin value {d0:.8g} terminated "
            f"early ({final.status} at r={final.end.radius:.6g})")
    value_fn, grad_fn = profile_evaluators(
        final, d0, _flux_coeff(n, p, q, alpha, d0))
    diagnostics = {
        "bracket": (float(a), float(b)),
        "expansions": expansions,
        "ode_steps": int(final.rs.size),
    }
    return _finalize(n, p, q, alpha, grid, d0, final.end.flux,
                     value_fn, grad_fn, diagnostics)


def solve_henon(n: int, p: float, q: float, alpha: float, *,
                grid: RadialGrid | None = None, refinement: int = 8,
                tol: float = 1e-10, d_lo: float | None = None,
                d_hi: float | None = None, max_expansions: int = 12
                ) -> HenonSolution:
    """Shoot for the ground state and package profile, mu, and diagnostics.

    Within `one_root_span` the bracket starts from the pair (d_lo, d_hi),
    each defaulting to the large-alpha prediction c, and steps outward
    until the residual changes sign.  Beyond it, sixteen trials scan
    [d_lo, d_hi] (defaults c/10 and 10c) geometrically, each sign change is
    solved, and the root of least mu is returned; "competing_roots" lists
    them all when there are several.  Bracketing trials run at a relaxed
    tolerance; only final profiles are integrated at full tolerance with
    dense output.
    """
    validate_parameters(n, p, q, alpha)
    if max_expansions < 0:
        raise ValueError("max_expansions must be nonnegative")
    if grid is None:
        grid = build_grid(n, refinement=refinement, alpha_hint=alpha)
    elif grid.n != n:
        raise ValueError(f"grid was built for n={grid.n}, requested n={n}")

    scan = q - p > one_root_span(n, p, alpha)
    if d_lo is None or d_hi is None:
        center = _initial_center(n, p, q, alpha)
        spread = 10.0 if scan else 1.0
        d_lo = center / spread if d_lo is None else d_lo
        d_hi = center * spread if d_hi is None else d_hi
    if not 0.0 < d_lo <= d_hi:
        raise ValueError(f"need 0 < d_lo <= d_hi, got {d_lo}, {d_hi}")

    trials = 0

    def miss(d, trial_tol=max(tol, 1e-8)):
        nonlocal trials
        trials += 1
        return shooting_miss(n, p, q, alpha, d, tol=trial_tol)

    if scan:
        ds, fs = [], []
        for d in np.geomspace(d_lo, d_hi, _SCAN_POINTS):
            try:
                fs.append(miss(d))
            except IntegrationError:  # overflow; the neighbours still bracket
                continue
            ds.append(d)
        if not ds:
            raise BracketError(f"every trial in [{d_lo:.4g}, {d_hi:.4g}] "
                               "broke down")
        brackets = [(ds[i], ds[i + 1], fs[i], fs[i + 1])
                    for i in sign_change_pairs(fs)]
        d_lo, d_hi, f_lo, f_hi = ds[0], ds[-1], fs[0], fs[-1]
    else:
        brackets = []
        f_lo = miss(d_lo)
        f_hi = f_lo if d_hi == d_lo else miss(d_hi)
    expansions = 0
    if not brackets:
        *pair, expansions = _bracket(miss, d_lo, d_hi, f_lo, f_hi,
                                     max_expansions)
        brackets = [tuple(pair)]

    candidates, error = [], None
    for bracket in brackets:
        try:
            candidates.append(_root_profile(n, p, q, alpha, grid, tol, miss,
                                            bracket, expansions))
        except ConvergenceError as exc:  # spurious crossing of a surrogate
            error = exc
    if not candidates:
        raise error
    best = min(candidates, key=lambda sol: sol.mu)
    best.diagnostics["trials"] = trials
    if len(candidates) > 1:
        best.diagnostics["competing_roots"] = [
            (sol.d0, sol.mu) for sol in candidates]
    return best


def resample(sol: HenonSolution, grid: RadialGrid) -> HenonSolution:
    """Re-tabulate a solved profile on another grid without re-shooting.

    Norms and mu are re-integrated with the new grid's quadrature; the
    underlying dense profile is unchanged.
    """
    if grid.n != sol.n:
        raise ValueError(f"grid was built for n={grid.n}, solution has n={sol.n}")
    diagnostics = dict(sol.diagnostics)
    diagnostics["resampled"] = True
    boundary_flux = sol.shoot_res * sol.norm_w ** (sol.p - 1.0)
    return _finalize(sol.n, sol.p, sol.q, sol.alpha, grid, sol.d0,
                     boundary_flux, sol.w, sol.w.derivative, diagnostics)


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


def derivative_asymptotics(sol: HenonSolution, num: int = 40) -> SlopeReport:
    """Fit the endpoint growth exponents of v'; needs alpha >= 100.

    Below alpha = 100 the boundary layer is too shallow for the fit window
    to sit inside it.
    """
    if sol.alpha < 100.0:
        raise ValueError(f"slope windows are calibrated for alpha >= 100, "
                         f"got alpha={sol.alpha:g}")
    dv = sol.v.derivative
    alpha = sol.alpha
    s = np.geomspace(1e-3 / alpha, 0.1 / alpha, num)
    boundary_slope, boundary_ok = _window_slope(dv, s, 1.0 - s)
    r = np.geomspace(1e-3, 1e-2, num)
    origin_slope, origin_ok = _window_slope(dv, r, r)
    return SlopeReport(expected=1.0 / (sol.p - 1.0),
                       boundary_slope=boundary_slope,
                       origin_slope=origin_slope,
                       boundary_monotone=boundary_ok,
                       origin_monotone=origin_ok)


@dataclass
class LimitPoint:
    alpha: float
    mu: float
    rho: float      # mu / ((alpha+n)^(p/q) |S|^(1-p/q) lambda_p)
    sup_err: float  # max |v - phi_p| on a uniform probe grid


@dataclass
class LimitReport:
    """Convergence of (mu, v) toward the Steklov pair as alpha grows."""

    n: int
    p: float
    q: float
    lambda_p: float
    phi_sup: float  # max of phi_p, the scale for judging sup_err
    points: list[LimitPoint]
    rho_err_decreasing: bool
    sup_err_decreasing: bool


_DEFAULT_ALPHAS = (25.0, 50.0, 100.0, 200.0, 400.0)


def limit_comparison(n: int, p: float, q: float, alphas=_DEFAULT_ALPHAS, *,
                     refinement: int = 8, tol: float = 1e-10) -> LimitReport:
    """Compare ground states against the Steklov limit along increasing alpha.

    For each alpha the ratio rho and the sup distance between v and phi_p
    are recorded; the trend flags report whether both errors decrease over
    the last (up to) three entries.
    """
    alphas = [float(a) for a in alphas]
    if len(alphas) < 2 or any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("needs at least two strictly increasing alphas")
    stek = solve_steklov(n, p, refinement=refinement, tol=tol)
    rs = np.linspace(0.0, 1.0, _PROBE_POINTS)
    phi_vals = stek.phi(rs)
    meas, lam = stek.surface_measure, stek.lambda_p

    points = []
    for alpha in alphas:
        sol = solve_henon(n, p, q, alpha, refinement=refinement, tol=tol)
        rho = sol.mu / ((alpha + n) ** (p / q) * meas ** (1.0 - p / q) * lam)
        sup_err = float(np.max(np.abs(sol.v(rs) - phi_vals)))
        points.append(LimitPoint(alpha=alpha, mu=sol.mu, rho=float(rho),
                                 sup_err=sup_err))

    rho_errs = [abs(pt.rho - 1.0) for pt in points[-3:]]
    sup_errs = [pt.sup_err for pt in points[-3:]]
    return LimitReport(
        n=n, p=p, q=q, lambda_p=lam, phi_sup=float(np.max(phi_vals)),
        points=points,
        rho_err_decreasing=all(b < a for a, b in zip(rho_errs, rho_errs[1:])),
        sup_err_decreasing=all(b < a for a, b in zip(sup_errs, sup_errs[1:])))
