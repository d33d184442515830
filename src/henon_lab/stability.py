"""Closed-form stability constant, its roots, and the supporting inequalities.

In the large-alpha limit the second variation at the ground state reduces to
a quadratic form whose minimum over boundary-normalized increments is

    K(n, p, q) = lambda_p^(2/p) |S|^(2/p-1)
                 (lambda_p^(-p/(p-1)) (1 - (n-1) lambda_p) - (q-1)).

K is affine and strictly decreasing in q, so its sign yields a threshold
q_loc(n, p) and K = lambda_p^(2/p) |S|^(2/p-1) (q_loc - q).  Pushing q to
the critical exponent yields a threshold p_loc(n): K(n, p, p*(p)) is
positive at p = 2 and changes sign once on [2, n - 0.05], so p_loc is a
single bracketed root solve there.
The positivity of K(n, p, p) rests on an inequality chain for the eigenvalue
bound lambda_p <= (1 - I_{p,n})/n; every link of that chain, including the
20-row table for G-tilde, is evaluated here with explicit margins.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .henon import critical_exponent
from .mesh import check_dimension
from .rootfind import brent_root
from .special import surface_measure
from .steklov import steklov_eigenvalue

__all__ = ["AppendixTableRow", "ChainLink", "ChainReport", "compute_k",
           "stability_scale", "find_q_loc", "find_p_loc",
           "conjugate_exponent", "kappa_value", "compute_ipn", "t_star",
           "tau_star", "g_small", "g_cap", "g_tilde", "g_cap_derivative",
           "appendix_table", "verify_appendix_chain"]

_E = math.e
_EPS = sys.float_info.epsilon
P_LOC_TOL = 1e-8  # bracket width at which the p_loc root solve stops


def _check_exponent(p: float) -> None:
    """Every power 1/(p-1) below needs p > 1 (NaN fails too)."""
    if not p > 1.0:
        raise ValueError(f"p must exceed 1, got {p}")


def conjugate_exponent(p: float) -> float:
    """Holder conjugate p' = p/(p-1)."""
    _check_exponent(p)
    return p / (p - 1.0)


def kappa_value(n: int, p: float) -> float:
    """kappa = n^(-1/(p-1)) (p-1), the exponent rate in the eigenvalue bound."""
    _check_exponent(p)
    return n ** (-1.0 / (p - 1.0)) * (p - 1.0)


def compute_k(n: int, p: float, q: float,
              lambda_p: float | None = None) -> float:
    """Stability constant K(n, p, q); positive means the mode is stable.

    K is affine in q, so a non-finite q raises ValueError: its K would be
    NaN or infinite, not a sign."""
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")
    if lambda_p is None:
        lambda_p = steklov_eigenvalue(n, p)
    return (stability_scale(n, p, lambda_p)
            * (find_q_loc(n, p, lambda_p=lambda_p) - q))


def stability_scale(n: int, p: float, lambda_p: float | None = None) -> float:
    """Prefactor lambda_p^(2/p) |S|^(2/p-1); the natural magnitude of K."""
    if lambda_p is None:
        lambda_p = steklov_eigenvalue(n, p)
    return lambda_p ** (2.0 / p) * surface_measure(n) ** (2.0 / p - 1.0)


def find_q_loc(n: int, p: float, *, lambda_p: float | None = None) -> float:
    """Root in q of K(n, p, q) = 0: modes with q below it are stable.

    K is affine and decreasing in q, so the root is
    1 + lambda_p^(-p/(p-1)) (1 - (n-1) lambda_p).  It may land outside
    (p, p*); callers decide how to report such boundary cases.
    """
    if lambda_p is None:
        lambda_p = steklov_eigenvalue(n, p)
    return 1.0 + lambda_p ** (-p / (p - 1.0)) * (1.0 - (n - 1.0) * lambda_p)


def find_p_loc(n: int) -> float:
    """Root p in (2, n - 0.05) of K(n, p, p*(p)) = 0.

    Below p_loc even the critical exponent is stable.  K(n, p, p*) is
    positive at p = 2 and negative at p = n - 0.05 for every admitted n,
    with one sign change between, so Brent's method runs on that bracket
    directly; a bracket without a sign change raises BracketError.  The
    eigenvalue is recomputed for every trial p.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 4):
        raise ValueError(f"p_loc needs an integer dimension >= 4, got {n!r}")
    return brent_root(lambda p: compute_k(n, p, critical_exponent(n, p)),
                      2.0, n - 0.05, f_tol=0.0, x_tol=P_LOC_TOL)


def compute_ipn(n: int, p: float) -> float:
    """I_{p,n} = (e^(-kappa) kappa / p') int_0^1 t^(n/p') e^(kappa t) dt.

    The eigenvalue bound reads lambda_p <= (1 - I_{p,n})/n.
    """
    check_dimension(n)
    if not 2.0 <= p <= n:
        raise ValueError(f"need 2 <= p <= n, got p={p}")
    kap = kappa_value(n, p)
    pc = conjugate_exponent(p)
    expo = n / pc
    # int_0^1 t^a e^(kappa t) dt = sum_j kappa^j / (j! (a + j + 1)); every
    # term is positive, so the sum stops once a term is below eps of it.
    power = 1.0  # kappa^j / j!
    integral = 1.0 / (expo + 1.0)
    j = 0
    while True:
        j += 1
        power *= kap / j
        term = power / (expo + j + 1.0)
        integral += term
        if term < _EPS * integral:
            return math.exp(-kap) * kap / pc * integral


def t_star(n: int, p: float) -> float:
    """Evaluation point t_{p,n} = n^(-1/(p-1)) p/(n + p') of the lower bound."""
    _check_exponent(p)
    return n ** (-1.0 / (p - 1.0)) * p / (n + conjugate_exponent(p))


def tau_star(n: int, p: float, t: float | None = None) -> float:
    """tau_{p,n} = (1/kappa)((n-1) t g(t)/(p' kappa) - t/p' + 1) at t = t_{p,n}."""
    if t is None:
        t = t_star(n, p)
    kap = kappa_value(n, p)
    pc = conjugate_exponent(p)
    return ((n - 1.0) / (pc * kap) * t * float(g_small(t)) - t / pc + 1.0) / kap


def g_small(t):
    """g(t) = (2/e)(e^(-2t)(t+1) + t - 1)/t, with g(0) = 0 by its limit.

    Below 1e-3 the closed form loses digits to cancellation; a fixed-order
    series takes over there (relative error under 1e-16 on that range).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("g is evaluated for t >= 0")
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.empty_like(t)
    small = t < 1e-3
    ts = t[small]
    out[small] = (2.0 / _E) * ts * ts * (2.0 / 3.0 - (2.0 / 3.0) * ts
                                         + 0.4 * ts * ts
                                         - (8.0 / 45.0) * ts ** 3)
    tl = t[~small]
    out[~small] = (2.0 / _E) * (np.exp(-2.0 * tl) * (tl + 1.0) + tl - 1.0) / tl
    return float(out[0]) if scalar else out


def g_cap(t):
    """G(t) = t (1 - g(t))."""
    val = np.asarray(t, dtype=float) * (1.0 - np.asarray(g_small(t)))
    return float(val) if val.ndim == 0 else val


def g_tilde(t):
    """G-tilde(t) = e^G(t) + G(t)(t + 1), the quantity tabulated on [0, 1]."""
    cap = np.asarray(g_cap(t))
    val = np.exp(cap) + cap * (np.asarray(t, dtype=float) + 1.0)
    return float(val) if val.ndim == 0 else val


def g_cap_derivative(t):
    """G'(t) = (1 - 2/e) + 2 e^(-2t-1)(2t + 1); positive, so G-tilde increases."""
    t = np.asarray(t, dtype=float)
    val = (1.0 - 2.0 / _E) + 2.0 * np.exp(-2.0 * t - 1.0) * (2.0 * t + 1.0)
    return float(val) if val.ndim == 0 else val


@dataclass
class AppendixTableRow:
    k: int
    tk: float
    gtilde: float
    bound: float  # 2 (t_{k-1} + 1)
    holds: bool


def appendix_table() -> list[AppendixTableRow]:
    """The 20-row table: G-tilde(t_k) against 2(t_{k-1}+1) on t_k = 0.05k.

    Monotonicity of G-tilde turns the rowwise bound into the inequality
    G-tilde(t) < 2(t+1) on all of (0, 1).
    """
    rows = []
    for k in range(1, 21):
        tk = 0.05 * k
        value = float(g_tilde(tk))
        bound = 2.0 * (0.05 * (k - 1) + 1.0)
        rows.append(AppendixTableRow(k=k, tk=tk, gtilde=value, bound=bound,
                                     holds=value < bound))
    return rows


@dataclass
class ChainLink:
    name: str
    margin: float
    holds: bool


@dataclass
class ChainReport:
    """Margins for every link of the eigenvalue-bound inequality chain."""

    links: list[ChainLink]

    @property
    def all_hold(self) -> bool:
        return all(link.holds for link in self.links)

    def link(self, name: str) -> ChainLink:
        for item in self.links:
            if item.name == name:
                return item
        raise KeyError(name)


def verify_appendix_chain(n: int, p: float,
                          lambda_p: float | None = None) -> ChainReport:
    """Evaluate each inequality in the chain behind K(n, p, p) > 0.

    A failing link is a result, not an error; the margins are the point.
    """
    lam = steklov_eigenvalue(n, p) if lambda_p is None else lambda_p
    ipn = compute_ipn(n, p)
    kap = kappa_value(n, p)
    pc = conjugate_exponent(p)
    t = t_star(n, p)
    gt = float(g_small(t))
    tau = tau_star(n, p, t)
    links = []

    def add(name, margin, weak=False):
        holds = margin >= 0.0 if weak else margin > 0.0
        links.append(ChainLink(name=name, margin=float(margin), holds=holds))

    # lambda_p <= (1 - I_{p,n})/n, the upper bound the chain exists to prove.
    add("eigenvalue_upper", (1.0 - ipn) / n - lam)
    # (1 - I)^p < (((n-1) I + 1)/kappa)^(p-1)
    add("nerav", (((n - 1.0) * ipn + 1.0) / kap) ** (p - 1.0)
        - (1.0 - ipn) ** p)
    # I > (1/p')(t/(t+1))(1 + g(t)/kappa) at t = t_{p,n}
    add("integral_lower", ipn - (t / (t + 1.0)) * (1.0 + gt / kap) / pc)
    # (1 + t/p - g/(n+p'))^p < (1 + tau)^(p-1) (1 + t)
    add("f35", (1.0 + tau) ** (p - 1.0) * (1.0 + t)
        - (1.0 + t / p - gt / (n + pc)) ** p)
    # G-tilde(t) < 2(t+1) on (0,1), via the margin minimum on a fine grid
    ts = np.linspace(1e-6, 1.0 - 1e-6, 2001)
    add("f39", float(np.min(2.0 * (ts + 1.0) - g_tilde(ts))))
    # G'(t) > 0, hence G-tilde is increasing and the table covers (0,1)
    add("gtilde_increasing", float(np.min(g_cap_derivative(
        np.linspace(0.0, 1.0, 2001)))))
    # n^(1/(p-1)) (n-1)/p >= n^(-(n-2)/(n-1)) (n-1) > 1; the left relation
    # is an equality at p = n, so it is only required weakly (up to roundoff)
    floor = n ** (-(n - 2.0) / (n - 1.0)) * (n - 1.0)
    frac = n ** (1.0 / (p - 1.0)) * (n - 1.0) / p
    add("fraction_link", frac - floor if abs(frac - floor) > 1e-14 * floor
        else 0.0, weak=True)
    add("fraction_floor", floor - 1.0)
    # lambda (n-1) + lambda^(p/(p-1)) (p-1) < 1, equivalent to K(n,p,p) > 0
    add("main_inequality",
        1.0 - lam * (n - 1.0) - lam ** (p / (p - 1.0)) * (p - 1.0))

    return ChainReport(links)
