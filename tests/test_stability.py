"""Stability constant, threshold exponents, and the inequality chain."""
import math

import numpy as np
import pytest

from henon_lab import steklov
from henon_lab.errors import ConvergenceError
from henon_lab.rootfind import sign_change_pairs
from henon_lab.stability import (appendix_table, compute_ipn, compute_k,
                                 conjugate_exponent, find_p_loc, find_q_loc,
                                 g_cap, g_cap_derivative, g_small, g_tilde,
                                 kappa_value, stability_scale, t_star,
                                 tau_star, verify_appendix_chain)
from henon_lab.steklov import steklov_eigenvalue

# 30-digit reference evaluations, frozen.
K_ORACLES = {
    (3, 2.0, 6.0): -0.37064837803133140457,
    (4, 2.0, 4.0): 0.44272494600026491203,
    (5, 2.0, 10.0 / 3.0): 0.68674804364746988709,
}
IPN_ORACLES = {
    (3, 2.0): 0.060760667391803808,
    (4, 2.0): 0.039187470857522108,
    (5, 2.0): 0.027346379561313890,
    (6, 2.0): 0.020157729117919981,
    (4, 2.5): 0.092268487942377787,
}
BOUND_ORACLES = {  # (1 - I_{2,n})/n
    3: 0.31307977753606539733,
    4: 0.24020313228561947298,
    5: 0.19453072408773722192,
    6: 0.16330704514701333648,
}
GTILDE_ORACLES = {
    0.05: 1.1036485151777562749,
    0.5: 2.2798550617400020706,
    1.0: 3.8291407412740155792,
}
Q_LOC_4_2 = 5.843199476101696284  # 1 + (1 - 3 lambda)/lambda^2 at n = 4


def test_scalar_helpers():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(3.0) == 1.5
    for helper in (conjugate_exponent, lambda p: kappa_value(4, p),
                   lambda p: t_star(4, p), lambda p: tau_star(4, p)):
        for bad in (1.0, 0.5, math.nan):
            with pytest.raises(ValueError, match="exceed 1"):
                helper(bad)
    assert abs(kappa_value(3, 2.0) - 1.0 / 3.0) <= 1e-15
    assert abs(t_star(3, 2.0) - 2.0 / 15.0) <= 1e-15
    # tau formula against a hand evaluation at (3, 2).
    t = 2.0 / 15.0
    want = (3.0 * t * g_small(t) - 0.5 * t + 1.0) * 3.0
    assert abs(tau_star(3, 2.0) - want) <= 1e-14 * want


def test_k_values():
    for (n, p, q), want in K_ORACLES.items():
        got = compute_k(n, p, q)
        assert abs(got - want) <= 1e-6, (n, p, q, got)
    # K is affine and decreasing in q at fixed (n, p).
    lam = steklov_eigenvalue(4, 2.0)
    ks = [compute_k(4, 2.0, q, lam) for q in (3.0, 4.0, 5.0, 6.0)]
    diffs = np.diff(ks)
    assert np.all(diffs < 0.0)
    assert abs(diffs[0] - diffs[1]) <= 1e-12 and abs(diffs[1] - diffs[2]) <= 1e-12
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="q must be finite"):
            compute_k(4, 2.5, bad, lam)


def test_ipn_and_eigenvalue_bound():
    for (n, p), want in IPN_ORACLES.items():
        assert abs(compute_ipn(n, p) - want) <= 1e-10, (n, p)
    for n, bound in BOUND_ORACLES.items():
        assert abs((1.0 - compute_ipn(n, 2.0)) / n - bound) <= 1e-10
        assert steklov_eigenvalue(n, 2.0) < bound
    with pytest.raises(ValueError, match="2 <= p <= n"):
        compute_ipn(4, 4.5)
    with pytest.raises(ValueError, match="integer >= 3"):
        compute_ipn(2.5, 2.0)


def test_ipn_series_matches_mpmath_quadrature():
    import mpmath

    for n in range(3, 9):
        for p in np.linspace(2.0, n, 9)[:-1]:
            with mpmath.workdps(30):
                kap = mpmath.mpf(kappa_value(n, p))
                pc = mpmath.mpf(conjugate_exponent(p))
                a = n / pc
                integral = mpmath.quad(
                    lambda t: t ** a * mpmath.exp(kap * t), [0, 1])
                want = float(mpmath.exp(-kap) * kap / pc * integral)
            assert abs(compute_ipn(n, p) - want) <= 1e-13 * want, (n, p)


def test_chain_reuses_a_given_lambda(monkeypatch):
    lam = steklov_eigenvalue(5, 2.75)
    shots = []
    shoot = steklov._shoot

    def counted(*args, **kwargs):
        shots.append(args)
        return shoot(*args, **kwargs)

    monkeypatch.setattr(steklov, "_shoot", counted)
    given = verify_appendix_chain(5, 2.75, lam)
    assert shots == []
    assert given == verify_appendix_chain(5, 2.75)
    assert len(shots) == 1


def test_q_loc():
    got = find_q_loc(4, 2.0)
    assert abs(got - Q_LOC_4_2) <= 1e-6
    lam = steklov_eigenvalue(4, 2.0)
    assert abs(compute_k(4, 2.0, got, lam)) <= 1e-8 * stability_scale(4, 2.0, lam)
    # Spot the matrix claim q_loc > p away from p = 2 as well.
    for n, p in [(3, 2.0), (4, 3.5), (6, 4.0)]:
        assert find_q_loc(n, p) > p, (n, p)


def test_p_loc():
    p_loc = find_p_loc(4)
    assert 2.2 < p_loc < 2.3
    # Self-consistency: K vanishes at the critical exponent of p_loc.
    from henon_lab.henon import critical_exponent
    k = compute_k(4, p_loc, critical_exponent(4, p_loc))
    assert abs(k) <= 1e-7 * stability_scale(4, p_loc)
    with pytest.raises(ValueError, match="integer dimension >= 4"):
        find_p_loc(3)


def test_p_loc_bracket_has_one_sign_change():
    # The premise of the single bracket in find_p_loc: K(n, p, p*(p)) is
    # positive at p = 2 and changes sign exactly once on [2, n - 0.05].
    from henon_lab.henon import critical_exponent
    for n in (4, 5, 6, 12, 76):
        ks = [compute_k(n, p, critical_exponent(n, p))
              for p in np.linspace(2.0, n - 0.05, 41)]
        assert ks[0] > 0.0, n
        assert len(sign_change_pairs(ks)) == 1, n


def test_p_loc_shot_count(monkeypatch):
    shots = []
    shoot = steklov._shoot

    def counted(*args, **kwargs):
        shots.append(args)
        return shoot(*args, **kwargs)

    monkeypatch.setattr(steklov, "_shoot", counted)
    from henon_lab.henon import critical_exponent
    for n in (4, 5, 6):
        shots.clear()
        p_loc = find_p_loc(n)
        assert len(shots) <= 12, (n, len(shots))
        k = compute_k(n, p_loc, critical_exponent(n, p_loc))
        assert abs(k) <= 1e-8 * stability_scale(n, p_loc), n


def test_g_small_branches():
    assert g_small(0.0) == 0.0
    with pytest.raises(ValueError, match=">= 0"):
        g_small(-0.1)
    # The branches meet at the switch point up to the closed form's
    # cancellation there (about 1e-7 relative, its worst over the domain).
    below = g_small(1e-3 * (1.0 - 1e-9))
    above = g_small(1e-3 * (1.0 + 1e-9))
    assert abs(below - above) <= 1e-7 * above
    # Vectorized evaluation matches scalar calls across the switch.
    ts = np.array([0.0, 5e-4, 2e-3, 0.3, 1.0])
    vec = g_small(ts)
    assert vec.shape == ts.shape
    for t, v in zip(ts, vec):
        assert g_small(float(t)) == v


def test_g_cap_derivative_matches_difference():
    h = 1e-6
    for t in (0.1, 0.45, 0.9):
        fd = (g_cap(t + h) - g_cap(t - h)) / (2.0 * h)
        assert abs(g_cap_derivative(t) - fd) <= 1e-8
    assert np.all(g_cap_derivative(np.linspace(0.0, 1.0, 101)) > 0.0)


def test_g_tilde_values():
    for t, want in GTILDE_ORACLES.items():
        assert abs(g_tilde(t) - want) <= 1e-12, t
    vals = g_tilde(np.linspace(0.05, 1.0, 20))
    assert np.all(np.diff(vals) > 0.0)


def test_g_tilde_matches_mpmath():
    # The 20 table points, and two points on the small-t series branch.
    # The oracle gives G-tilde(0.5) = 2.2798551, against the 2.2796 that
    # acceptance criterion 3 prints as its reference.
    import mpmath

    def oracle(t):
        with mpmath.workdps(40):
            t = mpmath.mpf(t)
            g = 2 / mpmath.e * (mpmath.exp(-2 * t) * (t + 1) + t - 1) / t
            cap = t * (1 - g)
            return float(mpmath.exp(cap) + cap * (t + 1))

    for t in [0.05 * k for k in range(1, 21)] + [1e-8, 9.99e-4]:
        want = oracle(t)
        assert abs(g_tilde(t) - want) <= 1e-14 * want, t
    assert abs(oracle(0.5) - 2.2798551) <= 1e-7


def test_appendix_table_structure():
    rows = appendix_table()
    assert len(rows) == 20
    for k, row in enumerate(rows, start=1):
        assert row.k == k
        assert abs(row.tk - 0.05 * k) <= 1e-15
        assert abs(row.bound - 2.0 * (0.05 * (k - 1) + 1.0)) <= 1e-15
        assert row.holds and row.gtilde < row.bound
    assert abs(rows[9].gtilde - GTILDE_ORACLES[0.5]) <= 1e-12


def test_inequality_chain():
    names = ["eigenvalue_upper", "nerav", "integral_lower", "f35", "f39",
             "gtilde_increasing", "fraction_link", "fraction_floor",
             "main_inequality"]
    for n, p in [(3, 2.0), (6, 4.0), (5, 5.0)]:
        report = verify_appendix_chain(n, p)
        assert [link.name for link in report.links] == names
        assert report.all_hold, (n, p)
        for link in report.links:
            assert link.margin >= 0.0, (n, p, link.name)
        assert report.link("main_inequality").margin > 0.0
        with pytest.raises(KeyError):
            report.link("nope")
    # At p = n the fraction link degenerates to equality; weak by design.
    report = verify_appendix_chain(5, 5.0)
    assert report.link("fraction_link").margin == 0.0
    assert report.link("fraction_link").holds
