"""Bessel and sphere-measure checks against frozen references."""
import math

import pytest

from henon_lab.special import bessel_i, surface_measure

# 30-digit reference values computed with arbitrary-precision arithmetic.
I_HALF_1 = 0.93767488824548764672
I_3HALF_1 = 0.29352532634747979979
I_07_25 = 2.8637176793076501585
I_2_7 = 124.01131054744528358
I_0_1 = 1.2660658777520083356
I_1_1 = 0.56515910399248502721


def test_bessel_frozen_values():
    cases = [
        (0.5, 1.0, I_HALF_1),
        (1.5, 1.0, I_3HALF_1),
        (0.7, 2.5, I_07_25),
        (2.0, 7.0, I_2_7),
        (0.0, 1.0, I_0_1),
        (1.0, 1.0, I_1_1),
    ]
    for nu, x, want in cases:
        got = bessel_i(nu, x)
        assert abs(got - want) <= 1e-12 * want, (nu, x, got)


def test_half_integer_closed_forms():
    # I_{1/2}(x) = sqrt(2/(pi x)) sinh x, I_{3/2}(x) = sqrt(2/(pi x)) (cosh x - sinh(x)/x)
    for x in (0.3, 1.0, 2.7, 8.0):
        pref = math.sqrt(2.0 / (math.pi * x))
        assert abs(bessel_i(0.5, x) - pref * math.sinh(x)) <= 1e-13 * bessel_i(0.5, x)
        want = pref * (math.cosh(x) - math.sinh(x) / x)
        assert abs(bessel_i(1.5, x) - want) <= 1e-12 * bessel_i(1.5, x)


def test_recurrence_identity():
    # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x)
    for nu in (1.0, 1.5, 2.3):
        for x in (0.5, 2.0, 9.5):
            lhs = bessel_i(nu - 1.0, x) - bessel_i(nu + 1.0, x)
            rhs = 2.0 * nu / x * bessel_i(nu, x)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_bessel_domain_errors():
    with pytest.raises(ValueError, match="order"):
        bessel_i(-0.1, 1.0)
    with pytest.raises(ValueError, match="argument"):
        bessel_i(1.0, 0.0)
    with pytest.raises(ValueError, match="argument"):
        bessel_i(1.0, 10.5)


def test_surface_measures():
    assert abs(surface_measure(3) - 12.566370614359172954) <= 1e-13
    assert abs(surface_measure(4) - 19.739208802178717238) <= 1e-13
    assert abs(surface_measure(5) - 26.318945069571622984) <= 1e-13
    assert abs(surface_measure(2) - 2.0 * math.pi) <= 1e-14
    with pytest.raises(ValueError, match="dimension"):
        surface_measure(0)
