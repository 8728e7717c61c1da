"""Equianharmonic Weierstrass evaluation against its defining relations."""

import cmath
import random

import mpmath
import pytest

from liesym.expr import EvalDomainError
from liesym.numeric import DD_PREC
from liesym.weierstrass import (
    _dup, _series_eval, first_difference, second_difference, weierstrass_jet,
    weierstrass_p, weierstrass_zeta, wp_ode_residual, zeta_defining_residual,
)


def _annulus_points(n, seed, g3_range=(0.5, 5.0), r_range=(0.1, 2.0)):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        r = rng.uniform(*r_range)
        th = rng.uniform(0.0, 2.0 * cmath.pi)
        z = r * cmath.exp(1j * th)
        g3 = rng.uniform(*g3_range)
        try:
            if abs(weierstrass_p(z, g3)) > 50:
                continue
        except EvalDomainError:
            continue
        out.append((z, g3))
    return out


class TestSeries:
    def test_pole_normalization(self):
        # z^2 * wp(z) -> 1 as z -> 0
        for z in (1e-3, 1e-4, 1e-3j):
            assert abs(z * z * weierstrass_p(z, 2.0) - 1) < 1e-9

    def test_duplication_consistency(self):
        with mpmath.workprec(DD_PREC):
            z, g3 = mpmath.mpc(0.31, -0.22), mpmath.mpf(1.7)
            doubled = _dup(*_series_eval(z, g3), g3)
            direct = _series_eval(2 * z, g3)
            for a, b in zip(doubled, direct):
                assert abs(a - b) / max(1.0, abs(b)) < 1e-12

    def test_values_carry_106_bits(self):
        # one precision: every value is an mpc rounded to 106 bits, not 53
        for v in weierstrass_jet(0.7 + 0.3j, 2.5):
            assert isinstance(v, mpmath.mpc)
            assert 53 < max(v.real._mpf_[3], v.imag._mpf_[3]) <= DD_PREC

    def test_evenness(self):
        z, g3 = 0.8 + 0.3j, 2.5
        assert abs(weierstrass_p(z, g3) - weierstrass_p(-z, g3)) < 1e-10
        assert abs(weierstrass_zeta(z, g3) + weierstrass_zeta(-z, g3)) < 1e-10

    def test_pole_proximity_error(self):
        with pytest.raises(EvalDomainError):
            weierstrass_p(1e-12, 2.0)


class TestDefiningRelations:
    def test_wp_ode_over_annulus(self):
        worst = max(wp_ode_residual(z, g3) for z, g3 in _annulus_points(100, 0))
        assert worst <= 1e-8

    def test_zeta_derivative_is_minus_wp(self):
        worst = max(zeta_defining_residual(z, g3)
                    for z, g3 in _annulus_points(50, 1, r_range=(0.1, 1.8)))
        assert worst <= 1e-8

    def test_wp_prime_consistent(self):
        for z, g3 in _annulus_points(20, 2):
            with mpmath.workprec(DD_PREC):
                fd = first_difference(lambda w: weierstrass_p(w, g3),
                                      mpmath.mpc(z), mpmath.mpf(1e-5))
                direct = weierstrass_jet(z, g3)[1]
                assert abs(fd - direct) / (1 + abs(direct)) < 1e-10

    def test_wp_second_consistent(self):
        for z, g3 in _annulus_points(20, 4):
            with mpmath.workprec(DD_PREC):
                fd = second_difference(lambda w: weierstrass_p(w, g3),
                                       mpmath.mpc(z), mpmath.mpf(1e-5))
                p, _, direct, _ = weierstrass_jet(z, g3)
                assert p == weierstrass_p(z, g3)
                assert abs(fd - direct) / (1 + abs(direct)) < 1e-10
                # wp'' = 6 wp^2 when g2 = 0, to the working precision
                assert abs(direct - 6 * p * p) / (1 + abs(6 * p * p)) < 1e-24

    def test_algebraic_first_integral(self):
        # wp'^2 = 4 wp^3 - g3 when g2 = 0
        for z, g3 in _annulus_points(20, 3):
            p, dp, _, _ = weierstrass_jet(z, g3)
            num = abs(dp * dp - (4 * p ** 3 - g3))
            assert float(num / (1 + abs(4 * p ** 3))) < 1e-10
