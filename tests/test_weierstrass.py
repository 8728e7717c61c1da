"""Equianharmonic Weierstrass evaluation against its defining relations."""

import cmath
import random

import pytest

from liesym.expr import EvalDomainError
from liesym.weierstrass import (
    _Ctx, _dup, _series_eval, first_difference, second_difference, series_constants,
    weierstrass_p, weierstrass_p_prime, weierstrass_p_with_second, weierstrass_zeta,
    wp_ode_residual, zeta_defining_residual,
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
        ctx = _Ctx("double")
        z, g3 = 0.31 - 0.22j, 1.7
        consts = series_constants(g3)
        doubled = _dup(*_series_eval(ctx.to(z), consts), g3, ctx)
        direct = _series_eval(ctx.to(2 * z), consts)
        for a, b in zip(doubled, direct):
            assert abs(a - b) / max(1.0, abs(b)) < 1e-12

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
        import mpmath
        for z, g3 in _annulus_points(20, 2):
            with mpmath.workprec(106):
                fd = first_difference(lambda w: weierstrass_p(w, g3, "dd"),
                                      mpmath.mpc(z), mpmath.mpf(1e-5))
                direct = weierstrass_p_prime(z, g3, "dd")
                assert abs(fd - direct) / (1 + abs(direct)) < 1e-10

    def test_wp_second_consistent(self):
        import mpmath
        for z, g3 in _annulus_points(20, 4):
            with mpmath.workprec(106):
                fd = second_difference(lambda w: weierstrass_p(w, g3, "dd"),
                                       mpmath.mpc(z), mpmath.mpf(1e-5))
                p, direct = weierstrass_p_with_second(z, g3, "dd")
                assert p == weierstrass_p(z, g3, "dd")
                assert abs(fd - direct) / (1 + abs(direct)) < 1e-10
                # wp'' = 6 wp^2 when g2 = 0, to the working precision
                assert abs(direct - 6 * p * p) / (1 + abs(6 * p * p)) < 1e-24

    def test_algebraic_first_integral(self):
        # wp'^2 = 4 wp^3 - g3 when g2 = 0
        for z, g3 in _annulus_points(20, 3):
            p = weierstrass_p(z, g3, "dd")
            dp = weierstrass_p_prime(z, g3, "dd")
            num = abs(dp * dp - (4 * p ** 3 - g3))
            assert float(num / (1 + abs(4 * p ** 3))) < 1e-10
