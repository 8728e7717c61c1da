"""Equianharmonic Weierstrass evaluation against its defining relations."""

import cmath
import random

import mpmath
import pytest

from liesym.expr import EvalDomainError
from liesym.numeric import DD_PREC
from liesym.weierstrass import (
    first_difference, second_difference, weierstrass_jet, weierstrass_p,
    weierstrass_zeta, wp_ode_residual, zeta_defining_residual,
)

# (wp, wp', wp'', zeta) at (z, g3), as (real, imaginary) digit strings, from
# an independent evaluator: a 30-term Laurent series about 0 carried out by
# argument doubling through the algebraic duplication maps of wp
REFERENCE = [
    ((1.9, 0.3), -1.0, (
        ("-1.339423946952480595777223507047828e-1", "-3.058362397502662997843175520013026e-1"),
        ("-1.068291148126017570961088299155181", "-2.273914590899109606943739159540341e-2"),
        ("-4.535714426873085166866271042540111e-1", "4.915732600408881907866347710643207e-1"),
        ("6.480227780372221002846439888434018e-1", "4.019861726633893627160096224310835e-2"),
    )),
    ((-0.4, 1.95), -2.5, (
        ("-7.620241231919380458975027077126425e-1", "-1.389712317605890322131136557260156"),
        ("-4.290155262147534064838838658812091", "-1.22612914085451410175094875150601e-1"),
        ("-8.103717368274558029837896183127646", "12.7079317237519763874855727553628"),
        ("-6.499805693261969937108027374786545e-1", "-2.811218550210520801236815639910374e-1"),
    )),
    ((1.2, -1.5), -0.7, (
        ("2.192062423418674944625551933715337e-1", "1.059022153802889040177968267256669e-1"),
        ("8.448324853047747852966856237064592e-1", "3.332854514260451539546110479364393e-2"),
        ("2.210165847551306512057478029423994e-1", "2.785731202703070786495982539878269e-1"),
        ("3.001200137923354239488767280229264e-1", "5.312690222563921949613195191030887e-1"),
    )),
    ((-1.85, -0.6), 3.0, (
        ("1.039757128358934772383527264846211e-1", "1.144023773009888656833417471202569"),
        ("1.188240283190365002456372198931613", "-2.45772407629159989453369922040637"),
        ("-7.787876666112294374389738914817144", "1.427408247598938789594648205980016"),
        ("-5.86858009043986527342239608369395e-1", "7.026947185473598214799551324882868e-1"),
    )),
    ((0.05, 1.98), -4.0, (
        ("-4.792035622459093734660279013952247", "1.077774340666614745654755606566631"),
        ("7.122847171036999821076842334911192", "20.49652681465823223650953711132007"),
        ("130.8120472651053468561593631675312", "-61.97679640136136641406857486410583"),
        ("2.45635977446385473121097577457932e-1", "7.074385442279817265866526803142663e-1"),
    )),
]


def _rel(a, b):
    return abs(a - b) / abs(b)


def _period(g3):
    """2w g3^(-1/6): a period of wp(z; 0, g3), for either sign of g3."""
    return mpmath.gamma(mpmath.mpf(1) / 3) ** 3 / (2 * mpmath.pi) / mpmath.root(mpmath.mpc(g3), 6)


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


class TestLattice:
    @pytest.mark.parametrize("z, g3, ref", REFERENCE, ids=range(len(REFERENCE)))
    def test_reference_values(self, z, g3, ref):
        with mpmath.workprec(DD_PREC):
            for got, (re, im) in zip(weierstrass_jet(complex(*z), g3), ref):
                assert _rel(got, mpmath.mpc(re, im)) < 1e-28

    @pytest.mark.parametrize("g3", [2.5, -1.5])
    def test_rotation_symmetry(self, g3):
        # g2 = 0: wp(rho z) = rho^-2 wp(z) and zeta(rho z) = rho^-1 zeta(z)
        with mpmath.workprec(DD_PREC):
            rho = mpmath.expjpi(mpmath.mpf(2) / 3)
            z = mpmath.mpc(0.7, 0.45)
            p, _, _, zeta = weierstrass_jet(z, g3)
            rp, _, _, rzeta = weierstrass_jet(rho * z, g3)
            assert _rel(rp, p / rho ** 2) < 1e-28
            assert _rel(rzeta, zeta / rho) < 1e-28

    @pytest.mark.parametrize("g3", [1.0, 2.5, -1.5])
    def test_periodicity(self, g3):
        # both periods; zeta only gains a constant (quasi-periodicity)
        with mpmath.workprec(DD_PREC):
            for w in (_period(g3), mpmath.expjpi(mpmath.mpf(1) / 3) * _period(g3)):
                steps = []
                for z in (mpmath.mpc(0.35, -0.6), mpmath.mpc(-0.2, 0.15)):
                    jet, shifted = weierstrass_jet(z, g3), weierstrass_jet(z + w, g3)
                    for a, b in zip(shifted[:3], jet[:3]):
                        assert _rel(a, b) < 1e-26
                    steps.append(shifted[3] - jet[3])
                assert _rel(steps[0], steps[1]) < 1e-26

    def test_g3_zero_is_the_pole_alone(self):
        with mpmath.workprec(DD_PREC):
            z = mpmath.mpc(0.6, -1.3)
            jet = (1 / z ** 2, -2 / z ** 3, 6 / z ** 4, 1 / z)
            for got, want in zip(weierstrass_jet(z, 0), jet):
                assert _rel(got, want) < 1e-30

    @pytest.mark.parametrize("g3", [1.0, -2.5])
    def test_nonzero_lattice_point_is_a_domain_error(self, g3):
        with mpmath.workprec(DD_PREC):
            w = _period(g3)
            for pole in (w, complex(w), mpmath.expjpi(mpmath.mpf(1) / 3) * w - w):
                with pytest.raises(EvalDomainError):
                    weierstrass_jet(pole, g3)

    def test_far_argument_evaluates(self):
        # 150 periods out: past the 8 argument doublings a series about 0
        # with disk radius 0.9 |g3|^(-1/6) could reach
        g3 = 1.7
        with mpmath.workprec(DD_PREC):
            z = mpmath.mpc(0.3, 0.4)
            far = z + 150 * _period(g3)
            assert abs(far) > 0.9 * 2 ** 8 / g3 ** (1 / 6)
            p, dp, p2, _ = weierstrass_jet(z, g3)
            for a, b in zip(weierstrass_jet(far, g3)[:3], (p, dp, p2)):
                assert _rel(a, b) < 1e-24


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
