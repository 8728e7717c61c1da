"""Equianharmonic Weierstrass functions (g2 = 0, g3 real), at 106 bits.

Every value is an mpc worked at `DD_PREC + 20` bits and rounded once to
106 bits, the dd budget of `numeric`.  With L_n the n-th derivative of
log theta_1(v, q) at v = k z and k = pi / (2 w) (DLMF §23.6(i)),

    wp = k^2 (c - L_2),  wp' = -k^3 L_3,  wp'' = -k^4 L_4,  zeta = k L_1 - k^2 c z,

where c = theta_1'''(0) / (3 theta_1'(0)).  At g3 = 1 the lattice is
hexagonal (DLMF §23.5(v); Abramowitz and Stegun §18.13): w = Gamma(1/3)^3
/ (4 pi), tau = e^(i pi/3), q = e^(i pi tau), and the Legendre relation
(DLMF 23.2.14) gives c = -2 / (sqrt(3) pi).  Since wp(z; 0, g3) = s^2
wp(s z; 0, 1) for any sixth root s of g3, k becomes s k.  v is first
reduced by its nearest theta_1 zero pi (m + n tau), which shifts L_1 by
-2i n.  wp'' comes from theta_1'''', not from the ODE, so wp'' = 6 wp^2
stays a test.  No catalog verdict evaluates these functions: `verify`
decides the Weierstrass records exactly from wp'' = 6 wp^2 and zeta' = -wp.
"""

import mpmath

from .expr import EvalDomainError
from .numeric import DD_PREC

_POLE_TOL = 1e-8


def _theta_jet(z, g3):
    """(wp, wp', wp'', zeta) at z for g3 != 0, at the working precision."""
    pi = mpmath.pi
    tau = mpmath.expjpi(mpmath.mpf(1) / 3)
    c = -2 / (mpmath.sqrt(3) * pi)
    sk = mpmath.root(mpmath.mpc(g3), 6) * 2 * pi ** 2 / mpmath.gamma(mpmath.mpf(1) / 3) ** 3
    v = sk * z
    n = mpmath.nint(v.imag / (pi * tau.imag))
    v0 = v - pi * (mpmath.nint(v.real / pi - n * tau.real) + n * tau)
    if abs(v0 / sk) < _POLE_TOL:
        raise EvalDomainError("argument too close to a lattice pole")
    q = mpmath.expjpi(tau)
    d0, d1, d2, d3, d4 = (mpmath.jtheta(1, v0, q, derivative=j) for j in range(5))
    m1, m2, m3, m4 = d1 / d0, d2 / d0, d3 / d0, d4 / d0
    L2 = m2 - m1 ** 2
    L3 = m3 - 3 * m2 * m1 + 2 * m1 ** 3
    L4 = m4 - 4 * m3 * m1 - 3 * m2 ** 2 + 12 * m2 * m1 ** 2 - 6 * m1 ** 4
    return (sk ** 2 * (c - L2), -sk ** 3 * L3, -sk ** 4 * L4,
            sk * (m1 - 2j * n - c * sk * z))


def weierstrass_jet(zv, g3):
    """(wp, wp', wp'', zeta) at zv for invariants (0, g3); g3 = 0 gives the
    degenerate jet (1/z^2, -2/z^3, 6/z^4, 1/z)."""
    with mpmath.workprec(DD_PREC + 20):
        z = mpmath.mpc(zv)
        if abs(z) < _POLE_TOL:
            raise EvalDomainError("argument too close to the lattice pole at 0")
        jet = _theta_jet(z, g3) if g3 else (1 / z ** 2, -2 / z ** 3, 6 / z ** 4, 1 / z)
    with mpmath.workprec(DD_PREC):
        return tuple(+x for x in jet)


def weierstrass_p(zv, g3):
    """wp(zv; 0, g3)."""
    return weierstrass_jet(zv, g3)[0]


def weierstrass_zeta(zv, g3):
    """Weierstrass zeta (zeta' = -wp), equianharmonic case."""
    return weierstrass_jet(zv, g3)[3]


def second_difference(f, z, h, fz=None):
    """Richardson-extrapolated central second difference of f at z, each
    stencil point evaluated once; fz is f(z) when the caller has it."""
    fz = f(z) if fz is None else fz
    d1 = (f(z + h) - 2 * fz + f(z - h)) / (h * h)
    h2 = h / 2
    d2 = (f(z + h2) - 2 * fz + f(z - h2)) / (h2 * h2)
    return (4 * d2 - d1) / 3


def first_difference(f, z, h):
    """Richardson-extrapolated central first difference of f at z."""
    d1 = (f(z + h) - f(z - h)) / (2 * h)
    h2 = h / 2
    d2 = (f(z + h2) - f(z - h2)) / (2 * h2)
    return (4 * d2 - d1) / 3


def wp_ode_residual(zv, g3, h=1e-5):
    """Relative residual of wp'' = 6 wp^2 with wp'' from finite differences.

    The stencil points are formed at 106 bits so the difference quotient
    is not polluted by double rounding of z +- h.
    """
    with mpmath.workprec(DD_PREC):
        z = mpmath.mpc(zv)
        hh = mpmath.mpf(h)
        p = weierstrass_p(z, g3)
        p2 = second_difference(lambda w: weierstrass_p(w, g3), z, hh, p)
        return float(abs(p2 - 6 * p * p) / (1 + abs(6 * p * p)))


def zeta_defining_residual(zv, g3, h=1e-5):
    """Relative residual of zeta' = -wp via extrapolated differences."""
    with mpmath.workprec(DD_PREC):
        z = mpmath.mpc(zv)
        hh = mpmath.mpf(h)
        zp = first_difference(lambda w: weierstrass_zeta(w, g3), z, hh)
        p = weierstrass_p(z, g3)
        return float(abs(zp + p) / (1 + abs(p)))
