"""Equianharmonic Weierstrass functions (g2 = 0, g3 real), at 106 bits.

Every value is an mpc computed under `workprec(106)`, the dd budget of
`numeric`.  Evaluation strategy: the Laurent series about the origin (30
coefficients) inside a g3-scaled disk, then at most 8 argument doublings
using the algebraic duplication maps

    P(2w)  = -2P + 9P^4/(4P^3 - g3)
    P'(2w) = P' * R'(P)/2,      P''(2w) = (R''(P) P'^2 + R'(P) P'') / 4
    zeta(2w) = 2 zeta(w) + P''(w) / (2 P'(w))

where R is the rational map above.  Derivative values propagate through
the doublings, so no ODE shortcut is needed at the evaluation point and
wp'' is exact; the finite differences below only serve as a check.  No
catalog verdict evaluates these functions: `verify` decides the
Weierstrass records exactly from wp'' = 6 wp^2 and zeta' = -wp.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

from .expr import EvalDomainError
from .numeric import DD_PREC

N_COEFFS = 30
MAX_DOUBLINGS = 8
# series argument kept below _DISK * |g3|^(-1/6); calibrated so 30 terms
# give ~1e-14 truncation error
_DISK = 0.9
_POLE_TOL = 1e-8


def _series_coeffs(n: int = N_COEFFS):
    """Exact rational c_k with wp = z^-2 + sum c_k g3^(k//3 scale) ... ;
    returned as Fractions multiplying g3^(m_k) z^(2k-2).

    For g2 = 0 the recursion c_2 = 0, c_3 = g3/28,
    c_k = 3/((2k+1)(k-3)) * sum_{m=2}^{k-2} c_m c_{k-m} keeps every c_k a
    rational multiple of a power of g3; we store the rational and the
    g3 power separately.
    """
    rats = {2: Fraction(0), 3: Fraction(1, 28)}
    pows = {2: 1, 3: 1}
    for k in range(4, n + 1):
        s = Fraction(0)
        p = None
        for m in range(2, k - 1):
            a, b = rats.get(m, Fraction(0)), rats.get(k - m, Fraction(0))
            if a and b:
                s += a * b
                p = pows[m] + pows[k - m]
        rats[k] = s * Fraction(3, (2 * k + 1) * (k - 3))
        pows[k] = p if p is not None else 0
    return [(k, rats[k], pows[k]) for k in range(2, n + 1) if rats[k]]


_COEFFS = _series_coeffs()


def _series_eval(z, g3):
    """(P, P', P'', zeta) from the Laurent series; z inside the disk."""
    z2 = z * z
    P = 1 / z2
    P1 = -2 / (z2 * z)
    P2 = 6 / (z2 * z2)
    Z = 1 / z
    for k, c, p in _COEFFS:
        e = 2 * k - 2
        cv = mpmath.mpf(c.numerator) / c.denominator * g3 ** p
        zp = z ** (e - 2)
        P = P + cv * zp * z2
        P1 = P1 + cv * e * zp * z
        P2 = P2 + cv * e * (e - 1) * zp
        Z = Z - cv * (z ** (e + 1)) / (e + 1)
    return P, P1, P2, Z


def _dup(P, P1, P2, Z, g3):
    """One argument doubling of the jet (P, P', P'', zeta)."""
    Q = 4 * P ** 3 - g3
    if Q == 0 or P1 == 0:
        raise EvalDomainError("duplication hit a critical point")
    # R(P) = -2P + 9P^4/Q ; R'(P) = -2 + 36 P^3 (P^3 - g3)/Q^2
    # R''(P) = 108 g3 P^2 (2 P^3 + g3) / Q^3
    P3 = P ** 3
    Pn = -2 * P + 9 * P ** 4 / Q
    R1 = -2 + 36 * P3 * (P3 - g3) / Q ** 2
    R2 = 108 * g3 * P * P * (2 * P3 + g3) / Q ** 3
    P1n = R1 * P1 / 2
    P2n = (R2 * P1 * P1 + R1 * P2) / 4
    Zn = 2 * Z + P2 / (2 * P1)
    return Pn, P1n, P2n, Zn


def weierstrass_jet(zv, g3):
    """(wp, wp', wp'', zeta) at zv for invariants (0, g3), from one series
    evaluation and its doublings."""
    with mpmath.workprec(DD_PREC):
        z, g3 = mpmath.mpc(zv), mpmath.mpf(g3)
        if abs(z) < _POLE_TOL:
            raise EvalDomainError("argument too close to the lattice pole at 0")
        radius = _DISK / max(abs(g3), 1e-300) ** (1.0 / 6.0)
        k = 0
        while abs(z) > radius and k < MAX_DOUBLINGS:
            z = z / 2
            k += 1
        if abs(z) > radius:
            raise EvalDomainError("argument outside the duplication budget")
        jet = _series_eval(z, g3)
        for _ in range(k):
            jet = _dup(*jet, g3)
        return jet


def weierstrass_p(zv, g3):
    """wp(zv; 0, g3)."""
    return weierstrass_jet(zv, g3)[0]


def weierstrass_zeta(zv, g3):
    """Weierstrass zeta (zeta' = -wp), equianharmonic case."""
    return weierstrass_jet(zv, g3)[3]


def second_difference(f, z, h):
    """Richardson-extrapolated central second difference of f at z."""
    d1 = (f(z + h) - 2 * f(z) + f(z - h)) / (h * h)
    h2 = h / 2
    d2 = (f(z + h2) - 2 * f(z) + f(z - h2)) / (h2 * h2)
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
        p2 = second_difference(lambda w: weierstrass_p(w, g3), z, hh)
        return float(abs(p2 - 6 * p * p) / (1 + abs(6 * p * p)))


def zeta_defining_residual(zv, g3, h=1e-5):
    """Relative residual of zeta' = -wp via extrapolated differences."""
    with mpmath.workprec(DD_PREC):
        z = mpmath.mpc(zv)
        hh = mpmath.mpf(h)
        zp = first_difference(lambda w: weierstrass_zeta(w, g3), z, hh)
        p = weierstrass_p(z, g3)
        return float(abs(zp + p) / (1 + abs(p)))
