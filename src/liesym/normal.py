"""Canonical normal forms: expand, collect, decide zero exactly.

A NormalForm is a map from monomials to rational coefficients together
with a denominator monomial.  Coefficients and exponents are `int` when
integral and `Fraction` otherwise, as in expr, so a quotient is taken
as `_q(Fraction(a, b))`, never with `/`.  Monomial atoms are symbols,
jet variables, unknown-function derivatives, elementary-function
applications with canonical arguments, surd remnants (integer bases at
fractional exponents), and normalized sums at fractional exponents.  Two
monomials whose atoms are all plain (symbols, jets, unknown functions,
and elementary functions other than sech and cosh) multiply by adding
exponents; any other pair goes through _canon_term.  Negative
integer powers of sums are cleared into the denominator, so rational
identities decide exactly.  The only rewrite rules applied are
sech(h)^2 -> 1 - tanh(h)^2 and cosh(h)^2 -> 1 + sinh(h)^2, plus additive
splitting of exp arguments (exp(a*m) -> exp(m)^a) used for argument
identification.  A denominator sum cancels when exact Laurent division
by it succeeds: with plain or i atoms in the divisor, a degree box ends
an inexact division early, and a divisor holding i divides through its
real norm (see _try_div).  `normalize` folds (`expr.fold`) each
distinct subtree once per call, and keeps nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from .expr import (
    ZERO, Add, Expr, Fun, Jet, Mul, Pow, Rat, ResourceLimitError, Sym, Ufunc,
    add, as_rational, fold, fun, mul, pow_, skey, _q, _rat_exact_pow,
)

_EXPANSION_LIMIT = 200_000


def _guard(n: int):
    if n > _EXPANSION_LIMIT:
        raise ResourceLimitError(
            f"expanded term count {n} exceeds limit {_EXPANSION_LIMIT}"
        )


# a monomial is a tuple of (atom, exponent), sorted by the atom order
Monomial = tuple

_EMPTY: Monomial = ()


def _mono(entries: dict) -> Monomial:
    # tuple() of a list: the tuple of a generator may keep an oversized
    # block, and a stored normal form keeps its monomials alive
    return tuple([(a, _q(e)) for a in sorted(entries, key=skey) if (e := entries[a]) != 0])


def mono_key(m: Monomial):
    return tuple((skey(a), e) for a, e in m)


class NF:
    __slots__ = ("terms", "den")

    def __init__(self, terms: dict, den: Monomial = _EMPTY):
        self.terms = terms
        self.den = den if terms else _EMPTY

    def is_zero(self) -> bool:
        return not self.terms

    def key(self):
        return (frozenset(self.terms.items()), self.den)

    def __eq__(self, other):
        return isinstance(other, NF) and self.terms == other.terms and self.den == other.den

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        from .expr import to_text
        return f"<NF {to_text(as_expr(self))}>"


NF_ZERO = NF({})
NF_ONE = NF({_EMPTY: 1})


def nf_const(c) -> NF:
    c = as_rational(c)
    return NF({_EMPTY: c}) if c else NF({})


# ---------------------------------------------------------------------------
# surd folding for rational bases

_SMALL_PRIMES = [p for p in range(2, 1000)
                 if all(p % d for d in range(2, int(math.isqrt(p)) + 1))]


def _small_factors(n: int) -> dict:
    """n > 0 as {base: exponent}: each prime factor below 1000, and what is
    left once they are divided out, one base even when it is a product of
    larger primes."""
    out = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    if n > 1:
        out[n] = 1
    return out


def _rat_pow_fold(c, q):
    """c**q -> (exact rational factor, dict of surd atoms to exponents)."""
    exact = _rat_exact_pow(c, q)
    if exact is not None:
        return exact, {}
    entries: dict = {}
    n = math.floor(q)
    f = q - n
    if c < 0:
        if f.denominator % 2 == 1:
            # real odd root: sign comes out as (-1)^(n + f.numerator)
            factor = _rat_exact_pow(-c, n)
            if (n + f.numerator) % 2:
                factor = -factor
        else:
            # even root of a negative rational: keep a signed surd atom
            factor = _rat_exact_pow(c, n)
            entries[Rat(-1)] = f
        c = -c
    else:
        factor = _rat_exact_pow(c, n)
    if f:
        # one atom per prime base, its exponent in (0, 1), the whole part
        # folded into the factor: 6^(1/2) is 2^(1/2)*3^(1/2), 4^(1/3) is 2^(2/3)
        for m, sgn in ((c.numerator, 1), (c.denominator, -1)):
            for p, e in _small_factors(m).items():
                q_p = sgn * e * f
                whole = math.floor(q_p)
                factor *= _rat_exact_pow(p, whole)
                if q_p != whole:
                    entries[Rat(p)] = q_p - whole
    return _q(factor), entries


# ---------------------------------------------------------------------------
# monomial canonicalization

def _hyp_square_poly(atom: Fun) -> "NF":
    """sech^2 -> 1 - tanh^2, cosh^2 -> 1 + sinh^2 (same argument)."""
    if atom.fn == "sech":
        t = Fun("tanh", atom.arg)
        return NF({_EMPTY: 1, ((t, 2),): -1})
    h = Fun("sinh", atom.arg)
    return NF({_EMPTY: 1, ((h, 2),): 1})


def _canon_term(raw: dict, coeff) -> NF:
    """Canonicalize one raw monomial (atom -> exponent) into a small NF."""
    if coeff == 0:
        return NF_ZERO
    # phase 1: fold rational bases into the coefficient and their surds
    flat: dict = {}
    for a, q in raw.items():
        if q == 0:
            continue
        if type(a) is Rat:
            fc, fe = _rat_pow_fold(a.value, q)
            coeff *= fc
            for b, e in fe.items():
                flat[b] = flat.get(b, 0) + e
        else:
            flat[a] = flat.get(a, 0) + q
    if coeff == 0:
        return NF_ZERO
    # phase 2: per-atom classes on the accumulated exponents
    plain: dict = {}
    den: dict = {}
    pending: list = []
    for a, q in flat.items():
        if q == 0:
            continue
        ta = type(a)
        if ta is Rat:
            fc, fe = _rat_pow_fold(a.value, q)
            coeff *= fc
            for b, e in fe.items():
                if e:
                    plain[b] = plain.get(b, 0) + e
        elif ta is Add:
            n = math.floor(q)
            f = q - n
            if f:
                plain[a] = plain.get(a, 0) + f
            if n > 0:
                pending.append((a, n))
            elif n < 0:
                den[a] = den.get(a, 0) + (-n)
        elif ta is Fun and a.fn in ("sech", "cosh"):
            k = q // 2
            r = q - 2 * k
            if r:
                plain[a] = plain.get(a, 0) + r
            if k:
                pending.append((a, k))  # (hyp^2)^k rewrite
        else:
            plain[a] = plain.get(a, 0) + q
    out = NF({_mono(plain): _q(coeff)}, _mono(den))
    for a, k in pending:
        if type(a) is Fun:
            out = nf_mul(out, nf_pow(_hyp_square_poly(a), k))
        else:
            out = nf_mul(out, nf_pow(normalize(a), k))
    return out


# ---------------------------------------------------------------------------
# arithmetic on normal forms

def _den_lcm(d1: Monomial, d2: Monomial) -> Monomial:
    acc = dict(d1)
    for a, e in d2:
        if acc.get(a, 0) < e:
            acc[a] = e
    return _mono(acc)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two monomials whose exponents only add (of plain
    atoms, or denominators): a merge of the two atom-sorted tuples."""
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        p1, p2 = m1[i], m2[j]
        k1, k2 = p1[0]._k, p2[0]._k
        if k1 == k2:
            e = p1[1] + p2[1]
            if e:
                out.append((p1[0], _q(e)))
            i += 1
            j += 1
        elif k1 < k2:
            out.append(p1)
            i += 1
        else:
            out.append(p2)
            j += 1
    return (*out, *m1[i:], *m2[j:])


def _plain_atom(a) -> bool:
    """True for atoms whose exponents _canon_term only adds."""
    return type(a) in (Sym, Jet, Ufunc) or (type(a) is Fun and a.fn not in ("sech", "cosh"))


def _terms_mul(t1: dict, t2: dict) -> NF:
    """Convolution product of two term maps (fraction aware).  Two
    monomials of plain atoms multiply by adding exponents (Johnson, "Sparse
    polynomial arithmetic", 1974); any other pair goes through _canon_term."""
    acc: dict = {}
    extra: list = []
    right = [(m2, c2, all(_plain_atom(a) for a, _ in m2)) for m2, c2 in t2.items()]
    for m1, c1 in t1.items():
        plain1 = all(_plain_atom(a) for a, _ in m1)
        for m2, c2, plain2 in right:
            if plain1 and plain2:
                pieces = ((_mono_mul(m1, m2), c1 * c2),)
            else:
                d = dict(m1)
                for a, e in m2:
                    d[a] = d.get(a, 0) + e
                piece = _canon_term(d, c1 * c2)
                if piece.den != _EMPTY:
                    extra.append(piece)
                    continue
                pieces = piece.terms.items()
            for m, c in pieces:
                v = acc.get(m, 0) + c
                if v:
                    acc[m] = _q(v)
                else:
                    acc.pop(m, None)
            _guard(len(acc))
    out = NF(acc)
    for piece in extra:
        out = nf_add(out, piece)
    return out


def nf_mul(a: NF, b: NF) -> NF:
    if a.is_zero() or b.is_zero():
        return NF_ZERO
    prod = _terms_mul(a.terms, b.terms)
    den = _mono_mul(_mono_mul(a.den, b.den), prod.den)
    return _reduce(NF(prod.terms, den))


def nf_add(a: NF, b: NF) -> NF:
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    den = _den_lcm(a.den, b.den)
    ta = a.terms if a.den == den else _scale_terms(a.terms, _mono_div(den, a.den))
    tb = b.terms if b.den == den else _scale_terms(b.terms, _mono_div(den, b.den))
    acc = dict(ta)
    for m, c in tb.items():
        v = acc.get(m, 0) + c
        if v:
            acc[m] = _q(v)
        else:
            acc.pop(m, None)
    _guard(len(acc))
    return _reduce(NF(acc, den))


def _scale_terms(terms: dict, mono: Monomial) -> dict:
    """Multiply a term map by a denominator monomial (expanding sums)."""
    if not mono:
        return terms
    factor = NF_ONE
    for a, e in mono:
        factor = nf_mul(factor, nf_pow(normalize(a), e))
    out = _terms_mul(terms, factor.terms)
    if out.den != _EMPTY:
        raise ResourceLimitError("denominator escaped during clearing")
    return out.terms


def _primitive(terms: dict):
    """Content + sign extraction; returns (scale, primitive term map)."""
    num_gcd = 0
    den_lcm = 1
    for c in terms.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    content = _q(Fraction(num_gcd, den_lcm))
    lead = max(terms, key=mono_key)
    if terms[lead] < 0:
        content = -content
    return content, {m: _q(Fraction(c, content)) for m, c in terms.items()}


def nf_pow(a: NF, q) -> NF:
    q = _q(q)
    if q == 0:
        return NF_ONE
    if q == 1:
        return a
    if a.is_zero():
        if q > 0:
            return NF_ZERO
        raise ZeroDivisionError("inverse of zero normal form")
    if q.denominator == 1 and q > 0:
        # binary exponentiation
        out = NF_ONE
        base = a
        n = q.numerator
        while n:
            if n & 1:
                out = nf_mul(out, base)
            n >>= 1
            if n:
                base = nf_mul(base, base)
        return out
    # one term raises each of its atoms; a sum becomes one atom, its
    # primitive part, with the content as coefficient
    if len(a.terms) == 1:
        (m, c), = a.terms.items()
        entries = {atom: e * q for atom, e in m}
    else:
        c, prim = _primitive(a.terms)
        entries = {as_expr(NF(prim)): q}
    for atom, e in a.den:
        entries[atom] = entries.get(atom, 0) - e * q
    fc, fe = _rat_pow_fold(c, q)
    for atom, e in fe.items():
        entries[atom] = entries.get(atom, 0) + e
    return _reduce(_canon_term(entries, fc))


# ---------------------------------------------------------------------------
# reduction: cancel denominator atoms that divide the numerator exactly

def _mono_div(m1: Monomial, m2: Monomial) -> Monomial:
    acc = dict(m1)
    for a, e in m2:
        acc[a] = acc.get(a, 0) - e
    return _mono(acc)


def _lex_vec(term_maps):
    """Exponent vector of a monomial over the union of the maps' atoms; the
    lex order on vectors is a group order: vec(m * p) = vec(m) + vec(p)."""
    atoms = sorted({a for tm in term_maps for m in tm for a, _ in m}, key=skey)
    pos = {a: i for i, a in enumerate(atoms)}

    def vec(m):
        v = [0] * len(atoms)
        for a, e in m:
            v[pos[a]] = e
        return tuple(v)

    return vec


_I, _HALF = Rat(-1), Fraction(1, 2)  # i is the surd atom _I at exponent _HALF


def _box(terms: dict, patoms: dict):
    """A test that every quotient monomial of an exact division of terms by
    P = patoms passes, or None when none can.  With i read as part of a
    Gaussian-rational coefficient, P only adds exponents, so terms = Q*P
    splits into T_g = Q_g*P per group g of exponents on the atoms outside
    P, and in each other atom of P the top and the bottom degree parts of
    T_g are those of Q_g times those of P, none vanishing (Ostrowski: the
    Newton polytope of a product is the Minkowski sum of the factors').
    So Q_g's exponent on it lies in [min(T_g) - min(P), max(T_g) - max(P)]."""
    pat = {a for m in patoms for a, _ in m}

    def group(m):
        return tuple(p for p in m if p[0] not in pat)

    def degrees(rows):
        return {a: (min(r.get(a, 0) for r in rows), max(r.get(a, 0) for r in rows))
                for a in pat - {_I}}

    groups: dict = {}
    for m in terms:
        groups.setdefault(group(m), []).append(dict(m))
    pdeg = degrees([dict(m) for m in patoms])
    box = {g: {a: (lo - pdeg[a][0], hi - pdeg[a][1]) for a, (lo, hi) in degrees(rows).items()}
           for g, rows in groups.items()}
    if any(lo > hi for b in box.values() for lo, hi in b.values()):
        return None

    def fits(qm):
        e, b = dict(qm), box.get(group(qm))
        return b is not None and all(lo <= e.get(a, 0) <= hi for a, (lo, hi) in b.items())

    return fits


def _try_div(terms: dict, patoms: dict):
    """Exact division of a term map by a polynomial P = patoms, or None.

    Quotient monomials come off in decreasing lex order, rebuilt at each
    step, as a rewrite may bring in new atoms; the step limit is the
    backstop.  If every atom of P is plain or i = (-1)^(1/2), and i is the
    only power of -1 in terms when P holds it, the degree box (_box)
    applies: when it is empty the division ends before the first step, and
    a quotient monomial outside it proves the division inexact.  A P
    holding i then divides terms*conj(P) by its real norm P*conj(P)
    (Geddes, Czapor and Labahn, 1992), so the lex order never leads with i.
    """
    pairs = {p for m in patoms for p in m}
    holds_i = (_I, _HALF) in pairs
    fits = None
    if all(_plain_atom(a) or (a, e) == (_I, _HALF) for a, e in pairs) and (
            not holds_i or all(a != _I or e == _HALF for m in terms for a, e in m)):
        if (fits := _box(terms, patoms)) is None:
            return None
        if holds_i:  # i*i = -1 is the only fold, so no denominator
            conj = {m: -c if (_I, _HALF) in m else c for m, c in patoms.items()}
            return _try_div(_terms_mul(terms, conj).terms, _terms_mul(patoms, conj).terms)
    rem, quot = dict(terms), {}
    plead = max(patoms, key=_lex_vec([patoms]))
    for _ in range(4 * len(terms) + 16):
        if not rem:
            return quot
        lead = max(rem, key=_lex_vec([rem, patoms]))
        qm = _mono_div(lead, plead)
        if fits is not None and not fits(qm):
            return None
        piece = _canon_term(dict(qm), _q(Fraction(rem[lead], patoms[plead])))
        if piece.den != _EMPTY or len(piece.terms) != 1:
            return None
        (qm2, qc2), = piece.terms.items()
        quot[qm2] = _q(quot.get(qm2, 0) + qc2)
        if not quot[qm2]:  # a monomial visited twice cancelled
            del quot[qm2]
        sub = _terms_mul({qm2: qc2}, patoms)
        if sub.den != _EMPTY:
            return None
        for m, c in sub.terms.items():
            v = rem.get(m, 0) - c
            if v:
                rem[m] = _q(v)
            else:
                rem.pop(m, None)
    return None


def _reduce(a: NF) -> NF:
    if a.is_zero():
        return NF_ZERO
    if not a.den:
        return a
    terms = a.terms
    den = dict(a.den)
    changed = True
    while changed:
        changed = False
        for atom in list(den):
            if den.get(atom, 0) <= 0:
                den.pop(atom, None)
                continue
            p = normalize(atom)
            if p.den or len(p.terms) < 2:
                continue
            q = _try_div(terms, p.terms)
            if q is not None:
                terms = q
                den[atom] -= 1
                if not den[atom]:
                    den.pop(atom)
                changed = True
    return NF(terms, _mono(den))


# ---------------------------------------------------------------------------
# the normalizer

def normalize(e: Expr) -> NF:
    """The normal form of e, each distinct subtree normalized once."""
    return fold((e,), _normal_node)[0]


def _normal_node(e: Expr, kids) -> NF:
    """The normal form of e from kids, the normal forms of its children."""
    t = type(e)
    if t is Rat:
        return nf_const(e.value)
    if t in (Sym, Jet, Ufunc):
        atom = Ufunc(e.name, tuple(map(as_expr, kids)), e.dorders) if t is Ufunc else e
        return NF({((atom, 1),): 1})
    if t is Fun:
        arg, = kids
        if arg.is_zero():
            return nf_const(fun(e.fn, ZERO).value)
        if e.fn == "exp":
            # additive splitting: exp(sum c_i m_i / D) -> prod exp(m_i/D)^c_i
            entries: dict = {}
            for m, c in arg.terms.items():
                atom = Fun("exp", as_expr(NF({m: 1}, arg.den)))
                entries[atom] = entries.get(atom, 0) + c
            return _canon_term(entries, 1)
        return NF({((Fun(e.fn, as_expr(arg)), 1),): 1})
    if t is Pow:
        return nf_pow(kids[0], e.exp)
    if t is Mul:
        return reduce(nf_mul, kids, NF_ONE)
    if t is Add:
        return reduce(nf_add, kids, NF_ZERO)
    raise TypeError(f"cannot normalize {e!r}")


def as_expr(a: NF) -> Expr:
    """Deterministic canonical expression for a normal form."""
    parts = []
    for m in sorted(a.terms, key=mono_key):
        c = a.terms[m]
        parts.append(mul(Rat(c), *(pow_(atom, e) for atom, e in m)))
    num = add(*parts) if parts else ZERO
    if not a.den:
        return num
    return mul(num, *(pow_(atom, -e) for atom, e in a.den))


# ---------------------------------------------------------------------------
# conveniences used across the package

def is_zero(e: Expr) -> bool:
    return normalize(e).is_zero()


def equivalent(e1: Expr, e2: Expr) -> bool:
    return normalize(e1 - e2).is_zero()


def canonical(e: Expr) -> Expr:
    return as_expr(normalize(e))


def nf_div_exact(a: NF, b: NF):
    """a / b when the quotient is a single monomial (with denominator), else
    None: _try_div of the numerators, the denominators moved onto it."""
    if b.is_zero():
        return None
    if a.is_zero():
        return NF_ZERO
    q = _try_div(a.terms, b.terms)
    if q is None or len(q) != 1:
        return None
    (m, c), = q.items()
    return _reduce(_canon_term(dict(_mono_div(_mono_mul(m, b.den), a.den)), c))
