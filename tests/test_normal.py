"""Normal forms: rewrite rules, rational identities, the expansion guard."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from liesym import (
    ResourceLimitError, Sym, add, fun, is_zero, mul, normalize, parse, pow_, rat,
)
from liesym import normal
from liesym.catalog import solution_context
from liesym.detsys import extract_determining
from liesym.expr import (
    Add, EvalDomainError, Fun, Jet, Mul, Pow, Rat, Ufunc, children, free_symbols,
    to_text,
)
from liesym.normal import as_expr, canonical, nf_div_exact
from liesym.numeric import compile_terms, sampled

from conftest import exact_number, expr_trees

x = Sym("x")
y = Sym("y")
z = Sym("z")
th = Sym("th")


def test_binomial_collapses():
    e = add(pow_(add(x, y), 2), mul(rat(-1), pow_(x, 2)),
            mul(rat(-2), x, y), mul(rat(-1), pow_(y, 2)))
    assert normalize(e).is_zero()


def test_sech_tanh_rewrite():
    e = add(pow_(fun("sech", th), 2), pow_(fun("tanh", th), 2), rat(-1))
    assert is_zero(e)


def test_cosh_sinh_rewrite():
    e = add(pow_(fun("cosh", th), 2), mul(rat(-1), pow_(fun("sinh", th), 2)), rat(-1))
    assert is_zero(e)


def test_higher_even_sech_powers_reduce():
    e = parse("sech(th)^4 - (1 - tanh(th)^2)^2")
    assert is_zero(e)


def test_tanh_argument_identification():
    # arguments equal up to normalization share the generator
    a = fun("tanh", parse("x + y"))
    b = fun("tanh", parse("y + x"))
    assert is_zero(add(a, mul(rat(-1), b)))


def test_rational_function_identity():
    e = parse("b1*x/(b1*x + b2) - 1 + b2/(b1*x + b2)")
    assert is_zero(e)


def test_polynomial_cancellation_in_quotient():
    e = parse("(x^2 - y^2)/(x - y) - x - y")
    assert is_zero(e)


def test_fractional_power_arithmetic():
    e = parse("sqrt(x/y)*sqrt(x/y) - x/y")
    assert is_zero(e)
    e2 = parse("(x + y)^(1/2)*(x + y)^(1/2) - x - y")
    assert is_zero(e2)


def test_surd_folding():
    assert is_zero(parse("sqrt(4) - 2"))
    assert is_zero(parse("8^(1/3) - 2"))
    assert is_zero(parse("sqrt(8) - 2*sqrt(2)"))


@pytest.mark.parametrize("text", [
    "6^(1/2) - 2^(1/2)*3^(1/2)",
    "2^(1/3)*4^(1/3) - 2",
    "(-6)^(1/2) - (-1)^(1/2)*2^(1/2)*3^(1/2)",
    "12^(2/3) - 2*18^(1/3)",
    "(2/3)^(1/2)*3^(1/2) - 2^(1/2)",
    "(-12)^(1/3) + 2^(2/3)*3^(1/3)",
    # 1009 has no prime factor below 1000 and stays one base
    "2018^(1/2) - 2^(1/2)*1009^(1/2)",
])
def test_surds_split_into_prime_bases(text):
    assert is_zero(parse(text))
    assert not is_zero(parse(f"{text} + 6^(1/2)"))


def test_exp_argument_splitting():
    e = parse("exp(x + y) - exp(x)*exp(y)")
    assert is_zero(e)


def test_not_equal_stays_nonzero():
    assert not is_zero(parse("x*y/(6*t) + 1/1000 - x*y/(6*t)"))


def test_zero_map_has_no_denominator():
    n = normalize(parse("(x + y)/(x + y) - 1"))
    assert n.is_zero() and n.den == ()


def test_exact_division():
    a = normalize(parse("6*a*b*x^2 + a^2*b*x^3"))
    b = normalize(parse("6*x^2 + a*x^3"))
    q = nf_div_exact(a, b)
    assert q is not None
    assert is_zero(add(as_expr(q), mul(rat(-1), parse("a*b"))))


def test_division_with_denominators():
    a = normalize(parse("(x + 1)/(t^2)"))
    b = normalize(parse("3*x + 3"))
    q = nf_div_exact(a, b)
    assert q is not None
    assert is_zero(add(as_expr(q), mul(rat(-1), parse("1/(3*t^2)"))))


def test_expansion_guard(monkeypatch):
    monkeypatch.setattr(normal, "_EXPANSION_LIMIT", 50)
    with pytest.raises(ResourceLimitError):
        normalize(pow_(parse("x + y + t + a + b + c"), 8))


def test_randomized_zero_identities():
    # identities that are zero by construction, built through paths that
    # stress expansion, fraction clearing and the hyperbolic rewrites
    import random
    rng = random.Random(17)
    pool = [parse(s) for s in (
        "x", "y", "x + y", "x*y", "tanh(x)", "sech(x + y)", "exp(y)",
        "1 + x^2", "x/y", "sqrt(x)", "2/3", "x - 3*y",
    )]

    def pick():
        return rng.choice(pool)

    for _ in range(60):
        e, f, g = pick(), pick(), pick()
        style = rng.randrange(4)
        if style == 0:
            z = mul(e, add(f, g)) - mul(e, f) - mul(e, g)
        elif style == 1:
            z = mul(add(e, f), add(e, mul(rat(-1), f))) - mul(e, e) + mul(f, f)
        elif style == 2:
            den = add(f, rat(1))
            z = mul(e, pow_(den, -1), den) - e
        else:
            z = pow_(add(e, f), 2) - mul(e, e) - mul(rat(2), e, f) - mul(f, f)
        assert is_zero(z), (style, e, f, g)


# ---------------------------------------------------------------------------
# exact division: the early exit against the step-limited loop


def _try_div_oracle(terms, patoms):
    """The division loop without the early exit: only the step limit stops
    an inexact division."""
    rem = dict(terms)
    quot = {}
    for _ in range(4 * len(terms) + 16):
        if not rem:
            return quot
        vec = normal._lex_vec([rem, patoms])
        lead, plead = max(rem, key=vec), max(patoms, key=vec)
        qm = normal._mono_div(lead, plead)
        piece = normal._canon_term(dict(qm), Fraction(rem[lead], patoms[plead]))
        if piece.den != () or len(piece.terms) != 1:
            return None
        (qm2, qc2), = piece.terms.items()
        quot[qm2] = quot.get(qm2, Fraction(0)) + qc2
        if not quot[qm2]:
            del quot[qm2]
        sub = normal._terms_mul({qm2: qc2}, patoms)
        if sub.den != ():
            return None
        for m, c in sub.terms.items():
            v = rem.get(m, Fraction(0)) - c
            if v:
                rem[m] = v
            else:
                rem.pop(m, None)
    return None


# plain atoms take the early exit, and so does i = (-1)^(1/2) at a whole
# exponent; another surd or sech(x) in the divisor keeps the step limit
# (sech(x)^2 rewrites to tanh(x))
_PLAIN = (x, y, z, fun("tanh", y))
_GAUSSIAN = _PLAIN + (pow_(rat(-1), Fraction(1, 2)),)
_ALL = _GAUSSIAN + (pow_(rat(2), Fraction(1, 2)), fun("sech", x))
_EXPS = st.sampled_from([Fraction(k) for k in (-2, -1, 0, 0, 0, 1, 2)]
                        + [Fraction(1, 2), Fraction(-1, 3), Fraction(5, 3)])
# sech exponents stay >= 0, so no sum is cleared into a denominator
_SECH_EXPS = st.sampled_from([Fraction(k, 2) for k in range(5)])


def _term_maps(atoms, min_size):
    mono = st.tuples(st.integers(-3, 3).filter(bool),
                     *(_SECH_EXPS if a == fun("sech", x) else _EXPS for a in atoms))
    return (st.lists(mono.map(lambda p: mul(rat(p[0]), *map(pow_, atoms, p[1:]))),
                     min_size=min_size, max_size=4)
            .map(lambda ms: normalize(add(*ms)))
            .filter(lambda n: n.den == () and len(n.terms) >= min_size)
            .map(lambda n: n.terms))


def _gaussian_product(p, qp):
    """Whether p's atoms are plain or i, p holds i, and qp holds -1 only as
    i: then the division goes through the real norm of p."""
    pairs = {b for m in p for b in m}
    return ((normal._I, normal._HALF) in pairs
            and all(normal._plain_atom(a) or (a, e) == (normal._I, normal._HALF)
                    for a, e in pairs)
            and all(a != normal._I or e == normal._HALF for m in qp for a, e in m))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([_PLAIN, _GAUSSIAN, _ALL]).flatmap(
    lambda atoms: st.tuples(_term_maps(atoms, 2), _term_maps(_ALL, 1),
                            _term_maps(_ALL, 1))))
def test_try_div_matches_step_limited_loop(case):
    p, q, a = case
    qp = normal._terms_mul(q, p)
    assert qp.den == ()
    got = normal._try_div(qp.terms, p)
    want = _try_div_oracle(qp.terms, p)
    if all(normal._plain_atom(b) for m in p for b, _ in m):
        assert got == want == q
    elif _gaussian_product(p, qp.terms):
        # exact, and found even where the oracle's lex order, led by i,
        # climbs to the step limit; not always q, as (-1)^(5/6)*i folds
        assert got is not None and normal._terms_mul(got, p) == qp
        assert want is None or got == want
    else:
        assert got == want
    other = normal._try_div(a, p)
    want = _try_div_oracle(a, p)
    if want is None and other is not None:  # found through the real norm
        assert normal._terms_mul(other, p) == normal.NF(a)
    else:
        assert other == want
    for quot in (got, other):
        assert quot is None or all(quot.values())


def test_inexact_catalog_division_stops_early(monkeypatch):
    # a division the catalog check of pipeline --degree 2 makes; the
    # step-limited loop spends 160 _canon_term calls before giving up
    a = normalize(parse(
        "5*b1*x*y^3/(6*t^2) - b1*x*y*z/(2*t) - b2*x*y/(2*t)"
        " - (-1)^(1/2)*5^(1/2)*b2*x*(3*b1*t*z - 5*b1*y^2 + 3*b2*t)^(1/2)/(20*b1^(1/2)*t)"
        " + (-1)^(1/2)*5^(1/2)*b1^(1/2)*x*y^2*(3*b1*t*z - 5*b1*y^2 + 3*b2*t)^(1/2)/(6*t^2)"
        " - (-1)^(1/2)*5^(1/2)*b1^(1/2)*x*z*(3*b1*t*z - 5*b1*y^2 + 3*b2*t)^(1/2)/(20*t)"))
    p = normalize(parse("3*b1*t*z - 5*b1*y^2 + 3*b2*t"))
    assert len(a.terms) == 6 and a.den == () and len(p.terms) == 3
    calls = []
    canon = normal._canon_term

    def counting(raw, coeff):
        calls.append(raw)
        return canon(raw, coeff)

    monkeypatch.setattr(normal, "_canon_term", counting)
    assert normal._try_div(a.terms, p.terms) is None
    assert len(calls) <= 8


def test_inexact_gaussian_division_stops_early(monkeypatch):
    # a division the u8u9-rational check makes: i in the divisor used to
    # rebuild the order and canonicalize every step until the step limit
    ctx = solution_context()
    a = normalize(parse("-96*a*b*k^4 + 96*i*a^2*b*k^2", ctx))
    p = normalize(parse("alpha1*k + 2*i*a*x + 2*i*b*y", ctx))
    assert len(a.terms) == 2 and a.den == () and len(p.terms) == 3
    calls = []
    canon, lex = normal._canon_term, normal._lex_vec

    def counting(raw, coeff):
        calls.append(raw)
        return canon(raw, coeff)

    def orders(term_maps):
        calls.append(term_maps)
        return lex(term_maps)

    monkeypatch.setattr(normal, "_canon_term", counting)
    monkeypatch.setattr(normal, "_lex_vec", orders)
    assert normal._try_div(a.terms, p.terms) is None
    assert len(calls) <= 8


def test_gaussian_quotient_may_dip_below_the_trailing_bound():
    # i - x = i*(1 + i*x): a lex order led by i takes 1/x first, below
    # trail(i) = 1, then i and -1/x, so no trailing bound could end a
    # division by a P holding i; through the real norm 1 + x^2 the quotient
    # is the one monomial i
    ctx = solution_context()
    a, p = (normalize(parse(t, ctx)).terms for t in ("i - x", "1 + i*x"))
    quot = normal._try_div(a, p)
    assert quot == normalize(parse("i", ctx)).terms == _try_div_oracle(a, p)


@pytest.mark.parametrize("text, want", [
    # the oracle's order, led by i, alternates between the real and the
    # imaginary part until the step limit; the real norm divides
    ("(i*x - 1)/(x + i)", "i"),
    ("(x^2 + 1)/(x + i)", "x - i"),
    # inexact: (a - i*b)^2 over the norm a^2 + b^2 has an empty degree box
    ("(a - i*b)/(a + i*b)", "(a - i*b)/(a + i*b)"),
])
def test_division_by_a_sum_holding_i_goes_through_its_real_norm(text, want):
    assert to_text(canonical(_claim(text))) == want


def test_norm_division_needs_i_as_the_only_power_of_minus_one():
    # (-1)^(5/6)*i folds to the real branch, so dividing (-1)^(5/6)*(1 - i)
    # by the norm of 1 + i would give a quotient Q with Q*(1 + i) not
    # (-1)^(5/6); with another power of -1 in the dividend the division
    # stays the step-limited loop, and finds none
    ctx = solution_context()
    a, p = (normalize(parse(t, ctx)).terms for t in ("(-1)^(5/6)", "1 + i"))
    assert normal._try_div(a, p) is None and _try_div_oracle(a, p) is None


# ---------------------------------------------------------------------------
# products of term maps: plain monomials add exponents


def _terms_mul_oracle(t1, t2):
    """Every pair of monomials canonicalized by _canon_term, the pieces
    without a denominator collected first, the others added after."""
    acc, extra = {}, []
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            merged = dict(m1)
            for a, e in m2:
                merged[a] = merged.get(a, 0) + e
            piece = normal._canon_term(merged, c1 * c2)
            if piece.den:
                extra.append(piece)
                continue
            for m, c in piece.terms.items():
                v = acc.get(m, 0) + c
                if v:
                    acc[m] = normal._q(v)
                else:
                    acc.pop(m, None)
    out = normal.NF(acc)
    for piece in extra:
        out = normal.nf_add(out, piece)
    return out


# plain atoms of every kind, then the atoms _canon_term rewrites: sech and
# cosh (squares), a surd base and a sum (fractional exponents)
_MUL_PLAIN = (x, y, Jet("u", (("x", 1),)), Ufunc("F", (x,), (1,)),
              fun("tanh", y), fun("exp", x))
_MUL_ALL = _MUL_PLAIN + (fun("sech", x), fun("cosh", x), rat(2), add(rat(1), x))
_MUL_EXPS = st.sampled_from([-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-1, 3),
                             Fraction(5, 3)])
_MUL_COEFFS = st.sampled_from([-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)])


def _raw_term_maps(atoms):
    mono = st.dictionaries(st.sampled_from(atoms), _MUL_EXPS, max_size=3).map(normal._mono)
    return st.dictionaries(mono, _MUL_COEFFS, min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([_MUL_PLAIN, _MUL_ALL]).flatmap(
    lambda atoms: st.tuples(_raw_term_maps(atoms), _raw_term_maps(atoms))))
def test_terms_mul_matches_canon_term_pair_by_pair(case):
    t1, t2 = case
    plain = all(normal._plain_atom(a) for t in case for m in t for a, _ in m)
    event(f"all atoms plain: {plain}")
    want = _terms_mul_oracle(t1, t2)
    if plain:  # plain products add exponents and never reach _canon_term
        with mock.patch.object(normal, "_canon_term", side_effect=AssertionError):
            got = normal._terms_mul(t1, t2)
    else:
        got = normal._terms_mul(t1, t2)
    assert got == want
    assert list(got.terms) == list(want.terms)  # the same insertion order
    for v in _nf_numbers(got):
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1), v


def test_derive_makes_no_canon_term_call(pde, monkeypatch):
    # every atom of kdv31's symmetry condition is plain, so its normal form
    # takes no _canon_term call (6117 when every product went through it)
    calls = []
    canon = normal._canon_term

    def counting(raw, coeff):
        calls.append(raw)
        return canon(raw, coeff)

    monkeypatch.setattr(normal, "_canon_term", counting)
    assert extract_determining(pde).rows
    assert calls == []


# ---------------------------------------------------------------------------
# the imaginary unit: `i` in a solution claim is (-1)^(1/2)

def _claim(text):
    return parse(text, solution_context())


@pytest.mark.parametrize("text", [
    "i", "-i", "i*a", "1/i", "i^3", "3*i*x - i/2", "1/(a + i*b)",
    "2*i*k^2/(alpha1*k + 2*i*(k^2*x + b*y))",
])
def test_imaginary_unit_round_trips(text):
    e = _claim(text)
    assert _claim(to_text(e)) == e
    assert "i" not in {s.name for s in free_symbols(e)}


@pytest.mark.parametrize("text", [
    "i^2 + 1", "1/(a + i*b) - (a - i*b)/(a^2 + b^2)", "i^4 - 1", "1/i + i",
    "(a + i*b)*(a - i*b) - a^2 - b^2",
])
def test_gaussian_identities_normalize_to_zero(text):
    assert normalize(_claim(text)).is_zero()


def test_cancelled_quotient_monomial_leaves_no_zero_term():
    # the division of 1 - x + i + i*x by 1 + i*x visits the quotient
    # monomial 1/x twice, and its two coefficients cancel
    n = normalize(_claim("(1 - x + i + i*x)/(1 + i*x)"))
    assert all(n.terms.values())
    assert n == normalize(_claim("1 + i"))


def test_imaginary_unit_prints_as_i():
    assert to_text(_claim("(-1)^(1/2)*a")) == "i*a"
    assert to_text(canonical(_claim("i^3"))) == "-i"
    assert not normalize(_claim("i - 1")).is_zero()


# P and Q are real polynomials in a and b; each pair is an identity of
# Gaussian-rational functions until the variant breaks it
_GAUSS_PAIRS = [
    ("(P + i*Q)*(P - i*Q)", "P^2 + Q^2"),
    ("1/(P + i*Q)", "(P - i*Q)/(P^2 + Q^2)"),
    ("(P + i*Q)^2", "P^2 - Q^2 + 2*i*P*Q"),
    ("(P + i*Q)^3", "P^3 - 3*P*Q^2 + i*(3*P^2*Q - Q^3)"),
    ("i^3*P + Q/i", "-i*(P + Q)"),
]
_real_poly = st.recursive(
    st.sampled_from(["a", "b", "1", "2", "(-3)"]),
    lambda sub: st.tuples(sub, st.sampled_from("+*"), sub).map("({0[0]} {0[1]} {0[2]})".format),
    max_leaves=4)


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from(_GAUSS_PAIRS), p=_real_poly, q=_real_poly,
       variant=st.sampled_from(["exact", "conjugate", "shifted"]))
def test_gaussian_zero_iff_numerically_zero(pair, p, q, variant):
    # the exact verdict agrees with double-complex evaluation at seeded
    # real points: zero exactly when every point is ~0
    lhs, rhs = pair
    if variant == "conjugate":
        rhs = rhs.replace("i", "(-i)")
    elif variant == "shifted":
        rhs += " + i/7"
    sides = [_claim(s.replace("P", f"({p})").replace("Q", f"({q})"))
             for s in (lhs, rhs)]
    exact = normalize(add(sides[0], mul(rat(-1), sides[1]))).is_zero()
    fn, syms = compile_terms(sides, "double")

    def close(*draw):
        l, r = fn(*draw)
        return abs(l - r) <= 1e-9 * (1 + abs(l) + abs(r))

    seen = list(sampled(close, len(syms), 8, 32, 0, (0.5, 2.0)))
    event(f"exact zero: {exact}")
    assert seen and exact == all(seen)


# ---------------------------------------------------------------------------
# int and Fraction: interchangeable inputs, and exact data holds each
# rational one way (int when integral)

_RAW = {Add: lambda e, kids: Add(kids), Mul: lambda e, kids: Mul(kids),
        Pow: lambda e, kids: Pow(kids[0], Fraction(e.exp)),
        Fun: lambda e, kids: Fun(e.fn, kids[0])}


def _with_fraction_exponents(e):
    """The same tree node for node, built with the raw constructors and
    every exponent a Fraction (Fraction(2), not 2)."""
    if type(e) not in _RAW:
        return e
    return _RAW[type(e)](e, tuple(map(_with_fraction_exponents, children(e))))


@settings(max_examples=100, deadline=None)
@given(expr_trees(2))
def test_int_and_fraction_exponents_are_interchangeable(e):
    twin = _with_fraction_exponents(e)
    assert twin == e and hash(twin) == hash(e)
    got = normalize(e)
    again = normalize(twin)
    assert again == got and hash(again) == hash(got)
    assert to_text(as_expr(again)) == to_text(as_expr(got))
    assert to_text(twin) == to_text(e)


def _tree_numbers(e):
    """Every Rat value and Pow exponent in e."""
    out, stack = [], [e]
    while stack:
        x = stack.pop()
        if type(x) is Rat:
            out.append(x.value)
        elif type(x) is Pow:
            out.append(x.exp)
        stack.extend(children(x))
    return out


def _nf_numbers(n):
    """Every coefficient and exponent of n, with the numbers inside its atoms."""
    out = list(n.terms.values())
    for m in (*n.terms, n.den):
        for atom, q in m:
            out += [q, *_tree_numbers(atom)]
    return out


@settings(max_examples=150, deadline=None)
@given(expr_trees(2), expr_trees(2), st.sampled_from([2, -3, Fraction(2, 3)]),
       st.sampled_from([-2, -1, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]))
def test_exact_data_holds_no_float_and_no_integral_fraction(a, b, c, q):
    # every division site divides: content extraction (a rational power of
    # a sum times c), rational powers of rationals, exact Laurent division
    # (an expanded product over a sum) and nf_div_exact; int / int would
    # be a float.  The last three add exponents and collect coefficients in
    # products and sums, where Fractions can sum to an integer.
    sa, sb = add(a, y), add(b, x)  # sums, unless a term cancels
    half = rat(1, 2)
    try:
        exprs = [pow_(mul(rat(c), sa), q) / sb, canonical(mul(sa, sb)) / sb,
                 mul(add(pow_(x, q), a), add(pow_(x, q), b)),
                 mul(add(pow_(x, q), mul(half, a)), add(pow_(x, q), mul(half, a), y)),
                 add(mul(half, sa), mul(half, a))]
        nfs = [normalize(e) for e in exprs]
    except (EvalDomainError, ZeroDivisionError):
        assume(False)
    quotient = nf_div_exact(normalize(a), normalize(b))
    if quotient is not None:
        nfs.append(quotient)
    numbers = [v for e in exprs for v in _tree_numbers(e)]
    for n in nfs:
        # canonical atoms only: a product or a power is split into its atoms
        assert not [a for m in (*n.terms, n.den) for a, _ in m if type(a) in (Pow, Mul)]
        numbers += _nf_numbers(n) + _tree_numbers(as_expr(n))
        if n.terms:  # as_expr would turn a float content quotient back exact
            numbers += normal._primitive(n.terms)[1].values()
    assert all(map(exact_number, numbers)), [v for v in numbers if not exact_number(v)]
