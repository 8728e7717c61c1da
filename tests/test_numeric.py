"""Compiled claim callables against a recursive evaluator of the stored tree,
the compiled residual reduction, the dd kernels against the libmp calls they
stand for, and the one seeded sampler."""

import math
import operator
import os
import subprocess
import sys
import time
from functools import reduce

import mpmath
import pytest
from hypothesis import event, example, given, settings, strategies as st
from mpmath import libmp

import liesym
from liesym import add, fun, jet, mul, parse, pow_, rat
from liesym.expr import (
    ZERO, EvalDomainError, ExprError, Fun, Mul, Pow, Rat, Sym, Ufunc, nodes,
)
from liesym.numeric import (
    DD_PREC, DOMAIN_ERRORS, _BACKENDS, _SPELLING, _dd_add, _dd_cosh_tanh, _dd_in,
    _dd_mul, _emit, _reduction, compile_residual, compile_terms, eval_numeric,
    sampled, sampled_residual,
)

_syms = [Sym(n) for n in ("x", "y", "t")]
_FUNS = ("tanh", "sech", "sinh", "cosh", "exp")
_RATS = [rat(v) for v in (-2, -1, 0, 1, 2, 3)] + [rat(1, 2), rat(5, 3), rat(-3, 4)]
_EXPONENTS = (-2, -1, 2, 3, rat(1, 2), rat(1, 3), rat(-3, 2))
_I = pow_(rat(-1), rat(1, 2))
# (requested precision, whether an i term is appended): the claim chooses
# the complex backend, so a case with i runs double complex at either precision
_ALL = [("double", False), ("double", True), ("dd", False), ("dd", True)]


def _mp_rp(b, p, q):
    """mpmath objects' rational power on the real branch."""
    if b == 0:
        if p > 0:
            return mpmath.mpf(0)
        raise EvalDomainError("zero to a non-positive power")
    if b < 0:
        if q % 2 == 0:
            raise EvalDomainError("even root of a negative value")
        return (-1 if p % 2 else 1) * mpmath.power(-b, mpmath.mpf(p) / q)
    return mpmath.power(b, mpmath.mpf(p) / q)


def _in_double_range(power):
    """power, raising OverflowError where a double power overflows."""
    def bounded(*args):
        v = power(*args)
        if abs(v) >= 2 ** 1024:
            raise OverflowError("power beyond the double range")
        return v
    return bounded


def _like_double(f, double):
    """f, raising OverflowError where the math function double does."""
    def bounded(v):
        x = float(v)
        if math.isinf(x):
            raise OverflowError("argument beyond the double range")
        double(x)
        return f(v)
    return bounded


# the dd reference computes on mpmath objects, independent of the kernel's
# libmp spelling; it rejects the points double rejects, as the kernel does
_MP = dict(tanh=mpmath.tanh, sech=lambda v: 1 / mpmath.cosh(v),
           sinh=_like_double(mpmath.sinh, math.sinh),
           cosh=_like_double(mpmath.cosh, math.cosh),
           exp=_like_double(mpmath.exp, math.exp),
           const=lambda c: mpmath.mpf(c.numerator) / c.denominator)
_REFERENCE = {"double": _BACKENDS["double"],
              "complex": _BACKENDS["complex"],
              "dd": dict(_MP, rp=_in_double_range(_mp_rp),
                         ipow=_in_double_range(operator.pow))}


def _mode(precision, terms):
    """The backend terms should compile to: complex when one holds an even
    root of a negative constant, such as i, else the requested precision."""
    if any(type(x) is Pow and type(x.base) is Rat and x.base.value < 0
           and x.exp.denominator % 2 == 0 for x in nodes(*terms)):
        return "complex"
    return precision


def _with_i(terms, with_i):
    return terms + [_I] if with_i else terms


def _reference(e, env, backend):
    """Operands in stored order, Add/Mul folded left, the backend's rp/funs."""
    t = type(e)
    if t is Sym:
        return env[e]
    if t is Rat:
        return backend["const"](e.value)
    if t is Fun:
        return backend[e.fn](_reference(e.arg, env, backend))
    if t is Pow:
        b, q = _reference(e.base, env, backend), e.exp
        if q.denominator == 1:
            return backend.get("ipow", operator.pow)(b, q.numerator)
        return backend["rp"](b, q.numerator, q.denominator)
    parts = [_reference(a, env, backend)
             for a in (e.factors if t is Mul else e.terms)]
    return reduce(operator.mul if t is Mul else operator.add, parts)


def _reference_terms(terms, env, precision):
    mode = _mode(precision, terms)
    backend = _REFERENCE[mode]
    if mode != "dd":
        return [_reference(e, env, backend) for e in terms]
    with mpmath.workprec(DD_PREC):
        env = {s: mpmath.mpmathify(v) for s, v in env.items()}
        return [_reference(e, env, backend) for e in terms]


def _bits(v):
    """Exact identity of a value; mpmath reprs round to the context."""
    return getattr(v, "_mpf_", repr(v))


def _built(make):
    def build(args):
        try:
            return make(*args)
        except ExprError:  # e.g. a constant zero to a negative power
            return None
    return build


def _combine(sub):
    # uniform operand counts: longer sums and products show the fold order
    operands = st.integers(2, 4).flatmap(lambda n: st.lists(sub, min_size=n, max_size=n))
    return st.one_of(
        operands.map(lambda xs: add(*xs)),
        operands.map(lambda xs: mul(*xs)),
        st.tuples(sub, st.sampled_from(_EXPONENTS)).map(_built(pow_))
        .filter(lambda e: e is not None),
        st.tuples(st.sampled_from(_FUNS), sub).map(lambda p: fun(*p)),
    )


_leaves = st.sampled_from(_syms) | st.sampled_from(_RATS)


def _point(with_i):
    # full-mantissa values, so a reordered product or sum would round apart
    part = st.just(0.0) | st.integers(-10**9, 10**9).map(lambda k: k / 5e8)
    if with_i:
        return st.builds(complex, part, part)
    return part


def _terms(data, leaves):
    # terms drawn from a small pool, so subtrees repeat within and across terms
    pool = data.draw(st.lists(_combine(leaves) | leaves, min_size=2, max_size=4,
                              unique=True))
    return data.draw(st.lists(_combine(st.sampled_from(pool)), min_size=1, max_size=4))


@pytest.mark.parametrize("precision, with_i", _ALL)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_claim_callable_matches_tree_evaluation(precision, with_i, data):
    terms = _with_i(_terms(data, _leaves), with_i)
    fn, syms = compile_terms(terms, precision)
    env = {s: data.draw(_point(with_i)) for s in syms}
    try:
        want = _reference_terms(terms, env, precision)
    except DOMAIN_ERRORS:
        with pytest.raises(DOMAIN_ERRORS):
            fn(*[env[s] for s in syms])
        return
    got = fn(*[env[s] for s in syms])
    assert [_bits(v) for v in got] == [_bits(v) for v in want]


@pytest.mark.parametrize("precision, with_i", _ALL)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_residual_matches_reduction_of_values(precision, with_i, data):
    # |sum t| / (1 + sum |t|) of the compiled values, reduced on mpmath
    # objects at 106 bits (floats ignore the precision)
    terms = _terms(data, _leaves)
    # a factor that puts sum |t| on either side of the 1e12 cut; it stays
    # outside every function, where mpmath would build a huge exponent
    terms[0] = mul(rat(data.draw(st.sampled_from([1, 7 * 10**11, -3 * 10**12]))),
                   terms[0])
    terms = _with_i(terms, with_i)
    fn, syms = compile_residual(terms, precision)
    values, value_syms = compile_terms(terms, precision)
    assert syms == value_syms
    point = [data.draw(_point(with_i)) for _ in syms]
    try:
        vals = values(*point)
    except DOMAIN_ERRORS:
        event("off the domain")
        with pytest.raises(DOMAIN_ERRORS):
            fn(*point)
        return
    with mpmath.workprec(DD_PREC):
        scale = _fold_sum(map(abs, vals))
        event(f"scale above 1e12: {scale > 1e12}")
        if scale > 1e12:
            with pytest.raises(EvalDomainError, match="residual terms too large"):
                fn(*point)
            return
        want = float(abs(_fold_sum(vals)) / (1 + scale))
    got = fn(*point)
    assert type(got) is float and repr(got) == repr(want)


def _fold_sum(values):
    """0 + v0 + v1 + ..., folded left: the sums of the compiled residual,
    where a float sum() would compensate on Python 3.12."""
    return reduce(operator.add, values, 0)


@pytest.mark.parametrize("with_i", [False, True])
def test_residual_sums_fold_left_from_zero(with_i):
    # 1e16 + 1.0 rounds to 1e16, so the left fold of 1e16, 1.0, -1e16 is
    # 0.0 where a compensated sum gives 1.0.  Scaled by 2^-30, which keeps
    # every rounding, the terms stay under the residual's 1e12 bound.
    assert _fold_sum([1e16, 1.0, -1e16]) == 0.0
    x, y = _syms[:2]
    terms = [x, y, mul(rat(-1), x)]
    if with_i:  # an i term that vanishes at the point: the complex backend
        terms.append(mul(_I, add(y, rat(-1, 2**30))))
    fn, _ = compile_residual(terms, "double")
    assert fn(1e16 * 2.0**-30, 2.0**-30) == 0.0


@pytest.mark.parametrize("precision, with_i", _ALL)
def test_residual_rejects_large_scale(precision, with_i):
    x = _syms[0]
    terms = [mul(rat(2**40), x), rat(-1)]
    if with_i:  # an i term that vanishes at x = 2^-40
        terms.append(mul(_I, add(x, rat(-1, 2**40))))
    fn, syms = compile_residual(terms, precision)
    with pytest.raises(EvalDomainError):
        fn(1.5)  # sum |t| is about 1.6e12
    assert fn(2.0**-40) == 0.0


def test_real_dd_residual_enters_no_precision_context(monkeypatch):
    def refuse(*args):
        raise AssertionError("precision context entered")

    x = _syms[0]
    terms = [fun("tanh", x), fun("sech", x), pow_(x, rat(1, 3)), rat(1, 3)]
    fn, _ = compile_residual(terms, "dd")
    monkeypatch.setattr(mpmath.ctx_mp.PrecisionManager, "__enter__", refuse)
    assert fn(0.7) > 0


def test_dd_on_a_claim_holding_i_runs_double_complex():
    # the claim chooses the backend: dd asked of a claim that holds i gives
    # the double complex value, where it once raised or hit no backend
    x = _syms[0]
    claim = add(x, mul(rat(1, 3), _I))
    got = eval_numeric(claim, {"x": 0.7}, "dd")
    assert type(got) is complex and repr(got) == repr(eval_numeric(claim, {"x": 0.7}))
    terms = [mul(x, _I), fun("tanh", x), rat(-1, 3)]
    dd, _ = compile_residual(terms, "dd")
    double, _ = compile_residual(terms, "double")
    assert repr(dd(0.7)) == repr(double(0.7)) and dd(0.7) > 0
    assert isinstance(eval_numeric(parse("x+1"), {"x": 1.0}, "dd"), mpmath.mpf)


@pytest.mark.parametrize("precision, with_i", [("double", False), ("dd", False),
                                              ("dd", True)])
def test_exact_zero_terms_leave_the_residual_unchanged(precision, with_i):
    # compile_residual drops terms that are exactly 0: adding one changes
    # no bit of the reduction on any backend
    x, y = _syms[:2]
    terms = _with_i([mul(rat(3), x, y), fun("tanh", x), rat(-1, 3)], with_i)
    want = sampled_residual(terms, {}, 25, 3, precision)
    assert want[1] == 25
    padded = [rat(0)] + [p for t in terms for p in (t, rat(0), rat(0))]
    assert sampled_residual(padded, {}, 25, 3, precision) == want
    assert sampled_residual([rat(0)] * 3, {}, 25, 3, precision) == (0.0, 25)


@pytest.mark.parametrize("other, message", [
    (jet("u", "x"), "expression contains jet variables"),
    (Ufunc("F", (_syms[0],)), "expression contains unbound unknown functions"),
])
def test_compile_refuses_jets_and_unknown_functions(other, message):
    # the symbol order comes from every term; a jet or an unknown function
    # in any term is refused, a jet first
    fn, syms = compile_terms([_syms[2], add(_syms[0], _syms[1])])
    assert syms == (Sym("t"), Sym("x"), Sym("y")) and fn(1, 2, 3) == (1, 5)
    with pytest.raises(EvalDomainError, match=message):
        compile_terms([_syms[0], mul(_syms[1], other)])
    with pytest.raises(EvalDomainError, match="jet variables"):
        compile_terms([Ufunc("F", (_syms[0],)), mul(other, jet("u", "y"))])


@pytest.mark.parametrize("precision, with_i", _ALL)
def test_singular_point_raises_in_both(precision, with_i):
    x = _syms[0]
    terms = _with_i([pow_(x, -1), mul(rat(2), x)], with_i)
    fn, syms = compile_terms(terms, precision)
    assert syms == (x,)
    with pytest.raises(DOMAIN_ERRORS):
        _reference_terms(terms, {x: 0.0}, precision)
    with pytest.raises(DOMAIN_ERRORS):
        fn(0.0)


@pytest.mark.parametrize("fn", ["exp", "sinh", "cosh"])
def test_dd_overflows_where_double_does(fn):
    # the first double past each math overflow threshold, on both sides
    x = _syms[0]
    dd, _ = compile_terms([fun(fn, x)], "dd")
    double, _ = compile_terms([fun(fn, x)], "double")
    for top in (709.782712893384, 710.4758600739439):
        for v in (top, math.nextafter(top, math.inf), -top,
                  math.nextafter(-top, -math.inf), 1e300, -1e300):
            try:
                double(v)
            except OverflowError:
                with pytest.raises(OverflowError):
                    dd(v)
            else:
                dd(v)


@pytest.mark.parametrize("precision", ["double", "dd"])
@pytest.mark.parametrize("text, fits", [
    ("x^1023", True), ("x^1024", False), ("x^(2047/2)", True), ("x^(2049/2)", False),
    ("(-x)^(3071/3)", True), ("(-x)^(3073/3)", False),
])
def test_powers_overflow_where_double_does(precision, text, fits):
    # at x = 2 the largest power a double holds is 2^1023.99...
    fn, _ = compile_terms([parse(text)], precision)
    if fits:
        assert math.isfinite(float(fn(2.0)[0]))
    else:
        with pytest.raises(OverflowError):
            fn(2.0)


def test_huge_dd_power_is_rejected_quickly():
    # x^100000 fits no double, so dd never takes the cosh of a value near
    # 2^100000 (~0.3 s a point when it did)
    fn, _ = compile_residual([parse("sech(x^100000)"), parse("1")], "dd")
    start = time.perf_counter()
    assert list(sampled(fn, 1, 5, 5, 0, (1.5, 2.5))) == []
    assert time.perf_counter() - start < 0.5


def test_huge_dd_arguments_are_rejected_quickly():
    # sinh(7e11) would be a value ~1e11 bits wide, and exp or tanh of it
    # would exhaust memory; under a 1 GiB address space both points must
    # be rejected like double rejects them
    pytest.importorskip("resource")
    code = (
        "import resource, sys, time\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({1 << 30}, {1 << 30}))\n"
        "from liesym import parse\n"
        "from liesym.numeric import compile_residual, sampled\n"
        "for text in sys.argv[1:]:\n"
        "    fn, _ = compile_residual([parse(text), parse('1')], 'dd')\n"
        "    start = time.perf_counter()\n"
        "    assert list(sampled(fn, 1, 5, 5, 0, (0.5, 1.5))) == []\n"
        "    print(time.perf_counter() - start)\n"
    )
    src = os.path.dirname(os.path.dirname(liesym.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, "exp(sinh(700000000000*x))",
         "tanh(sinh(700000000000*x))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    times = [float(t) for t in out.stdout.split()]
    assert len(times) == 2 and max(times) < 0.5


def test_dd_inputs_enter_exactly():
    v = eval_numeric(parse("1/x"), {"x": 3.0}, "dd")
    with mpmath.workprec(DD_PREC):
        assert v == mpmath.mpf(1) / 3
    assert isinstance(v, mpmath.mpf)


# -- the dd kernels against the libmp calls they stand for, as raw tuples

def _tuple(sign, man, exp):
    """The canonical 106-bit tuple of (-1)^sign * man * 2^exp, as every dd
    value is."""
    return libmp.from_man_exp(-man if sign else man, exp, DD_PREC, "n")


# any mantissa, all ones (a rounding that carries), or a power of two
_MANTISSAS = st.one_of(st.integers(1, 2**DD_PREC - 1),
                       st.integers(1, DD_PREC).map(lambda k: 2**k - 1),
                       st.integers(0, DD_PREC - 1).map(lambda k: 2**k))
# (m, d, q) with d * q = 2^m - 1 and q of at most 106 bits: the product
# rounds up to 2^m, a carry into a power of two
_CARRIES = [(m, d, (2**m - 1) // d) for m in range(107, 112) for d in range(3, 64, 2)
            if (2**m - 1) % d == 0 and ((2**m - 1) // d).bit_length() <= DD_PREC]


@st.composite
def _dd_pairs(draw):
    sign, exp = st.booleans(), st.integers(-300, 300)
    how = draw(st.sampled_from(["near", "far", "zero", "cancel", "carry", "tie"]))
    event(how)
    if how == "carry":
        m, d, q = draw(st.sampled_from(_CARRIES))
        return _tuple(draw(sign), d, draw(exp)), _tuple(draw(sign), q, draw(exp))
    if how == "tie":  # halfway between two neighbours: M*2^e +- 2^(e-1), or 3*q of 107 bits
        top = st.integers(2**(DD_PREC - 1), 2**DD_PREC - 1) | st.just(2**DD_PREC - 1)
        e = draw(exp)
        if draw(st.booleans()):
            return _tuple(draw(sign), draw(top), e), _tuple(draw(sign), 1, e - 1)
        q = draw(st.integers(2**DD_PREC // 3 + 1, 2**(DD_PREC + 1) // 3)) | 1
        return _tuple(draw(sign), 3, e), _tuple(draw(sign), q, draw(exp))
    a = _tuple(draw(sign), draw(_MANTISSAS), draw(exp))
    if how == "zero":
        return a, libmp.fzero
    if how == "cancel":  # -(a + k units in the last place of a), k = 0 exactly -a
        k = draw(st.integers(-3, 3))
        return a, libmp.mpf_neg(libmp.mpf_add(a, _tuple(k < 0, abs(k), a[2]), DD_PREC, "n"))
    if how == "near":
        gap = draw(st.integers(-100, 100))
    else:  # libmp's perturbation branch
        gap = draw(st.integers(101, 260)) * draw(st.sampled_from([-1, 1]))
    return a, _tuple(draw(sign), draw(_MANTISSAS), a[2] + gap)


@settings(max_examples=400, deadline=None)
@given(pair=_dd_pairs(), swap=st.booleans())
def test_dd_kernel_mul_add_square(pair, swap):
    a, b = pair[::-1] if swap else pair
    assert _dd_mul(a, b) == libmp.mpf_mul(a, b, DD_PREC, "n")
    assert _dd_add(a, b) == libmp.mpf_add(a, b, DD_PREC, "n")
    # square(b) is mul(b, b), and b^-1 is 1/b
    assert _dd_mul(b, b) == libmp.mpf_pow_int(b, 2, DD_PREC, "n")
    if b[1]:
        assert (libmp.mpf_rdiv_int(1, b, DD_PREC, "n")
                == libmp.mpf_pow_int(b, -1, DD_PREC, "n"))


@settings(max_examples=300, deadline=None)
@given(sign=st.booleans(), man=_MANTISSAS, mag=st.integers(-130, 40))
# arguments whose bits change without the ln 2 reduction at mag 2, without
# the extra precision at mag -5, or with it at mag -4 (most agree either way)
@example(sign=True, man=52006009123460467015743503217499, mag=2)
@example(sign=False, man=73053729240170333461641140570363, mag=-5)
@example(sign=True, man=55488916623512096184416603430679, mag=-4)
def test_dd_kernel_cosh_tanh(sign, man, mag):
    # the kernel takes -120 <= mag <= 10, with extra precision below -4;
    # libmp its own branches beyond
    event("mag < -120" if mag < -120 else "mag > 10" if mag > 10
          else "-120 <= mag < -4" if mag < -4 else "-4 <= mag <= 10")
    x = _tuple(sign, man, mag - man.bit_length())
    assert _dd_cosh_tanh(x) == (libmp.mpf_cosh(x, DD_PREC, "n"), libmp.mpf_tanh(x, DD_PREC, "n"))


@settings(max_examples=300, deadline=None)
@given(v=st.floats())
def test_dd_kernel_float_input(v):
    assert _dd_in(v) == libmp.from_float(v)


@pytest.mark.parametrize("x", [libmp.fzero, libmp.finf, libmp.fninf, libmp.fnan])
def test_dd_kernels_hand_zero_and_specials_to_libmp(x):
    for y in (libmp.fzero, libmp.fone, libmp.finf, libmp.fninf, libmp.fnan):
        assert _dd_mul(x, y) == libmp.mpf_mul(x, y, DD_PREC, "n")
        assert _dd_add(x, y) == libmp.mpf_add(x, y, DD_PREC, "n") == _dd_add(y, x)
    assert _dd_cosh_tanh(x) == (libmp.mpf_cosh(x, DD_PREC, "n"), libmp.mpf_tanh(x, DD_PREC, "n"))


def _source(terms, mode):
    """The body _compile writes for terms in mode, with the residual tail."""
    syms = sorted({x for x in nodes(*terms) if type(x) is Sym}, key=lambda s: s.name)
    names = {s: f"v{i}" for i, s in enumerate(syms)}
    lines, consts, results = _emit(terms, names, _BACKENDS[mode], _SPELLING[mode])
    return "\n".join(lines + _reduction(results, mode == "dd")), consts


def test_dd_source_has_one_cosh_tanh_per_argument():
    x, y = _syms[:2]
    terms = [mul(pow_(fun("sech", x), 2), fun("tanh", x)), pow_(fun("tanh", x), 3),
             fun("sech", mul(rat(2), x)), fun("tanh", mul(x, y)), fun("sech", mul(x, y))]
    src, _ = _source(terms, "dd")
    assert src.count("cosh_tanh(") == 3
    assert "mpf_cosh" not in src and "mpf_tanh" not in src
    # and the values are the bits of mpmath's own objects
    fn, _ = compile_terms(terms, "dd")
    env = {x: 0.7, y: -1.3}
    want = _reference_terms(terms, env, "dd")
    assert [_bits(v) for v in fn(0.7, -1.3)] == [_bits(v) for v in want]


# the residual of the shipped u3-kink claim as double and double complex
# code: the lines the dd kernels left as they were
_U3_KINK = """\
t0 = C[0]
t1 = v0**(5)
t2 = v0*v3
t3 = v1*v5
t4 = C[1]
t5 = v0**(2)
t6 = t4*t5*v1*v4
t7 = v2+t2+t3+t6
t8 = sech(t7)
t9 = t8**(2)
t10 = tanh(t7)
t11 = t10**(2)
t12 = t0*t1*v1*t9*t11
t13 = C[2]
t14 = t8**(4)
t15 = t13*t1*v1*t14
t16 = t12+t15
t17 = C[3]
t18 = t10**(4)
t19 = t17*t1*v1*t9*t18
t20 = C[4]
t21 = t20*t1*v1*t14*t11
t22 = t8**(6)
t23 = t17*t1*v1*t22
t24 = t19+t21+t23
t25 = C[5]
t26 = C[6]
t27 = v0**(3)
t28 = t26*t27*v1*t9*t11
t29 = C[7]
t30 = t29*t27*v1*t14
t31 = t28+t30
t32 = t25*t5*t9*t31
t33 = C[8]
t34 = t33*t1*v1*t14
t35 = C[9]
t36 = v0**(4)
t37 = t26*t36*t9*t11
t38 = t29*t36*t14
t39 = t37+t38
t40 = t35*v0*v1*t9*t39
t41 = C[10]
t42 = t41*t1*v1*t22
scale = 0+abs(t16)+abs(t24)+abs(t32)+abs(t34)+abs(t40)+abs(t42)
if scale > 1e12: raise EvalDomainError('residual terms too large at sample')
return float(abs(0+t16+t24+t32+t34+t40+t42)/(1+scale))"""


@pytest.mark.parametrize("mode", ["double", "complex"])
def test_u3_kink_double_and_complex_sources_are_pinned(pde, mode):
    from liesym import catalog
    from liesym.verify import substituted_terms
    rec = next(r for r in catalog.load_catalog() if r.name == "u3-kink")
    claim = parse(rec.get("claim"), catalog.solution_context())
    terms = [t for t in substituted_terms(pde.delta, claim, pde.vars, pde.dep) if t != ZERO]
    src, consts = _source(terms, mode)
    assert src == _U3_KINK
    want = [-16, -4, 8, 16, -88, 20, 4, -2, -24, 10, 60]
    assert [(type(c), c) for c in consts] == [(type(c), c) for c in map(_BACKENDS[mode]["const"], want)]


class TestSampled:
    BOX = (0.5, 1.5)

    def test_stops_at_points_or_budget(self):
        calls = []

        def fn(*draw):
            calls.append(draw)
            return draw

        assert len(list(sampled(fn, 2, 5, 100, 0, self.BOX))) == 5
        assert len(calls) == 5
        calls.clear()
        assert len(list(sampled(fn, 2, 50, 7, 0, self.BOX))) == 7
        assert len(calls) == 7
        assert all(len(d) == 2 for d in calls)

    def test_values_are_signed_magnitudes_in_the_box(self):
        vals = [v for d in sampled(lambda *d: d, 3, 50, 50, 1, self.BOX) for v in d]
        assert all(0.5 <= abs(v) <= 1.5 for v in vals)
        assert min(vals) < 0 < max(vals)

    def test_rejected_draw_uses_budget(self):
        full = list(sampled(lambda v: v, 1, 9, 9, 0, self.BOX))
        calls = []

        def every_other(v):
            calls.append(v)
            if len(calls) % 2:
                raise EvalDomainError("rejected")
            return v

        out = list(sampled(every_other, 1, 10, 9, 0, self.BOX))
        # nine draws are spent, and a rejection does not shift the stream
        assert calls == full and out == full[1::2]

    def test_same_seed_same_stream(self):
        def stream(seed):
            return list(sampled(lambda *d: d, 3, 20, 20, seed, self.BOX))

        assert stream(5) == stream(5)
        assert stream(5) != stream(6)

    @pytest.mark.parametrize("exc", DOMAIN_ERRORS)
    def test_always_raising_yields_nothing(self, exc):
        calls = []

        def fn(*draw):
            calls.append(draw)
            raise exc("no value here")

        assert list(sampled(fn, 2, 5, 12, 0, self.BOX)) == []
        assert len(calls) == 12

    def test_other_errors_propagate(self):
        def fn(*draw):
            raise KeyError("not a domain error")

        with pytest.raises(KeyError):
            next(sampled(fn, 1, 5, 10, 0, self.BOX))
