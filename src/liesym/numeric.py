"""Numeric evaluation and seeded sampling.

`compile_terms` turns a list of expressions, such as the terms of one
residual claim, into one generated Python function that returns all of
their values as a tuple.  The function is straight-line code with one
local per distinct subtree, so a `tanh(xi)` or a product shared between
terms is computed once per point.  `compile_residual` appends the
per-point residual reduction to the same code.  `eval_numeric` compiles
its one term per call; callers that evaluate many points compile once
themselves and draw the points from `sampled`, the one seeded sampler.

Backends: double, dd (106 bits, the double-double significand budget)
and double complex.  The caller asks for double or dd, and the claim
chooses complex: terms that hold an even root of a negative constant, as
`i = (-1)^(1/2)` enters a claim, run in double complex at either
precision, since their verdict is the exact normal form.  Real dd code
computes on raw `_mpf_` tuples at 106 bits rounding to nearest, with no
object or precision context per operation, and returns the tuples of the
`mpmath.libmp` calls that mpf operators and functions make (mpmath 1.3.0,
whose rounding the dd pins in the tests hold).  Products, sums, squares
and float inputs run in kernels for this one precision, and sech and tanh
of one argument share one pass of `mpf_cosh_sinh`; each kernel passes
its edge cases to libmp, and the rest is libmp's own calls.  Its inputs
enter exactly in the prologue, so no term is left computing in double, and
`compile_terms` wraps each result as an mpf once.  Its `exp`, `sinh`
and `cosh` raise OverflowError where `math`'s do, and its integer and
rational powers where a double power overflows, so dd rejects the
points double rejects instead of building a value of unbounded size.
Evaluation order follows the stored tree (Add/Mul fold left), so results
are deterministic for a fixed backend and do not depend on how terms
share subtrees.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import reduce

import mpmath
from mpmath import libmp
from mpmath.libmp import (
    from_float, from_int, fzero, mpf_div, mpf_mul_int, mpf_neg, mpf_pow, to_float,
)

from .expr import (
    ZERO, Add, EvalDomainError, Expr, ExprError, Fun, Jet, Mul, Pow, Rat, Sym,
    Ufunc, fold, nodes,
)

DD_PREC = 106
_PR = f"{DD_PREC},'n'"  # precision and rounding of every real dd libmp call


def _rp_real(b, p, q):
    """Real-branch rational power b**(p/q)."""
    if b == 0:
        if p > 0:
            return 0.0
        raise EvalDomainError("zero to a non-positive power")
    if b < 0:
        if q % 2 == 0:
            raise EvalDomainError("even root of a negative value")
        s = -1.0 if p % 2 else 1.0
        return s * (-b) ** (p / q)
    return b ** (p / q)


def _rp_complex(b, p, q):
    if b == 0:
        if p > 0:
            return 0j
        raise EvalDomainError("zero to a non-positive power")
    return b ** (p / q)


def _dd_fits(v):
    """v, or OverflowError where a double power overflows: the libmp tuple
    (sign, man, exp, bc) is at least 2**(exp + bc - 1) in magnitude."""
    if v[2] + v[3] > 1024:
        raise OverflowError("power beyond the double range")
    return v


def _dd_rp(b, p, q):
    """Real-branch b**(p/q) on libmp tuples, as the mpf operators compute
    `s * mpmath.power(-b, mpf(p)/q)`."""
    if b == fzero:
        if p > 0:
            return fzero
        raise EvalDomainError("zero to a non-positive power")
    y = mpf_div(from_int(p), from_int(q), DD_PREC, "n")
    if b[0]:  # sign bit: b < 0
        if q % 2 == 0:
            raise EvalDomainError("even root of a negative value")
        v = mpf_pow(mpf_neg(b, DD_PREC, "n"), y, DD_PREC, "n")
        return _dd_fits(mpf_mul_int(v, -1 if p % 2 else 1, DD_PREC, "n"))
    return _dd_fits(mpf_pow(b, y, DD_PREC, "n"))


def _sech(v):
    try:
        return 1.0 / math.cosh(v)
    except OverflowError:
        return 0.0  # sech underflows long before cosh loses meaning


def _csech(v):
    try:
        return 1.0 / cmath.cosh(v)
    except OverflowError:
        return 0.0


def _dd_bounded(f, double):
    """The libmp function f, raising OverflowError where the math function
    double does, so dd rejects the points double rejects."""
    def bounded(x, prec, rnd):
        double(to_float(x, True, "n"))  # strict: beyond the double range too
        return f(x, prec, rnd)
    return bounded


def _dd_const(c):
    """A rational as `mpf(numerator) / denominator` gives it at 106 bits."""
    return mpf_div(from_int(c.numerator, DD_PREC, "n"), from_int(c.denominator),
                   DD_PREC, "n")


def _dd_round(sign, man, exp):
    """normalize(sign, man, exp, bc, 106, 'n') for man >= 0: round half to
    even, then strip trailing zeros (a carry to 2**106 leaves 1)."""
    if not man:
        return fzero
    n = man.bit_length() - DD_PREC
    if n > 0:  # up if the first dropped bit is set, and a later one or the last kept
        r = man >> (n - 1)
        man = (r >> 1) + (r & 1 and (r & 2 or man & ((1 << (n - 1)) - 1)) > 0)
        exp += n
    z = (man & -man).bit_length() - 1
    man >>= z
    return sign, man, exp + z, man.bit_length()


def _dd_mul(s, t):
    """mpf_mul(s, t, 106, 'n'), which mpf_pow_int(s, 2, 106, 'n') equals at
    s = t; _dd_round inlined in the hottest kernel (odd mantissas make an
    odd product, so only a rounded one can end in zeros)."""
    man = s[1] * t[1]
    if not man:
        return libmp.mpf_mul(s, t, DD_PREC, "n")
    exp = s[2] + t[2]
    n = man.bit_length() - DD_PREC
    if n > 0:
        r = man >> (n - 1)
        man = (r >> 1) + (r & 1 and (r & 2 or man & ((1 << (n - 1)) - 1)) > 0)
        z = (man & -man).bit_length() - 1
        man >>= z
        exp += n + z
    return s[0] ^ t[0], man, exp, man.bit_length()


def _dd_add(s, t):
    """mpf_add(s, t, 106, 'n'), which is symmetric; libmp takes zeros,
    specials and exponents more than 100 apart (its perturbation branch)."""
    if s[2] < t[2]:
        s, t = t, s
    ssign, sman, sexp, _ = s
    tsign, tman, texp, _ = t
    if not (sman and tman) or sexp - texp > 100:
        return libmp.mpf_add(s, t, DD_PREC, "n")
    sman <<= sexp - texp
    man = sman + tman if ssign == tsign else sman - tman
    return _dd_round(ssign, man, texp) if man >= 0 else _dd_round(tsign, -man, texp)


def _dd_cosh_tanh(x):
    """(mpf_cosh(x, 106, 'n'), mpf_tanh(x, 106, 'n')) from one pass of the
    main path of mpf_cosh_sinh, which both run at the same working precision;
    libmp takes the other paths (zero, specials, mag < -120 and mag > 10)."""
    sign, man, exp, bc = x
    mag = exp + bc
    if not man or mag < -DD_PREC - 14 or mag > 10:
        return libmp.mpf_cosh(x, DD_PREC, "n"), libmp.mpf_tanh(x, DD_PREC, "n")
    wp, n = DD_PREC + 14 - (mag if mag < -4 else 0), 0  # near 0, more bits for sinh
    k = mag if mag > 1 else 0  # |x| >= 2 reduces modulo ln 2 at k more bits
    offset = exp + wp + k
    t = man << offset if offset >= 0 else man >> -offset
    if k:
        n, t = divmod(t, libmp.ln2_fixed(wp + k))
        t >>= k
    a, b = libmp.libelefun.exp_expneg_basecase(t, wp)
    cosh, sinh = a + (b >> (2 * n)), a - (b >> (2 * n))
    tanh = ((-sinh if sign else sinh) << wp) // cosh
    return (libmp.from_man_exp(cosh, n - wp - 1, DD_PREC, "n"),
            libmp.from_man_exp(tanh, -wp, DD_PREC, "n"))


def _dd_in(v):
    """An input as a libmp tuple, converted exactly as mpmathify converts it."""
    if type(v) is float and math.isfinite(v):  # what from_float builds, in one step
        man, d = v.as_integer_ratio()  # d is a power of two
        return _dd_round(int(man < 0), abs(man), 1 - d.bit_length())
    with mpmath.workprec(DD_PREC):
        x = mpmath.mpmathify(v)
    if not hasattr(x, "_mpf_"):
        raise TypeError(f"dd input {v!r} is not real")
    return x._mpf_


# the names generated code runs with
_BACKENDS = {
    "double": dict(
        tanh=math.tanh, sech=_sech, sinh=math.sinh, cosh=math.cosh,
        exp=math.exp, rp=_rp_real, const=float,
    ),
    "complex": dict(
        tanh=cmath.tanh, sech=_csech, sinh=cmath.sinh, cosh=cmath.cosh,
        exp=cmath.exp, rp=_rp_complex, const=complex,
    ),
    "dd": dict(  # libmp's own names: mpf_add, fzero, to_float, ...
        vars(libmp), rp=_dd_rp, fits=_dd_fits, const=_dd_const, dd_in=_dd_in,
        mul=_dd_mul, add=_dd_add, cosh_tanh=_dd_cosh_tanh,
        exp=_dd_bounded(libmp.mpf_exp, math.exp),
        sinh=_dd_bounded(libmp.mpf_sinh, math.sinh),
        cosh=_dd_bounded(libmp.mpf_cosh, math.cosh),
        mpf=mpmath.mp.make_mpf, BIG=from_float(1e12),
    ),
}

# how each node is written: {x} {y} operands of a left fold, {a} a function
# argument, {b} {n} an integer power; a function or power n without its own
# entry is `fun` or `ipow`.  With `hyp`, sech and tanh read the hyp of {a}
_OBJECTS = dict(add="{x}+{y}", mul="{x}*{y}", fun="{fn}({a})", ipow="{b}**({n})")
_SPELLING = {
    "double": _OBJECTS,
    "complex": _OBJECTS,
    "dd": {
        "add": "add({x},{y})", "mul": "mul({x},{y})", "fun": f"{{fn}}({{a}},{_PR})",
        "hyp": "cosh_tanh({a})", "sech": f"mpf_rdiv_int(1,{{a}}[0],{_PR})",
        "tanh": "{a}[1]", "ipow": f"fits(mpf_pow_int({{b}},{{n}},{_PR}))",
        "ipow2": "fits(mul({b},{b}))", "ipow-1": f"fits(mpf_rdiv_int(1,{{b}},{_PR}))",
    },
}

# what a compiled function raises at a point outside its domain
DOMAIN_ERRORS = (EvalDomainError, ZeroDivisionError, OverflowError, ValueError)


def _emit(terms, names: dict, backend: dict, spell: dict):
    """Straight-line code for terms, one assignment per distinct subtree.

    Returns (lines, consts, results): the `tN = ...` (and `hN = ...`)
    lines in evaluation order, the constants `C[k]` refers to, and the local
    holding each term.  Operands are computed in the order the stored
    tree lists them and Add/Mul fold left, so every value equals what a
    nested expression of the same tree gives.
    """
    lines, consts, hyp = [], [], {}  # hyp: argument local -> its spell["hyp"] local

    def local(e: Expr, kids) -> str:
        got = names.get(e)
        if got is not None:
            return got
        t = type(e)
        if t is Rat:
            consts.append(backend["const"](e.value))
            rhs = f"C[{len(consts) - 1}]"
        elif t is Fun:
            a = kids[0]
            if e.fn in ("sech", "tanh") and "hyp" in spell:
                if a not in hyp:
                    hyp[a] = f"h{len(lines)}"
                    lines.append(f"{hyp[a]} = {spell['hyp'].format(a=a)}")
                a = hyp[a]
            rhs = spell.get(e.fn, spell["fun"]).format(fn=e.fn, a=a)
        elif t is Pow:
            b, q = kids[0], e.exp
            if q.denominator == 1:
                n = q.numerator
                rhs = spell.get(f"ipow{n}", spell["ipow"]).format(b=b, n=n)
            else:
                rhs = f"rp({b},{q.numerator},{q.denominator})"
        elif t is Mul or t is Add:
            op = spell["mul" if t is Mul else "add"]
            rhs = reduce(lambda x, y: op.format(x=x, y=y), kids)
        else:
            raise ExprError(f"cannot compile {e!r}")
        got = f"t{len(lines)}"
        lines.append(f"{got} = {rhs}")
        return got

    return lines, consts, fold(terms, local)


def _imaginary(x: Expr) -> bool:
    """x is an even root of a negative constant, such as i = (-1)^(1/2)."""
    return (type(x) is Pow and type(x.base) is Rat and x.base.value < 0
            and x.exp.denominator % 2 == 0)


def is_complex(*terms) -> bool:
    """Whether terms hold an even root of a negative constant, and so
    compile to the double complex backend."""
    return any(map(_imaginary, nodes(*terms)))


def _compile(terms, precision, tail):
    """One function of the terms' symbols: their straight-line code, then
    the lines tail(result locals, real dd?) returns.  The backend is the
    requested precision, or double complex when a term holds an even root
    of a negative constant."""
    kinds, syms, mode = set(), set(), precision
    for x in nodes(*terms):
        kinds.add(type(x))
        if type(x) is Sym:
            syms.add(x)
        elif _imaginary(x):
            mode = "complex"
    if Jet in kinds:
        raise EvalDomainError("expression contains jet variables")
    if Ufunc in kinds:
        raise EvalDomainError("expression contains unbound unknown functions")
    backend = _BACKENDS[mode]
    syms = sorted(syms, key=lambda s: s.name)
    names = {s: f"v{i}" for i, s in enumerate(syms)}
    lines, consts, results = _emit(terms, names, backend, _SPELLING[mode])
    raw = mode == "dd"
    # inputs enter exactly, so no term is left computing in double
    body = ([f"{v} = dd_in({v})" for v in names.values() if raw]
            + lines + tail(results, raw))
    src = (f"def _f({', '.join(names.values())}):\n"
           + "".join(f"    {ln}\n" for ln in body))
    ns = dict(backend, C=consts, EvalDomainError=EvalDomainError)
    exec(src, ns)
    return ns.pop("_f"), tuple(syms)  # popped: ns holding _f would be a cycle


def _values(results, raw):
    wrap = "mpf({})" if raw else "{}"
    return [f"return ({''.join(wrap.format(r) + ', ' for r in results)})"]


def _reduction(results, raw):
    """|sum t| / (1 + sum |t|) as a float, each sum 0 + t0 + ... folded left
    (sum() compensates on Python 3.12); a scale above 1e12 rejects the point."""
    if raw:
        def total(rs):  # every dd value has 106 bits, so 0 + t0 and |t| are exact
            return reduce(lambda x, y: f"add({x},{y})", rs) if rs else "fzero"
        scale = total([f"mpf_abs({r})" for r in results])
        big = "mpf_gt(scale,BIG)"
        rel = (f"to_float(mpf_div(mpf_abs({total(results)}),"
               f"add(scale,fone),{_PR}),rnd='n')")
    else:
        scale = "0" + "".join(f"+abs({r})" for r in results)
        big = "scale > 1e12"
        rel = f"float(abs(0{''.join(f'+{r}' for r in results)})/(1+scale))"
    return [f"scale = {scale}",
            f"if {big}: raise EvalDomainError('residual terms too large at sample')",
            f"return {rel}"]


def compile_terms(terms, precision: str = "double"):
    """Compile terms into one function; return (fn, symbol order).

    fn takes one positional value per symbol and returns the tuple of term
    values.  A subtree shared between or within terms is computed once.
    """
    return _compile(terms, precision, _values)


def compile_residual(terms, precision: str = "double"):
    """Compile the relative residual of terms; return (fn, symbol order).

    fn takes one positional value per symbol and returns the float
    |sum t| / (1 + sum |t|), reduced at the backend's precision; it
    raises EvalDomainError when sum |t| exceeds 1e12.  Terms that are
    exactly 0 add nothing on any backend and are dropped before compiling.
    """
    return _compile([t for t in terms if t != ZERO], precision, _reduction)


def eval_numeric(e: Expr, env: dict, precision: str = "double"):
    """Evaluate at a point; env maps symbols (or their names) to numbers."""
    fn, syms = compile_terms((e,), precision)
    vals = []
    for s in syms:
        if s in env:
            vals.append(env[s])
        elif s.name in env:
            vals.append(env[s.name])
        else:
            raise EvalDomainError(f"unbound symbol {s.name!r}")
    try:
        return fn(*vals)[0]
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise EvalDomainError(str(exc)) from None


def sampled(fn, nfree: int, points: int, budget: int, seed: int, box):
    """Yield fn(*draw) for seeded draws of nfree values each.

    Every value is uniform in the magnitude range box with a random sign.
    A draw is rejected exactly when fn raises one of DOMAIN_ERRORS, and a
    rejected draw still uses up budget; any other exception propagates.
    Stops after points accepted draws or budget draws, whichever comes first.
    """
    rng = random.Random(seed)
    for _ in range(budget):
        if points == 0:
            return
        draw = [rng.uniform(*box) * rng.choice((1.0, -1.0)) for _ in range(nfree)]
        try:
            out = fn(*draw)
        except DOMAIN_ERRORS:
            continue
        points -= 1
        yield out


def sampled_residual(terms, params, points, seed, precision, box=(0.5, 2.5)):
    """(max, count) of |sum terms| / (1 + sum |terms|) over the points that
    `sampled` draws for the symbols params does not bind by name."""
    fn, syms = compile_residual(terms, precision)
    args = [params.get(s.name) for s in syms]
    free = [k for k, s in enumerate(syms) if s.name not in params]

    def rel(*draw):
        for k, v in zip(free, draw):
            args[k] = v
        return fn(*args)

    rels = list(sampled(rel, len(free), points, points * 20, seed, box))
    if not rels:
        raise EvalDomainError("all residual sample points hit singularities")
    return max([0.0] + rels), len(rels)
