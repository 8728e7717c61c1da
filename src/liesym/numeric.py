"""Numeric evaluation, seeded sampling, and randomized equivalence.

`compile_terms` turns a list of expressions, such as the terms of one
residual claim, into one generated Python function that returns all of
their values as a tuple.  The function is straight-line code with one
local per distinct subtree, so a `tanh(xi)` or a product shared between
terms is computed once per point.  `eval_numeric` compiles its one term
per call; callers that evaluate many points compile once themselves and
draw the points from `sampled`, the one seeded sampler.

Backends: double (float/complex) and dd (mpmath real/complex at a fixed
106-bit precision, the double-double significand budget).  A dd function
converts its inputs to mpmath numbers exactly in its prologue and runs
under that precision, so no term is left computing in double.
Evaluation order follows the stored tree (Add/Mul fold left), so results
are deterministic for a fixed backend and do not depend on how terms
share subtrees.
"""

from __future__ import annotations

import cmath
import math
import random

import mpmath

from .expr import (
    Add, EvalDomainError, Expr, ExprError, Fun, Mul, Pow, Rat, free_jets,
    free_symbols, ufunc_names,
)

DD_PREC = 106


class SamplingError(ExprError):
    pass


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


def _mp_rp_real(b, p, q):
    if b == 0:
        if p > 0:
            return mpmath.mpf(0)
        raise EvalDomainError("zero to a non-positive power")
    if b < 0:
        if q % 2 == 0:
            raise EvalDomainError("even root of a negative value")
        s = -1 if p % 2 else 1
        return s * mpmath.power(-b, mpmath.mpf(p) / q)
    return mpmath.power(b, mpmath.mpf(p) / q)


def _mp_rp_complex(b, p, q):
    if b == 0:
        if p > 0:
            return mpmath.mpc(0)
        raise EvalDomainError("zero to a non-positive power")
    return mpmath.power(b, mpmath.mpf(p) / q)


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


def _mp_sech(v):
    return 1 / mpmath.cosh(v)


# the dd backends differ only in the branch of rational powers
_DD = dict(tanh=mpmath.tanh, sech=_mp_sech, sinh=mpmath.sinh, cosh=mpmath.cosh,
           exp=mpmath.exp, const=lambda c: mpmath.mpf(c.numerator) / c.denominator)

_BACKENDS = {
    ("double", False): dict(
        tanh=math.tanh, sech=_sech, sinh=math.sinh, cosh=math.cosh,
        exp=math.exp, rp=_rp_real, const=float,
    ),
    ("double", True): dict(
        tanh=cmath.tanh, sech=_csech, sinh=cmath.sinh, cosh=cmath.cosh,
        exp=cmath.exp, rp=_rp_complex, const=complex,
    ),
    ("dd", False): dict(_DD, rp=_mp_rp_real),
    ("dd", True): dict(_DD, rp=_mp_rp_complex),
}

# what a compiled function raises at a point outside its domain
DOMAIN_ERRORS = (EvalDomainError, ZeroDivisionError, OverflowError, ValueError)


def _emit(terms, names: dict, backend: dict):
    """Straight-line code for terms, one assignment per distinct subtree.

    Returns (lines, consts, results): the `tN = ...` lines in evaluation
    order, the backend constants that `C[k]` refers to, and the local
    holding each term.  Operands are computed in the order the stored
    tree lists them and Add/Mul fold left, so every value equals what a
    nested expression of the same tree gives.
    """
    memo = dict(names)
    lines: list = []
    consts: list = []

    def local(e: Expr) -> str:
        got = memo.get(e)
        if got is not None:
            return got
        t = type(e)
        if t is Rat:
            consts.append(backend["const"](e.value))
            rhs = f"C[{len(consts) - 1}]"
        elif t is Fun:
            rhs = f"{e.fn}({local(e.arg)})"
        elif t is Pow:
            b, q = local(e.base), e.exp
            if q.denominator == 1:
                rhs = f"{b}**({q.numerator})"
            else:
                rhs = f"rp({b},{q.numerator},{q.denominator})"
        elif t is Mul:
            rhs = "*".join(local(f) for f in e.factors)
        elif t is Add:
            rhs = "+".join(local(x) for x in e.terms)
        else:
            raise ExprError(f"cannot compile {e!r}")
        got = memo[e] = f"t{len(lines)}"
        lines.append(f"{got} = {rhs}")
        return got

    return lines, consts, [local(e) for e in terms]


def compile_terms(terms, precision: str = "double", complex_mode: bool = False):
    """Compile terms into one function; return (fn, symbol order).

    fn takes one positional value per symbol and returns the tuple of term
    values.  A subtree shared between or within terms is computed once.
    """
    for e in terms:
        if free_jets(e):
            raise EvalDomainError("expression contains jet variables")
        if ufunc_names(e):
            raise EvalDomainError("expression contains unbound unknown functions")
    backend = _BACKENDS[(precision, complex_mode)]
    syms = sorted(set().union(*map(free_symbols, terms)), key=lambda s: s.name)
    names = {s: f"v{i}" for i, s in enumerate(syms)}
    with mpmath.workprec(DD_PREC):  # dd constants; double ones ignore it
        lines, consts, results = _emit(terms, names, backend)
    body = lines + [f"return ({''.join(r + ', ' for r in results)})"]
    if precision == "dd":
        # inputs enter exactly, so no term is left computing in double
        body = [f"{v} = mpmathify({v})" for v in names.values()] + body
        body = ["with workprec(DD_PREC):"] + ["    " + ln for ln in body]
    src = (f"def _f({', '.join(names.values())}):\n"
           + "".join(f"    {ln}\n" for ln in body))
    ns = dict(backend, C=consts, mpmathify=mpmath.mpmathify,
              workprec=mpmath.workprec, DD_PREC=DD_PREC)
    exec(src, ns)
    return ns["_f"], tuple(syms)


def eval_numeric(e: Expr, env: dict, precision: str = "double",
                 complex_mode: bool = False):
    """Evaluate at a point; env maps symbols (or their names) to numbers."""
    fn, syms = compile_terms((e,), precision, complex_mode)
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


def sampled(fn, nfree: int, points: int, budget: int, seed: int, box,
            reject=DOMAIN_ERRORS):
    """Yield fn(*draw) for seeded draws of nfree values each.

    Every value is uniform in the magnitude range box with a random sign.
    A draw is rejected exactly when fn raises one of reject, and a rejected
    draw still uses up budget; any other exception propagates.  Stops after
    points accepted draws or budget draws, whichever comes first.
    """
    rng = random.Random(seed)
    for _ in range(budget):
        if points == 0:
            return
        draw = [rng.uniform(*box) * rng.choice((1.0, -1.0)) for _ in range(nfree)]
        try:
            out = fn(*draw)
        except reject:
            continue
        points -= 1
        yield out


def random_equiv(e1: Expr, e2: Expr, trials: int = 64, tol: float = 1e-9,
                 seed: int = 0, box=(0.0, 2.0)) -> bool:
    """Numeric equivalence at seeded sample points.

    box is the magnitude range of every coordinate; signs are random.
    True iff |e1-e2| <= tol*(1+max(|e1|,|e2|)) at every point that
    evaluates cleanly; raises SamplingError when every point hits a
    singularity.
    """
    try:
        fn, syms = compile_terms((e1, e2))
    except EvalDomainError as exc:  # no point can evaluate
        raise SamplingError(str(exc)) from None

    def close(*draw):
        v1, v2 = fn(*draw)
        if abs(v1) > 1e12 or abs(v2) > 1e12:
            raise EvalDomainError("value too large at sample")
        return not abs(v1 - v2) > tol * (1 + max(abs(v1), abs(v2)))  # nan passes

    good = 0
    for ok in sampled(close, len(syms), trials, trials * 4, seed, box):
        if not ok:
            return False
        good += 1
    if good == 0:
        raise SamplingError("all sampled points hit singularities")
    return True
