"""Immutable symbolic expression trees with exact rational coefficients.

A rational is an `int` when integral, else a `Fraction` (`_q`), in
`Rat.value`, `Pow.exp` and all computed from them: integers cost no gcd
per operation, and compare and hash equal to Fractions of equal value.

Node types: rational constants, symbols, jet variables (derivative
coordinates of a dependent variable), unknown-function applications with
formal slot derivatives, a fixed set of elementary functions, rational
powers, and flattened sums/products.  A symbol is its name and nothing
more: `Sym("k")` is the same value wherever it was built, so every memo
keyed on expressions is a pure function of its key.  Trees never mutate
after construction.  The smart constructors do the cheap canonical work
(flattening, like-term merging, a fixed total order on node shapes);
anything that expands goes through normal.normalize.

Each node stores its hash `_h` and its structural key `_k` (`skey`),
both built from its children's when the node is constructed, so equality
and the total order need neither a memo nor a walk.  `children` is the
one place that knows where a node keeps its subtrees; `nodes` walks
them, and the structure queries are filters over it.  Every rewriting
walk, substitution included, is a leaf function passed to `rewrite`, and
every derivative, partial or total, the derivative of the leaves passed
to `derivation`.  These two, `normal.normalize` and the numeric code
emitter all run on `fold`, whose memo lives for one call.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter


class ExprError(Exception):
    pass


class ResourceLimitError(ExprError):
    pass


class EvalDomainError(ExprError):
    pass


# elementary functions (sqrt is folded into rational powers at parse time)
ELEMENTARY = ("tanh", "sech", "sinh", "cosh", "exp")

# preferred display/storage order for jet indices
_VAR_RANK = {"x": 0, "y": 1, "z": 2, "t": 3, "X": 0, "Y": 1, "Z": 2, "T": 3}


def _idx_sort_key(pair):
    return (_VAR_RANK.get(pair[0], 4), pair[0])


def _q(v):
    """An exact rational as an int when integral, else the Fraction itself."""
    return v.numerator if v.denominator == 1 else v


def as_rational(v):
    """An exact rational (int when integral) from an int, Fraction or Rat."""
    if isinstance(v, (int, Fraction)):
        return _q(v)
    if isinstance(v, Rat):
        return v.value
    raise ExprError(f"not an exact rational: {v!r}")


class Expr:
    __slots__ = ("_h", "_k")  # hash and structural key, set by each constructor

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Expr) and self._h == other._h and self._k == other._k
        )

    def __hash__(self):
        return self._h

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    # arithmetic sugar; accepts ints and Fractions on either side
    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(MINUS_ONE, _coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), mul(MINUS_ONE, self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, pow_(_coerce(other), -1))

    def __rtruediv__(self, other):
        return mul(_coerce(other), pow_(self, -1))

    def __neg__(self):
        return mul(MINUS_ONE, self)

    def __pow__(self, exponent):
        return pow_(self, as_rational(exponent))

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return f"<{type(self).__name__} {to_text(self)}>"


def _coerce(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Rat(v)
    raise ExprError(f"cannot coerce {v!r} to Expr")


class Rat(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        if type(value) not in (int, Fraction):
            raise ExprError(f"not an exact rational: {value!r}")
        v = _q(value)
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "_h", hash(("R", v)))
        object.__setattr__(self, "_k", (0, v))


class Sym(Expr):
    """A symbol: nothing but its name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_h", hash(("S", name)))
        object.__setattr__(self, "_k", (1, name))


class Jet(Expr):
    """Derivative coordinate dep_J; idx is a sorted tuple of (var, count)."""

    __slots__ = ("dep", "idx")

    def __init__(self, dep: str, idx=()):
        idx = tuple(sorted(((v, int(c)) for v, c in idx if c), key=_idx_sort_key))
        object.__setattr__(self, "dep", dep)
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "_h", hash(("J", dep, idx)))
        object.__setattr__(self, "_k", (2, dep, idx))

    @property
    def order(self) -> int:
        return sum(c for _, c in self.idx)

    def lifted(self, var: str, by: int = 1) -> "Jet":
        d = dict(self.idx)
        d[var] = d.get(var, 0) + by
        return Jet(self.dep, d.items())


class Ufunc(Expr):
    """Unknown-function application with formal slot-derivative orders."""

    __slots__ = ("name", "args", "dorders")

    def __init__(self, name: str, args, dorders=None):
        args = tuple(args)
        if dorders is None:
            dorders = (0,) * len(args)
        dorders = tuple(int(k) for k in dorders)
        if len(dorders) != len(args):
            raise ExprError("slot-derivative orders must match arity")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "dorders", dorders)
        object.__setattr__(self, "_h", hash(("U", name, dorders, args)))
        object.__setattr__(self, "_k", (3, name, dorders, tuple([a._k for a in args])))


class Fun(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr):
        if fn not in ELEMENTARY:
            raise ExprError(f"unknown elementary function {fn!r}")
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "_h", hash(("F", fn, arg)))
        object.__setattr__(self, "_k", (4, fn, arg._k))


class Pow(Expr):
    """base raised to a rational exponent (never 0 or 1)."""

    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exp", exp)
        object.__setattr__(self, "_h", hash(("P", base, exp)))
        object.__setattr__(self, "_k", (5, base._k, exp))


class Mul(Expr):
    """Flattened product; a rational coefficient, if any, sits first."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_h", hash(("M", factors)))
        object.__setattr__(self, "_k", (6, tuple([f._k for f in factors])))


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple(terms)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_h", hash(("A", terms)))
        object.__setattr__(self, "_k", (7, tuple([x._k for x in terms])))


ZERO = Rat(0)
ONE = Rat(1)
MINUS_ONE = Rat(-1)


# ---------------------------------------------------------------------------
# total order on node shapes

# The structural key: a kind tag (Rat 0, Sym 1, Jet 2, Ufunc 3, Fun 4,
# Pow 5, Mul 6, Add 7), then the node's fields with each child's key in
# its place.  Keys order node shapes totally; equal keys, equal trees.
skey = attrgetter("_k")


def _base_exp(e: Expr):
    if type(e) is Pow:
        return e.base, e.exp
    return e, 1


def _coeff_rest(e: Expr):
    """Split a term into (rational coefficient, remaining factor or None)."""
    t = type(e)
    if t is Rat:
        return e.value, None
    if t is Mul and type(e.factors[0]) is Rat:
        rest = e.factors[1:]
        return e.factors[0].value, rest[0] if len(rest) == 1 else Mul(rest)
    return 1, e


# ---------------------------------------------------------------------------
# smart constructors

def rat(p, q=None) -> Rat:
    return Rat(p if q is None else Fraction(p, q))


def add(*terms) -> Expr:
    acc: dict = {}
    const = 0
    stack = list(terms)
    while stack:
        e = stack.pop()
        t = type(e)
        if t is Add:
            stack.extend(e.terms)
        elif t is Rat:
            const += e.value
        else:
            c, rest = _coeff_rest(e)
            acc[rest] = acc.get(rest, 0) + c
    out = []
    for restx in sorted(acc, key=skey):
        c = acc[restx]
        if c == 0:
            continue
        if c != 1:  # mul(Rat(c), restx), as restx holds no coefficient
            restx = Mul((Rat(c), *restx.factors) if type(restx) is Mul else (Rat(c), restx))
        out.append(restx)
    if const != 0 or not out:
        out.insert(0, Rat(const))
    if len(out) == 1:
        return out[0]
    return Add(out)


def mul(*factors) -> Expr:
    coeff = 1
    powers: dict = {}
    pows: dict = {}  # base -> a Pow factor of it, returned again if its exponent stays
    stack = list(factors)
    while stack:
        e = stack.pop()
        t = type(e)
        if t is Mul:
            stack.extend(e.factors)
        elif t is Rat:
            coeff *= e.value
        elif t is Pow:
            b = e.base
            powers[b] = powers.get(b, 0) + e.exp
            pows[b] = e
        else:
            powers[e] = powers.get(e, 0) + 1
    if coeff == 0:
        return ZERO
    out = []
    redo = False
    for b in sorted(powers, key=skey):
        q = powers[b]
        if q == 0:
            continue
        if q == 1:
            p = b
        else:
            p = pows.get(b) if pows else None
            if p is None or p.exp != q:
                p = pow_(b, q)
        # pow_ may collapse (2^2 -> 4) or distribute ((x*y)^2 -> x^2*y^2)
        if type(p) is Rat:
            coeff *= p.value
        else:
            if type(p) is Mul:
                redo = True
            out.append(p)
    if coeff == 0:
        return ZERO
    if redo:
        return mul(Rat(coeff), *out)
    if not out:
        return Rat(coeff)
    if coeff != 1:
        out.insert(0, Rat(coeff))
    if len(out) == 1:
        return out[0]
    return Mul(out)


def _int_nth_root(n: int, k: int):
    """Exact k-th root of n >= 0, or None."""
    if n in (0, 1):
        return n
    lo, hi = 0, 1 << ((n.bit_length() + k - 1) // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** k == n else None


def _rat_exact_pow(v, q):
    """v**q as an exact rational if one exists (real branch), else None."""
    if v == 0:
        if q > 0:
            return 0
        raise EvalDomainError("0 raised to a non-positive power")
    if q.denominator == 1:
        n = q.numerator
        return v ** n if n >= 0 else _q(Fraction(v) ** n)  # int ** -n is a float
    sign = 1
    if v < 0:
        if q.denominator % 2 == 0:
            return None  # even root of a negative rational: stays symbolic
        sign = -1 if q.numerator % 2 else 1
        v = -v
    rn = _int_nth_root(v.numerator, q.denominator)
    rd = _int_nth_root(v.denominator, q.denominator)
    if rn is None or rd is None:
        return None
    return _q(sign * Fraction(rn, rd) ** q.numerator)


def pow_(base: Expr, exp) -> Expr:
    exp = as_rational(exp)
    if exp == 0:
        return ONE
    if exp == 1:
        return base
    t = type(base)
    if t is Rat:
        ex = _rat_exact_pow(base.value, exp)
        if ex is not None:
            return Rat(ex)
        return Pow(base, exp)
    if t is Pow and exp.denominator == 1:
        return pow_(base.base, base.exp * exp)
    if t is Mul and exp.denominator == 1:
        return mul(*(pow_(f, exp) for f in base.factors))
    return Pow(base, exp)


_FUN_AT_ZERO = {"tanh": ZERO, "sech": ONE, "sinh": ZERO, "cosh": ONE, "exp": ONE}


def fun(fn: str, arg: Expr) -> Expr:
    if type(arg) is Rat and arg.value == 0:
        return _FUN_AT_ZERO[fn]
    return Fun(fn, arg)


def jet(dep: str, idx=()) -> Jet:
    if isinstance(idx, dict):
        idx = idx.items()
    elif isinstance(idx, str):
        d: dict = {}
        for ch in idx:
            d[ch] = d.get(ch, 0) + 1
        idx = d.items()
    return Jet(dep, idx)


# ---------------------------------------------------------------------------
# tree walking: children() is the one place that knows where a node keeps
# its subtrees, nodes() the one walk the structure queries filter, and
# fold() the one walk that builds a result per subtree

def children(e: Expr) -> tuple:
    """The direct subtrees of e in stored order; () for a leaf."""
    t = type(e)
    if t is Add:
        return e.terms
    if t is Mul:
        return e.factors
    if t is Pow:
        return (e.base,)
    if t is Fun:
        return (e.arg,)
    if t is Ufunc:
        return e.args
    return ()


def nodes(*roots: Expr):
    """Each distinct subtree of the roots once, the first root first,
    depth first."""
    stack = list(dict.fromkeys(roots))[::-1]
    seen = set(stack)
    while stack:
        x = stack.pop()
        yield x
        for c in children(x):
            if c not in seen:
                seen.add(c)
                stack.append(c)


def free_symbols(e: Expr) -> frozenset:
    return frozenset(x for x in nodes(e) if type(x) is Sym)


def free_jets(e: Expr) -> frozenset:
    return frozenset(x for x in nodes(e) if type(x) is Jet)


def free_ufunc_names(e: Expr) -> frozenset:
    return frozenset(x.name for x in nodes(e) if type(x) is Ufunc)


_REBUILD = {
    Add: lambda e, kids: add(*kids),
    Mul: lambda e, kids: mul(*kids),
    Pow: lambda e, kids: pow_(kids[0], e.exp),
    Fun: lambda e, kids: fun(e.fn, kids[0]),
}


def fold(roots, node) -> list:
    """The results of node(x, kids) for the roots, node called once per
    distinct subtree x of them, children first, kids the (non-None)
    results for children(x).  The memo lives for this call only."""
    memo: dict = {}

    def walk(x: Expr):
        got = memo.get(x)
        if got is None:
            got = memo[x] = node(x, tuple(map(walk, children(x))))
        return got

    out = list(map(walk, roots))
    del walk  # walk's closure holds walk itself; unbind it to leave no cycle
    return out


def rewrite(e: Expr, leaf) -> Expr:
    """Rebuild e bottom-up through the smart constructors.

    leaf(x) gives the replacement of every Sym, Jet and Ufunc node; a Ufunc
    reaches it with its arguments already rewritten.  Each distinct subtree
    is rebuilt once.
    """
    def node(x: Expr, kids) -> Expr:
        t = type(x)
        if t in _REBUILD:
            return _REBUILD[t](x, kids)
        if t is Ufunc:
            x = Ufunc(x.name, kids, x.dorders)
        return x if t is Rat else leaf(x)

    return fold((e,), node)[0]


# ---------------------------------------------------------------------------
# differentiation

_FUN_DERIV = {
    "tanh": lambda a: pow_(fun("sech", a), 2),
    "sech": lambda a: mul(MINUS_ONE, fun("sech", a), fun("tanh", a)),
    "sinh": lambda a: fun("cosh", a),
    "cosh": lambda a: fun("sinh", a),
    "exp": lambda a: fun("exp", a),
}


def derivation(e: Expr, dleaf) -> Expr:
    """Extend dleaf, the derivative of every Sym and Jet leaf, to e.

    Sums, products, rational powers, the elementary functions and the
    slots of unknown functions follow the chain rule; rationals are
    constants.  Each distinct subtree is differentiated once per call.
    """
    def node(x: Expr, ds) -> Expr:
        t = type(x)
        if t is Rat:
            return ZERO
        if t is Sym or t is Jet:
            return dleaf(x)
        if t is Add:
            return add(*ds)
        if t is Mul:
            fs = x.factors
            return add(*(mul(*fs[:i], d, *fs[i + 1:])
                         for i, d in enumerate(ds) if d != ZERO))
        if t is Pow:
            return ZERO if ds[0] == ZERO else mul(Rat(x.exp), pow_(x.base, x.exp - 1), ds[0])
        if t is Fun:
            return ZERO if ds[0] == ZERO else mul(_FUN_DERIV[x.fn](x.arg), ds[0])
        if t is Ufunc:
            ks = x.dorders
            return add(*(mul(Ufunc(x.name, x.args, ks[:i] + (ks[i] + 1,) + ks[i + 1:]), d)
                         for i, d in enumerate(ds) if d != ZERO))
        raise ExprError(f"cannot differentiate {x!r}")

    return fold((e,), node)[0]


def differentiate(e: Expr, v) -> Expr:
    """Exact partial derivative with respect to a symbol or a jet variable.

    Jet variables are constants under symbol derivatives and vice versa;
    unknown functions pick up formal slot derivatives through the chain
    rule.
    """
    return derivation(e, lambda x: ONE if x == v else ZERO)


def diff_n(e: Expr, v, n: int) -> Expr:
    for _ in range(n):
        e = differentiate(e, v)
    return e


# ---------------------------------------------------------------------------
# substitution

def substitute(e: Expr, bindings: dict) -> Expr:
    """Simultaneous substitution of the Sym and Jet keys of bindings."""
    return rewrite(e, lambda x: bindings.get(x, x))


# ---------------------------------------------------------------------------
# canonical text form (grammar of the parser in parse.py)

def _frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _pow_text(b: Expr, q: Fraction) -> str:
    if b == MINUS_ONE and q == Fraction(1, 2):
        return "i"  # the imaginary unit, as solution claims spell it
    bt = to_text(b)
    if type(b) in (Add, Mul, Pow) or (type(b) is Rat and (b.value < 0 or b.value.denominator != 1)):
        bt = f"({bt})"
    if q == 1:
        return bt
    if q.denominator == 1 and q > 0:
        return f"{bt}^{q.numerator}"
    return f"{bt}^({_frac_text(q)})"


def _term_text(coeff: Fraction, factors) -> str:
    """Render coeff * factors with negative powers moved under a '/'."""
    num, den = [], []
    for f in factors:
        b, q = _base_exp(f)
        (num if q > 0 else den).append(_pow_text(b, abs(q)))
    c = abs(coeff)
    if c.numerator != 1 or not num:
        num.insert(0, str(c.numerator))
    if c.denominator != 1:
        den.insert(0, str(c.denominator))
    s = "*".join(num)
    if den:
        d = "*".join(den)
        if len(den) > 1:
            d = f"({d})"
        s = f"{s}/{d}"
    return s


def _signed_text(term: Expr, minus: str, plus: str) -> str:
    """A product or rational term as minus or plus, by its coefficient's
    sign, then the text of its magnitude."""
    c, restx = _coeff_rest(term)
    if restx is None:
        body = _frac_text(abs(c))
    else:
        body = _term_text(c, restx.factors if type(restx) is Mul else (restx,))
    return (minus if c < 0 else plus) + body


def to_text(e: Expr) -> str:
    t = type(e)
    if t is Rat:
        v = e.value
        return _frac_text(v) if v >= 0 else f"-{_frac_text(-v)}"
    if t is Sym:
        return e.name
    if t is Jet:
        if not e.idx:
            return e.dep
        return e.dep + "_" + "".join(v * c for v, c in e.idx)
    if t is Fun:
        return f"{e.fn}({to_text(e.arg)})"
    if t is Ufunc:
        args = ", ".join(to_text(a) for a in e.args)
        if any(e.dorders):
            # diagnostic form only; not part of the input grammar
            return f"{e.name}^{{{','.join(map(str, e.dorders))}}}({args})"
        return f"{e.name}({args})"
    if t is Pow:
        return _pow_text(e.base, e.exp)
    if t is Mul:
        return _signed_text(e, "-", "")
    if t is Add:
        return _signed_text(e.terms[0], "-", "") + "".join(
            _signed_text(x, " - ", " + ") for x in e.terms[1:])
    raise ExprError(f"cannot print {e!r}")
