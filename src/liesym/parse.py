"""Parser for the expression DSL.

Grammar (whitespace-insensitive):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' rational)?
    base   := number | ident | jetvar | func '(' expr (',' expr)* ')'
            | '(' expr ')'
    jetvar := depvar '_' indepvar+            e.g. u_xxz
    number := integer ('/' integer)? | decimal

An identifier that is not a declared dependent variable, constant or
function name is the symbol of that name (`Sym`); a name carries no role,
so one name may be a variable in one record and a parameter in the next.
Decimals parse as exact ratios of powers of ten.  Rational exponents may
be parenthesized and signed: x^2, x^(-1), x^(1/2), x^(-1/4).

The data files (`.pde`, reference transcriptions, golden table, config)
are read through `data_text`, and their `#`-comment lines through
`data_lines`.
"""

from __future__ import annotations

import os
from fractions import Fraction
from importlib import resources

from .expr import ELEMENTARY, Expr, Rat, Sym, Ufunc, fun, jet, pow_


class ParseError(Exception):
    def __init__(self, msg, line=1, col=1, expected=None):
        self.line = line
        self.col = col
        self.expected = tuple(expected or ())
        where = f"line {line}, column {col}"
        if self.expected:
            msg = f"{msg} at {where} (expected one of: {', '.join(self.expected)})"
        else:
            msg = f"{msg} at {where}"
        super().__init__(msg)


class ParseContext:
    """Declares jet dependents / independents and named constants.

    Any other identifier parses as the symbol of that name.
    """

    def __init__(self, indep=("x", "y", "z", "t"), deps=("u",), constants=None):
        self.indep = tuple(indep)
        self.deps = tuple(deps)
        self.constants = dict(constants or {})


DEFAULT_CONTEXT = ParseContext()

_FUNC_NAMES = set(ELEMENTARY) | {"sqrt"}


class _Tok:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text: str):
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            lit = text[i:j]
            if seen_dot:
                whole, frac = lit.split(".")
                value = Fraction(int(whole or "0") * 10 ** len(frac) + int(frac or "0"),
                                 10 ** len(frac))
            else:
                value = Fraction(int(lit))
            toks.append(_Tok("num", value, line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            name = text[i:j]
            if j < n and text[j] == "_":
                k = j + 1
                while k < n and text[k].isalpha():
                    k += 1
                suffix = text[j + 1:k]
                if not suffix:
                    raise ParseError("dangling derivative suffix", line, start_col,
                                     ["independent-variable letters"])
                toks.append(_Tok("jet", (name, suffix), line, start_col))
                col += k - i
                i = k
            else:
                toks.append(_Tok("ident", name, line, start_col))
                col += j - i
                i = j
            continue
        if c in "+-*/^(),":
            toks.append(_Tok(c, c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    toks.append(_Tok("end", None, line, col))
    return toks


class _Parser:
    def __init__(self, toks, ctx: ParseContext):
        self.toks = toks
        self.pos = 0
        self.ctx = ctx

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"unexpected token {t.value!r}", t.line, t.col, [kind])
        return t

    def parse_expr(self) -> Expr:
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        e = self.parse_term()
        if neg:
            e = -e
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.parse_term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.parse_factor()
            e = e * rhs if op == "*" else e / rhs
        return e

    def parse_factor(self) -> Expr:
        e = self.parse_base()
        if self.peek().kind == "^":
            self.next()
            e = pow_(e, self.parse_rational())
        return e

    def parse_rational(self) -> Fraction:
        t = self.peek()
        if t.kind == "(":
            self.next()
            q = self._signed_rational(in_parens=True)
            self.expect(")")
            return q
        return self._signed_rational(in_parens=False)

    def _signed_rational(self, in_parens: bool) -> Fraction:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        t = self.expect("num")
        q = t.value
        if q.denominator != 1:
            raise ParseError("exponent must be rational", t.line, t.col, ["integer"])
        # x^1/2 is (x^1)/2; fractional exponents must be parenthesized
        if in_parens and self.peek().kind == "/":
            self.next()
            d = self.expect("num")
            if d.value.denominator != 1 or d.value == 0:
                raise ParseError("bad exponent denominator", d.line, d.col, ["integer"])
            q = Fraction(q, d.value)
        return sign * q

    def parse_base(self) -> Expr:
        t = self.next()
        if t.kind == "num":
            return Rat(t.value)
        if t.kind == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.kind == "jet":
            dep, suffix = t.value
            if dep not in self.ctx.deps:
                raise ParseError(f"unknown dependent variable {dep!r}", t.line, t.col,
                                 self.ctx.deps)
            bad = [ch for ch in suffix if ch not in self.ctx.indep]
            if bad:
                raise ParseError(f"unknown independent variable {bad[0]!r}",
                                 t.line, t.col, self.ctx.indep)
            return jet(dep, suffix)
        if t.kind == "ident":
            name = t.value
            if self.peek().kind == "(":
                self.next()
                args = [self.parse_expr()]
                while self.peek().kind == ",":
                    self.next()
                    args.append(self.parse_expr())
                self.expect(")")
                if name == "sqrt":
                    if len(args) != 1:
                        raise ParseError("sqrt takes one argument", t.line, t.col)
                    return pow_(args[0], Fraction(1, 2))
                if name in ELEMENTARY:
                    if len(args) != 1:
                        raise ParseError(f"{name} takes one argument", t.line, t.col)
                    return fun(name, args[0])
                # single letters name formal unknown functions (F, G, f, ...);
                # anything longer is a typo for an elementary function
                if len(name) > 1:
                    raise ParseError(f"unknown function name {name!r}",
                                     t.line, t.col, sorted(_FUNC_NAMES))
                return Ufunc(name, args)
            if name in self.ctx.deps:
                return jet(name, ())
            return self.ctx.constants.get(name) or Sym(name)
        raise ParseError(f"unexpected token {t.value!r}", t.line, t.col,
                         ["number", "identifier", "("])


def data_text(name: str, path=None) -> str:
    """Text of the file at path, or of the shipped data file name when path
    is None, or is name and no such file exists."""
    if path is None or (path == name and not os.path.exists(path)):
        return resources.files("liesym.data").joinpath(name).read_text()
    with open(path) as fh:
        return fh.read()


def data_lines(text: str):
    """The non-blank lines of text, each without its `#` comment."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse(text: str, ctx: ParseContext = None) -> Expr:
    """Parse DSL text into an expression tree."""
    p = _Parser(_tokenize(text), ctx or DEFAULT_CONTEXT)
    e = p.parse_expr()
    tail = p.peek()
    if tail.kind != "end":
        raise ParseError(f"trailing input {tail.value!r}", tail.line, tail.col, ["end"])
    return e
