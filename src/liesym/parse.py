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

With `^` spelled `**` the grammar is a subset of Python's expressions, so
`ast.parse` finds the structure.  It sees each letter as `q` and each
digit as `1`; names and numbers are read back from the text, so a name
may be a Python keyword (`in`, `lambda`), `007` is 7 and a decimal stays
exact.  Parentheses leave no node, so the source around a node decides
what the grammar says of them: a minus starts the text, a group or an
argument, and an exponent has at most one pair.  They nest fewer than
200 deep, Python's own limit.

The data files (`.pde`, reference transcriptions, golden table, config)
are read through `data_text`, and their `#`-comment lines through
`data_lines`.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from fractions import Fraction
from importlib import resources

from .expr import (
    ELEMENTARY, MINUS_ONE, EvalDomainError, Expr, Rat, Sym, Ufunc, add, fun,
    jet, mul, pow_,
)


class ParseError(Exception):
    def __init__(self, msg, line=1, col=1, expected=None):
        self.msg, self.line, self.col = msg, line, col
        self.expected = tuple(expected or ())
        hint = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{msg} at line {line}, column {col}{hint}")

    def __reduce__(self):
        # pickle rebuilds from the parts, not from the formatted message
        return type(self), (self.msg, self.line, self.col, self.expected)


class ParseContext:
    """Declares jet dependents / independents and named constants.

    Any other identifier parses as the symbol of that name.
    """

    def __init__(self, indep=("x", "y", "z", "t"), deps=("u",), constants=None):
        self.indep = tuple(indep)
        self.deps = tuple(deps)
        self.constants = dict(constants or {})


DEFAULT_CONTEXT = ParseContext()

_FUNC_NAMES = sorted(ELEMENTARY + ("sqrt",))
_BASE = ["number", "identifier", "("]
# a left-nested chain is built by one call: operator -> (that call, the
# inverse operator, how a reader reads the inverse's operand node)
_CHAINS = {ast.Add: (add, ast.Sub, lambda r, n: mul(MINUS_ONE, r.expr(n))),
           ast.Mult: (mul, ast.Div, lambda r, n: r.power(r.expr(n), -1, n))}
_RECURSION_LIMIT = threading.Lock()


def _where(text: str, i: int):
    """The line and column of text[i], or of the end of text."""
    return text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i)


class _Reader:
    """Python's tree of DSL text, read as an Expr tree; `at[k]` is the index
    in text of character k of the Python source."""

    def __init__(self, text: str, ctx: ParseContext):
        self.text, self.ctx = text, ctx
        src, self.at, depth = ["("], [0], 0
        for i, c in enumerate(text):
            if c.isalnum() or c.isspace():
                c = "1" if c.isdecimal() else "q" if c.isalnum() else " "
            elif c == "^":
                c = "**"
            elif c not in "+-*/(),._" or text[i:i + 2] in ("**", "//"):
                raise ParseError(f"unexpected character {c!r}", *_where(text, i))
            depth += (c == "(") - (c == ")")
            if depth < 0:
                raise ParseError("trailing input ')'", *_where(text, i), ["end"])
            src.append(c)
            self.at += [i] * len(c)
        self.at += [len(text)] * 2
        self.src = "".join(src) + ")"
        # Python 3.11 counts the depth of the tree it builds against three
        # times the recursion limit, and a flat sum of n terms is n deep;
        # the lock keeps two parses from restoring each other's limit
        with _RECURSION_LIMIT:
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(max(limit, min(len(self.src), 50_000)))
            try:
                self.body = ast.parse(self.src, mode="eval").body
            except SyntaxError as exc:
                k = min((exc.offset or 1) - 1, len(self.src))
                raise self.error("invalid syntax", k) from None
            finally:
                sys.setrecursionlimit(limit)

    def error(self, msg, k, expected=None) -> ParseError:
        return ParseError(msg, *_where(self.text, self.at[k]), expected)

    def word(self, node) -> str:
        return self.text[self.at[node.col_offset]:self.at[node.end_col_offset]]

    def expr(self, node) -> Expr:
        op = type(getattr(node, "op", None))
        for first, (join, inverse, invert) in _CHAINS.items():
            if op in (first, inverse):
                links = []
                while type(getattr(node, "op", None)) in (first, inverse):
                    links.append((type(node.op), node.right))
                    node = node.left
                links.append((first, node))
                return join(*(self.expr(n) if o is first else invert(self, n)
                              for o, n in reversed(links)))
        if op is ast.Pow:
            return self.power(self.expr(node.left), self.exponent(node), node.left)
        if op is ast.USub:
            # a minus starts an expression: the text, a group or an argument
            if self.src[:node.col_offset].rstrip()[-1] not in "(,":
                raise self.error("unexpected token '-'", node.col_offset, _BASE)
            return mul(MINUS_ONE, self.expr(node.operand))
        if type(node) is ast.Constant:
            return Rat(self.number(node))
        if type(node) is ast.Name:
            return self.name(node)
        if type(node) is ast.Call:
            return self.call(node)
        raise self.error("invalid syntax", node.col_offset)

    def power(self, base: Expr, exp, node) -> Expr:
        """base^exp, where base was read from node; a zero base to a
        negative power is an error at node."""
        try:
            return pow_(base, exp)
        except EvalDomainError as exc:
            raise self.error(str(exc), node.col_offset) from None

    def number(self, node) -> Fraction:
        word = self.word(node)
        if not word.replace(".", "", 1).isdecimal():
            raise self.error("invalid syntax", node.col_offset)
        return int(word) if word.isdecimal() else Fraction(word)

    def exponent(self, power) -> Fraction:
        """['-'] integer, or ['-'] integer ['/' integer] in one pair of parentheses."""
        e = power.right
        shape = self.src[self.src.index("**", power.left.end_col_offset) + 2:
                         power.end_col_offset].replace(" ", "")
        num, den = (e.left, e.right) if type(getattr(e, "op", None)) is ast.Div else (e, None)
        sign, num = (-1, num.operand) if type(getattr(num, "op", None)) is ast.USub else (1, num)
        if ("(" in shape[1:] or type(num) is not ast.Constant
                or self.number(num).denominator != 1):
            raise self.error("exponent must be rational", num.col_offset, ["integer"])
        # no denominator reads as 1, one that is not a number as 0
        d = 1 if den is None else self.number(den) if type(den) is ast.Constant else 0
        if d == 0 or d.denominator != 1:
            raise self.error("bad exponent denominator", den.col_offset, ["integer"])
        return Fraction(sign * self.number(num), d)

    def name(self, node) -> Expr:
        word, k = self.word(node), node.col_offset
        dep, jet_mark, suffix = word.partition("_")
        # a letter first, and only letters after the derivative mark
        bad = [j for j, c in enumerate(word) if not c.isalpha() and (j == 0 or j > len(dep))]
        if bad:
            raise self.error(f"unexpected character {word[bad[0]]!r}", k + bad[0])
        if not jet_mark:
            if word in self.ctx.deps:
                return jet(word, ())
            return self.ctx.constants.get(word) or Sym(word)
        if not suffix:
            raise self.error("dangling derivative suffix", k, ["independent-variable letters"])
        if dep not in self.ctx.deps:
            raise self.error(f"unknown dependent variable {dep!r}", k, self.ctx.deps)
        bad = [c for c in suffix if c not in self.ctx.indep]
        if bad:
            raise self.error(f"unknown independent variable {bad[0]!r}", k, self.ctx.indep)
        return jet(dep, suffix)

    def call(self, node) -> Expr:
        f, k, close = node.func, node.col_offset, node.end_col_offset - 1
        # a parenthesized callee starts after its call does
        if type(f) is not ast.Name or f.col_offset != k:
            raise self.error("invalid syntax", k)
        if not node.args or "," in self.src[node.args[-1].end_col_offset:close]:
            raise self.error("unexpected token ')'", close, _BASE)
        args = [self.expr(a) for a in node.args]
        name = self.word(f)
        if name == "sqrt" or name in ELEMENTARY:
            if len(args) != 1:
                raise self.error(f"{name} takes one argument", k)
            return pow_(args[0], Fraction(1, 2)) if name == "sqrt" else fun(name, args[0])
        # single letters name formal unknown functions (F, G, f, ...);
        # anything longer is a typo for an elementary function
        if len(name) > 1 or not name.isalpha():
            raise self.error(f"unknown function name {name!r}", k, _FUNC_NAMES)
        return Ufunc(name, args)


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
    reader = _Reader(text, ctx or DEFAULT_CONTEXT)
    return reader.expr(reader.body)
