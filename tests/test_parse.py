"""The DSL parser: the shipped corpus, malformed input, positions, size."""

import hashlib
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from liesym import Rat, Sym, add, jet, mul, parse
from liesym.catalog import load_catalog
from liesym.cli import main
from liesym.expr import skey
from liesym.parse import ParseContext, ParseError, data_text

_DATA = Path(__file__).parent / "data"


def _shipped_corpus(monkeypatch):
    """(text, context) of every DSL string the shipped data holds, in the
    order and the context in which its loader parses it."""
    parse_module = importlib.import_module("liesym.parse")
    real = parse_module.parse
    seen = []

    def spy(text, ctx=None):
        seen.append((text, ctx))
        return real(text, ctx)

    mods = {m: importlib.import_module(f"liesym.{m}")
            for m in ("jets", "liealg", "flows", "verify", "detsys")}
    for mod in (parse_module, mods["jets"], mods["liealg"], mods["flows"], mods["verify"]):
        monkeypatch.setattr(mod, "parse", spy)
    pde = mods["jets"].load_pde(data_text("kdv31.pde"))
    for path in sorted(_DATA.glob("*.pde")):
        mods["jets"].load_pde(path.read_text())
    mods["liealg"].reference_basis(pde)
    mods["flows"].load_reference_groups(pde)
    mods["detsys"].reference_system(pde)
    mods["verify"].verify_catalog(load_catalog(), pde, points=2)
    monkeypatch.undo()
    return seen


def test_shipped_corpus_parses_as_pinned(monkeypatch):
    # every published generator, flow, constraint, claim, reduction and
    # equation, as the parser read it when this pin was taken
    corpus = _shipped_corpus(monkeypatch)
    assert len(corpus) > 200
    digest = hashlib.sha256()
    for text, ctx in corpus:
        digest.update(repr(skey(parse(text, ctx))).encode() + b"\n")
    assert digest.hexdigest() == (
        "814b330bb1c66c9ba9da65b11f55f59a0126de0aecaa5c8939a7d4cfc322eba3")


# each refused with ParseError, by the grammar in the module docstring
MALFORMED = [
    "", "x, y", "x y", "+x", "--x", "x+-y", "x*-y", "x/-y", "x - -y",
    "x**2", "x//2", "x***y", "x^y", "x^2^3", "x^-(2)", "x^1.5", "x^(1/0)",
    "x^(1/2/3)", "x^((1)/2)", "x^(1/(2))", "x^((1/2))", "x^((-1))",
    "x^(-(1)/2)", "F()", "F(x,)", "F(x, y,)", "(F)(x)", "F(x)(y)", "u_x(y)",
    "x)+(y", "(x", "tanh(x", "x $", "x.y", "...", "1..2", "1e5", "0x10",
    "1_000", "2x", "u_", "u__x", "u_x1", "u_x_y", "_u", "w_x", "u_q",
    "tan(x)", "sqrt(x, y)", "exp(x, y)", "Fg(x)",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_input_is_refused(text):
    with pytest.raises(ParseError):
        parse(text)


# an empty --expr names no expression, so the command reads the catalog
@pytest.mark.parametrize("text", [t for t in MALFORMED if t])
def test_malformed_expr_exits_2(capsys, text):
    rc = main(["sample", f"--expr={text}", "--grid", "x=0:1:2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text, message, line, col", [
    ("x*-y", "unexpected token '-'", 1, 3),
    ("x + $", "unexpected character '$'", 1, 5),
    ("y +\n  u_", "dangling derivative suffix", 2, 3),
    ("w_x", "unknown dependent variable 'w'", 1, 1),
    ("x +\n  2*u_xq", "unknown independent variable 'q'", 2, 5),
    ("1 + tan(x)", "unknown function name 'tan'", 1, 5),
    ("2*sqrt(x, y)", "sqrt takes one argument", 1, 3),
    ("x^1.5", "exponent must be rational", 1, 3),
    ("t^(-1/0)", "bad exponent denominator", 1, 7),
    # a zero base to a negative power, at the zero
    ("y/0", "0 raised to a non-positive power", 1, 3),
    ("2/0", "0 raised to a non-positive power", 1, 3),
    ("0^-007", "0 raised to a non-positive power", 1, 1),
    ("x + 1/(0)", "0 raised to a non-positive power", 1, 8),
    ("(x-x)^-1", "0 raised to a non-positive power", 1, 2),
])
def test_error_positions(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).startswith(f"{message} at line {line}, column {col}")


def test_zero_divisor_exits_2_at_its_position(capsys):
    rc = main(["sample", "--expr=y/0", "--grid", "x=0:1:2"])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: 0 raised to a non-positive power at line 1, column 3\n"


def test_names_and_numbers_are_read_from_the_text():
    # a Python keyword is a name like any other; a decimal stays exact;
    # a leading zero is a digit; a name is not NFKC-normalized
    assert parse("in*lambda + True") == add(mul(Sym("in"), Sym("lambda")), Sym("True"))
    assert parse("1.9872") == Rat(Fraction(1242, 625))
    assert parse("007*x^02") == mul(Rat(7), parse("x^2"))
    assert parse("ﬁ") == Sym("ﬁ")


def test_minus_starts_an_expression():
    ctx = ParseContext(constants={"k": Rat(3)})
    assert parse("-x*y", ctx) == mul(Rat(-1), Sym("x"), Sym("y"))
    assert parse("F(-x, (-k))", ctx) == parse("F(-1*x, -3)", ctx)
    assert parse("x^-2 - u^(-1/4)") == parse("1/x^2 - 1/u^(1/4)")
    assert parse("-(-x)") == Sym("x")


def test_flat_sum_and_product_are_not_recursive():
    # a 3000-term chain is one add or mul call, not 3000 nested ones
    names = [Sym(f"a{k}") for k in range(3000)]
    assert parse(" + ".join(n.name for n in names)) == add(*names)
    assert parse(" - ".join(n.name for n in names)) == add(
        names[0], *(mul(Rat(-1), n) for n in names[1:]))
    assert parse("*".join(n.name for n in names)) == mul(*names)


def test_jets_take_the_context():
    ctx = ParseContext(indep=("p", "q"), deps=("R",))
    assert parse("R_pqq + R", ctx) == add(jet("R", "pqq"), jet("R", ()))
    with pytest.raises(ParseError):
        parse("R_x", ctx)
