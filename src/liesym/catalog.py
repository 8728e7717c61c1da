"""Catalog records: claimed closed-form solutions, reduced equations,
similarity ansatz substitutions, and Weierstrass-function claims.

Plain-text block format: a `[name]` header followed by `key: value`
lines; `newvar`/`back` keys may repeat.  Claims are recorded verbatim;
corrected variants live in separate records whose names end in
`-corrected`, never replacing the original.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import Expr, Pow, free_symbols, nodes, pow_, rat
from .parse import ParseContext, data_lines, data_text


class CatalogError(Exception):
    pass


class Record:
    REPEATED = ("newvar", "back")

    def __init__(self, name: str, fields: dict):
        self.name = name
        self.fields = fields

    def get(self, key, default=None):
        return self.fields.get(key, default)

    @property
    def kind(self):
        return self.fields.get("kind", "solution")

    @property
    def expected(self):
        return self.fields.get("expected", "zero")

    def params(self) -> dict:
        out = {}
        for part in self.get("params", "").split():
            k, v = part.split("=")
            out[k] = float(Fraction(v)) if "." not in v else float(v)
        return out

    def nonzero(self) -> tuple:
        return tuple(self.get("nonzero", "").split())

    def pairs(self, key) -> list:
        """Repeated `key: lhs = rhs` lines as (lhs, rhs-text) pairs."""
        out = []
        for raw in self.fields.get(key, []):
            lhs, rhs = raw.split("=", 1)
            out.append((lhs.strip(), rhs.strip()))
        return out


def parse_catalog(text: str) -> list:
    records = []
    name = None
    fields: dict = {}
    for line in data_lines(text):
        if line.startswith("["):
            if name is not None:
                records.append(Record(name, fields))
            name = line.strip("[]")
            fields = {}
            continue
        if name is None:
            raise CatalogError(f"field outside a record: {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key in Record.REPEATED:
            fields.setdefault(key, []).append(value)
        else:
            if key in fields:
                raise CatalogError(f"duplicate field {key!r} in [{name}]")
            fields[key] = value
    if name is not None:
        records.append(Record(name, fields))
    return records


def load_catalog(path=None) -> list:
    return parse_catalog(data_text("paper_catalog.txt", path))


# ---------------------------------------------------------------------------
# context helpers

def solution_context() -> ParseContext:
    """Context for solution claims: `i` is the imaginary unit (-1)^(1/2)."""
    return ParseContext(indep=("x", "y", "z", "t"), deps=("u",),
                        constants={"i": pow_(rat(-1), Fraction(1, 2))})


def record_context(rec: Record) -> ParseContext:
    """Context for ode/general records: `vars` + `unknown`."""
    variables = tuple(rec.get("vars", "w").split())
    unknown = rec.get("unknown", "R")
    return ParseContext(indep=variables, deps=(unknown,))


def undeclared_divisors(e: Expr, declared, coords) -> tuple:
    """Parameter symbols occurring in denominators but not declared nonzero."""
    bad = {s.name for x in nodes(e) if type(x) is Pow and x.exp < 0
           for s in free_symbols(x.base)
           if s.name not in declared and s.name not in coords}
    return tuple(sorted(bad))
