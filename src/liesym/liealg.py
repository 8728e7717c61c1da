"""Lie brackets, the commutator table as its structure constants, sanity checks.

Decomposition failures are first-class results (None cells plus a
failure map), never exceptions: a mismatch against the shipped table
must be reportable as data.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .expr import add, mul, rat
from .jets import PDE, VectorField
from .normal import canonical
from .parse import ParseContext, ParseError, data_lines, data_text, parse
from .detsys import SymmetryBasis, check_membership, membership_rows


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^k = X(Y^k) - Y(X^k), coefficients canonicalized."""
    xi = [canonical(add(X.apply_to(cy), mul(rat(-1), Y.apply_to(cx))))
          for cx, cy in zip(X.xi, Y.xi)]
    eta = canonical(add(X.apply_to(Y.eta), mul(rat(-1), Y.apply_to(X.eta))))
    return VectorField(xi, eta, X.vars, X.dep)


class CommutatorTable:
    """The nonzero structure constants of a basis, {(i, j): {k: c_ij^k}}:
    [v_i, v_j] = sum_k c_ij^k v_k.

    Both orders of a pair are stored.  A pair whose bracket left the span
    has no constants; `failures` maps both its orders to their brackets.
    """

    def __init__(self, basis: SymmetryBasis, c: dict, failures: dict):
        self.basis = basis
        self.c = c
        self.failures = failures

    @property
    def closed(self) -> bool:
        return not self.failures

    def cell(self, i, j):
        """{k: c_ij^k} of [v_i, v_j], or None where it left the span."""
        return None if (i, j) in self.failures else self.c.get((i, j), {})

    def is_skew_symmetric(self) -> bool:
        return self.closed and not self.antisymmetry_violations()

    def antisymmetry_violations(self):
        """Triples (i, j, k) with c_ij^k != -c_ji^k, in lexicographic order."""
        c = self.c

        def get(i, j, k):
            return c.get((i, j), {}).get(k, Fraction(0))
        support = {(i, j, k) for (i, j), cell in c.items() for k in cell}
        support |= {(j, i, k) for i, j, k in support}
        return sorted((i, j, k) for i, j, k in support if get(i, j, k) != -get(j, i, k))

    def jacobi_violations(self):
        """Quadruples (i, j, k, l), i < j < k, where the Jacobi identity fails."""
        out = []
        n, c = len(self.basis), self.c
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    s = {}
                    for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, x in c.get((a, b), {}).items():
                            for l, y in c.get((m, d), {}).items():
                                s[l] = s.get(l, 0) + x * y
                    out.extend((i, j, k, l) for l in sorted(s) if s[l])
        return out


def jacobi_check(table: CommutatorTable) -> dict:
    anti = table.antisymmetry_violations()
    jac = table.jacobi_violations()
    return {"antisymmetry_violations": anti, "jacobi_violations": jac,
            "ok": not anti and not jac}


def commutator_table(basis: SymmetryBasis) -> CommutatorTable:
    """Each unordered pair is bracketed and decomposed once."""
    n = len(basis)
    c, failures = {}, {}
    fields, rows = basis.fields, membership_rows(basis)
    for i in range(n):
        for j in range(i + 1, n):
            br = lie_bracket(fields[i], fields[j])
            if br.is_zero():
                continue
            coords = check_membership(basis, br, rows)
            if coords is None:
                failures[(i, j)], failures[(j, i)] = br, br.scaled(-1)
                continue
            cell = {k: Fraction(x) for k, x in enumerate(coords) if x}
            c[(i, j)], c[(j, i)] = cell, {k: -x for k, x in cell.items()}
    return CommutatorTable(basis, c, failures)


# ---------------------------------------------------------------------------
# shipped data

def reference_basis(pde: PDE) -> SymmetryBasis:
    """The published ten generators, in publication order."""
    ctx = ParseContext(indep=[v.name for v in pde.vars], deps=(pde.dep,))
    fields = []
    for line in data_lines(data_text("basis_reference.txt")):
        _, rhs = line.split("=", 1)
        parts = [parse(p.strip(), ctx) for p in rhs.split("|")]
        fields.append(VectorField(parts[:-1], parts[-1], pde.vars, pde.dep))
    return SymmetryBasis(fields)


_CELL = re.compile(r"\[\s*v(\d+)\s*,\s*v(\d+)\s*\]\s*=\s*(-?\d+(?:/0*[1-9]\d*)?)\s+v(\d+)")


def load_golden_table(text: str = None, n: int = 10):
    """Parse nonzero table cells `[vI, vJ] = c vK` of an n-dimensional
    algebra (the published one by default): {(i, j): (c, k)} (0-based).

    A cell of another form, or an index outside 1..n, is a ParseError
    at its line."""
    cells = {}
    text = text if text is not None else data_text("table1.golden")
    for no, raw in enumerate(text.splitlines(), 1):
        for line in data_lines(raw):
            m = _CELL.fullmatch(line)
            if m is None:
                raise ParseError(f"golden cell {line!r} is not [vI, vJ] = c vK", no)
            i, j, k = (int(m[g]) - 1 for g in (1, 2, 4))
            if not all(0 <= x < n for x in (i, j, k)):
                raise ParseError(f"golden cell {line!r} names a generator outside v1..v{n}", no)
            cells[(i, j)] = (Fraction(m[3]), k)
    return cells


def compare_with_golden(table: CommutatorTable, golden=None):
    """Cell-by-cell diff against the shipped transcription:
    (i, j, got, expected) with cells as CommutatorTable.cell gives them."""
    n = len(table.basis)
    if golden is None:
        golden = load_golden_table(n=n)
    mismatches = []
    for i in range(n):
        for j in range(n):
            got = table.cell(i, j)
            coeff, k = golden.get((i, j), (0, 0))
            expect = {k: coeff} if coeff else {}
            if got != expect:
                mismatches.append((i, j, got, expect))
    return mismatches


def format_cell(cell) -> str:
    """One cell as text: '?' where the bracket left the span, else its
    terms 'c vK' (or 'vK', '-vK'), '0' when it has none."""
    if cell is None:
        return "?"
    if not cell:
        return "0"
    return "+".join(
        (f"v{k + 1}" if c == 1 else f"-v{k + 1}" if c == -1 else f"{c} v{k + 1}")
        for k, c in sorted(cell.items())
    ).replace("+-", "-")


def format_table(table: CommutatorTable) -> str:
    """Fixed-width text rendering of the commutator table."""
    n = len(table.basis)
    names = [f"v{i + 1}" for i in range(n)]
    rows = [["*"] + names]
    for i in range(n):
        rows.append([names[i]] + [format_cell(table.cell(i, j)) for j in range(n)])
    widths = [max(len(r[c]) for r in rows) for c in range(n + 1)]
    return "\n".join(
        "  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in rows
    )
