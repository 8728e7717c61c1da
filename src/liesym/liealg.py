"""Lie brackets, the commutator table, structure constants, sanity checks.

Decomposition failures are first-class results (None entries plus a
failure list), never exceptions: a mismatch against the shipped table
must be reportable as data.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .expr import add, mul, rat
from .jets import PDE, VectorField
from .normal import canonical
from .parse import ParseContext, ParseError, data_lines, data_text, parse
from .detsys import SymmetryBasis, check_membership


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^k = X(Y^k) - Y(X^k), coefficients canonicalized."""
    xi = [canonical(add(X.apply_to(cy), mul(rat(-1), Y.apply_to(cx))))
          for cx, cy in zip(X.xi, Y.xi)]
    eta = canonical(add(X.apply_to(Y.eta), mul(rat(-1), Y.apply_to(X.eta))))
    return VectorField(xi, eta, X.vars, X.dep)


class CommutatorTable:
    """n x n decompositions of [v_i, v_j] in the given basis."""

    def __init__(self, basis: SymmetryBasis, entries, failures):
        self.basis = basis
        self.entries = entries      # entries[i][j]: list[Fraction] or None
        self.failures = tuple(failures)  # (i, j, bracket) triples

    @property
    def closed(self) -> bool:
        return not self.failures

    def structure_constants(self):
        return StructureConstants(self.entries)

    def is_skew_symmetric(self) -> bool:
        n = len(self.basis)
        for i in range(n):
            for j in range(n):
                a, b = self.entries[i][j], self.entries[j][i]
                if a is None or b is None:
                    return False
                if any(x != -y for x, y in zip(a, b)):
                    return False
        return True


class StructureConstants:
    """Nonzero structure constants, {(i, j): {k: c_ij^k}}.

    Built from a dense n x n x n nested list; the checks below sum only
    over the nonzero terms.
    """

    def __init__(self, c):
        self.n = len(c)
        self.c = {}
        for i, row in enumerate(c):
            for j, cell in enumerate(row):
                nz = {k: Fraction(x) for k, x in enumerate(cell) if x}
                if nz:
                    self.c[(i, j)] = nz

    def get(self, i, j, k) -> Fraction:
        return self.c.get((i, j), {}).get(k, Fraction(0))

    def antisymmetry_violations(self):
        """Triples (i, j, k) with c_ij^k != -c_ji^k, in lexicographic order."""
        support = {(i, j, k) for (i, j), cell in self.c.items() for k in cell}
        support |= {(j, i, k) for i, j, k in support}
        return sorted((i, j, k) for i, j, k in support
                      if self.get(i, j, k) != -self.get(j, i, k))

    def jacobi_violations(self):
        """Quadruples (i, j, k, l), i < j < k, where the Jacobi identity fails."""
        out = []
        n, c = self.n, self.c
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


def jacobi_check(sc: StructureConstants) -> dict:
    anti = sc.antisymmetry_violations()
    jac = sc.jacobi_violations()
    return {"antisymmetry_violations": anti, "jacobi_violations": jac,
            "ok": not anti and not jac}


def commutator_table(basis: SymmetryBasis) -> CommutatorTable:
    n = len(basis)
    entries = [[None] * n for _ in range(n)]
    failures = []
    fields = list(basis.fields)
    for i in range(n):
        for j in range(n):
            if i == j:
                entries[i][j] = [Fraction(0)] * n
                continue
            if j < i and entries[j][i] is not None:
                entries[i][j] = [-c for c in entries[j][i]]
                continue
            br = lie_bracket(fields[i], fields[j])
            if br.is_zero():
                entries[i][j] = [Fraction(0)] * n
                continue
            coords = check_membership(basis, br)
            if coords is None:
                failures.append((i, j, br))
            else:
                entries[i][j] = coords
    return CommutatorTable(basis, entries, failures)


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
    """Cell-by-cell diff against the shipped transcription."""
    n = len(table.basis)
    if golden is None:
        golden = load_golden_table(n=n)
    mismatches = []
    for i in range(n):
        for j in range(n):
            got = table.entries[i][j]
            expect = [Fraction(0)] * n
            if (i, j) in golden:
                coeff, k = golden[(i, j)]
                expect[k] = coeff
            if got is None or list(got) != expect:
                mismatches.append((i, j, got, expect))
    return mismatches


def format_table(table: CommutatorTable, names=None) -> str:
    """Fixed-width text rendering of the commutator table."""
    n = len(table.basis)
    names = names or [f"v{i + 1}" for i in range(n)]

    def cell(entry):
        if entry is None:
            return "?"
        nz = [(c, k) for k, c in enumerate(entry) if c != 0]
        if not nz:
            return "0"
        return "+".join(
            (names[k] if c == 1 else f"-{names[k]}" if c == -1 else f"{c} {names[k]}")
            for c, k in nz
        ).replace("+-", "-")
    rows = [["*"] + names]
    for i in range(n):
        rows.append([names[i]] + [cell(table.entries[i][j]) for j in range(n)])
    widths = [max(len(r[c]) for r in rows) for c in range(n + 1)]
    return "\n".join(
        "  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in rows
    )
