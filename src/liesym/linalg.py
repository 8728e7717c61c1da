"""Exact rational linear algebra: one sparse reduced-row-echelon kernel.

Rows are held as dicts (column -> nonzero Fraction).  Zero rows and rows
equal up to a nonzero factor are dropped while the input is converted,
and each new row is reduced against the pivot rows found so far, so the
result is the unique reduced row echelon form of the row space.  Its
pivot columns are the ones greedy column-order elimination picks.
`nullspace`, `rank` and `lin_solve` read their answers off that form.
No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count


def _distinct_rows(rows):
    """Nonzero rows scaled to a leading 1, each line of the row space once."""
    seen = {}
    for r in rows:
        # inputs are ~99% zeros: compress filters them faster than enumerate
        row = {j: Fraction(r[j]) for j in compress(count(), r)}
        if row:
            lead = row[next(iter(row))]
            seen.setdefault(tuple((j, c / lead) for j, c in row.items()), None)
    return [dict(key) for key in seen]


def _subtract(row, f, pivot_row):
    """row -= f * pivot_row, dropping entries that cancel."""
    for j, c in pivot_row.items():
        x = row.get(j, 0) - f * c
        if x:
            row[j] = x
        else:
            del row[j]


def _rref(rows) -> dict:
    """Reduced row echelon form: {pivot column: row with a 1 there}.

    Every pivot row is zero in every other pivot column, so a new row is
    reduced by one pass over the pivot columns it touches.
    """
    pivots = {}
    for row in _distinct_rows(rows):
        for c in [c for c in row if c in pivots]:
            _subtract(row, row[c], pivots[c])
        if not row:
            continue
        lead = min(row)
        inv = row[lead]
        row = {j: c / inv for j, c in row.items()}
        for p in pivots.values():
            if lead in p:
                _subtract(p, p[lead], row)
        pivots[lead] = row
    return pivots


def nullspace(rows, ncols=None):
    """Rational basis of the right nullspace of the row list.

    One vector per free column f: v[f] = 1, v[c] = -R[c][f] on each pivot
    column c, scaled so the first nonzero coefficient is 1, and sorted.
    """
    if rows:
        ncols = ncols or len(rows[0])
    pivots = _rref(rows)
    basis = []
    for f in range(ncols or 0):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for c, p in pivots.items():
            if f in p:
                v[c] = -p[f]
        lead = next(x for x in v if x != 0)
        basis.append([x / lead for x in v])
    basis.sort(key=lambda v: (tuple(i for i, x in enumerate(v) if x != 0),
                              tuple(v)))
    return basis


def rank(rows) -> int:
    return len(_rref(rows))


def lin_solve(rows, rhs):
    """One exact solution of rows * x = rhs (free unknowns at 0), or None."""
    if not rows:
        return []
    cols = len(rows[0])
    pivots = _rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if cols in pivots:      # a pivot in the right-hand side: 0 = 1
        return None
    x = [Fraction(0)] * cols
    for c, p in pivots.items():
        x[c] = p.get(cols, Fraction(0))
    return x
