"""Exact rational linear algebra: one sparse reduced-row-echelon kernel.

A row is a dict (column -> number); absent columns are zero, and the
numbers may be int or Fraction.  Inside, a number is an int when
integral (`expr._q`), and every quotient is an exact `_q(Fraction(a, b))`.
Zero rows and rows equal up
to a nonzero factor are dropped first, and each new row is reduced
against the pivot rows found so far, so the result is the unique
reduced row echelon form of the row space.  Its pivot columns are the
ones greedy column-order elimination picks.
`nullspace`, `rank` and `lin_solve` read their answers off that form.
No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import _q


def _distinct_rows(rows):
    """Nonzero rows scaled to a leading 1, each line of the row space once."""
    seen = {}
    for r in rows:
        row = {j: r[j] for j in sorted(r) if r[j]}
        if row:
            lead = row[next(iter(row))]
            seen.setdefault(tuple((j, _q(Fraction(c, lead))) for j, c in row.items()))
    return [dict(key) for key in seen]


def _subtract(row, f, pivot_row):
    """row -= f * pivot_row, dropping entries that cancel."""
    for j, c in pivot_row.items():
        x = row.get(j, 0) - f * c
        if x:
            row[j] = _q(x)
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
        row = {j: _q(Fraction(c, inv)) for j, c in row.items()}
        for p in pivots.values():
            if lead in p:
                _subtract(p, p[lead], row)
        pivots[lead] = row
    return pivots


def nullspace(rows, ncols):
    """Rational basis of the right nullspace of rows over columns 0..ncols-1.

    One vector per free column f: v[f] = 1, v[c] = -R[c][f] on each pivot
    column c, scaled so the first nonzero coefficient is 1, and sorted.
    The vectors are dense lists of length ncols.
    """
    pivots = _rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = {c: -p[f] for c, p in pivots.items() if f in p}
        v[f] = 1
        lead = v[min(v)]
        basis.append([_q(Fraction(v.get(j, 0), lead)) for j in range(ncols)])
    basis.sort(key=lambda v: (tuple(i for i, x in enumerate(v) if x != 0),
                              tuple(v)))
    return basis


def rank(rows) -> int:
    return len(_rref(rows))


def lin_solve(rows, rhs, ncols):
    """One exact solution of rows * x = rhs (free unknowns at 0), or None.

    x has length ncols; with no rows it is the zero vector.
    """
    pivots = _rref([{**r, ncols: b} for r, b in zip(rows, rhs)])
    if ncols in pivots:      # a pivot in the right-hand side: 0 = 1
        return None
    return [pivots[c].get(ncols, 0) if c in pivots else 0 for c in range(ncols)]
