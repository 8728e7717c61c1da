"""Determining equations and their exact polynomial-ansatz solver.

The symmetry condition with generic unknown infinitesimals is restricted
to the solution manifold and split by monomials in derivative jets; each
coefficient is one linear constraint, kept as its normal-form row; the
constraints as printable expressions are built only when asked for.  A
degree-bounded polynomial ansatz turns the rows into an exact rational
linear system whose nullspace is the symmetry algebra.  The constraints
are linear in the unknowns and a derivative of a monomial is a monomial,
so the system is assembled as sparse rows straight from monomial
exponents.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from itertools import combinations_with_replacement

from .expr import Expr, Jet, Rat, Sym, Ufunc, add, jet, mul, rewrite, substitute
from .jets import PDE, VectorField, jet_bindings, restrict_on_shell, symmetry_condition
from .normal import NF, as_expr, is_zero, mono_key, normalize, _mono, _primitive
from . import linalg


class DeterminingSystem:
    """Linear homogeneous constraints on the unknown infinitesimals.

    `rows` holds one normal-form term map {monomial: coefficient} per
    constraint, over the coordinate symbols and the jet variables of the
    unknowns (xi1_x, eta_u, ...).  `constraints`, the same rows as
    expressions printable in the DSL and sorted by text, is built on first
    use.
    """

    def __init__(self, rows, unknowns, coords):
        self.rows = tuple(rows)
        self.unknowns = tuple(unknowns)
        self.coords = tuple(coords)

    @classmethod
    def of(cls, constraints, unknowns, coords):
        """The system whose constraints are these expressions.

        A row is a constraint's normal-form numerator: the constraint
        vanishes exactly where that does."""
        return cls((normalize(c).terms for c in constraints), unknowns, coords)

    @cached_property
    def constraints(self):
        return tuple(sorted((as_expr(NF(r)) for r in self.rows), key=str))

    def __len__(self):
        return len(self.rows)


def unknown_names(pde: PDE):
    """xi1..xin and eta, in upper case when the dependent variable takes
    one of these names: an unknown's jets must not be the variable's."""
    names = tuple(f"xi{i + 1}" for i in range(len(pde.vars))) + ("eta",)
    return tuple(n.upper() for n in names) if pde.dep in names else names


def coordinate_symbols(pde: PDE):
    """The base coordinates plus the dependent variable as a symbol."""
    return tuple(pde.vars) + (Sym(pde.dep),)


def generic_field(pde: PDE) -> VectorField:
    args = tuple(pde.vars) + (jet(pde.dep, ()),)
    names = unknown_names(pde)
    xi = [Ufunc(n, args) for n in names[:-1]]
    eta = Ufunc(names[-1], args)
    return VectorField(xi, eta, pde.vars, pde.dep)


def extract_determining(pde: PDE) -> DeterminingSystem:
    """Coefficients of independent derivative-jet monomials, each forced to 0.

    Every atom of the on-shell condition is renamed first, at every depth:
    an unknown's slot derivative becomes its jet variable and the order-0
    jet of the dependent variable becomes its symbol.  The renamed
    condition is normalized once, its terms are grouped by their jets of
    the dependent variable, and each group is made primitive.
    """
    names = set(unknown_names(pde))
    coords = [v.name for v in pde.vars] + [pde.dep]
    u_sym = Sym(pde.dep)

    def leaf(x: Expr) -> Expr:
        if type(x) is Ufunc and x.name in names:
            return jet(x.name, {coords[i]: k for i, k in enumerate(x.dorders) if k})
        if type(x) is Jet and x.dep == pde.dep and x.order == 0:
            return u_sym
        return x

    V = generic_field(pde)
    cond = rewrite(restrict_on_shell(symmetry_condition(V, pde), pde), leaf)
    groups: dict = {}
    for mono, c in normalize(cond).terms.items():
        label = []
        rest = []
        for atom, e in mono:
            if type(atom) is Jet and atom.dep == pde.dep:
                label.append((atom, e))
            else:
                rest.append((atom, e))
        groups.setdefault(tuple(label), {})[tuple(rest)] = c
    rows: dict = {}
    for key in sorted(groups, key=mono_key):
        row = _primitive(groups[key])[1]
        rows.setdefault(frozenset(row.items()), row)
    return DeterminingSystem(rows.values(), unknown_names(pde), coordinate_symbols(pde))


# ---------------------------------------------------------------------------
# polynomial ansatz

class SymmetryBasis:
    def __init__(self, fields, vectors=None):
        self.fields = tuple(fields)
        self.dimension = len(self.fields)
        self.vectors = vectors

    def __len__(self):
        return self.dimension


def solve_poly_ansatz(sys: DeterminingSystem, degree: int) -> SymmetryBasis:
    """Exact nullspace of the constraint system on polynomial unknowns of
    degree at most `degree`.

    The last coordinate of sys names the dependent variable.  The ansatz
    monomials are exponent tuples over sys.coords: 1, then each degree in
    combinations_with_replacement order; column f * len(monomials) + m
    holds the coefficient of monomial m in unknown f.

    Every normal-form term of a constraint is c * rest * f_J for exactly one
    unknown jet f_J.  The J-th derivative of the ansatz monomial x^e is
    prod(perm(e_i, J_i)) * x^(e - J), so the term adds that multiple of c to
    column (f, e) of the row keyed by (constraint, rest * x^(e - J)).
    """
    if degree < 1:
        raise ValueError("ansatz degree must be >= 1")
    axes = range(len(sys.coords))
    monomials = [tuple(map(combo.count, axes)) for d in range(degree + 1)
                 for combo in combinations_with_replacement(axes, d)]
    unknowns = {name: i for i, name in enumerate(sys.unknowns)}
    names = [s.name for s in sys.coords]
    nmono = len(monomials)
    derived: dict = {}  # J -> [(m, scale, e - J)] over the monomials J leaves nonzero
    rows: dict = {}
    for k, terms in enumerate(sys.rows):
        for mono, c in terms.items():
            rest = dict(mono)
            fjets = [a for a in rest if type(a) is Jet and a.dep in unknowns]
            if not fjets:
                raise ValueError("constant term in a homogeneous constraint")
            if len(fjets) > 1 or rest.pop(fjets[0]) != 1:
                raise ValueError("constraint is not linear in the unknowns")
            J = dict(fjets[0].idx)
            order = tuple(J.get(n, 0) for n in names)
            if order not in derived:
                derived[order] = [(m, scale, tuple(map(operator.sub, e, order)))
                                  for m, e in enumerate(monomials)
                                  if (scale := math.prod(map(math.perm, e, order)))]
            base = unknowns[fjets[0].dep] * nmono
            for m, scale, shift in derived[order]:
                entries = dict(rest)
                for s, d in zip(sys.coords, shift):
                    entries[s] = entries.get(s, 0) + d
                row = rows.setdefault((k, _mono(entries)), {})
                row[base + m] = row.get(base + m, 0) + c * scale
    ncols = len(sys.unknowns) * nmono
    vectors = linalg.nullspace(list(rows.values()), ncols)
    dep = sys.coords[-1].name
    nvars = len(sys.coords) - 1
    atoms = (*sys.coords[:nvars], jet(dep, ()))
    monos = [mul(*(a for a, n in zip(atoms, e) for _ in range(n)))
             for e in monomials]
    fields = []
    for v in vectors:
        comps = [add(*(mul(Rat(x), m) for x, m in zip(v[f:f + nmono], monos) if x))
                 for f in range(0, ncols, nmono)]
        fields.append(VectorField(comps[:nvars], comps[nvars], sys.coords[:nvars], dep))
    return SymmetryBasis(fields, vectors)


# ---------------------------------------------------------------------------
# membership

def _field_vector(V: VectorField):
    """Coefficients of a polynomial field, keyed by (slot, monomial)."""
    u_sym = Sym(V.dep)
    entries = {}
    for slot, c in enumerate((*V.xi, V.eta)):
        c = substitute(c, {jet(V.dep, ()): u_sym})
        n = normalize(c)
        if n.den:
            raise ValueError("field coefficients must be polynomial")
        for mono, v in n.terms.items():
            entries[(slot, mono)] = v
    return entries


def membership_rows(basis: SymmetryBasis) -> dict:
    """The basis's side of the membership system: one row {basis index:
    coefficient} per (slot, monomial) key."""
    rows: dict = {}
    for i, B in enumerate(basis.fields):
        for key, c in _field_vector(B).items():
            rows.setdefault(key, {})[i] = c
    return rows


def check_membership(basis: SymmetryBasis, V: VectorField, rows=None):
    """Exact rational coordinates of V in the basis, or None; rows are
    `membership_rows(basis)`, which a caller testing many fields builds
    once.  The kernel's exact RREF makes any solution it returns true."""
    rows = membership_rows(basis) if rows is None else rows
    target = _field_vector(V)
    keys = [*rows, *(k for k in target if k not in rows)]
    return linalg.lin_solve([rows.get(k, {}) for k in keys],
                            [target.get(k, 0) for k in keys], len(basis.fields))


def is_symmetry(V: VectorField, pde: PDE) -> bool:
    return is_zero(restrict_on_shell(symmetry_condition(V, pde), pde))


def satisfies_system(sys: DeterminingSystem, V: VectorField) -> bool:
    """Substitute concrete infinitesimals into every constraint."""
    u_sym = Sym(V.dep)
    polys = {}
    for name, c in zip(sys.unknowns, (*V.xi, V.eta)):
        polys[name] = substitute(c, {jet(V.dep, ()): u_sym})
    bindings = jet_bindings(sys.constraints, polys, sys.coords)
    return all(is_zero(substitute(c, bindings)) for c in sys.constraints)


def reference_system(pde: PDE) -> DeterminingSystem:
    """The published determining system, from the shipped transcription."""
    from .parse import ParseContext, data_lines, data_text, parse as parse_dsl

    names = unknown_names(pde)
    coords = [v.name for v in pde.vars] + [pde.dep]
    ctx = ParseContext(indep=coords, deps=names)
    constraints = [parse_dsl(line, ctx)
                   for line in data_lines(data_text("determining_reference.txt"))]
    return DeterminingSystem.of(constraints, names, coordinate_symbols(pde))


def systems_equivalent(sys_a: DeterminingSystem, sys_b: DeterminingSystem,
                       degree: int) -> bool:
    """Mutual implication on polynomial unknowns of bounded degree: each
    nullspace basis is read off the unique RREF of a matrix with the same
    columns, so the bases are equal exactly when the solution spaces are."""
    return (sys_a.coords == sys_b.coords
            and solve_poly_ansatz(sys_a, degree).vectors
            == solve_poly_ansatz(sys_b, degree).vectors)
