"""Determining equations and their exact polynomial-ansatz solver.

The symmetry condition with generic unknown infinitesimals is restricted
to the solution manifold and split by monomials in derivative jets; each
coefficient is one linear constraint.  A degree-bounded polynomial
ansatz turns the constraints into an exact rational linear system whose
nullspace is the symmetry algebra.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .expr import (
    Expr, Jet, KIND_ANSATZ, KIND_INDEP, Rat, Sym, Ufunc,
    add, jet, mul, rat, rewrite, substitute, symbol,
)
from .jets import PDE, VectorField, jet_bindings, restrict_on_shell, symmetry_condition
from .normal import NF, as_expr, is_zero, mono_key, normalize, _primitive
from . import linalg


class DeterminingSystem:
    """Linear homogeneous constraints on the unknown infinitesimals.

    Constraints are expressions over the coordinate symbols and jet
    variables of the unknowns (xi1_x, eta_u, ...), printable in the DSL.
    """

    def __init__(self, constraints, unknowns, coords):
        self.constraints = tuple(constraints)
        self.unknowns = tuple(unknowns)
        self.coords = tuple(coords)

    def __len__(self):
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)


def unknown_names(pde: PDE):
    return tuple(f"xi{i + 1}" for i in range(len(pde.vars))) + ("eta",)


def coordinate_symbols(pde: PDE):
    """The base coordinates plus the dependent variable as a symbol."""
    return tuple(pde.vars) + (symbol(pde.dep, KIND_INDEP),)


def generic_field(pde: PDE) -> VectorField:
    args = tuple(pde.vars) + (jet(pde.dep, ()),)
    names = unknown_names(pde)
    xi = [Ufunc(n, args) for n in names[:-1]]
    eta = Ufunc(names[-1], args)
    return VectorField(xi, eta, pde.vars, pde.dep)


def _ufunc_to_jets(e: Expr, pde: PDE) -> Expr:
    """Rewrite generic-unknown slot derivatives as jet variables."""
    names = set(unknown_names(pde))
    coords = [v.name for v in pde.vars] + [pde.dep]
    u_sym = symbol(pde.dep, KIND_INDEP)

    def leaf(x: Expr) -> Expr:
        if type(x) is Ufunc and x.name in names:
            return jet(x.name, {coords[i]: k for i, k in enumerate(x.dorders) if k})
        if type(x) is Jet and x.dep == pde.dep and x.order == 0:
            return u_sym
        return x

    return rewrite(e, leaf)


def _primitive_expr(nf: NF) -> Expr:
    content, prim = _primitive(nf.terms)
    return as_expr(NF(prim, nf.den))


def extract_determining(pde: PDE) -> DeterminingSystem:
    """Coefficients of independent derivative-jet monomials, each forced to 0."""
    V = generic_field(pde)
    cond = restrict_on_shell(symmetry_condition(V, pde), pde)
    n = normalize(cond)
    groups: dict = {}
    for mono, c in n.terms.items():
        label = []
        rest = []
        for atom, e in mono:
            if type(atom) is Jet and atom.dep == pde.dep and atom.order >= 1:
                label.append((atom, e))
            else:
                rest.append((atom, e))
        key = tuple(label)
        groups.setdefault(key, {})[tuple(rest)] = (
            groups.get(key, {}).get(tuple(rest), Fraction(0)) + c
        )
    seen = {}
    for key in sorted(groups, key=mono_key):
        terms = {m: c for m, c in groups[key].items() if c}
        if not terms:
            continue
        constraint = _primitive_expr(NF(terms))
        constraint = _ufunc_to_jets(constraint, pde)
        seen.setdefault(constraint, key)
    constraints = sorted(seen, key=lambda e: str(e))
    return DeterminingSystem(constraints, unknown_names(pde), coordinate_symbols(pde))


# ---------------------------------------------------------------------------
# polynomial ansatz

class PolyAnsatz:
    """Degree-bounded polynomial forms for every unknown infinitesimal."""

    def __init__(self, sys: DeterminingSystem, degree: int):
        if degree < 1:
            raise ValueError("ansatz degree must be >= 1")
        self.degree = degree
        self.sys = sys
        self.monomials = _monomials_upto(sys.coords, degree)
        self.coeffs = []
        self.polys = {}
        for fi, name in enumerate(sys.unknowns):
            row = []
            for mi, m in enumerate(self.monomials):
                a = symbol(f"a{fi}c{mi}", KIND_ANSATZ)
                row.append(a)
                self.coeffs.append(a)
            self.polys[name] = add(*(mul(a, m) for a, m in zip(row, self.monomials)))

    def poly_with(self, name: str, values: dict) -> Expr:
        return substitute(self.polys[name], values)


@lru_cache(maxsize=None)
def _monomials_upto(coords, degree):
    out = [rat(1)]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(coords, d):
            out.append(mul(*combo))
    return tuple(out)


class SymmetryBasis:
    def __init__(self, fields, ansatz=None, vectors=None):
        self.fields = tuple(fields)
        self.dimension = len(self.fields)
        self.ansatz = ansatz
        self.vectors = vectors

    def __iter__(self):
        return iter(self.fields)

    def __len__(self):
        return self.dimension


def solve_poly_ansatz(sys: DeterminingSystem, ansatz: PolyAnsatz,
                      pde: PDE = None) -> SymmetryBasis:
    """Exact nullspace of the constraint system on the ansatz coefficients."""
    bindings = jet_bindings(sys.constraints, ansatz.polys, sys.coords)
    coeff_index = {a: i for i, a in enumerate(ansatz.coeffs)}
    ncols = len(ansatz.coeffs)
    rows: dict = {}
    for constraint in sys.constraints:
        e = substitute(constraint, bindings)
        n = normalize(e)
        for mono, c in n.terms.items():
            a_sym = None
            label = []
            for atom, q in mono:
                if type(atom) is Sym and atom.kind == KIND_ANSATZ:
                    if a_sym is not None or q != 1:
                        raise ValueError("constraint is not linear in the ansatz")
                    a_sym = atom
                else:
                    label.append((atom, q))
            if a_sym is None:
                raise ValueError("constant term in a homogeneous constraint")
            key = (constraint, tuple(label))
            row = rows.setdefault(key, [Fraction(0)] * ncols)
            row[coeff_index[a_sym]] += c
    matrix = [rows[k] for k in sorted(rows, key=lambda k: (str(k[0]), mono_key(k[1])))]
    vectors = linalg.nullspace(matrix, ncols)
    fields = []
    nvars = len(sys.coords) - 1
    for v in vectors:
        values = dict(zip(ansatz.coeffs, (Rat(x) for x in v)))
        comps = [ansatz.poly_with(name, values) for name in sys.unknowns]
        u_sym = sys.coords[-1]
        u_jet = jet((pde.dep if pde else "u"), ())
        comps = [substitute(c, {u_sym: u_jet}) for c in comps]
        fields.append(VectorField(comps[:nvars], comps[nvars],
                                  sys.coords[:nvars], pde.dep if pde else "u"))
    return SymmetryBasis(fields, ansatz, vectors)


# ---------------------------------------------------------------------------
# membership

def _field_vector(V: VectorField, keys=None):
    """Coefficient vector of a polynomial field over (slot, monomial) keys."""
    u_sym = symbol(V.dep, KIND_INDEP)
    entries = {}
    for slot, c in enumerate((*V.xi, V.eta)):
        c = substitute(c, {jet(V.dep, ()): u_sym})
        n = normalize(c)
        if n.den:
            raise ValueError("field coefficients must be polynomial")
        for mono, v in n.terms.items():
            entries[(slot, mono)] = v
    return entries


def check_membership(basis: SymmetryBasis, V: VectorField):
    """Exact rational coordinates of V in the basis, or None."""
    vecs = [_field_vector(B) for B in basis.fields]
    target = _field_vector(V)
    keys = sorted(set().union(*[set(v) for v in vecs + [target]]),
                  key=lambda k: (k[0], mono_key(k[1])))
    rows = [[v.get(k, Fraction(0)) for v in vecs] for k in keys]
    rhs = [target.get(k, Fraction(0)) for k in keys]
    coords = linalg.lin_solve(rows, rhs)
    if coords is None:
        return None
    # lin_solve zeroes free unknowns; verify exactly
    for k, row, b in zip(keys, rows, rhs):
        if sum((r * c for r, c in zip(row, coords)), Fraction(0)) != b:
            return None
    return coords


def is_symmetry(V: VectorField, pde: PDE) -> bool:
    return is_zero(restrict_on_shell(symmetry_condition(V, pde), pde))


def satisfies_system(sys: DeterminingSystem, V: VectorField) -> bool:
    """Substitute concrete infinitesimals into every constraint."""
    u_sym = symbol(V.dep, KIND_INDEP)
    polys = {}
    for name, c in zip(sys.unknowns, (*V.xi, V.eta)):
        polys[name] = substitute(c, {jet(V.dep, ()): u_sym})
    bindings = jet_bindings(sys.constraints, polys, sys.coords)
    return all(is_zero(substitute(c, bindings)) for c in sys.constraints)


def reference_system(pde: PDE) -> DeterminingSystem:
    """The published determining system, from the shipped transcription."""
    from importlib import resources
    from .parse import ParseContext, parse as parse_dsl

    text = resources.files("liesym.data").joinpath(
        "determining_reference.txt").read_text()
    names = unknown_names(pde)
    coords = [v.name for v in pde.vars] + [pde.dep]
    ctx = ParseContext(indep=coords, deps=names)
    constraints = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            constraints.append(parse_dsl(line, ctx))
    return DeterminingSystem(constraints, names, coordinate_symbols(pde))


def systems_equivalent(sys_a: DeterminingSystem, sys_b: DeterminingSystem,
                       degree: int, pde: PDE = None) -> bool:
    """Mutual implication on polynomial unknowns of bounded degree."""
    basis_a = solve_poly_ansatz(sys_a, PolyAnsatz(sys_a, degree), pde)
    basis_b = solve_poly_ansatz(sys_b, PolyAnsatz(sys_b, degree), pde)
    if basis_a.dimension != basis_b.dimension:
        return False
    return (all(satisfies_system(sys_b, V) for V in basis_a.fields)
            and all(satisfies_system(sys_a, V) for V in basis_b.fields))
