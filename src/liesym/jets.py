"""Jet-space bookkeeping: total derivatives, prolongation, on-shell work.

Every derivative along a multi-index is taken by `jet_bindings`.  The
prolongation coefficients come from the characteristic form (Olver,
GTM 107, Thm 2.36): eta^J = D_J(Q) + sum_i xi^i u_{J+i}, where
Q = eta - sum_i xi^i u_i.  The recursion
eta^{J+e_i} = D_i(eta^J) - sum_k u_{J+e_k} D_i(xi^k), and the closed forms
a derivation by hand would produce, are test oracles, never code.
"""

from __future__ import annotations

from .expr import (
    MINUS_ONE, ONE, ZERO, Expr, Jet, Sym, add, derivation, differentiate,
    free_jets, jet, mul, pow_, rat, substitute,
)
from .normal import canonical, is_zero
from .parse import ParseContext, ParseError, data_lines, parse


class PDE:
    """An evolution equation delta = 0 with one dependent variable."""

    def __init__(self, delta: Expr, variables, dep: str, evolution: str = "t"):
        self.delta = delta
        self.vars = tuple(variables)
        self.dep = dep
        self.evolution = evolution
        self._lead_rhs = None

    def __repr__(self):
        return f"<PDE {self.delta}>"


def load_pde(text: str) -> PDE:
    """Parse a PDE definition: `vars ...`, `dep ...`, `eq <expr>` lines,
    each once; the variables are distinct, and dep is none of them.  A fault
    is a ParseError at its line and column in text."""
    sections, at = {}, {}  # head -> its text, and the line and column it starts at
    for no, raw in enumerate(text.splitlines(), 1):
        for line in data_lines(raw):
            head, _, rest = line.partition(" ")
            col = raw.index(line) + 1
            if head not in ("vars", "dep", "eq"):
                raise ParseError(f"unknown PDE section {head!r}", no, col)
            if head in sections:
                raise ParseError(f"repeated PDE section {head!r}", no, col)
            sections[head] = rest.strip()
            at[head] = no, col + len(line) - len(rest.lstrip())
    variables, dep, eq_text = (sections.get(k) for k in ("vars", "dep", "eq"))
    if not (variables and dep and eq_text):
        raise ParseError("PDE definition needs vars, dep and eq sections")
    variables = variables.split()
    if len(set(variables)) < len(variables):
        raise ParseError("repeated variable in the vars section", *at["vars"])
    if dep in variables:
        raise ParseError(f"dependent variable {dep!r} is also an independent one", *at["dep"])
    ctx = ParseContext(indep=variables, deps=(dep,))
    try:
        delta = parse(eq_text, ctx)
    except ParseError as exc:  # eq_text is one line, starting at at["eq"]
        no, col = at["eq"]
        raise ParseError(exc.msg, no, col + exc.col - 1, exc.expected) from None
    pde = PDE(delta, tuple(map(Sym, variables)), dep)
    lead = jet(dep, {pde.evolution: 1})
    if lead not in free_jets(delta):
        raise ParseError(f"not an evolution equation: no {lead} term", *at["eq"])
    return pde


# ---------------------------------------------------------------------------
# total derivatives

def total_derivative(e: Expr, v: Sym) -> Expr:
    """D_v e = d e/d v + sum over jets u_J of u_{J+v} * d e/d u_J, in one
    walk: the derivation that sends v to 1 and each jet u_J to u_{J+v}."""
    return derivation(e, lambda x: x.lifted(v.name) if type(x) is Jet
                      else ONE if x == v else ZERO)


def jet_bindings(exprs, funcs: dict, variables, derivative=None) -> dict:
    """Bind every jet in exprs whose dependent variable has an entry in
    funcs to the matching derivative of that entry, taken one variable at
    a time by derivative(e, v) (default: the partial derivative).

    Jets are taken in sorted order of (dep, single-variable steps in j.idx
    order), so each extends the longest prefix of the previous one, kept
    on a stack: every shared prefix is derived once, and only one chain of
    prefixes is alive at a time.
    """
    derivative = derivative or differentiate
    var_by_name = {v.name: v for v in variables}
    wanted = {(j.dep, *(n for n, c in j.idx for _ in range(c))): j
              for e in exprs for j in free_jets(e) if j.dep in funcs}
    bindings, stack = {}, []
    for key, j in sorted(wanted.items()):
        while stack and key[:len(stack[-1][0])] != stack[-1][0]:
            stack.pop()
        if not stack:
            stack.append((key[:1], funcs[key[0]]))
        for i in range(len(stack[-1][0]), len(key)):
            stack.append((key[:i + 1], derivative(stack[-1][1], var_by_name[key[i]])))
        bindings[j] = stack[-1][1]
    return bindings


class VectorField:
    """Point vector field xi^1..xi^n d/dx_i + eta d/du."""

    __slots__ = ("xi", "eta", "vars", "dep")

    def __init__(self, xi, eta: Expr, variables, dep: str = "u"):
        self.xi = tuple(xi)
        self.eta = eta
        self.vars = tuple(variables)
        self.dep = dep
        if len(self.xi) != len(self.vars):
            raise ValueError("one xi per independent variable")

    def coefficient(self, coord) -> Expr:
        """Coefficient for a coordinate symbol or the dependent variable."""
        if isinstance(coord, Jet) or coord == self.dep:
            return self.eta
        for v, c in zip(self.vars, self.xi):
            if v == coord or v.name == coord:
                return c
        raise KeyError(coord)

    def apply_to(self, f: Expr) -> Expr:
        """Act as a first-order differential operator on f(x..., u)."""
        u0 = jet(self.dep, ())
        parts = [mul(c, differentiate(f, v)) for v, c in zip(self.vars, self.xi)]
        parts.append(mul(self.eta, differentiate(f, u0)))
        return add(*parts)

    def scaled(self, c) -> "VectorField":
        c = rat(c) if not isinstance(c, Expr) else c
        return VectorField([mul(c, q) for q in self.xi], mul(c, self.eta),
                           self.vars, self.dep)

    def plus(self, other: "VectorField") -> "VectorField":
        return VectorField([add(a, b) for a, b in zip(self.xi, other.xi)],
                           add(self.eta, other.eta), self.vars, self.dep)

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.xi) and is_zero(self.eta)

    def __repr__(self):
        coeffs = ", ".join(str(canonical(c)) for c in (*self.xi, self.eta))
        return f"<VectorField ({coeffs})>"


def _prolonged(V: VectorField, exprs, pde: PDE) -> dict:
    """eta^J for every jet u_J in exprs: D_J(Q) + sum_i xi^i u_{J+i}, where
    Q = eta - sum_i xi^i u_i is the characteristic of V."""
    u = jet(pde.dep, ())
    q = add(V.eta, *(mul(MINUS_ONE, c, u.lifted(v.name)) for v, c in zip(pde.vars, V.xi)))
    dq = jet_bindings(exprs, {pde.dep: q}, pde.vars, total_derivative)
    return {j: add(d, *(mul(c, j.lifted(v.name)) for v, c in zip(pde.vars, V.xi)))
            for j, d in dq.items()}


def prolongation_coefficient(V: VectorField, index, pde: PDE) -> Expr:
    """eta^J for a multi-index given as counts in pde variable order."""
    j = jet(pde.dep, {v.name: int(k) for v, k in zip(pde.vars, index)})
    return _prolonged(V, [j], pde)[j]


def symmetry_condition(V: VectorField, pde: PDE) -> Expr:
    """pr V applied to delta: sum_i xi^i d delta/dx_i + sum_J eta^J d delta/du_J."""
    eta = _prolonged(V, [pde.delta], pde)
    return add(*(mul(c, differentiate(pde.delta, v)) for v, c in zip(pde.vars, V.xi)),
               *(mul(e, differentiate(pde.delta, j)) for j, e in eta.items()))


# ---------------------------------------------------------------------------
# on-shell restriction (solve for the evolution derivative and substitute)

def _lead_rhs(pde: PDE) -> Expr:
    """u_t = rhs with delta linear in u_t and rhs free of evolution
    derivatives, so one substitution restricts to the shell."""
    if pde._lead_rhs is not None:
        return pde._lead_rhs
    lead = jet(pde.dep, {pde.evolution: 1})
    coef = differentiate(pde.delta, lead)
    if lead in free_jets(coef):
        raise ValueError("leading derivative does not appear linearly")
    rest = substitute(pde.delta, {lead: rat(0)})
    rhs = canonical(mul(rat(-1), rest, pow_(coef, -1)))
    if _evolution_jets(rhs, pde):
        raise ValueError(f"solving for {lead} leaves another {pde.evolution}-derivative")
    pde._lead_rhs = rhs
    return rhs


def _evolution_jets(e: Expr, pde: PDE) -> list:
    return [j for j in free_jets(e) if j.dep == pde.dep and dict(j.idx).get(pde.evolution)]


def restrict_on_shell(e: Expr, pde: PDE) -> Expr:
    """Substitute each u_{J+t} by D_J(rhs), with u_t = rhs.  rhs holds no
    t-derivative, so only a D_t step leaves the shell, and it is restricted
    as it is taken."""
    ev = pde.evolution
    targets = {j: j.lifted(ev, -1) for j in _evolution_jets(e, pde)}
    if not targets:
        return e

    def step(f: Expr, v: Sym) -> Expr:
        d = total_derivative(f, v)
        return restrict_on_shell(d, pde) if v.name == ev else d

    on_shell = jet_bindings(targets.values(), {pde.dep: _lead_rhs(pde)}, pde.vars, step)
    return substitute(e, {j: on_shell[k] for j, k in targets.items()})
