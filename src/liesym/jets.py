"""Jet-space bookkeeping: total derivatives, prolongation, on-shell work.

The prolongation coefficients come from the general recursion
eta^{J+e_i} = D_i(eta^J) - sum_k u_{J+e_k} D_i(xi^k); the closed forms a
derivation by hand would produce are used as test oracles, never as
code.
"""

from __future__ import annotations


from .expr import (
    ONE, ZERO, Expr, Jet, Rat, Sym, add, derivation, differentiate,
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
        self.order = max((j.order for j in free_jets(delta) if j.dep == dep),
                         default=0)
        self._onshell_memo: dict = {}
        self._prolong_memo: dict = {}
        self._lead_rhs = None

    def multi_index(self, j: Jet):
        """Counts of j in the declared variable order."""
        d = dict(j.idx)
        return tuple(d.get(v.name, 0) for v in self.vars)

    def __repr__(self):
        return f"<PDE {self.delta}>"


def load_pde(text: str) -> PDE:
    """Parse a PDE definition: `vars ...`, `dep ...`, `eq <expr>` lines."""
    variables = dep = eq_text = None
    for line in data_lines(text):
        head, _, rest = line.partition(" ")
        if head == "vars":
            variables = rest.split()
        elif head == "dep":
            dep = rest.strip()
        elif head == "eq":
            eq_text = rest.strip()
        else:
            raise ParseError(f"unknown PDE section {head!r}")
    if not (variables and dep and eq_text):
        raise ParseError("PDE definition needs vars, dep and eq sections")
    ctx = ParseContext(indep=variables, deps=(dep,))
    delta = parse(eq_text, ctx)
    pde = PDE(delta, tuple(map(Sym, variables)), dep)
    lead = jet(dep, {pde.evolution: 1})
    if lead not in free_jets(delta):
        raise ParseError(f"not an evolution equation: no {lead} term")
    return pde


# ---------------------------------------------------------------------------
# total derivatives

def total_derivative(e: Expr, v: Sym) -> Expr:
    """D_v e = d e/d v + sum over jets u_J of u_{J+v} * d e/d u_J, in one
    walk: the derivation that sends v to 1 and each jet u_J to u_{J+v}."""
    return derivation(e, lambda x: x.lifted(v.name) if type(x) is Jet
                      else ONE if x == v else ZERO)


def jet_bindings(exprs, funcs: dict, variables) -> dict:
    """Bind every jet in exprs whose dependent variable has an entry in
    funcs to the matching partial derivative of that entry.

    Jets are taken in sorted order of (dep, single-variable steps in j.idx
    order), so each extends the longest prefix of the previous one, kept
    on a stack: every shared prefix is derived once, and only one chain of
    prefixes is alive at a time.
    """
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
            stack.append((key[:i + 1], differentiate(stack[-1][1], var_by_name[key[i]])))
        bindings[j] = stack[-1][1]
    return bindings


class VectorField:
    """Point vector field xi^1..xi^n d/dx_i + eta d/du."""

    __slots__ = ("xi", "eta", "vars", "dep", "_h")

    def __init__(self, xi, eta: Expr, variables, dep: str = "u"):
        self.xi = tuple(xi)
        self.eta = eta
        self.vars = tuple(variables)
        self.dep = dep
        self._h = hash((self.xi, self.eta, self.vars, self.dep))
        if len(self.xi) != len(self.vars):
            raise ValueError("one xi per independent variable")

    def __hash__(self):
        return self._h

    def __eq__(self, other):
        return isinstance(other, VectorField) and (
            self.xi == other.xi and self.eta == other.eta
            and self.vars == other.vars and self.dep == other.dep
        )

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


def prolongation_coefficient(V: VectorField, index, pde: PDE) -> Expr:
    """eta^J for a multi-index given as counts in pde variable order."""
    index = tuple(int(k) for k in index)
    key = (V, index)
    got = pde._prolong_memo.get(key)
    if got is not None:
        return got
    if not any(index):
        out = V.eta
    else:
        i = next(k for k, c in enumerate(index) if c > 0)
        prev = list(index)
        prev[i] -= 1
        prev = tuple(prev)
        base = prolongation_coefficient(V, prev, pde)
        vi = pde.vars[i]
        parts = [total_derivative(base, vi)]
        for k, vk in enumerate(pde.vars):
            uk = _jet_from_counts(pde, prev, extra=vk.name)
            parts.append(mul(rat(-1), uk, total_derivative(V.xi[k], vi)))
        out = add(*parts)
    pde._prolong_memo[key] = out
    return out


def _jet_from_counts(pde: PDE, counts, extra=None) -> Jet:
    d = {v.name: c for v, c in zip(pde.vars, counts) if c}
    if extra is not None:
        d[extra] = d.get(extra, 0) + 1
    return jet(pde.dep, d)


def symmetry_condition(V: VectorField, pde: PDE) -> Expr:
    """pr^(k) V applied to delta, k = pde.order."""
    parts = []
    for v, c in zip(pde.vars, V.xi):
        dd = differentiate(pde.delta, v)
        if not (type(dd) is Rat and dd.value == 0):
            parts.append(mul(c, dd))
    for j in sorted(free_jets(pde.delta), key=lambda j: (j.order, j.idx)):
        dd = differentiate(pde.delta, j)
        eta_j = prolongation_coefficient(V, pde.multi_index(j), pde)
        parts.append(mul(eta_j, dd))
    return add(*parts)


# ---------------------------------------------------------------------------
# on-shell restriction (solve for the evolution derivative and substitute)

def _lead_rhs(pde: PDE) -> Expr:
    """u_t = rhs with delta linear in u_t."""
    if pde._lead_rhs is not None:
        return pde._lead_rhs
    lead = jet(pde.dep, {pde.evolution: 1})
    coef = differentiate(pde.delta, lead)
    if lead in free_jets(coef):
        raise ValueError("leading derivative does not appear linearly")
    rest = substitute(pde.delta, {lead: rat(0)})
    rhs = canonical(mul(rat(-1), rest, pow_(coef, -1)))
    pde._lead_rhs = rhs
    return rhs


def _onshell_jet(pde: PDE, j: Jet) -> Expr:
    """The on-shell value of a jet containing the evolution derivative."""
    got = pde._onshell_memo.get(j)
    if got is not None:
        return got
    d = dict(j.idx)
    ev = pde.evolution
    d[ev] -= 1
    if not d[ev]:
        del d[ev]
    rest = jet(pde.dep, d)
    expr = _lead_rhs(pde)
    # apply the remaining total derivatives, staying on shell throughout
    for name, count in rest.idx:
        v = next(w for w in pde.vars if w.name == name)
        for _ in range(count):
            expr = restrict_on_shell(total_derivative(expr, v), pde)
    pde._onshell_memo[j] = expr
    return expr


def restrict_on_shell(e: Expr, pde: PDE) -> Expr:
    """Substitute the evolution derivative (and its prolongations) away."""
    ev = pde.evolution
    while True:
        targets = [j for j in free_jets(e)
                   if j.dep == pde.dep and dict(j.idx).get(ev, 0) > 0]
        if not targets:
            return e
        # highest evolution order first so replacements stay consistent
        targets.sort(key=lambda j: (dict(j.idx).get(ev, 0), j.order), reverse=True)
        bindings = {j: _onshell_jet(pde, j) for j in targets}
        e = substitute(e, bindings)
