"""One-parameter group flows of the symmetry generators.

exponentiate detects two closed-form patterns per coordinate: a
terminating Lie series (nilpotent action) and a pure scaling
V(w) = c*w.  Anything else is reported as non-closed-form rather than
approximated.  The group parameter is the symbol `eps`: a coordinate or
a transformed claim of that name is refused with ValueError, not
captured by the flow.  The comparator against the published groups
accepts a match up to a single rational reparametrization eps -> c*eps
per group.  A one-parameter group is fixed by its infinitesimal
generator, and eps -> c*eps multiplies that generator by c (Olver,
Applications of Lie Groups to Differential Equations, GTM 107, sec. 1.3),
so c is read off as the exact ratio of the two generators and then
confirmed on the maps.
"""

from __future__ import annotations

import math

from .expr import (
    Expr, Rat, Sym, add, differentiate, free_symbols, fun, jet, mul, pow_, rat,
    substitute,
)
from .jets import PDE, VectorField
from .normal import canonical, is_zero, normalize, nf_div_exact
from .numeric import sampled_residual
from .parse import ParseContext, data_lines, data_text, parse
from .verify import substituted_terms

# the longest terminating Lie series exponentiate recognizes
_MAX_NILPOTENT = 6


class NonClosedFormError(Exception):
    pass


class GroupElement:
    """Coordinate maps (x~, ..., u~) as expressions in (coords, eps)."""

    def __init__(self, maps, field: VectorField, eps: Sym):
        self.maps = tuple(maps)
        self.field = field
        self.eps = eps
        self._inverse = None

    def coords(self):
        return tuple(self.field.vars) + (jet(self.field.dep, ()),)

    def at(self, eps_value) -> dict:
        val = eps_value if isinstance(eps_value, Expr) else rat(eps_value)
        return {c: substitute(m, {self.eps: val})
                for c, m in zip(self.coords(), self.maps)}

    def inverse_maps(self):
        """The maps at -eps, computed on the first call."""
        if self._inverse is None:
            neg = mul(rat(-1), self.eps)
            self._inverse = tuple(substitute(m, {self.eps: neg}) for m in self.maps)
        return self._inverse

    def __repr__(self):
        body = ", ".join(str(canonical(m)) for m in self.maps)
        return f"<GroupElement ({body})>"


def exponentiate(V: VectorField) -> GroupElement:
    """Closed-form flow of V, or NonClosedFormError."""
    eps = Sym("eps")
    if eps in V.vars:
        raise ValueError(f"coordinate {eps} is the group parameter's name")
    maps = []
    for w in (*V.vars, jet(V.dep, ())):
        series = [w]
        cur = w
        terminated = False
        for _ in range(_MAX_NILPOTENT):
            cur = V.apply_to(cur)
            if is_zero(cur):
                terminated = True
                break
            series.append(cur)
        if terminated:
            terms = [mul(rat(1, math.factorial(k)), pow_(eps, k), s)
                     for k, s in enumerate(series)]
            maps.append(add(*terms))
            continue
        # scaling pattern: V(w) = c * w with rational c
        vw = normalize(V.apply_to(w))
        ratio = nf_div_exact(vw, normalize(w))
        if ratio is not None and not ratio.den and len(ratio.terms) == 1:
            (mono, c), = ratio.terms.items()
            if not mono:
                maps.append(mul(w, fun("exp", mul(Rat(c), eps))))
                continue
        raise NonClosedFormError(
            f"flow of coordinate {w} is neither terminating nor a scaling"
        )
    return GroupElement(maps, V, eps)


def flow_ode_residuals(g: GroupElement):
    """d(map)/d(eps) - coefficient(mapped point), one expression per coord."""
    point = dict(zip(g.coords(), g.maps))
    out = []
    for w, m in zip(g.coords(), g.maps):
        coeff = g.field.coefficient(w) if isinstance(w, Sym) else g.field.eta
        out.append(add(differentiate(m, g.eps),
                       mul(rat(-1), substitute(coeff, point))))
    return out


def satisfies_flow_ode(g: GroupElement) -> bool:
    return all(is_zero(r) for r in flow_ode_residuals(g))


def group_law_residuals(g: GroupElement):
    """Maps at eps1+eps2 minus the composition at eps1 then eps2."""
    e1, e2 = Sym("eps1"), Sym("eps2")
    combined = [substitute(m, {g.eps: add(e1, e2)}) for m in g.maps]
    first = {c: substitute(m, {g.eps: e1}) for c, m in zip(g.coords(), g.maps)}
    second = [substitute(substitute(m, {g.eps: e2}), first) for m in g.maps]
    return [add(a, mul(rat(-1), b)) for a, b in zip(combined, second)]


# ---------------------------------------------------------------------------
# transforming known solutions

def transform_solution(g: GroupElement, f: Expr) -> Expr:
    """Push a solution u = f(x, ...) forward through the group element.

    The new solution evaluated at a point equals the u-map evaluated at
    the inverse image, with u replaced by f there; requires the u-map to
    be affine in u (true for point-symmetry flows here).
    """
    if g.eps in free_symbols(f):
        raise ValueError(f"the claim uses {g.eps}, the group parameter's name")
    u0 = jet(g.field.dep, ())
    u_map = g.maps[-1]
    if not _u_affine(u_map, u0):
        raise ValueError("u-map is not affine in u")
    inv = g.inverse_maps()
    bindings = dict(zip(g.coords()[:-1], inv[:-1]))
    f_back = substitute(f, bindings)
    bindings[u0] = f_back
    return substitute(u_map, bindings)


def _u_affine(u_map: Expr, u0) -> bool:
    second = differentiate(differentiate(u_map, u0), u0)
    return is_zero(second)


def verify_group_action(g: GroupElement, f: Expr, pde, params=None,
                        samples: int = 50, tol: float = 1e-8,
                        seed: int = 0, precision: str = "dd"):
    """Numeric residual of the pushed-forward solution.

    The group parameter is sampled along with the coordinates; passes iff
    the maximal relative residual stays below tol.
    """
    terms = substituted_terms(pde.delta, transform_solution(g, f), pde.vars, pde.dep)
    worst, good = sampled_residual(terms, params or {}, samples, seed,
                                   precision, box=(0.4, 1.6))
    return {"max_rel": worst, "samples": good, "pass": worst < tol}


# ---------------------------------------------------------------------------
# comparison against the published groups

class FlowComparison:
    def __init__(self, name, rescale=None, detail=None):
        self.name = name
        self.rescale = rescale          # rational c with flow(c*eps) == published
        self.detail = detail or {}

    @property
    def consistent(self) -> bool:
        return self.rescale is not None

    def __repr__(self):
        if self.consistent:
            return f"<{self.name}: eps -> {self.rescale}*eps>"
        return f"<{self.name}: inconsistent {self.detail}>"


def load_reference_groups(pde: PDE):
    ctx = ParseContext(indep=[v.name for v in pde.vars], deps=(pde.dep,))
    out = {}
    for line in data_lines(data_text("groups_reference.txt")):
        name, rhs = (s.strip() for s in line.split("=", 1))
        out[name] = tuple(parse(p.strip(), ctx) for p in rhs.split("|"))
    return out


def compare_flow(g: GroupElement, published_maps, name="g") -> FlowComparison:
    """The rational c with flow(c*eps) == published, or an inconsistent result.

    Each coordinate proposes c as the exact quotient of its generator
    components, the eps-derivatives of the two maps at eps = 0: none when
    both vanish, nothing when the quotient is not a nonzero rational.  The
    one common c is then confirmed on the whole maps.
    """
    eps = g.eps
    at_zero = {eps: rat(0)}
    per_coord = {}
    combined = None
    for w, cm, pm in zip(g.coords(), g.maps, published_maps):
        gen_c, gen_p = (normalize(substitute(differentiate(m, eps), at_zero))
                        for m in (cm, pm))
        label = w.name if isinstance(w, Sym) else g.field.dep
        if gen_c.is_zero() and gen_p.is_zero():
            per_coord[label] = None
            continue
        q = nf_div_exact(gen_p, gen_c)
        const = q is not None and not q.den and list(q.terms) == [()]
        cset = {q.terms[()]} if const else set()
        per_coord[label] = sorted(cset)
        combined = cset if combined is None else (combined & cset)
        if not combined:
            return FlowComparison(name, None, {"per_coordinate": per_coord})
    c = 1 if combined is None else next(iter(combined))
    repl = {eps: mul(Rat(c), eps)}
    same = all(is_zero(add(substitute(cm, repl), mul(rat(-1), pm)))
               for cm, pm in zip(g.maps, published_maps))
    return FlowComparison(name, c if same else None, {"per_coordinate": per_coord})
