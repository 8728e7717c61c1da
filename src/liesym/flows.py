"""One-parameter group flows of the symmetry generators.

exponentiate detects two closed-form patterns per coordinate: a
terminating Lie series (nilpotent action) and a pure scaling
V(w) = c*w.  Anything else is reported as non-closed-form rather than
approximated.  The comparator against the published groups accepts a
match up to a single rational reparametrization eps -> c*eps per group,
since a one-parameter group is parametrization independent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from importlib import resources

from .expr import (
    Expr, Fun, KIND_GROUP, Rat, Sym, _q, _rat_exact_pow, add, differentiate,
    free_symbols, fun, jet, mul, pow_, rat, substitute, symbol,
)
from .jets import PDE, VectorField
from .normal import NF, canonical, is_zero, normalize, nf_div_exact
from .parse import ParseContext, parse


class NonClosedFormError(Exception):
    pass


EPS_NAME = "eps"


def _eps() -> Sym:
    return symbol(EPS_NAME, KIND_GROUP)


class GroupElement:
    """Coordinate maps (x~, ..., u~) as expressions in (coords, eps)."""

    def __init__(self, maps, field: VectorField, eps: Sym):
        self.maps = tuple(maps)
        self.field = field
        self.eps = eps

    def coords(self):
        return tuple(self.field.vars) + (jet(self.field.dep, ()),)

    def at(self, eps_value) -> dict:
        val = eps_value if isinstance(eps_value, Expr) else rat(eps_value)
        return {c: substitute(m, {self.eps: val})
                for c, m in zip(self.coords(), self.maps)}

    def inverse_maps(self):
        neg = mul(rat(-1), self.eps)
        return tuple(substitute(m, {self.eps: neg}) for m in self.maps)

    def __repr__(self):
        body = ", ".join(str(canonical(m)) for m in self.maps)
        return f"<GroupElement ({body})>"


def exponentiate(V: VectorField, max_nilpotent: int = 6) -> GroupElement:
    """Closed-form flow of V, or NonClosedFormError."""
    eps = _eps()
    maps = []
    for w in (*V.vars, jet(V.dep, ())):
        series = [w]
        cur = w
        terminated = False
        for _ in range(max_nilpotent):
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
    e1 = symbol("eps1", KIND_GROUP)
    e2 = symbol("eps2", KIND_GROUP)
    combined = [substitute(m, {g.eps: add(e1, e2)}) for m in g.maps]
    first = {c: substitute(m, {g.eps: e1}) for c, m in zip(g.coords(), g.maps)}
    second = [substitute(substitute(m, {g.eps: e2}), first) for m in g.maps]
    return [add(a, mul(rat(-1), b)) for a, b in zip(combined, second)]


def satisfies_group_law(g: GroupElement) -> bool:
    return all(is_zero(r) for r in group_law_residuals(g))


# ---------------------------------------------------------------------------
# transforming known solutions

def transform_solution(g: GroupElement, f: Expr) -> Expr:
    """Push a solution u = f(x, ...) forward through the group element.

    The new solution evaluated at a point equals the u-map evaluated at
    the inverse image, with u replaced by f there; requires the u-map to
    be affine in u (true for point-symmetry flows here).
    """
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
    from .verify import _numeric_residual, substituted_terms

    terms = substituted_terms(pde.delta, transform_solution(g, f), pde.vars, pde.dep)
    worst, good = _numeric_residual(terms, params or {}, samples, seed,
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
    text = resources.files("liesym.data").joinpath("groups_reference.txt").read_text()
    ctx = ParseContext(indep=[v.name for v in pde.vars], deps=(pde.dep,),
                       kinds={EPS_NAME: KIND_GROUP})
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        name, rhs = (s.strip() for s in line.split("=", 1))
        out[name] = tuple(parse(p.strip(), ctx) for p in rhs.split("|"))
    return out


def _coordinate_rescale(computed: Expr, published: Expr, w, eps) -> "set | None":
    """Set of rational c with computed(eps -> c*eps) == published.

    None means 'any c works' (identity coordinate); an empty set means no
    rational reparametrization can match.
    """
    delta_pub = normalize(add(published, mul(rat(-1), w)))
    delta_cmp = normalize(add(computed, mul(rat(-1), w)))
    if delta_pub.is_zero() and delta_cmp.is_zero():
        return None
    if delta_pub.is_zero() or delta_cmp.is_zero():
        return set()
    # scaling form: w * exp(a*eps); exp canonicalization stores exp(eps)^a
    scale_cmp = _scaling_exponent(computed, w, eps)
    scale_pub = _scaling_exponent(published, w, eps)
    if scale_cmp is not None or scale_pub is not None:
        if scale_cmp is None or scale_pub is None or scale_cmp == 0:
            return set()
        return {_q(Fraction(scale_pub, scale_cmp))}
    # polynomial form: match eps-power coefficients
    pc = _eps_poly(delta_pub, eps)
    cc = _eps_poly(delta_cmp, eps)
    if pc is None or cc is None or set(pc) != set(cc):
        return set()
    cands = None
    for k in sorted(pc):
        r = nf_div_exact(pc[k], cc[k])
        if r is None or r.den or len(r.terms) != 1:
            return set()
        (mono, val), = r.terms.items()
        if mono:
            return set()
        # val must equal c^k
        c = _rat_exact_pow(val, Fraction(1, k))
        if c is None:
            return set()
        cands = {c} if cands is None else (cands & {c})
        if not cands:
            return set()
    return cands if cands is not None else set()


def _scaling_exponent(m: Expr, w, eps):
    """a when m == w*exp(a*eps), else None."""
    q = nf_div_exact(normalize(m), normalize(w))
    if q is None or q.den or len(q.terms) != 1:
        return None
    (mono, c), = q.terms.items()
    if c != 1 or len(mono) != 1:
        return None
    atom, expo = mono[0]
    if type(atom) is Fun and atom.fn == "exp" and atom.arg == eps:
        return expo
    return None


def _eps_poly(nf: NF, eps):
    """Coefficients by eps power, as normal forms; None if eps is not polynomial."""
    if nf.den:
        return None
    out: dict = {}
    for mono, c in nf.terms.items():
        k = 0
        rest = []
        for atom, e in mono:
            if atom == eps:
                if e.denominator != 1 or e < 0:
                    return None
                k = int(e)
            else:
                if type(atom) is Fun and eps in free_symbols(atom.arg):
                    return None
                rest.append((atom, e))
        cur = out.setdefault(k, NF({}))
        cur.terms[tuple(rest)] = cur.terms.get(tuple(rest), 0) + c
    return {k: NF(dict(v.terms)) for k, v in out.items() if v.terms}


def compare_flow(g: GroupElement, published_maps, name="g") -> FlowComparison:
    eps = g.eps
    per_coord = {}
    combined = None
    for w, cm, pm in zip(g.coords(), g.maps, published_maps):
        cset = _coordinate_rescale(cm, pm, w, eps)
        label = w.name if isinstance(w, Sym) else g.field.dep
        per_coord[label] = (None if cset is None else sorted(cset))
        if cset is None:
            continue
        combined = cset if combined is None else (combined & cset)
        if not combined:
            return FlowComparison(name, None, {"per_coordinate": per_coord})
    if combined is None:
        # all identity coordinates: published equals the flow for any eps
        return FlowComparison(name, 1, {"per_coordinate": per_coord})
    if len(combined) == 1:
        c = next(iter(combined))
        # confirm globally
        repl = {eps: mul(Rat(c), eps)}
        for cm, pm in zip(g.maps, published_maps):
            if not is_zero(add(substitute(cm, repl), mul(rat(-1), pm))):
                return FlowComparison(name, None, {"per_coordinate": per_coord})
        return FlowComparison(name, c, {"per_coordinate": per_coord})
    return FlowComparison(name, None, {"per_coordinate": per_coord})
