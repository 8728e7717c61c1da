"""Verification of cataloged solutions, reductions, ODE and Weierstrass claims.

Every verdict comes from the exact normal form.  A solution or ODE
claim needs an exact zero and is also sampled at seeded points; a
reduction and a Weierstrass claim are each decided by one exact identity
and are not sampled.  Failures are data (reports), not exceptions.
"""

from __future__ import annotations

from fractions import Fraction

from .catalog import Record, record_context, solution_context, undeclared_divisors
from .expr import (
    ZERO, Add, EvalDomainError, Expr, Jet, Sym, Ufunc, add, children, derivation,
    differentiate, free_jets, jet, mul, nodes, pow_, rat, rewrite, substitute,
)
from .jets import PDE, jet_bindings
from .normal import NF, _primitive, as_expr, canonical, is_zero, nf_div_exact, normalize
from .numeric import sampled_residual
from .parse import ParseContext, parse


class ResidualReport:
    def __init__(self, symbolic, max_rel, samples, detail=None):
        self.symbolic = symbolic          # "zero" | "nonzero" | "undecided"
        self.max_rel = max_rel
        self.samples = samples
        self.detail = detail or {}

    def __repr__(self):
        return (f"<residual {self.symbolic}; max_rel={self.max_rel:.3e} "
                f"over {self.samples} pts>")


def _check_claim(f: Expr, dep: str):
    """Refuse a claim containing jets of its own dependent variable: a jet
    is constant under symbol derivatives, so every bound term would be 0."""
    own = sorted(str(j) for j in free_jets(f) if j.dep == dep)
    if own:
        raise ValueError(f"claim contains jets of {dep}: {', '.join(own)}")


def substituted_terms(equation: Expr, f: Expr, variables, dep: str) -> list:
    """The top-level terms of equation with every jet of dep bound to the
    matching derivative of the claim f."""
    terms = children(equation) if type(equation) is Add else (equation,)
    bindings = jet_bindings(terms, {dep: f}, variables)
    return [substitute(t, bindings) for t in terms]


def residual(f: Expr, pde: PDE, params=None, points: int = 100,
             tol: float = 1e-9, seed: int = 0,
             precision: str = "double") -> ResidualReport:
    """Substitute f into the equation; decide symbolically, sample numerically.

    Unlike a reduced-equation claim, a solution is never accepted formally:
    one that holds unknown functions or unbound jets raises EvalDomainError.
    """
    rep = ode_residual(f, pde.delta, pde.vars, pde.dep, params, points, tol,
                       seed, precision)
    if rep.detail.get("formal"):
        raise EvalDomainError("solution holds unknown functions or jets; "
                              "no point can be sampled")
    return rep


# ---------------------------------------------------------------------------
# reduced equations (ODE / PDE claims with an explicit unknown)

def ode_residual(solution: Expr, equation: Expr, variables, dep: str,
                 params=None, points: int = 60, tol: float = 1e-9,
                 seed: int = 0, precision: str = "double") -> ResidualReport:
    _check_claim(solution, dep)
    terms = substituted_terms(equation, solution, variables, dep)
    symbolic = "zero" if normalize(add(*terms)).is_zero() else "undecided"
    if any(type(x) in (Ufunc, Jet) for x in nodes(*terms)):
        # formal unknown functions cannot be sampled numerically
        return ResidualReport(symbolic, 0.0, 0, {"formal": True})
    worst, good = sampled_residual(terms, params or {}, points, seed, precision)
    if symbolic == "undecided":
        symbolic = "nonzero" if worst > tol else "undecided"
    return ResidualReport(symbolic, worst, good)


def _divides_by(m: NF, condition: NF) -> bool:
    """Whether m has a negative power of an atom of a one-term condition,
    or the primitive sum of a longer condition in its denominator."""
    terms = condition.terms
    atoms = ({a for a, _ in next(iter(terms))} if len(terms) == 1
             else {as_expr(NF(_primitive(terms)[1]))})
    return any(a in atoms for a, _ in m.den) or any(
        a in atoms and e < 0 for mono in m.terms for a, e in mono)


def ode_condition(solution: Expr, equation: Expr, variables, dep: str,
                  condition: Expr):
    """Exact multiplier m with residual == m * condition, or None; None too
    when m divides by the condition, as the residual need not vanish then."""
    _check_claim(solution, dep)
    terms = substituted_terms(equation, solution, variables, dep)
    cond = normalize(condition)
    m = nf_div_exact(normalize(add(*terms)), cond)
    return None if m is None or _divides_by(m, cond) else m


# ---------------------------------------------------------------------------
# similarity-reduction checking

class ReductionReport:
    def __init__(self, matches, multiplier=None, leftover=None):
        self.matches = matches
        self.multiplier = multiplier      # canonical Expr or None
        self.leftover = leftover


class ReductionAnsatz:
    """u = prefactor * F(new vars) + shift, with inverse variable maps."""

    def __init__(self, rec: Record, pde: PDE):
        self.rec = rec
        self.new_vars = tuple(rec.get("vars").split())
        self.unknown = rec.get("unknown", "F")
        src_vars = rec.get("eqvars")
        if src_vars:
            src_ctx = ParseContext(indep=src_vars.split(),
                                   deps=(rec.get("eqdep"),))
            self.equation = parse(rec.get("equation"), src_ctx)
            self.old_vars = tuple(map(Sym, src_vars.split()))
            self.old_dep = rec.get("eqdep")
        else:
            self.equation = pde.delta
            self.old_vars = pde.vars
            self.old_dep = pde.dep
        old_names = [v.name for v in self.old_vars]
        self.octx = ParseContext(indep=old_names, deps=(self.old_dep,))
        mixed = ParseContext(indep=tuple(old_names) + self.new_vars,
                             deps=(self.old_dep,))
        self.defs = [(n, parse(txt, self.octx)) for n, txt in rec.pairs("newvar")]
        if tuple(n for n, _ in self.defs) != self.new_vars:
            raise ValueError("newvar lines must match the vars order")
        self.back = {Sym(n): parse(txt, mixed) for n, txt in rec.pairs("back")}
        self.prefactor = parse(rec.get("prefactor", "1"), self.octx)
        self.shift = parse(rec.get("shift", "0"), self.octx)
        nctx = ParseContext(indep=self.new_vars, deps=(self.unknown,))
        self.claim = parse(rec.get("reduced"), nctx)
        self.new_syms = tuple(map(Sym, self.new_vars))

    def ansatz_expr(self) -> Expr:
        f = Ufunc(self.unknown, tuple(e for _, e in self.defs))
        return add(mul(self.prefactor, f), self.shift)


def check_reduction(ans: ReductionAnsatz) -> ReductionReport:
    """Substitute the ansatz, re-express in similarity variables, compare.

    One multiplier decides: the substituted equation res matches the claim
    when m = canonical(res/claim) does not change with the unknown, that
    is when d(m)/dJ normalizes to zero for every jet J of the unknown that
    m holds; m is then the reported multiplier.
    """
    res = add(*substituted_terms(ans.equation, ans.ansatz_expr(), ans.old_vars,
                                 ans.old_dep))
    res = substitute(res, ans.back)
    res = _ufunc_slots_to_jets(res, ans.unknown, ans.new_syms)
    nres = normalize(res)
    if nres.is_zero():
        return ReductionReport(False, leftover="substitution vanished identically")
    claim = ans.claim
    if is_zero(claim):
        return ReductionReport(False, leftover="claimed equation is identically zero")
    m = canonical(mul(res, pow_(claim, -1)))
    if all(is_zero(differentiate(m, j)) for j in free_jets(m) if j.dep == ans.unknown):
        return ReductionReport(True, multiplier=m)
    return ReductionReport(False, leftover=as_expr(nres))


def _ufunc_slots_to_jets(e: Expr, name: str, new_syms) -> Expr:
    """Replace slot derivatives F^{(k...)}(args) by jets once args are the
    similarity variables themselves."""

    def leaf(x: Expr) -> Expr:
        if type(x) is not Ufunc or x.name != name:
            return x
        for a, s in zip(x.args, new_syms):
            if a != s and not is_zero(add(a, mul(rat(-1), s))):
                raise ValueError(
                    f"unknown-function argument {a} is not similarity "
                    f"variable {s.name} after the inverse substitution"
                )
        return jet(name, {s.name: k for s, k in zip(new_syms, x.dorders) if k})

    return rewrite(e, leaf)


# ---------------------------------------------------------------------------
# Weierstrass claims

_WP, _WP_S, _ZETA = Sym("wp"), Sym("wp_s"), Sym("zeta")


def weierstrass_residual(rec: Record) -> Expr:
    """The canonical residual of a Weierstrass record's reduced ODE.

    With s = mu*(q + c1) and the real surd mu = (-1/a)^(1/3), d/dq sends
    wp -> mu*wp_s, wp_s -> 6*mu*wp^2 and zeta -> -mu*wp: g2 = 0 gives
    wp'' = 6 wp^2 and zeta' = -wp whatever c1 and g3 = c2 are, so both
    cancel out (they are still read, so a malformed one is an error).
    form `p`:    f = wp/mu against 6 f^2 + a f'' = 0
    form `zeta`: H = P*zeta against 6 H'^2 + a H''' = 0, P = a*mu or a/mu,
                 which is the same ODE in f = H'.
    """
    a, _, _ = map(Fraction, (rec.get("a"), rec.get("c1", "0"), rec.get("c2", "1")))
    mu = pow_(rat(-1 / a), Fraction(1, 3))
    dq = {_WP: mul(mu, _WP_S), _WP_S: mul(rat(6), mu, pow_(_WP, 2)),
          _ZETA: mul(rat(-1), mu, _WP)}

    def d(e):
        return derivation(e, dq.__getitem__)

    if rec.get("form", "p") == "p":
        f = mul(_WP, pow_(mu, -1))
    else:
        P = {"a*mu": mul(rat(a), mu),
             "a/mu": mul(rat(a), pow_(mu, -1))}.get(rec.get("prefactor"))
        if P is None:
            raise ValueError("zeta record needs prefactor a*mu or a/mu")
        f = d(mul(P, _ZETA))
    return canonical(add(mul(rat(6), pow_(f, 2)), mul(rat(a), d(d(f)))))


# ---------------------------------------------------------------------------
# whole-catalog driver

class CatalogResult:
    def __init__(self, name, kind, status, expected_status, detail=""):
        self.name = name
        self.kind = kind
        self.status = status
        self.expected_status = expected_status
        self.detail = detail

    @property
    def ok(self) -> bool:
        return self.status == self.expected_status


def _expected_status(rec: Record) -> str:
    if rec.expected == "conditional" or rec.expected == "mismatch":
        return "flagged"
    if rec.name.endswith("-corrected"):
        return "verified-after-correction"
    return "verified"


def _claim_verdict(rec, pde, points, tol, seed, precision):
    """A closed-form claim substituted into the PDE (solution records) or
    into the record's own reduced equation (ode records)."""
    if rec.kind == "ode":
        ctx = record_context(rec)
        eqn = parse(rec.get("equation"), ctx)
        f = parse(rec.get("solution"), ctx)
        target = (eqn, tuple(map(Sym, ctx.indep)), ctx.deps[0])
        suffix = ""
    else:
        ctx = solution_context()
        f = parse(rec.get("claim"), ctx)
        target = (pde.delta, pde.vars, pde.dep)
        bad = undeclared_divisors(f, rec.nonzero(), [v.name for v in pde.vars])
        suffix = f" undeclared-divisors={','.join(bad)}" if bad else ""
    if rec.expected == "conditional":
        m = ode_condition(f, *target, parse(rec.get("condition"), ctx))
        if m is None or m.is_zero():
            return False, "residual not proportional to condition"
        return True, (f"residual = ({canonical(as_expr(m))}) * "
                      f"({rec.get('condition')})" + suffix)
    if rec.kind == "ode":
        rep = ode_residual(f, *target, rec.params(), min(points, 60), tol, seed,
                           precision)
    else:
        rep = residual(f, pde, rec.params(), points, tol, seed, precision)
    if rep.symbolic == "zero" and rep.max_rel < tol:
        holds, detail = True, f"max_rel={rep.max_rel:.2e}" + suffix
    else:
        holds, detail = False, f"symbolic={rep.symbolic} max_rel={rep.max_rel:.2e}"
    if rec.expected == "mismatch":
        if holds:
            return False, f"unexpectedly satisfies the equation, {detail}"
        return True, f"{detail} (claim fails as printed)"
    return holds, detail


def _reduction_verdict(rec, pde, points, tol, seed, precision):
    rep = check_reduction(ReductionAnsatz(rec, pde))
    if rec.expected == "mismatch":
        if rep.matches:
            return False, f"unexpected match, multiplier {rep.multiplier}"
        return True, "does not reproduce the claimed equation"
    if rep.matches:
        return True, f"multiplier = {rep.multiplier}"
    return False, f"leftover: {rep.leftover}"


def _weierstrass_verdict(rec, pde, points, tol, seed, precision):
    res = weierstrass_residual(rec)
    if rec.expected == "mismatch":
        if res == ZERO:
            return False, "unexpectedly satisfies the equation"
        return True, f"residual = {res} (claim fails as printed)"
    return res == ZERO, f"residual = {res}"


# a solution-complex record holds i, so its claim samples in double complex
_VERDICTS = {"solution": _claim_verdict, "solution-complex": _claim_verdict,
             "ode": _claim_verdict, "reduction": _reduction_verdict,
             "weierstrass": _weierstrass_verdict}


def _unknown_kind(rec, *args):
    return False, f"unknown record kind {rec.kind!r}"


def verify_record(rec: Record, pde: PDE, points=100, tol=1e-9, seed=0,
                  precision="double") -> CatalogResult:
    """The record's expected status when its kind's verdict holds, else
    falsified; any exception becomes an error row keeping its type."""
    expected = _expected_status(rec)
    try:
        verdict = _VERDICTS.get(rec.kind, _unknown_kind)
        holds, detail = verdict(rec, pde, points, tol, seed, precision)
        status = expected if holds else "falsified"
    except Exception as exc:  # report, never crash the table
        status, detail = "error", f"{type(exc).__name__}: {exc}"
    return CatalogResult(rec.name, rec.kind, status, expected, detail)


def verify_catalog(records, pde: PDE, points=100, tol=1e-9, seed=0,
                   precision="double"):
    return [verify_record(r, pde, points, tol, seed, precision) for r in records]
