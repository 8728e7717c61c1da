"""Residual checks, reduction checking, ODE claims, the shipped catalog."""

from fractions import Fraction

import pytest

from liesym import add, is_zero, mul, parse, rat, to_text
from liesym.catalog import (
    Record, load_catalog, parse_catalog, solution_context,
    undeclared_divisors,
)
from liesym.expr import EvalDomainError, Sym, pow_
from liesym.parse import ParseContext
from liesym.verify import (
    ReductionAnsatz, check_reduction, ode_condition, ode_residual, residual,
    verify_catalog, verify_record, weierstrass_residual,
)
from liesym.normal import canonical, nf_pow, normalize
from liesym import numeric
from liesym.numeric import sampled_residual


@pytest.fixture(scope="module")
def records():
    return load_catalog()


@pytest.fixture(scope="module")
def by_name(records):
    return {r.name: r for r in records}


class TestResidual:
    def test_separable_rational(self, pde):
        rep = residual(parse("x*y/(6*t)"), pde, points=30)
        assert rep.symbolic == "zero" and rep.max_rel < 1e-9

    def test_kink_symbolic_zero(self, pde):
        f = parse("c1*tanh(c1*x - 4*c3*c1^2*y + c3*z + c4) + c5")
        rep = residual(f, pde, points=20)
        assert rep.symbolic == "zero"

    def test_arbitrary_function_of_x(self, pde):
        rep = residual(parse("tanh(x)^3 + x^2"), pde, points=10)
        assert rep.symbolic == "zero"

    def test_negative_control(self, pde):
        rep = residual(parse("x*y/(6*t) + x/1000"), pde, points=30)
        assert rep.symbolic == "nonzero"
        assert rep.max_rel > 1e-9

    def test_conditional_residual(self, pde):
        ctx = solution_context()
        f = parse("2*k^2/(alpha1*k + 2*(a*x + b*y))", ctx)
        cond = parse("k^2 - a", ctx)
        m = ode_condition(f, pde.delta, pde.vars, pde.dep, cond)
        assert m is not None and not m.is_zero()


class TestOdeResidual:
    def _setup(self, eq_text, sol_text, variables=("w",), dep="R"):
        ctx = ParseContext(indep=variables, deps=(dep,))
        eq = parse(eq_text, ctx)
        sol = parse(sol_text, ctx)
        syms = tuple(Sym(v) for v in variables)
        return eq, sol, syms, dep

    def test_third_order_constant(self):
        eq, sol, syms, dep = self._setup(
            "w^2*R_www - R_w*(-6*w*R_w + 6*R + w^2)", "alpha1")
        assert ode_residual(sol, eq, syms, dep).symbolic == "zero"

    def test_third_order_parabola(self):
        eq, sol, syms, dep = self._setup(
            "w^2*R_www - R_w*(-6*w*R_w + 6*R + w^2)", "w^2/6")
        assert ode_residual(sol, eq, syms, dep).symbolic == "zero"

    def test_first_integral_branches(self):
        for sign in ("+", "-"):
            eq, sol, syms, dep = self._setup(
                "2*f^3 - k^2*f_q^2/2", f"4*k^2/(c1*k {sign} 2*q)^2",
                variables=("q",), dep="f")
            assert ode_residual(sol, eq, syms, dep).symbolic == "zero"

    def test_branch_condition_reported(self, pde):
        # the printed rational pair satisfies the reduced equation only
        # when k^2 - a = 0
        ctx = ParseContext(indep=("r", "s"), deps=("G",))
        eq = parse("6*G_s*G_r + G_rrs", ctx)
        sol = parse("2*k^2/(alpha1*k + 2*(a*r + b*s))", ctx)
        cond = parse("k^2 - a", ctx)
        syms = tuple(Sym(v) for v in ("r", "s"))
        m = ode_condition(sol, eq, syms, "G", cond)
        assert m is not None and not m.is_zero()

    @pytest.mark.parametrize("condition", ["k", "k^2*b", "(k + 1)^(1/2)"])
    def test_multiplier_dividing_a_monomial_condition_is_refused(self, condition):
        # R = 2*w leaves the residual 1 = k^(-1) * k: it does not vanish
        # at k = 0, so the condition does not explain it
        eq, sol, syms, dep = self._setup("R_w - 1", "2*w")
        cond = parse(condition, ParseContext(indep=("w",), deps=("R",)))
        assert ode_condition(sol, eq, syms, dep, cond) is None

    def test_multiplier_dividing_a_sum_condition_is_refused(self, monkeypatch):
        # a single-monomial quotient does not put the condition's own sum
        # in a denominator, so the division is stubbed to return
        # 1/(k^2 - a) for the residual 1
        from liesym import verify
        eq, sol, syms, dep = self._setup("R_w - 1", "2*w")
        cond = parse("2*k^2 - 2*a", ParseContext(indep=("w",), deps=("R",)))
        inverse = nf_pow(normalize(cond), -1)
        monkeypatch.setattr(verify, "nf_div_exact", lambda a, b: inverse)
        assert inverse.den and ode_condition(sol, eq, syms, dep, cond) is None
        # a multiplier free of the sum is still accepted
        free = normalize(parse("a/k^2", ParseContext(indep=("w",), deps=("R",))))
        monkeypatch.setattr(verify, "nf_div_exact", lambda a, b: free)
        assert ode_condition(sol, eq, syms, dep, cond) is free

    def test_formal_general_solution(self):
        eq, sol, syms, dep = self._setup("s*G_s + r*G_r", "f(s/r)",
                                         variables=("r", "s"), dep="G")
        rep = ode_residual(sol, eq, syms, dep)
        assert rep.symbolic == "zero" and rep.detail.get("formal")


class TestCheckReduction:
    def test_travelling_wave_multiplier(self, pde, by_name):
        ans = ReductionAnsatz(by_name["red-travelling-wave"], pde)
        rep = check_reduction(ans)
        assert rep.matches
        assert is_zero(add(rep.multiplier, mul(rat(-1), parse("a*b"))))

    def test_scaling_variant_report(self, pde, by_name):
        printed = check_reduction(ReductionAnsatz(by_name["red-scaling-printed"], pde))
        corrected = check_reduction(ReductionAnsatz(by_name["red-scaling-corrected"], pde))
        assert not printed.matches
        assert corrected.matches
        assert to_text(canonical(corrected.multiplier)) == "-1/(4*t^(5/4))"
        row = verify_record(by_name["red-scaling-printed"], pde)
        assert (row.status, row.detail) == ("flagged", "does not reproduce the claimed equation")

    def test_galilean_multiplier(self, pde, by_name):
        rep = check_reduction(ReductionAnsatz(by_name["red-galilean-x"], pde))
        assert rep.matches
        assert is_zero(add(rep.multiplier, mul(rat(-1), parse("1/(3*T^2)",
                       ParseContext(indep=("Y", "Z", "T"), deps=("F",))))))

    def test_plain_deletions_multiplier_one(self, pde, by_name):
        for name in ("red-time-translation", "red-z-translation", "red-y-translation"):
            rep = check_reduction(ReductionAnsatz(by_name[name], pde))
            assert rep.matches
            assert is_zero(add(rep.multiplier, rat(-1)))

    def test_wrong_claim_mismatch(self, pde, by_name):
        rec = by_name["red-z-translation"]
        fields = dict(rec.fields)
        fields["reduced"] = "F_XXY + 7*F_X*F_Y + F_T"  # perturbed coefficient
        from liesym.catalog import Record
        rep = check_reduction(ReductionAnsatz(Record("bad", fields), pde))
        assert not rep.matches

    def test_polynomial_multiplier_still_exact(self, pde, by_name):
        # dividing the claimed equation by (1 + q^2) makes the multiplier
        # a*b*(1 + q^2); denominator clearing keeps the division exact
        rec = by_name["red-travelling-wave"]
        fields = dict(rec.fields)
        fields["reduced"] = "(6*H_q^2 + a*H_qqq)/(1 + q^2)"
        from liesym.catalog import Record
        rep = check_reduction(ReductionAnsatz(Record("scaled", fields), pde))
        assert rep.matches
        ctx = ParseContext(indep=("q",), deps=("H",))
        assert is_zero(rep.multiplier - parse("a*b*(1 + q^2)", ctx))

    @pytest.mark.parametrize("claim, printed", [
        ("(6*H_q^2 + a*H_qqq)*(1 + q)", "a*b/(1 + q)"),
        ("6*H_q^2 + a*H_qqq + 6*q*H_q^2 + a*q*H_qqq",
         "(6*a*b*H_q^2 + a^2*b*H_qqq)/(6*H_q^2 + a*q*H_qqq + a*H_qqq + 6*q*H_q^2)"),
    ], ids=["factored", "expanded"])
    def test_rational_multiplier_exact(self, pde, by_name, claim, printed):
        # multiplying the claim by (1 + q) forces multiplier a*b/(1 + q),
        # which is no single monomial; the ratio holds no jet of H, exactly.
        # Expanded, the claim shares a factor with res that no gcd removes:
        # the multiplier holds jets whose derivatives normalize to zero
        fields = dict(by_name["red-travelling-wave"].fields)
        fields["reduced"] = claim
        rep = check_reduction(ReductionAnsatz(Record("scaled2", fields), pde))
        assert rep.matches
        ctx = ParseContext(indep=("q",), deps=("H",))
        assert is_zero(rep.multiplier - parse("a*b/(1 + q)", ctx))
        assert to_text(rep.multiplier) == printed

    @pytest.mark.parametrize("claim", [
        "(6*H_q^2 + a*H_qqq)/H_q",
        "(6*H_q^2 + a*H_qqq)*H",
        "(6*H_q^2 + a*H_qqq)*(H_q + q)/(1 + H_q)",
    ], ids=["times-jet", "over-unknown", "jet-ratio"])
    def test_multiplier_holding_a_jet_does_not_match(self, pde, by_name, claim):
        fields = dict(by_name["red-travelling-wave"].fields)
        fields["reduced"] = claim
        rep = check_reduction(ReductionAnsatz(Record("jet", fields), pde))
        assert not rep.matches and rep.multiplier is None

    def test_jet_dependent_ratio_does_not_match(self, pde, by_name):
        # res/claim = a*b/(1 + H_q) changes with the jet H_q
        fields = dict(by_name["red-travelling-wave"].fields)
        fields["reduced"] = "(6*H_q^2 + a*H_qqq)*(1 + H_q)"
        rep = check_reduction(ReductionAnsatz(Record("jet", fields), pde))
        assert not rep.matches and rep.multiplier is None

    def test_zero_claim_is_falsified(self, pde, by_name):
        # a claim that normalizes to zero never matches, and is no error row
        fields = dict(by_name["red-travelling-wave"].fields)
        fields["reduced"] = "H_q - H_q"
        res = verify_record(Record("zero", fields), pde)
        assert res.status == "falsified"
        assert not check_reduction(ReductionAnsatz(Record("zero", fields), pde)).matches


class TestCatalog:
    def test_parse_round_trip(self):
        recs = parse_catalog("[a]\nkind: ode\nnewvar: X = x\nnewvar: Y = y\n")
        assert recs[0].pairs("newvar") == [("X", "x"), ("Y", "y")]

    def test_all_records_behave_as_expected(self, pde, records):
        results = verify_catalog(records, pde, points=30)
        bad = [(r.name, r.status, r.detail) for r in results if not r.ok]
        assert bad == []

    def test_symbolic_zero_for_required_families(self, pde, by_name):
        required = ["u2-rational", "u3-kink", "u17-kink", "u18-kink",
                    "u10-sqrt", "u11-rational", "u12-mixed", "u13-rational",
                    "u14-rational", "u15-rational"]
        for name in required:
            f = parse(by_name[name].get("claim"), solution_context())
            rep = residual(f, pde, by_name[name].params(), points=5)
            assert rep.symbolic == "zero", name

    def test_undeclared_divisors_reported(self):
        e = parse("1/(b1*x + b2)", solution_context())
        assert undeclared_divisors(e, ("b1",), ("x", "y", "z", "t")) == ("b2",)

    @pytest.mark.parametrize("claim, kind", [
        ("tanh(x", "ParseError: "),
        ("1/(x-x)", "ParseError: "),
        ("(-1 - x^2*y^2*z^2*t^2)^(1/2)", "EvalDomainError: "),
        ("u_x*y", "ValueError: claim contains jets of u: u_x"),
    ])
    def test_error_rows_keep_exception_type(self, pde, claim, kind):
        rec = parse_catalog(f"[bad]\nkind: solution\nclaim: {claim}\nexpected: zero\n")[0]
        res = verify_record(rec, pde, points=5)
        assert res.status == "error"
        assert res.detail.startswith(kind)

    @pytest.mark.parametrize("kind", ["solution", "solution-complex"])
    def test_solution_with_unknown_function_is_an_error_row(self, pde, kind):
        # a solution is sampled, never accepted formally; no point of F(x)
        # can be evaluated, so this must not read as verified over 0 points
        rec = parse_catalog(f"[uf]\nkind: {kind}\nclaim: F(x) + y\nexpected: zero\n")[0]
        res = verify_record(rec, pde, points=5)
        assert res.status == "error"
        assert res.detail.startswith("EvalDomainError: ")
        with pytest.raises(EvalDomainError):
            residual(parse("F(x) + y", solution_context()), pde, points=5)

    def test_overflowing_complex_terms_are_rejected_points(self):
        # |a + a*i| overflows a double; such a point's scale is above 1e12,
        # so it is rejected like one, not raised as OverflowError
        terms = (parse("a + a*i", solution_context()),)
        with pytest.raises(EvalDomainError, match="all residual sample points"):
            sampled_residual(terms, {"a": 1e308}, 5, 0, "double")

    @pytest.mark.parametrize("text", [
        "kind: solution\nclaim: u_x*y\nexpected: conditional\ncondition: y",
        "kind: ode\nvars: w\nunknown: R\nequation: R_ww\nsolution: R_w*w\nexpected: zero",
        "kind: ode\nvars: w\nunknown: R\nequation: R_ww\nsolution: R_w*w\n"
        "expected: conditional\ncondition: w",
    ], ids=["residual_condition", "ode_residual", "ode_condition"])
    def test_claims_with_own_jets_are_error_rows(self, pde, text):
        # one record per residual path; a jet is constant under symbol
        # derivatives, so R_w*w would pass R_ww = 0
        res = verify_record(parse_catalog(f"[bad]\n{text}\n")[0], pde, points=5)
        assert res.status == "error"
        assert res.detail.startswith("ValueError: claim contains jets of ")

    @pytest.mark.parametrize("base, text, status, detail", [
        (None, "kind: foo", "falsified", "unknown record kind 'foo'"),
        ("wp-equianharmonic", "c2: abc", "error",
         "ValueError: Invalid literal for Fraction: 'abc'"),
        ("wzeta-corrected", "prefactor: mu", "error",
         "ValueError: zeta record needs prefactor a*mu or a/mu"),
        ("red-travelling-wave", "expected: mismatch", "falsified",
         "unexpected match, multiplier a*b"),
        ("wp-equianharmonic", "expected: mismatch", "falsified",
         "unexpectedly satisfies the equation"),
        (None, "kind: solution\nclaim: x*y/(6*t) + x/1000\nexpected: conditional\n"
         "condition: k^2 - a", "falsified", "residual not proportional to condition"),
        (None, "kind: ode\nvars: w\nunknown: R\nequation: R_ww\nsolution: w^3\n"
         "expected: conditional\ncondition: w", "flagged", "residual = (6) * (w)"),
        (None, "kind: solution\nclaim: x*y/(6*t)\nexpected: mismatch", "falsified",
         "unexpectedly satisfies the equation, max_rel=0.00e+00"),
        (None, "kind: solution\nclaim: x*y/(6*t) + x/1000\nexpected: mismatch",
         "flagged", "symbolic=nonzero max_rel=1.09e-03 (claim fails as printed)"),
        # a complex claim is exact like any other: sampling below tol alone
        # does not verify a residual that does not normalize to zero
        (None, "kind: solution-complex\nclaim: x*y/(6*t) + i*x/10^12\nexpected: zero",
         "falsified", "symbolic=undecided max_rel=1.09e-12"),
        # the claim, not its record kind, chooses double complex sampling
        ("u8u9-rational-corrected", "kind: solution", "verified", "max_rel=0.00e+00"),
    ], ids=["unknown-kind", "weierstrass-bad-c2", "weierstrass-bad-prefactor",
            "reduction-unexpected-match",
            "weierstrass-unexpected-match", "solution-not-proportional",
            "ode-conditional", "solution-unexpected-match", "solution-mismatch",
            "complex-below-tol-not-exact", "complex-claim-as-solution"])
    def test_verdict_rows(self, pde, by_name, base, text, status, detail):
        # one verdict rule: the expected status when the kind's check holds,
        # falsified when it does not; text overrides fields of a shipped record
        fields = dict(by_name[base].fields) if base else {}
        fields.update(parse_catalog(f"[r]\n{text}\n")[0].fields)
        res = verify_record(Record("r", fields), pde, points=5)
        assert (res.status, res.detail) == (status, detail)

    def test_points_reach_ode_records(self, pde, by_name, monkeypatch):
        # ODE records are sampled at min(points, 60), not always at 60
        asked, original = [], numeric.sampled

        def spy(fn, nfree, points, *args, **kwargs):
            asked.append(points)
            return original(fn, nfree, points, *args, **kwargs)

        monkeypatch.setattr(numeric, "sampled", spy)
        res = verify_record(by_name["ode-w2-parabola"], pde, points=5)
        assert res.status == "verified"
        assert asked and max(asked) <= 5

    def test_weierstrass_records(self, pde, by_name):
        ok = verify_record(by_name["wp-equianharmonic"], pde, points=15)
        assert ok.status == "verified"
        flagged = verify_record(by_name["wzeta-printed"], pde, points=15)
        assert flagged.status == "flagged"
        fixed = verify_record(by_name["wzeta-corrected"], pde, points=15)
        assert fixed.status == "verified-after-correction"

    def test_weierstrass_rows_ignore_sampling_options(self, pde, records):
        # the verdict is exact: --points, --seed and --precision do not reach it
        recs = [r for r in records if r.kind == "weierstrass"]
        rows = [[(r.status, r.detail) for r in verify_catalog(recs, pde, *opts)]
                for opts in ((100, 1e-9, 0, "double"), (5, 1e-9, 7, "dd"))]
        assert rows[0] == rows[1] == [
            ("verified", "residual = 0"), ("verified", "residual = 0"),
            ("flagged", "residual = 288*wp^2 (claim fails as printed)"),
            ("verified-after-correction", "residual = 0")]

    def test_reduction_graph_coherence(self, pde):
        # R = w^2/6 -> G = r*s/6 -> u = x*y/(6*t): each level verifies.
        # w^2 R''' - R'(-6 w R' + 6 R + w^2) for R(w), then the (r, s)
        # equation G + 2 G_s (s - 12 G_r) + r G_r - 4 G_rrs via G = R(w)/r
        # with w = r*sqrt(s), then the full equation.
        wctx = ParseContext(indep=("w",), deps=("R",))
        ode = parse("w^2*R_www - R_w*(-6*w*R_w + 6*R + w^2)", wctx)
        assert ode_residual(parse("w^2/6", wctx), ode,
                            (Sym("w"),), "R").symbolic == "zero"
        ctx = ParseContext(indep=("r", "s"), deps=("G",))
        eq26 = parse("G + 2*G_s*(s - 12*G_r) + r*G_r - 4*G_rrs", ctx)
        gsol = parse("r*s/6", ctx)
        syms = tuple(Sym(v) for v in ("r", "s"))
        assert ode_residual(gsol, eq26, syms, "G").symbolic == "zero"
        assert residual(parse("x*y/(6*t)"), pde, points=5).symbolic == "zero"


class TestWeierstrassResidual:
    """6 f^2 + a f'' for f = wp(s)/mu and 6 H'^2 + a H^(3) for H = P zeta(s),
    s = mu*(q + c1), mu^3 = -1/a, from wp'' = 6 wp^2 and zeta' = -wp."""

    @staticmethod
    def record(a, form, prefactor):
        return parse_catalog(f"[w]\nkind: weierstrass\nform: {form}\n"
                             f"prefactor: {prefactor}\na: {a}\nc1: 1/4\nc2: 2\n"
                             "expected: zero\n")[0]

    @pytest.mark.parametrize("a", ["-27", "-8", "-1", "1", "5", "7/3"])
    @pytest.mark.parametrize("form, prefactor", [
        ("p", "a*mu"), ("zeta", "a*mu"), ("zeta", "a/mu")])
    def test_exact_residual(self, a, form, prefactor):
        res = weierstrass_residual(self.record(a, form, prefactor))
        if prefactor == "a*mu":
            assert str(res) == "0"
            return
        # P = a/mu: 6 P^2 mu^2 wp^2 - 6 a P mu^3 wp^2 = 6 a^2 (1 - mu^2) wp^2,
        # zero exactly when a/mu = a*mu, that is when a = +-1
        av = Fraction(a)
        mu = pow_(rat(-1 / av), Fraction(1, 3))
        expected = mul(rat(6 * av * av), add(rat(1), mul(rat(-1), pow_(mu, 2))),
                       pow_(Sym("wp"), 2))
        assert is_zero(add(res, mul(rat(-1), expected)))
        assert (str(res) == "0") == (a in ("-1", "1"))
