"""Total derivatives, prolongation, symmetry condition, on-shell work."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from liesym import (
    Sym, add, differentiate, is_zero, jet, mul, normalize, parse, pow_, rat, to_text,
)
from liesym import jets
from liesym.expr import diff_n, free_jets
from liesym.jets import (
    VectorField, jet_bindings, prolongation_coefficient, restrict_on_shell,
    symmetry_condition, total_derivative,
)
from liesym.detsys import generic_field
from liesym.normal import canonical

from conftest import TREE_SYMBOLS, expr_trees


def VF(pde, xs, eta):
    return VectorField([parse(s) for s in xs], parse(eta), pde.vars, pde.dep)


class TestTotalDerivative:
    def test_basic(self, pde):
        x = pde.vars[0]
        assert total_derivative(jet("u", "x"), x) == jet("u", "xx")

    def test_chain(self, pde):
        x = pde.vars[0]
        assert is_zero(add(total_derivative(pow_(jet("u", "x"), 2), x),
                           mul(rat(-2), jet("u", "x"), jet("u", "xx"))))

    def test_explicit_coordinate(self, pde):
        t = pde.vars[3]
        d = total_derivative(parse("x*u_y"), t)
        assert is_zero(add(d, mul(rat(-1), parse("x*u_yt"))))

    def test_commutation(self, pde):
        rng = random.Random(3)
        x, y = pde.vars[0], pde.vars[1]
        pool = [parse("u_x"), parse("u_y"), parse("u"), parse("x"), parse("y"),
                parse("u_xy"), parse("u_x^2"), parse("x*u_yy")]
        for _ in range(12):
            e = add(*(mul(rat(rng.randint(-3, 3)), rng.choice(pool), rng.choice(pool))
                      for _ in range(3)))
            lhs = total_derivative(total_derivative(e, x), y)
            rhs = total_derivative(total_derivative(e, y), x)
            assert is_zero(add(lhs, mul(rat(-1), rhs)))


@settings(max_examples=150, deadline=None)
@given(expr_trees(2, walker=True), st.sampled_from(TREE_SYMBOLS))
def test_total_derivative_matches_definition(e, v):
    # D_v e = d e/d v + sum over jets u_J of u_{J+v} * d e/d u_J, term by term
    expect = add(differentiate(e, v),
                 *(mul(j.lifted(v.name), differentiate(e, j)) for j in free_jets(e)))
    assert normalize(total_derivative(e, v)) == normalize(expect)


# jets over TREE_SYMBOLS that share prefixes, plus one with no binding
_BIND_JETS = [jet(dep, idx) for dep in ("u", "v")
              for idx in ((), "x", "y", "xx", "xy", "xxt", "xxy", "ttx", "yyy")]
_BIND_JETS.append(jet("w", "x"))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_BIND_JETS), min_size=1, max_size=6),
       expr_trees(2), expr_trees(2))
def test_jet_bindings_match_per_jet_derivatives(js, f, g):
    funcs = {"u": f, "v": g}
    var_by_name = {v.name: v for v in TREE_SYMBOLS}
    expect = {}
    for j in js:
        if j.dep in funcs:
            h = funcs[j.dep]
            for name, count in j.idx:
                h = diff_n(h, var_by_name[name], count)
            expect[j] = h
    assert jet_bindings([add(*js), mul(*js)], funcs, TREE_SYMBOLS) == expect


def test_jet_bindings_derive_each_prefix_once(pde, monkeypatch):
    # the 8 jets of kdv31.pde have orders summing to 18 but 10 distinct
    # derivative prefixes: t, x, y, z, xx, xxx, xxxx, xxxxz, xxy, xxz
    assert len(free_jets(pde.delta)) == 8
    calls = []
    diff = jets.differentiate

    def counting(e, v):
        calls.append(v)
        return diff(e, v)

    monkeypatch.setattr(jets, "differentiate", counting)
    jet_bindings([pde.delta], {"u": parse("x^5*y*z*t + tanh(x*y)")}, pde.vars)
    assert len(calls) == 10


class TestProlongation:
    def test_shift_field_vanishes(self, pde):
        # eta = 1, all xi = 0: every prolongation coefficient of order >= 1 is 0
        v2 = VF(pde, ["0", "0", "0", "0"], "1")
        for idx in [(1, 0, 0, 0), (2, 1, 0, 0), (4, 0, 1, 0)]:
            assert is_zero(prolongation_coefficient(v2, idx, pde))

    def test_translation_vanishes(self, pde):
        v10 = VF(pde, ["1", "0", "0", "0"], "0")
        assert is_zero(prolongation_coefficient(v10, (1, 0, 0, 0), pde))

    def test_first_order_expansion(self, pde):
        # eta^x = D_x(eta) - u_x D_x(xi1) - u_y D_x(xi2) - u_z D_x(xi3) - u_t D_x(xi4)
        V = generic_field(pde)
        x = pde.vars[0]
        got = prolongation_coefficient(V, (1, 0, 0, 0), pde)
        expect = total_derivative(V.eta, x)
        for k, name in enumerate(("x", "y", "z", "t")):
            expect = add(expect, mul(rat(-1), jet("u", name),
                                     total_derivative(V.xi[k], x)))
        assert is_zero(add(got, mul(rat(-1), expect)))

    def test_recursion_path_independence(self, pde):
        # eta^{xxy} computed along either variable order, expanded in the
        # published closed form via eta^{xx}
        V = generic_field(pde)
        y = pde.vars[1]
        exx = prolongation_coefficient(V, (2, 0, 0, 0), pde)
        expect = total_derivative(exx, y)
        for k, suffix in enumerate(("xxx", "xxy", "xxz", "xxt")):
            expect = add(expect, mul(rat(-1), jet("u", suffix),
                                     total_derivative(V.xi[k], y)))
        got = prolongation_coefficient(V, (2, 1, 0, 0), pde)
        assert is_zero(add(got, mul(rat(-1), expect)))

    def test_published_closed_forms_golden(self, pde):
        # all eight closed forms that appear in derivations by hand:
        # four first-order ones plus the xx-based third/fifth-order ones,
        # compared string-level after canonical printing
        V = generic_field(pde)
        names = ("x", "y", "z", "t")
        cases = []
        for i in range(4):
            counts = [0, 0, 0, 0]
            counts[i] = 1
            # eta^i = D_i(eta) - sum_k u_k D_i(xi^k)
            cases.append((tuple(counts), (), names[i]))
        # eta^{xxj} = D_j(eta^{xx}) - sum_k u_{xxk} D_j(xi^k)
        for j, nm in ((0, "x"), (1, "y"), (2, "z")):
            counts = [2, 0, 0, 0]
            counts[j] += 1
            cases.append((tuple(counts), (2, 0, 0, 0), nm))
        # eta^{xxxxz} = D_z(eta^{xxxx}) - sum_k u_{xxxxk} D_z(xi^k)
        cases.append(((4, 0, 1, 0), (4, 0, 0, 0), "z"))
        for target, base_idx, dvar in cases:
            vi = next(v for v in pde.vars if v.name == dvar)
            base = V.eta if not base_idx else \
                prolongation_coefficient(V, base_idx, pde)
            expect = total_derivative(base, vi)
            prefix = "".join(n * c for n, c in zip(names, base_idx))
            for k, name in enumerate(names):
                expect = add(expect, mul(rat(-1), jet("u", prefix + name),
                                         total_derivative(V.xi[k], vi)))
            got = canonical(prolongation_coefficient(V, target, pde))
            assert to_text(got) == to_text(canonical(expect)), target


def _recursion_oracle(V, index, pde):
    """eta^J by eta^{J+e_i} = D_i(eta^J) - sum_k u_{J+e_k} D_i(xi^k), one
    step at a time along index's counts in variable order."""
    eta, prev = V.eta, jet(pde.dep, ())
    for v, count in zip(pde.vars, index):
        for _ in range(count):
            eta = add(total_derivative(eta, v),
                      *(mul(rat(-1), prev.lifted(w.name), total_derivative(xi, v))
                        for w, xi in zip(pde.vars, V.xi)))
            prev = prev.lifted(v.name)
    return eta


_POLY_ATOMS = (rat(1), *(Sym(n) for n in "xyzt"), jet("u", ()))
_polys = st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(_POLY_ATOMS),
                            st.sampled_from(_POLY_ATOMS)), max_size=3).map(
    lambda ts: add(rat(0), *(mul(rat(c), a, b) for c, a, b in ts)))


@settings(max_examples=60, deadline=None)
@given(st.lists(_polys, min_size=5, max_size=5),
       st.tuples(*[st.integers(0, 3)] * 4).filter(lambda i: sum(i) <= 3))
def test_prolongation_matches_recursion(pde, coeffs, index):
    # the characteristic form the code uses against the recursion
    V = VectorField(coeffs[:4], coeffs[4], pde.vars, pde.dep)
    got = prolongation_coefficient(V, index, pde)
    assert normalize(got) == normalize(_recursion_oracle(V, index, pde))


class TestSymmetryCondition:
    def test_shift_and_translations_vanish(self, pde):
        for xs, eta in ((["0", "0", "0", "0"], "1"),
                        (["0", "0", "0", "1"], "0"),
                        (["1", "0", "0", "0"], "0")):
            V = VF(pde, xs, eta)
            assert is_zero(restrict_on_shell(symmetry_condition(V, pde), pde))

    def test_scaling_field_on_shell(self, pde):
        v1 = VF(pde, ["x/4", "y/2", "0", "t"], "-u/4")
        assert is_zero(restrict_on_shell(symmetry_condition(v1, pde), pde))

    def test_generic_condition_matches_expansion(self, pde):
        # the assembled condition equals the explicit expansion
        # eta^t + 6 eta^x u_y + 6 u_x eta^y + eta^xxy + eta^xxxxz
        # + 120 eta^x u_x u_z + 60 u_x^2 eta^z + 10 eta^xxx u_z
        # + 10 u_xxx eta^z + 20 eta^x u_xxz + 20 u_x eta^xxz
        V = generic_field(pde)

        def pc(cx, cy, cz, ct):
            return prolongation_coefficient(V, (cx, cy, cz, ct), pde)

        ux, uy, uz = jet("u", "x"), jet("u", "y"), jet("u", "z")
        expansion = add(
            pc(0, 0, 0, 1),
            mul(rat(6), pc(1, 0, 0, 0), uy),
            mul(rat(6), ux, pc(0, 1, 0, 0)),
            pc(2, 1, 0, 0),
            pc(4, 0, 1, 0),
            mul(rat(120), pc(1, 0, 0, 0), ux, uz),
            mul(rat(60), pow_(ux, 2), pc(0, 0, 1, 0)),
            mul(rat(10), pc(3, 0, 0, 0), uz),
            mul(rat(10), jet("u", "xxx"), pc(0, 0, 1, 0)),
            mul(rat(20), pc(1, 0, 0, 0), jet("u", "xxz")),
            mul(rat(20), ux, pc(2, 0, 1, 0)),
        )
        got = symmetry_condition(V, pde)
        assert is_zero(add(got, mul(rat(-1), expansion)))

    def test_linearity_in_field(self, pde):
        v4 = VF(pde, ["0", "3*t/10", "y", "0"], "x/20")
        v8 = VF(pde, ["t", "0", "0", "0"], "y/6")
        combo = v4.scaled(rat(2)).plus(v8.scaled(rat(3)))
        lhs = symmetry_condition(combo, pde)
        rhs = add(mul(rat(2), symmetry_condition(v4, pde)),
                  mul(rat(3), symmetry_condition(v8, pde)))
        assert is_zero(add(lhs, mul(rat(-1), rhs)))

    def test_all_published_generators(self, pde, basis):
        for V in basis.fields:
            assert is_zero(restrict_on_shell(symmetry_condition(V, pde), pde))

    def test_scaling_conditions_proportional_to_equation(self, pde, basis):
        # for the two scaling generators the condition is an exact rational
        # multiple of the equation even off shell
        from liesym.normal import nf_div_exact, normalize, as_expr
        from liesym import rat as _rat
        for idx, factor in ((0, _rat(-5, 4)), (4, _rat(1, 4))):
            cond = symmetry_condition(basis.fields[idx], pde)
            m = nf_div_exact(normalize(cond), normalize(pde.delta))
            assert m is not None
            assert is_zero(add(as_expr(m), mul(rat(-1), factor)))


class TestRestrictOnShell:
    def test_delta_itself(self, pde):
        assert is_zero(restrict_on_shell(pde.delta, pde))

    def test_partial_rearrangement(self, pde):
        got = restrict_on_shell(parse("u_t + 6*u_x*u_y"), pde)
        expect = parse("-(u_xxy + u_xxxxz + 60*u_x^2*u_z + 10*u_xxx*u_z + 20*u_x*u_xxz)")
        assert is_zero(add(got, mul(rat(-1), expect)))

    def test_mixed_evolution_jets(self, pde):
        # u_xt substitutes to the x total derivative of the on-shell rhs
        x = pde.vars[0]
        rhs = restrict_on_shell(jet("u", "t"), pde)
        got = restrict_on_shell(jet("u", "xt"), pde)
        assert is_zero(add(got, mul(rat(-1), total_derivative(rhs, x))))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([jet("u", idx) for idx in (
        "t", "tt", "xt", "yt", "zt", "xxt", "xtt", "x", "xxy", "")]), min_size=1, max_size=3))
    def test_no_evolution_jet_is_left(self, pde, js):
        got = restrict_on_shell(add(mul(*js), *js), pde)
        assert not [j for j in free_jets(got) if dict(j.idx).get("t")]

    def test_no_evolution_jet_is_left_in_the_condition(self, pde):
        cond = restrict_on_shell(symmetry_condition(generic_field(pde), pde), pde)
        assert not [j for j in free_jets(cond) if dict(j.idx).get("t")]

    def test_nonlinear_leading_rejected(self):
        from liesym.jets import PDE, _lead_rhs
        from liesym.parse import ParseContext
        ctx = ParseContext(indep=("x", "t"), deps=("u",))
        bad = PDE(parse("u_t^2 + u_x", ctx),
                  [Sym(v) for v in ("x", "t")], "u")
        with pytest.raises(ValueError):
            _lead_rhs(bad)
