"""Flow exponentiation, group laws, published-group comparison, pushforwards."""

from fractions import Fraction

import pytest

from liesym import Sym, add, equivalent, fun, is_zero, mul, parse, rat, substitute
from liesym.flows import (
    NonClosedFormError, compare_flow, exponentiate, group_law_residuals,
    load_reference_groups, satisfies_flow_ode, transform_solution,
    verify_group_action,
)
from liesym.jets import VectorField
from liesym.catalog import solution_context


@pytest.fixture(scope="module")
def flows10(basis):
    return [exponentiate(V) for V in basis.fields]


@pytest.fixture(scope="module")
def refs(pde):
    return load_reference_groups(pde)


class TestExponentiate:
    def test_time_translation(self, pde, flows10):
        g3 = flows10[2]
        x, y, z, t = pde.vars
        assert g3.maps[0] == x
        assert equivalent(g3.maps[3], add(t, g3.eps))

    def test_nilpotent_chain(self, pde, flows10):
        # the flow of the y/z shear: z picks up the eps^2/2 term
        g4 = flows10[3]
        eps = g4.eps
        assert equivalent(g4.maps[1], parse("y + 3*t/10*eps",
                                            _ctx(pde)))
        assert equivalent(g4.maps[2],
                          parse("z + y*eps + 3*t/20*eps^2", _ctx(pde)))
        assert equivalent(g4.maps[4], parse("u + x/20*eps", _ctx(pde)))

    def test_scaling_flow(self, pde, flows10):
        g1 = flows10[0]
        x = pde.vars[0]
        assert equivalent(g1.maps[0],
                          mul(x, fun("exp", mul(rat(1, 4), g1.eps))))
        assert equivalent(g1.maps[3],
                          mul(pde.vars[3], fun("exp", g1.eps)))

    def test_all_ten_closed_form(self, flows10):
        assert len(flows10) == 10

    def test_non_closed_form_reported(self, pde):
        V = VectorField([parse("x^2"), rat(0), rat(0), rat(0)], rat(0),
                        pde.vars, pde.dep)
        with pytest.raises(NonClosedFormError):
            exponentiate(V)

    def test_coordinate_named_like_the_group_parameter(self):
        # the flow's maps would confuse the coordinate with the parameter
        V = VectorField([rat(1), rat(0)], rat(0), [Sym("eps"), Sym("t")], "u")
        with pytest.raises(ValueError, match="eps"):
            exponentiate(V)


def _ctx(pde):
    from liesym.parse import ParseContext
    return ParseContext(indep=[v.name for v in pde.vars], deps=(pde.dep,))


class TestFlowIdentities:
    def test_flow_ode_all(self, flows10):
        for g in flows10:
            assert satisfies_flow_ode(g)

    def test_group_law_all(self, flows10):
        for g in flows10:
            assert all(is_zero(r) for r in group_law_residuals(g))

    def test_identity_at_zero(self, flows10):
        for g in flows10:
            for coord, m in zip(g.coords(), g.at(0).values()):
                assert equivalent(m, coord)


class TestPublishedComparison:
    def test_translations_match_exactly(self, flows10, refs):
        for i in (2, 3, 6, 7, 10):
            res = compare_flow(flows10[i - 1], refs[f"g{i}"], f"g{i}")
            assert res.consistent and res.rescale == 1

    def test_rescaled_groups(self, flows10, refs):
        expected = {4: Fraction(20), 5: Fraction(4), 8: Fraction(6), 9: Fraction(10)}
        for i, c in expected.items():
            res = compare_flow(flows10[i - 1], refs[f"g{i}"], f"g{i}")
            assert res.consistent and res.rescale == c

    def test_first_group_inconsistent(self, flows10, refs):
        res = compare_flow(flows10[0], refs["g1"], "g1")
        assert not res.consistent
        per = res.detail["per_coordinate"]
        assert per["x"] == [Fraction(4)] and per["y"] == [Fraction(2)]

    @pytest.mark.parametrize("c", [Fraction(-3), Fraction(-1, 2), Fraction(2, 3),
                                   Fraction(5)], ids=str)
    def test_every_rescale_recovered(self, flows10, c):
        # eps -> c*eps multiplies the generator by c; a negative c on a map
        # with an eps^2 term (the v4 flow) must be found like any other
        for i, g in enumerate(flows10, 1):
            published = [substitute(m, {g.eps: mul(rat(c), g.eps)}) for m in g.maps]
            assert compare_flow(g, published, f"v{i}").rescale == c

    def test_zero_rescale_inconsistent(self, flows10):
        for g in flows10:
            published = [substitute(m, {g.eps: rat(0)}) for m in g.maps]
            assert not compare_flow(g, published).consistent


class TestTransform:
    def test_time_translation_pushforward(self, pde, flows10):
        f = parse("x*y/(6*t)")
        moved = transform_solution(flows10[2], f)
        eps = flows10[2].eps
        assert equivalent(moved, parse("x*y/(6*(t - eps))", _ctx(pde)))

    def test_shift_pushforward_sign(self, pde, flows10):
        # the flow adds +eps to u; the published list uses eps -> -eps
        f = parse("x*y/(6*t)")
        moved = transform_solution(flows10[1], f)
        assert equivalent(moved, add(f, flows10[1].eps))

    def test_galilean_pushforward(self, pde, flows10):
        # flow of the x-Galilean generator: f(x - eps*t) + eps*y/6
        f = parse("tanh(x)")
        moved = transform_solution(flows10[7], f)
        expect = parse("tanh(x - eps*t) + eps*y/6", _ctx(pde))
        assert equivalent(moved, expect)

    def test_inverse_maps_are_the_maps_at_minus_eps_built_once(self, flows10):
        for g in flows10:
            inv = g.inverse_maps()
            assert inv == tuple(substitute(m, {g.eps: mul(rat(-1), g.eps)})
                                for m in g.maps)
            assert g.inverse_maps() is inv

    def test_u_map_must_be_affine(self, pde, flows10):
        from liesym.flows import _u_affine
        from liesym.expr import jet
        assert _u_affine(flows10[0].maps[-1], jet("u", ()))


class TestGroupAction:
    def test_z_translation_on_kink(self, pde, flows10):
        f = parse("c1*tanh(c1*x - 4*c3*c1^2*y + c3*z + c4) + c5")
        rep = verify_group_action(flows10[5], f, pde,
                                  params={"c1": 1.2, "c3": 0.7, "c4": 0.3,
                                          "c5": 1.1},
                                  samples=25)
        assert rep["pass"]

    def test_galilean_on_rational(self, pde, flows10):
        f = parse("x*y/(6*t)")
        rep = verify_group_action(flows10[7], f, pde, samples=25)
        assert rep["pass"]

    def test_scaling_on_rational(self, pde, flows10):
        f = parse("x*y/(6*t)")
        rep = verify_group_action(flows10[0], f, pde, samples=25)
        assert rep["pass"]
