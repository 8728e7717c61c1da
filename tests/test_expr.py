"""Expression core: parsing, printing, derivatives, substitution, numerics."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liesym import (
    add, differentiate, equivalent, fun, is_zero, jet, mul, normalize, parse,
    pow_, rat, substitute, to_text,
)
from liesym.expr import (
    Add, ExprError, Fun, Jet, Mul, Pow, Rat, Sym, Ufunc, fold, free_jets,
    free_symbols, free_ufunc_names, nodes, rewrite, skey,
)
from liesym.normal import as_expr, nf_const
from liesym.numeric import EvalDomainError, compile_terms, eval_numeric
from liesym.parse import ParseError

from conftest import TREE_JETS, TREE_SYMBOLS, expr_trees


x = Sym("x")
y = Sym("y")
t = Sym("t")


class TestParse:
    def test_jet_sum(self):
        e = parse("u_t + 6*u_x*u_y")
        assert jet("u", "t") in e.terms
        assert equivalent(e, add(jet("u", "t"), mul(rat(6), jet("u", "x"), jet("u", "y"))))

    def test_kink_expression(self):
        e = parse("c1*tanh(c1*x - 4*c3*c1^2*y + c3*z + c4) + c5")
        assert "tanh" in to_text(e)
        # round trip up to canonical ordering
        assert equivalent(parse(to_text(e)), e)

    def test_dangling_suffix_rejected(self):
        with pytest.raises(ParseError):
            parse("u_")

    def test_unknown_function_name(self):
        with pytest.raises(ParseError):
            parse("u_q + 1")  # q is not an independent variable

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("x + ")
        assert "column" in str(err.value)

    def test_unknown_function_name_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("tan(x)")
        assert "unknown function" in str(err.value)

    def test_single_letter_unknown_functions_allowed(self):
        e = parse("g(y, z)")
        assert e == Ufunc("g", (Sym("y"),
                                Sym("z")))

    def test_decimals_are_exact(self):
        assert parse("1.9872") == Rat(Fraction(19872, 10000))

    def test_exponent_slash_binds_to_term(self):
        # t^2/6 is (t^2)/6; fractional exponents need parentheses
        assert equivalent(parse("t^2/6"), parse("(t^2)/6"))
        assert equivalent(parse("t^(1/2)*t^(1/2)"), parse("t"))

    def test_unary_minus(self):
        assert equivalent(parse("-u/4"), mul(rat(-1, 4), jet("u", ())))


class TestDifferentiate:
    def test_tanh_derivative(self):
        assert differentiate(fun("tanh", x), x) == pow_(fun("sech", x), 2)

    def test_quotient_rule(self):
        e = parse("x*y/(6*t)")
        assert equivalent(differentiate(e, t), parse("-x*y/(6*t^2)"))

    def test_jets_constant_under_symbol_derivative(self):
        assert differentiate(jet("u", "x"), x) == rat(0)

    def test_formal_slot_derivative(self):
        X, Y = Sym("X"), Sym("Y")
        F = Ufunc("F", (X, Y))
        dF = differentiate(F, X)
        assert dF == Ufunc("F", (X, Y), (1, 0))

    def test_product_rule_on_jets(self):
        e = mul(jet("u", "x"), jet("u", "y"))
        d = differentiate(e, jet("u", "x"))
        assert equivalent(d, jet("u", "y"))


class TestSubstitute:
    def test_simple_values(self):
        e = mul(jet("u", "x"), jet("u", "y"))
        out = substitute(e, {jet("u", "x"): rat(2), jet("u", "y"): rat(3)})
        assert out == rat(6)

    def test_scaling_similarity_chain_rule(self):
        # u = F(x*t^(-1/4), y*t^(-1/2), z) gives
        # u_t = -(X F_X)/(4t) - (Y F_Y)/(2t) in the similarity variables
        z = Sym("z")
        u = Ufunc("F", (mul(x, pow_(t, Fraction(-1, 4))),
                        mul(y, pow_(t, Fraction(-1, 2))), z))
        ut = differentiate(u, t)
        X = mul(x, pow_(t, Fraction(-1, 4)))
        Y = mul(y, pow_(t, Fraction(-1, 2)))
        expect = add(
            mul(rat(-1, 4), X, Ufunc("F", u.args, (1, 0, 0)), pow_(t, Fraction(-1))),
            mul(rat(-1, 2), Y, Ufunc("F", u.args, (0, 1, 0)), pow_(t, Fraction(-1))),
        )
        assert equivalent(ut, expect)

    def test_simultaneous_not_sequential(self):
        out = substitute(add(x, y), {x: y, y: x})
        assert equivalent(out, add(x, y))


@pytest.mark.parametrize("make", [lambda: Rat(0.1), lambda: rat(0.5),
                                  lambda: nf_const(0.5), lambda: Rat("1/2")],
                         ids=["Rat", "rat", "nf_const", "string"])
def test_exact_constants_refuse_floats(make):
    # a float would be stored as its binary expansion, 0.1 as
    # 3602879701896397/36028797018963968: refuse it instead
    with pytest.raises(ExprError, match="not an exact rational"):
        make()


def test_walks_leave_no_cyclic_garbage():
    # a fold frees its memo, and a compiled function its namespace, by
    # reference counting alone, so peak memory does not wait for the
    # cycle collector
    import gc
    e = parse("(x^3*y + tanh(x*y))^3*exp(x) + sech(x)^2*y")
    gc.collect()
    gc.disable()
    try:
        differentiate(e, x)
        substitute(e, {x: add(y, t)})
        normalize(e)
        for precision in ("double", "dd"):
            compile_terms((e,), precision)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestEvalNumeric:
    def test_tanh_zero(self):
        assert eval_numeric(fun("tanh", rat(0)), {}) == 0.0

    def test_rational_point(self):
        e = parse("x*y/(6*t)")
        assert eval_numeric(e, {"x": 3.0, "y": 2.0, "t": 1.0}) == 1.0

    def test_kink_at_origin(self):
        e = parse("c1*tanh(c1*x - 4*c3*c1^2*y + c3*z + c4) + c5")
        env = {"c1": 1.9872, "c3": 2.9876, "c4": 1.9876, "c5": 3.9812,
               "x": 0.0, "y": 0.0, "z": 0.0}
        import math
        expect = 1.9872 * math.tanh(1.9876) + 3.9812
        assert abs(eval_numeric(e, env) - expect) < 1e-15

    def test_rational_only_expression_is_exact(self):
        e = parse("1/2 + 1/3 - 5/6")
        assert eval_numeric(e, {}) == 0.0
        e2 = parse("2/3 * 9/4")
        assert eval_numeric(e2, {}) == float(Fraction(3, 2))

    def test_unbound_symbol(self):
        with pytest.raises(EvalDomainError):
            eval_numeric(x, {})

    def test_even_root_of_negative(self):
        with pytest.raises(EvalDomainError):
            eval_numeric(pow_(x, Fraction(1, 2)), {"x": -1.0})

    def test_odd_real_root_of_negative(self):
        assert eval_numeric(pow_(x, Fraction(1, 3)), {"x": -8.0}) == -2.0

    def test_dd_matches_double(self):
        e = parse("tanh(x) + exp(y/5)")
        env = {"x": 0.7, "y": 1.3}
        assert abs(float(eval_numeric(e, env, "dd")) - eval_numeric(e, env)) < 1e-15


# ---------------------------------------------------------------------------
# property-based checks

small_exprs = expr_trees(2)


@settings(max_examples=40, deadline=None)
@given(small_exprs, small_exprs)
def test_product_rule_property(e1, e2):
    d = differentiate(mul(e1, e2), x)
    expect = add(mul(differentiate(e1, x), e2), mul(e1, differentiate(e2, x)))
    assert is_zero(add(d, mul(rat(-1), expect)))


@settings(max_examples=40, deadline=None)
@given(small_exprs)
def test_parse_print_identity_on_normal_form(e):
    assert normalize(parse(to_text(e))) == normalize(e)


@settings(max_examples=40, deadline=None)
@given(small_exprs)
def test_normalize_idempotent(e):
    n = normalize(e)
    assert normalize(as_expr(n)) == n


@settings(max_examples=30, deadline=None)
@given(small_exprs, small_exprs)
def test_normalize_multiplicative(e1, e2):
    from liesym.normal import nf_mul
    assert normalize(mul(e1, e2)) == nf_mul(normalize(e1), normalize(e2))


@settings(max_examples=30, deadline=None)
@given(small_exprs)
def test_derivative_linear(e):
    d2 = differentiate(mul(rat(2), e), x)
    assert is_zero(add(d2, mul(rat(-2), differentiate(e, x))))


# ---------------------------------------------------------------------------
# the tree walker against walks written out here, node kind by node kind

walker_exprs = expr_trees(2, walker=True)


def _kids(e):
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Fun):
        return (e.arg,)
    if isinstance(e, Ufunc):
        return e.args
    return ()


def _nodes(e):
    yield e
    for c in _kids(e):
        yield from _nodes(c)


def _naive_substitute(e, bindings):
    if isinstance(e, (Sym, Jet)):
        return bindings.get(e, e)
    if isinstance(e, Add):
        return add(*(_naive_substitute(c, bindings) for c in e.terms))
    if isinstance(e, Mul):
        return mul(*(_naive_substitute(c, bindings) for c in e.factors))
    if isinstance(e, Pow):
        return pow_(_naive_substitute(e.base, bindings), e.exp)
    if isinstance(e, Fun):
        return fun(e.fn, _naive_substitute(e.arg, bindings))
    if isinstance(e, Ufunc):
        return Ufunc(e.name, tuple(_naive_substitute(a, bindings) for a in e.args), e.dorders)
    return e


_bindable = TREE_SYMBOLS + TREE_JETS


_NAIVE_FUN_DERIV = {"tanh": lambda a: pow_(fun("sech", a), 2), "exp": lambda a: fun("exp", a)}


def _naive_derivative(e, v):
    """The chain rule node kind by node kind, without a memo or zero tests."""
    if isinstance(e, (Sym, Jet)):
        return rat(1) if e == v else rat(0)
    if isinstance(e, Add):
        return add(*(_naive_derivative(c, v) for c in e.terms))
    if isinstance(e, Mul):
        fs = e.factors
        return add(*(mul(*fs[:i], _naive_derivative(f, v), *fs[i + 1:])
                     for i, f in enumerate(fs)))
    if isinstance(e, Pow):
        return mul(rat(e.exp), pow_(e.base, e.exp - 1), _naive_derivative(e.base, v))
    if isinstance(e, Fun):
        return mul(_NAIVE_FUN_DERIV[e.fn](e.arg), _naive_derivative(e.arg, v))
    if isinstance(e, Ufunc):
        return add(*(mul(Ufunc(e.name, e.args, [k + (i == j) for j, k in enumerate(e.dorders)]),
                         _naive_derivative(a, v))
                     for i, a in enumerate(e.args)))
    return rat(0)


@settings(max_examples=150, deadline=None)
@given(walker_exprs)
def test_structure_queries_match_brute_force(e):
    brute = list(_nodes(e))
    assert free_symbols(e) == {n for n in brute if isinstance(n, Sym)}
    assert free_jets(e) == {n for n in brute if isinstance(n, Jet)}
    assert free_ufunc_names(e) == {n.name for n in brute if isinstance(n, Ufunc)}
    walked = list(nodes(e))
    assert len(walked) == len(set(walked)) and set(walked) == set(brute)
    assert walked[0] == e
    both = list(nodes(e, x, e))
    assert both[0] == e and len(both) == len(set(both)) and set(both) == set(brute) | {x}


@settings(max_examples=150, deadline=None)
@given(st.lists(walker_exprs, min_size=1, max_size=3))
def test_fold_calls_node_once_per_distinct_subtree(roots):
    # a root repeated, and a leaf of the first root as a root of its own,
    # so subtrees are shared across roots as well as within them
    roots = [*roots, roots[0], list(nodes(roots[0]))[-1]]
    order = {}

    def node(e, kids):
        assert e not in order
        # every child was visited first, and kids holds its result
        assert kids == tuple(order[c] for c in _kids(e))
        order[e] = len(order)
        return order[e]

    assert fold(roots, node) == [order[r] for r in roots]
    assert len(order) == len(list(nodes(*roots)))


_KINDS = (Rat, Sym, Jet, Ufunc, Fun, Pow, Mul, Add)


def _oracle_key(e):
    """The kind's place in _KINDS, then the node's fields, each child by
    its own oracle key."""
    if isinstance(e, Rat):
        fields = (e.value,)
    elif isinstance(e, Sym):
        fields = (e.name,)
    elif isinstance(e, Jet):
        fields = (e.dep, e.idx)
    elif isinstance(e, Ufunc):
        fields = (e.name, e.dorders, tuple(map(_oracle_key, e.args)))
    elif isinstance(e, Fun):
        fields = (e.fn, _oracle_key(e.arg))
    elif isinstance(e, Pow):
        fields = (_oracle_key(e.base), e.exp)
    else:
        fields = (tuple(map(_oracle_key, _kids(e))),)
    return (_KINDS.index(type(e)), *fields)


def _twin(e):
    """e rebuilt node by node through the raw constructors: equal to e,
    and sharing no node with it."""
    if isinstance(e, Rat):
        return Rat(e.value)
    if isinstance(e, Sym):
        return Sym(e.name)
    if isinstance(e, Jet):
        return Jet(e.dep, e.idx)
    if isinstance(e, Ufunc):
        return Ufunc(e.name, map(_twin, e.args), e.dorders)
    if isinstance(e, Fun):
        return Fun(e.fn, _twin(e.arg))
    if isinstance(e, Pow):
        return Pow(_twin(e.base), e.exp)
    return type(e)(map(_twin, _kids(e)))


@settings(max_examples=200, deadline=None)
@given(walker_exprs, walker_exprs)
def test_equality_hash_and_order_match_the_oracle(a, b):
    twin = _twin(a)
    assert twin is not a
    for p, q in ((a, b), (a, twin), (twin, b), (b, a)):
        kp, kq = _oracle_key(p), _oracle_key(q)
        assert (p == q) == (kp == kq) == (skey(p) == skey(q))
        assert (p != q) == (kp != kq)
        if p == q:
            assert hash(p) == hash(q)
        assert (skey(p) < skey(q)) == (kp < kq)
    # a tree never equals a plain value, not even its own name or number
    assert Sym("x") != "x" and rat(1) != 1 and a != _oracle_key(a)


@settings(max_examples=150, deadline=None)
@given(walker_exprs, st.dictionaries(st.sampled_from(_bindable), expr_trees(1, walker=True),
                                     max_size=4))
def test_substitute_matches_naive(e, bindings):
    assert substitute(e, bindings) == _naive_substitute(e, bindings)


@settings(max_examples=150, deadline=None)
@given(walker_exprs, st.sampled_from(_bindable))
def test_differentiate_matches_naive(e, v):
    assert differentiate(e, v) == _naive_derivative(e, v)


@settings(max_examples=150, deadline=None)
@given(walker_exprs)
def test_identity_rewrite_rebuilds_the_same_tree(e):
    assert rewrite(e, lambda x: x) == e
