"""Determining-system extraction and the exact polynomial-ansatz solver."""

from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from liesym import Sym, add, jet, mul, normalize, parse, rat, substitute
from liesym.detsys import (
    DeterminingSystem, check_membership, extract_determining, is_symmetry, reference_system,
    satisfies_system, solve_poly_ansatz, systems_equivalent, )
from liesym.jets import VectorField, jet_bindings, load_pde
from liesym.parse import ParseContext
from liesym import linalg

from conftest import exact_number


@pytest.fixture(scope="module")
def system(pde):
    return extract_determining(pde)


@pytest.fixture(scope="module")
def basis_d1(pde, system):
    return solve_poly_ansatz(system, 1)


def VF(pde, xs, eta):
    return VectorField([parse(s) for s in xs], parse(eta), pde.vars, pde.dep)


class TestExtraction:
    def test_constraints_are_jet_free_in_u(self, pde, system):
        from liesym.expr import free_jets
        for c in system.constraints:
            assert all(j.dep != pde.dep for j in free_jets(c))

    def test_published_solution_satisfies_extraction(self, pde, system, basis):
        for V in basis.fields:
            assert satisfies_system(system, V)

    def test_general_family_satisfies_extraction(self, pde, system):
        # the whole ten-parameter family at once, with symbolic constants:
        # every extracted constraint must vanish identically in the g-params
        g = {i: Sym(f"ga{i}") for i in range(1, 11)}
        x, y, z, t = (parse(v) for v in ("x", "y", "z", "t"))
        u = parse("u")
        xi1 = (g[1] - g[5]) * x / 4 + g[8] * t + g[9] * y + g[10]
        xi2 = (g[1] + g[5]) * y / 2 + rat(3, 10) * t * g[4] + g[7]
        xi3 = g[4] * y + g[5] * z + g[6]
        xi4 = g[1] * t + g[3]
        eta = (g[5] - g[1]) * u / 4 + x * g[4] / 20 + y * g[8] / 6 \
            + z * g[9] / 10 + g[2]
        V = VectorField([xi1, xi2, xi3, xi4], eta, pde.vars, pde.dep)
        assert satisfies_system(system, V)
        assert is_symmetry(V, pde)

    def test_published_relations_are_implied(self, pde, system):
        # relations that do not hold (e.g. a field violating eta_t = 0 or the
        # xi3_z coupling) fail the extracted system
        violates_eta_t = VF(pde, ["0", "0", "0", "0"], "t")
        assert not satisfies_system(system, violates_eta_t)
        violates_xi3_z = VF(pde, ["0", "0", "z", "0"], "0")
        assert not satisfies_system(system, violates_xi3_z)
        # ... while the scaling combination consistent with them passes
        consistent = VF(pde, ["-x/4", "y/2", "z", "0"], "u/4")
        assert satisfies_system(system, consistent)


_DATA = Path(__file__).parent / "data"
_FIXTURES = ("kdv_v", "exp_transport", "ratio", "decay", "stationary")


@pytest.fixture(scope="module", params=("kdv31",) + _FIXTURES + ("surd",))
def any_system(request, pde):
    """kdv31, the fixture equations, and a surd of u - x whose sum atom
    leads with another term once u is a symbol."""
    if request.param == "kdv31":
        other = pde
    elif request.param == "surd":
        other = load_pde("vars x t\ndep u\neq u_t + (u - x)^(1/2)*u_x\n")
    else:
        other = load_pde((_DATA / f"{request.param}.pde").read_text())
    return other, extract_determining(other)


class TestRowsAndConstraints:
    def test_rows_are_the_normal_forms_of_the_constraints(self, any_system):
        _, system = any_system
        assert len(system) == len(system.constraints)
        assert ({frozenset(normalize(c).terms.items()) for c in system.constraints}
                == {frozenset(r.items()) for r in system.rows})

    def test_dependent_variable_is_a_symbol_at_every_depth(self, any_system):
        # exp(u) must read exp of the symbol u, not of u's order-0 jet
        from liesym.expr import free_jets
        other, system = any_system
        for c in system.constraints:
            assert jet(other.dep, ()) not in free_jets(c)

    def test_solving_the_printed_constraints_agrees(self, any_system):
        _, system = any_system
        again = DeterminingSystem.of(system.constraints, system.unknowns, system.coords)
        for degree in (1, 2):
            assert (solve_poly_ansatz(again, degree).vectors
                    == solve_poly_ansatz(system, degree).vectors)


class TestSolver:
    def test_dimension_degree_1(self, basis_d1):
        assert basis_d1.dimension == 10

    def test_dimension_degree_2(self, pde, system):
        basis = solve_poly_ansatz(system, 2)
        assert basis.dimension == 10

    def test_solver_fields_are_symmetries(self, pde, basis_d1):
        for V in basis_d1.fields:
            assert is_symmetry(V, pde)

    def test_published_fields_in_span(self, pde, basis_d1, basis):
        for V in basis.fields:
            assert check_membership(basis_d1, V) is not None

    def test_ansatz_coefficient_count(self, system):
        # one column per coefficient of a monomial in one of 5 unknowns
        assert len(solve_poly_ansatz(system, 1).vectors[0]) == 5 * 6   # 5 * C(6,1)
        assert len(solve_poly_ansatz(system, 2).vectors[0]) == 5 * 21  # 5 * C(7,2)
        with pytest.raises(ValueError, match="ansatz degree must be >= 1"):
            solve_poly_ansatz(system, 0)

    def test_dimension_degree_3(self, pde, system, basis):
        # no cubic infinitesimals appear either: the published ten span it
        basis_d3 = solve_poly_ansatz(system, 3)
        assert basis_d3.dimension == 10
        for V in basis.fields:
            assert check_membership(basis_d3, V) is not None

    def test_dimension_degree_4(self, pde, system, basis):
        basis_d4 = solve_poly_ansatz(system, 4)
        assert basis_d4.dimension == 10
        for V in basis.fields:
            assert check_membership(basis_d4, V) is not None


def _symbolic_nullspace(system, degree):
    """The assembly by substitution, kept as a reference for the sparse one.

    Whole ansatz polynomials with one coefficient symbol per column, jets
    bound by differentiating them, every constraint normalized, and one
    dense row per (constraint, monomial without its coefficient symbol).
    """
    monos = [rat(1)] + [mul(*combo) for d in range(1, degree + 1)
                        for combo in combinations_with_replacement(system.coords, d)]
    coeffs, polys = [], {}
    for f, name in enumerate(system.unknowns):
        row = [Sym(f"ansatz{f}_{m}") for m in range(len(monos))]
        coeffs += row
        polys[name] = add(*(mul(a, m) for a, m in zip(row, monos)))
    index = {a: i for i, a in enumerate(coeffs)}
    bindings = jet_bindings(system.constraints, polys, system.coords)
    rows = {}
    for constraint in system.constraints:
        for mono, c in normalize(substitute(constraint, bindings)).terms.items():
            ((a, q),) = [(atom, q) for atom, q in mono if atom in index]
            assert q == 1
            label = tuple(p for p in mono if p[0] != a)
            row = rows.setdefault((constraint, label), [Fraction(0)] * len(coeffs))
            row[index[a]] += c
    return linalg.nullspace(_sparse(rows.values()), len(coeffs))


_COORDS = tuple(Sym(n) for n in ("x", "t", "u"))
_UNKNOWNS = ("xi1", "xi2", "eta")


@st.composite
def _linear_systems(draw):
    """Random constraints sum c * (coordinate monomial) * (unknown jet)."""
    def term():
        c = draw(st.integers(-3, 3).filter(bool))
        mono = draw(st.lists(st.sampled_from(_COORDS), max_size=2))
        idx = draw(st.lists(st.sampled_from("xtu"), max_size=3))
        return mul(rat(c), *mono, jet(draw(st.sampled_from(_UNKNOWNS)), "".join(idx)))
    constraints = [add(*(term() for _ in range(draw(st.integers(1, 3)))))
                   for _ in range(draw(st.integers(1, 4)))]
    return DeterminingSystem.of(constraints, _UNKNOWNS, _COORDS), draw(st.integers(1, 3))


# xi1_x - x*xi1_xx: both terms reach column (xi1, x^2) of row (0, x) and
# cancel there, so x^2 d/dx is in the nullspace only if they are summed
_CANCELLING = DeterminingSystem.of(
    [add(jet("xi1", "x"), mul(rat(-1), _COORDS[0], jet("xi1", "xx")))],
    _UNKNOWNS, _COORDS)


class TestAssemblyOracle:
    @settings(max_examples=60, deadline=None)
    @given(_linear_systems())
    @example((_CANCELLING, 2))
    def test_random_linear_systems(self, case):
        system, degree = case
        basis = solve_poly_ansatz(system, degree)
        assert basis.vectors == _symbolic_nullspace(system, degree)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_paper_system(self, pde, system, degree):
        basis = solve_poly_ansatz(system, degree)
        assert basis.vectors == _symbolic_nullspace(system, degree)

    @pytest.mark.parametrize("text, message", [
        ("xi1_x*eta", "not linear"),
        ("x + xi1", "constant term"),
    ])
    def test_constraint_outside_the_linear_form(self, text, message):
        ctx = ParseContext(indep=["x", "t", "u"], deps=_UNKNOWNS)
        system = DeterminingSystem.of([parse(text, ctx)], _UNKNOWNS, _COORDS)
        with pytest.raises(ValueError, match=message):
            solve_poly_ansatz(system, 1)


class TestTextbookAlgebras:
    """Point-symmetry dimensions known independently of this paper (Olver,
    GTM 107, ch. 2).  The heat equation's algebra grows with the ansatz
    degree: its finite part plus the heat polynomials beta(x, t) d/du."""

    @pytest.mark.parametrize("vars_, eq, dims", [
        ("x t", "u_t - u_xx", {1: 6, 2: 8, 3: 10, 4: 11, 5: 12}),
        ("x t", "u_t + u*u_x + u_xxx", {2: 4}),
        ("x t", "u_t + u*u_x - u_xx", {2: 5}),
        ("x y t", "u_t + u*u_x + u_xxx + u_xyy", {2: 5}),
    ], ids=["heat", "kdv", "burgers", "zakharov-kuznetsov"])
    def test_dimension(self, vars_, eq, dims):
        pde = load_pde(f"vars {vars_}\ndep u\neq {eq}\n")
        system = extract_determining(pde)
        got = {d: solve_poly_ansatz(system, d).dimension
               for d in dims}
        assert got == dims


class TestMembership:
    def test_shift_field(self, pde, basis_d1):
        v2 = VF(pde, ["0", "0", "0", "0"], "1")
        coords = check_membership(basis_d1, v2)
        assert coords is not None
        assert sum(1 for c in coords if c != 0) == 1

    def test_linear_combination(self, pde, basis_d1, basis):
        v3, v6 = basis.fields[2], basis.fields[5]
        combo = v3.scaled(rat(2)).plus(v6.scaled(rat(3)))
        c3 = check_membership(basis_d1, basis.fields[2])
        c6 = check_membership(basis_d1, basis.fields[5])
        cc = check_membership(basis_d1, combo)
        assert cc == [2 * a + 3 * b for a, b in zip(c3, c6)]

    def test_non_symmetry_rejected(self, pde, basis_d1):
        bad = VF(pde, ["x", "0", "0", "0"], "0")
        assert check_membership(basis_d1, bad) is None
        assert not is_symmetry(bad, pde)


class TestReferenceEquivalence:
    def test_mutual_implication_degree_2(self, pde, system):
        ref = reference_system(pde)
        assert systems_equivalent(system, ref, 2)

    def test_extra_constraint_breaks_equivalence(self, pde, system):
        # xi1_x = 0 removes the scaling, whose xi1 is linear in x
        ref = reference_system(pde)
        ctx = ParseContext(indep=[s.name for s in ref.coords], deps=ref.unknowns)
        stricter = DeterminingSystem.of([*ref.constraints, parse("xi1_x", ctx)],
                                        ref.unknowns, ref.coords)
        assert not systems_equivalent(system, stricter, 2)
        assert not systems_equivalent(stricter, system, 2)


class TestOtherEquation:
    def test_classical_kdv_algebra(self):
        # independent sanity check on a different equation: the classical
        # KdV has exactly the two translations, the Galilean boost and one
        # scaling as point symmetries
        from liesym.jets import load_pde
        from liesym.liealg import commutator_table, jacobi_check
        kdv = load_pde("vars x t\ndep u\neq u_t + 6*u*u_x + u_xxx\n")
        sys_k = extract_determining(kdv)
        basis = solve_poly_ansatz(sys_k, 1)
        assert basis.dimension == 4
        assert all(is_symmetry(V, kdv) for V in basis.fields)
        boost = VF(kdv, ["t", "0"], "1/6")
        scaling = VF(kdv, ["x", "3*t"], "-2*u")
        assert check_membership(basis, boost) is not None
        assert check_membership(basis, scaling) is not None
        table = commutator_table(basis)
        assert table.closed and jacobi_check(table)["ok"]

    def test_dependent_variable_read_from_the_system(self):
        # the basis fields act on the PDE's own dependent variable, not on u
        kdv = load_pde("vars x t\ndep v\neq v_t + v*v_x + v_xxx\n")
        sys_v = extract_determining(kdv)
        basis = solve_poly_ansatz(sys_v, 1)
        assert basis.dimension == 4
        assert all(is_symmetry(V, kdv) for V in basis.fields)
        ctx = ParseContext(indep=("x", "t"), deps=("v",))
        scaling = VectorField([parse("x", ctx), parse("3*t", ctx)],
                              parse("-2*v", ctx), kdv.vars, "v")
        assert check_membership(basis, scaling) is not None


def _sparse(rows):
    """Dense test rows as the {column: value} rows linalg takes."""
    return [{j: c for j, c in enumerate(r) if c} for r in rows]


class TestLinalg:
    def test_nullspace_of_rank_deficient(self):
        rows = [[Fraction(1), Fraction(2), Fraction(3)],
                [Fraction(2), Fraction(4), Fraction(6)]]
        ns = linalg.nullspace(_sparse(rows), 3)
        assert len(ns) == 2
        for v in rows:
            for b in ns:
                assert sum(a * c for a, c in zip(v, b)) == 0

    def test_nullspace_normalization(self):
        ns = linalg.nullspace(_sparse([[Fraction(0), Fraction(2), Fraction(1)]]), 3)
        for v in ns:
            lead = next(c for c in v if c != 0)
            assert lead == 1

    def test_rank(self):
        assert linalg.rank(_sparse([[1, 2], [2, 4], [1, 0]])) == 2

    def test_solve_inconsistent(self):
        assert linalg.lin_solve(_sparse([[1, 0], [1, 0]]), [1, 2], 2) is None

    def test_bareiss_matches_fraction_pivots(self):
        import random
        rng = random.Random(5)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
                for _ in range(4)]
        ns = linalg.nullspace(_sparse(rows), 5)
        assert len(ns) == 5 - linalg.rank(_sparse(rows))
        for b in ns:
            for r in rows:
                assert sum(a * c for a, c in zip(r, b)) == 0


def _gauss_jordan(rows, ncols):
    """Dense Fraction Gauss-Jordan: (reduced nonzero rows, pivot columns)."""
    m = [[Fraction(c) for c in r] for r in rows]
    pivots = []
    for c in range(ncols):
        p = next((i for i in range(len(pivots), len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        r = len(pivots)
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _oracle_nullspace(rows, ncols):
    red, pivots = _gauss_jordan(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in zip(red, pivots):
            v[c] = -r[f]
        lead = next(x for x in v if x != 0)
        basis.append([x / lead for x in v])
    basis.sort(key=lambda v: (tuple(i for i, x in enumerate(v) if x != 0),
                              tuple(v)))
    return basis


def _oracle_solve(rows, rhs, ncols):
    red, pivots = _gauss_jordan([list(r) + [b] for r, b in zip(rows, rhs)],
                                ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in zip(red, pivots):
        x[c] = r[ncols]
    return x


_entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                     st.fractions(min_value=-4, max_value=4, max_denominator=3))
_factors = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def _matrices(draw):
    """Small rational matrices with zero, repeated and proportional rows."""
    ncols = draw(st.integers(1, 6))
    base = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols),
                         max_size=5))
    rows = list(base)
    if base:
        for i, f in draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                            _factors), max_size=4)):
            rows.append([f * c for c in base[i]])
    rows += [[Fraction(0)] * ncols] * draw(st.integers(0, 2))
    rows = draw(st.permutations(rows))
    rhs = draw(st.lists(_entries, min_size=len(rows), max_size=len(rows)))
    return rows, ncols, rhs


class TestLinalgOracle:
    @settings(max_examples=200, deadline=None)
    @given(_matrices())
    def test_matches_dense_gauss_jordan(self, case):
        rows, ncols, rhs = case
        ns = linalg.nullspace(_sparse(rows), ncols)
        assert ns == _oracle_nullspace(rows, ncols)
        assert linalg.rank(_sparse(rows)) == ncols - len(ns)
        # the same rows with every integral entry an int, as detsys builds
        # them: the same basis, and no float or integral Fraction in it
        ints = [[c.numerator if c.denominator == 1 else c for c in r] for r in rows]
        ns_int = linalg.nullspace(_sparse(ints), ncols)
        assert ns_int == ns and all(exact_number(c) for v in ns_int for c in v)
        # consistent by construction, then an arbitrary right-hand side
        # (with no rows, both ask for the zero vector)
        x0 = [Fraction(j + 1, 2) for j in range(ncols)]
        image = [sum(a * b for a, b in zip(r, x0)) for r in rows]
        for b in (image, rhs):
            x = linalg.lin_solve(_sparse(rows), b, ncols)
            assert x == _oracle_solve(rows, b, ncols)
            assert x == linalg.lin_solve(_sparse(ints), b, ncols)
            if x is not None:
                assert all(map(exact_number, x))
                assert [sum(a * c for a, c in zip(r, x)) for r in rows] == b
        assert linalg.lin_solve(_sparse(rows), image, ncols) is not None

    def test_pivot_in_rhs_column(self):
        # proportional rows with disagreeing right-hand sides: 0 = 1
        rows = [[Fraction(1), Fraction(2)], [Fraction(-2), Fraction(-4)]]
        assert linalg.lin_solve(_sparse(rows), [1, -2], 2) == [Fraction(1), Fraction(0)]
        assert linalg.lin_solve(_sparse(rows), [1, 3], 2) is None
        assert _oracle_solve(rows, [1, 3], 2) is None

    def test_empty_rows(self):
        assert linalg.nullspace([], 3) == _oracle_nullspace([], 3)
        assert linalg.nullspace([], 3)[0] == [1, 0, 0]
        assert linalg.rank([]) == 0
        assert linalg.lin_solve([], [], 3) == [0, 0, 0]
