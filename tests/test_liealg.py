"""Lie brackets, the commutator table, structure constants, Jacobi."""

import random
from fractions import Fraction

import pytest

from liesym import add, is_zero, mul, parse, rat
from liesym.jets import VectorField
from liesym.liealg import (
    CommutatorTable, commutator_table, compare_with_golden,
    format_table, jacobi_check, lie_bracket, load_golden_table,
)
from liesym.detsys import SymmetryBasis, check_membership


@pytest.fixture(scope="module")
def table(basis):
    return commutator_table(basis)


def VF(pde, xs, eta):
    return VectorField([parse(s) for s in xs], parse(eta), pde.vars, pde.dep)


def _field_equal(A, B):
    return all(is_zero(add(a, mul(rat(-1), b)))
               for a, b in zip((*A.xi, A.eta), (*B.xi, B.eta)))


class TestBracket:
    def test_scaling_with_shift(self, basis):
        # [v1, v2] = (1/4) v2
        v1, v2 = basis.fields[0], basis.fields[1]
        br = lie_bracket(v1, v2)
        assert _field_equal(br, v2.scaled(rat(1, 4)))

    def test_time_translation_with_galilean(self, basis):
        # [v3, v8] = v10
        br = lie_bracket(basis.fields[2], basis.fields[7])
        assert _field_equal(br, basis.fields[9])

    def test_self_bracket_vanishes(self, basis):
        for V in basis.fields:
            assert lie_bracket(V, V).is_zero()

    def test_x_translation_with_galilean(self, basis):
        # [v4, v10] = -(1/20) v2
        br = lie_bracket(basis.fields[3], basis.fields[9])
        assert _field_equal(br, basis.fields[1].scaled(rat(-1, 20)))

    def test_antisymmetry_random_fields(self, pde):
        rng = random.Random(7)
        pool = ["0", "1", "x", "y", "t", "x*y", "u", "x^2", "t*u"]
        for _ in range(6):
            A = VF(pde, [rng.choice(pool) for _ in range(4)], rng.choice(pool))
            B = VF(pde, [rng.choice(pool) for _ in range(4)], rng.choice(pool))
            lhs = lie_bracket(A, B)
            rhs = lie_bracket(B, A).scaled(rat(-1))
            assert _field_equal(lhs, rhs)

    def test_jacobi_random_fields(self, pde):
        rng = random.Random(11)
        pool = ["0", "1", "x", "y", "u", "x*t", "y^2"]
        for _ in range(3):
            A = VF(pde, [rng.choice(pool) for _ in range(4)], rng.choice(pool))
            B = VF(pde, [rng.choice(pool) for _ in range(4)], rng.choice(pool))
            C = VF(pde, [rng.choice(pool) for _ in range(4)], rng.choice(pool))
            s = lie_bracket(A, lie_bracket(B, C)) \
                .plus(lie_bracket(B, lie_bracket(C, A))) \
                .plus(lie_bracket(C, lie_bracket(A, B)))
            assert s.is_zero()


class TestTable:
    def test_closure(self, table):
        assert table.closed

    def test_skew_symmetry(self, table):
        assert table.is_skew_symmetric()

    def test_matches_golden_every_cell(self, table):
        assert compare_with_golden(table) == []

    def test_translation_subalgebra_commutes(self, pde, basis):
        sub = SymmetryBasis([basis.fields[i] for i in (1, 2, 5, 6, 9)])
        t = commutator_table(sub)
        assert t.closed and not t.c

    def test_bracket_outside_the_span_fails_in_both_orders(self, basis):
        # [v3, v8] = v10 leaves the span of {v3, v8}
        v3, v8 = basis.fields[2], basis.fields[7]
        t = commutator_table(SymmetryBasis([v3, v8]))
        assert not t.closed and not t.is_skew_symmetric() and not t.c
        assert set(t.failures) == {(0, 1), (1, 0)}
        assert _field_equal(t.failures[(1, 0)], lie_bracket(v8, v3))
        assert t.cell(0, 1) is None and t.cell(1, 1) == {}
        assert format_table(t).splitlines()[1:] == ["v1   0   ?", "v2   ?   0"]

    def test_linear_independence(self, basis):
        # V_i has the coordinates e_i exactly when no basis column is free
        n = basis.dimension
        for i, V in enumerate(basis.fields):
            assert check_membership(basis, V) == [int(j == i) for j in range(n)]

    def test_format_mentions_cells(self, table):
        text = format_table(table)
        assert "1/4 v2" in text and "-1/20 v2" in text


class TestStructureConstants:
    def test_jacobi_holds(self, table):
        rep = jacobi_check(table)
        assert rep["ok"]
        assert rep["jacobi_violations"] == []

    def test_corrupted_constant_reported(self, table):
        c = {pair: dict(cell) for pair, cell in table.c.items()}
        c[(0, 1)][1] = Fraction(1, 3)  # corrupt c[1][2][2]
        rep = jacobi_check(CommutatorTable(table.basis, c, {}))
        assert not rep["ok"]

    def test_sparse_checks_match_brute_force(self, table):
        n = len(table.basis)
        rng = random.Random(3)
        found = 0
        for _ in range(4):
            c = [[[table.c.get((i, j), {}).get(k, Fraction(0)) for k in range(n)]
                  for j in range(n)] for i in range(n)]
            for _ in range(rng.randint(1, 3)):
                c[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] = \
                    Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            jacobi = [(i, j, k, l)
                      for i in range(n) for j in range(i + 1, n)
                      for k in range(j + 1, n) for l in range(n)
                      if sum(c[i][j][m] * c[m][k][l] + c[j][k][m] * c[m][i][l]
                             + c[k][i][m] * c[m][j][l] for m in range(n)) != 0]
            anti = [(i, j, k) for i in range(n) for j in range(n)
                    for k in range(n) if c[i][j][k] != -c[j][i][k]]
            sparse = {(i, j): {k: x for k, x in enumerate(c[i][j]) if x}
                      for i in range(n) for j in range(n) if any(c[i][j])}
            rep = jacobi_check(CommutatorTable(table.basis, sparse, {}))
            assert rep["jacobi_violations"] == jacobi
            assert rep["antisymmetry_violations"] == anti
            assert rep["ok"] == (not jacobi and not anti)
            found += len(jacobi) + len(anti)
        assert found    # the corruptions were seen

    def test_trivial_algebra_vacuous(self, basis):
        one = SymmetryBasis(basis.fields[:1])
        rep = jacobi_check(CommutatorTable(one, {}, {}))
        assert rep["ok"]


class TestGolden:
    def test_load_golden_cells(self):
        cells = load_golden_table()
        assert cells[(0, 1)] == (Fraction(1, 4), 1)
        assert cells[(3, 9)] == (Fraction(-1, 20), 1)
        # skew-symmetric transcription
        for (i, j), (c, k) in cells.items():
            assert cells[(j, i)] == (-c, k)

    def test_mismatch_detected(self, table):
        golden = load_golden_table()
        golden[(0, 1)] = (Fraction(1, 3), 1)
        mism = compare_with_golden(table, golden)
        assert len(mism) == 1 and mism[0][:2] == (0, 1)
