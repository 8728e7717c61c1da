"""Acceptance criteria, one test per criterion, each printing pass/fail.

Every tolerance is pinned here: exact-symbolic checks use the normal
form, numeric residual checks use 1e-9 relative (double), group-action
checks 1e-8 relative (dd), Weierstrass checks 1e-8 relative.
"""

import hashlib
import json
import time
from fractions import Fraction

import pytest

from liesym import Sym, is_zero, parse
from liesym.catalog import load_catalog, solution_context
from liesym.detsys import (
    check_membership, extract_determining, reference_system,
    solve_poly_ansatz, systems_equivalent,
)
from liesym.flows import compare_flow, exponentiate, load_reference_groups, \
    satisfies_flow_ode, verify_group_action
from liesym.jets import restrict_on_shell, symmetry_condition
from liesym.liealg import commutator_table, compare_with_golden, jacobi_check
from liesym.verify import (
    ReductionAnsatz, check_reduction, ode_condition, ode_residual, residual,
    weierstrass_residual,
)
from liesym.weierstrass import weierstrass_jet, wp_ode_residual
from liesym.parse import ParseContext


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num}: {status} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def system(pde):
    return extract_determining(pde)


@pytest.fixture(scope="module")
def solved(pde, system):
    return {d: solve_poly_ansatz(system, d) for d in (1, 2)}


@pytest.fixture(scope="module")
def records():
    return load_catalog()


@pytest.fixture(scope="module")
def flows10(basis):
    return [exponentiate(V) for V in basis.fields]


def test_criterion_1_determining_system(pde, system):
    t0 = time.time()
    ref = reference_system(pde)
    equivalent = systems_equivalent(system, ref, 2)
    elapsed = time.time() - t0
    _report(1, equivalent and elapsed < 60.0,
            f"equivalent={equivalent} elapsed={elapsed:.1f}s (< 60 s)")


def test_criterion_2_symmetry_algebra(pde, system, solved, basis):
    dims_ok = solved[1].dimension == 10 and solved[2].dimension == 10
    member_ok = all(
        check_membership(solved[d], V) is not None
        for d in (1, 2) for V in basis.fields
    )
    direct_ok = all(
        is_zero(restrict_on_shell(symmetry_condition(V, pde), pde))
        for V in basis.fields
    )
    _report(2, dims_ok and member_ok and direct_ok,
            f"dim1={solved[1].dimension} dim2={solved[2].dimension} "
            f"membership={member_ok} direct={direct_ok}")


def test_criterion_3_commutator_table(basis):
    table = commutator_table(basis)
    mism = compare_with_golden(table)
    jac = jacobi_check(table)
    cell_ok = table.c[(3, 9)] == {1: Fraction(-1, 20)}  # [v4, v10] = -(1/20) v2
    ok = not mism and table.is_skew_symmetric() and jac["ok"] and cell_ok
    _report(3, ok, f"golden_mismatches={len(mism)} skew={table.is_skew_symmetric()} "
                   f"jacobi={jac['ok']}")


def test_criterion_4_flows(pde, basis, flows10):
    refs = load_reference_groups(pde)
    ode_ok = all(satisfies_flow_ode(g) for g in flows10)
    results = {i: compare_flow(flows10[i - 1], refs[f"g{i}"], f"g{i}")
               for i in range(1, 11)}
    exact_ok = all(results[i].consistent and results[i].rescale == 1
                   for i in (2, 3, 6, 7, 10))
    rescale_ok = (results[4].rescale == 20 and results[8].rescale == 6
                  and results[9].rescale == 10)
    g1_reported = not results[1].consistent and results[1].detail["per_coordinate"]
    _report(4, ode_ok and exact_ok and rescale_ok and bool(g1_reported),
            f"flow_ode={ode_ok} exact={exact_ok} rescales(4,8,9)="
            f"({results[4].rescale},{results[8].rescale},{results[9].rescale}) "
            f"g1_inconsistent={not results[1].consistent}")


def test_criterion_5_solution_residuals(pde, records):
    t0 = time.time()
    required = [
        "u2-rational", "u3-kink", "u17-kink", "u18-kink",
        "u10-sqrt", "u11-rational", "u12-mixed",
        "u13-rational", "u14-rational", "u15-rational",
        "u16-tanh", "u16-sech", "u16-rational",
        "u20a-multi-tanh", "u20b-multi-sech", "u21-tanh", "u21-sech",
        "t2-sqrt-combination", "t2-sqrt-combination-b",
        "t2-travelling-x-over-t", "t2-parabolic-profile",
        "t3-shifted-product", "t3-travelling-t-over-x", "t3-scaling-sqrt",
        "t3-arbitrary-x", "t3-travelling-t-over-y", "t3-arbitrary-y",
    ]
    by_name = {r.name: r for r in records}
    failures = []
    for name in required:
        rec = by_name[name]
        f = parse(rec.get("claim"), solution_context())
        rep = residual(f, pde, rec.params(), points=100, tol=1e-9)
        if rep.symbolic != "zero" or rep.max_rel >= 1e-9:
            failures.append((name, rep.symbolic, rep.max_rel))
    elapsed = time.time() - t0
    _report(5, not failures and elapsed < 120.0,
            f"{len(required)} families exact + sampled, elapsed={elapsed:.1f}s "
            f"(< 120 s) failures={failures}")


def test_criterion_6_reduced_equations(pde, records):
    by_name = {r.name: r for r in records}
    wanted_multipliers = {
        "red-time-translation": "1",
        "red-z-translation": "1",
        "red-y-translation": "1",
        "red-galilean-x": "1/(3*T^2)",
        "red-galilean-y": "1",
        "red-travelling-wave": "a*b",
        "red-scaling-corrected": "-1/(4*t^(5/4))",
    }
    ok = True
    details = []
    for name, m_txt in wanted_multipliers.items():
        ans = ReductionAnsatz(by_name[name], pde)
        rep = check_reduction(ans)
        # multipliers may carry leftover original coordinates (t here)
        ctx = ParseContext(indep=ans.new_vars + ("x", "y", "z", "t"),
                           deps=(ans.unknown,))
        want = parse(m_txt, ctx)
        good = rep.matches and is_zero(rep.multiplier - want)
        ok = ok and good
        details.append(f"{name}:{'ok' if good else 'BAD'}")
    printed = check_reduction(ReductionAnsatz(by_name["red-scaling-printed"], pde))
    variant_ok = not printed.matches
    _report(6, ok and variant_ok,
            f"{' '.join(details)} printed-variant-rejected={variant_ok}")


def test_criterion_7_reduced_ode_solutions(records):
    wctx = ParseContext(indep=("w",), deps=("R",))
    ode31 = parse("w^2*R_www - R_w*(-6*w*R_w + 6*R + w^2)", wctx)
    w = (Sym("w"),)
    const_ok = ode_residual(parse("alpha1", wctx), ode31, w, "R").symbolic == "zero"
    parab_ok = ode_residual(parse("w^2/6", wctx), ode31, w, "R").symbolic == "zero"

    qctx = ParseContext(indep=("q",), deps=("f",))
    ode51 = parse("2*f^3 - k^2*f_q^2/2", qctx)  # alpha = 0, a = -k^2
    q = (Sym("q"),)
    branch_ok = all(
        ode_residual(parse(f"4*k^2/(c1*k {s} 2*q)^2", qctx), ode51, q,
                     "f").symbolic == "zero"
        for s in "+-")

    gctx = ParseContext(indep=("r", "s"), deps=("G",))
    eq46 = parse("6*G_s*G_r + G_rrs", gctx)
    sol = parse("2*k^2/(alpha1*k + 2*(a*r + b*s))", gctx)
    cond = parse("k^2 - a", gctx)
    rs = tuple(Sym(v) for v in ("r", "s"))
    m = ode_condition(sol, eq46, rs, "G", cond)
    flag_ok = m is not None and not m.is_zero()
    _report(7, const_ok and parab_ok and branch_ok and flag_ok,
            f"const={const_ok} parabola={parab_ok} kink-branches={branch_ok} "
            f"(k^2-a)-condition={flag_ok}")


def _scaled_f_residual(rec, points=40, seed=0):
    """Max relative residual of 6 f^2 + a f'' for the record's
    f = wp(mu (q + c1); 0, c2)/mu at seeded q, mu = cbrt(-1/a) real, with
    wp and wp'' from one jet and everything taken at 106 bits."""
    import mpmath
    from liesym.expr import EvalDomainError
    from liesym.numeric import DD_PREC, sampled

    with mpmath.workprec(DD_PREC):
        a, c1, g3 = (mpmath.mpf(v.numerator) / v.denominator for v in map(
            Fraction, (rec.get("a"), rec.get("c1"), rec.get("c2"))))
        mu = mpmath.sign(-a) * mpmath.cbrt(1 / abs(a))

        def rel(q):
            p, _, p2, _ = weierstrass_jet(mu * (q + c1), g3)
            if abs(p) > 50:
                raise EvalDomainError("wp too large at sample")
            terms = (6 * (p / mu) ** 2, a * mu * p2)  # f = wp/mu, f'' = mu wp''
            return float(abs(sum(terms)) / (1 + sum(map(abs, terms))))

        rels = list(sampled(rel, 1, points, points * 30, seed, (0.15, 1.6)))
    assert len(rels) == points
    return max(rels)


def test_criterion_8_weierstrass(records):
    import cmath
    import random
    from liesym.weierstrass import weierstrass_p
    from liesym.expr import EvalDomainError

    rng = random.Random(0)
    worst = 0.0
    good = 0
    while good < 100:
        r = rng.uniform(0.1, 2.0)
        th = rng.uniform(0.0, 2.0 * cmath.pi)
        z = r * cmath.exp(1j * th)
        g3 = rng.uniform(0.5, 5.0)
        try:
            if abs(weierstrass_p(z, g3)) > 50:
                continue
        except EvalDomainError:
            continue
        worst = max(worst, wp_ode_residual(z, g3))
        good += 1
    ode_ok = worst <= 1e-8

    by_name = {r.name: r for r in records}
    p_form = [by_name["wp-equianharmonic"], by_name["wp-equianharmonic-positive-a"]]
    scaled_worst, scaled_worst2 = map(_scaled_f_residual, p_form)
    f_ok = scaled_worst <= 1e-8 and scaled_worst2 <= 1e-8
    # exact wp'' and a residual taken at 106 bits leave no double rounding
    f_ok = f_ok and max(scaled_worst, scaled_worst2) < 1e-24
    # and the verdict itself: the residual is exactly zero
    exact_ok = all(str(weierstrass_residual(r)) == "0" for r in p_form)
    _report(8, ode_ok and f_ok and exact_ok,
            f"wp-ode max_rel={worst:.2e} scaled-f max_rel="
            f"{max(scaled_worst, scaled_worst2):.2e} (tol 1e-8) "
            f"exact-residual-zero={exact_ok}")


def test_criterion_9_group_actions(pde, records, flows10):
    by_name = {r.name: r for r in records}
    solutions = [r for r in records
                 if r.kind == "solution" and r.expected == "zero"]
    failures = []
    worst = 0.0
    rows = []
    for rec in solutions:
        f = parse(rec.get("claim"), solution_context())
        for i, g in enumerate(flows10, 1):
            rep = verify_group_action(g, f, pde, params=rec.params(),
                                      samples=50, tol=1e-8, precision="dd")
            if not rep["pass"]:
                failures.append((rec.name, f"g{i}", rep["max_rel"]))
            worst = max(worst, rep["max_rel"])
            rows.append(f"{rec.name} g{i} samples={rep['samples']} "
                        f"max_rel={rep['max_rel']!r}")
    # dd terms are evaluated and summed at 106 bits, so no double rounding is left
    _report(9, not failures and worst < 1e-24,
            f"{len(solutions)} solutions x {len(flows10)} flows at 50 dd points"
            f" worst max_rel={worst:.2e} failures={failures}")
    # the seed-0 rows every earlier version gave, in the benchmark's
    # group-action.txt format
    assert hashlib.sha256(("\n".join(rows) + "\n").encode()).hexdigest() == (
        "0b2fe8413cd029773241f86e6402c17bd694c213b76091b7c3fd14fa46aa55c8")


def test_criterion_10_pipeline_determinism(tmp_path):
    from liesym.cli import main
    outs = []
    for tag in ("a", "b"):
        j = tmp_path / f"{tag}.json"
        o = tmp_path / f"{tag}.csv"
        rc = main(["pipeline", "--points", "10", "--degree", "1",
                   "--json", str(j), "--out", str(tmp_path / f"{tag}.txt")])
        assert rc == 0
        rcs = main(["sample", "--name", "u3-kink",
                    "--grid", "x=-2:2:9,y=-1:1:5", "--fix", "z=0,t=0",
                    "--out", str(o)])
        assert rcs == 0
        outs.append((j.read_bytes(), o.read_bytes(),
                     (tmp_path / f"{tag}.txt").read_bytes()))
    ok = outs[0] == outs[1]
    _report(10, ok, "pipeline JSON, text and CSV byte-identical across reruns")
