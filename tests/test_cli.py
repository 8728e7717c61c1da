"""Command-line interface: subcommands, exit codes, determinism, CSV."""

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from liesym.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestDerive:
    def test_prints_constraints(self, capsys):
        rc, out, err = run(capsys, "derive")
        assert rc == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) > 20
        assert any("eta" in l for l in lines)

    def test_output_is_byte_stable(self, capsys):
        # the determining system of the shipped kdv31.pde, as every earlier
        # version printed it (independent of PYTHONHASHSEED)
        rc, out, _ = run(capsys, "derive")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "466bc5dca8c279efbf1e5eedaa615ea47785a486107b3a198955fa858467c882")

    def test_output_reparses(self, capsys, pde):
        from liesym.parse import ParseContext, parse
        rc, out, _ = run(capsys, "derive")
        ctx = ParseContext(indep=("x", "y", "z", "t", "u"),
                           deps=("xi1", "xi2", "xi3", "xi4", "eta"))
        for line in out.splitlines():
            if line.strip():
                parse(line, ctx)


class TestSolve:
    def test_dimension_ten(self, capsys):
        rc, out, _ = run(capsys, "solve", "--degree", "1")
        assert rc == 0
        assert out.splitlines()[0] == "dimension 10"
        assert sum(1 for l in out.splitlines() if l.startswith("b")) == 10

    def test_corrupted_pde_changes_dimension(self, capsys, tmp_path):
        # sign flip on the third-order mixed term is detected by the solver
        bad = tmp_path / "bad.pde"
        bad.write_text(
            "vars x y z t\ndep u\n"
            "eq u_t + 6*u_x*u_y - u_xxy + u_xxxxz + 60*u_x^2*u_z"
            " + 10*u_xxx*u_z + 20*u_x*u_xxz\n")
        rc, out, _ = run(capsys, "solve", "--degree", "1", "--pde", str(bad))
        dim = int(out.splitlines()[0].split()[1])
        assert dim != 10

    def test_output_is_byte_stable(self, capsys):
        # the basis every earlier version printed, the same text at degrees
        # 1-4 (independent of PYTHONHASHSEED)
        rc, out, _ = run(capsys, "solve", "--degree", "3")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fa5997ca0eb038aefc7cc4f13335b34721a50dda59fbd42eb52c1084c9958ae9")


_DATA = os.path.join(os.path.dirname(__file__), "data")


class TestOtherEquations:
    """derive and solve on equations other than kdv31, pinned to the text
    earlier versions printed (independent of PYTHONHASHSEED): another
    dependent variable, u inside exp, a quotient of jets, and two equations
    with few constraints."""

    @pytest.mark.parametrize("name, derive, solve", [
        ("kdv_v",
         "1cffe584fb29fc221ea980e19e0fddebd7541c9e038702b149940b94537f3acb",
         "0ab8792a8cf6590aade68a33aace602a2f6ea60d4bd34b837ac58f24f69af2b8"),
        ("exp_transport",
         "1d50d864c33d8a37b62787c50f8a5c438954e52e55f0c6547734fe7e2db6f85a",
         "60dbf5146ee8482a06288688c80dbac22bc494ba3817daadc54ea664d33d2037"),
        ("ratio",
         "4842ff348bcbc1f3f7d808724be4f6d233f366e84627ec21543078cabae3c72f",
         "7d73f594a1c96b7eea3697b171c986819855725256c53ef89cf817397dc955ab"),
        ("decay",
         "f9f62da3703a1bc69fcacc8b97e78470a877e7769deb8943dc9b5add85bdc90b",
         "0c46f9d65716fcef0bc66f75aac7ddbb9abe4ce8538cbe1afd8bbaf21c0a3383"),
        ("stationary",
         "c66d12698e93ba00ba9c121bd71ac57359d0a7a6b631d6b551cbbe4ecd5bab2b",
         "a97fced42d8c90bd316a65e6ffc1b71a65b3345d1d0217d0158435df4f8252ce"),
    ])
    def test_output_is_byte_stable(self, capsys, name, derive, solve):
        path = os.path.join(_DATA, f"{name}.pde")
        for argv, digest in ((("derive",), derive), (("solve", "--degree", "2"), solve)):
            rc, out, _ = run(capsys, *argv, "--pde", path)
            assert rc == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("dep", ["eta", "xi1"])
    def test_dependent_variable_named_like_an_unknown(self, capsys, tmp_path, dep):
        # KdV in a variable that the unknowns would be named: its jets stay
        # apart from theirs, which are named in upper case
        pde = tmp_path / "kdv.pde"
        pde.write_text(f"vars x t\ndep {dep}\neq {dep}_t + {dep}*{dep}_x + {dep}_xxx\n")
        rc, out, _ = run(capsys, "derive", "--pde", str(pde))
        assert rc == 0 and f"-ETA_x{dep} + XI1_xx - {dep}*XI2_xx" in out.splitlines()
        rc, out, _ = run(capsys, "solve", "--degree", "2", "--pde", str(pde))
        assert rc == 0
        assert out.splitlines()[:3] == ["dimension 4", "b1 = (1, 0, 0)", f"b2 = (x, 3*t, -2*{dep})"]


class TestTable:
    def test_golden_match(self, capsys):
        rc, out, _ = run(capsys, "table", "--compare", "table1.golden")
        assert rc == 0
        assert "all cells match" in out

    def test_solved_basis_closed(self, capsys):
        rc, out, _ = run(capsys, "table", "--basis", "solve", "--degree", "1")
        assert rc == 0

    def test_solved_basis_output_is_byte_stable(self, capsys):
        # the table of the solved basis every earlier version printed
        rc, out, _ = run(capsys, "table", "--basis", "solve")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1bddc1a592d1ce1ffdc4b5a0f59a4bcf38c2b28a219cd998d63c895e5e89eabd")

    @pytest.mark.parametrize("argv, digest", [
        ((), "7d27cacabffc7fd308fefbaa80415551e1f9dae25d764bfa557ea0931f5f9bbb"),
        (("--compare", "table1.golden"),
         "d88f9af6cf29eeb450c989e02edde9ccfc3f8a37d9bb27d78b22820660136246"),
    ], ids=["reference", "compare"])
    def test_reference_output_is_byte_stable(self, capsys, argv, digest):
        rc, out, _ = run(capsys, "table", *argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_mismatching_golden_fails(self, capsys, tmp_path):
        golden = tmp_path / "wrong.golden"
        golden.write_text("[v1,v2] = 1/3 v2\n[v2,v1] = -1/3 v2\n")
        rc, out, _ = run(capsys, "table", "--compare", str(golden))
        assert rc == 1
        lines = out.splitlines()
        assert "mismatch at (v1, v2): got 1/4 v2 expected 1/3 v2" in lines
        assert "mismatch at (v1, v3): got -v3 expected 0" in lines

    @pytest.mark.parametrize("cell, message", [
        ("[v1] = 1 v3", "is not [vI, vJ] = c vK"),
        ("[w1, v2] = 1 v3", "is not [vI, vJ] = c vK"),
        ("[v1, v2] = 1 v99", "outside v1..v10"),
        ("[v0, v2] = 1 v2", "outside v1..v10"),
    ])
    def test_malformed_golden_is_input_error(self, capsys, tmp_path, cell, message):
        golden = tmp_path / "bad.golden"
        golden.write_text(f"[v1,v2] = 1/4 v2\n# a comment\n\n{cell}\n")
        rc, out, err = run(capsys, "table", "--compare", str(golden))
        assert (rc, out) == (2, "")
        assert message in err and "at line 4" in err


class TestFlow:
    def test_prints_maps(self, capsys):
        rc, out, _ = run(capsys, "flow", "--field", "3", "--epsilon", "2")
        assert rc == 0
        assert "t~ = eps + t" in out

    @pytest.mark.parametrize("field, digest", [
        (1, "359df6934cf416b64a92c8ba44be0b86db3f00fb1277596672d03731202f5180"),
        (2, "796a383adf73149ef4d4254a07d39ac6ce98a49a9acd9ddd117a26568cca7974"),
        (3, "3110c07e944453b4784b62981744d18769ff326518ea7eafc3b3b14dbb8c9888"),
        (4, "6c695a524de4d51bad5b58797a7735e07ae09c5332b8df67aa3438db11b48ac7"),
        (5, "fe6f0684606ae5b1586a0ad0fed7a2efb1192e4bc8aaf0e952e9c77dd8488014"),
        (6, "efa092a65458e47762a928bd304b1443a70e0b8fcc20b57236190d8a91bd198d"),
        (7, "6c60f951ee7f24a607e6a1cf039060f1e1d7d9c394602b6130aa3e15eb86fc90"),
        (8, "89a6eff64852ee31a029e3397759d0b3a7c86b4b81e9ac7ca91463074e49846b"),
        (9, "234d6a9e81bf3b7d01a2c286339bd369ce77cb5f320a0613a6a026b085fa0e2b"),
        (10, "1cd1a751f0bd67d42c8a76bc636236ab8d8e79ec64e28d96c7e11b821de2af4c"),
    ])
    def test_output_is_byte_stable(self, capsys, field, digest):
        # each generator's flow, as a map and at eps = 1/2, as every
        # earlier version printed it
        rc, out, _ = run(capsys, "flow", "--field", str(field), "--epsilon", "1/2")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_apply_solution(self, capsys, tmp_path):
        sol = tmp_path / "sol.txt"
        sol.write_text("x*y/(6*t)\n")
        rc, out, _ = run(capsys, "flow", "--field", "3", "--apply", str(sol))
        assert rc == 0
        assert "transformed solution" in out

    def test_apply_solution_at_epsilon(self, capsys, tmp_path):
        # v3 translates t: u(x, t - eps) solves the equation again
        sol = tmp_path / "sol.txt"
        sol.write_text("tanh(x - t)\n")
        rc, out, _ = run(capsys, "flow", "--field", "3", "--apply", str(sol),
                         "--epsilon", "1/2")
        assert rc == 0
        assert "transformed solution: tanh(1/2 - t + x)" in out.splitlines()

    def test_bad_index(self, capsys):
        rc, _, err = run(capsys, "flow", "--field", "99")
        assert rc == 2

    def test_claim_naming_the_group_parameter_is_input_error(self, capsys, tmp_path):
        # the claim's eps would be captured by the flow's own parameter
        sol = tmp_path / "sol.txt"
        sol.write_text("eps*x + t\n")
        rc, out, err = run(capsys, "flow", "--field", "2", "--apply", str(sol))
        assert (rc, out) == (2, "")
        assert "eps" in err


class TestVerify:
    def test_catalog_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--points", "12")
        assert rc == 0
        assert "records as expected" in out

    @pytest.mark.parametrize("argv, digest", [
        (("--seed", "0"),
         "37e09c01bea1f6ab625e0ab0dc7d6c64cc1a6b61bbba465f2b0b140f82738a36"),
        (("--seed", "7", "--precision", "dd"),
         "772eb67ed7b12b34d01f27ba8cd1ee68b226a229c7d51ccb185a12aa9d013c74"),
    ], ids=["seed0", "seed7-dd"])
    def test_output_is_byte_stable(self, capsys, argv, digest):
        # the sampled max_rel digits and "over N pts" counts every earlier
        # version printed (independent of PYTHONHASHSEED); since `i` is the
        # imaginary unit, u8u9-rational's multiplier reads -96*a*b*k^2/...
        # where it read 96*a*b*i^2*k^2/..., and since the Weierstrass
        # records are decided exactly their rows print the exact residual
        # (`residual = 0`, `residual = 288*wp^2 (claim fails as printed)`)
        # where they printed a sampled max_rel
        rc, out, _ = run(capsys, "verify", *argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_empty_catalog_vacuous(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        rc, out, _ = run(capsys, "verify", "--catalog", str(empty))
        assert rc == 0
        assert "warning" in out

    def test_broken_catalog_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("[not-a-solution]\nkind: solution\n"
                       "claim: x*y/(6*t) + x/1000\nexpected: zero\n")
        rc, out, _ = run(capsys, "verify", "--catalog", str(bad), "--points", "8")
        assert rc == 1

    def test_claim_with_jets_of_u_is_an_error_row(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("[jet-claim]\nkind: solution\nclaim: u_x*y\nexpected: zero\n")
        rc, out, _ = run(capsys, "verify", "--catalog", str(bad), "--points", "8")
        assert rc == 1
        assert "error" in out and "ValueError: claim contains jets of u: u_x" in out

    def test_a_name_may_change_roles_between_records(self, capsys, tmp_path):
        # k is the ode record's variable and the solution record's parameter
        cat = tmp_path / "k.txt"
        cat.write_text("[ode-k]\nkind: ode\nvars: k\nunknown: R\nequation: R_k\n"
                       "solution: 1\nexpected: zero\n\n"
                       "[sol-k]\nclaim: k*x*0 + 0\nexpected: zero\n")
        rc, out, _ = run(capsys, "verify", "--catalog", str(cat), "--points", "8")
        assert rc == 0
        assert out.splitlines()[-1] == "2/2 records as expected"

    def test_ode_solution_with_own_jets_is_an_error_row(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("[jet-ode]\nkind: ode\nvars: w\nunknown: R\nequation: R_ww\n"
                       "solution: R_w*w\nexpected: zero\n")
        rc, out, _ = run(capsys, "verify", "--catalog", str(bad), "--points", "8")
        assert rc == 1
        assert "error" in out and "ValueError: claim contains jets of R: R_w" in out


# Catalog fuzz: names from one small pool recur as ode variables, claim
# parameters and PDE coordinates, so a name changes roles between records.
_NAMES = ("a", "k", "w", "x", "t")
_CLAIMS = ("{p}", "{p}*x*0 + {q}", "{p}*x + {q}*t", "{p}/{q}", "exp({p}*x - {q}*t)")
_ODES = (("R_{v}", "{p}"), ("R_{v}{v} - {p}^2*R", "exp({p}*{v})"),
         ("{v}*R_{v} - R", "{p}*{v}"), ("R_{v} - {p}", "{p}*{v} + {q}"))


@st.composite
def _records(draw):
    p, q, v = (draw(st.sampled_from(_NAMES)) for _ in range(3))
    expected = draw(st.sampled_from(("zero", "mismatch")))
    if draw(st.booleans()):
        claim = draw(st.sampled_from(_CLAIMS)).format(p=p, q=q)
        return f"claim: {claim}\nexpected: {expected}\n"
    eq, sol = draw(st.sampled_from(_ODES))
    return (f"kind: ode\nvars: {v}\nunknown: R\nequation: {eq.format(v=v, p=p)}\n"
            f"solution: {sol.format(v=v, p=p, q=q)}\nexpected: {expected}\n")


def _verify_rows(tmp, records, precision):
    """Exit code and the whitespace-split rows of `verify` on records."""
    cat, out = os.path.join(tmp, "cat.txt"), os.path.join(tmp, "out.txt")
    with open(cat, "w") as fh:
        fh.write("\n".join(f"[r{i}]\n{body}" for i, body in records))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["verify", "--catalog", cat, "--points", "4",
                   "--precision", precision, "--out", out])
    assert rc in (0, 1, 2, 3) and "Traceback" not in err.getvalue()
    if not os.path.exists(out):
        return rc, []
    with open(out) as fh:
        rows = [line.split() for line in fh.read().splitlines()]
    os.remove(out)
    return rc, rows[:len(records)]


@settings(max_examples=30, deadline=None)
@given(st.lists(_records(), min_size=2, max_size=4))
def test_catalog_rows_do_not_depend_on_their_neighbours(bodies):
    records = list(enumerate(bodies))
    with tempfile.TemporaryDirectory() as tmp:
        for precision in ("double", "dd"):
            rc, rows = _verify_rows(tmp, records, precision)
            # alone, last record first, so state one run leaves to the next shows
            alone = [_verify_rows(tmp, [rec], precision) for rec in records[::-1]][::-1]
            assert rows == [row for _, (row,) in alone]
            # every drawn record is well formed, so an error row is a fault
            assert [row for row in rows if row[3] == "error"] == []
            assert rc == max(a_rc for a_rc, _ in alone)


class TestSample:
    def test_exact_grid_values(self, capsys):
        rc, out, _ = run(capsys, "sample", "--expr", "x*y/(6*t)",
                         "--grid", "x=1:3:3,y=1:3:3", "--fix", "t=1")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,y,u"
        assert len(lines) == 10
        for line in lines[1:]:
            xs, ys, us = (float(v) for v in line.split(","))
            assert us == xs * ys / 6.0
        # row-major in declared axis order: x outer, y inner
        pts = [tuple(float(v) for v in l.split(",")[:2]) for l in lines[1:]]
        assert pts == [(float(x), float(y)) for x in (1, 2, 3) for y in (1, 2, 3)]

    def test_seventeen_digit_round_trip(self, capsys):
        from liesym.catalog import solution_context
        from liesym.numeric import eval_numeric
        from liesym.parse import parse
        rc, out, _ = run(capsys, "sample", "--expr", "tanh(x) + 1/3",
                         "--grid", "x=-1:1:7")
        f = parse("tanh(x) + 1/3", solution_context())
        for line in out.strip().splitlines()[1:]:
            xs, us = (float(v) for v in line.split(","))
            assert eval_numeric(f, {"x": xs}) == us

    def test_kink_monotone_with_asymptotes(self, capsys, tmp_path):
        out_path = tmp_path / "kink.csv"
        rc, _, _ = run(capsys, "sample", "--name", "u3-kink",
                       "--grid", "x=-40:40:41,y=-1:1:3", "--fix", "z=0,t=0",
                       "--out", str(out_path))
        assert rc == 0
        rows = out_path.read_text().strip().splitlines()[1:]
        by_y = {}
        for row in rows:
            xs, ys, us = (float(v) for v in row.split(","))
            by_y.setdefault(ys, []).append((xs, us))
        c1, c5 = 1.9872, 3.9812
        for ys, pts in by_y.items():
            pts.sort()
            vals = [u for _, u in pts]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert abs(vals[0] - (c5 - c1)) < 1e-6
            assert abs(vals[-1] - (c5 + c1)) < 1e-6

    def test_bounded_soliton_profile(self, capsys):
        # the sech-squared shifted field stays within [0, 3] of x*y/(6*t)
        rc, out, _ = run(capsys, "sample", "--name", "u20b-multi-sech",
                         "--grid", "x=-3:3:7,y=0.5:3:6", "--fix", "z=0.9654,t=6")
        assert rc == 0
        for line in out.strip().splitlines()[1:]:
            xs, ys, us = (float(v) for v in line.split(","))
            diff = us - xs * ys / 36.0
            assert -1e-12 <= diff <= 3.0

    def test_dd_precision(self, capsys):
        rc, out, _ = run(capsys, "sample", "--expr", "x + 1/3",
                         "--grid", "x=0:1:2", "--precision", "dd")
        assert rc == 0
        # 17 digits of the 106-bit value, not of the nearest double
        assert out.splitlines()[1:] == ["0,0.33333333333333333",
                                        "1,1.3333333333333333"]
        grid = ("--name", "u3-kink", "--grid", "x=-1:1:2,y=-1:1:2",
                "--fix", "z=0,t=0")
        rc, dd, _ = run(capsys, "sample", *grid, "--precision", "dd")
        assert rc == 0
        _, double, _ = run(capsys, "sample", *grid)
        for a, b in zip(dd.splitlines()[1:], double.splitlines()[1:]):
            assert abs(float(a.split(",")[-1]) - float(b.split(",")[-1])) < 1e-12

    @pytest.mark.parametrize("argv, digest", [
        (("--name", "u3-kink", "--grid", "x=-1.5:1.5:4,y=-0.04:0.04:3",
          "--fix", "z=0.3,t=0"),
         "15cc3862b6ac6f8be37979cc215c83c0226a8791bff27977af587ae6c31501cd"),
        (("--name", "u12-mixed", "--grid", "x=-1:1:3,y=-2:2:2",
          "--fix", "z=0.7,gamma=1.3"),
         "9fa285edc1ed685a299e80ba59e9c33b381998a31fa955fad9e1188aaa1637d9"),
        (("--name", "u16-sech", "--grid", "x=-1:1:3,y=0.5:2:4",
          "--fix", "z=0.9,t=0"),
         "a58762e674022ccdd15ed9191124adfb492d08af5847e0094b7104326227f2fb"),
    ], ids=["tanh", "rational-powers", "sech"])
    def test_dd_output_is_byte_stable(self, capsys, argv, digest):
        # all 17 printed digits of every 106-bit value; u12-mixed is nan
        # where z/y < 0 puts its square root off the real branch
        rc, out, _ = run(capsys, "sample", *argv, "--precision", "dd")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_dd_inputs_enter_exactly(self, capsys):
        rc, out, _ = run(capsys, "sample", "--expr", "1/x",
                         "--grid", "x=3:6:2", "--precision", "dd")
        assert rc == 0
        # a float input left in double would print ...331 and ...666
        assert out.splitlines()[1:] == ["3,0.33333333333333333",
                                        "6,0.16666666666666667"]

    def test_jet_expression_is_input_error(self, capsys):
        rc, out, err = run(capsys, "sample", "--expr", "u_x", "--grid", "x=0:1:2")
        assert rc == 2
        assert "jet" in err and out == ""

    def test_singular_points_emit_nan(self, capsys):
        rc, out, err = run(capsys, "sample", "--expr", "1/x",
                           "--grid", "x=-1:1:3")
        assert rc == 0
        assert "nan" in out
        assert "singularities" in err

    def test_unbound_symbol_is_input_error(self, capsys):
        rc, _, err = run(capsys, "sample", "--expr", "q*x", "--grid", "x=0:1:2")
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ("--name", "u8u9-rational-corrected", "--fix", "y=1,k=1,b=1,alpha1=1"),
        ("--expr", "1 + i*x"),
    ], ids=["record", "expr"])
    def test_claim_holding_i_is_input_error(self, capsys, argv):
        # `i` is the imaginary unit; a real grid of it would be all nan
        rc, out, err = run(capsys, "sample", *argv, "--grid", "x=0:1:2")
        assert rc == 2 and out == ""
        assert "imaginary unit i" in err

    def test_swept_and_fixed_disjoint(self, capsys):
        rc, _, err = run(capsys, "sample", "--expr", "x*y", "--grid", "x=0:1:2",
                         "--fix", "x=1,y=2")
        assert rc == 2
        assert "swept and fixed" in err


class TestPipeline:
    def test_pass_and_determinism(self, capsys, tmp_path):
        j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
        o1, o2 = tmp_path / "a.txt", tmp_path / "b.txt"
        rc1, _, _ = run(capsys, "pipeline", "--points", "10", "--degree", "1",
                        "--json", str(j1), "--out", str(o1))
        rc2, _, _ = run(capsys, "pipeline", "--points", "10", "--degree", "1",
                        "--json", str(j2), "--out", str(o2))
        assert rc1 == rc2 == 0
        assert j1.read_bytes() == j2.read_bytes()
        assert o1.read_bytes() == o2.read_bytes()
        summary = json.loads(j1.read_text())
        assert summary["ok"] and summary["solve"]["dimension"] == 10
        assert summary["table"]["golden_mismatches"] == 0

    def test_degree_two_json_is_byte_stable(self, capsys, tmp_path):
        # the pipeline summary every earlier version wrote (independent of
        # PYTHONHASHSEED)
        j = tmp_path / "p.json"
        rc, _, _ = run(capsys, "pipeline", "--degree", "2", "--json", str(j),
                       "--out", str(tmp_path / "p.txt"))
        assert rc == 0
        assert hashlib.sha256(j.read_bytes()).hexdigest() == (
            "38865c31ff67918d61b4be13703b5775b995b49c7ebe8a9924482a6cbddbf1a8")

    def test_other_equation_fails_at_solve(self, capsys, tmp_path):
        # the 1+1 KdV equation has no ten-dimensional algebra, so the run
        # stops after solve and records no table stage
        j = tmp_path / "s.json"
        pde = os.path.join(_DATA, "kdv_v.pde")
        rc, out, _ = run(capsys, "pipeline", "--pde", pde, "--degree", "1",
                         "--json", str(j))
        assert rc == 1
        assert out.splitlines()[-1] == "pipeline: FAIL (solve)"
        summary = json.loads(j.read_text())
        assert summary["ok"] is False and "table" not in summary

    def test_config_file_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("degree=1\npoints=8\n")
        j = tmp_path / "s.json"
        rc, _, _ = run(capsys, "pipeline", "--config", str(cfg),
                       "--json", str(j), "--out", str(tmp_path / "t.txt"))
        assert rc == 0
        assert json.loads(j.read_text())["config"]["degree"] == 1

    def test_explicit_flag_beats_config(self, tmp_path, monkeypatch):
        import liesym.cli as cli
        seen = []
        monkeypatch.setattr(cli, "cmd_derive", lambda args: seen.append(args) or 0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\ndegree=3\n")
        assert main(["derive", "--config", str(cfg), "--seed", "0"]) == 0
        assert main(["derive", "--config", str(cfg)]) == 0
        assert main(["derive"]) == 0
        assert [(a.seed, a.degree, a.points) for a in seen] == \
            [(0, 3, 100), (5, 3, 100), (0, 2, 100)]

    @pytest.mark.parametrize("line, message", [
        ("seed = 1.5", "argument --seed: invalid int value: '1.5'"),
        ("precision = quad", "argument --precision: invalid choice: 'quad' "
                             "(choose from 'double', 'dd')"),
    ], ids=["seed", "precision"])
    def test_bad_config_value_is_input_error(self, capsys, tmp_path, line, message):
        # a config value is checked by its option's own type and choices
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc, out, err = run(capsys, "sample", "--config", str(cfg),
                           "--expr", "x", "--grid", "x=1:2:2")
        assert (rc, out, err) == (2, "", f"error: {cfg}: {message}\n")

    @pytest.mark.parametrize("option", [("--points", "0"), ("--points", "-3"),
                                        ("--tol", "-1"), ("--tol", "0"), ("--tol", "nan")])
    def test_no_points_or_no_tolerance_is_input_error(self, capsys, tmp_path, option):
        # --points 0 once failed every solution row with "all residual sample
        # points hit singularities", and --tol -1 every record (exit 1)
        message = "error: --points must be >= 1 and --tol > 0\n"
        assert run(capsys, "verify", *option) == (2, "", message)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option[0][2:]} = {option[1]}\n")
        assert run(capsys, "verify", "--config", str(cfg)) == (2, "", message)

    def test_unknown_config_key_is_input_error(self, capsys, tmp_path):
        # a misspelt key is refused, not dropped: `degre = 3` would
        # otherwise run at the default degree
        cfg = tmp_path / "run.cfg"
        cfg.write_text("degre = 3\n")
        rc, out, err = run(capsys, "solve", "--config", str(cfg))
        assert (rc, out, err) == (2, "", f"error: {cfg}: unknown key 'degre'\n")

    @pytest.mark.parametrize("exc, message", [
        (RecursionError("maximum recursion depth exceeded"),
         "resource limit: maximum recursion depth exceeded"),
        (MemoryError(), "resource limit: MemoryError"),
    ], ids=["recursion", "memory"])
    def test_escaped_resource_error_exits_3(self, capsys, monkeypatch, exc, message):
        import liesym.cli as cli

        def exhausted(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_derive", exhausted)
        rc, out, err = run(capsys, "derive")
        assert (rc, out, err) == (3, "", message + "\n")

    def test_missing_pde_is_input_error(self, capsys):
        rc, _, err = run(capsys, "pipeline", "--pde", "/nonexistent.pde")
        assert rc == 2

    @pytest.mark.parametrize("eq", ["x + y", "u_x + u"])
    def test_pde_without_evolution_derivative_is_input_error(self, capsys, tmp_path, eq):
        bad = tmp_path / "bad.pde"
        bad.write_text(f"vars x y z t\ndep u\neq {eq}\n")
        rc, _, err = run(capsys, "solve", "--degree", "1", "--pde", str(bad))
        assert rc == 2
        assert "no u_t term" in err

    @pytest.mark.parametrize("command", ["derive", "solve", "pipeline"])
    @pytest.mark.parametrize("eq", ["u_t + u_xt", "u_t + u_tt"])
    def test_other_evolution_derivative_is_input_error(self, capsys, tmp_path, command, eq):
        # solving for u_t must leave no t-derivative; this used to recurse
        # until the recursion limit (exit 3)
        bad = tmp_path / "bad.pde"
        bad.write_text(f"vars x t\ndep u\neq {eq}\n")
        rc, out, err = run(capsys, command, "--pde", str(bad))
        assert (rc, out) == (2, "")
        assert err == "error: solving for u_t leaves another t-derivative\n"

    @pytest.mark.parametrize("text, message", [
        # a second eq line used to replace the first
        ("vars x t\ndep u\neq u_t - u_xx\neq u_t + u_x\n", "repeated PDE section 'eq'"),
        ("vars x x t\ndep u\neq u_t - u_xx\n", "repeated variable in the vars section"),
        ("vars x t\ndep x\neq x_t - x_xx\n",
         "dependent variable 'x' is also an independent one"),
    ])
    def test_ill_formed_pde_is_input_error(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.pde"
        bad.write_text(text)
        rc, out, err = run(capsys, "derive", "--pde", str(bad))
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {message} ") and "Traceback" not in err

    @pytest.mark.parametrize("text, where", [
        ("vars x t\ndep u\neq u_t - u_xx\neq u_t + u_x\n",
         "repeated PDE section 'eq' at line 4, column 1"),
        ("vars x t\n# no u_t term\ndep u\neq u_x - u_xx\n",
         "not an evolution equation: no u_t term at line 4, column 4"),
        # the * is column 7 of the expression and column 10 of the file
        ("vars x t\ndep u\neq u_t + * u_xxx\n", "invalid syntax at line 3, column 10"),
        ("vars x t\n  dep x\neq x_t - x_xx\n",
         "dependent variable 'x' is also an independent one at line 2, column 7"),
    ], ids=["repeated", "no-u_t", "syntax", "indented"])
    def test_pde_fault_is_reported_where_it_is(self, capsys, tmp_path, text, where):
        # every fault was once reported at line 1, column 1
        bad = tmp_path / "bad.pde"
        bad.write_text(text)
        assert run(capsys, "derive", "--pde", str(bad)) == (2, "", f"error: {where}\n")

    def test_table_stage_error_exits_2(self, capsys, tmp_path):
        # the KdV31 reference basis has four xi, the heat equation two
        heat = tmp_path / "heat.pde"
        heat.write_text("vars x t\ndep u\neq u_t - u_xx\n")
        rc, out, err = run(capsys, "pipeline", "--pde", str(heat), "--degree", "3")
        assert (rc, out, err) == (2, "", "error: one xi per independent variable\n")

    def test_failed_solve_outranks_a_catalog_error(self, capsys):
        # the catalog is read beside derive, solve and table, and its error
        # is raised only once they have passed
        rc, out, err = run(capsys, "pipeline", "--pde", os.path.join(_DATA, "kdv_v.pde"),
                           "--catalog", "/nonexistent")
        assert (rc, err) == (1, "")
        assert out.splitlines()[-1] == "pipeline: FAIL (solve)"

    def test_dead_stage_process_is_a_resource_limit(self, capsys, monkeypatch):
        import liesym.cli as cli
        monkeypatch.setattr(cli, "_algebra_stages", lambda pde, degree: os._exit(9))
        rc, out, err = run(capsys, "pipeline", "--points", "2")
        assert (rc, out, err) == (3, "", "resource limit: the derive/solve/table "
                                         "process ended by exit status 9\n")

    @staticmethod
    def _count_verdicts(monkeypatch, delay=0.0):
        """The records verify_record is called on in this process."""
        import time
        from liesym import verify
        calls = []
        real = verify.verify_record

        def counting(rec, *args, **kwargs):
            if delay and not calls:
                time.sleep(delay)
            calls.append(rec.name)
            return real(rec, *args, **kwargs)

        monkeypatch.setattr(verify, "verify_record", counting)
        return calls

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_every_verdict_is_reached_in_the_calling_process(self, capsys, monkeypatch):
        # a tracer that wraps verify.verify_record sees each record's verdict
        # in the process that called main, though derive/solve/table fork
        from liesym.catalog import load_catalog
        calls = self._count_verdicts(monkeypatch)
        rc, _, _ = run(capsys, "pipeline", "--points", "10", "--degree", "1")
        assert rc == 0
        assert calls == [r.name for r in load_catalog(None)]

    def test_failed_algebra_without_fork_skips_the_verify(self, capsys, monkeypatch):
        argv = ["pipeline", "--pde", os.path.join(_DATA, "kdv_v.pde"), "--degree", "1"]
        forked = run(capsys, *argv)
        monkeypatch.delattr(os, "fork")
        calls = self._count_verdicts(monkeypatch)
        assert run(capsys, *argv) == forked
        assert forked[0] == 1 and forked[1].splitlines()[-1] == "pipeline: FAIL (solve)"
        assert calls == []

    def test_failed_algebra_stops_the_verify(self, capsys, monkeypatch):
        # the child fails at once and reports while the first record waits,
        # so no second record is verified
        import liesym.cli as cli
        monkeypatch.setattr(cli, "_algebra_stages",
                            lambda pde, degree: ({}, ["derive: stub"], "solve"))
        calls = self._count_verdicts(monkeypatch, delay=0.5)
        rc, out, err = run(capsys, "pipeline", "--points", "2")
        assert (rc, out, err) == (1, "derive: stub\npipeline: FAIL (solve)\n", "")
        assert len(calls) <= 1

    @pytest.mark.parametrize("fork", ["missing", "failing"])
    def test_stages_in_turn_without_fork(self, capsys, tmp_path, monkeypatch, fork):
        argv = ["pipeline", "--points", "10", "--degree", "1"]
        outputs = []
        for patched in (False, True):
            if patched and fork == "missing":
                monkeypatch.delattr(os, "fork")
            elif patched:
                def refused():
                    raise BlockingIOError("fork refused")
                monkeypatch.setattr(os, "fork", refused)
            j = tmp_path / f"{patched}.json"
            outputs.append((*run(capsys, *argv, "--json", str(j)), j.read_bytes()))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
