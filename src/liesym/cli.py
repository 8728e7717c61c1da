"""Command-line front end.

Subcommands: derive, solve, table, flow, verify, sample, pipeline.
Exit codes: 0 pass, 1 verification failure, 2 input error, 3 resource
limit.  With a fixed seed two runs produce byte-identical output.

`pipeline` forks one child, where POSIX fork exists, for derive, solve
and table, and verifies the catalog in its own process meanwhile; once
the child has failed, the verify stops at the next record.  The output
is the same as when the stages run in turn, as they do without fork,
where a failed algebra skips the verify.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction

from mpmath import nstr

from .catalog import CatalogError, load_catalog, solution_context
from .expr import ExprError, ResourceLimitError, to_text
from .jets import load_pde
from .numeric import DOMAIN_ERRORS, compile_terms, is_complex
from .normal import canonical
from .parse import ParseError, data_lines, data_text, parse
from . import detsys, flows, liealg, verify as verify_mod


def _load_pde_arg(path):
    return load_pde(data_text("kdv31.pde", path))


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_derive(args) -> int:
    pde = _load_pde_arg(args.pde)
    system = detsys.extract_determining(pde)
    lines = [to_text(c) for c in system.constraints]
    _emit("\n".join(lines) + "\n", args.out)
    if not args.out:
        sys.stdout.flush()
    print(f"# {len(lines)} constraints", file=sys.stderr)
    return 0


def cmd_solve(args) -> int:
    pde = _load_pde_arg(args.pde)
    system = detsys.extract_determining(pde)
    basis = detsys.solve_poly_ansatz(system, args.degree)
    lines = [f"dimension {basis.dimension}"]
    for i, V in enumerate(basis.fields, 1):
        coeffs = ", ".join(to_text(canonical(c)) for c in (*V.xi, V.eta))
        lines.append(f"b{i} = ({coeffs})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_table(args) -> int:
    pde = _load_pde_arg(args.pde)
    if args.basis == "solve":
        system = detsys.extract_determining(pde)
        basis = detsys.solve_poly_ansatz(system, args.degree)
    else:
        basis = liealg.reference_basis(pde)
    table = liealg.commutator_table(basis)
    out = [liealg.format_table(table)]
    rc = 0
    if not table.closed:
        out.append(f"closure failures: {len(table.failures)}")
        rc = 1
    if args.compare:
        golden = liealg.load_golden_table(data_text("table1.golden", args.compare),
                                           len(basis))
        mism = liealg.compare_with_golden(table, golden)
        if mism:
            rc = 1
            for i, j, got, exp in mism:
                out.append(f"mismatch at (v{i+1}, v{j+1}): got {liealg.format_cell(got)} "
                           f"expected {liealg.format_cell(exp)}")
        else:
            out.append("golden comparison: all cells match")
    _emit("\n".join(out) + "\n", args.out)
    return rc


def cmd_flow(args) -> int:
    pde = _load_pde_arg(args.pde)
    basis = liealg.reference_basis(pde)
    if not (1 <= args.field <= len(basis.fields)):
        raise ParseError(f"field index {args.field} out of range")
    g = flows.exponentiate(basis.fields[args.field - 1])
    names = [v.name for v in pde.vars] + [pde.dep]
    lines = [f"{n}~ = {to_text(canonical(m))}" for n, m in zip(names, g.maps)]
    if args.epsilon is not None:
        point = g.at(Fraction(args.epsilon))
        lines.append(f"at eps = {args.epsilon}:")
        for n, (c, m) in zip(names, point.items()):
            lines.append(f"  {n}~ = {to_text(canonical(m))}")
    if args.apply:
        with open(args.apply) as fh:
            f = parse(fh.read().strip(), solution_context())
        moved = flows.transform_solution(g, f)
        if args.epsilon is not None:
            moved = flows.substitute(moved, {g.eps: flows.rat(Fraction(args.epsilon))})
        lines.append(f"transformed solution: {to_text(canonical(moved))}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    pde = _load_pde_arg(args.pde)
    records = load_catalog(args.catalog)
    results = verify_mod.verify_catalog(records, pde, points=args.points,
                                        tol=args.tol, seed=args.seed,
                                        precision=args.precision)
    width = max(len(r.name) for r in results) if results else 8
    lines = []
    ok_all = True
    for r in results:
        mark = "ok " if r.ok else "FAIL"
        ok_all = ok_all and r.ok
        lines.append(f"{mark} {r.name:<{width}} {r.kind:<16} {r.status:<25} {r.detail}")
    lines.append(f"{sum(r.ok for r in results)}/{len(results)} records as expected")
    if not results:
        lines.append("warning: empty catalog, nothing verified")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok_all else 1


def _split(specs):
    """The non-empty name=value parts of comma-separated specs, as
    (name, value, part) triples."""
    for spec in specs:
        for part in spec.split(","):
            part = part.strip()
            if part:
                name, _, value = part.partition("=")
                yield name.strip(), value, part


def _parse_grid(specs):
    axes = []
    for name, rng, part in _split(specs):
        pieces = rng.split(":")
        if len(pieces) != 3:
            raise ParseError(f"grid axis {part!r} needs name=lo:hi:count")
        lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        if count < 2:
            raise ParseError("grid axis needs count >= 2")
        axes.append((name, lo, hi, count))
    return axes


def _parse_fixed(specs):
    return {name: float(v) for name, v, _ in _split(specs)}


def cmd_sample(args) -> int:
    from .expr import free_symbols
    if args.expr:
        f = parse(args.expr, solution_context())
        params = {}
    else:
        records = {r.name: r for r in load_catalog(args.catalog)}
        if args.name not in records:
            raise ParseError(f"no catalog record named {args.name!r}")
        rec = records[args.name]
        f = parse(rec.get("claim"), solution_context())
        params = rec.params()
    if is_complex(f):
        raise ValueError("the claim holds the imaginary unit i; sample is real only")
    axes = _parse_grid(args.grid or [])
    given = _parse_fixed(args.fix or [])
    fixed = {**params, **given}
    swept = [a[0] for a in axes]
    overlap = sorted(set(swept) & set(given))
    if overlap:
        raise ParseError(f"symbols both swept and fixed: {', '.join(overlap)}")
    for name in swept:
        fixed.pop(name, None)  # sweeping overrides catalog defaults
    need = sorted(s.name for s in free_symbols(f))
    missing = [n for n in need if n not in swept and n not in fixed]
    if missing:
        raise ParseError(f"unbound symbols in solution: {', '.join(missing)}")
    grids = [[lo + i * (hi - lo) / (count - 1) for i in range(count)]
             for _, lo, hi, count in axes]
    fn, syms = compile_terms((f,), args.precision)
    rows = [",".join(swept + ["u"])]
    warnings = 0
    for values in itertools.product(*grids):  # last axis fastest
        env = dict(zip(swept, values))
        point = {**fixed, **env}
        try:
            val = fn(*[point[s.name] for s in syms])[0]
        except DOMAIN_ERRORS:
            warnings += 1
            txt = "nan"
        else:
            txt = nstr(val, 17) if args.precision == "dd" else f"{val:.17g}"
        rows.append(",".join([f"{env[n]:.17g}" for n in swept] + [txt]))
    _emit("\n".join(rows) + "\n", args.out)
    if warnings:
        print(f"# {warnings} grid points hit singularities (nan)", file=sys.stderr)
    return 0


def _algebra_stages(pde, degree):
    """derive -> solve -> membership -> table: (summary entries, text
    lines, the failed stage or None)."""
    summary, text = {}, []
    system = detsys.extract_determining(pde)
    summary["derive"] = {"constraints": len(system)}
    text.append(f"derive: {len(system)} determining constraints")

    basis = detsys.solve_poly_ansatz(system, degree)
    summary["solve"] = {"dimension": basis.dimension}
    text.append(f"solve: dimension {basis.dimension} at degree {degree}")
    if basis.dimension != 10:
        return summary, text, "solve"

    ref = liealg.reference_basis(pde)
    rows = detsys.membership_rows(basis)
    membership_ok = all(detsys.check_membership(basis, V, rows) is not None for V in ref.fields)
    table = liealg.commutator_table(ref)
    mism = liealg.compare_with_golden(table)
    jac = liealg.jacobi_check(table)
    summary["table"] = {
        "membership": membership_ok,
        "closed": table.closed,
        "skew": table.is_skew_symmetric(),
        "jacobi": jac["ok"],
        "golden_mismatches": len(mism),
    }
    text.append(f"table: closed={table.closed} skew={table.is_skew_symmetric()} "
                f"jacobi={jac['ok']} golden_mismatches={len(mism)}")
    stage_ok = membership_ok and table.closed and jac["ok"] and not mism
    return summary, text, None if stage_ok else "table"


def _outcome(fn):
    """(fn(), None), or (None, the exception it raised)."""
    try:
        return fn(), None
    except Exception as exc:
        return None, exc


def _beside(work, steps, stop):
    """Run work() in a forked child while this process takes the items of
    the iterable steps; return the (value, exception) outcomes of work()
    and of the list of items taken.  Between items the child's pipe is
    polled: once the child has died, or has finished with an outcome for
    which stop holds, no more items are taken.  Where os.fork is missing
    or fails, work runs first, then the steps unless stop holds for its
    outcome.  liesym starts no threads, so the child inherits no lock that
    another thread holds."""
    import pickle
    import select
    pid = None
    if hasattr(os, "fork"):
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
    if pid is None:
        theirs = _outcome(work)
        return theirs, (None, None) if stop(theirs) else _outcome(lambda: list(steps))
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as fh:
                pickle.dump(_outcome(work), fh)
            code = 0
        finally:
            # whatever was raised, the child never returns into the caller,
            # and os._exit flushes no stdio buffer it shares with it
            os._exit(code)
    os.close(w)
    status = None
    try:
        with open(r, "rb") as fh:
            data = None

            def take():
                nonlocal data
                items = []
                for item in steps:
                    items.append(item)
                    if data is None and select.select([fh], [], [], 0)[0]:
                        data = fh.read()  # the child has finished, or died
                        if not data or stop(pickle.loads(data)):
                            break
                return items

            mine = _outcome(take)
            if data is None:
                data = fh.read()
        status = os.waitpid(pid, 0)[1]
    finally:
        if status is None:  # interrupted before the child's result was read
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code:
        how = f"signal {-code}" if code < 0 else f"exit status {code}"
        raise ResourceLimitError(f"the derive/solve/table process ended by {how}")
    return pickle.loads(data), mine


def _algebra_failed(outcome) -> bool:
    """Whether an _algebra_stages outcome raised or names a failed stage."""
    value, error = outcome
    return error is not None or value[2] is not None


def cmd_pipeline(args) -> int:
    pde = _load_pde_arg(args.pde)
    summary = {"config": {"pde": args.pde or "kdv31.pde", "degree": args.degree,
                          "points": args.points, "tol": args.tol,
                          "precision": args.precision, "seed": args.seed}}

    def verdicts():
        for rec in load_catalog(args.catalog):
            yield verify_mod.verify_record(rec, pde, points=args.points, tol=args.tol,
                                           seed=args.seed, precision=args.precision)

    # the catalog verify needs none of derive, solve or table, so it runs
    # here while they run in a child; their outcome still decides first,
    # and once they have failed the verify stops
    (algebra, error), (results, verify_error) = _beside(
        lambda: _algebra_stages(pde, args.degree), verdicts(), _algebra_failed)
    if error is not None:
        raise error
    entries, text, failed = algebra
    summary.update(entries)
    if failed:
        summary["ok"] = False
        _finish_pipeline(args, summary, text + [f"pipeline: FAIL ({failed})"])
        return 1
    if verify_error is not None:
        raise verify_error

    failures = sorted(r.name for r in results if not r.ok)
    summary["verify"] = {"total": len(results),
                         "as_expected": sum(r.ok for r in results),
                         "failures": failures}
    text.append(f"verify: {sum(r.ok for r in results)}/{len(results)} records as expected")
    if not results:
        text.append("verify: warning, empty catalog (vacuous pass)")
    summary["ok"] = not failures
    text.append("pipeline: PASS" if not failures else "pipeline: FAIL (verify)")
    _finish_pipeline(args, summary, text)
    return 0 if not failures else 1


def _finish_pipeline(args, summary, text):
    body = "\n".join(text) + "\n"
    _emit(body, args.out)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# argument plumbing

def _read_config(path):
    with open(path) as fh:
        pairs = [line.partition("=") for line in data_lines(fh.read())]
    return {k.strip(): v.strip() for k, _, v in pairs}


_DEFAULTS = {
    "pde": None, "config": None, "seed": 0, "tol": 1e-9, "points": 100,
    "precision": "double", "degree": 2, "out": None, "json": None,
    "catalog": None,
}


def _common_options() -> argparse.ArgumentParser:
    """The options every command takes; main also checks config values
    with them, so a bad value raises ArgumentError instead of exiting."""
    common = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    # every default is None here and filled from _DEFAULTS in main, after
    # the config file, so an explicit flag always beats the config
    common.add_argument("--pde",
                        help="PDE definition file (default: shipped kdv31.pde)")
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--seed", type=int)
    common.add_argument("--tol", type=float)
    common.add_argument("--points", type=int)
    common.add_argument("--precision", choices=("double", "dd"))
    common.add_argument("--degree", type=int,
                        help="polynomial ansatz degree bound")
    common.add_argument("--out", help="write output to a file")
    common.add_argument("--json", help="machine-readable summary path")
    common.add_argument("--catalog",
                        help="catalog file (default: shipped paper_catalog.txt)")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    p = argparse.ArgumentParser(prog="liesym",
                                description="Lie point-symmetry toolkit for a "
                                            "fifth-order KdV-type equation")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("derive", parents=[common],
                   help="print the determining system")
    sub.add_parser("solve", parents=[common],
                   help="solve the determining system on a polynomial ansatz")
    tp = sub.add_parser("table", parents=[common], help="commutator table")
    tp.add_argument("--compare", default=None,
                    help="golden table to diff against (e.g. table1.golden)")
    tp.add_argument("--basis", choices=("reference", "solve"), default="reference")
    fp = sub.add_parser("flow", parents=[common], help="one-parameter group flow")
    fp.add_argument("--field", type=int, required=True, help="generator index 1..10")
    fp.add_argument("--epsilon", default=None, help="rational parameter value")
    fp.add_argument("--apply", default=None, help="solution file to transform")
    sub.add_parser("verify", parents=[common], help="verify the solution catalog")
    sp = sub.add_parser("sample", parents=[common], help="emit CSV grid data")
    sp.add_argument("--name", default=None, help="catalog record to sample")
    sp.add_argument("--expr", default=None, help="DSL expression to sample")
    sp.add_argument("--grid", action="append", help="axis spec name=lo:hi:count")
    sp.add_argument("--fix", action="append", help="fixed bindings name=value,...")
    sub.add_parser("pipeline", parents=[common],
                   help="derive, solve, table and verify in sequence")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            cfg = _read_config(args.config)
            # explicit flags win; config fills values not given on the
            # command line, each checked by its option's type and choices
            common = _common_options()
            for key, value in cfg.items():
                if key not in _DEFAULTS:
                    raise argparse.ArgumentError(None, f"unknown key {key!r}")
                if getattr(args, key) is None:
                    setattr(args, key,
                            getattr(common.parse_args([f"--{key}={value}"]), key))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except argparse.ArgumentError as exc:
            print(f"error: {args.config}: {exc}", file=sys.stderr)
            return 2
    for key, value in _DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    handlers = {
        "derive": cmd_derive, "solve": cmd_solve, "table": cmd_table,
        "flow": cmd_flow, "verify": cmd_verify, "sample": cmd_sample,
        "pipeline": cmd_pipeline,
    }
    try:
        if args.points < 1 or not args.tol > 0:  # `not >` refuses a nan tol too
            raise ValueError("--points must be >= 1 and --tol > 0")
        return handlers[args.command](args)
    except (ResourceLimitError, RecursionError, MemoryError) as exc:
        print(f"resource limit: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except (ParseError, CatalogError, ExprError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
