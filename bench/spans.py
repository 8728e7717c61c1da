"""Per-layer tracing from outside the program.

`install()` replaces liesym functions with timing wrappers where the
calling module looks them up, so every span is one call across a module
boundary.  A wrapped name is either a module attribute that callers reach
through the module object (`linalg.nullspace`, `wz.weierstrass_p`,
`detsys.extract_determining`) or a name another module imported
(`verify.eval_numeric`, `detsys.normalize`).  Names that a module calls
recursively inside itself (`normalize`, `substitute`, `differentiate`,
`restrict_on_shell`, `eval_numeric`) are wrapped only at the import sites
in other modules, so the recursion stays untraced.  Calls made through a
function-local import of such a name (detsys's `diff_n`) stay untraced
and count to the caller's self time.

Spans are aggregated as they close: a span's self time is its duration
minus the durations of the spans it directly contains.  Nothing is kept
per call, so millions of calls need no memory.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MODULES = ("parse", "catalog", "expr", "normal", "jets", "detsys", "linalg",
           "liealg", "flows", "numeric", "weierstrass", "verify", "cli")

_VERIFY_KIND = {"solution": "solution", "solution-complex": "solution",
                "ode": "ode", "reduction": "reduction", "weierstrass": "weierstrass"}

# (home module, function, span name, wrap the home module's own attribute)
SPANS = [
    ("parse", "parse", "parse.parse", True),
    ("catalog", "load_catalog", "catalog.load", True),
    ("expr", "substitute", "expr.substitute", False),
    ("expr", "differentiate", "expr.diff", False),
    ("expr", "diff_n", "expr.diff", False),
    ("normal", "normalize", "normal.normalize", False),
    ("normal", "is_zero", "normal.normalize", False),
    ("normal", "canonical", "normal.normalize", False),
    ("normal", "nf_div_exact", "normal.normalize", False),
    ("jets", "symmetry_condition", "jets.condition", False),
    ("jets", "restrict_on_shell", "jets.condition", False),
    ("detsys", "extract_determining", "detsys.extract", True),
    ("detsys", "solve_poly_ansatz", "detsys.assemble", True),
    ("detsys", "check_membership", "detsys.membership", True),
    ("linalg", "nullspace", "linalg.nullspace", True),
    ("linalg", "lin_solve", "linalg.lin_solve", True),
    ("liealg", "commutator_table", "liealg.table", True),
    ("liealg", "jacobi_check", "liealg.jacobi", True),
    ("flows", "exponentiate", "flows.exponentiate", True),
    ("flows", "transform_solution", "flows.transform", True),
    ("flows", "verify_group_action", "flows.group_action", True),
    ("numeric", "eval_numeric", "numeric.eval", False),
    ("weierstrass", "weierstrass_p", "weierstrass.wp", True),
    ("verify", "verify_record",
     lambda rec, *a, **k: "verify." + _VERIFY_KIND.get(rec.kind, "other"), True),
    ("cli", "cmd_pipeline", "cli.pipeline", True),
    ("cli", "cmd_solve", "cli.solve", True),
    ("cli", "cmd_sample", "cli.sample", True),
]


def _clock():
    return time.perf_counter()


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)   # inclusive, for whole stages
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.stack = []             # child-time accumulators of open spans
        self.compiled = set()       # distinct (expr, precision, complex) that evaluated
        self.matrix = None          # shape facts of the largest nullspace input
        self.verdicts = {}          # catalog record name -> status
        # functions whose arguments or results are recorded after the span
        self.observers = {"eval_numeric": self._eval_key,
                          "nullspace": self._matrix_facts,
                          "verify_record": self._verdict}

    def wrap(self, fn, name):
        stack, self_s, total_s = self.stack, self.self_s, self.total_s
        calls, errors = self.calls, self.errors
        observe = self.observers.get(fn.__name__)

        def span(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            stack.append(0.0)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[label] += 1
                raise
            finally:
                dur = _clock() - t0
                self_s[label] += dur - stack.pop()
                total_s[label] += dur
                calls[label] += 1
                if stack:
                    stack[-1] += dur
            if observe is not None:
                t1 = _clock()
                observe(args, kwargs, out)
                if stack:       # bookkeeping is nobody's work
                    stack[-1] += _clock() - t1
            return out

        return span

    def _eval_key(self, args, kwargs, out):
        self.compiled.add((args[0],
                           args[2] if len(args) > 2 else kwargs.get("precision", "double"),
                           args[3] if len(args) > 3 else kwargs.get("complex_mode", False)))

    def _verdict(self, args, kwargs, out):
        self.verdicts[out.name] = out.status

    def _matrix_facts(self, args, kwargs, basis):
        rows = args[0]
        ncols = args[1] if len(args) > 1 and args[1] else len(rows[0]) if rows else 0
        if self.matrix and len(rows) * ncols <= self.matrix[0] * self.matrix[1]:
            return
        sparse = [[(j, c) for j, c in enumerate(r) if c] for r in rows]
        # rows equal up to a nonzero factor carry one constraint
        lines = {tuple((j, c / r[0][1]) for j, c in r) for r in sparse if r}
        self.matrix = (len(rows), ncols, sum(map(len, sparse)), len(lines),
                       ncols - len(basis))

    def metrics(self) -> dict:
        s, n, t = self.self_s, self.calls, self.total_s
        normal = importlib.import_module("liesym.normal")
        info = getattr(normal.normalize, "cache_info", None)
        hits, misses = (info().hits, info().misses) if info else (0, 0)
        rows, cols, nnz, distinct, rank = self.matrix or (0, 0, 0, 0, 0)
        evals, rejected = n["numeric.eval"], self.errors["numeric.eval"]
        return {
            "parse.parse_s": s["parse.parse"],
            "catalog.load_s": s["catalog.load"],
            "expr.substitute_calls": n["expr.substitute"],
            "expr.substitute_s": s["expr.substitute"],
            "expr.diff_calls": n["expr.diff"],
            "expr.diff_s": s["expr.diff"],
            "normal.normalize_calls": n["normal.normalize"],
            "normal.normalize_s": s["normal.normalize"],
            "normal.cache_hits": hits,
            "normal.cache_misses": misses,
            "jets.condition_s": s["jets.condition"],
            "detsys.extract_s": s["detsys.extract"],
            "detsys.extract_total_s": t["detsys.extract"],
            "detsys.solve_total_s": t["detsys.assemble"],
            "detsys.assemble_s": s["detsys.assemble"],
            "detsys.membership_s": s["detsys.membership"],
            "linalg.nullspace_s": s["linalg.nullspace"],
            "linalg.matrix_rows": rows,
            "linalg.matrix_cols": cols,
            "linalg.matrix_nnz": nnz,
            "linalg.distinct_rows": distinct,
            "linalg.rank": rank,
            "linalg.lin_solve_calls": n["linalg.lin_solve"],
            "linalg.lin_solve_s": s["linalg.lin_solve"],
            "liealg.table_s": s["liealg.table"],
            "liealg.table_total_s": t["liealg.table"],
            "liealg.jacobi_s": s["liealg.jacobi"],
            "flows.exponentiate_s": s["flows.exponentiate"],
            "flows.transform_s": s["flows.transform"],
            "flows.group_action_s": s["flows.group_action"],
            "flows.group_action_total_s": t["flows.group_action"],
            "numeric.eval_calls": evals,
            "numeric.eval_s": s["numeric.eval"],
            "numeric.compiled_exprs": len(self.compiled),
            "numeric.rejected_points": rejected,
            "weierstrass.wp_calls": n["weierstrass.wp"],
            "weierstrass.wp_s": s["weierstrass.wp"],
            "verify.solution_s": s["verify.solution"],
            "verify.reduction_s": s["verify.reduction"],
            "verify.ode_s": s["verify.ode"],
            "verify.weierstrass_s": s["verify.weierstrass"],
            "verify.weierstrass_total_s": t["verify.weierstrass"],
            "verify.catalog_total_s": sum(v for k, v in t.items() if k.startswith("verify.")),
            "cli.sample_self_s": s["cli.sample"],
            "cli.self_s": sum(v for k, v in s.items() if k.startswith("cli.")),
        }


def install() -> Tracer:
    """Wrap every boundary in SPANS; call after importing liesym.cli."""
    tracer = Tracer()
    mods = {m: importlib.import_module(f"liesym.{m}") for m in MODULES}
    for home, attr, name, at_home in SPANS:
        orig = getattr(mods[home], attr)
        span = tracer.wrap(orig, name)
        for mname, mod in mods.items():
            if (mname != home or at_home) and vars(mod).get(attr) is orig:
                setattr(mod, attr, span)
    return tracer
