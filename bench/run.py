"""liesym benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation runs in a fresh interpreter (bench/child.py), one child
at a time.  liesym memoizes in process-wide tables (normalize's
lru_cache, the numeric compile memo, the prolongation memo) that outlive
`reset_session`, so repeating work inside one process would time a warm
program no CLI user runs.  The children import liesym from `src`.

Workloads (the seed reaches the program only as `--seed` / `seed=`):
  pipeline-d2   `liesym pipeline --degree 2`: the paper's whole chain;
                derive, the degree-2 nullspace, the table and the
                catalog each take a share.
  solve-d3      `liesym solve --degree 3`: exact elimination on a
                4797x280 matrix is almost all of it.  Not listed in
                BENCHMARK.json: one repetition takes ~40 s, so a run holds
                a single sample and the workload alone would use over a
                third of the time the benchmark may take; run it by hand
                for a degree-3 claim.
  group-action  acceptance criterion 9 through the flows API: 30 exact
                solutions x 10 flows at 50 dd points; numeric at dd
                precision, no linear algebra.
  sample-grid   two `liesym sample` calls on 500x500 double grids, one
                smooth (u3-kink) and one where half the points leave the
                real domain (u12-mixed): one compiled expression
                evaluated 250k times, the domain-error path, CSV output.
                Not listed in BENCHMARK.json: its run_s spread over ten
                seeds reached 0.19 of the median on the shared host it
                was tuned on, too near the largest bound allowed (0.25);
                dropping it left room for longer runs of the other two.
                Its traced run still reports cli.sample_self_s in the
                report line.

With --trace 0 a run first spawns set-up-only children, then repeats the
workload until about --seconds have passed (at least once) and prints
the end-to-end metrics:
  run_s        seconds from inputs loaded to outputs written per
               repetition (sample-grid: both calls), as the mean over
               the run: the timed seconds of all repetitions divided by
               their number
  setup_s      seconds from spawn until liesym is imported and the PDE
               and catalog are loaded, the median over every child
  peak_rss_mb  peak resident memory of the largest child of a
               repetition, the median over repetitions
run_s is a mean, not a median, because the shared host this was tuned on
switches between a fast and a ~35% slower speed every few seconds: the
median of a handful of repetitions jumps between the two, while the
mean weighs both by how long they lasted (bench/BASELINE.md).
With --trace 1 a run makes one untraced and one traced repetition
(whatever --seconds says) and prints the per-layer metrics of
bench/spans.py plus the tracing overhead in run_s.  Metric names and
units are the ones BENCHMARK.json declares.

Every output is checked by bench/oracles.py, outside the timed region.
An operation fails if its child exits nonzero, its output check fails,
an output is not byte-identical to the same file earlier in the run
(traced against untraced included), or its normalize cache counts differ
from an earlier child of the same operation.  The failed share is the
`failed` / `attempted` pair of the result, not a metric, because metrics
must never be 0.  The line before the last is a JSON report with every
sample, the counts, output digests against bench/digests.json (recorded
at seed 0 before any optimisation; a difference is reported, not failed,
because a change may alter output on purpose and say why), and the
environment stamp.  The last line is the result.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

import oracles  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
DATA = os.path.join(ROOT, "src", "liesym", "data")
CHILD = os.path.join(BENCH, "child.py")
WORKLOADS = ("pipeline-d2", "solve-d3", "group-action", "sample-grid")
SETUP_PROBES = 10
RUN_LIMIT = 170.0           # a run stops starting children past this
HASHSEED = "0"

U3_AXES = (("x", -2.0, 2.0, 500), ("y", -1.0, 1.0, 500))
# 249/128 keeps every grid step exact, so y = 0 and z = 0 are grid points
U12_AXES = (("y", -249 / 128, 250 / 128, 500), ("z", -249 / 128, 250 / 128, 500))


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _read(path):
    with open(path) as fh:
        return fh.read()


class Op:
    """One child invocation: what it runs, what it writes, how to check it."""

    def __init__(self, name, op, outs, check, args=(), seed=None):
        self.name, self.op, self.outs, self.check = name, op, outs, check
        self.args, self.seed = list(args), seed


def _grid_arg(axes):
    return ",".join(f"{n}={lo!r}:{hi!r}:{k}" for n, lo, hi, k in axes)


def workload_ops(name, seed, work):
    p = lambda f: os.path.join(work, f)  # noqa: E731
    catalog = _read(os.path.join(DATA, "paper_catalog.txt"))
    s = str(seed)
    if name == "pipeline-d2":
        return [Op("pipeline", "cli", ["pipeline.txt", "pipeline.json"],
                   lambda got: oracles.check_pipeline(p("pipeline.txt"), p("pipeline.json"),
                                                      seed, catalog, got["verdicts"]),
                   ["pipeline", "--degree", "2", "--points", "100", "--precision",
                    "double", "--seed", s, "--out", p("pipeline.txt"),
                    "--json", p("pipeline.json")])]
    if name == "solve-d3":
        basis = _read(os.path.join(DATA, "basis_reference.txt"))
        return [Op("solve", "cli", ["solve.txt"],
                   lambda got: oracles.check_solve(p("solve.txt"), basis),
                   ["solve", "--degree", "3", "--seed", s, "--out", p("solve.txt")])]
    if name == "group-action":
        return [Op("group-action", "group-action", ["group-action.txt"],
                   lambda got: oracles.check_group_action(p("group-action.txt"), catalog),
                   seed=seed)]
    u3 = oracles.u3_kink(oracles.record_params(catalog, "u3-kink"))
    return [
        Op("u3-kink", "cli", ["u3-kink.csv"],
           lambda got: oracles.check_sample(p("u3-kink.csv"), "x,y,u",
                                        [a[1:] for a in U3_AXES], u3),
           ["sample", "--name", "u3-kink", "--grid", _grid_arg(U3_AXES),
            "--fix", "z=0,t=0", "--precision", "double", "--seed", s,
            "--out", p("u3-kink.csv")]),
        Op("u12-mixed", "cli", ["u12-mixed.csv"],
           lambda got: oracles.check_sample(p("u12-mixed.csv"), "y,z,u",
                                        [a[1:] for a in U12_AXES], oracles.u12_mixed()),
           ["sample", "--name", "u12-mixed", "--grid", _grid_arg(U12_AXES),
            "--fix", "x=1,t=0,gamma=1", "--precision", "double", "--seed", s,
            "--out", p("u12-mixed.csv")]),
    ]


class Run:
    """Spawns children serially and keeps what they report."""

    def __init__(self, work, deadline):
        self.work, self.deadline = work, deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.mpmath = None
        self.cache = {}         # op name -> normalize [hits, misses]
        self.digests = {}       # output file -> sha256 of its first version

    def spawn(self, op, trace=False):
        """Run one child; return its timings, or None if it failed."""
        self.attempted += 1
        result = os.path.join(self.work, "result.json")
        spec = {"root": ROOT, "op": op.op, "args": op.args, "seed": op.seed,
                "out": os.path.join(self.work, op.outs[0]) if op.outs else None,
                "trace": trace, "result": result}
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED=HASHSEED)
        problems = []
        t0 = clock()
        try:
            proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)], env=env,
                                  cwd=self.work, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            problems.append(f"{op.name}: killed at the run's time limit")
            proc = None
        got = None
        if proc is not None and (proc.returncode != 0 or not os.path.exists(result)):
            tail = proc.stderr.strip().splitlines()[-3:]
            problems.append(f"{op.name}: exit {proc.returncode}: {' | '.join(tail)}")
        elif proc is not None:
            got = json.loads(_read(result))
            os.remove(result)
            problems += self._check(op, got)
        for f in op.outs:
            path = os.path.join(self.work, f)
            if os.path.exists(path):
                os.remove(path)
        if problems:
            self.failed += 1
            self.problems += problems
            return None
        return {"setup": got["ready"] - t0, "run": got["done"] - got["ready"],
                "rss_mb": got["rss_kb"] / 1024.0, "trace": got["trace"]}

    def _check(self, op, got):
        self.mpmath = got["mpmath"]
        try:
            problems = op.check(got)
        except Exception as exc:  # a malformed output is a failed check
            problems = [f"{op.name}: output unreadable: {type(exc).__name__}: {exc}"]
        seen = self.cache.setdefault(op.name, got["normalize_cache"])
        if got["normalize_cache"] != seen:
            problems.append(f"{op.name}: normalize cache counts {got['normalize_cache']} "
                            f"differ from {seen} earlier in this run")
        for f in filter(os.path.exists, (os.path.join(self.work, f) for f in op.outs)):
            with open(f, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            name = os.path.basename(f)
            if self.digests.setdefault(name, digest) != digest:
                problems.append(f"{op.name}: {name} is not byte-identical to the "
                                "run's first output")
        return problems

    def rep(self, ops, trace=False):
        """One repetition of the workload; None if any operation failed."""
        got = [self.spawn(op, trace) for op in ops]
        return None if None in got else got


def declared(kind):
    """(name, unit) of the metrics BENCHMARK.json declares under `kind`."""
    spec = json.loads(_read(os.path.join(ROOT, "BENCHMARK.json")))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def _median(values):
    return statistics.median(values) if values else 0.0


def timed_run(run, ops, seconds, start):
    setup = []
    probe = Op("setup", "setup", [], lambda got: [])
    for _ in range(SETUP_PROBES):
        got = run.spawn(probe)
        if got:
            setup.append(got["setup"])
    runs, rss = [], []
    while True:
        t0 = clock()
        got = run.rep(ops)
        if got:
            setup += [g["setup"] for g in got]
            runs.append(sum(g["run"] for g in got))
            rss.append(max(g["rss_mb"] for g in got))
        now = clock()
        # stop at the repetition that ends nearest --seconds
        if now - start + (now - t0) / 2 >= seconds or now + (now - t0) > run.deadline:
            break
    samples = {"run_s": runs, "setup_s": setup, "peak_rss_mb": rss}
    value = {"run_s": statistics.fmean(runs) if runs else 0.0,
             "setup_s": _median(setup), "peak_rss_mb": _median(rss)}
    metrics = {name: {"value": value[name], "unit": unit}
               for name, unit in declared("end_to_end")}
    return metrics, samples, {}


# a workload's children add up; the matrix facts are of its largest matrix
_MAX = ("linalg.matrix_rows", "linalg.matrix_cols", "linalg.matrix_nnz",
        "linalg.distinct_rows", "linalg.rank")


def traced_run(run, ops):
    plain = run.rep(ops)
    traced = run.rep(ops, trace=True)   # outputs must match the plain ones
    totals = {}
    for g in traced or []:
        for k, v in g["trace"].items():
            totals[k] = max(totals.get(k, 0), v) if k in _MAX else totals.get(k, 0) + v
    calls = totals.get("numeric.eval_calls", 0)
    if calls:
        totals["numeric.accept_ratio"] = 1 - totals["numeric.rejected_points"] / calls
        totals["numeric.eval_us"] = totals["numeric.eval_s"] / calls * 1e6
    untraced_s = sum(g["run"] for g in plain) if plain else 0.0
    traced_s = sum(g["run"] for g in traced) if traced else 0.0
    totals["trace.untraced_run_s"] = untraced_s
    totals["trace.traced_run_s"] = traced_s
    totals["trace.overhead_s"] = traced_s - untraced_s
    metrics = {name: {"value": totals.get(name, 0), "unit": unit}
               for name, unit in declared("per_layer")}
    return metrics, {}, totals


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    base = os.path.join(ROOT, "src", "liesym")
    for d, dirs, files in sorted(os.walk(base)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            path = os.path.join(d, f)
            h.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _digest_report(run, seed):
    recorded = json.loads(_read(os.path.join(BENCH, "digests.json")))
    table = dict(recorded["any_seed"], **(recorded["seed_0"] if seed == 0 else {}))
    out = {}
    for key, digest in run.digests.items():
        want = table.get(key)
        out[key] = {"sha256": digest,
                    "recorded": "unrecorded" if want is None else
                    "same" if want == digest else "differs"}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not os.path.exists(os.path.join(ROOT, "src", "liesym", "__init__.py")):
        print(f"no liesym sources under {ROOT}/src", file=sys.stderr)
        return 2
    start = clock()
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    run = Run(work, start + RUN_LIMIT)
    try:
        ops = workload_ops(args.workload, args.seed, work)
        if args.trace:
            metrics, samples, layers = traced_run(run, ops)
        else:
            metrics, samples, layers = timed_run(run, ops, args.seconds, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "wall_s": clock() - start,
        "samples": samples, "sample_counts": {k: len(v) for k, v in samples.items()},
        "layers": layers,
        "failed_ops": run.failed / max(run.attempted, 1),
        "normalize_cache_hits_misses": run.cache,
        "digests": _digest_report(run, args.seed),
        "problems": run.problems[:20],
        "stamp": {
            "python": platform.python_version(), "mpmath": run.mpmath,
            "git_commit": _git_commit(), "src_sha256": _source_digest(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "child_env": {"PYTHONHASHSEED": HASHSEED, "PYTHONDONTWRITEBYTECODE": "1"},
        },
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
