"""One benchmark operation in a fresh interpreter.

Usage: python3 bench/child.py '<json spec>'

The spec names the repository root, the operation, its arguments, whether
to trace, and the file to write the result to.  The child imports liesym
from the root's `src`, loads the shipped PDE and catalog (the end of
set-up), runs the operation, and writes a JSON result with the monotonic
clock readings at ready and done, the peak RSS and the exit code.  The
parent reads the same system-wide clock just before spawning, so set-up
time covers interpreter start, imports and source compilation.

Operations:
  setup         set-up only
  cli           `liesym <args>` through `liesym.cli.main`
  group-action  acceptance criterion 9 through the flows library API
"""

import importlib
import json
import os
import resource
import sys
import time


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def group_action(pde, records, seed, out_path):
    """Every exact catalog solution moved along all ten published flows."""
    catalog = importlib.import_module("liesym.catalog")
    flows = importlib.import_module("liesym.flows")
    liealg = importlib.import_module("liesym.liealg")
    parse = importlib.import_module("liesym.parse")
    gs = [flows.exponentiate(V) for V in liealg.reference_basis(pde).fields]
    lines = []
    for rec in records:
        if rec.kind != "solution" or rec.expected != "zero":
            continue
        f = parse.parse(rec.get("claim"), catalog.solution_context())
        for i, g in enumerate(gs, 1):
            rep = flows.verify_group_action(g, f, pde, params=rec.params(),
                                            samples=50, tol=1e-8, seed=seed,
                                            precision="dd")
            lines.append(f"{rec.name} g{i} samples={rep['samples']} "
                         f"max_rel={rep['max_rel']!r}")
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import liesym.cli
    if not os.path.abspath(liesym.__file__).startswith(src + os.sep):
        raise SystemExit(f"liesym imported from {liesym.__file__}, not {src}")
    from importlib import resources
    import mpmath
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.install()
    catalog = importlib.import_module("liesym.catalog")
    jets = importlib.import_module("liesym.jets")
    pde = jets.load_pde(resources.files("liesym.data").joinpath("kdv31.pde").read_text())
    records = catalog.load_catalog()
    ready = clock()
    op = spec["op"]
    if op == "setup":
        rc = 0
    elif op == "cli":
        rc = liesym.cli.main(spec["args"])
    elif op == "group-action":
        rc = group_action(pde, records, spec["seed"], spec["out"])
    else:
        raise SystemExit(f"unknown operation {op!r}")
    done = clock()
    normalize = importlib.import_module("liesym.normal").normalize
    info = normalize.cache_info() if hasattr(normalize, "cache_info") else None
    result = {
        "ready": ready, "done": done, "rc": rc,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "normalize_cache": [info.hits, info.misses] if info else None,
        "mpmath": mpmath.__version__,
        "trace": tracer.metrics() if tracer else None,
        "verdicts": tracer.verdicts if tracer else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
