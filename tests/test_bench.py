"""The benchmark harness looks liesym functions up by name; keep them there."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    # loaded from its file without calling install(), which would wrap the
    # liesym modules for the rest of the session
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    spans = _spans_module()
    missing = []
    for home, attr, _, _ in spans.SPANS:
        mod = importlib.import_module(f"liesym.{home}")
        if home not in spans.MODULES or not callable(getattr(mod, attr, None)):
            missing.append(f"liesym.{home}.{attr}")
    assert missing == []


CHILD_PY = SPANS_PY.with_name("child.py")


def _child_calls():
    """(dotted liesym name, call node) for each call child.py makes on a
    liesym module, bound either by `import liesym.m` or by
    `x = importlib.import_module("liesym.m")`."""
    tree = ast.parse(CHILD_PY.read_text())
    alias = {"liesym": "liesym"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and ast.unparse(node.value.func) == "importlib.import_module"
                and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)):
            alias[node.targets[0].id] = node.value.args[0].value
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            parts = ast.unparse(node.func).split(".")
            if parts[0] in alias and all(p.isidentifier() for p in parts):
                yield ".".join([alias[parts[0]], *parts[1:]]), node


def _resolve(dotted):
    """The object a dotted liesym name names: its longest module prefix,
    then attributes."""
    parts = dotted.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(dotted)


def test_benchmark_child_calls_resolve():
    # a simplification that drops or renames a function, or a keyword, the
    # benchmark child passes must fail here and not only in the harness
    calls = list(_child_calls())
    assert "liesym.flows.verify_group_action" in {name for name, _ in calls}
    bad = []
    for name, node in calls:
        try:
            fn = _resolve(name)
            inspect.signature(fn).bind(*node.args, **{k.arg: None for k in node.keywords})
        except (ImportError, AttributeError, TypeError) as exc:
            bad.append(f"{name} (line {node.lineno}): {exc}")
    assert bad == []
