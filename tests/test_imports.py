"""Every name a liesym module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "liesym"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(name, line) of each binding an import statement makes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_dead_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    dead = [f"{name} (line {line})" for name, line in _imported(tree)
            if name not in used]
    assert not dead, f"{path.name} imports unused names: {', '.join(dead)}"


def test_no_dead_private_definitions():
    # a module-level _name function or class that no module refers to
    # is dead code
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    used = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.alias):
                used.add(n.name)
    dead = [f"{stem}.{n.name} (line {n.lineno})" for stem, tree in sorted(trees.items())
            for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and n.name.startswith("_") and not n.name.startswith("__")
            and n.name not in used]
    assert not dead, f"unreferenced private definitions: {', '.join(dead)}"


_MEMOS = ("lru_cache", "cache")


def _memo_sites(path):
    """module.function for each functools memo decorating a function in
    path, module.<line N> for any other use of one."""
    tree = ast.parse(path.read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    modules = {a.asname or a.name for n in imports if isinstance(n, ast.Import)
               for a in n.names if a.name == "functools"}
    names = {a.asname or a.name for n in imports
             if isinstance(n, ast.ImportFrom) and n.module == "functools"
             for a in n.names if a.name in _MEMOS}
    owner = {id(d.func if isinstance(d, ast.Call) else d): f.name
             for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
             for d in f.decorator_list}
    for n in ast.walk(tree):
        if ((isinstance(n, ast.Name) and n.id in names)
                or (isinstance(n, ast.Attribute) and n.attr in _MEMOS
                    and isinstance(n.value, ast.Name) and n.value.id in modules)):
            yield f"{path.stem}.{owner.get(id(n), f'<line {n.lineno}>')}"


def test_src_holds_no_functools_memo():
    # a process-wide memo keeps every key it has seen alive for the life
    # of the process; a walk's memo lives for one call (expr.fold)
    sites = [site for p in sorted(SRC.glob("*.py")) for site in _memo_sites(p)]
    assert sites == []


def _once_per_process(stmts):
    """The statements that run once per process: a module's own, and those
    of its class bodies and compound statements, not of function bodies."""
    for s in stmts:
        yield s
        if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _once_per_process(getattr(s, field, ()))


def _empty_collection(v) -> bool:
    """v is an empty dict, list or set: a literal or a bare constructor call."""
    return ((isinstance(v, ast.Dict) and not v.keys)
            or (isinstance(v, ast.List) and not v.elts)
            or (isinstance(v, ast.Call) and isinstance(v.func, ast.Name)
                and v.func.id in ("dict", "list", "set") and not v.args and not v.keywords))


def test_no_module_level_empty_collection():
    # an empty dict, list or set bound once per process is how a
    # hand-rolled process-wide memo starts
    found = [f"{p.stem} (line {s.lineno})" for p in MODULES
             for s in _once_per_process(ast.parse(p.read_text()).body)
             if isinstance(s, (ast.Assign, ast.AnnAssign)) and s.value is not None
             and any(map(_empty_collection,
                         s.value.elts if isinstance(s.value, ast.Tuple) else (s.value,)))]
    assert not found, f"module-level empty collections: {', '.join(found)}"


def _imported_modules(tree):
    """The liesym module or outside package each import statement names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] == "liesym":
                module = module[len("liesym"):].lstrip(".")
            # `from . import m` and `from liesym import m` name modules m
            names = [module] if module else [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            yield name.removeprefix("liesym.").split(".")[0]


@pytest.mark.parametrize("module, importers", [
    ("weierstrass", {"__init__"}),
    ("mpmath", {"numeric", "weierstrass", "cli"}),
])
def test_evaluator_stays_out_of_the_verdicts(module, importers):
    # no verdict evaluates Weierstrass functions or computes in mpmath
    found = {p.stem for p in SRC.glob("*.py")
             if module in _imported_modules(ast.parse(p.read_text()))}
    assert found <= importers, f"{module} imported by {sorted(found - importers)}"


def test_parser_runs_no_text():
    # the DSL is parsed, never run: parse.py calls no eval, exec or compile
    tree = ast.parse((SRC / "parse.py").read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not names & {"eval", "exec", "compile"}


def _names_in(tree):
    """Every name a tree mentions: names, attributes, imported names, and
    strings that are identifiers (bench/ wraps functions by name)."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.split(".")[-1]
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            yield n.value


def test_no_dead_public_definitions():
    # a module-level public function or class that nothing names outside
    # its own definition (its module's other statements, another src/
    # module, a test or a benchmark) is dead code
    root = SRC.parents[1]
    files = [*SRC.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "bench").glob("*.py")]
    trees = {p: ast.parse(p.read_text()) for p in files}
    named = {p: set(_names_in(t)) for p, t in trees.items()}
    dead = []
    for path in sorted(SRC.glob("*.py")):
        elsewhere = set().union(*(names for p, names in named.items() if p != path))
        body = trees[path].body
        own = [set(_names_in(m)) for m in body]
        for i, n in enumerate(body):
            if (isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")
                    and n.name not in elsewhere.union(*own[:i], *own[i + 1:])):
                dead.append(f"{path.stem}.{n.name} (line {n.lineno})")
    assert not dead, f"public definitions nothing else names: {', '.join(dead)}"
