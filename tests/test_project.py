"""The project metadata: every console script it declares can be loaded,
every benchmark record at the repository root is complete, and every public
name of the package is used somewhere."""

import ast
import collections
import importlib
import json
import pathlib
import tomllib

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
ROOT = PYPROJECT.parent


def test_every_console_script_target_imports():
    with open(PYPROJECT, "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_bench_record_is_a_before_after_pair():
    """Every speed claim is a recorded before/after pair: each BENCH_*.json
    at the repository root parses and says what changed, the command, the
    host, the method, the runs and their summary."""
    records = sorted(PYPROJECT.parent.glob("BENCH_*.json"))
    assert records
    for path in records:
        with open(path) as f:
            record = json.load(f)
        missing = {"change", "command", "host", "method", "runs", "summary"} - set(record)
        assert not missing, (path.name, sorted(missing))


def _name_counts(node):
    """How often the code under node names each identifier, as a variable,
    an attribute or an import."""
    counts = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            counts[n.id] += 1
        elif isinstance(n, ast.Attribute):
            counts[n.attr] += 1
        elif isinstance(n, ast.alias):
            counts[n.name.rpartition(".")[2]] += 1
    return counts


def test_every_public_name_is_used():
    """No public API that nothing calls and nothing checks: each public
    function, class and method of the package (dunder methods aside) is
    named in the code of src/, tests/ or perfbench/, outside its own
    definition.  Docstrings and comments do not count."""
    trees = [ast.parse(p.read_text()) for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    total = sum(map(_name_counts, trees), collections.Counter())
    defined = []
    for path in sorted((ROOT / "src" / "superteich").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                defined += [(path, m) for m in node.body if isinstance(m, ast.FunctionDef)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path, node))
    unused = [
        "%s:%d %s" % (path.name, node.lineno, node.name)
        for path, node in defined
        if not node.name.startswith("_") and total[node.name] == _name_counts(node)[node.name]
    ]
    assert defined and not unused, unused


def test_no_function_takes_its_own_tolerance():
    """One tolerance: no function in src/ takes a `tol` parameter, except
    the comparison methods isclose and is_zero, whose tol defaults to
    `grassmann.EQ_TOL`.  A test that probes a threshold patches the
    module's EQ_TOL instead."""
    knobs = [
        "%s:%d %s" % (path.name, node.lineno, node.name)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name not in ("isclose", "is_zero")
        and "tol" in {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
    ]
    assert not knobs, knobs
