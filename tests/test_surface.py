"""The package surface: every export resolves, and no definition is dead.

A module-level def, class or constant in ``src/hybridtn``, and a method
or annotated field (a dataclass or NamedTuple field) in the body of a
module-level class (dunders excluded), must be used somewhere in the
package, ``scripts/`` or ``perfbench/``, outside its own definition.  A
use is a name read or written, an attribute, an imported name or a
keyword argument, wherever the parser sees code (f-strings included, not
docstrings or comments, and not the name of a ``def``); a member's use is
any use of its bare name.  Re-exports in ``__init__`` do not count as a
use, and nor do the tests: a helper that only the tests call belongs in
``tests/_support.py``.

The benchmark's tracer wraps package functions by module and attribute
path, and a target that no longer resolves silently reads 0, so every
one of its targets must resolve, bar a known list that may only shrink.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import hybridtn

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hybridtn"
INIT = PACKAGE / "__init__.py"
TRACER = ROOT / "perfbench" / "tracer.py"

# name -> why it stays although nothing outside the tests uses it
KEEP = {
    "build_two_layer_cq": "the paper's quantum root over MPS branches, and the only "
    "builder whose trees reach the MPS-child branch of the tree contraction",
}


# tracer targets ("module.attribute path") that the package no longer has
MISSING_TRACER_TARGETS = {
    "hybridtn.statevector.apply_op_array",
    "hybridtn.ite.apply_op_array",
    "hybridtn.ite._apply_1q",
    "hybridtn.ite._FdWorkspace.__init__",
    "hybridtn.ite.tree_energy",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(path: Path):
    """(label, name, first line, last line) of each module-level definition
    and of each method and annotated field in a module-level class body,
    dunders excluded; a member's label is ``Class.member``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{node.name}.{name}", name, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node.lineno, node.end_lineno


def _used_names(tree: ast.AST):
    """(name, line) of every name, attribute, imported name and keyword
    argument in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1], node.lineno
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg is not None:
                    yield kw.arg, kw.lineno


def _name_uses() -> dict[str, list[tuple[Path, int]]]:
    """Every use in the package, scripts and benchmark, by name."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for top in (PACKAGE, ROOT / "scripts", ROOT / "perfbench"):
        for path in sorted(top.rglob("*.py")):
            if path == INIT:
                continue
            for name, line in _used_names(ast.parse(path.read_text())):
                uses.setdefault(name, []).append((path, line))
    return uses


def _unused() -> dict[str, str]:
    """label -> ``module:line`` of each definition with no use outside itself."""
    uses = _name_uses()
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path == INIT:
            continue
        for label, name, first, last in _definitions(path):
            if all(where == path and first <= line <= last
                   for where, line in uses.get(name, ())):
                unused[label] = f"{path.name}:{first}"
    return unused


def test_every_exported_name_resolves():
    missing = [name for name in hybridtn.__all__ if not hasattr(hybridtn, name)]
    assert not missing


def test_only_the_kept_definitions_lack_a_use_outside_the_tests():
    # a kept name that is gone, or that has gained a use, leaves KEEP
    unused = _unused()
    assert set(unused) == set(KEEP), unused


def test_every_benchmark_tracer_target_resolves():
    # load the tracer as a file: perfbench is not a package
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = set()
    for _, module_name, path in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = None if owner is None else getattr(owner, part, None)
        if owner is None:
            missing.add(f"{module_name}.{path}")
    # a target that starts to resolve leaves the list
    assert missing == MISSING_TRACER_TARGETS
