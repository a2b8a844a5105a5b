"""The package surface: every export resolves, and no definition is dead.

A module-level def, class or constant in ``src/hybridtn`` must be used as
a name (not in a docstring or comment) somewhere in the package,
``scripts/`` or ``perfbench/``, outside its own definition.  Re-exports in
``__init__`` do not count as a use, and nor do the tests: a helper that
only the tests call belongs in ``tests/_support.py``.
"""

import ast
import io
import tokenize
from pathlib import Path

import hybridtn

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hybridtn"
INIT = PACKAGE / "__init__.py"

# name -> why it stays although nothing outside the tests uses it
KEEP = {
    "build_two_layer_cq": "the paper's quantum root over MPS branches, and the only "
    "builder whose trees reach the MPS-child branch of the tree contraction",
}


def _definitions(path: Path):
    """(name, first line, last line) of each module-level definition."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno, node.end_lineno


def _name_uses() -> dict[str, list[tuple[Path, int]]]:
    """Every NAME token in the package, scripts and benchmark, by name."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for top in (PACKAGE, ROOT / "scripts", ROOT / "perfbench"):
        for path in sorted(top.rglob("*.py")):
            if path == INIT:
                continue
            for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
                if tok.type == tokenize.NAME:
                    uses.setdefault(tok.string, []).append((path, tok.start[0]))
    return uses


def _unused() -> dict[str, str]:
    """name -> ``module:line`` of each definition with no use outside itself."""
    uses = _name_uses()
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path == INIT:
            continue
        for name, first, last in _definitions(path):
            if all(where == path and first <= line <= last
                   for where, line in uses.get(name, ())):
                unused[name] = f"{path.name}:{first}"
    return unused


def test_every_exported_name_resolves():
    missing = [name for name in hybridtn.__all__ if not hasattr(hybridtn, name)]
    assert not missing


def test_only_the_kept_definitions_lack_a_use_outside_the_tests():
    # a kept name that is gone, or that has gained a use, leaves KEEP
    unused = _unused()
    assert set(unused) == set(KEEP), unused
