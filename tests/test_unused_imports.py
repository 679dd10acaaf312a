"""No module of ``src/repro``, ``tests/``, ``benchmarks/`` or ``examples/`` imports an unused name.

A stdlib-``ast`` scan: every name a module binds by ``import`` or
``from ... import`` must appear in its code as a name, as the base of an
attribute, inside a string annotation, or in ``__all__``.  Package
``__init__.py`` files re-export names and are skipped, as are
``from __future__`` imports.  Outside ``src/repro`` an import on a line
marked ``# noqa: F401`` is skipped too: such a line only probes that an
optional module is installed.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
#: The trees outside the package that are scanned, honouring ``NOQA``.
SCRIPT_TREES = tuple(REPO / name for name in ("tests", "benchmarks", "examples"))
NOQA = "# noqa: F401"


def _imported_names(tree: ast.Module) -> Dict[str, int]:
    """Every name bound by an import statement, with its line."""
    names: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_names(annotation: ast.AST) -> Set[str]:
    """Names inside the quoted parts of one annotation."""
    names: Set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations: List[ast.AST] = []
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            used |= _annotation_names(annotation)
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            )
    return used


def unused_imports(root: Path = SRC, skip_noqa: bool = False) -> List[Tuple[str, int, str]]:
    """``(path, line, name)`` for every imported name its module never uses.

    Paths are relative to the repository root.  With ``skip_noqa``, an
    import on a line marked :data:`NOQA` is not reported.
    """
    found: List[Tuple[str, int, str]] = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = _used_names(tree)
        for name, line in sorted(_imported_names(tree).items(), key=lambda item: item[1]):
            if name not in used and not (skip_noqa and NOQA in lines[line - 1]):
                found.append((str(path.relative_to(REPO)), line, name))
    return found


def script_unused_imports() -> List[Tuple[str, int, str]]:
    """:func:`unused_imports` over :data:`SCRIPT_TREES`, lines marked :data:`NOQA` skipped."""
    return [entry for tree in SCRIPT_TREES for entry in unused_imports(tree, skip_noqa=True)]


def _report(unused: List[Tuple[str, int, str]]) -> str:
    return "unused imports:\n" + "\n".join(
        f"  {path}:{line}: {name}" for path, line, name in unused
    )


def test_src_has_no_unused_imports():
    unused = unused_imports()
    assert not unused, _report(unused)


def test_tests_benchmarks_and_examples_have_no_unused_imports():
    unused = script_unused_imports()
    assert not unused, _report(unused)


if __name__ == "__main__":
    for path, line, name in unused_imports() + script_unused_imports():
        print(f"{path}:{line}: {name}")
