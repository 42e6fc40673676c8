"""Every module-level name in the package is used by the package itself,
the benchmark, or the acceptance gate.

A name defined at module level (function, class or assignment, dunder
names aside) must be read somewhere in src/mcgtorsion other than its own
definition, in bench/*.py, or in tests/test_acceptance.py.  A name only
the unit tests reach is public surface nothing needs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "mcgtorsion").glob("*.py"))
USERS = SRC + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def defined_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("__")]


def read_names(tree: ast.Module) -> set[str]:
    """Names a module loads, reads as attributes, or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def test_no_unused_module_names():
    used = set()
    for path in USERS:
        used |= read_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = [
        f"{path.stem}.{name}"
        for path in SRC
        for name in defined_names(ast.parse(path.read_text(encoding="utf-8")))
        if name not in used
    ]
    assert unused == []
