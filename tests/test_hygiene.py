"""Source hygiene: every import in the package is used."""

import ast
from pathlib import Path

import fdelab

PACKAGE = Path(fdelab.__file__).resolve().parent


def _bound_names(node):
    """(bound name, line) for each alias of an import statement."""
    for alias in node.names:
        if isinstance(node, ast.Import):
            name = alias.asname or alias.name.split(".")[0]
        else:
            name = alias.asname or alias.name
        yield name, node.lineno


def unused_imports(source: str) -> list[tuple[str, int]]:
    """Imported names never read in the module and not listed in __all__."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(_bound_names(node))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(_bound_names(node))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(name, line) for name, line in imported if name not in used]


def test_unused_import_detector():
    src = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport numpy as np\n"
        "from a import b, c as d\n"
        "__all__ = ['b']\n"
        "x: np.ndarray = math.pi\n"
    )
    assert unused_imports(src) == [("os", 3), ("d", 5)]


def test_package_has_no_unused_imports():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in unused_imports(path.read_text())
    ]
    assert found == []
