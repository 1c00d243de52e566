import ast
import importlib
from pathlib import Path
import pkgutil

import pytest

import nestedpolar

MODULES = ["nestedpolar"] + [
    f"nestedpolar.{info.name}" for info in pkgutil.iter_modules(nestedpolar.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert nestedpolar.__version__ == tomllib.load(f)["project"]["version"]


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, lists in ``__all__`` or
    marks ``# noqa: F401`` on the import line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}  # bound name -> line of its alias
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [
        f"{name} (line {line})"
        for name, line in sorted(imported.items())
        if name not in used | exported and "# noqa: F401" not in lines[line - 1]
    ]


@pytest.mark.parametrize("path", sorted(Path(nestedpolar.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_guard_flags_and_exempts():
    source = (
        "from __future__ import annotations\n"
        "from collections.abc import Iterable, Sequence\n"
        "import numpy as np\n"
        "from .gf2 import kept  # noqa: F401  (kept for a caller)\n"
        "from .sc import exported\n"
        "__all__ = ['exported']\n"
        "def f(x: Sequence) -> None:\n"
        "    return np.asarray(x)\n"
    )
    assert _unused_imports(source) == ["Iterable (line 2)"]
