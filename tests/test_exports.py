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
