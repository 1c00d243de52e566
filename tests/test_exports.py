import ast
import importlib
from pathlib import Path
import pkgutil
import re

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


def _shared_helper_copies(source: str) -> list[str]:
    """Functions named ``_check_*`` or ``_pack*`` that source defines."""
    return sorted(
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith(("_check_", "_pack"))
    )


@pytest.mark.parametrize("path", sorted(Path(nestedpolar.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_argument_checks_and_packer_live_only_in_gf2(path):
    # gf2 holds the one copy of each shared argument check and of the row
    # packer; a second copy elsewhere can drift from it
    if path.name == "gf2.py":
        assert {"_check_shapes", "_check_values", "_pack"} <= set(_shared_helper_copies(path.read_text()))
        return
    copies = _shared_helper_copies(path.read_text())
    assert not copies, f"{path.name} defines its own checks or packers: {copies}"


def test_shared_helper_guard_flags_nested_definitions():
    source = (
        "def _check_n(n):\n    pass\n"
        "class C:\n    def _pack_rows(self):\n        def _check_inner():\n            pass\n"
        "def _unpack(words):\n    pass\n"
        "def check_n(n):\n    pass\n"
    )
    assert _shared_helper_copies(source) == ["_check_inner", "_check_n", "_pack_rows"]


def _private_package_imports(source: str) -> list[str]:
    """Underscore-prefixed names, dunders aside, that source imports from
    ``nestedpolar`` or its modules, or reads off a package module it
    imported."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nestedpolar":
            found += [part for part in node.module.split(".") if private(part)]
            found += [alias.name for alias in node.names if private(alias.name)]
            modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "nestedpolar":
                    found += [part for part in alias.name.split(".") if private(part)]
                    modules.add(alias.asname or "nestedpolar")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(node.attr)
    return sorted(found)


def test_oracles_import_no_private_package_names():
    # an oracle that runs the package's private helpers is not independent
    # of the path it checks
    source = (Path(__file__).parent / "oracles.py").read_text()
    assert _private_package_imports(source) == []


def test_private_import_guard_flags_and_exempts():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import _umath_linalg\n"
        "import nestedpolar\n"
        "import nestedpolar._native as native\n"
        "from nestedpolar.relay import _scheme_designer, build_relay_scheme\n"
        "from nestedpolar._impl.sc import decode\n"
        "from nestedpolar import relay as r, __version__\n"
        "def f():\n"
        "    return r._InfeasibleMargin, nestedpolar.__file__, np._core, nestedpolar.gf2._pack\n"
    )
    assert _private_package_imports(source) == [
        "_InfeasibleMargin", "_impl", "_native", "_pack", "_scheme_designer",
    ]


# The relay rule (walk only the rows in doubt, keep the sent bits elsewhere)
# lives in one stage step; these are the calls that apply it.
RELAY_STEP_CALLS = ("decode_bec_rows", "undetermined_bec_rows", "transform_rows")


def _call_sites(source: str, names, within: str | None = None) -> dict[str, int]:
    """How many calls of each of names source makes, by plain or dotted
    name; only inside the function named ``within``, if given."""
    counts = dict.fromkeys(names, 0)
    tree = ast.parse(source)
    if within is not None:
        [tree] = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == within]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in counts:
                counts[called] += 1
    return counts


def test_relay_applies_its_rule_in_one_stage_step():
    # a stage that calls the decoder, the erasure genie or the encoder
    # itself would hold a second copy of the rule, free to drift
    source = (Path(nestedpolar.__file__).parent / "relay.py").read_text()
    assert _call_sites(source, RELAY_STEP_CALLS) == dict.fromkeys(RELAY_STEP_CALLS, 1)


def test_call_site_guard_flags_a_second_site():
    source = (
        "def step(e, mask):\n    return decode_bec_rows(e, mask, undetermined_bec_rows(e, mask))\n"
        "def stage(e, mask):\n    x = sc.decode_bec_rows(e, mask, 0)\n"
        "    return transform_rows\n"
    )
    assert _call_sites(source, RELAY_STEP_CALLS) == {
        "decode_bec_rows": 2, "undetermined_bec_rows": 1, "transform_rows": 0,
    }


def test_wiretap_leaves_the_reduction_to_incremental_rank():
    # the sweep joins columns through IncrementalRank.add; a reduction
    # written into wiretap would be a second copy of the pivot rule, free
    # to drift, and its steps would escape the count of add calls
    source = (Path(nestedpolar.__file__).parent / "wiretap.py").read_text()
    assert _call_sites(source, ("bit_length",)) == {"bit_length": 0}


# The relay seeds each stage's substreams as one RngStreams batch and reads
# its messages off raw words; these calls would seed or draw one trial at a
# time again.
RELAY_PER_TRIAL_RNG_CALLS = ("RngStream", "generator", "integers")


def test_simulate_relay_seeds_no_generator_per_trial():
    source = (Path(nestedpolar.__file__).parent / "relay.py").read_text()
    counts = _call_sites(source, RELAY_PER_TRIAL_RNG_CALLS, within="simulate_relay")
    assert counts == dict.fromkeys(RELAY_PER_TRIAL_RNG_CALLS, 0)


def test_per_trial_rng_guard_flags_calls_inside_the_function_only():
    source = (
        "def simulate_relay(seed, k):\n"
        "    def generators(t):\n        return channels.RngStream(seed, t).generator()\n"
        "    return [generators(t).integers(0, 2, k) for t in range(3)]\n"
        "def other(seed):\n    return RngStream(seed).generator().integers(0, 2)\n"
    )
    assert _call_sites(source, RELAY_PER_TRIAL_RNG_CALLS, within="simulate_relay") == {
        "RngStream": 1, "generator": 1, "integers": 1,
    }
    assert _call_sites(source, RELAY_PER_TRIAL_RNG_CALLS) == {
        "RngStream": 2, "generator": 2, "integers": 2,
    }


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


def _stale_row_names(text: str, *namespaces) -> list[str]:
    """Names ending in ``_rows`` inside backticks in text that none of the
    namespaces defines."""
    names = {
        name
        for _, span in re.findall(r"(`+)([^`]+)\1", text)
        for name in re.findall(r"\b[A-Za-z_]\w*_rows\b", span)
    }
    return sorted(name for name in names if not any(hasattr(ns, name) for ns in namespaces))


def _docstrings(source: str) -> str:
    tree = ast.parse(source)
    nodes = [tree] + [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return "\n".join(doc for doc in map(ast.get_docstring, nodes) if doc)


@pytest.mark.parametrize("path", sorted(Path(nestedpolar.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_docstrings_name_only_live_row_functions(path):
    module = importlib.import_module(
        "nestedpolar" if path.stem == "__init__" else f"nestedpolar.{path.stem}"
    )
    stale = _stale_row_names(_docstrings(path.read_text()), nestedpolar, module)
    assert not stale, f"{path.name} docstrings name functions that do not exist: {stale}"


def test_readme_names_only_live_row_functions():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    stale = _stale_row_names(readme.read_text(), nestedpolar)
    assert not stale, f"README.md names functions that do not exist: {stale}"


def test_stale_row_name_guard_flags_and_exempts():
    text = (
        "``old_bec_rows(y)[:, mask]`` is gone, `decode_bec_rows` is not,\n"
        "``sc.butterfly_rows`` lives in a module, and plain_rows is not quoted."
    )
    assert _stale_row_names(text, nestedpolar) == ["butterfly_rows", "old_bec_rows"]
    assert _stale_row_names(text, nestedpolar, importlib.import_module("nestedpolar.polar")) == ["old_bec_rows"]
