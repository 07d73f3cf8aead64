"""Import layering of the package: no module imports one above it."""

import ast
from pathlib import Path

import pytest

import epicube

# Lowest first; the modules of one tier sit side by side.
TIERS = (
    ("exceptions",),
    ("projective",),
    ("degeneracy", "pencil"),
    ("exact", "estimators", "quadrics"),
    ("simulate",),
    ("cli",),
)
TIER = {name: k for k, names in enumerate(TIERS) for name in names}
PACKAGE = Path(epicube.__file__).parent


def package_imports(path):
    """The package modules that a source file imports, at any depth of its
    syntax tree (function-local imports included)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            found.update(p[1] for p in parts if p[0] == "epicube" and len(p) > 1)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if node.level == 0 and module[0] != "epicube":
                continue
            inner = module[1:] if node.level == 0 else module
            if inner and inner[0]:
                found.add(inner[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_tier():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(TIER)


@pytest.mark.parametrize("name", sorted(TIER))
def test_imports_only_lower_or_same_tier(name):
    above = {m for m in package_imports(PACKAGE / f"{name}.py") if TIER[m] > TIER[name]}
    assert not above, f"{name} imports {sorted(above)} from a higher tier"
