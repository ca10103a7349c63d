"""The module layers of ``omegatt``, read from the source with ``ast``.

The modules form one stack, each importing only from the layers below it:
``hashcons``, ``globular``, ``trees``, ``computads``, ``metaops``,
``homcat``/``oplib``, ``surface``/``laws``, ``export``, ``cli``; modules in
one layer do not import each other.  The package ``__init__`` re-exports
from all of them and is not a layer.

The kernel reads the shape of a scheme through its pasting computad, so
no module names a globular-set record or its opposites (the tests keep
them, in ``shape_reference``), and the cached levels of positions are
named only where they are built (``trees``) and checked as laws
(``laws``).

A computad draft's table grows, so a view read from it would go stale:
only ``computads``, which defines it, and the elaborator in ``surface``
name a draft's methods.  Generators are added through the draft alone.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "omegatt"

LAYERS = [["hashcons"], ["globular"], ["trees"], ["computads"], ["metaops"], ["homcat", "oplib"],
          ["surface", "laws"], ["export"], ["cli"]]
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}

GLOBULAR_NAMES = {"FiniteGlobularSet", "BipointedGlobularSet", "op_glob", "op_glob_bipointed"}
POSITIONS_NAMED_BY = {"trees", "laws"}

DRAFT_NAMES = {"draft", "add", "done"}
DRAFTED_BY = {"computads", "surface"}


def tree_of(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")


def imported(module: str) -> set[str]:
    """The ``omegatt`` modules that ``module`` imports, anywhere in it."""
    out = set()
    for node in ast.walk(tree_of(module)):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0 and not name.startswith("omegatt"):
                continue
            name = name.removeprefix("omegatt").lstrip(".")
            if name:
                out.add(name.split(".")[0])
            else:  # from . import x
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("omegatt."))
    return out


def names(module: str) -> set[str]:
    """Every identifier ``module`` uses: names, attributes and imported names."""
    out = set()
    for node in ast.walk(tree_of(module)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(RANK) | {"__init__"}


@pytest.mark.parametrize("module", sorted(RANK))
def test_imports_only_from_layers_below(module):
    later = {m for m in imported(module) if RANK[m] >= RANK[module]}
    assert later == set(), f"{module} imports from {sorted(later)}, not below it"


@pytest.mark.parametrize("module", sorted(RANK))
def test_no_module_names_a_globular_set(module):
    assert names(module) & GLOBULAR_NAMES == set()


@pytest.mark.parametrize("module", sorted(set(RANK) - POSITIONS_NAMED_BY))
def test_globular_sets_stay_with_the_tree_laws(module):
    """What was the globular set of positions is now its cached levels."""
    assert "positions" not in names(module)


@pytest.mark.parametrize("module", sorted(set(RANK) - DRAFTED_BY))
def test_drafts_stay_with_the_computads_and_the_elaborator(module):
    assert names(module) & DRAFT_NAMES == set()


@pytest.mark.parametrize("module", sorted(RANK))
def test_one_checked_path_adds_generators(module):
    assert names(module) & {"extend", "_check_sphere"} == set()
