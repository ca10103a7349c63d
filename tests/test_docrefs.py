"""Every cross-reference in the docstrings of ``omegatt`` names a live object.

A ``:func:``, ``:meth:``, ``:class:``, ``:data:`` or ``:mod:`` target
resolves against the module that writes it, against a class defined in
that module (``:meth:`` only), or as an ``omegatt.``-qualified path.  A
reference left naming a function that moved or was deleted fails here.
"""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import pytest

from omegatt import computads, metaops

SRC = Path(__file__).resolve().parent.parent / "src" / "omegatt"
ROLE = re.compile(r":(func|meth|class|data|mod):`~?([\w.]+)`")


def _lookup(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _qualified(dotted: str) -> bool:
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        return _lookup(module, ".".join(parts[i:])) if parts[i:] else True
    return False


def resolves(module, role: str, target: str) -> bool:
    if target.startswith("omegatt."):
        return _qualified(target)
    if role == "mod":
        return False
    if _lookup(module, target):
        return True
    classes = (cls for _, cls in inspect.getmembers(module, inspect.isclass) if cls.__module__ == module.__name__)
    return role == "meth" and any(_lookup(cls, target) for cls in classes)


def references(path: Path) -> list[tuple[int, str, str]]:
    text = path.read_text()
    return [(text.count("\n", 0, m.start()) + 1, m.group(1), m.group(2)) for m in ROLE.finditer(text)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_reference_resolves(path):
    name = "omegatt" if path.stem == "__init__" else f"omegatt.{path.stem}"
    module = importlib.import_module(name)
    broken = [f"{path.name}:{line}: :{role}:`{target}`"
              for line, role, target in references(path) if not resolves(module, role, target)]
    assert not broken, "\n".join(broken)


def test_the_resolver_rejects_what_is_not_there():
    assert resolves(metaops, "func", "op_cell")
    assert resolves(computads, "meth", "draft")
    assert resolves(computads, "func", "omegatt.metaops.op_cell")
    assert resolves(computads, "mod", "omegatt.trees")
    assert not resolves(computads, "func", "op_cell")
    assert not resolves(computads, "meth", "no_such_method")
    assert not resolves(computads, "mod", "omegatt.no_such_module")
    assert not resolves(computads, "func", "omegatt.metaops.no_such_function")
