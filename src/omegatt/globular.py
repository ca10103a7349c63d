"""Dimension sets and the natural order of cell names.

A dimension set ``w`` names the dimensions an opposite reverses: the
w-opposite of a globular shape swaps the source and target of its d-cells
for every d in ``w``.  The kernel forms opposites of schemes, computads
and cells (:mod:`omegatt.trees`, :mod:`omegatt.metaops`) and reads the
shape of a scheme through its pasting computad
(:func:`omegatt.computads.pasting_computad`), so this module keeps only
what they all share: the dimension sets, one object each, and the
numeric-aware order of dotted names.
"""

from __future__ import annotations

from typing import Iterable


def nat_key(name: str) -> tuple:
    """Sort key for cell names: dot-split, numeric parts compared as ints."""
    return tuple((0, int(p)) if p.isdigit() else (1, p) for p in name.split("."))


DimSet = frozenset


_DIMSETS: dict[frozenset[int], frozenset[int]] = {}


def canonical_dimset(w: frozenset[int]) -> frozenset[int]:
    """The one shared object equal to ``w``.  Dimension sets are memo and
    cache keys all over the kernel; sharing them keeps a handful alive
    instead of one per key."""
    return _DIMSETS.setdefault(w, w)


def dimset(dims: Iterable[int]) -> frozenset[int]:
    w = frozenset(int(d) for d in dims)
    if any(d < 1 for d in w):
        raise ValueError("dimension sets contain positive integers only")
    return canonical_dimset(w)


def dimset_down(w: frozenset[int]) -> frozenset[int]:
    """w - 1 = {n >= 1 | n + 1 in w}: the set acting one dimension down."""
    return canonical_dimset(frozenset(n - 1 for n in w if n >= 2))
