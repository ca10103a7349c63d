"""Finite globular sets, dimension sets and the natural order of names.

A finite globular set is a finite diagram of cells graded by dimension with
source/target maps satisfying the globularity equations

    src(src(x)) = src(tgt(x)),   tgt(src(x)) = tgt(tgt(x)).

Cells are identified by strings, unique across *all* dimensions.  The
kernel reads the shape of a scheme through its pasting computad
(:func:`omegatt.computads.pasting_computad`); a globular set here is a plain
record, built only as the positions of a tree (:func:`omegatt.trees.positions`,
bipointed by its outer root sectors) and their opposites (:func:`op_glob`,
which swaps the basepoints when it reverses dimension 1), for the tree laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


def nat_key(name: str) -> tuple:
    """Sort key for cell names: dot-split, numeric parts compared as ints."""
    return tuple((0, int(p)) if p.isdigit() else (1, p) for p in name.split("."))


@dataclass(frozen=True, slots=True)
class FiniteGlobularSet:
    """Cells per dimension plus source/target maps, unchecked: ``cells[d]``
    is the tuple of d-cell names in canonical order, ``srcs[d]`` and
    ``tgts[d]`` (empty at d = 0) the (cell, boundary) pairs in that order."""

    cells: tuple[tuple[str, ...], ...]
    srcs: tuple[tuple[tuple[str, str], ...], ...]
    tgts: tuple[tuple[tuple[str, str], ...], ...]

    @property
    def ndim(self) -> int:
        """Largest dimension carrying cells (-1 for the empty globular set)."""
        return len(self.cells) - 1

    def cells_at(self, d: int) -> tuple[str, ...]:
        return self.cells[d] if 0 <= d <= self.ndim else ()

    def all_cells(self) -> Iterable[tuple[int, str]]:
        for d, level in enumerate(self.cells):
            for x in level:
                yield d, x


@dataclass(frozen=True, slots=True)
class BipointedGlobularSet:
    """A finite globular set with two chosen 0-cells (x_minus, x_plus)."""

    carrier: FiniteGlobularSet
    base: tuple[str, str]

    @property
    def base_minus(self) -> str:
        return self.base[0]

    @property
    def base_plus(self) -> str:
        return self.base[1]


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


def op_glob(w: frozenset[int], x: FiniteGlobularSet) -> FiniteGlobularSet:
    """The w-opposite: swap src/tgt of the d-cells for every d in w, which
    keeps the names, the boundaries and globularity."""
    srcs, tgts = list(x.srcs), list(x.tgts)
    for d in range(1, x.ndim + 1):
        if d in w:
            srcs[d], tgts[d] = tgts[d], srcs[d]
    return FiniteGlobularSet(x.cells, tuple(srcs), tuple(tgts))


def op_glob_bipointed(w: frozenset[int], x: BipointedGlobularSet) -> BipointedGlobularSet:
    """w-opposite of a bipointed set; basepoints swap exactly when 1 in w."""
    base = (x.base_plus, x.base_minus) if 1 in w else x.base
    return BipointedGlobularSet(op_glob(w, x.carrier), base)
