"""Finite globular sets and the shape-level operations on them.

A finite globular set is a finite diagram of cells graded by dimension with
source/target maps satisfying the globularity equations

    src(src(x)) = src(tgt(x)),   tgt(src(x)) = tgt(tgt(x)).

Cells are identified by strings.  Every constructor in this library produces
names that are unique across *all* dimensions, which lets substitutions and
morphisms elsewhere be flat name-keyed maps; every `FiniteGlobularSet` checks
this when it is built.

Bipointed globular sets carry two distinguished 0-cells (x_minus, x_plus):
the positions of a pasting scheme are one, pointed by its outer root sectors,
and an opposite swaps the two when it reverses dimension 1.  The wedge sum,
suspension and hom (loop) construction of globular sets are kept in
``tests/extras.py``, where they are the independent oracle for the position
sets of trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


def nat_key(name: str) -> tuple:
    """Sort key for cell names: dot-split, numeric parts compared as ints."""
    return tuple((0, int(p)) if p.isdigit() else (1, p) for p in name.split("."))


def _sorted_names(names: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(names, key=nat_key))


@dataclass(frozen=True, slots=True)
class FiniteGlobularSet:
    """Cells per dimension plus source/target maps (immutable, canonical order).

    ``cells[d]`` is the tuple of d-cell names in natural order; ``srcs[d]`` and
    ``tgts[d]`` (for d >= 1) are tuples of (cell, boundary) pairs in the same
    order.  Every construction validates, in one pass over those pairs.
    :meth:`make` sorts its levels by :func:`nat_key` and hands them to
    :meth:`ordered`, which takes levels already in canonical order.
    Tables valid by construction, the positions of a tree
    (:func:`omegatt.trees.positions`) and the opposites of a valid set
    (:func:`op_glob`), build through :meth:`_trusted`, which skips the
    check.
    """

    cells: tuple[tuple[str, ...], ...]
    srcs: tuple[tuple[tuple[str, str], ...], ...]
    tgts: tuple[tuple[tuple[str, str], ...], ...]

    @staticmethod
    def make(
        cells_by_dim: Sequence[Iterable[str]],
        src: Mapping[str, str],
        tgt: Mapping[str, str],
    ) -> "FiniteGlobularSet":
        return FiniteGlobularSet.ordered([_sorted_names(level) for level in cells_by_dim], src, tgt)

    @staticmethod
    def ordered(
        levels: Sequence[Sequence[str]],
        src: Mapping[str, str],
        tgt: Mapping[str, str],
    ) -> "FiniteGlobularSet":
        """The globular set on ``levels``, each already in canonical order."""
        levels = [tuple(level) for level in levels]
        while levels and not levels[-1]:
            levels.pop()
        srcs: list[tuple[tuple[str, str], ...]] = [()]
        tgts: list[tuple[tuple[str, str], ...]] = [()]
        for level in levels[1:]:
            srcs.append(tuple([(x, src[x]) for x in level]))
            tgts.append(tuple([(x, tgt[x]) for x in level]))
        return FiniteGlobularSet(tuple(levels), tuple(srcs), tuple(tgts))

    @classmethod
    def _trusted(cls, cells: tuple, srcs: tuple, tgts: tuple) -> "FiniteGlobularSet":
        """The globular set on these tables, unchecked: only for tables
        valid by construction, as the positions of a tree are, or that a
        valid set gives by swapping its boundary tables at some dimensions,
        which keeps the names, the boundaries and globularity."""
        x = object.__new__(cls)
        object.__setattr__(x, "cells", cells)
        object.__setattr__(x, "srcs", srcs)
        object.__setattr__(x, "tgts", tgts)
        return x

    def __post_init__(self) -> None:
        """Validate: names unique, then no dangling boundary, then
        globularity, each check in one pass over the levels."""
        seen: set[str] = set()
        for level in self.cells:
            for x in level:
                if x in seen:
                    raise ValueError(f"duplicate cell name {x!r}")
                seen.add(x)
        for d in range(1, self.ndim + 1):
            below = set(self.cells[d - 1])
            for (x, s), (_, t) in zip(self.srcs[d], self.tgts[d]):
                if s not in below or t not in below:
                    raise ValueError(f"dangling boundary on {d}-cell {x!r}")
        for d in range(2, self.ndim + 1):
            src, tgt = dict(self.srcs[d - 1]), dict(self.tgts[d - 1])
            for (x, s), (_, t) in zip(self.srcs[d], self.tgts[d]):
                if src[s] != src[t] or tgt[s] != tgt[t]:
                    raise ValueError(f"globularity fails at {d}-cell {x!r}")

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

    def to_json(self) -> dict:
        src = {x: s for pairs in self.srcs for x, s in pairs}
        tgt = {x: t for pairs in self.tgts for x, t in pairs}
        order = sorted(src, key=nat_key)
        return {
            "dims": [list(level) for level in self.cells],
            "src": {x: src[x] for x in order},
            "tgt": {x: tgt[x] for x in order},
        }

    @staticmethod
    def from_json(obj: Mapping) -> "FiniteGlobularSet":
        return FiniteGlobularSet.make(obj["dims"], obj.get("src", {}), obj.get("tgt", {}))


@dataclass(frozen=True, slots=True)
class BipointedGlobularSet:
    """A finite globular set with two chosen 0-cells (x_minus, x_plus)."""

    carrier: FiniteGlobularSet
    base: tuple[str, str]

    def __post_init__(self) -> None:
        for b in self.base:
            if b not in self.carrier.cells_at(0):
                raise ValueError(f"basepoint {b!r} is not a 0-cell")

    @property
    def base_minus(self) -> str:
        return self.base[0]

    @property
    def base_plus(self) -> str:
        return self.base[1]

    def to_json(self) -> dict:
        obj = self.carrier.to_json()
        obj["base"] = list(self.base)
        return obj

    @staticmethod
    def from_json(obj: Mapping) -> "BipointedGlobularSet":
        return BipointedGlobularSet(FiniteGlobularSet.from_json(obj), tuple(obj["base"]))


def disk(n: int) -> FiniteGlobularSet:
    """The n-disk: two cells in each dimension below n, one cell at n.

    The d-cells below the top are named "s{d}"/"t{d}" (the d-source and
    d-target of the unique top cell "top").
    """
    if n < 0:
        raise ValueError("disk dimension must be >= 0")
    cells: list[list[str]] = [[f"s{d}", f"t{d}"] for d in range(n)]
    cells.append(["top"])
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    for d in range(1, n):
        src[f"s{d}"] = src[f"t{d}"] = f"s{d-1}"
        tgt[f"s{d}"] = tgt[f"t{d}"] = f"t{d-1}"
    if n >= 1:
        src["top"] = f"s{n-1}"
        tgt["top"] = f"t{n-1}"
    return FiniteGlobularSet.make(cells, src, tgt)


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
    """The w-opposite: swap src/tgt of the d-cells for every d in w.  The
    swap keeps a valid set valid, so the result is not checked again."""
    srcs, tgts = list(x.srcs), list(x.tgts)
    for d in range(1, x.ndim + 1):
        if d in w:
            srcs[d], tgts[d] = tgts[d], srcs[d]
    return FiniteGlobularSet._trusted(x.cells, tuple(srcs), tuple(tgts))


def op_glob_bipointed(w: frozenset[int], x: BipointedGlobularSet) -> BipointedGlobularSet:
    """w-opposite of a bipointed set; basepoints swap exactly when 1 in w."""
    base = (x.base_plus, x.base_minus) if 1 in w else x.base
    return BipointedGlobularSet(op_glob(w, x.carrier), base)
