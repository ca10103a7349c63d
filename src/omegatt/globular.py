"""Finite globular sets and the shape-level operations on them.

A finite globular set is a finite diagram of cells graded by dimension with
source/target maps satisfying the globularity equations

    src(src(x)) = src(tgt(x)),   tgt(src(x)) = tgt(tgt(x)).

Cells are identified by strings.  Every constructor in this library produces
names that are unique across *all* dimensions, which lets substitutions and
morphisms elsewhere be flat name-keyed maps; every `FiniteGlobularSet` checks
this when it is built.

Bipointed globular sets carry two distinguished 0-cells (x_minus, x_plus) and
support wedge sums, suspension and the hom (loop) construction.  Suspension
follows a fixed naming discipline: the fresh basepoints are named "0" and "1"
and every cell x of the input becomes "1."+x one dimension up.  This makes
suspension of pasting-scheme position sets literally equal to the position set
of the suspended tree, and makes hom-after-suspension the identity on the nose.
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
    :meth:`ordered`, which takes levels already in canonical order; code
    that has the pairs in that order already (positions, suspensions)
    calls the constructor itself.  :func:`op_glob` alone builds through
    :meth:`_trusted`, which skips the check.
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
        that a valid set gives by swapping its boundary tables at some
        dimensions, which keeps the names, the boundaries and globularity."""
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


def suspend_glob(x: FiniteGlobularSet) -> BipointedGlobularSet:
    """Suspension: two fresh basepoints "0","1"; each d-cell c becomes the
    (d+1)-cell "1."+c.  Old 0-cells get src/tgt the new basepoints.  A
    common prefix keeps each level in canonical order."""
    cells, srcs, tgts = [("0", "1")], [()], [()]
    renamed: dict[str, str] = {}  # so the pairs share the new name strings
    for d, level in enumerate(x.cells):
        up = tuple(["1." + c for c in level])
        if d == 0:
            srcs.append(tuple([(c, "0") for c in up]))
            tgts.append(tuple([(c, "1") for c in up]))
        else:
            srcs.append(tuple([(c, renamed[b]) for c, (_, b) in zip(up, x.srcs[d])]))
            tgts.append(tuple([(c, renamed[b]) for c, (_, b) in zip(up, x.tgts[d])]))
        renamed.update(zip(level, up))
        cells.append(up)
    return BipointedGlobularSet(FiniteGlobularSet(tuple(cells), tuple(srcs), tuple(tgts)), ("0", "1"))


def hom_glob(x: BipointedGlobularSet) -> FiniteGlobularSet:
    """Loop construction: the (n+1)-cells whose 0-source is x_minus and
    0-target is x_plus become n-cells.

    When every selected cell carries the suspension prefix "1." it is
    stripped, so that hom_glob(suspend_glob(X)) == X exactly.
    """
    g = x.carrier
    # the iterated source and target of each cell down to a 0-cell
    lo = {c: c for c in g.cells_at(0)}
    hi = dict(lo)
    selected: list[list[str]] = []
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    for d in range(1, g.ndim + 1):
        level = []
        for (c, s), (_, t) in zip(g.srcs[d], g.tgts[d]):
            lo[c], hi[c] = lo[s], hi[t]
            if lo[c] == x.base_minus and hi[c] == x.base_plus:
                level.append(c)
                src[c], tgt[c] = s, t
        selected.append(level)
    names = [c for level in selected for c in level]
    strip = bool(names) and all(c.startswith("1.") for c in names)
    rename = (lambda c: c[2:]) if strip else (lambda c: c)
    # stripping the common prefix keeps each level in canonical order
    return FiniteGlobularSet.ordered(
        [[rename(c) for c in level] for level in selected],
        {rename(c): rename(s) for c, s in src.items()},
        {rename(c): rename(t) for c, t in tgt.items()},
    )


def wedge(parts: Sequence[BipointedGlobularSet]) -> BipointedGlobularSet:
    """Wedge sum along the basepoint chain.

    Part i's x_plus is identified with part i+1's x_minus.  The chain nodes
    are named by integers 0..n (collapsed classes take the minimal index);
    every other cell of part i is tagged "i."  The empty wedge is the 0-disk
    pointed at itself (the unit) and a single part is returned unchanged, so
    the nullary/unary cospan-composition laws hold on the nose.
    """
    n = len(parts)
    if n == 0:
        return BipointedGlobularSet(disk(0), ("top", "top"))
    if n == 1:
        return parts[0]
    # Union-find over chain nodes 0..n; part i (1-based) glues node i-1 to i
    # when its two basepoints coincide.
    parent = list(range(n + 1))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, part in enumerate(parts, start=1):
        if part.base_minus == part.base_plus:
            a, b = find(i - 1), find(i)
            parent[max(a, b)] = min(a, b)

    def node(i: int) -> str:
        return str(find(i))

    cells: list[list[str]] = [list({node(i) for i in range(n + 1)})]
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    for i, part in enumerate(parts, start=1):
        g = part.carrier
        basepoints = {part.base_minus, part.base_plus}

        def tag(d: int, c: str) -> str:
            if d == 0 and c == part.base_minus:
                return node(i - 1)
            if d == 0 and c == part.base_plus:
                return node(i)
            return f"{i}.{c}"

        cells[0] += [tag(0, c) for c in g.cells_at(0) if c not in basepoints]
        for d in range(1, g.ndim + 1):
            if len(cells) == d:
                cells.append([])
            for (c, s), (_, t) in zip(g.srcs[d], g.tgts[d]):
                cells[d].append(tag(d, c))
                src[tag(d, c)], tgt[tag(d, c)] = tag(d - 1, s), tag(d - 1, t)
    carrier = FiniteGlobularSet.make(cells, src, tgt)
    return BipointedGlobularSet(carrier, (node(0), node(n)))


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
