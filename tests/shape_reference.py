"""The shape tables of a tree built by formatting names, and the globular
sets with their checked constructor: the reference that ``omegatt.trees``
is tested against.

Each builder here walks the tree and formats every position name it needs
with an f-string, as the kernel once did.  The kernel formats the names of
a tree once, in ``sorted_positions``, and builds every other table from
that tuple by index; the two must give equal tables.  The boundaries and
opposites of trees that the tables are over are plain recursions from
their definitions (:func:`boundary_tree`, :func:`op_tree`), one Python
frame per level; the kernel builds them in a loop over its memos.

The kernel reads a scheme through its pasting computad and keeps no
globular set.  Here a globular set is a plain record
(:class:`FiniteGlobularSet`, :class:`BipointedGlobularSet`), with its
opposites (:func:`op_glob`, :func:`op_glob_bipointed`).  :func:`checked`
and :func:`checked_pointed` check a record (names unique, then no
dangling boundary, then globularity; basepoints that are 0-cells),
:func:`make` builds a checked set from levels in any order and boundary
maps, and :func:`positions` is the globular set of positions of a tree,
bipointed by its outer root sectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Mapping, Sequence

from omegatt import globular
from omegatt.trees import BataninTree, sorted_positions


@dataclass(frozen=True, slots=True)
class FiniteGlobularSet:
    """Cells per dimension plus source/target maps, unchecked: ``cells[d]``
    is the tuple of d-cell names in canonical order, ``srcs[d]`` and
    ``tgts[d]`` (empty at d = 0) the (cell, boundary) pairs in that order.
    Cell names are unique across all dimensions."""

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


def checked(x: FiniteGlobularSet) -> FiniteGlobularSet:
    """``x``, once its names are unique, then no boundary dangles, then it is
    globular, each check in one pass over the levels."""
    seen: set[str] = set()
    for level in x.cells:
        for c in level:
            if c in seen:
                raise ValueError(f"duplicate cell name {c!r}")
            seen.add(c)
    for d in range(1, x.ndim + 1):
        below = set(x.cells[d - 1])
        for (c, s), (_, t) in zip(x.srcs[d], x.tgts[d]):
            if s not in below or t not in below:
                raise ValueError(f"dangling boundary on {d}-cell {c!r}")
    for d in range(2, x.ndim + 1):
        src, tgt = dict(x.srcs[d - 1]), dict(x.tgts[d - 1])
        for (c, s), (_, t) in zip(x.srcs[d], x.tgts[d]):
            if src[s] != src[t] or tgt[s] != tgt[t]:
                raise ValueError(f"globularity fails at {d}-cell {c!r}")
    return x


def checked_pointed(carrier: FiniteGlobularSet, base: tuple[str, str]) -> BipointedGlobularSet:
    """The checked carrier pointed at ``base``, two of its 0-cells."""
    for b in base:
        if b not in carrier.cells_at(0):
            raise ValueError(f"basepoint {b!r} is not a 0-cell")
    return BipointedGlobularSet(checked(carrier), tuple(base))


def ordered(levels: Sequence[Sequence[str]], src: Mapping[str, str], tgt: Mapping[str, str]) -> FiniteGlobularSet:
    """The checked globular set on ``levels``, each already in canonical
    order, without its trailing empty levels."""
    levels = [tuple(level) for level in levels]
    while levels and not levels[-1]:
        levels.pop()
    srcs: list[tuple[tuple[str, str], ...]] = [()]
    tgts: list[tuple[tuple[str, str], ...]] = [()]
    for level in levels[1:]:
        srcs.append(tuple([(x, src[x]) for x in level]))
        tgts.append(tuple([(x, tgt[x]) for x in level]))
    return checked(FiniteGlobularSet(tuple(levels), tuple(srcs), tuple(tgts)))


def make(cells_by_dim: Sequence[Iterable[str]], src: Mapping[str, str], tgt: Mapping[str, str]) -> FiniteGlobularSet:
    """The checked globular set on these cells, each level sorted by
    ``nat_key`` (read from ``omegatt.globular`` at the call, so a test can
    count the sorts)."""
    return ordered([sorted(level, key=globular.nat_key) for level in cells_by_dim], src, tgt)


def positions(t) -> BipointedGlobularSet:
    """The globular set of positions of ``t``, bipointed by its outer root sectors."""
    levels: list[tuple[list, list, list]] = []
    todo = [(t, 0, "", "", "")]  # node, depth, name prefix, the sectors above it runs between
    while todo:
        node, d, prefix, lo, hi = todo.pop()
        if len(levels) == d:
            levels.append(([], [], []))
        cells, srcs, tgts = levels[d]
        names = [f"{prefix}{j}" for j in range(len(node.children) + 1)]
        cells += names
        if d:
            srcs += [(x, lo) for x in names]
            tgts += [(x, hi) for x in names]
        todo += [(c, d + 1, f"{prefix}{i}.", names[i - 1], names[i]) for i, c in enumerate(node.children, 1)][::-1]
    cells, srcs, tgts = (tuple(map(tuple, side)) for side in zip(*levels))
    return checked_pointed(FiniteGlobularSet(cells, srcs, tgts), (cells[0][0], cells[0][-1]))


def boundary_tree(k: int, t: BataninTree) -> BataninTree:
    """The tree cut at height ``k``: no children at height 0, and each
    child cut at height ``k - 1`` above it."""
    return BataninTree(tuple([boundary_tree(k - 1, c) for c in t.children]) if k else ())


def op_tree(w: frozenset[int], t: BataninTree) -> BataninTree:
    """The root's children reversed when 1 is in ``w``, each acted on by
    ``w - 1`` (every dimension of ``w`` above 1, one lower)."""
    kids = [op_tree(frozenset(d - 1 for d in w if d > 1), c) for c in t.children]
    return BataninTree(tuple(kids[::-1] if 1 in w else kids))


def src_inclusion(k: int, t) -> dict[str, str]:
    return {p: p for p in sorted_positions(boundary_tree(k, t))}


def tgt_inclusion(k: int, t) -> dict[str, str]:
    out = src_inclusion(k, t)
    for p in out:
        if p.count(".") == k:
            node = reduce(lambda node, i: node.children[int(i) - 1], p.split(".")[:-1], t)
            out[p] = p[:-1] + str(len(node.children))
    return out


def op_positions_iso(w, t) -> dict[str, str]:
    out: dict[str, str] = {}
    todo = [(t, 0, "", "")]  # node, depth, its name prefix in the opposite and in t
    while todo:
        node, d, p, q = todo.pop()
        n, flip = len(node.children), d + 1 in w
        for j in range(n + 1):
            out[f"{p}{j}"] = f"{q}{n - j if flip else j}"
        for i in range(n, 0, -1):
            k = n + 1 - i if flip else i
            todo.append((node.children[k - 1], d + 1, f"{p}{i}.", f"{q}{k}."))
    return out


def op_sub_order(w, t) -> tuple[tuple[str, int], ...]:
    index = {q: i for i, q in enumerate(sorted_positions(t))}
    iso = op_positions_iso(w, t)
    return tuple([(p, index[iso[p]]) for p in sorted_positions(op_tree(w, t))])
