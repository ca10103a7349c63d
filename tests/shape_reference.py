"""The shape tables of a tree built by formatting names, and the checked
constructor of globular sets: the reference that ``omegatt.trees`` is
tested against.

Each builder here walks the tree and formats every position name it needs
with an f-string, as the kernel once did.  The kernel formats the names of
a tree once, in ``sorted_positions``, and builds every other table from
that tuple by index; the two must give equal tables.

The kernel's globular sets are plain records that it builds only from
tables valid by construction.  :func:`checked` and :func:`checked_pointed`
check a record (names unique, then no dangling boundary, then globularity;
basepoints that are 0-cells), and :func:`make` builds a checked set from
levels in any order and boundary maps.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Mapping, Sequence

from omegatt import globular
from omegatt.globular import BipointedGlobularSet, FiniteGlobularSet
from omegatt.trees import boundary_tree, op_tree, sorted_positions


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
