"""The shape tables of a tree built by formatting names: the reference that
``omegatt.trees`` is tested against.

Each builder here walks the tree and formats every position name it needs
with an f-string, as the kernel once did.  The kernel formats the names of
a tree once, in ``sorted_positions``, and builds every other table from
that tuple by index; the two must give equal tables.
"""

from __future__ import annotations

from functools import reduce

from omegatt.globular import BipointedGlobularSet, FiniteGlobularSet
from omegatt.trees import boundary_tree, op_tree, sorted_positions


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
    return BipointedGlobularSet(FiniteGlobularSet(cells, srcs, tgts), (cells[0][0], cells[0][-1]))


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
