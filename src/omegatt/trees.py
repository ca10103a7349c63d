"""Batanin trees and their globular sets of positions.

A tree ``br(B1, ..., Bn)`` is a pasting scheme: a point with n arrows out
of it, each arrow filled by the scheme of its subtree one dimension up.
Positions are named canonically so that every construction downstream
(boundary inclusions, opposites, suspension) is a map of plain strings:

* the n+1 sectors at the root are ``"0" .. "n"`` (dimension 0);
* a position ``p`` of the i-th child (1-based) becomes ``"i.p"`` one
  dimension up.

So the dimension of a position is the number of dots in its name, and
lexicographic-with-numeric-segments order is the source-to-target sweep.
Positions are emitted in that canonical order by construction (root
sectors, then branch by branch), so no position set is ever sorted.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from .globular import (
    BipointedGlobularSet,
    DimSet,
    FiniteGlobularSet,
    dimset_down,
    shift_levels,
)
from .hashcons import HashConsed, remember


class BataninTree(HashConsed):
    """A finite rooted planar tree; children ordered left to right.

    Interned: structurally equal trees are one object.  ``dim`` is the
    height, computed from the children when the tree is first built.
    ``_op`` memoises :func:`op_tree` per dimension set, ``_boundary``
    :func:`boundary_tree` per dimension and ``_names``
    :func:`sorted_positions`.  The ``_op`` and ``_boundary`` dicts come
    with the tree, so the hot lookups in them take no helper call, and
    their entries are strong: a tree stays in the position caches for the
    life of the process anyway, so a memo cycle between a tree and its
    opposite or its boundary (the tree itself at or above its dimension)
    costs nothing.
    """

    __slots__ = ("children", "dim", "_op", "_boundary", "_names")
    __match_args__ = ("children",)
    children: tuple["BataninTree", ...]
    dim: int

    def __new__(cls, children: tuple["BataninTree", ...] = ()) -> "BataninTree":
        children = tuple(children)
        tree = cls._live(children)
        if tree is None:
            dim = 1 + max([c.dim for c in children]) if children else 0
            tree = cls._cons(children, (children, dim, {}, {}, None))[0]
        return tree

    def __repr__(self) -> str:
        return "br[" + ", ".join(repr(c) for c in self.children) + "]"


def br(*children: BataninTree) -> BataninTree:
    return BataninTree(tuple(children))


def tree_to_list(t: BataninTree) -> list:
    return [tree_to_list(c) for c in t.children]


def tree_from_list(data: Sequence) -> BataninTree:
    return BataninTree(tuple(tree_from_list(c) for c in data))


def dim_tree(t: BataninTree) -> int:
    """Height of the tree = dimension of the pasting scheme."""
    return t.dim


def disk_tree(n: int) -> BataninTree:
    """The linear tree of height n (the n-disk pasting scheme)."""
    if n < 0:
        raise ValueError(f"disk_tree: negative dimension {n}")
    t = br()
    for _ in range(n):
        t = br(t)
    return t


def boundary_tree(k: int, t: BataninTree) -> BataninTree:
    """Truncate to height <= k (the k-boundary of the scheme).  Memoised
    on ``t`` per ``k``."""
    if k < 0:
        raise ValueError(f"boundary_tree: negative dimension {k}")
    out = t._boundary.get(k)
    if out is None:
        out = br() if k == 0 else BataninTree(tuple([boundary_tree(k - 1, c) for c in t.children]))
        t._boundary[k] = out
    return out


def suspend_tree(t: BataninTree) -> BataninTree:
    return br(t)


# The largest n and m of a composite: a mistyped number is an error, not a
# disk that high.  Above about 350, templates still exceed the recursion limit.
MAX_COMP_DIM = 1000


def comp_tree(n: int, k: int, m: int) -> BataninTree:
    """The scheme for composing an n-cell with an m-cell along a k-cell.

    Requires 0 <= k < min(n, m) and max(n, m) <= MAX_COMP_DIM.  For k = 0
    this is two branches, the disks of heights n-1 and m-1 side by side;
    higher k wraps that in k more unary levels.
    """
    if not (0 <= k < min(n, m) and max(n, m) <= MAX_COMP_DIM):
        raise ValueError(
            f"comp_tree: need 0 <= k < min(n, m) and max(n, m) <= {MAX_COMP_DIM}, got ({n}, {k}, {m})"
        )
    if k == 0:
        return br(disk_tree(n - 1), disk_tree(m - 1))
    return br(comp_tree(n - 1, k - 1, m - 1))


@lru_cache(maxsize=None)
def positions(t: BataninTree) -> BipointedGlobularSet:
    """The globular set of positions (sectors) of ``t``.

    Bipointed by the leftmost and rightmost root sectors.  Source and
    target of a sector one dimension up are the two root sectors it sits
    between, pushed through the child's own position set.  Branch by
    branch in index order, every level comes out in canonical order.
    """
    n = len(t.children)
    sectors = [str(i) for i in range(n + 1)]
    levels: list[list[list]] = [[sectors, [], []]]
    for i, child in enumerate(t.children, start=1):
        shifted = shift_levels(positions(child).carrier, f"{i}.", sectors[i - 1], sectors[i])
        for d, parts in enumerate(shifted, start=1):
            if len(levels) == d:
                levels.append([[], [], []])
            for whole, part in zip(levels[d], parts):
                whole += part
    cells, srcs, tgts = (tuple(map(tuple, side)) for side in zip(*levels))
    return BipointedGlobularSet(FiniteGlobularSet(cells, srcs, tgts), (sectors[0], sectors[n]))


def pos_dim(p: str) -> int:
    """Dimension of a canonical position name = number of dots."""
    return p.count(".")


@lru_cache(maxsize=None)
def src_inclusion(k: int, t: BataninTree) -> Mapping[str, str]:
    """Positions of ``boundary_tree(k, t)`` -> positions of ``t``, source side.

    Picks the leftmost root sector at the pruned depth; the identity
    everywhere below.  Returned as a plain name map.
    """
    return _inclusion(k, t, src_inclusion, "0")


@lru_cache(maxsize=None)
def tgt_inclusion(k: int, t: BataninTree) -> Mapping[str, str]:
    """Positions of ``boundary_tree(k, t)`` -> positions of ``t``, target side."""
    return _inclusion(k, t, tgt_inclusion, str(len(t.children)))


def _inclusion(k: int, t: BataninTree, side, end: str) -> dict[str, str]:
    """The two boundary inclusions differ only at ``k = 0``, where the point
    goes to the root sector ``end``; above it each branch recurses on its
    ``side``."""
    if k < 0:
        raise ValueError(f"{side.__name__}: negative dimension {k}")
    if k == 0:
        return {"0": end}
    out: dict[str, str] = {str(j): str(j) for j in range(len(t.children) + 1)}
    for i, child in enumerate(t.children, start=1):
        for p, q in side(k - 1, child).items():
            out[f"{i}.{p}"] = f"{i}.{q}"
    return out


def op_tree(w: DimSet, t: BataninTree) -> BataninTree:
    """Reverse the scheme in the dimensions listed in ``w``.

    Reversing dimension 1 flips the order of the root's children; the
    set shifts down by one for the recursion into each child.
    """
    out = t._op.get(w)
    if out is None:
        down = dimset_down(w)
        kids = tuple(op_tree(down, c) for c in t.children)
        out = t._op[w] = BataninTree(kids[::-1] if 1 in w else kids)
    return out


@lru_cache(maxsize=None)
def op_positions_iso(w: DimSet, t: BataninTree) -> Mapping[str, str]:
    """Position rename ``positions(op_tree(w, t)) -> positions(t)``.

    When dimension 1 is reversed, root sector j of the opposite scheme
    is sector n - j of the original, and branch i is branch n + 1 - i;
    otherwise branches keep their index.  Recurses with the shifted set.
    """
    n = len(t.children)
    down = dimset_down(w)
    flip = 1 in w
    out: dict[str, str] = {str(j): str(n - j if flip else j) for j in range(n + 1)}
    for i in range(1, n + 1):
        k = n + 1 - i if flip else i
        for p, q in op_positions_iso(down, t.children[k - 1]).items():
            out[f"{i}.{p}"] = f"{k}.{q}"
    return out


@lru_cache(maxsize=None)
def op_sub_order(w: DimSet, t: BataninTree) -> tuple[tuple[str, int], ...]:
    """How a substitution over ``t`` reindexes to one over ``op_tree(w, t)``.

    Each position ``p`` of the opposite scheme, in canonical order, with
    the index in ``sorted_positions(t)`` of the position
    ``op_positions_iso(w, t)`` sends it to.  A substitution over ``t`` is
    stored in that order, so its opposite is a gather by these indices.
    """
    index = {q: i for i, q in enumerate(sorted_positions(t))}
    iso = op_positions_iso(w, t)
    return tuple([(p, index[iso[p]]) for p in sorted_positions(op_tree(w, t))])


def node_count(t: BataninTree) -> int:
    return 1 + sum(node_count(c) for c in t.children)


def trees_with_nodes(n: int) -> Iterator[BataninTree]:
    """All planar rooted trees with exactly n nodes, in a stable order."""
    if n <= 0:
        return
    if n == 1:
        yield br()
        return
    # Distribute the remaining n-1 nodes among an ordered forest.
    for forest in _forests_with_nodes(n - 1):
        yield BataninTree(forest)


def _forests_with_nodes(n: int) -> Iterator[tuple[BataninTree, ...]]:
    """All ordered forests with exactly n >= 1 nodes in total."""
    for first in range(1, n + 1):
        for head in trees_with_nodes(first):
            if first == n:
                yield (head,)
            else:
                for tail in _forests_with_nodes(n - first):
                    yield (head,) + tail


def all_trees(max_nodes: int) -> Iterator[BataninTree]:
    """All trees with 1..max_nodes nodes, smaller first."""
    for n in range(1, max_nodes + 1):
        yield from trees_with_nodes(n)


def sorted_positions(t: BataninTree) -> tuple[str, ...]:
    """All position names of ``t`` in canonical (natural-key) order: the
    key order of every substitution over ``t``.  Memoised on ``t``."""
    names = t._names
    if names is None:
        names = ["0"]
        for i, child in enumerate(t.children, start=1):
            names.append(str(i))
            names += [f"{i}.{p}" for p in sorted_positions(child)]
        names = tuple(names)
        remember(t, "_names", names)
    return names
