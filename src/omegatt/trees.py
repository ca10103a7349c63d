"""Batanin trees and their positions.

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

A position's name fixes its dimension and the two positions it runs
between, so each name met is formatted once per process, with one record
(:data:`POSITIONS`), whatever trees it is in.  :func:`sorted_positions`
keeps a tree's tuple of those names on the tree, and every other table
(the positions and their sectors, the boundary inclusions, the opposite's
renaming) is built from that tuple and the records.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from .globular import DimSet, dimset_down
from .hashcons import HashConsed, gather, remember, walk


class BataninTree(HashConsed):
    """A finite rooted planar tree; children ordered left to right.

    Interned: structurally equal trees are one object.  ``dim`` is the
    height and ``nodes`` the node count, computed from the children when
    the tree is first built.
    ``_op`` memoises :func:`op_tree` per dimension set, ``_boundary``
    :func:`boundary_tree` per dimension and ``_names``
    :func:`sorted_positions`.  The ``_op`` and ``_boundary`` dicts come
    with the tree, so the hot lookups in them take no helper call, and
    their entries are strong: a tree stays in the position caches for the
    life of the process anyway, so a memo cycle between a tree and its
    opposite or its boundary (the tree itself at or above its dimension)
    costs nothing.
    """

    __slots__ = ("children", "dim", "nodes", "_op", "_boundary", "_names")
    __match_args__ = ("children",)
    children: tuple["BataninTree", ...]
    dim: int
    nodes: int

    def __new__(cls, children: tuple["BataninTree", ...] = ()) -> "BataninTree":
        children = tuple(children)
        tree = cls._live(children)
        if tree is None:
            dim = 1 + max([c.dim for c in children]) if children else 0
            nodes = 1 + sum([c.nodes for c in children])
            tree = cls._cons(children, (children, dim, nodes, {}, {}, None))[0]
        return tree

    def __repr__(self) -> str:
        return "br[" + ", ".join(repr(c) for c in self.children) + "]"


def br(*children: BataninTree) -> BataninTree:
    return BataninTree(tuple(children))


def tree_to_list(t: BataninTree) -> list:
    return walk(lambda t: gather(t.children, list), None, t)


def tree_from_list(data: Sequence) -> BataninTree:
    return walk(_from_list, None, data)


def _from_list(data):
    if not isinstance(data, (list, tuple)):
        raise ValueError(f"a tree is a list of trees, not {data!r}")
    return gather(data, BataninTree)


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
    return t._boundary.get(k) or walk(_boundary_step, {}, (k, t))


def _boundary_step(key: tuple[int, BataninTree]):
    k, t = key
    return t._boundary.get(k) or gather(
        [(k - 1, c) for c in t.children] if k else [], lambda kids: t._boundary.setdefault(k, BataninTree(kids))
    )


def suspend_tree(t: BataninTree) -> BataninTree:
    """``br(t)``, one level deeper: no suspension nests deeper than a tree
    literal may (MAX_COMP_DIM, the literal of ``t`` being ``t.dim + 1`` deep)."""
    if t.dim + 2 > MAX_COMP_DIM:
        raise ValueError(f"cannot suspend a scheme of dimension {t.dim}: it would nest more than {MAX_COMP_DIM} deep")
    return br(t)


# The largest n and m of a composite and the deepest nesting of a literal:
# a mistyped number is an error, not a disk that high.
MAX_COMP_DIM = 1000


def comp_tree(n: int, k: int, m: int) -> BataninTree:
    """The scheme for composing an n-cell with an m-cell along a k-cell.

    Requires 0 <= k < min(n, m) and max(n, m) < MAX_COMP_DIM: the scheme
    has dimension max(n, m), so its literal nests one deeper, and no
    literal may nest deeper than MAX_COMP_DIM.  For k = 0 this is two
    branches, the disks of heights n-1 and m-1 side by side; higher k
    wraps that in k more unary levels.
    """
    if not (0 <= k < min(n, m) and max(n, m) <= MAX_COMP_DIM - 1):
        raise ValueError(
            f"comp_tree: need 0 <= k < min(n, m) and max(n, m) <= {MAX_COMP_DIM - 1}, got ({n}, {k}, {m})"
        )
    t = br(disk_tree(n - k - 1), disk_tree(m - k - 1))
    for _ in range(k):
        t = br(t)
    return t


def position_levels(t: BataninTree) -> list[list[Position]]:
    """The records of the positions of ``t``, level by level in canonical order."""
    levels: list[list[Position]] = [[] for _ in range(t.dim + 1)]
    for pos in map(POSITIONS.__getitem__, sorted_positions(t)):
        levels[pos.dim].append(pos)
    return levels


@lru_cache(maxsize=None)
def positions(t: BataninTree) -> tuple[tuple[Position, ...], ...]:
    """:func:`position_levels` frozen to tuples and cached.  Only the tree
    laws read it: the kernel's builders call :func:`position_levels`, so a
    tree that they meet keeps no second copy of its levels."""
    return tuple(map(tuple, position_levels(t)))


def pos_dim(p: str) -> int:
    """Dimension of a canonical position name = number of dots."""
    return p.count(".")


@lru_cache(maxsize=None)
def src_inclusion(k: int, t: BataninTree) -> Mapping[str, str]:
    """Positions of ``boundary_tree(k, t)`` -> positions of ``t``, source side.

    Picks the leftmost root sector at the pruned depth, which has the same
    name in both: the identity on the boundary's positions, as a name map,
    one dict for every tree with that boundary.
    """
    if k < 0:
        raise ValueError(f"src_inclusion: negative dimension {k}")
    return {p: p for p in sorted_positions(t)} if k >= t.dim else src_inclusion(k, boundary_tree(k, t))


@lru_cache(maxsize=None)
def tgt_inclusion(k: int, t: BataninTree) -> Mapping[str, str]:
    """Positions of ``boundary_tree(k, t)`` -> positions of ``t``, target side.

    The sector ``p.0`` of each node ``p`` at the pruned depth goes to the
    rightmost sector of that node in ``t``; the identity everywhere below.
    """
    if k < 0:
        raise ValueError(f"tgt_inclusion: negative dimension {k}")
    last = {pos.hi: pos.name for pos in position_levels(t)[k]} if k <= t.dim else {}  # rightmost sector per k-node
    return {p: last[POSITIONS[p].hi] if POSITIONS[p].dim == k else p for p in sorted_positions(boundary_tree(k, t))}


def op_tree(w: DimSet, t: BataninTree) -> BataninTree:
    """Reverse the scheme in the dimensions listed in ``w``.

    Reversing dimension 1 flips the order of the root's children; the
    set shifts down by one for each child.  Memoised on ``t`` per ``w``.
    """
    return t._op.get(w) or walk(_op_step, {}, (w, t))


def _op_step(key: tuple[DimSet, BataninTree]):
    w, t = key
    return t._op.get(w) or gather(
        [(dimset_down(w), c) for c in t.children],
        lambda kids: t._op.setdefault(w, BataninTree(kids[::-1] if 1 in w else kids)),
    )


def _op_index(w: DimSet, t: BataninTree) -> list[int]:
    """For each position of ``op_tree(w, t)``, in canonical order, the
    index in ``sorted_positions(t)`` of the position it renames to.

    At depth d, where ``w`` reverses dimension d + 1, sector j of a node
    with n branches is sector n - j of the original and branch i is branch
    n + 1 - i; otherwise indices stay.  In canonical order a node's sector
    i is followed by its branch i, which holds 2 * nodes - 1 positions.
    """
    index, todo = [], [(t, 0, 0)]  # an index, or a node of t with its depth and the index of its sector 0
    while todo:
        item = todo.pop()
        if type(item) is int:
            index.append(item)
            continue
        node, d, o = item
        sectors, branches = [o], []
        for c in node.children:
            o += 1
            sectors.append(o)
            branches.append((c, d + 1, o + 1))
            o += 2 * c.nodes - 1
        if d + 1 in w:
            sectors.reverse()
            branches.reverse()
        index.append(sectors[0])
        for i in range(len(branches), 0, -1):
            todo += [branches[i - 1], sectors[i]]
    return index


@lru_cache(maxsize=None)
def op_positions_iso(w: DimSet, t: BataninTree) -> Mapping[str, str]:
    """Position rename ``positions(op_tree(w, t)) -> positions(t)``.  When
    ``w`` reverses no dimension of ``t`` it is the identity, the one
    identity dict of ``t``."""
    if min(w, default=t.dim + 1) > t.dim:
        return src_inclusion(t.dim, t)
    names = sorted_positions(t)
    return dict(zip(sorted_positions(op_tree(w, t)), [names[i] for i in _op_index(w, t)]))


@lru_cache(maxsize=None)
def op_sub_order(w: DimSet, t: BataninTree) -> tuple[tuple[str, int], ...]:
    """How a substitution over ``t`` reindexes to one over ``op_tree(w, t)``.

    Each position ``p`` of the opposite scheme, in canonical order, with
    the index in ``sorted_positions(t)`` of the position
    ``op_positions_iso(w, t)`` sends it to.  A substitution over ``t`` is
    stored in that order, so its opposite is a gather by these indices.
    """
    return tuple(zip(sorted_positions(op_tree(w, t)), _op_index(w, t)))


def trees_with_nodes(n: int) -> Iterator[BataninTree]:
    """All planar rooted trees with exactly n nodes, in a stable order: a
    root over each ordered forest of the other n - 1 nodes."""
    forests: list[list[tuple]] = [[()]]  # the ordered forests of 0, 1, ... nodes
    for k in range(1, n):
        forests.append([
            (BataninTree(head),) + tail
            for first in range(1, k + 1) for head in forests[first - 1] for tail in forests[k - first]
        ])
    if n > 0:
        yield from map(BataninTree, forests[n - 1])


def all_trees(max_nodes: int) -> Iterator[BataninTree]:
    """All trees with 1..max_nodes nodes, smaller first."""
    for n in range(1, max_nodes + 1):
        yield from trees_with_nodes(n)


def sorted_positions(t: BataninTree) -> tuple[str, ...]:
    """All position names of ``t`` in canonical (natural-key) order: the
    key order of every substitution over ``t``: a node's sector ``i``
    comes right before its branch ``i``.  Memoised on ``t``; each name is
    the shared one of :data:`POSITIONS`."""
    if t._names is None:
        names, todo = [], [(t, None, None, 0)]  # a name, or a node with the two sectors above it and its depth
        while todo:
            item = todo.pop()
            if type(item) is str:
                names.append(item)
                continue
            node, lo, hi, d = item
            sectors = _sectors(lo, hi, d, len(node.children) + 1)
            names.append(sectors[0])
            for i in range(len(node.children), 0, -1):
                todo += [(node.children[i - 1], sectors[i - 1], sectors[i], d + 1), sectors[i]]
        remember(t, "_names", tuple(names))
    return t._names


# A position's record, all fixed by its name "i1.….id.j" (sector j at branches i1, ..., id): its dimension d,
# the (d-1)-positions lo = "i1.….i(d-1).(id-1)" and hi = "i1.….id" it runs between (both None at d = 0), and
# the names met so far of the sectors "name.0", ... of a node below it.
Position = namedtuple("Position", "name dim lo hi sectors")
POSITIONS: dict[str, Position] = {}  # each position name met -> its one record
_ROOT_SECTORS: list[str] = []  # the names met of the root sectors "0", "1", ...


def _sectors(lo: str | None, hi: str | None, d: int, n: int) -> list[str]:
    """The names, each with its record, of the first ``n`` (or more) sectors of a d-node from ``lo`` to ``hi``."""
    known = _ROOT_SECTORS if hi is None else POSITIONS[hi].sectors
    for j in range(len(known), n):
        x = f"{hi}.{j}" if d else str(j)
        POSITIONS[x] = Position(x, d, lo, hi, [])
        known.append(x)
    return known
