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
One walk emits a tree's positions in that canonical order by construction,
or in that of an opposite of the tree, whose positions are the tree's own
read from the last at each reversed depth, so no position set is ever sorted.

A position's name fixes its dimension and the two positions it runs
between, so each name met is formatted once per process, with one record
(:data:`POSITIONS`), whatever trees it is in.  :func:`sorted_positions`
keeps a tree's tuple of those names on the tree, the opposite's renaming
reads the walk, and every other table (the positions and their sectors,
the boundary inclusions) is built from that tuple and the records.  Each
table is kept on the smallest tree that determines it (an inclusion on a
boundary of the tree), so it dies with that tree.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator, Mapping, Sequence
from weakref import ref

from .globular import DimSet, dimset_down
from .hashcons import HashConsed, gather, recall, remember, slot_memo, store, walk


class BataninTree(HashConsed):
    """A finite rooted planar tree; children ordered left to right.

    Interned: structurally equal trees are one object.  ``dim`` is the
    height and ``nodes`` the node count, computed from the children when
    the tree is first built.
    ``_op`` memoises :func:`op_tree` per dimension set, ``_boundary``
    :func:`boundary_tree` per dimension and ``_names``
    :func:`sorted_positions`; the other slots keep the shape tables that
    the tree determines (:func:`positions`, the inclusions, the opposite's
    renamings).  The ``_op`` and ``_boundary`` dicts come with the tree.
    An ``_op`` entry is strong only when the call built the opposite, and
    weak otherwise (:func:`omegatt.hashcons.store`), so a tree and its
    opposite (the tree itself, for a dimension set that reverses nothing
    in it) close no reference cycle, and a dropped tree is freed with its
    tables.  ``_boundary`` entries are smaller trees, held strongly, and
    there is none at or above the tree's dimension, where the boundary is
    the tree itself.
    """

    __slots__ = ("children", "dim", "nodes", "_op", "_boundary", "_names", "_levels", "_src", "_tgt", "_iso", "_order")
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
            tree = cls._cons(children, (children, dim, nodes, {}, {}, None, None, None, None, None, None))[0]
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
    """Truncate to height <= k (the k-boundary of the scheme): ``t`` itself
    when ``k >= t.dim``, otherwise memoised on ``t`` per ``k``, as is the
    boundary of each subtree it needs."""
    if k < 0:
        raise ValueError(f"boundary_tree: negative dimension {k}")
    if k >= t.dim:
        return t
    out = t._boundary.get(k)
    if out is None:
        todo = [(k, t)]  # (k, node) with k < node.dim, each above the children it waits for
        while todo:
            k, node = todo[-1]
            if k in node._boundary:
                todo.pop()
                continue
            wait = [(k - 1, c) for c in node.children if k - 1 < c.dim and k - 1 not in c._boundary] if k else ()
            if wait:
                todo += wait
                continue
            todo.pop()
            node._boundary[k] = BataninTree(tuple([c._boundary.get(k - 1, c) for c in node.children]) if k else ())
        out = t._boundary[k]
    return out


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


@slot_memo(BataninTree, "_levels", keyed=False)
def positions(t: BataninTree) -> tuple[tuple[Position, ...], ...]:
    """:func:`position_levels` frozen to tuples and memoised on ``t``.
    Only the laws read it: the kernel's builders call
    :func:`position_levels`, so a tree that they meet keeps no second copy
    of its levels."""
    return tuple(map(tuple, position_levels(t)))


def pos_dim(p: str) -> int:
    """Dimension of a canonical position name = number of dots."""
    return p.count(".")


def _src_home(k: int, t: BataninTree) -> BataninTree:
    """The tree that keeps ``src_inclusion(k, t)``: ``boundary_tree(k, t)``."""
    if k < 0:
        raise ValueError(f"src_inclusion: negative dimension {k}")
    return t if k >= t.dim else t._boundary.get(k) or boundary_tree(k, t)


def _tgt_home(k: int, t: BataninTree) -> BataninTree:
    """The tree that keeps ``tgt_inclusion(k, t)`` under ``k``:
    ``boundary_tree(k + 1, t)``, the whole of ``t`` that the table reads."""
    if k < 0:
        raise ValueError(f"tgt_inclusion: negative dimension {k}")
    return t if k >= t.dim - 1 else t._boundary.get(k + 1) or boundary_tree(k + 1, t)


@slot_memo(BataninTree, "_src", home=_src_home, keyed=False)
def src_inclusion(k: int, t: BataninTree) -> Mapping[str, str]:
    """Positions of ``boundary_tree(k, t)`` -> positions of ``t``, source side.

    Picks the leftmost root sector at the pruned depth, which has the same
    name in both: the identity on the boundary's positions, as a name map,
    one dict for every tree with that boundary, memoised on the boundary.
    """
    return {p: p for p in sorted_positions(t)}


@slot_memo(BataninTree, "_tgt", home=_tgt_home)
def tgt_inclusion(k: int, t: BataninTree) -> Mapping[str, str]:
    """Positions of ``boundary_tree(k, t)`` -> positions of ``t``, target side.

    The sector ``p.0`` of each node ``p`` at the pruned depth goes to the
    rightmost sector of that node in ``t``; the identity everywhere below.
    It reads ``t`` to depth k + 1, so it is the table of
    ``boundary_tree(k + 1, t)``, memoised there per ``k``.
    """
    last = {}  # the rightmost sector of each k-node, under the node's hi: a (k-1)-position, or None at the root
    for pos in map(POSITIONS.__getitem__, sorted_positions(t)):
        if pos.dim == k:
            last[pos.hi] = pos.name
    # below dimension k a position's hi is no key of last (of lower dimension, or None with k > 0): it stays
    return {p: last.get(POSITIONS[p].hi, p) for p in sorted_positions(boundary_tree(k, t))}


def op_tree(w: DimSet, t: BataninTree) -> BataninTree:
    """Reverse the scheme in the dimensions listed in ``w``.

    Reversing dimension 1 flips the order of the root's children; the
    set shifts down by one for each child.  Memoised on ``t`` per ``w``,
    as is the opposite of each subtree it needs.
    """
    out = t._op.get(w)  # recall(t, "_op", w), inline on the hot path
    if type(out) is ref:
        out = out()
    if out is None:
        todo = [(w, t)]  # nodes whose opposite is wanted, each above the children it waits for
        while todo:
            w, node = todo[-1]
            if recall(node, "_op", w) is not None:
                todo.pop()
                continue
            down = dimset_down(w)
            kids = [c._op.get(down) for c in node.children]
            kids = [kid() if type(kid) is ref else kid for kid in kids]  # recall(c, "_op", down), inline
            if None in kids:
                todo += [(down, c) for c, kid in zip(node.children, kids) if kid is None]
                continue
            todo.pop()
            kids = tuple(kids[::-1] if 1 in w else kids)
            old = BataninTree._live(kids)
            store(node, "_op", w, old or BataninTree(kids), old is None)
        out = recall(t, "_op", w)
    return out


@slot_memo(BataninTree, "_iso")
def op_positions_iso(w: DimSet, t: BataninTree) -> Mapping[str, str]:
    """Position rename ``positions(op_tree(w, t)) -> positions(t)``: the
    opposite's positions in canonical order, each sent to the one that
    :func:`_ordered` lists in its place.  When ``w`` reverses no dimension
    of ``t`` it is the identity, the one identity dict of ``t``."""
    if min(w, default=t.dim + 1) > t.dim:
        return src_inclusion(t.dim, t)
    return dict(zip(sorted_positions(op_tree(w, t)), _ordered(t, w)))


@slot_memo(BataninTree, "_order")
def op_sub_order(w: DimSet, t: BataninTree) -> tuple[tuple[str, int], ...]:
    """How a substitution over ``t`` reindexes to one over ``op_tree(w, t)``.

    Each position ``p`` of the opposite scheme, in canonical order, with
    the index in ``sorted_positions(t)`` of the position
    ``op_positions_iso(w, t)`` sends it to.  A substitution over ``t`` is
    stored in that order, so its opposite is a gather by these indices.
    """
    index = {p: i for i, p in enumerate(sorted_positions(t))}
    return tuple(zip(sorted_positions(op_tree(w, t)), map(index.__getitem__, _ordered(t, w))))


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
    """All position names of ``t`` in canonical (natural-key) order, the
    key order of every substitution over ``t``: :func:`_ordered` with no
    dimension reversed, memoised on ``t``."""
    if t._names is None:
        remember(t, "_names", tuple(_ordered(t, DimSet())))
    return t._names


def _ordered(t: BataninTree, w: DimSet) -> list[str]:
    """The names of the positions of ``t`` in the canonical order of
    ``op_tree(w, t)``, each the shared one of :data:`POSITIONS`: a node at
    depth d with d + 1 in ``w`` is read from the last, its sector n - j for
    the opposite's sector j and its branch n + 1 - i for branch i."""
    names, todo = [], [(t, None, None, 0)]  # a name, or a node with the two sectors above it and its depth
    while todo:
        item = todo.pop()
        if type(item) is str:
            names.append(item)
            continue
        node, lo, hi, d = item
        n, flip = len(node.children), d + 1 in w
        known = _ROOT_SECTORS if hi is None else POSITIONS[hi].sectors  # no call while every sector is named
        sectors = known if len(known) > n else _sectors(lo, hi, d, n + 1)
        names.append(sectors[n if flip else 0])
        for i in range(1, n + 1) if flip else range(n, 0, -1):  # popped in the opposite's order: sector i, branch i
            todo += [(node.children[i - 1], sectors[i - 1], sectors[i], d + 1), sectors[i - 1 if flip else i]]
    return names


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
