"""Opposites of cells and hom cells with no memo kept on any node: the
reference that ``omegatt.metaops.op_coh`` is tested against.

``op_coh`` here rebuilds everything on every call: the opposite of the
sphere, renamed through the inverse of the canonical position bijection,
and the substitution, looked up position by position through that
bijection in a dict of the source bindings.  The sphere's cells go through
this module's ``op_cell``, so no result comes from the memos that the
kernel keeps on its nodes; each traversal memoises for one call only.
"""

from __future__ import annotations

from omegatt.computads import Coh, Sphere, Var, keep_pair, map_vars
from omegatt.globular import dimset_down
from omegatt.homcat import HomGenerator
from omegatt.trees import op_positions_iso, op_tree, sorted_positions


def op_cell(w, cell):
    memo: dict = {}

    def go(cell):
        out = memo.get(cell)
        if out is None:
            out = memo[cell] = cell if isinstance(cell, Var) else op_coh(w, cell, go)
        return out

    return go(cell)


def op_homcell(w, h):
    down, memo = dimset_down(w), {}

    def go(h):
        out = memo.get(h)
        if out is None:
            if isinstance(h, HomGenerator):
                out = HomGenerator(op_cell(w, h.underlying))
            else:
                out = op_coh(down, h, go)
            memo[h] = out
        return out

    return go(h)


def op_coh(w, cell: Coh, value) -> Coh:
    iso = op_positions_iso(w, cell.tree)
    inverse = {q: p for p, q in iso.items()}
    renamed: dict = {}

    def leaf(v):
        return Var(inverse.get(v.name, v.name), v.dim)

    src, tgt = op_cell(w, cell.sphere.src), op_cell(w, cell.sphere.tgt)
    if cell.sphere.dim + 1 in w:
        src, tgt = tgt, src
    sphere = Sphere(map_vars(leaf, src, renamed), map_vars(leaf, tgt, renamed))
    bound = {pair[0]: pair for pair in cell.sub}
    tree = op_tree(w, cell.tree)
    sub = []
    for p in sorted_positions(tree):
        pair = bound[iso[p]]
        sub.append(keep_pair(pair, p, value(pair[1])))
    return Coh(tree, sphere, tuple(sub))
