"""Support and the double computad as memoised walks: the reference that
``omegatt.computads.support`` and ``omegatt.computads.double_computad``
are tested against.

``support`` folds the DAG through ``omegatt.hashcons.walk``, each node's
value a new frozenset, the union of its children's; ``double_computad``
names each cell once its boundary has names.  The kernel finds both with
a plain work-list closure; the two must agree on every result and on the
``KeyError`` for a generator the computad lacks.
"""

from __future__ import annotations

from extras import free_computad
from shape_reference import make

from omegatt.computads import Var, cell_boundary, cell_key
from omegatt.hashcons import walk


def support(c, cell) -> frozenset[str]:
    def step(cell):
        if type(cell) is not Var:
            return union([v for _, v in cell.sub], ())
        if cell.dim == 0:
            return frozenset({cell.name})
        sphere = c.sphere_of(cell.name)
        return union((sphere.src, sphere.tgt), (cell.name,))

    def union(kids, names):
        sets = []
        for kid in kids:
            sets.append((yield kid))
        return frozenset(names).union(*sets)

    return walk(step, {}, cell)


def double_computad(c, cells):
    denote, src, tgt = {}, {}, {}

    def step(cell):
        key = cell_key(cell)
        denote[key] = cell
        if cell.dim > 0:
            sphere = cell_boundary(c, cell)
            src[key] = yield sphere.src
            tgt[key] = yield sphere.tgt
        return key

    memo: dict = {}
    for cell in cells:
        walk(step, memo, cell)
    levels = [[] for _ in range(max([cell.dim + 1 for cell in denote.values()], default=0))]
    for key, cell in denote.items():
        levels[cell.dim].append(key)
    return free_computad(make(levels, src, tgt)), denote
