"""The hom construction on free ω-categories.

Loop cells of a bipointed computad (cells whose 0-source and 0-target are
the basepoints) form an ω-category one dimension down which is again free,
on the computad of *indecomposable* loop cells.  That computad is usually
infinite, so it is never materialized: :class:`HomComputad` answers the
typechecker leaf by leaf, so one typechecker decides cells and hom cells.
``hom_factor`` rewrites a well-typed loop cell as a cell over it — a
``HomGenerator`` wrapping an indecomposable, or a coherence whose scheme
and sphere drop out of the suspension shape of the input — and
``hom_realize`` plays the factorization backwards.  The two are mutually
inverse on the nose.

A hom cell is a cell whose leaves are ``HomGenerator`` nodes instead of
``Var`` nodes.  So the coherence-level code is shared with plain cells and
only the leaf action differs: ``hom_realize`` is suspension
(:func:`omegatt.metaops.suspend_coh`) with the counit at the leaves,
``hom_factor`` is desuspension (:func:`omegatt.metaops.desuspend_coh`, the
step of :func:`omegatt.metaops.desuspend_cell` too) with each
indecomposable loop cell as a leaf, ``op_homcell`` is the coherence
opposite (:func:`omegatt.metaops.op_coh`) at the shifted-down dimension
set, and the JSON codec is :func:`omegatt.computads.cell_to_json` with the
leaf :func:`homgen_to_json`.  What is specific to homs stays here: loop
cells and indecomposability, decided by that one shape test: a loop
coherence decomposes exactly when ``desuspend_coh`` takes it, that is when
its scheme has a single branch, its substitution pins the two root sectors
to the basepoints, and its sphere is a suspension.

The traversals keep their memos on what they are about, as
:func:`omegatt.metaops.op_cell` does: ``hom_factor``, ``hom_realize`` and
the hom cells that passed over the hom computad on the ambient computad per
basepoint pair, and ``op_homcell`` on each hom-cell node per dimension set.
Each node is factored, played back, checked or reversed once for as long
as its computad or node lives.  A failure is never memoised.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping, Union

from .computads import (
    CellTerm,
    Coh,
    Sphere,
    boundary_at,
    cell_boundary,
    typecheck_cell,
)
from .globular import DimSet, canonical_dimset, dimset_down
from .hashcons import HashConsed, recall, store, walk
from .metaops import BipointedComputad, NotASuspension, desuspend_coh, op_cell, op_coh, suspend_coh


class HomGenerator(HashConsed):
    """An indecomposable loop cell, seen as a generator one dimension down.

    Memo slot: ``_op`` (:func:`op_homcell` per dimension set)."""

    __slots__ = ("underlying", "dim", "size", "_op")
    __match_args__ = ("underlying",)
    underlying: CellTerm
    dim: int
    size: int

    def __new__(cls, underlying: CellTerm) -> "HomGenerator":
        return cls.build(underlying)[0]

    @classmethod
    def build(cls, underlying: CellTerm) -> tuple["HomGenerator", bool]:
        """``(generator, created)``, as :meth:`Coh.build`."""
        return cls._cons(underlying, (underlying, underlying.dim - 1, underlying.size + 1, None))

    def __repr__(self) -> str:
        return f"HomGenerator({self.underlying!r})"


HomCell = Union[HomGenerator, Coh]


def is_loop_cell(c: BipointedComputad, cell: CellTerm) -> bool:
    """True iff the cell runs from the first basepoint to the second."""
    if cell.dim < 1:
        return False
    sphere = boundary_at(c.computad, cell, 0)
    return sphere.src == c.base_minus and sphere.tgt == c.base_plus


def is_indecomposable(c: BipointedComputad, cell: CellTerm) -> bool:
    """Whether a loop cell is a generator of the hom computad, that is,
    whether :func:`hom_factor` leaves it whole.  Like :func:`hom_factor`,
    it assumes a well-typed loop cell; a cell that is no loop cell raises
    ValueError."""
    if not is_loop_cell(c, cell):
        raise ValueError("indecomposability is about loop cells")
    return type(hom_factor(c, cell)) is HomGenerator


def _memos(c: BipointedComputad) -> tuple[dict, dict, set]:
    """The memos of the factor and realize walks of ``c`` and the hom cells
    that passed over its hom computad, per basepoint pair."""
    return recall(c.computad, "_hom", c.base) or store(c.computad, "_hom", c.base, ({}, {}, set()), True)


class HomComputad:
    """The hom computad of ``pointed``, as the typechecker reads it: no
    ``Var`` in ``table``, and :meth:`entry` for a ``HomGenerator``.  Made
    per use: kept on the computad, it would close a reference cycle."""

    __slots__ = ("pointed", "_passed")
    table: dict = {}

    def __init__(self, pointed: BipointedComputad) -> None:
        self.pointed, self._passed = pointed, _memos(pointed)[2]

    def entry(self, leaf) -> tuple[int, Sphere | None] | None:
        """``HomGenerator(u)`` for a well-typed indecomposable loop cell
        ``u``, attached along the factor of the boundary of ``u``."""
        if type(leaf) is not HomGenerator:
            return None
        c, u = self.pointed, leaf.underlying
        typecheck_cell(c.computad, u)
        if not is_loop_cell(c, u) or type(hom_factor(c, u)) is not HomGenerator:
            return None
        if leaf.dim == 0:
            return 0, None
        sphere = cell_boundary(c.computad, u)
        return leaf.dim, Sphere(hom_factor(c, sphere.src), hom_factor(c, sphere.tgt))


def hom_factor(c: BipointedComputad, cell: CellTerm) -> HomCell:
    """Rewrite a well-typed loop cell as a cell over the hom computad (the
    inverse of the structure bijection).  Each node of the DAG is factored
    once per computad and basepoint pair (see :func:`_memos`)."""
    memo = _memos(c)[0]
    return memo.get(cell) or walk(partial(_hom_factor_node, c), memo, cell)


def _hom_factor_node(c: BipointedComputad, cell: CellTerm):
    if not is_loop_cell(c, cell):
        raise ValueError("only loop cells factor through the hom computad")
    if type(cell) is not Coh:
        return HomGenerator(cell)
    try:
        # the sphere has a memo of its own: a sphere cell, over the pasting
        # computad of a suspended scheme, can be the very node of an ambient
        # loop cell, whose factor is not its desuspension
        return (yield from desuspend_coh(cell, c.base, {}))
    except NotASuspension:
        return HomGenerator(cell)


def hom_realize(c: BipointedComputad, h: HomCell) -> CellTerm:
    """Play a hom cell back as a loop cell of the ambient computad: the
    suspension with the basepoints of ``c`` at the root sectors and the
    counit at the leaves.  Each node of the DAG is played back once per
    computad and basepoint pair, with the suspended sphere cells.  The memo
    is not seeded by :func:`hom_factor`, so the round trip is computed both
    ways."""
    memo = _memos(c)[1]

    def realize(h: HomCell):
        if type(h) is HomGenerator:
            return h.underlying
        return suspend_coh(h, c.base, memo)

    return memo.get(h) or walk(realize, memo, h)


def op_homcell(w: DimSet, h: HomCell) -> HomCell:
    """The opposite at hom level: ambient dimensions act on the wrapped
    cells, the shifted-down set acts on the hom-level structure.  The
    result is memoised on each hom-cell node per dimension set, held as
    :func:`omegatt.metaops.op_cell` holds its own.  Hom cells have
    ``HomGenerator`` leaves and cells have ``Var`` leaves, so the two
    never share a node's ``_op`` entry."""
    w = canonical_dimset(w)
    return recall(h, "_op", w) or walk(partial(_op_hom_step, w), {}, h)


def _op_hom_step(w: DimSet, h: HomCell):
    if type(h) is HomGenerator:
        return store(h, "_op", w, *HomGenerator.build(op_cell(w, h.underlying)))
    return op_coh(dimset_down(w), h, w, False)


# ---------------------------------------------------------------------------
# JSON


def homgen_to_json(h: HomGenerator, inner: dict) -> dict:
    """The JSON leaf of a hom cell (see
    :func:`omegatt.computads.cell_to_json`), given the encoding ``inner``
    of the wrapped cell."""
    return {"homgen": inner}


def homgen_from_json(obj: Mapping, dim_of, decode) -> HomGenerator:
    """Decode the JSON leaf of a hom cell (see
    :func:`omegatt.computads.cell_from_json`), with ``decode`` for the
    wrapped cell."""
    return HomGenerator(decode(obj["homgen"]))
