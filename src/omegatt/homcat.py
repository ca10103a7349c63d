"""The hom construction on free ω-categories.

Loop cells of a bipointed computad (cells whose 0-source and 0-target are
the basepoints) form an ω-category one dimension down which is again free,
on the computad of *indecomposable* loop cells.  That computad is usually
infinite, so it is never materialized: ``hom_factor`` rewrites a loop cell
as a cell over it lazily — a ``HomGenerator`` wrapping an indecomposable,
or a coherence whose scheme and sphere drop out of the suspension shape of
the input — and ``hom_realize`` plays the factorization backwards.  The two
are mutually inverse on the nose.

A hom cell is a cell whose leaves are ``HomGenerator`` nodes instead of
``Var`` nodes.  So the coherence-level code is shared with plain cells and
only the leaf action differs: ``hom_realize`` is suspension
(:func:`omegatt.metaops.suspend_coh`) with the counit at the leaves,
``op_homcell`` is the coherence opposite (:func:`omegatt.metaops.op_coh`)
at the shifted-down dimension set, ``hom_factor`` desuspends through
:func:`omegatt.metaops.unsuspend_sub`, and the JSON codec is
:func:`omegatt.computads.cell_to_json` with the leaf :func:`homgen_to_json`.
What is specific to homs stays here: loop cells, indecomposability and
fullness.

Indecomposability is decided syntactically: a loop coherence decomposes
exactly when its scheme has a single branch, its substitution pins the two
root sectors to the basepoints, and its sphere is a suspension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .computads import (
    CellTerm,
    Coh,
    boundary_at,
    cell_from_json,
    cell_to_json,
    is_full,
)
from .globular import DimSet, dimset_down
from .hashcons import HashConsed
from .metaops import (
    BipointedComputad,
    NotASuspension,
    desuspend_sphere,
    op_bipointed,
    op_cell,
    op_coh,
    suspend_coh,
    unsuspend_sub,
)


class HomGenerator(HashConsed):
    """An indecomposable loop cell, seen as a generator one dimension down."""

    __slots__ = ("underlying", "dim")
    __match_args__ = ("underlying",)
    underlying: CellTerm
    dim: int

    def __new__(cls, underlying: CellTerm) -> "HomGenerator":
        return cls._cons(underlying, (underlying, underlying.dim - 1))[0]

    def __repr__(self) -> str:
        return f"HomGenerator({self.underlying!r})"


HomCell = Union[HomGenerator, Coh]


@dataclass(unsafe_hash=True)
class HomFactorError(Exception):
    """Factorization failed on a structurally valid input (e.g. a sphere
    that desuspends cellwise but loses fullness, which the construction
    relies on never happening)."""

    path: tuple[str, ...]
    message: str

    def __str__(self) -> str:
        where = "/".join(self.path) or "<root>"
        return f"hom factorization failed at {where}: {self.message}"


def is_loop_cell(c: BipointedComputad, cell: CellTerm) -> bool:
    """True iff the cell runs from the first basepoint to the second."""
    if cell.dim < 1:
        return False
    sphere = boundary_at(c.computad, cell, 0)
    return sphere.src == c.base_minus and sphere.tgt == c.base_plus


def _unsuspended(c: BipointedComputad, cell: CellTerm):
    """A loop coherence in the suspension shape (single branch, root sectors
    at the basepoints, suspended sphere) as its bindings above the root
    sectors and its desuspended sphere; None for an indecomposable cell."""
    if not isinstance(cell, Coh):
        return None
    try:
        return unsuspend_sub(cell, c.base, ()), desuspend_sphere(cell.sphere)
    except NotASuspension:
        return None


def is_indecomposable(c: BipointedComputad, cell: CellTerm) -> bool:
    if not is_loop_cell(c, cell):
        raise ValueError("indecomposability is about loop cells")
    return _unsuspended(c, cell) is None


def hom_factor(c: BipointedComputad, cell: CellTerm) -> HomCell:
    """Rewrite a loop cell as a cell over the hom computad (the inverse of
    the structure bijection).  Each node of the DAG is factored once per
    call."""
    return _hom_factor(c, cell, {})


def _hom_factor(c: BipointedComputad, cell: CellTerm, memo: dict) -> HomCell:
    out = memo.get(cell)
    if out is None:
        out = memo[cell] = _hom_factor_node(c, cell, memo)
    return out


def _hom_factor_node(c: BipointedComputad, cell: CellTerm, memo: dict) -> HomCell:
    if not is_loop_cell(c, cell):
        raise ValueError("only loop cells factor through the hom computad")
    shape = _unsuspended(c, cell)
    if shape is None:
        return HomGenerator(cell)
    entries, sphere = shape
    tree = cell.tree.children[0]
    if not is_full(tree, sphere):
        raise HomFactorError(
            ("sphere",), "desuspended sphere is not full over the desuspended scheme"
        )
    # stripping the prefix keeps the canonical order (see suspend_coh)
    sub = tuple([(p[2:], _hom_factor(c, v, memo)) for p, v in entries])
    return Coh(tree, sphere, sub)


def hom_realize(c: BipointedComputad, h: HomCell) -> CellTerm:
    """Play a hom cell back as a loop cell of the ambient computad: the
    suspension with the basepoints of ``c`` at the root sectors and the
    counit at the leaves.  Each node of the DAG is played back once per
    call."""
    return _hom_realize(c, h, {})


def _hom_realize(c: BipointedComputad, h: HomCell, memo: dict) -> CellTerm:
    out = memo.get(h)
    if out is None:
        if isinstance(h, HomGenerator):
            out = h.underlying
        else:
            out = suspend_coh(h, c.base, lambda v: _hom_realize(c, v, memo), memo)
        memo[h] = out
    return out


def op_homcell(w: DimSet, h: HomCell) -> HomCell:
    """The opposite at hom level: ambient dimensions act on the wrapped
    cells, the shifted-down set acts on the hom-level structure.  Each node
    of the DAG is visited once per call."""
    down, memo = dimset_down(w), {}

    def go(h: HomCell) -> HomCell:
        out = memo.get(h)
        if out is None:
            if isinstance(h, HomGenerator):
                out = HomGenerator(op_cell(w, h.underlying))
            else:
                out = op_coh(down, h, go)[0]
            memo[h] = out
        return out

    return go(h)


def op_hom_transport(w: DimSet, c: BipointedComputad, cell: CellTerm) -> tuple[bool, str]:
    """Check that factoring commutes with opposites on one loop cell:
    hom_factor of the w-opposite against the (w-1)-opposite of hom_factor.
    Returns the verdict and a diff string when it fails."""
    if not is_loop_cell(c, cell):
        raise ValueError("transport check needs a loop cell")
    lhs = hom_factor(op_bipointed(w, c), op_cell(w, cell))
    rhs = op_homcell(w, hom_factor(c, cell))
    if lhs == rhs:
        return True, ""
    return False, f"factor(op) = {lhs!r}\nop(factor) = {rhs!r}"


# ---------------------------------------------------------------------------
# JSON


def homgen_to_json(h: HomGenerator) -> dict:
    """The JSON leaf of a hom cell (see :func:`cell_to_json`)."""
    return {"homgen": cell_to_json(h.underlying)}


def homgen_from_json(obj: Mapping, dim_of) -> HomGenerator:
    """Decode the JSON leaf of a hom cell (see :func:`cell_from_json`)."""
    return HomGenerator(cell_from_json(obj["homgen"], dim_of))
