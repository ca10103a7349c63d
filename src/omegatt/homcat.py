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

The three traversals keep their memos on what they are about, as
:func:`omegatt.metaops.op_cell` does: ``hom_factor`` and ``hom_realize``
on the ambient computad, one pair of walks (:func:`omegatt.hashcons.walker`)
with their memos per basepoint pair, and ``op_homcell`` on each hom-cell
node per dimension set.  Each node is factored, played back or reversed
once for as long as its computad or node lives.  A failure is never
memoised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .computads import (
    CellTerm,
    Coh,
    boundary_at,
    cell_from_json,
    cell_key,
    cell_to_json,
    is_full,
    subterm,
    term_diff,
)
from .globular import DimSet, canonical_dimset, dimset_down
from .hashcons import HashConsed, cached, walker
from .metaops import (
    BipointedComputad,
    NotASuspension,
    desuspend_sphere,
    op_bipointed,
    op_cell,
    op_coh,
    suspend_coh,
    suspender,
    unsuspend_sub,
)
from .trees import tree_to_list


class HomGenerator(HashConsed):
    """An indecomposable loop cell, seen as a generator one dimension down.

    Memo slot: ``_op`` (:func:`op_homcell` per dimension set)."""

    __slots__ = ("underlying", "dim", "_op")
    __match_args__ = ("underlying",)
    underlying: CellTerm
    dim: int

    def __new__(cls, underlying: CellTerm) -> "HomGenerator":
        return cls.build(underlying)[0]

    @classmethod
    def build(cls, underlying: CellTerm) -> tuple["HomGenerator", bool]:
        """``(generator, created)``, as :meth:`Coh.build`."""
        return cls._cons(underlying, (underlying, underlying.dim - 1, None))

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


def _walks(c: BipointedComputad) -> tuple:
    """The factor and realize walks of ``c``, kept with their memos in the
    ``_hom`` slot of its computad per basepoint pair.  Neither walk refers
    to the computad, and cells never refer to computads, so these strong
    entries close no reference cycle; they die with the computad."""
    return cached(c.computad, "_hom", c.base, _fresh_walks, c.base)


def _fresh_walks(base: tuple[CellTerm, CellTerm]) -> tuple[tuple, bool]:
    memo: dict = {}
    suspend = suspender(memo)  # the suspended sphere cells share the memo

    def realize(h: HomCell, again) -> CellTerm:
        if isinstance(h, HomGenerator):
            return h.underlying
        return suspend_coh(h, base, again, suspend)

    return (walker(_hom_factor_node, {}), walker(realize, memo)), True


def hom_factor(c: BipointedComputad, cell: CellTerm) -> HomCell:
    """Rewrite a loop cell as a cell over the hom computad (the inverse of
    the structure bijection).  Each node of the DAG is factored once per
    computad and basepoint pair (see :func:`_walks`)."""
    return _walks(c)[0](cell, c)


def _hom_factor_node(cell: CellTerm, again, c: BipointedComputad) -> HomCell:
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
    sub = tuple([(p[2:], again(v, c)) for p, v in entries])
    return Coh(tree, sphere, sub)


def hom_realize(c: BipointedComputad, h: HomCell) -> CellTerm:
    """Play a hom cell back as a loop cell of the ambient computad: the
    suspension with the basepoints of ``c`` at the root sectors and the
    counit at the leaves.  Each node of the DAG is played back once per
    computad and basepoint pair (see :func:`_walks`).  The memo is not
    seeded by :func:`hom_factor`, so the round trip is computed both
    ways."""
    return _walks(c)[1](h)


def op_homcell(w: DimSet, h: HomCell) -> HomCell:
    """The opposite at hom level: ambient dimensions act on the wrapped
    cells, the shifted-down set acts on the hom-level structure.  The
    result is memoised on each hom-cell node per dimension set, held as
    :func:`omegatt.metaops.op_cell` holds its own.  Hom cells have
    ``HomGenerator`` leaves and cells have ``Var`` leaves, so the two
    never share a node's ``_op`` entry."""
    return _op_homcell(canonical_dimset(w), h)


def _op_homcell(w: DimSet, h: HomCell) -> HomCell:
    if isinstance(h, HomGenerator):
        return cached(h, "_op", w, lambda: HomGenerator.build(op_cell(w, h.underlying)))
    return cached(h, "_op", w, lambda: op_coh(dimset_down(w), h, _op_homcell, w))


def op_hom_transport(w: DimSet, c: BipointedComputad, cell: CellTerm) -> tuple[bool, str]:
    """Check that factoring commutes with opposites on one loop cell:
    hom_factor of the w-opposite against the (w-1)-opposite of hom_factor.
    Returns the verdict and a diff string when it fails."""
    if not is_loop_cell(c, cell):
        raise ValueError("transport check needs a loop cell")
    lhs = hom_factor(op_bipointed(w, c), op_cell(w, cell))
    rhs = op_homcell(w, hom_factor(c, cell))
    path = term_diff(lhs, rhs)
    if path is None:
        return True, ""
    where = "/".join(path) or "<root>"
    return False, (
        f"factor(op) and op(factor) differ at {where}: "
        f"{_text(subterm(lhs, path))} against {_text(subterm(rhs, path))}"
    )


def _text(h) -> str:
    """Short text for one side of a transport diff: :func:`cell_key` for a
    cell, the wrapped cell's key for a generator, and the scheme alone for
    a coherence of hom level, where a diff stops only on its scheme."""
    if isinstance(h, HomGenerator):
        return f"HomGenerator({cell_key(h.underlying)})"
    leaf = h
    while isinstance(leaf, Coh):
        leaf = leaf.sub[0][1]
    if isinstance(leaf, HomGenerator):
        return f"coh{tree_to_list(h.tree)}(...)"
    return cell_key(h)


# ---------------------------------------------------------------------------
# JSON


def homgen_to_json(h: HomGenerator) -> dict:
    """The JSON leaf of a hom cell (see :func:`cell_to_json`)."""
    return {"homgen": cell_to_json(h.underlying)}


def homgen_from_json(obj: Mapping, dim_of) -> HomGenerator:
    """Decode the JSON leaf of a hom cell (see :func:`cell_from_json`)."""
    return HomGenerator(cell_from_json(obj["homgen"], dim_of))
