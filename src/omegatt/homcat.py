"""The hom construction on free ω-categories.

Loop cells of a bipointed computad (cells whose 0-source and 0-target are
the basepoints) form an ω-category one dimension down which is again free,
on the computad of *indecomposable* loop cells.  That computad is usually
infinite, so it is never materialized: ``hom_factor`` rewrites a loop cell
as a cell over it lazily — a ``HomGenerator`` wrapping an indecomposable,
or a coherence whose scheme and sphere drop out of the suspension shape of
the input — and ``hom_realize`` plays the factorization backwards.  The two
are mutually inverse on the nose.

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
    Sphere,
    boundary_at,
    cell_from_json,
    cell_to_json,
    is_full,
    sub_map,
    substitution,
)
from .globular import DimSet, dimset_down
from .hashcons import HashConsed
from .metaops import (
    BASE_MINUS,
    BASE_PLUS,
    BipointedComputad,
    NotASuspension,
    desuspend_sphere,
    op_bipointed,
    op_cell,
    op_sphere,
    rename_cell,
    suspend_sphere,
)
from .trees import (
    op_positions_iso,
    op_tree,
    pos_dim,
    sorted_positions,
    suspend_tree,
    tree_from_list,
    tree_to_list,
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


@dataclass(frozen=True)
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


def _decomposition_shape(c: BipointedComputad, cell: CellTerm) -> bool:
    """The suspension shape: single branch, root sectors at the basepoints,
    suspended sphere."""
    if not isinstance(cell, Coh):
        return False
    if len(cell.tree.children) != 1:
        return False
    bound = sub_map(cell.sub)
    if bound.get(BASE_MINUS) != c.base_minus or bound.get(BASE_PLUS) != c.base_plus:
        return False
    try:
        desuspend_sphere(cell.sphere)
    except NotASuspension:
        return False
    return True


def is_indecomposable(c: BipointedComputad, cell: CellTerm) -> bool:
    if not is_loop_cell(c, cell):
        raise ValueError("indecomposability is about loop cells")
    return not _decomposition_shape(c, cell)


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
    if not _decomposition_shape(c, cell):
        return HomGenerator(cell)
    assert isinstance(cell, Coh)
    tree = cell.tree.children[0]
    sphere = desuspend_sphere(cell.sphere)
    if not is_full(tree, sphere):
        raise HomFactorError(
            ("sphere",), "desuspended sphere is not full over the desuspended scheme"
        )
    sub: dict[str, HomCell] = {}
    for p, v in cell.sub:
        if p in (BASE_MINUS, BASE_PLUS):
            continue
        sub[p[2:]] = _hom_factor(c, v, memo)
    return Coh(tree, sphere, substitution(sub))


def hom_realize(c: BipointedComputad, h: HomCell) -> CellTerm:
    """Play a hom cell back as a loop cell of the ambient computad.  Each
    node of the DAG is played back once per call."""
    return _hom_realize(c, h, {})


def _hom_realize(c: BipointedComputad, h: HomCell, memo: dict) -> CellTerm:
    out = memo.get(h)
    if out is None:
        if isinstance(h, HomGenerator):
            out = h.underlying
        else:
            sub: dict[str, CellTerm] = {BASE_MINUS: c.base_minus, BASE_PLUS: c.base_plus}
            for p, v in h.sub:
                sub[f"1.{p}"] = _hom_realize(c, v, memo)
            out = Coh(suspend_tree(h.tree), suspend_sphere(h.sphere), substitution(sub))
        memo[h] = out
    return out


def op_homcell(w: DimSet, h: HomCell) -> HomCell:
    """The opposite at hom level: ambient dimensions act on the wrapped
    cells, the shifted-down set acts on the hom-level structure."""
    down = dimset_down(w)
    if isinstance(h, HomGenerator):
        return HomGenerator(op_cell(w, h.underlying))
    iso = op_positions_iso(down, h.tree)
    inv = {q: p for p, q in iso.items()}
    sphere = op_sphere(down, h.sphere)
    sphere = Sphere(rename_cell(inv, sphere.src), rename_cell(inv, sphere.tgt))
    bound = dict(h.sub)
    tree = op_tree(down, h.tree)
    sub = tuple([(p, op_homcell(w, bound[iso[p]])) for p in sorted_positions(tree)])
    return Coh(tree, sphere, sub)


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


def homcell_to_json(h: HomCell) -> dict:
    if isinstance(h, HomGenerator):
        return {"homgen": cell_to_json(h.underlying)}
    return {
        "coh": {
            "tree": tree_to_list(h.tree),
            "sphere": {
                "src": cell_to_json(h.sphere.src),
                "tgt": cell_to_json(h.sphere.tgt),
            },
            "sub": {p: homcell_to_json(v) for p, v in h.sub},
        }
    }


def homcell_from_json(obj: Mapping, dim_of) -> HomCell:
    if "homgen" in obj:
        return HomGenerator(cell_from_json(obj["homgen"], dim_of))
    body = obj["coh"]
    tree = tree_from_list(body["tree"])
    sphere = Sphere(
        cell_from_json(body["sphere"]["src"], pos_dim),
        cell_from_json(body["sphere"]["tgt"], pos_dim),
    )
    sub = substitution({p: homcell_from_json(v, dim_of) for p, v in body["sub"].items()})
    return Coh(tree, sphere, sub)
