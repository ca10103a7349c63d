"""Symbolic kernel for finite computads of weak omega-categories.

Pasting schemes as Batanin trees, cells with fullness typechecking, and
the suspension / opposite / hom meta-operations, all on the nose: every
construction lands in canonical names so equality of results is plain
equality of terms.
"""

from .computads import (
    Coh,
    Computad,
    Sphere,
    TypecheckError,
    Var,
    apply_morphism,
    boundary_at,
    cell_boundary,
    double_computad,
    identity_sub,
    is_full,
    is_well_typed,
    pasting_computad,
    substitution,
    support,
    typecheck_cell,
)
from .globular import dimset
from .homcat import HomGenerator, hom_factor, hom_realize, is_indecomposable
from .metaops import (
    BipointedComputad,
    NotASuspension,
    desuspend_cell,
    desuspend_computad,
    op_cell,
    op_computad,
    suspend_cell,
    suspend_computad,
)
from .oplib import BoundaryMismatch, comp_cell, compose, eh_computad, identity_cell
from .surface import SurfaceError, cell_text, document_text, load_document, parse
from .trees import (
    BataninTree,
    boundary_tree,
    br,
    comp_tree,
    dim_tree,
    disk_tree,
    op_positions_iso,
    op_tree,
    positions,
    src_inclusion,
    suspend_tree,
    tgt_inclusion,
)

__all__ = [
    "BataninTree",
    "BipointedComputad",
    "BoundaryMismatch",
    "Coh",
    "Computad",
    "HomGenerator",
    "NotASuspension",
    "Sphere",
    "SurfaceError",
    "TypecheckError",
    "Var",
    "apply_morphism",
    "boundary_at",
    "boundary_tree",
    "br",
    "cell_boundary",
    "cell_text",
    "comp_cell",
    "comp_tree",
    "compose",
    "desuspend_cell",
    "desuspend_computad",
    "dim_tree",
    "dimset",
    "disk_tree",
    "document_text",
    "double_computad",
    "eh_computad",
    "hom_factor",
    "hom_realize",
    "identity_cell",
    "identity_sub",
    "is_full",
    "is_indecomposable",
    "is_well_typed",
    "load_document",
    "op_cell",
    "op_computad",
    "op_positions_iso",
    "op_tree",
    "parse",
    "pasting_computad",
    "positions",
    "src_inclusion",
    "substitution",
    "support",
    "suspend_cell",
    "suspend_computad",
    "suspend_tree",
    "tgt_inclusion",
    "typecheck_cell",
]

__version__ = "0.1.0"
