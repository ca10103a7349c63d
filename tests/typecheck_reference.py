"""Typechecking and desuspension as plain recursions: the reference that
``omegatt.computads.typecheck_cell`` and ``omegatt.metaops.desuspend_cell``
are tested against.

Both pass the path down the recursion, one Python frame per level of the
term, and raise at the first failure with the path they carry.  The kernel
walks without paths and builds the path of a failure on its way up; the
two must agree on the first error, its code, path and message.  The
reference keeps a memo for one call only, so no result comes from the
memos that the kernel keeps on its computads.
"""

from __future__ import annotations

import shape_reference
from omegatt.computads import (
    Coh,
    Sphere,
    TypecheckError,
    Var,
    cell_boundary,
    is_full,
    parallel,
    pasting_computad,
)
from omegatt.globular import nat_key
from omegatt.metaops import BASE_MINUS, BASE_PLUS, NotASuspension
from omegatt.trees import pos_dim


def typecheck(c, cell, path=(), passed=None) -> None:
    passed = set() if passed is None else passed
    if isinstance(cell, Var):
        if not c.has_generator(cell.name):
            raise TypecheckError("UnknownGenerator", path, f"no generator named {cell.name!r}")
        d = c.dim_of(cell.name)
        if d != cell.dim:
            raise TypecheckError(
                "DimensionMismatch", path, f"generator {cell.name!r} has dimension {d}, used at {cell.dim}"
            )
        return
    if (c, cell) in passed:
        return
    if cell.tree.dim > cell.dim:
        raise TypecheckError(
            "DimensionMismatch", path + ("tree",), f"scheme of dimension {cell.tree.dim} in a {cell.dim}-cell"
        )
    pc = pasting_computad(cell.tree)
    typecheck(pc, cell.sphere.src, path + ("sphere", "src"), passed)
    typecheck(pc, cell.sphere.tgt, path + ("sphere", "tgt"), passed)
    if not parallel(pc, cell.sphere.src, cell.sphere.tgt):
        raise TypecheckError("NotParallel", path + ("sphere",), "coherence sphere cells are not parallel")
    if not is_full(cell.tree, cell.sphere):
        raise TypecheckError("NotFull", path + ("sphere",), "coherence sphere is not full over its scheme")
    pos = shape_reference.positions(cell.tree).carrier
    want = {p for _, p in pos.all_cells()}
    got = {k for k, _ in cell.sub}
    if want != got:
        missing, extra = sorted(want - got, key=nat_key), sorted(got - want, key=nat_key)
        raise TypecheckError(
            "BadSubstitution", path + ("sub",), f"positions mismatch: missing {missing}, extra {extra}"
        )
    if [k for k, _ in cell.sub] != sorted(want, key=nat_key):
        raise TypecheckError("BadSubstitution", path + ("sub",), "positions out of canonical order")
    for p, v in cell.sub:
        if v.dim != pos_dim(p):
            raise TypecheckError(
                "DimensionMismatch",
                path + ("sub", p),
                f"position {p} has dimension {pos_dim(p)}, assigned a {v.dim}-cell",
            )
        typecheck(c, v, path + ("sub", p), passed)
    bound = dict(cell.sub)
    for d in range(1, pos.ndim + 1):
        for (p, s), (_, t) in zip(pos.srcs[d], pos.tgts[d]):
            if cell_boundary(c, bound[p]) != Sphere(bound[s], bound[t]):
                raise TypecheckError(
                    "BadSubstitution",
                    path + ("sub", p),
                    f"assignment at {p} does not match the boundaries of its sector",
                )
    passed.add((c, cell))


def desuspend(cell, path=()):
    if isinstance(cell, Var):
        if cell.dim >= 1 and cell.name.startswith("1."):
            return Var(cell.name[2:], cell.dim - 1)
        reason = "a basepoint 0-cell" if cell.dim == 0 else f"generator {cell.name!r} is not shifted"
        raise NotASuspension(path, reason)
    if len(cell.tree.children) != 1:
        raise NotASuspension(path + ("tree",), f"scheme has {len(cell.tree.children)} branches, want 1")
    bound = dict(cell.sub)
    if bound.get(BASE_MINUS) != Var(BASE_MINUS, 0) or bound.get(BASE_PLUS) != Var(BASE_PLUS, 0):
        raise NotASuspension(path + ("sub",), "root sectors are not sent to the basepoints")
    sub = [(p[2:], desuspend(v, path + ("sub", p))) for p, v in cell.sub if p not in (BASE_MINUS, BASE_PLUS)]
    src = desuspend(cell.sphere.src, path + ("sphere", "src"))
    tgt = desuspend(cell.sphere.tgt, path + ("sphere", "tgt"))
    return Coh(cell.tree.children[0], Sphere(src, tgt), tuple(sub))
