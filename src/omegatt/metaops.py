"""Suspension and opposites of computads, cells and spheres.

Both families of operations are defined so that the algebraic laws hold as
plain term equalities:

* suspension renames every generator ``v`` to ``1.v`` one dimension up and
  adds basepoint 0-generators "0" and "1", mirroring the naming of suspended
  globular sets, so suspending a free computad *is* the free computad of the
  suspended globular set, and suspending a composition template gives the
  shifted template verbatim;
* the opposite keeps generator names and reworks coherence cells through
  the canonical position bijection of the opposite scheme, which makes the
  symmetric-difference action laws exact.

Desuspension inverts suspension on its image and reports the first
obstruction path when a term is not a suspension.

The coherence case of each operation is written once (:func:`op_coh`,
:func:`suspend_coh`, :func:`desuspend_coh`), as a step of a walk that
yields the cells of the substitution and leaves the leaves to the walk.
Here the leaves are ``Var`` nodes; :mod:`omegatt.homcat` runs the same
steps with ``HomGenerator`` leaves, so its ``hom_realize`` is suspension
and its ``hom_factor`` desuspension, the two sides of Σ ⊣ Hom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping

from .computads import (
    CellTerm,
    Coh,
    Computad,
    Sphere,
    Var,
    keep_pair,
    map_vars,
    prefixed,
)
from .globular import DimSet, canonical_dimset
from .hashcons import recall, store, walk
from .trees import BataninTree, op_positions_iso, op_sub_order, op_tree, sorted_positions, suspend_tree

BASE_MINUS = "0"
BASE_PLUS = "1"
_BASEPOINTS = (Var(BASE_MINUS, 0), Var(BASE_PLUS, 0))


@dataclass(frozen=True)
class BipointedComputad:
    """A computad with two chosen 0-cells."""

    computad: Computad
    base: tuple[CellTerm, CellTerm]

    def __post_init__(self) -> None:
        for b in self.base:
            if b.dim != 0:
                raise ValueError("basepoints must be 0-cells")

    @property
    def base_minus(self) -> CellTerm:
        return self.base[0]

    @property
    def base_plus(self) -> CellTerm:
        return self.base[1]


# ---------------------------------------------------------------------------
# suspension


def suspend_cell(cell: CellTerm) -> CellTerm:
    """Suspend a cell: generators shift to their ``1.``-names one dimension
    up; coherence substitutions additionally send the two fresh root sectors
    to the basepoints.  Each node of the DAG is suspended once per call."""
    return walk(_suspend, {}, cell)


def _suspend(cell: CellTerm):
    if type(cell) is Var:
        return Var(f"1.{cell.name}", cell.dim + 1)
    return suspend_coh(cell, _BASEPOINTS, None)


def suspend_coh(cell: Coh, base: tuple[CellTerm, CellTerm], memo: dict | None):
    """The coherence case of suspension: the scheme and the sphere go one
    dimension up, the two fresh root sectors go to ``base`` and the
    suspended values of the old positions, in their order, to the positions
    above them.  The sphere cells are yielded too when ``memo`` is None,
    else suspended through ``memo`` for a walk whose leaves are of another
    kind."""
    values = list(base)
    for _, v in cell.sub:
        values.append((yield v))
    if memo is None:
        src = yield cell.sphere.src
        tgt = yield cell.sphere.tgt
    else:
        src, tgt = walk(_suspend, memo, cell.sphere.src), walk(_suspend, memo, cell.sphere.tgt)
    tree = suspend_tree(cell.tree)
    return Coh(tree, Sphere(src, tgt), tuple(zip(sorted_positions(tree), values)))


def suspend_sphere(sphere: Sphere) -> Sphere:
    memo: dict = {}
    return Sphere(walk(_suspend, memo, sphere.src), walk(_suspend, memo, sphere.tgt))


def suspend_computad(c: Computad) -> BipointedComputad:
    """Suspend a computad: two fresh basepoint 0-generators plus the shifted
    generators with suspended attaching spheres.  The suspended computad is
    memoised on ``c`` (under the key None), held as :func:`op_computad`
    holds its results."""
    return BipointedComputad(recall(c, "_susp", None) or store(c, "_susp", None, *_suspended(c)), _BASEPOINTS)


def _suspended(c: Computad) -> tuple[Computad, bool]:
    table: dict[str, tuple[int, Sphere | None]] = {BASE_MINUS: (0, None), BASE_PLUS: (0, None)}
    for d, level in enumerate(c.generators):
        for v in level:
            table[f"1.{v}"] = (d + 1, suspend_sphere(c.sphere_of(v)) if d else Sphere(*_BASEPOINTS))
    return Computad.build(table)


# ---------------------------------------------------------------------------
# desuspension


@dataclass(unsafe_hash=True)
class NotASuspension(Exception):
    """A term is outside the image of suspension; path points at the first
    obstruction."""

    path: tuple[str, ...]
    message: str

    def __str__(self) -> str:
        where = "/".join(self.path) or "<root>"
        return f"not a suspension at {where}: {self.message}"


def desuspend_cell(cell: CellTerm, path: tuple[str, ...] = ()) -> CellTerm:
    """Invert :func:`suspend_cell` on its image; raises NotASuspension off it.
    Each node of the DAG is desuspended once per call."""
    try:
        return walk(_desuspend, {}, cell)
    except NotASuspension as err:
        raise prefixed(err, path)


def _desuspend(cell: CellTerm):
    if type(cell) is Var:
        if cell.dim >= 1 and cell.name.startswith("1."):
            return Var(cell.name[2:], cell.dim - 1)
        reason = "a basepoint 0-cell" if cell.dim == 0 else f"generator {cell.name!r} is not shifted"
        raise NotASuspension((), reason)
    return desuspend_coh(cell, _BASEPOINTS, None)


def desuspend_coh(cell: Coh, base: tuple[CellTerm, CellTerm], memo: dict | None):
    """The coherence case of desuspension, the inverse of
    :func:`suspend_coh`.  The scheme must have one branch and the
    substitution must send the two root sectors, bound first, to ``base``;
    the step yields the values of the positions above them, in their order.
    The sphere cells are yielded too when ``memo`` is None, else desuspended
    through ``memo``, which must not be the memo of a walk whose values are
    of another kind.  Raises NotASuspension at the first obstruction."""
    if len(cell.tree.children) != 1:
        raise NotASuspension(("tree",), f"scheme has {len(cell.tree.children)} branches, want 1")
    if len(cell.sub) < 2 or cell.sub[0][1] != base[0] or cell.sub[1][1] != base[1]:
        raise NotASuspension(("sub",), "root sectors are not sent to the basepoints")
    values, at = [], ()  # at: the step to the child being desuspended
    try:
        for p, v in cell.sub[2:]:
            at = ("sub", p)
            values.append((yield v))
        at = ("sphere", "src")
        src = (yield cell.sphere.src) if memo is None else walk(_desuspend, memo, cell.sphere.src)
        at = ("sphere", "tgt")
        tgt = (yield cell.sphere.tgt) if memo is None else walk(_desuspend, memo, cell.sphere.tgt)
    except NotASuspension as err:
        raise prefixed(err, at)
    tree = cell.tree.children[0]
    return Coh(tree, Sphere(src, tgt), tuple(zip(sorted_positions(tree), values)))


def desuspend_sphere(sphere: Sphere, path: tuple[str, ...] = ()) -> Sphere:
    return Sphere(desuspend_cell(sphere.src, path + ("src",)), desuspend_cell(sphere.tgt, path + ("tgt",)))


def desuspend_computad(c: Computad) -> Computad:
    """Invert :func:`suspend_computad`; raises NotASuspension off its image.
    The result is memoised on ``c`` as :func:`suspend_computad` memoises
    its own; a failure is not, so it is raised again on every call."""
    return recall(c, "_desusp", None) or store(c, "_desusp", None, *_desuspended(c))


def _desuspended(c: Computad) -> tuple[Computad, bool]:
    if c.generators_at(0) != (BASE_MINUS, BASE_PLUS):
        raise NotASuspension((), "0-generators are not exactly the two basepoints")
    table: dict[str, tuple[int, Sphere | None]] = {}
    for v, sphere in c.attach:
        if not v.startswith("1."):
            raise NotASuspension((v,), "generator is not shifted")
        if sphere.dim:
            table[v[2:]] = (sphere.dim, desuspend_sphere(sphere, (v,)))
        elif sphere == Sphere(*_BASEPOINTS):
            table[v[2:]] = (0, None)
        else:
            raise NotASuspension((v,), "1-generator not attached to the basepoints")
    return Computad.build(table)


# ---------------------------------------------------------------------------
# opposites


def rename_cell(rename: Mapping[str, str], cell: CellTerm) -> CellTerm:
    """Rename the ambient generators a cell refers to (coherence spheres are
    untouched: their variables are scheme positions, not ambient names)."""
    return map_vars(_renaming(rename), cell)


def _renaming(rename: Mapping[str, str]):
    """The leaf map of a renaming of generators."""
    return lambda v: Var(rename.get(v.name, v.name), v.dim)


def op_cell(w: DimSet, cell: CellTerm) -> CellTerm:
    """The image of a cell under op_w : cells of C -> cells of op_w(C).
    Generators are preserved; a coherence goes through :func:`op_coh`.
    The result is memoised on the coherence node, per dimension set."""
    if type(cell) is Var:
        return cell
    return recall(cell, "_op", w) or walk(partial(_op_step, w), {}, cell)


def _op_step(w: DimSet, cell: CellTerm):
    if type(cell) is Var:
        return cell
    return recall(cell, "_op", w) or op_coh(w, cell, w, True)


def op_coh(w: DimSet, cell: Coh, key, walk_sphere: bool):
    """The coherence case of the opposite at ``w``: the coherence moves to
    the opposite scheme, and its substitution precomposes with the
    canonical position bijection, in the order
    :func:`omegatt.trees.op_sub_order` computes once per dimension set and
    scheme (every substitution is stored in canonical order).  It yields
    each bound cell that is not a ``Var`` (a generator is its own opposite)
    and has no opposite under ``key`` yet.  The opposite sphere is
    memoised on the sphere per dimension set and scheme; on a miss its
    cells are yielded too when ``walk_sphere``, else reversed by
    :func:`op_cell`.  The result is kept under ``key`` in ``_op``."""
    sub = cell.sub
    out = []
    for p, i in op_sub_order(w, cell.tree):
        pair = sub[i]
        if type(pair[1]) is not Var:
            pair = keep_pair(pair, p, recall(pair[1], "_op", key) or (yield pair[1]))
        elif pair[0] != p:
            pair = (p, pair[1])
        out.append(pair)
    sphere_key = (canonical_dimset(w), cell.tree)
    sphere = recall(cell.sphere, "_op", sphere_key)
    if sphere is None:
        src, tgt = cell.sphere.src, cell.sphere.tgt
        if walk_sphere:
            src = yield src
            tgt = yield tgt
        else:
            src, tgt = op_cell(w, src), op_cell(w, tgt)
        sphere = store(cell.sphere, "_op", sphere_key, *_op_sphere(w, cell.tree, cell.sphere, src, tgt))
    return store(cell, "_op", key, *Coh.build(op_tree(w, cell.tree), sphere, tuple(out)))


def _op_sphere(w: DimSet, tree: BataninTree, sphere: Sphere, src, tgt) -> tuple[Sphere, bool]:
    """:func:`op_sphere`, given the opposites of the sphere's cells, renamed
    through the inverse of the canonical position bijection, which is the
    opposite scheme's own, so that it lives over ``op_tree(w, tree)``."""
    if sphere.dim + 1 in w:
        src, tgt = tgt, src
    leaf, renamed = _renaming(op_positions_iso(w, op_tree(w, tree))), {}
    return Sphere.build(map_vars(leaf, src, renamed), map_vars(leaf, tgt, renamed))


def op_sphere(w: DimSet, sphere: Sphere) -> Sphere:
    """Boundary data for a (dim+1)-cell: the two cells swap exactly when
    that dimension is reversed."""
    src, tgt = op_cell(w, sphere.src), op_cell(w, sphere.tgt)
    return Sphere(tgt, src) if sphere.dim + 1 in w else Sphere(src, tgt)


def op_computad(w: DimSet, c: Computad) -> Computad:
    """The w-opposite of a computad: the same generators, each attaching
    sphere replaced by its opposite.  Memoised on ``c`` per dimension set
    like :func:`op_cell`: strongly only when this call built the result, so
    ``c`` and its opposite never hold each other strongly.  A new result
    is checked through :meth:`Computad.build`.  The inverse entry is never
    seeded: ``op_computad(w, op_computad(w, c)) is c`` holds because the
    opposite of the opposite is built again and is ``c``, interned."""
    key = canonical_dimset(w)
    return recall(c, "_op", key) or store(c, "_op", key, *Computad.build(
        {v: (d, op_sphere(w, s) if d else None) for v, (d, s) in c.table.items()}
    ))


def op_bipointed(w: DimSet, c: BipointedComputad) -> BipointedComputad:
    base = (c.base_plus, c.base_minus) if 1 in w else c.base
    return BipointedComputad(op_computad(w, c.computad), base)
