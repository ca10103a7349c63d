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

The coherence case of each operation is written once, with the action on
the cells of the substitution passed in (:func:`op_coh`,
:func:`suspend_coh`, :func:`unsuspend_sub`): cells here have ``Var``
leaves, and the hom cells of :mod:`omegatt.homcat`, whose leaves are
``HomGenerator`` nodes, go through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .computads import (
    CellTerm,
    Coh,
    Computad,
    Sphere,
    Var,
    keep_pair,
    map_vars,
)
from .globular import DimSet, canonical_dimset
from .hashcons import cached, walker
from .trees import BataninTree, op_positions_iso, op_sub_order, op_tree, suspend_tree

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
    return suspender({})(cell)


def suspender(memo: dict) -> Callable[[CellTerm], CellTerm]:
    """Suspension of cells through ``memo``: one walk over the DAG that
    can be continued on further cells."""
    return walker(_suspend, memo)


def _suspend(cell: CellTerm, again) -> CellTerm:
    if isinstance(cell, Var):
        return Var(f"1.{cell.name}", cell.dim + 1)
    return suspend_coh(cell, _BASEPOINTS, again, again)


def suspend_coh(
    cell: Coh, base: tuple[CellTerm, CellTerm], value: Callable, suspend: Callable
) -> Coh:
    """The coherence case of suspension, with the leaf action passed in: the
    scheme and the sphere go one dimension up, the two fresh root sectors go
    to ``base`` and every other position ``p`` becomes ``1.p``, bound to
    ``value`` of its cell.  Under ``nat_key`` the basepoints come before
    every ``1.``-name and the prefix keeps the order of the rest, so the
    substitution comes out in canonical order with no sort.  The sphere
    lives over the scheme, so its cells go through ``suspend``, a
    :func:`suspender` that the calling traversal keeps; sphere cells have
    ``Var`` leaves, so they never collide with the keys of a caller whose
    leaves are of another kind."""
    sub = [(BASE_MINUS, base[0]), (BASE_PLUS, base[1])]
    sub += [(f"1.{p}", value(v)) for p, v in cell.sub]
    sphere = Sphere(suspend(cell.sphere.src), suspend(cell.sphere.tgt))
    return Coh(suspend_tree(cell.tree), sphere, tuple(sub))


def suspend_sphere(sphere: Sphere) -> Sphere:
    suspend = suspender({})
    return Sphere(suspend(sphere.src), suspend(sphere.tgt))


def suspend_computad(c: Computad) -> BipointedComputad:
    """Suspend a computad: two fresh basepoint 0-generators plus the shifted
    generators with suspended attaching spheres.  The suspended computad is
    memoised on ``c`` (under the key None), held as :func:`op_computad`
    holds its results."""
    return BipointedComputad(cached(c, "_susp", None, _suspended, c), _BASEPOINTS)


def _suspended(c: Computad) -> tuple[Computad, bool]:
    gens: list[list[str]] = [[BASE_MINUS, BASE_PLUS]]
    attach: dict[str, Sphere] = {}
    for d in range(c.bound + 1):
        gens.append([f"1.{v}" for v in c.generators_at(d)])
        for v in c.generators_at(d):
            if d == 0:
                attach[f"1.{v}"] = Sphere(*_BASEPOINTS)
            else:
                attach[f"1.{v}"] = suspend_sphere(c.sphere_of(v))
    return Computad.build(gens, attach)


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
    return walker(_desuspend, {})(cell, path)


def _desuspend(cell: CellTerm, again, path: tuple[str, ...]) -> CellTerm:
    if isinstance(cell, Var):
        if cell.dim >= 1 and cell.name.startswith("1."):
            return Var(cell.name[2:], cell.dim - 1)
        reason = "a basepoint 0-cell" if cell.dim == 0 else f"generator {cell.name!r} is not shifted"
        raise NotASuspension(path, reason)
    # stripping the prefix keeps the canonical order (see suspend_coh)
    entries = unsuspend_sub(cell, _BASEPOINTS, path)
    sub = tuple([(p[2:], again(v, path + ("sub", p))) for p, v in entries])
    sphere = _desuspend_sphere(cell.sphere, path + ("sphere",), again)
    return Coh(cell.tree.children[0], sphere, sub)


def unsuspend_sub(
    cell: Coh, base: tuple[CellTerm, CellTerm], path: tuple[str, ...]
) -> list[tuple[str, CellTerm]]:
    """The shape test of desuspension on a coherence: its scheme has one
    branch and its substitution sends the two root sectors to ``base``.
    Returns the other bindings, still under their ``1.``-names; raises
    NotASuspension at the first obstruction."""
    if len(cell.tree.children) != 1:
        raise NotASuspension(
            path + ("tree",), f"scheme has {len(cell.tree.children)} branches, want 1"
        )
    bound = dict(cell.sub)
    if bound.get(BASE_MINUS) != base[0] or bound.get(BASE_PLUS) != base[1]:
        raise NotASuspension(path + ("sub",), "root sectors are not sent to the basepoints")
    return [(p, v) for p, v in cell.sub if p not in (BASE_MINUS, BASE_PLUS)]


def _desuspend_sphere(sphere: Sphere, path: tuple[str, ...], desuspend) -> Sphere:
    return Sphere(desuspend(sphere.src, path + ("src",)), desuspend(sphere.tgt, path + ("tgt",)))


def desuspend_sphere(sphere: Sphere, path: tuple[str, ...] = ()) -> Sphere:
    return _desuspend_sphere(sphere, path, walker(_desuspend, {}))


def desuspend_computad(c: Computad) -> Computad:
    """Invert :func:`suspend_computad`; raises NotASuspension off its image.
    The result is memoised on ``c`` as :func:`suspend_computad` memoises
    its own; a failure is not, so it is raised again on every call."""
    return cached(c, "_desusp", None, _desuspended, c)


def _desuspended(c: Computad) -> tuple[Computad, bool]:
    if c.generators_at(0) != (BASE_MINUS, BASE_PLUS):
        raise NotASuspension((), "0-generators are not exactly the two basepoints")
    gens: list[list[str]] = []
    attach: dict[str, Sphere] = {}
    for d in range(1, c.bound + 1):
        level = []
        for v in c.generators_at(d):
            if not v.startswith("1."):
                raise NotASuspension((v,), "generator is not shifted")
            name = v[2:]
            level.append(name)
            if d == 1:
                if c.sphere_of(v) != Sphere(*_BASEPOINTS):
                    raise NotASuspension((v,), "1-generator not attached to the basepoints")
            else:
                attach[name] = desuspend_sphere(c.sphere_of(v), (v,))
        gens.append(level)
    return Computad.build(gens, attach)


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
    Generators are preserved; a coherence goes through :func:`op_coh`,
    with this function as the action on the cells it binds.  The result
    is memoised on the coherence node, per dimension set."""
    if isinstance(cell, Var):
        return cell
    return cached(cell, "_op", w, op_coh, w, cell, op_cell, w)


def op_coh(w: DimSet, cell: Coh, value: Callable, arg) -> tuple[Coh, bool]:
    """The coherence case of the opposite at ``w``, with the leaf action
    passed in: the coherence moves to the opposite scheme with the sphere
    :func:`op_sphere_over` gives, and its substitution precomposes with the
    canonical position bijection, binding ``value(arg, v)`` of each cell
    ``v`` that is not a ``Var`` (a generator is its own opposite, so a
    ``Var`` binding is kept as it is).  Only the substitution depends on
    the cell: it is gathered in the order
    :func:`omegatt.trees.op_sub_order` computes once per dimension set and
    scheme, which relies on every substitution being stored in canonical
    order.  Returns :meth:`Coh.build`'s ``(cell, created)``."""
    sub = cell.sub
    out = []
    for p, i in op_sub_order(w, cell.tree):
        pair = sub[i]
        if type(pair[1]) is not Var:
            pair = keep_pair(pair, p, value(arg, pair[1]))
        elif pair[0] != p:
            pair = (p, pair[1])
        out.append(pair)
    sphere = op_sphere_over(w, cell.tree, cell.sphere)
    return Coh.build(op_tree(w, cell.tree), sphere, tuple(out))


def op_sphere_over(w: DimSet, tree: BataninTree, sphere: Sphere) -> Sphere:
    """The sphere of the opposite of a coherence with scheme ``tree`` and
    sphere ``sphere``: :func:`op_sphere`, renamed through the inverse of
    the canonical position bijection so that it lives over
    ``op_tree(w, tree)``.  It does not depend on the coherence's
    substitution, so it is memoised on ``sphere`` per dimension set and
    scheme, held as :func:`op_cell` holds its results."""
    return cached(sphere, "_op", (canonical_dimset(w), tree), _op_sphere_over, w, tree, sphere)


def _op_sphere_over(w: DimSet, tree: BataninTree, sphere: Sphere) -> tuple[Sphere, bool]:
    leaf = _renaming({q: p for p, q in op_positions_iso(w, tree).items()})
    reversed_sphere, renamed = op_sphere(w, sphere), {}
    return Sphere.build(
        map_vars(leaf, reversed_sphere.src, renamed), map_vars(leaf, reversed_sphere.tgt, renamed)
    )


def op_sphere(w: DimSet, sphere: Sphere) -> Sphere:
    """Boundary data for a (dim+1)-cell: the two cells swap exactly when
    that dimension is reversed."""
    src, tgt = op_cell(w, sphere.src), op_cell(w, sphere.tgt)
    if sphere.dim + 1 in w:
        src, tgt = tgt, src
    return Sphere(src, tgt)


def op_computad(w: DimSet, c: Computad) -> Computad:
    """The w-opposite of a computad: the same generators, each attaching
    sphere replaced by its opposite.  Memoised on ``c`` per dimension set
    like :func:`op_cell`: strongly only when this call built the result, so
    ``c`` and its opposite never hold each other strongly.  A new result
    is checked through :meth:`Computad.build`.  The inverse entry is never
    seeded: ``op_computad(w, op_computad(w, c)) is c`` holds because the
    opposite of the opposite is built again and is ``c``, interned."""
    return cached(c, "_op", canonical_dimset(w), lambda: Computad.build(
        [list(level) for level in c.generators], {v: op_sphere(w, s) for v, s in c.attach}
    ))


def op_bipointed(w: DimSet, c: BipointedComputad) -> BipointedComputad:
    base = (c.base_plus, c.base_minus) if 1 in w else c.base
    return BipointedComputad(op_computad(w, c.computad), base)
