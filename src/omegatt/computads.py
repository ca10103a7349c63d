"""Finite computads and the inductive cell syntax over them.

A computad lists generator names per dimension; each generator of positive
dimension is attached along a sphere (a parallel pair of cells) one
dimension down.  Cells are raw syntax: a variable, or a coherence
``Coh(B, A, tau)`` built from a pasting scheme ``B``, a full sphere ``A``
over the scheme's free computad, and a substitution ``tau`` sending each
position of ``B`` to a cell of the ambient computad.  There is no quotient:
equality of cells is equality of terms, which is what lets the suspension /
opposite / hom equations downstream be checked with ``==``.

Substitutions and computad morphisms share one representation, a flat
name-keyed tuple of (name, cell) pairs in canonical order; this relies on
generator names being unique across dimensions, which ``Computad.make``
enforces.

Terms are hash-consed (:mod:`omegatt.hashcons`): ``Var``, ``Sphere`` and
``Coh``, like ``BataninTree``, are interned in weak tables, so
structurally equal terms are one object, ``==`` is ``is`` and the hash is
O(1).  A term is therefore a DAG: a subterm that recurs is stored once.
Pure traversals are memoised in a slot of the node they start from, and
each memo lives as long as its node: the boundary of a coherence
(:func:`cell_boundary`), :func:`cell_key`, and in :mod:`omegatt.metaops`
the opposite per dimension set and, on a sphere, the reversed sphere of
the coherences over it (the memos with keys go through
:func:`omegatt.hashcons.cached`).  A traversal whose result depends on a
computad as well is memoised on the computad: :func:`typecheck_cell`
records the cells that passed, and :mod:`omegatt.homcat` keeps its hom
factorizations there.  The other
traversals whose result depends on more than the node (:func:`map_vars`
and so :func:`apply_morphism` and :func:`counit_eval`, :func:`support`,
suspension and desuspension) are walks (:func:`omegatt.hashcons.walker`)
with a memo for one call, so they visit each node of the DAG once.  Maps
that keep the keys of a substitution (:func:`map_values`) keep its
canonical order and do not re-sort it; :func:`substitution` sorts, for
callers that rename keys.

Every computad is valid.  Computads are interned like terms, on their
levels and attaching pairs.  :meth:`Computad.make` checks foreign data
once, before interning; on data it has seen it returns the interned
object unchecked.  The constructor, ``copy`` and ``pickle`` go through
``make``.  :meth:`Computad.truncate`, :func:`pasting_computad` and
:meth:`Computad.extend` (which checks only the sphere it adds, typing
being monotone under adding generators) intern results that are valid by
construction.  The opposites and the suspension of a computad
(:mod:`omegatt.metaops`) are memoised on it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Union

from .globular import FiniteGlobularSet, nat_key
from .hashcons import HashConsed, remember, walker
from .trees import (
    BataninTree,
    pos_dim,
    positions,
    sorted_positions,
    src_inclusion,
    tgt_inclusion,
    tree_from_list,
    tree_to_list,
)

# ---------------------------------------------------------------------------
# terms


class Var(HashConsed):
    """A generator used as a cell."""

    __slots__ = ("name", "dim")
    __match_args__ = ("name", "dim")
    name: str
    dim: int

    def __new__(cls, name: str, dim: int) -> "Var":
        if dim < 0:
            raise ValueError(f"cell dimension must be >= 0, got {dim}")
        key = (name, dim)
        return cls._cons(key, key)[0]

    def __repr__(self) -> str:
        return f"Var({self.name!r}, {self.dim})"


class Sphere(HashConsed):
    """A parallel pair of cells; the boundary data for one dimension up.

    Memo slot: ``_op`` (:func:`omegatt.metaops.op_sphere_over`, the
    sphere of the opposite of a coherence with this sphere, per dimension
    set and scheme)."""

    __slots__ = ("src", "tgt", "dim", "_op")
    __match_args__ = ("src", "tgt")
    src: "CellTerm"
    tgt: "CellTerm"
    dim: int

    def __new__(cls, src: "CellTerm", tgt: "CellTerm") -> "Sphere":
        return cls.build(src, tgt)[0]

    @classmethod
    def build(cls, src: "CellTerm", tgt: "CellTerm") -> tuple["Sphere", bool]:
        """``(sphere, created)``, as :meth:`Coh.build`."""
        if src.dim != tgt.dim:
            raise ValueError(
                f"sphere cells must share a dimension: {src.dim} != {tgt.dim}"
            )
        return cls._cons((src, tgt), (src, tgt, src.dim, None))

    def __repr__(self) -> str:
        return f"Sphere(src={self.src!r}, tgt={self.tgt!r})"


Substitution = tuple[tuple[str, "CellTerm"], ...]


def substitution(mapping: Mapping[str, "CellTerm"] | Iterable[tuple[str, "CellTerm"]]) -> Substitution:
    """Freeze a name -> cell assignment in canonical (natural-key) order."""
    items = mapping.items() if isinstance(mapping, Mapping) else mapping
    out = tuple(sorted(items, key=lambda kv: nat_key(kv[0])))
    names = [k for k, _ in out]
    if len(set(names)) != len(names):
        raise ValueError("substitution binds a name twice")
    return out


def map_values(sub: Substitution, fn: Callable[["CellTerm"], "CellTerm"]) -> Substitution:
    """Apply ``fn`` to every cell of a substitution.  The keys do not
    change, so the canonical order and their distinctness carry over and
    nothing is re-sorted."""
    return tuple([keep_pair(pair, pair[0], fn(pair[1])) for pair in sub])


def keep_pair(pair: tuple[str, "CellTerm"], key: str, value: "CellTerm") -> tuple[str, "CellTerm"]:
    """``(key, value)``, reusing ``pair`` when it already is that binding:
    the substitutions of memoised images then share their unchanged
    bindings with the source term."""
    return pair if pair[1] is value and pair[0] == key else (key, value)


class Coh(HashConsed):
    """A coherence cell: scheme, full sphere over the scheme, substitution.

    Interned like every term node.  Memo slots: ``_op`` (:func:`op_cell`
    per dimension set, or :func:`omegatt.homcat.op_homcell` for a hom
    cell), ``_boundary`` (:func:`cell_boundary`, which for a
    coherence does not depend on the ambient computad) and ``_key``
    (:func:`cell_key`).
    """

    __slots__ = ("tree", "sphere", "sub", "dim", "_op", "_boundary", "_key")
    __match_args__ = ("tree", "sphere", "sub")
    tree: BataninTree
    sphere: Sphere
    sub: Substitution
    dim: int

    def __new__(cls, tree: BataninTree, sphere: Sphere, sub: Substitution) -> "Coh":
        return cls.build(tree, sphere, sub)[0]

    @classmethod
    def build(cls, tree: BataninTree, sphere: Sphere, sub: Substitution) -> tuple["Coh", bool]:
        """``(cell, created)``: the interned coherence, and whether this
        call built it (see :func:`omegatt.hashcons.cached`)."""
        sub = tuple(sub)
        return cls._cons((tree, sphere, sub), (tree, sphere, sub, sphere.dim + 1, None, None, None))

    def __repr__(self) -> str:
        return f"Coh({self.tree!r}, {self.sphere!r}, <{len(self.sub)} positions>)"


CellTerm = Union[Var, Coh]


# ---------------------------------------------------------------------------
# computads


class Computad(HashConsed):
    """Generator names per dimension with attaching spheres; always valid.

    ``generators[d]`` is the tuple of d-generator names in canonical order;
    ``attach`` binds each generator of positive dimension to its sphere,
    level by level in that order.  Interned on these two fields, so equal
    computads are one object.  Other slots: the name tables ``_dims`` and
    ``_spheres``, filled on first lookup, and the memos ``_op``
    (:func:`omegatt.metaops.op_computad` per dimension set), ``_susp``
    (:func:`omegatt.metaops.suspend_computad`), ``_desusp``
    (:func:`omegatt.metaops.desuspend_computad`), ``_hom``
    (:func:`omegatt.homcat.hom_factor` and
    :func:`omegatt.homcat.hom_realize` per basepoint pair) and
    ``_passed`` (the cells that passed :func:`typecheck_cell` over it).
    """

    __slots__ = (
        "generators", "attach", "_dims", "_spheres", "_op", "_susp", "_desusp", "_hom", "_passed"
    )
    __match_args__ = ("generators", "attach")
    generators: tuple[tuple[str, ...], ...]
    attach: tuple[tuple[str, Sphere], ...]

    def __new__(cls, generators: Iterable[Iterable[str]], attach) -> "Computad":
        return cls.make(generators, dict(attach))

    @staticmethod
    def make(generators_by_dim: Iterable[Iterable[str]], attach: Mapping[str, Sphere]) -> "Computad":
        """The computad on these generators and spheres, checked the first
        time its data are seen: the same object for equal data."""
        return Computad.build(generators_by_dim, attach)[0]

    @staticmethod
    def build(
        generators_by_dim: Iterable[Iterable[str]],
        attach: Mapping[str, Sphere],
    ) -> tuple["Computad", bool]:
        """``(computad, created)``: what :meth:`make` returns, and whether
        this call built and checked it (see :func:`omegatt.hashcons.cached`)
        rather than finding it interned.  The spheres are checked bottom-up,
        each truncation interned once its level passes."""
        levels = [tuple(sorted(level, key=nat_key)) for level in generators_by_dim]
        while levels and not levels[-1]:
            levels.pop()
        seen: set[str] = set()
        for level in levels:
            for v in level:
                if v in seen:
                    raise ValueError(f"duplicate generator name {v!r}")
                seen.add(v)
        pairs: list[tuple[str, Sphere]] = []
        for d in range(1, len(levels)):
            for v in levels[d]:
                if v not in attach:
                    raise ValueError(f"generator {v!r} has no attaching sphere")
                pairs.append((v, attach[v]))
        if len(pairs) != len(attach):
            attached = {v for v, _ in pairs}
            stray = next(v for v in attach if v not in attached)
            raise ValueError(f"sphere attached to {stray!r}, not a generator of positive dimension")
        levels, pairs = tuple(levels), tuple(pairs)
        c = Computad._live((levels, pairs))
        if c is not None:
            return c, False
        c = Computad._intern((), ())
        for d, level in enumerate(levels):
            if level:
                start = len(c.attach)
                end = start + len(level) if d else 0
                for v, sphere in pairs[start:end]:
                    _check_attachment(c, v, sphere, d)
                c = Computad._intern(levels[: d + 1], pairs[:end])
        return c, True

    @classmethod
    def _intern(cls, levels: tuple, pairs: tuple) -> "Computad":
        """The computad on data known to be valid, in the form :meth:`make`
        gives it: levels in canonical order with no empty last level, pairs
        level by level."""
        return cls._cons((levels, pairs), (levels, pairs) + (None,) * 7)[0]

    def extend(self, name: str, sphere: Sphere | None) -> "Computad":
        """This computad with one more generator: a 0-generator when
        ``sphere`` is None, else one attached along ``sphere``.

        Only the new sphere is checked, against ``self.truncate(d - 1)``:
        typing is monotone under adding generators, so the old spheres
        still check and the result is the object :meth:`make` returns on
        the same data, with the same error when the new sphere fails."""
        if self.has_generator(name):
            raise ValueError(f"duplicate generator name {name!r}")
        d = 0 if sphere is None else sphere.dim + 1
        levels = list(self.generators) + [()] * (d + 1 - len(self.generators))
        # each level is sorted and the attaching pairs go level by level, so
        # the new name and pair go in by bisection and slicing, with no sort
        level = levels[d]
        at = bisect.bisect_right(level, nat_key(name), key=nat_key)
        levels[d] = level[:at] + (name,) + level[at:]
        pairs = self.attach
        if sphere is not None:
            at += sum(map(len, levels[1:d]))
            pairs = pairs[:at] + ((name, sphere),) + pairs[at:]
        levels = tuple(levels)
        c = Computad._live((levels, pairs))
        if c is None:
            if sphere is not None:
                _check_attachment(self.truncate(d - 1), name, sphere, d)
            c = Computad._intern(levels, pairs)
        return c

    def __repr__(self) -> str:
        return f"Computad(generators={self.generators!r}, attach={self.attach!r})"

    @property
    def bound(self) -> int:
        """Largest dimension carrying generators (-1 if none)."""
        return len(self.generators) - 1

    def generators_at(self, d: int) -> tuple[str, ...]:
        return self.generators[d] if 0 <= d <= self.bound else ()

    def _names(self) -> dict[str, int]:
        dims = self._dims
        if dims is None:
            dims = {v: d for d, level in enumerate(self.generators) for v in level}
            remember(self, "_dims", dims)
        return dims

    def has_generator(self, name: str) -> bool:
        return name in self._names()

    def dim_of(self, name: str) -> int:
        return self._names()[name]

    def sphere_of(self, name: str) -> Sphere:
        spheres = self._spheres
        if spheres is None:
            spheres = dict(self.attach)
            remember(self, "_spheres", spheres)
        return spheres[name]

    def var(self, name: str) -> Var:
        return Var(name, self.dim_of(name))

    def truncate(self, d: int) -> "Computad":
        """The generators up to dimension ``d``: this computad itself when
        ``d`` reaches its bound, else the interned truncation, sliced from
        this computad's data (a truncation of a valid computad is valid)."""
        if d >= self.bound:
            return self
        levels = self.generators[: max(d + 1, 0)]
        while levels and not levels[-1]:
            levels = levels[:-1]
        return Computad._intern(levels, self.attach[: sum(map(len, levels[1:]))])


def _check_attachment(lower: Computad, v: str, sphere: Sphere, d: int) -> None:
    """Validate the sphere attaching the d-generator ``v`` over the
    computad ``lower`` of its generators below dimension d."""
    if sphere.dim != d - 1:
        raise ValueError(f"attaching sphere of {v!r} has dimension {sphere.dim}, want {d - 1}")
    typecheck_cell(lower, sphere.src)
    typecheck_cell(lower, sphere.tgt)
    if not parallel(lower, sphere.src, sphere.tgt):
        raise ValueError(f"attaching sphere of {v!r} is not parallel")


def _disk_attachments(x: FiniteGlobularSet) -> tuple[tuple[str, Sphere], ...]:
    """Each cell of ``x`` of positive dimension with the sphere of its two
    boundary cells, level by level in the order of ``x``."""
    return tuple([
        (c, Sphere(Var(s, d - 1), Var(t, d - 1)))
        for d in range(1, x.ndim + 1)
        for (c, s), (_, t) in zip(x.srcs[d], x.tgts[d])
    ])


def free_computad(x: FiniteGlobularSet) -> Computad:
    """The computad with one generator per cell of ``x``, disk attachments."""
    return Computad.make(x.cells, dict(_disk_attachments(x)))


@lru_cache(maxsize=None)
def pasting_computad(t: BataninTree) -> Computad:
    """Free computad on the positions of a pasting scheme (cached).  The
    positions are a valid globular set listed in canonical order, so their
    free computad is interned as it stands, without :meth:`Computad.make`."""
    x = positions(t).carrier
    return Computad._intern(x.cells, _disk_attachments(x))


def identity_sub(c: Computad) -> Substitution:
    return substitution({v: Var(v, d) for d in range(c.bound + 1) for v in c.generators_at(d)})


@lru_cache(maxsize=None)
def template_sub(t: BataninTree) -> Substitution:
    """The identity substitution on the positions of a scheme, which is
    ``identity_sub(pasting_computad(t))`` (cached)."""
    return tuple([(p, Var(p, pos_dim(p))) for p in sorted_positions(t)])


def is_template(cell: CellTerm) -> bool:
    """A coherence whose substitution is the identity on its own scheme."""
    return isinstance(cell, Coh) and cell.sub == template_sub(cell.tree)


# ---------------------------------------------------------------------------
# boundary, support, fullness


def map_vars(leaf: Callable[[Var], CellTerm], cell: CellTerm, memo: dict | None = None) -> CellTerm:
    """The action on cells of a map given on variables: each Var ``v``
    becomes ``leaf(v)``; a coherence keeps its scheme and sphere (those
    live over the pasting computad, not the ambient one) and only its
    outer substitution moves.  ``memo`` (fresh by default; pass one dict
    to share it between calls with the same ``leaf``) holds each node
    already mapped, so a subterm shared in the DAG is mapped once."""

    def step(cell: CellTerm, again) -> CellTerm:
        if isinstance(cell, Var):
            return leaf(cell)
        return Coh(cell.tree, cell.sphere, map_values(cell.sub, again))

    return walker(step, {} if memo is None else memo)(cell)


def _morphism(sigma: Substitution) -> Callable[[Var], CellTerm]:
    """The leaf map of a morphism: each generator goes to its image."""
    images = dict(sigma)
    return lambda v: images[v.name]


def apply_morphism(sigma: Substitution, cell: CellTerm) -> CellTerm:
    """Push a cell along a morphism given by its action on generators."""
    return map_vars(_morphism(sigma), cell)


def cell_boundary(c: Computad, cell: CellTerm) -> Sphere:
    """The sphere one dimension down: attachment for a Var, the coherence
    sphere pushed along the substitution for a Coh (memoised on the Coh)."""
    if cell.dim == 0:
        raise ValueError("0-cells have no boundary")
    if isinstance(cell, Var):
        return c.sphere_of(cell.name)
    sphere = cell._boundary
    if sphere is None:
        leaf, memo = _morphism(cell.sub), {}
        sphere = Sphere(map_vars(leaf, cell.sphere.src, memo), map_vars(leaf, cell.sphere.tgt, memo))
        remember(cell, "_boundary", sphere)
    return sphere


def boundary_at(c: Computad, cell: CellTerm, k: int) -> Sphere:
    """Iterated boundary down to a k-sphere (k < dim of the cell)."""
    if not 0 <= k < cell.dim:
        raise ValueError(f"no {k}-boundary of a {cell.dim}-cell")
    return boundaries(c, cell, k)[0]


def boundaries(c: Computad, cell: CellTerm, k: int = 0) -> list[Sphere]:
    """The iterated boundaries of a cell from dimension ``k`` up, found in
    one descent from the top: item ``j`` is its ``(k + j)``-boundary."""
    out = []
    if cell.dim > k:
        sphere = cell_boundary(c, cell)
        out.append(sphere)
        while sphere.dim > k:
            sphere = Sphere(cell_boundary(c, sphere.src).src, cell_boundary(c, sphere.tgt).tgt)
            out.append(sphere)
    return out[::-1]


def parallel(c: Computad, a: CellTerm, b: CellTerm) -> bool:
    if a.dim != b.dim:
        return False
    if a.dim == 0:
        return True
    return cell_boundary(c, a) == cell_boundary(c, b)


def support(c: Computad, cell: CellTerm) -> frozenset[str]:
    """Generators a cell depends on, including those of its boundary.
    Each node of the DAG is visited once per call."""

    def step(cell: CellTerm, again) -> frozenset[str]:
        if isinstance(cell, Var):
            out = frozenset({cell.name})
            if cell.dim > 0:
                sphere = c.sphere_of(cell.name)
                out |= again(sphere.src) | again(sphere.tgt)
            return out
        return frozenset().union(*[again(v) for _, v in cell.sub])

    return walker(step, {})(cell)


def is_full(b: BataninTree, a: Sphere) -> bool:
    """Fullness of a sphere over a pasting scheme: the source cell uses
    exactly the source-inclusion image of the scheme's n-boundary, and
    dually for the target."""
    n = a.dim
    if b.dim > n + 1:
        raise ValueError(
            f"sphere of dimension {n} cannot be full over a scheme of dimension {b.dim}"
        )
    pc = pasting_computad(b)
    src_image = frozenset(src_inclusion(n, b).values())
    tgt_image = frozenset(tgt_inclusion(n, b).values())
    return support(pc, a.src) == src_image and support(pc, a.tgt) == tgt_image


# ---------------------------------------------------------------------------
# typechecking


@dataclass(unsafe_hash=True)
class TypecheckError(Exception):
    """First failure found while checking a cell, with a path into the term."""

    code: str  # UnknownGenerator | DimensionMismatch | NotParallel | NotFull | BadSubstitution
    path: tuple[str, ...]
    message: str

    def __str__(self) -> str:
        where = "/".join(self.path) or "<root>"
        return f"{self.code} at {where}: {self.message}"


def typecheck_cell(c: Computad, cell: CellTerm, path: tuple[str, ...] = ()) -> None:
    """Validate a cell against a computad; raises TypecheckError on failure.

    Each coherence node that passes over a computad is recorded in the
    computad's ``_passed`` set, so it is checked once for as long as the
    computad lives, wherever it recurs in the DAG and in later calls.  A
    failure is not recorded: a bad cell raises the same error, at the same
    path, on every call."""
    _typecheck(c, cell, path)


def _typecheck(c: Computad, cell: CellTerm, path: tuple[str, ...]) -> None:
    if isinstance(cell, Var):
        if not c.has_generator(cell.name):
            raise TypecheckError("UnknownGenerator", path, f"no generator named {cell.name!r}")
        d = c.dim_of(cell.name)
        if d != cell.dim:
            raise TypecheckError(
                "DimensionMismatch",
                path,
                f"generator {cell.name!r} has dimension {d}, used at {cell.dim}",
            )
        return
    passed = c._passed
    if passed is None:
        passed = set()
        remember(c, "_passed", passed)
    elif cell in passed:
        return
    if cell.tree.dim > cell.dim:
        raise TypecheckError(
            "DimensionMismatch",
            path + ("tree",),
            f"scheme of dimension {cell.tree.dim} in a {cell.dim}-cell",
        )
    pc = pasting_computad(cell.tree)
    _typecheck(pc, cell.sphere.src, path + ("sphere", "src"))
    _typecheck(pc, cell.sphere.tgt, path + ("sphere", "tgt"))
    if not parallel(pc, cell.sphere.src, cell.sphere.tgt):
        raise TypecheckError(
            "NotParallel", path + ("sphere",), "coherence sphere cells are not parallel"
        )
    if not is_full(cell.tree, cell.sphere):
        raise TypecheckError(
            "NotFull", path + ("sphere",), "coherence sphere is not full over its scheme"
        )
    pos = positions(cell.tree).carrier
    want = {p for _, p in pos.all_cells()}
    got = {k for k, _ in cell.sub}
    if want != got:
        missing, extra = sorted(want - got, key=nat_key), sorted(got - want, key=nat_key)
        raise TypecheckError(
            "BadSubstitution",
            path + ("sub",),
            f"positions mismatch: missing {missing}, extra {extra}",
        )
    for p, v in cell.sub:
        if v.dim != pos_dim(p):
            raise TypecheckError(
                "DimensionMismatch",
                path + ("sub", p),
                f"position {p} has dimension {pos_dim(p)}, assigned a {v.dim}-cell",
            )
        _typecheck(c, v, path + ("sub", p))
    bound = dict(cell.sub)
    for d in range(1, pos.ndim + 1):
        for (p, s), (_, t) in zip(pos.srcs[d], pos.tgts[d]):
            if cell_boundary(c, bound[p]) != Sphere(bound[s], bound[t]):
                raise TypecheckError(
                    "BadSubstitution",
                    path + ("sub", p),
                    f"assignment at {p} does not match the boundaries of its sector",
                )
    passed.add(cell)


def term_diff(a, b) -> tuple[str, ...] | None:
    """The path to the first subterm at which ``a`` and ``b`` differ, in
    :class:`TypecheckError`'s path notation, or None when they are equal.

    The walk goes down while both sides are coherences on one scheme, to
    the first differing child: the sphere's source, then its target, then
    the substitution in canonical order.  It stops at two different leaves
    (variables, or the leaves of hom cells), at a leaf against a
    coherence, and at coherences on different schemes."""
    path: tuple[str, ...] = ()
    while a is not b:
        if not (isinstance(a, Coh) and isinstance(b, Coh)) or a.tree is not b.tree:
            return path
        if a.sphere is not b.sphere:
            side = "src" if a.sphere.src is not b.sphere.src else "tgt"
            path += ("sphere", side)
            a, b = getattr(a.sphere, side), getattr(b.sphere, side)
        else:
            pair = next(((x, y) for x, y in zip(a.sub, b.sub) if x != y), None)
            if pair is None or pair[0][0] != pair[1][0]:  # the positions differ
                return path + ("sub",)
            (p, a), (_, b) = pair
            path += ("sub", p)
    return None


def subterm(cell, path: tuple[str, ...]):
    """The subterm of ``cell`` at ``path`` (see :func:`term_diff`); a
    path that ends in a lone ``"sub"`` names the coherence it ends at."""
    steps = iter(path)
    for step, arg in zip(steps, steps):
        cell = getattr(cell.sphere, arg) if step == "sphere" else dict(cell.sub)[arg]
    return cell


def is_well_typed(c: Computad, cell: CellTerm) -> bool:
    try:
        typecheck_cell(c, cell)
    except TypecheckError:
        return False
    return True


# ---------------------------------------------------------------------------
# the counit: evaluating cells of the free computad on the cells of C


def cell_key(cell: CellTerm) -> str:
    """Canonical compact string for a cell; injective on well-formed terms.

    Used to name the generators of double computads (whose generators *are*
    cells), keeping those names deterministic and self-describing.
    Memoised on each coherence node.
    """
    if isinstance(cell, Var):
        return cell.name
    key = cell._key
    if key is None:
        inner = ";".join(f"{p}:={cell_key(v)}" for p, v in cell.sub)
        key = (
            f"coh{tree_to_list(cell.tree)}"
            f"{{{cell_key(cell.sphere.src)}->{cell_key(cell.sphere.tgt)}}}"
            f"({inner})"
        )
        remember(cell, "_key", key)
    return key


def double_computad(c: Computad, cells: Iterable[CellTerm]) -> tuple[Computad, dict[str, CellTerm]]:
    """Free computad on a finite boundary-closed family of cells of ``c``.

    The family is closed under iterated boundaries automatically.  Returns
    the computad (generator names are :func:`cell_key` strings) and the
    denotation map sending each generator name back to the cell it names.
    """
    todo = list(cells)
    layers: dict[int, dict[str, CellTerm]] = {}
    denote: dict[str, CellTerm] = {}
    while todo:
        cell = todo.pop()
        key = cell_key(cell)
        if key in denote:
            continue
        denote[key] = cell
        layers.setdefault(cell.dim, {})[key] = cell
        if cell.dim > 0:
            sphere = cell_boundary(c, cell)
            todo.append(sphere.src)
            todo.append(sphere.tgt)
    ndim = max(layers) if layers else -1
    cells_by_dim = [list(layers.get(d, {})) for d in range(ndim + 1)]
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    for d in range(1, ndim + 1):
        for key, cell in layers.get(d, {}).items():
            sphere = cell_boundary(c, cell)
            src[key] = cell_key(sphere.src)
            tgt[key] = cell_key(sphere.tgt)
    return free_computad(FiniteGlobularSet.make(cells_by_dim, src, tgt)), denote


def counit_eval(
    c: Computad, cell: CellTerm, denote: Mapping[str, CellTerm] | None = None
) -> CellTerm:
    """Evaluate a cell over a free computad whose generators denote cells of
    ``c``: each Var becomes the cell it names, coherences evaluate their
    substitutions.  ``denote`` defaults to the generators of ``c`` itself,
    which makes this the counit on free_computad(underlying globular set)."""
    leaf = (lambda v: c.var(v.name)) if denote is None else (lambda v: denote[v.name])
    return map_vars(leaf, cell)


# ---------------------------------------------------------------------------
# JSON


def var_to_json(v: Var) -> dict:
    return {"var": v.name}


def var_from_json(obj: Mapping, dim_of) -> Var:
    return Var(obj["var"], dim_of(obj["var"]))


def cell_to_json(cell: CellTerm, leaf=var_to_json) -> dict:
    """Encode a cell; ``leaf`` encodes the cells that are not coherences
    (a generator by its name by default).  Coherence spheres always take the
    default: their leaves are positions of the scheme."""
    if not isinstance(cell, Coh):
        return leaf(cell)
    return {
        "coh": {
            "tree": tree_to_list(cell.tree),
            "sphere": {
                "src": cell_to_json(cell.sphere.src),
                "tgt": cell_to_json(cell.sphere.tgt),
            },
            "sub": {p: cell_to_json(v, leaf) for p, v in cell.sub},
        }
    }


def cell_from_json(obj: Mapping, dim_of, leaf=var_from_json) -> CellTerm:
    """Decode a cell; ``leaf(obj, dim_of)`` decodes the cells that are not
    coherences, and ``dim_of`` resolves dimensions of Var names at this
    level (the ambient computad's ``dim_of`` at top level, position depth
    inside coherence spheres)."""
    if "coh" not in obj:
        return leaf(obj, dim_of)
    body = obj["coh"]
    tree = tree_from_list(body["tree"])
    sphere = Sphere(
        cell_from_json(body["sphere"]["src"], pos_dim),
        cell_from_json(body["sphere"]["tgt"], pos_dim),
    )
    sub = tuple([(p, cell_from_json(v, dim_of, leaf)) for p, v in body["sub"].items()])
    if tuple(body["sub"]) != sorted_positions(tree):  # not as cell_to_json writes it
        sub = substitution(sub)
    return Coh(tree, sphere, sub)


def computad_to_json(c: Computad) -> dict:
    return {
        "dims": [list(level) for level in c.generators],
        "attach": {
            v: {"src": cell_to_json(s.src), "tgt": cell_to_json(s.tgt)}
            for v, s in c.attach
        },
    }


def computad_from_json(obj: Mapping) -> Computad:
    levels = [list(level) for level in obj["dims"]]
    dim_of: dict[str, int] = {v: d for d, level in enumerate(levels) for v in level}
    attach = {
        v: Sphere(
            cell_from_json(s["src"], dim_of.__getitem__),
            cell_from_json(s["tgt"], dim_of.__getitem__),
        )
        for v, s in obj.get("attach", {}).items()
    }
    return Computad.make(levels, attach)
