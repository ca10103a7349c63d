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
name-keyed tuple of (name, cell) pairs in canonical order (for a coherence,
that of :func:`omegatt.trees.sorted_positions`, which :func:`typecheck_cell`
checks); this relies on generator names being unique across dimensions,
which ``Computad.make`` enforces.

Terms are hash-consed (:mod:`omegatt.hashcons`): ``Var``, ``Sphere`` and
``Coh``, like ``BataninTree``, are interned in weak tables, so structurally
equal terms are one object, ``==`` is ``is`` and the hash is O(1).  A term
is therefore a DAG: a subterm that recurs is stored once.  A traversal
visits each node of the DAG once: a walk (:func:`omegatt.hashcons.walk`,
through :func:`children` when it needs them all) where values flow up, a
plain work-list where it only collects (:func:`support`,
:func:`double_computad`).  Pure traversals are memoised in a slot of the
node they start from: the boundary of a coherence (:func:`cell_boundary`),
:func:`cell_key`, and in :mod:`omegatt.metaops` the opposite per dimension
set.  The writers print and export a term above :data:`SHARE_ABOVE` nodes
(its ``size``, computed when it is built) with each recurring subterm once
(:func:`shared_subterms`), so their output grows with the DAG.  A traversal
whose result depends on a computad as well is memoised on the computad:
:func:`typecheck_cell` records the cells that passed, and
:mod:`omegatt.homcat` keeps its hom factorizations there.  The other walks
(:func:`map_vars` and so :func:`apply_morphism` and :func:`counit_eval`,
suspension and desuspension) keep a memo for one call.

Every computad is valid.  A computad is its generator table, each name with
its dimension and attaching sphere, as in Dean, Finster, Markakis, Reutter
& Vicary, *Computads for weak omega-categories as an inductive type* (arXiv
2208.08719): an earlier computad plus new generators.  It is interned like
a term, on the set of its table's entries, so the order in which generators
came does not matter; the canonical order lives only in the views the
printers and JSON read.  One checked path adds generators:
:meth:`Computad.add` puts one in a :meth:`Computad.draft`, which is not
interned, and checks only its sphere (typing being monotone under adding
generators); :meth:`Computad.done` interns the draft.  The elaborator grows
a draft per block, and :meth:`Computad.build` one per table, in canonical
order, after :meth:`Computad.make` checks the shape of foreign data; on
data they have seen they return the interned object unchecked.  The
constructor, ``copy`` and ``pickle`` go through ``make``.
:meth:`Computad.truncate` and :func:`pasting_computad` intern results that
are valid by construction, the latter from one shared entry per position
name.  The opposites and suspension of a computad are memoised on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Collection, Iterable, Mapping, Union

from .globular import nat_key
from .hashcons import HashConsed, gather, remember, walk
from .trees import (
    BataninTree,
    POSITIONS,
    pos_dim,
    position_levels,
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
    size = 1  # one node, unfolded

    def __new__(cls, name: str, dim: int) -> "Var":
        if dim < 0:
            raise ValueError(f"cell dimension must be >= 0, got {dim}")
        key = (name, dim)
        return cls._cons(key, key)[0]

    def __repr__(self) -> str:
        return f"Var({self.name!r}, {self.dim})"


class Sphere(HashConsed):
    """A parallel pair of cells; the boundary data for one dimension up.

    Memo slot: ``_op`` (:func:`omegatt.metaops.op_coh`, the
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


def keep_pair(pair: tuple[str, "CellTerm"], key: str, value: "CellTerm") -> tuple[str, "CellTerm"]:
    """``(key, value)``, reusing ``pair`` when it already is that binding:
    the substitutions of memoised images then share their unchanged
    bindings with the source term."""
    return pair if pair[1] is value and pair[0] == key else (key, value)


class Coh(HashConsed):
    """A coherence cell: scheme, full sphere over the scheme, substitution.

    Interned like every term node, with its ``size``, the node count
    unfolded as a tree, computed when it is built.  Memo slots: ``_op``
    (:func:`omegatt.metaops.op_cell` per dimension set, or
    :func:`omegatt.homcat.op_homcell` for a hom cell), ``_boundary``
    (:func:`cell_boundary`, which for a coherence does not depend on the
    ambient computad) and ``_key`` (:func:`cell_key`).
    """

    __slots__ = ("tree", "sphere", "sub", "dim", "size", "_op", "_boundary", "_key")
    __match_args__ = ("tree", "sphere", "sub")
    tree: BataninTree
    sphere: Sphere
    sub: Substitution
    dim: int
    size: int

    def __new__(cls, tree: BataninTree, sphere: Sphere, sub: Substitution) -> "Coh":
        return cls.build(tree, sphere, sub)[0]

    @classmethod
    def build(cls, tree: BataninTree, sphere: Sphere, sub: Substitution) -> tuple["Coh", bool]:
        """``(cell, created)``: the interned coherence, and whether this
        call built it (see :func:`omegatt.hashcons.store`)."""
        sub = tuple(sub)
        key = (tree, sphere, sub)
        cell = cls._live(key)
        if cell is not None:
            return cell, False
        size = 1 + sphere.src.size + sphere.tgt.size + sum([v.size for _, v in sub])
        return cls._cons(key, (tree, sphere, sub, sphere.dim + 1, size, None, None, None))

    def __repr__(self) -> str:
        return f"Coh({self.tree!r}, {self.sphere!r}, <{len(self.sub)} positions>)"


CellTerm = Union[Var, Coh]


# ---------------------------------------------------------------------------
# computads


class Computad(HashConsed):
    """A finite computad: its generator table; always valid.

    ``table`` maps each generator name to its entry ``(dim, sphere)``, the
    sphere None for a 0-generator.  A computad is interned on the frozenset
    of its table's entries (``key``), so equal computads are one object
    whatever order their generators came in.  ``generators`` and ``attach``
    are views in canonical order, sorted on first use (slot ``_views``):
    ``generators[d]`` is the tuple of d-generator names, and ``attach``
    binds each generator of positive dimension to its sphere, level by
    level.  The constructor takes these two views, so copying and pickling
    rebuild through :meth:`make`.  Memo slots: ``_op``
    (:func:`omegatt.metaops.op_computad` per dimension set), ``_susp``
    (:func:`omegatt.metaops.suspend_computad`), ``_desusp``
    (:func:`omegatt.metaops.desuspend_computad`), ``_hom`` (per basepoint
    pair, the hom factor and realize memos and the hom cells that passed,
    see :mod:`omegatt.homcat`) and ``_passed`` (the cells that passed
    :func:`typecheck_cell` over it).
    """

    __slots__ = ("table", "key", "_views", "_op", "_susp", "_desusp", "_hom", "_passed")
    __match_args__ = ("generators", "attach")
    table: dict[str, tuple[int, Sphere | None]]
    key: frozenset

    def __new__(cls, generators: Iterable[Iterable[str]], attach) -> "Computad":
        return cls.make(generators, dict(attach))

    @staticmethod
    def make(generators_by_dim: Iterable[Iterable[str]], attach: Mapping[str, Sphere]) -> "Computad":
        """The computad on these generators and spheres, checked the first
        time its data are seen: the same object for equal data.  Foreign
        data are checked for duplicate names, then for missing spheres, then
        for stray ones, before :meth:`build` checks the spheres."""
        levels = [sorted(level, key=nat_key) for level in generators_by_dim]
        table: dict[str, tuple[int, Sphere | None]] = {}
        for d, level in enumerate(levels):
            for v in level:
                if v in table:
                    raise ValueError(f"duplicate generator name {v!r}")
                table[v] = (d, None)
        for d, level in enumerate(levels[1:], 1):
            for v in level:
                if v not in attach:
                    raise ValueError(f"generator {v!r} has no attaching sphere")
                table[v] = (d, attach[v])
        for v in attach:
            if v not in table or not table[v][0]:
                raise ValueError(f"sphere attached to {v!r}, not a generator of positive dimension")
        return Computad.build(table)[0]

    @staticmethod
    def build(table: Mapping[str, tuple[int, Sphere | None]]) -> tuple["Computad", bool]:
        """``(computad, created)``: the computad on a generator table, and
        whether this call built and checked it (see
        :func:`omegatt.hashcons.store`) rather than finding it interned.
        It adds the generators to a :meth:`draft` in canonical order and
        interns only the result."""
        c = Computad._live(frozenset(table.items()))
        if c is not None:
            return c, False
        draft = Computad.draft()
        for v in _in_order(table):
            d, sphere = table[v]
            if d and sphere.dim != d - 1:
                raise ValueError(f"attaching sphere of {v!r} has dimension {sphere.dim}, want {d - 1}")
            draft.add(v, sphere)
        return draft.done(), True

    @classmethod
    def _intern(cls, items: Collection[tuple[str, tuple]]) -> "Computad":
        """The computad on the items of a table known to be valid, unchecked."""
        key = frozenset(items)
        return cls._cons(key, (dict(items), key) + (None,) * 6)[0]

    @classmethod
    def draft(cls) -> "Computad":
        """An empty computad, not interned, to grow by :meth:`add` and
        intern by :meth:`done`.  Its table grows, so a view of it goes stale."""
        draft = object.__new__(cls)
        for name, value in zip(cls.__slots__, ({},) + (None,) * 7):
            remember(draft, name, value)
        return draft

    def add(self, name: str, sphere: Sphere | None) -> None:
        """Add a generator whose name is new to this draft: a 0-generator
        when ``sphere`` is None, else one attached along ``sphere``, once
        both its cells typecheck over the draft and are parallel.  A cell
        types over the draft exactly when it types over the truncation to
        its dimension, and a failure is reported over the truncation, so
        the error does not depend on the generators added above it."""
        if sphere is not None:
            for cell in (sphere.src, sphere.tgt):
                try:
                    typecheck_cell(self, cell)
                except TypecheckError:
                    typecheck_cell(self.truncate(sphere.dim), cell)
                    raise
            if not parallel(self, sphere.src, sphere.tgt):
                raise ValueError(f"attaching sphere of {name!r} is not parallel")
        self.table[name] = (0, None) if sphere is None else (sphere.dim + 1, sphere)

    def done(self) -> "Computad":
        """The computad on this draft's table, interned unchecked, since
        :meth:`add` checked each sphere.  The draft is spent."""
        return Computad._intern(self.table.items())

    def __repr__(self) -> str:
        return f"Computad(generators={self.generators!r}, attach={self.attach!r})"

    def _sorted(self) -> tuple:
        views = self._views
        if views is None:
            table, levels = self.table, []
            for v in _in_order(table):
                d = table[v][0]
                levels += [[] for _ in range(d + 1 - len(levels))]
                levels[d].append(v)
            views = tuple(map(tuple, levels)), tuple([(v, table[v][1]) for level in levels[1:] for v in level])
            remember(self, "_views", views)
        return views

    @property
    def generators(self) -> tuple[tuple[str, ...], ...]:
        return self._sorted()[0]

    @property
    def attach(self) -> tuple[tuple[str, Sphere], ...]:
        return self._sorted()[1]

    @property
    def bound(self) -> int:
        """Largest dimension carrying generators (-1 if none)."""
        return len(self.generators) - 1

    def generators_at(self, d: int) -> tuple[str, ...]:
        return self.generators[d] if 0 <= d <= self.bound else ()

    def has_generator(self, name: str) -> bool:
        return name in self.table

    def dim_of(self, name: str) -> int:
        return self.table[name][0]

    def sphere_of(self, name: str) -> Sphere | None:
        return self.table[name][1]

    def entry(self, leaf) -> tuple[int, Sphere | None] | None:
        """The ``(dim, sphere)`` of a leaf's generator here; only a Var has one."""
        return self.table.get(leaf.name) if type(leaf) is Var else None

    def var(self, name: str) -> Var:
        return Var(name, self.table[name][0])

    def truncate(self, d: int) -> "Computad":
        """The generators up to dimension ``d``, interned unchecked: a
        truncation of a valid computad is valid (this computad itself when
        none is above ``d``)."""
        return Computad._intern([item for item in self.table.items() if item[1][0] <= d])


def _in_order(table: Mapping[str, tuple]) -> list[str]:
    """The names of a generator table in canonical order: by dimension,
    then by :func:`nat_key` (then by the name, for names it equates)."""
    return sorted(table, key=lambda v: (table[v][0], nat_key(v), v))


@lru_cache(maxsize=None)
def pasting_computad(t: BataninTree) -> Computad:
    """The free computad of a pasting scheme (cached), the one shape of a
    scheme that the kernel reads: each position attached along the two it
    runs between.  Valid by construction, it is interned unchecked, on the
    shared items of :func:`_pasted`, with its views from that pass."""
    levels = [[_pasted(pos.name) for pos in level] for level in position_levels(t)]
    items = [item for level in levels for item, _, _ in level]
    pc = Computad._intern(items)
    if pc._views is None:
        views = tuple([tuple([item[0] for item, _, _ in level]) for level in levels])
        remember(pc, "_views", (views, tuple([pair for level in levels[1:] for _, pair, _ in level])))
    return pc


# Each position name met -> what pasting computads hold of it, fixed by the
# name: its table item (name, (dim, sphere)), its attach pair (name, sphere)
# and its binding (name, Var) in a template substitution.
_PASTED: dict[str, tuple] = {}


def _pasted(x: str) -> tuple:
    if x not in _PASTED:
        d, lo, hi = POSITIONS[x][1:4]
        sphere = Sphere(Var(lo, d - 1), Var(hi, d - 1)) if d else None
        _PASTED[x] = ((x, (d, sphere)), (x, sphere), (x, Var(x, d)))
    return _PASTED[x]


def identity_sub(c: Computad) -> Substitution:
    return substitution({v: Var(v, d) for d in range(c.bound + 1) for v in c.generators_at(d)})


@lru_cache(maxsize=None)
def template_sub(t: BataninTree) -> Substitution:
    """The identity substitution on the positions of a scheme, which is
    ``identity_sub(pasting_computad(t))`` (cached), of shared bindings."""
    return tuple([_pasted(p)[2] for p in sorted_positions(t)])


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

    def step(cell: CellTerm):
        return leaf(cell) if type(cell) is Var else mapped(cell)

    def mapped(cell: Coh):
        sub = []
        for pair in cell.sub:
            sub.append(keep_pair(pair, pair[0], (yield pair[1])))
        return Coh(cell.tree, cell.sphere, tuple(sub))

    return walk(step, {} if memo is None else memo, cell)


def _morphism(sigma: Substitution) -> Callable[[Var], CellTerm]:
    """The leaf map of a morphism: each generator goes to its image."""
    images = dict(sigma)
    return lambda v: images[v.name]


def apply_morphism(sigma: Substitution, cell: CellTerm) -> CellTerm:
    """Push a cell along a morphism given by its action on generators."""
    return map_vars(_morphism(sigma), cell)


def cell_boundary(c: Computad, cell: CellTerm) -> Sphere:
    """The sphere one dimension down: attachment for a leaf (``c.entry``), the
    coherence sphere pushed along the substitution for a Coh (memoised)."""
    if cell.dim == 0:
        raise ValueError("0-cells have no boundary")
    if type(cell) is not Coh:
        return c.entry(cell)[1]
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
    """Generators a cell depends on, including those of its boundary: its
    closure under bindings and attaching spheres, one pass over the DAG."""
    names, seen, todo = set(), set(), [cell]
    while todo:
        cell = todo.pop()
        if cell in seen:
            continue
        seen.add(cell)
        if type(cell) is not Var:
            todo += [v for _, v in cell.sub]
        else:
            names.add(cell.name)
            if cell.dim:
                sphere = c.sphere_of(cell.name)
                todo += (sphere.src, sphere.tgt)
    return frozenset(names)


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


def typecheck_cell(c: Computad, cell: CellTerm) -> None:
    """Validate a cell against a computad; raises TypecheckError on failure.

    A Var is read from ``c.table``, any other leaf through ``c.entry``.
    Each coherence node that passes over a computad is recorded in the
    computad's ``_passed`` set, so it is checked once for as long as the
    computad lives, wherever it recurs in the DAG and in later calls.  A
    failure is not recorded: a bad cell raises the same error, at the same
    path, on every call."""
    walk(_typecheck, {}, (c, cell))


def prefixed(err, path: tuple[str, ...]):
    """``err``, an error with a path into a term, with ``path`` in front."""
    err.path = path + err.path
    return err


def _typecheck(key: tuple[Computad, CellTerm]):
    c, cell = key
    if type(cell) is Var:
        entry = c.table.get(cell.name)
        if entry is None:
            raise TypecheckError("UnknownGenerator", (), f"no generator named {cell.name!r}")
        d = entry[0]
        if d != cell.dim:
            raise TypecheckError(
                "DimensionMismatch",
                (),
                f"generator {cell.name!r} has dimension {d}, used at {cell.dim}",
            )
        return True
    if type(cell) is not Coh:
        if c.entry(cell) is None:
            raise TypecheckError("UnknownGenerator", (), "this leaf is no generator of the ambient")
        return True
    passed = c._passed
    if passed is None:
        passed = set()
        remember(c, "_passed", passed)
    elif cell in passed:
        return True
    return _typecheck_coh(c, cell, passed)


def _typecheck_coh(c: Computad, cell: Coh, passed: set):
    """Check a coherence over the pasting computad of its scheme: sphere,
    keys in order, each binding, then each sector in ``attach`` order (level
    by level, canonical within a level, whatever order the table came in)."""
    if cell.tree.dim > cell.dim:
        raise TypecheckError(
            "DimensionMismatch",
            ("tree",),
            f"scheme of dimension {cell.tree.dim} in a {cell.dim}-cell",
        )
    pc = pasting_computad(cell.tree)
    for side in ("src", "tgt"):
        try:
            yield pc, getattr(cell.sphere, side)
        except TypecheckError as err:
            raise prefixed(err, ("sphere", side))
    if not parallel(pc, cell.sphere.src, cell.sphere.tgt):
        raise TypecheckError("NotParallel", ("sphere",), "coherence sphere cells are not parallel")
    if not is_full(cell.tree, cell.sphere):
        raise TypecheckError("NotFull", ("sphere",), "coherence sphere is not full over its scheme")
    keys = tuple([k for k, _ in cell.sub])
    if keys != sorted_positions(cell.tree):
        want, got, message = pc.table.keys(), set(keys), "positions out of canonical order"
        if want != got:
            missing, extra = sorted(want - got, key=nat_key), sorted(got - want, key=nat_key)
            message = f"positions mismatch: missing {missing}, extra {extra}"
        raise TypecheckError("BadSubstitution", ("sub",), message)
    for p, v in cell.sub:
        d = pc.table[p][0]
        if v.dim != d:
            raise TypecheckError(
                "DimensionMismatch",
                ("sub", p),
                f"position {p} has dimension {d}, assigned a {v.dim}-cell",
            )
        try:
            yield c, v
        except TypecheckError as err:
            raise prefixed(err, ("sub", p))
    bound = dict(cell.sub)
    for p, sector in pc.attach:
        if cell_boundary(c, bound[p]) != Sphere(bound[sector.src.name], bound[sector.tgt.name]):
            raise TypecheckError(
                "BadSubstitution",
                ("sub", p),
                f"assignment at {p} does not match the boundaries of its sector",
            )
    passed.add(cell)
    return True


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
    if type(cell) is Var:
        return cell.name
    if cell._key:
        return cell._key

    def step(cell: CellTerm):
        if type(cell) is Var:
            return cell.name
        return cell._key or gather([kid for kid, _ in children(cell)], partial(keyed, cell))

    def keyed(cell: Coh, keys: list[str]) -> str:
        inner = ";".join([f"{p}:={k}" for (p, _), k in zip(cell.sub, keys[2:])])
        remember(cell, "_key", f"coh{tree_to_list(cell.tree)}{{{keys[0]}->{keys[1]}}}({inner})")
        return cell._key

    return walk(step, {}, cell)


def double_computad(c: Computad, cells: Iterable[CellTerm]) -> tuple[Computad, dict[str, CellTerm]]:
    """Free computad on a finite boundary-closed family of cells of ``c``.

    The family is closed under iterated boundaries automatically.  Returns
    the computad (generator names are :func:`cell_key` strings) and the
    denotation map sending each generator name back to the cell it names.
    """
    denote: dict[str, CellTerm] = {}
    table: dict[str, tuple[int, Sphere | None]] = {}
    todo = list(cells)
    while todo:
        cell = todo.pop()
        key = cell_key(cell)
        if key not in denote:
            denote[key] = cell
            sphere = None
            if cell.dim > 0:
                boundary = cell_boundary(c, cell)
                todo += (boundary.src, boundary.tgt)
                d = cell.dim - 1
                sphere = Sphere(Var(cell_key(boundary.src), d), Var(cell_key(boundary.tgt), d))
            table[key] = (cell.dim, sphere)
    return Computad.build(table)[0], denote


def counit_eval(cell: CellTerm, denote: Mapping[str, CellTerm]) -> CellTerm:
    """Evaluate a cell over a free computad whose generators denote cells of
    another: each Var becomes the cell ``denote`` gives its name, coherences
    evaluate their substitutions."""
    return map_vars(lambda v: denote[v.name], cell)


# ---------------------------------------------------------------------------
# sharing: the subterms that the writers print or export once

SHARE_ABOVE = 1000
"""The largest unfolded term that the writers (:func:`omegatt.surface.cell_text`
and :func:`cell_to_json`) write as a tree.  A term with more nodes
(``size``) is written in shared form, each subterm that recurs
written once and referred to by number.  Every golden and sample is far
below it (38 nodes at most); ``comp_cell(7, 0, 7)`` has 1,370 nodes."""

# The context of a subterm, which decides what its leaves name: over the
# ambient computad, where a leaf is a generator, or inside a coherence's
# sphere, where a leaf is a position of the coherence's scheme.  A subterm is
# numbered per context; the sigils are those of the shared text form.
AMBIENT, SCHEME = "$", "@"


def children(node, context: str = AMBIENT) -> list[tuple]:
    """The children of a term node written in ``context``, each with the
    context it is written in: a coherence's sphere source and target (in
    :data:`SCHEME`), then the cells its substitution binds (in
    ``context``); the cell a hom generator wraps; none for a variable."""
    if type(node) is Coh:
        return [(node.sphere.src, SCHEME), (node.sphere.tgt, SCHEME), *[(v, context) for _, v in node.sub]]
    return [] if type(node) is Var else [(node.underlying, context)]


def shared_subterms(term) -> list[tuple[object, str]]:
    """The subterms that the shared form of ``term`` writes once, as
    ``(node, context)`` in post-order, so each comes after those it
    contains; empty when ``term`` is at most :data:`SHARE_ABOVE` nodes
    (``size``), which the writers then write as a tree.

    After the maximal sharing of van den Brand, de Jong, Klint & Olivier,
    *Efficient annotated terms* (SP&E 30(3), 2000), on top of the
    hash-consing: a coherence or hom generator is shared when it is a child
    of more than one node of the DAG, or twice a child of one, in the same
    context.  One walk over ``(node, context)`` pairs numbers the DAG;
    each is visited once."""
    if type(term) is Var or term.size <= SHARE_ABOVE:
        return []
    uses: dict[tuple, int] = {}
    order: list[tuple] = []

    def step(key: tuple):
        for kid in children(*key):
            if type(kid[0]) is not Var:
                uses[kid] = uses.get(kid, 0) + 1
                yield kid
        order.append(key)
        return True

    walk(step, {}, (term, AMBIENT))
    return [key for key in order if uses.get(key, 0) > 1]


# ---------------------------------------------------------------------------
# JSON
#
# A cell is written as a tree of objects: ``{"coh": {"tree", "sphere":
# {"src", "tgt"}, "sub": {position: cell}}}`` for a coherence and a leaf
# object for the rest (``{"var": name}``, or what the leaf codec writes).  A
# cell above SHARE_ABOVE nodes is written as ``{"sphere_nodes": [...],
# "nodes": [...], "root": cell}``: the two node tables hold its shared
# subterms (:func:`shared_subterms`) inside coherence spheres and over the
# ambient computad, each in post-order, and ``{"ref": k}`` in a context
# stands for the k-th node of that context's table.  A table entry refers
# only to earlier entries, and the sphere table only to itself.

_TABLES = {SCHEME: "sphere_nodes", AMBIENT: "nodes"}


def var_to_json(v: Var, inner=None) -> dict:
    return {"var": v.name}


def var_from_json(obj: Mapping, dim_of, decode=None) -> Var:
    return Var(obj["var"], dim_of(obj["var"]))


def cell_to_json(cell: CellTerm, leaf=var_to_json) -> dict:
    """Encode a cell, in shared form when it has more than
    :data:`SHARE_ABOVE` nodes.  A variable is written by its name;
    ``leaf(node, inner)`` encodes the other cells that are not coherences
    (the hom generators of a hom cell, say), given the encoding ``inner``
    of the cell it wraps."""

    def step(key: tuple):
        node = key[0]
        return var_to_json(node) if type(node) is Var else gather(children(*key), partial(encoded, node))

    def encoded(node, kids: list[dict]) -> dict:
        if type(node) is not Coh:
            return leaf(node, kids[0])
        sub = {p: v for (p, _), v in zip(node.sub, kids[2:])}
        return {"coh": {"tree": tree_to_list(node.tree), "sphere": {"src": kids[0], "tgt": kids[1]}, "sub": sub}}

    memo: dict = {}
    shared = shared_subterms(cell)
    if not shared:
        return walk(step, memo, (cell, AMBIENT))
    tables: dict[str, list] = {SCHEME: [], AMBIENT: []}
    for key in shared:
        table = tables[key[1]]
        table.append(walk(step, memo, key))
        memo[key] = {"ref": len(table) - 1}
    root = walk(step, memo, (cell, AMBIENT))
    return {_TABLES[SCHEME]: tables[SCHEME], _TABLES[AMBIENT]: tables[AMBIENT], "root": root}


def cell_from_json(obj: Mapping, dim_of, leaf=var_from_json) -> CellTerm:
    """Decode a cell, in either form; ``leaf(obj, dim_of, decode)`` decodes
    the cells that are neither variables nor coherences, with ``decode``
    for the cell it wraps.  ``dim_of`` resolves dimensions of Var names
    over the ambient computad; inside coherence spheres a name is a
    position and its depth is its dimension.  A node reference that is
    not to an earlier node of its table raises ValueError."""
    tables: dict[str, list] = {SCHEME: [], AMBIENT: []}

    def step(key: tuple):
        obj, context = key
        if "ref" in obj:
            k, table = obj["ref"], tables[context]
            if type(k) is not int or not 0 <= k < len(table):
                raise ValueError(f"{_TABLES[context]} reference {k!r} is not to an earlier node")
            return table[k]
        if "var" in obj:
            return var_from_json(obj, dim_of if context == AMBIENT else pos_dim)
        return decoded(obj["coh"], context) if "coh" in obj else leaf(obj, dim_of, decode)

    def decoded(body: Mapping, context: str):
        tree = tree_from_list(body["tree"])
        sphere = Sphere((yield body["sphere"]["src"], SCHEME), (yield body["sphere"]["tgt"], SCHEME))
        values = []
        for v in body["sub"].values():
            values.append((yield v, context))
        if tuple(body["sub"]) != sorted_positions(tree):  # not as cell_to_json writes it
            return Coh(tree, sphere, substitution(zip(body["sub"], values)))
        return Coh(tree, sphere, tuple(zip(sorted_positions(tree), values)))

    def decode(obj: Mapping, context: str = AMBIENT):
        return walk(step, None, (obj, context))

    if "root" not in obj:
        return decode(obj)
    for context in (SCHEME, AMBIENT):
        for entry in obj.get(_TABLES[context], []):
            tables[context].append(decode(entry, context))
    return decode(obj["root"])


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
