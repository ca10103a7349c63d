"""Hash-consing: one object per structurally distinct term node.

After Filliâtre & Conchon, *Type-safe modular hash-consing* (ML Workshop
2006).  Each node class keeps a table from a node's structural key (its
fields; child nodes are interned already, so they compare by identity) to
a weak reference to the node.  Building a node whose key is in the table
returns the node that is there, so structurally equal nodes are one
object: equality is identity and the hash is the identity hash, both O(1)
whatever the size of the term.

The table holds its nodes weakly.  A node that nothing else refers to is
freed, and its entry leaves the table with it, so a table never holds more
than the live nodes.  Memos of pure traversals are stored in slots of the
node they start from, so each lives exactly as long as its node.

Two helpers hold the memo rules.  :func:`cached` keeps a memo dict in a
slot of a term or computad, made on first use.  Where it maps a cell to
another cell of the same dimension (its opposite, say), it holds the
result strongly only when the call that made the entry also built the
result, and weakly otherwise.  Strong entries then always point from an
older node to a younger one, so the memos never close a reference cycle
among cells, and reference counting alone frees a dropped term: no
garbage waits for the cycle collector.  :func:`walker` walks a DAG once,
with its memo for one call or in a slot.

The memo slots, and what bounds each one's lifetime:

* ``BataninTree._op`` (:func:`omegatt.trees.op_tree` per dimension set),
  ``._boundary`` (:func:`omegatt.trees.boundary_tree` per dimension) and
  ``._names`` (:func:`omegatt.trees.sorted_positions`): a tree lives
  as long as the position caches of :mod:`omegatt.trees` hold it, which
  is the life of the process for every tree they have seen.  The first
  two are dicts made with the tree and read directly, without
  :func:`cached`: they are on the hot path of the tree laws.
* ``Coh._op`` (:func:`omegatt.metaops.op_cell` per dimension set),
  ``._boundary`` (:func:`omegatt.computads.cell_boundary`) and ``._key``
  (:func:`omegatt.computads.cell_key`), ``HomGenerator._op``
  (:func:`omegatt.homcat.op_homcell` per dimension set) and
  ``Sphere._op`` (the reversed sphere of a coherence,
  :func:`omegatt.metaops.op_sphere_over`, per dimension set and scheme):
  they die with their node, so they are bounded by the live terms.  The
  ``_op`` entries are held as described above; a node's ``_op`` dict
  holds at most one entry per dimension set asked for, and a sphere's at
  most one per dimension set and scheme it is reversed over.
* ``Computad._dims`` and ``._spheres`` (name tables), ``._op``,
  ``._susp`` and ``._desusp`` (its opposites, suspension and
  desuspension, held as ``Coh._op`` holds its entries), ``._hom``
  (:func:`omegatt.homcat.hom_factor` and
  :func:`omegatt.homcat.hom_realize` per basepoint pair, with the
  suspended sphere cells of the latter) and
  ``._passed`` (the cells that passed
  :func:`omegatt.computads.typecheck_cell` over it): they die with their
  computad.  ``_hom`` and ``_passed`` hold cells strongly; cells never
  refer to computads, so those entries close no cycle, and they are
  bounded by the cells checked or factored over the computad while it
  lives.  ``_hom`` keeps, per basepoint pair, the two walks with their
  memos.  The pasting computads that
  :func:`omegatt.computads.pasting_computad` caches live for the process,
  so their ``_passed`` sets keep the sphere cells checked over each scheme
  seen.

No memo records a failure: a call that raises stores nothing for the
node it failed on, so it raises again on the next call.

Nodes are immutable; their slots are written only while a node is built
and, for memo slots, through :func:`remember`.  ``BataninTree.dim`` is an
attribute computed at construction, not a memo.  The tables take no lock:
build terms from one thread at a time.
"""

from __future__ import annotations

import weakref

remember = object.__setattr__  # write a memo slot of a node


class HashConsed:
    """Base of the interned node classes.

    A subclass lists its slots in ``__slots__`` with the constructor's
    arguments first and names those arguments in ``__match_args__``; its
    ``__new__`` builds the node through :meth:`_cons`.
    """

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        table: dict = {}

        def forget(ref: weakref.KeyedRef) -> None:
            if table.get(ref.key) is ref:
                del table[ref.key]

        cls._table = table
        cls._forget = staticmethod(forget)

    @classmethod
    def _live(cls, key) -> "HashConsed | None":
        """The live node with structural key ``key``, if there is one."""
        ref = cls._table.get(key)
        return None if ref is None else ref()

    @classmethod
    def _cons(cls, key, values: tuple) -> tuple["HashConsed", bool]:
        """``(node, created)``: the live node with structural key ``key``,
        or a new one whose slots, in ``__slots__`` order, take ``values``."""
        ref = cls._table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node, False
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            remember(node, name, value)
        cls._table[key] = weakref.KeyedRef(node, cls._forget, key)
        return node, True

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copying or unpickling rebuilds through the constructor, which interns
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def cached(node, slot: str, key, build, *args):
    """The value under ``key`` in the memo dict in ``node``'s ``slot``; on
    a miss ``build(*args)`` gives ``(value, created)``, and ``value`` is
    stored strongly when ``created`` (the call built it, so it is younger
    than ``node``) and weakly otherwise.  A freed weak entry is built
    again; a ``build`` that raises stores nothing."""
    memo = getattr(node, slot)
    if memo is not None:
        out = memo.get(key)
        if type(out) is weakref.ref:
            out = out()
        if out is not None:
            return out
    out, created = build(*args)
    memo = getattr(node, slot)  # made by now if ``build`` came back here
    if memo is None:
        memo = {}
        remember(node, slot, memo)
    memo[key] = out if created else weakref.ref(out)
    return out


def walker(step, memo: dict):
    """A memoised walk over a DAG: ``again(node, *args)`` returns the value
    ``memo`` holds for ``node``, or stores and returns
    ``step(node, again, *args)``, where ``step`` calls ``again`` on the
    children it needs.  The arguments reach only the first visit of a node
    (an error path, say); the value must not depend on them."""
    return _Walk(step, memo).again


class _Walk:
    """``again`` is a bound method: a closure that passed itself on would
    refer to itself, a cycle that keeps ``memo`` until the cycle collector
    runs."""

    __slots__ = ("step", "memo")

    def __init__(self, step, memo: dict) -> None:
        self.step, self.memo = step, memo

    def again(self, node, *args):
        out = self.memo.get(node)
        if out is None:
            step = self.step  # a call without star-arguments is the faster one
            out = self.memo[node] = step(node, self.again, *args) if args else step(node, self.again)
        return out
