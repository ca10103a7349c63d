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

A memo that maps a cell to another cell of the same dimension (its
opposite, through :func:`memoise`) holds the result strongly only when the
call that made the entry also built the result, and weakly otherwise.
Strong entries then always point from an older node to a younger one, so
the memos never close a reference cycle among cells, and reference
counting alone frees a dropped term: no garbage waits for the cycle
collector.

The memo slots, and what bounds each one's lifetime:

* ``BataninTree._op`` (:func:`omegatt.trees.op_tree` per dimension set),
  ``._boundary`` (:func:`omegatt.trees.boundary_tree` per dimension) and
  ``._names`` (:func:`omegatt.trees.sorted_positions`): a tree lives
  as long as the position caches of :mod:`omegatt.trees` hold it, which
  is the life of the process for every tree they have seen.
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
  :func:`omegatt.homcat.hom_realize` per basepoint pair) and
  ``._passed`` (the cells that passed
  :func:`omegatt.computads.typecheck_cell` over it): they die with their
  computad.  ``_hom`` and ``_passed`` hold cells strongly; cells never
  refer to computads, so those entries close no cycle, and they are
  bounded by the cells checked or factored over the computad while it
  lives.  The pasting computads that
  :func:`omegatt.computads.pasting_computad` caches live for the process,
  so their ``_passed`` sets keep the sphere cells checked over each scheme
  seen.

No memo records a failure: a call that raises stores nothing for the
node it failed on, so it raises again on the next call.

Nodes are immutable; their slots are written only while a node is built
and, for memo slots, through :func:`remember`.  The tables take no lock:
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

    @classmethod
    def table_size(cls) -> int:
        """Number of live interned nodes of this class."""
        return len(cls._table)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copying or unpickling rebuilds through the constructor, which interns
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def recall(memo: dict | None, key):
    """The node stored under ``key`` in a memo made by :func:`memoise`, or
    None when there is none or its weakly held node has been freed."""
    if memo is None:
        return None
    out = memo.get(key)
    if type(out) is weakref.ref:
        out = out()
    return out


def memoise(node, slot: str, key, value, created: bool) -> None:
    """Store ``value`` under ``key`` in the memo dict in ``node``'s
    ``slot``: strongly when ``created`` (the caller just built ``value``,
    so it is younger than ``node``), weakly otherwise.  ``node`` and
    ``value`` are interned nodes (terms or computads)."""
    memo = getattr(node, slot)
    if memo is None:
        memo = {}
        remember(node, slot, memo)
    memo[key] = value if created else weakref.ref(value)
