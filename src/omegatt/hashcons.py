"""Hash-consing: one object per structurally distinct term node.

After Filliâtre & Conchon, *Type-safe modular hash-consing* (ML Workshop
2006).  Each node class keeps a table from a node's structural key (its
fields; child nodes are interned already, so they compare by identity) to
a weak reference to the node.  Building a node whose key is in the table
returns the node that is there, so structurally equal nodes are one
object: equality is identity and the hash is the identity hash, both O(1)
whatever the size of the term.  A node that nothing else refers to is
freed, and its entry leaves the table with it.

Memos of pure traversals are stored in slots of the node they start from,
so each lives exactly as long as its node.  :func:`recall` and
:func:`store` keep a memo dict in a slot, made on first use, and
:func:`slot_memo` makes a function that keeps its values so, counted as an
``lru_cache`` counts them.  Where :func:`store` maps a node to another
of its class (a cell or a tree to its opposite, say), it holds the result
strongly only when the call that made the entry also built the result, and
weakly otherwise.  Strong entries then always point from an older node to
a younger one, so the memos never close a reference cycle, and reference
counting alone frees a dropped term or tree.
:func:`walk` drives the deep traversals of terms and documents that finish
a node after its children (to use their values, or to write after them),
with its memo for one call or in a slot, and takes no Python frame per
level.  The tree walks that run for every tree of a law sweep
(:func:`omegatt.trees.op_tree`, :func:`omegatt.trees.boundary_tree`) are
work-list loops over the tree's own memo dict instead, with no generator
per node, and a pass that only collects is a plain work-list.

The memo slots and tables, and what bounds each one:

* ``BataninTree._op`` (:func:`omegatt.trees.op_tree` per dimension set,
  through :func:`recall` and :func:`store`, so a tree and its opposite
  close no cycle), ``._boundary`` (:func:`omegatt.trees.boundary_tree`
  per dimension below the tree's own: at or above it the boundary is the
  tree, kept in no entry; a boundary is a smaller tree, so its entries
  are strong) and ``._names`` (:func:`omegatt.trees.sorted_positions`,
  the one tuple of the tree's position names, which every table below
  shares).  The first two are dicts made with the tree: they are on the
  hot path of the tree laws.
* The shape tables of a tree, each kept by :func:`slot_memo` on the
  smallest tree that determines it.  They make no strings or records: an
  entry holds containers of the shared ones of
  :data:`omegatt.trees.POSITIONS`.

  - ``._levels``: :func:`omegatt.trees.positions`, per dimension a tuple
    of the position records, which only the laws read;
  - ``._src``: :func:`omegatt.trees.src_inclusion`, the identity dict on
    the tree's names, kept on the boundary ``boundary_tree(k, t)`` and so
    one dict for every tree with that boundary;
  - ``._tgt``: :func:`omegatt.trees.tgt_inclusion` per dimension k, a dict
    from the boundary's names to the tree's, kept on
    ``boundary_tree(k + 1, t)``, all of ``t`` that it reads;
  - ``._iso`` and ``._order``: :func:`omegatt.trees.op_positions_iso` per
    dimension set, a dict from the opposite's names to the tree's, and
    :func:`omegatt.trees.op_sub_order` per dimension set, a tuple of
    (opposite's name, index) pairs, both read off one ordered walk; the
    dict of ``op_tree(w, t)`` is the inverse of that of ``t``.

  A tree's tables die with it.  A law sweep holds the trees below its
  node bound until it ends, and those at the bound one orbit under the
  dimension sets at a time (:func:`omegatt.laws.tree_orbits`), so it
  holds the tables of one orbit of its largest trees at a time.
* ``Coh._op`` (:func:`omegatt.metaops.op_cell` per dimension set),
  ``._boundary`` (:func:`omegatt.computads.cell_boundary`), ``._key``
  (:func:`omegatt.computads.cell_key`), ``HomGenerator._op``
  (:func:`omegatt.homcat.op_homcell` per dimension set) and ``Sphere._op``
  (the reversed sphere of a coherence, per dimension set and scheme): they
  die with their node, and an ``_op`` dict holds one entry per dimension
  set (and scheme) asked for.
* ``Computad._views`` (its generators in canonical order), ``._op``,
  ``._susp`` and ``._desusp`` (its opposites, suspension and
  desuspension), ``._hom`` (per basepoint pair, the memos of
  :func:`omegatt.homcat.hom_factor` and ``hom_realize`` and the hom cells
  that passed over the hom computad) and ``._passed`` (the cells that
  passed :func:`omegatt.computads.typecheck_cell` over it): they die with
  their computad.  They hold cells, which never refer to computads, and
  never a hom computad view, so they close no cycle.

Two dicts keyed by position name live for the process, each bounded by the
distinct names met: :data:`omegatt.trees.POSITIONS` (each name's record:
dimension, ``lo``/``hi``, sector names) and
``omegatt.computads._PASTED`` (each name's pasting-computad item, attach
pair and template binding).  The ``lru_cache`` tables live for the process
too, and hold every tree or composite they were asked for:

* :func:`omegatt.computads.pasting_computad` (tree), the shape of a scheme
  that the kernel reads, whose ``_passed`` keeps the sphere cells checked
  over the scheme, and :func:`omegatt.computads.template_sub` (tree);
* :func:`omegatt.oplib.comp_template` ((n, k, m)): the template
  coherence, filled bottom-up along the chain of templates below it.

No memo records a failure: a call that raises stores nothing for the node
it failed on.  Nodes are immutable; their slots are written only while a
node is built and, for memo slots, through :func:`remember`.  The one
exception, a computad draft, is in no table: its table grows by ``add``
until ``done`` interns it.  The tables take no lock: build terms from one
thread at a time.
"""

from __future__ import annotations

import functools
import weakref
from collections import namedtuple
from types import GeneratorType

remember = object.__setattr__  # write a memo slot of a node
CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")  # the fields of an lru_cache's, in its order


class HashConsed:
    """Base of the interned node classes.

    A subclass names its constructor's arguments in ``__match_args__``,
    which copying and pickling read back, and builds a node through
    :meth:`_cons`, which fills ``__slots__`` in order.  For the term nodes
    the arguments are the first slots; a ``Computad`` is built from its
    generator table, and its arguments are views of it.
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


def recall(node, slot: str, key):
    """The value under ``key`` in the memo dict in ``node``'s ``slot``, or None."""
    memo = getattr(node, slot)
    out = None if memo is None else memo.get(key)
    return out() if type(out) is weakref.ref else out


def store(node, slot: str, key, value, created: bool):
    """Keep ``value`` under ``key`` in the memo dict in ``node``'s ``slot``:
    strongly when ``created`` (the caller built it), weakly otherwise."""
    memo = getattr(node, slot)
    if memo is None:
        memo = {}
        remember(node, slot, memo)
    memo[key] = value if created else weakref.ref(value)
    return value


def slot_memo(cls, slot: str, home=None, keyed: bool = True):
    """Memoise a function of a node of ``cls`` in the memo slot ``slot`` of
    the node that determines its value, so each value dies with that node.

    The function takes ``(key, t)``, or ``t`` alone when neither ``keyed``
    nor ``home`` is given.  The node that keeps the value is ``home(key,
    t)``, or ``t`` when ``home`` is None, and on a miss the function is
    called with ``t`` replaced by that node.  When ``keyed`` the slot holds
    a dict keyed by ``key``, otherwise the one value (None: nothing yet).
    The memoised function counts its hits and misses as an ``lru_cache``
    does: ``cache_info()`` gives them with ``currsize``, the entries held
    by the live nodes, and ``cache_clear()`` empties the slot of every
    live node."""

    def decorate(build):
        hits = misses = 0

        if keyed or home is not None:
            def memoised(key, t):
                nonlocal hits, misses
                node = t if home is None else home(key, t)
                memo = getattr(node, slot)
                out = memo.get(key) if keyed and memo is not None else memo
                if out is not None:
                    hits += 1
                    return out
                misses += 1
                out = build(key, node)
                if keyed:
                    memo = getattr(node, slot)  # build may have made it
                    if memo is None:
                        memo = {}
                        remember(node, slot, memo)
                    memo[key] = out
                else:
                    remember(node, slot, out)
                return out
        else:
            def memoised(t):
                nonlocal hits, misses
                out = getattr(t, slot)
                if out is not None:
                    hits += 1
                    return out
                misses += 1
                out = build(t)
                remember(t, slot, out)
                return out

        def live():
            nodes = [ref() for ref in list(cls._table.values())]
            return [node for node in nodes if node is not None and getattr(node, slot) is not None]

        def cache_info() -> CacheInfo:
            held = live()
            return CacheInfo(hits, misses, None, sum([len(getattr(n, slot)) for n in held]) if keyed else len(held))

        def cache_clear() -> None:
            nonlocal hits, misses
            hits = misses = 0
            for node in live():
                remember(node, slot, None)

        functools.update_wrapper(memoised, build)
        memoised.cache_info, memoised.cache_clear = cache_info, cache_clear
        return memoised

    return decorate


def walk(step, memo, root):
    """The value of ``root`` in a memoised walk over a DAG.

    ``step(node)`` gives a node's value, or a generator that yields each
    child it needs, is sent the child's value and returns its own; pending
    generators wait on a list, not on Python's stack.  ``memo`` (None keeps
    nothing) maps each node to its value once its step completes.  A
    child's exception is thrown into its parent at the ``yield``, so checks
    fail in the order a recursion would run them."""
    out = None if memo is None else memo.get(root)
    if out is not None:
        return out
    gen = step(root)
    if type(gen) is not GeneratorType:
        if memo is not None:
            memo[root] = gen
        return gen
    node, stack, out, error = root, [], None, None  # stack: the parents of node
    while True:
        try:
            child, error = gen.send(out) if error is None else gen.throw(error), None
            out = None if memo is None else memo.get(child)
            if out is None:
                out = step(child)
                if type(out) is GeneratorType:
                    stack.append((node, gen))
                    node, gen, out = child, out, None
                elif memo is not None:
                    memo[child] = out
        except StopIteration as stop:
            out, error = stop.value, None
            if memo is not None:
                memo[node] = out
            if not stack:
                return out
            node, gen = stack.pop()
        except Exception as err:
            error = err
            if gen.gi_frame is None:  # raised by gen itself, not by a child's step
                if not stack:
                    error = None  # the traceback holds this frame: no cycle through it
                    raise
                node, gen = stack.pop()


def gather(children, combine):
    """A step that yields each of ``children`` and returns ``combine`` of their values."""
    values = []
    for child in children:
        values.append((yield child))
    return combine(values)
