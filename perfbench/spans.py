"""Spans for the traced run, recorded around the program's own calls.

In the traced run every request goes through the real code: CLI requests
through ``run_cli``, library requests through the module functions.  While
the pass runs, :meth:`Tracer.patched` rebinds each spanned function
``<module>.<function>`` in the namespace of every omegatt module to a
wrapper that records a span, so a call the program makes through that name
is timed wherever it comes from.  A call that the function makes to itself,
directly or through helpers that are not spanned, stays inside the outer span.  Spans are summed
as they close into one call tree per request, so memory stays bounded however
many calls a pass makes.  A span's self time is its duration minus the
durations of its direct children, which run one after another.

``globular`` has no public entry point that a request calls directly: its
cost lands in ``laws.tree_action`` (through ``op_glob_bipointed``) and in
misses of ``trees.positions``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

from omegatt import computads, laws, oplib, trees
from omegatt.computads import Coh
from omegatt.homcat import HomGenerator
from omegatt.surface import tokenize

# caches whose hit ratio the traced run reports
CACHES = {
    "trees.positions": trees.positions,
    "trees.src_inclusion": trees.src_inclusion,
    "trees.tgt_inclusion": trees.tgt_inclusion,
    "trees.op_positions_iso": trees.op_positions_iso,
    "computads.pasting_computad": computads.pasting_computad,
    "oplib.comp_template": oplib.comp_template,
}


def _modules() -> list:
    return [m for name, m in sys.modules.items() if name.startswith("omegatt.")]


def clear_caches() -> None:
    """Empty every ``lru_cache`` in omegatt, so the next call starts cold."""
    for module in _modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                value.cache_clear()


def cache_counts() -> dict[str, tuple[int, int, int]]:
    """name -> (hits, misses, current size)."""
    return {name: tuple(fn.cache_info()[i] for i in (0, 1, 3)) for name, fn in CACHES.items()}


def spanned_function(span: str):
    """The function behind a span name; ``laws.<family>`` is ``laws.law_<family>``."""
    module_name, name = span.split(".")
    module = importlib.import_module(f"omegatt.{module_name}")
    return getattr(module, name, None) or getattr(module, f"law_{name}")


@contextlib.contextmanager
def rebound(replacements: dict):
    """Rebind, in every omegatt module, each name bound to a key of
    ``replacements`` to its value; undo it on exit."""
    by_id = {id(fn): new for fn, new in replacements.items()}
    saved = []
    for module in _modules():
        for name, value in list(vars(module).items()):
            if id(value) in by_id:
                saved.append((module, name, value))
                setattr(module, name, by_id[id(value)])
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def law_families(max_nodes: int, dims_upto: int) -> list[tuple[str, object, tuple]]:
    """(family, function, arguments) of each law family, in the order and
    with the arguments that ``laws.run_laws`` gives them: read off a run of
    ``run_laws`` in which the families only record their call."""
    calls = []

    def recorder(name: str, fn):
        return lambda *args: calls.append((name, fn, args))

    families = {fn: recorder(name[len("law_") :], fn) for name, fn in vars(laws).items() if name.startswith("law_")}
    with rebound(families):
        laws.run_laws(max_nodes, dims_upto)
    return calls


class Plain:
    """Calls without spans: the untraced passes."""

    def begin_request(self) -> None:
        pass

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def patched(self, spans: list[str]):
        return contextlib.nullcontext()


class Tracer(Plain):
    """Spans aggregated as they close: one call tree per request, with a
    node per distinct path of span names that holds its calls and seconds."""

    def __init__(self) -> None:
        self.trees: list[list] = []  # the root node of each request
        self.texts: list[str] = []
        self.begin_request()

    def begin_request(self) -> None:
        root = ["request", 0, 0.0, {}]  # [name, calls, seconds, children by name]
        self.trees.append(root)
        self.stack = [root]

    def call(self, name: str, fn, *args, **kwargs):
        parent = self.stack[-1]
        if parent[0] == name:  # recursion stays in its span
            return fn(*args, **kwargs)
        node = parent[3].get(name)
        if node is None:
            node = parent[3][name] = [name, 0, 0.0, {}]
        self.stack.append(node)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            node[2] += time.perf_counter() - start
            node[1] += 1
            self.stack.pop()

    def _parse(self, fn):
        def parse(text, *args, **kwargs):
            self.texts.append(text)
            return self.call("surface.parse", fn, text, *args, **kwargs)

        return parse

    def patched(self, spans: list[str]):
        """Route the program's calls to each ``<module>.<function>`` of
        ``spans`` through a span while the context is open."""
        wrappers = {}
        for span in spans:
            fn = spanned_function(span)
            wrappers[fn] = self._parse(fn) if span == "surface.parse" else functools.partial(self.call, span, fn)
        return rebound(wrappers)

    def nodes(self):
        """(request id, node) for every node below the request roots."""
        stack = [(i, child) for i, root in enumerate(self.trees) for child in root[3].values()]
        while stack:
            request, node = stack.pop()
            yield request, node
            stack.extend((request, child) for child in node[3].values())

    def totals(self) -> dict[str, tuple[float, int]]:
        """name -> (self seconds, calls); self time is a node's time minus
        its children's, which ran inside it one after another."""
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for _, (name, calls, seconds, children) in self.nodes():
            totals[name][0] += seconds - sum(child[2] for child in children.values())
            totals[name][1] += calls
        return {name: (s, n) for name, (s, n) in totals.items()}

    def call_trees(self) -> list:
        """The call tree of each request that made a call, as nested
        ``[name, calls, seconds, children]``."""

        def plain(node):
            return [node[0], node[1], node[2], [plain(child) for child in node[3].values()]]

        return [[i, [plain(child) for child in root[3].values()]] for i, root in enumerate(self.trees) if root[3]]

    def token_count(self) -> int:
        """Tokens in every text handed to ``surface.parse``, counted after
        the pass, untimed."""
        return sum(len(tokenize(text)) for text in self.texts)


def term_counts(terms) -> tuple[int, int, int]:
    """Tree nodes, structurally distinct subterms and distinct objects,
    summed over ``terms``.  A node is a Var, a Coh or a HomGenerator; its
    children are the sphere's two cells and the substitution's values."""

    def children(t):
        if isinstance(t, Coh):
            return [t.sphere.src, t.sphere.tgt, *(v for _, v in t.sub)]
        if isinstance(t, HomGenerator):
            return [t.underlying]
        return []

    nodes = distinct = objects = 0
    for term in terms:
        size: dict[int, int] = {}
        shape: dict[int, int] = {}
        shapes: dict[tuple, int] = {}
        stack = [(term, False)]
        while stack:  # post-order without recursion
            t, done = stack.pop()
            if id(t) in size:
                continue
            kids = children(t)
            if not done:
                stack.append((t, True))
                stack.extend((k, False) for k in kids if id(k) not in size)
                continue
            size[id(t)] = 1 + sum(size[id(k)] for k in kids)
            if isinstance(t, Coh):
                key = ("coh", t.tree, tuple(p for p, _ in t.sub), *(shape[id(k)] for k in kids))
            elif isinstance(t, HomGenerator):
                key = ("gen", shape[id(kids[0])])
            else:
                key = ("var", t.name, t.dim)
            shape[id(t)] = shapes.setdefault(key, len(shapes))
        nodes += size[id(term)]
        distinct += len(shapes)
        objects += len(size)
    return nodes, distinct, objects
