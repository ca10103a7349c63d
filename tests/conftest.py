"""Shared hypothesis strategies and term walks for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from omegatt.computads import Coh
from omegatt.globular import dimset
from omegatt.trees import BataninTree, all_trees


def trees(max_nodes: int = 5) -> st.SearchStrategy[BataninTree]:
    return st.sampled_from(list(all_trees(max_nodes)))


def dimsets(max_dim: int = 3) -> st.SearchStrategy[frozenset[int]]:
    return st.frozensets(st.integers(min_value=1, max_value=max_dim)).map(dimset)


def coh_nodes(term) -> list[Coh]:
    """Every coherence node of a term, once each: through substitutions,
    coherence spheres and the cells that hom generators wrap."""
    seen: dict = {}
    todo = [term]
    while todo:
        node = todo.pop()
        if node in seen:
            continue
        seen[node] = None
        if isinstance(node, Coh):
            todo += [node.sphere.src, node.sphere.tgt, *(v for _, v in node.sub)]
        elif hasattr(node, "underlying"):
            todo.append(node.underlying)
    return [node for node in seen if isinstance(node, Coh)]
