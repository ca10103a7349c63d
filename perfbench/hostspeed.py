"""A host-speed index: the time of a fixed pure-Python kernel.

On a shared machine the speed of plain Python code can drift within
minutes.  The kernel does the kind of work omegatt does (allocating frozen
dataclass terms, hashing, structural equality, walking a DAG, dicts,
sorting) but calls nothing in omegatt, so no change to the program can move
it.  ``run.py`` times it before the first pass and after every pass of a run
and prints its median beside the run's own times, which it leaves as
measured: a run whose times and kernel both went up ran on a slow host.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

REPS = 3  # kernel runs before the first pass and after each pass
WIDTH = 6000


@dataclass(frozen=True)
class _Node:
    label: str
    kids: tuple


def kernel() -> int:
    """Build a layered DAG of frozen dataclass nodes, then hash, compare
    and walk it."""
    layer = [_Node(f"v{i}", ()) for i in range(WIDTH)]
    for d in range(4):
        layer = [_Node(f"n{d}.{i}", (layer[i], layer[(i * 7 + 1) % WIDTH])) for i in range(WIDTH)]
    total = sum(hash(node) & 1 for node in layer[:: WIDTH // 200])
    total += sum(a == b for a, b in zip(layer[:100], layer[1:101]))
    seen, stack = set(), layer[:2000]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.kids)
    table = {(j, str(j)): sorted((j % 5, j % 3, j % 7)) for j in range(WIDTH // 4)}
    return total + len(seen) + len(table)


def kernel_seconds() -> list[float]:
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times

