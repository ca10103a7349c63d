"""The operation library: composition templates, identities, instances, and
the Eckmann-Hilton computad.

``comp_cell(n, k, m)`` is the generic k-composite of an n-cell with an
m-cell, a coherence over ``comp_tree(n, k, m)`` with the identity
substitution; ``compose`` instantiates it on actual cells.  Templates are
built along the chain of (n, k, m) down to the codimension-one square case,
which reads its sphere off the boundary-disk inclusions; every other case
lifts the template one dimension down through the target inclusion of the
scheme.  The source inclusion keeps every name, so a source is the lower
template or disk cell itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .computads import (
    CellTerm,
    Coh,
    Computad,
    Sphere,
    Var,
    boundaries,
    template_sub,
)
from .metaops import BipointedComputad, rename_cell
from .trees import (
    boundary_tree,
    comp_tree,
    disk_tree,
    sorted_positions,
    tgt_inclusion,
)


@lru_cache(maxsize=None)
def comp_template(n: int, k: int, m: int) -> Coh:
    """The generic k-composite of an n-cell with an m-cell (cached)."""
    if not (0 <= k < min(n, m)):
        raise ValueError(f"comp_cell: need 0 <= k < min(n, m), got ({n}, {k}, {m})")
    b = comp_tree(n, k, m)
    chain = [(n, k, m)]  # down to the square case, each lifting the next
    while chain[-1] != (k + 1, k, k + 1):
        a, _, c = chain[-1]
        chain.append((a - (a >= c), k, c - (c >= a)))  # the larger of a, c (both when equal) one less
    for key in chain[:0:-1]:  # bottom-up, so each finds the one below cached
        comp_template(*key)
    if len(chain) == 1:
        # square case: the scheme's k-boundary is the k-disk, and the sphere
        # is the pair of images of its top cell under the two inclusions
        # (under the source inclusion, the top cell itself).
        assert boundary_tree(k, b) == disk_tree(k)
        top = sorted_positions(disk_tree(k))[-1]  # the k-disk's one k-position, last in canonical order
        sphere = Sphere(Var(top, k), Var(tgt_inclusion(k, b)[top], k))
    else:
        prev = comp_cell(*chain[1])
        d = max(n, m) - 1
        assert boundary_tree(d, b) == prev.tree
        sphere = Sphere(prev, rename_cell(tgt_inclusion(d, b), prev))
    return Coh(b, sphere, template_sub(b))


def comp_cell(n: int, k: int, m: int) -> Coh:
    return comp_template(n, k, m)


def identity_cell(c: Computad, cell: CellTerm) -> CellTerm:
    """The identity coherence on a cell: the disk scheme filled by the cell
    and its iterated boundaries, with the degenerate full sphere on top."""
    n, b = cell.dim, disk_tree(cell.dim)
    names = sorted_positions(b)  # the top position last
    cells = _disk_cells(boundaries(c, cell), cell)
    return Coh(b, Sphere(Var(names[-1], n), Var(names[-1], n)), tuple(zip(names, cells)))


def _disk_cells(spheres: list[Sphere], top: CellTerm) -> list[CellTerm]:
    """The cells bound to the positions of a disk branch in canonical order:
    the source and target of each of ``spheres``, then ``top``."""
    return [cell for sphere in spheres for cell in (sphere.src, sphere.tgt)] + [top]


@dataclass(unsafe_hash=True)
class BoundaryMismatch(Exception):
    """The two cells of a would-be composite do not share the k-boundary."""

    k: int
    message: str

    def __str__(self) -> str:
        return f"cannot compose along dimension {self.k}: {self.message}"


def compose(c: Computad, x: CellTerm, k: int, y: CellTerm) -> CellTerm:
    """The k-composite of two cells, by instantiating the matching template."""
    n, m = x.dim, y.dim
    if not 0 <= k < min(n, m):
        raise BoundaryMismatch(k, f"cells have dimensions {n} and {m}")
    xs, ys = boundaries(c, x), boundaries(c, y)
    if xs[k].tgt != ys[k].src:
        raise BoundaryMismatch(k, "k-target of the first is not the k-source of the second")
    # canonical order: the sectors below dimension k and the k-source,
    # then for each cell its k-target sector and its own branch
    cells = _disk_cells(xs[:k], xs[k].src) + [xs[k].tgt] + _disk_cells(xs[k + 1 :], x)
    cells += [ys[k].tgt] + _disk_cells(ys[k + 1 :], y)
    template = comp_cell(n, k, m)
    return Coh(template.tree, template.sphere, tuple(zip(sorted_positions(template.tree), cells)))


def eh_computad() -> BipointedComputad:
    """One 0-generator x and two parallel scalar 2-generators a, b attached
    along (id x, id x); the stage for the Eckmann-Hilton argument."""
    point = Computad.make([["x"]], {})
    idx = identity_cell(point, Var("x", 0))
    sphere = Sphere(idx, idx)
    computad = Computad.make([["x"], [], ["a", "b"]], {"a": sphere, "b": sphere})
    return BipointedComputad(computad, (Var("x", 0), Var("x", 0)))
