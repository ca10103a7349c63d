"""Operations that only the tests use, kept out of the kernel.

Each is a plain function over the kernel's public data: morphisms of
computads (composition and typechecking), the basepoint swap that compares
the opposite of a suspension with the suspension of the opposite, the
tagged JSON reader of globular sets, single boundary lookups in a globular
set, and the size of an interning table.
"""

from __future__ import annotations

from omegatt.computads import (
    Sphere,
    TypecheckError,
    apply_morphism,
    cell_boundary,
    map_values,
    map_vars,
    typecheck_cell,
)
from omegatt.globular import BipointedGlobularSet, FiniteGlobularSet
from omegatt.metaops import BASE_MINUS, BASE_PLUS, rename_cell


def compose_morphisms(sigma, tau):
    """sigma after tau, as an action on tau's keys."""
    images, memo = dict(sigma), {}
    return map_values(tau, lambda v: map_vars(lambda x: images[x.name], v, memo))


def typecheck_morphism(dom, cod, sigma) -> None:
    """A morphism must bind every generator of ``dom`` to a cell of ``cod`` of
    the same dimension, compatibly with the attaching spheres."""
    bound = dict(sigma)
    for d in range(dom.bound + 1):
        for v in dom.generators_at(d):
            if v not in bound:
                raise TypecheckError("BadSubstitution", (v,), f"generator {v!r} unbound")
            cell = bound[v]
            if cell.dim != d:
                raise TypecheckError(
                    "DimensionMismatch", (v,), f"{v!r} has dimension {d}, image has {cell.dim}"
                )
            typecheck_cell(cod, cell, (v,))
            if d >= 1:
                want = dom.sphere_of(v)
                got = cell_boundary(cod, cell)
                if got != Sphere(apply_morphism(sigma, want.src), apply_morphism(sigma, want.tgt)):
                    raise TypecheckError(
                        "BadSubstitution", (v,), f"image of {v!r} has the wrong boundary"
                    )


def swap_basepoints(cell):
    """Rename the two suspension basepoints into each other; the comparison
    map between op-of-suspension and suspension-of-op when 1 is reversed."""
    return rename_cell({BASE_MINUS: BASE_PLUS, BASE_PLUS: BASE_MINUS}, cell)


def glob_from_json(obj):
    """A globular set from its JSON, bipointed when the object has a base."""
    if "base" in obj:
        return BipointedGlobularSet.from_json(obj)
    return FiniteGlobularSet.from_json(obj)


def _boundary_of(pairs, level, x: str) -> str:
    """The boundary of ``x`` in ``pairs``, which lists ``level`` in order."""
    try:
        return pairs[level.index(x)][1]
    except (ValueError, IndexError):
        raise KeyError(x) from None


def src_of(g: FiniteGlobularSet, d: int, x: str) -> str:
    return _boundary_of(g.srcs[d], g.cells[d], x)


def tgt_of(g: FiniteGlobularSet, d: int, x: str) -> str:
    return _boundary_of(g.tgts[d], g.cells[d], x)


def table_size(cls) -> int:
    """Number of live interned nodes of a hash-consed class."""
    return len(cls._table)
