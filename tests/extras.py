"""Operations that only the tests use, kept out of the kernel.

Each is a plain function over the kernel's public data: morphisms of
computads (composition and typechecking), the basepoint swap that compares
the opposite of a suspension with the suspension of the opposite, single
boundary lookups in a globular set, the size of an interning table, the
disks, suspension, hom (loop) and wedge of globular sets, the independent
oracle for the positions of trees, and the free computad of a globular set,
built with every sphere checked.

Suspension follows a fixed naming discipline: the fresh basepoints are named
"0" and "1" and every cell x of the input becomes "1."+x one dimension up.
This makes the suspension of the positions of a tree literally equal to the
positions of the suspended tree, and hom-after-suspension the identity on the
nose.
"""

from __future__ import annotations

from typing import Sequence

from shape_reference import BipointedGlobularSet, FiniteGlobularSet, checked_pointed, make, ordered

from omegatt.computads import (
    Computad,
    Sphere,
    TypecheckError,
    Var,
    apply_morphism,
    cell_boundary,
    map_vars,
    prefixed,
    typecheck_cell,
)
from omegatt.metaops import BASE_MINUS, BASE_PLUS, rename_cell


def compose_morphisms(sigma, tau):
    """sigma after tau, as an action on tau's keys."""
    images, memo = dict(sigma), {}
    return tuple([(p, map_vars(lambda x: images[x.name], v, memo)) for p, v in tau])


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
            try:
                typecheck_cell(cod, cell)
            except TypecheckError as err:
                raise prefixed(err, (v,))
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


def disk(n: int) -> FiniteGlobularSet:
    """The n-disk: two cells in each dimension below n, one cell at n.

    The d-cells below the top are named "s{d}"/"t{d}" (the d-source and
    d-target of the unique top cell "top").
    """
    if n < 0:
        raise ValueError("disk dimension must be >= 0")
    cells: list[list[str]] = [[f"s{d}", f"t{d}"] for d in range(n)]
    cells.append(["top"])
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    for d in range(1, n):
        src[f"s{d}"] = src[f"t{d}"] = f"s{d-1}"
        tgt[f"s{d}"] = tgt[f"t{d}"] = f"t{d-1}"
    if n >= 1:
        src["top"] = f"s{n-1}"
        tgt["top"] = f"t{n-1}"
    return make(cells, src, tgt)


def disk_table(x: FiniteGlobularSet) -> dict:
    """The generator table with one generator per cell of ``x``, each of
    positive dimension attached along the sphere of its two boundary cells."""
    table = dict.fromkeys(x.cells[0] if x.cells else (), (0, None))
    for d in range(1, x.ndim + 1):
        for (c, s), (_, t) in zip(x.srcs[d], x.tgts[d]):
            table[c] = (d, Sphere(Var(s, d - 1), Var(t, d - 1)))
    return table


def free_computad(x: FiniteGlobularSet) -> Computad:
    """The computad with one generator per cell of ``x``, disk attachments,
    through ``Computad.build``."""
    return Computad.build(disk_table(x))[0]


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


def suspend_glob(x: FiniteGlobularSet) -> BipointedGlobularSet:
    """Suspension: two fresh basepoints "0","1"; each d-cell c becomes the
    (d+1)-cell "1."+c.  Old 0-cells get src/tgt the new basepoints.  A
    common prefix keeps each level in canonical order."""
    cells, srcs, tgts = [("0", "1")], [()], [()]
    renamed: dict[str, str] = {}  # so the pairs share the new name strings
    for d, level in enumerate(x.cells):
        up = tuple(["1." + c for c in level])
        if d == 0:
            srcs.append(tuple([(c, "0") for c in up]))
            tgts.append(tuple([(c, "1") for c in up]))
        else:
            srcs.append(tuple([(c, renamed[b]) for c, (_, b) in zip(up, x.srcs[d])]))
            tgts.append(tuple([(c, renamed[b]) for c, (_, b) in zip(up, x.tgts[d])]))
        renamed.update(zip(level, up))
        cells.append(up)
    return checked_pointed(FiniteGlobularSet(tuple(cells), tuple(srcs), tuple(tgts)), ("0", "1"))


def hom_glob(x: BipointedGlobularSet) -> FiniteGlobularSet:
    """Loop construction: the (n+1)-cells whose 0-source is x_minus and
    0-target is x_plus become n-cells.

    When every selected cell carries the suspension prefix "1." it is
    stripped, so that hom_glob(suspend_glob(X)) == X exactly.
    """
    g = x.carrier
    # the iterated source and target of each cell down to a 0-cell
    lo = {c: c for c in g.cells_at(0)}
    hi = dict(lo)
    selected: list[list[str]] = []
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    for d in range(1, g.ndim + 1):
        level = []
        for (c, s), (_, t) in zip(g.srcs[d], g.tgts[d]):
            lo[c], hi[c] = lo[s], hi[t]
            if lo[c] == x.base_minus and hi[c] == x.base_plus:
                level.append(c)
                src[c], tgt[c] = s, t
        selected.append(level)
    names = [c for level in selected for c in level]
    strip = bool(names) and all(c.startswith("1.") for c in names)
    rename = (lambda c: c[2:]) if strip else (lambda c: c)
    # stripping the common prefix keeps each level in canonical order
    return ordered(
        [[rename(c) for c in level] for level in selected],
        {rename(c): rename(s) for c, s in src.items()},
        {rename(c): rename(t) for c, t in tgt.items()},
    )


def wedge(parts: Sequence[BipointedGlobularSet]) -> BipointedGlobularSet:
    """Wedge sum along the basepoint chain.

    Part i's x_plus is identified with part i+1's x_minus.  The chain nodes
    are named by integers 0..n (collapsed classes take the minimal index);
    every other cell of part i is tagged "i."  The empty wedge is the 0-disk
    pointed at itself (the unit) and a single part is returned unchanged, so
    the nullary/unary cospan-composition laws hold on the nose.
    """
    n = len(parts)
    if n == 0:
        return checked_pointed(disk(0), ("top", "top"))
    if n == 1:
        return parts[0]
    # Union-find over chain nodes 0..n; part i (1-based) glues node i-1 to i
    # when its two basepoints coincide.
    parent = list(range(n + 1))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, part in enumerate(parts, start=1):
        if part.base_minus == part.base_plus:
            a, b = find(i - 1), find(i)
            parent[max(a, b)] = min(a, b)

    def node(i: int) -> str:
        return str(find(i))

    cells: list[list[str]] = [list({node(i) for i in range(n + 1)})]
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    for i, part in enumerate(parts, start=1):
        g = part.carrier
        basepoints = {part.base_minus, part.base_plus}

        def tag(d: int, c: str) -> str:
            if d == 0 and c == part.base_minus:
                return node(i - 1)
            if d == 0 and c == part.base_plus:
                return node(i)
            return f"{i}.{c}"

        cells[0] += [tag(0, c) for c in g.cells_at(0) if c not in basepoints]
        for d in range(1, g.ndim + 1):
            if len(cells) == d:
                cells.append([])
            for (c, s), (_, t) in zip(g.srcs[d], g.tgts[d]):
                cells[d].append(tag(d, c))
                src[tag(d, c)], tgt[tag(d, c)] = tag(d - 1, s), tag(d - 1, t)
    return checked_pointed(make(cells, src, tgt), (node(0), node(n)))
