"""Seeded input generators for the ``documents`` and ``deep`` workloads.

Every input carries its verdict by construction: the ``ok`` lines that
``omegatt check`` must print, or the line and error kind of the one defect
injected into it.  Generation is pure text and calls nothing in omegatt, so
the program's caches stay cold until the timed phase.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# error kind -> text the located error message must contain
DEFECT_KINDS = {
    "not-full": "NotFull",
    "mismatch": "cannot compose along dimension 0",
    "unknown-name": "unknown cell",
    "duplicate": "is already declared",
}

# dimension sets handed to `op --dims`; chain documents reach dimension 3
OP_DIMS = ("1", "2", "3", "1,2", "1,3", "2,3", "1,2,3")

CHAIN_MIN, CHAIN_MAX = 4, 32


@dataclass
class ChainDoc:
    """A chain-N computad: 0-cells x0..xN, 1-cells fi : x(i-1) -> xi and one
    2-cell ai : fi -> fi per 1-cell, followed by N lets."""

    n: int
    lines: list[str] = field(default_factory=list)
    dual_lines: list[str] = field(default_factory=list)  # the opposite at dimension 1
    lets: list[tuple[str, int]] = field(default_factory=list)  # (name, dim)
    defect: tuple[int, str] | None = None  # (1-based line, kind)
    vertical: int | None = None  # i of a `comp(2,1,2)[ai, ai]` let
    vertical_name: str | None = None

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    @property
    def dual_text(self) -> str:
        """The document written directly in the opposite computad at
        dimension 1: every 1-cell reversed, every composite along dimension
        0 in reverse order.  `op --dims w` must print its canonical text
        when 1 is in w, and the canonical text of the document otherwise."""
        return "\n".join(self.dual_lines) + "\n"

    def check_lines(self) -> str:
        out = ["ok computad chain"]
        out += [f"ok let {name} ({dim}-cell)" for name, dim in self.lets]
        return "".join(line + "\n" for line in out)

    def dot_text(self) -> str:
        """What `export --format dot` prints: one digraph per dimension."""

        def layer(d: int, nodes: list[str], edges: list[tuple[str, str, str]]) -> str:
            out = [f'digraph "chain_dim{d}" {{']
            out += [f'  "{v}";' for v in nodes]
            out += [f'  "{s}" -> "{t}" [label="{g}"];' for s, t, g in edges]
            return "\n".join(out + ["}"])

        # generators print in canonical order: names without dots sort as strings
        ones = sorted(range(1, self.n + 1), key=lambda i: f"f{i}")
        one = layer(
            1,
            sorted(f"x{i}" for i in range(self.n + 1)),
            [(f"x{i - 1}", f"x{i}", f"f{i}") for i in ones],
        )
        two = layer(
            2,
            [f"f{i}" for i in ones],
            [(f"f{i}", f"f{i}", f"a{i}") for i in ones],
        )
        return one + "\n\n" + two + "\n"

    def id_text(self, i: int) -> str:
        """What `id fi` prints."""
        return f"coh [[]] {{ 1.0 -> 1.0 }} [0 => x{i - 1}, 1 => x{i}, 1.0 => f{i}]\n"

    def hom_text(self) -> str:
        """What `hom --src x(i-1) --tgt xi factor` prints for the vertical let."""
        i = self.vertical
        f, a = f"homgen(f{i})", f"homgen(a{i})"
        return f"coh [[],[]] {{ 0 -> 2 }} [0 => {f}, 1 => {f}, 1.0 => {a}, 2 => {f}, 2.0 => {a}]\n"


def chain_doc(n: int, rng: random.Random, defect: str | None = None) -> ChainDoc:
    """A chain-N document whose lets use comp(1,0,1), comp(2,0,2),
    comp(2,1,2) and id, cycling through six shapes with seeded indices."""
    doc = ChainDoc(n)

    def emit(line: str, dual: str | None = None) -> None:
        doc.lines.append(line)
        doc.dual_lines.append(line if dual is None else dual)

    emit(f"# chain of {n} 1-cells with a scalar 2-cell on each")
    emit("computad chain {")
    for i in range(n + 1):
        emit(f"  x{i} : * ;")
    dup = rng.randint(1, n) if defect == "duplicate" else None
    for i in range(1, n + 1):
        emit(f"  f{i} : x{i - 1} -> x{i} ;", f"  f{i} : x{i} -> x{i - 1} ;")
        if i == dup:
            emit(f"  f{i} : x{i - 1} -> x{i} ;")
            doc.defect = (len(doc.lines), defect)
    for i in range(1, n + 1):
        emit(f"  a{i} : f{i} -> f{i} ;")
    emit("}")
    emit("")

    bad_at = rng.randrange(n) if defect in ("not-full", "mismatch", "unknown-name") else None
    pairs: list[tuple[str, int]] = []  # lets `comp(1,0,1)[fi, f(i+1)]`, by i
    for j in range(n):
        if j == bad_at:
            i = rng.randint(1, n - 1)
            expr = {
                "not-full": "coh [[],[]] { x -> x } []",
                "mismatch": f"comp(1,0,1)[f{i + 1}, f{i}]",
                "unknown-name": f"comp(1,0,1)[f{i}, g{i}]",
            }[defect]
            emit(f"let bad = {expr}")
            doc.defect = (len(doc.lines), defect)
        name = f"l{j + 1}"
        shape = j % 6
        i = rng.randint(1, n - 1)
        # the dual reverses composites along dimension 0; the rest are
        # self-dual, because every 2-cell is a loop ai : fi -> fi
        if shape == 0:
            expr, dual, dim = f"comp(1,0,1)[f{i}, f{i + 1}]", f"comp(1,0,1)[f{i + 1}, f{i}]", 1
            pairs.append((name, i))
        elif shape == 1:
            expr, dual, dim = f"comp(2,0,2)[a{i}, a{i + 1}]", f"comp(2,0,2)[a{i + 1}, a{i}]", 2
        elif shape == 2:
            expr, dual, dim = f"comp(2,1,2)[a{i}, a{i}]", None, 2
            if doc.vertical is None:
                doc.vertical, doc.vertical_name = i, name
        elif shape == 3:
            expr, dual, dim = f"id(f{i})", None, 2
        elif shape == 4:
            expr, dual, dim = f"id(a{i})", None, 3
        else:
            prev, i = pairs[-1]
            if i + 2 <= n:
                expr, dual = f"comp(1,0,1)[{prev}, f{i + 2}]", f"comp(1,0,1)[f{i + 2}, {prev}]"
            else:
                expr, dual = f"comp(1,0,1)[f{i - 1}, {prev}]", f"comp(1,0,1)[{prev}, f{i - 1}]"
            dim = 1
        emit(f"let {name} = {expr}", dual and f"let {name} = {dual}")
        doc.lets.append((name, dim))
    return doc


def chain_sizes(count: int, rng: random.Random) -> list[int]:
    """Log-uniform sizes in [CHAIN_MIN, CHAIN_MAX]: the midpoints of
    ``count`` strata of equal width in log space, in seeded order.  Every
    seed gets the same sizes, so the cost of a session hardly depends on it."""
    ratio = CHAIN_MAX / CHAIN_MIN
    sizes = [round(CHAIN_MIN * ratio ** ((j + 0.5) / count)) for j in range(count)]
    rng.shuffle(sizes)
    return sizes


def id_nest_text(depth: int, dual: bool = False) -> str:
    """A document with one let holding `id(` nested `depth` deep on a 1-cell;
    with ``dual``, the same document in the opposite at dimension 1, where
    the 1-cell is reversed and identities are self-dual."""
    ends = "y -> x" if dual else "x -> y"
    return (
        f"computad c {{\n  x : * ;\n  y : * ;\n  f : {ends} ;\n}}\n\n"
        f"let t = {'id(' * depth}f{')' * depth}\n"
    )


def deep_tree_text(depth: int) -> str:
    """A coherence over a tree literal nested `depth` deep (line 1)."""
    return f"let t = coh {'[' * depth}{']' * depth} {{ x -> x }} []\n"
