"""Surface syntax for computads and cells (.ctt files).

A source file is a sequence of computad blocks and cell bindings::

    # two arrows and their composite
    computad walking { x : * ; y : * ; z : * ; f : x -> y ; g : y -> z ; }
    let fg = comp(1,0,1)[f, g]

Cell expressions are references, explicit coherences
``coh [[],[]] { 0 -> 2 } []``, composition templates/instances
``comp(n,k,m)[...]``, and the computed forms ``id(e)``, ``susp(e)``,
``op{dims}(e)`` and ``homfactor(e)``.

Inside a coherence, identifiers name the positions of its own scheme; the
letters x,y,z,u,v,w (dimension 0), f,g,h,k,l (dimension 1) and a,b,c,d,e
(dimension 2) may be used as aliases for the positions of that dimension in
canonical order, so the two-arrow composite can be written
``coh [[],[]] { x -> z } []``.  Printing always uses the canonical numeric
position names and is deterministic.  A ``let`` over a block or a template
re-parses to the same term; an ``op{…}`` or ``susp`` ``let`` does not, as
the text omits the computad it lives over (the JSON export keeps it).

Shared form.  The cell of a ``let`` and each side of a generator's sphere
may be followed by ``where { $1 = cell; @2 = cell; ... }``, which binds
subterms that the cell (and later bindings) refer to as ``$k`` or ``@k``.
A ``$`` binding is a cell over the computad, whose leaves are generators,
and may stand in a substitution; an ``@`` binding is a cell of a coherence
sphere, whose leaves are canonical position names, and may stand in a
sphere.  Bindings refer only to earlier ones, each is elaborated once, so
the work is linear in the text however often a binding is used, and each
must be reached from the cell, whose typecheck then checks it.
:func:`cell_text` prints a cell in this form, each repeated subterm
once, when it has more than :data:`omegatt.computads.SHARE_ABOVE` nodes
unfolded (:func:`omegatt.computads.shared_subterms`); below that it prints
the tree, as the goldens show.  ``where`` is a keyword only right after
such a cell, so it can still name a generator or a cell.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, NamedTuple, Union

from .computads import (
    AMBIENT,
    SCHEME,
    CellTerm,
    Coh,
    Computad,
    Sphere,
    TypecheckError,
    Var,
    boundary_at,
    children,
    is_template,
    pasting_computad,
    shared_subterms,
    template_sub,
    typecheck_cell,
)
from .globular import dimset
from .hashcons import gather, walk
from .homcat import HomCell, HomGenerator, hom_factor
from .metaops import BipointedComputad, op_cell, op_computad, suspend_cell, suspend_computad
from .oplib import BoundaryMismatch, comp_cell, compose, identity_cell
from .trees import MAX_COMP_DIM, BataninTree, pos_dim, sorted_positions

POSITION_ALIASES = {0: "xyzuvw", 1: "fghkl", 2: "abcde"}


class SourceLocation(NamedTuple):
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(unsafe_hash=True)
class SurfaceError(Exception):
    """An error in a source text.  Inside this module ``location`` is a token
    index of :func:`lex`, which becomes a :class:`SourceLocation` as the
    error leaves :func:`tokenize`, :func:`parse` or :func:`elaborate`."""

    location: SourceLocation | int
    message: str

    def __str__(self) -> str:
        return f"{self.location}: {self.message}"


# ---------------------------------------------------------------------------
# lexer

class Token(NamedTuple):
    kind: str  # ident | name | num | pos | share | punct | eof
    text: str
    location: SourceLocation


KEYWORDS = frozenset({"computad", "let", "coh", "comp", "id", "susp", "op", "homfactor"})
WORDS = ("ident", "name", "num", "pos")  # the kinds of a word token
PUNCT = frozenset({"=>", "->", *"{}[](),;:*="})

# One match per token: the blanks, newlines and comments before it, then a
# punctuation mark, a word (dotted word characters: an identifier, a number,
# a position 1.2.0 or a suspended name 1.x), a shared subterm ($ or @ and
# ASCII digits), the eof token "" (at the end, or where a comment ending the
# text starts) or a stray character, which takes the rest of the text.
_TOKEN = re.compile(r"(?:[ \t\r\n]+|#[^\n]*\n)*(=>|->|[{}\[\](),;:*=]|\w+(?:\.\w+)*|[$@][0-9]+|(?=#|\Z)|[\s\S]+)")


def token_kind(token: str) -> str:
    """The kind of a token of :func:`lex`, read from its text: ``eof`` for
    the empty text, and ``stray`` for a character that starts no token."""
    if token in PUNCT:
        return "punct"
    head = token[:1]
    if head.isalnum() or head == "_":
        if "." in token:
            return "pos" if token.replace(".", "").isdigit() else "name"
        return "num" if token.isdigit() else "ident"
    if head in ("$", "@") and "0" <= token[1:2] <= "9":
        return "share"
    return "stray" if token else "eof"


def lex(text: str) -> list[str]:
    """The texts of the tokens of ``text``, ending in the eof token ``""``,
    from one call of the compiled pattern.  A character that starts no token
    is an error, raised before anything is parsed."""
    tokens = _TOKEN.findall(text)
    del tokens[tokens.index("") + 1 :]  # past an eof token at a final comment, findall goes on
    if len(tokens) > 1 and token_kind(tokens[-2]) == "stray":
        raise SurfaceError(len(tokens) - 2, f"unexpected character {tokens[-2][0]!r}")
    return tokens


def _locations(text: str):
    """The location of each token of :func:`lex`, in one pass, counting the
    newlines before it.  Columns count characters from 1."""
    line, newline = 1, -1  # newline: the offset of the newline that opened the line
    for match in _TOKEN.finditer(text):
        before, start = match.start(), match.start(1)
        count = text.count("\n", before, start)
        if count:
            line, newline = line + count, text.rfind("\n", before, start)
        yield SourceLocation(line, start - newline)
        if not match[1]:  # the eof token
            return


@contextmanager
def _located(text: str):
    """A SurfaceError raised inside, with its token index replaced by that
    token's location in ``text``."""
    try:
        yield
    except SurfaceError as err:
        err.location = next(islice(_locations(text), err.location, None))
        raise


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text`` with their kinds and locations, ending in an
    eof token: the located view of :func:`lex`."""
    with _located(text):
        tokens = lex(text)
    return [Token(token_kind(token), token, location) for token, location in zip(tokens, _locations(text))]


# ---------------------------------------------------------------------------
# syntax trees: each ``location`` is the index of a token of :func:`lex`


class RefExpr(NamedTuple):
    name: str
    location: int


class CohExpr(NamedTuple):
    tree: BataninTree
    src: "CellExpr"
    tgt: "CellExpr"
    entries: tuple[tuple[str, "CellExpr", int], ...]
    location: int


class CompExpr(NamedTuple):
    n: int
    k: int
    m: int
    entries: tuple[tuple[str, "CellExpr", int], ...] | None
    args: tuple["CellExpr", ...] | None  # binary sugar
    location: int


class UnaryExpr(NamedTuple):
    op: str  # id | susp | op | homfactor
    arg: "CellExpr"
    location: int
    dims: tuple[int, ...] = ()  # of op{...}


class SharedRef(NamedTuple):
    """``$k`` or ``@k``: a subterm bound in the enclosing ``where``."""

    name: str
    location: int


class WhereExpr(NamedTuple):
    """A cell followed by ``where { name = cell; ... }``."""

    body: "CellExpr"
    bindings: tuple[tuple[str, "CellExpr", int], ...]
    location: int


CellExpr = Union[RefExpr, CohExpr, CompExpr, UnaryExpr, SharedRef, WhereExpr]


class GenDecl(NamedTuple):
    name: str
    sphere: tuple[CellExpr, CellExpr] | None  # None for 0-generators (": *")
    location: int


class ComputadBlock(NamedTuple):
    name: str
    decls: tuple[GenDecl, ...]
    location: int


class LetDecl(NamedTuple):
    name: str
    expr: CellExpr
    location: int


Declaration = Union[ComputadBlock, LetDecl]


class SourceFile(NamedTuple):
    items: tuple[Declaration, ...]
    text: str  # locates the elaborator's errors


class _Parser:
    """Reads the token texts of :func:`lex`; ``pos`` indexes the next one,
    and a syntax tree or an error is located by such an index."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]  # the eof token "" ends the list; a read that takes it fails

    def next(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, text: str) -> int:
        """Read ``text``, and give its location."""
        pos = self.pos
        if self.tokens[pos] != text:  # never the eof token, whose text is empty
            raise SurfaceError(pos, f"expected {text!r}, found {self.tokens[pos] or 'end of input'!r}")
        self.pos = pos + 1
        return pos

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    # --- grammar ---

    def document(self) -> tuple[Declaration, ...]:
        items: list[Declaration] = []
        while tok := self.peek():
            if tok == "computad":
                items.append(self.computad_block())
            elif tok == "let":
                items.append(self.let_decl())
            else:
                raise SurfaceError(self.pos, f"expected 'computad' or 'let', found {tok!r}")
        return tuple(items)

    def computad_block(self) -> ComputadBlock:
        loc = self.expect("computad")
        name = self.word("computad name", ("ident",))
        self.expect("{")
        decls: list[GenDecl] = []
        while not self.at("}"):
            decls.append(self.gen_decl())
            if self.at(";"):
                self.next()
            elif not self.at("}"):
                raise SurfaceError(self.pos, "expected ';' or '}' after a generator")
        self.expect("}")
        return ComputadBlock(name, tuple(decls), loc)

    def gen_decl(self) -> GenDecl:
        loc = self.pos
        name = self.word("generator name")
        self.expect(":")
        if self.at("*"):
            self.next()
            return GenDecl(name, None, loc)
        src = self.shared_cell()
        self.expect("->")
        tgt = self.shared_cell()
        return GenDecl(name, (src, tgt), loc)

    def let_decl(self) -> LetDecl:
        loc = self.expect("let")
        name = self.word("cell name", ("ident",))
        self.expect("=")
        return LetDecl(name, self.shared_cell(), loc)

    def shared_cell(self) -> CellExpr:
        """A cell expression, with its ``where`` block if one follows.  Only
        ``let``, ``computad``, ``->``, ``;`` or ``}`` can follow such a cell
        otherwise, so ``where`` is a keyword here alone."""
        expr = self.cell_expr()
        if not self.at("where"):
            return expr
        loc = self.expect("where")
        self.expect("{")
        if self.at("}"):
            raise SurfaceError(self.pos, "a where block binds at least one subterm")
        bindings: dict[str, tuple[str, CellExpr, int]] = {}
        while True:
            at = self.pos
            tok = self.next()
            if token_kind(tok) != "share":
                raise SurfaceError(at, f"expected a binding $k or @k, found {tok or 'end of input'!r}")
            if tok in bindings:
                raise SurfaceError(at, f"{tok} is bound twice")
            self.expect("=")
            bindings[tok] = (tok, self.cell_expr(), at)
            if not self.at(";"):
                break
            self.next()
        self.expect("}")
        return WhereExpr(expr, tuple(bindings.values()), loc)

    def word(self, what: str, kinds: tuple[str, ...] = WORDS) -> str:
        tok = self.next()
        if token_kind(tok) not in kinds or tok in KEYWORDS:
            raise SurfaceError(self.pos - 1, f"expected {what}, found {tok or 'end of input'!r}")
        return tok

    def cell_expr(self) -> CellExpr:
        """A cell expression, read by a walk whose steps yield the depth of
        each inner one: past MAX_COMP_DIM, an error at its keyword."""
        return walk(self._cell_step, None, 1)

    def _cell_step(self, depth: int):
        at = self.pos
        tok = self.tokens[at]
        kind = token_kind(tok)
        if kind == "share" or kind in WORDS and tok not in KEYWORDS:
            self.pos = at + 1
            return (SharedRef if kind == "share" else RefExpr)(tok, at)
        if tok not in ("coh", "comp", "id", "susp", "homfactor", "op"):
            raise SurfaceError(at, f"expected a cell expression, found {tok or 'end of input'!r}")
        if depth > MAX_COMP_DIM:
            raise SurfaceError(at, f"cell expression nested more than {MAX_COMP_DIM} deep")
        return self._compound(tok, depth)

    def _compound(self, tok: str, depth: int):
        if tok == "coh":
            return (yield from self.coh_expr(depth + 1))
        if tok == "comp":
            return (yield from self.comp_expr(depth + 1))
        loc = self.expect(tok)
        dims = []
        if tok == "op":
            self.expect("{")
            dims.append(self.number("a dimension"))
            while self.at(","):
                self.next()
                dims.append(self.number("a dimension"))
            self.expect("}")
        self.expect("(")
        arg = yield depth + 1
        self.expect(")")
        return UnaryExpr(tok, arg, loc, tuple(dims))

    def coh_expr(self, inner: int):
        loc = self.expect("coh")
        tree = self.tree_literal()
        self.expect("{")
        src = yield inner
        self.expect("->")
        tgt = yield inner
        self.expect("}")
        entries = yield from self.substitution_entries(inner)
        if entries is None:
            raise SurfaceError(loc, "a coherence takes keyed entries or an empty '[]'")
        return CohExpr(tree, src, tgt, entries, loc)

    def comp_expr(self, inner: int):
        loc = self.expect("comp")
        self.expect("(")
        n = self.number("n")
        self.expect(",")
        k = self.number("k")
        self.expect(",")
        m = self.number("m")
        self.expect(")")
        entries = yield from self.substitution_entries(inner)
        if entries is not None:
            return CompExpr(n, k, m, entries, None, loc)
        args = [(yield inner)]
        while self.at(","):
            self.next()
            args.append((yield inner))
        self.expect("]")
        return CompExpr(n, k, m, None, tuple(args), loc)

    def number(self, what: str) -> int:
        tok = self.next()
        if token_kind(tok) == "num":
            try:
                return int(tok)
            except ValueError:  # a digit that int() does not read, such as '²'
                pass
        raise SurfaceError(self.pos - 1, f"expected {what} (a number), found {tok!r}")

    def tree_literal(self) -> BataninTree:
        """``[t1, ..., tn]``, read by a walk whose steps yield the depth of
        the next child, so that its nesting is bounded by MAX_COMP_DIM."""
        return walk(self._tree_step, None, 1)

    def _tree_step(self, depth: int):
        loc = self.expect("[")
        if depth > MAX_COMP_DIM:
            raise SurfaceError(loc, f"tree literal nested more than {MAX_COMP_DIM} deep")
        children = [] if self.at("]") else [(yield depth + 1)]
        while children and self.at(","):
            self.next()
            children.append((yield depth + 1))
        self.expect("]")
        return BataninTree(children)

    def substitution_entries(self, inner: int):
        """``[p => cell, ...]`` or ``[]``; None, having read only the ``[``,
        when the bracket holds plain cells."""
        self.expect("[")
        if self.at("]"):
            self.next()
            return ()
        # a word is never the last token, so the one after it exists
        if not (token_kind(self.peek()) in WORDS and self.tokens[self.pos + 1] == "=>"):
            return None
        entries = []
        while True:
            at = self.pos
            tok = self.next()
            if token_kind(tok) not in WORDS:
                raise SurfaceError(at, f"expected a position, found {tok!r}")
            self.expect("=>")
            entries.append((tok, (yield inner), at))
            if not self.at(","):
                break
            self.next()
        self.expect("]")
        return tuple(entries)


def parse(text: str) -> SourceFile:
    with _located(text):
        return SourceFile(_Parser(lex(text)).document(), text)


# ---------------------------------------------------------------------------
# elaboration


class ElabCell(NamedTuple):
    """An elaborated binding: the term plus the computad it lives over."""

    kind: str  # "cell" | "homcell"
    ambient: Computad
    term: CellTerm | HomCell
    over: str | None  # name of the source block, if the ambient is one


class ElabDocument:
    __slots__ = ("computads", "cells")

    def __init__(self) -> None:
        self.computads: list[tuple[str, Computad]] = []
        self.cells: list[tuple[str, ElabCell]] = []

    def computad(self, name: str) -> Computad:
        for n, c in self.computads:
            if n == name:
                return c
        raise KeyError(name)


def _position_scope(tree: BataninTree) -> dict[str, str]:
    """Names usable for positions of a scheme: canonical names plus the
    per-dimension letter aliases in canonical order."""
    scope: dict[str, str] = {}
    for d, level in enumerate(pasting_computad(tree).generators):  # each level in canonical order
        for p in level:
            scope[p] = p
        for alias, p in zip(POSITION_ALIASES.get(d, ""), level):
            scope[alias] = p
    return scope


_POSITION_NAME = re.compile(r"[0-9]+(?:\.[0-9]+)*")


class _AnyPosition:
    """The scope of an ``@`` binding: every canonical position name.  The
    binding does not know the scheme it will be used over; typechecking
    the coherence that uses it checks that its leaves are positions of
    that scheme."""

    @staticmethod
    def get(name: str) -> str | None:
        return name if _POSITION_NAME.fullmatch(name) else None


class _Bindings:
    """The bindings of the ``where`` block being elaborated: all their
    names, the terms of those done so far, the one being elaborated (None
    for the cell itself) and the bindings that each of those refers to."""

    def __init__(self, names) -> None:
        self.names = frozenset(names)
        self.done: dict[str, CellTerm] = {}
        self.current: str | None = None
        self.uses: dict[str | None, set[str]] = {}


class Elaborator:
    def __init__(self) -> None:
        self.doc = ElabDocument()
        self.current: tuple[str, Computad] | None = None
        self.names: dict[str, ElabCell] = {}
        self.bindings: _Bindings | None = None

    # --- document level ---

    def run(self, source: SourceFile) -> ElabDocument:
        for item in source.items:
            if isinstance(item, ComputadBlock):
                self.block(item)
            else:
                self.let(item)
        return self.doc

    def block(self, block: ComputadBlock) -> None:
        if any(n == block.name for n, _ in self.doc.computads):
            raise SurfaceError(block.location, f"computad {block.name!r} is already defined")
        draft = Computad.draft()
        for decl in block.decls:
            if draft.has_generator(decl.name):
                raise SurfaceError(decl.location, f"generator {decl.name!r} is already declared")
            sphere = None
            if decl.sphere is not None:
                src = self.value(self.cell, decl.sphere[0], draft)
                tgt = self.value(self.cell, decl.sphere[1], draft)
                if src.dim != tgt.dim:
                    raise SurfaceError(decl.location, f"boundary cells have dimensions {src.dim} and {tgt.dim}")
                sphere = Sphere(src, tgt)
            try:
                draft.add(decl.name, sphere)
            except (ValueError, TypecheckError) as err:
                raise SurfaceError(decl.location, str(err)) from err
        self.current = (block.name, draft.done())
        self.doc.computads.append(self.current)

    def let(self, decl: LetDecl) -> None:
        if decl.name in self.names or (self.current is not None and self.current[1].has_generator(decl.name)):
            raise SurfaceError(decl.location, f"name {decl.name!r} is already defined")
        elab = self.value(self.elab, decl.expr)
        if elab.kind == "cell":
            try:
                typecheck_cell(elab.ambient, elab.term)
            except TypecheckError as err:
                raise SurfaceError(decl.location, str(err)) from err
        self.names[decl.name] = elab
        self.doc.cells.append((decl.name, elab))

    # --- expressions ---

    def value(self, *key):
        """``key[0](*key[1:])``, by a walk of the expression methods."""
        return walk(lambda key: key[0](*key[1:]), None, key)

    def elab(self, expr: CellExpr):
        """Elaborate a top-level expression to a term plus its ambient."""
        ambient = self.current[1] if self.current else Computad.make([], {})
        if isinstance(expr, WhereExpr):
            return self.where(expr, ambient, lambda: self.value(self.elab, expr.body))
        if getattr(expr, "op", "id") == "id":
            term = yield self.cell, expr, ambient
            if isinstance(expr, (CohExpr, CompExpr)) and is_template(term):
                return ElabCell("cell", pasting_computad(term.tree), term, None)
            return ElabCell("cell", ambient, term, self.current[0] if self.current else None)
        inner = yield self.elab, expr.arg
        if inner.kind != "cell":
            raise SurfaceError(expr.location, "hom cells cannot be transformed further")
        if expr.op == "op":
            try:
                w = dimset(expr.dims)
            except ValueError as err:
                raise SurfaceError(expr.location, str(err)) from err
            return ElabCell("cell", op_computad(w, inner.ambient), op_cell(w, inner.term), None)
        if expr.op == "susp":
            try:
                return ElabCell("cell", suspend_computad(inner.ambient).computad, suspend_cell(inner.term), None)
            except ValueError as err:  # a scheme nested past the bound
                raise SurfaceError(expr.location, str(err)) from err
        if inner.term.dim < 1:
            raise SurfaceError(expr.location, "homfactor needs a cell of dimension >= 1")
        try:  # a hom cell is not typechecked by its 'let'
            typecheck_cell(inner.ambient, inner.term)
        except TypecheckError as err:
            raise SurfaceError(expr.location, str(err)) from err
        ends = boundary_at(inner.ambient, inner.term, 0)
        pointed = BipointedComputad(inner.ambient, (ends.src, ends.tgt))
        return ElabCell("homcell", inner.ambient, hom_factor(pointed, inner.term), inner.over)

    def where(self, expr: WhereExpr, ambient: Computad, body):
        """``body()`` with the bindings of ``expr`` in scope: each is
        elaborated once, in order, ``$`` bindings over ``ambient`` and ``@``
        bindings as sphere cells.  Every binding must be reached from the
        cell, so that typechecking the cell checks it."""
        self.bindings = bindings = _Bindings(name for name, _, _ in expr.bindings)
        try:
            for name, value, _ in expr.bindings:
                bindings.current = name
                if name[0] == AMBIENT:
                    term = self.value(self.cell, value, ambient)
                else:
                    term = self.value(self.position_cell, value, _AnyPosition, None)
                bindings.done[name] = term
            bindings.current = None
            out = body()
        finally:
            self.bindings = None
        reached = set(bindings.uses.get(None, ()))
        for name, _, _ in reversed(expr.bindings):  # a binding refers only to earlier ones
            if name in reached:
                reached |= bindings.uses.get(name, set())
        for name, _, location in expr.bindings:
            if name not in reached:
                raise SurfaceError(location, f"{name} is not used by the cell")
        return out

    def shared(self, expr: SharedRef, context: str) -> CellTerm:
        """The subterm bound to ``$k`` or ``@k``, used in ``context``."""
        bindings = self.bindings
        if bindings is None:
            raise SurfaceError(expr.location, f"{expr.name} is used outside a where block")
        if expr.name[0] != context:
            if context == AMBIENT:
                what = f"{expr.name} is a sphere subterm and cannot stand for a cell over the computad"
            else:
                what = f"{expr.name} is a cell over the computad and cannot stand in a sphere"
            raise SurfaceError(expr.location, what)
        term = bindings.done.get(expr.name)
        if term is not None:
            bindings.uses.setdefault(bindings.current, set()).add(expr.name)
            return term
        if expr.name == bindings.current:
            raise SurfaceError(expr.location, f"{expr.name} refers to itself")
        if expr.name in bindings.names:
            raise SurfaceError(expr.location, f"{expr.name} refers to a later binding")
        raise SurfaceError(expr.location, f"unknown binding {expr.name}")

    def cell(self, expr: CellExpr, ambient: Computad):
        """Elaborate an expression to a cell over the given computad."""
        if isinstance(expr, SharedRef):
            return self.shared(expr, AMBIENT)
        if isinstance(expr, WhereExpr):  # a side of a generator's sphere
            return self.where(expr, ambient, lambda: self.value(self.cell, expr.body, ambient))
        if isinstance(expr, RefExpr):
            if ambient.has_generator(expr.name):
                return ambient.var(expr.name)
            bound = self.names.get(expr.name)
            if bound is not None:
                if bound.kind != "cell":
                    raise SurfaceError(expr.location, f"{expr.name!r} is a hom cell")
                # a block's draft is not interned: one computad is one table
                if bound.ambient is not ambient and bound.ambient.table != ambient.table:
                    raise SurfaceError(expr.location, f"{expr.name!r} lives over a different computad")
                return bound.term
            raise SurfaceError(expr.location, f"unknown cell {expr.name!r}")
        if isinstance(expr, CohExpr):
            return self.coh(expr, lambda e: (self.cell, e, ambient))
        if isinstance(expr, CompExpr):
            return self.comp(expr, ambient)
        if isinstance(expr, UnaryExpr) and expr.op == "id":
            return gather([(self.cell, expr.arg, ambient)], lambda arg: identity_cell(ambient, arg[0]))
        if isinstance(expr, UnaryExpr):
            raise SurfaceError(expr.location, f"{expr.op}(...) is only available at the top of a 'let'")
        raise SurfaceError(expr.location, "expected a cell expression")

    def coh(self, expr: CohExpr, value: Callable[[CellExpr], tuple]):
        """An explicit coherence; ``value`` gives the key that elaborates a
        cell its substitution assigns."""
        scope = _position_scope(expr.tree)
        pc = pasting_computad(expr.tree)
        src = yield self.position_cell, expr.src, scope, pc
        tgt = yield self.position_cell, expr.tgt, scope, pc
        try:
            sphere = Sphere(src, tgt)
        except ValueError as err:
            raise SurfaceError(expr.location, str(err)) from err
        if not expr.entries:
            return Coh(expr.tree, sphere, template_sub(expr.tree))
        return Coh(expr.tree, sphere, (yield from self.entries_sub(expr.entries, expr.tree, scope, value)))

    def comp(self, expr: CompExpr, ambient: Computad):
        try:
            template = comp_cell(expr.n, expr.k, expr.m)
        except ValueError as err:
            raise SurfaceError(expr.location, str(err)) from err
        if expr.args is not None:
            if len(expr.args) != 2:
                raise SurfaceError(expr.location, f"comp takes two cells, found {len(expr.args)}")
            x = yield self.cell, expr.args[0], ambient
            y = yield self.cell, expr.args[1], ambient
            if (x.dim, y.dim) != (expr.n, expr.m):
                what = f"comp({expr.n},{expr.k},{expr.m}) applied to cells of dimensions {x.dim} and {y.dim}"
                raise SurfaceError(expr.location, what)
            try:
                return compose(ambient, x, expr.k, y)
            except BoundaryMismatch as err:
                raise SurfaceError(expr.location, str(err)) from err
        if not expr.entries:
            return template
        scope = _position_scope(template.tree)
        sub = yield from self.entries_sub(expr.entries, template.tree, scope, lambda e: (self.cell, e, ambient))
        return Coh(template.tree, template.sphere, sub)

    def entries_sub(self, entries, tree, scope, value):
        assignment: dict[str, CellTerm] = {}
        for key, value_expr, loc in entries:
            p = scope.get(key)
            if p is None:
                raise SurfaceError(loc, f"{key!r} is not a position of the scheme")
            if p in assignment:
                raise SurfaceError(loc, f"position {p} is assigned twice")
            assignment[p] = yield value(value_expr)
        names = sorted_positions(tree)
        missing = [p for p in names if p not in assignment]
        if missing:
            raise SurfaceError(entries[0][2], f"substitution misses positions {missing}")
        return tuple([(p, assignment[p]) for p in names])

    def position_cell(self, expr, scope, pc):
        """Elaborate a sphere-side expression, where identifiers refer to the
        positions of the scheme itself."""
        if isinstance(expr, RefExpr):
            p = scope.get(expr.name)
            if p is None:
                raise SurfaceError(expr.location, f"{expr.name!r} is not a position of the scheme")
            return Var(p, pos_dim(p))
        if isinstance(expr, SharedRef):
            return self.shared(expr, SCHEME)
        if isinstance(expr, CohExpr):
            return self.coh(expr, lambda e: (self.position_cell, e, scope, pc))
        if isinstance(expr, UnaryExpr) and expr.op == "id":
            if pc is None:
                raise SurfaceError(expr.location, "id(...) needs the scheme, which an @ binding does not know")
            return gather([(self.position_cell, expr.arg, scope, pc)], lambda arg: identity_cell(pc, arg[0]))
        raise SurfaceError(expr.location, "only positions, coherences and id(...) may appear in a sphere")


def elaborate(source: SourceFile) -> ElabDocument:
    with _located(source.text):
        return Elaborator().run(source)


def load_document(text: str) -> ElabDocument:
    return elaborate(parse(text))


# ---------------------------------------------------------------------------
# printing (canonical)


def tree_text(tree: BataninTree) -> str:
    return walk(lambda t: gather(t.children, lambda kids: "[" + ",".join(kids) + "]"), {}, tree)


def cell_text(term: CellTerm | HomCell) -> str:
    """The text of a cell: the tree, or for a cell of more than
    :data:`omegatt.computads.SHARE_ABOVE` nodes the shared form, the cell
    followed by ``where { ... }`` with each subterm that recurs bound once,
    in post-order.  A hom cell's ``homgen(...)`` is for display only."""

    def step(key: tuple):
        node = key[0]
        return node.name if type(node) is Var else gather(children(*key), partial(written, node))

    def written(node, kids: list[str]) -> str:
        if isinstance(node, HomGenerator):
            return f"homgen({kids[0]})"
        if is_template(node):
            entries = "[]"
        else:
            entries = "[" + ", ".join([f"{p} => {t}" for (p, _), t in zip(node.sub, kids[2:])]) + "]"
        return f"coh {tree_text(node.tree)} {{ {kids[0]} -> {kids[1]} }} {entries}"

    memo: dict = {}  # the text of each (node, context), or its shared name
    bindings = []
    for k, key in enumerate(shared_subterms(term), 1):
        body = walk(step, memo, key)
        memo[key] = name = f"{key[1]}{k}"
        bindings.append(f"{name} = {body}")
    text = walk(step, memo, (term, AMBIENT))
    return f"{text} where {{ {'; '.join(bindings)} }}" if bindings else text


def computad_text(name: str, c: Computad) -> str:
    lines = [f"computad {name} {{"]
    for d in range(c.bound + 1):
        for v in c.generators_at(d):
            if d == 0:
                lines.append(f"  {v} : * ;")
            else:
                sphere = c.sphere_of(v)
                lines.append(f"  {v} : {cell_text(sphere.src)} -> {cell_text(sphere.tgt)} ;")
    lines.append("}")
    return "\n".join(lines)


def document_text(doc: ElabDocument) -> str:
    chunks: list[str] = []
    for name, computad in doc.computads:
        chunks.append(computad_text(name, computad))
    for name, elab in doc.cells:
        chunks.append(f"let {name} = {cell_text(elab.term)}")
    return "\n\n".join(chunks) + "\n"
