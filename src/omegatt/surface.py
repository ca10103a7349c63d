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
position names; printing is deterministic and re-parses to the same terms.

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
from dataclasses import dataclass, field
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
    is_template,
    pasting_computad,
    shared_subterms,
    template_sub,
    typecheck_cell,
)
from .globular import dimset
from .homcat import HomCell, HomGenerator, hom_factor
from .metaops import BipointedComputad, op_cell, op_computad, suspend_cell, suspend_computad
from .oplib import BoundaryMismatch, comp_cell, compose, identity_cell
from .trees import MAX_COMP_DIM, BataninTree, pos_dim, positions, sorted_positions

POSITION_ALIASES = {0: "xyzuvw", 1: "fghkl", 2: "abcde"}


class SourceLocation(NamedTuple):
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(unsafe_hash=True)
class SurfaceError(Exception):
    location: SourceLocation
    message: str

    def __str__(self) -> str:
        return f"{self.location}: {self.message}"


# ---------------------------------------------------------------------------
# lexer

class Token(NamedTuple):
    kind: str  # ident | name | num | pos | share | punct | eof
    text: str
    location: SourceLocation


KEYWORDS = frozenset(
    {"computad", "let", "coh", "comp", "id", "susp", "op", "homfactor"}
)
WORDS = ("ident", "name", "num", "pos")  # the kinds of a word token

# One match per item: blanks, then a newline, a comment, a punctuation mark,
# a word (dotted segments of word characters, e.g. an identifier, a number,
# a position path 1.2.0 or a suspended name 1.x), a shared subterm ($ or @
# and ASCII digits) or a stray character.
# The search stops before trailing blanks, so every other blank starts a match.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(\n)|(#[^\n]*)|(=>|->|[{}\[\](),;:*=])|(\w+(?:\.\w+)*)|([$@][0-9]+)|(.))"
)
_NEWLINE, _COMMENT, _PUNCT, _WORD, _SHARE = 1, 2, 3, 4, 5


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, ending in an eof token.  Columns count
    characters from 1; a comment does not advance the column, so the eof
    token after a trailing comment sits where the comment starts."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # builds a token or location without a Python frame
    line, before_line = 1, -1  # before_line: offset of the newline that opened the line
    match = None
    for match in _TOKEN.finditer(text, 0, len(text.rstrip(" \t\r"))):
        group = match.lastindex
        if group >= _PUNCT:  # a token or a stray character
            item = match[group]
            location = new(SourceLocation, (line, match.start(group) - before_line))
            if group == _PUNCT:
                kind = "punct"
            elif group == _WORD:
                if "." in item:
                    kind = "pos" if item.replace(".", "").isdigit() else "name"
                else:
                    kind = "num" if item.isdigit() else "ident"
            elif group == _SHARE:
                kind = "share"
            else:
                raise SurfaceError(location, f"unexpected character {item!r}")
            append(new(Token, (kind, item, location)))
        elif group == _NEWLINE:
            line, before_line = line + 1, match.end() - 1
    end = match.start(_COMMENT) if match is not None and match.lastindex == _COMMENT else len(text)
    append(new(Token, ("eof", "", new(SourceLocation, (line, end - before_line)))))
    return tokens


# ---------------------------------------------------------------------------
# syntax trees


@dataclass(frozen=True)
class RefExpr:
    name: str
    location: SourceLocation


@dataclass(frozen=True)
class CohExpr:
    tree: BataninTree
    src: "CellExpr"
    tgt: "CellExpr"
    entries: tuple[tuple[str, "CellExpr", SourceLocation], ...]
    location: SourceLocation


@dataclass(frozen=True)
class CompExpr:
    n: int
    k: int
    m: int
    entries: tuple[tuple[str, "CellExpr", SourceLocation], ...] | None
    args: tuple["CellExpr", ...] | None  # binary sugar
    location: SourceLocation


@dataclass(frozen=True)
class UnaryExpr:
    op: str  # id | susp | homfactor
    arg: "CellExpr"
    location: SourceLocation


@dataclass(frozen=True)
class OpExpr:
    dims: tuple[int, ...]
    arg: "CellExpr"
    location: SourceLocation


@dataclass(frozen=True)
class SharedRef:
    """``$k`` or ``@k``: a subterm bound in the enclosing ``where``."""

    name: str
    location: SourceLocation


@dataclass(frozen=True)
class WhereExpr:
    """A cell followed by ``where { name = cell; ... }``."""

    body: "CellExpr"
    bindings: tuple[tuple[str, "CellExpr", SourceLocation], ...]
    location: SourceLocation


CellExpr = Union[RefExpr, CohExpr, CompExpr, UnaryExpr, OpExpr, SharedRef, WhereExpr]


@dataclass(frozen=True)
class GenDecl:
    name: str
    sphere: tuple[CellExpr, CellExpr] | None  # None for 0-generators (": *")
    location: SourceLocation


@dataclass(frozen=True)
class ComputadBlock:
    name: str
    decls: tuple[GenDecl, ...]
    location: SourceLocation


@dataclass(frozen=True)
class LetDecl:
    name: str
    expr: CellExpr
    location: SourceLocation


Declaration = Union[ComputadBlock, LetDecl]


@dataclass(frozen=True)
class SourceFile:
    items: tuple[Declaration, ...]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]  # the eof token ends the list and is never consumed

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != text:  # never the eof token, whose text is empty
            raise SurfaceError(tok.location, f"expected {text!r}, found {tok.text or 'end of input'!r}")
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    # --- grammar ---

    def document(self) -> SourceFile:
        items: list[Declaration] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "computad":
                items.append(self.computad_block())
            elif tok.text == "let":
                items.append(self.let_decl())
            else:
                raise SurfaceError(tok.location, f"expected 'computad' or 'let', found {tok.text!r}")
        return SourceFile(tuple(items))

    def computad_block(self) -> ComputadBlock:
        loc = self.expect("computad").location
        name = self.ident("computad name")
        self.expect("{")
        decls: list[GenDecl] = []
        while not self.at("}"):
            decls.append(self.gen_decl())
            if self.at(";"):
                self.next()
            elif not self.at("}"):
                raise SurfaceError(self.peek().location, "expected ';' or '}' after a generator")
        self.expect("}")
        return ComputadBlock(name, tuple(decls), loc)

    def gen_decl(self) -> GenDecl:
        tok = self.peek()
        name = self.word("generator name")
        self.expect(":")
        if self.at("*"):
            self.next()
            return GenDecl(name, None, tok.location)
        src = self.shared_cell()
        self.expect("->")
        tgt = self.shared_cell()
        return GenDecl(name, (src, tgt), tok.location)

    def let_decl(self) -> LetDecl:
        loc = self.expect("let").location
        name = self.ident("cell name")
        self.expect("=")
        return LetDecl(name, self.shared_cell(), loc)

    def shared_cell(self) -> CellExpr:
        """A cell expression, with its ``where`` block if one follows.  Only
        ``let``, ``computad``, ``->``, ``;`` or ``}`` can follow such a cell
        otherwise, so ``where`` is a keyword here alone."""
        expr = self.cell_expr()
        if not self.at("where"):
            return expr
        loc = self.next().location
        self.expect("{")
        if self.at("}"):
            raise SurfaceError(self.peek().location, "a where block binds at least one subterm")
        bindings: dict[str, tuple[str, CellExpr, SourceLocation]] = {}
        while True:
            tok = self.next()
            if tok.kind != "share":
                raise SurfaceError(tok.location, f"expected a binding $k or @k, found {tok.text or 'end of input'!r}")
            if tok.text in bindings:
                raise SurfaceError(tok.location, f"{tok.text} is bound twice")
            self.expect("=")
            bindings[tok.text] = (tok.text, self.cell_expr(), tok.location)
            if not self.at(";"):
                break
            self.next()
        self.expect("}")
        return WhereExpr(expr, tuple(bindings.values()), loc)

    def ident(self, what: str) -> str:
        return self.word(what, ("ident",))

    def word(self, what: str, kinds: tuple[str, ...] = WORDS) -> str:
        tok = self.next()
        if tok.kind not in kinds or tok.text in KEYWORDS:
            raise SurfaceError(tok.location, f"expected {what}, found {tok.text or 'end of input'!r}")
        return tok.text

    def cell_expr(self) -> CellExpr:
        tok = self.peek()
        if tok.kind in WORDS and tok.text not in KEYWORDS:
            self.next()
            return RefExpr(tok.text, tok.location)
        if tok.kind == "share":
            self.next()
            return SharedRef(tok.text, tok.location)
        if tok.text == "coh":
            return self.coh_expr()
        if tok.text == "comp":
            return self.comp_expr()
        if tok.text in ("id", "susp", "homfactor"):
            self.next()
            self.expect("(")
            arg = self.cell_expr()
            self.expect(")")
            return UnaryExpr(tok.text, arg, tok.location)
        if tok.text == "op":
            self.next()
            self.expect("{")
            dims = [self.number("a dimension")]
            while self.at(","):
                self.next()
                dims.append(self.number("a dimension"))
            self.expect("}")
            self.expect("(")
            arg = self.cell_expr()
            self.expect(")")
            return OpExpr(tuple(dims), arg, tok.location)
        raise SurfaceError(tok.location, f"expected a cell expression, found {tok.text or 'end of input'!r}")

    def coh_expr(self) -> CohExpr:
        loc = self.expect("coh").location
        tree = self.tree_literal()
        self.expect("{")
        src = self.cell_expr()
        self.expect("->")
        tgt = self.cell_expr()
        self.expect("}")
        entries = self.substitution_entries()
        if entries is None:
            raise SurfaceError(loc, "a coherence takes keyed entries or an empty '[]'")
        return CohExpr(tree, src, tgt, entries, loc)

    def comp_expr(self) -> CompExpr:
        loc = self.expect("comp").location
        self.expect("(")
        n = self.number("n")
        self.expect(",")
        k = self.number("k")
        self.expect(",")
        m = self.number("m")
        self.expect(")")
        entries = self.substitution_entries()
        if entries is not None:
            return CompExpr(n, k, m, entries, None, loc)
        args = [self.cell_expr()]
        while self.at(","):
            self.next()
            args.append(self.cell_expr())
        self.expect("]")
        return CompExpr(n, k, m, None, tuple(args), loc)

    def number(self, what: str) -> int:
        tok = self.next()
        if tok.kind == "num":
            try:
                return int(tok.text)
            except ValueError:  # a digit that int() does not read, such as '²'
                pass
        raise SurfaceError(tok.location, f"expected {what} (a number), found {tok.text!r}")

    def tree_literal(self) -> BataninTree:
        """``[t1, ..., tn]``, read with an explicit stack holding the
        children read so far under each open bracket, so that its depth
        is bounded by MAX_COMP_DIM and not by Python's recursion limit."""
        stack: list[list[BataninTree]] = []
        while True:
            tok = self.expect("[")
            if len(stack) == MAX_COMP_DIM:
                raise SurfaceError(tok.location, f"tree literal nested more than {MAX_COMP_DIM} deep")
            stack.append([])
            if not self.at("]"):
                continue  # the first child opens
            while True:  # close brackets until a ',' opens the next child
                self.expect("]")
                tree = BataninTree(tuple(stack.pop()))
                if not stack:
                    return tree
                stack[-1].append(tree)
                if self.at(","):
                    self.next()
                    break

    def _entry(self) -> tuple[str, CellExpr, SourceLocation]:
        tok = self.next()
        if tok.kind not in WORDS:
            raise SurfaceError(tok.location, f"expected a position, found {tok.text!r}")
        self.expect("=>")
        return tok.text, self.cell_expr(), tok.location

    def substitution_entries(self) -> tuple[tuple[str, CellExpr, SourceLocation], ...] | None:
        """``[p => cell, ...]`` or ``[]``; None, having read only the ``[``,
        when the bracket holds plain cells."""
        self.expect("[")
        if self.at("]"):
            self.next()
            return ()
        # a word is never the last token, so the one after it exists
        if not (self.peek().kind in WORDS and self.tokens[self.pos + 1].text == "=>"):
            return None
        entries = [self._entry()]
        while self.at(","):
            self.next()
            entries.append(self._entry())
        self.expect("]")
        return tuple(entries)


def parse(text: str) -> SourceFile:
    return _Parser(tokenize(text)).document()


# ---------------------------------------------------------------------------
# elaboration


@dataclass(frozen=True)
class ElabCell:
    """An elaborated binding: the term plus the computad it lives over."""

    kind: str  # "cell" | "homcell"
    ambient: Computad
    term: CellTerm | HomCell
    over: str | None  # name of the source block, if the ambient is one


@dataclass
class ElabDocument:
    computads: list[tuple[str, Computad]] = field(default_factory=list)
    cells: list[tuple[str, ElabCell]] = field(default_factory=list)

    def computad(self, name: str) -> Computad:
        for n, c in self.computads:
            if n == name:
                return c
        raise KeyError(name)


def _position_scope(tree: BataninTree) -> dict[str, str]:
    """Names usable for positions of a scheme: canonical names plus the
    per-dimension letter aliases in canonical order."""
    scope: dict[str, str] = {}
    carrier = positions(tree).carrier
    for d in range(carrier.ndim + 1):
        level = carrier.cells_at(d)  # in canonical order
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
        partial = Computad.make([], {})
        for decl in block.decls:
            if partial.has_generator(decl.name):
                raise SurfaceError(decl.location, f"generator {decl.name!r} is already declared")
            sphere = None
            if decl.sphere is not None:
                src = self.cell(decl.sphere[0], partial)
                tgt = self.cell(decl.sphere[1], partial)
                if src.dim != tgt.dim:
                    raise SurfaceError(
                        decl.location,
                        f"boundary cells have dimensions {src.dim} and {tgt.dim}",
                    )
                sphere = Sphere(src, tgt)
            try:
                partial = partial.extend(decl.name, sphere)
            except (ValueError, TypecheckError) as err:
                raise SurfaceError(decl.location, str(err)) from err
        self.doc.computads.append((block.name, partial))
        self.current = (block.name, partial)

    def let(self, decl: LetDecl) -> None:
        if decl.name in self.names or (
            self.current is not None and self.current[1].has_generator(decl.name)
        ):
            raise SurfaceError(decl.location, f"name {decl.name!r} is already defined")
        elab = self.elab(decl.expr)
        if elab.kind == "cell":
            try:
                typecheck_cell(elab.ambient, elab.term)
            except TypecheckError as err:
                raise SurfaceError(decl.location, str(err)) from err
        self.names[decl.name] = elab
        self.doc.cells.append((decl.name, elab))

    # --- expressions ---

    def elab(self, expr: CellExpr) -> ElabCell:
        """Elaborate a top-level expression to a term plus its ambient."""
        if isinstance(expr, WhereExpr):
            ambient = self.current[1] if self.current else Computad.make([], {})
            return self.where(expr, ambient, lambda: self.elab(expr.body))
        if isinstance(expr, UnaryExpr) and expr.op == "susp":
            inner = self._plain(expr.arg, expr.location)
            return ElabCell(
                "cell",
                suspend_computad(inner.ambient).computad,
                suspend_cell(inner.term),
                None,
            )
        if isinstance(expr, UnaryExpr) and expr.op == "homfactor":
            inner = self._plain(expr.arg, expr.location)
            if inner.term.dim < 1:
                raise SurfaceError(expr.location, "homfactor needs a cell of dimension >= 1")
            ends = boundary_at(inner.ambient, inner.term, 0)
            pointed = BipointedComputad(inner.ambient, (ends.src, ends.tgt))
            return ElabCell("homcell", inner.ambient, hom_factor(pointed, inner.term), inner.over)
        if isinstance(expr, OpExpr):
            inner = self._plain(expr.arg, expr.location)
            try:
                w = dimset(expr.dims)
            except ValueError as err:
                raise SurfaceError(expr.location, str(err)) from err
            return ElabCell("cell", op_computad(w, inner.ambient), op_cell(w, inner.term), None)
        ambient = self.current[1] if self.current else Computad.make([], {})
        over = self.current[0] if self.current else None
        term = self.cell(expr, ambient)
        if isinstance(expr, (CohExpr, CompExpr)) and is_template(term):
            return ElabCell("cell", pasting_computad(term.tree), term, None)
        return ElabCell("cell", ambient, term, over)

    def _plain(self, expr: CellExpr, loc: SourceLocation) -> ElabCell:
        inner = self.elab(expr)
        if inner.kind != "cell":
            raise SurfaceError(loc, "hom cells cannot be transformed further")
        return inner

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
                    term = self.cell(value, ambient)
                else:
                    term = self.position_cell(value, _AnyPosition, None)
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

    def cell(self, expr: CellExpr, ambient: Computad) -> CellTerm:
        """Elaborate an expression to a cell over the given computad."""
        if isinstance(expr, SharedRef):
            return self.shared(expr, AMBIENT)
        if isinstance(expr, WhereExpr):  # a side of a generator's sphere
            return self.where(expr, ambient, lambda: self.cell(expr.body, ambient))
        if isinstance(expr, RefExpr):
            if ambient.has_generator(expr.name):
                return ambient.var(expr.name)
            bound = self.names.get(expr.name)
            if bound is not None:
                if bound.kind != "cell":
                    raise SurfaceError(expr.location, f"{expr.name!r} is a hom cell")
                if bound.ambient != ambient:
                    raise SurfaceError(
                        expr.location, f"{expr.name!r} lives over a different computad"
                    )
                return bound.term
            raise SurfaceError(expr.location, f"unknown cell {expr.name!r}")
        if isinstance(expr, CohExpr):
            return self.coh(expr, lambda e: self.cell(e, ambient))
        if isinstance(expr, CompExpr):
            return self.comp(expr, ambient)
        if isinstance(expr, UnaryExpr) and expr.op == "id":
            inner = self.cell(expr.arg, ambient)
            return identity_cell(ambient, inner)
        if isinstance(expr, (UnaryExpr, OpExpr)):
            raise SurfaceError(
                expr.location,
                f"{getattr(expr, 'op', 'op')}(...) is only available at the top of a 'let'",
            )
        raise SurfaceError(expr.location, "expected a cell expression")

    def coh(self, expr: CohExpr, value: Callable[[CellExpr], CellTerm]) -> CellTerm:
        """An explicit coherence; ``value`` elaborates the cells that its
        substitution assigns."""
        scope = _position_scope(expr.tree)
        pc = pasting_computad(expr.tree)
        src = self.position_cell(expr.src, scope, pc)
        tgt = self.position_cell(expr.tgt, scope, pc)
        sphere = self._mk_sphere(src, tgt, expr.location)
        if not expr.entries:
            return Coh(expr.tree, sphere, template_sub(expr.tree))
        return Coh(expr.tree, sphere, self.entries_sub(expr.entries, expr.tree, scope, value))

    def comp(self, expr: CompExpr, ambient: Computad) -> CellTerm:
        try:
            template = comp_cell(expr.n, expr.k, expr.m)
        except ValueError as err:
            raise SurfaceError(expr.location, str(err)) from err
        if expr.args is not None:
            if len(expr.args) != 2:
                raise SurfaceError(
                    expr.location, f"comp takes two cells, found {len(expr.args)}"
                )
            x = self.cell(expr.args[0], ambient)
            y = self.cell(expr.args[1], ambient)
            if (x.dim, y.dim) != (expr.n, expr.m):
                raise SurfaceError(
                    expr.location,
                    f"comp({expr.n},{expr.k},{expr.m}) applied to cells of "
                    f"dimensions {x.dim} and {y.dim}",
                )
            try:
                return compose(ambient, x, expr.k, y)
            except BoundaryMismatch as err:
                raise SurfaceError(expr.location, str(err)) from err
        if not expr.entries:
            return template
        scope = _position_scope(template.tree)
        sub = self.entries_sub(expr.entries, template.tree, scope, lambda e: self.cell(e, ambient))
        return Coh(template.tree, template.sphere, sub)

    def entries_sub(self, entries, tree, scope, value):
        assignment: dict[str, CellTerm] = {}
        for key, value_expr, loc in entries:
            p = scope.get(key)
            if p is None:
                raise SurfaceError(loc, f"{key!r} is not a position of the scheme")
            if p in assignment:
                raise SurfaceError(loc, f"position {p} is assigned twice")
            assignment[p] = value(value_expr)
        names = sorted_positions(tree)
        missing = [p for p in names if p not in assignment]
        if missing:
            raise SurfaceError(entries[0][2], f"substitution misses positions {missing}")
        return tuple([(p, assignment[p]) for p in names])

    def position_cell(self, expr, scope, pc) -> CellTerm:
        """Elaborate a sphere-side expression, where identifiers refer to the
        positions of the scheme itself."""
        if isinstance(expr, RefExpr):
            p = scope.get(expr.name)
            if p is None:
                raise SurfaceError(
                    expr.location, f"{expr.name!r} is not a position of the scheme"
                )
            return Var(p, pos_dim(p))
        if isinstance(expr, SharedRef):
            return self.shared(expr, SCHEME)
        if isinstance(expr, CohExpr):
            return self.coh(expr, lambda e: self.position_cell(e, scope, pc))
        if isinstance(expr, UnaryExpr) and expr.op == "id":
            if pc is None:
                raise SurfaceError(expr.location, "id(...) needs the scheme, which an @ binding does not know")
            inner = self.position_cell(expr.arg, scope, pc)
            return identity_cell(pc, inner)
        raise SurfaceError(
            expr.location, "only positions, coherences and id(...) may appear in a sphere"
        )

    @staticmethod
    def _mk_sphere(src: CellTerm, tgt: CellTerm, loc: SourceLocation) -> Sphere:
        try:
            return Sphere(src, tgt)
        except ValueError as err:
            raise SurfaceError(loc, str(err)) from err


def elaborate(source: SourceFile) -> ElabDocument:
    return Elaborator().run(source)


def load_document(text: str) -> ElabDocument:
    return elaborate(parse(text))


# ---------------------------------------------------------------------------
# printing (canonical)


def tree_text(tree: BataninTree) -> str:
    return "[" + ",".join(tree_text(c) for c in tree.children) + "]"


def cell_text(term: CellTerm | HomCell) -> str:
    """The text of a cell: the tree, or for a cell of more than
    :data:`omegatt.computads.SHARE_ABOVE` nodes the shared form, the cell
    followed by ``where { ... }`` with each subterm that recurs bound once,
    in post-order.  A hom cell's ``homgen(...)`` is for display only."""
    shared = shared_subterms(term)
    names: dict[tuple, str] = {}

    def text(node, context: str = AMBIENT) -> str:
        if names:
            name = names.get((node, context))
            if name is not None:
                return name
        if isinstance(node, Var):
            return node.name
        if isinstance(node, HomGenerator):
            return f"homgen({text(node.underlying, context)})"
        sphere = f"{text(node.sphere.src, SCHEME)} -> {text(node.sphere.tgt, SCHEME)}"
        if is_template(node):
            entries = "[]"
        else:
            entries = "[" + ", ".join([f"{p} => {text(v, context)}" for p, v in node.sub]) + "]"
        return f"coh {tree_text(node.tree)} {{ {sphere} }} {entries}"

    if not shared:
        return text(term)
    bindings = []
    for k, key in enumerate(shared, 1):
        body = text(*key)
        names[key] = name = f"{key[1]}{k}"
        bindings.append(f"{name} = {body}")
    return f"{text(term)} where {{ {'; '.join(bindings)} }}"


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
