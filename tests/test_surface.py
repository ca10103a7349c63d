"""Surface syntax: lexing, parsing, elaboration, canonical printing."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import char_lexer
from omegatt import computads
from omegatt.computads import Coh, Var, identity_sub, is_well_typed, pasting_computad
from omegatt.globular import dimset
from omegatt.metaops import op_cell, suspend_cell
from omegatt.oplib import comp_cell, compose, eh_computad, identity_cell
from omegatt.surface import (
    SourceLocation,
    SurfaceError,
    _located,
    cell_text,
    computad_text,
    document_text,
    lex,
    load_document,
    parse,
    tokenize,
)
from omegatt.trees import MAX_COMP_DIM, positions

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402  (perfbench's document generator)

EH_SOURCE = """
computad eh {
  x : * ;
  a : id(x) -> id(x) ;
  b : id(x) -> id(x) ;
}
"""

WALKING_SOURCE = """
computad walking {
  x : * ; y : * ; z : * ;
  f : x -> y ;
  g : y -> z ;
}
"""


class TestLexer:
    def test_kinds(self):
        kinds = [(t.kind, t.text) for t in tokenize("x 12 1.0 1.x let =>")[:-1]]
        assert kinds == [
            ("ident", "x"),
            ("num", "12"),
            ("pos", "1.0"),
            ("name", "1.x"),
            ("ident", "let"),
            ("punct", "=>"),
        ]

    def test_comments_and_locations(self):
        tokens = tokenize("# hello\n  x")
        assert tokens[0].text == "x"
        assert (tokens[0].location.line, tokens[0].location.col) == (2, 3)

    def test_trailing_dot_is_not_part_of_a_word(self):
        with pytest.raises(SurfaceError) as err:
            tokenize("1.")
        assert err.value.location.col == 2  # the number lexes, the dot does not

    def test_rejects_stray_characters(self):
        with pytest.raises(SurfaceError) as err:
            tokenize("x @ y")
        assert err.value.location.col == 3


def lexed(text: str, lexer=tokenize):
    """Every token as (kind, text, line, col), or the error's location and
    message."""
    try:
        return [(t.kind, t.text, t.location.line, t.location.col) for t in lexer(text)]
    except SurfaceError as err:
        return ("error", err.location.line, err.location.col, err.message)


# pieces of .ctt text, malformed ones included: blanks, line ends, comments,
# every punctuation mark, dotted words, trailing dots, non-ASCII letters and
# digits (² is a digit that int() does not read, ١ one that it does), shared
# subterm names and their sigils, and characters that are no token
FRAGMENTS = [
    " ", "\t", "\r", "\n", "\r\n", "# note", "#", "#x\n",
    "=>", "->", "=", "-", ">", "{", "}", "[", "]", "(", ")", ",", ";", ":", "*",
    ".", "x", "fg", "_", "let", "comp", "0", "12", "1.0", "1.2.0", "1.x", "a.b", "1.", "x..y",
    "é", "²", "١", "1.²", "@", "?", "\x0b", "\u2028", "$", "$1", "@23", "where",
]
ODD_CHARS = " \t\r\n#=->{}[](),;:*._x1é²١@$"


class TestLexerAgainstReference:
    """``tokenize`` gives the tokens, locations and errors of the
    character-by-character lexer in ``char_lexer``."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.sampled_from(FRAGMENTS), max_size=14).map("".join),
        st.sampled_from(["", " ", "\t\r", "\n", "# trailing comment", "  # c", "\n# c", "1."]),
    )
    def test_fragments(self, body, tail):
        text = body + tail
        assert lexed(text) == lexed(text, char_lexer.tokenize)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=ODD_CHARS, max_size=20))
    def test_characters(self, text):
        assert lexed(text) == lexed(text, char_lexer.tokenize)

    @pytest.mark.parametrize(
        "path",
        sorted((ROOT / "samples").glob("*.ctt")) + sorted((ROOT / "tests" / "golden").glob("*.ctt")),
        ids=lambda path: path.name,
    )
    def test_sample_files(self, path):
        text = path.read_text(encoding="utf-8")
        assert lexed(text) == lexed(text, char_lexer.tokenize)


def damaged_chain(n: int, seed: int, defect, at: int, fragment: str) -> str:
    """A generated chain-N document with ``fragment`` spliced in at ``at``
    (taken modulo its length)."""
    text = gen.chain_doc(n, random.Random(seed), defect).text
    at %= len(text) + 1
    return text[:at] + fragment + text[at:]


SOURCES = st.one_of(
    st.tuples(
        st.lists(st.sampled_from(FRAGMENTS), max_size=14).map("".join),
        st.sampled_from(["", " ", "\t\r", "\n", "# trailing comment", "  # c", "\n# c", "x  ", "x # c  ", "1."]),
    ).map("".join),
    st.builds(
        damaged_chain,
        st.integers(gen.CHAIN_MIN, 8),
        st.integers(0, 2**16),
        st.sampled_from([None, *gen.DEFECT_KINDS]),
        st.integers(0, 10**4),
        st.sampled_from(["", *FRAGMENTS]),
    ),
)


class TestLazyLocations:
    """The parser reads the token texts of ``lex`` and locates a token by
    its index only when an error leaves the module."""

    @settings(max_examples=300, deadline=None)
    @given(SOURCES)
    def test_parser_tokens_are_the_located_tokens(self, text):
        try:
            located = [t.text for t in tokenize(text)]
        except SurfaceError:
            with pytest.raises(SurfaceError):
                lex(text)
        else:
            assert lex(text) == located

    @settings(max_examples=300, deadline=None)
    @given(SOURCES)
    def test_an_index_locates_as_the_reference_locates(self, text):
        try:
            reference = char_lexer.tokenize(text)
        except SurfaceError:
            return
        step = max(1, len(reference) // 32)  # about 32 tokens of a long text, and the eof token
        for index in {*range(0, len(reference), step), len(reference) - 1}:
            with pytest.raises(SurfaceError) as err, _located(text):
                raise SurfaceError(index, "m")
            assert err.value.location == reference[index].location

    @settings(max_examples=300, deadline=None)
    @given(SOURCES)
    def test_a_stray_character_is_reported_before_any_syntax_error(self, text):
        try:
            char_lexer.tokenize(text)
        except SurfaceError as lexing:
            with pytest.raises(SurfaceError) as err:
                parse(text)
            assert (err.value.location, err.value.message) == (lexing.location, lexing.message)

    def test_a_stray_character_after_a_syntax_error(self):
        with pytest.raises(SurfaceError) as err:
            parse("let = x\nlet y = ?")
        assert (err.value.location, err.value.message) == (SourceLocation(2, 9), "unexpected character '?'")


class TestNumbers:
    def test_digit_that_int_does_not_read_is_located(self):
        with pytest.raises(SurfaceError) as err:
            load_document(WALKING_SOURCE + "let a = comp(²,0,1)[f, g]")
        assert err.value.location == SourceLocation(7, 14)
        assert err.value.message == "expected n (a number), found '²'"

    def test_dimension_that_int_does_not_read_is_located(self):
        with pytest.raises(SurfaceError) as err:
            load_document(WALKING_SOURCE + "let a = op{²}(f)")
        assert err.value.location == SourceLocation(7, 12)
        assert err.value.message == "expected a dimension (a number), found '²'"

    def test_decimal_digits_of_any_script_are_numbers(self):
        doc = load_document(WALKING_SOURCE + "let a = comp(١,0,١)[f, g]\nlet b = comp(1,0,1)[f, g]")
        cells = dict(doc.cells)
        assert cells["a"].term == cells["b"].term

    def test_comp_beyond_the_bound_is_located(self):
        with pytest.raises(SurfaceError) as err:
            load_document(f"let t = comp({MAX_COMP_DIM + 1},0,1)[]")
        assert err.value.location == SourceLocation(1, 9)
        assert f"max(n, m) <= {MAX_COMP_DIM - 1}" in err.value.message


class TestParseErrors:
    def test_located_unknown_token(self):
        with pytest.raises(SurfaceError) as err:
            load_document("computad c { x : * ; } let q = ?")
        assert err.value.location.line == 1

    def test_missing_arrow(self):
        with pytest.raises(SurfaceError, match="expected"):
            load_document("computad c { x : * ; f : x x ; }")

    def test_unknown_reference(self):
        with pytest.raises(SurfaceError, match="unknown cell 'q'"):
            load_document(WALKING_SOURCE + "let h = q")

    def test_duplicate_names(self):
        with pytest.raises(SurfaceError, match="already defined"):
            load_document(WALKING_SOURCE + "let f = g")

    def test_position_outside_scheme(self):
        with pytest.raises(SurfaceError, match="not a position"):
            load_document("let c = coh [[],[]] { 0 -> 9 } []")

    def test_missing_positions_listed(self):
        with pytest.raises(SurfaceError, match="misses positions"):
            load_document(EH_SOURCE + "let u = comp(2,1,2)[1.1.0 => a]")

    def test_ill_typed_let_is_located(self):
        with pytest.raises(SurfaceError, match="NotFull"):
            load_document(WALKING_SOURCE + "let u = coh [[],[]] { x -> x } []")


class TestElaboration:
    def test_block_matches_kernel_computad(self):
        doc = load_document(EH_SOURCE)
        assert doc.computad("eh") == eh_computad().computad

    def test_positional_comp_sugar(self):
        doc = load_document(WALKING_SOURCE + "let fg = comp(1,0,1)[f, g]")
        c = doc.computad("walking")
        assert dict(doc.cells)["fg"].term == compose(c, c.var("f"), 0, c.var("g"))

    def test_keyed_comp_equals_sugar(self):
        doc = load_document(
            WALKING_SOURCE
            + "let fg = comp(1,0,1)[f, g]\n"
            + "let fg2 = comp(1,0,1)[0 => x, 1 => y, 2 => z, 1.0 => f, 2.0 => g]"
        )
        cells = dict(doc.cells)
        assert cells["fg"].term == cells["fg2"].term

    def test_empty_brackets_are_the_template(self):
        doc = load_document("let t = comp(2,0,2)[]")
        elab = dict(doc.cells)["t"]
        assert elab.term == comp_cell(2, 0, 2)
        assert elab.ambient == pasting_computad(elab.term.tree)

    def test_position_aliases(self):
        doc = load_document("let t = coh [[],[]] { x -> z } []")
        assert dict(doc.cells)["t"].term == comp_cell(1, 0, 1)

    def test_aliases_do_not_leak_into_values(self):
        # the generator named a resolves in value position even though a is
        # also the first 2-dimensional position alias
        doc = load_document(EH_SOURCE + "let u = comp(2,1,2)[a, a]")
        c = doc.computad("eh")
        assert dict(doc.cells)["u"].term == compose(c, c.var("a"), 1, c.var("a"))

    def test_id_form(self):
        doc = load_document(EH_SOURCE + "let i = id(a)")
        c = doc.computad("eh")
        assert dict(doc.cells)["i"].term == identity_cell(c, c.var("a"))

    def test_id_in_a_sphere(self):
        doc = load_document("computad c { x : * ; }\nlet u = coh [] { id(0) -> id(0) } [0 => x]")
        elab = dict(doc.cells)["u"]
        point = Var("0", 0)
        assert elab.term.dim == 2
        assert elab.term.sphere.src is identity_cell(pasting_computad(elab.term.tree), point)
        assert is_well_typed(elab.ambient, elab.term)

    def test_nested_id_reads_no_globular_set(self):
        # elaborating reads each scheme through its pasting computad; the
        # cached position levels are for the tree laws alone
        depth = 37  # a depth no other test uses
        before = positions.cache_info()
        doc = load_document(f"computad c {{ x : * ; y : * ; f : x -> y ; }}\nlet t = {'id(' * depth}f{')' * depth}")
        assert dict(doc.cells)["t"].term.dim == depth + 1
        after = positions.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_susp_form(self):
        doc = load_document(EH_SOURCE + "let s = susp(a)")
        elab = dict(doc.cells)["s"]
        assert elab.term == suspend_cell(Var("a", 2))
        assert elab.ambient.has_generator("1.a")

    def test_op_form(self):
        doc = load_document(EH_SOURCE + "let v = comp(2,0,2)[a, b]\nlet o = op{1}(v)")
        cells = dict(doc.cells)
        assert cells["o"].term == op_cell(dimset([1]), cells["v"].term)

    def test_homfactor_form(self):
        doc = load_document(EH_SOURCE + "let v = comp(2,1,2)[a, b]\nlet h = homfactor(v)")
        elab = dict(doc.cells)["h"]
        assert elab.kind == "homcell"
        assert elab.term.tree == comp_cell(1, 0, 1).tree

    def test_homfactor_rejects_points(self):
        with pytest.raises(SurfaceError, match="dimension"):
            load_document(EH_SOURCE + "let h = homfactor(x)")

    def test_generator_spheres_may_nest_coherences(self):
        # a 3-generator attached between the two scalar composites
        source = EH_SOURCE + (
            "let v1 = comp(2,1,2)[a, b]\n"
            "let v2 = comp(2,1,2)[b, a]\n"
        )
        doc = load_document(source)
        c = doc.computad("eh")
        cells = dict(doc.cells)
        assert cells["v1"].term.dim == 2
        assert cells["v2"].term.dim == 2


def chain_source(n: int) -> str:
    """A chain of n 1-cells x(i-1) -> xi with a scalar 2-cell on each."""
    decls = [f"x{i} : * ;" for i in range(n + 1)]
    for i in range(1, n + 1):
        decls += [f"f{i} : x{i - 1} -> x{i} ;", f"a{i} : f{i} -> f{i} ;"]
    return "computad chain {\n  " + "\n  ".join(decls) + "\n}\n"


def test_block_typechecks_each_sphere_cell_once(monkeypatch):
    checked = []
    typecheck = computads.typecheck_cell

    def counted(c, cell):
        checked.append(cell.name)
        return typecheck(c, cell)

    monkeypatch.setattr(computads, "typecheck_cell", counted)
    n = 40
    chain = load_document(chain_source(n)).computad("chain")
    want = []
    for i in range(1, n + 1):
        want += [f"x{i - 1}", f"x{i}", f"f{i}", f"f{i}"]
    assert sorted(checked) == sorted(want)
    assert chain is computads.Computad.make(
        [list(level) for level in chain.generators], dict(chain.attach)
    )


class TestCanonicalPrinting:
    def test_var_prints_as_name(self):
        assert cell_text(Var("f", 1)) == "f"

    def test_template_prints_empty_brackets(self):
        assert cell_text(comp_cell(1, 0, 1)) == "coh [[],[]] { 0 -> 2 } []"

    def test_print_then_parse_is_identity_on_documents(self):
        source = (
            EH_SOURCE
            + "let v = comp(2,1,2)[a, b]\n"
            + "let h = comp(2,0,2)[a, b]\n"
            + "let i = id(v)\n"
            + "let t = comp(3,1,3)[]\n"
        )
        doc = load_document(source)
        text = document_text(doc)
        again = load_document(text)
        assert doc.computads == again.computads
        assert [(n, e.kind, e.term) for n, e in doc.cells] == [
            (n, e.kind, e.term) for n, e in again.cells
        ]
        assert document_text(again) == text

    def test_suspended_document_reparses(self):
        from omegatt.metaops import suspend_computad
        from omegatt.surface import ElabCell, ElabDocument

        doc = load_document(EH_SOURCE + "let v = comp(2,1,2)[a, b]")
        up = ElabDocument()
        for name, c in doc.computads:
            up.computads.append((name, suspend_computad(c).computad))
        for name, elab in doc.cells:
            up.cells.append(
                (name, ElabCell("cell", suspend_computad(elab.ambient).computad,
                                suspend_cell(elab.term), elab.over))
            )
        text = document_text(up)
        again = load_document(text)
        assert again.computads == up.computads
        assert [e.term for _, e in again.cells] == [e.term for _, e in up.cells]

    def test_computad_block_layout(self):
        text = computad_text("eh", eh_computad().computad)
        assert text.splitlines()[0] == "computad eh {"
        assert text.splitlines()[1] == "  x : * ;"
        assert text.endswith("}")

    def test_homgen_prints_one_way(self):
        doc = load_document(EH_SOURCE + "let v = comp(2,1,2)[a, b]\nlet h = homfactor(v)")
        printed = cell_text(dict(doc.cells)["h"].term)
        assert "homgen(a)" in printed
        with pytest.raises(SurfaceError):
            load_document(f"let q = {printed}")
