"""Hash-consed terms: structurally equal terms are one object.

The invariants are checked with Hypothesis over the law corpora
(``cell_corpus``, ``loop_corpus``) and every dimension set up to 3.
"""

from __future__ import annotations

import copy
import gc
import json
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extras import table_size
from omegatt import computads, homcat, metaops
from omegatt.computads import (
    Coh,
    Computad,
    Sphere,
    Var,
    cell_key,
    pasting_computad,
    template_sub,
    typecheck_cell,
)
from omegatt.export import document_from_json, document_to_json
from omegatt.homcat import HomGenerator, hom_factor, hom_realize, op_homcell
from omegatt.laws import all_dimsets, cell_corpus, loop_corpus
from omegatt.metaops import BipointedComputad, desuspend_cell, op_cell, suspend_cell
from omegatt.globular import dimset
from omegatt.oplib import comp_cell, compose, eh_computad, identity_cell
from omegatt.surface import ElabCell, ElabDocument, document_text, load_document
from omegatt.trees import BataninTree, br

CELLS = cell_corpus()
LOOPS = loop_corpus()
LOOP_AMBIENT = eh_computad().computad
DIMSETS = all_dimsets(3)
NODE_CLASSES = (BataninTree, Var, Sphere, Coh, HomGenerator)

# an ambient computad with the term over it, from either corpus
ambient_cells = st.one_of(
    st.sampled_from(CELLS),
    st.sampled_from(LOOPS).map(lambda cell: (LOOP_AMBIENT, cell)),
)


def table_sizes() -> tuple[int, ...]:
    return tuple(table_size(cls) for cls in NODE_CLASSES)


class TestSharing:
    def test_equal_constructions_are_one_object(self):
        assert br(br(), br()) is br(br(), br())
        assert Var("x", 0) is Var("x", 0)
        assert Sphere(Var("x", 0), Var("y", 0)) is Sphere(Var("x", 0), Var("y", 0))
        assert comp_cell(2, 0, 2) is Coh(
            comp_cell(2, 0, 2).tree, comp_cell(2, 0, 2).sphere, list(comp_cell(2, 0, 2).sub)
        )

    def test_distinct_constructions_stay_apart(self):
        assert Var("x", 0) is not Var("x", 1)
        assert Var("x", 0) != Var("y", 0)
        assert br(br()) != br(br(), br())

    def test_copy_and_pickle_give_the_interned_node(self):
        cell = comp_cell(2, 1, 2)
        assert copy.copy(cell) is cell
        assert copy.deepcopy(cell) is cell
        assert pickle.loads(pickle.dumps(cell)) is cell

    def test_nodes_are_immutable(self):
        with pytest.raises(AttributeError):
            Var("x", 0).name = "y"
        with pytest.raises(AttributeError):
            del comp_cell(1, 0, 1).sphere

    def test_cell_key_is_memoised_on_the_node(self):
        cell = comp_cell(2, 0, 1)
        assert cell_key(cell) is cell_key(cell)


@settings(max_examples=60, deadline=None)
@given(ambient_cells, st.sampled_from(DIMSETS))
def test_opposite_is_an_involution_on_the_nose(pair, w):
    _, cell = pair
    assert op_cell(w, op_cell(w, cell)) is cell


@settings(max_examples=60, deadline=None)
@given(ambient_cells)
def test_desuspension_inverts_suspension_on_the_nose(pair):
    _, cell = pair
    assert desuspend_cell(suspend_cell(cell)) is cell


def _document(ambient, cell) -> ElabDocument:
    doc = ElabDocument()
    doc.computads.append(("c", ambient))
    doc.cells.append(("t", ElabCell("cell", ambient, cell, "c")))
    return doc


@settings(max_examples=60, deadline=None)
@given(ambient_cells)
def test_parse_after_print_gives_the_same_object(pair):
    ambient, cell = pair
    again = load_document(document_text(_document(ambient, cell)))
    assert again.computads == [("c", ambient)]
    assert again.cells[0][1].term is cell


@settings(max_examples=60, deadline=None)
@given(ambient_cells)
def test_json_import_after_export_gives_the_same_object(pair):
    ambient, cell = pair
    text = json.dumps(document_to_json(_document(ambient, cell)))
    assert document_from_json(json.loads(text)).cells[0][1].term is cell


def test_hom_json_import_after_export_gives_the_same_object():
    factored = [hom_factor(eh_computad(), cell) for cell in LOOPS]
    for w in DIMSETS:
        doc = ElabDocument()
        doc.computads.append(("eh", LOOP_AMBIENT))
        homcells = [op_homcell(w, h) for h in factored]
        doc.cells.extend((f"h{i}", ElabCell("homcell", LOOP_AMBIENT, h, "eh")) for i, h in enumerate(homcells))
        again = document_from_json(json.loads(json.dumps(document_to_json(doc))))
        assert all(elab.term is h for (_, elab), h in zip(again.cells, homcells, strict=True))


class TestTables:
    def test_invalid_constructions_raise_before_interning(self):
        point, arrow = Var("x", 0), Var("f", 1)
        before = table_sizes()
        with pytest.raises(ValueError):
            Var("y", -1)
        with pytest.raises(ValueError):
            Sphere(point, arrow)
        assert table_sizes() == before

    def test_dropped_terms_leave_the_tables(self):
        big = comp_cell(10, 0, 10)
        gc.collect()
        before = table_sizes()
        up = suspend_cell(big)
        assert table_size(Coh) > before[NODE_CLASSES.index(Coh)]
        del up
        gc.collect()
        assert table_sizes() == before


def _counting(monkeypatch, module, name: str) -> list:
    """Count the calls the module makes to one of its functions."""
    calls: list = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestMemos:
    """Hom factoring and typechecking are memoised on the computad, hom
    opposites on the hom-cell node and the reversed sphere of a coherence
    on its sphere: a second call does no work."""

    def test_second_factor_call_is_a_memo_hit(self, monkeypatch):
        pointed = eh_computad()
        cell = LOOPS[-1]
        first = hom_factor(pointed, cell)
        nodes = _counting(monkeypatch, homcat, "is_loop_cell")  # once per node factored
        assert hom_factor(pointed, cell) is first
        assert hom_realize(pointed, first) is hom_realize(pointed, first)
        assert nodes == []

    def test_second_op_homcell_call_is_a_memo_hit(self, monkeypatch):
        h = hom_factor(eh_computad(), LOOPS[-1])
        w = DIMSETS[-1]
        first = op_homcell(w, h)
        reversals = _counting(monkeypatch, homcat, "op_coh")
        assert op_homcell(w, h) is first
        assert reversals == []
        assert op_homcell(w, first) is h

    def test_coherences_on_one_sphere_share_the_reversed_sphere(self, monkeypatch):
        """The opposite of a second coherence with the same scheme and
        sphere reverses no sphere: only its substitution is new work."""
        point = {v: Var(v, 0) for v in ("share-x", "share-y", "share-z")}
        arrow = Sphere(point["share-y"], point["share-z"])
        c = Computad.make(
            [list(point), ["share-f", "share-g", "share-h"]],
            {"share-f": Sphere(point["share-x"], point["share-y"]), "share-g": arrow, "share-h": arrow},
        )
        first = compose(c, c.var("share-f"), 0, c.var("share-g"))
        second = compose(c, c.var("share-f"), 0, c.var("share-h"))
        assert (first.tree, first.sphere) == (second.tree, second.sphere)
        w = dimset([1, 2])
        reversed_first = op_cell(w, first)
        spheres = _counting(monkeypatch, metaops, "op_sphere")
        renamings = _counting(monkeypatch, metaops, "map_vars")
        reversed_second = op_cell(w, second)
        assert spheres == [] and renamings == []
        assert reversed_second.sphere is reversed_first.sphere
        flipped_c = metaops.op_computad(w, c)
        assert reversed_second is compose(flipped_c, c.var("share-h"), 0, c.var("share-f"))

    def test_var_bindings_are_kept_without_a_call(self, monkeypatch):
        """Generators are their own opposites: reversing a coherence whose
        bindings are all variables enters op_cell once, for the cell."""
        point = {v: Var(v, 0) for v in ("once-x", "once-y", "once-z")}
        c = Computad.make(
            [list(point), ["once-f", "once-g"]],
            {
                "once-f": Sphere(point["once-x"], point["once-y"]),
                "once-g": Sphere(point["once-y"], point["once-z"]),
            },
        )
        cell = compose(c, c.var("once-f"), 0, c.var("once-g"))
        template = comp_cell(1, 0, 1)
        assert (cell.tree, cell.sphere) == (template.tree, template.sphere)
        w = dimset([1])
        op_cell(w, template)  # the shared sphere is reversed here, not below
        assert cell._op is None
        entries = _counting(monkeypatch, metaops, "op_cell")
        flipped = metaops.op_cell(w, cell)
        assert entries == [None]
        assert flipped is compose(metaops.op_computad(w, c), c.var("once-g"), 0, c.var("once-f"))

    def test_reversed_sphere_dies_with_its_coherence(self):
        """Reference counting alone frees a fresh coherence, its opposite
        and the reversed sphere memoised on its sphere: the memo closes no
        cycle."""
        tree = br(br(), br())
        pc = pasting_computad(tree)
        f, g = pc.var("1.0"), pc.var("2.0")
        # f then g against f, then g whiskered by identities on both sides:
        # a sphere no other test or corpus builds
        left, right, padded = identity_cell(pc, pc.var("1")), identity_cell(pc, pc.var("2")), g
        for _ in range(3):
            padded = compose(pc, left, 0, compose(pc, padded, 0, right))
        cell = Coh(tree, Sphere(compose(pc, f, 0, g), compose(pc, f, 0, padded)), template_sub(tree))
        w = dimset([1, 2])
        gc.collect()
        gc.disable()
        try:
            flipped = op_cell(w, cell)
            assert op_cell(w, flipped) is cell  # memoised on flipped too
            assert op_cell(w, cell) is flipped
            sphere, reversed_sphere = weakref.ref(cell.sphere), weakref.ref(flipped.sphere)
            del cell, flipped
            assert sphere() is None
            assert reversed_sphere() is None
        finally:
            gc.enable()

    def test_second_typecheck_call_is_a_memo_hit(self, monkeypatch):
        ambient, cell = CELLS[-1]
        typecheck_cell(ambient, cell)
        assert cell in ambient._passed
        fullness = _counting(monkeypatch, computads, "is_full")
        typecheck_cell(ambient, cell)
        assert fullness == []

    def test_computad_memos_close_no_cycle(self):
        """Reference counting alone frees a fresh computad, its suspension
        and its opposite, although each memoises the other's image."""
        x, y = Var("cycle-x", 0), Var("cycle-y", 0)
        f, g = Var("cycle-f", 1), Var("cycle-g", 1)
        c = Computad.make(
            [["cycle-x", "cycle-y"], ["cycle-f", "cycle-g"], ["cycle-a"]],
            {"cycle-f": Sphere(x, y), "cycle-g": Sphere(x, y), "cycle-a": Sphere(f, g)},
        )
        w = dimset([1, 2])
        gc.collect()
        gc.disable()
        try:
            up = metaops.suspend_computad(c).computad
            assert metaops.desuspend_computad(up) is c
            flipped = metaops.op_computad(w, c)
            assert metaops.op_computad(w, flipped) is c
            assert c._susp and up._desusp and c._op and flipped._op
            refs = [weakref.ref(node) for node in (c, up, flipped)]
            del c, up, flipped
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_memos_die_with_their_computad(self):
        """Reference counting alone frees a dropped computad's hom memos and
        the hom cells they hold: the memos close no cycle."""
        loop = Sphere(Var("memo-p", 0), Var("memo-p", 0))
        c = Computad.make([["memo-p"], ["memo-f", "memo-g"]], {"memo-f": loop, "memo-g": loop})
        pointed = BipointedComputad(c, (c.var("memo-p"), c.var("memo-p")))
        cell = compose(c, c.var("memo-f"), 0, c.var("memo-g"))
        gc.collect()
        gc.disable()
        try:
            h = hom_factor(pointed, cell)
            reversed_h = op_homcell(dimset([1]), h)
            assert reversed_h.underlying is compose(c, c.var("memo-g"), 0, c.var("memo-f"))
            assert op_homcell(dimset([1]), reversed_h) is h  # memoised on reversed_h too
            gen, gen_op = weakref.ref(h), weakref.ref(reversed_h)
            del h, reversed_h, cell
            assert gen() is not None  # held by the memo on the computad
            assert gen_op() is not None  # held by the memo on the generator
            del c, pointed
            assert gen() is None
            assert gen_op() is None
        finally:
            gc.enable()
