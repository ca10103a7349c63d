"""The shared form of large terms: text and JSON that grow with the DAG.

Round trips run with the limit at 0, so every term that has a repeated
subterm is written in shared form; at the default limit nothing small
changes, which the goldens and the sample comparison below pin.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dimsets
from omegatt import computads
from omegatt.computads import Var, cell_from_json, cell_to_json, pasting_computad, shared_subterms
from omegatt.export import LEAVES, document_from_json, document_to_json, json_text
from omegatt.homcat import hom_factor
from omegatt.laws import cell_corpus, loop_corpus
from omegatt.metaops import op_cell, op_computad, suspend_cell, suspend_computad
from omegatt.oplib import comp_cell, eh_computad, identity_cell
from omegatt.surface import SurfaceError, cell_text, computad_text, document_text, load_document
from omegatt.trees import pos_dim

WALKING = load_document("computad walking { x : * ; y : * ; f : x -> y ; }").computads[0][1]


@contextmanager
def sharing_all():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(computads, "SHARE_ABOVE", 0)
        yield


@pytest.fixture
def share_all():
    with sharing_all():
        yield


@functools.cache
def corpus() -> list:
    """(ambient, cell) pairs: the law corpus, comp_cell(n,0,n) for n <= 12
    over its scheme, and id nested up to 8 deep on a 1-generator."""
    out = list(cell_corpus())
    for n in range(1, 13):
        cell = comp_cell(n, 0, n)
        out.append((pasting_computad(cell.tree), cell))
    cell = WALKING.var("f")
    for _ in range(8):
        cell = identity_cell(WALKING, cell)
        out.append((WALKING, cell))
    return out


def transformed(case, how: str, w: frozenset[int]):
    """The case itself, its suspension or its w-opposite."""
    ambient, cell = case
    if how == "susp":
        return suspend_computad(ambient).computad, suspend_cell(cell)
    if how == "op":
        return op_computad(w, ambient), op_cell(w, cell)
    return ambient, cell


cases = st.tuples(st.integers(0, 10**6), st.sampled_from(["plain", "susp", "op"]), dimsets())


def pick(data):
    index, how, w = data
    return transformed(corpus()[index % len(corpus())], how, w)


def dim_of(ambient):
    return lambda name: ambient.dim_of(name) if ambient.has_generator(name) else pos_dim(name)


class TestRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(cases)
    def test_print_then_parse_gives_the_same_object(self, data):
        ambient, cell = pick(data)
        with sharing_all():
            text = computad_text("c", ambient) + f"\nlet t = {cell_text(cell)}\n"
        doc = load_document(text)
        assert doc.cells[0][1].term is cell
        assert doc.computads[0][1] is ambient

    @settings(max_examples=150, deadline=None)
    @given(cases)
    def test_export_then_import_gives_the_same_object(self, data):
        ambient, cell = pick(data)
        with sharing_all():
            obj = json.loads(json.dumps(cell_to_json(cell)))
        assert cell_from_json(obj, dim_of(ambient)) is cell

    @settings(max_examples=100, deadline=None)
    @given(cases)
    def test_json_text_is_what_the_encoder_writes(self, data):
        _, cell = pick(data)
        with sharing_all():
            shared = cell_to_json(cell)
        for obj in (shared, cell_to_json(cell), {"cells": [{"term": shared}], "none": [], "empty": {}}):
            assert json_text(obj) == json.dumps(obj, indent=2)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(loop_corpus()), dimsets())
    def test_hom_cells_export_through_the_leaf(self, cell, w):
        pointed = eh_computad()
        h = hom_factor(pointed, op_cell(w, cell))
        encode, decode = LEAVES["homcell"]
        with sharing_all():
            obj = json.loads(json.dumps(cell_to_json(h, encode)))
        assert cell_from_json(obj, pointed.computad.dim_of, decode) is h

    def test_susp_names_such_as_1_f_round_trip(self, share_all):
        cell = WALKING.var("f")
        for _ in range(3):
            cell = identity_cell(WALKING, cell)
        ambient, cell = transformed((WALKING, cell), "susp", frozenset())
        text = cell_text(cell)
        assert " where { " in text and "1.f" in text
        doc = load_document(computad_text("c", ambient) + f"\nlet t = {text}\n")
        assert doc.cells[0][1].term is cell

    def test_document_round_trip_in_shared_form(self, share_all):
        source = (
            "computad walking { x : * ; y : * ; f : x -> y ; a : id(id(id(f))) -> id(id(id(f))) ; }\n"
            "let t = id(id(id(f)))\n"
        )
        doc = load_document(source)
        text = document_text(doc)
        assert text.count(" where { ") == 3  # both sides of a, and t
        assert document_text(load_document(text)) == text
        back = document_from_json(json.loads(json.dumps(document_to_json(doc))))
        assert back.cells[0][1].term is doc.cells[0][1].term


def test_lets_off_a_block_come_back_over_their_own_computads():
    """A let whose term does not live over a block (an opposite, a
    suspension, a template, a hom cell of an opposite) is written with its
    ambient computad, so each term and each ambient comes back as the same
    object, where a guessed ambient would decode its generators as points."""
    doc = load_document(
        "computad c { x : * ; y : * ; f : x -> y ; g : y -> x ; }\n"
        "let fg = comp(1,0,1)[f, g]\n"
        "let a = op{1}(fg)\n"
        "let s = susp(f)\n"
        "let t = comp(1,0,1)[]\n"
        "let h = homfactor(op{2}(id(f)))\n"
    )
    exported = document_to_json(doc)
    assert [entry["over"] for entry in exported["cells"]] == ["c", None, None, None, None]
    assert "ambient" not in exported["cells"][0]
    back = document_from_json(json.loads(json.dumps(exported)))
    assert [name for name, _ in back.cells] == ["fg", "a", "s", "t", "h"]
    for (_, want), (_, got) in zip(doc.cells, back.cells, strict=True):
        assert (got.kind, got.over) == (want.kind, want.over)
        assert got.term is want.term
        assert got.ambient is want.ambient


class TestWhenToShare:
    def test_small_terms_print_as_trees(self):
        cell = comp_cell(6, 0, 6)
        assert cell.size <= computads.SHARE_ABOVE
        assert shared_subterms(cell) == []
        assert "where" not in cell_text(cell) and "root" not in cell_to_json(cell)

    def test_large_terms_share(self):
        cell = comp_cell(7, 0, 7)
        assert cell.size == 1370 > computads.SHARE_ABOVE
        assert " where { @1 = " in cell_text(cell)
        assert set(cell_to_json(cell)) == {"sphere_nodes", "nodes", "root"}

    def test_sizes(self):
        assert Var("x", 0).size == 1
        assert comp_cell(10, 0, 10).size == 11214
        assert len(shared_subterms(comp_cell(10, 0, 10))) < 60  # distinct nodes

    def test_a_subterm_repeated_in_both_contexts_is_bound_in_each(self, share_all):
        # a template over its own scheme: the cells of its sphere, whose
        # leaves are positions, recur as its boundaries in the identity's
        # substitution, whose leaves are generators of the same names
        tmpl = comp_cell(3, 0, 3)
        pc = pasting_computad(tmpl.tree)
        cell = identity_cell(pc, identity_cell(pc, tmpl))
        shared = shared_subterms(cell)
        in_spheres = {node for node, context in shared if context == "@"}
        assert in_spheres & {node for node, context in shared if context == "$"}
        doc = load_document(computad_text("c", pc) + f"\nlet t = {cell_text(cell)}\n")
        assert doc.cells[0][1].term is cell

    def test_output_grows_polynomially(self):
        sizes = {n: len(cell_text(comp_cell(n, 0, n))) for n in (10, 20, 40)}
        assert sizes[40] / sizes[20] < 8
        assert sizes[20] / sizes[10] < 8


class TestMalformedJson:
    def shared(self):
        return cell_to_json(comp_cell(7, 0, 7))

    def test_forward_reference(self):
        obj = self.shared()
        obj["sphere_nodes"][0] = {"ref": 1}
        with pytest.raises(ValueError, match="not to an earlier node"):
            cell_from_json(obj, pos_dim)

    @pytest.mark.parametrize("k", [-1, 99, "0", 1.0, None])
    def test_out_of_range_reference(self, k):
        obj = self.shared()
        obj["root"]["coh"]["sphere"]["src"] = {"ref": k}
        with pytest.raises(ValueError, match="not to an earlier node"):
            cell_from_json(obj, pos_dim)

    def test_reference_without_a_table(self):
        with pytest.raises(ValueError, match="nodes reference 0"):
            cell_from_json({"ref": 0}, pos_dim)


class TestWhereIsAName:
    def test_where_as_a_generator_name(self):
        doc = load_document(
            "computad c { x : * ; where : * ; f : x -> where ; g : where -> x ; }\n"
            "let h = comp(1,0,1)[f, g]\nlet k = where\n"
        )
        assert [name for name, _ in doc.cells] == ["h", "k"]
        assert doc.cells[1][1].term is doc.computads[0][1].var("where")

    def test_where_as_a_let_name(self):
        doc = load_document(
            "computad c { x : * ; y : * ; f : x -> y ; }\nlet where = id(f)\nlet h = where\n"
        )
        assert [name for name, _ in doc.cells] == ["where", "h"]
        assert doc.cells[1][1].term is doc.cells[0][1].term

    def test_a_binding_may_refer_to_a_let(self):
        doc = load_document(
            "computad c { x : * ; y : * ; f : x -> y ; }\nlet a = id(f)\n"
            "let b = coh [[[]]] { 1.1.0 -> 1.1.0 } [0 => x, 1 => y, 1.0 => f, 1.1 => f, 1.1.0 => $1] "
            "where { $1 = a }\n"
        )
        assert doc.cells[1][1].term.sub[-1][1] is doc.cells[0][1].term

    def test_id_in_a_sphere_binding_is_located(self):
        with pytest.raises(SurfaceError) as err:
            load_document("let t = coh [[]] { @1 -> @1 } [] where { @1 = id(0) }")
        assert "@ binding" in err.value.message
