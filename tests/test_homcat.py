"""Hom computads: loop cells, factoring, indecomposability, transport."""

from __future__ import annotations

import pytest
from hypothesis import given

from conftest import coh_nodes, dimsets
from omegatt.computads import Coh, Sphere, Var, cell_from_json, cell_to_json, substitution
from omegatt.globular import dimset
from omegatt.homcat import (
    HomFactorError,
    HomGenerator,
    hom_factor,
    hom_realize,
    homgen_from_json,
    homgen_to_json,
    is_indecomposable,
    is_loop_cell,
    op_homcell,
)
from omegatt.laws import loop_corpus
from omegatt.metaops import op_bipointed, op_cell, suspend_cell, suspend_computad
from omegatt.oplib import comp_cell, compose, eh_computad, identity_cell
from omegatt.trees import comp_tree, pos_dim, sorted_positions, suspend_tree


def eh_cells():
    pointed = eh_computad()
    c = pointed.computad
    return pointed, c, c.var("a"), c.var("b")


class TestLoopCells:
    def test_scalars_are_loops(self):
        pointed, c, a, b = eh_cells()
        assert is_loop_cell(pointed, a)
        assert is_loop_cell(pointed, identity_cell(c, c.var("x")))

    def test_points_are_not_loops(self):
        pointed, c, *_ = eh_cells()
        assert not is_loop_cell(pointed, c.var("x"))

    def test_suspended_cells_are_loops(self):
        for _, cell in _suspended_samples():
            pointed = _suspended_ambient(cell)
            assert is_loop_cell(pointed, cell)


def _suspended_samples():
    out = []
    for n, k, m in ((1, 0, 1), (2, 0, 1), (2, 1, 2)):
        out.append(((n, k, m), suspend_cell(comp_cell(n, k, m))))
    return out


def _suspended_ambient(cell):
    from omegatt.computads import pasting_computad
    from omegatt.metaops import desuspend_cell

    return suspend_computad(pasting_computad(desuspend_cell(cell).tree))


class TestFactor:
    def test_identity_on_base_is_a_generator(self):
        pointed, c, *_ = eh_cells()
        idx = identity_cell(c, c.var("x"))
        h = hom_factor(pointed, idx)
        assert h == HomGenerator(idx)
        assert h.dim == 0

    def test_scalar_becomes_a_generator_one_dim_down(self):
        pointed, c, a, b = eh_cells()
        h = hom_factor(pointed, a)
        assert h == HomGenerator(a)
        assert h.dim == 1

    def test_vertical_composite_factors_to_horizontal(self):
        pointed, c, a, b = eh_cells()
        ab = compose(c, a, 1, b)
        h = hom_factor(pointed, ab)
        assert isinstance(h, Coh)
        assert h.tree == comp_tree(1, 0, 1)
        entries = dict(h.sub)
        assert entries["1.0"] == HomGenerator(a)
        assert entries["2.0"] == HomGenerator(b)

    def test_horizontal_composite_is_indecomposable(self):
        pointed, c, a, b = eh_cells()
        ab = compose(c, a, 0, b)
        assert hom_factor(pointed, ab) == HomGenerator(ab)

    def test_suspension_images_factor(self):
        for (n, k, m), cell in _suspended_samples():
            pointed = _suspended_ambient(cell)
            h = hom_factor(pointed, cell)
            assert isinstance(h, Coh)
            assert h.tree == comp_tree(n, k, m)

    def test_rejects_non_loops(self):
        pointed, c, *_ = eh_cells()
        with pytest.raises(ValueError):
            hom_factor(pointed, c.var("x"))


class TestRealize:
    def test_round_trip_on_corpus(self):
        pointed = eh_computad()
        for cell in loop_corpus():
            h = hom_factor(pointed, cell)
            assert hom_realize(pointed, h) == cell
            assert hom_factor(pointed, hom_realize(pointed, h)) == h

    def test_factoring_keeps_the_canonical_order(self):
        pointed = eh_computad()
        for cell in loop_corpus():
            for node in coh_nodes(hom_factor(pointed, cell)):
                assert node.sub == substitution(node.sub)

    def test_realize_after_factor_is_the_cell_itself(self):
        pointed = eh_computad()
        for cell in loop_corpus():
            assert hom_realize(pointed, hom_factor(pointed, cell)) is cell

    def test_generator_realizes_to_its_cell(self):
        pointed, c, a, _ = eh_cells()
        assert hom_realize(pointed, HomGenerator(a)) == a


def _not_full_loop(c, a):
    """A loop 2-cell over the Eckmann-Hilton computad in the suspension
    shape whose desuspended sphere, 0 -> 0 over two arrows, is not full."""
    x = c.var("x")
    id_x = identity_cell(c, x)
    tree = suspend_tree(comp_tree(1, 0, 1))
    sub = tuple((p, (x, id_x, a)[pos_dim(p)]) for p in sorted_positions(tree))
    return Coh(tree, Sphere(Var("1.0", 1), Var("1.0", 1)), sub)


class TestFactorFailures:
    def test_failure_repeats_after_a_sibling_was_memoised(self):
        pointed, c, a, b = eh_cells()
        bad = _not_full_loop(c, a)
        ab = compose(c, a, 1, b)
        parent = Coh(ab.tree, ab.sphere, tuple((p, bad if v is b else v) for p, v in ab.sub))
        errors = []
        for _ in range(2):
            with pytest.raises(HomFactorError) as err:
                hom_factor(pointed, parent)
            errors.append((err.value.path, str(err.value)))
            memo = c._hom[pointed.base][0]  # the factor walk's memo
            assert memo[a] is HomGenerator(a)  # the sibling before it
            assert bad not in memo and parent not in memo
        assert errors[0] == errors[1] == (
            ("sphere",),
            "hom factorization failed at sphere: desuspended sphere is not full over the desuspended scheme",
        )


class TestIndecomposable:
    def test_identity_on_base(self):
        pointed, c, *_ = eh_cells()
        assert is_indecomposable(pointed, identity_cell(c, c.var("x")))

    def test_suspension_images_are_decomposable(self):
        for _, cell in _suspended_samples():
            pointed = _suspended_ambient(cell)
            assert not is_indecomposable(pointed, cell)

    def test_rejects_non_loops(self):
        pointed, c, *_ = eh_cells()
        with pytest.raises(ValueError):
            is_indecomposable(pointed, c.var("x"))


class TestOpTransport:
    @given(dimsets())
    def test_transport_on_scalars(self, w):
        pointed, c, a, b = eh_cells()
        for cell in (a, compose(c, a, 1, b), compose(c, a, 0, b)):
            assert hom_factor(op_bipointed(w, pointed), op_cell(w, cell)) is op_homcell(w, hom_factor(pointed, cell))

    def test_op_homcell_shifts_the_dimension_set(self):
        pointed, c, a, b = eh_cells()
        ab = compose(c, a, 1, b)
        h = hom_factor(pointed, ab)
        flipped = op_homcell(dimset([2]), h)
        entries = dict(flipped.sub)
        # dimension 2 acts as dimension 1 inside the hom, swapping the order
        assert entries["1.0"] == HomGenerator(b)
        assert entries["2.0"] == HomGenerator(a)


class TestHomJson:
    def test_round_trip(self):
        pointed, c, a, b = eh_cells()
        for cell in (identity_cell(c, c.var("x")), compose(c, a, 1, b)):
            h = hom_factor(pointed, cell)
            obj = cell_to_json(h, homgen_to_json)
            assert cell_from_json(obj, c.dim_of, homgen_from_json) == h

    def test_generator_shape(self):
        pointed, c, a, _ = eh_cells()
        obj = cell_to_json(HomGenerator(a), homgen_to_json)
        assert set(obj) == {"homgen"}
