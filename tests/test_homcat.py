"""Hom computads: loop cells, factoring, indecomposability, transport."""

from __future__ import annotations

import pytest
from hypothesis import given

from conftest import coh_nodes, dimsets
from omegatt import homcat
from omegatt.computads import (
    Coh,
    Computad,
    Sphere,
    TypecheckError,
    Var,
    cell_from_json,
    cell_to_json,
    map_vars,
    substitution,
    typecheck_cell,
)
from omegatt.globular import dimset
from omegatt.homcat import (
    HomComputad,
    HomGenerator,
    hom_factor,
    hom_realize,
    homgen_from_json,
    homgen_to_json,
    is_indecomposable,
    is_loop_cell,
    op_homcell,
)
from omegatt.laws import all_dimsets, cell_corpus, loop_corpus, pointed_loops
from omegatt.metaops import BipointedComputad, op_bipointed, op_cell, suspend_cell, suspend_computad
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

    def test_suspensions_factor_through_the_unit(self):
        """The unit of suspension ⊣ hom: a suspended cell factors over the
        suspended computad as the cell itself, each generator ``v`` become
        the hom generator of ``1.v``."""
        for c, u in cell_corpus():
            unit = map_vars(lambda v: HomGenerator(Var(f"1.{v.name}", v.dim + 1)), u)
            assert hom_factor(suspend_computad(c), suspend_cell(u)) == unit

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
        """A loop cell whose desuspended sphere is not full is rejected over
        the ambient, and its factor over the hom computad, by the one
        typechecker, on every call.  The failure is not recorded as
        passed, and the factor of the sibling before it stays memoised."""
        pointed, c, a, b = eh_cells()
        bad = _not_full_loop(c, a)
        ab = compose(c, a, 1, b)
        parent = Coh(ab.tree, ab.sphere, tuple((p, bad if v is b else v) for p, v in ab.sub))
        factor = hom_factor(pointed, parent)
        cases = [(c, parent, "sub/1.2.0/sphere"), (HomComputad(pointed), factor, "sub/2.0/sphere")]
        for _ in range(2):
            for ambient, cell, where in cases:
                with pytest.raises(TypecheckError) as err:
                    typecheck_cell(ambient, cell)
                assert str(err.value) == f"NotFull at {where}: coherence sphere is not full over its scheme"
            memo, _, passed = c._hom[pointed.base]  # the factor walk's memo, the hom cells that passed
            assert memo[a] is HomGenerator(a)
            assert bad not in c._passed and parent not in c._passed
            assert dict(factor.sub)["2.0"] not in passed and factor not in passed

    def test_leaves_that_are_not_generators_of_the_hom(self):
        """Only a well-typed indecomposable loop cell is a generator of the
        hom computad; a Var is none, and a decomposable, a non-loop or an
        ill-typed cell under ``HomGenerator`` is rejected at its leaf."""
        pointed, c, a, b = eh_cells()
        hom = HomComputad(pointed)
        unknown = "UnknownGenerator at <root>: "
        cases = [
            (c.var("x"), unknown + "no generator named 'x'"),
            (HomGenerator(compose(c, a, 1, b)), unknown + "this leaf is no generator of the ambient"),
            (HomGenerator(c.var("x")), unknown + "this leaf is no generator of the ambient"),
            (HomGenerator(Var("y", 2)), unknown + "no generator named 'y'"),
            (HomGenerator(_not_full_loop(c, a)), "NotFull at sphere: coherence sphere is not full over its scheme"),
        ]
        for leaf, message in cases:
            with pytest.raises(TypecheckError) as err:
                typecheck_cell(hom, leaf)
            assert str(err.value) == message
        with pytest.raises(TypecheckError, match="this leaf is no generator of the ambient"):
            typecheck_cell(c, HomGenerator(a))


class TestTypedHoms:
    """Hom cells typecheck over the hom computad with the typechecker of
    plain cells, fullness included."""

    def test_every_factor_typechecks_over_its_hom_computad(self):
        for pointed, cell in pointed_loops():
            typecheck_cell(HomComputad(pointed), hom_factor(pointed, cell))

    def test_opposite_factors_typecheck_over_the_opposite_hom_computad(self):
        loops = pointed_loops()
        for w in all_dimsets(3):
            for pointed, cell in loops:
                typecheck_cell(HomComputad(op_bipointed(w, pointed)), op_homcell(w, hom_factor(pointed, cell)))

    def test_a_generator_is_attached_along_the_factor_of_its_boundary(self):
        """Over x, y with f, g, h: x -> y and al: f -> g, be: g -> h, the
        hom generator of ``al`` runs from that of ``f`` to that of ``g``,
        and the vertical composite of ``al`` and ``be`` factors to their
        composite over the hom computad, which checks those ends."""
        x, y = Var("x", 0), Var("y", 0)
        f, g, h = Var("f", 1), Var("g", 1), Var("h", 1)
        arrow = Sphere(x, y)
        c = Computad.make([["x", "y"], ["f", "g", "h"], ["al", "be"]],
                          {"f": arrow, "g": arrow, "h": arrow, "al": Sphere(f, g), "be": Sphere(g, h)})
        pointed = BipointedComputad(c, (x, y))
        hom = HomComputad(pointed)
        assert hom.entry(HomGenerator(c.var("al"))) == (1, Sphere(HomGenerator(f), HomGenerator(g)))
        assert hom.entry(HomGenerator(f)) == (0, None)
        composite = hom_factor(pointed, compose(c, c.var("al"), 1, c.var("be")))
        assert [v for _, v in composite.sub] == [HomGenerator(v) for v in (f, g, c.var("al"), h, c.var("be"))]
        typecheck_cell(hom, composite)
        twice = Coh(composite.tree, composite.sphere, tuple((p, composite.sub[-1][1] if p == "1.0" else v)
                                                         for p, v in composite.sub))
        with pytest.raises(TypecheckError, match="BadSubstitution at sub/1.0: assignment at 1.0 does not match"):
            typecheck_cell(hom, twice)

    def test_a_factor_with_swapped_ends_is_rejected(self, monkeypatch):
        """A seeded ``hom_factor`` that swaps the ends of each factored
        sphere: every factor it changes fails the typechecker over the hom
        computad.  Its memos are fresh per call, so no mutant factor is
        kept on a computad."""
        loops = pointed_loops()
        clean = [hom_factor(pointed, cell) for pointed, cell in loops]
        real = homcat._hom_factor_node

        def swapped(c, cell):
            h = yield from real(c, cell)
            return Coh(h.tree, Sphere(h.sphere.tgt, h.sphere.src), h.sub) if type(h) is Coh else h

        monkeypatch.setattr(homcat, "_hom_factor_node", swapped)
        monkeypatch.setattr(homcat, "_memos", lambda c: ({}, {}, set()))
        changed = 0
        for (pointed, cell), h in zip(loops, clean):
            mutant = hom_factor(pointed, cell)
            if mutant is not h:
                changed += 1
                with pytest.raises(TypecheckError):
                    typecheck_cell(HomComputad(pointed), mutant)
        assert changed == 151


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
