"""Suspension, desuspension, and opposites of cells and computads."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given

import op_reference
import typecheck_reference
from conftest import coh_nodes, dimsets
from extras import swap_basepoints
from omegatt.computads import (
    Coh,
    Computad,
    Sphere,
    Var,
    boundary_at,
    cell_boundary,
    is_well_typed,
    pasting_computad,
    substitution,
    support,
)
from omegatt.globular import dimset
from omegatt.homcat import hom_factor, op_homcell
from omegatt.laws import all_dimsets, cell_corpus, loop_corpus, template_corpus
from omegatt.metaops import (
    BASE_MINUS,
    BASE_PLUS,
    NotASuspension,
    desuspend_cell,
    desuspend_computad,
    op_cell,
    op_computad,
    op_sphere,
    rename_cell,
    suspend_cell,
    suspend_computad,
    suspend_sphere,
)
from omegatt.oplib import comp_cell, compose, eh_computad, identity_cell
from omegatt.trees import comp_tree, disk_tree, op_positions_iso

W1 = dimset([1])
W2 = dimset([2])


class TestSuspendCell:
    def test_var_shifts_name_and_dim(self):
        assert suspend_cell(Var("x", 0)) == Var("1.x", 1)

    def test_template_suspends_to_shifted_template(self):
        assert suspend_cell(comp_cell(1, 0, 1)) == comp_cell(2, 1, 2)

    def test_root_positions_become_basepoints(self):
        up = suspend_cell(comp_cell(1, 0, 1))
        entries = dict(up.sub)
        assert entries["0"] == Var(BASE_MINUS, 0)
        assert entries["1"] == Var(BASE_PLUS, 0)

    def test_boundary_commutes(self):
        c = eh_computad().computad
        cell = c.var("a")
        up_c = suspend_computad(c).computad
        up = suspend_cell(cell)
        assert cell_boundary(up_c, up) == suspend_sphere(cell_boundary(c, cell))

    def test_suspended_cells_typecheck(self):
        for ambient, cell in cell_corpus():
            assert is_well_typed(suspend_computad(ambient).computad, suspend_cell(cell))

    def test_support_gains_exactly_the_basepoints(self):
        c = eh_computad().computad
        cell = c.var("a")
        up = suspend_cell(cell)
        up_c = suspend_computad(c).computad
        lifted = {f"1.{g}" for g in support(c, cell)}
        assert support(up_c, up) == lifted | {BASE_MINUS, BASE_PLUS}


class TestSuspendComputad:
    def test_eh(self):
        up = suspend_computad(eh_computad().computad)
        assert up.base == (Var(BASE_MINUS, 0), Var(BASE_PLUS, 0))
        c = up.computad
        assert c.generators_at(0) == (BASE_MINUS, BASE_PLUS)
        assert c.generators_at(1) == ("1.x",)
        assert c.sphere_of("1.x") == Sphere(Var(BASE_MINUS, 0), Var(BASE_PLUS, 0))

    def test_loop_cells_run_between_basepoints(self):
        c = eh_computad().computad
        up = suspend_computad(c)
        cell = suspend_cell(c.var("a"))
        ends = boundary_at(up.computad, cell, 0)
        assert (ends.src, ends.tgt) == up.base


class TestDesuspend:
    def test_inverts_suspension_on_cells(self):
        for _, cell in cell_corpus():
            assert desuspend_cell(suspend_cell(cell)) == cell

    def test_inverts_suspension_on_computads(self):
        for ambient, _ in template_corpus():
            assert desuspend_computad(suspend_computad(ambient).computad) == ambient

    def test_rejects_unshifted_var(self):
        with pytest.raises(NotASuspension):
            desuspend_cell(Var("x", 1))

    def test_rejects_dimension_zero(self):
        with pytest.raises(NotASuspension):
            desuspend_cell(Var("1.x", 0))

    def test_obstruction_path_points_into_substitution(self):
        up = suspend_cell(comp_cell(1, 0, 1))
        entries = dict(up.sub)
        entries["1.1.0"] = Var("f", 1)  # unshifted leaf deep in the term
        broken = Coh(up.tree, up.sphere, tuple(sorted(entries.items(), key=lambda kv: kv[0])))
        with pytest.raises(NotASuspension) as err:
            desuspend_cell(broken)
        assert "1.1.0" in err.value.path

    def test_rejects_moved_basepoint(self):
        c = eh_computad().computad
        cell = suspend_cell(identity_cell(c, c.var("x")))
        moved = rename_cell({BASE_MINUS: BASE_PLUS}, cell)
        with pytest.raises(NotASuspension):
            desuspend_cell(moved)

    def test_rejects_a_substitution_without_both_basepoints(self):
        """A suspended coherence cut down to fewer bindings than the two root
        sectors fails where the reference recursion fails, not on an index."""
        up = suspend_cell(comp_cell(1, 0, 1))
        for sub in (up.sub[:1], ()):
            cut = Coh(up.tree, up.sphere, sub)
            for desuspend in (desuspend_cell, typecheck_reference.desuspend):
                with pytest.raises(NotASuspension) as err:
                    desuspend(cut)
                assert err.value.path == ("sub",)
                assert err.value.message == "root sectors are not sent to the basepoints"


class TestOpCell:
    def test_var_is_fixed(self):
        assert op_cell(W1, Var("x", 0)) == Var("x", 0)

    def test_sphere_swaps_only_at_its_dimension(self):
        sphere = Sphere(Var("0", 0), Var("2", 0))
        assert op_sphere(W1, sphere) == Sphere(Var("2", 0), Var("0", 0))
        assert op_sphere(W2, sphere) == sphere

    def test_eh_horizontal_swaps_under_op1(self):
        c = eh_computad().computad
        a, b = c.var("a"), c.var("b")
        assert op_cell(W1, compose(c, a, 0, b)) == compose(c, b, 0, a)
        assert op_cell(W2, compose(c, a, 0, b)) == compose(c, a, 0, b)
        assert op_cell(W1, compose(c, a, 1, b)) == compose(c, a, 1, b)
        assert op_cell(W2, compose(c, a, 1, b)) == compose(c, b, 1, a)

    def test_boundary_commutes(self):
        c = eh_computad().computad
        cell = compose(c, c.var("a"), 1, c.var("b"))
        for w in (W1, W2, dimset([1, 2])):
            sphere = cell_boundary(op_computad(w, c), op_cell(w, cell))
            original = cell_boundary(c, cell)
            want = op_sphere(
                w, Sphere(op_cell(w, original.src), op_cell(w, original.tgt))
            )
            assert sphere == want

    def test_opposites_typecheck(self):
        for ambient, cell in cell_corpus():
            for w in (W1, W2, dimset([1, 2]), dimset([1, 2, 3])):
                assert is_well_typed(op_computad(w, ambient), op_cell(w, cell))

    @given(dimsets(), dimsets())
    def test_action_on_eh_cells(self, w, v):
        c = eh_computad().computad
        cell = compose(c, c.var("a"), 0, c.var("b"))
        assert op_cell(w, op_cell(v, cell)) == op_cell(dimset(w ^ v), cell)

    def test_whisker_template_transports_to_swapped_template(self):
        # Reversing dimension 1 sends the (2,0,1) whisker to the (1,0,2)
        # whisker, read through the position isomorphism of its scheme.
        cell = comp_cell(2, 0, 1)
        iso = op_positions_iso(W1, cell.tree)
        inv = {q: p for p, q in iso.items()}
        assert rename_cell(inv, op_cell(W1, cell)) == comp_cell(1, 0, 2)

    def test_fixed_template_transports_to_itself(self):
        cell = comp_cell(2, 1, 2)
        iso = op_positions_iso(W1, cell.tree)
        inv = {q: p for p, q in iso.items()}
        assert rename_cell(inv, op_cell(W1, cell)) == cell


class TestOpReference:
    """The opposite, which reuses the reversed sphere and the substitution
    order per dimension set and scheme, gives the very term that the
    reference in ``op_reference`` rebuilds from scratch."""

    @pytest.mark.parametrize("w", all_dimsets(3))
    def test_cells_match_the_reference(self, w):
        for _, cell in cell_corpus():
            assert op_cell(w, cell) is op_reference.op_cell(w, cell)

    @pytest.mark.parametrize("w", all_dimsets(3))
    def test_hom_cells_match_the_reference(self, w):
        pointed = eh_computad()
        for cell in loop_corpus():
            h = hom_factor(pointed, cell)
            assert op_homcell(w, h) is op_reference.op_homcell(w, h)

    def test_hom_cells_whose_sphere_memos_are_cold(self):
        """op_homcell reverses a coherence's sphere itself when no opposite
        is memoised on it yet: here the sphere of a left unitor, which no
        other opposite has met, over generators with fresh names."""
        c = Computad.make([["cold-x", "cold-y"], ["cold-f"]], {"cold-f": Sphere(Var("cold-x", 0), Var("cold-y", 0))})
        disk = pasting_computad(disk_tree(1))
        whiskered = compose(disk, identity_cell(disk, Var("0", 0)), 0, Var("1.0", 1))
        sub = substitution({"0": c.var("cold-x"), "1": c.var("cold-y"), "1.0": c.var("cold-f")})
        unitor = Coh(disk_tree(1), Sphere(whiskered, Var("1.0", 1)), sub)
        assert is_well_typed(c, unitor)
        pointed = suspend_computad(c)
        homcells = [hom_factor(pointed, suspend_cell(cell)) for cell in (unitor, identity_cell(c, unitor))]
        assert unitor.sphere._op is None
        for w in all_dimsets(3):
            for h in homcells:
                assert op_homcell(w, h) is op_reference.op_homcell(w, h)


class TestOpSuspensionInterplay:
    def test_op_of_suspension_shifts_the_dimension_set(self):
        c = eh_computad().computad
        cell = compose(c, c.var("a"), 0, c.var("b"))
        up = suspend_cell(cell)
        assert op_cell(W2, up) == suspend_cell(op_cell(W1, cell))

    def test_reversing_dimension_one_swaps_the_basepoints(self):
        c = eh_computad().computad
        cell = c.var("a")
        up = suspend_cell(cell)
        assert op_cell(W1, up) == swap_basepoints(suspend_cell(cell))


class TestOpComputad:
    def test_eh_is_self_dual(self):
        c = eh_computad().computad
        for w in (W1, W2, dimset([1, 2]), dimset([3]), dimset([1, 2, 3])):
            assert op_computad(w, c) == c

    def test_walking_composite_reverses(self):
        from test_computads import walking_composite

        c = walking_composite()
        flipped = op_computad(W1, c)
        assert flipped.sphere_of("f") == Sphere(Var("y", 0), Var("x", 0))

    def test_action_on_pasting_computads(self):
        pc = pasting_computad(comp_tree(2, 0, 1))
        assert op_computad(dimset([]), pc) == pc
        for w, v in ((W1, W2), (W1, W1), (dimset([1, 2]), W2)):
            assert op_computad(w, op_computad(v, pc)) == op_computad(dimset(w ^ v), pc)


class TestComputadMemos:
    def test_opposite_is_an_involution_on_the_nose(self):
        for c, _ in template_corpus():
            for w in all_dimsets(3):
                assert op_computad(w, op_computad(w, c)) is c
                assert op_computad(w, c) is op_computad(w, c)

    def test_suspension_is_memoised(self):
        for c, _ in template_corpus():
            up = suspend_computad(c).computad
            assert suspend_computad(c).computad is up
            assert desuspend_computad(up) is c

    def test_memos_keep_no_cycle(self):
        # a computad no other test builds, dropped with its memos: reference
        # counting alone must free it, so the memos hold no cycle
        gc.disable()
        try:
            c = Computad.make(
                [["m0", "m1"], ["m2"]], {"m2": Sphere(Var("m0", 0), Var("m1", 0))}
            )
            assert op_computad(W1, c)._op is None  # the inverse entry is not seeded
            refs = [weakref.ref(c)]
            for w in all_dimsets(3):
                refs.append(weakref.ref(op_computad(w, c)))
                refs.append(weakref.ref(op_computad(w, op_computad(w, c))))
            refs.append(weakref.ref(suspend_computad(op_computad(W1, c)).computad))
            del c
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


    def test_desuspension_is_memoised(self, monkeypatch):
        import omegatt.metaops as metaops

        calls, real = [], metaops.desuspend_sphere
        monkeypatch.setattr(metaops, "desuspend_sphere", lambda *a: calls.append(a) or real(*a))
        # a suspended computad no other test builds
        up = Computad.make(
            [[BASE_MINUS, BASE_PLUS], ["1.d0", "1.d1"], ["1.d2"]],
            {
                "1.d0": Sphere(Var(BASE_MINUS, 0), Var(BASE_PLUS, 0)),
                "1.d1": Sphere(Var(BASE_MINUS, 0), Var(BASE_PLUS, 0)),
                "1.d2": Sphere(Var("1.d0", 1), Var("1.d1", 1)),
            },
        )
        down = desuspend_computad(up)
        assert len(calls) == 1
        assert desuspend_computad(up) is down
        assert len(calls) == 1
        assert down._susp is None  # the inverse entry is not seeded

    def test_failed_desuspension_is_raised_every_time(self):
        c = eh_computad().computad
        for _ in range(2):
            with pytest.raises(NotASuspension):
                desuspend_computad(c)
        assert c._desusp is None

    def test_desuspension_memo_keeps_no_cycle(self):
        gc.disable()
        try:
            up = Computad.make(
                [[BASE_MINUS, BASE_PLUS], ["1.n0", "1.n1"], ["1.n2"]],
                {
                    "1.n0": Sphere(Var(BASE_MINUS, 0), Var(BASE_PLUS, 0)),
                    "1.n1": Sphere(Var(BASE_MINUS, 0), Var(BASE_PLUS, 0)),
                    "1.n2": Sphere(Var("1.n0", 1), Var("1.n1", 1)),
                },
            )
            down = desuspend_computad(up)
            assert suspend_computad(down).computad is up
            assert desuspend_computad(suspend_computad(op_computad(W1, down)).computad) is (
                op_computad(W1, down)
            )
            refs = [weakref.ref(up), weakref.ref(down), weakref.ref(op_computad(W1, down))]
            del up, down
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


def test_prefix_renamings_keep_the_canonical_order():
    # the corpus cells are built by compose and identity_cell, which list
    # their bindings in canonical order without sorting them
    cells = [cell for _, cell in cell_corpus()] + loop_corpus()
    up = [suspend_cell(cell) for cell in cells]
    for term in cells + up + [desuspend_cell(cell) for cell in up]:
        for node in coh_nodes(term):
            assert node.sub == substitution(node.sub)


class TestRename:
    def test_renames_outer_substitution_only(self):
        cell = comp_cell(1, 0, 1)
        renamed = rename_cell({"0": "5"}, cell)
        assert dict(renamed.sub)["0"] == Var("5", 0)
        assert renamed.sphere == cell.sphere
