"""Batanin trees: positions, boundaries, inclusions, opposites, enumeration."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dimsets, trees
from extras import src_of, suspend_glob, tgt_of, wedge
from shape_reference import BipointedGlobularSet, FiniteGlobularSet, op_glob_bipointed, positions
from omegatt.globular import dimset
from omegatt.trees import (
    MAX_COMP_DIM,
    BataninTree,
    boundary_tree,
    br,
    comp_tree,
    dim_tree,
    disk_tree,
    op_positions_iso,
    op_tree,
    pos_dim,
    src_inclusion,
    suspend_tree,
    tgt_inclusion,
    tree_from_list,
    tree_to_list,
    trees_with_nodes,
)

T_WHISKER = br(br(br(), br()), br())  # two 2-cells stacked, whiskered by an arrow
T_COMP2 = br(br(br(), br()))  # vertical composite of two 2-cells


class TestBasics:
    def test_dim(self):
        assert dim_tree(br()) == 0
        assert dim_tree(T_WHISKER) == 2
        assert dim_tree(disk_tree(4)) == 4

    def test_dim_of_a_tall_tree_is_read_not_recursed(self):
        assert dim_tree(disk_tree(2000)) == 2000

    def test_list_round_trip(self):
        assert tree_from_list(tree_to_list(T_WHISKER)) == T_WHISKER
        assert tree_to_list(T_COMP2) == [[[], []]]

    def test_repr(self):
        assert repr(T_COMP2) == "br[br[br[], br[]]]"

    def test_node_count(self):
        assert br().nodes == 1
        assert T_WHISKER.nodes == 5


class TestBoundary:
    def test_dim0_boundary_is_point(self):
        assert boundary_tree(0, T_WHISKER) == br()

    def test_dim1_boundary_prunes_leaves(self):
        assert boundary_tree(1, T_WHISKER) == br(br(), br())

    @given(trees(6), st.integers(min_value=0, max_value=5))
    def test_boundary_caps_dimension(self, t, k):
        assert dim_tree(boundary_tree(k, t)) <= k

    @given(trees(6), st.integers(min_value=0, max_value=5))
    def test_boundary_idempotent(self, t, k):
        assert boundary_tree(k, boundary_tree(k, t)) == boundary_tree(k, t)

    @given(trees(6))
    def test_boundary_at_dim_is_identity(self, t):
        assert boundary_tree(dim_tree(t), t) == t


class TestCompTree:
    def test_two_arrows(self):
        assert comp_tree(1, 0, 1) == br(br(), br())

    def test_vertical_2(self):
        assert comp_tree(2, 1, 2) == T_COMP2

    def test_horizontal_2(self):
        assert comp_tree(2, 0, 2) == br(br(br()), br(br()))

    def test_whisker(self):
        assert comp_tree(2, 0, 1) == br(br(br()), br())

    def test_boundaries_are_disks_or_comps(self):
        # the k-boundary of the composition scheme is the k-disk scheme
        for (n, k, m) in [(1, 0, 1), (2, 1, 2), (3, 1, 2), (2, 0, 2)]:
            assert boundary_tree(k, comp_tree(n, k, m)) == disk_tree(k)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            comp_tree(1, 1, 1)
        with pytest.raises(ValueError):
            comp_tree(0, 0, 1)
        with pytest.raises(ValueError, match=f"max\\(n, m\\) <= {MAX_COMP_DIM - 1}"):
            comp_tree(1, 0, MAX_COMP_DIM)

    def test_dimension_bound_is_inclusive(self):
        # the literal of a scheme nests one deeper than its dimension
        assert comp_tree(MAX_COMP_DIM - 1, 0, 1) == br(disk_tree(MAX_COMP_DIM - 2), br())


class TestPositions:
    def test_point(self):
        p = positions(br())
        assert p.carrier.cells == (("0",),)
        assert p.base == ("0", "0")

    def test_three_arrows(self):
        p = positions(br(br(), br(), br()))
        assert p.carrier.cells == (("0", "1", "2", "3"), ("1.0", "2.0", "3.0"))
        assert src_of(p.carrier, 1, "2.0") == "1"
        assert tgt_of(p.carrier, 1, "2.0") == "2"
        assert p.base == ("0", "3")

    def test_vertical_composite_scheme(self):
        p = positions(T_COMP2)
        assert p.carrier.cells == (("0", "1"), ("1.0", "1.1", "1.2"), ("1.1.0", "1.2.0"))
        assert src_of(p.carrier, 2, "1.1.0") == "1.0"
        assert tgt_of(p.carrier, 2, "1.1.0") == "1.1"
        assert src_of(p.carrier, 2, "1.2.0") == "1.1"
        assert tgt_of(p.carrier, 2, "1.2.0") == "1.2"

    @given(trees(6))
    def test_position_dimension_is_dot_count(self, t):
        carrier = positions(t).carrier
        for d in range(carrier.ndim + 1):
            for p in carrier.cells_at(d):
                assert pos_dim(p) == d

    @given(trees(6))
    def test_suspension_of_positions_is_positions_of_suspension(self, t):
        assert suspend_glob(positions(t).carrier) == positions(suspend_tree(t))

    @given(trees(6))
    def test_wedge_of_suspensions_up_to_canonical_rename(self, t):
        # positions(br[B1..Bn]) equals the wedge of suspended child position
        # sets after collapsing the double prefix "i.1." to "i.".
        got = wedge([suspend_glob(positions(c).carrier) for c in t.children])
        if len(t.children) >= 2:
            fix = lambda s: s.replace(".1.", ".", 1) if "." in s else s
            g = got.carrier
            pairs = [tuple([tuple([(fix(c), fix(b)) for c, b in level]) for level in side]) for side in (g.srcs, g.tgts)]
            cells = tuple([tuple(map(fix, level)) for level in g.cells])
            got = BipointedGlobularSet(FiniteGlobularSet(cells, *pairs), tuple(map(fix, got.base)))
        if t.children:
            assert got == positions(t)


class TestInclusions:
    def test_dim0(self):
        assert dict(src_inclusion(0, T_WHISKER)) == {"0": "0"}
        assert dict(tgt_inclusion(0, T_WHISKER)) == {"0": "2"}

    def test_dim1_whisker(self):
        assert dict(src_inclusion(1, T_WHISKER)) == {
            "0": "0", "1": "1", "2": "2", "1.0": "1.0", "2.0": "2.0"
        }
        assert dict(tgt_inclusion(1, T_WHISKER)) == {
            "0": "0", "1": "1", "2": "2", "1.0": "1.2", "2.0": "2.0"
        }

    @given(trees(6), st.integers(min_value=0, max_value=4))
    def test_inclusions_are_injective_morphisms(self, t, k):
        bt = boundary_tree(k, t)
        dom, cod = positions(bt).carrier, positions(t).carrier
        for inc_name, inc in (("src", src_inclusion(k, t)), ("tgt", tgt_inclusion(k, t))):
            assert sorted(inc) == sorted(p for _, p in dom.all_cells())
            assert len(set(inc.values())) == len(inc)
            for d in range(1, dom.ndim + 1):
                for p in dom.cells_at(d):
                    assert inc[src_of(dom, d, p)] == src_of(cod, d, inc[p]), inc_name
                    assert inc[tgt_of(dom, d, p)] == tgt_of(cod, d, inc[p]), inc_name

    @given(trees(6), st.integers(min_value=0, max_value=4))
    def test_inclusions_preserve_basepoints_above_dim0(self, t, k):
        if k == 0:
            return
        bt = boundary_tree(k, t)
        for inc in (src_inclusion(k, t), tgt_inclusion(k, t)):
            assert inc[positions(bt).base_minus] == positions(t).base_minus
            assert inc[positions(bt).base_plus] == positions(t).base_plus

    @given(trees(6))
    def test_inclusion_at_full_dim_is_identity(self, t):
        n = dim_tree(t)
        assert all(p == q for p, q in src_inclusion(n, t).items())
        assert all(p == q for p, q in tgt_inclusion(n, t).items())


class TestOpTree:
    def test_op1_reverses_children(self):
        assert op_tree(dimset([1]), T_WHISKER) == br(br(), br(br(), br()))

    def test_op2_reverses_grandchildren(self):
        assert op_tree(dimset([2]), T_WHISKER) == T_WHISKER  # unary/leaf children
        t = br(br(br(), br(br())))
        assert op_tree(dimset([2]), t) == br(br(br(br()), br()))

    @given(trees(6), dimsets(3), dimsets(3))
    def test_action_by_symmetric_difference(self, t, w, v):
        assert op_tree(w, op_tree(v, t)) == op_tree(w ^ v, t)

    @given(trees(6), dimsets(3))
    def test_preserves_dim_and_nodes(self, t, w):
        assert dim_tree(op_tree(w, t)) == dim_tree(t)
        assert op_tree(w, t).nodes == t.nodes


class TestOpPositionsIso:
    def test_frozen_example_two_arrows(self):
        t = br(br(), br())
        assert dict(op_positions_iso(dimset([1]), t)) == {
            "0": "2", "1": "1", "2": "0", "1.0": "2.0", "2.0": "1.0"
        }

    @given(trees(6), dimsets(3))
    def test_is_bijection_onto_positions(self, t, w):
        iso = op_positions_iso(w, t)
        dom = sorted(p for _, p in positions(op_tree(w, t)).carrier.all_cells())
        cod = sorted(p for _, p in positions(t).carrier.all_cells())
        assert sorted(iso) == dom
        assert sorted(iso.values()) == cod

    @given(trees(6), dimsets(3))
    def test_is_bipointed_morphism_into_op_of_positions(self, t, w):
        # as a map positions(op_tree(w,t)) -> op_w(positions(t)): commutes
        # with src/tgt and preserves basepoints.
        iso = op_positions_iso(w, t)
        dom = positions(op_tree(w, t))
        cod = op_glob_bipointed(w, positions(t))
        assert iso[dom.base_minus] == cod.base_minus
        assert iso[dom.base_plus] == cod.base_plus
        g, h = dom.carrier, cod.carrier
        for d in range(1, g.ndim + 1):
            for p in g.cells_at(d):
                assert iso[src_of(g, d, p)] == src_of(h, d, iso[p])
                assert iso[tgt_of(g, d, p)] == tgt_of(h, d, iso[p])

    @given(trees(5), dimsets(3), dimsets(3))
    def test_iso_composition_law(self, t, w, v):
        # iso(wΔv, t) = iso(v, t) ∘ iso(w, op_v t)
        lhs = op_positions_iso(w ^ v, t)
        inner = op_positions_iso(w, op_tree(v, t))
        outer = op_positions_iso(v, t)
        assert dict(lhs) == {p: outer[q] for p, q in inner.items()}


class TestEnumeration:
    def test_catalan_counts(self):
        assert [sum(1 for _ in trees_with_nodes(n)) for n in range(1, 7)] == [
            1, 1, 2, 5, 14, 42
        ]

    def test_all_have_right_node_count(self):
        for n in range(1, 7):
            assert all(t.nodes == n for t in trees_with_nodes(n))

    def test_no_duplicates(self):
        seen = list(trees_with_nodes(6))
        assert len(seen) == len(set(seen))
