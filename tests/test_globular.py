"""Globular sets (the test-side records of ``shape_reference``): the checked
constructor, disks, wedge, suspension, hom, opposites."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dimsets, trees
from extras import disk, hom_glob, src_of, suspend_glob, tgt_of, wedge
from shape_reference import (
    BipointedGlobularSet,
    FiniteGlobularSet,
    checked,
    make,
    op_glob,
    op_glob_bipointed,
    positions,
)
from omegatt import globular
from omegatt.globular import nat_key
from omegatt.laws import all_dimsets
from omegatt.trees import all_trees, br, disk_tree, sorted_positions
from omegatt.trees import positions as cached_levels


def point(name: str = "p") -> FiniteGlobularSet:
    return make([[name]], {}, {})


EMPTY = make([], {}, {})


class TestMake:
    def test_rejects_duplicate_names_across_dimensions(self):
        with pytest.raises(ValueError, match="duplicate"):
            make([["x"], ["x"]], {"x": "x"}, {"x": "x"})

    def test_rejects_dangling_boundary(self):
        with pytest.raises(ValueError, match="dangling"):
            make([["a"], ["f"]], {"f": "a"}, {"f": "b"})

    def test_rejects_globularity_failure(self):
        # two parallel arrows, then a 2-cell between non-parallel ones
        with pytest.raises(ValueError, match="globularity"):
            make(
                [["a", "b", "c"], ["f", "g"], ["m"]],
                {"f": "a", "g": "b", "m": "f"},
                {"f": "b", "g": "c", "m": "g"},
            )

    @pytest.mark.parametrize(
        "cells, src, tgt, message",
        [
            ([["a", "x"], ["x"]], {"x": "a"}, {"x": "a"}, "duplicate cell name 'x'"),
            ([["a"], ["f"]], {"f": "a"}, {"f": "b"}, "dangling boundary on 1-cell 'f'"),
            (
                [["a", "b", "c"], ["f", "g"], ["m"]],
                {"f": "a", "g": "b", "m": "f"},
                {"f": "b", "g": "c", "m": "g"},
                "globularity fails at 2-cell 'm'",
            ),
            # a globularity failure at dimension 2 and a dangling boundary at
            # dimension 3: every dangling check runs before any globularity check
            (
                [["a", "b", "c"], ["f", "g"], ["m"], ["z"]],
                {"f": "a", "g": "b", "m": "f", "z": "m"},
                {"f": "b", "g": "c", "m": "g", "z": "nowhere"},
                "dangling boundary on 3-cell 'z'",
            ),
        ],
    )
    def test_each_defect_raises_its_exact_message(self, cells, src, tgt, message):
        with pytest.raises(ValueError) as err:
            make(cells, src, tgt)
        assert str(err.value) == message
        # the check of a record on pairs finds what make finds
        srcs, tgts = (
            ((),) + tuple(tuple((x, side[x]) for x in level) for level in cells[1:])
            for side in (src, tgt)
        )
        with pytest.raises(ValueError) as err:
            checked(FiniteGlobularSet(tuple(map(tuple, cells)), srcs, tgts))
        assert str(err.value) == message

    def test_trailing_empty_dimensions_dropped(self):
        g = make([["a"], []], {}, {})
        assert g.ndim == 0


class TestDisk:
    def test_disk0(self):
        assert disk(0).cells == (("top",),)

    def test_disk2_counts(self):
        assert tuple(len(level) for level in disk(2).cells) == (2, 2, 1)

    def test_disk3_matches_positions_of_linear_tree_up_to_rename(self):
        # rename positions of the height-3 linear tree to disk names
        from omegatt.trees import disk_tree

        p = positions(disk_tree(3)).carrier
        rename = {"0": "s0", "1": "t0", "1.0": "s1", "1.1": "t1",
                  "1.1.0": "s2", "1.1.1": "t2", "1.1.1.0": "top"}
        cells = [[rename[c] for c in level] for level in p.cells]
        src = {rename[c]: rename[src_of(p, d, c)]
               for d in range(1, p.ndim + 1) for c in p.cells_at(d)}
        tgt = {rename[c]: rename[tgt_of(p, d, c)]
               for d in range(1, p.ndim + 1) for c in p.cells_at(d)}
        assert make(cells, src, tgt) == disk(3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            disk(-1)


class TestWedge:
    def test_empty_wedge_is_doubly_pointed_point(self):
        assert wedge([]) == BipointedGlobularSet(disk(0), ("top", "top"))

    def test_single_part_unchanged(self):
        x = suspend_glob(disk(1))
        assert wedge([x]) == x

    def test_two_suspended_points_is_a_path(self):
        arrow = suspend_glob(point())
        w = wedge([arrow, arrow])
        assert w.carrier.cells == (("0", "1", "2"), ("1.1.p", "2.1.p"))
        assert w.base == ("0", "2")
        assert src_of(w.carrier, 1, "1.1.p") == "0"
        assert tgt_of(w.carrier, 1, "1.1.p") == "1"
        assert src_of(w.carrier, 1, "2.1.p") == "1"
        assert tgt_of(w.carrier, 1, "2.1.p") == "2"

    def test_loop_part_merges_chain_nodes(self):
        loop = BipointedGlobularSet(point(), ("p", "p"))
        w = wedge([loop, suspend_glob(point())])
        # part 1 glues nodes 0 and 1, so the chain collapses to 0 -- 2
        assert w.carrier.cells_at(0) == ("0", "2")
        assert w.base == ("0", "2")


class TestSuspend:
    def test_suspend_empty(self):
        s = suspend_glob(EMPTY)
        assert s.carrier.cells == (("0", "1"),)
        assert s.base == ("0", "1")

    def test_suspend_point_is_an_arrow(self):
        s = suspend_glob(point())
        assert s.carrier.cells == (("0", "1"), ("1.p",))
        assert src_of(s.carrier, 1, "1.p") == "0"
        assert tgt_of(s.carrier, 1, "1.p") == "1"

    @given(st.integers(min_value=0, max_value=4))
    def test_suspend_disk_counts(self, n):
        s = suspend_glob(disk(n)).carrier
        assert len(s.cells_at(0)) == 2
        for d in range(n + 1):
            assert len(s.cells_at(d + 1)) == len(disk(n).cells_at(d))


class TestHom:
    @given(trees(5))
    def test_hom_after_suspend_is_identity(self, t):
        x = positions(t).carrier
        assert hom_glob(suspend_glob(x)) == x

    def test_hom_of_arrow_pointed_forward(self):
        x = BipointedGlobularSet(disk(1), ("s0", "t0"))
        assert hom_glob(x).cells == (("top",),)

    def test_hom_of_arrow_pointed_backward_is_empty(self):
        x = BipointedGlobularSet(disk(1), ("t0", "s0"))
        assert hom_glob(x) == EMPTY


class TestOp:
    @given(trees(5))
    def test_op_empty_is_identity(self, t):
        x = positions(t).carrier
        assert op_glob(frozenset(), x) == x

    def test_op1_disk1_swaps_endpoints(self):
        g = op_glob(frozenset({1}), disk(1))
        assert src_of(g, 1, "top") == "t0"
        assert tgt_of(g, 1, "top") == "s0"

    @given(trees(4), dimsets(3), dimsets(3))
    def test_op_composes_by_symmetric_difference(self, t, w, v):
        x = positions(t).carrier
        assert op_glob(w, op_glob(v, x)) == op_glob(w ^ v, x)

    @given(trees(4), dimsets(3))
    def test_op_is_involutive(self, t, w):
        x = positions(t)
        assert op_glob_bipointed(w, op_glob_bipointed(w, x)) == x


# every tree with up to 7 nodes, and one whose branch indices run past 9
SHAPES = list(all_trees(7)) + [br(*[br()] * 5, disk_tree(2), *[br()] * 5)]


def maps(x: FiniteGlobularSet) -> tuple[dict[str, str], dict[str, str]]:
    return (
        {c: b for pairs in x.srcs for c, b in pairs},
        {c: b for pairs in x.tgts for c, b in pairs},
    )


class TestOrderedConstructions:
    """Positions, their names and opposites are built in canonical order
    without a sort; each must equal what the sorting constructor gives."""

    def test_positions_equal_make_on_their_own_data(self):
        for t in SHAPES:
            x = positions(t).carrier
            shuffled = [level[::-1] for level in x.cells]
            assert x == make(shuffled, *maps(x)), t

    def test_sorted_positions_are_the_natural_sort(self):
        for t in SHAPES:
            names = [p for _, p in positions(t).carrier.all_cells()]
            assert sorted_positions(t) == tuple(sorted(names, key=nat_key)), t

    def test_opposites_equal_make_on_swapped_maps(self):
        for t in SHAPES:
            x = positions(t).carrier
            src, tgt = maps(x)
            for w in all_dimsets(3):
                swapped = {c for d in w if d <= x.ndim for c in x.cells[d]}
                op_src = {c: (tgt if c in swapped else src)[c] for c in src}
                op_tgt = {c: (src if c in swapped else tgt)[c] for c in src}
                assert op_glob(w, x) == make(x.cells, op_src, op_tgt)
                assert op_glob(w, op_glob(w, x)) == x

    def test_no_sort_and_no_scan_on_the_ordered_paths(self, monkeypatch):
        calls = []

        def counted(f):
            def wrapper(*args):
                calls.append(f.__name__)
                return f(*args)

            return wrapper

        monkeypatch.setattr(globular, "nat_key", counted(globular.nat_key))
        # trees no other test builds, so their positions are built here
        fresh = [br(*(disk_tree(k % 4) for k in range(13))), br(disk_tree(5), br(br(), br(br())))]
        before = cached_levels.cache_info().misses
        for t in fresh:
            assert t._names is None
            cached_levels(t)
            sorted_positions(t)
            x = positions(t)
            hom_glob(suspend_glob(x.carrier))
            for w in all_dimsets(3):
                op_glob_bipointed(w, x)
        assert cached_levels.cache_info().misses > before
        assert calls == []
