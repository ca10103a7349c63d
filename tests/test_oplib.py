"""Composition templates, identity cells, binary composition, Eckmann-Hilton."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from omegatt.computads import (
    Sphere,
    Var,
    boundary_at,
    cell_boundary,
    identity_sub,
    is_well_typed,
    pasting_computad,
)
from omegatt.oplib import (
    BoundaryMismatch,
    comp_cell,
    compose,
    eh_computad,
    identity_cell,
)
from omegatt.trees import boundary_tree, br, comp_tree, disk_tree


class TestCompCell:
    def test_binary_composite_of_arrows(self):
        cell = comp_cell(1, 0, 1)
        assert cell.tree == comp_tree(1, 0, 1)
        assert cell.sphere == Sphere(Var("0", 0), Var("2", 0))
        assert cell.sub == identity_sub(pasting_computad(cell.tree))

    def test_vertical_composite_of_2cells(self):
        cell = comp_cell(2, 1, 2)
        assert cell.tree == br(br(br(), br()))
        assert cell.sphere == Sphere(Var("1.0", 1), Var("1.2", 1))

    def test_whisker(self):
        cell = comp_cell(2, 0, 1)
        src = cell.sphere.src
        # the source arrow composes the 2-cell's source with the whiskering
        # arrow, over the dimension-1 boundary of the whisker tree
        assert src.tree == boundary_tree(1, cell.tree)
        assert cell_boundary(pasting_computad(cell.tree), cell) == cell.sphere

    def test_templates_typecheck(self):
        for n in range(1, 4):
            for m in range(1, 4):
                for k in range(min(n, m)):
                    cell = comp_cell(n, k, m)
                    assert cell.dim == max(n, m)
                    assert is_well_typed(pasting_computad(cell.tree), cell)

    def test_rejects_bad_arity(self):
        with pytest.raises(ValueError):
            comp_cell(1, 1, 1)
        with pytest.raises(ValueError):
            comp_cell(0, 0, 1)

    def test_base_case_sphere_is_a_pair_of_positions(self):
        assert comp_cell(2, 1, 2).sphere == Sphere(Var("1.0", 1), Var("1.2", 1))

    def test_nested_sphere_composes_the_boundary(self):
        # away from the base case, the sphere is itself a composite over the
        # boundary tree of the scheme
        outer = comp_cell(2, 0, 2)
        assert outer.sphere.src.tree == boundary_tree(1, outer.tree)
        assert outer.sphere.src.tree == comp_tree(1, 0, 1)


class TestIdentityCell:
    def test_identity_on_point(self):
        c = eh_computad().computad
        cell = identity_cell(c, c.var("x"))
        assert cell.tree == disk_tree(0)
        assert cell.dim == 1
        assert cell_boundary(c, cell) == Sphere(c.var("x"), c.var("x"))

    def test_identity_on_composite(self):
        c = eh_computad().computad
        ab = compose(c, c.var("a"), 1, c.var("b"))
        cell = identity_cell(c, ab)
        assert cell.dim == ab.dim + 1
        assert cell_boundary(c, cell) == Sphere(ab, ab)
        assert is_well_typed(c, cell)

    def test_identity_sub_fills_the_disk(self):
        c = eh_computad().computad
        cell = identity_cell(c, c.var("a"))
        assert dict(cell.sub)["1.1.0"] == c.var("a")


class TestCompose:
    def test_arrows(self):
        from test_computads import comp_fg, walking_composite

        c = walking_composite()
        assert compose(c, c.var("f"), 0, c.var("g")) == comp_fg(c)

    def test_boundary_of_composite(self):
        from test_computads import walking_composite

        c = walking_composite()
        fg = compose(c, c.var("f"), 0, c.var("g"))
        assert cell_boundary(c, fg) == Sphere(c.var("x"), c.var("z"))

    def test_rejects_mismatched_boundaries(self):
        from test_computads import walking_composite

        c = walking_composite()
        with pytest.raises(BoundaryMismatch):
            compose(c, c.var("g"), 0, c.var("f"))

    def test_rejects_bad_level(self):
        c = eh_computad().computad
        with pytest.raises(BoundaryMismatch):
            compose(c, c.var("a"), 2, c.var("b"))

    def test_mixed_dimensions_whisker(self):
        c = eh_computad().computad
        idx = identity_cell(c, c.var("x"))
        cell = compose(c, c.var("a"), 0, idx)
        assert cell.tree == comp_tree(2, 0, 1)
        assert is_well_typed(c, cell)

    def test_associated_boundaries_glue(self):
        c = eh_computad().computad
        ab = compose(c, c.var("a"), 1, c.var("b"))
        assert boundary_at(c, ab, 1) == Sphere(
            cell_boundary(c, c.var("a")).src, cell_boundary(c, c.var("b")).tgt
        )


class TestEhComputad:
    def test_shape(self):
        pointed = eh_computad()
        c = pointed.computad
        assert c.generators == (("x",), (), ("a", "b"))
        assert pointed.base == (c.var("x"), c.var("x"))

    def test_scalars_attached_to_identity(self):
        c = eh_computad().computad
        idx = identity_cell(c, c.var("x"))
        assert c.sphere_of("a") == Sphere(idx, idx)
        assert c.sphere_of("b") == Sphere(idx, idx)

    def test_attachments_typecheck(self):
        c = eh_computad().computad
        for g in ("a", "b"):
            sphere = c.sphere_of(g)
            assert is_well_typed(c.truncate(1), sphere.src)
            assert is_well_typed(c.truncate(1), sphere.tgt)


def test_eh_demo_runs_to_the_end(capsys):
    """``scripts/eh_demo.py``, which the README points to, asserts the two
    reversal identities and the hom round trip as it prints them."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "eh_demo.py"
    spec = importlib.util.spec_from_file_location("eh_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "computad eh {"
    for line in (
        "op{1}(comp(2,0,2)[a, b]) == comp(2,0,2)[b, a]",
        "op{2}(comp(2,1,2)[a, b]) == comp(2,1,2)[b, a]",
        "realize(factor(vertical)) == vertical",
    ):
        assert line in lines
    assert lines[-3:] == [
        "is_indecomposable(id(x)): True",
        "is_indecomposable(vertical): False",
        "is_indecomposable(horizontal): True",
    ]
