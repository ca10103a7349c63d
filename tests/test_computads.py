"""Computads, cells, fullness, the typechecker, and double computads."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given

from conftest import trees
from extras import compose_morphisms, typecheck_morphism
from omegatt.computads import (
    Coh,
    Computad,
    Sphere,
    TypecheckError,
    Var,
    apply_morphism,
    boundary_at,
    cell_boundary,
    cell_from_json,
    cell_key,
    cell_to_json,
    computad_from_json,
    computad_to_json,
    counit_eval,
    double_computad,
    free_computad,
    identity_sub,
    is_full,
    is_well_typed,
    parallel,
    pasting_computad,
    substitution,
    subterm,
    support,
    term_diff,
    typecheck_cell,
)
from omegatt.globular import dimset
from omegatt.metaops import op_computad, suspend_computad
from omegatt.oplib import compose, eh_computad, identity_cell
from omegatt.trees import all_trees, br, comp_tree, disk_tree, pos_dim, positions

TWO_ARROWS = comp_tree(1, 0, 1)


def walking_composite() -> Computad:
    """Two arrows head to tail: x --f--> y --g--> z."""
    return Computad.make(
        [["x", "y", "z"], ["f", "g"]],
        {
            "f": Sphere(Var("x", 0), Var("y", 0)),
            "g": Sphere(Var("y", 0), Var("z", 0)),
        },
    )


def comp_fg(c: Computad) -> Coh:
    """The composite of f and g as an instance of the (1,0,1) template."""
    return Coh(
        TWO_ARROWS,
        Sphere(Var("0", 0), Var("2", 0)),
        substitution(
            {
                "0": c.var("x"),
                "1": c.var("y"),
                "2": c.var("z"),
                "1.0": c.var("f"),
                "2.0": c.var("g"),
            }
        ),
    )


class TestComputadMake:
    def test_rejects_missing_sphere(self):
        with pytest.raises(ValueError, match="attaching sphere"):
            Computad.make([["x"], ["f"]], {})

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            Computad.make([["x", "x"]], {})

    def test_rejects_nonparallel_sphere(self):
        c = walking_composite()
        with pytest.raises(ValueError, match="not parallel"):
            Computad.make(
                [["x", "y", "z"], ["f", "g"], ["q"]],
                {
                    "f": c.sphere_of("f"),
                    "g": c.sphere_of("g"),
                    "q": Sphere(Var("f", 1), Var("g", 1)),
                },
            )

    def test_levels_sorted_canonically(self):
        # dotted numeric segments sort numerically, not lexicographically
        c = Computad.make([["b", "a", "a.10", "a.2"]], {})
        assert c.generators_at(0) == ("a", "a.2", "a.10", "b")

    def test_rejects_a_sphere_on_no_generator_of_positive_dimension(self):
        arrow = Sphere(Var("x", 0), Var("y", 0))
        with pytest.raises(ValueError, match="sphere attached to 'zz'"):
            Computad.make([["x", "y"]], {"zz": arrow})
        with pytest.raises(ValueError, match="sphere attached to 'x'"):
            Computad.make([["x", "y"], ["f"]], {"f": arrow, "x": arrow})
        obj = computad_to_json(walking_composite())
        obj["attach"]["h"] = obj["attach"]["g"]
        with pytest.raises(ValueError, match="sphere attached to 'h'"):
            computad_from_json(obj)

    def test_truncate(self):
        c = walking_composite()
        assert c.truncate(0).generators == (("x", "y", "z"),)
        assert c.truncate(0) is Computad.make([["x", "y", "z"]], {})
        assert c.truncate(-1) is Computad.make([], {})
        assert c.truncate(5) is c
        # an empty level below the cut is dropped, as make drops it
        gap = eh_computad().computad
        assert gap.generators == (("x",), (), ("a", "b"))
        assert gap.truncate(1) is Computad.make([["x"]], {})


class TestValidateOnce:
    def test_equal_make_inputs_give_the_same_object(self):
        c = walking_composite()
        assert walking_composite() is c
        assert Computad.make([["z", "y", "x"], ["g", "f"]], dict(c.attach)) is c

    def test_failed_make_registers_nothing(self):
        c = walking_composite()
        levels = [["x", "y", "z"], ["f", "g"], ["q"]]
        attach = {**dict(c.attach), "q": Sphere(Var("f", 1), Var("g", 1))}
        for _ in range(2):
            with pytest.raises(ValueError, match="not parallel"):
                Computad.make(levels, attach)
        key = (
            (("x", "y", "z"), ("f", "g"), ("q",)),
            (*c.attach, ("q", attach["q"])),
        )
        assert key not in Computad._table

    def test_constructor_is_make(self):
        c = walking_composite()
        bad = Sphere(Var("f", 1), Var("g", 1))
        with pytest.raises(ValueError, match="not parallel"):
            Computad(c.generators + (("q",),), c.attach + (("q", bad),))
        assert Computad(c.generators, c.attach) is c
        assert Computad([["z", "y", "x"], ["g", "f"]], dict(c.attach)) is c

    def test_copies_are_the_interned_object(self):
        c = op_computad(dimset([1]), walking_composite())
        up = suspend_computad(c).computad
        for again in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert again is c and suspend_computad(again).computad is up

    def test_extend_step_by_step_is_the_batch_make(self):
        c = walking_composite()
        partial = Computad.make([], {})
        for name in ("y", "x", "f", "z", "g"):
            partial = partial.extend(name, dict(c.attach).get(name))
        assert partial is c

    def test_extend_rebuilds_pasting_computads(self):
        # make and extend check every sphere: the independent check of the
        # pasting computads, which are interned without those checks
        for t in all_trees(7):
            pc = pasting_computad(t)
            assert free_computad(positions(t).carrier) is pc
            partial = Computad.make([], {})
            for d in range(pc.bound + 1):
                for name in reversed(pc.generators_at(d)):
                    partial = partial.extend(name, pc.sphere_of(name) if d else None)
            assert partial is pc

    def test_extend_reports_what_make_reports(self):
        c = walking_composite()
        bad = Sphere(Var("f", 1), Var("g", 1))
        with pytest.raises(ValueError) as by_make:
            Computad.make([["x", "y", "z"], ["f", "g"], ["q"]], {**dict(c.attach), "q": bad})
        with pytest.raises(ValueError) as by_extend:
            c.extend("q", bad)
        assert str(by_extend.value) == str(by_make.value)
        with pytest.raises(ValueError, match="duplicate generator name 'f'"):
            c.extend("f", None)
        with pytest.raises(TypecheckError, match="UnknownGenerator"):
            c.extend("h", Sphere(Var("x", 0), Var("w", 0)))


class TestPastingComputad:
    def test_two_arrows(self):
        pc = pasting_computad(TWO_ARROWS)
        assert pc.generators == (("0", "1", "2"), ("1.0", "2.0"))
        assert pc.sphere_of("1.0") == Sphere(Var("0", 0), Var("1", 0))
        assert pc.sphere_of("2.0") == Sphere(Var("1", 0), Var("2", 0))

    @given(trees(5))
    def test_free_on_positions(self, t):
        assert pasting_computad(t) == free_computad(positions(t).carrier)


class TestBoundary:
    def test_var_boundary_is_attachment(self):
        c = walking_composite()
        assert cell_boundary(c, c.var("f")) == c.sphere_of("f")

    def test_coh_boundary_pushes_substitution(self):
        c = walking_composite()
        fg = comp_fg(c)
        assert cell_boundary(c, fg) == Sphere(c.var("x"), c.var("z"))

    def test_iterated_boundary(self):
        c = walking_composite()
        fg = comp_fg(c)
        assert boundary_at(c, fg, 0) == Sphere(c.var("x"), c.var("z"))
        with pytest.raises(ValueError):
            boundary_at(c, fg, 1)

    def test_parallel(self):
        c = walking_composite()
        assert parallel(c, c.var("x"), c.var("x"))
        assert not parallel(c, c.var("f"), Var("x", 0))


class TestSupportAndFullness:
    def test_support_of_var_includes_boundary(self):
        c = walking_composite()
        assert support(c, c.var("f")) == {"x", "y", "f"}

    def test_support_of_composite(self):
        c = walking_composite()
        assert support(c, comp_fg(c)) == {"x", "y", "z", "f", "g"}

    def test_full_sphere(self):
        assert is_full(TWO_ARROWS, Sphere(Var("0", 0), Var("2", 0)))

    def test_not_full_sphere(self):
        assert not is_full(TWO_ARROWS, Sphere(Var("0", 0), Var("1", 0)))

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            is_full(disk_tree(3), Sphere(Var("0", 0), Var("1", 0)))


class TestTypecheck:
    def test_accepts_composite(self):
        c = walking_composite()
        typecheck_cell(c, comp_fg(c))

    def test_unknown_generator(self):
        c = walking_composite()
        with pytest.raises(TypecheckError) as err:
            typecheck_cell(c, Var("q", 0))
        assert err.value.code == "UnknownGenerator"

    def test_dimension_mismatch(self):
        c = walking_composite()
        with pytest.raises(TypecheckError) as err:
            typecheck_cell(c, Var("f", 0))
        assert err.value.code == "DimensionMismatch"

    def test_not_full(self):
        bad = Coh(
            TWO_ARROWS,
            Sphere(Var("0", 0), Var("0", 0)),
            identity_sub(pasting_computad(TWO_ARROWS)),
        )
        with pytest.raises(TypecheckError) as err:
            typecheck_cell(walking_composite(), bad)
        assert err.value.code == "NotFull"
        assert err.value.path == ("sphere",)

    def test_not_parallel(self):
        bad = Coh(
            TWO_ARROWS,
            Sphere(Var("1.0", 1), Var("2.0", 1)),
            identity_sub(pasting_computad(TWO_ARROWS)),
        )
        with pytest.raises(TypecheckError) as err:
            typecheck_cell(walking_composite(), bad)
        assert err.value.code == "NotParallel"

    def test_bad_substitution_path(self):
        c = walking_composite()
        fg = comp_fg(c)
        broken = Coh(
            fg.tree,
            fg.sphere,
            substitution({**dict(fg.sub), "2.0": c.var("f")}),
        )
        with pytest.raises(TypecheckError) as err:
            typecheck_cell(c, broken)
        assert err.value.code == "BadSubstitution"
        assert err.value.path == ("sub", "2.0")

    def test_failure_repeats_after_a_sibling_was_memoised(self):
        pointed = eh_computad()
        c = pointed.computad
        a, b = c.var("a"), c.var("b")
        ab = compose(c, a, 1, b)
        sibling = dict(ab.sub)["1.1"]
        assert isinstance(sibling, Coh)
        bad = Coh(ab.tree, ab.sphere, tuple((p, Var("q", 2) if v is b else v) for p, v in ab.sub))
        errors = []
        for _ in range(2):
            with pytest.raises(TypecheckError) as err:
                typecheck_cell(c, bad)
            errors.append((err.value.code, err.value.path, str(err.value)))
            assert sibling in c._passed and bad not in c._passed
        assert errors[0] == errors[1] == (
            "UnknownGenerator",
            ("sub", "1.2.0"),
            "UnknownGenerator at sub/1.2.0: no generator named 'q'",
        )

    def test_is_well_typed(self):
        c = walking_composite()
        assert is_well_typed(c, comp_fg(c))
        assert not is_well_typed(c, Var("q", 3))


class TestTermDiff:
    def test_equal_terms_have_no_diff(self):
        c = walking_composite()
        assert term_diff(comp_fg(c), comp_fg(c)) is None
        assert term_diff(Var("x", 0), Var("x", 0)) is None

    def test_first_differing_binding(self):
        c = walking_composite()
        fg = comp_fg(c)
        other = Coh(fg.tree, fg.sphere, substitution({**dict(fg.sub), "2.0": c.var("f"), "2": c.var("y")}))
        assert term_diff(fg, other) == ("sub", "2")
        assert subterm(other, ("sub", "2")) is c.var("y")

    def test_sphere_before_substitution(self):
        c = walking_composite()
        fg = comp_fg(c)
        other = Coh(fg.tree, Sphere(Var("0", 0), Var("1", 0)), fg.sub)
        assert term_diff(fg, other) == ("sphere", "tgt")
        assert subterm(fg, ("sphere", "tgt")) is Var("2", 0)

    def test_path_goes_down_through_nested_coherences(self):
        c = walking_composite()
        fg = comp_fg(c)
        gf = Coh(fg.tree, fg.sphere, substitution({**dict(fg.sub), "1.0": c.var("g")}))
        assert term_diff(identity_cell(c, fg), identity_cell(c, gf)) == ("sub", "1.0", "sub", "1.0")

    def test_leaves_and_schemes_stop_the_walk(self):
        c = walking_composite()
        fg = comp_fg(c)
        assert term_diff(Var("x", 0), Var("y", 0)) == ()
        assert term_diff(fg, c.var("f")) == ()
        assert term_diff(fg, identity_cell(c, c.var("x"))) == ()
        assert term_diff(fg, Coh(fg.tree, fg.sphere, fg.sub[:-1])) == ("sub",)


class TestMorphisms:
    def test_apply_identity(self):
        c = walking_composite()
        fg = comp_fg(c)
        names = {v for level in c.generators for v in level}
        sigma = substitution({v: c.var(v) for v in names})
        assert apply_morphism(sigma, fg) == fg

    def test_apply_relabels_outer_layer_only(self):
        c = walking_composite()
        fg = comp_fg(c)
        swap = substitution(
            {
                "x": c.var("z"),
                "y": c.var("y"),
                "z": c.var("x"),
                "f": c.var("g"),
                "g": c.var("f"),
            }
        )
        moved = apply_morphism(swap, fg)
        assert moved.sphere == fg.sphere  # scheme-internal, untouched
        assert dict(moved.sub)["1.0"] == c.var("g")

    def test_compose_morphisms(self):
        c = walking_composite()
        sigma = substitution({"x": c.var("y")})
        tau = substitution({"y": c.var("z")})
        assert dict(compose_morphisms(tau, sigma))["x"] == c.var("z")

    def test_typecheck_morphism_rejects_wrong_boundary(self):
        c = walking_composite()
        pc = pasting_computad(TWO_ARROWS)
        sigma = substitution(
            {
                "0": c.var("x"),
                "1": c.var("y"),
                "2": c.var("z"),
                "1.0": c.var("f"),
                "2.0": c.var("f"),  # f does not start at y
            }
        )
        with pytest.raises(TypecheckError):
            typecheck_morphism(pc, c, sigma)


class TestDoubleComputad:
    def test_generators_are_cells(self):
        c = walking_composite()
        fg = comp_fg(c)
        dbl, denote = double_computad(c, [fg])
        assert set(denote) == {cell_key(fg), "x", "z"}
        assert dbl.generators_at(1) == (cell_key(fg),)

    def test_closure_under_boundaries(self):
        c = walking_composite()
        dbl, denote = double_computad(c, [c.var("f")])
        assert set(denote) == {"f", "x", "y"}

    def test_counit_recovers_cells(self):
        c = walking_composite()
        fg = comp_fg(c)
        dbl, denote = double_computad(c, [fg, c.var("f")])
        for name in denote:
            assert counit_eval(c, dbl.var(name), denote) == denote[name]

    def test_counit_default_is_identity(self):
        c = walking_composite()
        fg = comp_fg(c)
        assert counit_eval(c, fg) == fg


class TestJson:
    def test_cell_round_trip(self):
        c = walking_composite()
        fg = comp_fg(c)
        obj = cell_to_json(fg)
        assert cell_from_json(obj, c.dim_of) == fg

    def test_var_shape(self):
        assert cell_to_json(Var("x", 0)) == {"var": "x"}

    def test_computad_round_trip(self):
        c = walking_composite()
        assert computad_from_json(computad_to_json(c)) is c

    def test_permuted_substitution_decodes_to_the_same_cell(self):
        c = walking_composite()
        fg = comp_fg(c)
        obj = cell_to_json(fg)
        sub = obj["coh"]["sub"]
        obj["coh"]["sub"] = {p: sub[p] for p in reversed(sub)}
        assert list(obj["coh"]["sub"]) != list(sub)
        assert cell_from_json(obj, c.dim_of) is fg

    def test_template_round_trip_uses_position_dims(self):
        template = Coh(
            TWO_ARROWS,
            Sphere(Var("0", 0), Var("2", 0)),
            identity_sub(pasting_computad(TWO_ARROWS)),
        )
        obj = cell_to_json(template)
        assert cell_from_json(obj, pos_dim) == template
