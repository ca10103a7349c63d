"""Computads, cells, fullness, the typechecker, and double computads."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shape_reference
from conftest import trees
from extras import compose_morphisms, disk_table, free_computad, typecheck_morphism
from omegatt import computads
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
from omegatt.globular import dimset, nat_key
from omegatt.metaops import desuspend_computad, op_computad, suspend_computad
from omegatt.oplib import comp_cell, compose, eh_computad, identity_cell
from omegatt.surface import SurfaceError, _position_scope, load_document
from omegatt.trees import all_trees, br, comp_tree, disk_tree, pos_dim, sorted_positions

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
        key = c.key | {("q", (2, attach["q"]))}
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

    def test_build_interns_only_its_result(self, monkeypatch):
        # a chain of n points with an arrow, two 2-cells and a 3-cell over
        # each step: neither its truncations nor a computad per generator
        n, added = 20, interned_computads(monkeypatch)
        attach = {}
        for i in range(1, n + 1):
            attach[f"f{i}"] = Sphere(Var(f"p{i - 1}", 0), Var(f"p{i}", 0))
            attach[f"a{i}"] = attach[f"b{i}"] = Sphere(Var(f"f{i}", 1), Var(f"f{i}", 1))
            attach[f"c{i}"] = Sphere(Var(f"a{i}", 2), Var(f"b{i}", 2))
        steps = range(1, n + 1)
        levels = [[f"p{i}" for i in range(n + 1)], [f"f{i}" for i in steps],
                  [f"{x}{i}" for i in steps for x in "ab"], [f"c{i}" for i in steps]]
        c = Computad.make(levels, attach)
        assert len(c.table) == 5 * n + 1 and c.bound == 3
        assert added == [c]

    def test_extend_step_by_step_is_the_batch_make(self):
        c = walking_composite()
        draft = Computad.draft()
        for name in ("y", "x", "f", "z", "g"):
            draft.add(name, dict(c.attach).get(name))
        assert draft.done() is c

    def test_extend_rebuilds_pasting_computads(self):
        for t in all_trees(7):
            pc = pasting_computad(t)
            draft = Computad.draft()
            for d in range(pc.bound + 1):
                for name in reversed(pc.generators_at(d)):
                    draft.add(name, pc.sphere_of(name) if d else None)
            assert draft.done() is pc

    def test_extend_reports_what_make_reports(self):
        c = walking_composite()
        bad = Sphere(Var("f", 1), Var("g", 1))
        with pytest.raises(ValueError) as by_make:
            Computad.make([["x", "y", "z"], ["f", "g"], ["q"]], {**dict(c.attach), "q": bad})
        with pytest.raises(ValueError) as by_add:
            draft_of(c).add("q", bad)
        assert str(by_add.value) == str(by_make.value)
        with pytest.raises(TypecheckError, match="UnknownGenerator"):
            draft_of(c).add("h", Sphere(Var("x", 0), Var("w", 0)))

    def test_a_block_interns_its_computad_once(self, monkeypatch):
        # 200 declarations: points, arrows and a 2-cell between composites
        n, decls = 50, ["p0 : *"]
        for i in range(1, n + 1):
            decls += [f"p{i} : *", f"f{i} : p{i - 1} -> p{i}", f"g{i} : p{i - 1} -> p{i}"]
        decls += [f"a{i} : comp(1,0,1)[f{i}, f{i + 1}] -> comp(1,0,1)[g{i}, g{i + 1}]" for i in range(1, n - 1)]
        decls.append("b : id(p0) -> id(p0)")
        assert len(decls) == 200
        added = interned_computads(monkeypatch)
        c = load_document("computad c { " + " ; ".join(decls) + " ; }\n").computad("c")
        assert len(c.table) == 200 and c in added
        assert len(added) <= 4  # the block, and pasting computads of the schemes its spheres use


def interned_computads(monkeypatch) -> list[Computad]:
    """The list of computads interned from now on in this test."""
    added, cons = [], Computad._cons.__func__

    def counting(cls, key, values):
        node, created = cons(cls, key, values)
        if created:
            added.append(node)
        return node, created

    monkeypatch.setattr(Computad, "_cons", classmethod(counting))
    return added


def draft_of(c: Computad) -> Computad:
    """A draft holding the generators of ``c``, added in canonical order."""
    draft = Computad.draft()
    for d, level in enumerate(c.generators):
        for name in level:
            draft.add(name, c.sphere_of(name) if d else None)
    return draft


# names whose natural order is not their string order
NAMES = [f"x{i}" for i in range(12)] + ["a.2", "a.10"]


@st.composite
def generator_lists(draw) -> tuple[Computad, list[tuple[str, Sphere | None]]]:
    """A small valid computad and its generators, each after the ones its
    sphere uses: 0-generators, 1-generators between them, then 2- and
    3-generators between parallel cells, some of them coherences."""
    names = draw(st.permutations(NAMES))
    c, gens, levels = Computad.draft(), [], [[], [], [], []]  # a draft has no views

    def add(sphere: Sphere | None) -> None:
        name = names[len(gens)]
        c.add(name, sphere)
        gens.append((name, sphere))
        levels[0 if sphere is None else sphere.dim + 1].append(name)

    for _ in range(draw(st.integers(1, 3))):
        add(None)
    for _ in range(draw(st.integers(0, 4))):
        add(Sphere(*[c.var(draw(st.sampled_from(levels[0]))) for _ in "st"]))
    for d in (2, 3):
        for _ in range(draw(st.integers(0, 3))):
            below = [c.var(v) for v in levels[d - 1]]
            if d == 2:
                below += [identity_cell(c, c.var(v)) for v in levels[0]]
                below += [compose(c, f, 0, g) for f in below[:3] for g in below[:3]
                          if cell_boundary(c, f).tgt == cell_boundary(c, g).src]
            pairs = [(a, b) for a in below for b in below if parallel(c, a, b)]
            if pairs:
                add(Sphere(*draw(st.sampled_from(pairs))))
    return c.done(), gens


class TestGeneratedComputads:
    @settings(max_examples=60, deadline=None)
    @given(generator_lists(), st.randoms(use_true_random=False))
    def test_one_object_whatever_the_order(self, built, rng):
        c, gens = built
        levels = [list(level) for level in c.generators]
        for level in levels:
            rng.shuffle(level)
        attach = [(v, s) for v, s in gens if s is not None]
        rng.shuffle(attach)
        assert Computad.make(levels, dict(attach)) is c
        # a draft in a random order in which each sphere's generators come first
        todo, draft = list(gens), Computad.draft()
        while todo:
            ready = [g for g in todo if g[1] is None or all(
                draft.has_generator(v) for v in support(c, g[1].src) | support(c, g[1].tgt))]
            name, sphere = rng.choice(ready)
            todo.remove((name, sphere))
            draft.add(name, sphere)
        assert draft.done() is c
        assert computad_from_json(computad_to_json(c)) is c
        assert pickle.loads(pickle.dumps(c)) is c

    @settings(max_examples=60, deadline=None)
    @given(generator_lists())
    def test_views_truncations_and_suspension(self, built):
        c, gens = built
        assert c.generators and c.generators[-1]
        for level in c.generators:
            assert list(level) == sorted(level, key=nat_key)
        assert [v for v, _ in c.attach] == [v for level in c.generators[1:] for v in level]
        assert sorted(c.table.items()) == sorted((v, (c.dim_of(v), s)) for v, s in gens)
        for d in range(-1, c.bound + 1):
            kept = dict((v, s) for v, s in c.attach if c.dim_of(v) <= d)
            assert c.truncate(d) is Computad.make(c.generators[: d + 1], kept)
        assert desuspend_computad(suspend_computad(c).computad) is c

    def test_duplicates_are_reported_before_missing_spheres(self):
        loop = Sphere(Var("f", 1), Var("f", 1))
        with pytest.raises(ValueError) as err:
            Computad.make([["x"], ["f"], ["a", "a"]], {"a": loop})
        assert str(err.value) == "duplicate generator name 'a'"

    def test_extend_reports_over_the_generators_below(self):
        c = Computad.make([["x"], ["f"]], {"f": Sphere(Var("x", 0), Var("x", 0))})
        with pytest.raises(TypecheckError) as err:
            draft_of(c).add("g", Sphere(Var("f", 0), Var("x", 0)))
        assert str(err.value) == "UnknownGenerator at <root>: no generator named 'f'"
        with pytest.raises(TypecheckError) as by_make:
            Computad.make([["x"], ["f", "g"]], {"f": c.sphere_of("f"), "g": Sphere(Var("f", 0), Var("x", 0))})
        assert by_make.value == err.value


class TestPastingComputad:
    def test_two_arrows(self):
        pc = pasting_computad(TWO_ARROWS)
        assert pc.generators == (("0", "1", "2"), ("1.0", "2.0"))
        assert pc.sphere_of("1.0") == Sphere(Var("0", 0), Var("1", 0))
        assert pc.sphere_of("2.0") == Sphere(Var("1", 0), Var("2", 0))

    @given(trees(5))
    def test_free_on_positions(self, t):
        assert pasting_computad(t) is free_computad(shape_reference.positions(t).carrier)

    def test_tables_and_views_match_the_reference(self):
        for t in all_trees(7):
            pc = pasting_computad(t)
            want = disk_table(shape_reference.positions(t).carrier)
            assert pc.table == want
            levels = [[v for v in want if want[v][0] == d] for d in range(t.dim + 1)]
            assert pc.generators == tuple(tuple(sorted(level, key=nat_key)) for level in levels)
            assert pc.attach == tuple((v, want[v][1]) for level in pc.generators[1:] for v in level)

    def test_every_sphere_checks_over_its_truncation(self):
        # pasting computads are interned without Computad.build's checks,
        # and build or extend would find them interned and check nothing:
        # check each sphere here, over the generators below it
        for t in all_trees(7):
            pc = pasting_computad(t)
            for name, sphere in pc.attach:
                below = pc.truncate(sphere.dim)
                assert pc.dim_of(name) == sphere.dim + 1 and not below.has_generator(name)
                typecheck_cell(below, sphere.src)
                typecheck_cell(below, sphere.tgt)
                assert parallel(below, sphere.src, sphere.tgt)

    def test_no_pasting_computad_is_sorted(self, monkeypatch):
        calls = []
        monkeypatch.setattr(computads, "nat_key", lambda name: calls.append(name))
        # trees no other test builds, so their pasting computads are built here
        fresh = [br(*(disk_tree(k % 5) for k in range(11))), br(disk_tree(6), br(br(), br(br(br()))))]
        for t in fresh:
            assert t._names is None
            pc = pasting_computad(t)
            assert [v for v, _ in pc.attach] == [v for level in pc.generators[1:] for v in level]
            assert set(_position_scope(t).values()) == set(pc.table)
        assert calls == []


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

    def test_sectors_are_checked_level_by_level(self):
        # over [[[]],[]] both 1.1.0 (dimension 2) and 2.0 (dimension 1) are
        # bound to cells of the right dimension with the wrong boundary
        c = Computad.make(
            [["x", "y", "z"], ["f", "g", "h", "k"], ["a", "b"]],
            {
                "f": Sphere(Var("x", 0), Var("y", 0)),
                "g": Sphere(Var("x", 0), Var("y", 0)),
                "h": Sphere(Var("y", 0), Var("z", 0)),
                "k": Sphere(Var("x", 0), Var("z", 0)),
                "a": Sphere(Var("f", 1), Var("g", 1)),
                "b": Sphere(Var("g", 1), Var("f", 1)),
            },
        )
        template = comp_cell(2, 0, 1)
        assert template.tree == br(br(br()), br())
        bound = {"0": "x", "1": "y", "1.0": "f", "1.1": "g", "1.1.0": "a", "2": "z", "2.0": "h"}
        typecheck_cell(c, Coh(template.tree, template.sphere, tuple((p, c.var(bound[p])) for p, _ in template.sub)))
        bound.update({"1.1.0": "b", "2.0": "k"})
        bad = Coh(template.tree, template.sphere, tuple((p, c.var(bound[p])) for p, _ in template.sub))
        with pytest.raises(TypecheckError) as err:
            typecheck_cell(c, bad)
        assert str(err.value) == "BadSubstitution at sub/2.0: assignment at 2.0 does not match the boundaries of its sector"

    def test_sector_order_does_not_follow_the_generator_table(self):
        # the block p declares the positions of [[[]],[],[],[],[],[]] with 6
        # first (so no part of it is a pasting computad interned before),
        # then depth first, so the pasting computad of that scheme is p, with
        # p's table order; 1.1.0 and 2.0 are bound wrongly, as in the test above
        t = br(br(br()), *[br()] * 5)
        # no test builds this scheme's pasting computad, nor does a law sweep
        key = frozenset(computads._pasted(x)[0] for x in sorted_positions(t))
        assert Computad._live(key) is None
        arrows = range(2, 7)
        p = "6 : * ; 0 : * ; 1 : * ; 1.0 : 0 -> 1 ; 1.1 : 0 -> 1 ; 1.1.0 : 1.0 -> 1.1 ;"
        p += "".join(f" {i} : * ;" * (i < 6) + f" {i}.0 : {i - 1} -> {i} ;" for i in arrows)
        c = " ".join(f"x{i} : * ;" for i in range(7)) + " f : x0 -> x1 ; g : x0 -> x1 ; b : g -> f ; k : x0 -> x2 ;"
        c += "".join(f" e{i} : x{i - 1} -> x{i} ;" for i in range(3, 7))
        points = ", ".join(f"{i} => {i}" for i in range(7))
        composite = [
            f"coh [{'[],' * 5}[]] {{ 0 -> 6 }} [{points}, 1.0 => 1.{j}, " + ", ".join(f"{i}.0 => {i}.0" for i in arrows) + "]"
            for j in (0, 1)
        ]
        sub = ", ".join(f"{i} => x{i}" for i in range(7)) + ", 1.0 => f, 1.1 => g, 1.1.0 => b, 2.0 => k, "
        sub += ", ".join(f"{i}.0 => e{i}" for i in range(3, 7))
        text = f"computad p {{ {p} }}\ncomputad c {{ {c} }}\nlet t = coh [[[]],{'[],' * 4}[]] {{ {composite[0]} -> {composite[1]} }} [{sub}]\n"
        with pytest.raises(SurfaceError) as err:
            load_document(text)
        table = list(pasting_computad(t).table)
        assert table.index("1.1.0") < table.index("2.0")
        assert str(err.value) == "3:1: BadSubstitution at sub/2.0: assignment at 2.0 does not match the boundaries of its sector"

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

    def test_counit_on_the_generators_is_identity(self):
        c = walking_composite()
        fg = comp_fg(c)
        assert counit_eval(c, fg, {v: c.var(v) for v in c.table}) == fg


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
