"""The one walk driver (``omegatt.hashcons.walk``) and what rests on it.

* The driver: memo hits, values stored only on success, a child's error
  thrown into its parent.
* Typechecking and desuspension against the plain recursions of
  ``typecheck_reference``, on Hypothesis mutants of the law corpus: the
  same first error, with the same code, path and message, or the same pass.
* Support and the double computad, which collect without a walk, against
  the walks of ``walk_reference``: the same sets and the same computad.
* Depth: the CLI under a recursion limit of 150 gives the bytes it gives
  at the default limit, on inputs that a recursion per level could not
  walk.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import typecheck_reference as reference
import walk_reference
from omegatt.cli import run_cli
from omegatt.computads import (
    Coh,
    Sphere,
    TypecheckError,
    Var,
    double_computad,
    pasting_computad,
    support,
    typecheck_cell,
)
from omegatt.globular import dimset
from omegatt.hashcons import walk
from omegatt.laws import cell_corpus, eh_closure
from omegatt.metaops import NotASuspension, desuspend_cell, op_cell, op_computad, suspend_cell, suspend_computad
from omegatt.oplib import comp_cell, eh_computad

CORPUS = cell_corpus()
SRC = Path(__file__).resolve().parents[1] / "src"


class TestDriver:
    def test_children_are_walked_once_and_in_order(self):
        seen = []

        def step(n):
            seen.append(n)
            if n < 2:
                return n
            return (yield n - 1) + (yield n - 2)

        assert walk(step, {}, 20) == 6765
        assert seen == list(range(20, -1, -1))  # each node stepped once, depth first

    def test_a_child_error_reaches_the_parent_and_nothing_failed_is_stored(self):
        def step(n):
            if n == 0:
                raise KeyError("leaf")
            try:
                return (yield n - 1) + 1
            except KeyError:
                return -n

        memo: dict = {}
        assert walk(step, memo, 3000) == 2998  # 1 caught its child's error, each above adds one
        assert 0 not in memo and memo[1] == -1

    def test_an_error_nobody_catches_leaves_the_walk(self):
        def step(n):
            if n == 0:
                raise LookupError("bottom")
            return (yield n - 1)

        memo: dict = {}
        with pytest.raises(LookupError, match="bottom"):
            walk(step, memo, 5000)
        assert memo == {}


def _kids(cell) -> list:
    return [cell.sphere.src, cell.sphere.tgt, *(v for _, v in cell.sub)]


def _replaced(cell, where: tuple[int, ...], change):
    """``cell`` with ``change`` applied to the coherence at ``where``: child
    indices in ``children`` order (sphere source, target, then bindings)."""
    if not where:
        return change(cell)
    i, rest = where[0], where[1:]
    sphere, sub = cell.sphere, list(cell.sub)
    if i == 0:
        sphere = Sphere(_replaced(sphere.src, rest, change), sphere.tgt)
    elif i == 1:
        sphere = Sphere(sphere.src, _replaced(sphere.tgt, rest, change))
    else:
        p, v = sub[i - 2]
        sub[i - 2] = (p, _replaced(v, rest, change))
    return Coh(cell.tree, sphere, tuple(sub))


def _defect(kind: str, i: int):
    """One way to break a coherence, as a function of it; ``i`` picks a binding."""
    if kind in ("swap", "not full"):
        return lambda c: Coh(c.tree, Sphere(c.sphere.tgt, c.sphere.src if kind == "swap" else c.sphere.tgt), c.sub)
    if kind == "drop":
        return lambda c: Coh(c.tree, c.sphere, c.sub[:i] + c.sub[i + 1 :])

    def rebound(c):
        p, v = c.sub[i]
        wrong = Var("nowhere", v.dim) if kind == "unknown" else Var(getattr(v, "name", p), v.dim + 1)
        return Coh(c.tree, c.sphere, c.sub[:i] + ((p, wrong),) + c.sub[i + 1 :])

    return rebound


@st.composite
def defects(draw, cells: list) -> tuple[int, list]:
    """A cell of ``cells`` by its index, with one or two defects, each as
    ``(path to a coherence inside it, kind, binding index)``: a short
    description, which ``_mutant`` applies."""
    n = draw(st.integers(0, len(cells) - 1))
    cell, edits = cells[n][1], []
    for _ in range(draw(st.integers(1, 2))):
        where, node = [], cell
        while True:
            inner = [i for i, kid in enumerate(_kids(node)) if isinstance(kid, Coh)]
            if not inner or draw(st.booleans()):
                break
            where.append(draw(st.sampled_from(inner)))
            node = _kids(node)[where[-1]]
        kind = draw(st.sampled_from(["swap", "not full", *(["dimension", "unknown", "drop"] if node.sub else [])]))
        edit = (tuple(where), kind, draw(st.integers(0, max(len(node.sub) - 1, 0))))
        try:
            cell = _replaced(cell, edit[0], _defect(*edit[1:]))
        except ValueError:  # a sphere whose two sides lost a common dimension
            reject()
        edits.append(edit)
        if not isinstance(cell, Coh):
            break
    return n, edits


def _mutant(cells: list, n: int, edits: list):
    ambient, cell = cells[n]
    for where, kind, i in edits:
        cell = _replaced(cell, where, _defect(kind, i))
    return ambient, cell


def _outcome(check, *args):
    try:
        check(*args)
    except (TypecheckError, NotASuspension) as err:
        return type(err).__name__, getattr(err, "code", None), err.path, err.message
    return None


COHERENCES = [(a, c) for a, c in CORPUS if isinstance(c, Coh)]
SUSPENDED = [(None, suspend_cell(c)) for _, c in COHERENCES]


class TestAgainstTheRecursion:
    @settings(max_examples=150, deadline=None)
    @given(defects(COHERENCES))
    def test_typecheck_fails_first_where_the_recursion_does(self, defect):
        ambient, cell = _mutant(COHERENCES, *defect)
        assert _outcome(typecheck_cell, ambient, cell) == _outcome(reference.typecheck, ambient, cell)

    @settings(max_examples=150, deadline=None)
    @given(defects(SUSPENDED))
    def test_desuspension_fails_first_where_the_recursion_does(self, defect):
        _, cell = _mutant(SUSPENDED, *defect)
        assert _outcome(desuspend_cell, cell) == _outcome(reference.desuspend, cell)

    def test_the_corpus_passes_both(self):
        for ambient, cell in CORPUS:
            assert _outcome(typecheck_cell, ambient, cell) is None
            assert _outcome(reference.typecheck, ambient, cell) is None
            assert desuspend_cell(suspend_cell(cell)) is reference.desuspend(suspend_cell(cell)) is cell


COMPOSITES = st.integers(1, 10).map(lambda n: comp_cell(n, 0, n)).map(lambda c: (pasting_computad(c.tree), c))


@st.composite
def corpus_images(draw) -> tuple:
    """A cell of the law corpus with its ambient computad, or its opposite or
    suspension over the opposite or suspended computad; in place of a
    coherence, perhaps a cell of its sphere over the scheme's computad."""
    ambient, cell = draw(st.sampled_from(CORPUS))
    how = draw(st.sampled_from(["as is", "op", "susp"]))
    if how == "op":
        w = dimset(draw(st.sets(st.integers(1, 4), min_size=1)))
        ambient, cell = op_computad(w, ambient), op_cell(w, cell)
    elif how == "susp":
        ambient, cell = suspend_computad(ambient).computad, suspend_cell(cell)
    if isinstance(cell, Coh) and draw(st.booleans()):
        ambient, cell = pasting_computad(cell.tree), draw(st.sampled_from([cell.sphere.src, cell.sphere.tgt]))
    return ambient, cell


class TestClosureAgainstTheWalk:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(COMPOSITES, corpus_images()))
    def test_support_is_the_walked_union(self, drawn):
        ambient, cell = drawn
        assert support(ambient, cell) == walk_reference.support(ambient, cell)

    def test_an_unknown_generator_is_a_key_error_in_both(self):
        ambient = eh_computad().computad
        for find in (support, walk_reference.support):
            with pytest.raises(KeyError):
                find(ambient, Var("nowhere", 1))
        assert support(ambient, Var("nowhere", 0)) == walk_reference.support(ambient, Var("nowhere", 0))

    def test_double_computad_is_the_walked_one(self):
        c, cells = eh_computad().computad, eh_closure(1)
        families = [(c, cells), (c, cells[::-1]), *((ambient, [cell]) for ambient, cell in CORPUS)]
        for ambient, family in families:  # the corpus has cells whose source and target differ
            dbl, denote = double_computad(ambient, family)
            want, want_denote = walk_reference.double_computad(ambient, family)
            assert dbl is want and denote == want_denote


# the CLI under a lowered recursion limit, each case as it runs at the default
DEPTH_CASES = [
    ["check", "id100.ctt"],
    ["susp", "id100.ctt"],
    ["desusp", "id100.ctt"],
    ["op", "--dims", "1", "id100.ctt"],
    ["export", "--format", "json", "id100.ctt"],
    ["check", "tree300.ctt"],
    ["export", "--format", "json", "disk300.ctt"],
    ["comp", "120", "0", "1"],
]
UNDER_LIMIT = """
import contextlib, io, json, sys
from omegatt.cli import run_cli
sys.setrecursionlimit(150)
outcomes = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        outcomes.append([run_cli(argv), out.getvalue(), err.getvalue()])
print(json.dumps(outcomes))
"""


def test_deep_inputs_need_no_recursion_limit(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    depth = 100
    ids = f"{'id(' * depth}f{')' * depth}"
    Path("id100.ctt").write_text(f"computad c {{\n  x : * ;\n  y : * ;\n  f : x -> y ;\n}}\n\nlet t = {ids}\n")
    Path("tree300.ctt").write_text(f"let t = coh {'[' * 300}{']' * 300} {{ x -> x }} []\n")
    top = ".".join(["1"] * 299 + ["0"])  # the identity on the 299-disk
    Path("disk300.ctt").write_text(f"let t = coh {'[' * 300}{']' * 300} {{ {top} -> {top} }} []\n")
    run = subprocess.run(
        [sys.executable, "-c", UNDER_LIMIT, json.dumps(DEPTH_CASES)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    for argv, (code, out, err) in zip(DEPTH_CASES, json.loads(run.stdout)):
        here, there = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(here), contextlib.redirect_stderr(there):
            want = run_cli(argv)
        assert (code, out, err) == (want, here.getvalue(), there.getvalue()), argv
    outcomes = json.loads(run.stdout)
    assert outcomes[0] == [0, "ok computad c\nok let t (101-cell)\n", ""]
    assert outcomes[DEPTH_CASES.index(["export", "--format", "json", "disk300.ctt"])][0] == 0
