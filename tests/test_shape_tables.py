"""The shape tables of ``omegatt.trees`` against ``shape_reference``.

The kernel formats the position names of a tree once, in
``sorted_positions``, and builds the other tables from that tuple by index.
Exhaustively over every tree with at most 7 nodes, every dimension set
within {1, 2, 3} and every boundary dimension, the tables must equal those
that the reference builds by formatting names, the position levels must
hold the cells and boundaries of the reference's checked globular set, and
every name in a table must be one of the name objects of its tree.

A position's name fixes its shape, so each name met is stored once per
process, with one record (``POSITIONS``): equal names in different trees
are one object, and the tables of every tree hold the records and their
bindings.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shape_reference
from omegatt import computads
from omegatt.computads import template_sub
from omegatt.globular import dimset, nat_key
from omegatt.trees import (
    POSITIONS,
    all_trees,
    boundary_tree,
    op_positions_iso,
    op_sub_order,
    op_tree,
    position_levels,
    positions,
    sorted_positions,
    src_inclusion,
    tgt_inclusion,
)

TREES = list(all_trees(7))
DIMSETS = [dimset(w) for r in range(4) for w in itertools.combinations((1, 2, 3), r)]


def names_of(t) -> set[int]:
    """The identities of the name objects of ``t``."""
    return {id(p) for p in sorted_positions(t)}


def owned(names, t) -> bool:
    return {id(p) for p in names} <= names_of(t)


@pytest.mark.parametrize("n", range(1, 8))
def test_positions_match_the_reference(n):
    """The levels of ``position_levels(t)``, and of the cached
    ``positions(t)``, hold the reference's cells in its order, each
    running between the reference's source and target."""
    for t in TREES:
        if t.nodes != n:
            continue
        levels, want = position_levels(t), shape_reference.positions(t)
        assert positions(t) == tuple(map(tuple, levels))
        carrier = want.carrier
        assert tuple([tuple([pos.name for pos in level]) for level in levels]) == carrier.cells
        assert sorted([p for level in carrier.cells for p in level], key=nat_key) == list(sorted_positions(t))
        for d in range(1, carrier.ndim + 1):
            assert [(pos.name, pos.lo) for pos in levels[d]] == list(carrier.srcs[d])
            assert [(pos.name, pos.hi) for pos in levels[d]] == list(carrier.tgts[d])
        assert owned([pos.name for level in levels for pos in level], t)
        assert owned([x for level in levels[1:] for pos in level for x in (pos.lo, pos.hi)], t)


@pytest.mark.parametrize("n", range(1, 8))
def test_inclusions_match_the_reference(n):
    for t in TREES:
        if t.nodes != n:
            continue
        for k in range(t.dim + 1):
            b = boundary_tree(k, t)
            src, tgt = src_inclusion(k, t), tgt_inclusion(k, t)
            assert src == shape_reference.src_inclusion(k, t)
            assert tgt == shape_reference.tgt_inclusion(k, t)
            assert list(src) == list(tgt) == list(sorted_positions(b))
            assert owned(src, b) and owned(src.values(), b)
            assert owned(tgt, b) and owned(tgt.values(), t)
            assert src is src_inclusion(k, b)


@pytest.mark.parametrize("w", DIMSETS, ids=lambda w: "".join(map(str, sorted(w))) or "none")
def test_opposites_match_the_reference(w):
    for t in TREES:
        opt = op_tree(w, t)
        iso, order = op_positions_iso(w, t), op_sub_order(w, t)
        assert iso == shape_reference.op_positions_iso(w, t)
        assert order == shape_reference.op_sub_order(w, t)
        assert owned(iso, opt) and owned(iso.values(), t)
        assert owned([p for p, _ in order], opt)
        names = sorted_positions(t)
        assert all(names[i] is iso[p] for p, i in order)
        if [i for _, i in order] == list(range(len(names))):  # an identity is the tree's one identity dict
            assert iso is src_inclusion(t.dim, t)


def test_equal_names_in_different_trees_are_one_object():
    seen: dict[str, str] = {}
    for t in TREES:
        for x in sorted_positions(t):
            assert seen.setdefault(x, x) is x is POSITIONS[x].name, (t, x)


@pytest.mark.parametrize("n", range(1, 8))
def test_tables_hold_the_shared_records(n):
    """Each record's dimension, lo and hi are those of the reference's
    carrier, the levels of ``positions(t)`` are the records themselves, and
    the bindings of ``template_sub(t)`` are the shared ones."""
    for t in TREES:
        if t.nodes != n:
            continue
        want = shape_reference.positions(t).carrier
        assert all(POSITIONS[x][1:4] == (0, None, None) for x in want.cells[0])
        for d in range(1, want.ndim + 1):
            for (x, lo), (_, hi) in zip(want.srcs[d], want.tgts[d]):
                assert POSITIONS[x][1:4] == (d, lo, hi)
        assert all(pos is POSITIONS[pos.name] for level in positions(t) for pos in level)
        sub = template_sub(t)
        assert all(pair is computads._PASTED[p][2] for pair, p in zip(sub, sorted_positions(t), strict=True))


FRESH = """
import omegatt.cli
from omegatt import computads, trees

assert trees.POSITIONS == {} and trees._ROOT_SECTORS == [] and computads._PASTED == {}
for t in trees.all_trees(7):
    pc, shared = computads.pasting_computad(t), [computads._PASTED[x] for x in trees.sorted_positions(t)]
    assert all(pc.table[item[0]] is item[1] for item, _, _ in shared)
    assert {id(item) for item in pc.key} == {id(item) for item, _, _ in shared}
    assert {id(pair) for pair in pc.attach} == {id(pair) for item, pair, _ in shared if item[1][0]}
"""


def test_import_builds_no_position_and_pasting_computads_hold_the_shared_entries():
    """In a fresh process: importing the CLI leaves the per-name tables
    empty (nothing is built at import), and the table, key and attach view
    of the pasting computad of every tree with at most 7 nodes hold the
    shared entries.  A test in this process could have interned an equal
    computad from a document first, with its own entries."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", FRESH], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
