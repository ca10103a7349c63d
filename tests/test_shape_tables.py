"""The shape tables of ``omegatt.trees`` against ``shape_reference``.

The kernel formats the position names of a tree once, in
``sorted_positions``, and builds the other tables from that tuple by index.
Exhaustively over every tree with at most 7 nodes, every dimension set
within {1, 2, 3} and every boundary dimension, the tables must equal those
that the reference builds by formatting names, the position carrier must
pass the reference's check, and every name in a table
must be one of the name objects of its tree.
"""

from __future__ import annotations

import itertools

import pytest

import shape_reference
from omegatt.globular import dimset, nat_key
from omegatt.trees import (
    all_trees,
    boundary_tree,
    op_positions_iso,
    op_sub_order,
    op_tree,
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
    for t in TREES:
        if t.nodes != n:
            continue
        got, want = positions(t), shape_reference.positions(t)
        assert got == want
        assert sorted([p for level in want.carrier.cells for p in level], key=nat_key) == list(sorted_positions(t))
        carrier = got.carrier
        shape_reference.checked(carrier)
        pairs = [pair for side in (carrier.srcs, carrier.tgts) for level in side for pair in level]
        assert owned([p for level in carrier.cells for p in level], t)
        assert owned([p for pair in pairs for p in pair], t) and owned(got.base, t)


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
