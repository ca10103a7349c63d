"""A coherence binds its scheme's positions in canonical order.

The typechecker rejects the right positions bound in another order, as the
reference does, and everything the kernel builds binds them in that order:
the law corpus, the hom factorizations of the loop corpus, and their
suspensions, desuspensions and opposites.
"""

from __future__ import annotations

import pytest

import typecheck_reference as reference
from conftest import coh_nodes
from omegatt.computads import Coh, Computad, Sphere, TypecheckError, Var, typecheck_cell
from omegatt.homcat import hom_factor, hom_realize, op_homcell
from omegatt.laws import all_dimsets, cell_corpus, loop_corpus
from omegatt.metaops import NotASuspension, desuspend_cell, op_cell, suspend_cell
from omegatt.oplib import compose, eh_computad
from omegatt.trees import sorted_positions

X, Y, Z = Var("x", 0), Var("y", 0), Var("z", 0)
CHAIN = Computad.make([["x", "y", "z"], ["f", "g"]], {"f": Sphere(X, Y), "g": Sphere(Y, Z)})
FG = compose(CHAIN, CHAIN.var("f"), 0, CHAIN.var("g"))


@pytest.mark.parametrize(
    "order",
    [
        pytest.param(lambda sub: tuple(reversed(sub)), id="reversed"),
        pytest.param(lambda sub: sub[:2] + (sub[3], sub[2]) + sub[4:], id="two-swapped"),
    ],
)
@pytest.mark.parametrize("check", [typecheck_cell, reference.typecheck], ids=["kernel", "reference"])
def test_the_right_positions_out_of_order_are_rejected(check, order):
    bad = Coh(FG.tree, FG.sphere, order(FG.sub))
    assert bad is not FG and dict(bad.sub) == dict(FG.sub)
    with pytest.raises(TypecheckError) as err:
        check(CHAIN, bad)
    assert (err.value.code, err.value.path, err.value.message) == (
        "BadSubstitution",
        ("sub",),
        "positions out of canonical order",
    )


def _images() -> list:
    """The corpus cells and loop factorizations, with their suspensions,
    desuspensions and opposites (for a hom cell: its realization and its
    hom-level opposites)."""
    dimsets = all_dimsets(3)
    out = []
    for _, cell in cell_corpus():
        out += [cell, suspend_cell(cell), desuspend_cell(suspend_cell(cell))]
        try:
            out.append(desuspend_cell(cell))
        except NotASuspension:
            pass
        out += [op_cell(w, cell) for w in dimsets]
    pointed = eh_computad()
    for cell in loop_corpus():
        h = hom_factor(pointed, cell)
        out += [h, hom_realize(pointed, h)]
        out += [op_homcell(w, h) for w in dimsets]
    return out


def test_every_coherence_the_kernel_builds_binds_in_canonical_order():
    nodes = {node for term in _images() for node in coh_nodes(term)}
    assert len(nodes) > 1000
    for node in nodes:
        assert tuple([p for p, _ in node.sub]) == sorted_positions(node.tree), node
