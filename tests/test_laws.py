"""The law harness: the family registry and its failure messages."""

from __future__ import annotations

import hashlib
from collections import Counter

from omegatt import laws, trees
from omegatt.globular import dimset
from omegatt.metaops import op_cell, rename_cell
from omegatt.oplib import eh_computad
from omegatt.trees import comp_tree


def _swap_ab(cell):
    """The cell with the generators a and b swapped."""
    return rename_cell({"a": "b", "b": "a"}, cell)


def _digest(messages: list[str]) -> str:
    return hashlib.sha256("\n".join(messages).encode()).hexdigest()


class TestRegistry:
    def test_families_are_registered_under_their_report_names(self):
        for name, family in laws.FAMILIES.items():
            if name in ("tree-boundary", "tree-action"):
                report = family(2, 1)
            else:
                report = family(5, 1)
            assert report.name == name

    def test_run_laws_follows_the_registry(self):
        assert [r.name for r in laws.run_laws(2, 1)] == list(laws.FAMILIES)


def test_a_sweep_builds_each_corpus_once(monkeypatch):
    """In one sweep at the default bounds, started with the shared corpora
    dropped: the two tree families enumerate the trees once, the three
    families that read the cell corpus build it once (one closure round and
    one template list; cell-action and hom-roundtrip list the templates
    again) and the third drops it, the two hom families build the loop
    corpus once and the second drops it, and counit-squares evaluates each
    of its 104 double cells over the Eckmann-Hilton computad once, for both
    of its squares.  The sweep still makes its 17,432 checks."""
    calls: Counter = Counter()
    eh = eh_computad().computad
    denotes = []
    real_closure, real_trees, real_eval, real_double, real_templates = (
        laws.eh_closure, trees.trees_with_nodes, laws.counit_eval, laws.double_computad, laws.template_corpus
    )

    def double(*args):
        built = real_double(*args)
        denotes.append(built[1])
        return built

    def evaluate(c, cell, denote):
        calls["eval"] += c is eh and denote is denotes[-1]
        return real_eval(c, cell, denote)

    monkeypatch.setattr(laws, "eh_closure", lambda rounds: calls.update([("closure", rounds)]) or real_closure(rounds))
    monkeypatch.setattr(trees, "trees_with_nodes", lambda n: calls.update([("trees", n)]) or real_trees(n))
    monkeypatch.setattr(laws, "double_computad", double)
    monkeypatch.setattr(laws, "counit_eval", evaluate)
    monkeypatch.setattr(laws, "template_corpus", lambda: calls.update(["templates"]) or real_templates())
    laws.tree_corpus.cache_clear()
    laws.shared_cells.cache_clear()
    laws.pointed_loops.cache_clear()
    reports = laws.run_laws(5, 3)
    assert calls[("closure", 2)] == 1 and laws.pointed_loops.cache_info().currsize == 0
    assert calls[("closure", 1)] == 2 and calls["templates"] == 3  # the cell corpus and counit-squares
    assert laws.shared_cells.cache_info().currsize == 0
    assert [calls[("trees", n)] for n in range(1, 6)] == [1] * 5
    assert calls["eval"] == 104
    assert sum(r.checks for r in reports) == 17432 and all(r.ok for r in reports)


class TestFailureMessages:
    """Messages are built only for failing checks.  A check that compares
    two cells names the first subterm where they differ, with
    ``term_diff``'s path, and both sides there."""

    def test_message_is_built_only_on_failure(self):
        """``sweep`` builds a message only for a failed check, counts an
        instance whose check raises once, naming the instance, goes on with
        the instances after it, and keeps the failures in corpus order."""
        built, ran = [], []

        def parity(n):
            ran.append(n)
            if n == 2:
                raise ValueError("seeded")
            yield n % 2 == 0, lambda: built.append(n) or f"{n} is odd"
            yield True, lambda: built.append("passed") or "unused"

        def plain(n):
            ran.append(n)
            yield False, f"{n} failed"

        report = laws.sweep("probe", ([(0,), (1,), (2,), (3,)], parity), ([(4,)], plain))
        assert report.name == "probe"
        assert ran == [0, 1, 2, 3, 4]
        assert built == [1, 3]
        assert report.checks == 2 + 2 + 1 + 2 + 1
        assert report.failures == ["1 is odd", "2: raised ValueError: seeded", "3 is odd", "4 failed"]

    def test_a_raising_instance_is_named_as_the_families_name_theirs(self):
        """Cells by their key, trees as they print, then the dimension set;
        the computads of an instance are left out."""
        pointed = eh_computad()
        a = pointed.computad.var("a")

        def boom(*instance):
            raise ValueError("seeded")
            yield

        corpus = [(pointed, a, dimset([2, 1])), (comp_tree(1, 0, 1), pointed.computad, dimset([]))]
        assert laws.sweep("probe", (corpus, boom)).failures == [
            "a w=[1, 2]: raised ValueError: seeded",
            f"{comp_tree(1, 0, 1)} w=[]: raised ValueError: seeded",
        ]

    def test_seeded_suspension_failure(self, monkeypatch):
        monkeypatch.setattr(laws, "desuspend_cell", lambda cell: cell)
        report = laws.law_suspension()
        assert (report.checks, len(report.failures)) == (211, 61)
        assert report.failures[0] == (
            "coh[[], []]{0->2}(0:=0;1:=1;1.0:=1.0;2:=2;2.0:=2.0): "
            "desuspension does not invert suspension at <root>: "
            "coh[[[], []]]{1.0->1.2}(0:=0;1:=1;1.0:=1.0;1.1:=1.1;1.1.0:=1.1.0;1.2:=1.2;1.2.0:=1.2.0) "
            "against coh[[], []]{0->2}(0:=0;1:=1;1.0:=1.0;2:=2;2.0:=2.0)"
        )
        assert _digest(report.failures) == "9d21028207af7a7c2b2d2caab0deda2a6d63525e0fbca6fe974aadc2ae6c437b"

    def test_seeded_cell_action_failure(self, monkeypatch):
        flip = frozenset({1})
        monkeypatch.setattr(laws, "op_cell", lambda w, cell: op_cell(w ^ flip, cell))
        report = laws.law_cell_action(2)
        assert (report.checks, len(report.failures)) == (1292, 816)
        assert report.failures[0] == (
            "coh[[], []]{0->2}(0:=0;1:=1;1.0:=1.0;2:=2;2.0:=2.0): "
            "empty opposite moved the cell at sub/0: 2 against 0"
        )
        assert _digest(report.failures) == "fe7e64872964765b20682dbf800f554f6e1d51b44716ada3d5663696a69ac4f2"

    def test_seeded_hom_roundtrip_failure_names_the_differing_subterm(self, monkeypatch):
        """A mutant hom_realize that swaps a and b: both directions of the
        round trip name where they differ."""
        real = laws.hom_realize
        monkeypatch.setattr(laws, "hom_realize", lambda c, h: _swap_ab(real(c, h)))
        report = laws.law_hom_roundtrip()
        key = "coh[[[]]]{1.1.0->1.1.0}(0:=x;1:=x;1.0:=coh[]{0->0}(0:=x);1.1:=coh[]{0->0}(0:=x);1.1.0:=a)"
        assert f"{key}: realize after factor is not the identity at sub/1.1.0: b against a" in report.failures
        assert (
            f"{key}: factor after realize is not the identity at sub/1.0: HomGenerator(b) against HomGenerator(a)"
            in report.failures
        )

    def test_seeded_eh_identities_failure_names_the_differing_subterm(self, monkeypatch):
        """A mutant op_cell that also reverses dimension 2 breaks the two
        vertical identities, at the factor that moved."""
        monkeypatch.setattr(laws, "op_cell", lambda w, cell: op_cell(w ^ frozenset({2}), cell))
        report = laws.law_eh_identities()
        assert report.failures == [
            "reversing dimension 1 should fix a vertical composite at sub/1.1.0: b against a",
            "reversing dimension 2 should swap a vertical composite at sub/1.1.0: a against b",
        ]

    def test_seeded_counit_squares_failures_name_the_differing_subterm(self, monkeypatch):
        """Mutants that swap a and b after evaluating, and after reversing:
        each square names where its two sides differ."""
        real = laws.counit_eval
        monkeypatch.setattr(laws, "counit_eval", lambda c, cell, denote: _swap_ab(real(c, cell, denote)))
        report = laws.law_counit_squares()
        assert (
            "coh[[[], []]]{1.0->1.2}(0:=x;1:=x;1.0:=coh[]{0->0}(0:=x);1.1:=coh[]{0->0}(0:=x);1.1.0:=a;"
            "1.2:=coh[]{0->0}(0:=x);1.2.0:=a): evaluation does not commute with suspension "
            "at sub/1.1.1.0: 1.a against 1.b"
        ) in report.failures
        monkeypatch.undo()
        monkeypatch.setattr(laws, "op_cell", lambda w, cell: _swap_ab(op_cell(w, cell)))
        report = laws.law_counit_squares()
        assert (
            "coh[[[]]]{1.1.0->1.1.0}(0:=x;1:=x;1.0:=coh[]{0->0}(0:=x);1.1:=coh[]{0->0}(0:=x);1.1.0:=a) "
            "w=[]: evaluation does not commute with opposites at sub/1.1.0: a against b"
        ) in report.failures

    def test_unreversed_sectors_fail_the_scheme_action(self, monkeypatch):
        """A mutant position isomorphism that reverses the branches of a node
        but not its sectors, as ``trees._ordered`` would if it read a
        reversed node's sectors from the first: it still composes by
        symmetric difference, and only the scheme check, the isomorphisms as
        maps onto the opposite, finds it."""
        real = laws.op_positions_iso

        def keep_sector(p, q):
            """The sector of ``q``'s node with the index of ``p``'s."""
            head, dot, _ = q.rpartition(".")
            return head + dot + p.rpartition(".")[2]

        monkeypatch.setattr(laws, "op_positions_iso", lambda w, t: {p: keep_sector(p, q) for p, q in real(w, t).items()})
        report = laws.law_tree_action(5, 2)
        assert (report.checks, len(report.failures)) == (1150, 248)
        assert report.failures[0] == "br[br[]] w=[] v=[1]: scheme action is not symmetric difference"
        assert all(m.endswith(": scheme action is not symmetric difference") for m in report.failures)

    def test_seeded_hom_transport_failure_names_the_differing_subterm(self, monkeypatch):
        """A mutant op_homcell that also reverses dimension 2: each failure
        gives the path to the first differing subterm and both sides there."""
        flip = frozenset({2})
        real = laws.op_homcell
        monkeypatch.setattr(laws, "op_homcell", lambda w, h: real(w ^ flip, h))
        report = laws.law_hom_transport(2)
        assert (report.checks, len(report.failures)) == (2120, 808)
        assert report.failures[0] == (
            "coh[[[], []]]{1.0->1.2}(0:=x;1:=x;1.0:=coh[]{0->0}(0:=x);1.1:=coh[]{0->0}(0:=x);"
            "1.1.0:=a;1.2:=coh[]{0->0}(0:=x);1.2.0:=b) w=[]: "
            "factor(op) and op(factor) differ at sub/1.0: HomGenerator(a) against HomGenerator(b)"
        )
        assert report.failures[4].endswith(
            " w=[]: factor(op) and op(factor) differ at <root>: coh[[], [[]]](...) against coh[[[]], []](...)"
        )
        assert not any("positions>" in message for message in report.failures)
        assert _digest(report.failures) == "caf29b52f22849a04ef9a9d3c2d968462502d1007746580637019247d8d049b1"
