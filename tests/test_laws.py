"""The law harness: the family registry and its failure messages."""

from __future__ import annotations

import hashlib

from omegatt import homcat, laws
from omegatt.metaops import op_cell, rename_cell


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


class TestFailureMessages:
    """Messages are built only for failing checks.  A check that compares
    two cells names the first subterm where they differ, with
    ``term_diff``'s path, and both sides there."""

    def test_message_is_built_only_on_failure(self):
        calls = []
        report = laws.LawReport("probe")
        report.check(True, lambda: calls.append("built") or "unused")
        report.check(False, lambda: "first")
        report.check(False, "second")
        assert calls == []
        assert report.checks == 3
        assert report.failures == ["first", "second"]

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
        but not its sectors, as ``trees._op_index`` would without
        ``sectors.reverse()``: it still composes by symmetric difference, and
        only the scheme check, the isomorphisms as maps onto the opposite,
        finds it."""
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
        real = homcat.op_homcell
        monkeypatch.setattr(homcat, "op_homcell", lambda w, h: real(w ^ flip, h))
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
