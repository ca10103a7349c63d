"""The law harness: the family registry and its failure messages."""

from __future__ import annotations

import hashlib

from omegatt import homcat, laws
from omegatt.metaops import op_cell


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
    """Messages are built only for failing checks; their text is pinned to
    the bytes the harness printed when it built every message eagerly."""

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
            "desuspension does not invert suspension"
        )
        assert _digest(report.failures) == "db4e210b9534bd0e14f14c7b934692d59a398b5f6fbb8eceec4a45e6a65a738c"

    def test_seeded_cell_action_failure(self, monkeypatch):
        flip = frozenset({1})
        monkeypatch.setattr(laws, "op_cell", lambda w, cell: op_cell(w ^ flip, cell))
        report = laws.law_cell_action(2)
        assert (report.checks, len(report.failures)) == (1292, 816)
        assert report.failures[0] == (
            "coh[[], []]{0->2}(0:=0;1:=1;1.0:=1.0;2:=2;2.0:=2.0): "
            "empty opposite moved the cell"
        )
        assert _digest(report.failures) == "4a278d2882b19b083b4272bc15158af146cb2ef42ebff69a4fb0281a98048c6a"

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
