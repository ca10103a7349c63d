"""Acceptance gate: the ten release criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines, or directly with ``python3 tests/test_acceptance.py``.  Every check is
an exact symbolic equality — there are no tolerances anywhere.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from omegatt.laws import (
    LawReport,
    cell_corpus,
    comp_triples,
    law_cell_action,
    law_counit_squares,
    law_eh_identities,
    law_hom_roundtrip,
    law_hom_transport,
    law_pushout_counts,
    law_suspension,
    law_tree_action,
    law_tree_boundary,
    law_typecheck,
    run_laws,
)
from omegatt.oplib import comp_cell

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"


def _line(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _from_reports(number: int, name: str, reports: list[LawReport], extra: str = "") -> None:
    checks = sum(r.checks for r in reports)
    failures = [f for r in reports for f in r.failures]
    detail = f"{checks} checks{extra}"
    if failures:
        detail += f"; first failure: {failures[0]}"
    _line(number, name, not failures, detail)


def test_criterion_01_tree_boundary_laws():
    start = time.monotonic()
    report = law_tree_boundary(max_nodes=5, dims_upto=3)
    elapsed = time.monotonic() - start
    _from_reports(1, "tree boundary laws", [report], extra=f" in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_02_group_action():
    reports = [law_tree_action(max_nodes=5, dims_upto=3), law_cell_action(dims_upto=3)]
    corpus = cell_corpus()
    big_enough = len(corpus) >= 50
    terms = [term for _, term in corpus]
    has_templates = all(comp_cell(n, k, m) in terms for n, k, m in comp_triples(3))
    _from_reports(2, "involution group action", reports, extra=f"; corpus size {len(corpus)}")
    assert big_enough and has_templates


def test_criterion_03_suspension_laws():
    _from_reports(3, "suspension laws", [law_suspension()])


def test_criterion_04_pushout_counts():
    _from_reports(4, "pushout position counts", [law_pushout_counts()])


def test_criterion_05_typechecker():
    _from_reports(5, "typechecker", [law_typecheck(dims_upto=3)])


def test_criterion_06_hom_roundtrip():
    _from_reports(6, "hom freeness round-trip", [law_hom_roundtrip()])


def test_criterion_07_hom_transport():
    _from_reports(7, "opposite/hom commutation", [law_hom_transport(dims_upto=3)])


def test_criterion_08_scalar_swap_identities():
    _from_reports(8, "scalar swap identities", [law_eh_identities(dims_upto=3)])


def test_criterion_09_counit_squares():
    report = law_counit_squares()
    _from_reports(9, "counit naturality squares", [report])


def test_criterion_10_cli_goldens_and_full_run():
    from omegatt.cli import run_cli

    cases = [
        (["check", "samples/comp101.ctt"], "check_comp101.txt"),
        (["susp", "samples/comp101.ctt"], "susp_comp101.ctt"),
        (["op", "--dims", "1", "samples/comp101.ctt"], "op1_comp101.ctt"),
        (["export", "--format", "json", "samples/comp101.ctt"], "export_comp101.json"),
        (["export", "--format", "dot", "samples/eh.ctt"], "export_eh.dot"),
    ]
    import contextlib
    import io
    import os

    mismatches = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv, fixture in cases:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = run_cli(argv)
            if code != 0 or buffer.getvalue() != (GOLDEN / fixture).read_text():
                mismatches.append(fixture)
    finally:
        os.chdir(cwd)

    start = time.monotonic()
    reports = run_laws(max_nodes=5, dims_upto=3)
    elapsed = time.monotonic() - start
    sweep_ok = not any(r.failures for r in reports) and elapsed < 300.0
    detail = f"{len(cases) - len(mismatches)}/{len(cases)} goldens identical, full sweep in {elapsed:.1f}s"
    if mismatches:
        detail += f"; mismatched: {', '.join(mismatches)}"
    _line(10, "CLI goldens and full sweep", not mismatches and sweep_ok, detail)


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion_"):
            try:
                fn()
            except AssertionError:
                failed += 1
    sys.exit(1 if failed else 0)
