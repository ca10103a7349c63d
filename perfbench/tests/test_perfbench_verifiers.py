"""Self-test of the benchmark's verifiers: an output corrupted on purpose
must be reported as failed, so that ``failed_ratio = 0`` means something.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import replace

import pytest
from conftest import ROOT
from omegatt.cli import run_cli
from omegatt.globular import dimset

import run
import verify
import workloads
from client import Outcome, run_request
from spans import Plain, Tracer


def flip(text: str, at: int = 0) -> str:
    return text[:at] + chr(ord(text[at]) ^ 1) + text[at + 1 :]


def test_exact_flags_a_flipped_byte():
    check = verify.exact(0, "ok computad walking\n")
    assert check(Outcome(0, "ok computad walking\n")) is None
    assert check(Outcome(0, flip("ok computad walking\n", 3))) is not None


def test_located_flags_a_wrong_exit_code_and_a_wrong_line():
    check = verify.located("doc.ctt", 12, "NotFull")
    err = "doc.ctt:12:1: NotFull at sphere: coherence sphere is not full over its scheme\n"
    assert check(Outcome(1, "", err)) is None
    assert check(Outcome(0, "", err)) is not None
    assert check(Outcome(1, "", err.replace(":12:", ":13:"))) is not None
    assert check(Outcome(1, "", err.replace("NotFull", "NotParallel"))) is not None


def test_law_sweep_flags_a_dropped_check():
    check = verify.law_sweep(5, 3)
    good = Outcome(0, run_request(lambda: run_cli(["laws", "--max-nodes", "5", "--dims-upto", "3"]), 120).out)
    assert check(good) is None
    dropped = good.out.replace("tree-boundary: 768 checks", "tree-boundary: 767 checks")
    assert check(replace(good, out=dropped)) is not None
    assert check(replace(good, out=good.out.replace("17432", "17431"))) is not None
    missing = "".join(line for line in good.out.splitlines(True) if not line.startswith("typecheck"))
    assert check(replace(good, out=missing)) is not None


def _failed(requests, outcomes) -> list[str]:
    return [r.name for r, o in zip(requests, outcomes) if verify.failure(o, r.check) is not None]


@pytest.fixture
def session(tmp_path, monkeypatch):
    """A short documents session and its untouched outcomes."""
    monkeypatch.chdir(ROOT)  # the goldens name samples/ relative to the root
    monkeypatch.setattr(workloads, "DOCS_PER_PASS", 4)
    documents = workloads.Documents()
    documents.prepare(7, tmp_path)
    requests = documents.requests()
    return requests, workloads.run_session(requests, Plain(), run_cli)


def test_an_untouched_session_passes(session):
    assert _failed(*session) == []


@pytest.mark.parametrize("verb", ["check", "id", "hom", "eh", "export"])
def test_a_flipped_byte_fails_exactly_one_request(session, verb):
    requests, outcomes = session
    # an export checked on its own bytes; a JSON export is checked by its re-import
    k = next(i for i, r in enumerate(requests) if r.name == f"cli.{verb}" and "json" not in r.argv and outcomes[i].out)
    outcomes[k] = replace(outcomes[k], out=flip(outcomes[k].out, len(outcomes[k].out) // 2))
    assert _failed(requests, outcomes) == [requests[k].name]


def test_a_wrong_reimport_fails_the_request(session):
    requests, outcomes = session
    k = next(i for i, r in enumerate(requests) if r.name == "lib.import")
    outcomes[k] = replace(outcomes[k], result=flip(outcomes[k].result, 10))
    assert _failed(requests, outcomes) == ["lib.import"]


def test_a_corrupted_json_export_fails_its_reimport(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(workloads, "DOCS_PER_PASS", 2)
    documents = workloads.Documents()
    documents.prepare(3, tmp_path)
    requests = documents.requests()

    def corrupting_cli(argv):
        if argv[:3] != ["export", "--format", "json"] or str(tmp_path) not in argv[-1]:
            return run_cli(argv)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = run_cli(argv)
        print(printed.getvalue().replace('"name": "l1"', '"name": "l0"'), end="")  # still valid JSON
        return code

    outcomes = workloads.run_session(requests, Plain(), corrupting_cli)
    assert set(_failed(requests, outcomes)) == {"lib.import"}


def test_a_wrong_exit_code_fails_the_request(session):
    requests, outcomes = session
    k = next(i for i, r in enumerate(requests) if r.name == "cli.desusp")
    outcomes[k] = replace(outcomes[k], result=1)
    assert _failed(requests, outcomes) == ["cli.desusp"]


def test_a_traceback_fails_the_request(session):
    requests, outcomes = session
    outcomes[0] = replace(outcomes[0], crash="Traceback ...\nRecursionError: maximum recursion depth exceeded")
    assert _failed(requests, outcomes) == [requests[0].name]


@pytest.mark.parametrize("n", [1, 3])
def test_a_wrong_ladder_result_fails_the_request(tmp_path, monkeypatch, n):
    monkeypatch.chdir(ROOT)
    for name, dual in (("id1.ctt", False), ("id1.dual.ctt", True)):
        (tmp_path / name).write_text(workloads.gen.id_nest_text(1, dual), encoding="utf-8")
    rung = workloads.Rung(n, dimset([1]))
    requests = rung.requests(str(tmp_path / "id1.ctt"), 1, str(tmp_path / "scratch.ctt"))
    outcomes = workloads.run_session(requests, Plain(), run_cli)
    assert _failed(requests, outcomes) == []
    k = next(i for i, r in enumerate(requests) if r.name == "lib.hom_realize")
    outcomes[k] = replace(outcomes[k], result=outcomes[k - 2].result)  # the desuspension, not the suspension
    assert _failed(requests, outcomes) == ["lib.hom_realize"]


@pytest.mark.parametrize("n", [1, 3])
def test_an_identity_op_fails_in_the_ladder(tmp_path, monkeypatch, n):
    monkeypatch.chdir(ROOT)
    for name, dual in (("id1.ctt", False), ("id1.dual.ctt", True)):
        (tmp_path / name).write_text(workloads.gen.id_nest_text(1, dual), encoding="utf-8")
    requests = workloads.Rung(n, dimset([1])).requests(str(tmp_path / "id1.ctt"), 1, str(tmp_path / "scratch.ctt"))
    outcomes = workloads.run_session(requests, Plain(), run_cli)
    k = next(i for i, r in enumerate(requests) if r.name == "lib.op")
    outcomes[k] = replace(outcomes[k], result=outcomes[0].result)  # the cell itself
    j = next(i for i, r in enumerate(requests) if r.argv and r.argv[0] == "op")
    source = requests[j].argv[-1]
    outcomes[j] = replace(outcomes[j], out=workloads.canonical(source))
    assert _failed(requests, outcomes) == ["lib.op", "cli.op"]


def test_an_identity_op_fails_in_a_session(session):
    requests, outcomes = session
    k = next(
        i for i, r in enumerate(requests)
        if r.argv and r.argv[0] == "op" and "1" in r.argv[2].split(",") and not r.fed and "chain" in r.argv[-1]
        and outcomes[i].result == 0
    )
    outcomes[k] = replace(outcomes[k], out=workloads.canonical(requests[k].argv[-1]))
    assert _failed(requests, outcomes) == ["cli.op"]


def test_the_tracer_spans_the_calls_run_cli_makes():
    from omegatt import metaops, surface

    tracer = Tracer()
    original = surface.parse
    with contextlib.redirect_stdout(io.StringIO()), tracer.patched(["surface.parse", "metaops.suspend_computad"]):
        code = tracer.call("cli.susp", run_cli, ["susp", str(ROOT / "samples/comp101.ctt")])
    assert code == 0
    assert surface.parse is original and metaops.suspend_computad.__module__ == "omegatt.metaops"
    totals = tracer.totals()
    assert totals["surface.parse"][1] == 1 and totals["metaops.suspend_computad"][1] >= 1
    assert sum(s for s, _ in totals.values()) > 0 and tracer.token_count() > 0


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
