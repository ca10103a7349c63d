"""The four workloads.  Each is a fixed list of requests for one closed-loop
client: ``prepare`` writes the generated inputs, ``requests`` builds a fresh
request list for one pass.  Why each workload exists is recorded in
BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from omegatt import computads, export, homcat, metaops, oplib, surface
from omegatt.cli import run_cli
from omegatt.globular import dimset

import gen
import verify
from client import Outcome, run_request
from spans import Plain
from verify import Check

REQUEST_LIMIT_S = 60.0  # per request; a request past it counts as failed
TAIL_LIMIT_S = 2.0  # per known-defect request at the end of `deep`


@dataclass
class Request:
    name: str  # "cli.<verb>" or "lib.<step>"
    check: Check
    argv: list[str] | None = None  # a CLI request, or ...
    body: Callable[[str | None], object] | None = None  # ... a library call
    fed: bool = False  # takes the previous request's stdout (CLI: as its file)
    limit: float = REQUEST_LIMIT_S


def cli_request(argv: list[str], check: Check, fed: bool = False, limit: float = REQUEST_LIMIT_S) -> Request:
    return Request(f"cli.{argv[0]}", check, argv=argv, fed=fed, limit=limit)


def run_session(requests: list[Request], caller: Plain, cli) -> list[Outcome]:
    """Issue the requests one after another, each under its request span;
    ``cli`` runs an argv."""
    outcomes: list[Outcome] = []
    for req in requests:
        fed = outcomes[-1].out if req.fed else None
        caller.begin_request()
        if req.argv is not None:
            if fed is not None:
                Path(req.argv[-1]).write_text(fed, encoding="utf-8")
            body = functools.partial(caller.call, req.name, cli, req.argv)
        else:
            body = functools.partial(caller.call, req.name, req.body, fed)
        outcomes.append(run_request(body, req.limit))
    return outcomes


@functools.lru_cache(maxsize=None)
def canonical(path: str) -> str:
    """The canonical printing of a document, which every round trip must
    give back.  Computed after the timed pass."""
    return surface.document_text(surface.load_document(Path(path).read_text(encoding="utf-8")))


def inverted_by(argv: list[str], scratch: str, source: str) -> Check:
    """Exit 0, and ``argv`` run on the output gives back the canonical text
    of ``source``: desusp after susp, op_w after op_w."""

    def check(outcome: Outcome) -> str | None:
        if outcome.result != 0:
            return f"exit {outcome.result}, want 0"
        Path(scratch).write_text(outcome.out, encoding="utf-8")
        back = run_request(lambda: run_cli(argv + [scratch]), REQUEST_LIMIT_S)
        if back.result == 0 and back.out == canonical(source):
            return None
        return f"`{' '.join(argv)}` does not give the document back"

    return check


def json_roundtrip(source: str) -> Check:
    """Exit 0, and JSON -> document_from_json -> document_text is the
    canonical text of ``source``."""

    def check(outcome: Outcome) -> str | None:
        if outcome.result != 0:
            return f"exit {outcome.result}, want 0"
        back = surface.document_text(export.document_from_json(json.loads(outcome.out)))
        return None if back == canonical(source) else "JSON import does not give the document back"

    return check


def reimport(exported: str) -> str:
    """The client's re-import of an exported document."""
    return surface.document_text(export.document_from_json(json.loads(exported)))


# ---------------------------------------------------------------------------


class Laws:
    """One `omegatt laws` request at fixed bounds."""

    def __init__(self, max_nodes: int, dims_upto: int):
        self.bounds = (max_nodes, dims_upto)

    def prepare(self, seed: int, tmp: Path) -> None:
        pass

    def requests(self) -> list[Request]:
        max_nodes, dims_upto = self.bounds
        argv = ["laws", "--max-nodes", str(max_nodes), "--dims-upto", str(dims_upto)]
        return [cli_request(argv, verify.law_sweep(max_nodes, dims_upto), limit=150.0)]

    def work(self, requests: list[Request]) -> int:
        """Law checks per pass."""
        return verify.LAW_TOTALS[self.bounds]


# the goldens of tests/test_cli.py: argv, golden file, exit code, stream
GOLDEN_CASES = [
    (["check", "samples/comp101.ctt"], "check_comp101.txt", 0, "out"),
    (["check", "samples/bad.ctt"], "check_bad.txt", 1, "err"),
    (["susp", "samples/comp101.ctt"], "susp_comp101.ctt", 0, "out"),
    (["op", "--dims", "1", "samples/comp101.ctt"], "op1_comp101.ctt", 0, "out"),
    (["op", "--dims", "1,2", "samples/eh.ctt"], "op12_eh.ctt", 0, "out"),
    (["export", "--format", "json", "samples/comp101.ctt"], "export_comp101.json", 0, "out"),
    (["export", "--format", "dot", "samples/eh.ctt"], "export_eh.dot", 0, "out"),
    (["comp", "2", "1", "2"], "comp_212.txt", 0, "out"),
    (["id", "f", "samples/comp101.ctt"], "id_f.txt", 0, "out"),
    (["eh"], "eh.txt", 0, "out"),
    (["hom", "--src", "x", "--tgt", "x", "factor", "vertical", "samples/eh.ctt"], "hom_vertical.txt", 0, "out"),
]

DOCS_PER_PASS = 20  # sound chain documents in one pass; a tenth as many defective ones come on top


class Documents:
    """A seeded session of CLI requests on generated chain-N documents, with
    about one document in eleven carrying an injected defect and the sample
    goldens mixed in."""

    def prepare(self, seed: int, tmp: Path) -> None:
        rng = random.Random(seed)
        count = DOCS_PER_PASS
        # The defective documents come on top of the sound ones, which cover
        # every size stratum whatever the seed: a defect that replaced a large
        # sound document would drop its transforms and move the timings.
        plan: list[tuple[int, str | None]] = [(n, None) for n in gen.chain_sizes(count, rng)]
        kinds = list(gen.DEFECT_KINDS)
        first = rng.randrange(len(kinds))
        for k in range(max(1, count // 10)):
            plan.insert(rng.randrange(len(plan) + 1), (rng.choice(plan)[0], kinds[(first + k) % len(kinds)]))
        self.docs = []
        for j, (n, defect) in enumerate(plan):
            doc = gen.chain_doc(n, rng, defect)
            path = str(tmp / f"chain{j:03d}.ctt")
            Path(path).write_text(doc.text, encoding="utf-8")
            if doc.defect is None:
                Path(path[: -len(".ctt")] + ".dual.ctt").write_text(doc.dual_text, encoding="utf-8")
            self.docs.append((path, doc, rng.sample(gen.OP_DIMS, 2), rng.randint(1, n)))
        self.golden_slots = [rng.randint(0, len(plan)) for _ in GOLDEN_CASES]
        self.goldens = [(Path("tests/golden") / name).read_text(encoding="utf-8") for _, name, _, _ in GOLDEN_CASES]

    def requests(self) -> list[Request]:
        out: list[Request] = []
        for j in range(len(self.docs) + 1):
            for slot, (argv, _, code, stream), golden in zip(self.golden_slots, GOLDEN_CASES, self.goldens):
                if slot == j:
                    out.append(cli_request(list(argv), verify.exact(code, **{stream: golden})))
            if j < len(self.docs):
                out += self.doc_requests(*self.docs[j])
        return out

    @staticmethod
    def doc_requests(path: str, doc: gen.ChainDoc, op_dims: list[str], i: int) -> list[Request]:
        if doc.defect is not None:
            line, kind = doc.defect
            bad = verify.located(path, line, gen.DEFECT_KINDS[kind])
            return [
                cli_request(["check", path], bad),
                cli_request(["op", "--dims", op_dims[0], path], bad),
                cli_request(["export", "--format", "json", path], bad),
            ]
        stem = path[: -len(".ctt")]
        back = verify.same_as(lambda: canonical(path))
        reqs = [cli_request(["check", path], verify.exact(0, doc.check_lines()))]
        for k, dims in enumerate(op_dims):
            # the opposite is written out by the generator: the dual document when 1 is in w
            want = f"{stem}.dual.ctt" if "1" in dims.split(",") else path
            reqs.append(cli_request(["op", "--dims", dims, path], verify.same_as(lambda want=want: canonical(want))))
            reqs.append(cli_request(["op", "--dims", dims, f"{stem}.op{k}.ctt"], back, fed=True))
        reqs.append(cli_request(["susp", path], verify.emitted()))
        reqs.append(cli_request(["desusp", f"{stem}.susp.ctt"], back, fed=True))
        reqs.append(cli_request(["export", "--format", "json", path], verify.emitted()))
        reqs.append(
            Request(
                "lib.import",
                verify.holds(lambda text: text == canonical(path), "import after export is the identity"),
                body=reimport,
                fed=True,
            )
        )
        reqs.append(cli_request(["export", "--format", "dot", path], verify.exact(0, doc.dot_text())))
        reqs.append(cli_request(["id", f"f{i}", path], verify.exact(0, doc.id_text(i))))
        v = doc.vertical
        hom = ["hom", "--src", f"x{v - 1}", "--tgt", f"x{v}", "factor", doc.vertical_name, path]
        reqs.append(cli_request(hom, verify.exact(0, doc.hom_text())))
        return reqs

    def work(self, requests: list[Request]) -> int:
        return len(requests)


# ---------------------------------------------------------------------------

DEEP_TOP = 10  # largest n in the comp_cell(n,0,n) ladder
OP_COMP_101 = "coh [[],[]] { 0 -> 2 } [0 => 2, 1 => 1, 1.0 => 2.0, 2 => 0, 2.0 => 1.0]"


class Rung:
    """One size of the deep ladder: comp_cell(n,0,n) and what is derived
    from it, kept for the checks that run after the pass."""

    def __init__(self, n: int, w: frozenset[int]):
        self.n, self.w = n, w

    def build(self, _=None):
        self.cell = oplib.comp_cell(self.n, 0, self.n)
        return self.cell

    def typecheck(self, _=None):
        self.pc = computads.pasting_computad(self.cell.tree)
        return computads.typecheck_cell(self.pc, self.cell)

    def boundary(self, _=None):
        return computads.cell_boundary(self.pc, self.cell)

    def support(self, _=None):
        return computads.support(self.pc, self.cell)

    def op(self, _=None):
        return metaops.op_cell(self.w, self.cell)

    def suspend(self, _=None):
        self.up = metaops.suspend_cell(self.cell)
        return self.up

    def desuspend(self, _=None):
        return metaops.desuspend_cell(self.up)

    def hom_factor(self, _=None):
        self.pointed = metaops.suspend_computad(self.pc)
        self.h = homcat.hom_factor(self.pointed, self.up)
        return self.h

    def hom_realize(self, _=None):
        return homcat.hom_realize(self.pointed, self.h)

    def print(self, _=None):
        self.text = surface.cell_text(self.cell)
        return self.text

    def parse(self, _=None):
        doc = surface.elaborate(surface.parse(f"let c = {self.text}\n"))
        return doc.cells[0][1].term

    def is_op(self, v) -> bool:
        """``v`` is op_w of the cell: not the cell itself (no comp_cell(n,0,n)
        is self-dual), a cell of op_w of the cell's scheme, and op_w gives
        the cell back.  For n = 1 the opposite is written out: the composite
        of 1.0 then 2.0, read in the reversed scheme."""
        if self.n == 1 and surface.cell_text(v) != OP_COMP_101:
            return False
        in_op = computads.typecheck_cell(metaops.op_computad(self.w, self.pc), v) is None
        return v != self.cell and in_op and metaops.op_cell(self.w, v) == self.cell

    def requests(self, id_doc: str, id_depth: int, scratch: str) -> list[Request]:
        n, w = self.n, self.w
        is_cell = lambda what: verify.holds(lambda v: v == self.cell, what)  # noqa: E731
        steps = [
            ("build", verify.holds(lambda v: v.dim == n, f"comp_cell({n},0,{n}) has dimension {n}")),
            ("typecheck", verify.holds(lambda v: v is None, "typecheck_cell accepts the template")),
            ("boundary", verify.holds(lambda v: v == self.cell.sphere, "the boundary of a template is its sphere")),
            ("support", verify.holds(lambda v: v == _generators(self.pc), "a template is supported everywhere")),
            ("op", verify.holds(self.is_op, "op_w gives the opposite cell")),
            ("suspend", verify.holds(lambda v: v.dim == n + 1, "suspension raises the dimension")),
            ("desuspend", is_cell("desuspend . suspend = id")),
            ("hom_factor", verify.holds(lambda v: v.dim == n, "hom_factor lowers the dimension")),
            ("hom_realize", verify.holds(lambda v: v == self.up, "hom_realize . hom_factor = id")),
            ("print", verify.holds(lambda v: v.startswith("coh "), "cell_text prints a coherence")),
            ("parse", is_cell("parse . print = id")),
        ]
        reqs = [Request(f"lib.{step}", check, body=getattr(self, step)) for step, check in steps]
        reqs.append(
            cli_request(["comp", str(n), "0", str(n)], lambda o: verify.exact(0, self.text + "\n")(o))
        )
        reqs += [
            cli_request(["check", id_doc], verify.exact(0, f"ok computad c\nok let t ({id_depth + 1}-cell)\n")),
            cli_request(["susp", id_doc], inverted_by(["desusp"], scratch, id_doc)),
            cli_request(
                ["op", "--dims", "1", id_doc],
                verify.all_of(
                    verify.same_as(lambda: canonical(id_doc[: -len(".ctt")] + ".dual.ctt")),
                    inverted_by(["op", "--dims", "1"], scratch, id_doc),
                ),
            ),
            cli_request(["export", "--format", "json", id_doc], json_roundtrip(id_doc)),
        ]
        return reqs


def _generators(c) -> frozenset[str]:
    return frozenset(v for level in c.generators for v in level)


class Deep:
    """A ladder of tall terms, comp_cell(n,0,n) for n = 1..DEEP_TOP, then a
    tail of the three known defects, each under TAIL_LIMIT_S."""

    def prepare(self, seed: int, tmp: Path) -> None:
        rng = random.Random(seed)
        self.rungs = []
        for n in range(1, DEEP_TOP + 1):
            w = dimset(rng.sample(range(1, n + 1), rng.randint(1, min(n, 3))))
            depth = max(1, n - 2)
            id_doc = str(tmp / f"id{depth}.ctt")
            Path(id_doc).write_text(gen.id_nest_text(depth), encoding="utf-8")
            Path(id_doc[: -len(".ctt")] + ".dual.ctt").write_text(gen.id_nest_text(depth, dual=True), encoding="utf-8")
            self.rungs.append((n, w, id_doc, depth))
        self.scratch = str(tmp / "scratch.ctt")
        self.id400 = str(tmp / "id400.ctt")
        Path(self.id400).write_text(gen.id_nest_text(400), encoding="utf-8")
        self.tree3000 = str(tmp / "tree3000.ctt")
        Path(self.tree3000).write_text(gen.deep_tree_text(3000), encoding="utf-8")

    def requests(self) -> list[Request]:
        return [req for n, w, id_doc, depth in self.rungs for req in Rung(n, w).requests(id_doc, depth, self.scratch)]

    def rung_of(self, requests: list[Request]) -> list[int]:
        """The ladder size n of each request."""
        per = len(requests) // len(self.rungs)
        return [n for n, *_ in self.rungs for _ in range(per)]

    def tail(self) -> list[Request]:
        """The known defects: they fail at the seed, and a fix must give
        these verdicts within the limit."""
        return [
            cli_request(["comp", "40", "0", "40"], verify.prints("coh "), limit=TAIL_LIMIT_S),
            cli_request(["check", self.id400], verify.exact(0, "ok computad c\nok let t (401-cell)\n"), limit=TAIL_LIMIT_S),
            cli_request(["check", self.tree3000], verify.located(self.tree3000, 1, ""), limit=TAIL_LIMIT_S),
        ]

    def work(self, requests: list[Request]) -> int:
        return len(requests)


WORKLOADS = {
    "laws_default": lambda: Laws(5, 3),
    "laws_wide": lambda: Laws(9, 1),
    "documents": Documents,
    "deep": Deep,
}
