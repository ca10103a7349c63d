"""One pass of one workload in a fresh process, so omegatt starts cold.

    python3 perfbench/worker.py --workload deep --seed 1 --mode plain

``run.py`` starts these one after another and never in parallel.  The worker
imports omegatt from ``src/``, writes the generated inputs, prints ``ready``
(the end of set-up), runs the pass, checks every output, and prints one JSON
summary line.  Modes: ``plain``, ``traced`` (the same requests with the
program's calls spanned; the call tree of each request is written to
``perfbench/out/spans-<workload>-seed<seed>.json``), ``tracemalloc`` (plain
under tracemalloc), ``probe`` (set-up only).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# "family: N checks ok" or "family: F of N checks FAILED"
LAW_LINE = re.compile(r"^([a-z-]+): (?:\d+ of )?(\d+) checks", re.MULTILINE)
# ladder outputs whose term sizes the traced `deep` pass counts
TERM_STEPS = {f"lib.{s}" for s in ("build", "op", "suspend", "desuspend", "hom_factor", "hom_realize", "parse")}


def describe(req) -> str:
    return " ".join(req.argv) if req.argv else req.name


def digest(req, outcome, tmp: str) -> str | None:
    """What a CLI request printed, for comparing passes (each has its own
    input directory); None for library calls."""
    if req.argv is None:
        return None
    text = f"{outcome.result!r}\0{outcome.out}\0{outcome.err}".replace(tmp, "<inputs>")
    return hashlib.sha256(text.encode()).hexdigest()


def layer_values(requests, outcomes, tracer, caches) -> dict[str, float]:
    """The per-layer metrics of a traced pass; ``caches`` holds each cache's
    (hits, misses, size) gained during the pass."""
    from spans import term_counts

    values: dict[str, float] = {}
    for name, (self_s, calls) in tracer.totals().items():
        values[f"{name}.self_s"] = self_s
        values[f"{name}.calls"] = calls
    for name, (hits, misses, _) in caches.items():
        values[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["trees.cache_entries"] = sum(size for name, (_, _, size) in caches.items() if name.startswith("trees."))
    values["surface.tokens"] = tracer.token_count()
    values["surface.bytes_out"] = sum(len(o.out.encode()) for r, o in zip(requests, outcomes) if r.argv)
    for req, outcome in zip(requests, outcomes):
        if req.argv and req.argv[0] == "laws":
            for family, checks in LAW_LINE.findall(outcome.out):
                values[f"laws.checks.{family.replace('-', '_')}"] = int(checks)
    terms = [o.result for r, o in zip(requests, outcomes) if r.name in TERM_STEPS and o.crash is None]
    if terms:
        nodes, distinct, objects = term_counts(terms)
        values.update({"deep.term_tree_nodes": nodes, "deep.term_distinct": distinct, "deep.term_objects": objects})
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "tracemalloc", "probe"), required=True)
    parser.add_argument("--tail", action="store_true", help="also run the workload's known-defect tail")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # sample and golden paths are relative to the root
    from omegatt.cli import run_cli

    from run import SPANS
    from spans import Plain, Tracer, cache_counts
    from verify import failure
    from workloads import WORKLOADS, run_session

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT)).relative_to(ROOT)
    try:
        workload = WORKLOADS[args.workload]()
        workload.prepare(args.seed, tmp)
        requests = workload.requests()
        print("ready", flush=True)
        if args.mode == "probe":
            return 0

        caller = Plain()
        if args.mode == "traced":
            caller = Tracer()
        elif args.mode == "tracemalloc":
            tracemalloc.start()
        before = cache_counts()
        with caller.patched([span for span in SPANS if not span.startswith("cli.")]):
            start = time.perf_counter()
            outcomes = run_session(requests, caller, run_cli)
            wall = time.perf_counter() - start
        # read before the checks below, which call omegatt again
        caches = {name: tuple(a - b for a, b in zip(now, before[name])) for name, now in cache_counts().items()}
        summary: dict = {
            "wall": wall,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "work": workload.work(requests),
            "rungs": workload.rung_of(requests) if hasattr(workload, "rung_of") else None,
        }
        if args.mode == "tracemalloc":
            summary["tracemalloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        if args.tail:
            tail = workload.tail()
            summary["tail"] = [
                [describe(r), reason]
                for r, o in zip(tail, run_session(tail, Plain(), run_cli))
                if (reason := failure(o, r.check)) is not None
            ]
            summary["tail_attempted"] = len(tail)
        summary["requests"] = [
            [describe(r), o.seconds, digest(r, o, str(tmp)), failure(o, r.check)] for r, o in zip(requests, outcomes)
        ]
        if args.mode == "traced":
            summary["layers"] = layer_values(requests, outcomes, caller, caches)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans.write_text(json.dumps({"node": ["name", "calls", "seconds", "children"], "requests": caller.call_trees()}))
    finally:
        shutil.rmtree(ROOT / tmp, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
