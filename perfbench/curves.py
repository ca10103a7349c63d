"""Size -> time and size -> memory curves, one row per size.

    python3 perfbench/curves.py [--top 12] [--chains 4,8,16,32,64,100,200] [--laws 5,3]

Regenerates the figures of the ROADMAP "Baseline": the comp_cell(n,0,n)
ladder, `omegatt check` on chain-N documents, and the per-family times of
the law sweep.  Each row starts from cold caches and gives its time, the
tree nodes, distinct subterms and distinct objects of its terms, and its
tracemalloc peak (from a second, separate run of the same row).  Rows are
printed as a table and written to ``perfbench/out/curves.json``.  Run it
from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from omegatt.computads import pasting_computad, support, typecheck_cell  # noqa: E402
from omegatt.globular import dimset  # noqa: E402
from omegatt.homcat import hom_factor  # noqa: E402
from omegatt.metaops import op_cell, suspend_cell, suspend_computad  # noqa: E402
from omegatt.oplib import comp_cell  # noqa: E402
from omegatt.surface import cell_text, load_document  # noqa: E402

import gen  # noqa: E402
from spans import clear_caches, law_families, term_counts  # noqa: E402


def measure(work) -> tuple[float, float, object, dict]:
    """(seconds, tracemalloc peak in MB, result, step seconds) of
    ``work(steps)`` from cold caches; the steps are timed untraced."""
    clear_caches()
    steps: dict[str, float] = {}
    start = time.perf_counter()
    result = work(steps)
    seconds = time.perf_counter() - start
    clear_caches()
    tracemalloc.start()
    work({})
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return seconds, peak, result, steps


def ladder_row(n: int) -> dict:
    """comp_cell(n,0,n): build, typecheck, support, op{1}, suspend, hom_factor
    of the suspension, print."""
    def work(steps):
        cell = timed(steps, "build", comp_cell, n, 0, n)
        pc = pasting_computad(cell.tree)
        timed(steps, "typecheck", typecheck_cell, pc, cell)
        timed(steps, "support", support, pc, cell)
        timed(steps, "op", op_cell, dimset([1]), cell)
        up = timed(steps, "suspend", suspend_cell, cell)
        timed(steps, "hom_factor", hom_factor, suspend_computad(pc), up)
        timed(steps, "print", cell_text, cell)
        return cell

    seconds, peak, cell, steps = measure(work)
    nodes, distinct, objects = term_counts([cell])
    return {"n": n, "seconds": seconds, **{f"{k}_s": v for k, v in steps.items()},
            "tree_nodes": nodes, "distinct": distinct, "objects": objects, "tracemalloc_mb": peak}


def timed(steps: dict, name: str, fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    steps[name] = time.perf_counter() - start
    return result


def chain_row(n: int) -> dict:
    """`check` of a chain-N document: parse, elaborate and typecheck."""
    text = gen.chain_doc(n, random.Random(n)).text
    seconds, peak, doc, _ = measure(lambda steps: load_document(text))
    nodes, distinct, objects = term_counts([elab.term for _, elab in doc.cells])
    return {"n": n, "seconds": seconds, "tree_nodes": nodes, "distinct": distinct,
            "objects": objects, "tracemalloc_mb": peak}


def law_rows(max_nodes: int, dims_upto: int) -> list[dict]:
    rows = []
    for name, fn, bounds in law_families(max_nodes, dims_upto):
        seconds, peak, report, _ = measure(lambda steps: fn(*bounds))
        rows.append({"family": name, "seconds": seconds, "checks": report.checks, "tracemalloc_mb": peak})
    return rows


def show(title: str, rows: list[dict]) -> None:
    print(f"\n{title}")
    keys = list(rows[0])
    print("  ".join(f"{k:>14}" for k in keys))
    for row in rows:
        print("  ".join(f"{v:>14.4g}" if isinstance(v, float) else f"{v!s:>14}" for v in row.values()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--top", type=int, default=12, help="largest n of the comp_cell(n,0,n) ladder")
    parser.add_argument("--chains", default="4,8,16,32,64,100,200", help="chain-N sizes for `check`")
    parser.add_argument("--laws", default="5,3", help="max_nodes,dims_upto of the law sweep")
    args = parser.parse_args()
    max_nodes, dims_upto = (int(x) for x in args.laws.split(","))

    curves = {
        "ladder": [ladder_row(n) for n in range(1, args.top + 1)],
        "chain_check": [chain_row(int(n)) for n in args.chains.split(",")],
        "laws": law_rows(max_nodes, dims_upto),
    }
    show("comp_cell(n,0,n) ladder", curves["ladder"])
    show("check on chain-N documents", curves["chain_check"])
    show(f"law families at --max-nodes {max_nodes} --dims-upto {dims_upto}", curves["laws"])
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    (out / "curves.json").write_text(json.dumps(curves, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
