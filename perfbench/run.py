"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload documents --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``.
Each pass of the workload runs in a fresh worker process (``worker.py``), one
after another.  With ``--trace 0`` the run makes passes until they have
measured ``--seconds`` and reports the end-to-end metrics: set-up time, wall
time, per-request latencies and peak RSS are medians over the passes.  The
median time of the kernel in ``hostspeed.py``, timed before the first pass
and after each pass, is printed beside them as ``host_kernel_ms`` so that a
slow host can be told from a slow program.  With ``--trace 1`` it makes one
plain pass, one traced pass and one pass under tracemalloc, and reports the
per-layer metrics and the tracing overhead.

Every run prints one line per metric, appends a row to
``perfbench/out/results.jsonl``, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import verify

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKER_TIMEOUT_S = 170

WORKLOADS = ("laws_default", "laws_wide", "documents", "deep")
# An untraced run makes passes until they have measured --seconds, within
# these limits; metrics are medians over the passes.
MIN_PASSES, MAX_PASSES = 1, 9
SETUP_SAMPLES = 5  # set-up is timed in every pass, and in probes up to this many
# Workloads whose p50/p95 are over single requests.  The others are timed as
# one unit: laws_* are one request, and on the deep ladder single requests
# run from microseconds to a second, so their median is a 2 ms CLI call and
# says nothing of the ladder; there p50 and p95 are the pass's wall time.
PER_REQUEST = {"documents"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "peak_rss_mb": "MB",
}

LAW_FAMILIES = [family.replace("-", "_") for family in verify.LAW_FAMILIES]
SPANS = [
    *(f"laws.{name}" for name in LAW_FAMILIES + ["cell_corpus", "loop_corpus", "format_reports"]),
    *(f"computads.{name}" for name in (
        "typecheck_cell", "cell_boundary", "support", "boundary_at", "pasting_computad",
    )),
    *(f"metaops.{name}" for name in (
        "op_cell", "suspend_cell", "desuspend_cell", "op_computad", "suspend_computad",
        "desuspend_computad",
    )),
    "homcat.hom_factor", "homcat.hom_realize", "homcat.op_homcell",
    "oplib.comp_cell", "oplib.identity_cell", "oplib.eh_computad",
    *(f"surface.{name}" for name in ("parse", "elaborate", "document_text", "cell_text", "computad_text")),
    "export.document_to_json", "export.document_from_json", "export.document_to_dot",
    *(f"cli.{verb}" for verb in ("check", "susp", "desusp", "op", "comp", "id", "eh", "hom", "export", "laws")),
]
CACHES = [
    "trees.positions", "trees.src_inclusion", "trees.tgt_inclusion", "trees.op_positions_iso",
    "computads.pasting_computad", "oplib.comp_template",
]

PER_LAYER = {
    **{f"{span}.{part}": unit for span in SPANS for part, unit in (("self_s", "s"), ("calls", "count"))},
    **{f"{name}.hit_ratio": "ratio" for name in CACHES},
    "trees.cache_entries": "count",
    "deep.term_tree_nodes": "count",
    "deep.term_distinct": "count",
    "deep.term_objects": "count",
    "deep.growth_per_dim": "x",
    "surface.tokens": "count",
    "surface.bytes_out": "bytes",
    **{f"laws.checks.{family}": "count" for family in LAW_FAMILIES},
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.tracemalloc_peak_mb": "MB",
}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def growth_per_dim(rungs: list[int], seconds: list[float]) -> float:
    """Factor by which one more dimension multiplies the ladder's per-size
    time: exp of the least-squares slope of log time against size, over the
    upper half of the ladder."""
    per_size: dict[int, float] = {}
    for n, s in zip(rungs, seconds):
        per_size[n] = per_size.get(n, 0.0) + s
    sizes = sorted(per_size)[len(per_size) // 2 :]
    ys = [math.log(per_size[n]) for n in sizes]
    mx, my = statistics.fmean(sizes), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(sizes, ys)) / sum((x - mx) ** 2 for x in sizes)
    return math.exp(slope)


def worker(args, mode: str, tail: bool = False) -> tuple[float, dict | None]:
    """Run one worker to completion: (set-up seconds, its summary)."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--mode", mode] + (["--tail"] if tail else [])
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return setup, (json.loads(rest.strip().splitlines()[-1]) if mode != "probe" else None)


def failures(summary: dict) -> list[tuple[str, str]]:
    return [(what, reason) for what, _, _, reason in summary["requests"] if reason is not None]


def timing(workload: str, passes: list[dict], setups: list[float]) -> dict:
    """The time metrics of the passes."""
    wall = statistics.median(p["wall"] for p in passes)
    if workload in PER_REQUEST:  # every request of every pass
        ms = [seconds * 1000 for p in passes for _, seconds, _, _ in p["requests"]]
    else:
        ms = [wall * 1000]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (wall, "s", len(passes)),
        "ops_per_s": (passes[0]["work"] / wall, "1/s", len(passes)),
        "p50_ms": (percentile(ms, 0.50), "ms", len(ms)),
        "p95_ms": (percentile(ms, 0.95), "ms", len(ms)),
    }


def untraced(args) -> tuple[dict, int, list, list]:
    setups, passes = [], []
    kernel = hostspeed.kernel_seconds()
    while len(passes) < MIN_PASSES or (sum(p["wall"] for p in passes) < args.seconds and len(passes) < MAX_PASSES):
        setup, summary = worker(args, "plain", tail=(not passes and args.workload == "deep"))
        setups.append(setup)
        passes.append(summary)
        kernel += hostspeed.kernel_seconds()
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker(args, "probe")[0])

    failed = [f for p in passes for f in failures(p)]
    attempted = sum(len(p["requests"]) for p in passes)
    shown = timing(args.workload, passes, setups)
    shown["peak_rss_mb"] = (statistics.median(p["rss_mb"] for p in passes), "MB", len(passes))
    shown["failed_ratio"] = (len(failed) / attempted, "ratio", attempted)
    shown["host_kernel_ms"] = (statistics.median(kernel) * 1000, "ms", len(kernel))
    tail = passes[0].get("tail", [])
    if passes[0]["rungs"]:
        latencies = [statistics.median(p["requests"][i][1] for p in passes) for i in range(len(passes[0]["rungs"]))]
        shown["growth_per_dim"] = (growth_per_dim(passes[0]["rungs"], latencies), "x", len(set(passes[0]["rungs"])))
        shown["tail_failed"] = (len(tail), "count", passes[0]["tail_attempted"])
    return shown, attempted, failed, tail


def traced(args) -> tuple[dict, int, list, list]:
    _, plain = worker(args, "plain")
    _, spanned = worker(args, "traced")
    _, heap = worker(args, "tracemalloc")
    failed = failures(plain) + failures(spanned) + failures(heap)
    for (what, _, want, _), (_, _, got, _) in zip(plain["requests"], spanned["requests"]):
        if want != got:
            failed.append((what, "the traced pass printed other bytes than the plain pass"))
    values = {name: 0.0 for name in PER_LAYER}
    values.update(spanned["layers"])
    if plain["rungs"]:
        values["deep.growth_per_dim"] = growth_per_dim(plain["rungs"], [r[1] for r in plain["requests"]])
    values["trace.untraced_wall_s"] = plain["wall"]
    values["trace.traced_wall_s"] = spanned["wall"]
    values["trace.overhead_ratio"] = spanned["wall"] / plain["wall"] - 1
    values["trace.tracemalloc_peak_mb"] = heap["tracemalloc_mb"]
    shown = {name: (values[name], unit, 1) for name, unit in PER_LAYER.items()}
    return shown, len(spanned["requests"]), failed, []


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "omegatt" / "__init__.py").is_file():
        print(f"perfbench: no omegatt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    shown, attempted, failed, tail = (traced if args.trace else untraced)(args)

    for what, reason in failed[:20]:
        print(f"perfbench: FAILED {what}: {reason}")
    for what, reason in tail:
        print(f"perfbench: known defect still fails: {what}: {reason}")
    for name, (value, unit, samples) in shown.items():
        print(f"perfbench {args.workload} {name} {value:.6g} {unit} samples={samples}")
    row = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in shown.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")
    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": shown[name][0], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
