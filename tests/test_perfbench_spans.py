"""The traced benchmark reaches into the program by name: every span it
records and every cache whose hit ratio it reports must exist."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run
import spans

LIBRARY_SPANS = [span for span in run.SPANS if not span.startswith("cli.")]


@pytest.mark.parametrize("span", LIBRARY_SPANS)
def test_span_resolves_to_a_function(span):
    assert callable(spans.spanned_function(span))


@pytest.mark.parametrize("name", sorted(spans.CACHES))
def test_reported_cache_has_counters(name):
    assert callable(spans.CACHES[name].cache_info)


def _fresh_call(name):
    """A call of a reported cache on arguments that no other test builds
    (each cache its own tree), so its first call misses in any test order."""
    from omegatt.globular import dimset
    from omegatt.trees import br, disk_tree

    t = br(disk_tree(4), br(br(), br(), br()), disk_tree(2 + sorted(spans.CACHES).index(name)))
    args = {
        "trees.positions": (t,),
        "trees.src_inclusion": (2, t),
        "trees.tgt_inclusion": (2, t),
        "trees.op_positions_iso": (dimset([1, 3]), t),
        "computads.pasting_computad": (t,),
        "oplib.comp_template": (9, 4, 7),
    }[name]
    return lambda: spans.CACHES[name](*args)


@pytest.mark.parametrize("name", sorted(spans.CACHES))
def test_reported_cache_counts_a_miss_then_a_hit(name):
    """The traced run reads these counters; a cache that kept ``cache_info``
    but stopped counting would report a wrong hit ratio silently."""
    call = _fresh_call(name)
    misses = spans.cache_counts()[name][1]
    call()
    hits, after = spans.cache_counts()[name][:2]
    assert after > misses
    call()
    assert spans.cache_counts()[name][:2] == (hits + 1, after)


def test_reported_caches_match_the_metric_list():
    assert sorted(spans.CACHES) == sorted(run.CACHES)


def test_one_rung_of_the_deep_ladder_passes(tmp_path):
    """Every step and check of one rung of the `deep` ladder, which reads
    the kernel's fields (``Computad.generators``, say) by name."""
    import gen
    import verify
    import workloads
    from omegatt.cli import run_cli
    from omegatt.globular import dimset

    depth = 1
    id_doc = tmp_path / f"id{depth}.ctt"
    id_doc.write_text(gen.id_nest_text(depth), encoding="utf-8")
    (tmp_path / f"id{depth}.dual.ctt").write_text(gen.id_nest_text(depth, dual=True), encoding="utf-8")
    requests = workloads.Rung(2, dimset([1])).requests(str(id_doc), depth, str(tmp_path / "scratch.ctt"))
    outcomes = workloads.run_session(requests, spans.Plain(), run_cli)
    failures = [(req.name, verify.failure(outcome, req.check)) for req, outcome in zip(requests, outcomes)]
    assert [f for f in failures if f[1] is not None] == []
    assert len(requests) == 16
