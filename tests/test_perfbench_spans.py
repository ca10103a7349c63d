"""The traced benchmark reaches into the program by name: every span it
records and every cache whose hit ratio it reports must exist."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import spans  # noqa: E402

LIBRARY_SPANS = [span for span in run.SPANS if not span.startswith("cli.")]


@pytest.mark.parametrize("span", LIBRARY_SPANS)
def test_span_resolves_to_a_function(span):
    assert callable(spans.spanned_function(span))


@pytest.mark.parametrize("name", sorted(spans.CACHES))
def test_reported_cache_has_counters(name):
    assert callable(spans.CACHES[name].cache_info)


def test_reported_caches_match_the_metric_list():
    assert sorted(spans.CACHES) == sorted(run.CACHES)
