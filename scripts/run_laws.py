#!/usr/bin/env python3
"""Sweep every law family and print a per-family summary.

Equivalent to ``omegatt laws``, with the same bounds (``--max-nodes`` at
least 1, ``--dims-upto`` at least 0, else exit 2), plus a wall-clock figure
per family so you can see where enumeration time goes when pushing
``--max-nodes`` past the defaults.
"""

from __future__ import annotations

import argparse
import sys
import time

from omegatt.cli import _at_least
from omegatt.laws import FAMILIES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-nodes", type=_at_least(1), default=5, help="tree size bound")
    parser.add_argument(
        "--dims-upto", type=_at_least(0), default=3, help="reversal dimension bound"
    )
    args = parser.parse_args(argv)

    total = 0
    bad = 0
    for family in FAMILIES.values():
        start = time.monotonic()
        report = family(args.max_nodes, args.dims_upto)
        elapsed = time.monotonic() - start
        status = "ok" if not report.failures else f"{len(report.failures)} FAILED"
        print(f"{report.name:<18} {report.checks:>6} checks  {elapsed:6.2f}s  {status}")
        for failure in report.failures[:5]:
            print(f"    {failure}")
        total += report.checks
        bad += len(report.failures)

    print(f"{'total':<18} {total:>6} checks")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
