"""Output verifiers.  Each builds a check: a function from a request's
:class:`~client.Outcome` to ``None`` when the output is right, or to a
one-line reason when it is wrong.  A request fails when it crashed, timed
out, or its check returns a reason; failures feed ``failed_ratio``.
"""

from __future__ import annotations

import re
from typing import Callable

from client import Outcome

Check = Callable[[Outcome], "str | None"]

LAW_FAMILIES = (
    "tree-boundary",
    "tree-action",
    "suspension",
    "pushout-counts",
    "typecheck",
    "cell-action",
    "hom-roundtrip",
    "hom-transport",
    "eh-identities",
    "counit-squares",
)

# law totals pinned per (max_nodes, dims_upto); 17,432 is the README's figure
LAW_TOTALS = {(5, 3): 17432, (9, 1): 62870}


def failure(outcome: Outcome, check: Check) -> str | None:
    """Why a request failed, or None."""
    if outcome.crash is not None:
        return outcome.crash.strip().splitlines()[-1]
    try:
        return check(outcome)
    except Exception as exc:  # a wrong output can break the check itself
        return f"check raised {exc!r}"[:200]


def _code(outcome: Outcome, want: int) -> str | None:
    if outcome.result != want:
        return f"exit {outcome.result}, want {want}"
    return None


def _first_difference(got: str, want: str) -> str:
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"output differs at byte {at} ({len(got)} bytes, want {len(want)})"


def exact(code: int, out: str = "", err: str = "") -> Check:
    """Exit code and both streams byte-identical to a reference."""

    def check(outcome: Outcome) -> str | None:
        if (reason := _code(outcome, code)) is not None:
            return reason
        if outcome.out != out:
            return "stdout: " + _first_difference(outcome.out, out)
        if outcome.err != err:
            return "stderr: " + _first_difference(outcome.err, err)
        return None

    return check


def located(path: str, line: int, contains: str) -> Check:
    """Exit 1 with a message located at ``path:line:`` that names the error."""

    def check(outcome: Outcome) -> str | None:
        if (reason := _code(outcome, 1)) is not None:
            return reason
        if outcome.out:
            return "a rejected document printed to stdout"
        if not outcome.err.startswith(f"{path}:{line}:"):
            return f"error not located at {path}:{line}: {outcome.err[:80]!r}"
        if contains not in outcome.err:
            return f"error does not say {contains!r}: {outcome.err[:80]!r}"
        return None

    return check


def emitted() -> Check:
    """Exit 0 with output; the request that consumes the output checks it."""

    def check(outcome: Outcome) -> str | None:
        if (reason := _code(outcome, 0)) is not None:
            return reason
        return None if outcome.out else "no output"

    return check


def prints(prefix: str) -> Check:
    """Exit 0 and stdout starting with ``prefix``."""

    def check(outcome: Outcome) -> str | None:
        if (reason := _code(outcome, 0)) is not None:
            return reason
        return None if outcome.out.startswith(prefix) else f"stdout does not start with {prefix!r}"

    return check


def same_as(reference: Callable[[], str]) -> Check:
    """Exit 0 and stdout equal to a reference text computed after the run."""

    def check(outcome: Outcome) -> str | None:
        if (reason := _code(outcome, 0)) is not None:
            return reason
        want = reference()
        return None if outcome.out == want else _first_difference(outcome.out, want)

    return check


def all_of(*checks: Check) -> Check:
    """Every check passes; the reason is the first one's that does not."""

    def check(outcome: Outcome) -> str | None:
        return next((reason for c in checks if (reason := c(outcome)) is not None), None)

    return check


def holds(predicate: Callable[[object], bool], what: str) -> Check:
    """A library call whose value must satisfy ``predicate``."""

    def check(outcome: Outcome) -> str | None:
        return None if predicate(outcome.result) else f"{what} does not hold"

    return check


_FAMILY_LINE = re.compile(r"^([a-z-]+): (\d+) checks ok$")


def law_sweep(max_nodes: int, dims_upto: int) -> Check:
    """Exit 0, one `ok` line per law family in order, and the pinned total."""
    total = LAW_TOTALS[(max_nodes, dims_upto)]

    def check(outcome: Outcome) -> str | None:
        if (reason := _code(outcome, 0)) is not None:
            return reason
        lines = outcome.out.splitlines()
        if len(lines) != len(LAW_FAMILIES) + 1:
            return f"{len(lines)} lines, want {len(LAW_FAMILIES) + 1}"
        counted = 0
        for name, line in zip(LAW_FAMILIES, lines):
            match = _FAMILY_LINE.match(line)
            if not match or match.group(1) != name:
                return f"bad family line {line!r}, want family {name}"
            counted += int(match.group(2))
        if counted != total or lines[-1] != f"all {total} checks passed":
            return f"{counted} checks, summary {lines[-1]!r}; want all {total} checks passed"
        return None

    return check
