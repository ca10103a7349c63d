"""A grammar fuzzer for the front end: generated ``.ctt`` text, well formed
or damaged, through ``check``, ``op --dims 1``, ``export --format json``
and ``susp``.

Every run must end in exit 0, 1 or 2, every exit-1 message must be
located (``FILE:LINE:COL: ...``, or for ``susp`` a hom cell it cannot
suspend), and nothing may escape ``run_cli`` as an exception, which the
command line would print as a traceback.  What ``susp`` prints checks
again with exit 0.
"""

from __future__ import annotations

import contextlib
import io
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from omegatt.cli import run_cli

NAMES = st.sampled_from(["x", "y", "z", "f", "g", "a", "b", "t", "u", "0", "1", "2", "1.0", "2.0", "1.1.0"])
TREES = st.sampled_from(["[]", "[[]]", "[[],[]]", "[[[]]]", "[[[]],[]]"])
SMALL = st.integers(0, 3).map(str)


def _compound(inner: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    entry = st.tuples(NAMES, inner).map(lambda pe: f"{pe[0]} => {pe[1]}")
    entries = st.lists(entry, max_size=4).map(lambda es: "[" + ", ".join(es) + "]")
    return st.one_of(
        st.tuples(st.sampled_from(["id", "susp", "homfactor"]), inner).map(lambda oe: f"{oe[0]}({oe[1]})"),
        st.tuples(st.lists(SMALL, min_size=1, max_size=2), inner).map(
            lambda de: f"op{{{','.join(de[0])}}}({de[1]})"
        ),
        st.tuples(TREES, inner, inner, entries).map(lambda t: f"coh {t[0]} {{ {t[1]} -> {t[2]} }} {t[3]}"),
        st.tuples(SMALL, SMALL, SMALL, st.lists(inner, max_size=3)).map(
            lambda t: f"comp({t[0]},{t[1]},{t[2]})[{', '.join(t[3])}]"
        ),
        st.tuples(SMALL, SMALL, SMALL, entries).map(lambda t: f"comp({t[0]},{t[1]},{t[2]}){t[3]}"),
    )


CELLS = st.recursive(st.one_of(NAMES, st.sampled_from(["$1", "@1", "$2"])), _compound, max_leaves=8)
WHERE = st.lists(st.tuples(st.sampled_from(["$1", "@1", "$2"]), CELLS), max_size=2).map(
    lambda bs: f" where {{ {'; '.join(f'{n} = {e}' for n, e in bs)} }}" if bs else ""
)
GENERATOR = st.one_of(
    NAMES.map(lambda n: f"{n} : *"),
    st.tuples(NAMES, CELLS, CELLS).map(lambda t: f"{t[0]} : {t[1]} -> {t[2]}"),
)
COMPUTAD = st.lists(GENERATOR, max_size=5).map(lambda gs: "computad c { " + " ; ".join(gs) + " ; }")
LET = st.tuples(NAMES, CELLS, WHERE).map(lambda t: f"let {t[0]} = {t[1]}{t[2]}")
DOCUMENT = st.lists(st.one_of(COMPUTAD, LET), min_size=1, max_size=4).map("\n".join)
# a well-formed start, with a piece cut out and stray text put in
STRAY = st.sampled_from(["", "(", ")", "[", "]", "{", "=>", ",", "->", "coh", "$", "é"])
DAMAGED = st.tuples(DOCUMENT, st.integers(0, 400), st.integers(0, 8), STRAY).map(
    lambda t: t[0][: t[1]] + t[3] + t[0][t[1] + t[2] :]
)
SLOW_OK = [HealthCheck.function_scoped_fixture, HealthCheck.too_slow]


def _run(argv: list[str], text: str) -> tuple[int, str]:
    """Exit code and stdout of one verb on the file named last in ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 1, 2), (argv, text)
    if code == 1:  # located, or a hom cell that susp has no action on
        message = re.escape(argv[-1]) + r":\d+:\d+: \S" + ("|omegatt: cannot suspend " if argv[0] == "susp" else "")
        assert re.match(message, err.getvalue()), (argv, text, err.getvalue())
    return code, out.getvalue()


@settings(max_examples=80, deadline=None, suppress_health_check=SLOW_OK)
@given(st.one_of(DOCUMENT, DAMAGED))
def test_front_end_never_crashes(tmp_path, text):
    path = tmp_path / "fuzz.ctt"
    path.write_text(text, encoding="utf-8")
    for argv in (["check", str(path)], ["op", "--dims", "1", str(path)], ["export", "--format", "json", str(path)]):
        _run(argv, text)
    code, suspended = _run(["susp", str(path)], text)
    if code == 0:
        again = tmp_path / "susp.ctt"
        again.write_text(suspended, encoding="utf-8")
        assert _run(["check", str(again)], suspended)[0] == 0, (text, suspended)
