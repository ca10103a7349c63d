"""Command line driver.

Verbs: ``check``, ``susp``, ``op``, ``desusp``, ``comp``, ``id``, ``eh``,
``hom``, ``export`` and ``laws``.  File-based verbs read surface syntax
(.ctt); transforms print the transformed document back as surface syntax.
Exit status is 0 on success, 1 when a check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys

from .computads import boundary_at, is_well_typed
from .export import document_to_dot, document_to_json, json_text
from .globular import DimSet, dimset
from .homcat import hom_factor, op_homcell
from .laws import format_reports, reports_to_json, timed_laws
from .metaops import (
    BipointedComputad,
    NotASuspension,
    desuspend_cell,
    desuspend_computad,
    op_cell,
    op_computad,
    rename_cell,
    suspend_cell,
    suspend_computad,
)
from .oplib import comp_cell, eh_computad, identity_cell
from .surface import (
    ElabCell,
    ElabDocument,
    SourceLocation,
    SurfaceError,
    cell_text,
    computad_text,
    document_text,
    load_document,
)


def _fail(message: str) -> int:
    print(f"omegatt: {message}", file=sys.stderr)
    return 1


def _load(path: str) -> ElabDocument:
    """Elaborate a UTF-8 file, after its byte-order mark if it has one; as in
    text mode, any line ending reads as a newline."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as err:  # located at the first bad byte of the text after the mark
        before = io.StringIO(err.object[: err.start].decode("utf-8"), newline=None).read()
        where = SourceLocation(before.count("\n") + 1, len(before) - before.rfind("\n"))
        raise SurfaceError(where, "not UTF-8 text") from None
    return load_document(io.StringIO(text, newline=None).read())


def _resolve(doc: ElabDocument, name: str) -> ElabCell:
    for n, elab in doc.cells:
        if n == name:
            return elab
    for block, c in doc.computads:
        if c.has_generator(name):
            return ElabCell("cell", c, c.var(name), block)
    raise KeyError(name)


def _dims(text: str) -> DimSet:
    try:
        dims = [int(part) for part in text.split(",") if part]
        return dimset(dims)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _count(low: int, high: int):
    """An argparse type: an integer from ``low`` to ``high``."""

    def count(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid count value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return count


def cmd_check(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    for name, _ in doc.computads:
        print(f"ok computad {name}")
    for name, elab in doc.cells:
        print(f"ok let {name} ({elab.term.dim}-{'hom cell' if elab.kind == 'homcell' else 'cell'})")
    return 0


class _NoHomAction(Exception):
    """A transform without an action on hom cells met one: exit 1."""


def _transform_document(
    doc: ElabDocument, verb: str, on_computad, on_cell, on_homcell=None
) -> ElabDocument:
    out = ElabDocument()
    for name, c in doc.computads:
        out.computads.append((name, on_computad(c)))
    for name, elab in doc.cells:
        if elab.kind == "homcell":
            if on_homcell is None:
                raise _NoHomAction(f"cannot {verb} {name}: it is a hom cell")
            term = on_homcell(elab.term)
        else:
            term = on_cell(elab.term)
        out.cells.append(
            (name, ElabCell(elab.kind, on_computad(elab.ambient), term, elab.over))
        )
    return out


def _print_transformed(args: argparse.Namespace, *actions) -> int:
    """Print the file's document with every computad and cell transformed."""
    doc = _load(args.file)
    try:
        out = _transform_document(doc, *actions)
    except ValueError as err:  # a suspension nested past the bound: exit 1
        return _fail(str(err))
    print(document_text(out), end="")
    return 0


def cmd_susp(args: argparse.Namespace) -> int:
    return _print_transformed(args, "suspend", lambda c: suspend_computad(c).computad, suspend_cell)


def cmd_desusp(args: argparse.Namespace) -> int:
    return _print_transformed(args, "desuspend", desuspend_computad, desuspend_cell)


def cmd_op(args: argparse.Namespace) -> int:
    return _print_transformed(
        args,
        "reverse",
        lambda c: op_computad(args.dims, c),
        lambda cell: op_cell(args.dims, cell),
        lambda h: op_homcell(args.dims, h),
    )


def cmd_comp(args: argparse.Namespace) -> int:
    print(cell_text(comp_cell(args.n, args.k, args.m)))
    return 0


def cmd_id(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    try:
        elab = _resolve(doc, args.cell)
    except KeyError:
        return _fail(f"unknown cell {args.cell!r}")
    if elab.kind != "cell":
        return _fail(f"{args.cell!r} is a hom cell")
    print(cell_text(identity_cell(elab.ambient, elab.term)))
    return 0


def cmd_eh(args: argparse.Namespace) -> int:
    pointed = eh_computad()
    if args.check is None:
        print(computad_text("eh", pointed.computad))
        return 0
    if args.file is None:
        return _fail("--check needs a file to read the candidate cell from")
    doc = _load(args.file)
    try:
        elab = _resolve(doc, args.check)
    except KeyError:
        return _fail(f"unknown cell {args.check!r}")
    cell = elab.term
    if elab.kind != "cell" or not is_well_typed(pointed.computad, cell):
        return _fail(f"{args.check!r} is not a cell over the Eckmann-Hilton computad")
    swapped = rename_cell({"a": "b", "b": "a"}, cell)
    if op_cell(dimset([1]), cell) == op_cell(dimset([2]), swapped):
        print(f"ok: op1 of {args.check}(a,b) equals op2 of {args.check}(b,a)")
        return 0
    return _fail(f"op1 of {args.check}(a,b) differs from op2 of {args.check}(b,a)")


def cmd_hom(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    try:
        elab = _resolve(doc, args.cell)
        src = _resolve(doc, args.src)
        tgt = _resolve(doc, args.tgt)
    except KeyError as err:
        return _fail(f"unknown cell {err.args[0]!r}")
    if elab.kind != "cell":
        return _fail(f"{args.cell!r} is already a hom cell")
    if src.term.dim != 0 or tgt.term.dim != 0:
        return _fail("--src and --tgt must name 0-cells")
    if elab.term.dim < 1:
        return _fail(f"{args.cell!r} has dimension 0, nothing to factor")
    ends = boundary_at(elab.ambient, elab.term, 0)
    if (ends.src, ends.tgt) != (src.term, tgt.term):
        return _fail(
            f"{args.cell!r} runs {cell_text(ends.src)} -> {cell_text(ends.tgt)}, "
            f"not {args.src} -> {args.tgt}"
        )
    pointed = BipointedComputad(elab.ambient, (src.term, tgt.term))
    print(cell_text(hom_factor(pointed, elab.term)))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    if args.format == "json":
        print(json_text(document_to_json(doc)))
    else:
        print(document_to_dot(doc), end="")
    return 0


# The bounds of a law sweep: each argument's, for what the count misses (13 nodes
# pass it at --dims-upto 0 and take 30 s and 253 MB), and the tree-action instances,
# trees times dimension-set pairs.
MAX_NODES, MAX_DIMS, MAX_SWEEP = 12, 7, 330_000


def cmd_laws(args: argparse.Namespace) -> int:
    trees, pairs = sum(math.comb(2 * n - 2, n - 1) // n for n in range(1, args.max_nodes + 1)), 4**args.dims_upto
    if trees * pairs > MAX_SWEEP:  # the trees of up to max_nodes nodes (Catalan numbers) times (w, v) pairs
        raise ValueError(f"laws: {trees:,} trees times {pairs:,} dimension-set pairs is over {MAX_SWEEP:,}")
    timed = timed_laws(max_nodes=args.max_nodes, dims_upto=args.dims_upto)
    reports = [report for report, _ in timed]
    print(json_text(reports_to_json(timed)) if args.json else format_reports(reports))
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegatt",
        description="finite computads for weak omega-categories: check, transform, export",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="parse, elaborate and typecheck a file")
    p.add_argument("file")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("susp", help="suspend every computad and cell in a file")
    p.add_argument("file")
    p.set_defaults(run=cmd_susp)

    p = sub.add_parser("desusp", help="undo a suspension, reporting the first obstruction")
    p.add_argument("file")
    p.set_defaults(run=cmd_desusp)

    p = sub.add_parser("op", help="form the opposite at the given dimensions")
    p.add_argument("--dims", type=_dims, required=True, help="comma-separated, e.g. 1,3")
    p.add_argument("file")
    p.set_defaults(run=cmd_op)

    p = sub.add_parser("comp", help="print the (n,k,m) composition template")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(run=cmd_comp)

    p = sub.add_parser("id", help="print the identity on a named cell")
    p.add_argument("cell")
    p.add_argument("file")
    p.set_defaults(run=cmd_id)

    p = sub.add_parser("eh", help="print the Eckmann-Hilton computad, or check a candidate cell")
    p.add_argument("--check", metavar="CELL", help="cell name whose op1/op2 swap identity to verify")
    p.add_argument("file", nargs="?")
    p.set_defaults(run=cmd_eh)

    p = sub.add_parser("hom", help="factor a loop cell through the hom computad")
    p.add_argument("--src", required=True, help="0-cell the loop starts at")
    p.add_argument("--tgt", required=True, help="0-cell the loop ends at")
    p.add_argument("action", choices=["factor"])
    p.add_argument("cell")
    p.add_argument("file")
    p.set_defaults(run=cmd_hom)

    p = sub.add_parser("export", help="export a file as JSON or DOT")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("file")
    p.set_defaults(run=cmd_export)

    p = sub.add_parser(
        "laws",
        help="run the law harness on enumerated instances",
        description=f"Run the law harness: at most {MAX_SWEEP:,} trees times pairs of dimension sets.",
    )
    p.add_argument("--max-nodes", type=_count(1, MAX_NODES), default=5, help="at most 12: 14 s, 91 MB at dims 1")
    p.add_argument("--dims-upto", type=_count(0, MAX_DIMS), default=3, help="at most 7: 3 s, 30 MB at 1 node")
    p.add_argument(
        "--json", action="store_true", help="print each family's checks, failures and seconds as JSON"
    )
    p.set_defaults(run=cmd_laws)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, and
    its ``prog`` and ``run`` defaults are fixed, so reuse changes no output."""
    return build_parser()


def run_cli(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except OSError as err:
        print(f"omegatt: {err}", file=sys.stderr)
        return 2
    except SurfaceError as err:
        file = getattr(args, "file", None)
        where = f"{file}:{err.location}" if file else str(err.location)
        print(f"{where}: {err.message}", file=sys.stderr)
        return 1
    except NotASuspension as err:
        at = "/".join(err.path)
        print(f"omegatt: not a suspension at {at or 'top level'}: {err.message}", file=sys.stderr)
        return 1
    except _NoHomAction as err:
        return _fail(str(err))
    except ValueError as err:
        print(f"omegatt: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
