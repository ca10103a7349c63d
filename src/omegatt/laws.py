"""Exhaustive checks of the algebraic laws on enumerated small instances.

Each law family sweeps a finite corpus (trees up to a node bound, dimension
sets up to a bound, a cell corpus over the Eckmann-Hilton computad) and
records every violated instance.  ``run_laws`` runs all families
(``timed_laws`` also times each); the ``laws`` CLI verb prints one line per
family (:func:`format_reports`), or under ``--json`` one object with each
family's checks, failures and seconds (:func:`reports_to_json`).  The corpus
builders are also used directly by the test suite.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

from .computads import (
    CellTerm,
    Coh,
    Computad,
    Sphere,
    TypecheckError,
    Var,
    cell_key,
    counit_eval,
    double_computad,
    is_well_typed,
    pasting_computad,
    support,
    template_sub,
    typecheck_cell,
)
from .globular import DimSet, dimset
from .homcat import diff_text, hom_factor, hom_realize, is_indecomposable, op_hom_transport
from .metaops import (
    BASE_MINUS,
    BASE_PLUS,
    desuspend_cell,
    desuspend_computad,
    op_cell,
    op_computad,
    suspend_cell,
    suspend_computad,
)
from .oplib import BoundaryMismatch, comp_cell, compose, eh_computad, identity_cell
from .trees import (
    POSITIONS,
    all_trees,
    boundary_tree,
    comp_tree,
    op_positions_iso,
    op_tree,
    positions,
    src_inclusion,
    suspend_tree,
    tgt_inclusion,
)


@dataclass
class LawReport:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, passed: bool, describe: str | Callable[[], str]) -> None:
        """Count one check.  ``describe`` is the failure message, or a
        zero-argument callable that builds it, called only on failure."""
        self.checks += 1
        if not passed:
            self.failures.append(describe() if callable(describe) else describe)


def all_dimsets(dims_upto: int) -> list[DimSet]:
    dims = range(1, dims_upto + 1)
    return [
        dimset(sub)
        for r in range(dims_upto + 1)
        for sub in itertools.combinations(dims, r)
    ]


def action_triples(dims_upto: int) -> list[tuple[DimSet, DimSet, DimSet]]:
    """Each pair ``(w, v)`` of dimension sets with ``w ^ v``, made once per sweep."""
    subsets = all_dimsets(dims_upto)
    return [(w, v, dimset(w ^ v)) for w, v in itertools.product(subsets, subsets)]


def comp_triples(nm_max: int) -> list[tuple[int, int, int]]:
    return [
        (n, k, m)
        for n in range(1, nm_max + 1)
        for m in range(1, nm_max + 1)
        for k in range(min(n, m))
    ]


# ---------------------------------------------------------------------------
# corpora


def eh_closure(rounds: int) -> list[CellTerm]:
    """Loop cells over the Eckmann-Hilton computad: the two scalar 2-cells
    and the identity on the point, closed under identities and binary
    composition for the given number of rounds (so terms of operation depth
    ``rounds + 1`` over the seeds)."""
    c = eh_computad().computad
    seeds = [c.var("a"), c.var("b"), identity_cell(c, c.var("x"))]
    corpus: dict[CellTerm, None] = dict.fromkeys(seeds)
    for _ in range(rounds):
        level = list(corpus)
        for u in level:
            corpus.setdefault(identity_cell(c, u), None)
        for u, v in itertools.product(level, level):
            for k in range(min(u.dim, v.dim)):
                try:
                    corpus.setdefault(compose(c, u, k, v), None)
                except BoundaryMismatch:
                    continue
    return list(corpus)


def template_corpus(nm_max: int = 3) -> list[tuple[Computad, CellTerm]]:
    out = []
    for n, k, m in comp_triples(nm_max):
        cell = comp_cell(n, k, m)
        out.append((pasting_computad(cell.tree), cell))
    return out


def cell_corpus() -> list[tuple[Computad, CellTerm]]:
    """At least fifty cells with their ambient computads: all composition
    templates with n,m <= 3, their suspensions, their identity cells, and
    one round of the Eckmann-Hilton closure."""
    out = list(template_corpus())
    for ambient, cell in template_corpus():
        pointed = suspend_computad(ambient)
        out.append((pointed.computad, suspend_cell(cell)))
    for ambient, cell in template_corpus():
        out.append((ambient, identity_cell(ambient, cell)))
    c = eh_computad().computad
    out += [(c, cell) for cell in eh_closure(1)]
    return out


def loop_corpus() -> list[CellTerm]:
    """All loop cells over the Eckmann-Hilton computad up to operation
    depth three (two closure rounds over the seeds)."""
    return eh_closure(2)


# ---------------------------------------------------------------------------
# law families


def law_tree_boundary(max_nodes: int, dims_upto: int) -> LawReport:
    """op commutes with tree boundaries, and the boundary inclusions are
    exchanged (swapped when the boundary dimension is reversed) through the
    canonical position isomorphisms."""
    report = LawReport("tree-boundary")
    for t in all_trees(max_nodes):
        for w in all_dimsets(dims_upto):
            opt = op_tree(w, t)
            iso_t = op_positions_iso(w, t)
            for k in range(t.dim):
                bt = boundary_tree(k, t)
                report.check(
                    op_tree(w, bt) == boundary_tree(k, opt),
                    lambda: f"{t} w={sorted(w)} k={k}: boundary of opposite differs",
                )
                iso_b = op_positions_iso(w, bt)
                s_t, t_t = src_inclusion(k, t), tgt_inclusion(k, t)
                s_o, t_o = src_inclusion(k, opt), tgt_inclusion(k, opt)
                if k + 1 in w:
                    first = all(t_t[iso_b[q]] == iso_t[s_o[q]] for q in iso_b)
                    second = all(s_t[iso_b[q]] == iso_t[t_o[q]] for q in iso_b)
                else:
                    first = all(s_t[iso_b[q]] == iso_t[s_o[q]] for q in iso_b)
                    second = all(t_t[iso_b[q]] == iso_t[t_o[q]] for q in iso_b)
                report.check(
                    first and second,
                    lambda: f"{t} w={sorted(w)} k={k}: inclusion squares fail",
                )
    return report


def law_tree_action(max_nodes: int, dims_upto: int) -> LawReport:
    """The dimension sets act on trees and their pasting schemes: the empty
    set acts trivially and composition is symmetric difference, on trees
    and on positions (``iso_v ∘ iso_w`` is ``iso_{w⊕v}``, and a map onto
    the ``w⊕v``-opposite of the positions of ``t``)."""
    report = LawReport("tree-action")
    triples = action_triples(dims_upto)
    for t in all_trees(max_nodes):
        report.check(op_tree(dimset([]), t) == t, lambda: f"{t}: empty opposite moved the tree")
        report.check(
            all(p == q for p, q in op_positions_iso(dimset([]), t).items()),
            lambda: f"{t}: empty opposite moved positions",
        )
        for w, v, wv in triples:
            report.check(
                op_tree(w, op_tree(v, t)) == op_tree(wv, t),
                lambda: f"{t} w={sorted(w)} v={sorted(v)}: tree action is not symmetric difference",
            )
        for w, v, wv in triples:
            iso_v = op_positions_iso(v, t)
            iso_w = op_positions_iso(w, op_tree(v, t))
            composite = {q: iso_v[iso_w[q]] for q in iso_w}
            report.check(
                composite == dict(op_positions_iso(wv, t)),
                lambda: f"{t} w={sorted(w)} v={sorted(v)}: position isomorphisms do not compose",
            )
            report.check(
                _onto_opposite(composite, wv, str(len(t.children))),
                lambda: f"{t} w={sorted(w)} v={sorted(v)}: scheme action is not symmetric difference",
            )
    return report


def _onto_opposite(f: dict[str, str], w: DimSet, last: str) -> bool:
    """Whether the position rename ``f`` is a map of bipointed globular sets
    onto the ``w``-opposite of its target's positions: it sends the outer
    root sectors "0" and ``last``, and the ``lo`` and ``hi`` of each
    d-position, to those of their images, swapped when 1, or d, is in ``w``."""
    if (f["0"], f[last]) != ((last, "0") if 1 in w else ("0", last)):
        return False
    for p, q in f.items():
        pos, image = POSITIONS[p], POSITIONS[q]
        if pos.dim and (f[pos.lo], f[pos.hi]) != ((image.hi, image.lo) if pos.dim in w else (image.lo, image.hi)):
            return False
    return True


def law_suspension(nm_max: int = 3) -> LawReport:
    """Suspension sends the (n,k,m) composition data to (n+1,k+1,m+1), is
    inverted by hom factoring, and adds exactly the two basepoints to
    supports."""
    report = LawReport("suspension")
    for n, k, m in comp_triples(nm_max):
        report.check(
            suspend_tree(comp_tree(n, k, m)) == comp_tree(n + 1, k + 1, m + 1),
            lambda: f"comp_tree({n},{k},{m}): suspension is not the shifted tree",
        )
        report.check(
            suspend_cell(comp_cell(n, k, m)) == comp_cell(n + 1, k + 1, m + 1),
            lambda: f"comp_cell({n},{k},{m}): suspension is not the shifted template",
        )
    for ambient, cell in cell_corpus():
        pointed = suspend_computad(ambient)
        up = suspend_cell(cell)
        down = desuspend_cell(up)
        report.check(
            down == cell,
            lambda: f"{cell_key(cell)}: desuspension does not invert suspension {diff_text(down, cell)}",
        )
        report.check(
            desuspend_computad(pointed.computad) == ambient,
            "desuspension does not invert suspension on the ambient computad",
        )
        lifted = {f"1.{g}" for g in support(ambient, cell)}
        report.check(
            support(pointed.computad, up) == lifted | {BASE_MINUS, BASE_PLUS},
            lambda: f"{cell_key(cell)}: suspended support is not the lifted support plus basepoints",
        )
    return report


def law_pushout_counts(nm_max: int = 4) -> LawReport:
    """Position counts of composition trees match gluing two disks along a
    shared k-disk: count the cells of both disks and remove the shared ones."""
    report = LawReport("pushout-counts")
    for n, k, m in comp_triples(nm_max):
        levels = positions(comp_tree(n, k, m))
        for d in range(max(n, m) + 1):
            want = (
                (d <= n) + (d <= m) + (d < n) + (d < m) - 2 * (d < k) - (d == k)
            )
            got = len(levels[d])
            report.check(
                got == want,
                lambda: f"comp({n},{k},{m}) dim {d}: {got} positions, want {want}",
            )
    return report


def law_typecheck(dims_upto: int = 3) -> LawReport:
    """Everything the kernel builds typechecks, including all opposites of
    the corpus, and the two seeded ill-formed coherences are rejected with
    the right error codes."""
    report = LawReport("typecheck")
    corpus = cell_corpus()
    for ambient, cell in corpus:
        report.check(
            is_well_typed(ambient, cell),
            lambda: f"{cell_key(cell)}: corpus cell does not typecheck",
        )
        for w in all_dimsets(dims_upto):
            report.check(
                is_well_typed(op_computad(w, ambient), op_cell(w, cell)),
                lambda: f"{cell_key(cell)} w={sorted(w)}: opposite does not typecheck",
            )
    eh = eh_computad().computad
    for g in ("a", "b"):
        sphere = eh.sphere_of(g)
        report.check(
            is_well_typed(eh.truncate(1), sphere.src)
            and is_well_typed(eh.truncate(1), sphere.tgt),
            lambda: f"{g}: attaching sphere does not typecheck",
        )
    two = comp_tree(1, 0, 1)
    not_full = Coh(two, Sphere(Var("0", 0), Var("0", 0)), template_sub(two))
    report.check(
        _error_code(eh, not_full) == "NotFull",
        "seeded non-full coherence was not rejected with NotFull",
    )
    not_parallel = Coh(two, Sphere(Var("1.0", 1), Var("2.0", 1)), template_sub(two))
    report.check(
        _error_code(eh, not_parallel) == "NotParallel",
        "seeded non-parallel coherence was not rejected with NotParallel",
    )
    return report


def _error_code(c: Computad, cell: CellTerm) -> str | None:
    try:
        typecheck_cell(c, cell)
    except TypecheckError as err:
        return err.code
    return None


def law_cell_action(dims_upto: int = 3) -> LawReport:
    """The dimension sets act on cells and computads: empty set trivially,
    composition by symmetric difference."""
    report = LawReport("cell-action")
    triples = action_triples(dims_upto)
    corpus = cell_corpus()
    computads = [eh_computad().computad] + [a for a, _ in template_corpus()]
    for c in computads:
        report.check(op_computad(dimset([]), c) == c, "empty opposite moved a computad")
        for w, v, wv in triples:
            report.check(
                op_computad(w, op_computad(v, c)) == op_computad(wv, c),
                lambda: f"w={sorted(w)} v={sorted(v)}: computad action is not symmetric difference",
            )
    for _, cell in corpus:
        moved = op_cell(dimset([]), cell)
        report.check(
            moved == cell,
            lambda: f"{cell_key(cell)}: empty opposite moved the cell {diff_text(moved, cell)}",
        )
        for w, v, wv in triples:
            lhs, rhs = op_cell(w, op_cell(v, cell)), op_cell(wv, cell)
            report.check(
                lhs == rhs,
                lambda: (
                    f"{cell_key(cell)} w={sorted(w)} v={sorted(v)}: "
                    f"cell action is not symmetric difference {diff_text(lhs, rhs)}"
                ),
            )
    return report


def law_hom_roundtrip() -> LawReport:
    """Factoring a loop cell through the hom computad and playing it back is
    the identity, and indecomposability picks out exactly the non-suspension
    shapes."""
    report = LawReport("hom-roundtrip")
    pointed = eh_computad()
    for cell in loop_corpus():
        h = hom_factor(pointed, cell)
        back = hom_realize(pointed, h)
        report.check(
            back == cell,
            lambda: f"{cell_key(cell)}: realize after factor is not the identity {diff_text(back, cell)}",
        )
        again = hom_factor(pointed, back)
        report.check(
            again == h,
            lambda: f"{cell_key(cell)}: factor after realize is not the identity {diff_text(again, h)}",
        )
    c = pointed.computad
    id_x = identity_cell(c, c.var("x"))
    report.check(
        is_indecomposable(pointed, id_x),
        "the identity on the basepoint should be indecomposable",
    )
    for ambient, cell in template_corpus():
        up = suspend_cell(cell)
        report.check(
            not is_indecomposable(suspend_computad(ambient), up),
            lambda: f"{cell_key(cell)}: suspension image should be decomposable",
        )
    return report


def law_hom_transport(dims_upto: int = 3) -> LawReport:
    """Forming opposites commutes with factoring through the hom computad."""
    report = LawReport("hom-transport")
    pointed = eh_computad()
    corpus = loop_corpus()
    for w in all_dimsets(dims_upto):
        for cell in corpus:
            passed, diff = op_hom_transport(w, pointed, cell)
            report.check(
                passed,
                lambda: f"{cell_key(cell)} w={sorted(w)}: {diff}",
            )
    return report


def law_eh_identities(dims_upto: int = 3) -> LawReport:
    """The scalar composites over the Eckmann-Hilton computad: reversing an
    odd dimension at or below the composition swaps the factors, otherwise
    the composite is fixed; the computad itself is self-dual."""
    report = LawReport("eh-identities")
    pointed = eh_computad()
    c = pointed.computad
    a, b = c.var("a"), c.var("b")
    w1, w2 = dimset([1]), dimset([2])
    horizontal = {(u, v): compose(c, u, 0, v) for u, v in ((a, b), (b, a))}
    vertical = {(u, v): compose(c, u, 1, v) for u, v in ((a, b), (b, a))}
    for w, composites, want, message in (
        (w1, horizontal, (b, a), "reversing dimension 1 should swap a horizontal composite"),
        (w2, horizontal, (a, b), "reversing dimension 2 should fix a horizontal composite"),
        (w1, vertical, (a, b), "reversing dimension 1 should fix a vertical composite"),
        (w2, vertical, (b, a), "reversing dimension 2 should swap a vertical composite"),
    ):
        lhs, rhs = op_cell(w, composites[a, b]), composites[want]
        report.check(lhs == rhs, lambda: f"{message} {diff_text(lhs, rhs)}")
    for w in all_dimsets(dims_upto):
        report.check(
            op_computad(w, c) == c,
            lambda: f"w={sorted(w)}: the Eckmann-Hilton computad should be self-dual",
        )
    return report


def law_counit_squares(min_cells: int = 20) -> LawReport:
    """Evaluation of double cells commutes with suspension and with
    opposites (the two monad-component squares), on a generated family of
    double cells over the Eckmann-Hilton closure."""
    report = LawReport("counit-squares")
    c = eh_computad().computad
    dbl, denote = double_computad(c, eh_closure(1))
    double_cells: list[CellTerm] = [dbl.var(g) for d in range(dbl.bound + 1) for g in dbl.generators_at(d)]
    for g in list(double_cells):
        double_cells.append(identity_cell(dbl, g))
    for u, v in itertools.combinations([g for g in double_cells if g.dim == 2], 2):
        try:
            double_cells.append(compose(dbl, u, 1, v))
        except BoundaryMismatch:
            continue
    report.check(
        len(double_cells) >= min_cells,
        lambda: f"only {len(double_cells)} double cells were generated",
    )

    up = suspend_computad(c).computad
    up_dbl = suspend_computad(dbl).computad
    up_denote = {f"1.{g}": suspend_cell(cell) for g, cell in denote.items()}
    up_denote[BASE_MINUS] = Var(BASE_MINUS, 0)
    up_denote[BASE_PLUS] = Var(BASE_PLUS, 0)
    for u in double_cells:
        lhs = counit_eval(up, suspend_cell(u), up_denote)
        rhs = suspend_cell(counit_eval(c, u, denote))
        report.check(
            lhs == rhs,
            lambda: f"{cell_key(u)}: evaluation does not commute with suspension {diff_text(lhs, rhs)}",
        )
        report.check(
            is_well_typed(up_dbl, suspend_cell(u)) and is_well_typed(up, lhs),
            lambda: f"{cell_key(u)}: suspended double cell does not typecheck",
        )
    for w in all_dimsets(3):
        op_c = op_computad(w, c)
        op_denote = {g: op_cell(w, cell) for g, cell in denote.items()}
        for u in double_cells:
            lhs = counit_eval(op_c, op_cell(w, u), op_denote)
            rhs = op_cell(w, counit_eval(c, u, denote))
            report.check(
                lhs == rhs,
                lambda: (
                    f"{cell_key(u)} w={sorted(w)}: "
                    f"evaluation does not commute with opposites {diff_text(lhs, rhs)}"
                ),
            )
    return report


# The law families in sweep order, by report name.  Each entry takes the
# sweep's bounds (max_nodes, dims_upto) and passes on the ones its family
# uses.  The entries call the families through their module-level names,
# so rebinding a ``law_*`` name (as the benchmark's tracer does) reaches
# the sweep.
FAMILIES: dict[str, Callable[[int, int], LawReport]] = {
    "tree-boundary": lambda max_nodes, dims_upto: law_tree_boundary(max_nodes, dims_upto),
    "tree-action": lambda max_nodes, dims_upto: law_tree_action(max_nodes, dims_upto),
    "suspension": lambda max_nodes, dims_upto: law_suspension(),
    "pushout-counts": lambda max_nodes, dims_upto: law_pushout_counts(),
    "typecheck": lambda max_nodes, dims_upto: law_typecheck(dims_upto),
    "cell-action": lambda max_nodes, dims_upto: law_cell_action(dims_upto),
    "hom-roundtrip": lambda max_nodes, dims_upto: law_hom_roundtrip(),
    "hom-transport": lambda max_nodes, dims_upto: law_hom_transport(dims_upto),
    "eh-identities": lambda max_nodes, dims_upto: law_eh_identities(dims_upto),
    "counit-squares": lambda max_nodes, dims_upto: law_counit_squares(),
}


def timed_laws(max_nodes: int = 5, dims_upto: int = 3) -> list[tuple[LawReport, float]]:
    """Each family's report, in sweep order, with its wall time in seconds;
    a family that raises fails one check, which names the exception."""
    out = []
    for name, family in FAMILIES.items():
        start = time.perf_counter()
        try:
            report = family(max_nodes, dims_upto)
        except Exception as err:
            report = LawReport(name)
            report.check(False, f"raised {type(err).__name__}: {err}")
        out.append((report, time.perf_counter() - start))
    return out


def run_laws(max_nodes: int = 5, dims_upto: int = 3) -> list[LawReport]:
    return [report for report, _ in timed_laws(max_nodes, dims_upto)]


def format_reports(reports: list[LawReport]) -> str:
    lines = []
    for report in reports:
        if report.ok:
            lines.append(f"{report.name}: {report.checks} checks ok")
        else:
            lines.append(
                f"{report.name}: {len(report.failures)} of {report.checks} checks FAILED"
            )
            lines += [f"  {message}" for message in report.failures[:5]]
            if len(report.failures) > 5:
                lines.append(f"  ... {len(report.failures) - 5} more")
    total = sum(r.checks for r in reports)
    bad = sum(len(r.failures) for r in reports)
    if bad:
        lines.append(f"{bad} of {total} checks failed")
    else:
        lines.append(f"all {total} checks passed")
    return "\n".join(lines)


def reports_to_json(timed: list[tuple[LawReport, float]]) -> dict:
    """A timed sweep (:func:`timed_laws`) as one JSON object: per family its
    checks, the messages of its failures and its seconds, then the totals."""
    return {
        "families": [
            {"name": r.name, "checks": r.checks, "failures": r.failures, "seconds": seconds}
            for r, seconds in timed
        ],
        "checks": sum(r.checks for r, _ in timed),
        "failed": sum(len(r.failures) for r, _ in timed),
        "seconds": sum(seconds for _, seconds in timed),
    }
