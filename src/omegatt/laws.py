"""Exhaustive checks of the algebraic laws on enumerated small instances.

Each law family is a table of ``(corpus, check)`` parts run by
:func:`sweep`: a corpus of instance tuples (trees up to a node bound,
dimension sets up to a bound, cells with their computads) and a generator
check that yields a verdict per law on one instance.  ``run_laws`` runs all
families (``timed_laws`` also times each); the ``laws`` CLI verb prints one
line per family (:func:`format_reports`), or under ``--json`` one object
with each family's checks, failures and seconds (:func:`reports_to_json`).
The corpus builders are also used directly by the test suite.

A corpus that several families read is built once for them: the tree
families share the tuple of :func:`tree_corpus`, the suspension, typecheck
and cell-action families that of :func:`shared_cells`, and the hom families
that of :func:`pointed_loops`.  Each is a one-entry cache filled on first
use.  The trees stay until a sweep asks for another bound (the tree tables
hold them anyway).  The cells are dropped when cell-action ends, and the
loops, with the Eckmann-Hilton computad that keeps the hom memos of
hom-roundtrip alive for hom-transport, when hom-transport ends, so the
families after each reuse their memory.  Within
counit-squares, each double cell is evaluated once for its two squares.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator

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
    subterm,
    support,
    template_sub,
    term_diff,
    typecheck_cell,
)
from .globular import DimSet, dimset
from .homcat import HomGenerator, hom_factor, hom_realize, is_indecomposable, op_homcell
from .metaops import (
    BASE_MINUS,
    BASE_PLUS,
    BipointedComputad,
    desuspend_cell,
    desuspend_computad,
    op_bipointed,
    op_cell,
    op_computad,
    suspend_cell,
    suspend_computad,
)
from .oplib import BoundaryMismatch, comp_cell, compose, eh_computad, identity_cell
from .trees import (
    BataninTree,
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
    tree_to_list,
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
        zero-argument callable that builds it, called only on failure (a
        check whose message raises is not counted)."""
        if not passed:
            self.failures.append(describe() if callable(describe) else describe)
        self.checks += 1


def sweep(name: str, *parts: tuple[Iterable[tuple], Callable[..., Iterator]]) -> LawReport:
    """The report of the family ``name``: for each part ``(corpus, check)``
    and each instance of its corpus, in order, ``check(*instance)`` yields
    ``(passed, describe)`` per law, as :meth:`LawReport.check` takes them.
    A check that raises fails its instance once, with a message naming the
    instance and the exception, and the sweep goes on."""
    report = LawReport(name)
    for corpus, check in parts:
        for instance in corpus:
            try:
                for passed, describe in check(*instance):
                    report.check(passed, describe)
            except Exception as err:
                report.check(False, _raised(err, instance))
    return report


def _raised(err: Exception, instance: tuple = ()) -> str:
    """The message of a raise, after the instance named as the families name
    theirs: cells by key, trees, numbers and strings as printed, then ``w=[…]``."""
    names = [cell_key(x) if isinstance(x, (Var, Coh)) else str(x)
             for x in instance if isinstance(x, (Var, Coh, BataninTree, int, str))]
    names += [f"w={sorted(x)}" for x in instance if isinstance(x, frozenset)]
    raised = f"raised {type(err).__name__}: {err}"
    return f"{' '.join(names)}: {raised}" if names else raised


def diff_text(lhs, rhs) -> str:
    """``at PATH: X against Y`` for two different cells or hom cells: the
    path to the first subterm where they differ (:func:`term_diff`) and the
    two subterms there, for the message of a failed law."""
    path = term_diff(lhs, rhs)
    where = "/".join(path) or "<root>"
    return f"at {where}: {_text(subterm(lhs, path))} against {_text(subterm(rhs, path))}"


def _text(h) -> str:
    """Short text for one side of a diff: :func:`cell_key` for a cell, the
    wrapped cell's key for a generator, and the scheme alone for a
    coherence of hom level, where a diff stops only on its scheme."""
    if isinstance(h, HomGenerator):
        return f"HomGenerator({cell_key(h.underlying)})"
    leaf = h
    while isinstance(leaf, Coh):
        leaf = leaf.sub[0][1]
    if isinstance(leaf, HomGenerator):
        return f"coh{tree_to_list(h.tree)}(...)"
    return cell_key(h)


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


# The largest n and m of the composites (n, k, m) of the templates (and the suspension law) and of the
# pushout counts, and the fewest double cells that counit-squares accepts.
TEMPLATE_NM, PUSHOUT_NM, MIN_DOUBLE_CELLS = 3, 4, 20


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


def template_corpus() -> list[tuple[Computad, CellTerm]]:
    out = []
    for n, k, m in comp_triples(TEMPLATE_NM):
        cell = comp_cell(n, k, m)
        out.append((pasting_computad(cell.tree), cell))
    return out


def cell_corpus() -> list[tuple[Computad, CellTerm]]:
    """At least fifty cells with their ambient computads: all composition
    templates with n,m <= 3, their suspensions, their identity cells, and
    one round of the Eckmann-Hilton closure."""
    templates = template_corpus()
    out = templates + [(suspend_computad(ambient).computad, suspend_cell(cell)) for ambient, cell in templates]
    out += [(ambient, identity_cell(ambient, cell)) for ambient, cell in templates]
    c = eh_computad().computad
    return out + [(c, cell) for cell in eh_closure(1)]


def loop_corpus() -> list[CellTerm]:
    """All loop cells over the Eckmann-Hilton computad up to operation
    depth three (two closure rounds over the seeds)."""
    return eh_closure(2)


@lru_cache(maxsize=1)
def tree_corpus(max_nodes: int) -> tuple[BataninTree, ...]:
    """The trees of :func:`all_trees`, enumerated once for the two tree
    families of a sweep."""
    return tuple(all_trees(max_nodes))


@lru_cache(maxsize=1)
def shared_cells() -> tuple[tuple[Computad, CellTerm], ...]:
    """The cells of :func:`cell_corpus`, built once for the three families
    of a sweep that read them; the third empties the cache."""
    return tuple(cell_corpus())


@lru_cache(maxsize=1)
def pointed_loops() -> tuple[tuple[BipointedComputad, CellTerm], ...]:
    """Each loop cell of :func:`loop_corpus` with its bipointed computad,
    built once for the two hom families of a sweep; the second empties the
    cache."""
    pointed = eh_computad()
    return tuple((pointed, cell) for cell in loop_corpus())


# ---------------------------------------------------------------------------
# law families


def law_tree_boundary(max_nodes: int, dims_upto: int) -> LawReport:
    """op commutes with tree boundaries, and the boundary inclusions are
    exchanged (swapped when the boundary dimension is reversed) through the
    canonical position isomorphisms."""

    def check(t, w):
        opt = op_tree(w, t)
        iso_t = op_positions_iso(w, t)
        for k in range(t.dim):
            bt = boundary_tree(k, t)
            yield (
                op_tree(w, bt) == boundary_tree(k, opt),
                lambda: f"{t} w={sorted(w)} k={k}: boundary of opposite differs",
            )
            iso_b = op_positions_iso(w, bt)
            s_t, t_t = src_inclusion(k, t), tgt_inclusion(k, t)
            s_o, t_o = src_inclusion(k, opt), tgt_inclusion(k, opt)
            if k + 1 in w:
                s_t, t_t = t_t, s_t
            yield (
                all(s_t[iso_b[q]] == iso_t[s_o[q]] and t_t[iso_b[q]] == iso_t[t_o[q]] for q in iso_b),
                lambda: f"{t} w={sorted(w)} k={k}: inclusion squares fail",
            )

    return sweep("tree-boundary", (itertools.product(tree_corpus(max_nodes), all_dimsets(dims_upto)), check))


def law_tree_action(max_nodes: int, dims_upto: int) -> LawReport:
    """The dimension sets act on trees and their pasting schemes: the empty
    set acts trivially and composition is symmetric difference, on trees
    and on positions (``iso_v ∘ iso_w`` is ``iso_{w⊕v}``, and a map onto
    the ``w⊕v``-opposite of the positions of ``t``)."""
    triples = action_triples(dims_upto)

    def check(t):
        yield op_tree(dimset([]), t) == t, lambda: f"{t}: empty opposite moved the tree"
        yield (
            all(p == q for p, q in op_positions_iso(dimset([]), t).items()),
            lambda: f"{t}: empty opposite moved positions",
        )
        for w, v, wv in triples:
            yield (
                op_tree(w, op_tree(v, t)) == op_tree(wv, t),
                lambda: f"{t} w={sorted(w)} v={sorted(v)}: tree action is not symmetric difference",
            )
        for w, v, wv in triples:
            iso_v = op_positions_iso(v, t)
            iso_w = op_positions_iso(w, op_tree(v, t))
            composite = {q: iso_v[iso_w[q]] for q in iso_w}
            yield (
                composite == op_positions_iso(wv, t),
                lambda: f"{t} w={sorted(w)} v={sorted(v)}: position isomorphisms do not compose",
            )
            yield (
                _onto_opposite(composite, wv, str(len(t.children))),
                lambda: f"{t} w={sorted(w)} v={sorted(v)}: scheme action is not symmetric difference",
            )

    return sweep("tree-action", (((t,) for t in tree_corpus(max_nodes)), check))


def _onto_opposite(f: dict[str, str], w: DimSet, last: str) -> bool:
    """Whether the position rename ``f`` is a map of bipointed globular sets
    onto the ``w``-opposite of its target's positions: it sends the outer
    root sectors "0" and ``last``, and the ``lo`` and ``hi`` of each
    d-position, to those of their images, swapped when 1, or d, is in ``w``."""
    if (f["0"], f[last]) != ((last, "0") if 1 in w else ("0", last)):
        return False
    for p, q in f.items():
        _, d, lo, hi, _ = POSITIONS[p]
        if d:
            _, _, image_lo, image_hi, _ = POSITIONS[q]
            if (f[lo], f[hi]) != ((image_hi, image_lo) if d in w else (image_lo, image_hi)):
                return False
    return True


def law_suspension() -> LawReport:
    """Suspension sends the (n,k,m) composition data to (n+1,k+1,m+1), is
    inverted by desuspension, and adds exactly the two basepoints to
    supports."""

    def shifted(n, k, m):
        yield (
            suspend_tree(comp_tree(n, k, m)) == comp_tree(n + 1, k + 1, m + 1),
            lambda: f"comp_tree({n},{k},{m}): suspension is not the shifted tree",
        )
        yield (
            suspend_cell(comp_cell(n, k, m)) == comp_cell(n + 1, k + 1, m + 1),
            lambda: f"comp_cell({n},{k},{m}): suspension is not the shifted template",
        )

    def inverted(ambient, cell):
        pointed = suspend_computad(ambient)
        up = suspend_cell(cell)
        down = desuspend_cell(up)
        yield (
            down == cell,
            lambda: f"{cell_key(cell)}: desuspension does not invert suspension {diff_text(down, cell)}",
        )
        yield (
            desuspend_computad(pointed.computad) == ambient,
            "desuspension does not invert suspension on the ambient computad",
        )
        lifted = {f"1.{g}" for g in support(ambient, cell)}
        yield (
            support(pointed.computad, up) == lifted | {BASE_MINUS, BASE_PLUS},
            lambda: f"{cell_key(cell)}: suspended support is not the lifted support plus basepoints",
        )

    return sweep("suspension", (comp_triples(TEMPLATE_NM), shifted), (shared_cells(), inverted))


def law_pushout_counts() -> LawReport:
    """Position counts of composition trees match gluing two disks along a
    shared k-disk: count the cells of both disks and remove the shared ones."""

    def check(n, k, m):
        levels = positions(comp_tree(n, k, m))
        for d in range(max(n, m) + 1):
            want = (d <= n) + (d <= m) + (d < n) + (d < m) - 2 * (d < k) - (d == k)
            got = len(levels[d])
            yield got == want, lambda: f"comp({n},{k},{m}) dim {d}: {got} positions, want {want}"

    return sweep("pushout-counts", (comp_triples(PUSHOUT_NM), check))


def law_typecheck(dims_upto: int = 3) -> LawReport:
    """Everything the kernel builds typechecks, including all opposites of
    the corpus, and the two seeded ill-formed coherences are rejected with
    the right error codes."""
    dimsets = all_dimsets(dims_upto)
    eh = eh_computad().computad
    two = comp_tree(1, 0, 1)
    seeded = [
        ("non-full", Coh(two, Sphere(Var("0", 0), Var("0", 0)), template_sub(two)), "NotFull"),
        ("non-parallel", Coh(two, Sphere(Var("1.0", 1), Var("2.0", 1)), template_sub(two)), "NotParallel"),
    ]

    def built(ambient, cell):
        yield is_well_typed(ambient, cell), lambda: f"{cell_key(cell)}: corpus cell does not typecheck"
        for w in dimsets:
            yield (
                is_well_typed(op_computad(w, ambient), op_cell(w, cell)),
                lambda: f"{cell_key(cell)} w={sorted(w)}: opposite does not typecheck",
            )

    def attached(g):
        sphere = eh.sphere_of(g)
        yield (
            is_well_typed(eh.truncate(1), sphere.src) and is_well_typed(eh.truncate(1), sphere.tgt),
            lambda: f"{g}: attaching sphere does not typecheck",
        )

    def rejected(kind, cell, code):
        message = f"seeded {kind} coherence was not rejected with {code}"
        try:
            typecheck_cell(eh, cell)
        except TypecheckError as err:
            yield err.code == code, message
        else:
            yield False, message

    return sweep("typecheck", (shared_cells(), built), ([("a",), ("b",)], attached), (seeded, rejected))


def law_cell_action(dims_upto: int = 3) -> LawReport:
    """The dimension sets act on cells and computads: empty set trivially,
    composition by symmetric difference."""
    triples = action_triples(dims_upto)

    def on_computad(c):
        yield op_computad(dimset([]), c) == c, "empty opposite moved a computad"
        for w, v, wv in triples:
            yield (
                op_computad(w, op_computad(v, c)) == op_computad(wv, c),
                lambda: f"w={sorted(w)} v={sorted(v)}: computad action is not symmetric difference",
            )

    def on_cell(_, cell):
        moved = op_cell(dimset([]), cell)
        yield moved == cell, lambda: f"{cell_key(cell)}: empty opposite moved the cell {diff_text(moved, cell)}"
        for w, v, wv in triples:
            lhs, rhs = op_cell(w, op_cell(v, cell)), op_cell(wv, cell)
            yield (
                lhs == rhs,
                lambda: (
                    f"{cell_key(cell)} w={sorted(w)} v={sorted(v)}: "
                    f"cell action is not symmetric difference {diff_text(lhs, rhs)}"
                ),
            )

    computads = [(eh_computad().computad,)] + [(a,) for a, _ in template_corpus()]
    report = sweep("cell-action", (computads, on_computad), (shared_cells(), on_cell))
    shared_cells.cache_clear()  # the last family to read the cells: the families after it reuse their memory
    return report


def law_hom_roundtrip() -> LawReport:
    """Factoring a loop cell through the hom computad and playing it back is
    the identity, and indecomposability picks out exactly the non-suspension
    shapes."""

    def roundtrip(pointed, cell):
        h = hom_factor(pointed, cell)
        back = hom_realize(pointed, h)
        yield (
            back == cell,
            lambda: f"{cell_key(cell)}: realize after factor is not the identity {diff_text(back, cell)}",
        )
        again = hom_factor(pointed, back)
        yield (
            again == h,
            lambda: f"{cell_key(cell)}: factor after realize is not the identity {diff_text(again, h)}",
        )

    def basepoint(pointed):
        id_base = identity_cell(pointed.computad, pointed.base_minus)
        yield is_indecomposable(pointed, id_base), "the identity on the basepoint should be indecomposable"

    def suspended(ambient, cell):
        yield (
            not is_indecomposable(suspend_computad(ambient), suspend_cell(cell)),
            lambda: f"{cell_key(cell)}: suspension image should be decomposable",
        )

    loops = pointed_loops()
    pointed = dict.fromkeys((p,) for p, _ in loops)
    return sweep("hom-roundtrip", (loops, roundtrip), (pointed, basepoint), (template_corpus(), suspended))


def law_hom_transport(dims_upto: int = 3) -> LawReport:
    """Forming opposites commutes with factoring through the hom computad:
    the factor of the w-opposite is the (w-1)-opposite of the factor."""

    def check(w, pointed, cell):
        lhs = hom_factor(op_bipointed(w, pointed), op_cell(w, cell))
        rhs = op_homcell(w, hom_factor(pointed, cell))
        yield (
            lhs is rhs,
            lambda: f"{cell_key(cell)} w={sorted(w)}: factor(op) and op(factor) differ {diff_text(lhs, rhs)}",
        )

    loops = pointed_loops()
    report = sweep("hom-transport", (((w, *loop) for w in all_dimsets(dims_upto) for loop in loops), check))
    pointed_loops.cache_clear()  # the last family to read the loops: the families after it reuse their memory
    return report


def law_eh_identities(dims_upto: int = 3) -> LawReport:
    """The scalar composites over the Eckmann-Hilton computad: reversing
    dimension k + 1 swaps the factors of a k-composite, and reversing any
    other dimension fixes it; the computad itself is self-dual."""
    c = eh_computad().computad
    a, b = c.var("a"), c.var("b")
    w1, w2 = dimset([1]), dimset([2])
    horizontal = {(u, v): compose(c, u, 0, v) for u, v in ((a, b), (b, a))}
    vertical = {(u, v): compose(c, u, 1, v) for u, v in ((a, b), (b, a))}
    table = [
        (w1, horizontal, (b, a), "reversing dimension 1 should swap a horizontal composite"),
        (w2, horizontal, (a, b), "reversing dimension 2 should fix a horizontal composite"),
        (w1, vertical, (a, b), "reversing dimension 1 should fix a vertical composite"),
        (w2, vertical, (b, a), "reversing dimension 2 should swap a vertical composite"),
    ]

    def composite(w, composites, want, message):
        lhs, rhs = op_cell(w, composites[a, b]), composites[want]
        yield lhs == rhs, lambda: f"{message} {diff_text(lhs, rhs)}"

    def self_dual(w):
        yield op_computad(w, c) == c, lambda: f"w={sorted(w)}: the Eckmann-Hilton computad should be self-dual"

    return sweep("eh-identities", (table, composite), (((w,) for w in all_dimsets(dims_upto)), self_dual))


def law_counit_squares() -> LawReport:
    """Evaluation of double cells commutes with suspension and with
    opposites (the two monad-component squares), on a generated family of
    double cells over the Eckmann-Hilton closure."""
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

    def enough():
        yield len(double_cells) >= MIN_DOUBLE_CELLS, lambda: f"only {len(double_cells)} double cells were generated"

    up = suspend_computad(c).computad
    up_dbl = suspend_computad(dbl).computad
    up_denote = {f"1.{g}": suspend_cell(cell) for g, cell in denote.items()}
    up_denote[BASE_MINUS] = Var(BASE_MINUS, 0)
    up_denote[BASE_PLUS] = Var(BASE_PLUS, 0)
    evaluated: dict[CellTerm, CellTerm] = {}  # each double cell's evaluation, made once for both squares

    def evaluate(u):
        out = evaluated.get(u)
        if out is None:
            out = evaluated[u] = counit_eval(c, u, denote)
        return out

    def suspended(u):
        lhs = counit_eval(up, suspend_cell(u), up_denote)
        rhs = suspend_cell(evaluate(u))
        yield (
            lhs == rhs,
            lambda: f"{cell_key(u)}: evaluation does not commute with suspension {diff_text(lhs, rhs)}",
        )
        yield (
            is_well_typed(up_dbl, suspend_cell(u)) and is_well_typed(up, lhs),
            lambda: f"{cell_key(u)}: suspended double cell does not typecheck",
        )

    opposites = {w: (op_computad(w, c), {g: op_cell(w, cell) for g, cell in denote.items()}) for w in all_dimsets(3)}

    def opposite_square(w, u):
        op_c, op_denote = opposites[w]
        lhs = counit_eval(op_c, op_cell(w, u), op_denote)
        rhs = op_cell(w, evaluate(u))
        yield (
            lhs == rhs,
            lambda: f"{cell_key(u)} w={sorted(w)}: evaluation does not commute with opposites {diff_text(lhs, rhs)}",
        )

    return sweep(
        "counit-squares",
        ([()], enough),
        (((u,) for u in double_cells), suspended),
        (itertools.product(opposites, double_cells), opposite_square),
    )


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
    a family whose own set-up raises fails one check, which names the
    exception."""
    out = []
    for name, family in FAMILIES.items():
        start = time.perf_counter()
        try:
            report = family(max_nodes, dims_upto)
        except Exception as err:
            report = LawReport(name, 1, [_raised(err)])
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
