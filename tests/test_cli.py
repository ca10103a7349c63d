"""CLI driver: golden outputs, exit codes, and the law harness verb."""

from __future__ import annotations

import codecs
import glob
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from omegatt import cli, computads, laws
from omegatt.cli import run_cli
from omegatt.computads import TypecheckError
from omegatt.export import document_to_json
from omegatt.metaops import NotASuspension
from omegatt.oplib import BoundaryMismatch, comp_cell
from omegatt.surface import SourceLocation, SurfaceError, load_document, parse, tree_text
from omegatt.trees import MAX_COMP_DIM, comp_tree

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _from_repo_root(monkeypatch):
    # goldens mention sample paths relative to the repository root
    monkeypatch.chdir(ROOT)


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _disk_identity(depth: int) -> str:
    """A document whose one cell is the identity coherence on the disk
    written as a tree literal ``depth`` deep."""
    top = ".".join(["1"] * (depth - 1) + ["0"])
    return f"let t = coh {'[' * depth}{']' * depth} {{ {top} -> {top} }} []\n"


GOLDEN_CASES = [
    (("check", "samples/comp101.ctt"), "check_comp101.txt", 0, "out"),
    (("check", "samples/bad.ctt"), "check_bad.txt", 1, "err"),
    (("susp", "samples/comp101.ctt"), "susp_comp101.ctt", 0, "out"),
    (("op", "--dims", "1", "samples/comp101.ctt"), "op1_comp101.ctt", 0, "out"),
    (("op", "--dims", "1,2", "samples/eh.ctt"), "op12_eh.ctt", 0, "out"),
    (("export", "--format", "json", "samples/comp101.ctt"), "export_comp101.json", 0, "out"),
    (("export", "--format", "dot", "samples/eh.ctt"), "export_eh.dot", 0, "out"),
    (("comp", "2", "1", "2"), "comp_212.txt", 0, "out"),
    (("id", "f", "samples/comp101.ctt"), "id_f.txt", 0, "out"),
    (("eh",), "eh.txt", 0, "out"),
    (
        ("hom", "--src", "x", "--tgt", "x", "factor", "vertical", "samples/eh.ctt"),
        "hom_vertical.txt",
        0,
        "out",
    ),
]


class TestGolden:
    @pytest.mark.parametrize("argv,fixture,code,stream", GOLDEN_CASES)
    def test_byte_identical(self, capsys, argv, fixture, code, stream):
        got_code, out, err = invoke(capsys, *argv)
        assert got_code == code
        got = out if stream == "out" else err
        assert got == (GOLDEN / fixture).read_text()


class TestRoundTrips:
    def test_susp_then_desusp_is_canonical_identity(self, capsys, tmp_path):
        _, suspended, _ = invoke(capsys, "susp", "samples/comp101.ctt")
        up = tmp_path / "up.ctt"
        up.write_text(suspended)
        code, back, _ = invoke(capsys, "desusp", str(up))
        assert code == 0
        from omegatt.surface import document_text, load_document

        canonical = document_text(load_document(Path("samples/comp101.ctt").read_text()))
        assert back == canonical

    def test_op_is_an_involution(self, capsys, tmp_path):
        _, once, _ = invoke(capsys, "op", "--dims", "1", "samples/comp101.ctt")
        flipped = tmp_path / "flip.ctt"
        flipped.write_text(once)
        code, twice, _ = invoke(capsys, "op", "--dims", "1", str(flipped))
        assert code == 0
        from omegatt.surface import document_text, load_document

        canonical = document_text(load_document(Path("samples/comp101.ctt").read_text()))
        assert twice == canonical

    def test_exported_json_reimports(self, capsys):
        import json

        from omegatt.export import document_from_json
        from omegatt.surface import load_document

        _, out, _ = invoke(capsys, "export", "--format", "json", "samples/eh.ctt")
        doc = document_from_json(json.loads(out))
        direct = load_document(Path("samples/eh.ctt").read_text())
        assert doc.computads == direct.computads
        assert [(n, e.term) for n, e in doc.cells] == [(n, e.term) for n, e in direct.cells]


# The per-request limit on the tail of the benchmark's `deep` workload.
TAIL_LIMIT_S = 2.0


class TestSharedOutput:
    """Large terms print in shared form; small ones print as they did."""

    def test_tall_composite_prints_in_time_and_reads_back(self, capsys):
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "comp", "40", "0", "40")
        assert time.perf_counter() - start < TAIL_LIMIT_S / 2
        assert code == 0 and out.startswith("coh ")
        assert load_document(f"let c = {out}").cells[0][1].term is comp_cell(40, 0, 40)

    def test_output_grows_polynomially(self, capsys):
        sizes = {}
        for n in (10, 20, 40):
            _, out, _ = invoke(capsys, "comp", str(n), "0", str(n))
            sizes[n] = len(out)
        assert sizes[40] < 8 * sizes[20] and sizes[20] < 8 * sizes[10]

    @pytest.mark.parametrize("path", sorted(glob.glob("samples/*.ctt", root_dir=ROOT)))
    def test_samples_print_as_trees(self, capsys, monkeypatch, path):
        """check, susp, op and export give the same bytes as with sharing
        switched off."""
        verbs = [("check",), ("susp",), ("op", "--dims", "1"), ("op", "--dims", "1,2"), ("export",)]
        default = [invoke(capsys, *verb, path) for verb in verbs]
        monkeypatch.setattr(computads, "SHARE_ABOVE", float("inf"))
        assert [invoke(capsys, *verb, path) for verb in verbs] == default


WALKING_DOC = "computad c { x : * ; y : * ; f : x -> y ; }\n"


@pytest.mark.parametrize(
    "let,col,message",
    [
        ("let t = id($2) where { $1 = f }", 12, "unknown binding $2"),
        ("let t = id($1) where { $1 = f; $1 = f }", 32, "$1 is bound twice"),
        ("let t = id($1) where { $1 = id($1) }", 32, "$1 refers to itself"),
        ("let t = id($1) where { $1 = id($2); $2 = f }", 32, "$2 refers to a later binding"),
        ("let t = id($1)", 12, "$1 is used outside a where block"),
        ("let t = id(f) where { }", 23, "a where block binds at least one subterm"),
        (
            "let t = id(@1) where { @1 = 0 }",
            12,
            "@1 is a sphere subterm and cannot stand for a cell over the computad",
        ),
        (
            "let t = coh [[]] { $1 -> 1.0 } [] where { $1 = f }",
            20,
            "$1 is a cell over the computad and cannot stand in a sphere",
        ),
        ("let t = id(f) where { 1 = f }", 23, "expected a binding $k or @k, found '1'"),
        ("let t = id($1) where $1", 22, "expected '{', found '$1'"),
        ("let t = id($2) where { $1 = f; $2 = f }", 24, "$1 is not used by the cell"),
        (
            "let t = id(f) where { $1 = coh [[],[]] { 0 -> 0 } [0 => x, 1 => y, 1.0 => f, 2 => y, 2.0 => f] }",
            23,
            "$1 is not used by the cell",
        ),
    ],
    ids=[
        "unknown", "twice", "itself", "later", "outside", "empty", "scheme-in-sub",
        "ambient-in-sphere", "not-a-binding", "no-brace", "unused", "unused-and-ill-typed",
    ],
)
def test_malformed_sharing_is_a_located_error(capsys, tmp_path, let, col, message):
    source = tmp_path / "shared.ctt"
    source.write_text(WALKING_DOC + let + "\n")
    assert invoke(capsys, "check", str(source)) == (1, "", f"{source}:2:{col}: {message}\n")


class TestExitCodes:
    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "check", "samples/nope.ctt")
        assert code == 2
        assert "nope.ctt" in err

    def test_a_block_reads_a_let_over_the_generators_so_far(self, capsys, tmp_path):
        # d's generators so far are c's, so i lives over them (see other-computad)
        source = tmp_path / "doc.ctt"
        source.write_text("computad c { x : * ; }\nlet i = id(x)\ncomputad d { x : * ; f : i -> i ; }\n")
        assert invoke(capsys, "check", str(source)) == (0, "ok computad c\nok computad d\nok let i (1-cell)\n", "")

    def test_bad_verb_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["frobnicate"])
        assert err.value.code == 2

    def test_bad_comp_arity_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "comp", "1", "5", "1")
        assert code == 2
        assert "k < min(n, m)" in err

    def test_desusp_failure_is_check_error(self, capsys):
        code, _, err = invoke(capsys, "desusp", "samples/comp101.ctt")
        assert code == 1
        assert "not a suspension" in err

    def test_susp_of_a_hom_cell_names_suspension(self, capsys):
        code, _, err = invoke(capsys, "susp", "samples/eh.ctt")
        assert code == 1
        assert err == "omegatt: cannot suspend vertical_factored: it is a hom cell\n"

    def test_desusp_of_a_hom_cell_names_desuspension(self, capsys, tmp_path):
        source = tmp_path / "suspended.ctt"
        source.write_text(
            "computad s {\n  0 : * ; 1 : * ;\n  1.x : 0 -> 1 ; 1.y : 0 -> 1 ;\n  1.f : 1.x -> 1.y ;\n}\n"
            "let h = homfactor(1.f)\n",
            encoding="utf-8",
        )
        code, _, err = invoke(capsys, "desusp", str(source))
        assert code == 1
        assert err == "omegatt: cannot desuspend h: it is a hom cell\n"

    def test_unknown_cell_is_check_error(self, capsys):
        code, _, err = invoke(capsys, "id", "nope", "samples/comp101.ctt")
        assert code == 1

    def test_duplicate_position_in_a_sphere_is_check_error(self, capsys, tmp_path):
        source = tmp_path / "dup.ctt"
        source.write_text(
            "let t = coh [[],[]] { coh [[],[]] { x -> z } "
            "[0 => 0, 0 => 0, 1 => 1, 2 => 2, 1.0 => 1.0, 2.0 => 2.0] "
            "-> coh [[],[]] { x -> z } [] } []\n"
        )
        code, _, err = invoke(capsys, "check", str(source))
        assert code == 1
        assert err == f"{source}:1:55: position 0 is assigned twice\n"

    def test_digit_that_int_does_not_read_is_check_error(self, capsys, tmp_path):
        source = tmp_path / "sup.ctt"
        source.write_text("computad c { x : * ; f : x -> x ; }\nlet a = comp(²,0,1)[f, f]\n", encoding="utf-8")
        assert invoke(capsys, "check", str(source)) == (1, "", f"{source}:2:14: expected n (a number), found '²'\n")

    def test_comp_beyond_the_bound(self, capsys, tmp_path):
        source = tmp_path / "huge.ctt"
        source.write_text("let t = comp(99999999999999999999999,0,1)[]\n")
        code, _, err = invoke(capsys, "check", str(source))
        assert code == 1
        assert err.startswith(f"{source}:1:9: comp_tree: ")
        code, _, err = invoke(capsys, "comp", "99999999999", "0", "1")
        assert code == 2
        assert f"max(n, m) <= {MAX_COMP_DIM - 1}" in err

    def test_composite_whose_literal_would_nest_past_the_bound(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "comp", str(MAX_COMP_DIM), "0", "1")
        assert (code, out) == (2, "") and f"max(n, m) <= {MAX_COMP_DIM - 1}" in err
        source = tmp_path / "comp.ctt"
        source.write_text(f"let c = comp({MAX_COMP_DIM},0,1)[]\n")
        code, out, err = invoke(capsys, "check", str(source))
        assert (code, out) == (1, "") and err.startswith(f"{source}:1:9: comp_tree: ")

    def test_literal_of_the_largest_composite_reads_back(self):
        t = comp_tree(MAX_COMP_DIM - 1, 0, 1)
        (let,) = parse(f"let c = coh {tree_text(t)} {{ 0 -> 0 }} []\n").items
        assert let.expr.tree is t

    def test_tree_literal_beyond_the_bound(self, capsys, tmp_path):
        source = tmp_path / "deep.ctt"
        source.write_text(f"let t = coh {'[' * 3000}{']' * 3000} {{ x -> x }} []\n")
        at = len("let t = coh ") + MAX_COMP_DIM + 1  # the first '[' too many
        assert invoke(capsys, "check", str(source)) == (
            1, "", f"{source}:1:{at}: tree literal nested more than {MAX_COMP_DIM} deep\n"
        )

    @pytest.mark.parametrize("opener", ["id(", "susp("])
    def test_cell_expression_beyond_the_bound(self, capsys, tmp_path, opener):
        source = tmp_path / "nested.ctt"
        depth = MAX_COMP_DIM + 1
        source.write_text(f"let t = {opener * depth}x{')' * depth}\n")
        at = len("let t = ") + len(opener) * MAX_COMP_DIM + 1  # the first opener too many
        assert invoke(capsys, "check", str(source)) == (
            1, "", f"{source}:1:{at}: cell expression nested more than {MAX_COMP_DIM} deep\n"
        )

    def test_json_export_of_a_disk_at_the_bound(self, capsys, tmp_path):
        source = tmp_path / "disk.ctt"
        source.write_text(_disk_identity(MAX_COMP_DIM))
        code, out, err = invoke(capsys, "export", "--format", "json", str(source))
        assert (code, err) == (0, "")
        assert out.startswith('{\n  "computads": [],\n  "cells": [') and out.endswith("\n  ]\n}\n")

    def test_json_export_writes_what_the_encoder_writes(self, capsys, tmp_path):
        source = tmp_path / "disk.ctt"
        source.write_text(_disk_identity(900))  # deep, yet within the encoder's recursion
        code, out, _ = invoke(capsys, "export", "--format", "json", str(source))
        assert (code, out) == (0, json.dumps(document_to_json(load_document(source.read_text())), indent=2) + "\n")

    def test_suspension_past_the_bound(self, capsys, tmp_path):
        source = tmp_path / "disk.ctt"
        source.write_text(_disk_identity(MAX_COMP_DIM))
        code, out, err = invoke(capsys, "susp", str(source))
        assert (code, out) == (1, "")
        assert err.startswith("omegatt: cannot suspend") and f"more than {MAX_COMP_DIM} deep" in err

    def test_suspension_in_a_let_past_the_bound(self, capsys, tmp_path):
        source = tmp_path / "disk.ctt"
        source.write_text(_disk_identity(MAX_COMP_DIM).replace("= coh", "= susp(coh").replace("[]\n", "[])\n"))
        code, out, err = invoke(capsys, "check", str(source))
        assert (code, out) == (1, "")
        assert err.startswith(f"{source}:1:9: cannot suspend") and f"more than {MAX_COMP_DIM} deep" in err

    def test_suspension_up_to_the_bound_checks_again(self, capsys, tmp_path):
        source, suspended = tmp_path / "disk.ctt", tmp_path / "susp.ctt"
        source.write_text(_disk_identity(MAX_COMP_DIM - 1))
        code, out, _ = invoke(capsys, "susp", str(source))
        assert code == 0 and out.startswith(f"let t = coh {'[' * MAX_COMP_DIM}]")
        suspended.write_text(out)
        assert invoke(capsys, "check", str(suspended)) == (0, f"ok let t ({MAX_COMP_DIM}-cell)\n", "")

    def test_tall_tree_literal_is_a_located_error(self, capsys, tmp_path):
        source = tmp_path / "tall.ctt"
        source.write_text(f"let t = coh {'[' * 330}{']' * 330} {{ x -> x }} []\n")
        assert invoke(capsys, "check", str(source)) == (
            1, "", f"{source}:1:1: DimensionMismatch at tree: scheme of dimension 329 in a 1-cell\n"
        )

    @pytest.mark.parametrize(
        "data,where",
        [
            (b"\xff\xfe x", "1:1"),
            # lines end in CRLF and a lone CR, as a text-mode read sees them
            ("computad c {\r\n x : * ;\r}\n# é\nlet q = ".encode() + b"\xe9\n", "5:9"),
            # after a byte-order mark, located as if it were not there
            (codecs.BOM_UTF8 + "# é\nlet q = ".encode() + b"\xe9\n", "2:9"),
        ],
    )
    def test_file_that_is_not_utf8_is_check_error(self, capsys, tmp_path, data, where):
        source = tmp_path / "bytes.ctt"
        source.write_bytes(data)
        assert invoke(capsys, "check", str(source)) == (1, "", f"{source}:{where}: not UTF-8 text\n")

    @pytest.mark.parametrize("sample", ["comp101.ctt", "bad.ctt"])
    @pytest.mark.parametrize("argv", [("check",), ("op", "--dims", "1"), ("export", "--format", "json")])
    def test_a_byte_order_mark_reads_as_nothing(self, capsys, tmp_path, sample, argv):
        # a file that starts with U+FEFF was an unexpected character at 1:1, exit 1
        data = (ROOT / "samples" / sample).read_bytes()
        plain, marked = tmp_path / "plain" / sample, tmp_path / "marked" / sample
        for path, prefix in ((plain, b""), (marked, codecs.BOM_UTF8)):
            path.parent.mkdir()
            path.write_bytes(prefix + data)
        code, out, err = invoke(capsys, *argv, str(plain))
        assert invoke(capsys, *argv, str(marked)) == (code, out, err.replace(str(plain), str(marked)))

    def test_hom_checks_endpoints(self, capsys):
        code, _, err = invoke(
            capsys, "hom", "--src", "x", "--tgt", "y", "factor", "fg", "samples/comp101.ctt"
        )
        assert code == 1
        assert "runs" in err


EH_DOC = "computad eh {\n  x : * ;\n  a : id(x) -> id(x) ;\n  b : id(x) -> id(x) ;\n}\n"
LOOP_DOC = "computad c { x : * ; f : x -> x ; }\n"

# Errors of the elaborator and of the verbs: the arguments before the file,
# the document (None: no file), the exit code and the whole of stderr, in
# which {file} stands for the document's path.
ERROR_PATHS = [
    pytest.param(
        ["check"], "computad c { x : * ; }\ncomputad c { y : * ; }\n",
        1, "{file}:2:1: computad 'c' is already defined", id="computad-twice",
    ),
    pytest.param(
        ["check"], "computad c { x : * ; f : x -> x ; g : x -> f ; }\n",
        1, "{file}:1:35: boundary cells have dimensions 0 and 1", id="boundary-dims",
    ),
    pytest.param(
        ["check"], EH_DOC + "let v = homfactor(homfactor(comp(2,1,2)[a, b]))\n",
        1, "{file}:6:9: hom cells cannot be transformed further", id="hom-of-hom",
    ),
    pytest.param(
        # typechecked before it is factored, as a plain coherence is by its let
        ["check"],
        "computad c { x : * ; y : * ; f : x -> y ; g : x -> y ; h : x -> y ; a : f -> g ; b : g -> h ; }\n"
        "let t = homfactor(coh [[[],[]]] { 1.1.0 -> 1.1.0 }"
        " [0 => x, 1 => y, 1.0 => f, 1.1 => g, 1.2 => h, 1.1.0 => a, 1.2.0 => b])\n",
        1, "{file}:2:9: NotFull at sphere: coherence sphere is not full over its scheme", id="homfactor-not-full",
    ),
    pytest.param(
        ["check"],
        "computad c { x : * ; y : * ; f : y -> x ; }\n"
        "let t = homfactor(coh [[]] { 1.0 -> 1.0 } [0 => x, 1 => y, 1.0 => f])\n",
        1, "{file}:2:9: BadSubstitution at sub/1.0: assignment at 1.0 does not match the boundaries of its sector",
        id="homfactor-bad-substitution",
    ),
    pytest.param(
        ["check"], LOOP_DOC + "let a = comp(1,0,1)[f, f, f]\n",
        1, "{file}:2:9: comp takes two cells, found 3", id="comp-three-cells",
    ),
    pytest.param(
        ["check"], LOOP_DOC + "let a = comp(2,0,2)[f, f]\n",
        1, "{file}:2:9: comp(2,0,2) applied to cells of dimensions 1 and 1", id="comp-dims",
    ),
    pytest.param(
        ["check"], LOOP_DOC + "let a = id(susp(x))\n",
        1, "{file}:2:12: susp(...) is only available at the top of a 'let'", id="inner-susp",
    ),
    pytest.param(
        ["check"], "computad c { x : * y : * }\n",
        1, "{file}:1:20: expected ';' or '}' after a generator", id="generator-separator",
    ),
    pytest.param(
        ["check"], LOOP_DOC + "let t = coh [] { 0 -> 0 } [x]\n",
        1, "{file}:2:9: a coherence takes keyed entries or an empty '[]'", id="coh-plain-cells",
    ),
    pytest.param(
        ["check"], LOOP_DOC + "let t = coh [] { 0 -> 0 } [0 => x, (]\n",
        1, "{file}:2:36: expected a position, found '('", id="position",
    ),
    pytest.param(
        ["check"], "computad c { x : * ; f : x -> x ; f : x -> x ; }\n",
        1, "{file}:1:35: generator 'f' is already declared", id="generator-twice",
    ),
    pytest.param(
        ["check"], "computad c { x : * ; y : * ; f : x -> y ; g : y -> x ; a : f -> g ; }\n",
        1, "{file}:1:56: attaching sphere of 'a' is not parallel", id="generator-not-parallel",
    ),
    pytest.param(
        ["check"],
        "computad c { x : * ; f : x -> x ;"
        " a : coh [[],[]] { x -> x } [0 => x, 1 => x, 1.0 => f, 2 => x, 2.0 => f] -> f ; }\n",
        1, "{file}:1:35: NotFull at sphere: coherence sphere is not full over its scheme", id="generator-not-full",
    ),
    pytest.param(
        # the two computads differ: equal ones are one object
        ["check"], "computad a { x : * ; }\nlet p = x\ncomputad b { y : * ; }\nlet q = id(p)\n",
        1, "{file}:4:12: 'p' lives over a different computad", id="other-computad",
    ),
    pytest.param(
        ["check"], LOOP_DOC + "let a = op{0}(f)\n",
        1, "{file}:2:9: dimension sets contain positive integers only", id="op-dimension-zero",
    ),
    pytest.param(
        ["check"], EH_DOC + "let h = homfactor(comp(2,1,2)[a, b])\nlet k = id(h)\n",
        1, "{file}:7:12: 'h' is a hom cell", id="id-of-hom-cell",
    ),
    pytest.param(
        ["check"], LOOP_DOC + "let t = coh [[],[]] { 0 -> 1.0 } []\n",
        1, "{file}:2:9: sphere cells must share a dimension: 0 != 1", id="sphere-dims",
    ),
    pytest.param(
        ["check"], "computad c { x : * ; y : * ; f : x -> y ; }\nlet a = comp(1,0,1)[f, f]\n",
        1, "{file}:2:9: cannot compose along dimension 0: k-target of the first is not the k-source of the second",
        id="comp-boundaries",
    ),
    pytest.param(
        ["check"], LOOP_DOC + "let a = comp(1,0,1)[q => f, 0 => x]\n",
        1, "{file}:2:21: 'q' is not a position of the scheme", id="comp-unknown-position",
    ),
    pytest.param(
        ["desusp"], "computad c { 0 : * ; 1 : * ; f : 0 -> 1 ; }\n",
        1, "omegatt: not a suspension at f: generator is not shifted", id="desusp-unshifted",
    ),
    pytest.param(
        ["desusp"], "computad c { 0 : * ; 1 : * ; 1.x : 0 -> 1 ; 1.g : 1 -> 0 ; }\n",
        1, "omegatt: not a suspension at 1.g: 1-generator not attached to the basepoints",
        id="desusp-unattached",
    ),
    pytest.param(["id", "zz"], LOOP_DOC, 1, "omegatt: unknown cell 'zz'", id="id-unknown"),
    pytest.param(
        ["id", "v"], EH_DOC + "let v = homfactor(comp(2,1,2)[a, b])\n",
        1, "omegatt: 'v' is a hom cell", id="id-hom-cell",
    ),
    pytest.param(
        ["eh", "--check", "h"], None,
        1, "omegatt: --check needs a file to read the candidate cell from", id="eh-no-file",
    ),
    pytest.param(["eh", "--check", "zz"], EH_DOC, 1, "omegatt: unknown cell 'zz'", id="eh-unknown"),
    pytest.param(
        ["eh", "--check", "f"], LOOP_DOC,
        1, "omegatt: 'f' is not a cell over the Eckmann-Hilton computad", id="eh-not-over-eh",
    ),
    pytest.param(
        ["eh", "--check", "v"], EH_DOC + "let v = a\n",
        1, "omegatt: op1 of v(a,b) differs from op2 of v(b,a)", id="eh-differs",
    ),
    pytest.param(
        ["hom", "--src", "x", "--tgt", "zz", "factor", "a"], EH_DOC,
        1, "omegatt: unknown cell 'zz'", id="hom-unknown",
    ),
    pytest.param(
        ["hom", "--src", "x", "--tgt", "x", "factor", "v"], EH_DOC + "let v = homfactor(comp(2,1,2)[a, b])\n",
        1, "omegatt: 'v' is already a hom cell", id="hom-of-hom-cell",
    ),
    pytest.param(
        ["hom", "--src", "f", "--tgt", "x", "factor", "f"], LOOP_DOC,
        1, "omegatt: --src and --tgt must name 0-cells", id="hom-ends-not-points",
    ),
    pytest.param(
        ["hom", "--src", "x", "--tgt", "x", "factor", "x"], LOOP_DOC,
        1, "omegatt: 'x' has dimension 0, nothing to factor", id="hom-of-point",
    ),
    pytest.param(
        ["hom", "--src", "x", "--tgt", "y", "factor", "f"], "computad c { x : * ; y : * ; f : x -> x ; }\n",
        1, "omegatt: 'f' runs x -> x, not x -> y", id="hom-wrong-ends",
    ),
]


@pytest.mark.parametrize("argv,text,code,err", ERROR_PATHS)
def test_error_path(capsys, tmp_path, argv, text, code, err):
    if text is not None:
        source = tmp_path / "doc.ctt"
        source.write_text(text)
        argv = [*argv, str(source)]
    assert invoke(capsys, *argv) == (code, "", err.replace("{file}", argv[-1]) + "\n")


@pytest.mark.parametrize(
    "error",
    [
        TypecheckError("NotFull", ("sphere",), "m"),
        NotASuspension(("sub",), "m"),
        BoundaryMismatch(0, "m"),
        SurfaceError(SourceLocation(1, 1), "m"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_library_errors_pass_through_context_managers(error):
    # leaving a @contextmanager block sets the exception's __traceback__
    @contextmanager
    def block():
        yield

    with pytest.raises(type(error)) as raised:
        with block():
            raise error
    assert raised.value is error
    assert raised.value.__traceback__ is not None
    assert raised.value == type(error)(*vars(error).values())
    assert hash(raised.value) == hash(type(error)(*vars(error).values()))


class TestEhCheck:
    def test_swap_identity_holds_for_identity_cell(self, capsys, tmp_path):
        source = tmp_path / "cand.ctt"
        source.write_text(
            "computad eh { x : * ; a : id(x) -> id(x) ; b : id(x) -> id(x) ; }\n"
            "let cand = id(comp(2,0,2)[a, b])\n"
        )
        code, out, _ = invoke(capsys, "eh", "--check", "cand", str(source))
        assert code == 0
        assert "ok" in out

    def test_swap_identity_fails_for_plain_scalar(self, capsys, tmp_path):
        source = tmp_path / "cand.ctt"
        source.write_text(
            "computad eh { x : * ; a : id(x) -> id(x) ; b : id(x) -> id(x) ; }\n"
            "let cand = comp(2,0,2)[a, a]\n"
        )
        code, _, err = invoke(capsys, "eh", "--check", "cand", str(source))
        assert code == 1
        assert "differs" in err


class TestLawsVerb:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = invoke(capsys, "laws", "--max-nodes", "3", "--dims-upto", "1")
        assert code == 0
        assert out.splitlines()[-1].endswith("checks passed")

    @pytest.mark.parametrize("max_nodes,dims_upto", [(5, 3), (9, 1)])
    def test_report_is_byte_identical(self, max_nodes, dims_upto):
        """The sweep at its defaults and at the raised node bound, where the
        tree tables are hot, in a fresh process, so that the tables and memos
        the sweep fills are not left to the tests that count what they build."""
        argv = ["laws", "--max-nodes", str(max_nodes), "--dims-upto", str(dims_upto)]
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run([sys.executable, "-m", "omegatt.cli", *argv], env=env, capture_output=True, text=True)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout == (GOLDEN / f"laws_{max_nodes}_{dims_upto}.txt").read_text()

    @pytest.fixture
    def no_sweep(self, monkeypatch):
        """Fails a test that would start a law sweep."""

        def sweep(**bounds):
            raise AssertionError(f"a sweep started at {bounds}")

        monkeypatch.setattr(cli, "timed_laws", sweep)

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("--max-nodes", "-1", "--dims-upto", "0"), "--max-nodes"),
            (("--max-nodes", "0"), "--max-nodes"),
            (("--dims-upto", "-1"), "--dims-upto"),
            (("--max-nodes", "two"), "--max-nodes"),
            # each of these two ran until it was killed: 290,512 trees, or 2^50 pairs of dimension sets
            (("--max-nodes", "13", "--dims-upto", "0"), "--max-nodes"),
            (("--max-nodes", "1", "--dims-upto", "25"), "--dims-upto"),
        ],
    )
    def test_bounds_out_of_range_are_usage_errors(self, capsys, no_sweep, argv, flag):
        with pytest.raises(SystemExit) as err:
            run_cli(["laws", *argv])
        assert err.value.code == 2
        usage = capsys.readouterr().err
        assert usage.startswith("usage: omegatt laws")
        assert f"argument {flag}:" in usage

    @pytest.mark.parametrize("bounds", [("11", "2"), ("5", "7"), ("6", "7")])
    def test_a_sweep_over_the_instance_bound_is_a_usage_error(self, capsys, no_sweep, bounds):
        """Each bound is in range, but trees times pairs of dimension sets
        passes ``MAX_SWEEP``: rejected before a tree is built."""
        code, out, err = invoke(capsys, "laws", "--max-nodes", bounds[0], "--dims-upto", bounds[1])
        assert (code, out) == (2, "")
        assert err.startswith("omegatt: laws: ") and err.endswith(f" is over {cli.MAX_SWEEP:,}\n")

    def test_the_largest_sweeps_in_bounds_start(self, capsys, monkeypatch):
        """The limits are the largest values that run, each at the least of
        the other, and 11 nodes at --dims-upto 1 is within the instance bound."""
        started = []
        monkeypatch.setattr(cli, "timed_laws", lambda **bounds: started.append(bounds) or [])
        for argv in (("11", "1"), ("11", "0"), ("1", "7"), ("4", "7")):
            assert invoke(capsys, "laws", "--max-nodes", argv[0], "--dims-upto", argv[1])[0] == 0
        assert [(b["max_nodes"], b["dims_upto"]) for b in started] == [(11, 1), (11, 0), (1, 7), (4, 7)]

    def test_json_report_matches_the_text_report(self, capsys):
        argv = ("laws", "--max-nodes", "3", "--dims-upto", "1")
        code, text, _ = invoke(capsys, *argv)
        json_code, out, _ = invoke(capsys, *argv, "--json")
        report = json.loads(out)
        assert json_code == code == 0
        assert [f["name"] for f in report["families"]] == list(laws.FAMILIES)
        lines = [f"{f['name']}: {f['checks']} checks ok" for f in report["families"]]
        assert text.splitlines() == lines + [f"all {report['checks']} checks passed"]
        assert report["failed"] == 0 and all(f["failures"] == [] for f in report["families"])
        assert report["seconds"] == pytest.approx(sum(f["seconds"] for f in report["families"]))

    def test_json_report_fails_as_the_text_report_does(self, capsys, monkeypatch):
        monkeypatch.setattr(laws, "desuspend_cell", lambda cell: cell)
        argv = ("laws", "--max-nodes", "2", "--dims-upto", "0")
        code, text, _ = invoke(capsys, *argv)
        json_code, out, _ = invoke(capsys, *argv, "--json")
        report = json.loads(out)
        assert json_code == code == 1
        suspension = report["families"][list(laws.FAMILIES).index("suspension")]
        assert (suspension["checks"], len(suspension["failures"])) == (211, 61)
        assert report["failed"] == 61
        assert f"  {suspension['failures'][0]}" in text.splitlines()

    def test_a_family_that_raises_fails_and_the_sweep_goes_on(self, capsys, monkeypatch):
        """A family that raises is one failed check naming the exception,
        in the text and the JSON report; every other family still runs."""

        def raises(*bounds):
            raise ValueError("seeded")

        monkeypatch.setattr(laws, "law_hom_transport", raises)
        argv = ("laws", "--max-nodes", "2", "--dims-upto", "0")
        code, text, err = invoke(capsys, *argv)
        json_code, out, _ = invoke(capsys, *argv, "--json")
        assert (code, json_code, err) == (1, 1, "")
        lines = text.splitlines()
        failed = lines.index("hom-transport: 1 of 1 checks FAILED")
        assert lines[failed + 1] == "  raised ValueError: seeded"
        assert len(lines) == len(laws.FAMILIES) + 2 and lines[-1].startswith("1 of ")
        families = json.loads(out)["families"]
        assert [f["name"] for f in families] == list(laws.FAMILIES)
        assert [f["failures"] for f in families if f["failures"]] == [["raised ValueError: seeded"]]

    def test_a_raising_instance_fails_alone(self, capsys, monkeypatch):
        """A seeded hom_factor that raises on a chosen set of loop cells:
        each hom-transport instance that factors one of them fails once,
        naming its loop cell, its dimension set and the exception, out of
        the family's full 1,060 checks.  The seeded factor is in force only
        while hom-transport runs, since hom-roundtrip factors the same
        cells; every other family line is that of a clean sweep, and the
        JSON report agrees with the text."""
        argv = ("laws", "--max-nodes", "2", "--dims-upto", "1")
        clean = invoke(capsys, *argv)[1].splitlines()
        loops = laws.loop_corpus()
        chosen = set(random.Random(26).sample(loops, 40))
        raised = "raised ValueError: a chosen loop cell"
        messages = [
            f"{laws.cell_key(cell)} w={sorted(w)}: {raised}"
            for w in laws.all_dimsets(1)
            for cell in loops
            if cell in chosen or laws.op_cell(w, cell) in chosen
        ]
        raising = len(messages)
        assert 40 < raising < 1060
        real_factor, real_family = laws.hom_factor, laws.law_hom_transport

        def seeded_factor(pointed, cell):
            if cell in chosen:
                raise ValueError("a chosen loop cell")
            return real_factor(pointed, cell)

        def seeded_family(*bounds):
            with monkeypatch.context() as patch:
                patch.setattr(laws, "hom_factor", seeded_factor)
                return real_family(*bounds)

        monkeypatch.setattr(laws, "law_hom_transport", seeded_family)
        code, text, err = invoke(capsys, *argv)
        json_code, out, _ = invoke(capsys, *argv, "--json")
        assert (code, json_code, err) == (1, 1, "")
        lines = text.splitlines()
        failed = lines.index(f"hom-transport: {raising} of 1060 checks FAILED")
        assert lines[failed + 1 : failed + 7] == [f"  {m}" for m in messages[:5]] + [f"  ... {raising - 5} more"]
        others = lines[:failed] + lines[failed + 7 : -1]
        assert others == [line for line in clean[:-1] if not line.startswith("hom-transport: ")]
        total = int(clean[-1].split()[1])
        assert lines[-1] == f"{raising} of {total} checks failed"
        report = json.loads(out)
        assert (report["checks"], report["failed"]) == (total, raising)
        by_name = {f["name"]: f for f in report["families"]}
        assert by_name["hom-transport"]["checks"] == 1060
        assert by_name["hom-transport"]["failures"] == messages
        assert [f"{f['name']}: {f['checks']} checks ok" for f in report["families"] if not f["failures"]] == others

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("--max-nodes", "-1", "--dims-upto", "0"), "--max-nodes"),
            (("--dims-upto", "-1"), "--dims-upto"),
        ],
    )
    def test_json_bounds_out_of_range_are_usage_errors(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as err:
            run_cli(["laws", "--json", *argv])
        assert err.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err


def test_one_parser_serves_every_call(capsys, monkeypatch):
    """The argument parser is built once per process, and each call through
    it prints exactly what a fresh parser would: usage errors before and
    after a good verb, and a rejected bound."""
    calls = [("comp", "1", "0"), ("check", "samples/comp101.ctt"), ("comp", "1", "0"), ("laws", "--max-nodes", "0")]

    def outcome(argv):
        try:
            code = run_cli(list(argv))
        except SystemExit as exit:
            code = exit.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    with monkeypatch.context() as fresh_parsers:
        fresh_parsers.setattr(cli, "_parser", cli.build_parser)
        fresh = [outcome(argv) for argv in calls]
    assert [code for code, _, _ in fresh] == [2, 0, 2, 2]

    built = []
    build = cli.build_parser

    def counted():
        built.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    assert [outcome(argv) for argv in calls] == fresh
    assert len(built) == 1
