"""CLI driver: golden outputs, exit codes, and the law harness verb."""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from omegatt import cli, laws
from omegatt.cli import run_cli
from omegatt.computads import TypecheckError
from omegatt.homcat import HomFactorError
from omegatt.metaops import NotASuspension
from omegatt.oplib import BoundaryMismatch
from omegatt.surface import SourceLocation, SurfaceError
from omegatt.trees import MAX_COMP_DIM

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


class TestExitCodes:
    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "check", "samples/nope.ctt")
        assert code == 2
        assert "nope.ctt" in err

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
        assert f"max(n, m) <= {MAX_COMP_DIM}" in err

    def test_tree_literal_beyond_the_bound(self, capsys, tmp_path):
        source = tmp_path / "deep.ctt"
        source.write_text(f"let t = coh {'[' * 3000}{']' * 3000} {{ x -> x }} []\n")
        at = len("let t = coh ") + MAX_COMP_DIM + 1  # the first '[' too many
        assert invoke(capsys, "check", str(source)) == (
            1, "", f"{source}:1:{at}: tree literal nested more than {MAX_COMP_DIM} deep\n"
        )

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
        ],
    )
    def test_file_that_is_not_utf8_is_check_error(self, capsys, tmp_path, data, where):
        source = tmp_path / "bytes.ctt"
        source.write_bytes(data)
        assert invoke(capsys, "check", str(source)) == (1, "", f"{source}:{where}: not UTF-8 text\n")

    def test_hom_checks_endpoints(self, capsys):
        code, _, err = invoke(
            capsys, "hom", "--src", "x", "--tgt", "y", "factor", "fg", "samples/comp101.ctt"
        )
        assert code == 1
        assert "runs" in err


@pytest.mark.parametrize(
    "error",
    [
        TypecheckError("NotFull", ("sphere",), "m"),
        NotASuspension(("sub",), "m"),
        HomFactorError(("sub",), "m"),
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

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("--max-nodes", "-1", "--dims-upto", "0"), "--max-nodes"),
            (("--max-nodes", "0"), "--max-nodes"),
            (("--dims-upto", "-1"), "--dims-upto"),
            (("--max-nodes", "two"), "--max-nodes"),
        ],
    )
    def test_bounds_out_of_range_are_usage_errors(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as err:
            run_cli(["laws", *argv])
        assert err.value.code == 2
        usage = capsys.readouterr().err
        assert usage.startswith("usage: omegatt laws")
        assert f"argument {flag}:" in usage

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
