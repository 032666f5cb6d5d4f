"""End-to-end command invocations through main(argv).

Everything runs in process: stdout/stderr are captured with redirect_*
into StringIO, so these tests stay independent of pytest's own capture.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import burau
from burau import cli
from burau.cli import main
from burau.density import MAX_DEGREE, MAX_N, MIN_N, default_library
from burau.liealg import g_bracket, gen_x, gen_y
from burau.laurent import LaurentPoly
from burau.linalg import (LaurentMatrix, SquareMatrix, TruncMatrix,
                          perm_matrix)
from burau.rep import burau_eval, burau_eval_trunc, form_j
from burau.words import alpha_word, gen, parse_word

N = 5

DELTA_COEFF = [[0, 2, 0, 2, -4],
               [2, -2, -2, 1, 1],
               [0, -2, 0, -2, 4],
               [2, 1, -2, 1, -2],
               [-4, 1, 4, -2, 1]]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = [json.loads(l) for l in out.getvalue().splitlines() if l]
    return code, lines, err.getvalue()


def run_human(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def error_kind(err: str) -> str:
    return json.loads(err)["kind"]


# ---------------------------------------------------------------------------
# eval / check / depth / coeff / expand


def test_eval_generator():
    code, lines, _ = run(["eval", "--n", "2", "--word", "s1"])
    assert code == 0
    m = LaurentMatrix.from_json(lines[0]["matrix"])
    assert m == burau_eval(gen(2, 1))


def test_eval_empty_word_is_identity():
    code, lines, _ = run(["eval", "--n", "3", "--word", ""])
    assert code == 0
    assert LaurentMatrix.from_json(lines[0]["matrix"]) == LaurentMatrix.identity(3)


def test_eval_truncated_alpha():
    code, lines, _ = run(["eval", "--word", "ALPHA", "--truncate", "4"])
    assert code == 0
    assert lines[0]["matrix"] == burau_eval_trunc(alpha_word(N), 4).to_json()


def test_eval_let_rebinds_alpha():
    code, lines, _ = run(["eval", "--n", "3", "--let", "ALPHA=s1^2",
                          "--word", "ALPHA ALPHA"])
    assert code == 0
    m = LaurentMatrix.from_json(lines[0]["matrix"])
    assert m == burau_eval(parse_word("s1^4", 3))


def test_eval_human_output():
    code, text = run_human(["--human", "eval", "--n", "2", "--word", "s1"])
    assert code == 0
    assert not text.lstrip().startswith("{")
    code2, text2 = run_human(["eval", "--human", "--n", "2", "--word", "s1"])
    assert code2 == 0 and text2 == text


def test_eval_truncated_human_output():
    code, text = run_human(["--human", "eval", "--n", "3", "--word", "s1",
                            "--truncate", "3"])
    assert code == 0
    assert text.splitlines() == [
        "[   -s + O(s^3)      1 + O(s^3)      0 + O(s^3)]",
        "[1 + s + O(s^3)      0 + O(s^3)      0 + O(s^3)]",
        "[    0 + O(s^3)      0 + O(s^3)      1 + O(s^3)]"]


def test_check_pass_and_fail(tmp_path):
    code, lines, _ = run(["check", "--word", "A13 s2 s3^-1"])
    assert code == 0
    assert lines[0] == {"command": "check", "status": "pass", "violations": []}

    path = tmp_path / "bad.json"
    bad = LaurentMatrix.from_int(perm_matrix([2, 1, 3, 4, 5]))
    path.write_text(json.dumps(bad.to_json()))
    code, lines, _ = run(["check", "--matrix", str(path)])
    assert code == 1
    assert lines[0]["status"] == "fail"
    assert "fixes_v" in lines[0]["violations"]


def test_check_needs_input():
    code, _, err = run(["check"])
    assert code == 2
    assert error_kind(err) == "UsageError"

    code, _, err = run(["depth", "--truncate", "3"])
    assert code == 2
    assert error_kind(err) == "UsageError"


def test_eval_takes_a_word_and_no_matrix(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(burau_eval(gen(3, 1)).to_json()))
    for argv in (["eval", "--n", "3"],
                 ["eval", "--n", "3", "--matrix", str(path)]):
        code, lines, err = run(argv)
        assert (code, lines) == (2, [])
        assert error_kind(err) == "UsageError"
        assert "--word" in err or "--matrix" in err


def test_word_and_matrix_together_are_a_usage_error(tmp_path):
    # the matrix is the image of A12 (depth 1), the word s1 (depth 0): no
    # command may read one and ignore the other
    path = tmp_path / "a12.json"
    path.write_text(json.dumps(burau_eval(parse_word("A12", 5)).to_json()))
    for argv in (["check"], ["depth"], ["depth", "--truncate", "4"],
                 ["coeff", "--k", "1"], ["expand", "--precision", "2"]):
        code, lines, err = run([*argv, "--word", "s1", "--matrix", str(path)])
        assert (code, lines) == (2, [])
        assert error_kind(err) == "UsageError"
        assert "not allowed with" in err


def test_depth_delta():
    code, lines, _ = run(["depth", "--word", "DELTA"])
    assert code == 0
    assert lines[0]["depth"] == 5

    code, lines, _ = run(["depth", "--word", "DELTA", "--truncate", "8"])
    assert code == 0
    assert lines[0] == {"command": "depth", "depth": 5, "note": "exact"}


def test_depth_infinity():
    code, lines, _ = run(["depth", "--n", "4", "--word", "[s1 s2 s1, s2 s1 s2]"])
    assert code == 0
    assert lines[0]["depth"] == "infinity"


@pytest.mark.parametrize("word, depth", [
    ("s1^99999999", 0), ("A12^99999999", 1), ("[s1,s1]", "infinity")])
def test_depth_of_a_huge_power_is_read_from_a_truncation(word, depth):
    t0 = time.perf_counter()
    code, lines, _ = run(["depth", "--n", "3", "--word", word])
    assert time.perf_counter() - t0 < 1
    assert code == 0
    assert lines == [{"command": "depth", "depth": depth}]


def test_depth_of_a_word_matches_the_exact_depth():
    # depths up to 7 come from the truncation, 10 from the exact fold
    words = ["s1 s2^-1", "A12 A13^-1", "ALPHA", "DELTA",
             "[[A12,A13],[A12,A23]]", "[[[A12,A13],A12],[[A13,A23],A13]]",
             "[[[[A12,A13],A23],A12],[[A13,A23],A13]]",
             "[[[A12,A13],[A12,A23]],[[A13,A23],[A12,A13]]]"]
    depths = []
    for text in words:
        n = 5 if text in ("ALPHA", "DELTA") else 3
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["depth", "--n", str(n), "--word", text]) == 0
        depths.append(burau_eval(cli._parse(text, n, None)).depth())
        assert out.getvalue() == json.dumps(
            {"command": "depth", "depth": depths[-1]},
            separators=(",", ":")) + "\n"
    assert depths == [0, 1, 3, 5, 5, 6, 7, 10]


def test_depth_truncated_saturation():
    code, lines, _ = run(["depth", "--word", "DELTA", "--truncate", "4"])
    assert code == 0
    assert lines[0]["depth"] == 4
    assert "certified through s^3" in lines[0]["note"]


def test_coeff_delta():
    code, lines, _ = run(["coeff", "--word", "DELTA", "--k", "5"])
    assert code == 0
    el = lines[0]["element"]
    assert el["degree"] == 5
    assert el["matrix"] == DELTA_COEFF


def test_coeff_depth_too_small():
    code, _, err = run(["coeff", "--word", "s1", "--k", "1"])
    assert code == 1
    assert error_kind(err) == "DepthTooSmall"


def test_expand_identity_word():
    code, lines, _ = run(["expand", "--n", "4",
                          "--word", "[s1 s2 s1, s2 s1 s2]",
                          "--precision", "2"])
    assert code == 0
    c0, c1 = lines[0]["coefficients"]
    assert c0 == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert c1 == [[0] * 4 for _ in range(4)]


# ---------------------------------------------------------------------------
# bracket


def test_bracket_inline_json():
    a, b = gen_x(2, 4, N), gen_y(1, 2, 4, N)
    code, lines, _ = run(["bracket",
                          "--a", json.dumps(a.to_json()),
                          "--b", json.dumps(b.to_json())])
    assert code == 0
    expected = g_bracket(a, b)
    assert lines[0]["element"]["degree"] == expected.degree
    assert lines[0]["element"]["matrix"] == [list(r) for r in
                                             expected.matrix.rows]


def test_bracket_from_files(tmp_path):
    a, b = gen_x(1, 2, N), gen_x(1, 2, N)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a.to_json()))
    pb.write_text(json.dumps(b.to_json()))
    code, lines, _ = run(["bracket", "--a", f"@{pa}", "--b", f"@{pb}"])
    assert code == 0
    assert all(v == 0 for row in lines[0]["element"]["matrix"] for v in row)


# ---------------------------------------------------------------------------
# library and approximation


def test_library_build_and_verify(tmp_path):
    path = tmp_path / "lib.json"
    code, lines, _ = run(["library-build", "--max-degree", "2",
                          "--out", str(path)])
    assert code == 0
    assert lines[0]["status"] == "pass"
    assert lines[0]["sizes"] == {"1": 10, "2": 6}
    assert path.exists()

    code, lines, _ = run(["library-verify", "--library", str(path)])
    assert code == 0
    assert lines[0]["status"] == "pass"

    code, lines, _ = run(["library-verify", "--library", str(path), "--trust"])
    assert code == 0
    assert "--trust" in lines[0]["note"]


def test_library_verify_catches_corruption(tmp_path):
    path = tmp_path / "lib.json"
    data = default_library(N, 2).to_json()
    data["degrees"]["1"][0]["element"] = data["degrees"]["1"][1]["element"]
    path.write_text(json.dumps(data))
    code, _, err = run(["library-verify", "--library", str(path)])
    assert code == 1
    assert error_kind(err) == "LibraryIntegrityError"


def test_depth_regression_is_a_domain_failure(tmp_path):
    # a trusted library whose first two degree-1 coefficients are swapped
    # hands the approximation a correction that does not clear its degree
    data = json.loads(json.dumps(default_library(N, 2).to_json()))
    first, second = data["degrees"]["1"][:2]
    first["element"], second["element"] = second["element"], first["element"]
    lib = tmp_path / "lib.json"
    lib.write_text(json.dumps(data))
    gamma = tmp_path / "gamma.json"
    g = burau_eval(parse_word("A12 A13^2 A24", N))
    gamma.write_text(json.dumps(g.to_json()))
    code, lines, err = run(["approximate", "--gamma", str(gamma), "--k", "2",
                            "--library", str(lib), "--trust"])
    assert code == 1
    assert lines == []
    assert error_kind(err) == "DepthRegression"


def test_library_verify_missing_file(tmp_path):
    code, _, err = run(["library-verify", "--library",
                        str(tmp_path / "nope.json")])
    assert code == 2
    assert error_kind(err) == "FileNotFoundError"


def test_approximate_round_trip(tmp_path):
    g = burau_eval(parse_word("A13 A24", N))
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(g.to_json()))
    code, lines, _ = run(["approximate", "--gamma", str(path), "--k", "2"])
    assert code == 0
    payload = lines[0]
    assert payload["perStep"][0]["degree"] == 0
    assert [s["degree"] for s in payload["perStep"]] == [0, 1, 2]
    word = parse_word(payload["word"], N)
    diff = g.truncate(3).inverse() * burau_eval_trunc(word, 3)
    assert diff.depth_bound() >= 3


def test_approximate_rejects_outsider(tmp_path):
    bad = LaurentMatrix.from_int(perm_matrix([2, 1, 3, 4, 5]))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    code, _, err = run(["approximate", "--gamma", str(path), "--k", "2"])
    assert code == 1
    assert error_kind(err) == "NotInGamma"


# ---------------------------------------------------------------------------
# search


def test_search_delta_small_budget():
    code, lines, _ = run(["search", "--delta", "--budget", "22"])
    assert code == 0
    summary = lines[-1]
    assert summary["candidates"] == 22
    assert summary["hits"] == 1
    assert summary["budgetExhausted"] is True
    assert lines[0]["hit"]["index"] == 21
    assert lines[0]["hit"]["depth"] == 5


@pytest.mark.parametrize("argv, golden", [
    (["search", "--alpha", "--budget", "20000"], "search_alpha_budget_20000.out"),
    (["search", "--delta", "--budget", "100"], "search_delta_budget_100.out"),
])
def test_search_stdout_matches_the_golden_file(argv, golden):
    # the files hold the stdout of the one-prefix-at-a-time scan that the
    # batched scan replaced: same hits, indices, words and counts, byte for
    # byte
    path = os.path.join(os.path.dirname(__file__), "data", golden)
    with open(path, encoding="utf-8") as fh:
        want = fh.read()
    assert run_human(argv) == (0, want)


def test_search_config_file(tmp_path):
    cfg = {"n": 5, "targetDepth": 2, "pool": ["A12", "A13"],
           "maxNesting": 1, "maxTerms": 1, "precision": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, lines, _ = run(["search", "--config", str(path)])
    assert code == 0
    assert lines[-1]["hits"] == 1
    assert lines[0]["hit"]["index"] == 2


def test_search_config_sets_the_strand_count_of_its_bindings(tmp_path):
    cfg = {"n": 6, "targetDepth": 3, "pool": ["ALPHA", "X"], "budget": 4}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, lines, _ = run(["search", "--config", str(path), "--let", "X=s5"])
    assert code == 0
    assert lines[-1] == {"command": "search", "candidates": 4, "hits": 1,
                         "budgetExhausted": False}
    assert len(lines[0]["hit"]["leading"]["matrix"]) == 6
    # the strand count comes from the file alone
    assert_usage_error(*run(["search", "--config", str(path), "--n", "6"]),
                       "--n")


def test_search_needs_a_mode():
    code, _, err = run(["search"])
    assert code == 2
    assert error_kind(err) == "UsageError"


def test_search_modes_exclude_each_other():
    code, lines, err = run(["search", "--alpha", "--delta", "--budget", "5"])
    assert code == 2
    assert lines == []
    assert error_kind(err) == "UsageError"


# ---------------------------------------------------------------------------
# verify-paper guards and argument plumbing


def test_verify_paper_rejects_small_n():
    code, _, err = run(["verify-paper", "--n", "4"])
    assert code == 2
    assert error_kind(err) == "UsageError"


def test_verify_paper_rejects_small_degree():
    code, _, err = run(["verify-paper", "--max-degree", "2"])
    assert code == 2
    assert error_kind(err) == "UsageError"


def test_verify_paper_fails_under_optimize():
    # python -O strips assert statements; a broken invariant must still fail
    script = ("import sys\n"
              "import burau.checks as checks\n"
              "import burau.cli as cli\n"
              "if __debug__:\n"
              "    sys.exit(3)\n"
              "checks.vector_v = checks.ones_row\n"
              "sys.exit(cli.main(['verify-paper', '--n', '5', '--max-degree', '3']))\n")
    src = os.path.dirname(os.path.dirname(burau.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stderr
    status = {line["check"]: line["status"]
              for line in map(json.loads, proc.stdout.splitlines())}
    assert status["fixed-vector"] == "fail"
    assert status["fixed-row"] == "pass"


PAPER_CHECKS = [
    "generator-blocks", "fixed-vector", "fixed-row", "hermitian-form",
    "permutation-reduction", "filtration-bracket", "graded-invariants",
    "determinant-one", "bracket-formulas", "orbit-spans-degree3",
    "bracket-lattices", "symmetric-reconstruction", "banded-skew-sums",
    "phi-expansion-identity", "phi-witness-independence", "phi-coset-value",
    "alpha-reproduction", "delta-reproduction", "library-spans",
    "induction-congruence", "solve-roundtrip", "approximation-roundtrip"]


def test_verify_paper_passes():
    code, lines, _ = run(["verify-paper", "--n", "5", "--max-degree", "3"])
    assert code == 0
    assert [line["check"] for line in lines] == PAPER_CHECKS
    assert all(line["status"] == "pass" for line in lines)


def test_let_validation():
    code, _, err = run(["eval", "--let", "A=s1^2", "--word", "A"])
    assert code == 2
    assert error_kind(err) == "UsageError"

    code, _, err = run(["eval", "--let", "X=s1", "--let", "X=s2",
                        "--word", "X"])
    assert code == 2
    assert error_kind(err) == "UsageError"

    code, _, err = run(["eval", "--let", "Xs1", "--word", "X"])
    assert code == 2
    assert error_kind(err) == "UsageError"


def test_parse_error_exit_code():
    code, _, err = run(["eval", "--word", "[s1 s2"])
    assert code == 2
    assert error_kind(err) == "ParseError"

    code, _, err = run(["eval", "--word", "UNBOUND"])
    assert code == 2
    assert error_kind(err) == "ParseError"


def test_index_error_exit_code():
    code, _, err = run(["eval", "--n", "3", "--word", "s5"])
    assert code == 1
    assert error_kind(err) == "IndexOutOfRange"


def test_usage_exit_codes():
    # help text is not JSON, so go through the raw runner
    assert run_human(["--help"])[0] == 0
    assert run_human([])[0] == 2
    assert run_human(["no-such-command"])[0] == 2


def test_reused_parser_prints_what_a_fresh_parser_prints(monkeypatch):
    # main builds its parser once per process; no --let binding, --human
    # flag or subcommand default may carry over to the next call
    session = [
        ["eval", "--n", "3", "--let", "B=s1^2", "--let", "C=s2",
         "--word", "B C"],
        ["eval", "--n", "3", "--word", "B"],
        ["eval", "--n", "3", "--let", "C=s1", "--word", "C"],
        ["--human", "depth", "--word", "ALPHA"],
        ["depth", "--word", "ALPHA"],
        ["coeff", "--word", "ALPHA", "--k", "3", "--human"],
        ["coeff", "--word", "ALPHA", "--k", "3"],
        ["eval", "--n", "2", "--word", "s1", "--truncate", "2"],
        ["eval", "--n", "2", "--word", "s1"],
        ["check", "--n", "3", "--word", "s1 s2"],
        ["expand", "--n", "2", "--word", "s1", "--precision", "2"],
        ["eval", "--word", "s1", "--truncate", "0"],
        ["search", "--delta", "--budget", "5"],
        ["eval", "--human", "--n", "2", "--word", "s1^-1"],
    ]

    def outputs():
        got = []
        for argv in session:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            got.append((code, out.getvalue(), err.getvalue()))
        return got

    reused = outputs()
    assert reused[1][0] == 2 and "B" in reused[1][2]  # the binding is gone
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outputs() == reused


# ---------------------------------------------------------------------------
# argument errors: exit 2 with one JSON line naming a UsageError


def test_truncate_zero_is_a_usage_error():
    for command in ("eval", "depth"):
        code, _, err = run([command, "--word", "s1", "--truncate", "0"])
        assert code == 2
        assert error_kind(err) == "UsageError"


def test_precision_zero_is_a_usage_error():
    code, _, err = run(["expand", "--word", "s1", "--precision", "0"])
    assert code == 2
    assert error_kind(err) == "UsageError"


def test_coeff_degree_zero_is_a_usage_error():
    code, _, err = run(["coeff", "--word", "s1", "--k", "0"])
    assert code == 2
    assert error_kind(err) == "UsageError"


def test_nonpositive_strand_counts_are_usage_errors(tmp_path):
    extra = {"coeff": ["--k", "1"], "expand": ["--precision", "2"]}
    for command in ("eval", "check", "depth", "coeff", "expand"):
        for n, word in (("0", ""), ("-2", "s1")):
            code, _, err = run([command, "--n", n, "--word", word]
                               + extra.get(command, []))
            assert code == 2
            assert error_kind(err) == "UsageError"
            assert "--n" in err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 0, "targetDepth": 2, "pool": ["s1"]}))
    assert_usage_error(*run(["search", "--config", str(path), "--budget", "1"]),
                       str(path), "n must be at least 1")


def test_empty_matrix_file_is_a_usage_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 0, "entries": []}))
    extra = {"coeff": ["--k", "1"], "expand": ["--precision", "2"]}
    for command in ("check", "depth", "coeff", "expand"):
        assert_usage_error(*run([command, "--matrix", str(path)]
                                + extra.get(command, [])),
                           str(path), "n must be at least 1")


@pytest.mark.parametrize("mode", ["--alpha", "--delta"])
def test_search_bindings_need_a_config(mode):
    # the binding is not even parsed: --let means nothing without --config
    assert_usage_error(*run(["search", mode, "--budget", "1",
                             "--let", "X=s1 (("]), "--let", "--config")


def test_negative_search_budget_is_a_usage_error():
    code, _, err = run(["search", "--alpha", "--budget", "-5"])
    assert code == 2
    assert error_kind(err) == "UsageError"


def test_nonpositive_counts_are_usage_errors(tmp_path):
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps(burau_eval(parse_word("A13", N)).to_json()))
    gamma, out = str(gamma), str(tmp_path / "lib.json")
    for argv in (["approximate", "--gamma", gamma, "--k", "0"],
                 ["approximate", "--gamma", gamma, "--k", "-1"],
                 ["library-build", "--out", out, "--max-degree", "0"]):
        code, _, err = run(argv)
        assert code == 2
        assert error_kind(err) == "UsageError"


def test_unsupported_sizes_are_usage_errors(tmp_path):
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps(burau_eval(parse_word("A13", N)).to_json()))
    gamma, out = str(gamma), str(tmp_path / "lib.json")
    n, k = str(MAX_N + 1), str(MAX_DEGREE + 1)
    for argv, option in (
            (["library-build", "--out", out, "--n", n], "--n"),
            (["library-build", "--out", out, "--max-degree", k],
             "--max-degree"),
            (["verify-paper", "--n", n], "--n"),
            (["verify-paper", "--max-degree", k], "--max-degree"),
            (["approximate", "--gamma", gamma, "--k", k], "--k")):
        assert_usage_error(*run(argv), option, "supported range")


def test_strand_counts_outside_the_libraries_are_usage_errors(tmp_path):
    # the range is read from density, not from a copy of its bounds
    gamma = tmp_path / "gamma.json"
    wide = MAX_N + 1
    gamma.write_text(json.dumps(burau_eval(parse_word("A13", wide)).to_json()))
    supported = f"supported range {MIN_N}..{MAX_N}"
    assert_usage_error(*run(["library-build", "--n", str(MIN_N - 1),
                             "--max-degree", "2",
                             "--out", str(tmp_path / "lib.json")]),
                       f"--n {MIN_N - 1}", supported)
    assert_usage_error(*run(["approximate", "--gamma", str(gamma),
                             "--k", "2"]),
                       f"--gamma strand count {wide}", supported)
    assert not (tmp_path / "lib.json").exists()


def test_exact_check_flags_exclude_each_other(tmp_path):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps(burau_eval(parse_word("A13", N)).to_json()))
    code, lines, err = run(["approximate", "--gamma", str(path), "--k", "2",
                            "--exact-check", "--no-exact-check"])
    assert code == 2
    assert lines == []
    assert error_kind(err) == "UsageError"


def test_matrix_file_without_entries_is_a_usage_error(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 3}))
    code, _, err = run(["check", "--matrix", str(path)])
    assert code == 2
    assert error_kind(err) == "UsageError"


# malformed JSON inputs: exit 2 with one JSON line naming the source and field


def assert_usage_error(code, lines, err, *names):
    assert code == 2
    assert lines == []
    error = json.loads(err)
    assert error["kind"] == "UsageError"
    for name in names:
        assert name in error["error"]


def test_graded_argument_without_matrix_is_a_usage_error():
    assert_usage_error(*run(["bracket", "--a", '{"degree":1}',
                             "--b", '{"degree":1}']), "--a", "matrix")


def test_matrix_file_with_non_integer_entry_is_a_usage_error(tmp_path):
    for bad in (1.6, True):
        data = LaurentMatrix.identity(3).to_json()
        data["entries"][0][0] = {"t": {"0": bad}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        for command in ("check", "depth"):
            assert_usage_error(*run([command, "--matrix", str(path)]),
                               str(path), "integer")


def test_graded_argument_with_non_integer_is_a_usage_error():
    b = '{"degree":1,"matrix":[[0,0,0],[0,1,-1],[0,-1,1]]}'
    for a in ('{"degree":1,"matrix":[[1.7,-1,0],[-1,1,0],[0,0,0]]}',
              '{"degree":1,"matrix":[[true,-1,0],[-1,true,0],[0,0,0]]}',
              '{"degree":1.9,"matrix":[[1,-1,0],[-1,1,0],[0,0,0]]}'):
        assert_usage_error(*run(["bracket", "--a", a, "--b", b]),
                           "--a", "integer")


def test_search_config_without_pool_is_a_usage_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 5}))
    assert_usage_error(*run(["search", "--config", str(path)]),
                       str(path), "pool")


@pytest.mark.parametrize("pool", [{"A12": 1}, "A12 A13", [5]],
                         ids=["object", "string", "number"])
def test_search_config_pool_that_is_not_a_list_of_words_is_a_usage_error(
        tmp_path, pool):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 5, "targetDepth": 2, "pool": pool}))
    assert_usage_error(*run(["search", "--config", str(path)]),
                       str(path), "pool: expected a list of words")


def test_library_without_degrees_is_a_usage_error(tmp_path):
    path = tmp_path / "lib.json"
    path.write_text(json.dumps({"n": 5}))
    assert_usage_error(*run(["library-verify", "--library", str(path)]),
                       str(path), "maxDegree")


def test_search_config_with_out_of_range_field_is_a_usage_error(tmp_path):
    good = {"n": 5, "targetDepth": 2, "pool": ["A12", "A13"], "precision": 3,
            "budget": None}
    path = tmp_path / "cfg.json"
    for field in ("resultCap", "targetDepth"):
        path.write_text(json.dumps({**good, field: 0}))
        assert_usage_error(*run(["search", "--config", str(path)]), str(path))


def test_search_config_nested_too_deep_is_a_usage_error(tmp_path):
    # 33 674 commutator terms: refused from a count, before any is built
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 3, "targetDepth": 1,
                                "pool": ["s1^2", "s2^2"], "maxNesting": 4,
                                "budget": 10}))
    start = time.perf_counter()
    assert_usage_error(*run(["search", "--config", str(path)]),
                       str(path), "33674 commutator terms")
    assert time.perf_counter() - start < 5


def test_graded_argument_off_the_lattice_is_a_usage_error():
    a = '{"degree":1,"matrix":[[1,0,0],[0,1,-1],[0,-1,1]]}'
    b = '{"degree":1,"matrix":[[0,0,0],[0,1,-1],[0,-1,1]]}'
    assert_usage_error(*run(["bracket", "--a", a, "--b", b]),
                       "--a", "sum to zero")


def test_search_config_with_non_integer_field_is_a_usage_error(tmp_path):
    good = {"n": 5, "targetDepth": 2, "pool": ["A12", "A13"], "precision": 3,
            "budget": None}
    path = tmp_path / "cfg.json"
    for field, bad in (("n", 5.2), ("targetDepth", 3.7), ("precision", 3.5),
                       ("budget", "50"), ("maxTerms", True)):
        path.write_text(json.dumps({**good, field: bad}))
        assert_usage_error(*run(["search", "--config", str(path)]),
                           str(path), field, "integer")


def test_library_with_non_integer_field_is_a_usage_error(tmp_path):
    good = default_library(N, 2).to_json()
    path = tmp_path / "lib.json"
    for field, bad in (("n", 5.0), ("maxDegree", 2.4)):
        path.write_text(json.dumps({**good, field: bad}))
        assert_usage_error(*run(["library-verify", "--library", str(path)]),
                           str(path), field, "integer")


def test_approximate_library_without_degrees_is_a_usage_error(tmp_path):
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps(burau_eval(parse_word("A13", N)).to_json()))
    path = tmp_path / "lib.json"
    path.write_text(json.dumps({"n": 5}))
    assert_usage_error(*run(["approximate", "--gamma", str(gamma), "--k", "2",
                             "--library", str(path)]), str(path), "maxDegree")


def test_approximate_outside_the_library_is_a_usage_error(tmp_path):
    lib = tmp_path / "lib.json"
    lib.write_text(json.dumps(default_library(N, 2).to_json()))
    gamma = tmp_path / "gamma.json"
    # a degree above the library's, and a matrix on another strand count
    for n, k, name in ((N, "3", "--k 3"), (N + 1, "2", "strands")):
        gamma.write_text(json.dumps(burau_eval(parse_word("A13", n)).to_json()))
        assert_usage_error(*run(["approximate", "--gamma", str(gamma),
                                 "--k", k, "--library", str(lib)]),
                           str(lib), name)


def test_check_of_a_matrix_with_far_apart_degrees(tmp_path):
    far = LaurentPoly({10 ** 9: 1})
    m = LaurentMatrix([[1, far, 0], [0, 1, 0], [0, 0, 1]])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m.to_json()))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code, lines, _ = run(["check", "--matrix", str(path)])
        seconds = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    j = form_j(3)
    unitary = SquareMatrix._product(SquareMatrix._product(m.star(), j), m) == j
    assert not unitary
    assert code == 1
    assert lines[0]["status"] == "fail"
    assert "unitary" in lines[0]["violations"]
    assert seconds < 0.5
    assert peak < 1 << 20


def test_depth_of_a_matrix_with_a_far_exponent(tmp_path):
    # t^(10^9) - 1 is read from its s-expansion, never expanded densely
    m = LaurentMatrix([[LaurentPoly({10 ** 9: 1}), 0], [0, 1]])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m.to_json()))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code, lines, _ = run(["depth", "--matrix", str(path)])
        seconds = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert lines[0]["depth"] == 1
    assert seconds < 0.5
    assert peak < 1 << 20


def test_internal_invariant_failure_exits_3(monkeypatch):
    import burau.search

    def identities(a, b):
        # a recheck product that answers the identity for every pair
        p, na, n, _ = a.shape
        ident = TruncMatrix.identity(n, p).stack[:, None]
        return np.repeat(ident, na * b.shape[1], axis=1)

    monkeypatch.setattr(burau.search, "trunc_mul_ints", identities)
    code, _, err = run(["search", "--delta", "--budget", "30"])
    assert code == 3
    assert error_kind(err) == "AssertionError"
    assert "recheck disagrees with the scan" in json.loads(err)["error"]


def test_closed_stdout_exits_without_traceback():
    src = os.path.dirname(os.path.dirname(burau.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "burau.cli", "--human", "verify-paper",
         "--n", "5", "--max-degree", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=600) == 1
    assert first.startswith("PASS generator-blocks")
    assert err == ""
