"""Witness library construction and the approximation loop.

Library sizes and step coefficient vectors are frozen from runs of the
builder; the spanning facts they depend on (orbit of X_24 - X_13 spans
degree 3 at n = 5, bracket lattices fill the even degrees) are certified
independently in the Lie algebra tests.
"""

import json
import math
import random

import pytest

from burau import density, laurent, linalg
from burau.checks import random_word
from burau.density import (LibraryIntegrityError, NoSolution, NotInGamma,
                           SpanFailure, WitnessLibrary, approximate,
                           build_witness_library, default_library,
                           solve_in_degree)
from burau.liealg import GradedElement, g_basis, g_lattice, gen_x
from burau.linalg import IntMatrix, LaurentMatrix, TruncMatrix, perm_matrix
from burau.rep import burau_eval, burau_eval_trunc, burau_gamma, gamma_coeff
from burau.words import (Power, alpha_word, commutator, concat, delta_word,
                         flatten, gen, letter_bound, node_count, parse_word,
                         pure_gen, word_format)

N = 5


# ---------------------------------------------------------------------------
# building


def test_build_sizes_n5():
    lib = default_library(N, 4)
    assert {k: len(lib.witnesses(k)) for k in range(1, 5)} == {
        1: 10, 2: 6, 3: 10, 4: 7}


def test_build_sizes_n6():
    lib = build_witness_library(6, 2)
    assert {k: len(lib.witnesses(k)) for k in (1, 2)} == {1: 15, 2: 10}


def test_each_degree_spans():
    lib = default_library(N, 4)
    for k in range(1, 5):
        assert lib.coefficient_lattice(k) == g_lattice(N, k)


def test_witness_coefficients_are_honest():
    lib = default_library(N, 4)
    for k in range(1, 5):
        for w in lib.witnesses(k):
            assert gamma_coeff(w.word, k) == w.element


def test_degree_three_starts_from_the_seed():
    lib = default_library(N, 4)
    first = lib.witnesses(3)[0]
    assert flatten(first.word) == flatten(alpha_word(N))
    assert first.element.matrix == (gen_x(2, 4, N) - gen_x(1, 3, N)).matrix


def test_degree_three_inductor_is_stored_and_listed():
    lib = default_library(N, 4)
    ind = lib.inductors[3]
    assert flatten(ind.word) == flatten(commutator(alpha_word(N), gen(N, 4)))
    assert ind.element.matrix == (gen_x(2, 4, N) - gen_x(2, 5, N)).matrix
    assert lib.witnesses(3)[-1] is ind


def test_degree_five_starts_from_the_induction_word():
    lib = default_library(N, 5)
    first = lib.witnesses(5)[0]
    assert flatten(first.word) == flatten(delta_word(N))
    assert first.element == gamma_coeff(delta_word(N), 5)
    # and the normalized inductor was solved back to the exact target
    assert lib.inductors[5].element.matrix == (gen_x(2, 4, N)
                                               - gen_x(2, 5, N)).matrix


def test_build_rejects_small_n():
    with pytest.raises(SpanFailure) as exc:
        build_witness_library(3, 3)
    assert exc.value.degree == 3
    with pytest.raises(SpanFailure) as exc:
        build_witness_library(4, 3)
    assert exc.value.degree == 3


def test_build_caps():
    with pytest.raises(ValueError):
        build_witness_library(9, 2)
    with pytest.raises(ValueError):
        build_witness_library(5, 7)
    with pytest.raises(ValueError):
        build_witness_library(1, 1)


def test_build_caps_name_the_supported_range():
    with pytest.raises(ValueError, match=r"n <= 8, K <= 6"):
        build_witness_library(9, 2)


def test_build_is_certified_by_verify(monkeypatch):
    # a wrong prediction is stored as the witness's coefficient; the build
    # trusts predictions, so only its closing verify() can catch it
    real = density._degree_candidates

    def tampered(n, k, *rest):
        for i, (pred, word) in enumerate(real(n, k, *rest)):
            yield (-pred if (k, i) == (2, 0) else pred), word

    monkeypatch.setattr(density, "_degree_candidates", tampered)
    with pytest.raises(LibraryIntegrityError):
        build_witness_library(N, 3)


def test_witness_degree_range():
    lib = default_library(N, 4)
    with pytest.raises(ValueError):
        lib.witnesses(5)
    with pytest.raises(ValueError):
        lib.witnesses(0)


# ---------------------------------------------------------------------------
# serialization and verification


def test_library_json_round_trip(tmp_path):
    lib = default_library(N, 3)
    path = tmp_path / "lib.json"
    lib.save(str(path))
    again = WitnessLibrary.load(str(path), trust=True)
    assert again.n == lib.n and again.max_degree == lib.max_degree
    for k in range(1, 4):
        assert [flatten(w.word) for w in again.witnesses(k)] == \
               [flatten(w.word) for w in lib.witnesses(k)]
        assert [w.element for w in again.witnesses(k)] == \
               [w.element for w in lib.witnesses(k)]
    assert flatten(again.inductors[3].word) == flatten(lib.inductors[3].word)


def test_verify_passes_on_fresh_library():
    default_library(N, 3).verify()


def test_verify_catches_swapped_coefficient(tmp_path):
    data = default_library(N, 3).to_json()
    data = json.loads(json.dumps(data))
    # a valid degree-1 element, but not this word's coefficient
    data["degrees"]["1"][0]["element"] = data["degrees"]["1"][1]["element"]
    WitnessLibrary.from_json(data, trust=True)  # trust skips the check
    with pytest.raises(LibraryIntegrityError):
        WitnessLibrary.from_json(data, trust=False)


def test_verify_catches_wrong_inductor():
    data = json.loads(json.dumps(default_library(N, 3).to_json()))
    seed = GradedElement(3, (gen_x(2, 4, N) - gen_x(1, 3, N)).matrix)
    data["inductors"]["3"]["element"] = seed.to_json()
    with pytest.raises(LibraryIntegrityError):
        WitnessLibrary.from_json(data, trust=False)


def test_inductor_must_be_listed_among_its_degree():
    data = json.loads(json.dumps(default_library(N, 3).to_json()))
    data["inductors"]["3"]["word"] = "s4 " + data["inductors"]["3"]["word"]
    with pytest.raises(LibraryIntegrityError):
        WitnessLibrary.from_json(data, trust=True)


def test_verify_induction_alone():
    default_library(N, 3).verify_induction()


def test_verify_evaluates_each_witness_once(monkeypatch):
    lib = build_witness_library(N, 5)
    words = []
    real = density.burau_eval_trunc
    monkeypatch.setattr(density, "burau_eval_trunc",
                        lambda w, p, memo=None:
                        words.append(w) or real(w, p, memo))
    lib.verify()
    # each listed witness once (the inductors are listed among their
    # degree's witnesses), plus the induction words from degrees 3 and 5
    assert len(words) == sum(len(lib.witnesses(k)) for k in range(1, 6)) + 2


def test_verify_of_a_loaded_library_evaluates_each_witness_once(monkeypatch):
    data = json.loads(json.dumps(default_library(N, 5).to_json()))
    lib = WitnessLibrary.from_json(data, trust=True)
    words = []
    real = density.burau_eval_trunc
    monkeypatch.setattr(density, "burau_eval_trunc",
                        lambda w, p, memo=None:
                        words.append(w) or real(w, p, memo))
    lib.verify()
    assert len(words) == sum(len(lib.witnesses(k)) for k in range(1, 6)) + 2


# ---------------------------------------------------------------------------
# the library's fold memo and interned words


@pytest.mark.parametrize("n", [5, 6])
def test_memo_images_match_fresh_evaluation(n):
    # each witness's image mod s^(K+1), read from the one shared memo, cut
    # to k + 1 degrees is its fresh image mod s^(k+1)
    lib = default_library(n, 6)
    memo = lib.fold_memo(7)
    for k in range(1, 7):
        for w in lib.witnesses(k):
            fresh = burau_eval_trunc(w.word, k + 1)
            shared = memo[w.word, False]
            assert TruncMatrix(shared.stack[:k + 1]) == fresh
            assert fresh.coefficient(k) == w.element.matrix


def test_induction_brackets_from_the_memo_match_fresh_ones(monkeypatch):
    # the bracket [A_25^2 A_45, W] mod s^(k+3) folds W from its image mod
    # s^(k+2) with a zero next degree; it must be the fresh bracket
    lib = default_library(N, 6)
    folds = []
    real = density.burau_eval_trunc

    def spy(w, p, memo=None):
        out = real(w, p, memo)
        folds.append((w, p, bool(memo), out))
        return out

    monkeypatch.setattr(density, "burau_eval_trunc", spy)
    lib.verify_induction()
    assert [(p, given) for _w, p, given, _out in folds] == [(6, True),
                                                            (8, True)]
    for w, p, _given, out in folds:
        assert out == real(w, p)


def _approximations(lib, degrees):
    words = ("A13 A24^-1 s2^2", "[A13 A24, s4] A12^-2 A35 s2",
             "s1 s3^-1 A25 s2 [A14, A23]^3")
    return [approximate(burau_eval(parse_word(t, N)), k, library=lib,
                        exact_check=False).to_json()
            for t in words for k in degrees]


def test_approximate_is_the_same_with_and_without_the_memo(monkeypatch):
    built = default_library(N, 6)
    loaded = WitnessLibrary.from_json(
        json.loads(json.dumps(built.to_json())), trust=True)
    assert loaded._memo is None
    # K = 6, and below it through the memo's images cut to fewer degrees
    libs = (built, loaded)
    got = [_approximations(lib, (6, 5, 3)) for lib in libs]
    # a trusted library fills its memo on first use
    assert loaded._memo is not None
    # the same answers either way, words included
    assert got[0] == got[1]
    # the oracle: every word folded afresh, as without a memo
    monkeypatch.setattr(WitnessLibrary, "fold_memo", lambda self, p: {})
    assert [_approximations(lib, (6, 5, 3)) for lib in libs] == got


def test_verify_folds_afresh_and_publishes_its_memo():
    lib = build_witness_library(N, 5)
    # certification must not read an earlier memo: poison every entry
    ident = TruncMatrix.identity(N, 6)
    lib._memo = dict.fromkeys(lib._memo, ident)
    lib.verify()
    assert lib._memo and all(m is not ident for m in lib._memo.values())


def test_approximation_reuses_the_coefficient_lattices(monkeypatch):
    # a built library keeps the lattices its verify() made: approximating
    # makes no HNF, where it used to make one per nonzero step
    lib = build_witness_library(N, 5)
    assert sorted(lib._lattices) == [1, 2, 3, 4, 5]
    calls = [0]
    real = linalg.row_hnf

    def counting(rows):
        calls[0] += 1
        return real(rows)

    monkeypatch.setattr(linalg, "row_hnf", counting)
    assert _approximations(lib, (5,))
    assert calls[0] == 0
    # a trusted library makes each degree's lattice once
    loaded = WitnessLibrary.from_json(
        json.loads(json.dumps(lib.to_json())), trust=True)
    _approximations(loaded, (5,))
    assert calls[0] == 5


def test_approximate_leaves_the_library_memo_alone():
    lib = build_witness_library(N, 5)
    keys = dict.fromkeys(lib._memo)
    values = list(lib._memo.values())
    _approximations(lib, (5, 3))
    assert list(lib._memo) == list(keys)
    assert all(a is b for a, b in zip(lib._memo.values(), values))


def test_an_edit_in_one_copy_of_a_shared_subword_is_caught():
    data = json.loads(json.dumps(default_library(N, 6).to_json()))
    inner = data["degrees"]["5"][0]["word"]
    users = [w for w in data["degrees"]["6"] if inner in w["word"]]
    assert len(users) >= 2
    victim, other = users[0], users[1]
    # the victim's copy squared: its degree-6 coefficient doubles
    victim["word"] = victim["word"].replace(inner, f"({inner})^2", 1)
    lib = WitnessLibrary.from_json(data, trust=True)
    assert word_format(lib.witnesses(6)[data["degrees"]["6"].index(other)]
                       .word) == other["word"]
    with pytest.raises(LibraryIntegrityError, match="different coefficient"):
        WitnessLibrary.from_json(data)


@pytest.mark.parametrize("n", [5, 6])
def test_interned_witnesses_format_as_their_text(n):
    data = json.loads(json.dumps(default_library(n, 6).to_json()))
    lib = WitnessLibrary.from_json(data, trust=True)
    words = [w.word for k in range(1, 7) for w in lib.witnesses(k)]
    texts = [w["word"] for k in range(1, 7) for w in data["degrees"][str(k)]]
    apart = [parse_word(text, n) for text in texts]
    assert [word_format(w) for w in words] == texts
    assert [word_format(w) for w in apart] == texts
    # the text repeats its subwords; the loaded words share them
    assert 5 * node_count(concat(*words)) < node_count(concat(*apart))


def test_save_load_save_is_byte_identical(tmp_path):
    # every "(x)^-1" in the file is read back as the Inverse it was written
    # from, so the text survives a round trip
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    default_library(N, 6).save(str(first))
    WitnessLibrary.load(str(first), trust=True).save(str(second))
    assert "^-1" in first.read_text(encoding="utf-8")
    assert second.read_bytes() == first.read_bytes()


def test_witness_power_costs_no_products(monkeypatch):
    # a depth-5 witness is I + N with N = 0 mod s^5, so at precision 7 its
    # k-th power is I + kN for every k: no product beyond the witness's own
    w = default_library(N, 5).witnesses(5)[0].word
    count = [0]
    real = TruncMatrix.__mul__

    def counting(a, b):
        count[0] += 1
        return real(a, b)

    monkeypatch.setattr(TruncMatrix, "__mul__", counting)
    plain = burau_eval_trunc(w, 7)
    products = count[0]
    count[0] = 0
    powered = burau_eval_trunc(Power(N, w, 10 ** 40), 7)
    assert count[0] == products
    assert plain.depth_bound() == 5
    nil = plain - TruncMatrix.identity(N, 7)
    assert powered == TruncMatrix(plain.stack + (10 ** 40 - 1) * nil.stack)


def test_truncated_evaluation_multiplies_no_series(monkeypatch):
    # truncated images are literal runs built on the coefficient stack and
    # multiplied as stacks: no entry-by-entry series or Laurent arithmetic
    # anywhere on the way
    count = {}
    for cls in (laurent.TruncSeries, laurent.LaurentPoly):
        def counting(a, b, real=cls.__mul__, name=cls.__name__):
            count[name] = count.get(name, 0) + 1
            return real(a, b)

        monkeypatch.setattr(cls, "__mul__", counting)
    build_witness_library(5, 4)
    burau_eval_trunc(alpha_word(5), 6)
    assert count == {}


# ---------------------------------------------------------------------------
# solving a single degree


def test_solve_degree_one_round_trip():
    lib = default_library(N, 3)
    t = GradedElement(1, (2 * gen_x(1, 4, N) - 3 * gen_x(2, 3, N)).matrix)
    word = solve_in_degree(lib, t)
    assert gamma_coeff(word, 1) == t


def test_solve_degree_three_round_trip():
    lib = default_library(N, 3)
    t = GradedElement(3, (gen_x(2, 4, N) - gen_x(1, 3, N)
                          + 2 * (gen_x(1, 2, N) - gen_x(4, 5, N))).matrix)
    word = solve_in_degree(lib, t)
    assert gamma_coeff(word, 3) == t


def test_solve_zero_gives_empty_word():
    lib = default_library(N, 3)
    t = GradedElement(2, IntMatrix.zero(N))
    assert flatten(solve_in_degree(lib, t)) == ()


def test_solve_outside_span_raises():
    full = default_library(N, 3)
    crippled = WitnessLibrary(N, 1, {1: full.witnesses(1)[:1]}, {})
    with pytest.raises(NoSolution):
        solve_in_degree(crippled, gen_x(1, 3, N))


def test_solve_size_mismatch():
    lib = default_library(N, 3)
    with pytest.raises(ValueError):
        solve_in_degree(lib, gen_x(1, 2, 6))


# ---------------------------------------------------------------------------
# short solutions


@pytest.mark.parametrize("scale", [1, 2])
def test_solve_moves_the_hnf_solution_by_a_scaled_relation(scale):
    lib = default_library(N, 6)
    rng = random.Random(5006 + scale)
    for k in (5, 6):
        lattice = lib.coefficient_lattice(k)
        basis = g_basis(N, k)
        t = sum((rng.randrange(-1, 2) * b.matrix for b in basis),
                IntMatrix.zero(N))
        hnf = lattice.solve(t.vec())  # the oracle
        coeffs, word = density._solve(lib, k, t, scale)
        step = [a - c for a, c in zip(hnf, coeffs)]
        assert all(c % scale == 0 for c in step)
        assert lattice.kernel_basis() and not any(
            sum(c * g[col] for c, g in zip(step, lattice.gens))
            for col in range(N * N))
        assert max(map(abs, coeffs)) < max(map(abs, hnf))
        image = burau_eval_trunc(word, k + 1)
        assert image.depth_bound() >= k and image.coefficient(k) == t


@pytest.mark.parametrize("n, k", [(5, 6), (6, 6), (7, 5)])
def test_libraries_with_short_corrections_verify(n, k):
    lib = WitnessLibrary.from_json(
        json.loads(json.dumps(default_library(n, k).to_json())))
    lib.verify_induction()


def test_build_corrections_keep_their_parity(monkeypatch):
    # the degree-5 inductor's correction moves by twice a relation; one
    # relation would break the congruence that degree 7 would rest on
    real = density._solve
    monkeypatch.setattr(density, "_solve",
                        lambda lib, k, t, scale=1: real(lib, k, t))
    with pytest.raises(LibraryIntegrityError, match="induction from degree 5"):
        build_witness_library(N, 6)


def test_two_builds_are_identical():
    assert build_witness_library(N, 6).to_json() == \
        build_witness_library(N, 6).to_json()


@pytest.mark.parametrize("n", [5, 6])
def test_degree_five_inductor_is_short(n):
    # 7.9e13 letters at n = 5 and 2.6e23 at n = 6 from the HNF solution
    assert letter_bound(default_library(n, 6).inductors[5].word) < 10 ** 6


def test_step_coefficients_stay_small_at_n6():
    # up to 149-bit coefficients from the HNF solution
    lib = default_library(6, 6)
    rng = random.Random(6006)
    for _ in range(3):
        w = random_word(rng, 6, 15)
        res = approximate(burau_eval(w), library=lib, exact_check=False)
        assert max(abs(c) for st in res.steps[1:]
                   for c in st.coefficients) <= 10 ** 3
        assert res.achieved_depth >= 7


# ---------------------------------------------------------------------------
# approximation


def test_approximate_identity():
    result = approximate(LaurentMatrix.identity(N), 3)
    assert result.achieved_depth == math.inf
    assert flatten(result.word) == ()
    assert all(all(c == 0 for c in s.coefficients) for s in result.steps[1:])
    assert result.to_json()["achievedDepth"] == "infinity"


def test_approximate_single_band_generator():
    g = burau_eval(pure_gen(N, 1, 2))
    result = approximate(g, 2)
    assert result.steps[0].coefficients == (1, 2, 3, 4, 5)
    assert result.steps[1].degree == 1
    assert result.steps[1].coefficients == (-1,) + (0,) * 9
    assert result.steps[2].coefficients == (0,) * 6
    assert flatten(result.word) == flatten(pure_gen(N, 1, 2))
    assert result.achieved_depth == math.inf


def test_approximate_two_generator_product():
    g = burau_eval(concat(pure_gen(N, 1, 3), pure_gen(N, 2, 4)))
    result = approximate(g, 3)
    assert [s.degree for s in result.steps] == [0, 1, 2, 3]
    assert result.achieved_depth >= 4
    assert result.residual_depth(g) >= 4
    # agreement through degree 3, recomputed from scratch
    diff = g.truncate(4).inverse() * burau_eval_trunc(result.word, 4)
    assert diff.depth_bound() >= 4


def test_approximate_nontrivial_permutation():
    w = parse_word("s1 s3^-1 A25 s2", N)
    g = burau_eval(w)
    result = approximate(g, 3)
    assert result.residual_depth(g) >= 4
    images = g.at_one().permutation_images()
    assert result.steps[0].coefficients == images
    assert tuple(i + 1 for i in range(N)) != images


def test_approximate_ignores_provenance():
    w = parse_word("A13 A24^-1 s2^2", N)
    gamma = burau_gamma(w)
    with_word = approximate(gamma, 3)
    bare = approximate(gamma.matrix, 3)
    assert flatten(with_word.word) == flatten(bare.word)
    assert [s.to_json() for s in with_word.steps] == \
           [s.to_json() for s in bare.steps]


def test_approximate_exact_check_toggle():
    g = burau_eval(pure_gen(N, 2, 5))
    on = approximate(g, 2, exact_check=True)
    off = approximate(g, 2, exact_check=False)
    assert flatten(on.word) == flatten(off.word)
    assert on.achieved_depth == math.inf
    # without the exact pass only the truncated bound is claimed
    assert off.achieved_depth == off.precision


def test_approximate_rejects_non_members():
    bad = LaurentMatrix.from_int(perm_matrix([2, 1, 3, 4, 5]))
    with pytest.raises(NotInGamma) as exc:
        approximate(bad, 2)
    assert "fixes_v" in exc.value.report.violations


def test_approximate_library_mismatches():
    lib = default_library(N, 3)
    with pytest.raises(ValueError):
        approximate(LaurentMatrix.identity(N), 4, library=lib)
    with pytest.raises(ValueError):
        approximate(LaurentMatrix.identity(6), library=lib)
    with pytest.raises(ValueError):
        approximate(LaurentMatrix.identity(N))


def test_deep_word_approximation_matches_to_library_depth():
    lib = default_library(N, 4)
    w = parse_word("[A13 A24, s4] A12^-2 A35", N)
    g = burau_eval(w)
    result = approximate(g, library=lib, exact_check=False)
    assert result.residual_depth(g) == result.precision == 5
    assert result.residual_depth(g, precision=8) >= 5
