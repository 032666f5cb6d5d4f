import functools
import math
import operator
import random
import tracemalloc

import numpy as np
import pytest

from burau import linalg, rep
from burau.laurent import LaurentPoly, T, T_INV
from burau.liealg import gen_x
from burau.linalg import (IntMatrix, LaurentMatrix, SquareMatrix, TruncMatrix,
                          perm_matrix)
from burau.rep import (GAMMA_CONDITIONS, DepthTooSmall, GammaElement,
                       burau_eval, burau_eval_trunc, burau_gamma, burau_gen,
                       form_j, gamma_check, gamma_coeff, ones_row, vector_v)
from burau.words import (Inverse, Literal, Power, alpha_word, commutator,
                         concat, delta_word, fold, gen, parse_word, pure_gen,
                         word_permutation)

ZERO, ONE = LaurentPoly(0), LaurentPoly(1)

DELTA_COEFF = IntMatrix([[0, 2, 0, 2, -4],
                         [2, -2, -2, 1, 1],
                         [0, -2, 0, -2, 4],
                         [2, 1, -2, 1, -2],
                         [-4, 1, 4, -2, 1]])


def rand_word(rng, n, length):
    return concat(*(gen(n, rng.randint(1, n - 1), rng.choice((1, -1)))
                    for _ in range(length)))


def _literal(n, letters):
    """The exact image of a literal run by column operations on Laurent
    entries: the oracle of the evaluator's dense and truncated runs.

    Right multiplication by beta(sigma_i^+-1) rewrites columns i and i+1
    only: (a, b) -> (a(1 - t) + bt, a) and (a, b) -> (b, at^-1 + b(1 - t^-1)).
    """
    one_minus_t, one_minus_t_inv = 1 - T, 1 - T_INV
    cols = [[ONE if r == c else ZERO for r in range(n)] for c in range(n)]
    for i, s in letters:
        a, b = cols[i - 1], cols[i]
        if s > 0:
            cols[i - 1] = [x * one_minus_t + y * T for x, y in zip(a, b)]
            cols[i] = a
        else:
            cols[i - 1] = b
            cols[i] = [x * T_INV + y * one_minus_t_inv for x, y in zip(a, b)]
    return LaurentMatrix(list(zip(*cols)))


# ---------------------------------------------------------------------------
# generators


def test_generator_block_n2():
    assert burau_gen(2, 1) == LaurentMatrix([[1 - T, ONE], [T, ZERO]])


def test_generator_block_n3_offset():
    expect = LaurentMatrix([[ONE, ZERO, ZERO],
                            [ZERO, 1 - T, ONE],
                            [ZERO, T, ZERO]])
    assert burau_gen(3, 2) == expect


def test_generator_inverse_block():
    assert burau_gen(2, 1, -1) == LaurentMatrix([[ZERO, T_INV],
                                                 [ONE, 1 - T_INV]])
    assert burau_gen(2, 1) * burau_gen(2, 1, -1) == LaurentMatrix.identity(2)


def test_generator_blocks_all_positions():
    for n in range(2, 7):
        for i in range(1, n):
            m = burau_gen(n, i)
            for r in range(n):
                for c in range(n):
                    if (r, c) == (i - 1, i - 1):
                        assert m[r, c] == 1 - T
                    elif (r, c) == (i - 1, i):
                        assert m[r, c] == ONE
                    elif (r, c) == (i, i - 1):
                        assert m[r, c] == T
                    elif (r, c) == (i, i):
                        assert m[r, c] == ZERO
                    else:
                        assert m[r, c] == (ONE if r == c else ZERO)


def test_generator_index_validation():
    with pytest.raises(ValueError):
        burau_gen(3, 3)
    with pytest.raises(ValueError):
        burau_gen(3, 0)


def test_braid_and_commutation_relations():
    for n in range(2, 7):
        for i in range(1, n - 1):
            lhs = burau_gen(n, i) * burau_gen(n, i + 1) * burau_gen(n, i)
            rhs = burau_gen(n, i + 1) * burau_gen(n, i) * burau_gen(n, i + 1)
            assert lhs == rhs
        for i in range(1, n):
            for j in range(i + 2, n):
                assert burau_gen(n, i) * burau_gen(n, j) == \
                    burau_gen(n, j) * burau_gen(n, i)


# ---------------------------------------------------------------------------
# evaluation


def test_empty_word_evaluates_to_identity():
    from burau.words import empty_word
    assert burau_eval(empty_word(5)) == LaurentMatrix.identity(5)


def test_eval_is_multiplicative():
    rng = random.Random(401)
    for _ in range(10):
        u, v = rand_word(rng, 4, 5), rand_word(rng, 4, 5)
        assert burau_eval(concat(u, v)) == burau_eval(u) * burau_eval(v)


def test_literal_runs_are_products_of_generator_images(monkeypatch):
    # an oracle that shares nothing with the evaluator's column operations
    rng = random.Random(403)
    runs = []
    real = rep._literal_dense
    monkeypatch.setattr(rep, "_literal_dense",
                        lambda n, letters: runs.append(len(letters))
                        or real(n, letters))
    for n in range(2, 7):
        lengths = [rng.randint(0, 9) for _ in range(4)] + [33, 64, 100]
        for length in lengths:
            letters = [(rng.randint(1, n - 1), rng.choice((1, -1)))
                       for _ in range(length)]
            w = Literal(n, letters)
            gens = [burau_gen(n, i, s) for i, s in letters]
            assert burau_eval(w) == functools.reduce(
                operator.mul, gens, LaurentMatrix.identity(n))
            for precision in (1, 3, 5):
                runs.clear()
                assert burau_eval_trunc(w, precision) == functools.reduce(
                    operator.mul, [g.truncate(precision) for g in gens],
                    TruncMatrix.identity(n, precision))
                # the truncated evaluation builds no exact run at all
                assert runs == []


def test_literal_stack_is_the_truncated_exact_run():
    # the s-coordinate column operations against the exact column
    # operations pushed through LaurentMatrix.truncate
    rng = random.Random(404)
    for n in range(2, 9):
        runs = [[(rng.randint(1, n - 1), rng.choice((1, -1)))
                 for _ in range(length)] for length in (0, 1, 2, 7, 30, 100)]
        runs.append([(rng.randint(1, n - 1), -1) for _ in range(40)])
        pure = []
        while len(pure) < 100:
            i = rng.randint(1, n - 1)
            pure += pure_gen(n, i, rng.randint(i + 1, n)).letters
        runs.append(pure)
        for letters in runs:
            exact = _literal(n, letters)
            for precision in range(1, 9):
                got = rep._literal_stack(n, letters, precision)
                assert got.shape == (precision, n, n) and got.dtype == object
                assert all(type(x) is int for x in got.ravel())
                assert TruncMatrix(got) == exact.truncate(precision)


def _assert_dense_leaf(n, letters):
    """The dense leaf of a run equals the oracle; returns its dtype."""
    low, stack = rep._literal_dense(n, letters)
    assert stack.shape[1:] == (n, n) and stack[0].any() and stack[-1].any()
    if stack.dtype == object:
        assert all(type(x) is int for x in stack.ravel())
    else:
        assert stack.dtype == np.int64
    assert LaurentMatrix.from_stack(low, stack) == _literal(n, letters)
    return stack.dtype


def test_dense_leaf_is_the_exact_run():
    # the t-coordinate column operations on dense stacks against the exact
    # column operations on Laurent entries.  The int64 room check first
    # fires at 39 letters; random runs stay small there, while runs whose
    # sign follows the parity of i grow by up to a bit a letter and leave
    # int64 by 240 letters from n = 3 on
    rng = random.Random(405)
    dtypes = []
    for n in range(2, 9):
        runs = [[(rng.randint(1, n - 1), rng.choice((1, -1)))
                 for _ in range(length)]
                for length in (0, 1, 2, 7, 30, 39, 100)]
        runs.append([(rng.randint(1, n - 1), -1) for _ in range(60)])
        runs.append([(rng.randint(1, n - 1), 1) for _ in range(60)])
        runs += [[(i, 1 if i % 2 else -1)
                  for i in (rng.randint(1, n - 1) for _ in range(length))]
                 for length in (39, 240)]
        pure = []
        while len(pure) < 100:
            i = rng.randint(1, n - 1)
            pure += pure_gen(n, i, rng.randint(i + 1, n)).letters
        runs += [pure, [(i, -s) for i, s in reversed(pure)]]
        dtypes += [_assert_dense_leaf(n, letters) for letters in runs]
    assert dtypes.count(object) == 6


def test_dense_leaf_past_int64_is_the_exact_run():
    # (sigma_1 sigma_2^-1)^k has entries of about 1.3 k bits: 59 at
    # k = 45, still int64, and 65 at k = 50, which carries on in objects
    for k, dtype in ((45, np.int64), (50, object)):
        assert _assert_dense_leaf(3, [(1, 1), (2, -1)] * k) == dtype


def test_long_run_makes_no_laurent_product(monkeypatch):
    # a run past int64 stays on dense columns: Laurent objects are made
    # only when the fold ends
    w = Literal(3, [(1, 1), (2, -1)] * 50)
    expect = _literal(3, w.letters)
    products = []
    real = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: (
        products.append(1) or real(a, b)))
    got = burau_eval(w)
    assert products == []
    assert got == expect


def _entrywise_fold(w):
    """The exact fold on Laurent leaves and entrywise products alone, which
    share no code with ``linalg.stack_mul``."""
    return fold(w, lambda letters: _literal(w.n, letters),
                LaurentMatrix.identity(w.n), product=lambda values:
                functools.reduce(SquareMatrix._product, values))


def test_eval_matches_the_entrywise_fold(monkeypatch):
    rng = random.Random(406)
    kronecker = []
    real = linalg._kronecker_mul
    monkeypatch.setattr(linalg, "_kronecker_mul", lambda a, b, bound: (
        kronecker.append(1) or real(a, b, bound)))
    for trial in range(20):
        n = rng.randint(2, 6)
        parts = [rand_word(rng, n, rng.randint(1, 8)) for _ in range(3)]
        w = concat(Power(n, parts[0], rng.randint(-6, 6)),
                   commutator(parts[1], Inverse(n, parts[2])),
                   Power(n, commutator(parts[2], parts[0]),
                         rng.randint(-3, 3)))
        assert burau_eval(w) == _entrywise_fold(w)
    # entries beyond 2^53: past the float64 bound, the fold multiplies by
    # Kronecker substitution
    w = Power(3, Literal(3, [(1, 1), (2, -1)]), 50)
    kronecker.clear()
    got = burau_eval(w)
    assert kronecker
    assert max(abs(v) for row in got.rows for e in row
               for v in e._c.values()) > 1 << 53
    assert got == _entrywise_fold(w)


def test_eval_past_the_float64_bound_makes_one_laurent_matrix(monkeypatch):
    # the fold stays on dense pairs to the root, and only the root becomes
    # a LaurentMatrix
    w = Power(3, concat(Literal(3, [(1, 1), (2, -1)] * 20), gen(3, 2)), 9)
    made, products = [], []
    real_from_stack, real_mul = LaurentMatrix.from_stack, LaurentMatrix.__mul__
    monkeypatch.setattr(LaurentMatrix, "from_stack", staticmethod(
        lambda low, stack: made.append(1) or real_from_stack(low, stack)))
    monkeypatch.setattr(LaurentMatrix, "__mul__", lambda a, b: (
        products.append(1) or real_mul(a, b)))
    got = burau_eval(w)
    assert made == [1] and products == []
    assert max(abs(v) for row in got.rows for e in row
               for v in e._c.values()) > 1 << 53


def test_long_power_peak_memory_stays_pinned():
    # tracemalloc peaks in bytes of burau_eval with the Kronecker product
    # on Laurent entries, measured on Python 3.11.7 and numpy 2.4.6; the
    # fold on dense pairs to the root reads 1407904 and 209144 there
    for text, n, pinned in (("A12^1500", 3, 1_607_115),
                            ("(s1 s2 s3 s4)^300", 5, 229_778)):
        w = parse_word(text, n)
        tracemalloc.start()
        try:
            burau_eval(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pinned, text


def test_trunc_eval_matches_exact():
    rng = random.Random(402)
    for _ in range(8):
        w = rand_word(rng, 5, 6)
        assert burau_eval_trunc(w, 4) == burau_eval(w).truncate(4)


def test_eval_handles_negative_powers_of_composites():
    from burau.words import Power
    w = Power(4, concat(gen(4, 1), gen(4, 2)), -3)
    base_inv = (burau_eval(gen(4, 1)) * burau_eval(gen(4, 2))).inverse()
    assert burau_eval(w) == base_inv * base_inv * base_inv


def test_alpha_depth():
    assert burau_eval(alpha_word(5)).depth() == 3


def test_delta_depth():
    assert burau_eval_trunc(delta_word(5), 6).depth_bound() == 5


# ---------------------------------------------------------------------------
# invariant data


def test_vector_v():
    assert vector_v(3) == (T, T ** 2, T ** 3)


def test_form_j_n2():
    assert form_j(2) == LaurentMatrix([[ONE, -T_INV], [-T, ONE]])


def test_generators_fix_v_and_ones():
    for n in range(2, 7):
        v, ones = vector_v(n), ones_row(n)
        for i in range(1, n):
            m = burau_gen(n, i)
            assert m.mul_vec(v) == v
            assert m.vec_mul(ones) == ones


def test_generator_reduction_is_transposition():
    assert burau_gen(3, 1).at_one() == \
        perm_matrix(word_permutation(gen(3, 1)))


# ---------------------------------------------------------------------------
# membership


def test_gamma_conditions_names():
    assert GAMMA_CONDITIONS == ("fixes_v", "fixes_ones", "unitary",
                                "permutation_mod_s")


def test_gamma_check_passes_on_random_words():
    rng = random.Random(403)
    for _ in range(50):
        w = rand_word(rng, 5, rng.randint(1, 8))
        el = gamma_check(burau_eval(w))
        assert el
        assert isinstance(el, GammaElement)


def test_gamma_check_reports_broken_v():
    bad = LaurentMatrix([[T if i == j == 0 else (ONE if i == j else ZERO)
                          for j in range(3)] for i in range(3)])
    rng = random.Random(404)
    report = gamma_check(bad * burau_eval(rand_word(rng, 3, 4)))
    assert not report
    assert "fixes_v" in report.violations


def test_permutation_reduction_matches_word():
    rng = random.Random(405)
    for _ in range(20):
        w = rand_word(rng, 6, 6)
        assert burau_eval(w).at_one() == perm_matrix(word_permutation(w))


# ---------------------------------------------------------------------------
# coefficients


def test_pure_gen_coefficient():
    el = gamma_coeff(pure_gen(5, 1, 2), 1)
    assert el.degree == 1
    assert el.matrix == gen_x(1, 2, 5).matrix


def test_alpha_coefficient():
    el = gamma_coeff(alpha_word(5), 3)
    assert el.matrix == (gen_x(2, 4, 5) - gen_x(1, 3, 5)).matrix


def test_delta_coefficient():
    assert gamma_coeff(delta_word(5), 5).matrix == DELTA_COEFF


def test_delta_extends_by_zeroes():
    el = gamma_coeff(delta_word(6), 5)
    expect = [[0] * 6 for _ in range(6)]
    for i in range(5):
        for j in range(5):
            expect[i][j] = DELTA_COEFF[i, j]
    assert el.matrix == IntMatrix(expect)


def test_coeff_needs_enough_depth():
    with pytest.raises(DepthTooSmall):
        gamma_coeff(gen(5, 1), 1)          # not pure, depth 0
    with pytest.raises(DepthTooSmall):
        gamma_coeff(pure_gen(5, 1, 2), 2)  # depth exactly 1


def test_word_coefficient_matches_the_exact_images():
    # a word is evaluated mod s^(k+1) only; the coefficient read from its
    # exact image is the oracle, and a word of depth below k still raises
    rng = random.Random(406)
    too_shallow = 0
    for n in range(3, 7):
        def pure():
            conj = rand_word(rng, n, rng.randint(1, 3))
            i = rng.randint(1, n - 1)
            core = Power(n, pure_gen(n, i, rng.randint(i + 1, n)),
                         rng.choice((1, -1, 2)))
            return concat(conj, core, Inverse(n, conj))

        for _ in range(6):
            w = pure()
            for _ in range(rng.randint(0, 2)):
                w = commutator(pure(), w)
            depth = burau_eval(w).depth()
            exact = burau_gamma(w)
            for k in range(1, min(depth, 5) + 2):
                if k <= depth:
                    assert gamma_coeff(w, k) == gamma_coeff(exact, k)
                    continue
                too_shallow += 1
                with pytest.raises(DepthTooSmall):
                    gamma_coeff(w, k)
                with pytest.raises(DepthTooSmall):
                    gamma_coeff(exact, k)
    assert too_shallow


def test_coeff_accepts_matrix_and_gamma_element():
    m = burau_eval(alpha_word(5))
    el = burau_gamma(alpha_word(5))
    k3 = gamma_coeff(m, 3)
    assert k3 == gamma_coeff(el, 3) == gamma_coeff(alpha_word(5), 3)


# ---------------------------------------------------------------------------
# GammaElement


def test_gamma_element_accessors():
    el = burau_gamma(concat(gen(4, 1), pure_gen(4, 2, 4)))
    assert el.permutation() == word_permutation(gen(4, 1))
    assert el.depth() == 0
    deep = burau_gamma(alpha_word(5))
    assert deep.depth() == 3


def test_gamma_element_identity_depth():
    el = burau_gamma(commutator(gen(4, 1), gen(4, 3)))
    assert el.depth() == math.inf


def test_gamma_element_rejects_non_member():
    with pytest.raises(ValueError):
        GammaElement(LaurentMatrix([[T, ZERO], [ZERO, ONE]]))
