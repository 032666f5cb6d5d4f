import json
import math
import random
import time
import tracemalloc

from fractions import Fraction

import numpy as np
import pytest

from burau import linalg
from burau.laurent import S, LaurentPoly, T, T_INV, TruncSeries
from burau.linalg import (_FLOAT_SPAN, IntLattice, IntMatrix, LaurentMatrix,
                          NonUnitDeterminant, RatMatrix, SquareMatrix,
                          TruncMatrix, lll_reduce,
                          matrix_lattice, perm_matrix, row_hnf, stack_mul, trunc_depths,
                          trunc_mul, trunc_mul_ints)
from burau.liealg import g_basis, gen_x, gen_y
from burau.rep import burau_eval, burau_eval_trunc, burau_gen, form_j
from burau.words import (Perm, Power, alpha_word, commutator, concat, gen,
                         pure_gen)


def rand_word(rng, n, length):
    return concat(*(gen(n, rng.randint(1, n - 1), rng.choice((1, -1)))
                    for _ in range(length)))


# ---------------------------------------------------------------------------
# LaurentMatrix


def test_identity_and_associativity():
    rng = random.Random(201)
    ident = LaurentMatrix.identity(4)
    for _ in range(10):
        a = burau_eval(rand_word(rng, 4, 5))
        b = burau_eval(rand_word(rng, 4, 5))
        c = burau_eval(rand_word(rng, 4, 5))
        assert a * ident == a
        assert (a * b) * c == a * (b * c)


def test_star_fixes_j():
    for n in (2, 3, 5):
        j = form_j(n)
        assert j.star() == j
        assert LaurentMatrix.identity(n).star() == LaurentMatrix.identity(n)


def test_star_antihomomorphism():
    rng = random.Random(202)
    a = burau_eval(rand_word(rng, 3, 4))
    b = burau_eval(rand_word(rng, 3, 4))
    assert (a * b).star() == b.star() * a.star()
    assert a.star().star() == a


def test_generator_is_j_unitary():
    a = burau_gen(2, 1)
    j = form_j(2)
    assert a.star() * j * a == j


def test_inverse_of_generator_frozen():
    inv = burau_gen(2, 1).inverse()
    expect = LaurentMatrix([[LaurentPoly(0), T_INV],
                            [LaurentPoly(1), 1 - T_INV]])
    assert inv == expect
    assert inv == burau_gen(2, 1, -1)


def test_inverse_round_trip_and_identity():
    ident = LaurentMatrix.identity(3)
    assert ident.inverse() == ident
    rng = random.Random(203)
    a = burau_eval(rand_word(rng, 3, 6))
    assert a * a.inverse() == ident


def test_non_unit_determinant():
    two = LaurentMatrix([[LaurentPoly(2), LaurentPoly(0)],
                         [LaurentPoly(0), LaurentPoly(1)]])
    with pytest.raises(NonUnitDeterminant):
        two.inverse()


def test_s_expand_of_j():
    n = 4
    coeffs = form_j(n).s_expand(2)
    assert coeffs[0] == 2 * IntMatrix.identity(n) - IntMatrix([[1] * n] * n)
    expect1 = IntMatrix([[0 if i == j else (1 if j > i else -1)
                          for j in range(n)] for i in range(n)])
    assert coeffs[1] == expect1


def test_s_expand_identity():
    coeffs = LaurentMatrix.identity(3).s_expand(4)
    assert coeffs[0] == IntMatrix.identity(3)
    assert all(c.is_zero() for c in coeffs[1:])


def test_s_expand_of_v_embedding():
    # v = (t, ..., t^n) embedded on a diagonal: constant term all ones,
    # linear term (1, 2, ..., n)
    n = 5
    m = LaurentMatrix([[T ** (i + 1) if i == j else LaurentPoly(0)
                        for j in range(n)] for i in range(n)])
    coeffs = m.s_expand(2)
    assert [coeffs[0][i, i] for i in range(n)] == [1] * n
    assert [coeffs[1][i, i] for i in range(n)] == [1, 2, 3, 4, 5]


def test_s_expand_reassembly():
    rng = random.Random(204)
    s = T - 1
    for _ in range(6):
        a = burau_eval(rand_word(rng, 4, 6))
        for prec in (2, 5, 8):
            coeffs = a.s_expand(prec)
            total = LaurentMatrix([[sum((s ** k * coeffs[k][i, j]
                                         for k in range(prec)), LaurentPoly(0))
                                    for j in range(4)] for i in range(4)])
            assert ((a - total).truncate(prec)
                    == LaurentMatrix.identity(4).truncate(prec)
                    - LaurentMatrix.identity(4).truncate(prec))


def test_product_rule_for_coefficients():
    rng = random.Random(205)
    for _ in range(5):
        a = burau_eval(rand_word(rng, 4, 5))
        b = burau_eval(rand_word(rng, 4, 5))
        ac, bc = a.s_expand(7), b.s_expand(7)
        abc = (a * b).s_expand(7)
        for j in range(7):
            total = IntMatrix.zero(4)
            for i in range(j + 1):
                total = total + ac[i] * bc[j - i]
            assert abc[j] == total


def test_inverse_expansion_negation_window():
    # for depth-k elements, coefficients k..2k-1 of the inverse are the
    # negated coefficients of the element
    cases = [(pure_gen(5, 1, 2), 1), (alpha_word(5), 3)]
    for word, k in cases:
        a = burau_eval(word)
        ac = a.s_expand(2 * k)
        ic = a.inverse().s_expand(2 * k)
        for j in range(k, 2 * k):
            assert ic[j] == -ac[j]


def test_second_order_inverse_identity():
    n = 5
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            a = burau_eval(pure_gen(n, i, j))
            ac = a.s_expand(3)
            ic = a.inverse().s_expand(3)
            assert ic[2] == ac[1] * ac[1] - ac[2]


def test_depth_cases():
    assert LaurentMatrix.identity(4).depth() == math.inf
    assert burau_eval(pure_gen(3, 1, 2)).depth() == 1
    assert burau_eval(alpha_word(5)).depth() == 3


def test_s_valuation_of_a_matrix_is_its_least_entry_valuation():
    assert LaurentMatrix.zero(3).s_valuation() == math.inf
    m = LaurentMatrix([[S ** 3, 0], [S ** 2 * T_INV, S ** 5]])
    assert m.s_valuation() == 2
    assert (LaurentMatrix.identity(2) + m).depth() == 2


# ---------------------------------------------------------------------------
# IntMatrix and RatMatrix


def test_int_matrix_refuses_non_integer_entries():
    for bad in (1.5, 2.0, Fraction(2), "3"):
        with pytest.raises(TypeError):
            IntMatrix([[bad]])
    with pytest.raises(TypeError):
        IntMatrix.from_json([[True]])
    assert IntMatrix.from_json([[1, -2], [3, 4]]).rows == ((1, -2), (3, 4))


def test_rat_matrix_shares_the_ring_generic_operations():
    a = RatMatrix([[Fraction(1, 2), 1, 0], [0, 2, Fraction(-1, 3)], [1, 0, 1]])
    b = RatMatrix([[1, 0, 1], [Fraction(1, 4), 1, 0], [0, 0, 3]])
    assert a.det() == Fraction(2, 3)
    adj = RatMatrix(a._adjugate())
    assert a * adj == RatMatrix.identity(3) * a.det()
    assert a.commutator(b) == a * b - b * a
    assert a.commutator(b).transpose() == b.transpose().commutator(a.transpose())
    assert a.mul_vec((1, 1, 1)) == (Fraction(3, 2), Fraction(5, 3), 2)
    assert a.vec_mul((1, 1, 1)) == (Fraction(3, 2), 3, Fraction(2, 3))
    ints = IntMatrix([[1, -2], [3, 4]])
    assert RatMatrix(ints.rows).to_int() == ints
    with pytest.raises(ValueError):
        (RatMatrix(ints.rows) * Fraction(1, 2)).to_int()
    with pytest.raises(TypeError):
        RatMatrix([[0.5]])


def test_int_and_laurent_determinants_agree_at_t_equal_one():
    rng = random.Random(209)
    for _ in range(5):
        m = burau_eval(rand_word(rng, 4, 6))
        d = m.det()
        assert d.as_unit() is not None
        assert m.at_one().det() == d.at_one()
        assert m.at_one().inverse() == m.inverse().at_one()


# ---------------------------------------------------------------------------
# TruncMatrix


def test_trunc_product_matches_exact():
    rng = random.Random(206)
    for _ in range(8):
        wa, wb = rand_word(rng, 3, 4), rand_word(rng, 3, 4)
        a, b = burau_eval(wa), burau_eval(wb)
        assert a.truncate(5) * b.truncate(5) == (a * b).truncate(5)
        assert burau_eval_trunc(wa, 5) == a.truncate(5)


def test_trunc_inverse():
    rng = random.Random(207)
    ident = TruncMatrix.identity(4, 6)
    pure = [pure_gen(4, 1, 3),
            commutator(pure_gen(4, 1, 2), pure_gen(4, 2, 4))]
    for w in [rand_word(rng, 4, 5) for _ in range(6)] + pure:
        m = burau_eval_trunc(w, 6)
        assert m * m.inverse() == ident and m.inverse() * m == ident
        assert m.inverse() == burau_eval(w).inverse().truncate(6)


def square_and_multiply(m, k):
    """m^k for k >= 0 from the top bit of k: the reference for ``**``."""
    out = TruncMatrix.identity(m.n, m.precision)
    for bit in bin(k)[2:]:
        out = out * out
        if bit == "1":
            out = out * m
    return out


def test_trunc_power_of_pure_words_is_square_and_multiply():
    # pure images are unipotent, so ** sums a binomial series
    x, y, z = pure_gen(4, 1, 3), pure_gen(4, 2, 4), gen(4, 2)
    cases = [(x, (0, 1, 2, 5, -1, -3, 10 ** 30, -10 ** 30)),
             (commutator(x, y), (7, -7, 10 ** 30 + 1)),
             (concat(z, y, z.inverse()), (3, -2, -10 ** 30 + 1))]
    for p in range(1, 9):
        for w, ks in cases:
            m = burau_eval_trunc(w, p)
            m_inv = burau_eval_trunc(w.inverse(), p)
            for k in ks:
                want = square_and_multiply(m if k >= 0 else m_inv, abs(k))
                assert m ** k == want
                assert burau_eval_trunc(Power(4, w, k), p) == want


def test_trunc_power_of_permutation_heads_is_square_and_multiply():
    rng = random.Random(209)
    for p in (1, 3, 6):
        for _ in range(3):
            m = burau_eval_trunc(rand_word(rng, 4, 5), p)
            assert m.depth_bound() == 0
            for k in range(13):
                assert m ** k == square_and_multiply(m, k)
            assert m ** -3 == square_and_multiply(m.inverse(), 3)


def test_depth_bound_saturates_at_precision():
    assert burau_eval_trunc(alpha_word(5), 3).depth_bound() == 3
    assert burau_eval_trunc(alpha_word(5), 4).depth_bound() == 3
    assert TruncMatrix.identity(3, 5).depth_bound() == 5


@pytest.mark.parametrize("precision", [0, -2])
def test_precision_below_one_is_refused_at_every_entry(precision):
    makers = (lambda: TruncMatrix.identity(3, precision),
              lambda: TruncMatrix.from_int(perm_matrix([2, 1, 3]), precision),
              lambda: burau_gen(3, 1).truncate(precision),
              lambda: burau_eval_trunc(alpha_word(5), precision))
    for make in makers:
        with pytest.raises(ValueError, match="precision must be >= 1"):
            make()


def _grid_product(a, b):
    """a * b entry by entry over TruncSeries, the reference for the stacks."""
    zero = TruncSeries.zero(a.precision)
    return tuple(tuple(sum((ra[k] * b.rows[k][j] for k in range(a.n)), zero)
                       for j in range(a.n))
                 for ra in a.rows)


def test_trunc_kernel_is_exact_far_above_int64():
    rng = random.Random(208)
    n, p = 5, 4

    def big():
        return rng.choice((1, -1)) * rng.getrandbits(100)

    def stack(rows):
        """A (p, n, n) object stack from n x n lists of p coefficients."""
        return np.array(rows, dtype=object).transpose(2, 0, 1)

    def rand_matrix(head):
        return TruncMatrix(stack([[[v] + [big() for _ in range(p - 1)]
                                   for v in row] for row in head.rows]))

    for _ in range(3):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        a = rand_matrix(perm_matrix(images))
        rng.shuffle(images)
        b = rand_matrix(perm_matrix(images))
        ab = a * b
        assert ab.rows == _grid_product(a, b)
        assert max(abs(c) for row in ab.rows for e in row
                   for c in e.coeffs()) > 1 << 190
        ident = TruncMatrix.identity(n, p)
        assert a * a.inverse() == ident and a.inverse() * a == ident
        for k in range(p):
            assert ab.coefficient(k) == IntMatrix(
                [[e.coeffs()[k] for e in row] for row in ab.rows])
        again = json.loads(json.dumps(ab.to_json()))
        assert again["entries"] == [[e.coeffs() for e in row] for row in ab.rows]
        assert (ab + ab).depth_bound() == 0

    for depth in range(1, p + 1):
        deep = TruncMatrix(stack([[[int(i == j)] + [0] * (depth - 1)
                                   + [big() for _ in range(p - depth)]
                                   for j in range(n)] for i in range(n)]))
        assert deep.depth_bound() == depth


@pytest.mark.parametrize("bits, dtype", [(100, object), (8, object)])
def test_batched_trunc_mul_is_every_pair_product_a_major(bits, dtype):
    rng = random.Random(210)
    n, p = 4, 5

    def batch(size):
        """(p, size, n, n) of random coefficients of up to ``bits`` bits."""
        return np.array([[[[rng.choice((1, -1)) * rng.getrandbits(bits)
                            for _ in range(n)] for _ in range(n)]
                          for _ in range(size)] for _ in range(p)],
                        dtype=object).astype(dtype)

    for na in (1, 3):
        for nb in (1, 3):
            a, b = batch(na), batch(nb)
            out = trunc_mul(a, b)
            assert out.shape == (p, na * nb, n, n) and out.dtype == dtype
            for i in range(na):
                for j in range(nb):
                    got = TruncMatrix(out[:, i * nb + j])
                    assert got.rows == _grid_product(TruncMatrix(a[:, i]),
                                                     TruncMatrix(b[:, j]))
            if bits == 100:
                assert max(abs(v) for v in out.ravel()) > 1 << 200


_N, _P = 4, 3
_UNDER = (1 << 62) // (3 * _N * _P) - 1


@pytest.mark.parametrize("a_max, b_max", [
    (_UNDER, 3),                    # just under 2^62 in all
    (_UNDER + 2, 3),                # just over it
    ((1 << 31) - 1, (1 << 31) - 1),  # each product fits, p n of them do not
    (1 << 40, 1 << 40),             # each product would wrap
])
def test_object_trunc_mul_is_exact_where_int64_would_wrap(a_max, b_max):
    # max|a| max|b| n p is past 2^53, so the products run on Python ints;
    # with every entry at its largest size and one sign, degree p - 1 sums
    # all p n products, which int64 arithmetic would wrap near 2^62
    rng = random.Random(211)
    for signed in (False, True):
        def stack(size):
            return np.array([[[size * (rng.choice((1, -1)) if signed else 1)
                               for _ in range(_N)] for _ in range(_N)]
                             for _ in range(_P)], dtype=object)[:, None]

        a, b = stack(a_max), stack(b_max)
        out = trunc_mul(a, b)
        assert out.shape == (_P, 1, _N, _N) and out.dtype == object
        assert all(type(x) is int for x in out.ravel())
        got = TruncMatrix(out[:, 0])
        assert got.rows == _grid_product(TruncMatrix(a[:, 0]),
                                         TruncMatrix(b[:, 0]))
        if not signed:
            assert got.coefficient(_P - 1)[0, 0] == _P * _N * a_max * b_max


class _MatmulDtypes(np.ndarray):
    """An array view that records the dtype of each matrix product it
    enters, and computes like a plain array."""

    seen: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _MatmulDtypes.seen.append(inputs[0].dtype)
        return getattr(ufunc, method)(
            *(x.view(np.ndarray) if isinstance(x, np.ndarray) else x
              for x in inputs), **kwargs)


# n p = 9 is odd, so with odd entries the sum of all n p products at degree
# p - 1 is odd: above 2^53 float64 cannot hold it
_N53, _P53 = 3, 3
_UNDER53 = (1 << 53) // (3 * _N53 * _P53) - 1


@pytest.mark.parametrize("a_max, b_max, dtype, ran_in", [
    (_UNDER53, 3, object, np.float64),          # just under the bound
    (_UNDER53 + 2, 3, object, object),          # just over it
    ((1 << 26) + 1, (1 << 26) + 1, object, object),  # p n products do not fit
    ((1 << 1100) + 1, 3, object, object),       # beyond float range
])
def test_trunc_mul_is_exact_on_both_sides_of_the_float64_bound(
        a_max, b_max, dtype, ran_in):
    # the product runs in float64 when max|a| max|b| n p < 2^53; with every
    # entry at its largest size and one sign, degree p - 1 sums all p n
    # products, so a bound without the p n factor would round
    assert (a_max * b_max * _N53 * _P53 < 1 << 53) == (ran_in is np.float64)
    assert a_max % 2 and b_max % 2
    rng = random.Random(212)
    for signed in (False, True):
        def stack(size):
            return np.array([[[size * (rng.choice((1, -1)) if signed else 1)
                               for _ in range(_N53)] for _ in range(_N53)]
                             for _ in range(_P53)], dtype=object)[:, None]

        a, b = stack(a_max), stack(b_max)
        _MatmulDtypes.seen = []
        out = trunc_mul(a.astype(dtype).view(_MatmulDtypes),
                        b.astype(dtype).view(_MatmulDtypes))
        # one float64 product for all degrees, or object products only
        if ran_in is np.float64:
            assert _MatmulDtypes.seen == [np.dtype(np.float64)]
        else:
            assert _MatmulDtypes.seen
            assert set(_MatmulDtypes.seen) == {np.dtype(object)}
        assert out.shape == (_P53, 1, _N53, _N53) and out.dtype == dtype
        assert all(type(x) is int for x in out.ravel())
        got = TruncMatrix(out[:, 0])
        assert got.rows == _grid_product(TruncMatrix(a[:, 0]),
                                         TruncMatrix(b[:, 0]))
        if not signed:
            assert (got.coefficient(_P53 - 1)[0, 0]
                    == _P53 * _N53 * a_max * b_max)


@pytest.mark.parametrize("p", [1, 2, 7])
@pytest.mark.parametrize("na, nb", [(1, 1), (3, 4), (0, 5), (2, 0)])
def test_trunc_mul_ints_is_every_pair_product_on_python_ints(p, na, nb):
    rng = random.Random(213)
    n = 3

    def batch(size):
        """(p, size, n, n) object stacks with entries above 2^1100."""
        out = np.empty((p, size, n, n), dtype=object)
        for idx in np.ndindex(out.shape):
            out[idx] = rng.choice((1, -1)) * rng.getrandbits(1110)
        return out

    a, b = batch(na), batch(nb)
    out = trunc_mul_ints(a, b)
    assert out.shape == (p, na * nb, n, n) and out.dtype == object
    assert all(type(x) is int for x in out.ravel())
    for i in range(na):
        for j in range(nb):
            got = TruncMatrix(out[:, i * nb + j])
            assert got.rows == _grid_product(TruncMatrix(a[:, i]),
                                             TruncMatrix(b[:, j]))
    if na * nb:
        assert max(abs(x) for x in out.ravel()) > 1 << 2200


def test_trunc_depths_reads_each_stack_of_a_batch():
    n, p = 3, 4
    ident = TruncMatrix.identity(n, p).stack
    head = TruncMatrix.from_int(perm_matrix([2, 1, 3]), p).stack
    middle = ident.copy()
    middle[2, 0, 1] = 7
    full_below = ident.copy()
    full_below[p - 1, 2, 2] = -1
    mats, depths = (ident, head, middle, full_below), [p, 0, 2, p - 1]
    stacks = np.stack(mats, axis=1)
    for dtype in (object, np.float64):
        assert trunc_depths(stacks.astype(dtype)).tolist() == depths
    assert [TruncMatrix(m).depth_bound() for m in mats] == depths


def test_laurent_json_round_trip():
    m = burau_eval(pure_gen(4, 1, 3))
    assert LaurentMatrix.from_json(m.to_json()) == m


# ---------------------------------------------------------------------------
# the LaurentMatrix product against the schoolbook oracle


def schoolbook(a, b):
    """a * b as n LaurentPoly products per entry: the reference product."""
    n = a.n
    return LaurentMatrix([[sum((a[i, k] * b[k, j] for k in range(n)),
                               LaurentPoly(0))
                           for j in range(n)] for i in range(n)])


def _random_laurent(rng, n, rows_off, cols_off, bits, zero_frac):
    def entry(i, j):
        if rng.random() < zero_frac:
            return LaurentPoly(0)
        low = rows_off[i] + cols_off[j]
        return LaurentPoly({low + rng.randint(0, 15):
                            rng.choice((1, -1)) * rng.getrandbits(bits)
                            for _ in range(rng.randint(1, 14))})
    return LaurentMatrix([[entry(i, j) for j in range(n)] for i in range(n)])


def test_product_matches_schoolbook(monkeypatch):
    """Exponent offsets differ by row of the left factor and by column of
    the right one; every fourth trial also offsets the inner index.  A
    product is laid out from one least exponent per matrix, so offsets
    spread wide enough send it to the entrywise route."""
    rng = random.Random(611)
    stacked = []
    real = linalg.stack_mul
    monkeypatch.setattr(linalg, "stack_mul", lambda x, y: (
        stacked.append(1) or real(x, y)))
    packed = 0
    for trial in range(120):
        n = 1 + trial % 7
        offsets = [[rng.randint(-60, 60) for _ in range(n)] for _ in range(3)]
        inner = offsets[2] if trial % 4 == 0 else [0] * n
        bits = rng.choice((1, 3, 20, 64, 200))
        zero_frac = rng.choice((0.0, 0.3, 0.8))
        a = _random_laurent(rng, n, offsets[0], inner, bits, zero_frac)
        b = _random_laurent(rng, n, [-v for v in inner], offsets[1], bits,
                            zero_frac)
        if trial % 5 == 0:
            zero_row = rng.randrange(n)
            a = LaurentMatrix([[LaurentPoly(0)] * n if i == zero_row else row
                               for i, row in enumerate(a.rows)])
        stacked.clear()
        assert a * b == schoolbook(a, b)
        packed += len(stacked)
        zero = LaurentMatrix.zero(n)
        assert a * zero == zero and zero * b == zero
        scalar = LaurentPoly({rng.randint(-60, 60): rng.getrandbits(bits) + 1})
        assert a * scalar == scalar * a == LaurentMatrix(
            [[e * scalar for e in row] for row in a.rows])
    # both routes get exercised: 23 of the 120 products take stack_mul
    assert 20 <= packed <= 100


def test_product_coefficient_at_the_digit_width_bound():
    """All entries x(1 + t + ... + t^(m-1)) times +-the same: the middle
    coefficient of every product entry is +-n m x^2, exactly the bound
    n * min(span) * max|a| * max|b| the digit width is sized for.  x is
    picked so that this bound has a whole number of bytes, so the sign bit
    alone costs a byte.  At 2 bytes the product runs in float64; at 8 and
    25 by Kronecker substitution, packed from int64 and from object
    stacks."""
    for n in (1, 2, 3, 7):
        for m in (2, 12):
            for nbytes in (2, 8, 25):
                x = math.isqrt((2 ** (8 * nbytes) - 1) // (n * m))
                bound = n * m * x * x
                assert bound.bit_length() == 8 * nbytes
                a = LaurentMatrix([[LaurentPoly(dict.fromkeys(range(m), x))]
                                   * n] * n)
                for sign in (1, -1):
                    b = a * LaurentPoly(sign)
                    ab = a * b
                    assert ab == schoolbook(a, b)
                    assert ab[0, n - 1].coeff(m - 1) == sign * bound


def test_laurent_product_takes_every_route_exactly(monkeypatch):
    """Seeded products at n = 1..8 against the entrywise product, with
    negative least exponents and zero factors.  Each product takes one of
    four routes: float64, Kronecker substitution packed from int64 or from
    object stacks, or, for layouts padded far past the terms they hold (a
    term hundreds of degrees from the others), the entrywise product."""
    rng = random.Random(612)
    routes = []
    real_stack_mul, real_kronecker = linalg.stack_mul, linalg._kronecker_mul

    def spy_stack_mul(x, y):
        routes[-1] = "float"
        return real_stack_mul(x, y)

    def spy_kronecker(a, b, bound):
        routes[-1] = "object" if object in (a.dtype, b.dtype) else "int64"
        return real_kronecker(a, b, bound)

    monkeypatch.setattr(linalg, "stack_mul", spy_stack_mul)
    monkeypatch.setattr(linalg, "_kronecker_mul", spy_kronecker)

    def matrix(n, span, bits):
        low = rng.randint(-40, 10)
        rows = [[LaurentPoly({low + rng.randrange(span):
                              rng.choice((1, -1)) * rng.getrandbits(bits)
                              for _ in range(rng.randint(0, span))})
                 for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.15:
            rows[rng.randrange(n)][rng.randrange(n)] += LaurentPoly(
                {low + 400: 1})
        return LaurentMatrix(rows)

    for trial in range(160):
        n = 1 + trial % 8
        span = rng.choice((1, 3, 8) if n > 4 else (1, 8, 70))
        bits = rng.choice((1, 20, 40, 62, 100))
        a, b = matrix(n, span, bits), matrix(n, span, bits)
        if trial % 9 == 0:
            a = LaurentMatrix.zero(n)
        elif trial % 9 == 1:
            b = LaurentMatrix.zero(n)
        routes.append("entrywise")
        assert a * b == SquareMatrix._product(a, b)
    assert min(map(routes.count, ("float", "int64", "object",
                                  "entrywise"))) >= 10


def test_sparse_operands_take_the_entrywise_product():
    far = LaurentPoly({10 ** 9: 1})
    a = LaurentMatrix([[1, far, 0], [0, 1, 0], [0, 0, 1]])
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        square = a * a
        seconds = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert square == schoolbook(a, a)
    assert square[0, 1] == far * 2
    assert seconds < 0.5
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# dense Laurent stacks


def _stack_route(x, y):
    """The route stack_mul must take for two dense operands."""
    (_, a), (_, b) = x, y
    n, short = a.shape[1], min(len(a), len(b))
    if short > _FLOAT_SPAN:
        return "span"
    top = int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
    return "float" if n * short * top < 1 << 53 else "bound"


def _check_stack_mul(x, y):
    """stack_mul(x, y) against the entrywise product; returns its route."""
    got = stack_mul(x, y)
    want = SquareMatrix._product(LaurentMatrix.from_stack(*x),
                                 LaurentMatrix.from_stack(*y))
    route = _stack_route(x, y)
    assert type(got) is tuple
    low, stack = got
    # float64 products come back int64, Kronecker's int64 or Python ints
    if route == "float" or stack.dtype != object:
        assert stack.dtype == np.int64
    else:
        assert all(type(v) is int for v in stack.ravel())
    assert stack.shape[1:] == x[1].shape[1:]
    if len(stack):
        assert stack[0].any() and stack[-1].any()
    else:
        assert low == 0
    assert LaurentMatrix.from_stack(low, stack) == want
    return route


def test_stack_mul_matches_the_entrywise_product():
    """Seeded dense operands at n = 1..8 and spans 1..200, on both sides of
    the 2^53 bound and of the span crossover; the spans are kept small
    enough at large n for the entrywise oracle."""
    rng = random.Random(231)
    cross = _FLOAT_SPAN
    pairs = ((1, 1), (1, 200), (5, 17), (17, 2), (cross, 3), (cross, cross),
             (cross + 1, cross + 1), (cross + 1, 120), (200, cross + 1))
    routes = []
    for n in range(1, 9):
        for s, t in pairs:
            if n ** 3 * s * t > 100_000:
                continue
            # entries of this many bits put n * min(s, t) * max|a| * max|b|
            # below 2^53 or beyond it; the last ones reach 2^62
            for bits in (1, 20, 62):
                a, b = (np.array([[[rng.randint(-(1 << bits), 1 << bits)
                                    for _ in range(n)] for _ in range(n)]
                                  for _ in range(span)], dtype=np.int64)
                        for span in (s, t))
                x, y = (rng.randint(-50, 50), a), (rng.randint(-50, 50), b)
                routes.append(_check_stack_mul(x, y))
                routes.append(_check_stack_mul(y, x))
    assert min(routes.count(r) for r in ("float", "bound", "span")) >= 10


def test_stack_mul_of_zero_stacks_and_cancelling_ends():
    rng = random.Random(232)
    for n in range(1, 9):
        ones = np.ones((3, n, n), dtype=np.int64)
        for zero in ((0, ones[:0]), (4, 0 * ones)):
            for x, y in ((zero, (-2, ones)), ((-2, ones), zero), (zero, zero)):
                assert _check_stack_mul(x, y) == "float"
                low, stack = stack_mul(x, y)
                assert (low, stack.shape) == (0, (0, n, n))
        if n < 2:
            continue
        # a_0 b_0 = 0 and a_top b_top = 0: both end degrees of the product
        # cancel, and the result is trimmed at each end
        e11 = np.zeros((n, n), dtype=np.int64)
        e22 = e11.copy()
        e11[0, 0] = e22[1, 1] = 1
        for s, t in ((3, 4), (_FLOAT_SPAN, 2), (2, 150)):
            a = np.array([[[rng.randint(-9, 9) for _ in range(n)]
                           for _ in range(n)] for _ in range(s)])
            b = np.array([[[rng.randint(-9, 9) for _ in range(n)]
                           for _ in range(n)] for _ in range(t)])
            a[0], a[-1], b[0], b[-1] = e11, 3 * e11, e22, -e22
            assert _check_stack_mul((5, a), (-7, b)) == "float"
            low, stack = stack_mul((5, a), (-7, b))
            assert low > 5 - 7 and low + len(stack) < 5 - 7 + s + t - 1


@pytest.mark.parametrize("a_max, b_max, route", [
    (_UNDER53, 3, "float"), (_UNDER53 + 2, 3, "bound")])
def test_stack_mul_is_exact_on_both_sides_of_the_float64_bound(
        a_max, b_max, route):
    # with every entry at its largest size and one sign, the middle degree
    # of a span-3 by span-3 product sums all n * 3 products
    n = _N53
    for sign in (1, -1):
        a = np.full((3, n, n), a_max, dtype=np.int64)
        b = np.full((3, n, n), sign * b_max, dtype=np.int64)
        assert _check_stack_mul((0, a), (0, b)) == route
        got = LaurentMatrix.from_stack(*stack_mul((0, a), (0, b)))
        assert got[0, 0].coeff(2) == sign * n * 3 * a_max * b_max


# ---------------------------------------------------------------------------
# HNF and lattices


def test_row_hnf_transform_reconstructs():
    rng = random.Random(208)
    for _ in range(10):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
        h, u, pivots = row_hnf(rows)
        assert len(u) == len(rows)
        for ui, hi in zip(u, h):
            got = [sum(c * rows[r][j] for r, c in enumerate(ui))
                   for j in range(5)]
            assert got == list(hi)
        assert len(pivots) == len([r for r in h if any(r)])


def test_hnf_solve_basic():
    x12, x13 = gen_x(1, 2, 3).matrix, gen_x(1, 3, 3).matrix
    assert matrix_lattice([x12, x13]).solve((x12 + 2 * x13).vec()) == [1, 2]
    assert matrix_lattice([x12]).solve(gen_y(1, 2, 3, 3).matrix.vec()) is None


def test_x_generators_form_basis_of_degree_one():
    n = 5
    gens = [gen_x(i, j, n).matrix
            for i in range(1, n) for j in range(i + 1, n + 1)]
    rng = random.Random(209)
    for _ in range(10):
        coeffs = [rng.randint(-5, 5) for _ in gens]
        target = IntMatrix.zero(n)
        for c, g in zip(coeffs, gens):
            target = target + c * g
        sol = matrix_lattice(gens).solve(target.vec())
        assert sol is not None
        rebuilt = IntMatrix.zero(n)
        for c, g in zip(sol, gens):
            rebuilt = rebuilt + c * g
        assert rebuilt == target


def test_kernel_of_duplicate():
    m = gen_x(1, 2, 3).matrix
    kernel = matrix_lattice([m, m]).kernel_basis()
    assert any(tuple(v) in ((1, -1), (-1, 1)) for v in kernel)


def test_bracket_map_kernel_rank():
    # relations among the images of X_ij (x) G3-basis under the bracket:
    # rank = dim G1 * dim G3 - dim G4 = 10 * 9 - 6 at n = 5
    n = 5
    xs = [gen_x(i, j, n) for i in range(1, n) for j in range(i + 1, n + 1)]
    images = [(x.matrix.commutator(b.matrix))
              for x in xs for b in g_basis(n, 3)]
    kernel = matrix_lattice(images).kernel_basis()
    assert len(kernel) == 10 * 9 - 6


def test_membership_consistent_with_solve():
    gens = [gen_x(1, 2, 4).matrix, gen_x(3, 4, 4).matrix]
    inside = gens[0] + 5 * gens[1]
    outside = gen_x(1, 3, 4).matrix
    lattice = matrix_lattice(gens)
    assert lattice.contains(inside.vec())
    assert not lattice.contains(outside.vec())


def test_lattice_equality_is_basis_free():
    a = IntLattice(4, [(2, 0, 0, 0), (0, 3, 0, 0)])
    b = IntLattice(4, [(2, 3, 0, 0), (0, 3, 0, 0), (4, 3, 0, 0)])
    assert a == b
    assert a != IntLattice(4, [(1, 0, 0, 0), (0, 3, 0, 0)])


def test_lattice_solve_none_when_index_misses():
    lat = IntLattice(2, [(2, 0)])
    assert lat.solve((1, 0)) is None
    assert lat.solve((6, 0)) == [3]


def _gram_schmidt(basis):
    """Fraction Gram-Schmidt: the oracle for the integer data of LLL."""
    stars, mus = [], []
    for v in basis:
        w = [Fraction(a) for a in v]
        row = []
        for u in stars:
            mu = sum(a * c for a, c in zip(v, u)) / sum(c * c for c in u)
            w = [a - mu * c for a, c in zip(w, u)]
            row.append(mu)
        stars.append(w)
        mus.append(row)
    return stars, mus


def _random_lattice(rng):
    m, dim = rng.randrange(2, 10), rng.randrange(1, 6)
    return IntLattice(dim, [[rng.randrange(-6, 7) for _ in range(dim)]
                            for _ in range(m)])


def test_lll_reduces_the_kernel_to_a_basis_of_it():
    rng = random.Random(2167)
    for _ in range(200):
        lat = _random_lattice(rng)
        kernel = lat.kernel_basis()
        b, d, lam = lat.reduced_kernel()
        assert lat.reduced_kernel() is lat.reduced_kernel()  # made once
        m = len(lat.gens)
        assert IntLattice(m, b) == IntLattice(m, kernel)
        stars, mus = _gram_schmidt(b)
        norms = [sum(c * c for c in u) for u in stars]
        for k in range(len(b)):
            assert d[k + 1] == math.prod(norms[:k + 1])
            assert [Fraction(x, d[j + 1]) for j, x in enumerate(lam[k][:k])] \
                == mus[k]
            assert all(abs(mu) <= Fraction(1, 2) for mu in mus[k])
            if k:  # Lovasz, delta = 3/4
                assert norms[k] >= (Fraction(3, 4) - mus[k][k - 1] ** 2) \
                    * norms[k - 1]


@pytest.mark.parametrize("scale", [1, 2])
def test_nearest_plane_moves_a_solution_by_a_scaled_relation(scale):
    rng = random.Random(2168 + scale)
    for _ in range(200):
        lat = _random_lattice(rng)
        m = len(lat.gens)
        x = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(m)]
        y = lat.shorten(x, scale)
        step = [a - c for a, c in zip(x, y)]
        assert all(c % scale == 0 for c in step)
        kernel = lat.kernel_basis()
        assert IntLattice(m, kernel + [[c // scale for c in step]]) \
            == IntLattice(m, kernel)
        for col in range(lat.dim):  # the generators' combination is kept
            assert sum(a * g[col] for a, g in zip(y, lat.gens)) \
                == sum(a * g[col] for a, g in zip(x, lat.gens))
        b = lat.reduced_kernel()[0]
        for u in _gram_schmidt(b)[0]:  # what is left is nearest
            mu = sum(a * c for a, c in zip(y, u)) / sum(c * c for c in u)
            assert -Fraction(scale, 2) <= mu < Fraction(scale, 2)


def test_shortened_solutions_against_the_hnf_oracle():
    # the HNF solution stays the reference: the shortened one combines the
    # generators to the same target, and differs from it by a relation
    gens = [gen_x(1, 2, 4).matrix, gen_x(3, 4, 4).matrix,
            gen_x(1, 2, 4).matrix + gen_x(3, 4, 4).matrix,
            3 * gen_x(1, 2, 4).matrix]
    lat = matrix_lattice(gens)
    target = (7 * gens[0] - 4 * gens[1]).vec()
    hnf = lat.solve(target)
    short = lat.shorten(hnf)
    rebuilt = IntMatrix.zero(4)
    for c, g in zip(short, gens):
        rebuilt = rebuilt + c * g
    assert rebuilt.vec() == target
    assert lat.shorten(short) == short
    assert sum(c * c for c in short) < sum(c * c for c in hnf)


def test_lll_of_no_vectors_and_of_dependent_ones():
    assert lll_reduce([]) == ([], [1], [])
    assert IntLattice(2, [(1, 0), (0, 1)]).shorten([5, -3]) == [5, -3]
    with pytest.raises(ValueError):
        lll_reduce([(1, 2), (2, 4)])


# ---------------------------------------------------------------------------
# permutation matrices


def test_perm_matrix_cases():
    assert perm_matrix(Perm.identity(3)) == IntMatrix.identity(3)
    assert perm_matrix(Perm((2, 1))) == IntMatrix([[0, 1], [1, 0]])


def test_perm_matrix_homomorphism():
    rng = random.Random(210)
    for _ in range(20):
        images = list(range(1, 6))
        rng.shuffle(images)
        p = Perm(images)
        rng.shuffle(images)
        q = Perm(images)
        assert perm_matrix(p * q) == perm_matrix(p) * perm_matrix(q)


def test_generator_reduces_to_transposition():
    m = burau_gen(3, 1).at_one()
    assert m == perm_matrix(Perm.transposition(3, 1, 2))
    assert m.is_permutation()
    assert m.permutation_images() == (2, 1, 3)
