"""Property tests: truncation at t = 1 + s is a ring homomorphism, the
braid relations hold inside any word, formatting a word then parsing it
gives the same braid, the s-adic valuation counts factors of s = t - 1, the
Laurent matrix product agrees with the entrywise schoolbook product, HNF
lattice solving is sound, and truncated powers and inverses agree with
square and multiply.

Generated words mix letters, powers, inverses and commutators.  The runs are
derandomized, so every run checks the same examples.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from burau.laurent import S, LaurentPoly  # noqa: E402
from burau.linalg import IntLattice, LaurentMatrix, TruncMatrix  # noqa: E402
from burau.rep import burau_eval, burau_eval_trunc  # noqa: E402
from burau.words import (Power, commutator, concat, gen, parse_word,  # noqa: E402
                         pure_gen, word_format)

N = 4

_letters = st.lists(st.tuples(st.integers(1, N - 1), st.sampled_from((1, -1))),
                    min_size=1, max_size=6).map(
    lambda ls: concat(*(gen(N, i, s) for i, s in ls)))

words = st.recursive(
    _letters,
    lambda inner: st.one_of(
        st.tuples(inner, st.integers(-3, 3)).map(lambda we: Power(N, *we)),
        inner.map(lambda w: w.inverse()),
        st.tuples(inner, inner).map(lambda xy: commutator(*xy)),
        st.tuples(inner, inner).map(lambda xy: concat(*xy))),
    max_leaves=4)

precisions = st.integers(1, 6)

_settings = settings(max_examples=25, derandomize=True, deadline=None,
                     database=None)


@_settings
@given(words, precisions)
def test_truncated_evaluation_is_truncated_exact_evaluation(w, p):
    assert burau_eval_trunc(w, p) == burau_eval(w).truncate(p)


@_settings
@given(words, words, precisions)
def test_truncation_respects_products(wa, wb, p):
    a, b = burau_eval(wa), burau_eval(wb)
    assert (a * b).truncate(p) == a.truncate(p) * b.truncate(p)


def _in_context(u, v, *letters):
    return burau_eval(concat(u, *(gen(N, i, 1) for i in letters), v))


@_settings
@given(words, words, st.integers(1, N - 2))
def test_braid_relation_inside_words(u, v, i):
    assert _in_context(u, v, i, i + 1, i) == _in_context(u, v, i + 1, i, i + 1)


@_settings
@given(words, words, st.sampled_from([(i, j) for i in range(1, N)
                                      for j in range(i + 2, N)]))
def test_far_commutation_inside_words(u, v, ij):
    i, j = ij
    assert _in_context(u, v, i, j) == _in_context(u, v, j, i)


@_settings
@given(words)
def test_format_then_parse_is_the_same_braid(w):
    assert burau_eval(parse_word(word_format(w), N)) == burau_eval(w)


_nonzero_at_one = st.dictionaries(
    st.integers(-40, 40), st.integers(-50, 50), min_size=1, max_size=8).map(
    LaurentPoly).filter(lambda p: p.at_one() != 0)


@_settings
@given(_nonzero_at_one, st.integers(0, 12))
def test_s_valuation_counts_factors_of_s(p, k):
    assert (p * S ** k).s_valuation() == k


_coefficients = st.integers(-2 ** 200, 2 ** 200)


@st.composite
def _laurent_pairs(draw):
    """Two n x n Laurent matrices; the left one's exponents are offset per
    row and the right one's per column, each in -60..60."""
    n = draw(st.integers(1, 5))
    offsets = st.lists(st.integers(-60, 60), min_size=n, max_size=n)
    row_off, col_off = draw(offsets), draw(offsets)

    def entry(off):
        return st.dictionaries(st.integers(0, 15), _coefficients,
                               max_size=12).map(
            lambda c: LaurentPoly({off + e: v for e, v in c.items()}))

    a = [[draw(entry(row_off[i])) for _ in range(n)] for i in range(n)]
    b = [[draw(entry(col_off[j])) for j in range(n)] for _ in range(n)]
    return LaurentMatrix(a), LaurentMatrix(b)


@_settings
@given(_laurent_pairs())
def test_laurent_product_is_the_schoolbook_product(ab):
    a, b = ab
    n = a.n
    assert a * b == LaurentMatrix(
        [[sum((a[i, k] * b[k, j] for k in range(n)), LaurentPoly(0))
          for j in range(n)] for i in range(n)])


@st.composite
def _lattice_cases(draw):
    """Generators scaled by m, a combination of them, and a coordinate."""
    dim = draw(st.integers(1, 6))
    vec = st.lists(st.integers(-20, 20), min_size=dim, max_size=dim)
    gens = draw(st.lists(vec, min_size=1, max_size=7))
    m = draw(st.integers(1, 3))
    combo = draw(st.lists(st.integers(-9, 9), min_size=len(gens),
                          max_size=len(gens)))
    return [[m * v for v in g] for g in gens], m, combo, draw(
        st.integers(0, dim - 1))


@_settings
@given(_lattice_cases())
def test_lattice_solve_is_sound(case):
    gens, m, combo, k = case
    dim = len(gens[0])
    lattice = IntLattice(dim, gens)

    def combination(coeffs):
        return [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim)]

    target = combination(combo)
    coeffs = lattice.solve(target)
    assert coeffs is not None and lattice.contains(target)
    assert combination(coeffs) == target
    # every generator lies in m Z^dim, so for m > 1 a unit step leaves it
    off = [v + (i == k) for i, v in enumerate(target)]
    coeffs = lattice.solve(off)
    assert lattice.contains(off) == (coeffs is not None)
    if m > 1:
        assert coeffs is None
    elif coeffs is not None:
        assert combination(coeffs) == off


# pure words hold no Power node, so their images and their inverses' images
# are folded without ``TruncMatrix.__pow__``
pure_words = st.recursive(
    st.sampled_from([(i, j) for i in range(1, N) for j in range(i + 1, N + 1)]
                    ).map(lambda ij: pure_gen(N, *ij)),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda xy: commutator(*xy)),
        st.tuples(inner, inner).map(lambda xy: concat(*xy)),
        st.tuples(_letters, inner).map(
            lambda cw: concat(cw[0], cw[1], cw[0].inverse()))),
    max_leaves=4)

exponents = st.one_of(st.integers(-12, 12),
                      st.integers(-10 ** 30, 10 ** 30))


def _square_and_multiply(m, k):
    out = TruncMatrix.identity(m.n, m.precision)
    for bit in bin(k)[2:]:
        out = out * out
        if bit == "1":
            out = out * m
    return out


@_settings
@given(pure_words, exponents, st.integers(1, 8))
def test_unipotent_power_is_square_and_multiply(w, k, p):
    m = burau_eval_trunc(w, p)
    want = _square_and_multiply(
        m if k >= 0 else burau_eval_trunc(w.inverse(), p), abs(k))
    assert m ** k == want
    assert burau_eval_trunc(Power(N, w, k), p) == want


@_settings
@given(words, st.integers(0, 12), st.integers(1, 8))
def test_power_is_square_and_multiply(w, k, p):
    m = burau_eval_trunc(w, p)
    assert m ** k == _square_and_multiply(m, k)


@_settings
@given(st.one_of(words, pure_words), st.integers(1, 8))
def test_trunc_inverse_is_two_sided(w, p):
    m = burau_eval_trunc(w, p)
    ident = TruncMatrix.identity(N, p)
    assert m ** 0 == ident
    assert m * m.inverse() == ident and m.inverse() * m == ident
