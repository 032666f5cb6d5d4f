"""Property tests: truncation at t = 1 + s is a ring homomorphism, the
braid relations hold inside any word, and formatting a word then parsing it
gives the same braid.

Generated words mix letters, powers, inverses and commutators.  The runs are
derandomized, so every run checks the same examples.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from burau.rep import burau_eval, burau_eval_trunc  # noqa: E402
from burau.words import (Power, commutator, concat, gen, parse_word,  # noqa: E402
                         word_format)

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
