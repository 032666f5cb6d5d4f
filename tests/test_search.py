"""Commutator-template search: ordering, dedup, budgets, verification.

Hit indices are part of the enumeration contract, so they are frozen
literally; the leading coefficients are checked against the graded
generator combinations they must equal.
"""

import itertools

import numpy as np
import pytest

from burau import rep, search
from burau.liealg import GradedElement, gen_x, gen_y, orbit_key
from burau.linalg import TruncMatrix
from burau.rep import burau_eval_trunc
from burau.search import (MAX_TABLE_TERMS, SearchConfig, alpha_search_config,
                          delta_search_config, search_deep)
from burau.words import (Power, alpha_word, commutator, concat, delta_word,
                         flatten, gen, parse_word, pure_gen, word_format)


def test_single_word_pool_finds_itself():
    cfg = SearchConfig(5, 1, [pure_gen(5, 1, 2)], max_nesting=0,
                       max_terms=1, precision=2)
    out = search_deep(cfg)
    assert out.candidates == 1
    assert not out.budget_exhausted
    assert len(out.hits) == 1
    hit = out.hits[0]
    assert hit.index == 0
    assert hit.depth == 1
    assert flatten(hit.word) == flatten(pure_gen(5, 1, 2))
    assert hit.leading == gen_x(1, 2, 5)


def test_linked_pair_commutator_lands_at_depth_three():
    # A_13 and A_24 have disjoint index pairs, so the degree-2 bracket of
    # their coefficients vanishes and the commutator drops to depth 3
    cfg = SearchConfig(5, 3, [pure_gen(5, 1, 3), pure_gen(5, 2, 4)],
                       max_nesting=1, max_terms=1, precision=4)
    out = search_deep(cfg)
    # candidates: A_13, A_24, [A_13, A_24], [A_24, A_13]
    assert out.candidates == 4
    assert len(out.hits) == 1
    hit = out.hits[0]
    assert hit.index == 2
    assert hit.depth == 3
    rect = (gen_x(1, 2, 5) - gen_x(1, 4, 5)
            - gen_x(2, 3, 5) + gen_x(3, 4, 5)).matrix
    assert hit.leading.matrix == rect
    assert flatten(hit.word) == flatten(commutator(pure_gen(5, 1, 3),
                                                   pure_gen(5, 2, 4)))


def test_reversed_commutator_is_deduplicated():
    # [b, a] negates the leading coefficient of [a, b]; sign is part of the
    # orbit key, so only the earlier candidate is reported
    cfg = SearchConfig(5, 2, [pure_gen(5, 1, 2), pure_gen(5, 1, 3)],
                       max_nesting=1, max_terms=1, precision=3)
    out = search_deep(cfg)
    assert out.candidates == 4
    assert [h.index for h in out.hits] == [2]
    assert out.hits[0].depth == 2


def test_delta_configuration_reproduces_delta():
    out = search_deep(delta_search_config())
    assert out.candidates == 75
    assert not out.budget_exhausted
    assert [h.index for h in out.hits] == [21, 22, 47, 52]
    assert all(h.depth == 5 for h in out.hits)
    first = out.hits[0]
    assert flatten(first.word) == flatten(delta_word(5))
    d5 = first.leading.matrix
    assert d5.rows == ((0, 2, 0, 2, -4),
                       (2, -2, -2, 1, 1),
                       (0, -2, 0, -2, 4),
                       (2, 1, -2, 1, -2),
                       (-4, 1, 4, -2, 1))


def test_alpha_configuration_budget_exhaustion():
    out = search_deep(alpha_search_config(budget=2000))
    assert out.budget_exhausted
    assert out.candidates == 2000
    # the first depth-3 element in this enumeration is the linked-pair
    # commutator [A_13, A_24]
    assert [h.index for h in out.hits] == [50]
    assert flatten(out.hits[0].word) == flatten(
        commutator(pure_gen(5, 1, 3), pure_gen(5, 2, 4)))


def test_huge_power_pool_runs_on_exact_integers():
    # A_12^(10^7) has degree-2 coefficients near 10^14, so products of two
    # terms can leave int64 and the scan must run on exact integers; the
    # expected hits come from evaluating every candidate one by one
    big = 10 ** 7
    pool = [Power(5, pure_gen(5, 1, 2), big), pure_gen(5, 1, 3),
            pure_gen(5, 2, 3), pure_gen(5, 3, 4)]
    out = search_deep(SearchConfig(5, 2, pool, max_nesting=1, max_terms=2,
                                   precision=3))
    assert (out.candidates, out.budget_exhausted) == (272, False)
    y = [gen_y(1, 2, 3, 5), gen_y(1, 4, 3, 5), gen_y(2, 4, 3, 5)]
    # index: coefficients of the leading term on Y_123, Y_143, Y_243
    expected = {20: (big, 0, 0), 24: (1, 0, 0), 128: (2 * big, 0, 0),
                132: (big + 1, 0, 0), 133: (big, 1, 0), 135: (big - 1, 0, 0),
                136: (big, 0, 1), 180: (2, 0, 0), 181: (1, 1, 0),
                184: (1, 0, 1)}
    assert [h.index for h in out.hits] == list(expected)
    for h in out.hits:
        assert h.depth == 2
        a, b, c = expected[h.index]
        assert h.leading == a * y[0] + b * y[1] + c * y[2]


def test_int64_wraparound_cannot_hide_a_hit():
    # four copies of A_12^(2^62) have degree-1 coefficient 2^64 X_12, which
    # int64 arithmetic wraps to zero; the a-priori bound puts this pool on
    # exact integers, so all four products are hits
    k = 2 ** 62
    out = search_deep(SearchConfig(5, 1, [Power(5, pure_gen(5, 1, 2), k)],
                                   max_nesting=0, max_terms=4, precision=2))
    assert [h.index for h in out.hits] == [0, 1, 2, 3]
    for m, h in enumerate(out.hits, start=1):
        assert h.depth == 1
        assert h.leading == m * k * gen_x(1, 2, 5)


def test_search_is_deterministic():
    cfg = delta_search_config(budget=30)
    base = search_deep(cfg)
    assert base.to_json() == search_deep(cfg).to_json()
    assert base.budget_exhausted
    assert [h.index for h in base.hits] == [21, 22]


def test_hits_within_exact_cap_get_no_truncated_recheck(monkeypatch):
    cfg = delta_search_config(budget=30)
    terms = sum(len(level) for level in search._terms_by_size(cfg))
    words = []
    real = search.burau_eval_trunc
    monkeypatch.setattr(search, "burau_eval_trunc",
                        lambda w, p, memo=None: words.append(w)
                        or real(w, p, memo))
    out = search_deep(cfg)
    assert [h.index for h in out.hits] == [21, 22]
    # one evaluation per term table entry, none per hit: the recheck builds
    # its images from the generators, not through the scan's evaluator
    assert len(words) == terms


def test_config_with_a_stale_exact_cap_gives_the_same_hits():
    # exactCap once chose between two recheck routes; a config file that
    # still carries it loads, and the field selects nothing
    base = delta_search_config(budget=60).to_json()
    want = search_deep(SearchConfig.from_json(base)).to_json()
    for cap in (0, 4096):
        cfg = SearchConfig.from_json({**base, "exactCap": cap})
        assert "exactCap" not in cfg.to_json()
        assert search_deep(cfg).to_json() == want
    assert [h["index"] for h in want["hits"]] == [21, 22, 47, 52]


def test_result_cap_truncates_hits():
    cfg = delta_search_config(budget=60)
    capped = SearchConfig.from_json({**cfg.to_json(), "resultCap": 1})
    out = search_deep(capped)
    assert [h.index for h in out.hits] == [21]


def test_outcome_iteration_and_json():
    out = search_deep(SearchConfig(5, 1, [pure_gen(5, 1, 2)],
                                   max_nesting=0, max_terms=1, precision=2))
    assert len(out) == 1
    assert [h.depth for h in out] == [1]
    data = out.to_json()
    assert data["candidates"] == 1
    assert data["budgetExhausted"] is False
    assert data["hits"][0]["index"] == 0
    assert data["hits"][0]["depth"] == 1


def test_config_json_round_trip():
    cfg = alpha_search_config(budget=12345)
    again = SearchConfig.from_json(cfg.to_json())
    assert again.n == cfg.n
    assert again.target_depth == cfg.target_depth
    assert again.max_nesting == cfg.max_nesting
    assert again.max_terms == cfg.max_terms
    assert again.precision == cfg.precision
    assert again.budget == 12345
    assert [flatten(w) for w in again.pool] == [flatten(w) for w in cfg.pool]


def test_config_defaults_and_shapes():
    a = alpha_search_config()
    assert (a.n, a.target_depth, a.max_nesting, a.max_terms) == (5, 3, 1, 4)
    assert len(a.pool) == 6
    assert a.budget == 10 ** 6
    d = delta_search_config()
    assert (d.n, d.target_depth, d.max_nesting, d.max_terms) == (5, 5, 2, 1)
    assert len(d.pool) == 3
    assert flatten(d.pool[0]) == flatten(alpha_word(5))
    assert flatten(d.pool[1]) == flatten(gen(5, 4))


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(5, 1, [])
    with pytest.raises(ValueError):
        SearchConfig(5, 1, [pure_gen(4, 1, 2)])
    with pytest.raises(ValueError):
        SearchConfig(5, 3, [pure_gen(5, 1, 2)], precision=3)
    with pytest.raises(ValueError):
        SearchConfig(5, 0, [pure_gen(5, 1, 2)])


def test_config_bounds():
    pool = [pure_gen(5, 1, 2), pure_gen(5, 1, 3), pure_gen(5, 2, 3)]
    # result_cap 0 used to report one hit, and negative counts were accepted
    for bad in ({"result_cap": 0}, {"budget": -1}):
        with pytest.raises(ValueError):
            SearchConfig(5, 2, pool, max_nesting=1, **bad)
    out = search_deep(SearchConfig(5, 2, pool, max_nesting=1, budget=0))
    assert (out.candidates, out.budget_exhausted, out.hits) == (0, True, [])


def test_deep_nesting_is_refused_before_the_table_is_built():
    # 33 674 terms at nesting 4, against 184 at nesting 3; the count is an
    # exact recurrence over (size, nesting), so it costs nothing to refuse
    pool = [parse_word("s1^2", 3), parse_word("s2^2", 3)]
    with pytest.raises(ValueError, match="33674 commutator terms"):
        SearchConfig(3, 1, pool, max_nesting=4, budget=10)
    ok = SearchConfig(3, 1, pool, max_nesting=3, budget=10)
    assert sum(len(level) for level in search._terms_by_size(ok)) == 184
    # a one-word pool has no commutators at any nesting
    one = SearchConfig(3, 1, pool[:1], max_nesting=10 ** 6, budget=10)
    assert search._terms_by_size(one) == [[], [0]]


@pytest.mark.parametrize("pool_size, nesting",
                         [(1, 0), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2),
                          (6, 1)])
def test_term_count_matches_the_term_table(pool_size, nesting):
    pool = alpha_search_config().pool[:pool_size]
    cfg = SearchConfig(5, 1, pool, max_nesting=nesting, budget=0)
    table = search._terms_by_size(cfg)
    assert (search._term_count(pool_size, nesting, MAX_TABLE_TERMS)
            == sum(len(level) for level in table))


def _filtered_terms(cfg):
    """Every pair of smaller terms, kept when its nesting is within the
    bound: the enumeration that defines the contract order."""
    def nesting(tree):
        return 0 if isinstance(tree, int) else 1 + max(map(nesting, tree))

    terms = [[], list(range(len(cfg.pool)))]
    for s in range(2, 2 ** cfg.max_nesting + 1):
        level = [(left, right)
                 for ls in range(1, s)
                 for left in terms[ls] for right in terms[s - ls]
                 if left != right
                 and nesting((left, right)) <= cfg.max_nesting]
        if not level:
            break
        terms.append(level)
    return terms


@pytest.mark.parametrize("pool_size, nesting",
                         [(1, 0), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3),
                          (3, 2), (4, 2), (6, 1)])
def test_term_table_order_is_the_filtered_enumeration(pool_size, nesting):
    pool = alpha_search_config().pool[:pool_size]
    cfg = SearchConfig(5, 1, pool, max_nesting=nesting, budget=0)
    assert search._terms_by_size(cfg) == _filtered_terms(cfg)


_TABLE_CONFIGS = {
    "alpha": alpha_search_config(),
    "delta": delta_search_config(),
    # A_12^(10^7) puts the products of two terms beyond int64
    "exact-ints": SearchConfig(
        5, 2, [Power(5, pure_gen(5, 1, 2), 10 ** 7), pure_gen(5, 1, 3),
               pure_gen(5, 2, 3)], max_nesting=2, max_terms=2, precision=4),
}


@pytest.mark.parametrize("name", list(_TABLE_CONFIGS))
def test_shared_memo_term_table_matches_each_term_alone(name):
    cfg = _TABLE_CONFIGS[name]
    words, arrays = search._term_table(cfg)
    # float64 under the a-priori bound 2^53, where every product is exact
    assert arrays[1].dtype == (object if "exact" in name else np.float64)
    for level, table in zip(words[1:], arrays[1:]):
        assert table.shape[1] == len(level)
        for t, w in enumerate(level):
            alone = burau_eval_trunc(w, cfg.precision)
            assert TruncMatrix(table[:, t].astype(object)) == alone
    # [L, R] is built from the term words of L and R themselves
    ids = {id(w) for level in words for w in level}
    for level in words[2:]:
        assert all(id(w.left) in ids and id(w.right) in ids for w in level)


# ---------------------------------------------------------------------------
# differential oracle: every candidate evaluated on its own


def _reference_candidates(cfg: SearchConfig):
    """Every candidate's term words and their sizes, in contract order."""
    terms = search._term_table(cfg)[0]
    largest = len(terms) - 1

    def sequences(total, slots):
        for size in range(1, min(total, largest) + 1):
            for word in terms[size]:
                if size == total:
                    yield ((word, size),)
                elif slots > 1:
                    for rest in sequences(total - size, slots - 1):
                        yield ((word, size),) + rest

    return itertools.chain.from_iterable(
        sequences(total, cfg.max_terms)
        for total in range(1, cfg.max_terms * largest + 1))


def _reference_search(cfg: SearchConfig) -> dict:
    """Evaluate each candidate with ``burau_eval_trunc`` and keep the
    earliest of each orbit key."""
    hits, seen, candidates = [], set(), 0
    for index, seq in enumerate(_reference_candidates(cfg)):
        if index == cfg.budget:
            return {"hits": hits, "candidates": candidates, "exhausted": True}
        candidates += 1
        if len(hits) >= cfg.result_cap:
            continue
        word = concat(*(w for w, _ in seq))
        m = burau_eval_trunc(word, cfg.precision)
        depth = m.depth_bound()
        if not cfg.target_depth <= depth < cfg.precision:
            continue
        leading = GradedElement(depth, m.coefficient(depth))
        key = orbit_key(leading)
        if key not in seen:
            seen.add(key)
            hits.append((index, depth, leading, word_format(word)))
    return {"hits": hits, "candidates": candidates, "exhausted": False}


_ORACLE_CONFIGS = {
    "terms4": SearchConfig(5, 3, [pure_gen(5, 1, 3), pure_gen(5, 2, 4)],
                           max_nesting=1, max_terms=4, precision=4),
    "terms4-cut": SearchConfig(5, 3, [pure_gen(5, 1, 3), pure_gen(5, 2, 4)],
                               max_nesting=1, max_terms=4, precision=4,
                               budget=126),
    "terms3-cut": SearchConfig(5, 2, [pure_gen(5, 1, 2), pure_gen(5, 1, 3),
                                      pure_gen(5, 3, 4)],
                               max_nesting=1, max_terms=3, precision=3,
                               budget=257),
    "nesting2-cut": SearchConfig(5, 2, [pure_gen(5, 1, 2), pure_gen(5, 2, 3),
                                        pure_gen(5, 1, 3)],
                                 max_nesting=2, max_terms=2, precision=4,
                                 budget=300),
    "nesting0": SearchConfig(5, 1, [pure_gen(5, 1, 2), pure_gen(5, 2, 3)],
                             max_nesting=0, max_terms=4, precision=3),
    # P * X * Y and P * Y * X differ at degree 2 here: the blocks of the
    # last two slots must keep their order
    "slot-order": SearchConfig(5, 2, [pure_gen(5, 1, 2), pure_gen(5, 1, 3),
                                      parse_word("A13^-1 A12^-1", 5)],
                               max_nesting=0, max_terms=3, precision=3),
    # A_12^(10^7) has degree-2 coefficients near 10^14: exact integers
    "exact-ints-cut": SearchConfig(
        5, 2, [Power(5, pure_gen(5, 1, 2), 10 ** 7), pure_gen(5, 1, 3),
               pure_gen(5, 2, 3)],
        max_nesting=1, max_terms=3, precision=3, budget=207),
}


def _record_products(monkeypatch) -> list:
    """Patch both routes of the scan's products (the float64 block-Toeplitz
    product and ``trunc_mul``) to record (dtype, stacks) of each."""
    products = []
    real_float, real_mul = search.toeplitz_mul, search.trunc_mul

    def on_float(a, rhs):
        out = real_float(a, rhs)
        products.append((out.dtype, out.shape[1]))
        return out

    def on_mul(a, b):
        out = real_mul(a, b)
        products.append((b.dtype, out.shape[1]))
        return out

    monkeypatch.setattr(search, "toeplitz_mul", on_float)
    monkeypatch.setattr(search, "trunc_mul", on_mul)
    return products


@pytest.mark.parametrize("name", list(_ORACLE_CONFIGS))
def test_search_matches_the_one_by_one_reference(name, monkeypatch):
    cfg = _ORACLE_CONFIGS[name]
    products = _record_products(monkeypatch)
    out = search_deep(cfg)
    ref = _reference_search(cfg)
    assert [(h.index, h.depth, h.leading, word_format(h.word))
            for h in out.hits] == ref["hits"]
    assert (out.candidates, out.budget_exhausted) == (ref["candidates"],
                                                      ref["exhausted"])
    assert out.hits
    # every batch ran on the dtype the pool needs: float64 under the
    # a-priori bound 2^53, Python ints beyond int64
    assert {dtype for dtype, _ in products} == {
        np.dtype(object if "exact" in name else np.float64)}


@pytest.mark.parametrize("name", [k for k in _ORACLE_CONFIGS if "cut" in k])
def test_oracle_budgets_end_inside_a_two_slot_block(name):
    # the last admitted candidate and the first refused one fill the last
    # two slots after one prefix with one split of the remaining size
    cfg = _ORACLE_CONFIGS[name]

    def block(seq):
        words = tuple(id(w) for w, _ in seq[:-2])
        return len(seq), words, tuple(size for _, size in seq[-2:])

    seqs = list(itertools.islice(_reference_candidates(cfg), cfg.budget + 1))
    admitted, refused = seqs[cfg.budget - 1], seqs[cfg.budget]
    assert len(admitted) == cfg.max_terms
    assert block(admitted) == block(refused)


# ---------------------------------------------------------------------------
# work sharing in the hit post-processing, and the order across blocks


def test_each_term_is_folded_once_per_search(monkeypatch):
    # every recheck fold shares one memo, so a term word met again in a
    # later hit adds nothing to it
    calls = []
    real = search.fold

    def recording(w, leaf, one, product, memo):
        before = len(memo)
        out = real(w, leaf, one, product, memo)
        calls.append((w, id(memo), len(memo) > before))
        return out

    monkeypatch.setattr(search, "fold", recording)
    out = search_deep(alpha_search_config(budget=20_000))
    assert [h.index for h in out.hits] == [50, 4142, 4676]
    terms = sum(len(level)
                for level in search._terms_by_size(alpha_search_config()))
    folded = [w for w, _, grew in calls if grew]
    assert len({memo for _, memo, _ in calls}) == 1
    assert len(calls) > len(folded)
    assert 0 < len(folded) == len(set(folded)) <= terms == 36


def test_orbit_key_runs_once_per_leading_coefficient(monkeypatch):
    keyed = []
    real = search.orbit_key
    monkeypatch.setattr(search, "orbit_key",
                        lambda a: keyed.append((a.degree, a.matrix.rows))
                        or real(a))
    out = search_deep(alpha_search_config(budget=20_000))
    assert len(keyed) == len(set(keyed)) >= len(out.hits) == 3


def test_leading_element_is_made_once_per_coefficient(monkeypatch):
    # every raw hit gets its depth recheck, but the leading element, whose
    # constructor checks membership in G_k, is made once per distinct
    # (depth, coefficient): 68 raw hits carry 28 of them
    made, rechecked = [], []

    class Element(GradedElement):
        __slots__ = ()

        def __init__(self, degree, matrix):
            made.append((degree, matrix))
            super().__init__(degree, matrix)

    class Image(TruncMatrix):
        __slots__ = ()

        def depth_bound(self):
            rechecked.append(self)
            return super().depth_bound()

    monkeypatch.setattr(search, "GradedElement", Element)
    monkeypatch.setattr(search, "TruncMatrix", Image)
    out = search_deep(alpha_search_config(budget=20_000))
    assert [h.index for h in out.hits] == [50, 4142, 4676]
    assert len(rechecked) == 68
    assert len(made) == len(set(made)) == 28


# ---------------------------------------------------------------------------
# the recheck shares nothing with the scan: a lie on either side is caught


def _lying_stack(stack):
    """A stack of depth 3 in place of ``stack``: degrees 1-2 zeroed and one
    entry added in degree 3."""
    stack = stack.copy()
    stack[1:3] = 0
    stack[3, 0, 1] += 1
    return stack


@pytest.mark.parametrize("word", [pure_gen(5, 1, 2),
                                  Power(5, pure_gen(5, 1, 2), 10 ** 7)],
                         ids=["A12", "A12^(10^7)"])
def test_lying_scan_leaf_is_caught(word, monkeypatch):
    # the scan's leaves come from rep._literal mod s^p; the recheck builds
    # its own from the generator images, and a power of any exponent by
    # square-and-multiply, so the true depth 1 shows
    real = rep._literal
    monkeypatch.setattr(rep, "_literal", lambda n, letters, p=None: (
        real(n, letters) if p is None else _lying_stack(real(n, letters, p))))
    cfg = SearchConfig(5, 3, [word], max_nesting=1, max_terms=1, precision=4)
    with pytest.raises(AssertionError,
                       match="recheck disagrees with the scan"):
        search_deep(cfg)


def test_lying_scan_product_is_caught(monkeypatch):
    # this pool's tables are float64, so the scan multiplies through the
    # block-Toeplitz product
    real = search.toeplitz_mul
    monkeypatch.setattr(search, "toeplitz_mul",
                        lambda a, rhs: _lying_stack(real(a, rhs)))
    cfg = SearchConfig(5, 3, [pure_gen(5, 1, 2), pure_gen(5, 2, 3)],
                       max_nesting=0, max_terms=2, precision=4)
    with pytest.raises(AssertionError,
                       match="recheck disagrees with the scan"):
        search_deep(cfg)


def test_lying_recheck_product_is_caught(monkeypatch):
    # the pool words are literals of several letters, so every recheck
    # image goes through trunc_mul_ints; one that answers the identity
    # must trip the check
    products = []

    def lying(a, b):
        products.append((a, b))
        p, _, n, _ = a.shape
        ident = TruncMatrix.identity(n, p).stack[:, None]
        return np.repeat(ident, a.shape[1] * b.shape[1], axis=1)

    monkeypatch.setattr(search, "trunc_mul_ints", lying)
    cfg = SearchConfig(5, 1, [pure_gen(5, 1, 2), pure_gen(5, 2, 3)],
                       max_nesting=0, max_terms=2, precision=3)
    with pytest.raises(AssertionError,
                       match="recheck disagrees with the scan"):
        search_deep(cfg)
    assert products


@pytest.mark.parametrize("strands", list(itertools.combinations(range(1, 6),
                                                                4)))
def test_alpha_shape_hit_indices_on_every_four_strand_subset(strands):
    pool = [pure_gen(5, i, j) for i, j in itertools.combinations(strands, 2)]
    cfg = SearchConfig(5, 3, pool, max_nesting=1, max_terms=4, precision=4,
                       budget=5000)
    out = search_deep(cfg)
    assert [h.index for h in out.hits] == [50, 4142, 4676]
    assert (out.candidates, out.budget_exhausted) == (5000, True)


# ---------------------------------------------------------------------------
# the batched scan: contract indices at every budget cut, and batch sizes


def _unbudgeted(cfg: SearchConfig) -> SearchConfig:
    return SearchConfig.from_json({**cfg.to_json(), "budget": None})


# one per pool: "terms4-cut" is "terms4" with a budget
_SWEEP_CONFIGS = {name: _unbudgeted(cfg)
                  for name, cfg in _ORACLE_CONFIGS.items()
                  if name != "terms4-cut"}


@pytest.mark.parametrize("name", list(_SWEEP_CONFIGS))
def test_every_budget_keeps_the_unbudgeted_hits_below_it(name, monkeypatch):
    # a budget can end inside any slab of prefixes, so every cut up to 300
    # and around the total is checked against the unbudgeted run.  The term
    # table, the recheck's folds and the orbit keys do not depend on the
    # budget, so they are shared across the runs
    base = _SWEEP_CONFIGS[name]
    table = search._term_table(base)
    folded, keys = {}, {}
    real_fold, real_key = search.fold, search.orbit_key
    monkeypatch.setattr(search, "_term_table", lambda cfg: table)
    monkeypatch.setattr(search, "fold", lambda w, leaf, one, product, memo:
                        real_fold(w, leaf, one, product, folded))

    def key(leading):
        at = (leading.degree, leading.matrix.rows)
        if at not in keys:
            keys[at] = real_key(leading)
        return keys[at]

    monkeypatch.setattr(search, "orbit_key", key)
    full = search_deep(base)
    total = full.candidates
    want = [(h.index, h.depth, h.leading) for h in full.hits]
    for budget in sorted({*range(min(total, 300) + 2),
                          total - 1, total, total + 1}):
        cfg = SearchConfig.from_json({**base.to_json(), "budget": budget})
        out = search_deep(cfg)
        assert [(h.index, h.depth, h.leading) for h in out.hits] == [
            hit for hit in want if hit[0] < budget]
        assert out.candidates == min(budget, total)
        assert out.budget_exhausted == (budget < total)


def test_every_scan_product_fits_one_block(monkeypatch):
    products = _record_products(monkeypatch)
    out = search_deep(alpha_search_config(budget=20_000))
    assert [h.index for h in out.hits] == [50, 4142, 4676]
    stacks = [size for _, size in products]
    assert max(stacks) <= search._BLOCK
    # whole slabs of prefixes per product, not one prefix at a time: the
    # products average more than half a block
    assert out.candidates > len(stacks) * search._BLOCK / 2


@pytest.mark.parametrize("block", [1, 5])
def test_small_blocks_give_the_same_outcome(block, monkeypatch):
    # a block narrower than a size's terms splits the terms into column
    # slabs too; every product stays within it and nothing else changes
    want = {name: search_deep(cfg).to_json()
            for name, cfg in _ORACLE_CONFIGS.items()}
    monkeypatch.setattr(search, "_BLOCK", block)
    products = _record_products(monkeypatch)
    for name, cfg in _ORACLE_CONFIGS.items():
        assert search_deep(cfg).to_json() == want[name]
    assert max(size for _, size in products) == block


def test_counting_stops_where_the_budget_does():
    # the first 500 candidates have total size at most 6, so at most 6
    # terms: a config allowing 10^5 terms gives the same outcome, without
    # counting its larger sizes
    pool = [pure_gen(5, 1, 3), pure_gen(5, 2, 4)]
    outs = [search_deep(SearchConfig(5, 3, pool, max_nesting=1, max_terms=m,
                                     precision=4, budget=500)).to_json()
            for m in (6, 10 ** 5)]
    assert outs[0] == outs[1]
    assert [h["index"] for h in outs[0]["hits"]] == [6, 60, 464]


def test_more_candidates_than_an_index_can_hold_is_refused():
    # 36^12 candidates: past 2^50 the int64 contract indices could wrap
    cfg = SearchConfig(5, 3, alpha_search_config().pool, max_nesting=1,
                       max_terms=12, precision=4)
    with pytest.raises(ValueError, match=r"at most 2\^50"):
        search_deep(cfg)
    cfg.budget = 5000
    assert search_deep(cfg).candidates == 5000
