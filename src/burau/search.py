"""Bounded search for braid words of large s-adic depth.

Candidates are products of iterated commutators of a fixed pool of words.
The enumeration order is part of the contract: candidates are grouped by
template size (total number of pool-word leaves) ascending, and within one
size the sequence of terms is ordered by (size of term, index of term)
position by position.  Terms of size 1 are the pool words in pool order;
terms of size s split as [L, R] with the size of L ascending, then the
index of L, then the index of R.  Structurally equal left and right halves
are skipped (the commutator is trivial), as are trees nested deeper than
the configured bound.

Evaluation runs in the truncated ring.  The hot path multiplies whole leaf
batches of the terms' coefficient stacks at once with `linalg.trunc_mul`.
The batches are int64 when an a-priori bound on every product's entries
fits, and exact Python integers (object dtype) otherwise.  Every raw hit is
rechecked once, apart from the scan: exactly for words within `exact_cap`
letters (the scan's depth is below the precision, so this implies the
truncated check), truncated beyond it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .laurent import json_int
from .liealg import GradedElement, orbit_key
from .linalg import TruncMatrix, trunc_mul
from .rep import burau_eval, burau_eval_trunc
from .words import (BraidWord, commutator, concat, letter_bound, parse_word,
                    word_format)


class SearchConfig:
    __slots__ = ("n", "target_depth", "pool", "max_nesting", "max_terms",
                 "precision", "result_cap", "budget", "exact_cap")

    def __init__(self, n: int, target_depth: int, pool: Sequence[BraidWord],
                 max_nesting: int = 1, max_terms: int = 1,
                 precision: int | None = None, result_cap: int = 100,
                 budget: int | None = None, exact_cap: int = 4096):
        self.n = n
        self.target_depth = target_depth
        self.pool = tuple(pool)
        self.max_nesting = max_nesting
        self.max_terms = max_terms
        self.precision = precision if precision is not None else target_depth + 1
        self.result_cap = result_cap
        self.budget = budget
        self.exact_cap = exact_cap
        if not self.pool:
            raise ValueError("empty generator pool")
        if any(w.n != n for w in self.pool):
            raise ValueError("pool words disagree with n")
        if self.precision <= target_depth:
            raise ValueError("precision must exceed target_depth")
        if (target_depth < 1 or max_terms < 1 or result_cap < 1
                or min(max_nesting, exact_cap, budget or 0) < 0):
            raise ValueError("bounds must be positive (maxNesting, budget "
                             "and exactCap non-negative)")

    def to_json(self) -> dict:
        return {"n": self.n, "targetDepth": self.target_depth,
                "pool": [word_format(w) for w in self.pool],
                "maxNesting": self.max_nesting, "maxTerms": self.max_terms,
                "precision": self.precision, "resultCap": self.result_cap,
                "budget": self.budget, "exactCap": self.exact_cap}

    @staticmethod
    def from_json(data: dict, bindings=None) -> "SearchConfig":
        """Read a config; every number is a JSON integer, and an optional
        field that is absent or null takes its default."""
        def optional(key: str, default: int | None) -> int | None:
            value = data.get(key)
            return default if value is None else json_int(value, name=key)

        n = json_int(data["n"], name="n")
        pool = [parse_word(w, n, bindings) for w in data["pool"]]
        return SearchConfig(
            n, json_int(data["targetDepth"], name="targetDepth"), pool,
            max_nesting=optional("maxNesting", 1),
            max_terms=optional("maxTerms", 1),
            precision=optional("precision", None),
            result_cap=optional("resultCap", 100),
            budget=optional("budget", None),
            exact_cap=optional("exactCap", 4096))


class SearchHit:
    __slots__ = ("word", "depth", "leading", "index")

    def __init__(self, word: BraidWord, depth: int, leading: GradedElement,
                 index: int):
        self.word = word
        self.depth = depth
        self.leading = leading
        self.index = index

    def to_json(self) -> dict:
        return {"word": word_format(self.word), "depth": self.depth,
                "leading": self.leading.to_json(), "index": self.index}

    def __repr__(self) -> str:
        return f"SearchHit(depth={self.depth}, index={self.index})"


class SearchOutcome:
    __slots__ = ("hits", "candidates", "budget_exhausted")

    def __init__(self, hits: list[SearchHit], candidates: int,
                 budget_exhausted: bool):
        self.hits = hits
        self.candidates = candidates
        self.budget_exhausted = budget_exhausted

    def __iter__(self):
        return iter(self.hits)

    def __len__(self) -> int:
        return len(self.hits)

    def to_json(self) -> dict:
        return {"hits": [h.to_json() for h in self.hits],
                "candidates": self.candidates,
                "budgetExhausted": self.budget_exhausted}

    def __repr__(self) -> str:
        return (f"SearchOutcome(hits={len(self.hits)}, "
                f"candidates={self.candidates}, "
                f"budget_exhausted={self.budget_exhausted})")


# ---------------------------------------------------------------------------
# commutator templates

Tree = object  # int (pool index) or (Tree, Tree)


def _nesting(tree: Tree) -> int:
    if isinstance(tree, int):
        return 0
    return 1 + max(_nesting(tree[0]), _nesting(tree[1]))


def _terms_by_size(cfg: SearchConfig) -> list[list[Tree]]:
    """terms[s] = size-s commutator trees, in contract order; terms[0] unused."""
    max_size = 2 ** cfg.max_nesting
    terms: list[list[Tree]] = [[], list(range(len(cfg.pool)))]
    for s in range(2, max_size + 1):
        level: list[Tree] = []
        for ls in range(1, s):
            for left in terms[ls]:
                for right in terms[s - ls]:
                    if left == right:
                        continue
                    tree = (left, right)
                    if _nesting(tree) <= cfg.max_nesting:
                        level.append(tree)
        terms.append(level)
    return terms


def _tree_word(tree: Tree, cfg: SearchConfig) -> BraidWord:
    if isinstance(tree, int):
        return cfg.pool[tree]
    return commutator(_tree_word(tree[0], cfg), _tree_word(tree[1], cfg))


# ---------------------------------------------------------------------------
# search


def search_deep(cfg: SearchConfig) -> SearchOutcome:
    """Enumerate, evaluate, and verify candidates; see the module docstring
    for the ordering contract.  Results are deduplicated by the leading
    coefficient's ``liealg.orbit_key`` (its class under sign and the S_n
    action), keeping the earliest candidate."""
    n, precision, target = cfg.n, cfg.precision, cfg.target_depth
    term_words = [[_tree_word(t, cfg) for t in level]
                  for level in _terms_by_size(cfg)]
    max_term_size = len(term_words) - 1
    # term tables (p, T, n, n): the coefficient stacks of each size's terms
    term_arrays = [
        np.stack([burau_eval_trunc(w, precision).stack for w in level], axis=1)
        if level else None
        for level in term_words]
    # a product of at most m = max_terms stacks whose entries have size at
    # most c has entries, and partial sums, of size at most c^m (n p)^(m-1)
    c = max(int(np.abs(a).max()) for a in term_arrays if a is not None)
    bound = c ** cfg.max_terms * (n * precision) ** (cfg.max_terms - 1)
    dtype = np.int64 if bound < 1 << 62 else object
    term_arrays = [a if a is None else a.astype(dtype) for a in term_arrays]

    ident = TruncMatrix.identity(n, precision).stack.astype(dtype)

    counter = 0
    exhausted = False
    raw_hits: list[tuple[int, tuple[BraidWord, ...], int]] = []

    def scan_batch(start: int, prefix_words: tuple[BraidWord, ...],
                   out: np.ndarray, size: int) -> None:
        const_ok = (out[0] == ident[0]).all(axis=(1, 2))
        if target > 1:
            const_ok &= (out[1:target] == 0).all(axis=(0, 2, 3))
        for t in np.nonzero(const_ok)[0]:
            depth = None
            for c in range(target, precision):
                if out[c, t].any():
                    depth = c
                    break
            if depth is not None:
                raw_hits.append((start + int(t),
                                 prefix_words + (term_words[size][t],), depth))

    def emit(remaining: int, slots: int, prefix_words: tuple[BraidWord, ...],
             prefix: np.ndarray) -> bool:
        """Enumerate continuations; returns False when the budget is hit."""
        nonlocal counter, exhausted
        for size in range(1, min(remaining, max_term_size) + 1):
            level = term_words[size]
            if not level:
                continue
            if size == remaining:
                limit = len(level)
                if cfg.budget is not None and counter + limit > cfg.budget:
                    limit = cfg.budget - counter
                    exhausted = True
                if limit > 0:
                    scan_batch(counter, prefix_words,
                               trunc_mul(prefix, term_arrays[size][:, :limit]),
                               size)
                    counter += limit
                if exhausted:
                    return False
            elif slots > 1:
                for idx, word in enumerate(level):
                    nxt = trunc_mul(prefix, term_arrays[size][:, idx])
                    if not emit(remaining - size, slots - 1,
                                prefix_words + (word,), nxt):
                        return False
        return True

    max_total = cfg.max_terms * max_term_size
    for total in range(1, max_total + 1):
        if not emit(total, cfg.max_terms, (), ident):
            break

    hits: list[SearchHit] = []
    seen: set[tuple[int, ...]] = set()
    for index, seq, depth in raw_hits:
        word = concat(*seq)
        if letter_bound(word) <= cfg.exact_cap:
            exact = burau_eval(word)
            if exact.depth() != depth:
                raise AssertionError("exact depth disagrees with the scan")
            m = exact.truncate(depth + 1)
        else:
            m = burau_eval_trunc(word, precision)
            if m.depth_bound() != depth:
                raise AssertionError("batched evaluation disagrees with recheck")
        leading = GradedElement(depth, m.coefficient(depth))
        key = orbit_key(leading)
        if key in seen:
            continue
        seen.add(key)
        hits.append(SearchHit(word, depth, leading, index))
        if len(hits) >= cfg.result_cap:
            break
    return SearchOutcome(hits, counter, exhausted)


# ---------------------------------------------------------------------------
# the two published-element reconstruction configs


def alpha_search_config(budget: int = 10 ** 6) -> SearchConfig:
    """Products of up to four commutators of band generators on the first
    four strands; the depth-3 element alpha lives in this space."""
    from .words import pure_gen
    pool = [pure_gen(5, i, j)
            for i in range(1, 4) for j in range(i + 1, 5)]
    return SearchConfig(5, 3, pool, max_nesting=1, max_terms=4,
                        precision=4, budget=budget)


def delta_search_config(budget: int = 10 ** 5) -> SearchConfig:
    """Single commutator templates of nesting two over the three-word pool
    that produces the depth-5 element delta."""
    from .words import Power, alpha_word, gen, pure_gen
    a25sq_a45 = concat(Power(5, pure_gen(5, 2, 5), 2), pure_gen(5, 4, 5))
    pool = [alpha_word(5), gen(5, 4), a25sq_a45]
    return SearchConfig(5, 5, pool, max_nesting=2, max_terms=1,
                        precision=6, budget=budget)
