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

The scan carries the live prefixes of one slot, as coefficient stacks mod
s^p, in one batch with the contract index at which each prefix's candidates
start.  Those candidates are contiguous and their count depends only on the
size and slots left, so term b of size s after prefix P has index base(P) +
(the candidates of the smaller sizes in this slot) + b * (the candidates
after one term of size s).  A product is a slab of prefixes times a slab of
terms, at most `_BLOCK` stacks; the budget drops every prefix and candidate
whose index reaches it.  Raw hits are kept as (index, depth), sorted once,
and read back into terms.  Tables under an a-priori bound of 2^53 are
float64, multiplied by ``linalg.toeplitz_mul`` against block-Toeplitz
operands built once per search; others take ``linalg.trunc_mul``.  A config
whose term table would exceed `MAX_TABLE_TERMS` is refused, since the table
is evaluated in full before the budget applies.

Every raw hit is rechecked once, sharing nothing with the scan: its image
mod s^p is rebuilt from the truncated generator images on Python ints
(``trunc_mul_ints``), each term word folded once per search.  Truncation
is a ring homomorphism and the scan's depth is below p, so this residue
certifies the depth and the leading coefficient exactly.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import Sequence

import numpy as np

from .laurent import json_int
from .liealg import GradedElement, orbit_key
from .linalg import (IntMatrix, TruncMatrix, toeplitz_mul, toeplitz_operand,
                     trunc_depths, trunc_mul, trunc_mul_ints)
from .rep import burau_eval_trunc, burau_gen
from .words import BraidWord, commutator, concat, fold, parse_word, word_format

#: the most commutator terms a config may have.  The whole term table is
#: built and evaluated before the budget applies, at about 0.33 ms a term at
#: nesting 3 (5553 terms of a three-word pool in 1.8 s, a third of it
#: enumerating the trees; 2-CPU x86 box, Python 3.11), so the cap bounds
#: that near 1.5 s.
MAX_TABLE_TERMS = 4096
#: the most stacks one product of the scan makes
_BLOCK = 256


def _term_count(pool_size: int, max_nesting: int, cap: int) -> int:
    """The number of commutator terms nested at most ``max_nesting`` deep
    over a pool of ``pool_size`` words; the count stops at the first nesting
    level whose terms exceed ``cap``."""
    counts = {1: pool_size}  # size -> terms of that size at this nesting
    for _ in range(max_nesting):
        deeper = {1: pool_size}
        for ls, a in counts.items():
            for rs, b in counts.items():
                # [L, R] for every pair of halves, except L == R
                pairs = a * b - (a if ls == rs else 0)
                deeper[ls + rs] = deeper.get(ls + rs, 0) + pairs
        deeper = {s: c for s, c in deeper.items() if c}
        if deeper == counts:
            break  # a one-word pool: nesting adds no terms
        counts = deeper
        if sum(counts.values()) > cap:
            break
    return sum(counts.values())


class SearchConfig:
    __slots__ = ("n", "target_depth", "pool", "max_nesting", "max_terms",
                 "precision", "result_cap", "budget")

    def __init__(self, n: int, target_depth: int, pool: Sequence[BraidWord],
                 max_nesting: int = 1, max_terms: int = 1,
                 precision: int | None = None, result_cap: int = 100,
                 budget: int | None = None):
        self.n = n
        self.target_depth = target_depth
        self.pool = tuple(pool)
        self.max_nesting = max_nesting
        self.max_terms = max_terms
        self.precision = precision if precision is not None else target_depth + 1
        self.result_cap = result_cap
        self.budget = budget
        if not self.pool:
            raise ValueError("empty generator pool")
        if any(w.n != n for w in self.pool):
            raise ValueError("pool words disagree with n")
        if self.precision <= target_depth:
            raise ValueError("precision must exceed target_depth")
        if (target_depth < 1 or max_terms < 1 or result_cap < 1
                or min(max_nesting, budget or 0) < 0):
            raise ValueError("bounds must be positive (maxNesting and budget "
                             "non-negative)")
        terms = _term_count(len(self.pool), max_nesting, MAX_TABLE_TERMS)
        if terms > MAX_TABLE_TERMS:
            raise ValueError(
                f"maxNesting {max_nesting} over {len(self.pool)} pool words "
                f"makes at least {terms} commutator terms; at most "
                f"{MAX_TABLE_TERMS} are allowed")

    def to_json(self) -> dict:
        return {"n": self.n, "targetDepth": self.target_depth,
                "pool": [word_format(w) for w in self.pool],
                "maxNesting": self.max_nesting, "maxTerms": self.max_terms,
                "precision": self.precision, "resultCap": self.result_cap,
                "budget": self.budget}

    @staticmethod
    def from_json(data: dict, bindings=None) -> "SearchConfig":
        """Read a config; every number is a JSON integer, the pool is a
        list of word strings, and an optional field that is absent or null
        takes its default.  Unknown fields are ignored."""
        def optional(key: str, default: int | None) -> int | None:
            value = data.get(key)
            return default if value is None else json_int(value, name=key)

        n = json_int(data["n"], name="n")
        if not (isinstance(data["pool"], list)
                and all(isinstance(w, str) for w in data["pool"])):
            raise TypeError("pool: expected a list of words")
        pool = [parse_word(w, n, bindings) for w in data["pool"]]
        return SearchConfig(
            n, json_int(data["targetDepth"], name="targetDepth"), pool,
            max_nesting=optional("maxNesting", 1),
            max_terms=optional("maxTerms", 1),
            precision=optional("precision", None),
            result_cap=optional("resultCap", 100),
            budget=optional("budget", None))


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


def _terms_by_size(cfg: SearchConfig) -> list[list[Tree]]:
    """terms[s] = size-s commutator trees, in contract order; terms[0] unused.

    Each tree is carried with its nesting, so a pair whose halves are
    already nested ``max_nesting`` deep is skipped before it is built."""
    top = cfg.max_nesting
    # per size, (tree, nesting) pairs
    terms: list[list[tuple[Tree, int]]] = [[], [(i, 0) for i in
                                                 range(len(cfg.pool))]]
    for s in range(2, 2 ** top + 1):
        level = [((left, right), 1 + max(ln, rn))
                 for ls in range(1, s)
                 for left, ln in terms[ls] if ln < top
                 for right, rn in terms[s - ls] if rn < top and left != right]
        if not level:
            break  # a one-word pool: no size beyond 1 has a term
        terms.append(level)
    return [[tree for tree, _ in level] for level in terms]


def _term_table(cfg: SearchConfig) -> tuple[list[list[BraidWord]],
                                             list[np.ndarray | None]]:
    """The term words of each size, in contract order, and their
    coefficient stacks as one table (p, T, n, n) per size (None when a size
    has no term).  [L, R] is built from the word objects of L and R, and
    every table is folded through one memo, so a commutator costs three
    products over its already-folded halves.  The tables are float64 when
    an a-priori bound on every candidate product's entries is below 2^53,
    and Python ints otherwise."""
    built: dict[Tree, BraidWord] = {}
    words: list[list[BraidWord]] = []
    for level in _terms_by_size(cfg):
        for tree in level:
            built[tree] = (cfg.pool[tree] if isinstance(tree, int)
                           else commutator(built[tree[0]], built[tree[1]]))
        words.append([built[tree] for tree in level])
    memo: dict = {}
    arrays = [np.stack([burau_eval_trunc(w, cfg.precision, memo).stack
                        for w in level], axis=1) if level else None
              for level in words]
    # a product of at most m = max_terms stacks whose entries have size at
    # most c has entries, and partial sums, of size at most c^m (n p)^(m-1)
    c = max(int(np.abs(a).max()) for a in arrays if a is not None)
    m = cfg.max_terms
    if c ** m * (cfg.n * cfg.precision) ** (m - 1) < 1 << 53:
        # through int64: Python ints convert to float64 slowly
        arrays = [a if a is None else a.astype(np.int64).astype(np.float64)
                  for a in arrays]
    return words, arrays


# ---------------------------------------------------------------------------
# search


def search_deep(cfg: SearchConfig) -> SearchOutcome:
    """Enumerate, evaluate, and verify candidates; see the module docstring
    for the ordering contract.  Results are deduplicated by the leading
    coefficient's ``liealg.orbit_key`` (its class under sign and the S_n
    action), keeping the earliest candidate."""
    n, precision, target = cfg.n, cfg.precision, cfg.target_depth
    term_words, term_arrays = _term_table(cfg)
    top, m = len(term_words) - 1, cfg.max_terms

    def width(size: int, remaining: int, slots: int) -> int:
        """The candidates that follow each term of ``size`` put in the first
        of ``slots`` slots that hold terms of total size ``remaining``."""
        if size == remaining:
            return 1
        return count(remaining - size, slots - 1) if slots > 1 else 0

    @functools.cache
    def count(remaining: int, slots: int) -> int:
        return sum(len(term_words[size]) * width(size, remaining, slots)
                   for size in range(1, min(remaining, top) + 1))

    # starts[t - 1]: the index of the first candidate of total size t, as
    # far as the budget reaches; every size up to top has terms, so every
    # total up to m * top has candidates
    budget = math.inf if cfg.budget is None else cfg.budget
    starts = [0]
    while len(starts) <= m * top and starts[-1] < budget:
        starts.append(starts[-1] + count(len(starts), m))
    limit = min(starts[-1], budget)
    if limit > 1 << 50:
        raise ValueError(f"{limit} candidates; at most 2^50 can be indexed")
    fast = term_arrays[1].dtype == np.float64
    mul = toeplitz_mul if fast else trunc_mul

    @functools.cache
    def slabs(size: int) -> list[tuple[int, int, np.ndarray]]:
        """(first, count, right side) per slab of _BLOCK terms of ``size``;
        a float64 table's right side is its block-Toeplitz operand."""
        a = term_arrays[size]
        return [(c0, min(_BLOCK, a.shape[1] - c0),
                 toeplitz_operand(a[:, c0:c0 + _BLOCK]) if fast
                 else a[:, c0:c0 + _BLOCK])
                for c0 in range(0, a.shape[1], _BLOCK)]

    found = [np.zeros((2, 0), np.int64)]  # (index, depth) of raw hits

    def walk(remaining: int, slots: int, prefixes: np.ndarray,
             bases: np.ndarray) -> None:
        """Scan every candidate that fills ``slots`` more slots of total
        size ``remaining`` after one of ``prefixes`` (p, K, n, n), whose
        candidates start at ``bases`` (ascending).  Counts are clipped at
        ``limit``: an index is exact below it and at least it otherwise."""
        offset = 0
        for size in range(1, min(remaining, top) + 1):
            w = min(width(size, remaining, slots), limit)
            for c0, cols, table in slabs(size) if w else ():
                step = max(1, _BLOCK // cols)
                live = np.count_nonzero(bases + offset + c0 * w < limit)
                for r0 in range(0, live, step):
                    out = mul(prefixes[:, r0:r0 + step], table)
                    index = (bases[r0:r0 + step, None] + offset
                             + (c0 + np.arange(cols)) * w).ravel()
                    if size == remaining:
                        depths = trunc_depths(out)
                        hit = ((depths >= target) & (depths < precision)
                               & (index < limit))
                        found.append(np.stack([index, depths])[:, hit])
                    else:
                        k = np.count_nonzero(index < limit)
                        walk(remaining - size, slots - 1, out[:, :k],
                             index[:k])
            offset = min(offset + len(term_words[size]) * w, limit)

    ident = TruncMatrix.identity(n, precision).stack[:, None].astype(
        term_arrays[1].dtype)  # the empty prefix, a batch of one stack
    for total, start in enumerate(starts[:-1], start=1):
        walk(total, m, ident, np.array([start]))

    def sequence(index: int) -> tuple[BraidWord, ...]:
        """The term words of the candidate at ``index``."""
        remaining = bisect.bisect_right(starts, index)
        index, slots, seq = index - starts[remaining - 1], m, []
        while remaining:
            for size in range(1, min(remaining, top) + 1):
                w = width(size, remaining, slots)
                if index < len(term_words[size]) * w:
                    break
                index -= len(term_words[size]) * w
            seq.append(term_words[size][index // w])
            index, remaining, slots = index % w, remaining - size, slots - 1
        return tuple(seq)

    # the recheck.  Each generator image is built once, on first use; one
    # fold memo serves every term word (raw hits share them), so each is
    # folded once; the leading element and its orbit key are made once per
    # (depth, coefficient).
    @functools.cache
    def gen_image(i: int, sign: int) -> np.ndarray:
        return burau_gen(n, i, sign).truncate(precision).stack[:, None]

    one = TruncMatrix.identity(n, precision).stack[:, None]

    def product(values: list[np.ndarray]) -> np.ndarray:
        return functools.reduce(trunc_mul_ints, values)

    def leaf(letters) -> np.ndarray:
        return product([gen_image(*x) for x in letters]) if letters else one

    @functools.cache
    def graded(depth: int, coeff: IntMatrix) -> tuple:
        leading = GradedElement(depth, coeff)
        return leading, orbit_key(leading)

    folded: dict = {}
    hits: list[SearchHit] = []
    seen: set[tuple[int, ...]] = set()
    for index, depth in sorted(np.concatenate(found, axis=1).T.tolist()):
        seq = sequence(index)
        image = TruncMatrix(product([fold(w, leaf, one, product, folded)
                                     for w in seq])[:, 0])
        if image.depth_bound() != depth:
            raise AssertionError("recheck disagrees with the scan")
        leading, key = graded(depth, image.coefficient(depth))
        if key in seen:
            continue
        seen.add(key)
        hits.append(SearchHit(concat(*seq), depth, leading, index))
        if len(hits) >= cfg.result_cap:
            break
    return SearchOutcome(hits, limit,
                         limit < starts[-1] or len(starts) <= m * top)


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
