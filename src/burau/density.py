"""Constructive approximation of unitary matrices by braid words.

The engine rests on a witness library: for each degree k up to a bound K,
a list of braid words whose leading coefficients span G_k over Z.  Given a
matrix gamma in the target group, `approximate` peels it degree by degree:
match the permutation first, then repeatedly read the lowest nonzero
coefficient of the residual, express it as an integer combination of
witness coefficients (coefficients add under products, because the graded
quotients are abelian), and divide the corresponding word back out.  After
K steps the residual agrees with the identity through degree K.

Library recipe, per degree:
  1        the band generators A_ij                       (images X_ij)
  2        [A_ij, A_ik]                                   (images Y_ijk)
  3        S_n-conjugates of the depth-3 seed word alpha  (orbit of X_24 - X_13)
  even >=4 [A_ij, degree-(k-1) witness]                   (images <G_1, G_{k-1}>)
  odd >=5  [A_25^2 A_45, inductor_{k-2}] and its S_n-conjugates, topped up
           with [A_ij, degree-(k-1) witness] commutators

where inductor_k is a stored depth-k word with leading coefficient exactly
X_24 - X_25.  The induction step's raw output only has that coefficient
modulo 2 G_k; the build normalizes it by dividing out a solve of the even
part before storing.

Every solve over witness coefficients starts from the HNF solution and
shortens it by Babai's nearest plane against the LLL-reduced lattice of
relations among the witnesses (``IntLattice.shorten``), so exponents stay
small and words short.  The build's normalizing solve moves only by twice
a relation: that keeps the solution mod 2, on which the next induction
step's congruence rests.

The build keeps candidates by their predicted coefficients until they span
G_k (HNF rank against the closed-form basis); a miss raises SpanFailure,
which for n < 5 is expected (the orbit of X_24 - X_13 is too small) and
otherwise indicates a bug.  `WitnessLibrary.verify`, the check a loaded
library gets, certifies the finished library: coefficients, spans and the
induction congruence.
"""

from __future__ import annotations

import json
import math
from typing import Iterator

import numpy as np

from .laurent import json_int
from .liealg import GradedElement, g_basis, g_lattice, gen_x, sn_act
from .linalg import IntLattice, IntMatrix, LaurentMatrix, TruncMatrix
from .rep import GammaElement, burau_eval, burau_eval_trunc, gamma_check
from .words import (BraidWord, Perm, Power, all_perms, alpha_word, commutator,
                    concat, empty_word, flatten, gen, node_count, parse_word,
                    perm_lift, pure_gen, word_format)

MIN_N = 2
MAX_N = 8
MAX_DEGREE = 6


class SpanFailure(Exception):
    """A degree's candidate list failed to span G_k.

    Expected for n < 5; otherwise a bug, since the candidates are chosen
    to realize surjections that hold for all n >= 5.
    """

    def __init__(self, degree: int, message: str = ""):
        self.degree = degree
        super().__init__(message or f"witness candidates do not span degree {degree}")


class NoSolution(Exception):
    """A target is not an integer combination of library coefficients."""


class NotInGamma(Exception):
    """The input matrix fails one of the group membership conditions."""

    def __init__(self, report):
        self.report = report
        super().__init__("matrix is not in the group: "
                         + ", ".join(report.violations))


class DepthRegression(Exception):
    """An approximation step failed to strictly increase residual depth."""


class LibraryIntegrityError(Exception):
    """A reloaded or freshly built library fails re-verification."""


class Witness:
    """A braid word together with its computed leading coefficient."""

    __slots__ = ("word", "element")

    def __init__(self, word: BraidWord, element: GradedElement):
        self.word = word
        self.element = element

    @property
    def degree(self) -> int:
        return self.element.degree

    def to_json(self) -> dict:
        return {"word": word_format(self.word), "element": self.element.to_json()}

    @staticmethod
    def from_json(data: dict, n: int, table: dict | None = None) -> "Witness":
        """``table``, when given, interns the word (see ``parse_word``)."""
        element = GradedElement.from_json(data["element"])
        return Witness(parse_word(data["word"], n, table=table), element)

    def __repr__(self) -> str:
        return f"Witness(degree={self.degree}, word={self.word!r})"


def _a25sq_a45(n: int) -> BraidWord:
    return concat(Power(n, pure_gen(n, 2, 5), 2), pure_gen(n, 4, 5))


def _conjugate(by: BraidWord, w: BraidWord) -> BraidWord:
    if not flatten(by):
        return w
    return concat(by, w, by.inverse())


def _coefficient(m: TruncMatrix, k: int) -> IntMatrix:
    """The degree-k coefficient of a word's image mod s^p, p > k, where
    the word must have depth >= k.  Truncation is a ring map, so any p
    gives the coefficient and the depth test of p = k + 1."""
    if m.depth_bound() < k:
        raise LibraryIntegrityError(
            f"degree-{k} word has depth {m.depth_bound()}")
    return m.coefficient(k)


class WitnessLibrary:
    """Per-degree witness lists with spanning certificates.

    The witness words share most of their nodes: each degree's words are
    built from the degree below.  The library keeps one fold memo (see
    ``words.fold``) of their images mod s^(K+1), K = max_degree, so each
    shared node is folded once, and one HNF lattice per degree.  Both are
    made from the finished lists.
    """

    def __init__(self, n: int, max_degree: int,
                 per_degree: dict[int, list[Witness]],
                 inductors: dict[int, Witness]):
        self.n = n
        self.max_degree = max_degree
        self.per_degree = per_degree
        self.inductors = inductors
        self._memo: dict | None = None
        self._lattices: dict[int, IntLattice] = {}

    def witnesses(self, k: int) -> list[Witness]:
        if not 1 <= k <= self.max_degree:
            raise ValueError(f"degree {k} outside library range 1..{self.max_degree}")
        return self.per_degree[k]

    def coefficient_lattice(self, k: int) -> IntLattice:
        if k not in self._lattices:
            self._lattices[k] = self._lattice(k)
        return self._lattices[k]

    def _lattice(self, k: int) -> IntLattice:
        return IntLattice(self.n * self.n,
                          [w.element.matrix.vec() for w in self.witnesses(k)])

    def _fold(self, memo: dict) -> dict[int, list[TruncMatrix]]:
        """Every witness's image mod s^(K+1), folded through ``memo``."""
        p = self.max_degree + 1
        return {k: [burau_eval_trunc(w.word, p, memo) for w in ws]
                for k, ws in self.per_degree.items()}

    def fold_memo(self, precision: int) -> dict:
        """A copy of the library's fold memo, truncated to precision
        <= K + 1, to fold words made of the library's words.  Nodes of
        such a word enter only the copy, so the library's memo does not
        keep them.  A library loaded with trust fills its memo here, on
        first use."""
        if self._memo is None:
            memo: dict = {}
            self._fold(memo)
            self._memo = memo
        if precision == self.max_degree + 1:
            return dict(self._memo)
        return {key: TruncMatrix(m.stack[:precision])
                for key, m in self._memo.items()}

    # -- verification ------------------------------------------------------

    def verify(self) -> None:
        """Recompute every stored coefficient and every spanning and
        induction certificate; raise LibraryIntegrityError on any miss.

        The witnesses are folded through a new memo, never an earlier
        one, and the lattices are made anew; the library keeps both."""
        lattices = {}
        for k in range(1, self.max_degree + 1):
            if any(w.element.degree != k or w.element.n != self.n
                   for w in self.per_degree[k]):
                raise LibraryIntegrityError("degree or size mismatch in library")
            lattices[k] = self._lattice(k)
            if lattices[k] != g_lattice(self.n, k):
                raise LibraryIntegrityError(f"degree {k} no longer spans")
        for k, ind in self.inductors.items():
            if ind.element.matrix != _induction_target(self.n):
                raise LibraryIntegrityError(f"inductor at degree {k} has the "
                                            "wrong coefficient")
        memo: dict = {}
        for k, images in self._fold(memo).items():
            for w, m in zip(self.per_degree[k], images):
                if _coefficient(m, k) != w.element.matrix:
                    raise LibraryIntegrityError(
                        f"stored degree-{k} word has a different coefficient "
                        "than recorded")
        self._memo, self._lattices = memo, lattices
        self.verify_induction()

    def verify_induction(self) -> None:
        """Check the odd-degree step, in each odd degree 3 <= k <= K, on
        every stored word it could consume: bracketing A_25^2 A_45 against
        a depth-k word with coefficient X_24 - X_25 must land on
        X_24 - X_25 modulo 2 G_{k+2}.  The inductors are listed among their
        degree's witnesses.

        With S = A_25^2 A_45 = I + O(s) and W = I + O(s^k),
        [S, W] = I + (SW - WS) S^-1 W^-1 and SW - WS = O(s^(k+1)) is
        bilinear in S - I and W - I, so [S, W] mod s^(k+3) reads W only
        mod s^(k+2).  The library's fold memo, mod s^(K+1), gives W that
        far when K >= k + 1; when that image has depth >= k, W stands in
        the bracket as it, with a zero s^(k+2) coefficient."""
        target = _induction_target(self.n)
        shift = _a25sq_a45(self.n)
        for k in range(3, self.max_degree + 1, 2):
            p = k + 3
            for w in self.per_degree.get(k, ()):
                if w.element.matrix != target:
                    continue
                given = {}
                if self._memo is not None and k < self.max_degree:
                    low = self._memo[w.word, False].stack[:p - 1]
                    image = TruncMatrix(np.concatenate([low, 0 * low[:1]]))
                    if image.depth_bound() >= k:
                        given = {(w.word, False): image,
                                 (w.word, True): image.inverse()}
                m = burau_eval_trunc(commutator(shift, w.word), p, given)
                diff = _coefficient(m, k + 2) - target
                if not _two_g_lattice(self.n, k + 2).contains(diff.vec()):
                    raise LibraryIntegrityError(
                        f"induction from degree {k} misses the congruence")

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "maxDegree": self.max_degree,
            "degrees": {str(k): [w.to_json() for w in self.per_degree[k]]
                        for k in range(1, self.max_degree + 1)},
            "inductors": {str(k): w.to_json() for k, w in self.inductors.items()},
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")

    @staticmethod
    def from_json(data: dict, trust: bool = False) -> "WitnessLibrary":
        n = json_int(data["n"], name="n")
        max_degree = json_int(data["maxDegree"], name="maxDegree")
        degrees = data["degrees"]
        # one intern table: a subword the text repeats becomes one node,
        # so the fold memo evaluates it once
        table: dict = {}
        per_degree = {k: [Witness.from_json(w, n, table)
                          for w in degrees[str(k)]]
                      for k in range(1, max_degree + 1)}
        # each inductor is stored again among its degree's witnesses; share
        # that entry, so verify evaluates it once
        inductors = {}
        for key, entry in data.get("inductors", {}).items():
            k = json_int(key, True, name="inductors")
            listed = degrees[str(k)] if 1 <= k <= max_degree else []
            if entry not in listed:
                raise LibraryIntegrityError(f"inductor at degree {k} is not "
                                            "among that degree's witnesses")
            inductors[k] = per_degree[k][listed.index(entry)]
        lib = WitnessLibrary(n, max_degree, per_degree, inductors)
        if not trust:
            lib.verify()
        return lib

    @staticmethod
    def load(path: str, trust: bool = False) -> "WitnessLibrary":
        with open(path, "r", encoding="utf-8") as fh:
            return WitnessLibrary.from_json(json.load(fh), trust=trust)

    def __repr__(self) -> str:
        sizes = {k: len(v) for k, v in self.per_degree.items()}
        return f"WitnessLibrary(n={self.n}, maxDegree={self.max_degree}, sizes={sizes})"


def _induction_target(n: int) -> IntMatrix:
    return (gen_x(2, 4, n) - gen_x(2, 5, n)).matrix


_TWO_G_CACHE: dict[tuple[int, int], IntLattice] = {}


def _two_g_lattice(n: int, k: int) -> IntLattice:
    key = (n, k)
    if key not in _TWO_G_CACHE:
        _TWO_G_CACHE[key] = IntLattice(
            n * n, [tuple(2 * v for v in b.matrix.vec()) for b in g_basis(n, k)])
    return _TWO_G_CACHE[key]


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _alpha_seed(n: int) -> GradedElement:
    return GradedElement(3, (gen_x(2, 4, n) - gen_x(1, 3, n)).matrix)


def _degree_candidates(n: int, k: int, per_degree: dict[int, list[Witness]],
                       inductors: dict[int, Witness],
                       raw_inductor: Witness | None) -> Iterator[tuple[IntMatrix, BraidWord]]:
    """Deterministic candidate stream (predicted coefficient, word).

    Predictions cost no matrix evaluation: conjugates transform the leading
    coefficient by the permutation action exactly, and a commutator against
    a depth-1 word brackets the leading coefficients exactly.  Every
    accepted candidate is re-evaluated by `WitnessLibrary.verify` once the
    library is built.
    """
    if k == 1:
        for i, j in _pairs(n):
            yield gen_x(i, j, n).matrix, pure_gen(n, i, j)
    elif k == 2:
        pairs = _pairs(n)
        for a in pairs:
            for b in pairs:
                if a != b and len(set(a) & set(b)) == 1:
                    pred = gen_x(*a, n).matrix.commutator(gen_x(*b, n).matrix)
                    yield pred, commutator(pure_gen(n, *a), pure_gen(n, *b))
    elif k == 3:
        seed_word = alpha_word(n)
        seed = _alpha_seed(n)
        for pi in all_perms(n):
            pred = sn_act(pi, seed).matrix
            yield pred, _conjugate(perm_lift(pi), seed_word)
    else:
        if k % 2 == 1:
            assert raw_inductor is not None
            yield raw_inductor.element.matrix, raw_inductor.word
            for pi in all_perms(n):
                pred = sn_act(pi, raw_inductor.element).matrix
                yield pred, _conjugate(perm_lift(pi), raw_inductor.word)
        for w in per_degree[k - 1]:
            for i, j in _pairs(n):
                pred = gen_x(i, j, n).matrix.commutator(w.element.matrix)
                yield pred, commutator(pure_gen(n, i, j), w.word)


def build_witness_library(n: int, max_degree: int) -> WitnessLibrary:
    """Build and certify a witness library for n strands up to max_degree.

    Supports MIN_N <= n <= MAX_N and max_degree <= MAX_DEGREE.  Raises
    SpanFailure when a degree cannot be spanned (always the case for n < 5;
    degree 3 needs the full orbit of a two-pair difference), and
    LibraryIntegrityError when `WitnessLibrary.verify` rejects the result.
    """
    if n < MIN_N:
        raise ValueError(f"need at least {MIN_N} strands")
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    if n > MAX_N or max_degree > MAX_DEGREE:
        raise ValueError(f"n={n}, K={max_degree} is outside the supported "
                         f"range n <= {MAX_N}, K <= {MAX_DEGREE}")

    per_degree: dict[int, list[Witness]] = {}
    inductors: dict[int, Witness] = {}
    dim = n * n
    # the raw inductors' images mod s^(K+1), through one fold memo as the
    # library's
    memo: dict = {}

    for k in range(1, max_degree + 1):
        if k == 3 and n < 4:
            raise SpanFailure(3, "the depth-3 seed word needs at least 4 strands")
        if k % 2 == 1 and k >= 5 and n < 5:
            raise SpanFailure(k, "the induction word needs at least 5 strands")

        raw_inductor = None
        if k % 2 == 1 and k >= 5:
            word = commutator(_a25sq_a45(n), inductors[k - 2].word)
            image = burau_eval_trunc(word, max_degree + 1, memo)
            raw_inductor = Witness(word, GradedElement(k, _coefficient(image, k)))

        target = g_lattice(n, k)
        chosen: list[Witness] = []
        span = IntLattice(dim, [])
        for pred, word in _degree_candidates(n, k, per_degree, inductors,
                                             raw_inductor):
            if span == target:
                break
            if pred.is_zero() or span.contains(pred.vec()):
                continue
            chosen.append(Witness(word, GradedElement(k, pred)))
            # the HNF is canonical: extending the current one by a row
            # spans what every accepted vector spans
            span = IntLattice(dim, [*span.hnf, pred.vec()])
        if span != target:
            raise SpanFailure(k)
        per_degree[k] = chosen

        if k % 2 == 1 and k >= 3:
            if k == 3:
                word = commutator(alpha_word(n), gen(n, 4))
            else:
                diff = raw_inductor.element.matrix - _induction_target(n)
                corr = _solve(WitnessLibrary(n, k, per_degree, {}), k, diff,
                              scale=2)[1]
                word = concat(raw_inductor.word, corr.inverse())
            inductors[k] = Witness(word, GradedElement(k, _induction_target(n)))
            per_degree[k].append(inductors[k])

    lib = WitnessLibrary(n, max_degree, per_degree, inductors)
    lib.verify()
    return lib


_LIBRARY_CACHE: dict[tuple[int, int], WitnessLibrary] = {}


def default_library(n: int, max_degree: int) -> WitnessLibrary:
    key = (n, max_degree)
    if key not in _LIBRARY_CACHE:
        _LIBRARY_CACHE[key] = build_witness_library(n, max_degree)
    return _LIBRARY_CACHE[key]


def _solve(lib: WitnessLibrary, k: int, target: IntMatrix,
           scale: int = 1) -> tuple[list[int], BraidWord]:
    """A short solution over the degree-k witness coefficients, and the
    product of witness powers it gives.

    The HNF solution, less the multiple of ``scale`` times a relation
    among the witnesses that Babai's nearest plane picks against the
    LLL-reduced relation lattice; with scale = 2 the result keeps the HNF
    solution's parity."""
    lattice = lib.coefficient_lattice(k)
    coeffs = lattice.solve(target.vec())
    if coeffs is None:
        raise NoSolution(f"target is not in the degree-{k} coefficient lattice")
    coeffs = lattice.shorten(coeffs, scale)
    parts = [w.word if c == 1 else Power(lib.n, w.word, c)
             for c, w in zip(coeffs, lib.witnesses(k)) if c != 0]
    return coeffs, concat(*parts) if parts else empty_word(lib.n)


def solve_in_degree(lib: WitnessLibrary, t: GradedElement) -> BraidWord:
    """A braid word of depth >= k whose degree-k coefficient is t.

    Returns the product of witness powers for the HNF solution shortened
    against the relations among the witnesses (see ``_solve``).  Valid
    because coefficients add under products of depth->=k elements.
    """
    if t.n != lib.n:
        raise ValueError("size mismatch between target and library")
    return _solve(lib, t.degree, t.matrix)[1]


class StepRecord:
    """One degree of the approximation loop."""

    __slots__ = ("degree", "coefficients", "residual_depth")

    def __init__(self, degree: int, coefficients: tuple[int, ...],
                 residual_depth: int):
        self.degree = degree
        self.coefficients = coefficients
        self.residual_depth = residual_depth

    def to_json(self) -> dict:
        return {"degree": self.degree,
                "coefficients": list(self.coefficients),
                "residualDepth": self.residual_depth}

    def __repr__(self) -> str:
        return (f"StepRecord(degree={self.degree}, "
                f"residual_depth={self.residual_depth})")


class ApproximationResult:
    __slots__ = ("word", "achieved_depth", "steps", "n", "precision")

    def __init__(self, word: BraidWord, achieved_depth: int | float,
                 steps: list[StepRecord], n: int, precision: int):
        self.word = word
        self.achieved_depth = achieved_depth
        self.steps = steps
        self.n = n
        self.precision = precision

    def residual_depth(self, gamma: LaurentMatrix, precision: int | None = None) -> int:
        """Recompute depth(gamma^-1 beta(word)) from scratch, truncated."""
        prec = precision if precision is not None else self.precision
        r = gamma.truncate(prec).inverse() * burau_eval_trunc(self.word, prec)
        return r.depth_bound()

    def to_json(self) -> dict:
        depth = ("infinity" if self.achieved_depth == math.inf
                 else self.achieved_depth)
        return {"word": word_format(self.word), "achievedDepth": depth,
                "perStep": [s.to_json() for s in self.steps]}

    def __repr__(self) -> str:
        return (f"ApproximationResult(achieved_depth={self.achieved_depth}, "
                f"steps={len(self.steps)})")


def approximate(gamma: GammaElement | LaurentMatrix, max_degree: int | None = None,
                library: WitnessLibrary | None = None,
                exact_check: bool | None = None) -> ApproximationResult:
    """A braid word whose image agrees with gamma through degree max_degree.

    Reads only the matrix of gamma, never any provenance word.  All
    residual arithmetic runs in the truncated ring at precision K+1.  The
    exact recheck (comparing beta(word) to gamma entrywise over the Laurent
    ring) defaults to on for K <= 4 and off above; it is the only path that
    can certify an infinite achieved depth.
    """
    matrix = gamma.matrix if isinstance(gamma, GammaElement) else gamma
    report = gamma_check(matrix)
    if not report:
        raise NotInGamma(report)
    n = matrix.n

    if library is None:
        if max_degree is None:
            raise ValueError("need max_degree when no library is given")
        library = default_library(n, max_degree)
    if max_degree is None:
        max_degree = library.max_degree
    if library.n != n:
        raise ValueError("library is for a different strand count")
    if max_degree > library.max_degree:
        raise ValueError(f"max_degree {max_degree} exceeds library degree "
                         f"{library.max_degree}")

    precision = max_degree + 1
    # the corrections are products of witness powers: fold them through
    # the library's memo, so no witness word is folded again
    memo = library.fold_memo(precision)
    images = matrix.at_one().permutation_images()
    word: BraidWord = perm_lift(Perm(images))
    g_inv = matrix.truncate(precision).inverse()
    residual = g_inv * burau_eval_trunc(word, precision, memo)
    if residual.depth_bound() < 1:
        raise DepthRegression("permutation step left a nonzero constant term")
    steps = [StepRecord(0, images, residual.depth_bound())]

    for k in range(1, max_degree + 1):
        if residual.depth_bound() < k:
            raise DepthRegression(f"entered degree {k} with depth "
                                  f"{residual.depth_bound()}")
        t = residual.coefficient(k)
        if t.is_zero():
            steps.append(StepRecord(k, (0,) * len(library.witnesses(k)),
                                    residual.depth_bound()))
            continue
        coeffs, correction = _solve(library, k, t)
        word = concat(word, correction.inverse())
        residual = residual * burau_eval_trunc(correction, precision,
                                               memo).inverse()
        if residual.depth_bound() < k + 1:
            raise DepthRegression(f"degree-{k} step did not clear its "
                                  "coefficient")
        steps.append(StepRecord(k, tuple(coeffs), residual.depth_bound()))

    achieved: int | float = residual.depth_bound()

    run_exact = exact_check if exact_check is not None else max_degree <= 4
    if run_exact or node_count(word) <= 1:
        exact_depth = (burau_eval(word) - matrix).s_valuation()
        if exact_depth == math.inf:
            achieved = math.inf
        elif exact_depth < max_degree + 1:
            raise DepthRegression("exact recheck contradicts the truncated "
                                  f"depth claim: {exact_depth}")
    return ApproximationResult(word, achieved, steps, n, precision)
