"""The unreduced Burau representation and its s-adic filtration.

beta sends sigma_i to the identity with a 2x2 block [[1-t, 1], [t, 0]]
spliced in at rows/columns (i, i+1).  Every image fixes the column vector
v = (t, t^2, ..., t^n)^T, fixes the all-ones row covector, and is unitary
for the Hermitian form J (ones on the diagonal, -t below, -t^(-1) above,
with conjugation t -> t^(-1)).  Gamma is the group of all matrices with
those three properties whose reduction mod s = t - 1 is a permutation
matrix; gamma_check certifies membership exactly.

Writing A in Gamma as a power series in s gives integer coefficient
matrices (A)_k; the depth of A is the smallest k >= 1 with (A)_k nonzero.
gamma_coeff extracts the leading coefficient as a GradedElement.

Words are evaluated by one fold whose literal runs are column operations
on coefficient stacks: int64 stacks in t-coordinates for the exact image,
multiplied by ``linalg.stack_mul`` (in float64 under a proven exactness
bound, and by Kronecker substitution on big integers past it); and object
stacks in s-coordinates for the image mod s^N.  An exact run whose entries
could leave int64 carries on with the same operations on object columns of
Python ints.  Neither makes a Laurent object until the fold ends: the
exact image becomes a ``LaurentMatrix`` once, at the root.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .laurent import LaurentPoly, ONE, ZERO, T, T_INV
from .linalg import LaurentMatrix, TruncMatrix, stack_mul, trim_stack
from .liealg import GradedElement
from .words import BraidWord, Perm, fold


class DepthTooSmall(ValueError):
    """Asked for a coefficient below the certified depth of the element."""


# ---------------------------------------------------------------------------
# generators and invariant data

_POS_BLOCK = ((ONE - T, ONE), (T, ZERO))
_NEG_BLOCK = ((ZERO, T_INV), (ONE, ONE - T_INV))


def burau_gen(n: int, i: int, sign: int = 1) -> LaurentMatrix:
    """beta(sigma_i^sign): identity with the 2x2 block at (i, i+1)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} not in 1..{n - 1}")
    block = _POS_BLOCK if sign > 0 else _NEG_BLOCK
    rows = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    for r in range(2):
        for c in range(2):
            rows[i - 1 + r][i - 1 + c] = block[r][c]
    return LaurentMatrix(rows)


def vector_v(n: int) -> tuple[LaurentPoly, ...]:
    """The fixed column vector (t, t^2, ..., t^n)."""
    return tuple(T ** k for k in range(1, n + 1))


def ones_row(n: int) -> tuple[LaurentPoly, ...]:
    """The fixed row covector (1, ..., 1)."""
    return (ONE,) * n


def form_j(n: int) -> LaurentMatrix:
    """The Hermitian form: 1 on the diagonal, -t below, -t^(-1) above."""
    neg_t = -T
    neg_t_inv = -T_INV
    return LaurentMatrix([[ONE if r == c else neg_t if r > c else neg_t_inv
                           for c in range(n)] for r in range(n)])


# ---------------------------------------------------------------------------
# word evaluation


#: int64 entries stay below this; a letter at most triples the largest one
_INT64_ROOM = (1 << 63) // 3


def _literal_dense(n: int, letters):
    """A literal run's exact image as a dense pair (low, stack) of
    ``linalg.stack_mul``: right multiplication by each generator image as
    column operations on the (span, n) coefficient arrays of the columns,
    t^low first, never multiplying a generator image out.

    sigma_i takes columns (a, b) at (i, i+1) to (a + t(b - a), a) and
    sigma_i^-1 to (b, b + t^-1(a - b)); multiplying by t^+-1 is a shift by
    one degree.  The degrees lie between minus the run's negative letters
    and its positive ones, a range allocated once, and a shift never
    leaves it.  The columns are int64 until their entries could leave it,
    and from there object arrays of Python ints under the same operations.
    """
    neg = sum(s < 0 for _, s in letters)
    cols = [np.zeros((len(letters) + 1, n), dtype=np.int64) for _ in range(n)]
    for c in range(n):
        cols[c][neg, c] = 1
    top = 1
    for i, s in letters:
        if top > _INT64_ROOM:
            top = max(int(np.abs(c).max()) for c in cols)
            if top > _INT64_ROOM:
                cols = [c.astype(object) for c in cols]
                top = -math.inf  # Python ints need no bound
        top *= 3
        a, b = cols[i - 1], cols[i]
        if s > 0:
            new = a.copy()
            new[1:] += (b - a)[:-1]
            cols[i - 1], cols[i] = new, a
        else:
            new = b.copy()
            new[:-1] += (a - b)[1:]
            cols[i - 1], cols[i] = b, new
    return trim_stack(-neg, np.stack(cols, axis=2))


def burau_eval(w: BraidWord) -> LaurentMatrix:
    """Exact image of a word, memoized over shared DAG nodes.

    The word fold's inverse flag means no matrix is inverted.  Its values
    are dense pairs (low, stack), int64 or past it object, leaves from
    ``_literal_dense``, multiplied by ``linalg.stack_mul`` from leaf to
    root; the root's pair becomes the ``LaurentMatrix``.
    """
    n = w.n
    return LaurentMatrix.from_stack(*fold(
        w, lambda letters: _literal_dense(n, letters),
        (0, np.eye(n, dtype=np.int64)[None]),
        product=lambda values: functools.reduce(stack_mul, values)))


def _literal_stack(n: int, letters, precision: int) -> np.ndarray:
    """A literal run's image in Z[s]/(s^precision), as the (p, n, n) object
    stack of ``TruncMatrix``: the column operations of ``_literal_dense``
    in s-coordinates, t = 1 + s, with no Laurent entry on the way.

    A column is a flat list whose entry k*n + r is the s^k coefficient of
    row r, so multiplying by s shifts it n places.  sigma_i takes columns
    (a, b) at (i, i+1) to (b + s(b - a), a) and sigma_i^-1 to
    (b, b + t^-1 (a - b)), where c' = t^-1 c is the running alternating sum
    c'[k] = c[k] - c'[k-1] over degrees.  A letter costs O(p n) whatever
    the length of the run.
    """
    size = precision * n
    cols = [[0] * size for _ in range(n)]
    for c in range(n):
        cols[c][c] = 1
    for i, s in letters:
        a, b = cols[i - 1], cols[i]
        if s > 0:
            cols[i - 1] = b[:n] + [y + v - u for y, u, v in zip(b[n:], a, b)]
            cols[i] = a
        else:
            d = [u - v for u, v in zip(a, b)]
            for j in range(n, size):
                d[j] -= d[j - n]
            cols[i - 1] = b
            cols[i] = [v + x for v, x in zip(b, d)]
    return np.array(cols, dtype=object).reshape(n, precision, n).transpose(1, 2, 0)


def burau_eval_trunc(w: BraidWord, precision: int,
                     memo: dict | None = None) -> TruncMatrix:
    """Image of a word in the ring truncated at s^precision.

    The same fold as ``burau_eval``, with leaves built on the coefficient
    stack by ``_literal_stack``: no Laurent polynomial or matrix is made.
    Powers go through ``TruncMatrix.__pow__``: the image of a pure braid is
    unipotent there, so its power is a binomial series of a few products
    however large the exponent.  ``memo`` is the fold's: callers that
    evaluate several words sharing nodes at one precision pass one dict.
    """
    return fold(w, lambda letters: TruncMatrix(
                    _literal_stack(w.n, letters, precision)),
                TruncMatrix.identity(w.n, precision),
                memo=memo, power=TruncMatrix.__pow__)


# ---------------------------------------------------------------------------
# Gamma membership


class GammaElement:
    """A certified element of Gamma; equality is equality of matrices."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: LaurentMatrix, *, _certified: bool = False):
        if not _certified:
            bad = _violations(matrix)
            if bad:
                raise ValueError(f"matrix is not in Gamma: {bad}")
        self.matrix = matrix

    @property
    def n(self) -> int:
        return self.matrix.n

    def depth(self) -> int | float:
        return self.matrix.depth()

    def permutation(self) -> Perm:
        return Perm(self.matrix.at_one().permutation_images())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GammaElement):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"GammaElement(n={self.n}, depth={self.depth()})"


class GammaReport:
    """Failed membership test: which of the four conditions broke."""

    __slots__ = ("matrix", "violations")

    def __init__(self, matrix: LaurentMatrix, violations: list[str]):
        self.matrix = matrix
        self.violations = list(violations)

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"GammaReport(violations={self.violations})"


#: names of the four membership conditions, in check order
GAMMA_CONDITIONS = ("fixes_v", "fixes_ones", "unitary", "permutation_mod_s")


def _violations(matrix: LaurentMatrix) -> list[str]:
    n = matrix.n
    bad: list[str] = []
    v = vector_v(n)
    if matrix.mul_vec(v) != v:
        bad.append("fixes_v")
    ones = ones_row(n)
    if matrix.vec_mul(ones) != ones:
        bad.append("fixes_ones")
    j = form_j(n)
    if matrix.star() * j * matrix != j:
        bad.append("unitary")
    if not matrix.at_one().is_permutation():
        bad.append("permutation_mod_s")
    return bad


def gamma_check(matrix: LaurentMatrix) -> GammaElement | GammaReport:
    """Certify membership in Gamma, or report every violated condition.

    Exact input only: a truncation can witness failure but never certify
    the unitarity identity.
    """
    bad = _violations(matrix)
    if bad:
        return GammaReport(matrix, bad)
    return GammaElement(matrix, _certified=True)


def burau_gamma(w: BraidWord) -> GammaElement:
    """Evaluate a word and wrap it; skips re-checking the four conditions.

    Images of words satisfy them identically (the test suite pins this on
    generators and on random words), so wrapping directly is sound.
    """
    return GammaElement(burau_eval(w), _certified=True)


def gamma_coeff(g: GammaElement | LaurentMatrix | BraidWord, k: int) -> GradedElement:
    """The degree-k coefficient of an element of depth >= k.

    Raises DepthTooSmall when the element visibly fails to lie that deep;
    the result is the zero element when it lies strictly deeper.  A word
    is evaluated mod s^(k+1) only, never exactly: truncation is a ring
    homomorphism, so this is the truncation of its exact image.
    """
    if isinstance(g, LaurentMatrix):
        g = GammaElement(g)
    if k < 1:
        raise ValueError("coefficient degree must be >= 1")
    if isinstance(g, BraidWord):
        m = burau_eval_trunc(g, k + 1)
    else:
        m = g.matrix.truncate(k + 1)
    depth = m.depth_bound()
    if depth < k:
        raise DepthTooSmall(f"element has depth {depth} < {k}")
    return GradedElement(k, m.coefficient(k))
