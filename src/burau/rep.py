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

Words are evaluated by one fold whose literal runs are one set of column
operations on coefficient stacks, in two coordinate systems: t-coordinates
for the exact image and s-coordinates for the image mod s^N.  A run's
columns are int64 until its entries could leave it and object arrays of
Python ints past it.  Exact stacks are multiplied by ``linalg.stack_mul``
(in float64 under a proven exactness bound, and by Kronecker substitution
on big integers past it), and no Laurent object is made until the fold
ends: the exact image becomes a ``LaurentMatrix`` once, at the root.
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


@functools.cache
def _t_inv(p: int) -> np.ndarray:
    """t^-1 = 1 - s + s^2 - ... mod s^p, as the (p, p) matrix acting on
    the s-degrees of a column."""
    k = np.arange(p)
    return np.tril((-1) ** abs(k[:, None] - k))


def _literal(n: int, letters, precision: int | None = None):
    """A literal run's image by column operations on the coefficient
    arrays of its columns, never multiplying a generator image out.

    sigma_i takes columns (a, b) at (i, i+1) to (a + t(b - a), a) and
    sigma_i^-1 to (b, b + t^-1(a - b)).  A column is a (span, n) array
    whose row k holds the coefficients of one degree, and only the maps
    for t and t^-1 depend on the coordinates:

    - exact (no precision), in t-coordinates from t^low on: t^+-1 is a
      shift by one degree.  The degrees lie between minus the run's
      negative letters and its positive ones, a range allocated once, and
      a shift never leaves it.  The image is a dense pair (low, stack) of
      ``linalg.stack_mul``.
    - mod s^precision, in s-coordinates, t = 1 + s: t c = c + s c, and
      c' = t^-1 c is the running alternating sum c'[k] = c[k] - c'[k-1],
      one product with the (p, p) matrix of t^-1.  The image is the
      (precision, n, n) object stack of ``TruncMatrix``.

    A letter at most triples the largest entry of an exact run; mod s^p a
    sigma_i^-1 can multiply it by 2p + 1.  The columns are int64 while that
    growth cannot leave it, and object arrays of Python ints past it.
    """
    if precision is None:
        span, low, grow = len(letters) + 1, -sum(s < 0 for _, s in letters), 3
    else:
        span, low, grow = precision, 0, 2 * precision + 1
        t_inv = _t_inv(span)
    room = (1 << 63) // grow
    start = np.zeros((n, span, n), dtype=np.int64)
    start[:, -low] = np.eye(n, dtype=np.int64)
    cols = list(start)
    top = 1
    for i, s in letters:
        if top > room:
            top = max(int(np.abs(c).max()) for c in cols)
            if top > room:
                cols = [c.astype(object) for c in cols]
                top = -math.inf  # Python ints need no bound
        top *= grow
        a, b = cols[i - 1], cols[i]
        if s > 0:
            # a + t(b - a) is a + shift(b - a), and b + s(b - a) mod s^p
            new = (a if precision is None else b).copy()
            new[1:] += (b - a)[:-1]
            cols[i - 1], cols[i] = new, a
        elif precision is None:
            new = b.copy()
            new[:-1] += (a - b)[1:]
            cols[i - 1], cols[i] = b, new
        else:
            cols[i - 1], cols[i] = b, b + t_inv @ (a - b)
    if precision is None:
        return trim_stack(low, np.stack(cols, axis=2))
    return np.array(cols, dtype=object).transpose(1, 2, 0)


def burau_eval(w: BraidWord) -> LaurentMatrix:
    """Exact image of a word, memoized over shared DAG nodes.

    The word fold's inverse flag means no matrix is inverted.  Its values
    are dense pairs (low, stack), int64 or past it object, leaves from
    ``_literal``, multiplied by ``linalg.stack_mul`` from leaf to
    root; the root's pair becomes the ``LaurentMatrix``.
    """
    n = w.n
    return LaurentMatrix.from_stack(*fold(
        w, lambda letters: _literal(n, letters),
        (0, np.eye(n, dtype=np.int64)[None]),
        product=lambda values: functools.reduce(stack_mul, values)))


def burau_eval_trunc(w: BraidWord, precision: int,
                     memo: dict | None = None) -> TruncMatrix:
    """Image of a word in the ring truncated at s^precision.

    The same fold as ``burau_eval``, with leaves built on the coefficient
    stack by ``_literal`` in s-coordinates: no Laurent polynomial or matrix
    is made.
    Powers go through ``TruncMatrix.__pow__``: the image of a pure braid is
    unipotent there, so its power is a binomial series of a few products
    however large the exponent.  ``memo`` is the fold's: callers that
    evaluate several words sharing nodes at one precision pass one dict.
    """
    return fold(w, lambda letters: TruncMatrix(
                    _literal(w.n, letters, precision)),
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
