"""Square matrices over Z[t,t^-1], over Z[s]/(s^N) and over Z, plus integer
lattice solving by Hermite normal form.

:class:`SquareMatrix` is the one dense exact layer: its subclasses
:class:`IntMatrix` and :class:`LaurentMatrix` name only their entry ring
and add what is specific to it.

The exact path (:class:`LaurentMatrix`) is used for membership checks,
determinants and depth; the truncated path (:class:`TruncMatrix`) for long
word evaluation, where only the first N s-adic coefficients matter.  Both
paths are exact in their own ring: truncation at t = 1 + s is a ring
homomorphism, so a truncated result is a theorem about the exact one.

There is one exact product over Z[t^±1]: :func:`stack_mul`, on dense pairs
(low, stack).  A stack is the int64 or object array of a matrix's
coefficient matrices of t^low, t^(low + 1), ...  Every output coefficient
is at most n * min(span) * max|a| * max|b| in size.  Under 2^53, with a
short enough span, the product runs in float64 (BLAS).  Otherwise it is
Kronecker substitution: each entry is packed from its stack column into
one Python int, in balanced base-2^W digits, and each output entry is one
sum of n big-int products.  The same bound fixes W, so no digit can carry.
The exact word fold (``rep.burau_eval``) stays on dense pairs from leaf to
root.  :class:`LaurentMatrix` multiplies by laying both operands out as
dense pairs.  Where those layouts would be mostly zero coefficients (say
t^0 and t^(10^9) in one matrix), it takes the entrywise product instead.

A truncated matrix is the (N, n, n) numpy stack of its s^k coefficient
matrices, with Python-int entries.  It is reached from an exact matrix by
``LaurentMatrix.truncate``, which reads each entry's s-coefficients straight
into the stack, and from a word by ``rep.burau_eval_trunc``, which builds
the stack directly.  One batched kernel serves ``TruncMatrix`` and the
search: :func:`trunc_mul` multiplies each stack of a batch (N, A, n, n) by
each of another as one block-Toeplitz matrix product over all N degrees, in
float64 (BLAS) where a bound on the operands shows that every sum is an
integer below 2^53.  Otherwise it hands the batches to
:func:`trunc_mul_ints`, which sums the products a_i b_(k-i) of each degree
k on Python ints and never forms the vanishing ones; the search's recheck
calls it directly.  :func:`trunc_depths` reads the depth of each stack of
a batch.

Integer matrices double as s-adic coefficients and as vectors in Z^(n^2)
(row-major) for the Hermite-normal-form machinery at the bottom of the file.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Sequence

import numpy as np

from .laurent import ONE, ZERO, LaurentPoly, TruncSeries, json_int


class NonUnitDeterminant(Exception):
    """Raised when inverting a matrix whose determinant is not +-t^a."""


def _square(rows: Sequence[Sequence]) -> int:
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
    return n


# ---------------------------------------------------------------------------
# square matrices over one ring


class SquareMatrix:
    """An n x n matrix over a commutative ring, stored as a tuple of rows.

    A subclass names its entry ring and holds only what is specific to it:
    ``_entry`` coerces one entry into the ring (refusing what is not in it),
    and ``_zero`` and ``_one`` are the ring's constants.  Each subclass binds
    its own product as ``__mul__``: the Laurent product goes through
    :func:`stack_mul`, and the benchmark tracer (``perfbench/tracer.py``)
    wraps each class's product where that class defines it.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        self.n = _square(rows)
        entry = self._entry
        self.rows = tuple(tuple(map(entry, row)) for row in rows)

    @classmethod
    def identity(cls, n: int):
        one, zero = cls._one, cls._zero
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int):
        return cls([[cls._zero] * n for _ in range(n)])

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.rows[i][j]

    def _check(self, other: "SquareMatrix") -> None:
        if self.n != other.n:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        self._check(other)
        return type(self)([[a + b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check(other)
        return type(self)([[a - b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return type(self)([[-a for a in row] for row in self.rows])

    def _product(self, other):
        """The matrix product, or the product with a scalar of the ring."""
        if not isinstance(other, SquareMatrix):
            return type(self)([[a * other for a in row] for row in self.rows])
        self._check(other)
        zero = self._zero
        cols = list(zip(*other.rows))
        return type(self)([[sum(map(operator.mul, row, col), zero)
                            for col in cols] for row in self.rows])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, type(self)) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def transpose(self):
        return type(self)(list(zip(*self.rows)))

    def is_zero(self) -> bool:
        zero = self._zero
        return all(v == zero for row in self.rows for v in row)

    def mul_vec(self, vec: Sequence) -> tuple:
        zero = self._zero
        return tuple(sum((a * x for a, x in zip(row, vec)), zero)
                     for row in self.rows)

    def vec_mul(self, vec: Sequence) -> tuple:
        zero = self._zero
        return tuple(sum((x * a for x, a in zip(vec, col)), zero)
                     for col in zip(*self.rows))

    def commutator(self, other):
        return self * other - other * self

    @classmethod
    def _det_minors(cls, rows):
        """Determinant via first-row Laplace expansion, memoized on column sets.

        The submatrices that appear always consist of the last len(cols) rows,
        so the column tuple alone is a sound memo key.  Cost O(2^n * n) ring
        multiplications: fine for the n <= 8 range this package targets.
        """
        n = len(rows)
        zero, one = cls._zero, cls._one
        memo: dict[tuple[int, ...], object] = {}

        def go(cols: tuple[int, ...]) -> object:
            if not cols:
                return one
            got = memo.get(cols)
            if got is not None:
                return got
            row = rows[n - len(cols)]
            total = zero
            for pos, c in enumerate(cols):
                entry = row[c]
                if entry == zero:
                    continue
                sub = go(cols[:pos] + cols[pos + 1:])
                term = entry * sub
                total = total - term if pos % 2 else total + term
            memo[cols] = total
            return total

        return go(tuple(range(n)))

    def det(self):
        return self._det_minors(self.rows)

    def _adjugate(self) -> list[list]:
        """adj[i][j] = (-1)^(i+j) det(minor with row j, col i removed)."""
        n, rows = self.n, self.rows
        out = [[self._zero] * n for _ in range(n)]
        for j in range(n):
            reduced = [row for r, row in enumerate(rows) if r != j]
            for i in range(n):
                d = self._det_minors([[row[c] for c in range(n) if c != i]
                                      for row in reduced])
                out[i][j] = -d if (i + j) % 2 else d
        return out


def _bracketed(cells: Sequence[Sequence[str]]) -> str:
    """Rows of entry texts as bracketed lines, right-aligned to one width."""
    width = max(len(c) for row in cells for c in row)
    return "\n".join("[" + "  ".join(c.rjust(width) for c in row) + "]"
                     for row in cells)


# ---------------------------------------------------------------------------
# integer matrices


class IntMatrix(SquareMatrix):
    """An n x n matrix of arbitrary-precision integers.

    Entries are coerced with ``operator.index``: a float or a ``Fraction``
    is refused with TypeError, never rounded.
    """

    __slots__ = ()
    _entry = staticmethod(operator.index)
    _zero, _one = 0, 1
    __mul__ = __rmul__ = SquareMatrix._product

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)

    def is_permutation(self) -> bool:
        seen = set()
        for row in self.rows:
            ones = [j for j, v in enumerate(row) if v == 1]
            if len(ones) != 1 or any(v not in (0, 1) for v in row):
                return False
            seen.add(ones[0])
        return len(seen) == self.n

    def permutation_images(self) -> tuple[int, ...]:
        """1-based images i -> pi(i), assuming is_permutation()."""
        return tuple(row.index(1) + 1 for row in self.rows)

    def inverse(self) -> "IntMatrix":
        """Inverse of a matrix with determinant +-1."""
        d = self.det()
        if d not in (1, -1):
            raise NonUnitDeterminant(f"integer determinant {d} is not +-1")
        return IntMatrix([[v * d for v in row] for row in self._adjugate()])

    def vec(self) -> tuple[int, ...]:
        """Row-major vectorization into Z^(n^2)."""
        return tuple(v for row in self.rows for v in row)

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    @staticmethod
    def from_json(obj: Sequence[Sequence[int]]) -> "IntMatrix":
        """Rows of JSON integers; a bool, float or string entry is refused."""
        return IntMatrix([[json_int(v) for v in row] for row in obj])

    def __str__(self) -> str:
        width = max((len(str(v)) for row in self.rows for v in row), default=1)
        return "\n".join(" ".join(str(v).rjust(width) for v in row)
                         for row in self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]!r})"


def perm_matrix(pi) -> IntMatrix:
    """Permutation matrix P with P[i, pi(i)] = 1 (1-based images).

    With this orientation P is a homomorphism for left-to-right
    composition: perm_matrix(pi then rho) = perm_matrix(pi) * perm_matrix(rho).
    Accepts any object with an ``images`` attribute, or a bare sequence.
    """
    images = tuple(getattr(pi, "images", pi))
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    rows = [[0] * n for _ in range(n)]
    for i, img in enumerate(images):
        rows[i][img - 1] = 1
    return IntMatrix(rows)


# ---------------------------------------------------------------------------
# Laurent matrices

#: a dense layout pads each entry with zero coefficients to its matrix's
#: span; past this many coefficients per term the entrywise product is the
#: faster one (at n = 5, with 1 to 16 terms an entry, the two cross
#: between 8 and 16 on a 2-CPU Xeon)
_DIGITS_PER_TERM = 8


class LaurentMatrix(SquareMatrix):
    """An n x n matrix over Z[t, t^-1].

    The matrix product lays both operands out as dense pairs (low, stack)
    and multiplies them by :func:`stack_mul`.  Operands whose terms lie far
    apart in degree, where the layouts would be mostly zero coefficients,
    take the entrywise product of :class:`SquareMatrix` instead.
    """

    __slots__ = ()
    _zero, _one = ZERO, ONE

    @staticmethod
    def _entry(e) -> LaurentPoly:
        return e if isinstance(e, LaurentPoly) else LaurentPoly(e)

    @staticmethod
    def from_int(m: IntMatrix) -> "LaurentMatrix":
        return LaurentMatrix(m.rows)

    def __mul__(self, other: "LaurentMatrix | LaurentPoly | int") -> "LaurentMatrix":
        if not isinstance(other, LaurentMatrix):
            return self._product(other)
        self._check(other)
        digits = terms = 0
        for m in (self, other):
            polys = [p._c for row in m.rows for p in row if p._c]
            if polys:
                span = max(map(max, polys)) - min(map(min, polys)) + 1
                digits += span * self.n ** 2
                terms += sum(map(len, polys))
        if digits > _DIGITS_PER_TERM * terms:
            return self._product(other)
        return LaurentMatrix.from_stack(
            *stack_mul(self.to_stack(), other.to_stack()))

    __rmul__ = __mul__

    def star(self) -> "LaurentMatrix":
        """The involution (A*)_ij = bar(A_ji)."""
        return LaurentMatrix([[self.rows[j][i].bar() for j in range(self.n)]
                              for i in range(self.n)])

    def at_one(self) -> IntMatrix:
        """Reduction modulo s = t - 1, i.e. entrywise evaluation at t = 1."""
        return IntMatrix([[e.at_one() for e in row] for row in self.rows])

    def s_expand(self, precision: int) -> list[IntMatrix]:
        """The coefficient matrices of the s-adic expansion, degrees 0..N-1.

        Reassembling sum_i s^i * coeff[i] recovers the matrix modulo s^N.
        """
        return [IntMatrix(c) for c in self.truncate(precision).stack.tolist()]

    def truncate(self, precision: int) -> "TruncMatrix":
        """The image in Z[s]/(s^precision) under t = 1 + s, entry by entry:
        the quotient map of the s-adic filtration, a ring homomorphism."""
        return TruncMatrix(np.array(
            [[e.s_coeffs(precision) for e in row] for row in self.rows],
            dtype=object).transpose(2, 0, 1))

    def s_valuation(self) -> int | float:
        """Largest k with s^k dividing every entry; inf exactly for 0.

        Read exactly from each entry's s-expansion (see
        ``LaurentPoly.s_valuation``), not by truncation, so there is no
        precision cap and a far exponent such as t^(10^9) costs nothing.
        """
        return min((e.s_valuation() for row in self.rows for e in row),
                   default=math.inf)

    def depth(self) -> int | float:
        """Largest k with A congruent to I modulo s^k; inf exactly for A = I.

        Exact, with no precision cap: the s-valuation of A - I.
        """
        return (self - LaurentMatrix.identity(self.n)).s_valuation()

    def inverse(self) -> "LaurentMatrix":
        """Adjugate inverse; requires a unit determinant +-t^a."""
        d = self.det()
        if d.as_unit() is None:
            raise NonUnitDeterminant(f"determinant {d} is not a unit of Z[t,t^-1]")
        dinv = d.inverse()
        return LaurentMatrix([[e * dinv for e in row] for row in self._adjugate()])

    def to_json(self) -> dict:
        return {"n": self.n,
                "entries": [[e.to_json() for e in row] for row in self.rows]}

    @staticmethod
    def from_json(obj: dict) -> "LaurentMatrix":
        rows = [[LaurentPoly.from_json(e) for e in row] for row in obj["entries"]]
        m = LaurentMatrix(rows)
        if m.n != json_int(obj["n"]):
            raise ValueError("declared dimension does not match entries")
        if m.n < 1:
            raise ValueError(f"n must be at least 1, got {m.n}")
        return m

    @staticmethod
    def from_stack(low: int, stack: np.ndarray) -> "LaurentMatrix":
        """The matrix whose t^(low + d) coefficient matrix is ``stack[d]``,
        for a (span, n, n) integer stack."""
        exps = range(low, low + len(stack))
        return LaurentMatrix([
            [LaurentPoly(dict(itertools.compress(zip(exps, e), e)))
             for e in map(np.ndarray.tolist, row)]
            for row in stack.transpose(1, 2, 0)])

    def to_stack(self) -> tuple[int, np.ndarray]:
        """The dense pair (low, stack) of :meth:`from_stack`, spanning the
        least to the greatest exponent: int64 where every coefficient fits
        it and object otherwise, and (0, empty) for zero."""
        n = self.n
        polys = [p._c for row in self.rows for p in row]
        if not any(polys):
            return 0, np.zeros((0, n, n), dtype=np.int64)
        low = min(min(c) for c in polys if c)
        degrees = [e - low for e in itertools.chain.from_iterable(polys)]
        values = list(itertools.chain.from_iterable(map(dict.values, polys)))
        stack = np.zeros((max(degrees) + 1, n * n), dtype=object
                         if max(map(abs, values)) >> 63 else np.int64)
        stack[degrees, np.repeat(np.arange(n * n), list(map(len, polys)))] = values
        return low, stack.reshape(-1, n, n)

    def __str__(self) -> str:
        return _bracketed([[str(e) for e in row] for row in self.rows])

    def __repr__(self) -> str:
        return f"LaurentMatrix(n={self.n})"


# ---------------------------------------------------------------------------
# dense Laurent stacks: the one exact product

#: the float64 product takes min(span) matrix products, so its time grows
#: with min(span) * max(span), against Kronecker's big-int Karatsuba; above
#: this least span it takes Kronecker substitution.  Measured on a 2-CPU
#: Xeon with numpy's OpenBLAS: the float64 route won every dense random
#: product at n = 3..8 up to spans 2048; on Burau powers at n = 5 the
#: crossover moves little (A13^2000: 0.145 s at 64, 0.126 s at 1024), and
#: the peak memory of (s1 s2 s3 s4)^500 is 0.44 MB at either
_FLOAT_SPAN = 64


def trim_stack(low: int, stack: np.ndarray) -> tuple[int, np.ndarray]:
    """``(low, stack)`` without its zero end degrees; (0, empty) for zero."""
    nonzero = np.flatnonzero(stack.any(axis=(1, 2)))
    if not len(nonzero):
        return 0, stack[:0]
    first, last = nonzero[0], nonzero[-1]
    return low + int(first), stack[first:last + 1]


def stack_mul(x, y):
    """The product of two exact matrices over Z[t^±1], each a dense pair
    ``(low, stack)``, the int64 or object (span, n, n) stack of the
    coefficient matrices of t^low, t^(low + 1), ...; the result is such a
    pair, its zero end degrees trimmed.

    Each output coefficient is a sum of at most n * min(s_a, s_b) products
    of integers, for operands of spans s_a and s_b, so it is at most
    n * min(s_a, s_b) * max|a| * max|b| in size.  Under 2^53, with
    min(s_a, s_b) at most ``_FLOAT_SPAN``, the product runs in float64
    (BLAS), exact as in :func:`trunc_mul`: every partial sum, in any order,
    is an integer below 2^53.  The shorter operand a is the left one,
    transposing both sides and the result if need be; each of its degrees
    a_i multiplies all of b at once, as one (n, n) by (n, span_b n) matrix
    product, added into the int64 result at degrees i onwards.  That needs
    no more memory than the result.  Otherwise the product is
    :func:`_kronecker_mul`, on big integers.
    """
    (low_a, a), (low_b, b) = x, y
    n = a.shape[1]
    bound = n * int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
    if not bound:
        return 0, a[:0]
    flip = len(b) < len(a)
    if flip:
        a, b = b.transpose(0, 2, 1), a.transpose(0, 2, 1)
    s, t = len(a), len(b)
    bound *= s
    if s <= _FLOAT_SPAN and bound < 1 << 53:
        fa = a.astype(np.float64)
        fb = b.transpose(1, 0, 2).reshape(n, t * n).astype(np.float64)
        out = np.zeros((n, s + t - 1, n))
        for i, ai in enumerate(fa):
            out[:, i:i + t] += (ai @ fb).reshape(n, t, n)
        out = out.astype(np.int64)
    else:
        out = _kronecker_mul(a, b, bound)
    out = out.transpose(1, 2, 0) if flip else out.transpose(1, 0, 2)
    return trim_stack(low_a + low_b, out)


def _pack(stack: np.ndarray, width: int) -> list[list[int]]:
    """Rows of ints, one per entry of a (span, n, n) stack: the entry's
    coefficients as balanced base-2^(8 width) digits, t^low the lowest."""
    half = 1 << (8 * width - 1)
    blank = int.from_bytes(half.to_bytes(width, "little") * len(stack),
                           "little")
    return [[int.from_bytes(b"".join([(v + half).to_bytes(width, "little")
                                      for v in e]), "little") - blank
             for e in row] for row in stack.transpose(1, 2, 0).tolist()]


def _kronecker_mul(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """:func:`stack_mul` of the stacks a (s, n, n) and b (t, n, n) by
    Kronecker substitution, every product coefficient at most ``bound`` in
    size: an (n, s + t - 1, n) stack, rows first, then degrees.

    An entry of a becomes the integer a(2^W) / 2^(W low_a), and likewise for
    b; one big-integer dot product then gives every coefficient of an output
    entry as one base-2^W digit.  The digit width W is the bit length of
    ``bound`` plus a sign bit, in whole bytes, so no digit can carry.
    Digits are balanced, in [-2^(W-1), 2^(W-1)); adding the integer whose
    digits are all 2^(W-1) makes them plain bytes, so every entry is packed
    by one ``int.from_bytes`` and every output entry unpacked by one
    ``to_bytes``, then read digit by digit into an object stack of Python
    ints.
    """
    n = a.shape[1]
    width = (bound.bit_length() + 8) // 8
    half = 1 << (8 * width - 1)
    span = len(a) + len(b) - 1
    blank = int.from_bytes(half.to_bytes(width, "little") * span, "little")
    cols = _pack(b.transpose(0, 2, 1), width)
    data = b"".join([(sum(map(operator.mul, row, col)) + blank).to_bytes(
        span * width, "little") for row in _pack(a, width) for col in cols])
    out = np.fromiter((int.from_bytes(data[k:k + width], "little") - half
                       for k in range(0, len(data), width)),
                      dtype=object, count=n * n * span)
    return out.reshape(n, n, span).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# truncated matrices: stacks of coefficient matrices, precision first


@functools.cache
def _toeplitz_index(p: int) -> np.ndarray:
    """(p, p) gather index into p degrees plus one zero block: entry
    (i, k) is k - i for k >= i and p (the zero block) below the diagonal."""
    i, k = np.indices((p, p))
    return np.where(k >= i, k - i, p)


def trunc_mul_ints(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every product in Z[s]/(s^p) of a stack of ``a`` (p, A, n, n) by one
    of ``b`` (p, B, n, n), both object batches of Python ints: (p, A * B,
    n, n), ``a``'s index major, exact at any size.  Degree k is the sum over
    i <= k of a_i b_(k-i), each term one batched matrix product, so the
    products that would vanish beyond s^p are never formed."""
    p, na, n, _ = a.shape
    nb = b.shape[1]
    a, b = a[:, :, None], b[:, None]
    out = np.empty((p, na, nb, n, n), dtype=object)
    for k in range(p):
        out[k] = sum((a[i] @ b[k - i] for i in range(1, k + 1)),
                     a[0] @ b[k])
    return out.reshape(p, na * nb, n, n)


def trunc_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every product in Z[s]/(s^p) of a stack of ``a`` (p, A, n, n) by one
    of ``b`` (p, B, n, n), precision first: (p, A * B, n, n), ``a``'s index
    major.  Both sides and the result are object stacks of Python ints.

    Under the bound below, all p degrees are one matrix product.  The left
    side is the block row [a_0 ... a_(p-1)], rows (i, r) and columns
    (degree, inner index).  The right side is block upper Toeplitz: its
    block (d, k) is b_(k-d) for k >= d and zero below, columns (k, j, c).
    Block column k of the product is then the sum over d <= k of
    a_d b_(k-d), the degree-k coefficient.

    That product runs in float64 (BLAS) when max|a| max|b| n p < 2^53, the
    maxima read from the converted operands: every entry of the product,
    and every partial sum of it in any order, is then an integer of size
    below 2^53, a sum of at most p n products, so the result is exact
    whatever the summation order or fused multiply-adds.  An entry above
    2^53 converts to at least 2^53 and fails the bound, and one beyond
    float range fails the conversion.  Otherwise the product is
    :func:`trunc_mul_ints`, on Python ints."""
    p, _, n, _ = a.shape
    try:
        fa, fb = a.astype(np.float64), b.astype(np.float64)
        fits = (int(np.abs(fa).max(initial=0))
                * int(np.abs(fb).max(initial=0)) * n * p < 1 << 53)
    except OverflowError:
        fits = False
    if not fits:
        return trunc_mul_ints(a, b)
    # through int64: float64 to object would give Python floats
    return toeplitz_mul(fa, toeplitz_operand(fb), np.int64).astype(object)


def toeplitz_operand(b: np.ndarray) -> np.ndarray:
    """:func:`trunc_mul`'s block upper Toeplitz right side, (p n, p B n),
    of the float64 batch ``b`` (p, B, n, n)."""
    p, nb, n, _ = b.shape
    rhs = np.concatenate([b, np.zeros((1, nb, n, n))])[_toeplitz_index(p)]
    return rhs.transpose(0, 3, 1, 2, 4).reshape(p * n, p * nb * n)


def toeplitz_mul(a: np.ndarray, rhs: np.ndarray, dtype=float) -> np.ndarray:
    """:func:`trunc_mul` of the float64 batch ``a`` by the batch whose
    :func:`toeplitz_operand` is ``rhs``, as ``dtype``; exact under its bound."""
    p, na, n, _ = a.shape
    lhs = a.transpose(1, 2, 0, 3).reshape(na * n, p * n)
    out = (lhs @ rhs).reshape(na, n, p, -1, n).transpose(2, 0, 3, 1, 4)
    return out.astype(dtype, order="C").reshape(p, -1, n, n)


def trunc_depths(stacks: np.ndarray) -> np.ndarray:
    """Per stack of a batch (p, B, n, n): the largest k <= p with the stack
    congruent to I mod s^k, so p when it is I to full precision."""
    p, _, n, _ = stacks.shape
    off = stacks != 0
    off[0] = stacks[0] != np.eye(n, dtype=stacks.dtype)
    off = off.any(axis=(2, 3))
    return np.where(off.any(axis=0), off.argmax(axis=0), p)


class TruncMatrix:
    """An n x n matrix over Z[s]/(s^N).

    Stored as ``stack``, the (N, n, n) array of its s^k coefficient
    matrices.  The dtype is object and the entries are Python ints, so
    every operation is exact at any size.
    """

    __slots__ = ("n", "precision", "stack")

    def __init__(self, stack: np.ndarray):
        """Wrap a (p, n, n) object stack without copying it; p >= 1."""
        self.precision, self.n, _ = stack.shape
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        self.stack = stack

    @property
    def rows(self) -> tuple[tuple[TruncSeries, ...], ...]:
        """The entries as series: a read-only view, built on each access."""
        return tuple(tuple(TruncSeries(self.precision, e) for e in row)
                     for row in self.stack.transpose(1, 2, 0).tolist())

    @staticmethod
    def identity(n: int, precision: int) -> "TruncMatrix":
        return TruncMatrix.from_int(IntMatrix.identity(n), precision)

    @staticmethod
    def from_int(m: IntMatrix, precision: int) -> "TruncMatrix":
        """The constant matrix m: the s-expansion of 1, times m."""
        return TruncMatrix(np.multiply.outer(ONE.s_coeffs(precision),
                                             np.array(m.rows, dtype=object)))

    def _check(self, other: "TruncMatrix") -> None:
        if self.n != other.n or self.precision != other.precision:
            raise ValueError("dimension or precision mismatch")

    def __add__(self, other: "TruncMatrix") -> "TruncMatrix":
        self._check(other)
        return TruncMatrix(self.stack + other.stack)

    def __sub__(self, other: "TruncMatrix") -> "TruncMatrix":
        self._check(other)
        return TruncMatrix(self.stack - other.stack)

    def __neg__(self) -> "TruncMatrix":
        return TruncMatrix(-self.stack)

    def __mul__(self, other: "TruncMatrix") -> "TruncMatrix":
        self._check(other)
        return TruncMatrix(trunc_mul(self.stack[:, None],
                                     other.stack[:, None])[:, 0])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TruncMatrix)
                and self.precision == other.precision and self.n == other.n
                and bool((self.stack == other.stack).all()))

    def __hash__(self) -> int:
        return hash((self.precision, tuple(self.stack.ravel().tolist())))

    def coefficient(self, k: int) -> IntMatrix:
        """The s^k coefficient matrix, 0 <= k < precision."""
        return IntMatrix(self.stack[k].tolist())

    def depth_bound(self) -> int:
        """Largest k <= N with A congruent to I mod s^k.

        A return of N means "at least N": the matrix is the identity to full
        precision and only the exact path can distinguish deeper agreement.
        """
        return int(trunc_depths(self.stack[:, None])[0])

    def __pow__(self, k: int) -> "TruncMatrix":
        """A^k for any integer k.

        A unipotent A = I + N (constant coefficient I) has N of s-valuation
        v = depth_bound() >= 1, so N^j vanishes once j*v >= N and
        A^k = sum of C(k, j) N^j over j < N/v: a binomial series that holds
        for negative k too, as C(k, j) is an integer.  It stops early at
        j > k when k >= 0, and makes fewer than N/v products whatever k
        is.  Any other A squares and multiplies from the top bit of k >= 1;
        k = 0 gives I, and k < 0 raises the inverse.
        """
        ident = TruncMatrix.identity(self.n, self.precision)
        v = self.depth_bound()
        if v:
            nil = self - ident
            out, term, c, j = ident, nil, 1, 1
            while j * v < self.precision and (k < 0 or j <= k):
                if j > 1:
                    term = term * nil
                c = c * (k - j + 1) // j
                out = TruncMatrix(out.stack + c * term.stack)
                j += 1
            return out
        if k < 0:
            return self.inverse() ** -k
        out = self if k else ident
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def inverse(self) -> "TruncMatrix":
        """Inverse in the truncated ring.

        The constant coefficient H must be invertible over Z (determinant
        +-1); for the matrices this package meets it is a permutation
        matrix.  A unipotent matrix (H = I) is inverted by the binomial
        series of ``self ** -1``; otherwise A^-1 = (H^-1 A)^-1 H^-1, whose
        middle factor is unipotent.
        """
        if self.depth_bound():
            return self ** -1
        head_inv = TruncMatrix.from_int(self.coefficient(0).inverse(),
                                        self.precision)
        return (head_inv * self) ** -1 * head_inv

    def to_json(self) -> dict:
        return {"n": self.n, "precision": self.precision,
                "entries": self.stack.transpose(1, 2, 0).tolist()}

    def __str__(self) -> str:
        return _bracketed([[str(e) for e in row] for row in self.rows])

    def __repr__(self) -> str:
        return f"TruncMatrix(n={self.n}, precision={self.precision})"


# ---------------------------------------------------------------------------
# Hermite normal form and integer lattices


def row_hnf(rows: Sequence[Sequence[int]]):
    """Row Hermite normal form with transformation matrix.

    Returns (H, U, pivots) where U is unimodular, U * M = H, H is in row
    echelon form with positive pivots and entries above each pivot reduced
    into [0, pivot), and pivots is a list of (row, col) pairs.  Deterministic:
    columns are scanned left to right and ties in the remainder loop are
    broken by lowest row index.
    """
    h = [list(map(int, row)) for row in rows]
    m = len(h)
    d = len(h[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    pivots: list[tuple[int, int]] = []
    for c in range(d):
        # gcd elimination below row r in column c
        while True:
            nonzero = [i for i in range(r, m) if h[i][c]]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: (abs(h[i][c]), i))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                u[r], u[i0] = u[i0], u[r]
            done = True
            for i in range(r + 1, m):
                if h[i][c]:
                    q = h[i][c] // h[r][c]
                    if q:
                        h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                        u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                    if h[i][c]:
                        done = False
            if done:
                break
        if r < m and h[r][c]:
            if h[r][c] < 0:
                h[r] = [-a for a in h[r]]
                u[r] = [-a for a in u[r]]
            p = h[r][c]
            for i in range(r):
                q = h[i][c] // p
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
            pivots.append((r, c))
            r += 1
            if r == m:
                break
    return h, u, pivots


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(operator.mul, x, y))


def _round_half_up(num: int, den: int) -> int:
    """The integer nearest num / den, den > 0; a half rounds up."""
    return (2 * num + den) // (2 * den)


def lll_reduce(basis: Sequence[Sequence[int]]):
    """LLL-reduce linearly independent integer vectors, delta = 3/4.

    Exact integer arithmetic throughout (Cohen, GTM 138, Alg. 2.6.7): no
    Gram-Schmidt vector is formed.  Returns (b, d, lam): the reduced basis
    b; d[0] = 1 and d[i] the Gram determinant of b[0..i-1]; and
    lam[k][j] = d[j+1] mu_kj for j < k, mu being the Gram-Schmidt
    coefficients of b.  Size reduction rounds a half up, so the result is
    a function of the input order.
    """
    b = [list(map(int, v)) for v in basis]
    m = len(b)
    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]
    if not m:
        return b, d, lam
    d[1] = _dot(b[0], b[0])

    def redi(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = _round_half_up(lam[k][l], d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swapi(k: int, kmax: int) -> None:
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        new = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (new * t + lk * lam[i][k]) // d[k + 1]
        d[k] = new

    k, kmax = 1, 0
    while k < m:
        if k > kmax:  # incremental Gram-Schmidt of b[k]
            kmax = k
            for j in range(k + 1):
                u = _dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    raise ValueError("LLL input is linearly dependent")
                else:
                    d[k + 1] = u
        redi(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swapi(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                redi(k, l)
            k += 1
    return b, d, lam


class IntLattice:
    """The sublattice of Z^d spanned by a list of integer vectors.

    Keeps the original generators (for expressing solutions in their terms),
    the canonical HNF basis (for membership and equality), and the
    transformation matrix (for kernels).  The LLL reduction of the kernel,
    which shortens solutions, is made on first use and kept.
    """

    __slots__ = ("dim", "gens", "hnf", "transform", "pivots", "_reduced")

    def __init__(self, dim: int, generators: Iterable[Sequence[int]]):
        self.dim = dim
        self.gens = [tuple(map(int, g)) for g in generators]
        for g in self.gens:
            if len(g) != dim:
                raise ValueError("generator length mismatch")
        h, u, pivots = row_hnf(self.gens)
        self.hnf = [tuple(row) for row in h[:len(pivots)]]
        self.transform = u
        self.pivots = pivots
        self._reduced = None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def basis(self) -> list[tuple[int, ...]]:
        return list(self.hnf)

    def _reduce(self, target: Sequence[int]):
        """Back-substitute target against the HNF rows.

        Returns (coeffs over hnf rows, remainder); membership means the
        remainder is zero and every division was exact.
        """
        if isinstance(target, IntMatrix):
            target = target.vec()
        rem = list(map(int, target))
        coeffs = []
        for (row, col), basis_row in zip(self.pivots, self.hnf):
            p = basis_row[col]
            q, r = divmod(rem[col], p)
            if r:
                return None, rem
            if q:
                rem = [a - q * b for a, b in zip(rem, basis_row)]
            coeffs.append(q)
        return coeffs, rem

    def contains(self, target: Sequence[int]) -> bool:
        coeffs, rem = self._reduce(target)
        return coeffs is not None and not any(rem)

    def solve(self, target: Sequence[int]) -> list[int] | None:
        """Integer coefficients over the original generators, or None."""
        coeffs, rem = self._reduce(target)
        if coeffs is None or any(rem):
            return None
        m = len(self.gens)
        out = [0] * m
        for c, (row, _col) in zip(coeffs, self.pivots):
            if c:
                urow = self.transform[row]
                for j in range(m):
                    out[j] += c * urow[j]
        return out

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Basis of all integer relations among the original generators."""
        return [tuple(self.transform[i]) for i in range(self.rank, len(self.gens))]

    def reduced_kernel(self):
        """``lll_reduce`` of ``kernel_basis()``, (b, d, lam): the same
        lattice of relations on a short basis b; computed once."""
        if self._reduced is None:
            self._reduced = lll_reduce(self.kernel_basis())
        return self._reduced

    def shorten(self, x: Sequence[int], scale: int = 1) -> list[int]:
        """x minus the vector of scale * (relation lattice) that Babai's
        nearest plane picks against the reduced kernel: what is left has
        every Gram-Schmidt coefficient in [-scale/2, scale/2).  The
        generators combine x and the result to the same vector; the result
        is also congruent to x mod scale.

        Reads x's coefficients from the reduction's integer Gram-Schmidt
        data (exact divisions, as in the reduction), then clears them from
        the top basis vector down, each rounded half up."""
        b, d, lam = self.reduced_kernel()
        lx: list[int] = []
        for j, bj in enumerate(b):
            u = _dot(x, bj)
            for i in range(j):
                u = (d[i + 1] * u - lam[j][i] * lx[i]) // d[i]
            lx.append(u)
        out = list(map(int, x))
        for j in range(len(b) - 1, -1, -1):
            q = scale * _round_half_up(lx[j], scale * d[j + 1])
            if q:
                out = [a - q * c for a, c in zip(out, b[j])]
                for i in range(j):
                    lx[i] -= q * lam[j][i]
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntLattice)
                and self.dim == other.dim and self.hnf == other.hnf)

    def __hash__(self) -> int:
        return hash((self.dim, tuple(self.hnf)))

    def __repr__(self) -> str:
        return f"IntLattice(dim={self.dim}, rank={self.rank})"


def matrix_lattice(generators: Sequence[IntMatrix]) -> IntLattice:
    if not generators:
        raise ValueError("need at least one generator to fix the dimension")
    n = generators[0].n
    return IntLattice(n * n, [g.vec() for g in generators])

