"""Square matrices over Z[t,t^-1], over Z[s]/(s^N), over Z and over Q, plus
integer lattice solving by Hermite normal form.

:class:`SquareMatrix` is the one dense exact layer: its subclasses
:class:`IntMatrix`, :class:`RatMatrix` and :class:`LaurentMatrix` name only
their entry ring and add what is specific to it.

The exact path (:class:`LaurentMatrix`) is used for membership checks,
determinants and depth; the truncated path (:class:`TruncMatrix`) for long
word evaluation, where only the first N s-adic coefficients matter.  Both
paths are exact in their own ring: truncation at t = 1 + s is a ring
homomorphism, so a truncated result is a theorem about the exact one.

A truncated matrix is the (N, n, n) numpy stack of its s^k coefficient
matrices, with Python-int entries.  :func:`trunc_mul` is the one product in
Z[s]/(s^N), for ``TruncMatrix`` and for the commutator search's batches.

Integer matrices double as s-adic coefficients and as vectors in Z^(n^2)
(row-major) for the Hermite-normal-form machinery at the bottom of the file.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
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
    its own product as ``__mul__``: the Laurent product skips zero entries,
    and the benchmark tracer (``perfbench/tracer.py``) wraps each class's
    product where that class defines it.
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
        return type(self)([[sum((a * b for a, b in zip(row, col)), zero)
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
# integer and rational matrices


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


class RatMatrix(SquareMatrix):
    """An n x n matrix over Q, with ``Fraction`` entries.

    Integer entries are taken exactly; a float is refused with TypeError.
    """

    __slots__ = ()
    _zero, _one = Fraction(0), Fraction(1)
    __mul__ = __rmul__ = SquareMatrix._product

    @staticmethod
    def _entry(v) -> Fraction:
        return v if isinstance(v, Fraction) else Fraction(operator.index(v))

    def to_int(self) -> IntMatrix:
        """The same matrix over Z; ValueError if an entry is not an integer."""
        if any(v.denominator != 1 for row in self.rows for v in row):
            raise ValueError("matrix has non-integral entries")
        return IntMatrix([[v.numerator for v in row] for row in self.rows])


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


class LaurentMatrix(SquareMatrix):
    """An n x n matrix over Z[t, t^-1]."""

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
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            new_row = []
            for col in cols:
                acc = ZERO
                for a, b in zip(row, col):
                    if a._c and b._c:
                        acc = acc + a * b
                new_row.append(acc)
            out.append(new_row)
        return LaurentMatrix(out)

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
        m = self.truncate(precision)
        return [m.coefficient(k) for k in range(precision)]

    def truncate(self, precision: int) -> "TruncMatrix":
        return TruncMatrix(precision,
                           [[e.to_series(precision) for e in row]
                            for row in self.rows])

    def s_valuation(self) -> int | float:
        """Largest k with s^k dividing every entry; inf exactly for 0.

        Computed by exact repeated division by (t - 1), not by truncation,
        so there is no precision cap.
        """
        return min((e.s_valuation() for row in self.rows for e in row),
                   default=math.inf)

    def depth(self) -> int | float:
        """Largest k with A congruent to I modulo s^k; inf exactly for A = I."""
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
        return m

    def __str__(self) -> str:
        return _bracketed([[str(e) for e in row] for row in self.rows])

    def __repr__(self) -> str:
        return f"LaurentMatrix(n={self.n})"


# ---------------------------------------------------------------------------
# truncated matrices: stacks of coefficient matrices, precision first


def trunc_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product in Z[s]/(s^p) of coefficient stacks, precision first.

    ``a`` is one stack (p, n, n); ``b`` is one stack (p, n, n) or a batch
    (p, T, n, n), each of whose T matrices is multiplied by ``a`` on the
    left.  The result has the dtype of ``b``: exact for object stacks of
    Python ints, wrapping for int64, whose callers bound the entries first.
    """
    p = a.shape[0]
    out = np.zeros_like(b)
    for i in range(p):
        for j in range(p - i):
            out[i + j] += a[i] @ b[j]
    return out


class TruncMatrix:
    """An n x n matrix over Z[s]/(s^N).

    Stored as ``stack``, the (N, n, n) array of its s^k coefficient
    matrices.  The dtype is object and the entries are Python ints, so
    every operation is exact at any size.
    """

    __slots__ = ("n", "precision", "stack")

    def __init__(self, precision: int, rows: Sequence[Sequence[TruncSeries]]):
        self.n = _square(rows)
        self.precision = precision
        for row in rows:
            for e in row:
                if e.precision != precision:
                    raise ValueError("entry precision mismatch")
        self.stack = np.array([[e.coeffs() for e in row] for row in rows],
                              dtype=object).transpose(2, 0, 1)

    @staticmethod
    def _of(stack: np.ndarray) -> "TruncMatrix":
        """Wrap a (p, n, n) object stack without copying it."""
        m = object.__new__(TruncMatrix)
        m.precision, m.n, _ = stack.shape
        m.stack = stack
        return m

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
        stack = np.zeros((precision, m.n, m.n), dtype=object)
        stack[0] = m.rows
        return TruncMatrix._of(stack)

    def _check(self, other: "TruncMatrix") -> None:
        if self.n != other.n or self.precision != other.precision:
            raise ValueError("dimension or precision mismatch")

    def __add__(self, other: "TruncMatrix") -> "TruncMatrix":
        self._check(other)
        return TruncMatrix._of(self.stack + other.stack)

    def __sub__(self, other: "TruncMatrix") -> "TruncMatrix":
        self._check(other)
        return TruncMatrix._of(self.stack - other.stack)

    def __neg__(self) -> "TruncMatrix":
        return TruncMatrix._of(-self.stack)

    def __mul__(self, other: "TruncMatrix") -> "TruncMatrix":
        self._check(other)
        return TruncMatrix._of(trunc_mul(self.stack, other.stack))

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
        off = self.stack != 0
        off[0] = self.stack[0] != np.eye(self.n, dtype=object)
        ks = np.flatnonzero(off.any(axis=(1, 2)))
        return int(ks[0]) if ks.size else self.precision

    def inverse(self) -> "TruncMatrix":
        """Inverse in the truncated ring via a Neumann series.

        The constant coefficient must be invertible over Z (determinant +-1);
        for the matrices this package meets it is a permutation matrix.
        """
        prec = self.precision
        head = self.coefficient(0)
        head_inv = TruncMatrix.from_int(head.inverse(), prec)
        m = head_inv * self - TruncMatrix.identity(self.n, prec)
        # Horner form of I - M + M^2 - ...: X <- I - M X
        x = TruncMatrix.identity(self.n, prec)
        for _ in range(prec - 1):
            x = TruncMatrix.identity(self.n, prec) - m * x
        return x * head_inv

    def to_json(self) -> dict:
        return {"n": self.n, "precision": self.precision,
                "entries": self.stack.transpose(1, 2, 0).tolist()}

    @staticmethod
    def from_json(obj: dict) -> "TruncMatrix":
        prec = obj["precision"]
        rows = [[TruncSeries(prec, e) for e in row] for row in obj["entries"]]
        m = TruncMatrix(prec, rows)
        if m.n != obj["n"]:
            raise ValueError("declared dimension does not match entries")
        return m

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


class IntLattice:
    """The sublattice of Z^d spanned by a list of integer vectors.

    Keeps the original generators (for expressing solutions in their terms),
    the canonical HNF basis (for membership and equality), and the
    transformation matrix (for kernels).
    """

    __slots__ = ("dim", "gens", "hnf", "transform", "pivots")

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

