"""The connecting map phi from kernel elements to deeper graded cosets.

A kernel element in half-degree k is a formal sum a = sum_i X_{I_i} (x) W_i
with W_i in G_{2k-1} and sum_i <X_{I_i}, W_i> = 0.  Realizing each W_i as
the leading coefficient of a braid word omega_i of depth 2k-1, the product

    alpha = prod_i [beta(A_{I_i}), omega_i]

has depth 2k+1, and its leading coefficient, taken modulo the sublattice
<G_1, G_2k>, depends only on a (not on the chosen witnesses).  That coset
is phi(a).

Two computation paths are implemented.  The direct path evaluates alpha.
The expansion path evaluates

    sum_i ( <X_i, (omega_i)_2k> + <(beta A_i)_2, W_i> + <W_i, X_i> X_i )

and the two are asserted equal as exact matrices, not just as cosets.

There is also a witness-free path (phi_from_w).  The symmetric part of
(omega)_2k is forced by unitarity:

    (omega)+_2k = -1/4 ( <(J)_1, W> + (4k-2) W ),

a half-integer matrix depending only on W.  The skew part is witness
dependent, but only through an element of G_2k: its column-sum vector
u = -ones . (omega)+_2k and its fractional class (the positions carrying
half-integer entries, which are the same positions where (omega)+_2k does)
are both visible from W.  Substituting the banded skew matrix w_prime(W, k)
with column sums u, corrected by a canonical representative of the
fractional class, reproduces phi exactly modulo <G_1, G_2k> with an
integral result.

That path runs on integers: each half-integral matrix is carried as twice
itself in an IntMatrix, so lying in (1/2) Z is a parity test, and the
assembled value is divided by 4 once, at the end.  Only the public
reconstruct_plus and w_prime halve their matrices into rows of Fraction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .liealg import GradedElement, bracket_lattice, gen_x
from .linalg import IntLattice, IntMatrix
from .rep import burau_eval_trunc, form_j
from .words import BraidWord, commutator, concat, pure_gen


class KernelViolation(ValueError):
    """The defining relation sum <X_i, W_i> = 0 fails."""


class DepthViolation(ValueError):
    """A witness word does not have the depth or coefficient it claims."""


class HalfIntegralityViolation(ValueError):
    """An entry that must lie in (1/2) Z does not."""


# ---------------------------------------------------------------------------
# kernel elements and cosets


class KernelTerm:
    """One summand X_pair (x) W, optionally with a witness word."""

    __slots__ = ("pair", "w", "witness")

    def __init__(self, pair: tuple[int, int], w: GradedElement,
                 witness: BraidWord | None = None):
        i, j = pair
        if not 1 <= i < j <= w.n:
            raise ValueError(f"pair {pair} invalid for n={w.n}")
        self.pair = (i, j)
        self.w = w
        self.witness = witness


class KernelElement:
    """A validated element of the kernel of G_1 (x) G_{2k-1} -> G_2k."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, terms: Sequence[KernelTerm]):
        if not terms:
            raise ValueError("a kernel element needs at least one term")
        self.n = terms[0].w.n
        self.degree = terms[0].w.degree
        if self.degree % 2 != 1 or self.degree < 3:
            raise ValueError("kernel degree must be odd and >= 3")
        self.terms = list(terms)
        total = IntMatrix.zero(self.n)
        for t in self.terms:
            if t.w.n != self.n or t.w.degree != self.degree:
                raise ValueError("mixed sizes or degrees in kernel terms")
            x = gen_x(*t.pair, self.n).matrix
            total = total + x.commutator(t.w.matrix)
        if not total.is_zero():
            raise KernelViolation("sum <X_i, W_i> does not vanish")

    @property
    def half_degree(self) -> int:
        return (self.degree + 1) // 2

    def relabel(self, degree: int) -> "KernelElement":
        """The same matrix data read in another odd degree >= 3."""
        if degree % 2 != 1 or degree < 3:
            raise ValueError("target degree must be odd and >= 3")
        return KernelElement([
            KernelTerm(t.pair, GradedElement(degree, t.w.matrix), t.witness)
            for t in self.terms])

    def with_witnesses(self, witnesses: Sequence[BraidWord]) -> "KernelElement":
        if len(witnesses) != len(self.terms):
            raise ValueError("witness count mismatch")
        return KernelElement([KernelTerm(t.pair, t.w, w)
                              for t, w in zip(self.terms, witnesses)])

    def __repr__(self) -> str:
        return f"KernelElement(degree={self.degree}, terms={len(self.terms)})"


class CosetElement:
    """An element of G_{2k+1} modulo the sublattice <G_1, G_2k>."""

    __slots__ = ("representative", "modulus")

    def __init__(self, representative: GradedElement, modulus: IntLattice):
        self.representative = representative
        self.modulus = modulus

    @property
    def degree(self) -> int:
        return self.representative.degree

    def is_zero(self) -> bool:
        return self.modulus.contains(self.representative.matrix.vec())

    def transport(self, degree: int) -> "CosetElement":
        """The same coset read in another degree of equal parity >= 3.

        The underlying matrix lattices are literally equal across degrees of
        one parity, so this is a relabel plus a parity check.
        """
        if degree % 2 != self.degree % 2 or degree < 3:
            raise ValueError("transport requires equal parity and degree >= 3")
        return CosetElement(GradedElement(degree, self.representative.matrix),
                            self.modulus)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CosetElement):
            return NotImplemented
        if self.degree != other.degree or self.modulus != other.modulus:
            return False
        diff = self.representative.matrix - other.representative.matrix
        return self.modulus.contains(diff.vec())

    def __hash__(self) -> int:
        raise TypeError("cosets are unhashable; compare with ==")

    def __repr__(self) -> str:
        return f"CosetElement(degree={self.degree})"


def coset_modulus(n: int, half_degree: int) -> IntLattice:
    """The lattice <G_1, G_2k> used as the modulus at half-degree k."""
    return bracket_lattice(n, 2 * half_degree)


# ---------------------------------------------------------------------------
# unitarity reconstruction, on doubled integers


def _halved(m: IntMatrix) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(v, 2) for v in row) for row in m.rows)


def _plus2(w: GradedElement, k: int) -> IntMatrix:
    """Twice the symmetric part of (omega)_2k: -1/2 (<(J)_1, w> + (4k-2) w)."""
    if w.degree % 2 != 1:
        raise ValueError("w must have odd degree")
    j1 = form_j(w.n).s_expand(2)[1]
    m = j1.commutator(w.matrix) + w.matrix * (4 * k - 2)
    if any(v % 2 for v in m.vec()):
        raise HalfIntegralityViolation("reconstructed symmetric part has "
                                       "denominator > 2")
    return IntMatrix([[-v // 2 for v in row] for row in m.rows])


def reconstruct_plus(w: GradedElement, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """The symmetric part of (omega)_2k for ANY witness omega of w, by rows.

    Equal to -1/4 (<(J)_1, w> + (4k-2) w); entries lie in (1/2) Z.
    """
    return _halved(_plus2(w, k))


def _banded_skew(colsums: Sequence[int]) -> IntMatrix:
    """The skew matrix supported on the off-diagonal band whose column sums
    are the given vector (which must sum to zero)."""
    n = len(colsums)
    partial = list(itertools.accumulate(colsums))
    if partial[-1] != 0:
        raise HalfIntegralityViolation("column-sum vector does not total zero")
    out = [[0] * n for _ in range(n)]
    for j in range(n - 1):
        out[j + 1][j] = partial[j]
        out[j][j + 1] = -partial[j]
    return IntMatrix(out)


def w_prime(w: GradedElement, k: int) -> tuple[tuple[Fraction, ...], ...]:
    """A banded skew stand-in for the skew part of (omega)_2k, by rows.

    Its column sums match those of the true skew part (which are forced by
    unitarity); entries are half-integers, genuinely so for some w, e.g.
    w = X_24 - X_25 at n = 5, k = 2, where u = (0, 1/2, 0, 1, -3/2).
    """
    return _halved(_w_prime2(_plus2(w, k)))


def _w_prime2(plus2: IntMatrix) -> IntMatrix:
    """Twice w_prime, from twice the symmetric part."""
    return _banded_skew([-v for v in plus2.vec_mul([1] * plus2.n)])


def _skew2(plus2: IntMatrix) -> IntMatrix:
    """Twice the witness-free stand-in for the skew part of (omega)_2k,
    from twice its symmetric part: w_prime plus the canonical skew,
    zero-row-sum matrix in the fractional class of (the true skew part)
    - w_prime.

    The half-integer positions of the skew part coincide with those of the
    symmetric part (their sum is integral), so the class is visible from w:
    the odd entries of plus2 - wp2, as +-1.  The true difference then lies
    in this representative plus G_2k, which is what lets phi_from_w land in
    the right coset.
    """
    n, wp2 = plus2.n, _w_prime2(plus2)
    f2 = IntMatrix([[(plus2[i, j] - wp2[i, j]) % 2 * ((i < j) - (i > j))
                     for j in range(n)] for i in range(n)])
    rows2 = f2.row_sums()
    if any(r % 2 for r in rows2):
        raise HalfIntegralityViolation("fractional class has no zero-row-sum "
                                       "representative")
    return wp2 + f2 - _banded_skew([-r for r in rows2])


# ---------------------------------------------------------------------------
# phi


def _expansion_term(n: int, pair: tuple[int, int], w: IntMatrix,
                    omega_2k: IntMatrix) -> IntMatrix:
    """One summand of the expansion path, linear in (w, omega_2k) jointly."""
    x = gen_x(*pair, n).matrix
    a2 = burau_eval_trunc(pure_gen(n, *pair), 3).coefficient(2)
    return x.commutator(omega_2k) + a2.commutator(w) + w.commutator(x) * x


def phi_eval(a: KernelElement) -> CosetElement:
    """phi of a kernel element carrying witnesses.

    Evaluates the product of commutators directly, then the expansion path,
    and insists the two agree as exact matrices.  Raises DepthViolation
    when a witness fails its depth or coefficient claim.
    """
    n, k = a.n, a.half_degree
    if any(t.witness is None for t in a.terms):
        raise ValueError("phi_eval needs a witness on every term")
    precision = 2 * k + 2
    omega_mats = []
    for t in a.terms:
        m = burau_eval_trunc(t.witness, precision)
        if m.depth_bound() < 2 * k - 1:
            raise DepthViolation(
                f"witness for {t.pair} has depth {m.depth_bound()} < {2 * k - 1}")
        if m.coefficient(2 * k - 1) != t.w.matrix:
            raise DepthViolation(
                f"witness for {t.pair} has the wrong leading coefficient")
        omega_mats.append(m)

    word = concat(*[commutator(pure_gen(n, *t.pair), t.witness) for t in a.terms])
    value = burau_eval_trunc(word, precision)
    if value.depth_bound() < 2 * k + 1:
        raise DepthViolation("witnessed product is not deep enough; "
                             "kernel data and witnesses are inconsistent")
    rep = value.coefficient(2 * k + 1)

    total = IntMatrix.zero(n)
    for t, m in zip(a.terms, omega_mats):
        total = total + _expansion_term(n, t.pair, t.w.matrix,
                                        m.coefficient(2 * k))
    if total != rep:
        raise AssertionError("expansion path disagrees with direct path")
    return CosetElement(GradedElement(2 * k + 1, rep), coset_modulus(n, k))


def phi_from_w(a: KernelElement,
               target_degree: int | None = None) -> CosetElement:
    """phi computed from the (pair, W) data alone, no witnesses.

    The witness-dependent part of the expansion enters only through the
    coefficient (omega)_2k, whose symmetric part, column sums, and
    fractional class are all forced by W; the remaining ambiguity lies in
    <G_1, G_2k> and drops out of the coset.  The assembled value is
    integral exactly when the kernel relation holds.

    target_degree names the degree of the RESULT (odd, >= 5); the input
    data is relabelled two below it.  Without it the result lands two
    degrees above the input.
    """
    if target_degree is not None:
        if target_degree % 2 == 0 or target_degree < 5:
            raise ValueError("phi lands in odd degree >= 5")
        if target_degree != a.degree + 2:
            a = a.relabel(target_degree - 2)
    n, k = a.n, a.half_degree
    total2 = IntMatrix.zero(n)
    for t in a.terms:
        skew2 = _skew2(_plus2(t.w, k))
        total2 = total2 + _expansion_term(n, t.pair, t.w.matrix * 2, skew2)
    sym4 = total2 + total2.transpose()
    if any(v % 4 for v in sym4.vec()):
        raise HalfIntegralityViolation("phi value has non-integral entries")
    rep = IntMatrix([[v // 4 for v in row] for row in sym4.rows])
    return CosetElement(GradedElement(2 * k + 1, rep), coset_modulus(n, k))
