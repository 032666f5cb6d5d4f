"""The graded integer Lie algebra attached to the s-adic filtration.

G_k is the lattice of integer n x n matrices M with M * ones = 0 (every row
sums to zero), symmetric in degree 1, skew in even degree, and symmetric
with trace zero in odd degree >= 3.  The direct sum of the G_k is closed
under the matrix commutator, with degrees adding; leading coefficients of
deep group elements land here, which is what makes the approximation loop
linear algebra instead of group theory.

Everything in this module is exact integer arithmetic.  Bases are derived
from the defining constraints by Hermite-normal-form kernels rather than
written down by hand, so the announced ranks are computed facts.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .laurent import json_int
from .linalg import IntLattice, IntMatrix
from .words import Perm, all_perms


class GradedElement:
    """An element of G_k: validated on construction, immutable after."""

    __slots__ = ("degree", "matrix")

    def __init__(self, degree: int, matrix: IntMatrix):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        problems = membership_violations(degree, matrix)
        if problems:
            raise ValueError(
                f"not a degree-{degree} element: {', '.join(problems)}")
        self.degree = degree
        self.matrix = matrix

    @staticmethod
    def zero(n: int, degree: int) -> "GradedElement":
        return GradedElement(degree, IntMatrix.zero(n))

    @property
    def n(self) -> int:
        return self.matrix.n

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def _same(self, other: "GradedElement") -> None:
        if self.degree != other.degree or self.n != other.n:
            raise ValueError("degree or size mismatch")

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._same(other)
        return GradedElement(self.degree, self.matrix + other.matrix)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        self._same(other)
        return GradedElement(self.degree, self.matrix - other.matrix)

    def __neg__(self) -> "GradedElement":
        return GradedElement(self.degree, -self.matrix)

    def __rmul__(self, c: int) -> "GradedElement":
        return GradedElement(self.degree, c * self.matrix)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.degree == other.degree and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash((self.degree, self.matrix))

    def to_json(self) -> dict:
        return {"degree": self.degree, "matrix": self.matrix.to_json()}

    @staticmethod
    def from_json(data: dict) -> "GradedElement":
        return GradedElement(json_int(data["degree"]),
                             IntMatrix.from_json(data["matrix"]))

    def __repr__(self) -> str:
        return f"GradedElement(degree={self.degree}, n={self.n})"

    def __str__(self) -> str:
        return f"degree {self.degree}:\n{self.matrix}"


def membership_violations(degree: int, matrix: IntMatrix) -> list[str]:
    """Which G_k conditions the matrix breaks (empty list = member)."""
    out = []
    if any(matrix.row_sums()):
        out.append("rows must sum to zero")
    mt = matrix.transpose()
    if degree % 2 == 0:
        if mt != -matrix:
            out.append("even degree must be skew-symmetric")
    else:
        if mt != matrix:
            out.append("odd degree must be symmetric")
        if degree >= 3 and matrix.trace() != 0:
            out.append("odd degree >= 3 must be traceless")
    return out


# ---------------------------------------------------------------------------
# generators


def gen_x(i: int, j: int, n: int) -> GradedElement:
    """X_ij = E_ii + E_jj - E_ij - E_ji, the degree-1 generators."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"need distinct indices in 1..{n}, got ({i}, {j})")
    m = [[0] * n for _ in range(n)]
    m[i - 1][i - 1] = m[j - 1][j - 1] = 1
    m[i - 1][j - 1] = m[j - 1][i - 1] = -1
    return GradedElement(1, IntMatrix(m))


def gen_y(i: int, j: int, k: int, n: int) -> GradedElement:
    """Y_ijk, the degree-2 generators: +1 on the cycle i->j->k->i, skew.

    Alternating in the three indices, and equal to the bracket
    <X_ij, X_ik> (pinned by the test suite).
    """
    if len({i, j, k}) != 3 or not all(1 <= a <= n for a in (i, j, k)):
        raise ValueError(f"need three distinct indices in 1..{n}")
    m = [[0] * n for _ in range(n)]
    for a, b in ((i, j), (j, k), (k, i)):
        m[a - 1][b - 1] = 1
        m[b - 1][a - 1] = -1
    return GradedElement(2, IntMatrix(m))


def g_bracket(a: GradedElement, b: GradedElement) -> GradedElement:
    """The matrix commutator; degrees add and membership is re-validated."""
    if a.n != b.n:
        raise ValueError("size mismatch")
    return GradedElement(a.degree + b.degree, a.matrix.commutator(b.matrix))


def sn_act(pi: Perm, a: GradedElement) -> GradedElement:
    """Conjugation P A P^T by the permutation matrix P of pi; preserves degree.

    With P[i, pi(i)] = 1 (see ``linalg.perm_matrix``) the conjugate is the
    relabelling (P A P^T)[i, j] = A[pi(i), pi(j)], so no product is formed.
    """
    if pi.n != a.n:
        raise ValueError("size mismatch")
    rows = a.matrix.rows
    idx = [i - 1 for i in pi.images]
    return GradedElement(a.degree,
                         IntMatrix([[rows[i][j] for j in idx] for i in idx]))


def orbit(a: GradedElement) -> list[GradedElement]:
    """The full S_n-orbit of a (with repeats removed, order preserved)."""
    seen: set[IntMatrix] = set()
    out = []
    for pi in all_perms(a.n):
        b = sn_act(pi, a)
        if b.matrix not in seen:
            seen.add(b.matrix)
            out.append(b)
    return out


def orbit_key(a: GradedElement) -> tuple[int, ...]:
    """The least row-major vector of +-b over the S_n-orbit of a.

    Two elements of one degree have the same key exactly when they agree up
    to sign and the S_n action.  The relabellings are built as tuples
    directly: the n! conjugates are never validated as elements.
    """
    rows = a.matrix.rows
    vecs = (tuple(rows[i][j] for i in idx for j in idx)
            for idx in itertools.permutations(range(a.n)))
    return min(min(vec, tuple(-v for v in vec)) for vec in vecs)


# ---------------------------------------------------------------------------
# bases and lattices


def _kernel_matrices(n: int, positions: Sequence[tuple[int, int]],
                     build, constraints: Sequence[Sequence[int]]) -> list[IntMatrix]:
    """Solve an integer constraint system over a parameter space of matrices.

    positions index the free parameters, build(vector) -> IntMatrix realizes
    a parameter vector, constraints is a matrix (rows = linear conditions on
    the parameters).  Returns matrices for an HNF-derived basis of the full
    integer kernel.
    """
    cols = [[row[p] for row in constraints] for p in range(len(positions))]
    lat = IntLattice(len(constraints), cols)
    return [build(vec) for vec in lat.kernel_basis()]


def g_basis(n: int, k: int) -> list[GradedElement]:
    """A Z-basis of the lattice G_k, derived from the defining constraints.

    Ranks: n(n-1)/2 in degree 1, (n-1)(n-2)/2 in even degree, and
    n(n-1)/2 - 1 in odd degree >= 3.
    """
    if n < 3 or k < 1:
        raise ValueError("need n >= 3 and k >= 1")
    if k % 2 == 1:
        # parameters: upper triangle including the diagonal (symmetric)
        positions = [(i, j) for i in range(n) for j in range(i, n)]

        def build(vec):
            m = [[0] * n for _ in range(n)]
            for (i, j), c in zip(positions, vec):
                m[i][j] = c
                m[j][i] = c
            return IntMatrix(m)

        constraints = []
        for r in range(n):  # row r sums to zero
            constraints.append([1 if r in (i, j) else 0 for i, j in positions])
        if k >= 3:
            constraints.append([1 if i == j else 0 for i, j in positions])
    else:
        # parameters: strict upper triangle (skew)
        positions = [(i, j) for i in range(n) for j in range(i + 1, n)]

        def build(vec):
            m = [[0] * n for _ in range(n)]
            for (i, j), c in zip(positions, vec):
                m[i][j] = c
                m[j][i] = -c
            return IntMatrix(m)

        constraints = []
        for r in range(n):
            constraints.append([(1 if i == r else -1 if j == r else 0)
                                for i, j in positions])
    mats = _kernel_matrices(n, positions, build, constraints)
    return [GradedElement(k, m) for m in mats]


def g_rank(n: int, k: int) -> int:
    """The rank of G_k (closed form, cross-checked against g_basis)."""
    if k == 1:
        return n * (n - 1) // 2
    if k % 2 == 0:
        return (n - 1) * (n - 2) // 2
    return n * (n - 1) // 2 - 1


def g_lattice(n: int, k: int) -> IntLattice:
    """G_k as a lattice in Z^(n*n)."""
    return IntLattice(n * n, [b.matrix.vec() for b in g_basis(n, k)])


def bracket_lattice(n: int, k: int) -> IntLattice:
    """The sublattice <G_1, G_k> of G_{k+1} spanned by basis brackets.

    For odd k it equals all of G_{k+1}; for even k it contains 2*G_{k+1}
    but misses some vectors, which is exactly the gap the degree-raising
    construction has to repair.  Both facts are asserted by the tests.
    """
    b1 = g_basis(n, 1)
    bk = g_basis(n, k)
    gens = [g_bracket(x, y).matrix.vec() for x in b1 for y in bk]
    return IntLattice(n * n, gens)
