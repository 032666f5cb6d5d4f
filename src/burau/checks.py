"""The paper's structural checks, one function each.

A check takes its inputs and fails through ``expect``, which, unlike
``assert``, is kept under ``python -O``.  ``paper_checks`` is the suite of
``burau verify-paper``; the acceptance tests call the same checks with
their own inputs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .density import approximate, default_library, solve_in_degree
from .laurent import LaurentPoly
from .liealg import (GradedElement, bracket_lattice, g_basis, g_bracket,
                     g_lattice, g_rank, gen_x, gen_y, orbit)
from .linalg import IntLattice, IntMatrix, perm_matrix
from .phi import (CosetElement, KernelElement, KernelTerm, coset_modulus,
                  phi_eval, phi_from_w, reconstruct_plus, w_prime)
from .rep import (burau_eval, burau_eval_trunc, burau_gen, form_j, ones_row,
                  vector_v)
from .words import (Literal, alpha_word, commutator, concat, delta_word, gen,
                    pure_gen, word_permutation)

#: the published degree-5 leading coefficient of delta at n = 5
DELTA_COEFF = ((0, 2, 0, 2, -4),
               (2, -2, -2, 1, 1),
               (0, -2, 0, -2, 4),
               (2, 1, -2, 1, -2),
               (-4, 1, 4, -2, 1))


def expect(ok: bool) -> None:
    """Fail a check; unlike assert, this is kept under -O."""
    if not ok:
        raise AssertionError("check failed")


def random_word(rng: random.Random, n: int, length: int) -> Literal:
    return Literal(n, [(rng.randrange(1, n), rng.choice((1, -1)))
                       for _ in range(length)])


def generator_blocks(strand_counts) -> None:
    """beta(s_i) is I but for [[1 - t, 1], [t, 0]] at rows and columns i,
    i + 1, and the images satisfy the braid relations."""
    one, t, zero = LaurentPoly({0: 1}), LaurentPoly({1: 1}), LaurentPoly({})
    for n in strand_counts:
        for i in range(1, n):
            block = {(i - 1, i - 1): one - t, (i - 1, i): one,
                     (i, i - 1): t, (i, i): zero}
            m = burau_gen(n, i)
            for r in range(n):
                for c in range(n):
                    expect(m[(r, c)] ==
                           block.get((r, c), one if r == c else zero))
        for i in range(1, n - 1):
            a, b = gen(n, i), gen(n, i + 1)
            expect(burau_eval(concat(a, b, a)) == burau_eval(concat(b, a, b)))
            for j in range(i + 2, n):
                c = gen(n, j)
                expect(burau_eval(concat(a, c)) == burau_eval(concat(c, a)))


def fixed_vector(n: int, images) -> None:
    v = vector_v(n)
    for m in images:
        expect(m.mul_vec(v) == v)


def fixed_row(n: int, images) -> None:
    row = ones_row(n)
    for m in images:
        expect(m.vec_mul(row) == row)


def hermitian_form(n: int, images) -> None:
    """Squier's form J is invariant: m* J m == J."""
    j = form_j(n)
    for m in images:
        expect(m.star() * j * m == j)


def permutation_reduction(words, images) -> None:
    """At t = 1 the image of a word is its permutation matrix."""
    for w, m in zip(words, images, strict=True):
        expect(m.at_one() == perm_matrix(word_permutation(w)))


def filtration_bracket(pairs) -> None:
    """[wa, wb] for (k, wa, l, wb) has depth >= k + l and, in degree k + l,
    the commutator of the witnesses' coefficients."""
    for ka, wa, kb, wb in pairs:
        total = ka + kb
        m = burau_eval_trunc(commutator(wa.word, wb.word), total + 1)
        expect(m.depth_bound() >= total)
        expect(m.coefficient(total) ==
               wa.element.matrix.commutator(wb.element.matrix))


def graded_invariants(lib) -> None:
    """Every library coefficient has zero row sums, is symmetric in odd and
    skew in even degree, and is traceless from degree 2 on."""
    for k in range(1, lib.max_degree + 1):
        for w in lib.witnesses(k):
            m = w.element.matrix
            sign = 1 if k % 2 else -1
            expect(all(s == 0 for s in m.row_sums()))
            expect(m.transpose() ==
                   IntMatrix([[sign * v for v in row] for row in m.rows]))
            if k >= 2:
                expect(m.trace() == 0)


def determinant_one(lib) -> None:
    for k in range(2, lib.max_degree + 1):
        expect(burau_eval(lib.witnesses(k)[0].word).det() ==
               LaurentPoly({0: 1}))


def bracket_formulas(n: int) -> None:
    idx = range(1, n + 1)
    for i, j, k in itertools.permutations(idx, 3):
        expect(g_bracket(gen_x(i, j, n), gen_x(i, k, n)).matrix ==
               gen_y(i, j, k, n).matrix)
        expect(g_bracket(gen_x(i, j, n), gen_y(i, j, k, n)).matrix ==
               (2 * (gen_x(i, k, n) - gen_x(j, k, n))).matrix)
    for i, j, k, l in itertools.permutations(idx, 4):
        expect(g_bracket(gen_x(i, j, n), gen_x(k, l, n)).matrix.is_zero())
    for i, j in itertools.permutations(idx, 2):
        expect(g_bracket(gen_x(i, j, n), gen_x(i, j, n)).matrix.is_zero())
        expect(g_bracket(gen_x(i, j, n), gen_x(j, i, n)).matrix.is_zero())


def orbit_spans_degree3(n: int) -> None:
    """The S_n orbit of alpha's coefficient X_24 - X_13 spans G_3."""
    seed = GradedElement(3, (gen_x(2, 4, n) - gen_x(1, 3, n)).matrix)
    lat = IntLattice(n * n, [g.matrix.vec() for g in orbit(seed)])
    expect(lat.rank == g_rank(n, 3))
    expect(lat == g_lattice(n, 3))


def bracket_lattices(n: int) -> None:
    """[G_1, G_1] = G_2, [G_1, G_3] = G_4, and [G_1, G_4] = 2 G_5."""
    expect(bracket_lattice(n, 1) == g_lattice(n, 2))
    expect(bracket_lattice(n, 3) == g_lattice(n, 4))
    l5 = bracket_lattice(n, 4)
    for b in g_basis(n, 5):
        expect(l5.contains(tuple(2 * x for x in b.matrix.vec())))
        expect(not l5.contains(b.matrix.vec()))


def symmetric_reconstruction(lib, rng: random.Random) -> None:
    """The degree-4 coefficient of solve_in_degree(W) for random W in G_3
    has symmetric part reconstruct_plus(W)."""
    n = lib.n
    basis = g_basis(n, 3)
    for _ in range(4):
        coeffs = [rng.randrange(-2, 3) for _ in basis]
        m = sum((c * b.matrix for c, b in zip(coeffs, basis)), IntMatrix.zero(n))
        if m.is_zero():
            continue
        w = GradedElement(3, m)
        om4 = burau_eval_trunc(solve_in_degree(lib, w), 5).coefficient(4)
        plus = reconstruct_plus(w, 2)
        for i in range(n):
            for j in range(n):
                expect(plus[i][j] == Fraction(om4[(i, j)] + om4[(j, i)], 2))


def banded_skew_sums(n: int) -> None:
    w = GradedElement(3, (gen_x(2, 4, n) - gen_x(2, 5, n)).matrix)
    wp = w_prime(w, 2)
    plus = reconstruct_plus(w, 2)
    u = [-sum(plus[i][j] for i in range(n)) for j in range(n)]
    for j in range(n):
        expect(sum(wp[i][j] for i in range(n)) == u[j])
        for i in range(n):
            expect(wp[i][j] == -wp[j][i])


def flagship_kernel_element(n: int) -> KernelElement:
    """X_25 (x) W twice plus X_45 (x) W for W = X_24 - X_25 in degree 3,
    each term witnessed by [alpha, s_4]."""
    w = GradedElement(3, (gen_x(2, 4, n) - gen_x(2, 5, n)).matrix)
    omega = commutator(alpha_word(n), gen(n, 4))
    return KernelElement([KernelTerm((2, 5), w, omega),
                          KernelTerm((2, 5), w, omega),
                          KernelTerm((4, 5), w, omega)])


def phi_witness_independence(d: KernelElement, witness_choices) -> None:
    """phi of d is the same for every choice of witnesses, each checked
    against the expansion identity, and equals the witness-free value."""
    values = [phi_eval(d.with_witnesses(ws)) for ws in witness_choices]
    for c in values:
        expect(c == values[0])
    expect(phi_from_w(d) == values[0])


def phi_coset_value(d: KernelElement, target: CosetElement) -> None:
    expect(phi_eval(d) == target)


def alpha_reproduction() -> None:
    m = burau_eval(alpha_word(5))
    expect(m.depth() == 3)
    expect(m.s_expand(4)[3] == (gen_x(2, 4, 5) - gen_x(1, 3, 5)).matrix)


def delta_reproduction(n: int, precision: int) -> None:
    """delta has depth 5 and the published coefficient, zero-padded."""
    m = burau_eval_trunc(delta_word(n), precision)
    expect(m.depth_bound() == 5)
    pad = [0] * (n - 5)
    expect(m.coefficient(5) == IntMatrix([list(r) + pad for r in DELTA_COEFF]
                                         + [[0] * n for _ in pad]))


def library_spans(lib) -> None:
    for k in range(1, lib.max_degree + 1):
        expect(lib.coefficient_lattice(k) == g_lattice(lib.n, k))


def solve_roundtrip(lib, rng: random.Random) -> None:
    """solve_in_degree meets a random element of each G_k."""
    for k in range(1, lib.max_degree + 1):
        basis = g_basis(lib.n, k)
        coeffs = [rng.randrange(-1, 2) for _ in basis]
        m = sum((c * b.matrix for c, b in zip(coeffs, basis)),
                IntMatrix.zero(lib.n))
        out = burau_eval_trunc(solve_in_degree(lib, GradedElement(k, m)), k + 1)
        expect(out.depth_bound() >= k and out.coefficient(k) == m)


def approximation_roundtrip(lib, words, k: int, exact_check) -> None:
    """approximate, given only a word's image, returns a word whose image
    agrees with it through degree k: the residual has depth > k."""
    for w in words:
        g = burau_eval(w)
        word = approximate(g, k, library=lib, exact_check=exact_check).word
        residual = g.truncate(k + 2).inverse() * burau_eval_trunc(word, k + 2)
        expect(residual.depth_bound() >= k + 1)


def paper_checks(n: int, max_degree: int):
    """(name, thunk) for each check of ``burau verify-paper``, in order.

    The thunks draw from one seeded random source in this order; the
    library and the sample words' images are made once, here."""
    rng = random.Random(20240811)
    words = [random_word(rng, n, 14) for _ in range(20)]
    images = [burau_eval(w) for w in words]
    lib = default_library(n, max_degree)
    pool = [(k, w) for k in range(1, max_degree + 1)
            for w in lib.per_degree[k][:3]]
    pairs = [(ka, wa, kb, wb) for ka, wa in pool for kb, wb in pool
             if ka + kb <= max_degree]
    flagship = flagship_kernel_element(n)
    ws = [t.witness for t in flagship.terms]
    alt = concat(ws[0], commutator(alpha_word(n), pure_gen(n, 1, 2)))
    target = CosetElement(GradedElement(5, flagship.terms[0].w.matrix),
                          coset_modulus(n, 2))
    # a generator: the words are drawn as the check runs, after the draws
    # of the checks before it
    approx_words = (random_word(rng, n, 10) for _ in range(3))
    return [
        ("generator-blocks", lambda: generator_blocks(range(2, max(n, 6) + 1))),
        ("fixed-vector", lambda: fixed_vector(n, images)),
        ("fixed-row", lambda: fixed_row(n, images)),
        ("hermitian-form", lambda: hermitian_form(n, images)),
        ("permutation-reduction", lambda: permutation_reduction(words, images)),
        ("filtration-bracket", lambda: filtration_bracket(pairs)),
        ("graded-invariants", lambda: graded_invariants(lib)),
        ("determinant-one", lambda: determinant_one(lib)),
        ("bracket-formulas", lambda: bracket_formulas(n)),
        ("orbit-spans-degree3", lambda: orbit_spans_degree3(n)),
        ("bracket-lattices", lambda: bracket_lattices(n)),
        ("symmetric-reconstruction", lambda: symmetric_reconstruction(lib, rng)),
        ("banded-skew-sums", lambda: banded_skew_sums(n)),
        # phi_eval raises unless the direct path and the expansion
        # identity agree exactly
        ("phi-expansion-identity", lambda: phi_eval(flagship)),
        ("phi-witness-independence",
         lambda: phi_witness_independence(flagship, [ws, [alt, *ws[1:]]])),
        ("phi-coset-value", lambda: phi_coset_value(flagship, target)),
        ("alpha-reproduction", alpha_reproduction),
        ("delta-reproduction", lambda: delta_reproduction(5, 6)),
        ("library-spans", lambda: library_spans(lib)),
        ("induction-congruence", lib.verify_induction),
        ("solve-roundtrip", lambda: solve_roundtrip(lib, rng)),
        ("approximation-roundtrip", lambda: approximation_roundtrip(
            lib, approx_words, min(4, max_degree), None)),
    ]
