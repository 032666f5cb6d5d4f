"""The graded integer Lie algebra: generators, brackets, lattices.

Rank values asserted here were computed by the HNF oracle (IntLattice over
the vectorized constraint solutions) and cross-checked against the closed
forms: dim G_1 = n(n-1)/2, dim G_2k = (n-1)(n-2)/2, dim G_{2k+1} =
n(n-1)/2 - 1.
"""

import random

import pytest

from burau.linalg import IntLattice, IntMatrix, matrix_lattice, perm_matrix
from burau.liealg import (GradedElement, bracket_lattice, g_basis, g_bracket,
                          g_lattice, g_rank, gen_x, gen_y,
                          membership_violations, orbit, orbit_key, sn_act)
from burau.words import Perm, all_perms


def rand_element(rng, n, k, spread=3):
    basis = g_basis(n, k)
    m = IntMatrix.zero(n)
    for b in basis:
        m = m + rng.randint(-spread, spread) * b.matrix
    return GradedElement(k, m)


# ---------------------------------------------------------------------------
# generators


def test_gen_x_frozen():
    assert gen_x(1, 2, 2).matrix == IntMatrix([[1, -1], [-1, 1]])


def test_gen_y_frozen():
    assert gen_y(1, 2, 3, 3).matrix == IntMatrix([[0, 1, -1],
                                                  [-1, 0, 1],
                                                  [1, -1, 0]])


def test_gen_x_symmetric_in_indices():
    assert gen_x(3, 1, 4) == gen_x(1, 3, 4)


def test_gen_y_alternating():
    y = gen_y(1, 2, 4, 5)
    assert gen_y(2, 4, 1, 5) == y
    assert gen_y(2, 1, 4, 5) == -y


def test_generator_index_validation():
    with pytest.raises(ValueError):
        gen_x(2, 2, 4)
    with pytest.raises(ValueError):
        gen_y(1, 2, 2, 4)
    with pytest.raises(ValueError):
        gen_x(1, 5, 4)


# ---------------------------------------------------------------------------
# membership


def test_membership_by_parity():
    assert membership_violations(1, gen_x(1, 3, 4).matrix) == []
    assert membership_violations(2, gen_y(1, 2, 3, 4).matrix) == []
    # wrong parity: X is symmetric, degree 2 wants skew
    assert membership_violations(2, gen_x(1, 3, 4).matrix)
    assert membership_violations(3, gen_y(1, 2, 3, 4).matrix)


def test_membership_odd_high_degree_needs_zero_trace():
    good = (gen_x(2, 4, 5) - gen_x(1, 3, 5)).matrix
    assert membership_violations(3, good) == []
    assert membership_violations(3, gen_x(1, 2, 5).matrix)  # trace 2


def test_membership_row_sums():
    m = IntMatrix([[1, 0], [0, -1]])
    assert any("row" in v for v in membership_violations(1, m))


def test_graded_element_rejects_bad_matrix():
    with pytest.raises(ValueError):
        GradedElement(2, gen_x(1, 2, 3).matrix)


# ---------------------------------------------------------------------------
# ranks


def test_rank_formulas():
    for n in range(3, 7):
        assert g_rank(n, 1) == n * (n - 1) // 2
        for k in (2, 4, 6):
            assert g_rank(n, k) == (n - 1) * (n - 2) // 2
        for k in (3, 5):
            assert g_rank(n, k) == n * (n - 1) // 2 - 1


def test_rank_matches_hnf_oracle():
    for n in range(3, 7):
        for k in range(1, 7):
            basis = g_basis(n, k)
            assert len(basis) == g_rank(n, k)
            lat = IntLattice(n * n, [b.matrix.vec() for b in basis])
            assert lat.rank == g_rank(n, k)
            assert all(membership_violations(k, b.matrix) == [] for b in basis)


def test_frozen_ranks_n5():
    assert g_rank(5, 1) == 10
    assert g_rank(5, 2) == 6
    assert g_rank(5, 3) == 9


# ---------------------------------------------------------------------------
# bracket


def test_bracket_formula_xx_shared_index():
    n = 5
    for i, j, k in [(1, 2, 3), (2, 4, 5), (3, 1, 5), (4, 5, 2)]:
        assert g_bracket(gen_x(i, j, n), gen_x(i, k, n)) == gen_y(i, j, k, n)


def test_bracket_formula_xx_disjoint_or_equal():
    n = 5
    zero = GradedElement.zero(n, 2)
    assert g_bracket(gen_x(1, 2, n), gen_x(3, 4, n)) == zero
    assert g_bracket(gen_x(1, 2, n), gen_x(1, 2, n)) == zero
    assert g_bracket(gen_x(1, 2, n), gen_x(2, 1, n)) == zero


def test_bracket_formula_xy():
    n = 5
    for i, j, k in [(1, 2, 3), (2, 5, 3), (4, 1, 5)]:
        expect = 2 * (gen_x(i, k, n) - gen_x(j, k, n))
        got = g_bracket(gen_x(i, j, n), gen_y(i, j, k, n))
        assert got.matrix == expect.matrix


def test_bracket_formulas_all_index_patterns():
    import itertools
    n = 5
    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        assert g_bracket(gen_x(i, j, n), gen_x(i, k, n)) == gen_y(i, j, k, n)
        got = g_bracket(gen_x(i, j, n), gen_y(i, j, k, n))
        assert got.matrix == 2 * (gen_x(i, k, n) - gen_x(j, k, n)).matrix
    for i, j, k, l in itertools.permutations(range(1, n + 1), 4):
        assert g_bracket(gen_x(i, j, n), gen_x(k, l, n)).is_zero()


def test_bracket_adds_degrees_and_stays_in_g():
    rng = random.Random(501)
    for ka, kb in [(1, 1), (1, 2), (2, 3), (1, 4), (3, 3)]:
        a, b = rand_element(rng, 5, ka), rand_element(rng, 5, kb)
        c = g_bracket(a, b)
        assert c.degree == ka + kb
        assert membership_violations(c.degree, c.matrix) == []


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(502)
    for _ in range(10):
        a = rand_element(rng, 4, 1)
        b = rand_element(rng, 4, 1)
        c = rand_element(rng, 4, 2)
        assert g_bracket(a, b).matrix == -g_bracket(b, a).matrix
        jac = (g_bracket(a, g_bracket(b, c)).matrix
               + g_bracket(b, g_bracket(c, a)).matrix
               + g_bracket(c, g_bracket(a, b)).matrix)
        assert jac.is_zero()


def test_bracket_requires_same_n():
    with pytest.raises(ValueError):
        g_bracket(gen_x(1, 2, 4), gen_x(1, 2, 5))


# ---------------------------------------------------------------------------
# symmetric-group action


def test_sn_act_cases():
    pi = Perm.transposition(5, 1, 3)
    assert sn_act(pi, gen_x(1, 2, 5)) == gen_x(3, 2, 5)
    m = rand_element(random.Random(503), 5, 3)
    assert sn_act(Perm.identity(5), m) == m


def test_sn_act_commutes_with_bracket():
    rng = random.Random(504)
    for pi in random.Random(505).sample(all_perms(5), 8):
        a, b = rand_element(rng, 5, 1), rand_element(rng, 5, 2)
        assert sn_act(pi, g_bracket(a, b)) == \
            g_bracket(sn_act(pi, a), sn_act(pi, b))


def conjugate(pi, m):
    """The reference action: the product P M P^T with P = perm_matrix(pi)."""
    p = perm_matrix(pi)
    return p * m * p.transpose()


def test_sn_act_is_conjugation_by_the_permutation_matrix():
    rng = random.Random(506)
    for k in range(1, 6):
        a = rand_element(rng, 5, k)
        for pi in all_perms(5):
            assert sn_act(pi, a).matrix == conjugate(pi, a.matrix)


def test_orbit_key_is_the_least_signed_conjugate():
    rng = random.Random(507)
    for k in range(1, 6):
        a = rand_element(rng, 5, k)
        conjugates = [conjugate(pi, a.matrix) for pi in all_perms(5)]
        assert orbit_key(a) == min(v for c in conjugates
                                   for v in (c.vec(), (-c).vec()))


def test_orbit_key_is_constant_on_signed_orbits():
    rng = random.Random(508)
    for k in range(1, 6):
        a = rand_element(rng, 5, k)
        key = orbit_key(a)
        assert orbit_key(-a) == key
        for pi in all_perms(5):
            assert orbit_key(sn_act(pi, a)) == key


def test_orbit_of_alpha_seed_spans_degree3():
    n = 5
    seed = GradedElement(3, (gen_x(2, 4, n) - gen_x(1, 3, n)).matrix)
    vecs = [e.matrix.vec() for e in orbit(seed)]
    lat = IntLattice(n * n, vecs)
    assert lat.rank == 9
    assert lat == g_lattice(n, 3)


def test_orbit_collapses_at_n4():
    # the same seed under S_4 only reaches a rank-3 sublattice; five
    # strands are genuinely needed
    seed = GradedElement(3, (gen_x(2, 4, 4) - gen_x(1, 3, 4)).matrix)
    lat = IntLattice(16, [e.matrix.vec() for e in orbit(seed)])
    assert lat.rank == 3


# ---------------------------------------------------------------------------
# bracket lattices


def test_bracket_lattice_degree_two_is_full():
    for n in (4, 5):
        assert bracket_lattice(n, 1) == g_lattice(n, 2)


def test_bracket_lattice_degree_four_is_full():
    lat = bracket_lattice(5, 3)
    assert lat.rank == 6
    assert lat == g_lattice(5, 4)


def test_odd_bracket_lattice_has_index_two():
    lat = bracket_lattice(5, 4)
    for b in g_basis(5, 5):
        assert lat.contains((2 * b.matrix).vec())
        assert not lat.contains(b.matrix.vec())
    target = (gen_x(2, 4, 5) - gen_x(2, 5, 5)).matrix
    assert not lat.contains(target.vec())


def test_odd_bracket_lattices_agree_across_degrees():
    # the matrix lattices <G1,G4> and <G1,G6> coincide; this is what makes
    # degree transport of cosets well defined
    assert bracket_lattice(5, 4) == bracket_lattice(5, 6)
    assert g_lattice(5, 3) == g_lattice(5, 5)


def test_matrix_lattice_shortcut():
    gens = [gen_x(1, 2, 4).matrix, gen_x(2, 3, 4).matrix]
    assert matrix_lattice(gens).contains((gens[0] + gens[1]).vec())
