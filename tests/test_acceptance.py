"""Acceptance checklist.

One test per criterion, in order.  Each prints a single pass/fail line
(straight to the terminal, bypassing capture) with the measured runtime,
and enforces the criterion's time bound on top of its content.  All
comparisons are exact; there are no tolerances anywhere.  The checks
themselves live in ``burau.checks``, shared with ``burau verify-paper``;
each criterion feeds them its own, larger inputs.
"""

import itertools
import random
import time

from burau import checks
from burau.density import default_library
from burau.liealg import GradedElement, g_lattice, g_rank, gen_x, orbit
from burau.phi import CosetElement, coset_modulus, phi_eval, phi_from_w
from burau.rep import burau_eval
from burau.search import alpha_search_config, search_deep
from burau.words import alpha_word, commutator, concat, flatten, gen, pure_gen


def criterion(number, label, bound_seconds):
    """Turn the decorated body into the test of one criterion."""
    def make_test(body):
        def test(capsys):
            start, status = time.perf_counter(), "FAIL"
            try:
                body()
                status = "PASS"
            finally:
                elapsed = time.perf_counter() - start
                with capsys.disabled():
                    print(f"criterion {number}: {status} {label} "
                          f"({elapsed:.2f}s, bound {bound_seconds}s)")
            assert elapsed < bound_seconds
        return test
    return make_test


def random_words(seed, n, count, max_length, min_length=8):
    rng = random.Random(seed)
    return [checks.random_word(rng, n, rng.randrange(min_length, max_length + 1))
            for _ in range(count)]


@criterion(1, "generator blocks and relations, n = 2..6", 1)
def test_criterion_1_generators():
    checks.generator_blocks(range(2, 7))


@criterion(2, "invariance suite, 200 random words per n <= 6", 30)
def test_criterion_2_invariance():
    for n in range(2, 7):
        words = [gen(n, i) for i in range(1, n)]
        words += random_words(1000 + n, n, 200, 16)
        images = [burau_eval(w) for w in words]
        checks.fixed_vector(n, images)
        checks.fixed_row(n, images)
        checks.hermitian_form(n, images)
        checks.permutation_reduction(words, images)


@criterion(3, "alpha has depth 3 with coefficient X_24 - X_13", 5)
def test_criterion_3_alpha():
    checks.alpha_reproduction()


@criterion(4, "delta has depth 5 with the published coefficient, "
           "n = 5 and 6", 60)
def test_criterion_4_delta():
    checks.delta_reproduction(5, 7)
    checks.delta_reproduction(6, 7)


@criterion(5, "bracket grading on 100 witness pairs, k + l <= 6", 120)
def test_criterion_5_bracket_grading():
    ws = default_library(5, 5).witnesses
    combos = [(ka, kb) for ka in range(1, 6) for kb in range(1, 6)
              if ka + kb <= 6]
    rounds = ((r, ka, kb) for r in itertools.count() for ka, kb in combos)
    checks.filtration_bracket([
        (ka, ws(ka)[r % len(ws(ka))], kb, ws(kb)[(3 * r + 1) % len(ws(kb))])
        for r, ka, kb in itertools.islice(rounds, 100)])


@criterion(6, "graded invariants for all library elements to degree 6, "
           "det = 1 sampled", 60)
def test_criterion_6_graded_structure():
    lib = default_library(5, 6)
    checks.graded_invariants(lib)
    checks.determinant_one(lib)


@criterion(7, "bracket formulas for all index patterns and the HNF rank "
           "certificates", 60)
def test_criterion_7_lie_algebra():
    checks.bracket_formulas(5)
    checks.bracket_lattices(5)
    assert g_lattice(5, 4).rank == 6
    checks.orbit_spans_degree3(5)
    assert g_rank(5, 3) == 9


@criterion(8, "phi: dual-path agreement, coset value, five witness choices, "
           "transport", 300)
def test_criterion_8_phi():
    n = 5
    # X_25 (x) W twice and X_45 (x) W, every term witnessed by omega
    d = checks.flagship_kernel_element(n)
    omega = commutator(alpha_word(n), gen(n, 4))
    deep1 = commutator(pure_gen(n, 1, 2), alpha_word(n))
    deep2 = commutator(deep1, alpha_word(n))
    target = CosetElement(GradedElement(5, d.terms[0].w.matrix),
                          coset_modulus(n, 2))
    witness_choices = [
        [omega, omega, omega],
        [concat(omega, deep1), omega, omega],
        [concat(omega, deep2)] * 3,
        [concat(omega, deep1, deep2)] * 3,
        [concat(deep1, omega)] * 3,
    ]
    assert len({tuple(flatten(ws[0])) for ws in witness_choices}) == 5
    # each value is recomputed through the expansion identity and must
    # agree exactly with the direct path
    checks.phi_witness_independence(d, witness_choices)
    checks.phi_coset_value(d, target)

    lib = default_library(n, 5)
    c7 = phi_eval(d.relabel(5).with_witnesses([lib.inductors[5].word] * 3))
    assert c7.degree == 7
    assert c7 == target.transport(7)
    assert phi_from_w(d, target_degree=7) == c7


@criterion(9, "density round-trip, 20 random words at n = 5, K = 4, "
           "residual depth >= 5", 600)
def test_criterion_9_density_round_trip():
    # the check hands approximate only the matrices; the provenance words
    # stay on this side
    words = random_words(20240814, 5, 20, 15, min_length=6)
    checks.approximation_roundtrip(default_library(5, 4), words, 4,
                                   exact_check=False)


@criterion(10, "alpha search config reaches the orbit of X_24 - X_13 "
           "within 10^6 candidates", 900)
def test_criterion_10_search():
    out = search_deep(alpha_search_config(budget=10 ** 6))
    seed = GradedElement(3, (gen_x(2, 4, 5) - gen_x(1, 3, 5)).matrix)
    targets = {m.vec() for g in orbit(seed) for m in (g.matrix, -g.matrix)}
    assert any(h.depth == 3 and h.leading.matrix.vec() in targets
               for h in out.hits)
