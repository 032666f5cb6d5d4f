"""Word construction, the parser grammar, and permutation plumbing."""

import random
import time

import pytest

from burau.rep import burau_eval, burau_eval_trunc
from burau.linalg import LaurentMatrix
from burau.words import (Commutator, Concat, IndexOutOfRange, Inverse,
                         Literal, ParseError, Perm, Power, all_perms,
                         alpha_word, commutator, concat, delta_word,
                         empty_word, flatten, gen, letter_bound, node_count,
                         parse_word, perm_lift, pure_gen, word_format,
                         word_permutation)


def rand_word(rng, n, length):
    return concat(*(gen(n, rng.randint(1, n - 1), rng.choice((1, -1)))
                    for _ in range(length)))


def eval_equal(a, b):
    return burau_eval(a) == burau_eval(b)


# ---------------------------------------------------------------------------
# parsing


def test_parse_literal_sequence():
    w = parse_word("s1 s2^-1", 3, {})
    assert flatten(w) == ((1, 1), (2, -1))


def test_parse_capital_inverse():
    assert flatten(parse_word("S2", 3, {})) == ((2, -1),)


def test_precedence_power_binds_tightest():
    assert flatten(parse_word("s1 s2^2", 3, {})) == ((1, 1), (2, 1), (2, 1))
    assert flatten(parse_word("(s1 s2)^2", 3, {})) == ((1, 1), (2, 1),
                                                       (1, 1), (2, 1))


def test_parse_commutator_and_negative_power():
    w = parse_word("[s1,s2]^-1", 3, {})
    assert eval_equal(w, commutator(gen(3, 1), gen(3, 2)).inverse())


def test_parse_alpha_literal():
    text = "[A13,A23][A24,A14][A14,A34][A34,A24]"
    assert eval_equal(parse_word(text, 5, {}), alpha_word(5))


def test_parse_delta_with_binding():
    bindings = {"ALPHA": alpha_word(5)}
    w = parse_word("[A25^2 A45, [ALPHA, s4]]", 5, bindings)
    assert eval_equal(w, delta_word(5))


def test_parse_parenthesized_indices():
    w = parse_word("A(10)(12)", 13, {})
    assert eval_equal(w, pure_gen(13, 10, 12))
    assert flatten(parse_word("s(11)", 13, {})) == ((11, 1),)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_word("^2", 3, {})
    assert info.value.pos == 0
    with pytest.raises(ParseError):
        parse_word("[s1 s2", 3, {})
    with pytest.raises(ParseError):
        parse_word("s1 UNBOUND", 3, {})


def test_parse_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        parse_word("s5", 3, {})
    with pytest.raises(IndexOutOfRange):
        parse_word("A14", 3, {})


def test_format_parse_round_trip():
    rng = random.Random(301)
    for _ in range(15):
        base = rand_word(rng, 4, 3)
        w = Commutator(4, Power(4, base, rng.randint(-2, 3)),
                       concat(base, gen(4, 2)).inverse())
        again = parse_word(word_format(w), 4, {})
        assert eval_equal(w, again)


def test_parse_through_one_table_shares_repeated_subwords():
    table = {}
    text = "[A13 s2^2,[s1 S3,A24]] (s1 S3)^-2 [s1 S3,A24]"
    w = parse_word(text, 5, table=table)
    again = parse_word("s2 [s1 S3,A24]", 5, table=table)
    plain = parse_word(text, 5)
    assert word_format(w) == word_format(plain)
    assert eval_equal(w, plain)
    # the one "s1 S3" node sits under all three of its occurrences
    inner = w.parts[0].right
    assert inner.left is w.parts[1].child is w.parts[2].left
    # and a later word through the same table gets the same bracket
    assert again.parts[1] is w.parts[2] is inner
    assert node_count(w) < node_count(plain)
    # different exponents or letters stay apart
    assert parse_word("s1^2", 5, table=table) is not parse_word(
        "s1^3", 5, table=table)
    assert parse_word("s1", 5, table=table) is not parse_word(
        "S1", 5, table=table)


def test_format_of_a_parsed_format_is_unchanged():
    # word_format writes an Inverse node as "(x)^-1"; the parser reads that
    # back as an Inverse, not as a power -1 (which a single letter would
    # print as "s4^-1"), so the text is a fixed point
    rng = random.Random(305)
    inverses = 0
    for _ in range(60):
        seen = set()
        w = rand_dag(rng, 4, 3, seen)
        inverses += "Inverse" in seen or "Inverse2" in seen
        text = word_format(w)
        again = parse_word(text, 4)
        assert word_format(again) == text
        assert eval_equal(w, again)
    assert inverses > 10
    assert word_format(parse_word("(s4)^-1", 5)) == "(s4)^-1"
    assert isinstance(parse_word("(s1 S3)^-1", 5), Inverse)
    # a bare atom's -1 and any other exponent stay powers
    assert isinstance(parse_word("s1^-1", 5), Power)
    assert isinstance(parse_word("(s1 S3)^-2", 5), Power)


def test_inverse_has_its_own_intern_key():
    table = {}
    w = parse_word("(s1 S3)^-1 (s1 S3)^-1 (s1 S3)^-2", 5, table=table)
    assert w.parts[0] is w.parts[1]
    assert w.parts[0].child is w.parts[2].child
    assert isinstance(w.parts[0], Inverse) and isinstance(w.parts[2], Power)
    assert parse_word("(s1 S3)^-1", 5, table=table) is w.parts[0]


# ---------------------------------------------------------------------------
# constructors and group identities


def test_empty_word_is_identity():
    assert burau_eval(empty_word(4)) == LaurentMatrix.identity(4)
    assert flatten(empty_word(4)) == ()


def test_commutator_with_self_is_identity():
    rng = random.Random(302)
    w = rand_word(rng, 4, 5)
    assert burau_eval(commutator(w, w)) == LaurentMatrix.identity(4)


def test_inverse_reverses_letters():
    w = concat(gen(3, 1), gen(3, 2))
    assert flatten(w.inverse()) == ((2, -1), (1, -1))


def test_far_commutation():
    assert burau_eval(commutator(gen(4, 1), gen(4, 3))) == \
        LaurentMatrix.identity(4)


def test_strand_count_mismatch_rejected():
    with pytest.raises(ValueError):
        concat(gen(3, 1), gen(4, 1))


def test_power_matches_repetition():
    w = Power(3, gen(3, 1), 3)
    assert flatten(w) == ((1, 1),) * 3
    assert flatten(Power(3, gen(3, 1), -2)) == ((1, -1),) * 2
    assert flatten(Power(3, gen(3, 1), 0)) == ()


def test_free_reduction_at_flatten():
    w = concat(gen(3, 1), gen(3, 1, -1), gen(3, 2))
    assert flatten(w) == ((2, 1),)


def rand_dag(rng, n, depth, seen):
    """A random word DAG over all five node kinds, with shared subterms."""
    kind = "Literal" if depth == 0 else rng.choice(
        ("Concat", "Inverse", "Inverse2", "Power", "Commutator"))
    seen.add(kind)
    sub = lambda: rand_dag(rng, n, depth - 1, seen)
    if kind == "Literal":
        return Literal(n, [(rng.randint(1, n - 1), rng.choice((1, -1)))
                           for _ in range(rng.randint(0, 2))])
    if kind == "Concat":
        return Concat(n, [sub() for _ in range(rng.randint(0, 3))])
    if kind == "Inverse":
        return Inverse(n, sub())
    if kind == "Inverse2":
        return Inverse(n, Inverse(n, sub()))
    if kind == "Power":
        k = rng.randint(-3, 3)
        seen.add(k)
        return Power(n, sub(), k)
    shared = sub()
    return Commutator(n, shared, Concat(n, (shared, sub())))


def _inverse_letters(seq):
    return [(i, -s) for i, s in reversed(seq)]


def expand(w):
    """Unreduced letters of w by plain recursion, independent of the fold."""
    if isinstance(w, Literal):
        return list(w.letters)
    if isinstance(w, Concat):
        return [letter for part in w.parts for letter in expand(part)]
    if isinstance(w, Inverse):
        return _inverse_letters(expand(w.child))
    if isinstance(w, Power):
        base = expand(w.child)
        return (base if w.exponent >= 0 else _inverse_letters(base)) * abs(w.exponent)
    x, y = expand(w.left), expand(w.right)
    return x + y + _inverse_letters(x) + _inverse_letters(y)


def free_reduce(letters):
    out = []
    for i, s in letters:
        if out and out[-1] == (i, -s):
            out.pop()
        else:
            out.append((i, s))
    return tuple(out)


def test_dag_eval_matches_flattened_eval():
    rng = random.Random(303)
    for _ in range(10):
        base = rand_word(rng, 4, 3)
        w = commutator(Power(4, base, 2), concat(base, gen(4, 3)))
        letters = [gen(4, i, s) for i, s in flatten(w)]
        literal = concat(*letters) if letters else empty_word(4)
        assert eval_equal(w, literal)
    seen = set()
    for _ in range(40):
        w = rand_dag(rng, 4, 3, seen)
        letters = expand(w)
        literal = Literal(4, letters)
        assert flatten(w) == free_reduce(letters)
        exact = burau_eval(w)
        assert exact == burau_eval(literal)
        assert burau_eval_trunc(w, 4) == exact.truncate(4)
        assert word_permutation(w) == word_permutation(literal)
        assert len(flatten(w)) <= letter_bound(w) == len(letters)
    kinds = {"Literal", "Concat", "Inverse", "Inverse2", "Power", "Commutator"}
    assert kinds | set(range(-3, 4)) <= seen


def test_flatten_cap_is_met_by_powers():
    # square-and-multiply must stop at the exponent: squaring past its top
    # bit would build a longer intermediate and trip a cap the word meets
    for base in (concat(gen(4, 1), gen(4, 2)),
                 concat(gen(4, 1), gen(4, 2), gen(4, 1, -1))):
        for k in range(1, 10):
            w = Power(4, base, k)
            cap = len(flatten(w))
            assert flatten(w, cap=cap) == flatten(w)
            with pytest.raises(ValueError):
                flatten(w, cap=cap - 1)


def test_flatten_rejects_negative_cap():
    # the empty Concat splices nothing, so only a check made before the
    # fold can reject its cap
    for w in (Literal(4), Concat(4, [])):
        with pytest.raises(ValueError, match="cap must be >= 0"):
            flatten(w, cap=-1)


def test_node_and_letter_counts():
    base = gen(5, 1)
    w = Power(5, Power(5, base, 10), 10)
    assert node_count(w) <= 4
    assert letter_bound(w) == 100


# ---------------------------------------------------------------------------
# node identity


def test_one_memo_outlives_the_words_folded_through_it():
    # the memo holds the nodes it keys, so a node made after an earlier
    # word is dropped never reads that word's image
    rng = random.Random(311)
    memo: dict = {}
    for _ in range(2000):
        w = rand_dag(rng, 4, 2, set())
        assert burau_eval_trunc(w, 3, memo) == burau_eval_trunc(w, 3)
        del w


def test_nodes_hash_and_compare_by_identity_at_once():
    # 22 rounds of x, y = [x, y], [y, x] give a 45-node DAG of 4^22
    # letters, which a structural hash or == would walk exponentially
    x, y = gen(3, 1), gen(3, 2)
    for _ in range(22):
        x, y = commutator(x, y), commutator(y, x)
    twin = commutator(x.left, x.right)  # built alike, another node
    assert node_count(x) == node_count(twin) == 45
    t0 = time.perf_counter()
    assert hash(x) == hash(x) and x == x
    assert x != twin and twin not in {x: None}
    assert time.perf_counter() - t0 < 0.1


def test_repr_names_the_node_not_its_text():
    # the text of that 45-node DAG has 20 971 536 characters
    x, y = gen(3, 1), gen(3, 2)
    for _ in range(22):
        x, y = commutator(x, y), commutator(y, x)
    t0 = time.perf_counter()
    assert repr(x) == "Commutator(n=3, nodes=45)"
    assert time.perf_counter() - t0 < 0.1
    assert repr(empty_word(4)) == "Literal(n=4, nodes=1)"


# ---------------------------------------------------------------------------
# pure-braid generators


def test_pure_gen_convention():
    assert flatten(pure_gen(3, 1, 2)) == ((1, 1), (1, 1))
    assert flatten(pure_gen(3, 1, 3)) == ((2, 1), (1, 1), (1, 1), (2, -1))


def test_pure_gen_linear_coefficient_is_x():
    from burau.liealg import gen_x
    for n in range(2, 7):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                coeffs = burau_eval(pure_gen(n, i, j)).s_expand(2)
                assert coeffs[1] == gen_x(i, j, n).matrix


def test_pure_gen_index_validation():
    with pytest.raises(ValueError):
        pure_gen(4, 3, 3)
    with pytest.raises(ValueError):
        pure_gen(4, 2, 5)


# ---------------------------------------------------------------------------
# permutations


def test_word_permutation_cases():
    assert word_permutation(gen(3, 1)) == Perm((2, 1, 3))
    assert word_permutation(pure_gen(4, 2, 4)) == Perm.identity(4)
    # composition is left to right: first sigma1, then sigma2
    assert word_permutation(concat(gen(3, 1), gen(3, 2))).images == (3, 1, 2)


def test_word_permutation_of_huge_power():
    t0 = time.perf_counter()
    assert word_permutation(Power(5, gen(5, 1), 10**18 + 1)) == \
        Perm((2, 1, 3, 4, 5))
    assert time.perf_counter() - t0 < 1.0


def test_word_permutation_homomorphism():
    rng = random.Random(304)
    for _ in range(20):
        u, v = rand_word(rng, 5, 4), rand_word(rng, 5, 4)
        assert word_permutation(concat(u, v)) == \
            word_permutation(u) * word_permutation(v)


def test_perm_lift_cases():
    assert flatten(perm_lift(Perm.identity(4))) == ()
    assert flatten(perm_lift(Perm((2, 1)))) == ((1, 1),)


def test_perm_lift_round_trip_all_of_s4():
    for pi in all_perms(4):
        lifted = perm_lift(pi)
        assert word_permutation(lifted) == pi
        assert all(s == 1 for _, s in flatten(lifted))


def test_perm_composition_convention():
    p = Perm((2, 1, 3))   # (1 2)
    q = Perm((1, 3, 2))   # (2 3)
    assert (p * q)(1) == q(p(1)) == 3
    assert (p * q).images == (3, 1, 2)
    assert p.inverse() * p == Perm.identity(3)
