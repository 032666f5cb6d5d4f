import math
import random

import pytest

from burau.laurent import ONE, S, T, T_INV, ZERO, LaurentPoly, TruncSeries


def rand_poly(rng, span=4, size=5, bound=9):
    return LaurentPoly({rng.randint(-span, span): rng.randint(-bound, bound)
                        for _ in range(size)})


def test_constants():
    assert T == LaurentPoly({1: 1})
    assert T_INV == LaurentPoly({-1: 1})
    assert S == T - 1
    assert ZERO.is_zero() and ONE == LaurentPoly({0: 1})


def test_product_expansions():
    assert (T - 1) * (T - 1) == LaurentPoly({2: 1, 1: -2, 0: 1})
    assert (1 + T) * (1 - T) == LaurentPoly({0: 1, 2: -1})


def test_additive_identity_and_canonical_zero():
    p = LaurentPoly({3: 2, -1: 5})
    assert p + ZERO == p
    assert p - p == ZERO
    assert LaurentPoly({2: 0, 0: 0}) == ZERO


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(60):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_bar_defining_cases():
    assert T.bar() == T_INV
    assert (1 - T).bar() == 1 - T_INV


def test_bar_is_ring_involution():
    rng = random.Random(102)
    for _ in range(40):
        p, q = rand_poly(rng), rand_poly(rng)
        assert p.bar().bar() == p
        assert (p * q).bar() == p.bar() * q.bar()
        assert (p + q).bar() == p.bar() + q.bar()


def test_to_series_frozen_cases():
    assert T_INV.to_series(4).coeffs() == [1, -1, 1, -1]
    # s* = bar(t - 1) = t^{-1} - 1
    assert S.bar().to_series(4).coeffs() == [0, -1, 1, -1]
    assert (T * T).to_series(3).coeffs() == [1, 2, 1]


def test_to_series_is_ring_homomorphism():
    rng = random.Random(103)
    for _ in range(40):
        p, q = rand_poly(rng), rand_poly(rng)
        for prec in (1, 3, 6):
            assert (p + q).to_series(prec) == p.to_series(prec) + q.to_series(prec)
            assert (p * q).to_series(prec) == p.to_series(prec) * q.to_series(prec)


def test_s_valuation_cases():
    assert (T * T - 2 * T + 1).s_valuation() == 2
    assert ZERO.s_valuation() == math.inf
    assert T.s_valuation() == 0
    assert (S ** 4).s_valuation() == 4
    assert (T_INV - 1).s_valuation() == 1


def test_s_valuation_matches_truncation():
    rng = random.Random(104)
    for _ in range(40):
        p = rand_poly(rng) * S ** rng.randint(0, 3)
        for prec in (1, 2, 4):
            assert (p.s_valuation() >= prec) == p.to_series(prec).is_zero()


def test_power_and_inverse_units():
    assert T ** 3 == LaurentPoly({3: 1})
    assert T ** -2 == LaurentPoly({-2: 1})
    assert (-T) ** -1 == -T_INV
    assert T ** -1 * T == ONE
    with pytest.raises(ValueError):
        (T + 1) ** -1


def test_json_round_trip():
    p = LaurentPoly({-3: 10 ** 30, 0: -7, 5: 1})
    data = p.to_json()
    assert data["t"]["-3"] == str(10 ** 30)
    assert LaurentPoly.from_json(data) == p


def test_json_coefficients_are_integers_or_decimal_strings():
    assert LaurentPoly.from_json({"t": {"2": 3, "-1": "-4"}}) == \
        LaurentPoly({2: 3, -1: -4})
    for bad in (1.6, 2.0, True, "1.5", "", None):
        with pytest.raises(TypeError):
            LaurentPoly.from_json({"t": {"0": bad}})
    with pytest.raises(TypeError):
        LaurentPoly.from_json({"t": {"0.5": 1}})


def test_constant_hashes_as_the_integer_it_equals():
    for c in (0, 1, -1, 7):
        assert LaurentPoly(c) == c and hash(LaurentPoly(c)) == hash(c)
        assert {c: "x"}.get(LaurentPoly(c)) == "x"


class TestTruncSeries:
    def test_constructors(self):
        assert TruncSeries.zero(3).coeffs() == [0, 0, 0]
        assert TruncSeries.one(3).coeffs() == [1, 0, 0]

    def test_precision_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TruncSeries(2, [1, 0]) + TruncSeries(3, [1, 0, 0])

    def test_product_truncates(self):
        a = TruncSeries(3, [0, 1, 0])   # s
        assert (a * a).coeffs() == [0, 0, 1]
        assert (a * a * a).coeffs() == [0, 0, 0]
