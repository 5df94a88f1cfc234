"""Binomial-basis polynomials: conversion, evaluation, companion, parsing,
and the irreducibility screen."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composite_forge.poly as poly_mod
from composite_forge.poly import (
    MAX_DEGREE,
    IntPolynomial,
    irreducibility_check,
    parse_poly_literal,
)


def mono_eval(mono, n):
    return sum(c * n**i for i, c in enumerate(mono))


class TestFromMonomial:
    # finite differences of f at 0..B give the binomial coordinates;
    # these four were worked out by hand
    @pytest.mark.parametrize(
        "mono,binom",
        [
            ([0, 1], (0, 1)),
            ([1, 0, 1], (1, 1, 2)),
            ([2, 0, 0, 1], (2, 1, 6, 6)),
            ([0, 0, 1], (0, 1, 2)),
        ],
    )
    def test_hand_cases(self, mono, binom):
        assert IntPolynomial.from_monomial(mono).coeffs == binom

    @given(
        st.lists(st.integers(-50, 50), min_size=2, max_size=6),
        st.integers(-200, 200),
    )
    def test_agrees_with_direct_monomial_eval(self, mono, n):
        if mono[-1] <= 0:
            mono[-1] = abs(mono[-1]) + 1
        f = IntPolynomial.from_monomial(mono)
        assert f.eval(n) == mono_eval(mono, n)

    def test_nonpositive_leading_rejected(self):
        with pytest.raises(ValueError):
            IntPolynomial.from_monomial([1, -1])

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            IntPolynomial.from_monomial([5])
        with pytest.raises(ValueError):
            IntPolynomial((3,))

    def test_trailing_zeros_stripped(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)

    def test_degree_bound(self):
        # trailing zeros do not count towards it, in either basis
        top = (1,) + (0,) * (MAX_DEGREE - 1) + (1,)
        assert IntPolynomial(top + (0,) * 10**5).degree == MAX_DEGREE
        assert IntPolynomial.from_monomial(list(top) + [0] * 10**5).degree == MAX_DEGREE
        for make in (IntPolynomial, IntPolynomial.from_monomial):
            with pytest.raises(ValueError, match=f"degree {MAX_DEGREE + 1} exceeds"):
                make((1, 0) + top[1:])


class TestEval:
    def test_binomial_basis_small(self):
        # C(x,2) + 1 at x = 0..4: 1, 1, 2, 4, 7
        f = IntPolynomial((1, 0, 1))
        assert [f.eval(n) for n in range(5)] == [1, 1, 2, 4, 7]

    def test_negative_arguments(self):
        # C(-n, 2) = n(n+1)/2, still an integer
        f = IntPolynomial((0, 0, 1))
        assert f.eval(-4) == 10
        assert f.eval(-1) == 1

    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=5), st.integers(-40, 40))
    def test_always_integer_valued(self, binom, n):
        if binom[-1] <= 0:
            binom[-1] = abs(binom[-1]) + 1
        f = IntPolynomial(tuple(binom))
        v = f.eval(n)
        # cross-check against exact rational binomial expansion
        expect = 0
        for j, c in enumerate(binom):
            num = math.prod(n - t for t in range(j))
            q, r = divmod(num, math.factorial(j))
            assert r == 0
            expect += c * q
        assert v == expect


class TestCompanion:
    def test_hand_case(self):
        # 2! * (x^2 + 1) = 2x^2 + 2
        f = IntPolynomial.from_monomial([1, 0, 1])
        assert f.companion() == (2, 0, 2)

    def test_half_integer_polynomial(self):
        # C(x,2) + 1 doubles to x^2 - x + 2
        f = IntPolynomial((1, 0, 1))
        assert f.companion() == (2, -1, 1)

    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=6), st.integers(-30, 30))
    def test_companion_is_scaled_f(self, binom, n):
        if binom[-1] <= 0:
            binom[-1] = abs(binom[-1]) + 1
        f = IntPolynomial(tuple(binom))
        comp = f.companion()
        fact = math.factorial(f.degree)
        assert sum(c * n**i for i, c in enumerate(comp)) == fact * f.eval(n)

    def test_leading_coefficient_carries_over(self):
        # B! * c_B * x^B / B! leaves the binomial leading coefficient intact
        f = IntPolynomial((0, 0, 0, 5))
        assert f.companion() == (0, 10, -15, 5)


class TestSerialization:
    def test_json_round_trip(self):
        f = IntPolynomial((2, 1, 6, 6))
        assert IntPolynomial.from_json(f.to_json()) == f
        assert f.to_json()["basis"] == "binomial"

    def test_str_form(self):
        assert str(IntPolynomial((0, 1))) == "binom:[0,1]"

    @pytest.mark.parametrize(
        "text,binom",
        [
            ("poly:[1,0,1]", (1, 1, 2)),
            ("binom:[1,1,2]", (1, 1, 2)),
            ("[1,1,2]", (1, 1, 2)),
            ("poly:[0,1]", (0, 1)),
        ],
    )
    def test_parse_literal(self, text, binom):
        assert parse_poly_literal(text).coeffs == binom

    @pytest.mark.parametrize("text", ["", "poly:", "poly:[1", "spam:[1,2]", "poly:[a,b]"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_poly_literal(text)

    @pytest.mark.parametrize("prefix", ["", "poly:", "binom:"])
    def test_parse_rejects_nesting_past_the_recursion_limit(self, prefix):
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_poly_literal(prefix + "[" * 5000 + "]" * 5000)


class TestIrreducibility:
    @pytest.mark.parametrize(
        "mono",
        [[0, 1], [1, 0, 1], [2, 0, 0, 1], [1, -1, 0, 0, 1], [2, 0, 2]],
    )
    def test_proved_cases(self, mono):
        assert irreducibility_check(IntPolynomial.from_monomial(mono)) == "proved"

    def test_binomial_basis_quadratic(self):
        assert irreducibility_check(IntPolynomial((1, 0, 1))) == "proved"

    def test_heuristic_pass(self):
        # x^4 + 1: irreducible over Z yet reducible mod every prime, so the
        # mod-p route can never prove it; the numeric screen finds no factor
        f = IntPolynomial.from_monomial([1, 0, 0, 0, 1])
        assert irreducibility_check(f) == "heuristic-pass"

    def test_fail_on_reducible(self):
        assert irreducibility_check(IntPolynomial.from_monomial([-1, 0, 1])) == "fail"
        assert irreducibility_check(IntPolynomial.from_monomial([0, 0, 1])) == "fail"

    def test_assertion_flag_only_upgrades_inconclusive(self):
        # a factorable polynomial stays failed even when asserted
        f = IntPolynomial.from_monomial([-1, 0, 1])
        assert irreducibility_check(f, assert_irreducible=True) == "fail"

    def test_primes_with_a_root_skip_the_irreducibility_test(self, monkeypatch):
        # x^3 + 2 has a root mod 2, 3 and 5, so only 7 reaches the test;
        # the verdicts are those of testing every prime
        calls, test = [], poly_mod.gf_is_irreducible

        def counting(f, p):
            calls.append(p)
            return test(f, p)

        monkeypatch.setattr(poly_mod, "gf_is_irreducible", counting)
        assert irreducibility_check(IntPolynomial.from_monomial([2, 0, 0, 1])) == "proved"
        assert calls == [7]
        cases = [
            ([0, 1], False, "proved"),
            ([1, 0, 1], False, "proved"),
            ([2, 0, 0, 1], False, "proved"),
            ([1, 0, 0, 0, 1], False, "heuristic-pass"),
            ([1, 0, 0, 0, 1], True, "asserted-by-user"),
            # (x - 1)(x^2 + x + 2), reducible with a rational root
            ([-2, 1, 0, 1], False, "fail"),
        ]
        for mono, vouched, verdict in cases:
            f = IntPolynomial.from_monomial(mono)
            assert irreducibility_check(f, assert_irreducible=vouched) == verdict, mono

    @given(st.integers(-20, 20), st.integers(1, 20))
    @settings(max_examples=40)
    def test_linear_always_proved(self, c0, c1):
        assert irreducibility_check(IntPolynomial.from_monomial([c0, c1])) == "proved"
