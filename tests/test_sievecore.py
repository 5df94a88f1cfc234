"""Congruence sieve against a direct per-element filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composite_forge.sievecore import (
    SPARSE_HITS,
    sieve_survivors,
    translate_check,
)
from conftest import bitmap, from_bitmap, roots_of, usable_between


def brute_survivors(table, residues, interval, prime_range):
    lo, hi = interval
    plo, phi = prime_range
    out = []
    for t in range(lo, hi + 1):
        alive = True
        for q in usable_between(table, plo, phi):
            if (t - residues[q]) % q in set(roots_of(table, q)):
                alive = False
                break
        if alive:
            out.append(t)
    return out


def fixed_residues(table, prime_range, salt=0):
    return {q: (salt * q // 3 + 1) % q for q in usable_between(table, *prime_range)}


class TestSurvivorSet:
    def test_basic_ops(self):
        bits = np.ones(5, dtype=bool)
        assert from_bitmap(5, bits).count() == 5
        bits[[1, 3]] = False
        s = from_bitmap(5, bits)
        assert (s.lo, s.hi) == (5, 9)
        assert s.count() == 3 == len(s.offsets)
        assert list(s.offsets) == [5, 7, 9]
        assert s.offsets.dtype == np.int64
        assert np.array_equal(bitmap(s), bits)

    def test_negative_interval(self):
        s = from_bitmap(-4, np.array([True, True, False, True]))
        assert (s.lo, s.hi) == (-4, -1)
        assert list(s.offsets) == [-4, -3, -1]
        assert s.count() == 3

    def test_empty_set(self, table_x_100):
        # f = x: residue 1 of 2 kills offset 1 and residue 2 of 3 kills 2
        s = sieve_survivors(table_x_100, {2: 1, 3: 2}, (1, 2), (0, 3))
        assert (s.lo, s.hi) == (1, 2)
        assert s.count() == 0
        assert s.offsets.dtype == np.int64 and s.offsets.shape == (0,)
        assert not bitmap(s).any()


# a usable prime of x^2 + 1 with usable primes on both sides of it below
# 50: its rows are struck by the gather below length 64 * 13 and by a
# strided slice from there on (sievecore.SPARSE_HITS)
ROUTE_PRIME = 13
ROUTE_LENGTHS = [SPARSE_HITS * ROUTE_PRIME + d for d in (-1, 0, 1)]
# (interval, prime range, residue salt)
BRUTE_CASES = {
    "positive-200": ((1, 200), (0, 50), 0),
    "negative-200": ((-200, -1), (0, 50), 2),
    **{f"positive-{n}": ((1, n), (0, 50), 0) for n in ROUTE_LENGTHS},
    **{f"negative-{n}": ((-n, -1), (0, 50), 2) for n in ROUTE_LENGTHS},
    # 7 and 11 have no root mod x^2 + 1, so nothing is struck
    "no-usable-prime": ((-100, 100), (5, 12), 0),
}


class TestSieveSurvivors:
    @pytest.mark.parametrize("interval, prime_range, salt", BRUTE_CASES.values(), ids=BRUTE_CASES)
    def test_matches_brute_force(self, interval, prime_range, salt, table_x2p1_100):
        residues = fixed_residues(table_x2p1_100, prime_range, salt)
        got = sieve_survivors(table_x2p1_100, residues, interval, prime_range)
        want = brute_survivors(table_x2p1_100, residues, interval, prime_range)
        assert list(got.offsets) == want
        if not usable_between(table_x2p1_100, *prime_range):
            assert want == list(range(interval[0], interval[1] + 1))

    def test_missing_residue_raises(self, table_x2p1_100):
        # the verifier names a missing prime before it sieves; the sieve
        # itself refuses one by the lookup's KeyError
        with pytest.raises(KeyError):
            sieve_survivors(table_x2p1_100, {5: 1}, (1, 50), (0, 50))

    def test_extra_residues_above_range_ignored(self, table_x2p1_100):
        residues = fixed_residues(table_x2p1_100, (0, 100))
        a = sieve_survivors(table_x2p1_100, residues, (1, 100), (0, 50))
        b = sieve_survivors(
            table_x2p1_100, fixed_residues(table_x2p1_100, (0, 50)), (1, 100), (0, 50)
        )
        assert np.array_equal(a.offsets, b.offsets)

    def test_unusable_primes_never_consulted(self, table_x2p1_100):
        # 7 has no roots for x^2 + 1; a residue for it must be irrelevant
        residues = fixed_residues(table_x2p1_100, (0, 50))
        base = sieve_survivors(table_x2p1_100, residues, (1, 100), (0, 50))
        residues[7] = 3
        again = sieve_survivors(table_x2p1_100, residues, (1, 100), (0, 50))
        assert np.array_equal(base.offsets, again.offsets)

    @given(
        raw=st.dictionaries(
            st.sampled_from([5, 13, 17, 29, 37, 41]),
            st.integers(0, 10**6),
            min_size=6,
            max_size=6,
        ),
        lo=st.integers(-300, 300),
        width=st.integers(10, 120),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_instances(self, raw, lo, width, table_x2p1_100):
        residues = {q: r % q for q, r in raw.items()}
        interval = (lo, lo + width)
        got = sieve_survivors(table_x2p1_100, residues, interval, (0, 41))
        assert list(got.offsets) == brute_survivors(
            table_x2p1_100, residues, interval, (0, 41)
        )
        # the one survivor format: ascending int64 positions inside the interval
        assert (got.lo, got.hi) == interval
        assert got.offsets.dtype == np.int64
        assert np.all(np.diff(got.offsets) > 0)
        assert np.all((interval[0] <= got.offsets) & (got.offsets <= interval[1]))
        assert got.count() == len(got.offsets)


class TestTranslateCheck:
    def test_holds_for_any_shift(self, table_x2p1_100):
        residues = fixed_residues(table_x2p1_100, (0, 50))
        for shift in (-1000, -1, 0, 7, 12345):
            assert translate_check(table_x2p1_100, residues, (1, 100), (0, 50), shift)

    @given(shift=st.integers(-10**9, 10**9), salt=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_random_shifts(self, shift, salt, table_x2p1_100):
        residues = {
            q: (salt + q // 2) % q for q in usable_between(table_x2p1_100, 0, 50)
        }
        assert translate_check(table_x2p1_100, residues, (-30, 80), (0, 50), shift)
