"""Congruence sieve against a direct per-element filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composite_forge.sievecore import (
    MissingResidueError,
    SurvivorSet,
    sieve_survivors,
    translate_check,
)


def brute_survivors(table, residues, interval, prime_range, skip=frozenset()):
    lo, hi = interval
    plo, phi = prime_range
    out = []
    for t in range(lo, hi + 1):
        alive = True
        for q in table.usable_between(plo, phi):
            if q in skip:
                continue
            if (t - residues[q]) % q in set(table.roots[q]):
                alive = False
                break
        if alive:
            out.append(t)
    return out


def fixed_residues(table, prime_range, salt=0):
    return {q: (salt * q // 3 + 1) % q for q in table.usable_between(*prime_range)}


class TestSurvivorSet:
    def test_basic_ops(self):
        s = SurvivorSet(5, 9, np.ones(5, dtype=bool), 0, 10)
        assert s.count() == 5
        assert s.contains(5) and s.contains(9)
        assert not s.contains(4) and not s.contains(10)
        s.kill([6, 8])
        assert list(s.survivors()) == [5, 7, 9]
        c = s.copy()
        c.kill([5])
        assert s.contains(5) and not c.contains(5)

    def test_negative_interval(self):
        s = SurvivorSet(-4, -1, np.ones(4, dtype=bool), 0, 10)
        s.kill([-2])
        assert list(s.survivors()) == [-4, -3, -1]


class TestSieveSurvivors:
    def test_matches_brute_force(self, table_x2p1_100):
        residues = fixed_residues(table_x2p1_100, (0, 50))
        got = sieve_survivors(table_x2p1_100, residues, (1, 200), (0, 50))
        assert list(got.survivors()) == brute_survivors(
            table_x2p1_100, residues, (1, 200), (0, 50)
        )

    def test_negative_window(self, table_x2p1_100):
        residues = fixed_residues(table_x2p1_100, (0, 50), salt=2)
        got = sieve_survivors(table_x2p1_100, residues, (-200, -1), (0, 50))
        assert list(got.survivors()) == brute_survivors(
            table_x2p1_100, residues, (-200, -1), (0, 50)
        )

    def test_missing_residue_raises(self, table_x2p1_100):
        with pytest.raises(MissingResidueError):
            sieve_survivors(table_x2p1_100, {5: 1}, (1, 50), (0, 50))

    def test_skip_leaves_prime_out(self, table_x2p1_100):
        residues = fixed_residues(table_x2p1_100, (0, 50))
        partial = dict(residues)
        del partial[13]
        skipped = sieve_survivors(table_x2p1_100, partial, (1, 200), (0, 50), skip={13})
        assert list(skipped.survivors()) == brute_survivors(
            table_x2p1_100, residues, (1, 200), (0, 50), skip={13}
        )

    def test_extra_residues_above_range_ignored(self, table_x2p1_100):
        residues = fixed_residues(table_x2p1_100, (0, 100))
        a = sieve_survivors(table_x2p1_100, residues, (1, 100), (0, 50))
        b = sieve_survivors(
            table_x2p1_100, fixed_residues(table_x2p1_100, (0, 50)), (1, 100), (0, 50)
        )
        assert np.array_equal(a.bits, b.bits)

    def test_unusable_primes_never_consulted(self, table_x2p1_100):
        # 7 has no roots for x^2 + 1; a residue for it must be irrelevant
        residues = fixed_residues(table_x2p1_100, (0, 50))
        base = sieve_survivors(table_x2p1_100, residues, (1, 100), (0, 50))
        residues[7] = 3
        again = sieve_survivors(table_x2p1_100, residues, (1, 100), (0, 50))
        assert np.array_equal(base.bits, again.bits)

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
        assert list(got.survivors()) == brute_survivors(
            table_x2p1_100, residues, interval, (0, 41)
        )


class TestTranslateCheck:
    def test_holds_for_any_shift(self, table_x2p1_100):
        residues = fixed_residues(table_x2p1_100, (0, 50))
        for shift in (-1000, -1, 0, 7, 12345):
            assert translate_check(table_x2p1_100, residues, (1, 100), (0, 50), shift)

    @given(shift=st.integers(-10**9, 10**9), salt=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_random_shifts(self, shift, salt, table_x2p1_100):
        residues = {
            q: (salt + q // 2) % q for q in table_x2p1_100.usable_between(0, 50)
        }
        assert translate_check(table_x2p1_100, residues, (-30, 80), (0, 50), shift)
