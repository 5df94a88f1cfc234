"""Sieving of survivor sets.

Given residues r_q and root sets I_q, position n is killed by prime q when
(n - r_q) mod q lands in I_q; survivors are the positions no prime in the
active range kills. Intervals are inclusive on both ends and may be
negative. The whole bitmap is allocated at once and each root class is
struck out with one strided slice, so memory grows with the interval
length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .modroots import RootTable


class MissingResidueError(KeyError):
    """A usable prime in the active range has no assigned residue."""


@dataclass
class SurvivorSet:
    """Survivor bitmap over the inclusive interval [lo, hi]."""

    lo: int
    hi: int
    bits: np.ndarray
    prime_lo: int
    prime_hi: int

    def count(self) -> int:
        return int(self.bits.sum())

    def survivors(self) -> np.ndarray:
        """Absolute positions of survivors, ascending int64."""
        return np.nonzero(self.bits)[0].astype(np.int64) + self.lo

    def contains(self, n: int) -> bool:
        return self.lo <= n <= self.hi and bool(self.bits[n - self.lo])

    def kill(self, positions) -> None:
        idx = np.asarray(positions, dtype=np.int64) - self.lo
        self.bits[idx] = False

    def copy(self) -> "SurvivorSet":
        return SurvivorSet(self.lo, self.hi, self.bits.copy(), self.prime_lo, self.prime_hi)


def sieve_survivors(
    table: RootTable,
    residues: Mapping[int, int],
    interval: tuple[int, int],
    prime_range: tuple[int, int],
    skip: frozenset[int] | set[int] = frozenset(),
) -> SurvivorSet:
    """Sieve [lo, hi] by all usable primes q with prime_range[0] < q <= prime_range[1].

    Primes listed in `skip` are left out even when usable (used to score one
    prime's residue candidates against the survivors of everything else).
    """
    lo, hi = interval
    if hi < lo:
        raise ValueError("empty interval")
    if max(abs(lo), abs(hi)) >= 1 << 62:
        raise OverflowError("interval endpoints exceed the supported range")
    z1, z2 = prime_range
    active: list[tuple[int, tuple[int, ...]]] = []
    for q in table.usable_between(z1, z2):
        if q in skip:
            continue
        if q not in residues:
            raise MissingResidueError(q)
        r = residues[q]
        active.append((q, tuple((r + a) % q for a in table.roots[q])))
    bits = np.ones(hi - lo + 1, dtype=bool)
    for q, classes in active:
        for c in classes:
            bits[(c - lo) % q :: q] = False
    return SurvivorSet(lo, hi, bits, z1, z2)


def translate_check(
    table: RootTable,
    residues: Mapping[int, int],
    interval: tuple[int, int],
    prime_range: tuple[int, int],
    shift: int,
) -> bool:
    """Survivors commute with translation: sieving residues r_q over [lo, hi]
    and sieving r_q + t over [lo + t, hi + t] must give the same bitmap."""
    base = sieve_survivors(table, residues, interval, prime_range)
    shifted_res = {q: (r + shift) % q for q, r in residues.items()}
    lo, hi = interval
    moved = sieve_survivors(table, shifted_res, (lo + shift, hi + shift), prime_range)
    return bool(np.array_equal(base.bits, moved.bits))
