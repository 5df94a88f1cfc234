"""Sieving of survivor sets, and the one strike kernel that construction
and verification both cover with.

Given residues r_q and root sets I_q, position n is killed by prime q when
(n - r_q) mod q lands in I_q; survivors are the positions no prime in the
active range kills. Intervals are inclusive on both ends and may be
negative. Each (prime, root) pair is one row of smallest_hit, whose array
over the whole interval is allocated at once, so memory grows with the
interval length. The survivors are its zeros, and a SurvivorSet holds
them in the one form every reader takes: their ascending positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .modroots import RootTable

# A row (q, first) of smallest_hit with q * SPARSE_HITS > n hits [0, n)
# at most SPARSE_HITS times, and all such rows are struck together by one
# gather of exactly their hits; a row of smaller q takes a strided slice,
# about 1 us each. Timed from 16 to 256 on the whole windows of x, x^2 + 1
# and x^3 + 2 at x = 300, 1000, 3000 and 10^4, and of x and x^2 + 1 at 10^5
# (2-vCPU x86 host, numpy 2.4), 64 was the fastest or within 4 % of it in
# every case
SPARSE_HITS = 64
# what smallest_hit's uint32 array holds where no row hits: above every
# row prime, so np.minimum.at never keeps it over a hit
NO_HIT = 2**32 - 1


def smallest_hit(q: np.ndarray, first: np.ndarray, length: int) -> np.ndarray:
    """For each offset k in [0, length), the smallest q[i] whose row hits
    k, as an int32 array, 0 where no row does.

    q and first are int64 arrays, one entry per row: q a prime below 2^31,
    in ascending order, and first in [0, q), so that the row hits every
    k = first + j q. One uint32 array over [0, length) holds the smallest
    hit found so far (NO_HIT for none). Rows with q * SPARSE_HITS greater
    than the length are struck by one gather and np.minimum.at; the
    others, whose primes are all smaller, then write their slices in
    descending q, so each offset ends up with its smallest hit.
    """
    w = np.full(length, NO_HIT, dtype=np.uint32)
    # rows [0, dense) have q * SPARSE_HITS <= length
    dense = int(np.searchsorted(q, length // SPARSE_HITS, side="right"))
    if dense < len(q):
        # a sparse row hits the window at first + j q for
        # j < ceil((length - first) / q), none for first >= length
        count = -((first[dense:] - length) // q[dense:])
        hit_q = np.repeat(q[dense:], count)
        # hit i of the flat list, in a row whose hits start at its index b,
        # is first + q (i - b); q < 2^31 times i keeps int64 exact
        start = np.cumsum(count) - count
        hits = np.repeat(first[dense:] - q[dense:] * start, count) + hit_q * np.arange(len(hit_q))
        np.minimum.at(w, hits, hit_q.astype(np.uint32))
    for qi, k in zip(q[:dense][::-1].tolist(), first[:dense][::-1].tolist()):
        w[k::qi] = qi
    w[w == NO_HIT] = 0
    # every row prime is below 2^31, so the int32 view reads the same values
    return w.view(np.int32)


@dataclass
class SurvivorSet:
    """The survivors of the inclusive interval [lo, hi]: offsets holds
    their absolute positions, an ascending int64 array."""

    lo: int
    hi: int
    offsets: np.ndarray

    def count(self) -> int:
        return len(self.offsets)


def sieve_survivors(
    table: RootTable,
    residues: Mapping[int, int],
    interval: tuple[int, int],
    prime_range: tuple[int, int],
) -> SurvivorSet:
    """Sieve [lo, hi] by all usable primes q with prime_range[0] < q <= prime_range[1]."""
    lo, hi = interval
    if hi < lo:
        raise ValueError("empty interval")
    if max(abs(lo), abs(hi)) >= 1 << 62:
        raise OverflowError("interval endpoints exceed the supported range")
    primes, counts, roots = table.rows(*prime_range)
    # (r_q - lo) mod q for each usable prime, reduced as a Python int, since
    # a residue can be any size; a usable prime with no residue raises KeyError
    shift = [(residues[p] - lo) % p for p in primes.tolist()]
    # one row per (prime, root): offset k is hit when k = r_q + a - lo mod q
    q = np.repeat(primes, counts)
    first = (np.repeat(np.array(shift, dtype=np.int64), counts) + roots) % q
    return SurvivorSet(lo, hi, np.flatnonzero(smallest_hit(q, first, hi - lo + 1) == 0) + lo)


def translate_check(
    table: RootTable,
    residues: Mapping[int, int],
    interval: tuple[int, int],
    prime_range: tuple[int, int],
    shift: int,
) -> bool:
    """Survivors commute with translation: sieving residues r_q over [lo, hi]
    and sieving r_q + t over [lo + t, hi + t] must give the same survivors,
    each moved by t."""
    base = sieve_survivors(table, residues, interval, prime_range)
    shifted_res = {q: (r + shift) % q for q, r in residues.items()}
    lo, hi = interval
    moved = sieve_survivors(table, shifted_res, (lo + shift, hi + shift), prime_range)
    return bool(np.array_equal(base.offsets + shift, moved.offsets))
