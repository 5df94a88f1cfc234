"""Root sets of the companion polynomial modulo primes.

For each prime p the table holds I_p, the sorted residues where B! * f
vanishes mod p, with I_p = () whenever p <= B or p divides the leading
coefficient (those primes are never used by the sieve). It holds them as
the two arrays of its cache file, the root counts and the roots in prime
order, and no other module reads them: every stage takes its rows, primes
with their counts and roots, by prime range (`RootTable.rows`, three
slices), and the verifier takes those of its listed moduli by one lookup
(`RootTable.lookup`). The primes not excluded go in one batch per table,
down one of two routes.

A small table of degree 3 or more, its primes summing to at most SCAN_SPAN,
takes the exhaustive scan (`_roots_scan`) when the companion's values below
its largest prime fit int64: the primitive part of the companion is
evaluated once at every residue, and each block of consecutive primes reads
that one row of values and marks where p divides a value by one wrapping
multiply and one compare (`_divisor_test`). Below that size the algebraic
route's cost is mostly its count of numpy calls, which the scan does not
pay.

Every other batch takes the algebraic route, on monic rows: the
companion is divided by its content, and only a leading
coefficient other than 1 is inverted, by one batched power. Degree 1 reads
its root off, and degree 2 takes (-c_1 +- s)(p + 1)/2 with the square root
s of the discriminant from the row kernel `primes.sqrt_mod_rows`, for a
block of ROW_BLOCK primes in one Tonelli-Shanks pass. Beyond that no step
loops over the primes: every step is a row kernel of `gfpoly`, with one
numpy row per prime. One kernel run (`gf_powmod_half_rows`) takes the Euler
power w = (X + a1)^((p-1)/2) mod (f, p) for the first shift a1 and, one
ladder step on, (X + a1)^p = X^p + a1, so X^p mod (f, p) as well.
`gf_gcd_rows` takes g = gcd(X^p - X, f), the product of the distinct linear
factors, and deterministic equal-degree splitting (Cantor-Zassenhaus with a
fixed sequence of shifts a, a1 the first) cuts the factors of degree 3 or
more in rounds. A round tries several shifts on every pending factor, one
row gcd and one exact division (`gf_div_rows`); the powers come from one
(X + a)^((p-1)/2) kernel run, except that of a1, which w already is, so a
first round that tries one shift per factor runs no kernel. Linear factors
give their roots directly; the quadratic ones are solved together by the
quadratic route at the end.
`roots_mod_p` runs the algebraic route on a one-prime batch, whatever the
prime; the test suite cross-checks it against an exhaustive scan of every
residue, and the two routes against each other on the same primes.

A quadratic first drops the primes where the discriminant D of its
primitive part is a non-residue: when D != 0 and |D| is at most
CHARACTER_SPAN times the row count, each row reads (D | p) off one int8
table of period |D| (`primes.jacobi_table`, built by reciprocity), and the
rows with (D | p) = -1, about half of them, have no root and never reach a
square root or an inverse.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import math
import os
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gfpoly import (
    ROW_PRIME_BOUND,
    gf_degree_rows,
    gf_div_rows,
    gf_gcd_rows,
    gf_powmod_half_rows,
    gf_shift_rows,
    pow_mod_rows,
)
from .gfpoly import gf_powmod  # noqa: F401  (bench/harness.py traces modroots.gf_powmod)
from .poly import IntPolynomial
from .primes import ProductTree, jacobi_table, mod_rows, sieve_primes, sqrt_mod_rows

_CACHE_MAGIC = b"CFROOTS2"

# primes per block of the quadratic solver: its numpy temporaries stay
# this long whatever the table size
ROW_BLOCK = 4096

# a quadratic batch reads (disc | p) off a character table of period |disc|
# (`primes.jacobi_table`) when |disc| is at most CHARACTER_SPAN times its
# row count. Timed for x^2 + k against every row through the square root
# (2-vCPU x86 host, numpy 2.4), at |disc| = 4n the table saved 14 % of the
# batch at n = 1229 rows and 29 % at 9592; it still paid at 8n and cost
# 2-5 % at 16n
CHARACTER_SPAN = 4

# a batch of degree 3 or more whose primes sum to at most SCAN_SPAN takes the
# residue scan, when the values it scans fit int64. Timed against the
# algebraic route on the same rows (2-vCPU x86 host, numpy 2.4, interleaved,
# medians of 41; `python tests/test_modroots.py crossover`), the scan took
# 0.16-0.29 of its time at x = 1500 for x^3 + 2, x^3 - 3x + 1 and
# x^4 + x + 1, 0.47-0.56 at 3000, 0.58-0.76 at 4000 and 0.88-1.15 at 6000
# (the README has the table); x^3 + 2 breaks even near x = 5500. 2^20 is
# about x = 4050
SCAN_SPAN = 2**20
# cells per block of the scan, primes times the largest of them: its
# temporaries stay this long. Timed the same way for those three tables,
# 2^16 took 0.97-1.02 of the time of 2^15 at x = 1000 and 0.92-0.96 at 3000
# and 4000; 2^17 took 1.10-1.18 at 1000, 2^14 took 1.05-1.20 everywhere,
# and 2^18 tied at 300 and took 1.04-1.25 from 1000 on
SCAN_BLOCK = 2**16

# kernel work of a splitting round with few pending factors, in rows times
# d^2 (the products per coefficient step of a degree-d row): such a round
# tries SPLIT_WORK / d^2 shifts in all, spread evenly over its factors
SPLIT_WORK = 1152
# shift number j of a splitting round is a = j * SHIFT_STEP mod p. The step
# is a prime above every row prime, so any p consecutive j give every
# residue once, and consecutive j land far apart: small consecutive shifts
# tend to fail together (a = 1, 2, 3 all leave x^3 + 2 whole mod 127)
SHIFT_STEP = 3474701543

# rows of a root table (RootTable.rows): usable primes, ascending, their
# root counts, and their roots in prime order, ascending within each prime
Rows = tuple[np.ndarray, np.ndarray, np.ndarray]


def _quad_roots(c0: np.ndarray, c1: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The root count of x^2 + c1 x + c0 mod every row prime, and the
    roots, ascending within a row and a double root once, in row order;
    coefficients in [0, p), p odd. The roots are (-c1 +- s) (p + 1)/2 for
    a square root s of the discriminant. The rows go ROW_BLOCK at a time,
    so no temporary outgrows a block."""
    counts, flat = [], []
    for i in range(0, max(len(p), 1), ROW_BLOCK):
        b0, b1, q = (v[i : i + ROW_BLOCK] for v in (c0, c1, p))
        s = sqrt_mod_rows((b1 * b1 - 4 * b0) % q, q)
        half = (q + 1) >> 1
        r1 = (s - b1) % q * half % q
        r2 = (-s - b1) % q * half % q
        pair = np.stack((np.minimum(r1, r2), np.maximum(r1, r2)), axis=1)
        # s is -1 where there is no root, and 0 for a double root
        has = np.stack((s >= 0, s > 0), axis=1)
        counts.append(has.sum(axis=1))
        flat.append(pair[has])
    return np.concatenate(counts), np.concatenate(flat)


def _monic_rows(prim: list[int], ps: np.ndarray) -> list[np.ndarray]:
    """The coefficients of a primitive polynomial made monic mod every row
    prime, in ascending order; a monic one such as x, x^2 + 1 or x^3 + 2
    takes no inverse at all, the others one batched power."""
    cs = [mod_rows(c, ps) for c in prim]
    if prim[-1] != 1:
        inv = pow_mod_rows(cs[-1], ps - 2, ps)
        cs = [c * inv % ps for c in cs]
    return cs


def _roots_algebraic(comp: tuple[int, ...], ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The root count of the companion mod each prime p in `ps`, and
    every root in prime order, ascending within its prime; every p exceeds
    the degree and does not divide the leading coefficient, so the
    reduction keeps the full degree."""
    d = len(comp) - 1
    n = len(ps)
    # the companion's primitive part: a prime of the content divides the
    # leading coefficient, so it is no row
    content = math.gcd(*comp)
    prim = [c // content for c in comp]
    if d == 2:
        # a row where the discriminant is a non-residue has no root, and
        # skips the square root; the others keep their row order
        disc = prim[1] ** 2 - 4 * prim[0] * prim[2]
        if disc and abs(disc) <= CHARACTER_SPAN * n:
            chi = jacobi_table(disc)
            rows = np.flatnonzero(chi[ps % len(chi)] >= 0)
            q = ps[rows]
            counts = np.zeros(n, dtype=np.int64)
            counts[rows], flat = _quad_roots(*_monic_rows(prim, q)[:2], q)
            return counts, flat
        return _quad_roots(*_monic_rows(prim, ps)[:2], ps)
    cs = _monic_rows(prim, ps)
    if d == 1:
        return np.ones(n, dtype=np.int64), -cs[0] % ps
    monic = np.stack(cs, axis=1)
    # Frobenius step, for every prime in one kernel run: the Euler power
    # euler = (X + a1)^((p-1)/2) mod (f, p), with a1 the first shift of the
    # splitting rounds, and one step on (X + a1)^p = X^p + a1, which gives
    # X^p - X. No a1 = 0: the roots of a binomial such as x^3 + 2 differ by
    # cube roots of unity, squares mod p, so X^((p-1)/2) never splits them
    a1 = SHIFT_STEP % ps
    euler, xp = np.zeros_like(monic), np.zeros_like(monic)
    euler[:, :d], xp[:, :d] = gf_powmod_half_rows(a1, ps, monic, ps)
    xp[:, 0] = (xp[:, 0] - a1) % ps
    xp[:, 1] = (xp[:, 1] - 1) % ps
    # the factors still to read or split: their rows, the monic factors h,
    # and the next shift each is to try
    rows, hs, shift = np.arange(n), gf_gcd_rows(xp, monic, ps), np.ones(n, dtype=np.int64)
    found: list[tuple[np.ndarray, np.ndarray]] = []  # (rows, roots)
    quads: list[tuple[np.ndarray, np.ndarray]] = []  # (rows, quadratic factors)
    while True:
        k = gf_degree_rows(hs)
        linear, quad, big = k == 1, k == 2, k >= 3
        at = rows[linear]
        found.append((at, -hs[linear, 0] % ps[at]))
        quads.append((rows[quad], hs[quad]))
        rows, hs, shift, k = rows[big], hs[big], shift[big], k[big]
        if not len(rows):
            break
        # one splitting round: each pending h tries m shifts a, one
        # candidate row each, taking gcd((X + a)^((p-1)/2) - 1, h).
        # Two distinct roots r, s are separated once (r + a)/(s + a) is a
        # non-residue, which some a among any p consecutive shifts achieves,
        # since those cover every residue, so every h splits. Shift 1 is a1,
        # whose power mod f the Frobenius step left in euler: the gcd
        # reduces it mod h, a factor of f. The others are taken mod X^(d - k) h, a monic
        # modulus of the full degree d that h divides, so every pending
        # factor shares one kernel run.
        m = max(1, SPLIT_WORK // (d * d * len(rows)))
        c = np.repeat(np.arange(len(rows)), m)
        pc = ps[rows[c]]
        num = shift[c] + np.tile(np.arange(m), len(rows))  # shift numbers
        a = num % pc * (SHIFT_STEP % pc) % pc
        w = euler[rows[c]]
        run = np.flatnonzero(num != 1)
        if len(run):
            moduli = gf_shift_rows(hs[c[run]], d - k[c[run]])
            w[run, :d] = gf_powmod_half_rows(a[run], (pc[run] - 1) // 2, moduli, pc[run])[1]
        w[:, 0] = (w[:, 0] - 1) % pc
        f1 = gf_gcd_rows(w, hs[c], pc)
        k1 = gf_degree_rows(f1)
        # each h is cut at its most even split, the first shift among equals;
        # both parts go on from the first shift not yet tried
        ok = np.nonzero((k1 > 0) & (k1 < k[c]))[0]
        ok = ok[np.lexsort((ok, np.abs(2 * k1[ok] - k[c[ok]]), c[ok]))]
        cut, first = np.unique(c[ok], return_index=True)
        j = ok[first]
        keep = np.ones(len(rows), dtype=bool)
        keep[cut] = False
        f2 = gf_div_rows(hs[cut], f1[j], ps[rows[cut]])
        rows = np.concatenate((rows[keep], rows[cut], rows[cut]))
        hs = np.concatenate((hs[keep], f1[j], f2))
        shift = np.concatenate((shift[keep], shift[cut], shift[cut])) + m
    # the quadratic factors of every row, solved together; each has two
    # distinct roots, since g is squarefree and splits into linear factors
    qrows, qhs = (np.concatenate(v) for v in zip(*quads))
    k, roots = _quad_roots(qhs[:, 0], qhs[:, 1], ps[qrows])
    found.append((np.repeat(qrows, k), roots))
    rows, roots = (np.concatenate(v) for v in zip(*found))
    # every root in row order, ascending within its row: one sort of the
    # keys row * 2^32 + root, since roots and rows stay below 2^31
    return np.bincount(rows, minlength=n), np.sort(rows << 32 | roots) & 0xFFFFFFFF


def _scans(comp: tuple[int, ...], ps: np.ndarray) -> bool:
    """Whether a batch takes the residue scan: a degree of 3 or more, row
    primes summing to at most SCAN_SPAN, and sum |c_i| P^i below 2^63 for
    the primitive part c of the companion and the largest row prime P, which
    bounds every Horner step of the scan's int64 values, and so keeps every
    |value| below 2^63, within the scan's 64-bit words."""
    if len(comp) < 4 or not len(ps) or int(ps.sum()) > SCAN_SPAN:
        return False
    content, top = math.gcd(*comp), int(ps.max())
    return sum(abs(c // content) * top**i for i, c in enumerate(comp)) < 2**63


def _divisor_test(q: np.ndarray, width: type) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of each odd q mod 2^k and the threshold floor((2^k - 1)/q),
    as k-bit words of the unsigned integer type `width`: a v in [0, 2^k) is a
    multiple of q exactly when v * inverse mod 2^k <= threshold, since
    multiplying by the inverse permutes the k-bit words and sends j * q to j
    (Granlund and Montgomery, "Division by invariant integers using
    multiplication", 1994, section 9). Newton's step x -> x (2 - q x) doubles
    the low bits that are right, from x = q, right to three bits since
    q^2 = 1 mod 8."""
    q = q.astype(width)
    inverse, bits = q.copy(), 3
    while bits < np.iinfo(width).bits:
        inverse *= 2 - q * inverse
        bits *= 2
    return inverse, width(np.iinfo(width).max) // q


def _roots_scan(comp: tuple[int, ...], ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What `_roots_algebraic` returns, by an exhaustive scan of the
    residues: |v(t)|, for the primitive part v of the companion, is taken
    once, exactly in int64, at every t below the largest row prime, and held
    in k-bit words, k = 32 when every value is below 2^32 and 64 otherwise.
    The primes go in blocks of consecutive primes, each at most SCAN_BLOCK
    cells of primes times its largest prime w (a longer prime alone). A
    block reads the one row |v(t)|, t < w, marks p | v(t) by one multiply
    and compare (`_divisor_test`; every row prime is odd, since 2 <= deg f
    is never a row), and takes its hits off one flatnonzero, in prime order
    and ascending within a prime; a hit at t >= p pads the row and is
    dropped. `_scans` tells when the values fit int64."""
    content = math.gcd(*comp)
    t = np.arange(int(ps.max(initial=0)), dtype=np.int64)
    values = np.zeros_like(t)
    for c in reversed(comp):
        values = values * t + c // content
    row = np.abs(values).astype(np.uint64)
    if row.max(initial=0) < 2**32:
        row = row.astype(np.uint32)
    inverse, threshold = _divisor_test(ps, row.dtype.type)
    counts, flat = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    i, n = 0, len(ps)
    while i < n:
        # the most primes from i on whose count times the largest of them
        # stays within SCAN_BLOCK, and at least one
        j = i + max(1, int(np.searchsorted(np.arange(1, n - i + 1) * ps[i:], SCAN_BLOCK, side="right")))
        w = int(ps[j - 1])
        hit = np.flatnonzero(row[:w] * inverse[i:j, None] <= threshold[i:j, None])
        k, at = np.divmod(hit, w)
        keep = at < ps[i:j][k]
        counts.append(np.bincount(k[keep], minlength=j - i))
        flat.append(at[keep])
        i = j
    return np.concatenate(counts), np.concatenate(flat)


def roots_mod_p(f: IntPolynomial, p: int) -> tuple[int, ...]:
    """Sorted residues r with (B! * f)(r) = 0 mod p.

    Empty for p <= degree or p dividing the leading coefficient: those
    primes carry no usable congruence information for the sieve. It is
    the per-prime hook of the table builder's algebraic route, run on a
    one-prime batch, never the scan, so p must stay below ROW_PRIME_BOUND
    (2^31) like every prime of a table.
    """
    if p >= ROW_PRIME_BOUND:
        raise ValueError(f"roots_mod_p needs p below {ROW_PRIME_BOUND}")
    if p <= f.degree or f.leading % p == 0:
        return ()
    return tuple(_roots_algebraic(f.companion(), np.array([p]))[1].tolist())


@dataclass
class RootTable:
    """Root sets I_p for every prime p <= limit: `counts[i]` roots mod
    primes[i], and `flat`, every root in prime order, ascending within its
    prime. Only this module reads the two arrays: the other stages take
    rows, usable primes with their root counts and roots, from `rows` by
    prime range, and the verifier from `lookup` by its list of moduli."""

    poly: IntPolynomial
    limit: int
    primes: np.ndarray
    counts: np.ndarray
    flat: np.ndarray

    def _span(self, lo: int | float, hi: int | float) -> slice:
        """The index range of the primes q with lo < q <= hi."""
        i, j = np.searchsorted(self.primes, (math.floor(lo), math.floor(hi)), side="right")
        return slice(i, j)

    @functools.cached_property
    def _usable(self) -> Rows:
        """The usable primes (a nonempty root set), ascending, their root
        counts, and where the roots of each begin in flat, with one more
        entry, len(flat); built on first use."""
        keep = self.counts > 0
        counts = self.counts[keep]
        return self.primes[keep], counts, np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))

    def rows(self, lo: int | float, hi: int | float) -> Rows:
        """The usable primes q with lo < q <= hi, ascending, their root
        counts, and their roots in prime order, ascending within each prime:
        three slices of the table's arrays, empty when hi <= lo."""
        q, k, starts = self._usable
        i, j = np.searchsorted(q, (math.floor(lo), math.floor(hi)), side="right")
        return q[i:j], k[i:j], self.flat[starts[i] : starts[max(i, j)]]

    def lookup(self, moduli: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The root count of each of moduli, ascending ints of any size (or
        an int64 array), and their roots, in that order and ascending within
        each; a modulus that is no usable prime of the table (a composite, a
        prime without roots, or one beyond the limit) has count 0. One
        searchsorted places the moduli in [2, limit], and one gather takes
        their roots. The verifier takes its listed moduli this way."""
        a, b = bisect.bisect_left(moduli, 2), bisect.bisect_right(moduli, self.limit)
        inner = np.asarray(moduli[a:b], dtype=np.int64)
        # every prime of the table is at most the limit, so a modulus placed
        # past the last one is no prime of it
        at = np.minimum(np.searchsorted(self.primes, inner), len(self.primes) - 1)
        count = np.zeros(len(moduli), dtype=np.int64)
        count[a:b] = np.where(self.primes[at] == inner, self.counts[at], 0)
        n = count[a:b]
        # the roots of the k-th modulus start at flat[start_k], and at
        # first_k in the list returned
        start = np.cumsum(self.counts, dtype=np.int64)[at] - n
        first = np.cumsum(n) - n
        return count, self.flat[np.repeat(start - first, n) + np.arange(int(n.sum()))]

    @functools.cached_property
    def usable_tree(self) -> ProductTree:
        """The product tree over the usable primes, built on first use: a
        construction's modulus, its N mod every usable prime and its CRT
        all go through it."""
        return ProductTree(self._usable[0].tolist())

    def density_product(self, hi: int | float) -> float:
        """prod over primes q <= hi of (1 - nu_q / q), multiplied in prime
        order: a running product keeps a loop's rounding."""
        span = self._span(0, hi)
        if span.stop == 0:
            return 1.0
        # nu_q / q, then 1 - nu_q / q, then the running product, in one buffer
        f = np.divide(self.counts[span], self.primes[span])
        np.subtract(1.0, f, out=f)
        return float(np.cumprod(f, out=f)[-1])


def _poly_digest(f: IntPolynomial) -> int:
    h = hashlib.sha256(str(f).encode()).digest()
    return struct.unpack("<Q", h[:8])[0]


def _cache_path(cache_dir: str, f: IntPolynomial, limit: int) -> str:
    return os.path.join(cache_dir, f"roots_{_poly_digest(f):016x}_{limit}.bin")


def _write_cache(path: str, f: IntPolynomial, limit: int, counts: np.ndarray, flat: np.ndarray) -> None:
    """Write the header, one u1 root count per prime (at most the degree,
    which poly.MAX_DEGREE keeps below 256), then every root as u4, both in
    prime order."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack("<QQ", _poly_digest(f), limit))
        fh.write(counts.astype("u1").tobytes())
        fh.write(flat.astype("<u4").tobytes())
    os.replace(tmp, path)


def _read_cache(path: str, f: IntPolynomial, limit: int, primes: np.ndarray) -> tuple | None:
    """The root counts and flat roots of a cache file written for f, limit
    and so for primes, or None when there is none, it does not parse, or a
    root is out of range or out of order. A wrong root that is in range
    and in order is not caught."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    n = len(primes)
    if len(data) < 24 + n or (len(data) - 24 - n) % 4 or data[:8] != _CACHE_MAGIC:
        return None
    if struct.unpack_from("<QQ", data, 8) != (_poly_digest(f), limit):
        return None
    counts = np.frombuffer(data, dtype="u1", count=n, offset=24)
    flat = np.frombuffer(data, dtype="<u4", offset=24 + n)
    if n and counts.max() > f.degree or counts.sum() != len(flat):
        return None
    # every root below its prime, and the roots of each prime strictly
    # ascending; 32-bit temporaries, since this runs on every cached read
    owner = np.repeat(primes.astype("<u4"), counts)
    if (flat >= owner).any() | ((flat[1:] <= flat[:-1]) & (owner[1:] == owner[:-1])).any():
        return None
    return counts, flat


def build_root_table(f: IntPolynomial, limit: int, cache_dir: str | None = None) -> RootTable:
    """Compute (or load from cache) all root sets for primes <= limit.

    A corrupt or mismatching cache file is ignored and rebuilt. A limit of
    ROW_PRIME_BOUND (2^31) or more raises ValueError before anything is
    sieved: the batched root kernel is exact only below it.
    """
    if limit >= ROW_PRIME_BOUND:
        raise ValueError(f"root table limit {limit} must stay below {ROW_PRIME_BOUND}")
    primes = sieve_primes(limit)
    path = _cache_path(cache_dir, f, limit) if cache_dir else None
    if path:
        cached = _read_cache(path, f, limit, primes)
        if cached is not None:
            return RootTable(f, limit, primes, *cached)
    # p <= degree and p dividing the leading coefficient keep I_p = ();
    # the others go in one batch, scanned or algebraic. A prime divides B!
    # exactly when it is at most B, so the two kinds are the primes dividing
    # B! * leading
    batch = mod_rows(math.factorial(f.degree) * f.leading, primes) != 0
    comp, rows = f.companion(), primes[batch]
    route = _roots_scan if _scans(comp, rows) else _roots_algebraic
    counts = np.zeros(len(primes), dtype=np.int64)
    counts[batch], flat = route(comp, rows)
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        _write_cache(path, f, limit, counts, flat)
    return RootTable(f, limit, primes, counts, flat)


@dataclass(frozen=True)
class DensityStats:
    """Summary statistics of root densities over primes up to x."""

    x: int
    n_primes: int
    n_usable: int
    mertens_sum: float  # sum of nu_q / q, compare against loglog x + const
    sigma: float  # prod (1 - nu_q / q); sigma * log x should stabilize
    rho_hat: float  # fraction of primes with nu >= 1
    rho_hat_norm: float  # usable-prime count normalized by x / log x
    rho_nu_hat: dict[int, float]  # fraction of primes with nu = k, k >= 1
    nu_weighted_sum: float  # sum over k of k * rho_nu_hat[k]; tends to 1

    def loglog_gap(self) -> float:
        return self.mertens_sum - math.log(math.log(self.x))


def density_stats(table: RootTable, limit: int | None = None) -> DensityStats:
    x = table.limit if limit is None else min(limit, table.limit)
    span = table._span(0, x)
    counts = table.counts[span]
    n_primes = len(counts)
    # a running sum keeps a loop's order, so the float is the one a walk
    # over the primes gives; it is taken in the buffer of the quotients
    mert = 0.0
    if n_primes:
        r = np.divide(counts, table.primes[span])
        mert = float(np.cumsum(r, out=r)[-1])
    freq = np.bincount(counts).tolist()
    n_usable = sum(freq[1:])
    rho_nu = {k: c / n_primes for k, c in enumerate(freq) if k and c}
    return DensityStats(
        x=x,
        n_primes=n_primes,
        n_usable=n_usable,
        mertens_sum=mert,
        sigma=table.density_product(x),
        rho_hat=n_usable / n_primes if n_primes else 0.0,
        rho_hat_norm=n_usable * math.log(x) / x if x > 1 else 0.0,
        rho_nu_hat=rho_nu,
        nu_weighted_sum=sum(k * v for k, v in rho_nu.items()),
    )


def residue_collision_count(table: RootTable, m: int, qmin: int, qmax: int) -> int:
    """Number of primes qmin < q <= qmax whose root set contains two roots
    differing by m mod q. Drives the heuristic independence check: the count
    should stay logarithmic in m."""
    q, k, roots = table.rows(qmin, qmax)
    start = np.cumsum(k, dtype=np.int64) - k
    shift = mod_rows(m, q)
    hit = np.zeros(len(q), dtype=bool)
    # root slots i and j of every prime with both; i = j is the
    # self-difference 0
    for i, j in itertools.product(range(int(k.max(initial=0))), repeat=2):
        at = np.flatnonzero(k > max(i, j))
        hit[at] |= roots[start[at] + i] == (roots[start[at] + j] + shift[at]) % q[at]
    return int(hit.sum())


def companion_eval_mod(comp: tuple[int, ...], n, p):
    """(B! * f)(n) mod p for a precomputed companion coefficient tuple:
    for ints n and p, or row-wise for int64 arrays with every n_i in
    [0, p_i) and p_i < ROW_PRIME_BOUND. The coefficients, of any size, are
    reduced first (`primes.mod_rows`), so each Horner step of a row stays
    below p^2 + p < 2^63."""
    acc = 0
    for c in reversed(comp):
        acc = (acc * n + mod_rows(c, p)) % p
    return acc
