"""Root sets of the companion polynomial modulo primes.

For each prime p the table stores I_p, the sorted residues where B! * f
vanishes mod p, with I_p = () whenever p <= B or p divides the leading
coefficient (those primes are never used by the sieve). Every other prime
goes through one algebraic route, one batch per table: a linear solve for
degree 1, and for degree 2 the discriminant plus the row kernel
`primes.sqrt_and_inverse_rows`, which takes the square roots and the
inverses of 2 c_2 for a block of ROW_BLOCK primes in one Tonelli-Shanks
pass. Beyond that no step loops over the primes: every step is a row kernel
of `gfpoly`, with one numpy row per prime. The companion is made monic mod
every prime at once, `gf_powmod_rows` computes X^p mod (f, p),
`gf_gcd_rows` takes g = gcd(X^p - X, f), the product of the distinct
linear factors, and deterministic equal-degree splitting (Cantor-Zassenhaus
with a fixed sequence of shifts a) cuts the factors of degree 3 or more in
rounds.
A round tries several shifts on every pending factor in one
(X + a)^((p-1)/2) kernel run, one row gcd and one exact division
(`gf_div_rows`). Linear factors give their roots directly; the quadratic
ones are solved together by the quadratic route at the end.
`roots_mod_p` runs the same route on a one-prime batch; the test suite
cross-checks it against an exhaustive scan of every residue.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .gfpoly import (
    ROW_PRIME_BOUND,
    gf_degree_rows,
    gf_div_rows,
    gf_gcd_rows,
    gf_powmod_rows,
    gf_shift_rows,
    pow_mod_rows,
)
from .gfpoly import gf_powmod  # noqa: F401  (bench/harness.py traces modroots.gf_powmod)
from .poly import IntPolynomial
from .primes import mod_rows, sieve_primes, sqrt_and_inverse_rows

_CACHE_MAGIC = b"CFROOTS2"

# primes per block of the quadratic route and of density_stats: numpy
# temporaries and Python lists stay this long whatever the table size
ROW_BLOCK = 4096

# kernel work of a splitting round with few pending factors, in rows times
# d^2 (the products per coefficient step of a degree-d row): such a round
# tries SPLIT_WORK / d^2 shifts in all, spread evenly over its factors
SPLIT_WORK = 1152
# shift number j of a splitting round is a = j * SHIFT_STEP mod p. The step
# is a prime above every row prime, so any p consecutive j give every
# residue once, and consecutive j land far apart: small consecutive shifts
# tend to fail together (a = 1, 2, 3 all leave x^3 + 2 whole mod 127)
SHIFT_STEP = 3474701543


def _quad_rows(c0: np.ndarray, c1: np.ndarray, c2: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smaller and the larger root of c2 x^2 + c1 x + c0 mod every row
    prime, both -1 where there is none; coefficients in [0, p), p odd and
    not dividing c2. Callers pass ROW_BLOCK rows at most."""
    disc = (c1 * c1 - 4 * (c2 * c0 % p)) % p
    s, inv = sqrt_and_inverse_rows(disc, 2 * c2 % p, p)
    r1 = (s - c1) % p * inv % p
    r2 = (-s - c1) % p * inv % p
    none = s < 0
    return np.where(none, -1, np.minimum(r1, r2)), np.where(none, -1, np.maximum(r1, r2))


def _roots_algebraic(comp: tuple[int, ...], primes: list[int]) -> list[tuple[int, ...]]:
    """Sorted root sets of the companion mod each prime p in `primes`; every
    p exceeds the degree and does not divide the leading coefficient, so
    the reduction keeps the full degree."""
    d = len(comp) - 1
    if d == 1:
        return [((-comp[0] * pow(comp[1], -1, p)) % p,) for p in primes]
    if d == 2:
        out: list[tuple[int, ...]] = []
        for lo in range(0, len(primes), ROW_BLOCK):
            ps = np.array(primes[lo : lo + ROW_BLOCK], dtype=np.int64)
            small, big = _quad_rows(*(mod_rows(c, ps) for c in comp), ps)
            out += [
                () if x < 0 else (x,) if x == y else (x, y)
                for x, y in zip(small.tolist(), big.tolist())
            ]
        return out
    ps = np.array(primes, dtype=np.int64)
    n = len(ps)
    # the companion mod every prime, made monic by one batched inverse
    monic = np.stack([mod_rows(c, ps) for c in comp], axis=1)
    monic = monic * pow_mod_rows(monic[:, -1], ps - 2, ps)[:, None] % ps[:, None]
    # Frobenius step: X^p - X mod (f, p) for every prime in one kernel run
    xp = np.zeros_like(monic)
    xp[:, :d] = gf_powmod_rows(np.zeros_like(ps), ps, monic, ps)
    xp[:, 1] = (xp[:, 1] - 1) % ps
    # the factors still to read or split: their rows, the monic factors h,
    # and the next shift each is to try
    rows, hs, shift = np.arange(n), gf_gcd_rows(xp, monic, ps), np.ones(n, dtype=np.int64)
    found: list[tuple[np.ndarray, np.ndarray]] = []  # (rows, roots)
    quads: list[tuple[np.ndarray, np.ndarray]] = []  # (rows, quadratic factors)
    while True:
        k = gf_degree_rows(hs)
        found.append((rows[k == 1], -hs[k == 1, 0] % ps[rows[k == 1]]))
        quads.append((rows[k == 2], hs[k == 2]))
        big = k >= 3
        rows, hs, shift, k = rows[big], hs[big], shift[big], k[big]
        if not len(rows):
            break
        # one splitting round: each pending h tries m shifts a, one
        # candidate row each, taking gcd((X + a)^((p-1)/2) - 1, h).
        # Two distinct roots r, s are separated once (r + a)/(s + a) is a
        # non-residue, which some a among any p consecutive shifts achieves,
        # since those cover every residue, so every h splits. The power is taken mod X^(d - k) h, a monic
        # modulus of the full degree d that h divides, so every pending
        # factor shares one kernel run.
        m = max(1, SPLIT_WORK // (d * d * len(rows)))
        c = np.repeat(np.arange(len(rows)), m)
        pc = ps[rows[c]]
        a = (shift[c] + np.tile(np.arange(m), len(rows))) % pc * (SHIFT_STEP % pc) % pc
        w = np.zeros((len(c), d + 1), dtype=np.int64)
        w[:, :d] = gf_powmod_rows(a, (pc - 1) // 2, gf_shift_rows(hs[c], d - k[c]), pc)
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
    for lo in range(0, len(qrows), ROW_BLOCK):
        r, h = qrows[lo : lo + ROW_BLOCK], qhs[lo : lo + ROW_BLOCK]
        found += [(r, x) for x in _quad_rows(h[:, 0], h[:, 1], h[:, 2], ps[r])]
    rows, roots = (np.concatenate(v) for v in zip(*found))
    flat = tuple(roots[np.lexsort((roots, rows))].tolist())
    ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    return [flat[i:j] for i, j in zip([0] + ends[:-1], ends)]


def roots_mod_p(f: IntPolynomial, p: int) -> tuple[int, ...]:
    """Sorted residues r with (B! * f)(r) = 0 mod p.

    Empty for p <= degree or p dividing the leading coefficient: those
    primes carry no usable congruence information for the sieve. The
    route is the table builder's, run on a one-prime batch.
    """
    if p <= f.degree or f.leading % p == 0:
        return ()
    return _roots_algebraic(f.companion(), [p])[0]


@dataclass
class RootTable:
    """Root sets I_p for every prime p <= limit."""

    poly: IntPolynomial
    limit: int
    primes: np.ndarray
    roots: dict[int, tuple[int, ...]]
    _diff_sets: dict[int, frozenset[int]] = field(default_factory=dict, repr=False)

    def usable_primes(self) -> list[int]:
        """Primes with a nonempty root set, ascending."""
        return [int(p) for p in self.primes if self.roots[int(p)]]

    def primes_between(self, lo: int | float, hi: int | float) -> list[int]:
        """Primes q with lo < q <= hi, ascending."""
        i = np.searchsorted(self.primes, math.floor(lo), side="right")
        j = np.searchsorted(self.primes, math.floor(hi), side="right")
        return [int(p) for p in self.primes[i:j]]

    def usable_between(self, lo: int | float, hi: int | float) -> list[int]:
        return [q for q in self.primes_between(lo, hi) if self.roots[q]]

    def density_product(self, hi: int | float) -> float:
        """prod over primes q <= hi of (1 - nu_q / q)."""
        out = 1.0
        for q in self.primes_between(0, hi):
            k = len(self.roots[q])
            if k:
                out *= 1.0 - k / q
        return out

    def diff_set(self, q: int) -> frozenset[int]:
        """Pairwise root differences mod q, self-differences included, so 0
        is present whenever the root set is nonempty (cached)."""
        ds = self._diff_sets.get(q)
        if ds is None:
            rs = self.roots[q]
            ds = frozenset((a - b) % q for a in rs for b in rs)
            self._diff_sets[q] = ds
        return ds


def _poly_digest(f: IntPolynomial) -> int:
    h = hashlib.sha256(str(f).encode()).digest()
    return struct.unpack("<Q", h[:8])[0]


def _cache_path(cache_dir: str, f: IntPolynomial, limit: int) -> str:
    return os.path.join(cache_dir, f"roots_{_poly_digest(f):016x}_{limit}.bin")


def _write_cache(path: str, f: IntPolynomial, limit: int, roots: dict) -> None:
    """Write the header, one u1 root count per prime, then every root as
    u4, both in prime order (the order of the roots map)."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack("<QQ", _poly_digest(f), limit))
        fh.write(np.fromiter(map(len, roots.values()), dtype="u1", count=len(roots)).tobytes())
        fh.write(np.fromiter(itertools.chain.from_iterable(roots.values()), dtype="<u4").tobytes())
    os.replace(tmp, path)


def _read_cache(path: str, f: IntPolynomial, limit: int, primes: np.ndarray) -> dict | None:
    """The roots map of a cache file written for f, limit and so for
    primes, or None when there is none, it does not parse, or a root is
    out of range or out of order. A wrong root that is in range and in
    order is not caught."""
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
    # slices of a tuple are tuples: one allocation per prime
    rs = tuple(flat.tolist())
    roots: dict[int, tuple[int, ...]] = {}
    i = 0
    for p, k in zip(primes.tolist(), counts.tolist()):
        roots[p] = rs[i : i + k]
        i += k
    return roots


def build_root_table(f: IntPolynomial, limit: int, cache_dir: str | None = None) -> RootTable:
    """Compute (or load from cache) all root sets for primes <= limit.

    A corrupt or mismatching cache file is ignored and rebuilt. A limit of
    ROW_PRIME_BOUND (2^31) or more raises ValueError before anything is
    sieved: the batched root kernel is exact only below it. A polynomial of
    degree above 255, whose root counts a cache byte cannot hold, is not
    cached.
    """
    if limit >= ROW_PRIME_BOUND:
        raise ValueError(f"root table limit {limit} must stay below {ROW_PRIME_BOUND}")
    primes = sieve_primes(limit)
    degree, leading = f.degree, f.leading
    path = _cache_path(cache_dir, f, limit) if cache_dir and degree <= 255 else None
    if path:
        cached = _read_cache(path, f, limit, primes)
        if cached is not None:
            return RootTable(f, limit, primes, cached)
    roots: dict[int, tuple[int, ...]] = dict.fromkeys(primes.tolist(), ())
    # p <= degree and p dividing the leading coefficient keep I_p = ();
    # the others go in one algebraic batch
    batch = [p for p in roots if p > degree and leading % p]
    roots.update(zip(batch, _roots_algebraic(f.companion(), batch)))
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        _write_cache(path, f, limit, roots)
    return RootTable(f, limit, primes, roots)


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
    mert = 0.0
    sigma = 1.0
    counts: dict[int, int] = {}
    roots = table.roots
    primes = table.primes[: np.searchsorted(table.primes, x, side="right")]
    n_primes = len(primes)
    # ascending, as plain ints a block at a time: a list of every prime would
    # raise the peak memory by megabytes at x = 10^6
    for i in range(0, n_primes, ROW_BLOCK):
        for p in primes[i : i + ROW_BLOCK].tolist():
            k = len(roots[p])
            if k:
                mert += k / p
                sigma *= 1.0 - k / p
                counts[k] = counts.get(k, 0) + 1
    n_usable = sum(counts.values())
    rho_nu = {k: c / n_primes for k, c in sorted(counts.items())}
    return DensityStats(
        x=x,
        n_primes=n_primes,
        n_usable=n_usable,
        mertens_sum=mert,
        sigma=sigma,
        rho_hat=n_usable / n_primes if n_primes else 0.0,
        rho_hat_norm=n_usable * math.log(x) / x if x > 1 else 0.0,
        rho_nu_hat=rho_nu,
        nu_weighted_sum=sum(k * v for k, v in rho_nu.items()),
    )


def residue_collision_count(table: RootTable, m: int, qmin: int, qmax: int) -> int:
    """Number of primes qmin < q <= qmax whose root set contains two roots
    differing by m mod q. Drives the heuristic independence check: the count
    should stay logarithmic in m."""
    total = 0
    for q in table.primes_between(qmin, qmax):
        if table.roots[q] and m % q in table.diff_set(q):
            total += 1
    return total


def companion_eval_mod(comp: tuple[int, ...], n: int, p: int) -> int:
    """(B! * f)(n) mod p for a precomputed companion coefficient tuple."""
    acc = 0
    for c in reversed(comp):
        acc = (acc * n + c) % p
    return acc
