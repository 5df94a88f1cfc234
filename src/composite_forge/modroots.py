"""Root sets of the companion polynomial modulo primes.

For each prime p the table stores I_p, the sorted residues where B! * f
vanishes mod p, with I_p = () whenever p <= B or p divides the leading
coefficient (those primes are never used by the sieve). Every other prime
goes through one algebraic route, one batch per table: a linear solve for
degree 1, and for degree 2 the discriminant plus the row kernel
`primes.sqrt_and_inverse_rows`, which takes the square roots and the
inverses of 2 c_2 for a block of ROW_BLOCK primes in one Tonelli-Shanks
pass. Beyond that the int64 kernel `gf_powmod_rows` computes X^p mod (f, p)
for every prime at once, gcd(X^p - X, f) is taken per prime, and the
factors of degree 3 or more are split together by deterministic
equal-degree splitting (Cantor-Zassenhaus with shifts a = 1, 2, ...), one
batched (X + a)^((p-1)/2) per round and factor degree; the quadratic
factors met on the way are solved together by the quadratic route at the
end. `roots_mod_p` runs the same route on a one-prime batch; the test
suite cross-checks it against an exhaustive scan of every residue.
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
    Poly,
    gf_divmod,
    gf_gcd,
    gf_monic,
    gf_powmod_rows,
    gf_trim,
)
from .gfpoly import gf_powmod  # noqa: F401  (bench/harness.py traces modroots.gf_powmod)
from .poly import IntPolynomial
from .primes import mod_rows, sieve_primes, sqrt_and_inverse_rows

_CACHE_MAGIC = b"CFROOTS2"

# primes per block of the quadratic route and of density_stats: numpy
# temporaries and Python lists stay this long whatever the table size
ROW_BLOCK = 4096


def _quad_rows(c0: np.ndarray, c1: np.ndarray, c2: np.ndarray, p: np.ndarray) -> list[tuple[int, ...]]:
    """Sorted roots of c2 x^2 + c1 x + c0 mod every row prime; coefficients
    in [0, p), p odd and not dividing c2. Callers pass ROW_BLOCK rows at
    most."""
    disc = (c1 * c1 - 4 * (c2 * c0 % p)) % p
    s, inv = sqrt_and_inverse_rows(disc, 2 * c2 % p, p)
    r1 = (s - c1) % p * inv % p
    r2 = (-s - c1) % p * inv % p
    return [
        () if si < 0 else (x,) if x == y else (x, y)
        for si, x, y in zip(s.tolist(), np.minimum(r1, r2).tolist(), np.maximum(r1, r2).tolist())
    ]


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
            out += _quad_rows(*(mod_rows(c, ps) for c in comp), ps)
        return out
    monic = []
    for p in primes:
        inv = pow(comp[-1], -1, p)
        monic.append(tuple(c * inv % p for c in comp))
    ps = np.array(primes, dtype=np.int64)
    # Frobenius step: X^p mod (f, p) for every prime in one kernel run
    xp = gf_powmod_rows(
        np.zeros_like(ps), ps, np.array(monic, dtype=np.int64).reshape(-1, d + 1), ps
    )
    roots: list[list[int]] = [[] for _ in primes]
    pending: list[tuple[int, Poly]] = []  # (row, monic factor of degree >= 3)
    quads: list[tuple[int, Poly]] = []  # (row, monic quadratic factor)

    def collect(i: int, h: Poly) -> None:
        # h is monic, squarefree and a product of distinct linear factors
        k = len(h) - 1
        if k == 1:
            roots[i].append(-h[0] % primes[i])
        elif k == 2:
            quads.append((i, h))
        elif k > 2:
            pending.append((i, h))

    for i, (p, row) in enumerate(zip(primes, xp.tolist())):
        row[1] = (row[1] - 1) % p  # X^p - X
        collect(i, gf_gcd(gf_trim(row), monic[i], p))
    # equal-degree splitting, batched per factor degree: round a tries
    # gcd((X + a)^((p-1)/2) - 1, h) for every pending h. Two distinct roots
    # r, s are separated once (r + a)/(s + a) is a non-residue, which some
    # a in any p consecutive rounds achieves, so every h splits.
    a = 0
    while pending:
        a += 1
        groups: dict[int, list[tuple[int, Poly]]] = {}
        for i, h in pending:
            groups.setdefault(len(h) - 1, []).append((i, h))
        pending = []
        for k, group in groups.items():
            gp = np.array([primes[i] for i, _ in group], dtype=np.int64)
            hs = np.array([h for _, h in group], dtype=np.int64)
            ws = gf_powmod_rows(a % gp, (gp - 1) // 2, hs, gp)
            for (i, h), w in zip(group, ws.tolist()):
                p = primes[i]
                w[0] = (w[0] - 1) % p
                f1 = gf_gcd(gf_trim(w), h, p)
                if 0 < len(f1) - 1 < k:
                    collect(i, f1)
                    collect(i, gf_monic(gf_divmod(h, f1, p)[0], p))
                else:
                    pending.append((i, h))
    # the quadratic factors of every row, solved together
    for lo in range(0, len(quads), ROW_BLOCK):
        block = quads[lo : lo + ROW_BLOCK]
        ps = np.array([primes[i] for i, _ in block], dtype=np.int64)
        hs = np.array([h for _, h in block], dtype=np.int64)
        for (i, _), rs in zip(block, _quad_rows(hs[:, 0], hs[:, 1], hs[:, 2], ps)):
            roots[i].extend(rs)
    return [tuple(sorted(r)) for r in roots]


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
    primes, or None when there is none or it does not parse."""
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
    rs = flat.tolist()
    roots: dict[int, tuple[int, ...]] = {}
    i = 0
    for p, k in zip(primes.tolist(), counts.tolist()):
        roots[p] = tuple(rs[i : i + k])
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
