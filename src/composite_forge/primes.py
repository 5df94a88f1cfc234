"""Prime generation, primality and row-wise modular arithmetic.

Everything here is deterministic for a fixed input so that sieve output and
certificates are reproducible byte for byte.

`residues_mod` reduces one big integer by many moduli in blocks, for the
certificate's N and b1 (thousands of digits) modulo every sieve prime, and
`product` multiplies many primes by halves.

The row kernels (`mod_rows`, `sqrt_mod_rows`, with the windowed
`gfpoly.pow_mod_rows`) work on int64 arrays with one prime per row, so the
quadratic root finder solves a whole block of primes in a fixed number of
numpy calls instead of one Tonelli-Shanks per prime. Like the polynomial row
kernels of `gfpoly` they keep every value in [0, p) and only multiply two
reduced values, so each product stays below p^2 < 2^62; that exactness
needs every row prime below ROW_PRIME_BOUND. Before it, `jacobi_table`
gives the Jacobi symbol (d | m) of every odd m as one table over its
period, so the root finder drops the primes where a quadratic's
discriminant is a non-residue with one lookup each.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from collections.abc import Sequence

import numpy as np

from .gfpoly import ROW_PRIME_BOUND, pow_mod_rows

# Witness set proven deterministic for n < 3.317e24 (covers all 64-bit inputs
# with a wide margin).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def sieve_primes(limit: int) -> np.ndarray:
    """Return all primes <= limit as an int64 array (Eratosthenes, odds only)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    # index i represents the odd number 2*i + 1, except index 0, which
    # stands for 2 in place of 1
    is_prime = np.ones((limit + 1) // 2, dtype=bool)
    # the sieving primes, the odd primes up to isqrt(limit), as a short
    # set: the odd numbers there less the multiples of smaller odd numbers
    r = math.isqrt(limit)
    sieving = set(range(3, r + 1, 2))
    for d in range(3, math.isqrt(r) + 1, 2):
        sieving.difference_update(range(d * d, r + 1, 2 * d))
    for p in sieving:
        is_prime[(p * p) // 2 :: p] = False
    out = 2 * np.flatnonzero(is_prime).astype(np.int64) + 1
    out[0] = 2
    return out


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    """One Miller-Rabin round; True means a does not witness compositeness."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test.

    Deterministic (fixed witness set) below ~3.3e24; above that it falls back
    to 64 Miller-Rabin rounds with bases drawn from a PRNG seeded by n, so
    repeated calls agree.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_DETERMINISTIC_BOUND:
        bases = _MR_WITNESSES
    else:
        rng = random.Random(n)
        bases = [rng.randrange(2, n - 1) for _ in range(64)]
    return all(_mr_witness(n, a, d, s) for a in bases)


# Bit budget of a block of moduli in residues_mod. v mod q for every
# modulus costs one division of v per block plus one of a remainder of at
# most this size per modulus, so the best budget grows with v. Measured for
# N mod every prime up to x (f = x, N of 360 to 130k digits), this one is
# within 3 % of the best power of two at x = 10^4 and 10^5 and 0.08 ms
# behind it at x = 3000
RESIDUE_BLOCK_BITS = 2048


def residues_mod(v: int, moduli: Sequence[int]) -> list[int]:
    """[v % q for q in moduli], with v reduced once per block instead of
    once per modulus.

    Consecutive moduli form a block while their bit lengths sum to at most
    RESIDUE_BLOCK_BITS, so their product stays below 2^RESIDUE_BLOCK_BITS;
    v is reduced by that product, and the remainder by each modulus of the
    block, which gives v % q as q divides the product. A modulus longer than
    the budget is a block of its own, reduced as v % q, so long moduli cost
    one division of v each, as they would without blocks, and no product
    grows beyond the budget or one modulus. Each bit length is taken once,
    into a running sum on which one bisection per block finds its end. A
    zero modulus raises ZeroDivisionError, as % does.
    """
    ends = [0, *itertools.accumulate(map(int.bit_length, moduli))]
    out: list[int] = []
    i, n = 0, len(moduli)
    while i < n:
        # the last j whose running sum is within the budget of i's, at least i + 1
        j = max(i + 1, bisect.bisect_right(ends, ends[i] + RESIDUE_BLOCK_BITS) - 1)
        block = moduli[i:j]
        rest = v % math.prod(block)
        out += [rest % q for q in block]
        i = j
    return out


# Length up to which product() multiplies in sequence. Timed against
# math.prod over the primes up to x (Python 3.11, 2-vCPU x86 host): equal
# within noise at 62 and 168 primes, and 33.6 -> 9.2 ms at 9,592
PRODUCT_LEAF = 64


def product(values: Sequence[int]) -> int:
    """math.prod(values), taken by halves: the two halves' products are of
    about equal size, where Python's multiplication is sub-quadratic
    (Karatsuba), while a running product multiplies a long number by a short
    one each step. Lists of at most PRODUCT_LEAF values go to math.prod."""
    n = len(values)
    if n <= PRODUCT_LEAF:
        return math.prod(values)
    return product(values[: n // 2]) * product(values[n // 2 :])


_LIMB_BITS = 31
_LIMB_MASK = (1 << _LIMB_BITS) - 1


def mod_rows(c: int, p: np.ndarray) -> np.ndarray:
    """c mod p_i for every row, exactly, for an int c of any size.

    Horner over the 31-bit limbs of |c|: with every p_i below
    ROW_PRIME_BOUND each step stays below 2^62 + 2^31.
    """
    m = abs(c)
    # the first step turns the top limb into the array (c = 0 takes one
    # step too), so a one-limb c costs a single numpy operation
    acc = 0
    for shift in reversed(range(0, max(m.bit_length(), 1), _LIMB_BITS)):
        acc = ((acc << _LIMB_BITS) + ((m >> shift) & _LIMB_MASK)) % p
    return -acc % p if c < 0 else acc


def _nonresidues(p: np.ndarray) -> np.ndarray:
    """The least quadratic non-residue mod every prime p_i = 1 mod 8.

    Euler's criterion z^((p-1)/2) for an odd prime z, read off by
    reciprocity: since p = 1 mod 4, (z | p) = (p mod z | z), a lookup in
    the squares mod z. The least non-residue is an odd prime (2 is a
    residue here) below sqrt(p) + 1, so the candidates z = 3, 5, 7, ...
    reach every row while z < p.
    """
    z = np.zeros_like(p)
    todo = np.arange(len(p))
    for cand in filter(is_prime, itertools.count(3, 2)):
        if not len(todo):
            break
        squares = np.zeros(cand, dtype=bool)
        squares[np.arange(cand) ** 2 % cand] = True
        hit = ~squares[p[todo] % cand]
        z[todo[hit]] = cand
        todo = todo[~hit]
    return z


def _factor(u: int) -> list[tuple[int, int]]:
    """The prime factors p of u >= 1 with their exponents k, by trial
    division: [(p, k), ...], ascending."""
    out = []
    for p in sieve_primes(math.isqrt(u)).tolist():
        if p * p > u:
            break
        k = 0
        while u % p == 0:
            u //= p
            k += 1
        if k:
            out.append((p, k))
    if u > 1:
        out.append((u, 1))
    return out


@functools.lru_cache(maxsize=16)
def jacobi_table(d: int) -> np.ndarray:
    """The Jacobi symbol (d | m) of every odd m > 0, as an int8 table chi
    with chi[m % len(chi)] = (d | m); d != 0.

    The length is the period of m -> (d | m) on odd m: |d| when d = 0 or 1
    mod 4, as every discriminant b^2 - 4ac is, else 4|d|. The table is read
    off by reciprocity, not taken one symbol at a time: with d = +-2^e u
    and u odd, (d | m) = (+-1 | m) (2 | m)^e (-1)^((u-1)/2 (m-1)/2) (m | u),
    and (m | u) is the product over the prime powers p^k of u of (m | p)^k,
    a lookup in the squares mod p. An odd length means d = 1 mod 4, where
    the sign factors cancel, so chi[i] = (i | u) holds for even i too; at an
    even length no odd m has an even index, and those entries are 0.
    """
    e = (abs(d) & -abs(d)).bit_length() - 1
    u = abs(d) >> e
    period = abs(d) if d % 4 < 2 else 4 * abs(d)
    m = np.arange(period, dtype=np.int64)
    # (-1 | m) = -1 exactly for m = 3 mod 4, and (2 | m) for m = 3, 5 mod 8
    chi = np.ones(period, dtype=np.int8)
    if (d < 0) != (u % 4 == 3):
        chi[(m & 2) != 0] = -1
    if e % 2:
        chi[((m + 2) & 4) != 0] *= -1
    for p, k in _factor(u):
        # (m | p)^k: 0 where p | m, else the Legendre symbol for odd k
        symbol = np.full(p, -1 if k % 2 else 1, dtype=np.int8)
        if k % 2:
            symbol[np.arange(p) ** 2 % p] = 1
        symbol[0] = 0
        chi *= symbol[m % p]
    if period % 2 == 0:
        chi[::2] = 0
    chi.flags.writeable = False  # shared by every caller of the cache
    return chi


def sqrt_mod_rows(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per row, the smaller square root of a_i mod the odd prime p_i, -1
    where a_i is a non-residue.

    a_i in [0, p_i), 3 <= p_i < ROW_PRIME_BOUND. Write p - 1 = q 2^s with
    q odd. One exponentiation pass holds every row's powers:
      s = 1 (p = 3 mod 4): r = a^((q+1)/2) = a^((p+1)/4);
      s = 2 (p = 5 mod 8): Atkin's formula, v = (2a)^((q-1)/2) =
        (2a)^((p-5)/8) and r = a v (2a v^2 - 1);
      s >= 3 (p = 1 mod 8): w = a^((q-1)/2), so r = a w and t = a w^2 =
        a^q, and c = z^q for a non-residue z (`_nonresidues`).
    Rows with s >= 3 then run Tonelli-Shanks from the top step down: at
    step k = s - 1 .. 1, when t^(2^(k-1)) != 1, r *= c and t *= c^2; then
    c squares. That keeps r^2 = a t and halves the order of t each step,
    so t ends at 1 exactly when a is a residue. The rows are sorted by s,
    descending, so the rows still running at step k are a prefix and each
    row stops at its own s. Every row is checked by r^2 = a at the end,
    which is also the residue test of the rows with s <= 2.
    """
    if len(p) and (p.min() < 3 or p.max() >= ROW_PRIME_BOUND):
        raise ValueError(f"sqrt_mod_rows needs odd primes in [3, {ROW_PRIME_BOUND})")
    low = (p - 1) & (1 - p)  # lowest set bit of p - 1
    s = np.frexp(low.astype(np.float64))[1] - 1
    # s < 31 fits an int8 key, on which the stable sort is a radix sort
    order = np.argsort(-s.astype(np.int8), kind="stable")
    p, s, a = p[order], s[order], a[order]
    n1, n2 = np.count_nonzero(s >= 3), np.count_nonzero(s >= 2)
    q = (p - 1) >> s
    base = a << (s == 2)  # 2a on the Atkin rows
    base[n1:n2] %= p[n1:n2]
    p1 = p[:n1]
    powers = pow_mod_rows(
        np.concatenate((base, _nonresidues(p1))),
        np.concatenate(((q >> 1) + (s == 1), q[:n1])),
        np.concatenate((p, p1)),
    )
    w, c = powers[: len(p)], powers[len(p) :]
    r = a * w % p  # s >= 2: a w, and t = a w^2 for s >= 3
    t = r[:n1] * w[:n1] % p1
    p5, v = p[n1:n2], w[n1:n2]
    r[n1:n2] = r[n1:n2] * ((base[n1:n2] * (v * v % p5) - 1) % p5) % p5
    r[n2:] = w[n2:]
    # m[k] rows have s > k, a prefix; the largest s is s[0] when n1 > 0
    top = int(s[0]) if n1 else 0
    m = np.searchsorted(-s[:n1], -np.arange(top), side="left").tolist()
    for k in range(top - 1, 0, -1):
        pm, cm = p1[: m[k]], c[: m[k]]
        d = t[: m[k]]
        for _ in range(k - 1):
            d = d * d % pm
        f = np.where(d != 1, cm, 1)
        r[: m[k]] = r[: m[k]] * f % pm
        t[: m[k]] = t[: m[k]] * (f * f % pm) % pm
        c[: m[k]] = cm * cm % pm
    r = np.minimum(r, p - r)
    r[r * r % p != a] = -1
    out = np.empty_like(r)
    out[order] = r
    return out
