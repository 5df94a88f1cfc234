"""Prime generation, primality and row-wise modular arithmetic.

Everything here is deterministic for a fixed input so that sieve output and
certificates are reproducible byte for byte.

`ProductTree` holds one product tree over a list of primes, behind every
big-integer job: its root is the construction's modulus, its remainder walk
gives N and b1 (thousands to millions of digits) modulo every prime, and
its CRT walk gives b1's class. CPython divides in quadratic time, so nodes
of NEWTON_BITS or more are divided by `divmod_newton`, a Barrett reduction
by a Newton reciprocal, which takes a few multiplications.

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

import functools
import itertools
import math
import operator
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


# Bit length from which a division goes by a Newton reciprocal and Barrett
# reduction (divmod_newton) instead of Python's divmod, whose schoolbook time
# grows as the product of the divisor's and the quotient's lengths: both must
# reach it. Timed as a 2n-by-n division against divmod (Python 3.11, 2-vCPU
# x86 host, best of 7 runs), with the reciprocal taken anew / reused:
# n = 8192: 1.86 / 1.02 of divmod's time, 16384: 0.98 / 0.56, 32768:
# 0.83 / 0.46, 65536: 0.57 / 0.32. In the product trees of the primes up
# to 10^5 and 10^6, crossovers from 16384 to 65536 bits timed alike
NEWTON_BITS = 16384
# Bit length up to which reciprocal() divides outright instead of recursing
RECIPROCAL_BASE = 2048


def reciprocal(m: int) -> int:
    """About 4^n / m for m > 0 of n bits: within a few units of the floor.

    Newton's iteration x -> x + x (4^n - m x) / 4^n from the reciprocal of
    m's top h = n/2 + 8 bits, which gives about h correct bits, so one step
    gives n. The step multiplies m by that h-bit reciprocal and the
    reciprocal by the top bits of the error, so it costs about one n-by-n
    product, and the whole recursion about two."""
    n = m.bit_length()
    if n <= RECIPROCAL_BASE:
        return (1 << (2 * n)) // m
    h = (n >> 1) + 8
    k = n - h
    xh = reciprocal(m >> k)  # about 4^h / (m >> k), so xh << k is about 4^n / m
    # the error 4^n - m (xh << k), divided by 2^k, and its top h + 8 bits
    e = (1 << (n + h)) - m * xh
    t = max(e.bit_length() - h - 8, 0)
    return (xh << k) + ((xh * (e >> t)) >> (2 * h - t))


def _barrett(a: int, m: int, recip: int, n: int) -> tuple[int, int]:
    """divmod(a, m) for 0 <= a < 4^n, m of n bits and recip near 4^n / m:
    the quotient estimate ((a >> (n - 1)) recip) >> (n + 1) is off by a
    few units at most (Barrett 1986), and the loops correct it."""
    q = ((a >> (n - 1)) * recip) >> (n + 1)
    r = a - q * m
    while r < 0:
        q -= 1
        r += m
    while r >= m:
        q += 1
        r -= m
    return q, r


def _newton_pays(v: int, m: int) -> bool:
    """Whether divmod_newton takes v / m by Barrett reduction: m > 0 and
    both m and the quotient of at least NEWTON_BITS bits."""
    n = m.bit_length()
    return m > 0 and n >= NEWTON_BITS and v.bit_length() - n >= NEWTON_BITS


def divmod_newton(v: int, m: int, recip: int | None = None) -> tuple[int, int]:
    """divmod(v, m), taken by Barrett reduction with a Newton reciprocal of
    m (recip, when given, is reciprocal(m)) once m and the quotient both
    have NEWTON_BITS bits or more, else by Python's divmod. A v of more
    than twice m's n bits is reduced from the top, n bits at a time."""
    if not _newton_pays(v, m):
        return divmod(v, m)
    if v < 0:
        q, r = divmod_newton(-v, m, recip)
        return (-q, 0) if r == 0 else (-q - 1, m - r)
    n = m.bit_length()
    recip = reciprocal(m) if recip is None else recip
    # a shift that is a multiple of n and leaves at most 2n bits on top
    shift = max(v.bit_length() - 2 * n, 0)
    shift += -shift % n
    q, r = _barrett(v >> shift, m, recip, n)
    mask = (1 << n) - 1
    while shift:
        shift -= n
        qi, r = _barrett((r << n) | ((v >> shift) & mask), m, recip, n)
        q = (q << n) | qi
    return q, r


# Moduli per leaf of a ProductTree. Leaves of 8, 16, 32 and 64 primes timed
# alike within noise (Python 3.11, 2-vCPU x86 host, medians of alternated
# runs): a tree and the two remainder walks of a verification over the
# primes up to 10^5, 165 / 164 / 164 / 168 ms, its CRT 156 / 156 / 159 /
# 162 ms, and over the primes up to 3000, 0.4-0.5 ms and 0.8-0.9 ms at
# every width
TREE_LEAF = 16


class ProductTree:
    """A product tree over a list of moduli (Moenck and Borodin 1972).

    Its leaves are the products of TREE_LEAF consecutive moduli (the last
    leaf may hold fewer), and each level above holds the pairwise products
    of the one below, an odd node out carried up as it is, up to the root,
    the product of all. Python's multiplication is sub-quadratic
    (Karatsuba), and a tree multiplies numbers of about equal size. Two
    walks use it:
      remainders(v), v mod every modulus, goes down: each node's remainder
        is its parent's reduced by the node, and each leaf's remainder is
        reduced by its moduli;
      crt(residues) goes up: see there.
    A node of NEWTON_BITS or more is divided by divmod_newton with its
    reciprocal taken once per tree, so a second walk (the verifier reduces
    b1 and N) reuses it. Moduli of any sign give v % q as % gives it; a
    zero modulus raises ZeroDivisionError, as % does.
    """

    def __init__(self, moduli: Sequence[int]):
        moduli = list(moduli)
        level = [math.prod(moduli[i : i + TREE_LEAF]) for i in range(0, len(moduli), TREE_LEAF)]
        levels = [level]
        while len(level) > 1:
            level = [a * b for a, b in zip(level[::2], level[1::2])] + level[len(level) & ~1 :]
            levels.append(level)
        self._adopt(moduli, levels)

    def _adopt(self, moduli: list[int], levels: list[list[int]]) -> None:
        self.moduli = moduli
        self.levels = levels
        # the levels that hold a node long enough for divmod_newton
        self._wide = [max(map(int.bit_length, level), default=0) >= NEWTON_BITS for level in levels]
        self._recips: dict[tuple[int, int], int] = {}

    @property
    def root(self) -> int:
        """The product of the moduli, 1 for none."""
        top = self.levels[-1]
        return top[0] if top else 1

    def _rem(self, v: int, depth: int, i: int) -> int:
        m = self.levels[depth][i]
        if not _newton_pays(v, m):
            return v % m
        recip = self._recips.get((depth, i))
        if recip is None:
            recip = self._recips[depth, i] = reciprocal(m)
        return divmod_newton(v, m, recip)[1]

    def remainders(self, v: int) -> list[int]:
        """[v % q for q in moduli], for v of any sign or size."""
        rems = [v]
        for depth in reversed(range(len(self.levels))):
            level = self.levels[depth]
            # node i's parent is node i >> 1 of the level above
            parents = itertools.chain.from_iterable(zip(rems, rems))
            if self._wide[depth]:
                rems = [self._rem(r, depth, i) for i, r in zip(range(len(level)), parents)]
            else:
                rems = list(map(operator.mod, parents, level))
        # leaf j's remainder, once for each of its moduli
        leaves = itertools.chain.from_iterable(map(itertools.repeat, rems, itertools.repeat(TREE_LEAF)))
        return list(map(operator.mod, leaves, self.moduli))

    def _squared(self) -> ProductTree:
        """The tree of the squares of the moduli, every node squared."""
        sq = ProductTree.__new__(ProductTree)
        sq._adopt([q * q for q in self.moduli], [[m * m for m in level] for level in self.levels])
        return sq

    def crt(self, residues: Sequence[int]) -> int:
        """The s in [0, root) with s = residues[i] mod moduli[i] for every
        i; the moduli must be pairwise coprime (pow raises ValueError
        otherwise).

        With M the root, s = sum over q of c_q M/q mod M, where
        c_q = r_q ((M/q) mod q)^-1 mod q, and (M/q) mod q = (M mod q^2)/q
        comes from one walk of M down the tree of squares. The sum is built
        up the tree: a leaf of product P holds the sum of c_q P/q over its
        moduli, and a node over children (L, R) with sums (s_L, s_R) holds
        s_L R + s_R L, the sum over its moduli of c_q node/q."""
        m = self.root
        c = [r * pow(t // q, -1, q) % q
             for r, t, q in zip(residues, self._squared().remainders(m), self.moduli)]
        s = [sum(cq * (p // q) for cq, q in zip(c[j : j + TREE_LEAF], self.moduli[j : j + TREE_LEAF]))
             for j, p in zip(range(0, len(c), TREE_LEAF), self.levels[0])]
        for below in self.levels[:-1]:
            pairs = zip(s[::2], s[1::2], below[::2], below[1::2])
            s = [sl * pr + sr * pl for sl, sr, pl, pr in pairs] + s[len(s) & ~1 :]
        return s[0] % m if s else 0


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
