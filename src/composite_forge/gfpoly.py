"""Dense polynomial arithmetic over prime fields.

Polynomials are tuples of ints, ascending degree, trimmed (no trailing
zeros); the zero polynomial is the empty tuple. The scalar `gf_*` helpers
serve the irreducibility check.

The row kernels are their batched counterparts for the root finder: each
works on numpy int64 arrays with one prime per row, so a whole table of
primes takes a fixed number of numpy calls. A row polynomial is an (n, w)
array, ascending, zero-padded to the common width w, each row with its own
degree (`gf_degree_rows`).
- `pow_mod_rows`: b^e mod p per row, by fixed windows of exponent bits;
- `gf_powmod_half_rows`: (X + a)^e modulo a monic modulus of one degree d,
  and (X + a)^(e >> 1) on the way;
- `gf_gcd_rows`: the monic gcd, by division-free Euclid steps, with an
  inverse taken only for a gcd of positive degree;
- `gf_div_rows`: the quotient by a monic divisor.
They keep every coefficient they return in [0, p) and only ever multiply
two reduced coefficients, so each product stays below p^2 < 2^62. The other
kernels reduce every sum, of two products or of a few reduced terms, which
stays below 2^63 in int64. The power ladder works in uint64 and reduces once
per sum instead: a sum of up to four products plus one reduced term stays
below 4 p^2 + p < 2^64, and a longer sum, of a square's or a fold's terms at
degree 5 or more, is reduced after every four products. That exactness
needs every row prime below ROW_PRIME_BOUND = 2^31, and the polynomial
kernels refuse any other prime.
"""

from __future__ import annotations

import numpy as np

Poly = tuple[int, ...]

# exclusive bound on the primes of the row kernels (int64 exactness)
ROW_PRIME_BOUND = 1 << 31

# exponent bits per step of pow_mod_rows, which keeps a table of
# 2^POW_WINDOW_BITS powers per row
POW_WINDOW_BITS = 3


def gf_trim(c: list[int]) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def gf_normalize(c, p: int) -> Poly:
    return gf_trim([int(ci) % p for ci in c])


def gf_monic(a: Poly, p: int) -> Poly:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return tuple((ci * inv) % p for ci in a)


def gf_sub(a: Poly, b: Poly, p: int) -> Poly:
    n = max(len(a), len(b))
    out = [0] * n
    for i, ci in enumerate(a):
        out[i] = ci
    for i, ci in enumerate(b):
        out[i] = (out[i] - ci) % p
    return gf_trim(out)


def gf_mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return gf_trim(out)


def gf_divmod(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    inv_lead = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    q = [0] * max(len(r) - db, 0)
    for top in range(len(r) - 1, db - 1, -1):
        coef = r[top] * inv_lead % p
        if coef:
            q[top - db] = coef
            for i in range(db):
                r[top - db + i] = (r[top - db + i] - coef * b[i]) % p
    return gf_trim(q), gf_trim(r[:db])


def gf_mod(a: Poly, b: Poly, p: int) -> Poly:
    return gf_divmod(a, b, p)[1]


def gf_mulmod(a: Poly, b: Poly, m: Poly, p: int) -> Poly:
    return gf_mod(gf_mul(a, b, p), m, p)


def gf_powmod(base: Poly, e: int, m: Poly, p: int) -> Poly:
    """base**e mod (m, p) by square and multiply."""
    result: Poly = (1,)
    base = gf_mod(base, m, p)
    while e > 0:
        if e & 1:
            result = gf_mulmod(result, base, m, p)
        base = gf_mulmod(base, base, m, p)
        e >>= 1
    return result


def _check_row_primes(p: np.ndarray, kernel: str) -> None:
    if len(p) and (p.min() < 2 or p.max() >= ROW_PRIME_BOUND):
        raise ValueError(f"{kernel} needs primes in [2, {ROW_PRIME_BOUND})")


def pow_mod_rows(b: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """b_i^e_i mod p_i for every row; b_i in [0, p_i), e_i >= 0 and
    p_i < ROW_PRIME_BOUND.

    Left to right by fixed windows (Brauer's k-ary method): a table holds
    b^j for every window value j < 2^POW_WINDOW_BITS, and each window of
    the longest exponent, from the top, squares POW_WINDOW_BITS times and
    multiplies by the table entry its digits pick. A row whose exponent is
    shorter picks 1 until its own top window.
    """
    n = len(p)
    powers = np.empty((1 << POW_WINDOW_BITS, n), dtype=np.int64)
    powers[0] = 1
    for j in range(1, 1 << POW_WINDOW_BITS):
        powers[j] = powers[j - 1] * b % p
    flat, cols = powers.ravel(), np.arange(n)
    r = None
    for shift in reversed(range(0, int(e.max(initial=0)).bit_length(), POW_WINDOW_BITS)):
        pick = flat[(e >> shift & (1 << POW_WINDOW_BITS) - 1) * n + cols]
        if r is None:  # the top window starts from 1, so it only picks
            r = pick
            continue
        for _ in range(POW_WINDOW_BITS):
            np.multiply(r, r, out=r)
            np.remainder(r, p, out=r)
        np.multiply(r, pick, out=r)
        np.remainder(r, p, out=r)
    return np.ones_like(p) if r is None else r


def gf_powmod_half_rows(
    a: np.ndarray, e: np.ndarray, m: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(X + a_i)^(e_i >> 1) and (X + a_i)^e_i mod (m_i, p_i) for every row
    i at once. The ladder passes the first on its way to the second: it is
    the power before the step of bit 0.

    m is an (n, d + 1) int64 array of monic moduli of one degree d >= 2,
    ascending, coefficients in [0, p_i); a, e and p are length-n int64
    arrays with a_i in [0, p_i), e_i >= 0 and 2 <= p_i < ROW_PRIME_BOUND.
    Returns the two (n, d) residues, ascending, coefficients in [0, p_i).

    Left-to-right square and multiply over the bits of the largest
    exponent; a row whose exponent is shorter squares 1 until its top bit.
    The work is coefficient-major, (d, n), so each numpy call runs over all
    rows, in uint64 (see the module docstring). A square sums the d^2
    products of coefficients into its 2d - 1 terms, reduces them and folds
    the terms of degree d..2d-2 back with the precomputed X^(d+k) mod m_i;
    multiplying by X + a shifts, folds the coefficient pushed to X^d back
    with X^d mod m_i and adds a times the residue.
    """
    n, d = m.shape[0], m.shape[1] - 1
    if d < 2:
        raise ValueError("gf_powmod_half_rows needs moduli of degree at least 2")
    _check_row_primes(p, "gf_powmod_half_rows")
    # uint64 throughout: numpy turns uint64 mixed with int64 into float64
    a, p = a.astype(np.uint64), p.astype(np.uint64)
    # fold[k] = X^(d+k) mod m, k = 0 .. d-2, each X times the one before
    fold = np.empty((d - 1, d, n), dtype=np.uint64)
    fold[0] = (p - m[:, :d].T.astype(np.uint64)) % p
    for k in range(1, d - 1):
        fold[k] = fold[0] * fold[k - 1, -1]
        fold[k, 1:] += fold[k - 1, :-1]
        fold[k] %= p
    # the d^2 products of a square and the (d - 1) d of its fold, written
    # in place bit after bit
    outer = np.empty((d, d, n), dtype=np.uint64)
    prod = np.empty((d - 1, d, n), dtype=np.uint64)
    half = r = np.zeros((d, n), dtype=np.uint64)
    r[0] = 1
    for bit in reversed(range(int(e.max(initial=0)).bit_length())):
        half = r  # each step makes r anew, so half keeps the power before it
        np.multiply(r[:, None], r, out=outer)
        # each term gathers one product per row; reduced every four rows
        sq = np.zeros((2 * d - 1, n), dtype=np.uint64)
        for i in range(d):
            sq[i : i + d] += outer[i]
            if i % 4 == 3 and i + 1 < d:
                sq %= p
        sq %= p
        np.multiply(fold, sq[d:, None], out=prod)
        r = sq[:d]
        for k in range(0, d - 1, 4):  # four fold products per reduction
            r = r + prod[k : k + 4].sum(axis=0)
            r %= p
        times = fold[0] * r[-1]
        times += a * r
        times[1:] += r[:-1]
        times %= p
        np.copyto(r, times, where=((e >> bit) & 1).astype(bool))
    return half.T.astype(np.int64), r.T.astype(np.int64)


def gf_degree_rows(a: np.ndarray) -> np.ndarray:
    """The degree of every row of an (n, w) coefficient array, -1 for a
    zero row: the largest j + 1 over its nonzero columns j, less one. The
    max runs coefficient-major, over w rows of n, since numpy reduces a
    short inner axis one row at a time."""
    nonzero = np.ascontiguousarray(a.T) != 0
    return (nonzero * np.arange(1, a.shape[1] + 1)[:, None]).max(axis=0, initial=0) - 1


def gf_shift_rows(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """X^s_i * a_i for every row, in a's width w, for |s_i| <= w: terms
    pushed above it or below X^0 (s_i < 0) are dropped. One gather from a
    copy of a with w zero columns on either side."""
    n, w = a.shape
    padded = np.zeros((n, 3 * w), dtype=a.dtype)
    padded[:, w : 2 * w] = a
    return padded.ravel()[np.arange(w) + (w - s + 3 * w * np.arange(n))[:, None]]


def gf_gcd_rows(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Monic gcd(a_i, b_i) mod p_i for every row i at once.

    a and b are (n, w) int64 arrays, ascending, coefficients in [0, p_i),
    and 2 <= p_i < ROW_PRIME_BOUND. Returns the (n, w) gcds, a zero row
    where a_i and b_i are both zero.

    Euclid without division, as the divsteps of Bernstein and Yang ("Fast
    constant-time gcd computation and modular inversion", 2019), on rows
    aligned at the top: the last column of F holds its coefficient of
    degree df, that of G its coefficient of degree dg; these degrees bound
    the true ones. F starts as the operand of higher degree, and its top is
    never zero. A step forms H = lc(F) G - lc(G) F column by column, which
    clears the top column, and moves H up one column. Where df > dg and
    lc(G) != 0, H reduces F by G: G becomes F, and H, of degree df - 1, the
    next G. Otherwise H reduces G by F (or, where the top of G is zero,
    only scales it) and is the next G, of degree dg - 1. Each step lowers
    df + dg by one. A row is done when dg reaches -1, since G is then zero,
    so no row takes more than 2w - 1 steps; a done row that steps on keeps
    F as it is, and F is the gcd, of degree df. Each sum is of two products
    of reduced values, below 2 p^2 < 2^63. A gcd of positive degree is
    then made monic by one batched Fermat inverse of its leading
    coefficient; a constant gcd is 1 with no power taken.
    """
    _check_row_primes(p, "gf_gcd_rows")
    w = a.shape[1]
    da, db = gf_degree_rows(a), gf_degree_rows(b)
    high = (da > db)[:, None]
    f, g = np.where(high, a, b), np.where(high, b, a)
    df, dg = np.maximum(da, db), np.minimum(da, db)
    # coefficient-major, each row moved up to its top column
    f, g = gf_shift_rows(f, w - 1 - df).T, gf_shift_rows(g, w - 1 - dg).T
    while dg.max(initial=-1) >= 0:
        swap = (df > dg) & (g[-1] != 0)
        h = (f[-1] * g + (p - g[-1]) * f) % p
        f = np.where(swap, g, f)
        g = np.empty_like(h)
        g[0], g[1:] = 0, h[:-1]
        df, dg = np.where(swap, dg, df), np.where(swap, df, dg) - 1
    # a gcd of positive degree is made monic by its lead's inverse, a
    # constant one is 1, and a zero one stays zero
    out = gf_shift_rows(f.T, df - (w - 1))
    pos = np.flatnonzero(df > 0)
    out[pos] = out[pos] * pow_mod_rows(f[-1, pos], p[pos] - 2, p[pos])[:, None] % p[pos, None]
    out[df == 0, 0] = 1
    return out


def gf_div_rows(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The quotient of a_i by the monic b_i mod p_i for every row i at once.

    a and b are (n, w) int64 arrays, ascending, coefficients in [0, p_i),
    and 2 <= p_i < ROW_PRIME_BOUND. Returns the (n, w) quotients, the
    remainders dropped. Long division on rows aligned at the top: step t
    reads the coefficient c_t of degree deg a_i - t and subtracts
    c_t X^(deg a_i - deg b_i - t) b_i. Every row takes as many steps as
    the longest quotient; the steps past its own quotient only change a
    remainder that is not kept.
    """
    _check_row_primes(p, "gf_div_rows")
    w = a.shape[1]
    da, db = gf_degree_rows(a), gf_degree_rows(b)
    if (db < 0).any():
        raise ZeroDivisionError("polynomial division by zero")
    a, b = gf_shift_rows(a, w - 1 - da).T, gf_shift_rows(b, w - 1 - db).T
    steps = int((da - db).max(initial=-1)) + 1
    coef = np.zeros((len(p), w), dtype=np.int64)
    for t in range(steps):
        coef[:, t] = a[w - 1 - t]
        a[: w - t] = (a[: w - t] - coef[:, t] * b[t:] % p) % p
    # coef[:, t] is the quotient's coefficient of degree deg a - deg b - t;
    # a row with deg a < deg b has quotient 0, which a shift of -w gives
    return gf_shift_rows(coef[:, ::-1], np.maximum(da - db, -1) - (w - 1))


def gf_gcd(a: Poly, b: Poly, p: int) -> Poly:
    while b:
        a, b = b, gf_mod(a, b, p)
    return gf_monic(a, p)


def gf_is_irreducible(c: Poly, p: int) -> bool:
    """Irreducibility of c over the p-element field.

    Standard criterion: X^(p^d) = X mod c, and gcd(X^(p^(d/l)) - X, c) = 1
    for every prime l dividing d.
    """
    c = gf_monic(gf_normalize(c, p), p)
    d = len(c) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    x: Poly = (0, 1)
    if gf_powmod(x, p**d, c, p) != x:
        return False
    dd = d
    prime_divs = []
    f = 2
    while f * f <= dd:
        if dd % f == 0:
            prime_divs.append(f)
            while dd % f == 0:
                dd //= f
        f += 1
    if dd > 1:
        prime_divs.append(dd)
    for l in prime_divs:
        h = gf_sub(gf_powmod(x, p ** (d // l), c, p), x, p)
        if len(gf_gcd(h, c, p)) != 1:
            return False
    return True
