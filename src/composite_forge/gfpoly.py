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
The polynomial kernels work coefficient-major, (w, n), in buffers allocated
once per call, so every numpy call runs over all n rows and no step
allocates. They keep every coefficient they return in [0, p) and only ever
multiply two reduced coefficients, so each product stays below
p^2 < 2^62. The gcd and the division reduce every sum, of two products or
of a product and a reduced term, which stays below 2^63 in int64. The power
ladder works in uint64 and reduces as seldom as the largest prime P of its
batch allows. When d^2 P^3 < 2^64 it folds a square's terms back unreduced
and reduces once after the fold: a term of the square sums at most d
products, below d p^2, and a fold sum adds d - 1 such terms times reduced
coefficients of X^(d+k) mod m to one of them, below d^2 p^3. That holds for
every cubic table up to x = 1.27e6 and every quartic one up to 1.05e6, and
a cubic then reduces 6 rows per exponent bit, 3 after the fold and 3 after
the step by X + a. Above the bound it reduces each sum of up to four
products plus one reduced term, below 4 p^2 + p < 2^64: the square's terms
after every four rows of products, then the fold after every four products,
11 rows per bit for a cubic. That exactness needs every row prime below
ROW_PRIME_BOUND = 2^31, and the polynomial kernels refuse any other prime.
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
            r *= r
            r %= p
        r *= pick
        r %= p
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
    exponent; a row whose exponent is shorter squares 1 until its top bit,
    and the top bit itself only steps from 1.
    The work is coefficient-major, (d, n), so each numpy call runs over all
    rows, in uint64, and writes into buffers allocated once per call; the
    exponent bits are read off once, as a (bits, n) mask. A square adds
    each coefficient r_i times the residue into its 2d - 1 terms at X^i and
    folds the terms of degree d..2d-2 back with the precomputed
    X^(d+k) mod m_i. Multiplying by X + a shifts, folds the coefficient
    pushed to X^d back with X^d mod m_i and adds a times the residue; it is
    kept on the rows whose exponent has the bit, and skipped when no row's
    has. The batch's largest prime P sets the cadence of reductions (see
    the module docstring): when d^2 P^3 < 2^64 the square is folded
    unreduced and reduced once after the fold; above that bound the
    square's terms are reduced after every four rows of products and the
    fold after every four products.
    """
    n, d = m.shape[0], m.shape[1] - 1
    if d < 2:
        raise ValueError("gf_powmod_half_rows needs moduli of degree at least 2")
    _check_row_primes(p, "gf_powmod_half_rows")
    # a fold sum of an unreduced square is below d^2 P^3
    lazy = d * d * int(p.max(initial=0)) ** 3 < 1 << 64
    # uint64 throughout: numpy turns uint64 mixed with int64 into float64
    a, p = a.astype(np.uint64), p.astype(np.uint64)
    # fold[k] = X^(d+k) mod m, k = 0 .. d-2, each X times the one before
    fold = np.empty((d - 1, d, n), dtype=np.uint64)
    fold[0] = (p - m[:, :d].T.astype(np.uint64)) % p
    for k in range(1, d - 1):
        fold[k] = fold[0] * fold[k - 1, -1]
        fold[k, 1:] += fold[k - 1, :-1]
        fold[k] %= p
    # a square's 2d - 1 terms, one row of its products and the X + a step,
    # written in place bit after bit
    sq = np.empty((2 * d - 1, n), dtype=np.uint64)
    prod = np.empty((d, n), dtype=np.uint64)
    times = np.empty((d, n), dtype=np.uint64)
    bits = int(e.max(initial=0)).bit_length()
    # steps[bit]: the rows whose exponent has that bit, unpacked from the
    # bytes of e, with no (bits, n) array of int64 on the way
    octets = e.astype("<u8").view(np.uint8).reshape(n, 8)
    steps = np.ascontiguousarray(np.unpackbits(octets, axis=1, count=bits, bitorder="little").T, dtype=bool)
    stepped = steps.any(axis=1).tolist()
    r = np.zeros((d, n), dtype=np.uint64)
    r[0] = 1
    half = r.copy()
    if bits:  # the top bit takes 1 to X + a with no square before it
        np.copyto(r[0], a, where=steps[-1])
        r[1] = steps[-1]
    for bit in reversed(range(bits - 1)):
        if bit == 0:
            half = r.copy()
        # the square, r_i times r added in at X^i
        np.multiply(r, r[0], out=sq[:d])
        sq[d:] = 0
        for i in range(1, d):
            np.multiply(r, r[i], out=prod)
            sq[i : i + d] += prod
            if not lazy and i % 4 == 3 and i + 1 < d:
                sq %= p
        if not lazy:
            sq %= p
        # the fold: r = sq[:d] + sum over k of sq[d + k] X^(d+k) mod m
        np.multiply(fold[0], sq[d], out=r)
        r += sq[:d]
        for k in range(1, d - 1):
            if not lazy and k % 4 == 0:
                r %= p
            np.multiply(fold[k], sq[d + k], out=prod)
            r += prod
        r %= p
        if not stepped[bit]:
            continue
        np.multiply(fold[0], r[-1], out=times)
        np.multiply(a, r, out=prod)
        times += prod
        times[1:] += r[:-1]
        times %= p
        np.copyto(r, times, where=steps[bit])
    return half.T.astype(np.int64), r.T.astype(np.int64)


def gf_degree_rows(a: np.ndarray) -> np.ndarray:
    """The degree of every row of an (n, w) coefficient array, -1 for a
    zero row: the largest j + 1 over its nonzero columns j, less one. The
    max runs coefficient-major, over w rows of n, since numpy reduces a
    short inner axis one row at a time."""
    nonzero = np.ascontiguousarray(a.T) != 0
    return (nonzero * np.arange(1, a.shape[1] + 1)[:, None]).max(axis=0, initial=0) - 1


def _shifted_cols(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """X^s_i * a_i for every row of the (n, w) array a, in its width w, for
    |s_i| <= w, as a coefficient-major (w, n) array: terms pushed above the
    width or below X^0 (s_i < 0) are dropped. One gather from a's memory,
    whether a is row- or coefficient-major; the columns that come from
    outside the width read a's first element and are then cleared. The
    indices are built coefficient-major, so every numpy call runs over n."""
    n, w = a.shape
    if a.flags.c_contiguous:
        flat, row, col = a.ravel(), w, 1
    else:  # no copy when a is the transpose of a (w, n) array
        flat, row, col = a.T.ravel(), 1, n
    src = np.arange(w)[:, None] - s  # the column each term comes from
    inside = src.view(np.uint64) < w  # a negative column is huge as uint64
    src *= inside
    if col != 1:
        src *= col
    src += np.arange(0, n * row, row)
    out = flat[src]
    out *= inside
    return out


def gf_shift_rows(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """X^s_i * a_i for every row, in a's width w, for |s_i| <= w: terms
    pushed above it or below X^0 (s_i < 0) are dropped."""
    return np.ascontiguousarray(_shifted_cols(a, s).T)


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
    of reduced values, below 2 p^2 < 2^63. The steps run coefficient-major
    in (w, n) buffers allocated once: H is written into the buffer G does
    not hold, and F takes G's rows by one masked copy. A gcd of positive
    degree is then made monic by one batched Fermat inverse of its leading
    coefficient; a constant gcd is 1 with no power taken.
    """
    _check_row_primes(p, "gf_gcd_rows")
    n, w = a.shape
    da, db = gf_degree_rows(a), gf_degree_rows(b)
    high = da > db
    # F is the operand of higher degree; the buffer of the other aligned
    # operand takes the next G, its bottom row 0
    f, h = _shifted_cols(a, w - 1 - da), _shifted_cols(b, w - 1 - db)
    g = np.where(high, h, f)
    np.copyto(f, h, where=~high)
    h[0] = 0
    df, dg = np.maximum(da, db), np.minimum(da, db)
    prod, lead = np.empty((w - 1, n), dtype=np.int64), np.empty(n, dtype=np.int64)
    swap, live = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    total = df + dg
    while dg.max(initial=-1) >= 0:
        np.greater(df, dg, out=swap)
        np.not_equal(g[-1], 0, out=live)
        swap &= live
        np.subtract(p, g[-1], out=lead)
        np.multiply(f[-1], g[:-1], out=h[1:])
        np.multiply(lead, f[:-1], out=prod)
        h[1:] += prod
        h[1:] %= p
        np.copyto(f, g, where=swap)
        g, h = h, g
        h[0] = 0
        # a swap trades df for dg; df + dg falls by one either way
        np.copyto(df, dg, where=swap)
        total -= 1
        np.subtract(total, df, out=dg)
    # a gcd of positive degree is made monic by its lead's inverse, a
    # constant one is 1, and a zero one stays zero
    out = _shifted_cols(f.T, df - (w - 1))
    pos = np.flatnonzero(df > 0)
    scale = np.ones(n, dtype=np.int64)
    scale[pos] = pow_mod_rows(f[-1, pos], p[pos] - 2, p[pos])
    out *= scale
    out %= p
    out[0, df == 0] = 1
    return np.ascontiguousarray(out.T)


def gf_div_rows(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The quotient of a_i by the monic b_i mod p_i for every row i at once.

    a and b are (n, w) int64 arrays, ascending, coefficients in [0, p_i),
    and 2 <= p_i < ROW_PRIME_BOUND. Returns the (n, w) quotients, the
    remainders dropped. Long division in place on rows aligned at the top,
    coefficient-major: step t reads the coefficient c_t of degree
    deg a_i - t and subtracts c_t X^(deg a_i - deg b_i - t) b_i from the
    terms below it, so c_t stays where it was read and the top columns end
    holding the quotient. Every row takes as many steps as the longest
    quotient; the steps past its own quotient only change a remainder that
    is not kept.
    """
    _check_row_primes(p, "gf_div_rows")
    n, w = a.shape
    da, db = gf_degree_rows(a), gf_degree_rows(b)
    if (db < 0).any():
        raise ZeroDivisionError("polynomial division by zero")
    a, b = _shifted_cols(a, w - 1 - da), _shifted_cols(b, w - 1 - db)
    prod, lead = np.empty((w - 1, n), dtype=np.int64), np.empty(n, dtype=np.int64)
    for t in range(int((da - db).max(initial=-1)) + 1):
        top = w - 1 - t
        np.subtract(p, a[top], out=lead)  # -c_t
        np.multiply(lead, b[t:-1], out=prod[:top])
        a[:top] += prod[:top]
        a[:top] %= p
    # column w - 1 - t holds the quotient's coefficient of degree
    # deg a - deg b - t; a row with deg a < deg b has quotient 0, which a
    # shift of -w gives
    return gf_shift_rows(a.T, np.maximum(da - db, -1) - (w - 1))


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
