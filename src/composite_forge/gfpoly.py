"""Dense polynomial arithmetic over prime fields.

Polynomials are tuples of ints, ascending degree, trimmed (no trailing
zeros); the zero polynomial is the empty tuple. Shared by the algebraic root
finder and the irreducibility check.

`gf_powmod_rows` is the batched counterpart of `gf_powmod` for the root
finder: one numpy int64 kernel raises X + a to a power modulo many (monic
modulus, prime) rows at once. It keeps every coefficient in [0, p) and only
ever multiplies two reduced coefficients, so each product stays below
p^2 < 2^62 and each sum of a few reduced terms below 2^63; that exactness
needs every row prime below ROW_PRIME_BOUND = 2^31.
"""

from __future__ import annotations

import numpy as np

Poly = tuple[int, ...]

# exclusive bound on the primes of gf_powmod_rows (int64 exactness)
ROW_PRIME_BOUND = 1 << 31


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


def _times_x_plus_a(r: np.ndarray, a: np.ndarray | None, top: np.ndarray, p: np.ndarray) -> np.ndarray:
    """r * (X + a) mod (m, p), coefficient-major (d, n), where top holds
    X^d mod m: a shift, one reduction of the coefficient pushed to X^d and,
    unless a is None (a = 0), a scaled copy."""
    out = top * r[-1] % p
    out[1:] += r[:-1]
    if a is not None:
        out += a * r % p
    return out % p


def gf_powmod_rows(a: np.ndarray, e: np.ndarray, m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(X + a_i)^e_i mod (m_i, p_i) for every row i at once.

    m is an (n, d + 1) int64 array of monic moduli of one degree d >= 2,
    ascending, coefficients in [0, p_i); a, e and p are length-n int64
    arrays with a_i in [0, p_i), e_i >= 0 and 2 <= p_i < ROW_PRIME_BOUND.
    Returns the (n, d) residues, ascending, coefficients in [0, p_i).

    Left-to-right square and multiply over the bits of the largest
    exponent; a row whose exponent is shorter squares 1 until its top bit.
    The work is coefficient-major, (d, n), so each numpy call runs over all
    rows. A square reduces its degree d..2d-2 terms with the precomputed
    X^(d+k) mod m_i; multiplying by X + a needs a single reduction step.
    """
    n, d = m.shape[0], m.shape[1] - 1
    if d < 2:
        raise ValueError("gf_powmod_rows needs moduli of degree at least 2")
    if n and (p.min() < 2 or p.max() >= ROW_PRIME_BOUND):
        raise ValueError(f"gf_powmod_rows needs primes in [2, {ROW_PRIME_BOUND})")
    shift_only = not a.any()
    # fold[k] = X^(d+k) mod m, k = 0 .. d-2
    fold = np.empty((d - 1, d, n), dtype=np.int64)
    fold[0] = -m[:, :d].T % p
    for k in range(1, d - 1):
        fold[k] = _times_x_plus_a(fold[k - 1], None, fold[0], p)
    r = np.zeros((d, n), dtype=np.int64)
    r[0] = 1
    for bit in reversed(range(int(e.max(initial=0)).bit_length())):
        outer = r[:, None] * r % p
        sq = np.zeros((2 * d - 1, n), dtype=np.int64)
        for i in range(d):
            sq[i : i + d] += outer[i]
        sq %= p
        r = (sq[:d] + (fold * sq[d:, None] % p).sum(axis=0)) % p
        on = ((e >> bit) & 1).astype(bool)
        r = np.where(on, _times_x_plus_a(r, None if shift_only else a, fold[0], p), r)
    return r.T


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
