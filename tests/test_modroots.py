"""Root tables: the algebraic root finder against an exhaustive oracle; the
batched Frobenius, gcd and division kernels, the root finder, the row
square-root kernel and the windowed row power against the scalar and
per-prime routes they replaced, and which powers a table takes; the
character table that keeps quadratic non-residue rows from the square root;
the residue scan of small tables, and its multiply-and-compare divisibility
test, against the algebraic route, `%` and the oracle; the row accessors,
by prime range, against roots_mod_p on fresh and cached tables, and the
batch step over any subset of the primes (roots_mod_primes) against a
table's rows; the binary cache (its bytes pinned), density statistics, and
residue collision counts. Run as a script it prints the cache digests beside
the pinned ones; with `costs`, the cost of the scan or of each kernel run of
a table build (see kernel_cost_table); with `crossover`, the scan's time over
the algebraic route's on the same rows, behind SCAN_SPAN (see
crossover_table)."""

import bisect
import hashlib
import math
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import composite_forge.gfpoly as gfpoly_mod
import composite_forge.modroots as modroots_mod
import composite_forge.primes as primes_mod
from composite_forge.gfpoly import (
    ROW_PRIME_BOUND,
    gf_degree_rows,
    gf_div_rows,
    gf_divmod,
    gf_gcd,
    gf_gcd_rows,
    gf_mod,
    gf_monic,
    gf_mul,
    gf_normalize,
    gf_powmod,
    gf_powmod_half_rows,
    gf_sub,
)
from composite_forge.modroots import (
    RootTable,
    _cache_path,
    _divisor_test,
    _read_cache,
    _roots_algebraic,
    build_root_table,
    companion_eval_mod,
    density_stats,
    residue_collision_count,
    roots_mod_p,
)
from composite_forge.poly import IntPolynomial, parse_poly_literal
from composite_forge.primes import (
    NEWTON_BITS,
    TREE_LEAF,
    ProductTree,
    divmod_newton,
    jacobi_table,
    mod_rows,
    pow_mod_rows,
    reciprocal,
    sieve_primes,
    sqrt_mod_rows,
)
from conftest import all_rows, roots_of, usable_between


def scan_roots(comp, p):
    """Independent oracle: evaluate the companion at every residue."""
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(comp):
        acc = (acc * xs + c % p) % p
    return tuple(int(v) for v in xs[acc == 0])


def oracle_roots(f, p):
    comp = f.companion()
    if p <= f.degree or comp[-1] % p == 0:
        return ()
    return scan_roots(comp, p)


# sha256 of the cache file of each table, by test id: (literal, digest,
# limit). The first five are the files the two-array writer (root counts,
# then the roots) produced for tables the per-prime route gave. The others
# were recorded before the root finder moved to monic rows: the largest
# tables of the bench's roots grid, and the non-monic inverse paths (3x + 1;
# 3x^2 + 5x + 7, whose companion has content 2; 5x^3 + 3x^2 - x + 1).
# The last three were recorded before quadratic tables came to skip the
# primes where the discriminant D is a non-residue: x^2 - 2 (D = 8, so the
# character's period is even), x^2 + x + 41 (D = -163) and (x + 1)^2
# (D = 0, no character). The five after those were recorded before tables
# of degree 3 or more whose primes sum to at most SCAN_SPAN (then 2^18) came
# to be scanned, and fall inside that span. The three after those were
# recorded, by the algebraic route, before SCAN_SPAN went from 2^18 to 2^20,
# and fall inside the new span. The last, x^4 + x + 1 at 10^4, was recorded
# before the algebraic route came to scan the rows that its first splitting
# round leaves a factor of degree 3 or more, a rule that fires there (so
# does it for x^3 + 2 at 10^4). `PYTHONPATH=src python tests/test_modroots.py`
# prints every digest as the code gives it next to the pinned one
CACHE_PINS = {
    "x^2+1-1e4": ("poly:[1,0,1]", "b722c907e6afc0c1ea57f930b430702bba31ebdd0cd1d3dd8e742ae4e648a854", 10**4),
    "x^3+2-1e4": ("poly:[2,0,0,1]", "8b0051cab7ae1c27ba33a8391190fc370be0eda5f552807d1bfeacc0d84902ef", 10**4),
    "x^2+1-1e5": ("poly:[1,0,1]", "1e2b1c330a8c7ddca0fabbf9d7c42a45f784091df05ef18bfc1662fe13854083", 10**5),
    "x^3-3x+1-3e4": ("poly:[1,-3,0,1]", "303daf9dcaa58966ff884380b76df22d5135f04de4d5a368e4c9d2be7893f1ae", 3 * 10**4),
    "x^4+1-3e4": ("poly:[1,0,0,0,1]", "97a1bd5b06d7a73efb67302e5c359b8ac24403da6ec8f27c976cec0ba3394376", 3 * 10**4),
    "x^2+1-1e6": ("poly:[1,0,1]", "001b0a529786ac22b3333152aa6b146123a95810ed82b0b98f9f83bc6451b267", 10**6),
    "x^3+2-1e5": ("poly:[2,0,0,1]", "99d6534428f21e8534c5103bcf5cb6c2e341663cb2d993a8e1ff9227d7f1390f", 10**5),
    "3x+1-3e4": ("poly:[1,3]", "b7aa5254bec8645f5188e72c3e18d2cdf6b2a849209394f18cb57fae4ad4c202", 3 * 10**4),
    "3x^2+5x+7-3e4": ("poly:[7,5,3]", "500283cbd8594c24bfe69f8dab243a64ed5def1eca66de9af06eaea730b0ae4e", 3 * 10**4),
    "5x^3+3x^2-x+1-3e4": ("poly:[1,-1,3,5]", "efff985f15f5735cdb1c9ea5e32f080be74c0e422e3622dc94e2d98ee84ae192", 3 * 10**4),
    "x^2-2-3e4": ("poly:[-2,0,1]", "772e89246a152b75fcde9fb595c596fa720a78bd9615698fdea0e0afd3121a2e", 3 * 10**4),
    "x^2+x+41-3e4": ("poly:[41,1,1]", "b0b0a70c0ada48b41f388b2d0454b6fc16a02374eb4868fe898fd722e25e3fa6", 3 * 10**4),
    "(x+1)^2-3e4": ("poly:[1,2,1]", "4bf1f49be6a30acc9270163c73f59c21b7a18c920bbd7f0e65665bb33034447d", 3 * 10**4),
    "x^3+2-300": ("poly:[2,0,0,1]", "4e2c66f3a0035ebe9956349de8fdb0f6a27bb05d1d919134850a36dd7aa95f16", 300),
    "x^3+2-1000": ("poly:[2,0,0,1]", "016e8402a4b62296d05692cec32dfdb77a3ff0340258e69bf022bd8098b60a80", 1000),
    "5x^3+3x^2-x+1-1000": ("poly:[1,-1,3,5]", "ae7afb3d353d446f9fdb84a202899c5d8b1ffc4817e448bfffbb479e0b288a37", 1000),
    "x^3-3x+1-1900": ("poly:[1,-3,0,1]", "05ca51e63a275fc96eb8d1c665c96483aba4cddbc12ac0e03f554ef32446545c", 1900),
    "x^4+1-1000": ("poly:[1,0,0,0,1]", "c50bfba7272c05c54c01caad466ff0588f9e3902ff3c978d875805d6d6029531", 1000),
    "x^3+2-3000": ("poly:[2,0,0,1]", "bbe0f0a2ab258a96a4738b6d80789920782856ec50a447ab622fbf2ce955689c", 3000),
    "x^4+x+1-4000": ("poly:[1,1,0,0,1]", "e81e0b3c2bbd91b3e5618688c75de9f604aaed66b5cb4f2fcf4abe06df88a40e", 4000),
    "x^3-3x+1-4000": ("poly:[1,-3,0,1]", "cb1d254a0ad3139603d5539354fdf568ca0b9f1586e1ba6787847fd495e88725", 4000),
    "x^4+x+1-1e4": ("poly:[1,1,0,0,1]", "faa7ee41ee2ae8392dd55d1f0ac87e85deda8040b80330203c423ac03b4ac4ab", 10**4),
}


def cache_digest(f, limit, cache_dir):
    """sha256 of the cache file that building f's table up to limit writes."""
    build_root_table(f, limit, cache_dir=cache_dir)
    with open(_cache_path(cache_dir, f, limit), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestRootsModP:
    def test_quadratic_hand_cases(self, f_x2p1):
        # -1 is a square mod p exactly when p = 2 or p = 1 mod 4
        assert roots_mod_p(f_x2p1, 5) == (2, 3)
        assert roots_mod_p(f_x2p1, 13) == (5, 8)
        assert roots_mod_p(f_x2p1, 7) == ()
        assert roots_mod_p(f_x2p1, 2) == ()  # p <= degree

    def test_linear(self, f_x):
        assert roots_mod_p(f_x, 7) == (0,)
        # 3x + 1 = 0 mod 7 -> x = 2
        f = IntPolynomial.from_monomial([1, 3])
        assert roots_mod_p(f, 7) == (2,)

    def test_excluded_primes_are_empty(self):
        # leading companion coefficient divisible by p
        f = IntPolynomial.from_monomial([1, 0, 5])
        assert f.companion() == (2, 0, 10)
        assert roots_mod_p(f, 5) == ()
        # 5x^3 + 3x^2 - x + 1 without its top term has roots mod 5, but 5
        # divides the leading coefficient, so the table has none either
        g = IntPolynomial.from_monomial([1, -1, 3, 5])
        assert scan_roots(g.companion(), 5) == (3, 4)
        assert roots_mod_p(g, 5) == roots_of(build_root_table(g, 100), 5) == ()
        # p <= degree
        g = IntPolynomial.from_monomial([2, 0, 0, 1])
        assert roots_mod_p(g, 2) == ()
        assert roots_mod_p(g, 3) == ()

    @pytest.mark.parametrize(
        "mono",
        [
            [0, 1], [1, 0, 1], [2, 0, 0, 1], [1, -1, 3, 5], [1, 2, 3, 0, 4],
            [3, 3, 0, 0, 0, 1], [2, 0, 0, 0, 0, 0, 1],
        ],
    )
    def test_both_routes_match_oracle(self, mono):
        # the per-prime route and the table, from the first prime above the
        # degree on (the ones at or below it have no roots by definition)
        f = IntPolynomial.from_monomial(mono)
        table = build_root_table(f, 2000)
        primes = [int(p) for p in sieve_primes(2000) if p > f.degree]
        assert primes[0] == next(p for p in (2, 3, 5, 7) if p > f.degree)
        for p in primes:
            want = oracle_roots(f, p)
            assert roots_mod_p(f, p) == want, (mono, p)
            assert roots_of(table, p) == want, (mono, p)

    @given(
        st.lists(st.integers(-30, 30), min_size=2, max_size=5),
        st.sampled_from([2, 3, 5, 7, 11, 13, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103]),
    )
    @settings(max_examples=150, deadline=None)
    def test_algebraic_route_random_polys(self, binom, p):
        if binom[-1] <= 0:
            binom[-1] = abs(binom[-1]) + 1
        f = IntPolynomial(tuple(binom))
        assert roots_mod_p(f, p) == oracle_roots(f, p)

    def test_prime_at_the_kernel_bound_refused(self, f_x):
        # the linear route multiplies two residues in int64, exact below 2^31
        assert roots_mod_p(f_x, 2147483647) == (0,)
        with pytest.raises(ValueError, match="below"):
            roots_mod_p(f_x, 4294967311)

    def test_roots_are_actual_zeros(self, f_x2p1):
        comp = f_x2p1.companion()
        for p in (5, 13, 101, 12553):
            roots = roots_mod_p(f_x2p1, p)
            assert roots
            for a in roots:
                assert companion_eval_mod(comp, a, p) == 0


# reference oracle: the per-prime algebraic route that the batched one
# replaced, with its scalar square root and quadratic solver, kept verbatim
def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo an odd prime p, or None if a is a non-residue.

    Tonelli-Shanks; returns the smaller of the two roots for determinism.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # p = 1 mod 4: full Tonelli-Shanks
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        t2 = t
        i = 0
        while t2 != 1:
            t2 = (t2 * t2) % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = (b * b) % p
        t = (t * c) % p
        r = (r * b) % p
    return min(r, p - r)


def _quad_roots(c0: int, c1: int, c2: int, p: int) -> tuple[int, ...]:
    """Roots of c2 x^2 + c1 x + c0 mod an odd prime p, p not dividing c2."""
    disc = (c1 * c1 - 4 * c2 * c0) % p
    s = sqrt_mod_prime(disc, p)
    if s is None:
        return ()
    inv = pow(2 * c2, -1, p)
    r1 = ((-c1 + s) * inv) % p
    r2 = ((-c1 - s) * inv) % p
    return tuple(sorted({r1, r2}))


def _split_linear_factors(g, p: int) -> list[int]:
    """All roots of a monic squarefree product of linear factors mod p."""
    roots: list[int] = []
    stack = [g]
    while stack:
        h = stack.pop()
        d = len(h) - 1
        if d <= 0:
            continue
        if d == 1:
            roots.append((-h[0] * pow(h[1], -1, p)) % p)
            continue
        if d == 2:
            roots.extend(_quad_roots(h[0], h[1], h[2], p))
            continue
        # deterministic splitting sweep; terminates because the roots are
        # distinct and some shift separates them by quadratic character
        for a in range(1, p):
            w = gf_sub(gf_powmod((a, 1), (p - 1) // 2, h, p), (1,), p)
            f1 = gf_gcd(w, h, p)
            if 0 < len(f1) - 1 < d:
                q, r = gf_divmod(h, f1, p)
                assert not r
                stack.append(f1)
                stack.append(gf_monic(q, p))
                break
        else:  # pragma: no cover - cannot happen for squarefree split input
            raise ArithmeticError(f"splitting failed mod {p}")
    return roots


def legacy_roots_algebraic(comp: tuple[int, ...], p: int) -> tuple[int, ...]:
    cp = gf_normalize(comp, p)
    d = len(cp) - 1
    if d <= 0:
        return ()
    if d == 1:
        return ((-cp[0] * pow(cp[1], -1, p)) % p,)
    if d == 2:
        return _quad_roots(cp[0], cp[1], cp[2], p)
    cp = gf_monic(cp, p)
    xp = gf_powmod((0, 1), p, cp, p)
    g = gf_gcd(gf_sub(xp, (0, 1), p), cp, p)
    if len(g) - 1 <= 0:
        return ()
    return tuple(sorted(_split_linear_factors(g, p)))


# primes from 7 to 3000: every prime above the degree (at most 6) of the
# batch cases
BATCH_PRIMES = [int(p) for p in sieve_primes(3000) if p >= 7]
# the largest primes below ROW_PRIME_BOUND, where int64 exactness is tight
TOP_PRIMES = [2147483647, 2147483629, 2147483587]


class TestGfDivmod:
    @given(
        st.sampled_from([2, 3, 67, 3001, ROW_PRIME_BOUND - 1]),
        st.lists(st.integers(0, 10**12), max_size=9),
        st.lists(st.integers(0, 10**12), min_size=1, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_quotient_and_remainder_rebuild_the_dividend(self, p, a, b):
        a, b = gf_normalize(a, p), gf_normalize(b, p)
        if not b:
            return
        q, r = gf_divmod(a, b, p)
        assert len(r) < len(b)
        assert gf_sub(a, r, p) == gf_mul(q, b, p)
        assert gf_mod(a, b, p) == r


# for d = 3, 4 and 8, the consecutive primes on either side of the bound
# d^2 P^3 < 2^64 below which the ladder reduces once per square and fold,
# then a far prime with 2^64 <= d^2 P^3 < 2^70: a lazy ladder there gets
# most random rows wrong, so a bound raised as far as 2^70 fails
CADENCE_PRIMES = {
    3: (1270249, 1270271, 4999999),
    4: (1048573, 1048583, 1999993),
    8: (660559, 660563, 1999993),
}


class TestRowKernel:
    @given(
        st.integers(2, 8),
        st.lists(st.one_of(st.sampled_from(BATCH_PRIMES), st.sampled_from(TOP_PRIMES)),
                 min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_gf_powmod(self, d, primes, data):
        rows, shifts, exps = [], [], []
        for p in primes:
            low = data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
            rows.append(low + [1])
            shifts.append(data.draw(st.integers(0, p - 1)))
            exps.append(data.draw(st.one_of(st.just(p), st.integers(0, 2 * p))))
        ps = np.array(primes, dtype=np.int64)
        _, got = gf_powmod_half_rows(
            np.array(shifts, dtype=np.int64), np.array(exps, dtype=np.int64),
            np.array(rows, dtype=np.int64), ps,
        )
        for p, m, a, e, row in zip(primes, rows, shifts, exps, got.tolist()):
            want = gf_powmod((a, 1), e, tuple(m), p)
            assert tuple(row) == want + (0,) * (d - len(want)), (p, m, a, e)

    @given(
        st.integers(2, 8),
        st.lists(st.one_of(st.sampled_from(BATCH_PRIMES), st.sampled_from(TOP_PRIMES)),
                 min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_half_power_is_the_power_of_half_the_exponent(self, d, primes, data):
        # the coefficients at p - 1 make every product and sum of the
        # ladder as large as it can be
        rows, shifts, exps = [], [], []
        for p in primes:
            top = data.draw(st.booleans())
            rows.append([p - 1] * d + [1] if top else
                        data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1])
            shifts.append(p - 1 if top else data.draw(st.integers(0, p - 1)))
            exps.append(data.draw(st.one_of(st.just(p), st.integers(0, 2 * p))))
        half, full = gf_powmod_half_rows(
            np.array(shifts, dtype=np.int64), np.array(exps, dtype=np.int64),
            np.array(rows, dtype=np.int64), np.array(primes, dtype=np.int64),
        )
        for p, m, a, e, h, g in zip(primes, rows, shifts, exps, half.tolist(), full.tolist()):
            for got, k in ((h, e >> 1), (g, e)):
                want = gf_powmod((a, 1), k, tuple(m), p)
                assert tuple(got) == want + (0,) * (d - len(want)), (p, m, a, k)

    @pytest.mark.parametrize("side", [0, 1, 2], ids=["lazy", "wide", "far"])
    @pytest.mark.parametrize("d", sorted(CADENCE_PRIMES))
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_both_cadences_match_gf_powmod(self, d, side, data):
        # the batch's largest prime sits just below (lazy) or just above
        # (wide) the bound d^2 P^3 < 2^64 that picks the ladder's cadence,
        # or far above it (below 2^70)
        top = CADENCE_PRIMES[d][side]
        assert (d * d * top**3 < 1 << 64) == (side == 0)
        assert d * d * top**3 < 1 << (70 if side == 2 else 65)
        primes = [top] + data.draw(st.lists(st.sampled_from(BATCH_PRIMES + [top]), max_size=5))
        rows, shifts, exps = [], [], []
        for p in primes:
            full = data.draw(st.booleans())  # every coefficient at p - 1
            rows.append([p - 1] * d + [1] if full else
                        data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1])
            shifts.append(p - 1 if full else data.draw(st.integers(0, p - 1)))
            exps.append(data.draw(st.one_of(st.just(p), st.integers(0, 2 * p))))
        half, whole = gf_powmod_half_rows(
            np.array(shifts, dtype=np.int64), np.array(exps, dtype=np.int64),
            np.array(rows, dtype=np.int64), np.array(primes, dtype=np.int64),
        )
        for p, m, a, e, h, g in zip(primes, rows, shifts, exps, half.tolist(), whole.tolist()):
            for got, k in ((h, e >> 1), (g, e)):
                want = gf_powmod((a, 1), k, tuple(m), p)
                assert tuple(got) == want + (0,) * (d - len(want)), (p, m, a, k)

    def test_rejects_primes_outside_the_exact_range(self):
        m = np.array([[1, 0, 1]], dtype=np.int64)
        one = np.ones(1, dtype=np.int64)
        for p in (ROW_PRIME_BOUND, 1):
            with pytest.raises(ValueError):
                gf_powmod_half_rows(one - 1, one, m, np.array([p], dtype=np.int64))
        with pytest.raises(ValueError):
            gf_powmod_half_rows(one - 1, one, np.array([[1, 1]], dtype=np.int64), one * 7)


ROW_PRIMES = [2, 3, 5, 7, 67, 3001] + TOP_PRIMES


def padded(c, w):
    return tuple(c) + (0,) * (w - len(c))


def row_batch(rows, w):
    """The (p, a, b) rows as the kernels take them: two (n, w) arrays of
    coefficients and the primes."""
    a = np.array([padded(r[1], w) for r in rows], dtype=np.int64).reshape(-1, w)
    b = np.array([padded(r[2], w) for r in rows], dtype=np.int64).reshape(-1, w)
    return a, b, np.array([r[0] for r in rows], dtype=np.int64)


@st.composite
def euclid_rows(draw, monic_b=False):
    """(w, rows): rows (p, a, b) of trimmed polynomials of degree below w.
    a = g u and b = g v share a drawn factor g, so gcds are often
    nontrivial; u or v, and so a or b, may be zero, and either may have the
    higher degree. With monic_b, b is g made monic instead, never zero."""
    w = draw(st.integers(1, 7))
    rows = []
    for p in draw(st.lists(st.sampled_from(ROW_PRIMES), min_size=1, max_size=12)):

        def poly(top):
            k = draw(st.integers(-1, top))
            low = [draw(st.integers(0, p - 1)) for _ in range(k)]
            return tuple(low + [draw(st.integers(1, p - 1))] * (k >= 0))

        g = poly(w - 1)
        if monic_b:
            rows.append((p, poly(w - 1), gf_monic(g, p) or (1,)))
        else:
            top = w - 1 - max(len(g) - 1, 0)
            rows.append((p, gf_mul(g, poly(top), p), gf_mul(g, poly(top), p)))
    return w, rows


@st.composite
def mixed_euclid_rows(draw):
    """(w, rows) as euclid_rows gives, in one batch that always holds a
    row of two zeros, a zero b, a zero a, an a and b of one degree, and a
    full-width a beside a constant b, so the rows end their Euclid steps,
    and their divisions, after different numbers of steps; then up to four
    drawn rows, all in a drawn order."""
    w = draw(st.integers(2, 7))

    def poly(p, k):  # degree k, -1 for zero
        return tuple([draw(st.integers(0, p - 1)) for _ in range(k)] + [draw(st.integers(1, p - 1))] * (k >= 0))

    def prime():
        return draw(st.sampled_from(ROW_PRIMES))

    k = draw(st.integers(0, w - 1))
    rows = [
        (p, poly(p, da), poly(p, db))
        for p, da, db in ((prime(), -1, -1), (prime(), w - 1, -1), (prime(), -1, w - 2),
                          (prime(), k, k), (prime(), w - 1, 0))
    ]
    for p in draw(st.lists(st.sampled_from(ROW_PRIMES), max_size=4)):
        rows.append((p, poly(p, draw(st.integers(-1, w - 1))), poly(p, draw(st.integers(-1, w - 1)))))
    return w, draw(st.permutations(rows))


class TestRowEuclid:
    @given(euclid_rows())
    @settings(max_examples=100, deadline=None)
    def test_gcd_matches_gf_gcd(self, case):
        w, rows = case
        got = gf_gcd_rows(*row_batch(rows, w))
        for (p, a, b), g in zip(rows, got.tolist()):
            assert tuple(g) == padded(gf_gcd(a, b, p), w), (p, a, b)

    @given(euclid_rows(monic_b=True))
    @settings(max_examples=100, deadline=None)
    def test_quotient_matches_gf_divmod(self, case):
        w, rows = case
        got = gf_div_rows(*row_batch(rows, w))
        for (p, a, b), q in zip(rows, got.tolist()):
            assert tuple(q) == padded(gf_divmod(a, b, p)[0], w), (p, a, b)

    @given(mixed_euclid_rows())
    @settings(max_examples=60, deadline=None)
    def test_mixed_batches_match_the_scalar_route(self, case):
        w, rows = case
        got = gf_gcd_rows(*row_batch(rows, w))
        for (p, a, b), g in zip(rows, got.tolist()):
            assert tuple(g) == padded(gf_gcd(a, b, p), w), (p, a, b)
        # the division takes each b made monic, a zero one as 1
        rows = [(p, a, gf_monic(b, p) or (1,)) for p, a, b in rows]
        got = gf_div_rows(*row_batch(rows, w))
        for (p, a, b), q in zip(rows, got.tolist()):
            assert tuple(q) == padded(gf_divmod(a, b, p)[0], w), (p, a, b)

    def test_one_row_and_empty_batches(self):
        p = TOP_PRIMES[0]
        # (x - 1)(x - 2) and (x - 1)(x + 5) share x - 1
        a, b, ps = row_batch([(p, gf_mul((p - 1, 1), (p - 2, 1), p), gf_mul((p - 1, 1), (5, 1), p))], 3)
        assert gf_gcd_rows(a, b, ps).tolist() == [[p - 1, 1, 0]]
        assert gf_div_rows(a, gf_gcd_rows(a, b, ps), ps).tolist() == [[p - 2, 1, 0]]
        empty = np.empty((0, 4), dtype=np.int64)
        none = np.empty(0, dtype=np.int64)
        assert gf_gcd_rows(empty, empty, none).shape == gf_div_rows(empty, empty, none).shape == (0, 4)

    def test_rejects_primes_outside_the_exact_range(self):
        one = np.array([[1, 1]], dtype=np.int64)
        for p in (ROW_PRIME_BOUND, 1):
            ps = np.array([p], dtype=np.int64)
            for kernel in (gf_gcd_rows, gf_div_rows):
                with pytest.raises(ValueError, match="needs primes"):
                    kernel(one, one, ps)

    def test_division_by_a_zero_row_is_refused(self):
        a = np.array([[1, 1], [1, 1]], dtype=np.int64)
        b = np.array([[1, 0], [0, 0]], dtype=np.int64)
        with pytest.raises(ZeroDivisionError):
            gf_div_rows(a, b, np.array([7, 7], dtype=np.int64))


# primes p = 1 mod 2^s with a large s: 119 * 2^23 + 1, 7 * 2^26 + 1 and
# 15 * 2^27 + 1, where Tonelli-Shanks takes the most steps
DEEP_PRIMES = [998244353, 469762049, 2013265921]
SQRT_PRIMES = BATCH_PRIMES + TOP_PRIMES + DEEP_PRIMES + [3, 5, 7, 11, 13, 17, 41, 73, 97, 193, 257]


@st.composite
def sqrt_rows(draw):
    """Rows (a, p): a is 0, a square or any value mod p."""
    rows = []
    for p in draw(st.lists(st.sampled_from(SQRT_PRIMES), min_size=1, max_size=40)):
        x = draw(st.integers(0, p - 1))
        rows.append((draw(st.sampled_from([0, x * x % p, x])), p))
    return rows


class TestRowSqrt:
    @given(sqrt_rows())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_scalar_oracle(self, rows):
        a, p = (np.array(v, dtype=np.int64) for v in zip(*rows))
        for (ai, pi), r in zip(rows, sqrt_mod_rows(a, p).tolist()):
            want = sqrt_mod_prime(ai, pi)
            assert r == (-1 if want is None else want), (ai, pi)

    @pytest.mark.parametrize("p", TOP_PRIMES + DEEP_PRIMES)
    def test_zero_squares_and_nonresidues_at_the_edges(self, p):
        z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        xs = [1, 2, 3, p - 1, p // 2, 12345]
        a = [0] + [x * x % p for x in xs] + [z * x * x % p for x in xs]
        ps = np.full(len(a), p, dtype=np.int64)
        roots = sqrt_mod_rows(np.array(a, dtype=np.int64), ps)
        got = [None if r < 0 else r for r in roots.tolist()]
        assert got == [sqrt_mod_prime(ai, p) for ai in a]
        assert got.count(None) == len(xs)

    def test_rejects_primes_outside_the_exact_range(self):
        one = np.ones(1, dtype=np.int64)
        for p in (ROW_PRIME_BOUND + 11, 2):
            with pytest.raises(ValueError):
                sqrt_mod_rows(one, one * p)

    def test_empty_block(self):
        empty = np.empty(0, dtype=np.int64)
        assert sqrt_mod_rows(empty, empty).shape == (0,)

    @given(
        st.lists(st.tuples(st.integers(0, 2**62), st.integers(0, 2**40)), min_size=1, max_size=20),
        st.sampled_from(SQRT_PRIMES),
    )
    @settings(max_examples=100, deadline=None)
    def test_pow_rows_match_pow(self, rows, p):
        b = np.array([x % p for x, _ in rows], dtype=np.int64)
        e = np.array([y for _, y in rows], dtype=np.int64)
        got = pow_mod_rows(b, e, np.full(len(rows), p, dtype=np.int64))
        assert got.tolist() == [pow(x % p, y, p) for x, y in rows]

    @given(st.integers(-(2**200), 2**200), st.lists(st.sampled_from(SQRT_PRIMES), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_mod_rows_is_exact_for_any_size(self, c, primes):
        assert mod_rows(c, np.array(primes, dtype=np.int64)).tolist() == [c % p for p in primes]


def i64(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


class TestRowPower:
    """pow_mod_rows, by fixed windows of POW_WINDOW_BITS exponent bits,
    against pow, with exponents of every length in one batch, so most rows
    are shorter than the longest and start with windows of zeros."""

    @given(st.lists(st.tuples(st.sampled_from(SQRT_PRIMES), st.integers(1, 2**31)), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_fermat_inverses(self, rows):
        p, u = i64([q for q, _ in rows]), i64([max(x % q, 1) for q, x in rows])
        assert (u * pow_mod_rows(u, p - 2, p) % p == 1).all()

    @pytest.mark.parametrize("p", [2, 3, 257, 2**31 - 1])
    def test_every_bit_length(self, p):
        # three exponents of each length 1 .. 62, so the top bit falls in
        # every position of its window; all in one batch, then each alone
        e = [x for n in range(1, 63) for x in (1 << n - 1, (1 << n) - 1, (1 << n) - 1 ^ (1 << n) // 3)]
        assert [x.bit_length() for x in e] == [n for n in range(1, 63) for _ in range(3)]
        for b in {0, 1, 2 % p, p - 1, 12345 % p}:
            got = pow_mod_rows(i64([b] * len(e)), i64(e), i64([p] * len(e)))
            assert got.tolist() == [pow(b, x, p) for x in e], b
        for x in e:
            assert pow_mod_rows(i64([3 % p]), i64([x]), i64([p])).tolist() == [pow(3, x, p)], x

    def test_zero_exponents_and_empty_rows(self):
        p, zero = i64([2, 3, 7, 2**31 - 1]), i64([0] * 4)
        assert pow_mod_rows(zero, zero, p).tolist() == [1, 1, 1, 1]
        assert pow_mod_rows(p - 1, zero, p).tolist() == [1, 1, 1, 1]
        # e = 0 beside a long exponent: the row picks 1 from every window
        got = pow_mod_rows(i64([5, 5]), i64([0, 2**62 - 1]), i64([7, 7]))
        assert got.tolist() == [1, pow(5, 2**62 - 1, 7)]
        assert pow_mod_rows(i64([]), i64([]), i64([])).shape == (0,)


def reference_primes(limit: int) -> list[int]:
    """The primes up to limit by a plain sieve over every integer."""
    flags = bytearray([1]) * (limit + 1)
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [n for n in range(2, limit + 1) if flags[n]]


class TestPrimeHelpers:
    def test_sieve_matches_reference(self):
        ref = reference_primes(3000)
        for limit in range(3001):
            got = sieve_primes(limit)
            assert got.dtype == np.int64
            assert got.tolist() == ref[: bisect.bisect_right(ref, limit)]
        big = sieve_primes(10**6)
        assert len(big) == 78_498 and big.tolist() == reference_primes(10**6)

    @given(
        st.one_of(
            st.just(0),
            st.integers(-(2**80), 2**80),
            st.integers(-(10**4000), 10**4000),
            st.integers(-(2**100_000), 2**100_000),
            st.builds(lambda k, s: s * 7**k, st.integers(20_000, 60_000), st.sampled_from((1, -1))),
        ),
        st.one_of(
            # empty and one-element lists, and lengths at the leaf width's edges
            st.lists(st.sampled_from(SQRT_PRIMES), max_size=1),
            st.integers(1, 3).flatmap(
                lambda k: st.lists(
                    st.sampled_from(SQRT_PRIMES),
                    min_size=k * TREE_LEAF - 1,
                    max_size=k * TREE_LEAF + 1,
                )
            ),
            st.lists(
                st.one_of(
                    st.sampled_from(SQRT_PRIMES),
                    st.integers(1, 10**6),  # composite ones and 1 among them
                    st.integers(-(10**5), -1),
                ),
                max_size=60,
            ),
            # one modulus far longer than the rest, past the Newton crossover
            st.builds(
                lambda rest, long, at: rest[:at] + [long] + rest[at:],
                st.lists(st.sampled_from(SQRT_PRIMES), max_size=3 * TREE_LEAF),
                st.integers(2 ** (NEWTON_BITS - 40), 2 ** (NEWTON_BITS + 400)),
                st.integers(0, 3 * TREE_LEAF),
            ),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_tree_remainders_match_per_modulus(self, v, moduli):
        assert ProductTree(moduli).remainders(v) == [v % q for q in moduli]

    @pytest.mark.parametrize("limit", [3 * 10**4, 5 * 10**4])
    def test_tree_remainders_through_newton_nodes(self, limit):
        # the root and the nodes below it down to NEWTON_BITS are divided by
        # divmod_newton; v of three times the root's length, as b1 and N
        primes = sieve_primes(limit).tolist()
        tree = ProductTree(primes)
        assert tree.root.bit_length() >= 2 * NEWTON_BITS
        v = random.Random(limit).getrandbits(3 * tree.root.bit_length())
        for w in (v, -v):
            assert tree.remainders(w) == [w % q for q in primes]
        assert tree.remainders(v) == [v % q for q in primes]  # reciprocals reused

    def test_tree_of_no_moduli(self):
        tree = ProductTree([])
        assert tree.remainders(10**100) == [] and tree.root == 1 and tree.crt([]) == 0

    @pytest.mark.parametrize("at", [0, 1, TREE_LEAF, 3 * TREE_LEAF])
    def test_tree_zero_modulus_raises(self, at):
        moduli = SQRT_PRIMES[: 3 * TREE_LEAF]
        moduli.insert(at, 0)
        for v in (5, 3**40_000):
            with pytest.raises(ZeroDivisionError):
                ProductTree(moduli).remainders(v)

    @given(st.lists(st.integers(-(2**70), 2**70), max_size=4 * TREE_LEAF + 3))
    @settings(max_examples=100, deadline=None)
    def test_product_matches_math_prod(self, values):
        assert ProductTree(values).root == math.prod(values)

    @pytest.mark.parametrize(
        "n", [0, 1, TREE_LEAF, TREE_LEAF + 1, 4 * TREE_LEAF, 4 * TREE_LEAF + 1, 9592]
    )
    def test_product_of_the_first_primes(self, n):
        primes = sieve_primes(10**5).tolist()[:n]
        tree = ProductTree(primes)
        assert tree.root == math.prod(primes)
        # leaves of TREE_LEAF moduli, and every level multiplies out to the root
        assert len(tree.levels[0]) == -(-n // TREE_LEAF)
        assert all(math.prod(level) == tree.root for level in tree.levels)

    @pytest.mark.parametrize("bits", [NEWTON_BITS - 1, NEWTON_BITS, NEWTON_BITS + 1, 3 * NEWTON_BITS])
    def test_newton_division_matches_divmod(self, bits):
        rng = random.Random(bits)
        for m in (rng.getrandbits(bits) | 1 << (bits - 1), 1 << (bits - 1), (1 << bits) - 1):
            recip = reciprocal(m)
            assert abs(recip - 4 ** m.bit_length() // m) <= 4
            values = [
                0, 1, m - 1, m, 2 * m + 1, -m,  # v < m, v = 0, short quotients
                rng.getrandbits(2 * bits + NEWTON_BITS - 1),  # quotient just below
                rng.getrandbits(2 * bits + NEWTON_BITS) | 1 << (2 * bits + NEWTON_BITS - 1),
                rng.getrandbits(7 * bits),  # reduced from the top, n bits a step
                -rng.getrandbits(3 * bits + 5),
                m << (2 * bits),  # remainder 0
            ]
            for v in values:
                assert divmod_newton(v, m) == divmod(v, m)
                assert divmod_newton(v, m, recip) == divmod(v, m)


# a quadratic whose companion is above 2^64 and whose discriminant,
# -4 * c2 * 101 * 2003, vanishes mod 101 and 2003 (one double root there)
_BIG_C2 = 2**70 + 3
BIG_QUADRATIC = f"poly:[{_BIG_C2 * 49 + 101 * 2003},{-14 * _BIG_C2},{_BIG_C2}]"


@st.composite
def batch_cases(draw):
    """f of degree 3-6 with random coefficients, forced to have a repeated
    root mod one drawn prime (so that prime divides the discriminant) and,
    sometimes, a leading coefficient divisible by another."""
    primes = draw(st.lists(st.sampled_from(BATCH_PRIMES), min_size=2, max_size=10, unique=True))
    d = draw(st.integers(3, 6))
    q = primes[0]
    r = draw(st.integers(0, q - 1))
    g = draw(st.lists(st.integers(-50, 50), min_size=d - 1, max_size=d - 1))
    g[-1] = draw(st.integers(1, 20)) * (primes[1] if draw(st.booleans()) else 1)
    h = draw(st.lists(st.integers(-50, 50), min_size=d, max_size=d))
    # (x - r)^2 * g + q * h, ascending monomial coefficients
    sq = [r * r, -2 * r, 1]
    mono = [q * c for c in h] + [0]
    for i, gi in enumerate(g):
        for j, sj in enumerate(sq):
            mono[i + j] += gi * sj
    return IntPolynomial.from_monomial(mono), primes


class TestBatchedRoute:
    @given(batch_cases())
    @settings(max_examples=100, deadline=None)
    def test_rows_match_the_scan_oracle(self, case):
        f, primes = case
        comp = f.companion()
        # a prime dividing the leading coefficient is no row of a batch; the
        # rows that the first splitting round leaves whole are scanned, and
        # with SCAN_SPAN at 0 split by the later rounds
        batch = [p for p in primes if comp[-1] % p]
        for span in (modroots_mod.SCAN_SPAN, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(modroots_mod, "SCAN_SPAN", span)
                counts, flat = _roots_algebraic(comp, np.array(batch, dtype=np.int64))
            assert len(counts) == len(batch) and counts.sum() == len(flat)
            ends = np.cumsum(counts).tolist()
            rows = {p: tuple(flat[e - k : e].tolist()) for p, k, e in zip(batch, counts.tolist(), ends)}
            for p in primes:
                assert rows.get(p, ()) == oracle_roots(f, p), (f, p, span)
        for p in primes:
            assert roots_mod_p(f, p) == oracle_roots(f, p), (f, p)

    def test_fully_split_sextic(self):
        # (x-1)...(x-6) has six roots mod every prime > 6, so every row is
        # split down from degree 6 through mixed-degree groups
        mono = [1]
        for i in range(1, 7):
            mono = [a - i * b for a, b in zip([0] + mono, mono + [0])]
        f = IntPolynomial.from_monomial(mono)
        counts, flat = _roots_algebraic(f.companion(), np.array(BATCH_PRIMES, dtype=np.int64))
        assert counts.tolist() == [6] * len(BATCH_PRIMES)
        assert flat.tolist() == list(range(1, 7)) * len(BATCH_PRIMES)

    @pytest.mark.parametrize(
        "literal",
        [
            "poly:[2,0,0,1]",
            "poly:[1,2,3,0,4]",
            "poly:[3,3,0,0,0,1]",
            "poly:[2,0,0,0,0,0,1]",
            "poly:[1,0,1]",
            "poly:[7,5,3]",
            "poly:[-5,0,1]",
            "poly:[1,1,1]",
            pytest.param(BIG_QUADRATIC, id="big-quadratic"),
        ],
    )
    def test_table_equals_per_prime_route(self, literal):
        f = parse_poly_literal(literal)
        comp = f.companion()
        table = build_root_table(f, 3 * 10**4)
        for p in map(int, table.primes):
            if p <= f.degree or f.leading % p == 0:
                want = ()
            else:
                want = legacy_roots_algebraic(comp, p)
            assert roots_of(table, p) == want, p

    def test_big_quadratic_has_double_roots(self, monkeypatch):
        # its discriminant is far longer than any table, so every row goes
        # to the square root, the path test_table_equals_per_prime_route
        # checks it on
        def no_character(d):
            raise AssertionError("a character table was built")

        monkeypatch.setattr(modroots_mod, "jacobi_table", no_character)
        f = parse_poly_literal(BIG_QUADRATIC)
        assert max(map(abs, f.companion())) > 2**64
        table = build_root_table(f, 3000)
        assert roots_of(table, 101) == roots_of(table, 2003) == (7,)

    @staticmethod
    def record_powers(monkeypatch):
        """Patch pow_mod_rows wherever the root finder calls it; the list
        gets the (exponents, primes) of every call."""
        calls = []

        def recording(b, e, p):
            calls.append((e.copy(), p.copy()))
            return pow_mod_rows(b, e, p)

        for mod in (gfpoly_mod, primes_mod, modroots_mod):
            monkeypatch.setattr(mod, "pow_mod_rows", recording)
        return calls

    @staticmethod
    def fermat_rows(calls):
        # at p = 3 the square-root exponent (p + 1)/4 is also p - 2 = 1
        return sum(int(((e == p - 2) & (p > 3)).sum()) for e, p in calls)

    def test_monic_tables_take_no_fermat_inverse(self, monkeypatch):
        calls = self.record_powers(monkeypatch)

        def no_pow(*args):
            raise AssertionError("a per-prime pow")

        monkeypatch.setattr(modroots_mod, "pow", no_pow, raising=False)
        build_root_table(IntPolynomial.from_monomial([0, 1]), 10**4)
        assert calls == []
        build_root_table(IntPolynomial.from_monomial([1, 0, 1]), 10**4)
        assert calls and self.fermat_rows(calls) == 0

    def test_cubic_inverts_only_gcds_of_positive_degree(self, monkeypatch):
        calls = self.record_powers(monkeypatch)
        gcds = []  # per gf_gcd_rows call: its slice of calls and its positive-degree rows

        def recording_gcd(a, b, p):
            start = len(calls)
            g = gf_gcd_rows(a, b, p)
            gcds.append((start, len(calls), int((gf_degree_rows(g) > 0).sum())))
            return g

        monkeypatch.setattr(modroots_mod, "gf_gcd_rows", recording_gcd)
        build_root_table(IntPolynomial.from_monomial([2, 0, 0, 1]), 10**4)
        positive = [k for _, _, k in gcds]
        assert sum(positive) > 0
        assert [self.fermat_rows(calls[i:j]) for i, j, _ in gcds] == positive
        assert self.fermat_rows(calls) == sum(positive)

    def test_limit_at_the_kernel_bound_refused_before_sieving(self, f_x, monkeypatch):
        def no_sieve(limit):
            raise AssertionError("sieved")

        monkeypatch.setattr(modroots_mod, "sieve_primes", no_sieve)
        for limit in (ROW_PRIME_BOUND, 2**40):
            with pytest.raises(ValueError, match="below"):
                build_root_table(f_x, limit)


def jacobi(a: int, m: int) -> int:
    """(a | m) for odd m > 0, by the textbook loop of reciprocity steps."""
    a, t = a % m, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                t = -t
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            t = -t
        a %= m
    return t if m == 1 else 0


@st.composite
def quadratics(draw):
    """Monomial coefficients of c2 x^2 + c1 x + c0, all in [-50, 50]: drawn
    freely, or as c2 (x - r)(x - t), whose discriminant is a square (0 for
    r = t); then times a content, and negated when c2 < 0, since a leading
    coefficient is positive and -f has the roots of f."""
    if draw(st.booleans()):
        c2 = draw(st.integers(-50, 50).filter(bool))
        c1, c0 = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    else:
        c2, r, t = draw(st.integers(-3, 3).filter(bool)), draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        c1, c0 = -c2 * (r + t), c2 * r * t
    k = draw(st.integers(1, 50 // max(map(abs, (c0, c1, c2)))))
    sign = 1 if c2 > 0 else -1
    return [sign * k * c for c in (c0, c1, c2)]


class TestCharacterFilter:
    """Quadratic tables skip the primes where the discriminant D is a
    non-residue, read off `primes.jacobi_table`; a discriminant is 0 or 1
    mod 4, so the helper is also checked at every other d."""

    def test_character_is_eulers_criterion(self):
        primes = sieve_primes(10**4)[1:]
        for d in range(-60, 61):
            if d:
                chi = jacobi_table(d)
                assert chi.dtype == np.int8
                assert len(chi) == (abs(d) if d % 4 < 2 else 4 * abs(d))
                # Euler's criterion, with p - 1 read as -1
                want = [(pow(d, (p - 1) // 2, p) + 1) % p - 1 for p in primes.tolist()]
                assert chi[primes % len(chi)].tolist() == want, d

    def test_every_odd_m_against_the_reciprocity_loop(self):
        for d in [*range(-60, 0), *range(1, 61), -163, -252, 72, 1000, 2**7 * 3, -(3**4) * 5]:
            chi = jacobi_table(d)
            for m in range(1, 3 * len(chi), 2):
                assert chi[m % len(chi)] == jacobi(d, m), (d, m)

    @given(quadratics())
    @example([-2, 0, 1])  # D = 8
    @example([41, 1, 1])  # D = -163
    @example([1, 2, 1])  # D = 0
    @example([-3, 2, 1])  # (x - 1)(x + 3), D = 16
    @example([7, 5, 3])  # D = -59
    @example([10, 0, 5])  # content 5, x^2 + 2: D = -8
    @settings(max_examples=100, deadline=None)
    def test_table_matches_the_oracle(self, mono):
        f = IntPolynomial.from_monomial(mono)
        table = build_root_table(f, 2000)
        for p in table.primes.tolist():
            assert roots_of(table, p) == oracle_roots(f, p), (mono, p)

    def test_only_residue_rows_reach_the_square_root(self, f_x2p1, monkeypatch):
        seen = []

        def recording(a, p):
            seen.append(p.copy())
            return sqrt_mod_rows(a, p)

        monkeypatch.setattr(modroots_mod, "sqrt_mod_rows", recording)
        table = build_root_table(f_x2p1, 10**4)
        # -1 is a square mod p exactly when p = 1 mod 4
        assert np.concatenate(seen).tolist() == [p for p in table.primes.tolist() if p % 4 == 1]


# polynomials whose row accessors are checked against roots_mod_p: the
# last has roots mod 5 without its top term, but 5 divides its leading
# coefficient, so 5 is no row
ROW_POLYS = {"x": [0, 1], "x^2+1": [1, 0, 1], "x^3+2": [2, 0, 0, 1], "5x^3+3x^2-x+1": [1, -1, 3, 5]}
ROW_LIMIT = 1500
# bounds as callers pass them: integers, and floats such as x/2, 3x/4 and
# y / (xi H), from below 0 to beyond the limit
ROW_BOUNDS = st.one_of(
    st.integers(-5, ROW_LIMIT + 100),
    st.floats(-5, ROW_LIMIT + 100, allow_nan=False),
    st.integers(0, 2 * ROW_LIMIT).map(lambda x: x / 2),
    st.integers(0, 2 * ROW_LIMIT).map(lambda x: 3 * x / 4),
)


@pytest.fixture(scope="module")
def row_tables(tmp_path_factory):
    """Per polynomial: roots_mod_p at every prime up to ROW_LIMIT, a fresh
    table, and the same table read back from a cache (u1 counts and u4
    roots, in read-only arrays)."""
    cache_dir = str(tmp_path_factory.mktemp("rows"))
    out = {}
    for name, mono in ROW_POLYS.items():
        f = IntPolynomial.from_monomial(mono)
        oracle = {p: roots_mod_p(f, p) for p in sieve_primes(ROW_LIMIT).tolist()}
        fresh = build_root_table(f, ROW_LIMIT, cache_dir=cache_dir)
        warm = build_root_table(f, ROW_LIMIT, cache_dir=cache_dir)
        assert warm.counts.dtype == np.uint8 and warm.flat.dtype == np.dtype("<u4")
        assert not warm.counts.flags.writeable and not warm.flat.flags.writeable
        out[name] = oracle, (fresh, warm)
    return out


# the benchmark's polynomials, one with three real roots, and a quartic;
# their tables up to each limit (3000 scans degree 3 and more, 2 * 10^4 takes
# the algebraic route)
LISTED_POLYS = {
    "x": [0, 1], "x^2+1": [1, 0, 1], "x^3+2": [2, 0, 0, 1], "x^3-3x+1": [1, -3, 0, 1],
    "x^4+x+1": [1, 1, 0, 0, 1],
}
LISTED_LIMITS = (3000, 20_000)


@pytest.fixture(scope="module")
def listed_tables():
    out = {}
    for name, mono in LISTED_POLYS.items():
        f = IntPolynomial.from_monomial(mono)
        for limit in LISTED_LIMITS:
            out[name, limit] = f, build_root_table(f, limit)
    return out


class TestRootTable:
    @given(name=st.sampled_from(list(ROW_POLYS)), lo=ROW_BOUNDS, hi=ROW_BOUNDS)
    @example(name="x^2+1", lo=750.0, hi=1125.0)
    @example(name="x^3+2", lo=1125.0, hi=1500)
    @example(name="x", lo=700, hi=700)
    @example(name="x", lo=800, hi=700.5)
    @example(name="5x^3+3x^2-x+1", lo=4, hi=5)
    @settings(max_examples=300, deadline=None)
    def test_rows_match_roots_mod_p(self, row_tables, name, lo, hi):
        # the usable primes q with lo < q <= hi, their counts and roots, by
        # slices of a fresh table and of a cached one alike
        oracle, tables = row_tables[name]
        want = [(p, r) for p, r in oracle.items() if lo < p <= hi and r]
        for table in tables:
            q, k, roots = table.rows(lo, hi)
            assert q.tolist() == [p for p, _ in want]
            assert k.tolist() == [len(r) for _, r in want]
            assert roots.tolist() == [a for _, r in want for a in r]

    @given(
        name=st.sampled_from(list(LISTED_POLYS)),
        limit=st.sampled_from(LISTED_LIMITS),
        share=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    # every prime up to the limit: the scan below SCAN_SPAN, the algebraic
    # route beyond it
    @example(name="x^3+2", limit=3000, share=1.0, seed=0)
    @example(name="x^4+x+1", limit=20_000, share=1.0, seed=0)
    @settings(max_examples=100, deadline=None)
    def test_listed_primes_match_the_table(self, listed_tables, name, limit, share, seed):
        # roots_mod_primes on any ascending subset of the primes up to the
        # limit gives each its row of the full table: the counts (0 for a
        # prime without roots or at most the degree) and the roots
        f, table = listed_tables[name, limit]
        primes = sieve_primes(limit)
        subset = primes[np.random.default_rng(seed).random(len(primes)) < share]
        counts, flat = modroots_mod.roots_mod_primes(f, subset)
        want = [roots_of(table, q) for q in subset.tolist()]
        assert counts.tolist() == [len(r) for r in want]
        assert flat.tolist() == [a for r in want for a in r]

    def test_usable_primes(self, table_x2p1_100):
        # p = 1 mod 4, plus nothing else below 100
        assert usable_between(table_x2p1_100, 0, table_x2p1_100.limit) == [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]

    def test_usable_between_accepts_floats(self, table_x_100):
        # every prime is usable for f = x
        assert usable_between(table_x_100, 50, 75) == [53, 59, 61, 67, 71, 73]
        assert usable_between(table_x_100, 50.0, 75.0) == [53, 59, 61, 67, 71, 73]
        assert usable_between(table_x_100, 75, 100) == [79, 83, 89, 97]

    def test_bounds_are_open_closed(self, table_x_100, table_x2p1_100):
        assert 53 in usable_between(table_x_100, 53 - 1, 53)
        assert 53 not in usable_between(table_x_100, 53, 60)
        # primes without roots are skipped: 7 and 11 have none for x^2 + 1
        assert usable_between(table_x2p1_100, 5, 17) == [13, 17]

    def test_root_count(self, table_x2p1_100):
        # x^2 + 1 splits mod 13 (5^2 = 25 = -1) and has no root mod 7
        assert roots_of(table_x2p1_100, 13) == (5, 8)
        assert roots_of(table_x2p1_100, 7) == ()

    def test_density_product_matches_direct(self, table_x2p1_100, table_x2p1_2000):
        # the running product keeps the loop's order, so the floats are equal
        for table, hi in ((table_x2p1_100, 50), (table_x2p1_2000, 1000.5)):
            direct = 1.0
            for q in usable_between(table, 0, hi):
                direct *= 1.0 - len(roots_of(table, q)) / q
            assert table.density_product(hi) == direct

    def test_companion_eval_mod_matches_bigint(self, f_x2p1):
        comp = f_x2p1.companion()
        big = 10**50 + 12345
        for p in (13, 97, 12553):
            expect = sum(c * big**i for i, c in enumerate(comp)) % p
            assert companion_eval_mod(comp, big, p) == expect


# degree 3 to 5: negative coefficients, a companion of content 12
# (2x^3 + 4x - 6), non-monic ones, and (x - 1)(x - 2)...(x - 5), which has
# five roots mod every prime above 5
SCAN_CASES = [
    "poly:[2,0,0,1]",
    "poly:[1,-3,0,1]",
    "poly:[-6,4,0,2]",
    "poly:[1,-1,3,5]",
    "poly:[1,1,0,0,1]",
    "poly:[1,0,0,0,1]",
    "poly:[7,0,1,0,0,3]",
    "poly:[-120,274,-225,85,-15,1]",
]

# the primes up to this limit sum to about twice SCAN_SPAN
TWICE_THE_SPAN = 5860


class TestDivisorTest:
    @pytest.mark.parametrize("width", [np.uint32, np.uint64])
    @given(
        p=st.integers(2, 2**30 - 1).map(lambda h: 2 * h + 1),
        k=st.integers(1, 2**64),
        v=st.integers(0, 2**64 - 1),
    )
    @example(p=5, k=1, v=0)
    @example(p=2**31 - 1, k=2**64, v=2**64 - 1)
    @settings(max_examples=200, deadline=None)
    def test_multiply_and_compare_is_divisibility(self, width, p, k, v):
        # odd p from 5 to 2^31 - 1 against 0, p, k p and k p +- 1, the
        # largest multiple of p below 2^bits, 2^bits - 1 and any v, the drawn
        # k and v brought into range
        top = np.iinfo(width).max
        k = 1 + k % (top // p)
        vs = [0, p, k * p, k * p - 1, k * p + 1, top // p * p, top, v & top]
        vs = [u for u in vs if u <= top]
        inverse, threshold = _divisor_test(np.array([p], dtype=np.int64), width)
        assert inverse.dtype == threshold.dtype == width
        assert int(inverse[0]) * p % (top + 1) == 1
        marked = np.array(vs, dtype=width) * inverse <= threshold
        assert marked.tolist() == [u % p == 0 for u in vs], (p, vs)


@st.composite
def scan_polys(draw):
    """f of degree 3-5 from random monomial coefficients."""
    d = draw(st.integers(3, 5))
    mono = draw(st.lists(st.integers(-40, 40), min_size=d, max_size=d))
    return IntPolynomial.from_monomial(mono + [draw(st.integers(1, 40))])


class TestScanRoute:
    @staticmethod
    def spy_routes(mp):
        """Record, in the list returned, the name of each root route that
        the table builder runs."""
        taken = []
        for name in ("_roots_algebraic", "_roots_scan"):

            def spy(comp, ps, name=name, route=getattr(modroots_mod, name)):
                taken.append(name)
                return route(comp, ps)

            mp.setattr(modroots_mod, name, spy)
        return taken

    def forced_tables(self, mp, f, limit):
        """f's tables up to limit with SCAN_SPAN at 0 and at 2^62, and the
        routes that built them."""
        taken = self.spy_routes(mp)
        tables = []
        for span in (0, 2**62):
            mp.setattr(modroots_mod, "SCAN_SPAN", span)
            tables.append(build_root_table(f, limit))
        return tables, taken

    @staticmethod
    def assert_same_table(a, b):
        assert a.primes.tolist() == b.primes.tolist()
        assert a.counts.tolist() == b.counts.tolist()
        assert a.flat.tolist() == b.flat.tolist()

    @pytest.mark.parametrize("block", [modroots_mod.SCAN_BLOCK, 2**15, 60, 7])
    @pytest.mark.parametrize("literal", SCAN_CASES)
    def test_scan_equals_algebraic_and_oracle(self, literal, block, monkeypatch):
        # 2^15 cells, half the default, is the block the scan had before it
        # read one row per block; at 60 cells the first block holds 5, 7, 11
        # and 13, in rows of 13 values; at 7 every prime is a block of its own
        monkeypatch.setattr(modroots_mod, "SCAN_BLOCK", block)
        f = parse_poly_literal(literal)
        (alg, scan), taken = self.forced_tables(monkeypatch, f, 1000)
        assert taken == ["_roots_algebraic", "_roots_scan"]
        self.assert_same_table(alg, scan)
        for p in map(int, scan.primes):
            assert roots_of(scan, p) == oracle_roots(f, p), p

    @given(f=scan_polys(), limit=st.integers(2, TWICE_THE_SPAN))
    @settings(max_examples=30, deadline=None)
    def test_routes_agree_on_random_polynomials(self, f, limit):
        comp = f.companion()
        content = math.gcd(*comp)
        rows = [int(p) for p in sieve_primes(limit) if p > f.degree and comp[-1] % p]
        fits = bool(rows) and sum(abs(c // content) * rows[-1] ** i for i, c in enumerate(comp)) < 2**63
        with pytest.MonkeyPatch.context() as mp:
            (alg, scan), taken = self.forced_tables(mp, f, limit)
        assert taken == ["_roots_algebraic", "_roots_scan" if fits else "_roots_algebraic"]
        self.assert_same_table(alg, scan)
        natural = build_root_table(f, limit)
        self.assert_same_table(alg, natural)
        for p in map(int, natural.primes):
            assert roots_of(natural, p) == oracle_roots(f, p), p

    @given(
        coeffs=st.integers(3, 4).flatmap(lambda d: st.lists(st.integers(-40, 40), min_size=d, max_size=d)),
        lead=st.integers(1, 40),
        limit=st.integers(5000, 15000),
    )
    @settings(max_examples=20, deadline=None)
    def test_routes_agree_where_the_tail_is_scanned(self, coeffs, lead, limit):
        # cubics and quartics where whole tables take the algebraic route
        # and the rows its first splitting round leaves whole may be scanned:
        # the table is the one the kernel rounds alone give, and a scanned
        # tail row holds the oracle's roots
        f = IntPolynomial.from_monomial(coeffs + [lead])
        with pytest.MonkeyPatch.context() as mp:
            tails = self.spy_tails(mp)
            natural = build_root_table(f, limit)
            mp.setattr(modroots_mod, "SCAN_SPAN", 0)
            self.assert_same_table(natural, build_root_table(f, limit))
        for q in tails:
            for p in q:
                assert roots_of(natural, p) == oracle_roots(f, p), p

    @pytest.mark.parametrize(
        "literal, limit",
        [
            ("poly:[2,0,0,1]", 5000),
            ("poly:[2,0,0,1]", 10**4),
            ("poly:[1,-3,0,1]", 5000),
            ("poly:[1,-3,0,1]", 10**4),
            ("poly:[1,1,0,0,1]", 5000),
            ("poly:[1,1,0,0,1]", 10**4),
            ("poly:[1,1,0,0,1]", 15000),
        ],
    )
    def test_tail_rows_are_scanned(self, literal, limit, monkeypatch):
        # the algebraic route takes the table, then the scan the rows that
        # its first round left a factor of degree 3 or more; a quartic's
        # round can split a row partly, one root off three, and what it
        # found for such a row is dropped for the scan's whole root set
        f = parse_poly_literal(literal)
        tails = self.spy_tails(monkeypatch)
        table = build_root_table(f, limit)
        monkeypatch.setattr(modroots_mod, "SCAN_SPAN", 0)
        self.assert_same_table(table, build_root_table(f, limit))
        (tail,) = tails
        partly = 0
        for p in tail:
            roots = oracle_roots(f, p)
            assert roots_of(table, p) == roots and len(roots) >= 3, p
            # the roots that round 1's shift a1 sends to one side of its cut
            a1 = modroots_mod.SHIFT_STEP % p
            side = {pow(r + a1, (p - 1) // 2, p) == 1 for r in roots}
            partly += len(side) == 2
        assert bool(partly) == (f.degree == 4), partly

    @staticmethod
    def spy_tails(mp):
        """Record, in the list returned, the primes (as ints) of each scan
        that a table build runs: from x = 5000 on, where no whole table of
        degree 3 or more is scanned, those of the algebraic route's tail."""
        tails = []
        scan = modroots_mod._roots_scan

        def spy(comp, ps):
            tails.append(ps.tolist())
            return scan(comp, ps)

        mp.setattr(modroots_mod, "_roots_scan", spy)
        return tails

    @pytest.mark.parametrize(
        "literal, limit, width",
        [
            # 1620^3 + 2 is below 2^32 and 1626^3 + 2 above; 1621 and 1627
            # are consecutive primes
            ("poly:[2,0,0,1]", 1621, np.uint32),
            ("poly:[2,0,0,1]", 1627, np.uint64),
            # 250^4 + 251 is below 2^32 and 256^4 is 2^32
            ("poly:[1,1,0,0,1]", 251, np.uint32),
            ("poly:[1,1,0,0,1]", 257, np.uint64),
            # x^3 - 3x + 1 is -1 at 1 and crosses 2^32 between 1625 and 1626;
            # x^3 - 90x^2 - 7 is negative at every t below 91
            ("poly:[1,-3,0,1]", 1621, np.uint32),
            ("poly:[1,-3,0,1]", 1627, np.uint64),
            ("poly:[-7,0,-90,1]", 1000, np.uint32),
        ],
    )
    def test_word_width_by_the_largest_value(self, literal, limit, width, monkeypatch):
        # `width` is that of the block of the largest prime
        f = parse_poly_literal(literal)
        widths = self.spy_widths(monkeypatch)
        (alg, scan), taken = self.forced_tables(monkeypatch, f, limit)
        assert taken == ["_roots_algebraic", "_roots_scan"]
        assert widths[-1][0] == width
        self.assert_word_widths(f, widths, scan)
        self.assert_same_table(alg, scan)
        for p in map(int, scan.primes):
            assert roots_of(scan, p) == oracle_roots(f, p), p

    @pytest.mark.parametrize("literal", ["poly:[2,0,0,1]", "poly:[1,-3,0,1]"])
    @pytest.mark.parametrize("limit", [2000, 3000])
    def test_tables_across_the_32_bit_edge(self, literal, limit, monkeypatch):
        # both cubics pass 2^32 at t = 1626: the blocks below it read 32-bit
        # words, the rest 64-bit ones, and the table is the algebraic one
        f = parse_poly_literal(literal)
        widths = self.spy_widths(monkeypatch)
        (alg, scan), taken = self.forced_tables(monkeypatch, f, limit)
        assert taken == ["_roots_algebraic", "_roots_scan"]
        assert [w for w, _ in widths] == [np.uint32, np.uint64]
        assert max(widths[0][1]) < 1626 < max(widths[1][1])
        self.assert_word_widths(f, widths, scan)
        self.assert_same_table(alg, scan)
        for p in map(int, scan.primes):
            assert roots_of(scan, p) == oracle_roots(f, p), p

    @staticmethod
    def spy_widths(mp):
        """Record, in the list returned, the word width and the primes of
        each divisor test that the scan takes."""
        widths = []

        def spy(q, w):
            widths.append((w, q.tolist()))
            return _divisor_test(q, w)

        mp.setattr(modroots_mod, "_divisor_test", spy)
        return widths

    @staticmethod
    def assert_word_widths(f, widths, table):
        """Every row prime is tested once, in order, at most one run per
        width; the 32-bit run holds only primes up to the first t with
        |v(t)| >= 2^32, for the primitive part v of f's companion, and the
        64-bit run follows it."""
        comp = f.companion()
        v = [c // math.gcd(*comp) for c in comp]
        first = next((t for t in range(int(table.primes[-1])) if abs(sum(c * t**i for i, c in enumerate(v))) >= 2**32), None)
        rows = [int(p) for p in table.primes if p > f.degree and comp[-1] % p]
        assert [q for _, ps in widths for q in ps] == rows
        assert [w for w, _ in widths] in ([np.uint32], [np.uint64], [np.uint32, np.uint64])
        if widths[0][0] == np.uint32 and first is not None:
            assert max(widths[0][1]) <= first

    def test_values_at_the_int64_edge(self, monkeypatch):
        # c x^3 + 1 with c * 997^3 + 1 just below 2^63 (997, the largest
        # prime below 1000, does not divide c): scanned, and exact there;
        # one more in c takes the algebraic route
        c = (2**63 - 2) // 997**3
        assert c % 997
        taken = self.spy_routes(monkeypatch)
        for lead, route in ((c, "_roots_scan"), (c + 1, "_roots_algebraic")):
            f = IntPolynomial.from_monomial([1, 0, 0, lead])
            table = build_root_table(f, 1000)
            assert taken[-1] == route
            for p in map(int, table.primes):
                assert roots_of(table, p) == oracle_roots(f, p), (lead, p)

    def test_overflowing_values_take_the_algebraic_route(self, monkeypatch):
        # x^5 + 2^40 x^3 + 3 reaches about 2^70 below 1000, so even a span
        # without bound leaves it to the algebraic route
        f = IntPolynomial.from_monomial([3, 0, 0, 2**40, 0, 1])
        taken = self.spy_routes(monkeypatch)
        monkeypatch.setattr(modroots_mod, "SCAN_SPAN", 2**62)
        table = build_root_table(f, 1000)
        assert taken == ["_roots_algebraic"]
        for p in map(int, table.primes):
            assert roots_of(table, p) == oracle_roots(f, p), p

    def test_route_by_span_and_degree(self, monkeypatch):
        # below the span a cubic is scanned and a quadratic is not; the
        # cubic's table is scanned up to the last prime that keeps its rows'
        # sum within the span, and not from the next prime on. The route is
        # the one roots_mod_primes picks, the first of a build: an algebraic
        # table may scan its tail after that
        cubic = IntPolynomial.from_monomial([2, 0, 0, 1])
        taken = self.spy_routes(monkeypatch)
        build_root_table(IntPolynomial.from_monomial([1, 0, 1]), 1000)
        assert taken == ["_roots_algebraic"]
        rows = sieve_primes(6000)[2:]  # the rows of x^3 + 2, all but 2 and 3
        last = int(np.searchsorted(np.cumsum(rows), modroots_mod.SCAN_SPAN, side="right")) - 1
        for limit, route in ((1000, "_roots_scan"), (int(rows[last]), "_roots_scan"), (int(rows[last + 1]), "_roots_algebraic")):
            taken.clear()
            build_root_table(cubic, limit)
            assert taken[0] == route, limit


class TestCache:
    def test_round_trip(self, f_x2p1, tmp_path):
        d = str(tmp_path)
        t1 = build_root_table(f_x2p1, 3000, cache_dir=d)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        t2 = build_root_table(f_x2p1, 3000, cache_dir=d)
        assert all_rows(t1) == all_rows(t2)

    def test_corrupt_cache_is_rebuilt(self, f_x2p1, tmp_path):
        d = str(tmp_path)
        build_root_table(f_x2p1, 1000, cache_dir=d)
        (path,) = list(tmp_path.iterdir())
        path.write_bytes(b"\x00garbage\xff" * 7)
        t = build_root_table(f_x2p1, 1000, cache_dir=d)
        assert roots_of(t, 13) == (5, 8)

    def test_truncated_or_ragged_cache_is_not_read(self, f_x2p1, tmp_path):
        d = str(tmp_path)
        build_root_table(f_x2p1, 1000, cache_dir=d)
        (path,) = list(tmp_path.iterdir())
        data = path.read_bytes()
        primes = sieve_primes(1000)
        n = len(primes)
        assert _read_cache(str(path), f_x2p1, 1000, primes) is not None
        # a 24-byte header, one u1 root count per prime, then every root as
        # u4; 13 = 1 mod 4 has two roots
        at13 = 24 + int(np.searchsorted(primes, 13))
        assert data[at13] == 2
        # three roots for 13 exceed the degree, though the lengths agree
        too_many = data[:at13] + b"\x03" + data[at13 + 1 :] + bytes(4)
        # the roots of 13, (5, 8), replaced: out of range, at the prime,
        # swapped and repeated
        roots13 = 24 + n + 4 * sum(data[24:at13])
        assert data[roots13 : roots13 + 8] == np.array([5, 8], dtype="<u4").tobytes()

        def with_roots13(*rs):
            return data[:roots13] + np.array(rs, dtype="<u4").tobytes() + data[roots13 + 8 :]

        for bad in (
            data[:10], data[: 24 + n - 1], data[: 24 + n], data[:-4], data[:-3],
            data + b"\x00", data + bytes(4), too_many, b"CFROOTS1" + data[8:],
            with_roots13(4 * 10**9, 8), with_roots13(5, 13), with_roots13(8, 5), with_roots13(5, 5),
        ):
            path.write_bytes(bad)
            assert _read_cache(str(path), f_x2p1, 1000, primes) is None
        # a file written for another prime list does not parse either
        path.write_bytes(data)
        assert _read_cache(str(path), f_x2p1, 1000, sieve_primes(990)) is None
        path.write_bytes(data[: 24 + n])
        assert all_rows(build_root_table(f_x2p1, 1000, cache_dir=d)) == all_rows(build_root_table(f_x2p1, 1000))
        assert path.read_bytes() == data

    def test_distinct_polys_do_not_collide(self, f_x, f_x2p1, tmp_path):
        d = str(tmp_path)
        build_root_table(f_x, 500, cache_dir=d)
        build_root_table(f_x2p1, 500, cache_dir=d)
        assert len(list(tmp_path.iterdir())) == 2
        assert roots_of(build_root_table(f_x, 500, cache_dir=d), 13) == (0,)
        assert roots_of(build_root_table(f_x2p1, 500, cache_dir=d), 13) == (5, 8)

    @pytest.mark.parametrize("literal, digest, limit", list(CACHE_PINS.values()), ids=list(CACHE_PINS))
    def test_cache_bytes_pinned(self, literal, digest, limit, tmp_path):
        f = parse_poly_literal(literal)
        assert cache_digest(f, limit, str(tmp_path)) == digest
        assert all_rows(build_root_table(f, limit, cache_dir=str(tmp_path))) == all_rows(build_root_table(f, limit))

    def test_cached_equals_fresh(self, tmp_path, monkeypatch):
        # x, x^2 + 1, x^3 + 2, and 5x^3 + 3x^2 - x + 1 with no roots mod 5
        polys = [IntPolynomial.from_monomial(m) for m in ([0, 1], [1, 0, 1], [2, 0, 0, 1], [1, -1, 3, 5])]
        cold = [build_root_table(f, 2000) for f in polys]
        for f in polys:
            build_root_table(f, 2000, cache_dir=str(tmp_path))

        def no_roots(*args):
            raise AssertionError("a cached table was recomputed")

        for route in ("_roots_algebraic", "_roots_scan"):
            monkeypatch.setattr(modroots_mod, route, no_roots)
        for f, c in zip(polys, cold):
            warm = build_root_table(f, 2000, cache_dir=str(tmp_path))
            assert all_rows(warm) == all_rows(c)
            assert warm.counts.tolist() == c.counts.tolist()
            assert warm.flat.tolist() == c.flat.tolist()

    def test_cached_stats_build_no_roots_map(self, f_x2p1, tmp_path):
        build_root_table(f_x2p1, 10**5, cache_dir=str(tmp_path))
        table = build_root_table(f_x2p1, 10**5, cache_dir=str(tmp_path))
        density_stats(table)
        density_stats(table, limit=10**4)
        # the stats read the counts alone, never the index behind the rows
        assert "_usable" not in vars(table)


class TestDensityStats:
    def test_against_inline_recomputation(self, f_x2p1):
        table = build_root_table(f_x2p1, 1000)
        st_ = density_stats(table)
        primes = [int(p) for p in sieve_primes(1000)]
        nus = {p: len(oracle_roots(f_x2p1, p)) for p in primes}
        usable = [p for p in primes if nus[p] > 0]
        assert st_.n_primes == len(primes) == 168
        assert st_.n_usable == len(usable)
        assert st_.mertens_sum == pytest.approx(sum(nus[p] / p for p in primes))
        sigma = 1.0
        for p in primes:
            sigma *= 1.0 - nus[p] / p
        assert st_.sigma == pytest.approx(sigma)
        assert st_.rho_hat == pytest.approx(len(usable) / len(primes))
        assert st_.rho_hat_norm == pytest.approx(len(usable) / (1000 / math.log(1000)))
        assert st_.rho_nu_hat[2] == pytest.approx(
            sum(1 for p in primes if nus[p] == 2) / len(primes)
        )
        assert st_.nu_weighted_sum == pytest.approx(
            sum(k * v for k, v in st_.rho_nu_hat.items())
        )

    @pytest.mark.parametrize("coeffs,limit", [([1, 0, 1], None), ([1, 0, 1], 1000),
                                              ([1, 0, 1], 7), ([2, 0, 0, 1], None)])
    def test_bit_identical_to_per_prime_loop(self, coeffs, limit):
        # the sums and the product run in the same order as in a walk over
        # numpy scalars, so every float is equal, not only close
        table = build_root_table(IntPolynomial.from_monomial(coeffs), 3000)
        x = table.limit if limit is None else min(limit, table.limit)
        mert, sigma, counts, n_primes = 0.0, 1.0, {}, 0
        for p in table.primes:
            p = int(p)
            if p > x:
                break
            n_primes += 1
            k = len(roots_of(table, p))
            if k:
                mert += k / p
                sigma *= 1.0 - k / p
                counts[k] = counts.get(k, 0) + 1
        st_ = density_stats(table, limit)
        assert (st_.n_primes, st_.mertens_sum, st_.sigma) == (n_primes, mert, sigma)
        assert st_.rho_nu_hat == {k: c / n_primes for k, c in sorted(counts.items())}

    def test_linear_poly_has_all_primes_usable(self, table_x_100):
        st_ = density_stats(table_x_100)
        assert st_.rho_hat == 1.0
        assert st_.nu_weighted_sum == 1.0

    def test_restricted_limit(self, table_x2p1_100):
        st_ = density_stats(table_x2p1_100, limit=50)
        assert st_.x == 50
        assert st_.n_primes == 15


@pytest.fixture(scope="module")
def table_x3p2_1000():
    table = build_root_table(parse_poly_literal("poly:[2,0,0,1]"), 1000)
    assert max(table.rows(0, 1000)[1]) == 3
    return table


class TestResidueCollisions:
    def brute(self, table, m, qmin, qmax):
        count = 0
        for q in usable_between(table, qmin, qmax):
            roots = roots_of(table, q)
            diffs = {(a - b) % q for a in roots for b in roots}
            if m % q in diffs:
                count += 1
        return count

    def test_linear_hand_case(self, table_x_100):
        # every I_q is {0}, so collisions count primes dividing m
        assert residue_collision_count(table_x_100, 6, 2, 10) == 1  # q = 3
        assert residue_collision_count(table_x_100, 35, 2, 10) == 2  # q = 5, 7
        assert residue_collision_count(table_x_100, 1, 2, 10) == 0

    @given(m=st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, m, table_x2p1_100, table_x3p2_1000):
        got = residue_collision_count(table_x2p1_100, m, 10, 100)
        assert got == self.brute(table_x2p1_100, m, 10, 100)
        # x^3 + 2 has three roots mod every prime where it splits, so
        # every ordered pair of root slots is tried
        got = residue_collision_count(table_x3p2_1000, m, 10, 1000)
        assert got == self.brute(table_x3p2_1000, m, 10, 1000)

    def test_quadratic_hand_case(self, table_x2p1_100):
        # x^2 + 1 has the roots 5 and 8 mod 13, which differ by 3; it has
        # none mod 7 and 11
        assert residue_collision_count(table_x2p1_100, 3, 6, 13) == 1
        assert residue_collision_count(table_x2p1_100, 3 + 13 * 7, 12, 13) == 1
        assert residue_collision_count(table_x2p1_100, 4, 12, 13) == 0

    def test_zero_difference_counts(self, table_x2p1_100):
        # m = 0 mod q hits the self-difference for every usable q
        m = 5 * 13 * 17
        assert residue_collision_count(table_x2p1_100, m, 2, 20) == 3


def batch_rows(f, limit):
    """f's companion and the primes up to limit that a table build sends
    down a route: all but those dividing B! times the leading coefficient."""
    primes = sieve_primes(limit)
    return f.companion(), primes[mod_rows(math.factorial(f.degree) * f.leading, primes) != 0]


# The polynomials and limits of kernel_cost_table: two cubics and a quartic,
# at x = 3000, which the scan builds, and at the sizes where the algebraic
# route builds the table
COST_POLYS = {"x^3+2": [2, 0, 0, 1], "x^3-3x+1": [1, -3, 0, 1], "x^4+x+1": [1, 1, 0, 0, 1]}
COST_LIMITS = (3000, 10**4, 3 * 10**4, 10**5)
COST_KERNELS = ("_roots_scan", "gf_powmod_half_rows", "gf_gcd_rows", "gf_div_rows", "_quad_roots")


def kernel_costs(f, limit, repeats=5):
    """[(run, rows, sum of the row primes, seconds)] in call order over a
    warm build_root_table(f, limit), and the seconds of the whole build, each
    the median over `repeats` builds after a first one. The runs are the scan,
    or else the Frobenius ladder, the first gcd, each splitting round's
    ladder, gcd and division (round r), the scan of the tail where it is
    scanned, and the quadratic factors."""
    runs = []

    def timed(fn):
        def wrapper(*args):
            t = time.perf_counter()
            out = fn(*args)
            seconds = time.perf_counter() - t
            runs.append((fn.__name__, len(args[-1]), int(args[-1].sum()), seconds))
            return out
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in COST_KERNELS:
            mp.setattr(modroots_mod, name, timed(getattr(modroots_mod, name)))
        build_root_table(f, limit)
        builds, totals = [], []
        for _ in range(repeats):
            runs.clear()
            t = time.perf_counter()
            build_root_table(f, limit)
            totals.append(time.perf_counter() - t)
            builds.append(list(runs))
    # every build makes the same runs; a round's ladder and division carry
    # the number of the gcd they go with
    labelled, gcds = [], 0
    for same in zip(*builds):
        name, rows, span, _ = same[0]
        seconds = float(np.median([s for *_, s in same]))
        if name == "gf_gcd_rows":
            gcds += 1
        label = {
            "_roots_scan": "scan",
            "gf_powmod_half_rows": f"round {gcds} ladder" if gcds else "Frobenius ladder",
            "gf_gcd_rows": f"round {gcds - 1} gcd" if gcds > 1 else "first gcd",
            "gf_div_rows": f"round {gcds - 1} division",
            "_quad_roots": "quadratic factors",
        }[name]
        labelled.append((label, rows, span, seconds))
    return labelled, float(np.median(totals))


def kernel_cost_table(polys=COST_POLYS, limits=COST_LIMITS):
    """Print, for each f and limit, the rows, the sum of their primes and
    the milliseconds of every kernel run of one warm table build, then the
    build's total and the part outside the kernels."""
    print(f"{'f':9} {'x':>6}  {'kernel run':18} {'rows':>6} {'sum p':>10} {'ms':>8}")
    for name, coeffs in polys.items():
        f = IntPolynomial.from_monomial(coeffs)
        for limit in limits:
            runs, total = kernel_costs(f, limit)
            for label, rows, span, seconds in runs:
                print(f"{name:9} {limit:>6}  {label:18} {rows:>6} {span:>10} {seconds * 1e3:8.2f}")
            rest = total - sum(s for *_, s in runs)
            print(f"{name:9} {limit:>6}  {'other':18} {'':>6} {'':>10} {rest * 1e3:8.2f}")
            print(f"{name:9} {limit:>6}  {'table':18} {'':>6} {'':>10} {total * 1e3:8.2f}")


# The polynomials and limits of crossover_table: the cubics and the quartic
# of kernel_cost_table around SCAN_SPAN, and two quadratics, which keep the
# algebraic route at every size
CROSSOVER_CASES = {
    "x^3+2": ([2, 0, 0, 1], (1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000, 6000)),
    "x^3-3x+1": ([1, -3, 0, 1], (1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000, 6000)),
    "x^4+x+1": ([1, 1, 0, 0, 1], (1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000, 6000)),
    "x^2+1": ([1, 0, 1], (300, 500, 1000, 1500, 2000)),
    "x^2+x+41": ([41, 1, 1], (300, 500, 1000, 1500, 2000)),
}


def crossover_table(cases=CROSSOVER_CASES, repeats=41):
    """Print, for each f and limit, the rows' prime sum, the median
    milliseconds of the scan and of the algebraic route on the same rows,
    the two run interleaved `repeats` times, and their ratio, scan over
    algebraic: the measurements behind SCAN_SPAN."""
    print(f"{'f':9} {'x':>6} {'sum p':>9} {'scan ms':>8} {'alg ms':>8} {'ratio':>6}")
    routes = (modroots_mod._roots_scan, _roots_algebraic)
    for name, (coeffs, limits) in cases.items():
        for limit in limits:
            comp, ps = batch_rows(IntPolynomial.from_monomial(coeffs), limit)
            times = [[], []]
            for _ in range(repeats):
                for route, ts in zip(routes, times):
                    t = time.perf_counter()
                    route(comp, ps)
                    ts.append(time.perf_counter() - t)
            scan, alg = (float(np.median(ts)) for ts in times)
            print(f"{name:9} {limit:>6} {int(ps.sum()):>9} {scan * 1e3:8.3f} {alg * 1e3:8.3f} {scan / alg:6.2f}", flush=True)


# The polynomials and limits of tail_table: those of kernel_cost_table, from
# the first limit whose whole table leaves the scan to past the last one
# whose tail the scan takes
TAIL_CASES = {name: (coeffs, (5000, 10**4, 15000, 2 * 10**4, 3 * 10**4)) for name, coeffs in COST_POLYS.items()}


def tail_table(cases=TAIL_CASES, repeats=41):
    """Print, for each f and limit, the rows whose roots the algebraic
    route takes from the scan after its first splitting round (0 when the
    tail rule does not fire), the median milliseconds of the route with the
    rule and without it (SCAN_SPAN at 0), the two run interleaved `repeats`
    times, and their ratio, with over without."""
    print(f"{'f':9} {'x':>6} {'tail':>5} {'with ms':>8} {'off ms':>8} {'ratio':>6}")
    scan, span = modroots_mod._roots_scan, modroots_mod.SCAN_SPAN
    for name, (coeffs, limits) in cases.items():
        for limit in limits:
            comp, ps = batch_rows(IntPolynomial.from_monomial(coeffs), limit)
            tail = [0]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(modroots_mod, "_roots_scan", lambda comp, q: tail.append(len(q)) or scan(comp, q))
                _roots_algebraic(comp, ps)
            times = [[], []]
            with pytest.MonkeyPatch.context() as mp:
                for _ in range(repeats):
                    for cap, ts in zip((span, 0), times):
                        mp.setattr(modroots_mod, "SCAN_SPAN", cap)
                        t = time.perf_counter()
                        _roots_algebraic(comp, ps)
                        ts.append(time.perf_counter() - t)
            on, off = (float(np.median(ts)) for ts in times)
            print(f"{name:9} {limit:>6} {tail[-1]:>5} {on * 1e3:8.3f} {off * 1e3:8.3f} {on / off:6.2f}", flush=True)


if __name__ == "__main__":
    import sys
    import tempfile

    if sys.argv[1:] == ["costs"]:
        kernel_cost_table()
        sys.exit()
    if sys.argv[1:] == ["crossover"]:
        crossover_table()
        tail_table()
        sys.exit()
    moved = []
    for name, (literal, pinned, limit) in CACHE_PINS.items():
        with tempfile.TemporaryDirectory() as d:
            digest = cache_digest(parse_poly_literal(literal), limit, d)
        print(f"    {name!r}: ({literal!r}, {digest!r}, {limit}),  # pinned {pinned or 'none'}")
        if digest != pinned:
            moved.append(f"{name}: {pinned or 'none'} -> {digest}")
    print(f"{len(moved)} moved, pinned -> now:" if moved else "nothing moved")
    for line in moved:
        print(f"  {line}")
