"""Parameter formulas, small-prime residue sampling, shift selection (greedy,
and randomized against the scale-ladder walk it replaced), and the cover
state."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composite_forge import cover
from composite_forge.assemble import pairing_stage, stage_rng
from composite_forge.cover import (
    CoverState,
    RetryBudgetError,
    SieveParams,
    backward_residues,
    sample_small_residue,
    select_shifts_greedy,
    select_shifts_random,
    target_residues,
)
from composite_forge.poly import IntPolynomial
from composite_forge.sievecore import SurvivorSet, sieve_survivors


N60 = 10**60  # the target sum of the hand-sized two-sided cases


def full_window(lo, hi):
    return SurvivorSet(lo, hi, np.ones(hi - lo + 1, dtype=bool))


# Reference class scores: the per-window scorers that CoverState's scoring
# used before it counted both windows' keys with one bincount.


def _class_counts(positions: np.ndarray, q: int) -> np.ndarray:
    return np.bincount(positions % q, minlength=q).astype(np.int64)


def forward_class_scores(q, alphas, fwd_pos):
    """scores[r] = how many forward survivors sit in classes r + alpha."""
    cnt = _class_counts(fwd_pos, q)
    idx = (np.arange(q)[None, :] + np.asarray(alphas)[:, None]) % q
    return cnt[idx].sum(axis=0)


def backward_class_scores(q, alphas, bwd_pos, n_target):
    """scores[r] = how many backward survivors sit in classes alpha - N - r."""
    cnt = _class_counts(bwd_pos, q)
    nt = n_target % q  # N can be hundreds of digits; reduce before numpy
    idx = ((np.asarray(alphas)[:, None] - nt) - np.arange(q)[None, :]) % q
    return cnt[idx].sum(axis=0)


class TestSieveParams:
    # y = floor(x (log x)^delta), z = min(y loglog x / sqrt(log x), isqrt(y));
    # the four rows were computed by hand from those formulas
    @pytest.mark.parametrize(
        "x,y,z",
        [(300, 716, 26), (500, 1246, 35), (2000, 5513, 74), (10**4, 30348, 174)],
    )
    def test_window_formulas(self, x, y, z):
        p = SieveParams(x=x)
        assert p.y == y
        assert p.z == z

    def test_z_is_capped_by_sqrt_y(self):
        p = SieveParams(x=2000)
        assert p.boundary_formula > p.z
        assert p.z == math.isqrt(p.y)

    def test_override(self):
        p = SieveParams(x=300).with_y(50)
        assert p.y == 50
        assert p.z <= math.isqrt(50)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x": 7},
            {"x": 300, "delta": 0.0},
            {"x": 300, "delta": 0.51},
            {"x": 300, "delta": -0.1},
            {"x": 300, "xi": 1.0},
            {"x": 300, "M": 6.0},
            {"x": 300, "M": 7.0},
            {"x": 300, "eps": 0.0},
            {"x": 300, "eps": 0.072},
            {"x": 300, "retry_budget": -1},
            {"x": 300, "K": 1e30},
            {"x": 300, "xi": 1.000001},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SieveParams(**kwargs)

    def test_random_mode_limits_admit_their_edges(self, f_x, cache_dir):
        from composite_forge.modroots import build_root_table

        # (K + 2) * y = 7.2e18 < 2^63 at x = 300, and every shift fits int64
        params = SieveParams(x=300, K=1e16)
        table = build_root_table(f_x, 300, cache_dir=cache_dir)
        n_mod = target_residues(N60, table)
        assert select_shifts_random(params, table, stage_rng(1, 2, 0), n_mod)
        # ln(150) / ln(1.01) = 504 scales per side, within MAX_SCALES
        assert select_shifts_random(SieveParams(x=300, xi=1.01), table, stage_rng(1, 2, 0), n_mod)

    @pytest.mark.parametrize("name", ["xi", "K"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            SieveParams(x=300, **{name: value})
        # a stored certificate carries the same check
        obj = SieveParams(x=300).to_json()
        obj[name] = value
        with pytest.raises(ValueError, match="finite"):
            SieveParams.from_json(obj)

    def test_delta_shrinks_y(self):
        assert SieveParams(x=2000, delta=0.25).y < SieveParams(x=2000, delta=0.5).y

    def test_json_round_trip(self):
        p = SieveParams(x=500, delta=0.4, eps=0.03).with_y(700)
        q = SieveParams.from_json(p.to_json())
        assert q == p

    def test_json_rejects_inconsistent_z(self):
        obj = SieveParams(x=500).to_json()
        obj["z"] = obj["z"] + 1
        with pytest.raises(ValueError):
            SieveParams.from_json(obj)


# Reference oracle: the scale ladder that the randomized medium stage used
# to build and then walk (its dataclasses flattened to tuples), kept as the
# draw-order oracle.


def build_ladder(params, table):
    """[(j, H, side, {root count: primes in (y/(xi H), y/H]})] for the
    scales H = xi^j with 2y/x <= H <= y/(xi z), ascending j."""
    y, z, xi, x = params.y, params.z, params.xi, params.x
    scales = []
    if z >= 1 and y / (xi * z) >= 2 * y / x:
        j_lo = math.ceil(math.log(2 * y / x) / math.log(xi) - 1e-12)
        j_hi = math.floor(math.log(y / (xi * z)) / math.log(xi) + 1e-12)
        for j in range(j_lo, j_hi + 1):
            h = xi**j
            if h < 2 * y / x - 1e-12 or h > y / (xi * z) + 1e-12:
                continue
            lo, hi = y / (xi * h), y / h
            assert lo >= z - 1e-9 and hi <= x / 2 + 1e-9
            buckets = {}
            for q in table.usable_between(lo, hi):
                buckets.setdefault(len(table.roots[q]), []).append(q)
            side = "fwd" if j % 2 == 0 else "bwd"
            scales.append((j, h, side, {k: tuple(v) for k, v in sorted(buckets.items())}))
    return scales


def shift_range(params, side):
    """Inclusive shift bounds: forward (-(K+1)y, y], backward [-y, (K+1)y)."""
    ky = int((params.K + 1) * params.y)
    if side == "fwd":
        return (-ky + 1, params.y)
    return (-params.y, ky - 1)


def drawn_shifts(ladder, side, rng, params):
    """q -> the shift the ladder walk draws for q on one side, in draw
    order."""
    lo, hi = shift_range(params, side)
    return {
        q: int(rng.integers(lo, hi + 1))
        for _, _, s, buckets in ladder
        if s == side
        for nu in sorted(buckets)
        for q in buckets[nu]
    }


def select_shifts_random_int(params, table, rng, n_target, two_sided=True):
    """The ladder walk with N itself: forward scales, then backward ones,
    from one stream."""
    ladder = build_ladder(params, table)
    out = {q: n % q for q, n in drawn_shifts(ladder, "fwd", rng, params).items()}
    if two_sided:
        for q, n in drawn_shifts(ladder, "bwd", rng, params).items():
            out[q] = (-n_target - n) % q
    return out


class TestLadder:
    def test_frozen_shape_at_1e4(self, f_x, cache_dir):
        from composite_forge.modroots import build_root_table

        # prime counts per scale window checked against a prime-pi table
        table = build_root_table(f_x, 10**4, cache_dir=cache_dir)
        params = SieveParams(x=10**4)
        ladder = build_ladder(params, table)
        assert [h for _, h, _, _ in ladder] == [8, 16, 32, 64]
        assert [side for _, _, side, _ in ladder] == ["bwd", "fwd", "bwd", "fwd"]
        sizes = [sum(len(v) for v in buckets.values()) for *_, buckets in ladder]
        assert sizes == [237, 129, 70, 40]
        # the random stage draws for exactly these 476 primes, forward first
        n_mod = target_residues(N60, table)
        out = select_shifts_random(params, table, stage_rng(3, 2, 0), n_mod)
        assert len(out) == 476
        fwd_primes = {
            q for _, _, side, b in ladder if side == "fwd" for qs in b.values() for q in qs
        }
        assert set(list(out)[: len(fwd_primes)]) == fwd_primes

    def test_buckets_live_in_their_scale_windows(self, table_x2p1_2000):
        # scale windows tile only part of (z, x/2]; primes outside every
        # window stay unassigned in randomized mode
        params = SieveParams(x=2000)
        y, xi = params.y, params.xi
        ladder = build_ladder(params, table_x2p1_2000)
        seen = []
        for _, h, _, buckets in ladder:
            for nu, qs in buckets.items():
                for q in qs:
                    assert y / (xi * h) < q <= y / h
                    assert params.z < q <= params.x / 2
                    assert len(table_x2p1_2000.roots[q]) == nu
                seen.extend(qs)
        assert len(set(seen)) == len(seen)
        assert set(seen) <= set(table_x2p1_2000.usable_between(params.z, 1000))
        n_mod = target_residues(N60, table_x2p1_2000)
        out = select_shifts_random(params, table_x2p1_2000, stage_rng(4, 2, 0), n_mod)
        assert set(out) == set(seen)


class TestSmallStage:
    def test_residues_cover_small_primes(self, table_x2p1_2000):
        params = SieveParams(x=2000)
        residues, fwd, bwd, rej = sample_small_residue(
            params, table_x2p1_2000, stage_rng(1, 1, 0), target_residues(N60, table_x2p1_2000)
        )
        assert sorted(residues) == table_x2p1_2000.usable_between(0, params.z)
        assert all(0 <= r < q for q, r in residues.items())
        bound = 2.0 * table_x2p1_2000.density_product(params.z) * params.y
        assert fwd.count() <= bound
        assert bwd.count() <= bound
        assert rej >= 0

    def test_survivors_match_resieve(self, table_x2p1_2000):
        params = SieveParams(x=2000)
        n_mod = target_residues(N60, table_x2p1_2000)
        residues, fwd, bwd, _ = sample_small_residue(
            params, table_x2p1_2000, stage_rng(2, 1, 0), n_mod
        )
        again = sieve_survivors(table_x2p1_2000, residues, (1, params.y), (0, params.z))
        assert np.array_equal(fwd.bits, again.bits)
        back = sieve_survivors(
            table_x2p1_2000,
            backward_residues(residues, n_mod),
            (-params.y, -1),
            (0, params.z),
        )
        assert np.array_equal(bwd.bits, back.bits)

    def test_two_sided_needs_target(self, table_x2p1_2000):
        with pytest.raises(ValueError):
            sample_small_residue(SieveParams(x=2000), table_x2p1_2000, stage_rng(0, 1, 0))

    def test_impossible_threshold_exhausts_budget(self, table_x2p1_2000, monkeypatch):
        # a density product of 0 makes the survivor bound 0, which no draw meets
        monkeypatch.setattr(table_x2p1_2000, "density_product", lambda *args: 0.0)
        params = SieveParams(x=2000, retry_budget=5)
        with pytest.raises(RetryBudgetError, match="in 5 attempts"):
            sample_small_residue(
                params, table_x2p1_2000, stage_rng(0, 1, 0), target_residues(N60, table_x2p1_2000)
            )

    def test_deterministic_given_stream(self, table_x2p1_2000):
        params = SieveParams(x=2000)
        n_mod = target_residues(N60, table_x2p1_2000)
        a = sample_small_residue(params, table_x2p1_2000, stage_rng(7, 1, 0), n_mod)
        b = sample_small_residue(params, table_x2p1_2000, stage_rng(7, 1, 0), n_mod)
        assert a[0] == b[0]


class TestBackwardResidues:
    def test_kill_class_identity(self, table_x2p1_100):
        # the backward frame sieves offsets j in [-y, -1]; j must be killed
        # exactly when the window element sits in a root class, and that
        # element is congruent to N + r + j mod q
        N = 10**12 + 39
        residues = {5: 2, 13: 7, 17: 11}
        back = backward_residues(residues, target_residues(N, table_x2p1_100))
        for q, r in residues.items():
            roots = set(table_x2p1_100.roots[q])
            for j in range(-60, 0):
                killed = (j - back[q]) % q in roots
                assert killed == ((N + r + j) % q in roots)


def one_sided(table, fwd):
    return CoverState(table, fwd, None, None)


class TestGreedySelection:
    def test_single_prime_hand_case(self, table_x_100):
        state = one_sided(table_x_100, full_window(1, 30))
        # classes 1 and 2 mod 7 tie at 5 hits in [1, 30]; argmax takes 1
        assert select_shifts_greedy(state, [7]) == {7: 1}
        assert len(state.fwd) == 25

    def test_ascending_prime_order(self, table_x_100):
        state = one_sided(table_x_100, full_window(1, 40))
        assert list(select_shifts_greedy(state, [13, 7, 11, 7])) == [7, 11, 13]

    def test_coverage_bookkeeping_is_exact(self, table_x2p1_2000):
        params = SieveParams(x=2000)
        residues, fwd, _, _ = sample_small_residue(
            params, table_x2p1_2000, stage_rng(3, 1, 0), two_sided=False
        )
        med = table_x2p1_2000.usable_between(params.z, 300)
        state = one_sided(table_x2p1_2000, fwd)
        chosen = select_shifts_greedy(state, med)
        # the state's residual must equal an actual re-sieve with the chosen residues
        merged = dict(residues)
        merged.update(chosen)
        resieved = sieve_survivors(
            table_x2p1_2000, merged, (1, params.y), (0, 300)
        )
        assert list(resieved.survivors()) == list(state.fwd)

    def test_joint_two_sided_consistency(self, table_x2p1_2000):
        params = SieveParams(x=2000)
        n_mod = target_residues(N60, table_x2p1_2000)
        residues, fwd, bwd, _ = sample_small_residue(
            params, table_x2p1_2000, stage_rng(4, 1, 0), n_mod
        )
        med = table_x2p1_2000.usable_between(params.z, 400)
        state = CoverState(table_x2p1_2000, fwd, bwd, n_mod)
        merged = dict(residues)
        merged.update(select_shifts_greedy(state, med))
        f2 = sieve_survivors(table_x2p1_2000, merged, (1, params.y), (0, 400))
        b2 = sieve_survivors(
            table_x2p1_2000,
            backward_residues(merged, n_mod),
            (-params.y, -1),
            (0, 400),
        )
        assert list(f2.survivors()) == list(state.fwd)
        assert list(b2.survivors()) == list(state.bwd)

    def test_greedy_beats_random_here(self, table_x2p1_2000):
        params = SieveParams(x=2000)
        _, fwd, _, _ = sample_small_residue(
            params, table_x2p1_2000, stage_rng(5, 1, 0), two_sided=False
        )
        med = table_x2p1_2000.usable_between(params.z, 1000)
        greedy = one_sided(table_x2p1_2000, fwd)
        select_shifts_greedy(greedy, med)
        # random mode leaves the medium primes outside every scale window
        # unassigned; its residual is the small stage's less the sampled classes
        rnd = one_sided(table_x2p1_2000, fwd)
        drawn = select_shifts_random(params, table_x2p1_2000, stage_rng(5, 2, 0), None)
        for q, r in drawn.items():
            rnd.add(q, r)
        assert len(greedy.fwd) <= len(rnd.fwd)


class TestRandomSelection:
    def test_one_choice_per_bucket_prime(self, table_x2p1_2000):
        # one-sided: forward scales only, and no target residues to read
        params = SieveParams(x=2000)
        ladder = build_ladder(params, table_x2p1_2000)
        out = select_shifts_random(params, table_x2p1_2000, stage_rng(9, 2, 0), None)
        shifts = drawn_shifts(ladder, "fwd", stage_rng(9, 2, 0), params)
        assert list(out) == list(shifts)
        lo, hi = shift_range(params, "fwd")
        for q, n in shifts.items():
            assert 0 <= out[q] < q
            assert lo <= n <= hi
            assert out[q] == n % q

    def test_backward_residue_convention(self, table_x2p1_2000):
        # the backward scales draw after the forward ones, from one stream
        params = SieveParams(x=2000)
        ladder = build_ladder(params, table_x2p1_2000)
        n_mod = target_residues(N60, table_x2p1_2000)
        out = select_shifts_random(params, table_x2p1_2000, stage_rng(9, 2, 1), n_mod)
        rng = stage_rng(9, 2, 1)
        fwd = drawn_shifts(ladder, "fwd", rng, params)
        shifts = drawn_shifts(ladder, "bwd", rng, params)
        assert list(out) == list(fwd) + list(shifts)
        lo, hi = shift_range(params, "bwd")
        for q, n in shifts.items():
            assert lo <= n <= hi
            assert out[q] == (-N60 - n) % q

    @pytest.mark.parametrize("x", [100, 300, 1000, 2000, 10**4])
    @pytest.mark.parametrize("two_sided", [True, False])
    def test_matches_ladder_walk(self, f_x, f_x2p1, cache_dir, x, two_sided):
        from composite_forge.modroots import build_root_table

        # x^3 + 2 has one or three roots mod a prime, so its scales sort
        # their primes by root count before size
        for f in (f_x, f_x2p1, IntPolynomial.from_monomial([2, 0, 0, 1])):
            table = build_root_table(f, x, cache_dir=cache_dir)
            n_target = 10**200 + 7
            n_mod = target_residues(n_target, table) if two_sided else None
            for y in (None, 40, 97):
                params = SieveParams(x=x, y_override=y)
                got = select_shifts_random(params, table, stage_rng(x, 2, 5), n_mod)
                want = select_shifts_random_int(
                    params, table, stage_rng(x, 2, 5), n_target, two_sided
                )
                assert list(got.items()) == list(want.items())


class TestResidualCheck:
    def test_capacities(self, table_x_100):
        # usable primes in (50, 75] absorb forward, (75, 100] backward
        # survivors; a window filled to its pool's length takes every prime
        n_mod = target_residues(10**6, table_x_100)
        pools = table_x_100.usable_between(50, 75), table_x_100.usable_between(75, 100)
        assert tuple(map(len, pools)) == (6, 4)
        out_f, out_b = pairing_stage([1, 2, 3], [-1, -2, -3, -4], table_x_100, *pools, n_mod)
        assert (len(out_f), len(out_b)) == (3, 4)
        assert list(out_b) == pools[1]


class TestClassScores:
    def test_forward_scores_by_brute_force(self, table_x2p1_100):
        pos = np.array([1, 5, 9, 14, 18, 27, 31, 40])
        alphas = table_x2p1_100.roots[13]
        scores = forward_class_scores(13, alphas, pos)
        for r in range(13):
            expect = sum(1 for t in pos if (t - r) % 13 in set(alphas))
            assert scores[r] == expect

    def test_backward_scores_with_huge_target(self, table_x2p1_100):
        pos = np.array([-40, -31, -27, -18, -14, -9, -5, -1])
        alphas = table_x2p1_100.roots[13]
        N = 10**120 + 7  # must not overflow the numpy path
        scores = backward_class_scores(13, alphas, pos, N)
        for r in range(13):
            mask = covered_mask_bwd(pos, 13, r, alphas, N)
            expect = sum(1 for t in pos if (int(t) + N + r) % 13 in set(alphas))
            assert scores[r] == expect == mask.sum()


# Reference oracles: the copy-and-kill greedy loops (joint and
# forward-only) that CoverState replaced, kept verbatim in behaviour but for
# the greedy pass's order, now ascending, on plain survivor bitmaps; and the
# stages that took N itself
# before every stage came to take the map q -> N mod q (the pairing one
# without the capacity error it raised then: survivors beyond a pool stay
# unpaired).


def backward_residues_int(residues, n_target):
    return {q: (-n_target - r) % q for q, r in residues.items()}


def pairing_stage_int(residual_fwd, residual_bwd, table, x, n_target):
    fwd = sorted(int(a) for a in residual_fwd)
    bwd = sorted(int(a) for a in residual_bwd)
    pool_f = table.usable_between(x / 2, 3 * x / 4)
    pool_b = table.usable_between(3 * x / 4, x)
    out_f = {}
    for a, q in zip(fwd, pool_f):
        alpha = table.roots[q][0]
        out_f[q] = (a - alpha) % q
    out_b = {}
    for a, q in zip(bwd, pool_b):
        alpha = table.roots[q][0]
        out_b[q] = (-n_target - a + alpha) % q
    return out_f, out_b


def covered_mask_bwd(pos, q, r, alphas, n_target):
    """Backward offsets in pos that residue r of q kills."""
    return np.isin((pos + n_target % q + r) % q, np.asarray(alphas) % q)


def kill(bits, lo, positions):
    bits[np.asarray(positions, dtype=np.int64) - lo] = False


def oracle_greedy_both(primes, survivors, paired, table, n_target):
    """(q -> residue in choice order, forward residual, backward residual)."""
    F, B = survivors.bits.copy(), paired.bits.copy()
    chosen = {}
    for q in sorted(set(primes)):
        alphas = table.roots[q]
        fpos = np.flatnonzero(F).astype(np.int64) + survivors.lo
        bpos = np.flatnonzero(B).astype(np.int64) + paired.lo
        scores = forward_class_scores(q, alphas, fpos) + backward_class_scores(
            q, alphas, bpos, n_target
        )
        r = chosen[q] = int(np.argmax(scores))
        kill(F, survivors.lo, fpos[np.isin((fpos - r) % q, np.asarray(alphas) % q)])
        kill(B, paired.lo, bpos[covered_mask_bwd(bpos, q, r, alphas, n_target)])
    return (
        chosen,
        np.flatnonzero(F).astype(np.int64) + survivors.lo,
        np.flatnonzero(B).astype(np.int64) + paired.lo,
    )


def oracle_greedy_fwd(primes, survivors, table):
    """(q -> residue in choice order, forward residual)."""
    F = survivors.bits.copy()
    chosen = {}
    for q in sorted(set(primes)):
        alphas = table.roots[q]
        pos = np.flatnonzero(F).astype(np.int64) + survivors.lo
        base = chosen[q] = int(np.argmax(forward_class_scores(q, alphas, pos)))
        kill(F, survivors.lo, pos[np.isin((pos - base) % q, np.asarray(alphas) % q)])
    return chosen, np.flatnonzero(F).astype(np.int64) + survivors.lo


def sieve_only(table, residues, interval):
    """Survivor positions of [lo, hi] under exactly the primes in residues."""
    lo, hi = interval
    bits = np.ones(hi - lo + 1, dtype=bool)
    for q, r in residues.items():
        for a in table.roots[q]:
            bits[(r + a - lo) % q :: q] = False
    return np.flatnonzero(bits).astype(np.int64) + lo


@pytest.fixture(scope="module")
def tables_2000(f_x, f_x2p1, table_x2p1_2000, cache_dir):
    from composite_forge.modroots import build_root_table
    from composite_forge.poly import IntPolynomial

    cubic = IntPolynomial.from_monomial([2, 0, 0, 1])
    return {
        "x": build_root_table(f_x, 2000, cache_dir=cache_dir),
        "x^2+1": table_x2p1_2000,
        "x^3+2": build_root_table(cubic, 2000, cache_dir=cache_dir),
    }


class TestCoverState:
    @given(
        poly=st.sampled_from(["x", "x^2+1"]),
        x=st.integers(100, 2000),
        draw_seed=st.integers(0, 2**32 - 1),
        n_target=st.integers(10**100, 10**1500),
        paired=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_resieve_oracles(self, tables_2000, poly, x, draw_seed, n_target, paired):
        table = tables_2000[poly]
        params = SieveParams(x=x)
        n_mod = target_residues(n_target, table)
        y, z = params.y, params.z
        rng = np.random.default_rng(draw_seed)
        small = {q: int(rng.integers(q)) for q in table.usable_between(0, z)}
        fwd0 = sieve_survivors(table, small, (1, y), (0, z))
        bwd0 = sieve_survivors(table, backward_residues_int(small, n_target), (-y, -1), (0, z))
        med = table.usable_between(z, x / 2)

        if paired:
            state = CoverState(table, fwd0, bwd0, n_mod)
            chosen = select_shifts_greedy(state, med)
            ref, ref_fwd, ref_bwd = oracle_greedy_both(med, fwd0, bwd0, table, n_target)
            assert np.array_equal(state.bwd, ref_bwd)
        else:
            # one-sided: the backward window is empty and only forward
            # survivors are scored
            state = CoverState(table, fwd0, None, n_mod)
            chosen = select_shifts_greedy(state, med)
            ref, ref_fwd = oracle_greedy_fwd(med, fwd0, table)
            assert state.bwd.size == 0
        assert list(chosen.items()) == list(ref.items())
        assert state.fwd.dtype == ref_fwd.dtype == np.int64
        assert np.array_equal(state.fwd, ref_fwd)

        merged = {**small, **chosen}
        assert np.array_equal(state.fwd, sieve_only(table, merged, (1, y)))
        if paired:
            back = sieve_only(table, backward_residues_int(merged, n_target), (-y, -1))
            assert np.array_equal(state.bwd, back)

    @given(
        poly=st.sampled_from(["x", "x^2+1", "x^3+2"]),
        x=st.integers(100, 2000),
        n_target=st.integers(0, 10**1500),
        draw_seed=st.integers(0, 2**32 - 1),
        n_fwd=st.integers(0, 40),
        n_bwd=st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_residue_map_stages_match_int_target(
        self, tables_2000, poly, x, n_target, draw_seed, n_fwd, n_bwd
    ):
        # -N - r and -(N mod q) - r agree mod q, so the stages that take the
        # map give what the stages that took N itself gave
        table = tables_2000[poly]
        params = SieveParams(x=x)
        n_mod = target_residues(n_target, table)
        rng = np.random.default_rng(draw_seed)
        residues = {q: int(rng.integers(q)) for q in table.usable_between(0, x)}
        assert backward_residues(residues, n_mod) == backward_residues_int(residues, n_target)

        fwd = rng.choice(np.arange(1, params.y + 1), size=min(n_fwd, params.y), replace=False)
        bwd = rng.choice(np.arange(-params.y, 0), size=min(n_bwd, params.y), replace=False)
        pools = table.usable_between(x / 2, 3 * x / 4), table.usable_between(3 * x / 4, x)
        expect = pairing_stage_int(fwd, bwd, table, x, n_target)
        assert pairing_stage(fwd, bwd, table, *pools, n_mod) == expect

        got = select_shifts_random(params, table, stage_rng(draw_seed, 2), n_mod)
        assert got == select_shifts_random_int(params, table, stage_rng(draw_seed, 2), n_target)

    @pytest.mark.parametrize("poly", ["x", "x^2+1", "x^3+2"])
    def test_given_residues_match_sieve(self, tables_2000, poly):
        # random mode's path: each prime's residue is given, not scored, and
        # add returns it
        table = tables_2000[poly]
        n_target = 10**80 + 3
        n_mod = target_residues(n_target, table)
        rng = np.random.default_rng(11)
        residues = {q: int(rng.integers(q)) for q in table.usable_between(0, 200)}
        state = CoverState(table, full_window(1, 900), full_window(-900, -1), n_mod)
        for q, r in residues.items():
            assert state.add(q, r) == r
        assert np.array_equal(state.fwd, sieve_only(table, residues, (1, 900)))
        back = sieve_only(table, backward_residues_int(residues, n_target), (-900, -1))
        assert np.array_equal(state.bwd, back)

    def test_engine_paths_do_not_resieve(self, table_x2p1_2000, monkeypatch):
        params = SieveParams(x=2000)
        n_mod = target_residues(N60, table_x2p1_2000)
        residues, fwd, bwd, _ = sample_small_residue(
            params, table_x2p1_2000, stage_rng(6, 1, 0), n_mod
        )
        med = table_x2p1_2000.usable_between(params.z, 1000)

        def forbidden(*args, **kwargs):
            raise AssertionError("the engine must not re-sieve")

        monkeypatch.setattr(cover, "sieve_survivors", forbidden)
        monkeypatch.setattr(cover, "backward_residues", forbidden)
        monkeypatch.setattr(np, "isin", forbidden)
        state = CoverState(table_x2p1_2000, fwd, bwd, n_mod)
        select_shifts_greedy(state, med)


def random_window(rng, lo, length, p_survive):
    """Survivor bitmap over [lo, lo + length - 1]: each offset survives
    with probability p_survive."""
    return SurvivorSet(lo, lo + length - 1, rng.random(length) < p_survive)


def oracle_best_residue(q, alphas, fpos, bpos, n_target):
    sf = forward_class_scores(q, alphas, fpos)
    sb = backward_class_scores(q, alphas, bpos, n_target)
    return int(np.argmax(sf + sb))


class TestFusedScorer:
    """CoverState.add's choice on a fresh state (one bincount over both
    windows' class keys) against the per-window class scores it replaced."""

    @given(
        case=st.sampled_from([("x", 1), ("x^2+1", 2), ("x^3+2", 1), ("x^3+2", 3)]),
        pick=st.integers(0, 10**6),
        n_target=st.integers(0, 10**1500),
        fwd_lo=st.integers(-3000, 3000),
        fwd_len=st.integers(0, 2500),
        bwd_lo=st.integers(-3000, 3000),
        bwd_len=st.sampled_from([0, 1, 7]) | st.integers(0, 2500),
        p_survive=st.sampled_from([0.0, 0.002, 0.05, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_window_scores(
        self, tables_2000, case, pick, n_target, fwd_lo, fwd_len, bwd_lo, bwd_len,
        p_survive, seed,
    ):
        poly, nu = case
        table = tables_2000[poly]
        qs = [q for q in table.usable_primes() if len(table.roots[q]) == nu]
        q = qs[pick % len(qs)]
        rng = np.random.default_rng(seed)
        fwd = random_window(rng, fwd_lo, fwd_len, p_survive)
        bwd = random_window(rng, bwd_lo, bwd_len, p_survive)
        state = CoverState(table, fwd, bwd, target_residues(n_target, table))
        expect = oracle_best_residue(q, table.roots[q], fwd.survivors(), bwd.survivors(), n_target)
        assert state.add(q) == expect

    @pytest.mark.parametrize("poly", ["x", "x^2+1", "x^3+2"])
    def test_full_windows_tie_to_zero(self, tables_2000, poly):
        # every residue hits k of each root's offsets on both sides
        table = tables_2000[poly]
        for q in table.usable_between(100, 200):
            k = 3
            fwd, bwd = full_window(-q, (k - 1) * q - 1), full_window(-5 * q, (k - 5) * q - 1)
            state = CoverState(table, fwd, bwd, target_residues(10**1500 + 11, table))
            assert state.add(q) == 0

    @pytest.mark.parametrize("o_fwd,o_bwd", [(30, -7), (5, -40), (-3, -1)])
    def test_two_single_survivors_tie_to_smaller_residue(self, table_x_100, o_fwd, o_bwd):
        # f = x: the only root is 0, so a forward survivor o has key o and a
        # backward one -N - o; both score 1 and the smaller key wins
        q, n_target = 97, 10**1500
        fwd = SurvivorSet(-50, 49, np.arange(-50, 50) == o_fwd)
        bwd = SurvivorSet(-100, -1, np.arange(-100, 0) == o_bwd)
        k_f, k_b = o_fwd % q, (-n_target - o_bwd) % q
        state = CoverState(table_x_100, fwd, bwd, target_residues(n_target, table_x_100))
        assert state.add(q) == min(k_f, k_b)

    def test_one_sided_state_ignores_target(self, table_x2p1_2000):
        # a one-sided state has no target residues at all: scoring and
        # adding never read them
        fwd = full_window(-20, 700)
        fwd.bits[::3] = False
        state = one_sided(table_x2p1_2000, fwd)
        assert state.bwd.size == 0 and state.n_mod is None
        chosen = {}
        for q in table_x2p1_2000.usable_between(100, 400):
            expect = oracle_best_residue(
                q, table_x2p1_2000.roots[q], state.fwd, np.zeros(0, dtype=np.int64), 0
            )
            chosen[q] = state.add(q)
            assert chosen[q] == expect
        kept = sieve_only(table_x2p1_2000, chosen, (-20, 700))
        assert np.array_equal(state.fwd, np.intersect1d(kept, fwd.survivors()))
