"""Parameter formulas, small-prime residue sampling, greedy shift selection,
and the cover state.

Run as a script (PYTHONPATH=src python tests/test_cover.py) it prints the
greedy pass's cost per prime by key bin instead; see greedy_cost_table.
"""

import bisect
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composite_forge import cover
from composite_forge.assemble import cleanup_pools, construct_certificate, pairing_stage, stage_rng
from composite_forge.cover import (
    CoverState,
    RetryBudgetError,
    SieveParams,
    backward_residues,
    sample_small_residue,
    select_shifts_greedy,
    target_residues,
)
from composite_forge.poly import IntPolynomial
from composite_forge.sievecore import SurvivorSet, sieve_survivors
from conftest import bitmap, from_bitmap, roots_of, usable_between


N60 = 10**60  # the target sum of the hand-sized two-sided cases


def full_window(lo, hi):
    return SurvivorSet(lo, hi, np.arange(lo, hi + 1, dtype=np.int64))


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
    # y = floor(x (log x)^delta), z = isqrt(y); the four rows were computed
    # by hand from those formulas
    @pytest.mark.parametrize(
        "x,y,z",
        [(300, 716, 26), (500, 1246, 35), (2000, 5513, 74), (10**4, 30348, 174)],
    )
    def test_window_formulas(self, x, y, z):
        p = SieveParams(x=x)
        assert p.y == y
        assert p.z == z

    def test_z_is_capped_by_sqrt_y(self):
        # the paper's boundary y loglog(x) / sqrt(log x) is at least 0.507 y
        # for x in [8, 2^31), so isqrt(y) is the smaller at every y >= 2;
        # both select no small prime at y = 1
        for x in (8, 9, 100, 1618, 2000, 10**6, 2**31 - 1):
            c = math.log(math.log(x)) / math.sqrt(math.log(x))
            assert c > 0.507
            p = SieveParams(x=x)
            for y in [*range(2, min(200, p.y)), p.y]:
                assert min(int(y * c), math.isqrt(y)) == math.isqrt(y) == p.with_y(y).z
        assert SieveParams(x=8).with_y(1).z == 1

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
            {"x": 2**31},
            {"x": 300, "delta": math.nan},
            {"x": 2**40},
            {"x": 10**400},
            {"x": 300, "y_override": 0},
            {"x": 300, "retry_budget": -1},
            {"x": 300, "y_override": 717},
            {"x": 8, "y_override": 12},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SieveParams(**kwargs)

    def test_delta_shrinks_y(self):
        assert SieveParams(x=2000, delta=0.25).y < SieveParams(x=2000, delta=0.5).y

    def test_json_round_trip(self):
        p = SieveParams(x=500, delta=0.4).with_y(700)
        assert p.to_json() == {"x": 500, "delta": 0.4, "y": 700}
        q = SieveParams.from_json(p.to_json())
        assert q == p


class TestSmallStage:
    def test_residues_cover_small_primes(self, table_x2p1_2000):
        params = SieveParams(x=2000)
        residues, fwd, bwd, rej = sample_small_residue(
            params, table_x2p1_2000, stage_rng(1, 1, 0), target_residues(N60, table_x2p1_2000)
        )
        assert sorted(residues) == usable_between(table_x2p1_2000, 0, params.z)
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
        assert np.array_equal(fwd.offsets, again.offsets)
        back = sieve_survivors(
            table_x2p1_2000,
            backward_residues(residues, n_mod),
            (-params.y, -1),
            (0, params.z),
        )
        assert np.array_equal(bwd.offsets, back.offsets)

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
            roots = set(roots_of(table_x2p1_100, q))
            for j in range(-60, 0):
                killed = (j - back[q]) % q in roots
                assert killed == ((N + r + j) % q in roots)


def one_sided(table, fwd):
    """A state whose backward window, the mirror of fwd's, holds no
    survivor, so that only forward survivors are scored."""
    return CoverState(table, fwd, SurvivorSet(-fwd.hi, -fwd.lo, np.zeros(0, dtype=np.int64)),
                      target_residues(N60, table))


# Block sizes the greedy oracle tests run at: None keeps the measured bound,
# 1 makes every prime a block of one, 2 and 7 cut the pass into blocks of
# that many primes whatever the survivor count.
BLOCK_SIZES = [None, 1, 2, 7]


@contextmanager
def blocks_of(k):
    """Make every block of CoverState.assign hold k primes (k = 1: blocks of
    one); k None leaves the bound as it is."""
    with pytest.MonkeyPatch.context() as mp:
        if k is not None:
            mp.setattr(CoverState, "_block_end", lambda self, ends, i: min(i + k, len(ends)))
        yield


class TestGreedySelection:
    def test_single_prime_hand_case(self, table_x_100):
        state = one_sided(table_x_100, full_window(1, 30))
        # classes 1 and 2 mod 7 tie at 5 hits in [1, 30]; argmax takes 1
        assert select_shifts_greedy(state, table_x_100.rows(6, 7)) == {7: 1}
        assert len(state.fwd) == 25

    def test_ascending_prime_order(self, table_x_100):
        state = one_sided(table_x_100, full_window(1, 40))
        assert list(select_shifts_greedy(state, table_x_100.rows(6, 13))) == [7, 11, 13]

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_coverage_bookkeeping_is_exact(self, table_x2p1_2000, block):
        params = SieveParams(x=2000)
        residues, fwd, _, _ = sample_small_residue(
            params, table_x2p1_2000, stage_rng(3, 1, 0), two_sided=False
        )
        state = one_sided(table_x2p1_2000, fwd)
        with blocks_of(block):
            chosen = select_shifts_greedy(state, table_x2p1_2000.rows(params.z, 300))
        # the state's residual must equal an actual re-sieve with the chosen residues
        merged = dict(residues)
        merged.update(chosen)
        resieved = sieve_survivors(
            table_x2p1_2000, merged, (1, params.y), (0, 300)
        )
        assert list(resieved.offsets) == list(state.fwd)

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_joint_two_sided_consistency(self, table_x2p1_2000, block):
        params = SieveParams(x=2000)
        n_mod = target_residues(N60, table_x2p1_2000)
        residues, fwd, bwd, _ = sample_small_residue(
            params, table_x2p1_2000, stage_rng(4, 1, 0), n_mod
        )
        state = CoverState(table_x2p1_2000, fwd, bwd, n_mod)
        merged = dict(residues)
        with blocks_of(block):
            merged.update(select_shifts_greedy(state, table_x2p1_2000.rows(params.z, 400)))
        f2 = sieve_survivors(table_x2p1_2000, merged, (1, params.y), (0, 400))
        b2 = sieve_survivors(
            table_x2p1_2000,
            backward_residues(merged, n_mod),
            (-params.y, -1),
            (0, 400),
        )
        assert list(f2.offsets) == list(state.fwd)
        assert list(b2.offsets) == list(state.bwd)

class TestResidualCheck:
    def test_capacities(self, table_x_100):
        # usable primes in (50, 75] absorb forward, (75, 100] backward
        # survivors; a window filled to its pool's length takes every prime
        n_mod = target_residues(10**6, table_x_100)
        pools = cleanup_pools(table_x_100, 100)
        assert tuple(map(len, pools)) == (6, 4)
        out_f, out_b = pairing_stage([1, 2, 3], [-1, -2, -3, -4], *pools, n_mod)
        assert (len(out_f), len(out_b)) == (3, 4)
        assert list(out_b) == [q for q, _ in pools[1]] == usable_between(table_x_100, 75, 100)


class TestClassScores:
    def test_forward_scores_by_brute_force(self, table_x2p1_100):
        pos = np.array([1, 5, 9, 14, 18, 27, 31, 40])
        alphas = roots_of(table_x2p1_100, 13)
        scores = forward_class_scores(13, alphas, pos)
        for r in range(13):
            expect = sum(1 for t in pos if (t - r) % 13 in set(alphas))
            assert scores[r] == expect

    def test_backward_scores_with_huge_target(self, table_x2p1_100):
        pos = np.array([-40, -31, -27, -18, -14, -9, -5, -1])
        alphas = roots_of(table_x2p1_100, 13)
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
    pool_f = usable_between(table, x / 2, 3 * x / 4)
    pool_b = usable_between(table, 3 * x / 4, x)
    out_f = {}
    for a, q in zip(fwd, pool_f):
        alpha = roots_of(table, q)[0]
        out_f[q] = (a - alpha) % q
    out_b = {}
    for a, q in zip(bwd, pool_b):
        alpha = roots_of(table, q)[0]
        out_b[q] = (-n_target - a + alpha) % q
    return out_f, out_b


def covered_mask_bwd(pos, q, r, alphas, n_target):
    """Backward offsets in pos that residue r of q kills."""
    return np.isin((pos + n_target % q + r) % q, np.asarray(alphas) % q)


def kill(bits, lo, positions):
    bits[np.asarray(positions, dtype=np.int64) - lo] = False


def oracle_greedy_both(primes, survivors, paired, table, n_target):
    """(q -> residue in choice order, forward residual, backward residual)."""
    F, B = bitmap(survivors), bitmap(paired)
    chosen = {}
    for q in sorted(set(primes)):
        alphas = roots_of(table, q)
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
    F = bitmap(survivors)
    chosen = {}
    for q in sorted(set(primes)):
        alphas = roots_of(table, q)
        pos = np.flatnonzero(F).astype(np.int64) + survivors.lo
        base = chosen[q] = int(np.argmax(forward_class_scores(q, alphas, pos)))
        kill(F, survivors.lo, pos[np.isin((pos - base) % q, np.asarray(alphas) % q)])
    return chosen, np.flatnonzero(F).astype(np.int64) + survivors.lo


def sieve_only(table, residues, interval):
    """Survivor positions of [lo, hi] under exactly the primes in residues."""
    lo, hi = interval
    bits = np.ones(hi - lo + 1, dtype=bool)
    for q, r in residues.items():
        for a in roots_of(table, q):
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


def narrow_dtype(table, *windows):
    """The survivor dtype CoverState must pick: int32 exactly when the
    windows' largest |offset| plus the table's limit is below 2^31."""
    reach = max(max(abs(w.lo), abs(w.hi)) for w in windows) + table.limit
    return np.int32 if reach < 2**31 else np.int64


class TestCoverState:
    @given(
        poly=st.sampled_from(["x", "x^2+1", "x^3+2"]),
        x=st.integers(100, 2000),
        draw_seed=st.integers(0, 2**32 - 1),
        n_target=st.integers(10**100, 10**1500),
        paired=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_matches_resieve_oracles(
        self, tables_2000, block, poly, x, draw_seed, n_target, paired
    ):
        table = tables_2000[poly]
        params = SieveParams(x=x)
        n_mod = target_residues(n_target, table)
        y, z = params.y, params.z
        rng = np.random.default_rng(draw_seed)
        small = {q: int(rng.integers(q)) for q in usable_between(table, 0, z)}
        fwd0 = sieve_survivors(table, small, (1, y), (0, z))
        bwd0 = sieve_survivors(table, backward_residues_int(small, n_target), (-y, -1), (0, z))
        med = usable_between(table, z, x / 2)

        if paired:
            state = CoverState(table, fwd0, bwd0, n_mod)
            with blocks_of(block):
                chosen = select_shifts_greedy(state, table.rows(z, x / 2))
            ref, ref_fwd, ref_bwd = oracle_greedy_both(med, fwd0, bwd0, table, n_target)
            assert np.array_equal(state.bwd, ref_bwd)
        else:
            # the backward window is empty and only forward survivors are
            # scored
            state = one_sided(table, fwd0)
            with blocks_of(block):
                chosen = select_shifts_greedy(state, table.rows(z, x / 2))
            ref, ref_fwd = oracle_greedy_fwd(med, fwd0, table)
            assert state.bwd.size == 0
        assert list(chosen.items()) == list(ref.items())
        windows = (fwd0, bwd0) if paired else (fwd0,)
        assert state.fwd.dtype == state.bwd.dtype == narrow_dtype(table, *windows) == np.int32
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
        residues = {q: int(rng.integers(q)) for q in usable_between(table, 0, x)}
        assert backward_residues(residues, n_mod) == backward_residues_int(residues, n_target)

        fwd = rng.choice(np.arange(1, params.y + 1), size=min(n_fwd, params.y), replace=False)
        bwd = rng.choice(np.arange(-params.y, 0), size=min(n_bwd, params.y), replace=False)
        expect = pairing_stage_int(fwd, bwd, table, x, n_target)
        assert pairing_stage(fwd, bwd, *cleanup_pools(table, x), n_mod) == expect

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("reach", [2**31 - 1, 2**31])
    @pytest.mark.parametrize("poly", ["x", "x^2+1", "x^3+2"])
    def test_narrow_and_wide_at_the_key_bound(self, tables_2000, poly, reach, block):
        # windows at the far end of the int32 range: their largest |offset|
        # plus the table limit is the bound's last narrow value, then its
        # first wide one; the greedy pass must match the oracle either way
        table = tables_2000[poly]
        top = reach - table.limit
        rng = np.random.default_rng(reach % 1000)
        fwd0 = random_window(rng, top - 2999, 3000, 0.3)
        bwd0 = random_window(rng, -top, 3000, 0.3)
        # the extreme offsets survive
        fwd0.offsets = np.union1d(fwd0.offsets, [top])
        bwd0.offsets = np.union1d([-top], bwd0.offsets)
        n_target = 10**300 + 11
        med = usable_between(table, 20, 1000)
        state = CoverState(table, fwd0, bwd0, target_residues(n_target, table))
        assert state.fwd.dtype == state.bwd.dtype == narrow_dtype(table, fwd0, bwd0)
        assert state.fwd.dtype == (np.int32 if reach < 2**31 else np.int64)
        assert (state.fwd[-1], state.bwd[0]) == (top, -top)
        with blocks_of(block):
            chosen = select_shifts_greedy(state, table.rows(20, 1000))
        ref, ref_fwd, ref_bwd = oracle_greedy_both(med, fwd0, bwd0, table, n_target)
        assert list(chosen.items()) == list(ref.items())
        assert np.array_equal(state.fwd, ref_fwd)
        assert np.array_equal(state.bwd, ref_bwd)

    @pytest.mark.parametrize("poly", ["x", "x^2+1", "x^3+2"])
    def test_empty_state_returns_what_a_bincount_gives(self, tables_2000, poly):
        # with no survivor left a residue is the argmax of an empty
        # bincount, 0
        table = tables_2000[poly]
        dead = SurvivorSet(1, 50, np.zeros(0, dtype=np.int64))
        state = one_sided(table, dead)
        primes = usable_between(table, 0, 200)
        for q in primes:
            assert int(np.bincount(np.zeros(0, np.int64), minlength=q).argmax()) == 0
        assert state.assign(table.rows(0, 200)) == dict.fromkeys(primes, 0)
        assert state.fwd.size == state.bwd.size == 0

    def test_engine_paths_do_not_resieve(self, table_x2p1_2000, monkeypatch):
        params = SieveParams(x=2000)
        n_mod = target_residues(N60, table_x2p1_2000)
        residues, fwd, bwd, _ = sample_small_residue(
            params, table_x2p1_2000, stage_rng(6, 1, 0), n_mod
        )
        def forbidden(*args, **kwargs):
            raise AssertionError("the engine must not re-sieve")

        monkeypatch.setattr(cover, "sieve_survivors", forbidden)
        monkeypatch.setattr(cover, "backward_residues", forbidden)
        monkeypatch.setattr(np, "isin", forbidden)
        state = CoverState(table_x2p1_2000, fwd, bwd, n_mod)
        select_shifts_greedy(state, table_x2p1_2000.rows(params.z, 1000))


def random_window(rng, lo, length, p_survive):
    """Survivor set over [lo, lo + length - 1]: each offset survives
    with probability p_survive."""
    return from_bitmap(lo, rng.random(length) < p_survive)


def oracle_best_residue(q, alphas, fpos, bpos, n_target):
    sf = forward_class_scores(q, alphas, fpos)
    sb = backward_class_scores(q, alphas, bpos, n_target)
    return int(np.argmax(sf + sb))


class TestFusedScorer:
    """CoverState.assign's choice for one prime on a fresh state (one
    bincount over both windows' class keys) against the per-window class
    scores it replaced."""

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
        qs = [q for q in usable_between(table, 0, table.limit) if len(roots_of(table, q)) == nu]
        q = qs[pick % len(qs)]
        rng = np.random.default_rng(seed)
        fwd = random_window(rng, fwd_lo, fwd_len, p_survive)
        bwd = random_window(rng, bwd_lo, bwd_len, p_survive)
        state = CoverState(table, fwd, bwd, target_residues(n_target, table))
        expect = oracle_best_residue(q, roots_of(table, q), fwd.offsets, bwd.offsets, n_target)
        assert state.assign(table.rows(q - 1, q)) == {q: expect}

    @pytest.mark.parametrize("poly", ["x", "x^2+1", "x^3+2"])
    def test_full_windows_tie_to_zero(self, tables_2000, poly):
        # every residue hits k of each root's offsets on both sides
        table = tables_2000[poly]
        for q in usable_between(table, 100, 200):
            k = 3
            fwd, bwd = full_window(-q, (k - 1) * q - 1), full_window(-5 * q, (k - 5) * q - 1)
            state = CoverState(table, fwd, bwd, target_residues(10**1500 + 11, table))
            assert state.assign(table.rows(q - 1, q)) == {q: 0}

    @pytest.mark.parametrize("o_fwd,o_bwd", [(30, -7), (5, -40), (-3, -1)])
    def test_two_single_survivors_tie_to_smaller_residue(self, table_x_100, o_fwd, o_bwd):
        # f = x: the only root is 0, so a forward survivor o has key o and a
        # backward one -N - o; both score 1 and the smaller key wins
        q, n_target = 97, 10**1500
        fwd = SurvivorSet(-50, 49, np.array([o_fwd], dtype=np.int64))
        bwd = SurvivorSet(-100, -1, np.array([o_bwd], dtype=np.int64))
        k_f, k_b = o_fwd % q, (-n_target - o_bwd) % q
        state = CoverState(table_x_100, fwd, bwd, target_residues(n_target, table_x_100))
        assert state.assign(table_x_100.rows(q - 1, q)) == {q: min(k_f, k_b)}

    def test_one_sided_state_ignores_target(self, table_x2p1_2000):
        # with no backward survivor, scoring and adding see the forward
        # window alone, whatever N is
        fwd = full_window(-20, 700)
        fwd.offsets = np.delete(fwd.offsets, np.s_[::3])
        state = one_sided(table_x2p1_2000, fwd)
        assert state.bwd.size == 0
        chosen = {}
        for q in usable_between(table_x2p1_2000, 100, 400):
            expect = oracle_best_residue(
                q, roots_of(table_x2p1_2000, q), state.fwd, np.zeros(0, dtype=np.int64), 0
            )
            chosen.update(state.assign(table_x2p1_2000.rows(q - 1, q)))
            assert chosen[q] == expect
        kept = sieve_only(table_x2p1_2000, chosen, (-20, 700))
        assert np.array_equal(state.fwd, np.intersect1d(kept, fwd.offsets))
        # one pass over all of them, in blocks, makes the same choices
        again = one_sided(table_x2p1_2000, fwd)
        assert again.assign(table_x2p1_2000.rows(100, 400)) == chosen
        assert np.array_equal(again.fwd, state.fwd)


def counting_blocks(monkeypatch):
    """The root counts of each block CoverState._block assigns, in order."""
    seen = []
    inner = CoverState._block

    def spy(self, primes, nus, *rows):
        seen.append(list(nus))
        return inner(self, primes, nus, *rows)

    monkeypatch.setattr(CoverState, "_block", spy)
    return seen


class TestBlocks:
    def test_survivors_run_out_mid_block(self, table_x_100, monkeypatch):
        # f = x, one root 0: the forward survivors 1..5 fall one per prime
        # (each prime's best class is the smallest survivor's), so the one
        # block of every prime empties after its fifth and gives the rest 0
        fwd0 = full_window(1, 5)
        state = one_sided(table_x_100, fwd0)
        med = usable_between(table_x_100, 6, 60)
        blocks = counting_blocks(monkeypatch)
        chosen = select_shifts_greedy(state, table_x_100.rows(6, 60))
        assert blocks == [[1] * len(med)]
        assert list(chosen.items()) == [(7, 1), (11, 2), (13, 3), (17, 4), (19, 5)] + [
            (q, 0) for q in med[5:]
        ]
        assert list(chosen.items()) == list(oracle_greedy_fwd(med, fwd0, table_x_100)[0].items())
        assert state.fwd.size == state.bwd.size == 0

    @pytest.mark.parametrize("block", [None, 7])
    def test_two_sided_run_out_mid_block_matches_oracle(self, tables_2000, block):
        table = tables_2000["x^2+1"]
        rng = np.random.default_rng(3)
        fwd0, bwd0 = random_window(rng, 1, 400, 0.02), random_window(rng, -400, 400, 0.02)
        n_target = 10**90 + 17
        med = usable_between(table, 50, 900)
        state = CoverState(table, fwd0, bwd0, target_residues(n_target, table))
        with blocks_of(block):
            chosen = select_shifts_greedy(state, table.rows(50, 900))
        ref, ref_fwd, ref_bwd = oracle_greedy_both(med, fwd0, bwd0, table, n_target)
        assert list(chosen.items()) == list(ref.items())
        assert ref_fwd.size == ref_bwd.size == 0 and list(chosen.values())[-1] == 0
        assert state.fwd.size == state.bwd.size == 0

    @pytest.mark.parametrize("block", [None, 7])
    def test_cubic_block_mixes_one_and_three_roots(self, tables_2000, monkeypatch, block):
        # x^3 + 2 has one root mod q = 2 (mod 3) and three or none mod
        # q = 1 (mod 3); a block over consecutive primes holds both counts
        table = tables_2000["x^3+2"]
        rng = np.random.default_rng(5)
        fwd0, bwd0 = random_window(rng, 1, 3000, 0.1), random_window(rng, -3000, 3000, 0.1)
        n_target = 10**400 + 9
        med = usable_between(table, 100, 400)
        state = CoverState(table, fwd0, bwd0, target_residues(n_target, table))
        blocks = counting_blocks(monkeypatch)
        with blocks_of(block):
            chosen = select_shifts_greedy(state, table.rows(100, 400))
        assert any({1, 3} <= set(nus) for nus in blocks)
        ref, ref_fwd, ref_bwd = oracle_greedy_both(med, fwd0, bwd0, table, n_target)
        assert list(chosen.items()) == list(ref.items())
        assert np.array_equal(state.fwd, ref_fwd)
        assert np.array_equal(state.bwd, ref_bwd)


class TestDrawStreams:
    """The small stage takes one numpy call per draw; it must consume the
    generator exactly as one scalar draw per prime did, so that every
    certificate stays the same."""

    def test_small_stage_draw_matches_scalar_loop(self, table_x2p1_2000, monkeypatch):
        # the survivors of a draw at x = 2000 fill 0.497-0.504 of the bound,
        # so a bound of 0.502 of it rejects some draws and the stream is
        # pinned past a rejection too
        density = table_x2p1_2000.density_product
        monkeypatch.setattr(table_x2p1_2000, "density_product", lambda z: 0.502 * density(z))
        params = SieveParams(x=2000)
        n_mod = target_residues(N60, table_x2p1_2000)
        small = usable_between(table_x2p1_2000, 0, params.z)
        rejected = 0
        for seed in range(40):
            rng = stage_rng(seed, 1, 0)
            residues, _, _, rej = sample_small_residue(params, table_x2p1_2000, rng, n_mod)
            scalar = stage_rng(seed, 1, 0)
            for _ in range(rej + 1):
                draw = {q: int(scalar.integers(q)) for q in small}
            assert residues == draw
            assert rng.integers(2**62) == scalar.integers(2**62)
            rejected += rej > 0
        assert rejected

# Edges of the key bins of greedy_cost_table: a prime's keys are its root
# count times the survivors of both windows when its block starts.
KEY_BINS = (100, 1000, 10_000)


def greedy_cost_by_key_bin(f, x, seed=7):
    """[primes, seconds] per key bin over every greedy pass of one two-sided
    construction at x, and the seconds of the whole passes. A block's time is
    spread evenly over its primes; the passes' time also holds their
    per-attempt setup."""
    bins = [[0, 0.0] for _ in range(len(KEY_BINS) + 1)]
    passes = [0.0]
    block, greedy = CoverState._block, cover.select_shifts_greedy

    def timed_block(self, primes, nus, *rows):
        survivors = self.fwd.size + self.bwd.size
        t = time.perf_counter()
        out = block(self, primes, nus, *rows)
        seconds = time.perf_counter() - t
        for nu in nus:
            b = bins[bisect.bisect_right(KEY_BINS, nu * survivors)]
            b[0] += 1
            b[1] += seconds / len(nus)
        return out

    def timed_pass(state, rows):
        t = time.perf_counter()
        out = greedy(state, rows)
        passes[0] += time.perf_counter() - t
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CoverState, "_block", timed_block)
        mp.setattr("composite_forge.assemble.select_shifts_greedy", timed_pass)
        construct_certificate(f, SieveParams(x=x), seed)
    return bins, passes[0]


@pytest.mark.parametrize("x", [300, 3 * 10**4])
def test_cost_by_key_bin_counts_every_block_prime(monkeypatch, x):
    # at 3 * 10^4 most primes are blocks of one; at 300 none are
    f = IntPolynomial.from_monomial([2, 0, 0, 1])
    blocks = counting_blocks(monkeypatch)
    bins, total = greedy_cost_by_key_bin(f, x)
    assert sum(n for n, _ in bins) == sum(map(len, blocks)) > 0
    assert all(t > 0 for n, t in bins if n) and sum(t for _, t in bins) <= total
    assert (x > 300) == any(len(nus) == 1 for nus in blocks)


def greedy_cost_table(xs=(300, 1000, 3000, 10**4, 3 * 10**4), seed=7):
    """Print, for each f and x, the primes and mean microseconds per prime
    in each key bin of the greedy pass, and the passes' total milliseconds.
    Each construction runs twice and the second, warm run is reported."""
    polys = {"x": [0, 1], "x^2+1": [1, 0, 1], "x^3+2": [2, 0, 0, 1]}
    edges = ["<100", "<1k", "<10k", ">=10k"]
    print(f"{'f':6} {'x':>6} " + " ".join(f"{e:>17}" for e in edges) + f" {'pass ms':>8}")
    for x in xs:
        for name, coeffs in polys.items():
            f = IntPolynomial.from_monomial(coeffs)
            greedy_cost_by_key_bin(f, x, seed)
            bins, total = greedy_cost_by_key_bin(f, x, seed)
            cells = [f"{n:6d} x {t / n * 1e6:6.1f} us" if n else f"{'-':>17}" for n, t in bins]
            print(f"{name:6} {x:>6} " + " ".join(cells) + f" {total * 1e3:8.2f}")


if __name__ == "__main__":
    greedy_cost_table()
