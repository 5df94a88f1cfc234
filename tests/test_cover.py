"""Parameter formulas, the scale ladder, small-prime residue sampling, shift
selection (greedy and randomized), refinement, and the cover-count engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composite_forge import cover
from composite_forge.assemble import stage_rng
from composite_forge.cover import (
    CoverChoice,
    CoverPlan,
    CoverState,
    RetryBudgetError,
    SieveParams,
    backward_class_scores,
    backward_residues,
    build_ladder,
    forward_class_scores,
    refine_residues,
    sample_small_residue,
    select_shifts_greedy,
    select_shifts_random,
    shift_range,
)
from composite_forge.sievecore import SurvivorSet, sieve_survivors


def full_window(lo, hi):
    return SurvivorSet(lo, hi, np.ones(hi - lo + 1, dtype=bool), 0, 0)


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
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SieveParams(**kwargs)

    def test_delta_shrinks_y(self):
        assert SieveParams(x=2000, delta=0.25).y < SieveParams(x=2000, delta=0.5).y

    def test_json_round_trip(self):
        p = SieveParams(x=500, delta=0.4, eps=0.03).with_y(700).with_target(10**30)
        q = SieveParams.from_json(p.to_json(), n_target=10**30)
        assert q.x == p.x and q.y == 700 and q.z == p.z
        assert q.delta == p.delta and q.eps == p.eps
        assert q.N_target == 10**30

    def test_json_rejects_inconsistent_z(self):
        obj = SieveParams(x=500).to_json()
        obj["z"] = obj["z"] + 1
        with pytest.raises(ValueError):
            SieveParams.from_json(obj)

    def test_constraint_report(self):
        # at delta = 0.5 the density threshold blows up and is only reported
        r = SieveParams(x=2000).constraint_report(rho_hat=0.5)
        assert not math.isfinite(r["rho_threshold"])
        assert r["satisfied"] is False
        r2 = SieveParams(x=2000, delta=0.25).constraint_report(rho_hat=0.5)
        assert math.isfinite(r2["rho_threshold"])


class TestLadder:
    def test_frozen_shape_at_1e4(self, f_x, cache_dir):
        from composite_forge.modroots import build_root_table

        # prime counts per scale window checked against a prime-pi table
        table = build_root_table(f_x, 10**4, cache_dir=cache_dir)
        ladder = build_ladder(SieveParams(x=10**4), table)
        assert [s.H for s in ladder.scales] == [8, 16, 32, 64]
        assert [s.side for s in ladder.scales] == ["bwd", "fwd", "bwd", "fwd"]
        sizes = [sum(len(v) for v in s.buckets.values()) for s in ladder.scales]
        assert sizes == [237, 129, 70, 40]

    def test_buckets_live_in_their_scale_windows(self, table_x2p1_2000):
        # scale windows tile only part of (z, x/2]; primes outside every
        # window stay unassigned in randomized mode
        params = SieveParams(x=2000)
        y, xi = params.y, params.xi
        ladder = build_ladder(params, table_x2p1_2000)
        seen = []
        for s in ladder.scales:
            for nu, qs in s.buckets.items():
                for q in qs:
                    assert y / (xi * s.H) < q <= y / s.H
                    assert params.z < q <= params.x / 2
                    assert len(table_x2p1_2000.roots[q]) == nu
                seen.extend(qs)
        assert len(set(seen)) == len(seen)
        assert set(seen) <= set(table_x2p1_2000.usable_between(params.z, 1000))


class TestSmallStage:
    def test_residues_cover_small_primes(self, table_x2p1_2000):
        params = SieveParams(x=2000, N_target=10**60)
        residues, fwd, bwd, rej = sample_small_residue(
            params, table_x2p1_2000, stage_rng(1, 1, 0)
        )
        assert sorted(residues) == table_x2p1_2000.usable_between(0, params.z)
        assert all(0 <= r < q for q, r in residues.items())
        bound = 2.0 * table_x2p1_2000.density_product(params.z) * params.y
        assert fwd.count() <= bound
        assert bwd.count() <= bound
        assert rej >= 0

    def test_survivors_match_resieve(self, table_x2p1_2000):
        params = SieveParams(x=2000, N_target=10**60)
        residues, fwd, bwd, _ = sample_small_residue(
            params, table_x2p1_2000, stage_rng(2, 1, 0)
        )
        again = sieve_survivors(table_x2p1_2000, residues, (1, params.y), (0, params.z))
        assert np.array_equal(fwd.bits, again.bits)
        back = sieve_survivors(
            table_x2p1_2000,
            backward_residues(residues, params.N_target),
            (-params.y, -1),
            (0, params.z),
        )
        assert np.array_equal(bwd.bits, back.bits)

    def test_two_sided_needs_target(self, table_x2p1_2000):
        with pytest.raises(ValueError):
            sample_small_residue(SieveParams(x=2000), table_x2p1_2000, stage_rng(0, 1, 0))

    def test_impossible_threshold_exhausts_budget(self, table_x2p1_2000):
        params = SieveParams(x=2000, N_target=10**60, retry_budget=5)
        with pytest.raises(RetryBudgetError):
            sample_small_residue(
                params, table_x2p1_2000, stage_rng(0, 1, 0), threshold_factor=0.01
            )

    def test_deterministic_given_stream(self, table_x2p1_2000):
        params = SieveParams(x=2000, N_target=10**60)
        a = sample_small_residue(params, table_x2p1_2000, stage_rng(7, 1, 0))
        b = sample_small_residue(params, table_x2p1_2000, stage_rng(7, 1, 0))
        assert a[0] == b[0]


class TestBackwardResidues:
    def test_kill_class_identity(self, table_x2p1_100):
        # the backward frame sieves offsets j in [-y, -1]; j must be killed
        # exactly when the window element sits in a root class, and that
        # element is congruent to N + r + j mod q
        N = 10**12 + 39
        residues = {5: 2, 13: 7, 17: 11}
        back = backward_residues(residues, N)
        for q, r in residues.items():
            roots = set(table_x2p1_100.roots[q])
            for j in range(-60, 0):
                killed = (j - back[q]) % q in roots
                assert killed == ((N + r + j) % q in roots)


class TestGreedySelection:
    def test_single_prime_hand_case(self, table_x_100):
        plan = select_shifts_greedy([7], full_window(1, 30), table_x_100)
        (c,) = plan.choices
        # classes 1 and 2 mod 7 tie at 5 hits in [1, 30]; argmax takes 1
        assert (c.q, c.residue, c.covered_fwd) == (7, 1, 5)
        assert len(plan.residual_fwd) == 25

    def test_descending_prime_order(self, table_x_100):
        plan = select_shifts_greedy([7, 11, 13], full_window(1, 40), table_x_100)
        assert [c.q for c in plan.choices] == [13, 11, 7]

    def test_coverage_bookkeeping_is_exact(self, table_x2p1_2000):
        params = SieveParams(x=2000)
        residues, fwd, _, _ = sample_small_residue(
            params, table_x2p1_2000, stage_rng(3, 1, 0), two_sided=False
        )
        med = table_x2p1_2000.usable_between(params.z, 300)
        plan = select_shifts_greedy(med, fwd, table_x2p1_2000)
        assert fwd.count() - sum(c.covered_fwd for c in plan.choices) == len(
            plan.residual_fwd
        )
        # residual must equal an actual re-sieve with the chosen residues
        merged = dict(residues)
        merged.update(plan.residues())
        resieved = sieve_survivors(
            table_x2p1_2000, merged, (1, params.y), (0, 300)
        )
        assert list(resieved.survivors()) == list(plan.residual_fwd)

    def test_joint_two_sided_consistency(self, table_x2p1_2000):
        params = SieveParams(x=2000, N_target=10**60)
        residues, fwd, bwd, _ = sample_small_residue(
            params, table_x2p1_2000, stage_rng(4, 1, 0)
        )
        med = table_x2p1_2000.usable_between(params.z, 400)
        plan = select_shifts_greedy(
            med, fwd, table_x2p1_2000, paired=bwd, n_target=params.N_target
        )
        merged = dict(residues)
        merged.update(plan.residues())
        f2 = sieve_survivors(table_x2p1_2000, merged, (1, params.y), (0, 400))
        b2 = sieve_survivors(
            table_x2p1_2000,
            backward_residues(merged, params.N_target),
            (-params.y, -1),
            (0, 400),
        )
        assert list(f2.survivors()) == list(plan.residual_fwd)
        assert list(b2.survivors()) == list(plan.residual_bwd)

    def test_both_requires_target(self, table_x2p1_100):
        with pytest.raises(ValueError):
            select_shifts_greedy(
                [13], full_window(1, 20), table_x2p1_100, paired=full_window(-20, -1)
            )

    def test_greedy_beats_random_here(self, table_x2p1_2000):
        params = SieveParams(x=2000)
        _, fwd, _, _ = sample_small_residue(
            params, table_x2p1_2000, stage_rng(5, 1, 0), two_sided=False
        )
        med = table_x2p1_2000.usable_between(params.z, 1000)
        greedy = select_shifts_greedy(med, fwd, table_x2p1_2000)
        ladder = build_ladder(params, table_x2p1_2000)
        rnd = select_shifts_random(
            ladder, "fwd", fwd, stage_rng(5, 2, 0), params, table_x2p1_2000
        )
        merged = rnd.residues()
        skip = {q for q in med if q not in merged}
        after = sieve_survivors(
            table_x2p1_2000, merged, (1, params.y), (params.z, 1000), skip=skip
        )
        leftover_random = sum(1 for t in fwd.survivors() if after.contains(int(t)))
        assert len(greedy.residual_fwd) <= leftover_random


class TestRandomSelection:
    def test_one_choice_per_bucket_prime(self, table_x2p1_2000):
        params = SieveParams(x=2000)
        ladder = build_ladder(params, table_x2p1_2000)
        plan = select_shifts_random(
            ladder, "fwd", None, stage_rng(9, 2, 0), params, table_x2p1_2000
        )
        fwd_primes = [q for s in ladder.side_scales("fwd") for q in s.primes()]
        assert sorted(c.q for c in plan.choices) == sorted(fwd_primes)
        assert plan.dropped == []
        lo, hi = shift_range(params, "fwd")
        for c in plan.choices:
            assert 0 <= c.residue < c.q
            assert lo <= c.shift <= hi
            assert c.residue == c.shift % c.q

    def test_backward_residue_convention(self, table_x2p1_2000):
        params = SieveParams(x=2000, N_target=10**60)
        ladder = build_ladder(params, table_x2p1_2000)
        plan = select_shifts_random(
            ladder, "bwd", None, stage_rng(9, 2, 1), params, table_x2p1_2000
        )
        for c in plan.choices:
            assert c.residue == (-params.N_target - c.shift) % c.q

    def test_rejects_bad_side(self, table_x2p1_100):
        params = SieveParams(x=100)
        ladder = build_ladder(params, table_x2p1_100)
        with pytest.raises(ValueError):
            select_shifts_random(
                ladder, "both", None, stage_rng(0, 2, 0), params, table_x2p1_100
            )


class TestResidualCheck:
    def test_capacities(self, table_x_100):
        # the residual-vs-capacity check lives in the pairing stage
        from composite_forge.assemble import ConstructionError, pairing_stage

        # usable primes in (50, 75] absorb forward, (75, 100] backward survivors
        with pytest.raises(ConstructionError) as exc:
            pairing_stage([1, 2, 3], [-1, -2, -3, -4, -5], table_x_100, 100, 10**6)
        d = exc.value.diagnostics
        assert (d["capacity_fwd"], d["capacity_bwd"]) == (6, 4)
        assert (d["residual_fwd"], d["residual_bwd"]) == (3, 5)
        out_f, out_b = pairing_stage(
            [1, 2, 3], [-1, -2, -3, -4], table_x_100, 100, 10**6
        )
        assert (len(out_f), len(out_b)) == (3, 4)


class TestRefinement:
    def test_never_increases_joint_residual(self, table_x2p1_2000):
        params = SieveParams(x=2000, N_target=10**60)
        residues, fwd, bwd, _ = sample_small_residue(
            params, table_x2p1_2000, stage_rng(6, 1, 0)
        )
        med = table_x2p1_2000.usable_between(params.z, 1000)
        plan = select_shifts_greedy(
            med, fwd, table_x2p1_2000, paired=bwd, n_target=params.N_target
        )
        merged = dict(residues)
        merged.update(plan.residues())

        def joint_residual(assignment):
            f = sieve_survivors(table_x2p1_2000, assignment, (1, params.y), (0, 1000))
            b = sieve_survivors(
                table_x2p1_2000,
                backward_residues(assignment, params.N_target),
                (-params.y, -1),
                (0, 1000),
            )
            return f.count() + b.count()

        before = joint_residual(merged)
        refined = refine_residues(
            table_x2p1_2000, params, merged, med, params.N_target, sweeps=2
        )
        assert sorted(refined) == sorted(merged)
        assert joint_residual(refined) <= before

    def test_zero_sweeps_is_identity(self, table_x2p1_2000):
        params = SieveParams(x=2000, N_target=10**60)
        residues = {5: 1, 13: 2}
        out = refine_residues(
            table_x2p1_2000, params, residues, [], params.N_target, sweeps=0
        )
        assert out == residues and out is not residues


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


# Reference oracles: the re-sieve refinement and the copy-and-kill greedy
# loops (joint and forward-only) that CoverState replaced, kept verbatim in
# behaviour.


def covered_mask_bwd(pos, q, r, alphas, n_target):
    """Backward offsets in pos that residue r of q kills."""
    return np.isin((pos + n_target % q + r) % q, np.asarray(alphas) % q)


def oracle_greedy_both(primes, survivors, paired, table, n_target):
    F, B = survivors.copy(), paired.copy()
    plan = CoverPlan(mode="greedy")
    for q in sorted(set(primes), reverse=True):
        alphas = table.roots[q]
        if not alphas:
            continue
        fpos, bpos = F.survivors(), B.survivors()
        scores = forward_class_scores(q, alphas, fpos) + backward_class_scores(
            q, alphas, bpos, n_target
        )
        r = int(np.argmax(scores))
        fmask = np.isin((fpos - r) % q, np.asarray(alphas) % q)
        bmask = covered_mask_bwd(bpos, q, r, alphas, n_target)
        F.kill(fpos[fmask])
        B.kill(bpos[bmask])
        plan.choices.append(
            CoverChoice(q, "both", r, r - q, int(fmask.sum()), int(bmask.sum()))
        )
    plan.residual_fwd = F.survivors()
    plan.residual_bwd = B.survivors()
    return plan


def oracle_greedy_fwd(primes, survivors, table):
    F = survivors.copy()
    plan = CoverPlan(mode="greedy")
    for q in sorted(set(primes), reverse=True):
        alphas = table.roots[q]
        if not alphas:
            continue
        pos = F.survivors()
        scores = forward_class_scores(q, alphas, pos)
        base = int(np.argmax(scores))
        mask = np.isin((pos - base) % q, np.asarray(alphas) % q)
        F.kill(pos[mask])
        covered = int(mask.sum())
        plan.choices.append(CoverChoice(q, "fwd", base, base - q, covered, 0))
    plan.residual_fwd = F.survivors()
    return plan


def oracle_refine(table, params, residues, medium_primes, n_target, sweeps):
    if sweeps <= 0:
        return dict(residues)
    y = params.y
    out = dict(residues)
    hi = max(medium_primes, default=0)
    for _ in range(sweeps):
        for q in sorted(medium_primes, reverse=True):
            others = {p: r for p, r in out.items() if p != q}
            fwd = sieve_survivors(table, others, (1, y), (0, hi), skip={q})
            bwd = sieve_survivors(
                table, backward_residues(others, n_target), (-y, -1), (0, hi), skip={q}
            )
            alphas = table.roots[q]
            fpos, bpos = fwd.survivors(), bwd.survivors()
            scores = forward_class_scores(q, alphas, fpos) + backward_class_scores(
                q, alphas, bpos, n_target
            )
            out[q] = int(np.argmax(scores))
    return out


@pytest.fixture(scope="module")
def tables_2000(f_x, f_x2p1, table_x2p1_2000, cache_dir):
    from composite_forge.modroots import build_root_table

    return {"x": build_root_table(f_x, 2000, cache_dir=cache_dir), "x^2+1": table_x2p1_2000}


def choice_tuples(plan):
    return [(c.q, c.side, c.residue, c.shift, c.covered_fwd, c.covered_bwd) for c in plan.choices]


class TestCoverState:
    @given(
        poly=st.sampled_from(["x", "x^2+1"]),
        x=st.integers(100, 2000),
        draw_seed=st.integers(0, 2**32 - 1),
        n_target=st.integers(10**100, 10**1500),
        sweeps=st.sampled_from([0, 1, 2]),
        paired=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_resieve_oracles(
        self, tables_2000, poly, x, draw_seed, n_target, sweeps, paired
    ):
        table = tables_2000[poly]
        params = SieveParams(x=x, N_target=n_target)
        y, z = params.y, params.z
        rng = np.random.default_rng(draw_seed)
        small = {q: int(rng.integers(q)) for q in table.usable_between(0, z)}
        fwd0 = sieve_survivors(table, small, (1, y), (0, z))
        bwd0 = sieve_survivors(table, backward_residues(small, n_target), (-y, -1), (0, z))
        med = table.usable_between(z, x / 2)

        if paired:
            plan = select_shifts_greedy(med, fwd0, table, paired=bwd0, n_target=n_target)
            ref = oracle_greedy_both(med, fwd0, bwd0, table, n_target)
            assert np.array_equal(plan.residual_bwd, ref.residual_bwd)
        else:
            # one-sided: the backward window is empty and only forward
            # survivors are scored
            plan = select_shifts_greedy(med, fwd0, table, n_target=n_target)
            ref = oracle_greedy_fwd(med, fwd0, table)
            assert plan.residual_bwd.size == 0
        assert choice_tuples(plan) == choice_tuples(ref)
        assert plan.residual_fwd.dtype == ref.residual_fwd.dtype == np.int64
        assert np.array_equal(plan.residual_fwd, ref.residual_fwd)

        merged = dict(small)
        merged.update(plan.residues())
        got = refine_residues(table, params, merged, med, n_target, sweeps)
        assert got == oracle_refine(table, params, merged, med, n_target, sweeps)

    def test_add_then_remove_restores_counts(self, table_x2p1_100):
        N = 10**80 + 3
        residues = {13: 4, 17: 9}
        state = CoverState.empty(table_x2p1_100, 60, N)
        for q, r in residues.items():
            state.add(q, r)
        fwd = sieve_survivors(table_x2p1_100, residues, (1, 60), (12, 17))
        bwd = sieve_survivors(
            table_x2p1_100, backward_residues(residues, N), (-60, -1), (12, 17)
        )
        assert list(state.survivors_fwd()) == list(fwd.survivors())
        assert list(state.survivors_bwd()) == list(bwd.survivors())
        for q, r in residues.items():
            state.remove(q, r)
        assert not state.fwd.any() and not state.bwd.any()
        assert list(state.survivors_bwd()) == list(range(-60, 0))

    def test_engine_paths_do_not_resieve(self, table_x2p1_2000, monkeypatch):
        params = SieveParams(x=2000, N_target=10**60)
        residues, fwd, bwd, _ = sample_small_residue(
            params, table_x2p1_2000, stage_rng(6, 1, 0)
        )
        med = table_x2p1_2000.usable_between(params.z, 1000)

        def forbidden(*args, **kwargs):
            raise AssertionError("the engine must not re-sieve")

        monkeypatch.setattr(cover, "sieve_survivors", forbidden)
        monkeypatch.setattr(cover, "backward_residues", forbidden)
        monkeypatch.setattr(np, "isin", forbidden)
        plan = select_shifts_greedy(
            med, fwd, table_x2p1_2000, paired=bwd, n_target=params.N_target
        )
        merged = dict(residues)
        merged.update(plan.residues())
        refine_residues(table_x2p1_2000, params, merged, med, params.N_target, sweeps=1)
