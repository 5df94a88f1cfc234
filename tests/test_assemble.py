"""CRT assembly, survivor pairing, window placement, certificate
serialization, and the end-to-end construction driver."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composite_forge.assemble import (
    ConstructionError,
    Placement,
    ResidueCertificate,
    StageRecord,
    auto_target,
    construct_certificate,
    crt_combine,
    pairing_stage,
    place,
)
from composite_forge.cover import SieveParams
from composite_forge.poly import IntPolynomial
from composite_forge.verify import verify_certificate

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def toy_certificate():
    """f = x over the primes up to 8, window length 4, N = 10^7.

    Residues 2:1, 3:2, 5:4, 7:6 combine to b = 209 mod 210; the hand-checked
    placement is b1 = -2000041, I1 = [2000042, 2000045], I2 = [7999955,
    7999958], and every window element has one of 2, 3, 5, 7 as a factor.
    """
    f = IntPolynomial.from_monomial([0, 1])
    params = SieveParams(x=8).with_y(4).with_target(10**7)
    assignments = [(2, 1), (3, 2), (5, 4), (7, 6)]
    placement = place(209, 210, 10**7, 4)
    return ResidueCertificate(
        poly=f,
        params=params,
        seed=0,
        stages=[StageRecord("small", "both", assignments)],
        irreducibility="proved",
        placement=placement,
    )


class TestCrtCombine:
    def test_hand_case(self):
        b, modulus = crt_combine({3: 2, 5: 3, 7: 2})
        assert (b, modulus) == (23, 105)

    def test_toy_residues(self):
        b, modulus = crt_combine({2: 1, 3: 2, 5: 4, 7: 6})
        assert (b, modulus) == (209, 210)

    def test_accepts_pairs(self):
        assert crt_combine([(3, 1), (5, 2)]) == crt_combine({3: 1, 5: 2})

    def test_duplicate_prime_rejected(self):
        with pytest.raises(ValueError):
            crt_combine([(5, 1), (5, 2)])

    def test_empty(self):
        assert crt_combine({}) == (0, 1)

    @given(
        subset=st.sets(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=8),
        salt=st.integers(0, 10**9),
    )
    @settings(max_examples=200)
    def test_round_trip(self, subset, salt):
        residues = {q: (salt ^ q) % q for q in subset}
        b, modulus = crt_combine(residues)
        assert modulus == math.prod(subset)
        assert 0 <= b < modulus
        for q, r in residues.items():
            assert b % q == r


class TestPairing:
    def test_forward_assignment(self, table_x_100):
        out_f, out_b = pairing_stage([5, 17], [], table_x_100, 100, 10**6)
        # survivors pair with the usable primes of (50, 75] in order
        assert list(out_f) == [53, 59]
        assert out_f[53] == 5 and out_f[59] == 17
        assert out_b == {}

    def test_backward_assignment(self, table_x_100):
        N = 10**6
        out_f, out_b = pairing_stage([], [-3], table_x_100, 100, N)
        assert list(out_b) == [79]
        # the backward kill class of (q, r) must land on the survivor offset
        assert (-N - out_b[79]) % 79 == (-3) % 79

    def test_root_offset_respected(self, table_x2p1_100, f_x2p1):
        N = 10**30
        out_f, out_b = pairing_stage([7], [-9], table_x2p1_100, 100, N)
        (qf,) = out_f
        (qb,) = out_b
        alpha_f = table_x2p1_100.roots[qf][0]
        alpha_b = table_x2p1_100.roots[qb][0]
        assert (7 - out_f[qf]) % qf == alpha_f
        assert (-N - out_b[qb] + alpha_b) % qb == (-9) % qb
        # pools are disjoint halves of (x/2, x]
        assert 50 < qf <= 75 < qb <= 100

    def test_capacity_exceeded(self, table_x_100):
        with pytest.raises(ConstructionError) as exc:
            pairing_stage(list(range(1, 8)), [], table_x_100, 100, 10**6)
        assert exc.value.diagnostics["capacity_fwd"] == 6

    def test_each_prime_used_once(self, table_x_100):
        out_f, out_b = pairing_stage([1, 2, 3], [-1, -2], table_x_100, 100, 10**6)
        assert len(out_f) == 3 and len(out_b) == 2
        assert set(out_f).isdisjoint(out_b)


class TestPlacement:
    def test_auto_target(self):
        assert auto_target(15) == 10**4  # 15^3 = 3375
        assert auto_target(210) == 10**7  # 210^3 = 9261000
        assert auto_target(1) == 1
        assert auto_target(10) == 10**3

    def test_hand_case(self):
        pl = place(7, 15, 10**6, 30)
        assert pl.b1 == -200003
        assert pl.b1 % 15 == 7 % 15
        assert pl.b2 == 200003
        assert pl.I1 == (200004, 200033)
        assert pl.I2 == (10**6 - 200033, 10**6 - 200004)
        assert pl.n1 == 200018 and pl.n2 == 10**6 - 200018
        assert pl.m == 14

    def test_toy_case(self):
        pl = place(209, 210, 10**7, 4)
        assert pl.b1 == -2000041
        assert pl.I1 == (2000042, 2000045)
        assert pl.I2 == (7999955, 7999958)
        assert pl.n1 == 2000043 and pl.n2 == 7999957
        assert pl.m == 1

    def test_b1_is_largest_in_window(self):
        pl = place(7, 15, 10**6, 30)
        assert pl.b1 + 15 > -((10**6 + 4) // 5)
        assert pl.b1 >= -((3 * 10**6) // 10)

    def test_rejects_oversized_modulus(self):
        with pytest.raises(ConstructionError):
            place(1, 101, 10**6, 10)  # 101^3 > 10^6

    def test_centers_split_target(self):
        for b, P, N, y in [(3, 35, 10**6, 20), (11, 105, 10**9, 101)]:
            pl = place(b, P, N, y)
            assert pl.n1 + pl.n2 == N
            assert pl.I1[1] - pl.I1[0] == y - 1
            assert pl.I2[1] - pl.I2[0] == y - 1
            # the two windows mirror each other through N/2
            assert pl.I2 == (N - pl.I1[1], N - pl.I1[0])

    def test_json_round_trip(self):
        pl = place(209, 210, 10**7, 4)
        again = Placement.from_json(json.loads(json.dumps(pl.to_json())))
        assert again == pl
        assert isinstance(pl.to_json()["N"], str)


class TestCertificateSerialization:
    def test_round_trip(self):
        cert = toy_certificate()
        again = ResidueCertificate.from_json_dict(cert.to_json_dict())
        assert again.to_json_bytes() == cert.to_json_bytes()
        assert again.residues() == {2: 1, 3: 2, 5: 4, 7: 6}
        assert again.placement == cert.placement
        assert again.params.y == 4

    def test_bytes_shape(self):
        raw = toy_certificate().to_json_bytes()
        assert raw.endswith(b"\n")
        obj = json.loads(raw)
        assert obj["version"] == 1
        assert obj["poly"]["basis"] == "binomial"
        assert obj["placement"]["N"] == "10000000"
        assert obj["stages"][0]["assignments"] == [[2, 1], [3, 2], [5, 4], [7, 6]]

    def test_save_load(self, tmp_path):
        cert = toy_certificate()
        path = tmp_path / "cert.json"
        cert.save(str(path))
        assert ResidueCertificate.load(str(path)).to_json_bytes() == cert.to_json_bytes()

    def test_modulus_and_b(self):
        cert = toy_certificate()
        assert cert.modulus() == 210
        assert cert.b_mod() == (209, 210)
        assert cert.p_x_bitlength == 8

    def test_duplicate_assignment_detected(self):
        cert = toy_certificate()
        cert.stages.append(StageRecord("cleanup", "fwd", [(5, 0)]))
        with pytest.raises(ValueError):
            cert.residues()


class TestConstructCertificate:
    def test_end_to_end_linear(self, f_x, cache_dir):
        cert, stats = construct_certificate(
            f_x, SieveParams(x=300), seed=7, cache_dir=cache_dir
        )
        e = stats.extras
        assert e["achieved_y"] <= e["formula_y"] == 716
        assert e["residual_fwd"] <= e["capacity_fwd"]
        assert e["residual_bwd"] <= e["capacity_bwd"]
        pl = cert.placement
        assert pl.n1 + pl.n2 == pl.N
        assert pl.N == auto_target(cert.modulus())
        assert cert.irreducibility == "proved"
        report = verify_certificate(cert, deep=True)
        assert report.valid, report.messages

    def test_stage_tags(self, f_x, cache_dir):
        cert, _ = construct_certificate(
            f_x, SieveParams(x=300), seed=7, cache_dir=cache_dir
        )
        tags = [(s.stage, s.side) for s in cert.stages]
        assert tags[0] == ("small", "both")
        assert ("medium", "both") in tags
        assert all(s.stage in {"small", "medium", "cleanup"} for s in cert.stages)
        assert all(s.side in {"fwd", "bwd", "both"} for s in cert.stages)

    def test_stats_rows_accounting(self, f_x2p1, cache_dir):
        _, stats = construct_certificate(
            f_x2p1, SieveParams(x=300), seed=7, cache_dir=cache_dir
        )
        stages = [(r.stage, r.side) for r in stats.rows]
        assert ("small", "fwd") in stages and ("medium", "fwd") in stages
        assert ("cleanup", "fwd") in stages
        med = [r for r in stats.rows if r.stage == "medium"]
        for r in med:
            assert r.survivors_after <= r.capacity
        cleanup = [r for r in stats.rows if r.stage == "cleanup"]
        for r in cleanup:
            assert r.survivors_after == 0

    def test_attempt_outcomes_recorded(self, f_x2p1, cache_dir, monkeypatch):
        # every window-length attempt starts with exactly one small-stage draw
        from composite_forge import assemble

        tried = []
        draw = assemble.sample_small_residue

        def counting_draw(params, *args, **kwargs):
            tried.append(params.y)
            return draw(params, *args, **kwargs)

        monkeypatch.setattr(assemble, "sample_small_residue", counting_draw)
        _, stats = construct_certificate(
            f_x2p1, SieveParams(x=300), seed=7, cache_dir=cache_dir
        )
        e = stats.extras
        attempts = e["attempts"]
        assert [a["y"] for a in attempts] == tried
        assert {a["outcome"] for a in attempts} <= {
            "ok", "small_retry_budget", "residual_over_capacity", "pairing_failed",
        }
        last_ok = [a for a in attempts if a["outcome"] == "ok"][-1]
        assert last_ok["y"] == e["achieved_y"]
        assert (last_ok["residual_fwd"], last_ok["residual_bwd"]) == (
            e["residual_fwd"], e["residual_bwd"],
        )
        for a in attempts:
            if a["outcome"] == "residual_over_capacity":
                assert a["residual_fwd"] > e["capacity_fwd"] or (
                    a["residual_bwd"] > e["capacity_bwd"]
                )

    @pytest.mark.parametrize("two_sided,calls", [(True, 2), (False, 1)])
    def test_sieves_only_for_the_final_check(
        self, f_x2p1, cache_dir, monkeypatch, two_sided, calls
    ):
        # post-medium residuals come from the cover-count engine; the full
        # re-sieve runs once per window, as the independent final check
        from composite_forge import assemble

        seen = []
        sieve = assemble.sieve_survivors

        def counting_sieve(*args, **kwargs):
            seen.append(args[2])
            return sieve(*args, **kwargs)

        monkeypatch.setattr(assemble, "sieve_survivors", counting_sieve)
        _, stats = construct_certificate(
            f_x2p1, SieveParams(x=300), seed=7, two_sided=two_sided, cache_dir=cache_dir
        )
        y = stats.extras["achieved_y"]
        # several window lengths were tried, so a per-attempt sieve would show
        assert len(stats.extras["attempts"]) > 1
        assert seen == [(1, y), (-y, -1)][:calls]

    def test_every_usable_prime_assigned(self, f_x, cache_dir):
        cert, _ = construct_certificate(
            f_x, SieveParams(x=300), seed=7, cache_dir=cache_dir
        )
        from composite_forge.modroots import build_root_table

        table = build_root_table(f_x, 300, cache_dir=cache_dir)
        assert sorted(cert.residues()) == table.usable_primes()

    def test_deterministic_bytes(self, f_x2p1, cache_dir):
        a, _ = construct_certificate(f_x2p1, SieveParams(x=300), seed=11, cache_dir=cache_dir)
        b, _ = construct_certificate(f_x2p1, SieveParams(x=300), seed=11, cache_dir=cache_dir)
        assert a.to_json_bytes() == b.to_json_bytes()

    def test_seed_changes_output(self, f_x2p1, cache_dir):
        a, _ = construct_certificate(f_x2p1, SieveParams(x=300), seed=1, cache_dir=cache_dir)
        b, _ = construct_certificate(f_x2p1, SieveParams(x=300), seed=2, cache_dir=cache_dir)
        assert a.to_json_bytes() != b.to_json_bytes()

    def test_infeasible_x_raises(self, f_x2p1):
        with pytest.raises(ConstructionError):
            construct_certificate(f_x2p1, SieveParams(x=10), seed=1)

    def test_reducible_poly_raises(self):
        f = IntPolynomial.from_monomial([-1, 0, 1])
        with pytest.raises(ConstructionError):
            construct_certificate(f, SieveParams(x=300), seed=0)

    def test_explicit_target_too_small(self, f_x):
        with pytest.raises(ConstructionError):
            construct_certificate(f_x, SieveParams(x=300), seed=0, n_target=10**6)

    def test_one_sided_has_no_placement(self, f_x, cache_dir):
        cert, _ = construct_certificate(
            f_x, SieveParams(x=300), seed=7, two_sided=False, cache_dir=cache_dir
        )
        assert cert.placement is None
        report = verify_certificate(cert, deep=True)
        assert report.valid
        assert report.checked == cert.params.y

    def test_random_mode_verifies(self, f_x, cache_dir):
        cert, stats = construct_certificate(
            f_x, SieveParams(x=300), seed=3, mode="random", cache_dir=cache_dir
        )
        assert stats.extras["mode"] == "random"
        assert verify_certificate(cert, deep=True).valid

    def test_bad_mode_rejected(self, f_x):
        with pytest.raises(ValueError):
            construct_certificate(f_x, SieveParams(x=300), seed=0, mode="clever")
