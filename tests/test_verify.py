"""Stateless certificate verification (including fault injection), the
longest-run oracle, and the covering simulation harness."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composite_forge.verify as verify_mod
from composite_forge.assemble import ResidueCertificate, StageRecord, construct_certificate
from composite_forge.cover import SieveParams
from composite_forge.modroots import build_root_table, companion_eval_mod
from composite_forge.poly import IntPolynomial
from composite_forge.verify import (
    VERIFY_SAMPLE_STREAM,
    CoveringConfigError,
    CoveringSimConfig,
    RunRecord,
    Witness,
    covering_lemma_sim,
    find_witness,
    oracle_longest_run,
    verify_certificate,
)

from test_assemble import toy_certificate


def reload(cert):
    """Round-trip through JSON so tampering happens on serialized content."""
    return ResidueCertificate.from_json_dict(cert.to_json_dict())


class TestVerifyToyCertificate:
    def test_valid_deep(self):
        report = verify_certificate(toy_certificate(), deep=True)
        assert report.valid
        assert report.checked == 8  # both windows of length 4
        assert report.failures == [] and report.messages == []
        for w in report.witnesses:
            assert w.q in {2, 3, 5, 7}

    def test_witnesses_divide_values(self):
        report = verify_certificate(toy_certificate(), deep=True)
        f = IntPolynomial.from_monomial([0, 1])
        assert len(report.witnesses) == 8
        for w in report.witnesses:
            v = f.eval(w.n)
            assert v % w.q == 0
            assert 1 < w.q < abs(v)

    def test_fast_mode_subset(self):
        report = verify_certificate(toy_certificate(), deep=False)
        assert report.valid
        assert report.mode == "fast"
        assert 0 < report.checked <= 8

    def test_fast_mode_seed_deterministic(self):
        a = verify_certificate(toy_certificate(), seed=5)
        b = verify_certificate(toy_certificate(), seed=5)
        assert a.to_json_dict() == b.to_json_dict()

    def test_witness_primes_count_checked_values(self):
        report = verify_certificate(toy_certificate(), deep=True)
        assert sum(report.witness_primes.values()) == report.checked - len(report.failures)
        # smallest prime factors: 2000042..2000045 -> 2, 3, 2, 5 and
        # 7999955..7999958 -> 5, 2, 7, 2
        assert report.witness_primes == {2: 4, 3: 1, 5: 2, 7: 1}
        assert report.to_json_dict()["witness_primes"] == {"2": 4, "3": 1, "5": 2, "7": 1}
        assert list(report.to_json_dict()["witness_primes"]) == ["2", "3", "5", "7"]

    def test_witness_primes_skip_failures(self):
        cert = reload(toy_certificate())
        cert.stages[0].assignments = [(2, 1), (3, 2), (5, 3), (7, 6)]
        report = verify_certificate(cert, deep=True)
        assert 5 not in report.witness_primes
        assert sum(report.witness_primes.values()) == report.checked - len(report.failures)


class TestFaultInjection:
    def test_corrupt_residue_pinpoints_failures(self):
        cert = reload(toy_certificate())
        # 5: 4 -> 5: 3 silently drops prime 5 from the witness pool
        cert.stages[0].assignments = [(2, 1), (3, 2), (5, 3), (7, 6)]
        report = verify_certificate(cert, deep=True)
        assert not report.valid
        assert report.failures == [2000045, 7999955]
        assert any("prime 5" in m for m in report.messages)

    def test_fast_mode_catches_endpoint_fault(self):
        cert = reload(toy_certificate())
        cert.stages[0].assignments = [(2, 1), (3, 2), (5, 3), (7, 6)]
        # 2000045 is the I1 right endpoint, always among the fast targets
        report = verify_certificate(cert, deep=False)
        assert not report.valid
        assert 2000045 in report.failures

    def test_shifted_center(self):
        cert = reload(toy_certificate())
        pl = cert.placement
        cert.placement = dataclasses.replace(pl, n1=pl.n1 + 1, n2=pl.n2 - 1)
        report = verify_certificate(cert, deep=True)
        assert not report.valid
        assert any("centers" in m for m in report.messages)

    def test_center_sum_mismatch(self):
        cert = reload(toy_certificate())
        pl = cert.placement
        cert.placement = dataclasses.replace(pl, n2=pl.n2 + 2)
        report = verify_certificate(cert, deep=True)
        assert not report.valid

    def test_window_bounds_tampered(self):
        cert = reload(toy_certificate())
        pl = cert.placement
        cert.placement = dataclasses.replace(pl, I2=(pl.I2[0] - 1, pl.I2[1] - 1))
        report = verify_certificate(cert, deep=True)
        assert not report.valid
        assert any("window bounds" in m for m in report.messages)

    def test_b1_outside_band(self):
        cert = reload(toy_certificate())
        pl = cert.placement
        shift = 210 * ((pl.N // 2) // 210)
        cert.placement = dataclasses.replace(pl, b1=pl.b1 + shift, b2=-(pl.b1 + shift))
        report = verify_certificate(cert, deep=True)
        assert not report.valid
        assert any("b1" in m for m in report.messages)

    def test_unknown_stage_tag(self):
        cert = reload(toy_certificate())
        cert.stages[0].stage = "huge"
        report = verify_certificate(cert, deep=True)
        assert not report.valid
        assert any("stage tag" in m for m in report.messages)

    def test_bad_version(self):
        cert = reload(toy_certificate())
        cert.version = 2
        report = verify_certificate(cert, deep=True)
        assert not report.valid

    def test_foreign_prime_flagged(self):
        cert = reload(toy_certificate())
        cert.stages.append(StageRecord("cleanup", "fwd", [(11, 0)]))
        report = verify_certificate(cert, deep=True)
        assert not report.valid
        assert any("prime 11" in m for m in report.messages)

    def test_foreign_prime_with_consistent_residue_does_not_crash(self):
        cert = reload(toy_certificate())
        r11 = cert.placement.b1 % 11
        cert.stages.append(StageRecord("cleanup", "fwd", [(11, r11)]))
        report = verify_certificate(cert, deep=True)
        assert not report.valid
        assert report.failures == []

    def test_residue_out_of_range(self):
        cert = reload(toy_certificate())
        cert.stages[0].assignments = [(2, 1), (3, 5), (5, 4), (7, 6)]
        report = verify_certificate(cert, deep=True)
        assert not report.valid

    def test_placement_stripped_falls_back_to_offsets(self):
        cert = reload(toy_certificate())
        cert.placement = None
        report = verify_certificate(cert, deep=True)
        assert report.valid
        assert report.checked == 4

    def test_offset_gap_reported(self):
        cert = reload(toy_certificate())
        cert.placement = None
        cert.stages[0].assignments = [(2, 1), (3, 2), (5, 3), (7, 6)]
        report = verify_certificate(cert, deep=True)
        assert not report.valid
        assert report.failures == [4]  # only offset 4 relied on prime 5

    @pytest.mark.parametrize("y", [10**12, 0])
    @pytest.mark.parametrize("placed", [True, False])
    @pytest.mark.parametrize("deep", [True, False])
    def test_y_outside_formula_range_refused_before_allocating(self, y, placed, deep):
        # the formula length at x = 8 is 11; the stored z is made consistent
        # with the stored y, so the certificate loads
        obj = toy_certificate().to_json_dict()
        obj["params"]["y"] = y
        obj["params"]["z"] = SieveParams(x=8).with_y(y).z
        if not placed:
            obj["placement"] = None
        cert = ResidueCertificate.from_json_dict(obj)
        report = verify_certificate(cert, deep=deep)
        assert not report.valid
        assert report.checked == 0 and report.failures == []
        assert any("formula length 11" in m for m in report.messages)

    @pytest.mark.parametrize("deep", [True, False])
    def test_huge_stored_window_not_walked(self, deep):
        cert = reload(toy_certificate())
        pl = cert.placement
        cert.placement = dataclasses.replace(pl, I1=(pl.I1[0], pl.I1[0] + 10**12 - 1))
        report = verify_certificate(cert, deep=deep)
        assert not report.valid
        assert any("window bounds" in m for m in report.messages)
        if deep:
            # only I2, whose length is still y, is witness-checked
            assert report.checked == 4 and report.failures == []


# reference oracle: the per-n witness search that the window search replaced
def find_witness_per_n(
    n: int,
    primes_with_roots: list[tuple[int, tuple[int, ...]]],
    comp: tuple[int, ...],
    f: IntPolynomial,
    degree: int,
) -> Witness | None:
    """Smallest assigned prime dividing the companion value at n with the
    size condition |f(n)| > q; None when no assigned prime works."""
    fn = None
    for q, roots in primes_with_roots:
        alpha = n % q
        if alpha not in roots:
            continue
        if companion_eval_mod(comp, n, q) != 0:
            continue
        if q <= degree:
            continue
        if fn is None:
            fn = abs(f.eval(n))
        if fn > q:
            return Witness(n, q, alpha)
    return None


POLYS = {"x": [0, 1], "x^2+1": [1, 0, 1], "x^3+2": [2, 0, 0, 1]}


@functools.lru_cache(maxsize=None)
def poly_table(name: str, x: int):
    f = IntPolynomial.from_monomial(POLYS[name])
    return f, build_root_table(f, x)


@functools.lru_cache(maxsize=None)
def built_certificate(name: str, x: int) -> bytes:
    cert, _ = construct_certificate(IntPolynomial.from_monomial(POLYS[name]), SieveParams(x=x), 7)
    return cert.to_json_bytes()


def certificate(name: str, x: int) -> ResidueCertificate:
    return ResidueCertificate.from_json_dict(json.loads(built_certificate(name, x)))


def corrupt_residue(cert):
    for st_rec in cert.stages:
        if st_rec.stage == "medium" and st_rec.assignments:
            q, r = st_rec.assignments[0]
            st_rec.assignments[0] = (q, (r + 1) % q)
            return cert
    raise AssertionError("no medium-stage prime to corrupt")


def centers_outside(cert):
    pl = cert.placement
    n1 = pl.I1[0] - 7
    cert.placement = dataclasses.replace(pl, n1=n1, n2=pl.N - n1)
    return cert


def i2_shifted(cert):
    pl = cert.placement
    cert.placement = dataclasses.replace(pl, I2=(pl.I2[0] + 1, pl.I2[1] + 1))
    return cert


TAMPERS = {
    "none": lambda cert: cert,
    "corrupt-residue": corrupt_residue,
    "centers-outside": centers_outside,
    "i2-shifted": i2_shifted,
}


def per_n_targets(cert, deep: bool, seed: int) -> list[int]:
    """The values the per-n verifier walked, in its order."""
    pl, y = cert.placement, cert.params.y
    i1_lo, i1_hi = pl.I1
    i2_lo, i2_hi = pl.I2
    if deep:
        return list(range(i1_lo, i1_hi + 1)) + list(range(i2_lo, i2_hi + 1))
    targets = {i1_lo, i1_hi, i2_lo, i2_hi, pl.n1, pl.n2}
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, VERIFY_SAMPLE_STREAM])))
    for off in rng.integers(0, y, size=max(1, int(0.01 * 2 * y))):
        targets.add(i1_lo + int(off))
        targets.add(i2_lo + int(off))
    return sorted(targets)


@st.composite
def witness_cases(draw):
    """A polynomial, a random choice of vouching primes <= 60 (some foreign,
    i.e. with no roots, some listing every residue, so that only the
    companion check and the q > degree rule pick the roots), a base small enough to need the per-n size check or
    up to 10^1500, and a sparse offset set or a whole window."""
    name = draw(st.sampled_from(sorted(POLYS)))
    f, table = poly_table(name, 60)
    primes_with_roots = []
    for q in (int(p) for p in table.primes):
        kind = draw(st.sampled_from(("skip", "use", "use", "foreign", "every")))
        roots = {"use": table.roots[q], "foreign": (), "every": tuple(range(q))}
        if kind != "skip":
            primes_with_roots.append((q, roots[kind]))
    base = draw(st.one_of(st.integers(-100, 500), st.integers(1, 10**1500)))
    offsets = draw(
        st.one_of(
            st.lists(st.integers(0, 400), max_size=60, unique=True),
            st.integers(0, 300).map(range),  # a whole window, as deep mode passes it
        )
    )
    return f, primes_with_roots, base, offsets


class TestWindowWitnessSearch:
    """find_witness on a window agrees with the per-n search it replaced."""

    @given(witness_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_n_oracle(self, case):
        f, pwr, base, offsets = case
        comp = f.companion()
        got = find_witness(base, offsets, pwr, comp, f, f.degree)
        want = [find_witness_per_n(base + k, pwr, comp, f, f.degree) for k in offsets]
        assert got == want

    def test_small_prime_values_get_no_witness(self):
        f, table = poly_table("x", 60)
        pwr = [(int(q), table.roots[int(q)]) for q in table.primes]
        got = find_witness(1, range(60), pwr, f.companion(), f, 1)
        for k, w in enumerate(got):
            n = 1 + k
            if n == 1 or all(n % q for q in range(2, n)):
                assert w is None
            else:
                assert w == Witness(n, min(q for q in range(2, n) if n % q == 0), 0)

    @pytest.mark.parametrize("deep", [True, False])
    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    @pytest.mark.parametrize("name", sorted(POLYS))
    def test_report_matches_per_n_oracle(self, name, tamper, deep, monkeypatch):
        cert = TAMPERS[tamper](certificate(name, 300))
        got = verify_certificate(cert, deep=deep, seed=7)
        seen: list[int] = []

        def oracle(base, offsets, primes_with_roots, comp, f, degree):
            seen.extend(base + k for k in offsets)
            return [find_witness_per_n(base + k, primes_with_roots, comp, f, degree) for k in offsets]

        monkeypatch.setattr(verify_mod, "find_witness", oracle)
        want = verify_certificate(cert, deep=deep, seed=7)
        assert seen == per_n_targets(cert, deep, 7)
        assert got.to_json_dict() == want.to_json_dict()
        assert got.witnesses == want.witnesses
        assert got.witness_primes == want.witness_primes
        assert got.valid == (tamper == "none")

    def test_companion_only_sees_reduced_residues(self, monkeypatch):
        cert = certificate("x^2+1", 1000)
        calls: list[tuple[int, int]] = []
        inner = verify_mod.companion_eval_mod

        def guarded(comp, n, p):
            calls.append((n, p))
            return inner(comp, n, p)

        monkeypatch.setattr(verify_mod, "companion_eval_mod", guarded)
        report = verify_certificate(cert, deep=True)
        assert report.valid and report.checked == 2 * cert.params.y
        assert calls and all(0 <= n < p for n, p in calls)


class TestOracleLongestRun:
    # frozen against a by-hand composite scan of the small ranges
    @pytest.mark.parametrize(
        "mono,n_max,start,length",
        [
            ([0, 1], 30, 24, 5),
            ([0, 1], 100, 90, 7),
            ([1, 0, 1], 30, 27, 4),
            ([1, 0, 1], 100, 41, 13),
        ],
    )
    def test_small_frozen_runs(self, mono, n_max, start, length):
        f = IntPolynomial.from_monomial(mono)
        rec = oracle_longest_run(f, n_max)
        assert rec == RunRecord(start=start, length=length, n_scanned=n_max)

    def test_value_near_one_counts_as_composite(self):
        # f = x - 2 gives |f| <= 1 at n = 1, 2, 3 and a prime at n = 4
        f = IntPolynomial.from_monomial([-2, 1])
        rec = oracle_longest_run(f, 4)
        assert (rec.start, rec.length) == (1, 3)

    def test_large_values_use_primality_path(self):
        # 10^9 n overflows the value-sieve bound; every value is composite
        f = IntPolynomial.from_monomial([0, 10**9])
        rec = oracle_longest_run(f, 50)
        assert (rec.start, rec.length) == (1, 50)

    def test_ties_go_to_earliest(self):
        # f = x on [1, 10]: runs 8..10 (len 3) and 1 (len 1); then extend to
        # n_max = 16 where 14..16 also has length 3
        f = IntPolynomial.from_monomial([0, 1])
        rec = oracle_longest_run(f, 16)
        assert (rec.start, rec.length) == (8, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            oracle_longest_run(IntPolynomial.from_monomial([0, 1]), 0)

    def test_published_gap_below_1e6(self, f_x):
        # the longest run of composite n below 10^6 follows the maximal
        # prime gap 114 after 492113
        rec = oracle_longest_run(f_x, 10**6)
        assert (rec.start, rec.length) == (492114, 113)


class TestCoveringSim:
    def test_default_hypotheses(self):
        config = CoveringSimConfig()
        hyp = config.validate()
        assert hyp["k"] == 10
        assert hyp["rounds"] == 10**4
        assert hyp["element_mass"] == pytest.approx(10.0, abs=config.eta)
        assert hyp["pair_mass"] <= hyp["pair_budget"]

    def test_tiny_ground_rejected(self):
        with pytest.raises(CoveringConfigError):
            CoveringSimConfig(ground_size=8).validate()

    def test_collapsed_subset_rejected(self):
        with pytest.raises(CoveringConfigError):
            CoveringSimConfig(k0=0.1).validate()

    def test_round_budget_rejected(self):
        with pytest.raises(CoveringConfigError):
            CoveringSimConfig(c1=100.0, ground_size=100).validate()

    def test_mass_mismatch_rejected(self):
        with pytest.raises(CoveringConfigError):
            CoveringSimConfig(eta=10**-6).validate()

    def test_short_run_residuals(self):
        config = CoveringSimConfig(trials=3)
        report = covering_lemma_sim(config, seed=0)
        assert len(report.residuals) == 3
        assert report.passes == 3
        assert report.threshold == 2000.0
        assert report.c_hat <= 10.0
        assert all(r >= 0 for r in report.residuals)

    def test_seeded_reproducibility(self):
        config = CoveringSimConfig(trials=2)
        a = covering_lemma_sim(config, seed=9)
        b = covering_lemma_sim(config, seed=9)
        assert a.residuals == b.residuals
