"""Stateless certificate verification (including fault injection), the
longest-run oracle, and the covering simulation harness."""

import dataclasses
import functools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composite_forge.modroots as modroots_mod
import composite_forge.verify as verify_mod
from composite_forge.assemble import ResidueCertificate, StageRecord, construct_certificate
from composite_forge.cover import SieveParams
from composite_forge.modroots import build_root_table, companion_eval_mod
from composite_forge.poly import IntPolynomial
from composite_forge.verify import (
    ORACLE_N_MAX,
    VERIFY_SAMPLE_STREAM,
    X_BOUND_FLOOR,
    CoveringConfigError,
    CoveringSimConfig,
    RunRecord,
    VerifyReport,
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
        assert set(report.witness_primes) <= {2, 3, 5, 7}

    def test_witnesses_divide_values(self, monkeypatch):
        # every prime find_witness returns divides its value and is smaller
        witnessed: list[tuple[int, int]] = []
        inner = verify_mod.find_witness

        def recording(base, offsets, *args):
            qs = inner(base, offsets, *args)
            witnessed.extend((base + k, q) for k, q in zip(offsets, qs))
            return qs

        monkeypatch.setattr(verify_mod, "find_witness", recording)
        report = verify_certificate(toy_certificate(), deep=True)
        f = IntPolynomial.from_monomial([0, 1])
        assert report.valid and len(witnessed) == 8
        for n, q in witnessed:
            v = f.eval(n)
            assert v % q == 0
            assert 1 < q < abs(v)

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

    def test_failures_beyond_decimal_limit_serialized(self):
        # window elements have as many digits as N: 5097 at x = 4000
        n = 10**5000 + 1
        report = VerifyReport(valid=False, mode="deep", checked=1, failures=[n])
        assert report.to_json_dict()["failures"] == ["1" + "0" * 4999 + "1"]

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0, -1, 1.5])
    @pytest.mark.parametrize("deep", [False, True])
    def test_sample_rate_outside_unit_interval_raises(self, rate, deep, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("checked before the rate was refused")

        monkeypatch.setattr(verify_mod, "build_root_table", no_table)
        with pytest.raises(ValueError, match="not a rate"):
            verify_certificate(toy_certificate(), deep=deep, sample_rate=rate)

    def test_sample_rate_one_is_accepted(self):
        report = verify_certificate(toy_certificate(), sample_rate=1.0)
        assert report.valid and report.checked == 8

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
        cert.placement = dataclasses.replace(pl, b1=pl.b1 + shift)
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

    @pytest.mark.parametrize("q", [0, 1, -5])
    @pytest.mark.parametrize("deep", [True, False])
    def test_modulus_below_two_reported(self, q, deep):
        cert = reload(toy_certificate())
        cert.stages.append(StageRecord("cleanup", "fwd", [(q, 0)]))
        report = verify_certificate(cert, deep=deep)
        assert not report.valid
        assert f"modulus {q} is not a prime" in report.messages
        # the toy residues still vouch for every checked value
        assert report.failures == [] and report.checked > 0

    @pytest.mark.parametrize("placed", [True, False])
    @pytest.mark.parametrize("deep", [True, False])
    def test_x_beyond_root_table_bound_refused_before_sieving(self, placed, deep, monkeypatch):
        def no_sieve(limit):
            raise AssertionError("primes sieved")

        obj = toy_certificate().to_json_dict()
        obj["params"]["x"] = 2**40  # the stored z = 2 still fits y = 4
        if not placed:
            obj["placement"] = None
        cert = ResidueCertificate.from_json_dict(obj)
        monkeypatch.setattr(modroots_mod, "sieve_primes", no_sieve)
        tracemalloc.start()
        try:
            report = verify_certificate(cert, deep=deep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.valid
        assert report.checked == 0
        assert any("must stay below 2147483648" in m for m in report.messages)
        assert peak < 1 << 20

    @pytest.mark.parametrize("placed", [True, False])
    @pytest.mark.parametrize("deep", [True, False])
    def test_x_beyond_certificate_support_refused_in_milliseconds(
        self, placed, deep, monkeypatch
    ):
        # 2^31 - 1 fits the root table, but neither the toy's N = 10^7 nor
        # its four listed primes can come from a construction at that x
        def no_sieve(limit):
            raise AssertionError("primes sieved")

        obj = toy_certificate().to_json_dict()
        obj["params"]["x"] = 2**31 - 1  # the stored z = 2 still fits y = 4
        if not placed:
            obj["placement"] = None
        cert = ResidueCertificate.from_json_dict(obj)
        monkeypatch.setattr(modroots_mod, "sieve_primes", no_sieve)
        t0 = time.perf_counter()
        report = verify_certificate(cert, deep=deep)
        assert time.perf_counter() - t0 < 0.05
        assert not report.valid
        assert report.checked == 0
        assert report.messages == [
            f"x = {2**31 - 1} exceeds {X_BOUND_FLOOR}, the most this certificate's"
            f" {'N' if placed else 'listed primes'} can support"
        ]

    @pytest.mark.parametrize(
        "coeffs", [[0, 1], [1, 0, 1], [1, -3, 0, 1], [41, 1, 1]],
        ids=["x", "x^2+1", "x^3-3x+1", "x^2+x+41"],
    )
    def test_x_bound_admits_every_construction(self, coeffs):
        # at every x up to 1.2 * 10^5 (each x just below the next usable
        # prime is the tightest) with the least N a construction takes,
        # P(x)^3, or with all usable primes listed and no N; x^3 - 3x + 1
        # has usable density 1/3, x^2 + x + 41 no usable prime below 41
        f = IntPolynomial.from_monomial(coeffs)
        limit = 120_000
        usable = build_root_table(f, limit).usable_primes()
        theta = 0.0
        for k, (q, nxt) in enumerate(zip(usable, usable[1:] + [limit + 1]), 1):
            theta += math.log(q)
            x = nxt - 1
            n_least = 1 << int(3 * theta / math.log(2))  # at most P(x)^3
            assert verify_mod.stored_x_bound(f.degree, n_least, k) >= x
            assert verify_mod.stored_x_bound(f.degree, None, k) >= x

    def test_x_bound_floor_and_growth(self):
        assert verify_mod.stored_x_bound(1, 10**7, 4) == X_BOUND_FLOOR
        assert verify_mod.stored_x_bound(1, None, 4) == X_BOUND_FLOOR
        # 4 d ln N and 4 u ln(u + 2), u = d (listed + 1), past the floor
        assert verify_mod.stored_x_bound(2, 1 << 100_000, 1) == int(8 * 100_001 * math.log(2))
        assert verify_mod.stored_x_bound(3, None, 9999) == int(120_000 * math.log(30_002))

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
) -> int | None:
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
            return q
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
    """The values the per-n verifier walks, in its order: each stored window
    of length y from its start, whole (deep) or at its ends, its center and
    the seeded sample's offsets (fast)."""
    pl, y = cert.placement, cert.params.y
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, VERIFY_SAMPLE_STREAM])))
    sample = {int(k) for k in rng.integers(0, y, size=max(1, int(0.01 * 2 * y)))}
    out = []
    for (lo, hi), center in ((pl.I1, y // 2 - 1), (pl.I2, y - y // 2)):
        if hi - lo + 1 == y:
            out += [lo + k for k in (range(y) if deep else sorted(sample | {0, y - 1, center}))]
    return out


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


def json_paths(obj, prefix=()):
    """Path (tuple of keys and indices) of every node below obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    out = []
    for k, v in items:
        out.append(prefix + (k,))
        out.extend(json_paths(v, prefix + (k,)))
    return out


def _perturbed(value, delta: int):
    """value + delta for an int or a decimal string; a bool or a float is
    negated, another string reversed, anything else kept."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + delta
    if isinstance(value, float):
        return -value
    if isinstance(value, str):
        try:
            return str(int(value) + delta)
        except ValueError:
            return value[::-1]
    return value


@st.composite
def mutated_certificates(draw):
    """A valid x = 300 certificate with one to three fields dropped,
    retyped or perturbed, or a prime replaced by 0, 1, -5 or another
    integer. No mutation takes x above 1000."""
    obj = json.loads(built_certificate(draw(st.sampled_from(["x^2+1", "x^3+2"])), 300))
    for _ in range(draw(st.integers(1, 3))):
        paths = json_paths(obj)
        if not paths:
            break
        # the prime of an assignment pair sits at ("stages", i, "assignments", j, 0)
        primes = [p for p in paths if len(p) == 5 and p[2] == "assignments" and p[4] == 0]
        kind = draw(st.sampled_from(["drop", "retype", "perturb"] + ["prime"] * bool(primes)))
        path = draw(st.sampled_from(primes if kind == "prime" else paths))
        parent = functools.reduce(lambda node, k: node[k], path[:-1], obj)
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "retype":
            parent[path[-1]] = draw(
                st.sampled_from([None, True, 1.5, -1, 0, 7, "", "zz", [], {}, [0, 0], {"a": 1}])
            )
        elif kind == "perturb":
            parent[path[-1]] = _perturbed(parent[path[-1]], draw(st.integers(-3, 3)))
        else:
            parent[0] = draw(st.sampled_from([0, 1, -5, 2, 4, 9, 997, 1009]))
    return obj, draw(st.booleans())


class TestMutatedCertificates:
    """The loader and the verifier are total on hostile input."""

    def test_unmutated_certificates_verify(self):
        for name in ("x^2+1", "x^3+2"):
            assert verify_certificate(certificate(name, 300), deep=True).valid

    @given(mutated_certificates())
    @settings(max_examples=150, deadline=None)
    def test_load_and_verify_never_crash(self, case):
        obj, deep = case
        x = obj.get("params", {}).get("x") if isinstance(obj.get("params"), dict) else None
        assert not isinstance(x, int) or x <= 1000
        try:
            cert = ResidueCertificate.from_json_dict(obj)
        except ValueError:
            return
        report = verify_certificate(cert, deep=deep)
        assert isinstance(report, verify_mod.VerifyReport)


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
                assert w == min(q for q in range(2, n) if n % q == 0)

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
        assert got.witness_primes == want.witness_primes
        assert got.valid == (tamper == "none")

    @pytest.mark.parametrize("deep", [True, False])
    def test_stored_center_outside_the_windows_is_not_walked(self, deep, monkeypatch):
        # a stored n1 far below I1 (and n2 = N - n1 far above I2) is
        # reported, but no witness search starts anywhere outside the
        # stored windows
        cert = certificate("x^2+1", 300)
        pl = cert.placement
        n1 = pl.I1[0] - 10**6
        cert.placement = dataclasses.replace(pl, n1=n1, n2=pl.N - n1)
        walked: list[int] = []
        inner = verify_mod.find_witness

        def recording(base, offsets, *args):
            walked.extend(base + k for k in offsets)
            return inner(base, offsets, *args)

        monkeypatch.setattr(verify_mod, "find_witness", recording)
        report = verify_certificate(cert, deep=deep, seed=7)
        assert not report.valid
        assert any("centers" in m for m in report.messages)
        assert walked and all(any(lo <= n <= hi for lo, hi in (pl.I1, pl.I2)) for n in walked)
        assert report.checked == len(walked) and not report.failures

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", sorted(POLYS))
    def test_fast_offsets_are_a_subset_of_deep_offsets(self, name, seed, monkeypatch):
        cert = certificate(name, 300)
        groups: dict[bool, list] = {}
        inner = verify_mod.find_witness
        for deep in (True, False):
            seen = groups[deep] = []

            def recording(base, offsets, *args, seen=seen):
                seen.append((base, list(offsets)))
                return inner(base, offsets, *args)

            monkeypatch.setattr(verify_mod, "find_witness", recording)
            assert verify_certificate(cert, deep=deep, seed=seed).valid
        y, pl = cert.params.y, cert.placement
        assert [base for base, _ in groups[True]] == [base for base, _ in groups[False]]
        assert [base for base, _ in groups[True]] == [pl.I1[0], pl.I2[0]]
        for (_, whole), (_, part) in zip(groups[True], groups[False]):
            assert whole == list(range(y))
            assert part and set(part) <= set(whole) and {0, y - 1} <= set(part)

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


# One field of the x^2+1, x = 300, seed 7 certificate rewritten in a form
# construct never writes, as (path, old value -> new value). Each of these
# used to load by coercion and verify as valid.
LENIENT_FORMS = {
    "coeff-float": (("poly", "coeffs", 0), lambda v: 1.5),
    "coeff-integral-float": (("poly", "coeffs", 0), lambda v: 1.0),
    "coeff-bool": (("poly", "coeffs", 0), lambda v: True),
    "coeff-padded": (("poly", "coeffs", 0), lambda v: " 1"),
    "coeff-plus": (("poly", "coeffs", 0), lambda v: "+1"),
    "coeff-int": (("poly", "coeffs", 0), lambda v: 1),
    "x-float": (("params", "x"), lambda v: 300.7),
    "x-integral-float": (("params", "x"), lambda v: 300.0),
    "x-string": (("params", "x"), lambda v: "300"),
    "y-string": (("params", "y"), str),
    "K-string": (("params", "K"), lambda v: "8"),
    "K-bool": (("params", "K"), lambda v: True),
    "seed-string": (("seed",), lambda v: "7"),
    "version-bool": (("version",), lambda v: True),
    "prime-float": (("stages", 0, "assignments", 0, 0), float),
    "residue-string": (("stages", 0, "assignments", 0, 1), str),
    "N-int": (("placement", "N"), int),
    "N-padded": (("placement", "N"), lambda v: v + " "),
    "n1-plus": (("placement", "n1"), lambda v: "+" + v),
    "b1-underscored": (("placement", "b1"), lambda v: v[:3] + "_" + v[3:]),
}


class TestStrictFields:
    """Each certificate field loads only in the form construct writes."""

    @pytest.mark.parametrize("name", sorted(LENIENT_FORMS))
    def test_other_forms_do_not_load(self, name):
        path, rewrite = LENIENT_FORMS[name]
        obj = json.loads(built_certificate("x^2+1", 300))
        parent = functools.reduce(lambda node, k: node[k], path[:-1], obj)
        parent[path[-1]] = rewrite(parent[path[-1]])
        with pytest.raises(ValueError):
            ResidueCertificate.from_json_dict(obj)

    def test_written_forms_load(self):
        obj = json.loads(built_certificate("x^2+1", 300))
        cert = ResidueCertificate.from_json_dict(obj)
        assert cert.to_json_dict() == obj and verify_certificate(cert).valid


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

    def test_rejects_n_beyond_the_cap_before_scanning(self):
        # below the cap x^2 + 1 would leave the value sieve for a per-n
        # Miller-Rabin loop; above it nothing is scanned at all
        t = time.perf_counter()
        with pytest.raises(ValueError, match="must not exceed"):
            oracle_longest_run(IntPolynomial.from_monomial([1, 0, 1]), ORACLE_N_MAX + 1)
        assert time.perf_counter() - t < 0.1

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

    @staticmethod
    def one_shot_residuals(config, seed):
        """The simulation as it was written before the draws were blocked:
        every round of a trial drawn up front in one call."""
        v, k, s = config.ground_size, config.k, config.rounds
        residuals = []
        for t in range(config.trials):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 13, t])))
            uncovered = np.ones(v, dtype=bool)
            draws = rng.integers(0, v, size=(s, config.candidates, k))
            for i in range(s):
                cand = draws[i]
                gains = uncovered[cand].sum(axis=1)
                uncovered[cand[int(np.argmax(gains))]] = False
            residuals.append(int(uncovered.sum()))
        return residuals

    @pytest.mark.parametrize(
        "config",
        [CoveringSimConfig(trials=2), CoveringSimConfig(ground_size=20487, c1=1.0, candidates=3, trials=3)],
        ids=["default", "odd"],
    )
    def test_blocked_draws_equal_the_one_shot_draw(self, config):
        config.validate()
        # 10000 = 9 * 1024 + 784 and 2049 = 2 * 1024 + 1 rounds: a short last block
        assert config.rounds % verify_mod.SIM_ROUND_BLOCK
        got = covering_lemma_sim(config, seed=4).residuals
        assert got == self.one_shot_residuals(config, seed=4)
        # the default config covers everything; at c1 = 1 about 6000 of the
        # 20487 elements stay uncovered, so another stream would show
        assert config.c1 == 10.0 or min(got) > 5000
