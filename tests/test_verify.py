"""Stateless certificate verification (including fault injection), the
longest-run oracle, and the covering simulation harness."""

import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

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
from conftest import roots_of, usable_between

SRC = str(Path(__file__).resolve().parent.parent / "src")


def reload(cert):
    """Round-trip through JSON so tampering happens on serialized content."""
    return ResidueCertificate.from_json_dict(cert.to_json_dict())


class TestVerifyToyCertificate:
    def test_valid(self):
        report = verify_certificate(toy_certificate())
        assert report.valid
        assert report.checked == 8  # both windows of length 4
        assert report.failures == [] and report.messages == []
        assert set(report.witness_primes) <= {2, 3, 5, 7}

    def test_witnesses_divide_values(self, monkeypatch):
        # every prime find_witness returns divides its value and is smaller
        witnessed: list[tuple[int, int]] = []
        inner = verify_mod.find_witness

        def recording(base, length, *args):
            qs = inner(base, length, *args)
            witnessed.extend((base + k, q) for k, q in enumerate(qs.tolist()))
            return qs

        monkeypatch.setattr(verify_mod, "find_witness", recording)
        report = verify_certificate(toy_certificate())
        f = IntPolynomial.from_monomial([0, 1])
        assert report.valid and len(witnessed) == 8
        for n, q in witnessed:
            v = f.eval(n)
            assert v % q == 0
            assert 1 < q < abs(v)

    @pytest.mark.parametrize(
        "kwargs", [{"deep": False}, {"deep": True}, {"seed": 5}, {"deep": False, "seed": 0}],
        ids=["deep-false", "deep-true", "seed-5", "deep-false-seed-0"],
    )
    def test_deep_and_seed_are_ignored(self, kwargs):
        # accepted for callers that still pass them; every call checks
        # every offset of both windows
        want = verify_certificate(toy_certificate()).to_json_dict()
        assert want["checked"] == 8 and want["mode"] == "deep"
        assert verify_certificate(toy_certificate(), **kwargs).to_json_dict() == want

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0, -1, 1.5, 1.0])
    def test_sample_rate_keyword_is_refused(self, rate, monkeypatch):
        # no rate, in (0, 1] or not, selects a subset of the offsets any more
        def no_roots(*args, **kwargs):
            raise AssertionError("checked before the keyword was refused")

        monkeypatch.setattr(verify_mod, "roots_mod_primes", no_roots)
        with pytest.raises(TypeError, match="sample_rate"):
            verify_certificate(toy_certificate(), sample_rate=rate)

    def test_witness_primes_count_checked_values(self):
        report = verify_certificate(toy_certificate())
        assert sum(report.witness_primes.values()) == report.checked - len(report.failures)
        # smallest prime factors: 2000042..2000045 -> 2, 3, 2, 5 and
        # 7999955..7999958 -> 5, 2, 7, 2
        assert report.witness_primes == {2: 4, 3: 1, 5: 2, 7: 1}
        assert report.to_json_dict()["witness_primes"] == {"2": 4, "3": 1, "5": 2, "7": 1}
        assert list(report.to_json_dict()["witness_primes"]) == ["2", "3", "5", "7"]

    def test_failures_beyond_decimal_limit_serialized(self):
        # window elements have as many digits as N: 5097 at x = 4000
        n = 10**5000 + 1
        report = VerifyReport(valid=False, checked=1, failures=[n])
        assert report.to_json_dict()["failures"] == ["1" + "0" * 4999 + "1"]

    def test_witness_primes_skip_failures(self):
        cert = reload(toy_certificate())
        cert.stages[0].assignments = [(2, 1), (3, 2), (5, 3), (7, 6)]
        report = verify_certificate(cert)
        assert 5 not in report.witness_primes
        assert sum(report.witness_primes.values()) == report.checked - len(report.failures)


class TestFaultInjection:
    def test_corrupt_residue_pinpoints_failures(self):
        cert = reload(toy_certificate())
        # 5: 4 -> 5: 3 silently drops prime 5 from the witness pool
        cert.stages[0].assignments = [(2, 1), (3, 2), (5, 3), (7, 6)]
        report = verify_certificate(cert)
        assert not report.valid
        assert report.failures == [2000045, 7999955]
        assert any("prime 5" in m for m in report.messages)

    def test_shifted_center(self):
        # the centers move only with b1: n1 one higher is b1 one lower,
        # which leaves the class of every listed prime
        obj = toy_certificate().to_json_dict()
        obj["placement"]["b1"] = str(int(obj["placement"]["b1"]) - 1)
        cert = ResidueCertificate.from_json_dict(obj)
        assert cert.placement.n1 == toy_certificate().placement.n1 + 1
        report = verify_certificate(cert)
        assert not report.valid
        assert [m for m in report.messages if "b1 does not satisfy" in m] == [
            f"b1 does not satisfy the residue for prime {q}" for q in (2, 3, 5, 7)
        ]

    def test_center_sum_mismatch(self):
        # n2 is N - n1 by definition; a stored n2 that does not split N,
        # as the format before version 2 wrote one, is not read
        obj = toy_certificate().to_json_dict()
        obj["placement"]["n2"] = "7999959"
        cert = ResidueCertificate.from_json_dict(obj)
        pl = cert.placement
        assert pl.n1 + pl.n2 == pl.N == 10**7
        assert verify_certificate(cert).valid

    def test_window_bounds_tampered(self):
        # I2 moves only with N: N + y puts it on the next y values,
        # 7999959 to 7999962, and 7999961 has no factor 2, 3, 5 or 7
        obj = toy_certificate().to_json_dict()
        obj["placement"]["N"] = str(10**7 + 4)
        cert = ResidueCertificate.from_json_dict(obj)
        assert cert.placement.I2 == (7999959, 7999962)
        report = verify_certificate(cert)
        assert not report.valid
        assert report.failures == [7999961] and report.messages == []

    def test_b1_outside_band(self):
        cert = reload(toy_certificate())
        pl = cert.placement
        shift = 210 * ((pl.N // 2) // 210)
        cert.placement = dataclasses.replace(pl, b1=pl.b1 + shift)
        report = verify_certificate(cert)
        assert not report.valid
        assert any("b1" in m for m in report.messages)

    def test_unknown_stage_tag(self):
        cert = reload(toy_certificate())
        cert.stages[0].stage = "huge"
        report = verify_certificate(cert)
        assert not report.valid
        assert any("stage tag" in m for m in report.messages)

    def test_bad_version(self):
        cert = reload(toy_certificate())
        cert.version = 1
        report = verify_certificate(cert)
        assert not report.valid
        assert report.messages == ["unsupported certificate version 1"]

    def test_version_1_file_loads_and_is_refused(self):
        # the fields version 1 stored beside N and b1 are not read, so a
        # version 1 certificate loads, and only its version fails
        obj = toy_certificate().to_json_dict()
        obj["params"].update(M=6.5, eps=0.05, z=2)
        obj["placement"].update(I1=["2000042", "2000045"], I2=["7999955", "7999958"],
                                n1="2000043", n2="7999957", m="1")
        obj["version"] = 1
        report = verify_certificate(ResidueCertificate.from_json_dict(obj))
        assert not report.valid and report.failures == []
        assert report.messages == ["unsupported certificate version 1"]

    def test_foreign_prime_flagged(self):
        cert = reload(toy_certificate())
        cert.stages.append(StageRecord("cleanup", "fwd", [(11, 0)]))
        report = verify_certificate(cert)
        assert not report.valid
        assert any("prime 11" in m for m in report.messages)

    def test_composite_modulus_below_x_flagged(self):
        # 4 lies between the table primes 3 and 5, and has no roots of its own
        cert = reload(toy_certificate())
        cert.stages.append(StageRecord("cleanup", "fwd", [(4, cert.placement.b1 % 4)]))
        report = verify_certificate(cert)
        assert "prime 4 is not a usable sieve prime below x" in report.messages

    @pytest.mark.parametrize(
        "name,q",
        [("x", 221), ("x^2+1", 221), ("x", 300), ("x^2+1", 7), ("x^3+2", 7), ("x^2+1", 2),
         ("x^3+2", 2), ("x^3+2", 3)],
        ids=["x-composite", "x^2+1-composite", "x-composite-past-the-last-prime",
             "x^2+1-no-root", "x^3+2-no-root", "x^2+1-degree", "x^3+2-degree-2",
             "x^3+2-degree-3"],
    )
    def test_listed_modulus_without_roots_flagged(self, name, q):
        # a composite (221 = 13 * 17, or x = 300 itself, past the last
        # prime 293), a prime with no root of f and a prime at most the
        # degree, each listed with b1 in its class, get count 0 from the
        # verifier's roots and so vouch for nothing
        cert = listed_too(q)(certificate(name, 300))
        report = verify_certificate(cert)
        assert not report.valid
        assert f"prime {q} is not a usable sieve prime below x" in report.messages
        assert report.failures == []

    def test_foreign_prime_with_consistent_residue_does_not_crash(self):
        cert = reload(toy_certificate())
        r11 = cert.placement.b1 % 11
        cert.stages.append(StageRecord("cleanup", "fwd", [(11, r11)]))
        report = verify_certificate(cert)
        assert not report.valid
        assert report.failures == []

    @pytest.mark.parametrize("r", [5, -1, 2**70, -(2**70)])
    def test_residue_out_of_range(self, r):
        cert = reload(toy_certificate())
        cert.stages[0].assignments = [(2, 1), (3, r), (5, 4), (7, 6)]
        report = verify_certificate(cert)
        assert not report.valid
        assert f"residue {r} out of range for prime 3" in report.messages

    @pytest.mark.parametrize("y", [0, 12, 10**12, 2**70])
    def test_y_outside_formula_range_refused_before_allocating(self, y, monkeypatch):
        # the formula length at x = 8 is 11, so 12 is the least y refused
        # above it; the certificate does not load, and nothing is sieved
        # or sized by y first
        def no_sieve(limit):
            raise AssertionError("primes sieved")

        obj = toy_certificate().to_json_dict()
        obj["params"]["y"] = y
        monkeypatch.setattr(modroots_mod, "sieve_primes", no_sieve)
        monkeypatch.setattr(verify_mod, "sieve_primes", no_sieve)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"outside \[1, formula length 11\]"):
                ResidueCertificate.from_json_dict(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("q", [0, 1, -1, -5, -(2**70)])
    def test_modulus_below_two_reported(self, q):
        cert = reload(toy_certificate())
        cert.stages.append(StageRecord("cleanup", "fwd", [(q, 0)]))
        report = verify_certificate(cert)
        assert not report.valid
        assert f"modulus {q} is not a prime" in report.messages
        # the toy residues still vouch for every checked value
        assert report.failures == [] and report.checked > 0

    @pytest.mark.parametrize("x", [2**31, 2**40])
    def test_x_beyond_root_table_bound_refused_before_sieving(self, x, monkeypatch):
        # 2^31 is the least x the root table refuses; the certificate does
        # not load, and nothing is sieved or sized by x first
        def no_sieve(limit):
            raise AssertionError("primes sieved")

        obj = toy_certificate().to_json_dict()
        obj["params"]["x"] = x
        monkeypatch.setattr(modroots_mod, "sieve_primes", no_sieve)
        monkeypatch.setattr(verify_mod, "sieve_primes", no_sieve)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="x must stay below 2147483648"):
                ResidueCertificate.from_json_dict(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("x", [X_BOUND_FLOOR + 1, 2**31 - 1])
    def test_x_beyond_certificate_support_refused_in_milliseconds(self, x, monkeypatch):
        # both fit the root table, but the toy's N = 10^7 cannot come from a
        # construction at such an x; X_BOUND_FLOOR + 1 is the least x refused
        def no_sieve(limit):
            raise AssertionError("primes sieved")

        obj = toy_certificate().to_json_dict()
        obj["params"]["x"] = x
        cert = ResidueCertificate.from_json_dict(obj)
        monkeypatch.setattr(modroots_mod, "sieve_primes", no_sieve)
        monkeypatch.setattr(verify_mod, "sieve_primes", no_sieve)
        t0 = time.perf_counter()
        report = verify_certificate(cert)
        assert time.perf_counter() - t0 < 0.05
        assert not report.valid
        assert report.checked == 0
        assert report.messages == [
            f"x = {x} exceeds {X_BOUND_FLOOR}, the most this certificate's N can support"
        ]

    @pytest.mark.parametrize(
        "coeffs", [[0, 1], [1, 0, 1], [1, -3, 0, 1], [41, 1, 1]],
        ids=["x", "x^2+1", "x^3-3x+1", "x^2+x+41"],
    )
    def test_x_bound_admits_every_construction(self, coeffs):
        # at every x up to 1.2 * 10^5 (each x just below the next usable
        # prime is the tightest) with the least N a construction takes,
        # P(x)^3; x^3 - 3x + 1 has usable density 1/3, x^2 + x + 41 no
        # usable prime below 41
        f = IntPolynomial.from_monomial(coeffs)
        limit = 120_000
        usable = usable_between(build_root_table(f, limit), 0, limit)
        theta = 0.0
        for q, nxt in zip(usable, usable[1:] + [limit + 1]):
            theta += math.log(q)
            x = nxt - 1
            n_least = 1 << int(3 * theta / math.log(2))  # at most P(x)^3
            assert verify_mod.stored_x_bound(f.degree, n_least) >= x

    def test_x_bound_floor_and_growth(self):
        assert verify_mod.stored_x_bound(1, 10**7) == X_BOUND_FLOOR
        # 4 d ln N past the floor
        assert verify_mod.stored_x_bound(2, 1 << 100_000) == int(8 * 100_001 * math.log(2))

    def test_huge_stored_window_not_walked(self, monkeypatch):
        # a stored I1 of 10^12 values, as the format before version 2 kept
        # one, is not read; the walk covers the two windows of length y
        # that N, b1 and y give
        obj = toy_certificate().to_json_dict()
        obj["placement"]["I1"] = ["2000042", str(2000042 + 10**12 - 1)]
        cert = ResidueCertificate.from_json_dict(obj)
        walked = record_walk(monkeypatch)
        report = verify_certificate(cert)
        assert report.valid
        assert walked and all(in_derived_windows(cert, n) for n in walked)
        assert report.checked == len(walked) == 8 and report.failures == []

    def test_padded_moduli_refused_without_their_product(self, monkeypatch):
        # 300 listed 4000-digit moduli, b1 in each class: their product has
        # 1.2 million digits, and forming and cubing it took seconds
        obj = json.loads(built_certificate("x^2+1", 300))
        b1 = int(obj["placement"]["b1"])
        moduli = [10**3999 + 2 * i + 1 for i in range(300)]
        obj["stages"].append(
            {"stage": "cleanup", "side": "fwd", "assignments": [[q, b1 % q] for q in moduli]}
        )
        cert = ResidueCertificate.from_json_dict(obj)
        # every list a product tree is built over, and every math.prod input
        multiplied: list[list[int]] = []
        tree, prod = verify_mod.ProductTree, math.prod

        def recording_tree(values):
            multiplied.append(list(values))
            return tree(values)

        def recording_prod(values, **kwargs):
            multiplied.append(list(values))
            return prod(values, **kwargs)

        monkeypatch.setattr(verify_mod, "ProductTree", recording_tree)
        monkeypatch.setattr(math, "prod", recording_prod)
        t0 = time.perf_counter()
        report = verify_certificate(cert)
        assert time.perf_counter() - t0 < 1
        assert not report.valid and "modulus exceeds N^(1/3)" in report.messages
        assert report.failures == [] and report.checked > 0
        padded = set(moduli)
        assert multiplied and not any(padded.intersection(values) for values in multiplied)


def derived_windows(cert) -> tuple[tuple[int, int], tuple[int, int]]:
    """I1 = [1 - b1, y - b1] and I2 = [N + b1 - y, N + b1 - 1]."""
    pl, y = cert.placement, cert.params.y
    return (1 - pl.b1, y - pl.b1), (pl.N + pl.b1 - y, pl.N + pl.b1 - 1)


def in_derived_windows(cert, n: int) -> bool:
    return any(lo <= n <= hi for lo, hi in derived_windows(cert))


def record_walk(monkeypatch) -> list[int]:
    """Every value find_witness is asked about, in order, from now on."""
    walked: list[int] = []
    inner = verify_mod.find_witness

    def recording(base, length, *args):
        walked.extend(range(base, base + length))
        return inner(base, length, *args)

    monkeypatch.setattr(verify_mod, "find_witness", recording)
    return walked


def consistent_primes(cert, table) -> list[tuple[int, tuple[int, ...]]]:
    """(q, table roots of q) for each listed q whose class holds b1,
    ascending: the primes that may vouch, found without the verifier."""
    residues = cert.residues()
    b1 = cert.placement.b1
    return [(q, roots_of(table, q)) for q in sorted(residues) if (b1 - residues[q]) % q == 0]


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
def built_certificate(name: str, x: int, seed: int = 7) -> bytes:
    f = IntPolynomial.from_monomial(POLYS[name])
    cert, _ = construct_certificate(f, SieveParams(x=x), seed)
    return cert.to_json_bytes()


def certificate(name: str, x: int, seed: int = 7) -> ResidueCertificate:
    return ResidueCertificate.from_json_dict(json.loads(built_certificate(name, x, seed)))


def corrupt_residue(cert):
    for st_rec in cert.stages:
        if st_rec.stage == "medium" and st_rec.assignments:
            q, r = st_rec.assignments[0]
            st_rec.assignments[0] = (q, (r + 1) % q)
            return cert
    raise AssertionError("no medium-stage prime to corrupt")


def centers_outside(cert):
    """b1 raised by the modulus: every class still holds b1, but b1, and
    with it both centers and windows, leaves the placement band."""
    pl = cert.placement
    cert.placement = dataclasses.replace(pl, b1=pl.b1 + math.prod(cert.residues()))
    return cert


def i2_shifted(cert):
    """N raised by y, which moves I2 by its length onto values the
    residues were not chosen for."""
    pl = cert.placement
    cert.placement = dataclasses.replace(pl, N=pl.N + pl.y)
    return cert


def listed_too(q: int):
    """A tamper listing q as one more cleanup modulus, with b1 in its class."""

    def tamper(cert):
        cert.stages.append(StageRecord("cleanup", "fwd", [(q, cert.placement.b1 % q)]))
        return cert

    return tamper


def residues_out_of_range(cert):
    """The first two medium residues r written as r - q and r + q: the
    same classes, one negative and one at least q."""
    st_rec = next(st for st in cert.stages if st.stage == "medium" and len(st.assignments) > 1)
    (q1, r1), (q2, r2) = st_rec.assignments[:2]
    st_rec.assignments[:2] = [(q1, r1 - q1), (q2, r2 + q2)]
    return cert


def constant_beyond_int64(cert):
    """f + 2^64: the companion's constant term is at least 2^63, and the
    roots of f move mod every listed prime."""
    c = cert.poly.coeffs
    cert.poly = IntPolynomial((c[0] + 2**64, *c[1:]))
    return cert


TAMPERS = {
    "none": lambda cert: cert,
    "corrupt-residue": corrupt_residue,
    "centers-outside": centers_outside,
    "i2-shifted": i2_shifted,
    "modulus-beyond-2^64": listed_too(2**64 + 13),
    "composite-below-x": listed_too(221),
    "prime-above-x": listed_too(1009),
    "residues-out-of-range": residues_out_of_range,
    "constant-beyond-int64": constant_beyond_int64,
}


def per_n_targets(cert) -> list[int]:
    """The values the per-n verifier walks, in its order: each window that
    N, b1 and y give, whole."""
    return [n for lo, hi in derived_windows(cert) for n in range(lo, hi + 1)]


@st.composite
def witness_cases(draw):
    """A polynomial, a random choice of vouching primes <= 60 (some foreign,
    i.e. with no roots, some with only part of their roots), a base small
    enough to need the per-n size check or up to 10^1500, and a window
    length."""
    name = draw(st.sampled_from(sorted(POLYS)))
    f, table = poly_table(name, 60)
    primes_with_roots = []
    for q in (int(p) for p in table.primes):
        kind = draw(st.sampled_from(("skip", "use", "use", "foreign", "part")))
        roots = {"use": roots_of(table, q), "foreign": (), "part": roots_of(table, q)[1:]}
        if kind != "skip":
            primes_with_roots.append((q, roots[kind]))
    base = draw(st.one_of(st.integers(-100, 500), st.integers(1, 10**1500)))
    return f, primes_with_roots, base, draw(st.integers(0, 400))


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


def stored_x(data: bytes) -> int | None:
    """params.x of certificate bytes, or None when they hold none."""
    try:
        obj = json.loads(data)
        return obj["params"]["x"] if type(obj["params"]["x"]) is int else None
    except (ValueError, TypeError, KeyError, IndexError):
        return None


# what a byte of a certificate line may become: nothing, or a digit, a
# sign, a separator, a bracket, a quote or a byte that is no UTF-8
BYTE_EDITS = [b"", b"0", b"7", b"-", b",", b":", b"[", b"}", b'"', b"\xff"]


@st.composite
def mutated_certificates(draw):
    """The bytes of a valid x = 300 certificate with one to three fields
    dropped, retyped or perturbed, or a prime replaced by 0, 1, -5 or
    another integer, written back in the certificate's one-line form, and
    then maybe one byte edited (BYTE_EDITS). No mutation takes x above
    1000."""
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
    data = json.dumps(obj, separators=(",", ":")).encode() + b"\n"
    if draw(st.booleans()):
        i = draw(st.integers(0, len(data) - 1))
        edited = data[:i] + draw(st.sampled_from(BYTE_EDITS)) + data[i + 1 :]
        if (stored_x(edited) or 0) <= 1000:
            data = edited
    return data


class TestMutatedCertificates:
    """The loader and the verifier are total on hostile input."""

    def test_unmutated_certificates_verify(self):
        for name in ("x^2+1", "x^3+2"):
            assert verify_certificate(certificate(name, 300)).valid

    @given(mutated_certificates())
    @settings(max_examples=150, deadline=None)
    def test_load_and_verify_never_crash(self, data):
        assert (stored_x(data) or 0) <= 1000
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cert.json")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                cert = ResidueCertificate.load(path)
            except ValueError:
                return
        report = verify_certificate(cert)
        assert isinstance(report, verify_mod.VerifyReport)


def rows_for(base: int, primes_with_roots, degree: int):
    """find_witness rows: for each root of each prime above the degree, the
    prime, the root and base mod q, as three int64 arrays ascending in q."""
    rows = [(q, r, base % q) for q, roots in primes_with_roots if q > degree for r in roots]
    return tuple(np.array([row[i] for row in rows], dtype=np.int64) for i in range(3))


def oracle_witnesses(base: int, length: int, pwr, f: IntPolynomial) -> np.ndarray:
    """find_witness's answer from the per-n search: an int32 array, 0 where
    no prime works."""
    got = [find_witness_per_n(base + k, pwr, f.companion(), f, f.degree) for k in range(length)]
    return np.array([q or 0 for q in got], dtype=np.int32)


class TestWindowWitnessSearch:
    """find_witness on a window agrees with the per-n search it replaced."""

    @given(witness_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_n_oracle(self, case):
        f, pwr, base, length = case
        rows = rows_for(base, pwr, f.degree)
        got = find_witness(base, length, rows, f)
        assert got.dtype == np.int32
        assert got.tolist() == oracle_witnesses(base, length, pwr, f).tolist()

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_verifier_filters_table_roots_like_the_oracle(self, data):
        # root rows whose primes list true, no or every residue: only the
        # verifier's companion check and q > degree rule pick the roots.
        # The primes up to the degree, which divide the companion's B!, are
        # listed too, each with b1 in its class.
        name = data.draw(st.sampled_from(sorted(POLYS)))
        cert = certificate(name, 300)
        small = [(q, cert.placement.b1 % q) for q in (2, 3) if q <= cert.poly.degree]
        cert.stages.append(StageRecord("cleanup", "fwd", small))
        true_table = poly_table(name, 300)[1]
        roots = []
        for q in map(int, true_table.primes):
            kind = data.draw(st.sampled_from(("use", "use", "foreign", "every")))
            roots.append({"use": roots_of(true_table, q), "foreign": (), "every": tuple(range(q))}[kind])
        table = modroots_mod.RootTable(
            cert.poly, 300, true_table.primes, np.array([len(r) for r in roots]),
            np.array([r for rs in roots for r in rs], dtype=np.int64),
        )
        pwr = consistent_primes(cert, table)
        f = cert.poly

        def table_rows(f_, primes):
            # what roots_mod_primes returns, read off the table above
            rows = [roots_of(table, q) for q in primes.tolist()]
            return np.array([len(r) for r in rows], dtype=np.int64), np.array(
                [r for rs in rows for r in rs], dtype=np.int64
            )

        def oracle(base, length, rows, f_):
            return oracle_witnesses(base, length, pwr, f)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify_mod, "roots_mod_primes", table_rows)
            got = verify_certificate(cert)
            mp.setattr(verify_mod, "find_witness", oracle)
            want = verify_certificate(cert)
        assert got.to_json_dict() == want.to_json_dict()

    def test_small_prime_values_get_no_witness(self):
        f, table = poly_table("x", 60)
        pwr = [(int(q), roots_of(table, int(q))) for q in table.primes]
        got = find_witness(1, 60, rows_for(1, pwr, 1), f)
        for k, w in enumerate(got.tolist()):
            n = 1 + k
            if n == 1 or all(n % q for q in range(2, n)):
                assert w == 0
            else:
                assert w == min(q for q in range(2, n) if n % q == 0)

    @pytest.mark.parametrize("x", [300, 1000])
    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    @pytest.mark.parametrize("name", sorted(POLYS))
    def test_report_matches_per_n_oracle(self, name, tamper, x, monkeypatch):
        cert = TAMPERS[tamper](certificate(name, x))
        got = verify_certificate(cert)
        # the table of the polynomial the certificate now names
        pwr = consistent_primes(cert, build_root_table(cert.poly, x))
        f = cert.poly
        seen: list[int] = []

        def oracle(base, length, rows, f_):
            seen.extend(range(base, base + length))
            return oracle_witnesses(base, length, pwr, f)

        monkeypatch.setattr(verify_mod, "find_witness", oracle)
        want = verify_certificate(cert)
        assert seen == per_n_targets(cert)
        assert got.to_json_dict() == want.to_json_dict()
        assert got.witness_primes == want.witness_primes
        assert got.valid == (tamper == "none")

    @pytest.mark.parametrize("name", sorted(POLYS))
    def test_stored_center_outside_the_windows_is_not_walked(self, name, monkeypatch):
        # a stored n1 far below I1 (and n2 = N - n1 far above I2), as the
        # format before version 2 kept them, is not read: no witness search
        # starts anywhere outside the windows
        obj = json.loads(built_certificate(name, 300))
        n1 = certificate(name, 300).placement.I1[0] - 10**6
        obj["placement"].update(n1=str(n1), n2=str(int(obj["placement"]["N"]) - n1))
        cert = ResidueCertificate.from_json_dict(obj)
        pl = cert.placement
        walked = record_walk(monkeypatch)
        report = verify_certificate(cert)
        assert report.valid and pl.n1 != n1
        assert walked and all(any(lo <= n <= hi for lo, hi in (pl.I1, pl.I2)) for n in walked)
        assert report.checked == len(walked) and not report.failures

    @pytest.mark.parametrize("name", sorted(POLYS))
    def test_moved_stored_window_is_ignored_not_walked(self, name, monkeypatch):
        # a stored I1 of the right length moved 10^6 away, as the format
        # before version 2 kept one, is not read; the walk stays in the
        # windows N, b1 and y give
        obj = json.loads(built_certificate(name, 300))
        lo, hi = certificate(name, 300).placement.I1
        obj["placement"]["I1"] = [str(lo + 10**6), str(hi + 10**6)]
        cert = ResidueCertificate.from_json_dict(obj)
        walked = record_walk(monkeypatch)
        report = verify_certificate(cert)
        assert report.valid and report.messages == []
        assert walked and all(in_derived_windows(cert, n) for n in walked)
        assert report.checked == len(walked) and not report.failures

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", sorted(POLYS))
    def test_every_offset_of_both_windows_is_walked(self, name, seed, monkeypatch):
        # one search per window, from its left end over all y offsets
        cert = certificate(name, 300, seed)
        calls: list[tuple[int, int]] = []
        inner = verify_mod.find_witness

        def recording(base, length, *args):
            calls.append((base, length))
            return inner(base, length, *args)

        monkeypatch.setattr(verify_mod, "find_witness", recording)
        report = verify_certificate(cert)
        y, pl = cert.params.y, cert.placement
        assert report.valid and report.checked == 2 * y
        assert calls == [(pl.I1[0], y), (pl.I2[0], y)]

    @pytest.mark.parametrize("length", [0, 1])
    @pytest.mark.parametrize("name", sorted(POLYS))
    def test_shortest_windows(self, name, length):
        # an empty window gives an empty int32 array, a window of one value
        # that value's witness
        f, table = poly_table(name, 60)
        pwr = [(int(q), roots_of(table, int(q))) for q in table.primes]
        base = 10**40 + 1
        got = find_witness(base, length, rows_for(base, pwr, f.degree), f)
        assert got.dtype == np.int32 and got.shape == (length,)
        assert got.tolist() == oracle_witnesses(base, length, pwr, f).tolist()

    def test_companion_only_sees_reduced_residues(self, monkeypatch):
        # one row Horner over every candidate root, each reduced mod its
        # prime, and every prime in the row kernels' exact range
        cert = certificate("x^2+1", 1000)
        calls: list[tuple[np.ndarray, np.ndarray]] = []
        inner = verify_mod.companion_eval_mod

        def guarded(comp, n, p):
            calls.append((n, p))
            return inner(comp, n, p)

        monkeypatch.setattr(verify_mod, "companion_eval_mod", guarded)
        report = verify_certificate(cert)
        assert report.valid and report.checked == 2 * cert.params.y
        assert len(calls) == 1
        n, p = calls[0]
        assert n.dtype == p.dtype == np.int64 and len(n) == len(p) > 0
        assert ((0 <= n) & (n < p)).all() and p.max() < modroots_mod.ROW_PRIME_BOUND
        # every root of every listed prime that may vouch goes in, once
        pwr = consistent_primes(cert, poly_table("x^2+1", 1000)[1])
        assert list(zip(p.tolist(), n.tolist())) == [(q, r) for q, roots in pwr for r in roots]


def test_construction_and_verification_never_import_numpy_ma():
    # numpy 2.4's np.unique imports numpy.ma on its first call, which adds
    # 1.5 MB to peak RSS; construction and verification count with
    # bincount and sorted arrays instead. Run in a fresh
    # interpreter, since any earlier test may have imported it
    code = (
        "import sys\n"
        "from composite_forge.assemble import construct_certificate\n"
        "from composite_forge.cover import SieveParams\n"
        "from composite_forge.poly import IntPolynomial\n"
        "from composite_forge.verify import verify_certificate\n"
        "for mono in ([0, 1], [1, 0, 1], [2, 0, 0, 1]):\n"
        "    f = IntPolynomial.from_monomial(mono)\n"
        "    cert, _ = construct_certificate(f, SieveParams(x=300), 7)\n"
        "    assert verify_certificate(cert).valid\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False"]


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
    "delta-string": (("params", "delta"), str),
    "delta-bool": (("params", "delta"), lambda v: True),
    "seed-string": (("seed",), lambda v: "7"),
    "version-bool": (("version",), lambda v: True),
    "prime-float": (("stages", 0, "assignments", 0, 0), float),
    "residue-string": (("stages", 0, "assignments", 0, 1), str),
    "N-int": (("placement", "N"), int),
    "N-padded": (("placement", "N"), lambda v: v + " "),
    "N-plus": (("placement", "N"), lambda v: "+" + v),
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


# the steps of a verify run that the timing table splits out, each with the
# names in verify whose calls it times; the product tree's build and its b1
# and N walks are the step "walks", and "other" is the rest of
# verify_certificate
VERIFY_STEPS = {
    "roots": ("sieve_primes", "roots_mod_primes"),
    "fill": ("find_witness",),
    "tally": ("witness_counts",),
}


def verify_step_seconds(data: bytes) -> tuple[dict[str, float], VerifyReport]:
    """Seconds of each step of loading certificate bytes (load: the JSON and
    ResidueCertificate.from_json_dict) and verifying them (VERIFY_STEPS,
    walks and other), and the report."""
    seconds = dict.fromkeys(["load", "roots", "walks", "fill", "tally", "other"], 0.0)

    def timed(fn, step):
        def run(*args, **kwargs):
            t = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds[step] += time.perf_counter() - t
            return out

        return run

    tree = verify_mod.ProductTree

    def timed_tree(moduli):
        built = timed(tree, "walks")(moduli)
        built.remainders = timed(built.remainders, "walks")
        return built

    t = time.perf_counter()
    cert = ResidueCertificate.from_json_dict(json.loads(data))
    seconds["load"] = time.perf_counter() - t
    with pytest.MonkeyPatch.context() as mp:
        for step, names in VERIFY_STEPS.items():
            for name in names:
                mp.setattr(verify_mod, name, timed(getattr(verify_mod, name), step))
        mp.setattr(verify_mod, "ProductTree", timed_tree)
        t = time.perf_counter()
        report = verify_certificate(cert)
        total = time.perf_counter() - t
    seconds["other"] = total - sum(seconds[s] for s in ("roots", "walks", "fill", "tally"))
    return seconds, report


def test_step_seconds_split_the_verifier():
    # the timed run gives the plain run's report, and every step takes time
    data = built_certificate("x^3+2", 300)
    seconds, report = verify_step_seconds(data)
    assert report.to_json_dict() == verify_certificate(certificate("x^3+2", 300)).to_json_dict()
    assert all(t > 0 for step, t in seconds.items() if step != "other")


def verify_step_table(xs=(300, 1000, 3000), seed=7, runs=51):
    """Print, for each f and x, the median milliseconds of each step of
    loading and verifying the seed's certificate (verify_step_seconds) over
    `runs` runs, and of their sum."""
    print(f"{'f':6} {'x':>5} " + " ".join(f"{s:>7}" for s in ("load", "roots", "walks", "fill",
                                                                "tally", "other", "total")))
    for x in xs:
        for name in POLYS:
            data = built_certificate(name, x, seed)
            runs_ = [verify_step_seconds(data)[0] for _ in range(runs)]
            cells = [np.median([r[s] for r in runs_]) for s in runs_[0]]
            cells.append(np.median([sum(r.values()) for r in runs_]))
            print(f"{name:6} {x:>5} " + " ".join(f"{t * 1e3:7.3f}" for t in cells))


if __name__ == "__main__":
    verify_step_table()
