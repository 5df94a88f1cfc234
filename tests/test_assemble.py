"""CRT assembly, survivor pairing, window placement, certificate
serialization, and the end-to-end construction driver."""

import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from composite_forge.assemble import (
    SEARCH_ATTEMPTS,
    SEARCH_MIN_STEP,
    SEARCH_TOLERANCE,
    ConstructionError,
    Placement,
    ResidueCertificate,
    auto_target,
    cleanup_pools,
    construct_certificate,
    crt_combine,
    decimal_digit_bound,
    decimal_digits,
    decimal_to_int,
    int_to_decimal,
    pairing_stage,
    parse_decimal,
    place,
    residual_excess,
    search_window_length,
)
from composite_forge.cover import SieveParams, target_residues
from composite_forge.poly import IntPolynomial
from composite_forge.primes import ProductTree, sieve_primes
from composite_forge.verify import verify_certificate
from conftest import roots_of, usable_between

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
PRIMES_3000 = sieve_primes(3000).tolist()


def sequential_crt(assignments) -> tuple[int, int]:
    """The CRT as one running fold over the primes in ascending order, the
    route crt_combine took before the product tree: the reference."""
    b, modulus = 0, 1
    for q, r in sorted(assignments.items()):
        t = ((r - b) * pow(modulus, -1, q)) % q
        b += modulus * t
        modulus *= q
    return b, modulus


def toy_certificate():
    """f = x over the primes up to 8, window length 4, N = 10^7.

    Residues 2:1, 3:2, 5:4, 7:6 combine to b = 209 mod 210; the hand-checked
    placement is b1 = -2000041, which is in each of those classes, I1 =
    [2000042, 2000045], I2 = [7999955, 7999958], and every window element
    has one of 2, 3, 5, 7 as a factor.
    """
    f = IntPolynomial.from_monomial([0, 1])
    params = SieveParams(x=8).with_y(4)
    placement = place(209, 210, 10**7, 4)
    return ResidueCertificate(
        poly=f,
        params=params,
        seed=0,
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

    def test_empty(self):
        assert crt_combine({}) == (0, 1)

    @given(
        st.one_of(
            st.dictionaries(st.sampled_from(PRIMES_3000), st.integers(-(10**4), 10**4), max_size=2),
            st.dictionaries(st.sampled_from(PRIMES_3000), st.integers(0, 3000), max_size=200),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_sequential_fold(self, residues):
        # {} gives (0, 1), and a single prime q gives (r mod q, q)
        assert crt_combine(residues) == sequential_crt(residues)
        tree = ProductTree(sorted(residues))
        assert crt_combine(residues, tree) == sequential_crt(residues)

    def test_every_prime_up_to_3000(self):
        rng = random.Random(3000)
        residues = {q: rng.randrange(q) for q in PRIMES_3000}
        assert crt_combine(residues) == sequential_crt(residues)

    def test_tree_over_other_primes_refused(self):
        with pytest.raises(ValueError):
            crt_combine({3: 1, 5: 2}, ProductTree([3, 7]))

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
        pools = cleanup_pools(table_x_100, 100)
        out_f, out_b = pairing_stage([5, 17], [], *pools, {})
        # survivors pair with the usable primes of (50, 75] in order
        assert list(out_f) == [53, 59]
        assert out_f[53] == 5 and out_f[59] == 17
        assert out_b == {}

    def test_backward_assignment(self, table_x_100):
        N = 10**6
        n_mod = target_residues(N, table_x_100)
        pools = cleanup_pools(table_x_100, 100)
        out_f, out_b = pairing_stage([], [-3], *pools, n_mod)
        assert list(out_b) == [79]
        # the backward kill class of (q, r) must land on the survivor offset
        assert (-N - out_b[79]) % 79 == (-3) % 79

    def test_root_offset_respected(self, table_x2p1_100, f_x2p1):
        N = 10**30
        n_mod = target_residues(N, table_x2p1_100)
        pools = cleanup_pools(table_x2p1_100, 100)
        out_f, out_b = pairing_stage([7], [-9], *pools, n_mod)
        (qf,) = out_f
        (qb,) = out_b
        alpha_f = roots_of(table_x2p1_100, qf)[0]
        alpha_b = roots_of(table_x2p1_100, qb)[0]
        assert (7 - out_f[qf]) % qf == alpha_f
        assert (-N - out_b[qb] + alpha_b) % qb == (-9) % qb
        # pools are disjoint halves of (x/2, x]
        assert 50 < qf <= 75 < qb <= 100

    def test_each_prime_used_once(self, table_x_100):
        n_mod = target_residues(10**6, table_x_100)
        pools = cleanup_pools(table_x_100, 100)
        out_f, out_b = pairing_stage([1, 2, 3], [-1, -2], *pools, n_mod)
        assert len(out_f) == 3 and len(out_b) == 2
        assert set(out_f).isdisjoint(out_b)


# digit counts on both sides of the conversion helpers' piece size (640,
# the lowest int-string limit the interpreter accepts) and of two pieces,
# of the interpreter's default limit (4300) and of 10000, where the helpers
# once changed route
DECIMAL_SIZES = [1, 2, 300, 639, 640, 641, 1280, 1281, 4300, 4301, 9999, 10000, 10001, 20007]


@contextmanager
def str_digit_limit(limit: int):
    """The interpreter's int-string limit set to limit (0 lifts it) inside
    the block, with sys.set_int_max_str_digits patched to fail, so that
    nothing run there can change it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)

    def refuse(value):
        raise AssertionError(f"sys.set_int_max_str_digits({value}) called")

    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "set_int_max_str_digits", refuse)
            yield
            assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(old)


@st.composite
def decimal_ints(draw) -> int:
    """A signed int of a drawn digit count: 0, 10^d - 1, 10^(d-1) or any
    d-digit value."""
    d = draw(st.sampled_from(DECIMAL_SIZES))
    n = draw(st.one_of(st.just(0), st.just(10**d - 1), st.just(10 ** (d - 1)),
                       st.integers(10 ** (d - 1), 10**d - 1)))
    return -n if draw(st.booleans()) else n


# a certificate x whose digit bound admits every field decimal_ints draws
WIDE_X = 20_000


@st.composite
def placements(draw, y=None) -> Placement:
    """A placement with N and b1 of digit counts on both sides of the
    direct-conversion crossover, read with window length y (drawn when not
    given)."""
    if y is None:
        y = draw(st.integers(1, 10**6))
    return Placement(abs(draw(decimal_ints())), draw(decimal_ints()), y)


@st.composite
def certificates(draw) -> ResidueCertificate:
    """A certificate of drawn shape: a verdict of any text, and a placement
    from placements() for its own y."""
    coeffs = draw(st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=3))
    # any y a certificate at WIDE_X may store: up to its formula length
    y = draw(st.integers(8, SieveParams(x=WIDE_X).y_formula))
    return ResidueCertificate(
        poly=IntPolynomial(tuple(coeffs) + (draw(st.integers(1, 10**40)),)),
        params=SieveParams(x=WIDE_X).with_y(y),
        seed=draw(st.integers(0, 2**70)),
        irreducibility=draw(st.text(max_size=8)),
        placement=draw(placements(y)),
        version=draw(st.integers(-5, 5)),
    )


def compact_json(cert) -> bytes:
    """The certificate bytes by their definition: its dict as json.dumps
    writes it with no indent and no spaces, plus a newline."""
    return (json.dumps(cert.to_json_dict(), separators=(",", ":")) + "\n").encode()


class TestPlacement:
    def test_auto_target(self):
        assert auto_target(15) == 10**4  # 15^3 = 3375
        assert auto_target(210) == 10**7  # 210^3 = 9261000
        assert auto_target(1) == 1
        assert auto_target(10) == 10**3

    def test_auto_target_matches_digit_loop(self):
        # the power of ten sized from bit_length against the loop it replaced
        def by_loop(modulus):
            n = 1
            while n < modulus**3:
                n *= 10
            return n

        rng = np.random.default_rng(10)
        moduli = [1, 10, 15, 210]
        moduli += [10**k + d for k in range(40) for d in (-1, 0, 1) if 10**k + d > 0]
        moduli += [int(rng.integers(1, 2**62)) ** int(rng.integers(1, 40)) for _ in range(200)]
        for m in moduli:
            assert auto_target(m) == by_loop(m), m

    def test_hand_case(self):
        pl = place(7, 15, 10**6, 30)
        assert pl.b1 == -200003
        assert pl.b1 % 15 == 7 % 15
        assert pl.I1[0] == 1 - pl.b1
        assert pl.I1 == (200004, 200033)
        assert pl.I2 == (10**6 - 200033, 10**6 - 200004)
        assert pl.n1 == 200018 and pl.n2 == 10**6 - 200018

    def test_toy_case(self):
        pl = place(209, 210, 10**7, 4)
        assert pl.b1 == -2000041
        assert pl.I1 == (2000042, 2000045)
        assert pl.I2 == (7999955, 7999958)
        assert pl.n1 == 2000043 and pl.n2 == 7999957

    def test_b1_is_largest_in_window(self):
        pl = place(7, 15, 10**6, 30)
        assert pl.b1 + 15 > -((10**6 + 4) // 5)
        assert pl.b1 >= -((3 * 10**6) // 10)

    def test_centers_split_target(self):
        for b, P, N, y in [(3, 35, 10**6, 20), (11, 105, 10**9, 101)]:
            pl = place(b, P, N, y)
            assert pl.n1 + pl.n2 == N
            assert pl.I1[1] - pl.I1[0] == y - 1
            assert pl.I2[1] - pl.I2[0] == y - 1
            # the two windows mirror each other through N/2
            assert pl.I2 == (N - pl.I1[1], N - pl.I1[0])

    @pytest.mark.parametrize("x", [8, 100, 300, 1000, 3000, 4000, 10**4])
    def test_digit_bound_holds_for_auto_target(self, x):
        # f = x makes every prime usable, the largest modulus at this x
        n = auto_target(math.prod(int(p) for p in sieve_primes(x)))
        with str_digit_limit(0):
            digits = len(str(n))
        assert digits <= decimal_digit_bound(x)

    def test_long_field_refused_before_conversion(self):
        obj = place(209, 210, 10**7, 4).to_json()
        assert Placement.from_json(obj, 8, 4).N == 10**7
        with pytest.raises(ValueError, match="7-digit bound"):
            Placement.from_json(obj, 7, 4)
        obj["b1"] = "-" + "1" * 8  # a sign does not count as a digit
        assert Placement.from_json(obj, 8, 4).b1 == -11111111
        # a million digits, which take about a second to convert, are
        # refused by their length alone
        for key in ("N", "b1"):
            long = {**obj, key: "7" * 10**6}
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match="8-digit bound"):
                Placement.from_json(long, 8, 4)
            assert time.perf_counter() - t0 < 0.05

    @given(placements())
    @settings(max_examples=60, deadline=None)
    def test_to_json_converts_every_field_exactly(self, pl):
        # N and b1 are the only fields, each a conversion of its int
        with str_digit_limit(0):
            want = {"N": str(pl.N), "b1": str(pl.b1)}
        assert pl.to_json() == want

    def test_to_json_zero_fields(self):
        pl = Placement(0, 0, 1)
        assert pl.to_json() == {"N": "0", "b1": "0"}
        assert (pl.I1, pl.I2, pl.n1, pl.n2) == ((1, 1), (-1, -1), 0, 0)

    @given(st.integers(1, 10**10_000) | st.sampled_from(
        [10**k + d for k in range(0, 20_001, 997) for d in (-1, 0, 1) if 10**k + d > 0]))
    @settings(max_examples=80, deadline=None)
    def test_decimal_digits_is_the_string_length(self, n):
        with str_digit_limit(0):
            assert decimal_digits(n) == len(str(n))

    @pytest.mark.parametrize("far", [-1, -(10**3000) - 7, 10**3000 + 7, -(10**4500), 10**4500],
                             ids=["-1", "-1e3000", "1e3000", "-1e4500", "1e4500"])
    def test_from_json_reads_fields_far_from_their_base(self, far):
        # b1 = far lies far from its base -N/5: it is read exactly, with
        # leading zeros, whatever its sign and length, and the band is the
        # verifier's to judge. The derived fields an older format stored
        # are not read at all, however far from N and b1 they lie, and are
        # not held to the digit bound
        pl = place(209, 210, 10**7, 4)
        obj = Placement(pl.N, far, 4).to_json()
        obj["b1"] = "-000" + obj["b1"].lstrip("-") if far < 0 else "000" + obj["b1"]
        stale = int_to_decimal(far) + "0" * 5000
        obj.update(I1=[stale, stale], I2=[stale, stale], n1=stale, n2=stale, m=stale)
        longest = max(len(obj["N"]), len(obj["b1"].lstrip("-")))
        got = Placement.from_json(obj, longest, 4)
        assert (got.N, got.b1, got.y) == (pl.N, far, 4) == (
            parse_decimal(obj["N"], longest), parse_decimal(obj["b1"], longest), 4)
        assert got.n1 == 2 - far and got.n2 == pl.N - got.n1
        with pytest.raises(ValueError, match="digit bound"):
            Placement.from_json(obj, longest - 1, 4)

    def test_json_round_trip(self):
        pl = place(209, 210, 10**7, 4)
        again = Placement.from_json(json.loads(json.dumps(pl.to_json())), 8, 4)
        assert again == pl
        assert isinstance(pl.to_json()["N"], str)


class TestDecimalConversion:
    @given(decimal_ints())
    @settings(max_examples=60, deadline=None)
    def test_pair_equals_str_and_int_and_round_trips(self, n):
        with str_digit_limit(0):
            text = str(n)
        assert int_to_decimal(n) == text
        assert decimal_to_int(text) == n
        assert decimal_to_int(int_to_decimal(n)) == n

    @given(decimal_ints(), st.integers(0, 40))
    @settings(max_examples=30, deadline=None)
    def test_leading_zeros_read_like_int(self, n, zeros):
        with str_digit_limit(0):
            text = ("-" if n < 0 else "") + "0" * zeros + str(abs(n))
            want = int(text)
        assert decimal_to_int(text) == want

    def test_helpers_work_under_the_lowest_limit_and_never_change_it(self):
        # each size as its largest and a random value, both signs, and the
        # nonnegative ones read again with leading zeros
        values = [0, 7**3000]
        for d in DECIMAL_SIZES:
            for n in (10**d - 1, random.Random(d).randrange(10 ** (d - 1), 10**d)):
                values += [n, -n]
        with str_digit_limit(0):
            texts = [str(n) for n in values]
        padded = ["0" * 30 + t for t in texts if t[0] != "-"]
        with str_digit_limit(640):
            assert [int_to_decimal(n) for n in values] == texts
            assert [decimal_to_int(t) for t in texts] == values
            assert [decimal_to_int(t) for t in padded] == [n for n in values if n >= 0]


ROUND_TRIP_POLYS = {"x": [0, 1], "x^2+1": [1, 0, 1], "x^3+2": [2, 0, 0, 1]}


# (poly, x)
ROUND_TRIP_CASES = list(itertools.product(sorted(ROUND_TRIP_POLYS), [50, 300]))


@functools.lru_cache(maxsize=None)
def constructed(name: str, x: int) -> ResidueCertificate | None:
    """The seed 7 certificate of the case, or None when none exists."""
    f = IntPolynomial.from_monomial(ROUND_TRIP_POLYS[name])
    try:
        return construct_certificate(f, SieveParams(x=x), 7)[0]
    except ConstructionError:
        return None


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
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1 and b" " not in raw
        obj = json.loads(raw)
        assert list(obj) == ["poly", "params", "seed", "placement", "irreducibility", "version"]
        assert obj["version"] == 3
        assert obj["poly"]["basis"] == "binomial"
        assert obj["params"] == {"x": 8, "y": 4}
        assert obj["placement"] == {"N": "10000000", "b1": "-2000041"}

    @pytest.mark.parametrize("placement", [{}, [], 0, False, ""])
    def test_falsy_placement_is_malformed(self, placement):
        obj = {**toy_certificate().to_json_dict(), "placement": placement}
        with pytest.raises(ValueError, match="malformed certificate"):
            ResidueCertificate.from_json_dict(obj)

    def test_null_or_missing_placement_is_malformed(self):
        # every certificate has a placement: null does not mean none
        obj = {**toy_certificate().to_json_dict(), "placement": None}
        with pytest.raises(ValueError, match="malformed certificate"):
            ResidueCertificate.from_json_dict(obj)
        del obj["placement"]
        with pytest.raises(ValueError, match="malformed certificate"):
            ResidueCertificate.from_json_dict(obj)

    def test_save_load(self, tmp_path):
        cert = toy_certificate()
        path = tmp_path / "cert.json"
        cert.save(str(path))
        assert ResidueCertificate.load(str(path)).to_json_bytes() == cert.to_json_bytes()

    def test_failed_save_leaves_the_old_file(self, tmp_path, monkeypatch):
        # the bytes are made before the file is opened: a serialization that
        # raises leaves the previous certificate, or no file at all
        cert = toy_certificate()
        path = tmp_path / "cert.json"
        cert.save(str(path))
        old = path.read_bytes()

        def broken(self):
            raise ValueError("no bytes")

        monkeypatch.setattr(ResidueCertificate, "to_json_bytes", broken)
        for target in (path, tmp_path / "new.json"):
            with pytest.raises(ValueError, match="no bytes"):
                cert.save(str(target))
        assert path.read_bytes() == old
        assert not (tmp_path / "new.json").exists()

    def test_modulus_and_b(self):
        assert crt_combine(toy_certificate().residues()) == (209, 210)

    @given(certificates())
    @settings(max_examples=60, deadline=None)
    def test_writer_matches_the_stdlib_encoder(self, cert):
        # the bytes are the compact json.dumps of the dict; they read back
        # through load and write again
        raw = cert.to_json_bytes()
        assert raw == compact_json(cert)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cert.json")
            cert.save(path)
            again = ResidueCertificate.load(path)
        assert again.to_json_bytes() == raw
        assert again.to_json_dict() == cert.to_json_dict()

    @pytest.mark.parametrize("stages", [[], [[]], [[(2, 1)]], [[(2, 1)], [], [(3, 0), (5, 4)]]])
    def test_writer_edge_shapes(self, stages):
        # a file that carries stage lists of [q, r] pairs, as version 2
        # wrote them, loads with the lists unread and writes the bytes of
        # the certificate without them
        raw = toy_certificate().to_json_bytes()
        obj = json.loads(raw)
        obj["stages"] = [{"stage": "small", "side": "fwd", "assignments": [list(p) for p in a]}
                         for a in stages]
        again = ResidueCertificate.from_json_dict(obj)
        assert again.to_json_bytes() == compact_json(again) == raw
        assert again.residues() == {2: 1, 3: 2, 5: 4, 7: 6}

    @given(st.sampled_from(ROUND_TRIP_CASES))
    @settings(max_examples=48, deadline=None)
    def test_constructions_round_trip(self, case):
        # load(save(c)) holds c's residues, placement and parameters, and
        # writes c's bytes again; x = 50 is too small for some cases
        cert = constructed(*case)
        assume(cert is not None)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cert.json")
            cert.save(path)
            again = ResidueCertificate.load(path)
        assert again.residues() == cert.residues()
        assert again.placement == cert.placement
        assert again.params == cert.params
        assert again.to_json_bytes() == cert.to_json_bytes()

    def test_residues_are_b1_mod_every_prime_up_to_x(self):
        # b1 is the proof: its residue mod each prime q <= x, the keys
        # acceptance criterion 4 reads, whatever the polynomial's roots
        cert = constructed("x^2+1", 300)
        b1 = cert.placement.b1
        assert cert.residues() == {q: b1 % q for q in sieve_primes(300).tolist()}


# A construction of f = x at x = 300, seed 7, whose pairing drops the
# pair of its smallest forward cleanup prime, so one forward offset is left
# uncovered. It prints the interpreter's optimize flag and what construction
# gave: the error's message, or the window length of a certificate.
DROPPED_PAIR = """
import sys
from composite_forge import assemble
from composite_forge.cover import SieveParams
from composite_forge.poly import IntPolynomial

pairing = assemble.pairing_stage

def drop_one(*args):
    fwd, bwd = pairing(*args)
    del fwd[min(fwd)]
    return fwd, bwd

assemble.pairing_stage = drop_one
try:
    cert, _ = assemble.construct_certificate(IntPolynomial.from_monomial([0, 1]), SieveParams(x=300), 7)
except RuntimeError as e:
    print(sys.flags.optimize, e)
else:
    print(sys.flags.optimize, "certificate with y =", cert.params.y)
"""


class TestConstructCertificate:
    @pytest.mark.parametrize("optimize", [0, 1])
    def test_uncovered_offset_refused_under_any_flag(self, optimize):
        # the final cover check holds under python -O, which strips asserts
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        flags = ["-O"] * optimize
        out = subprocess.run(
            [sys.executable, *flags, "-c", DROPPED_PAIR], env=env, capture_output=True, text=True,
            check=True,
        )
        flag, message = out.stdout.strip().split(" ", 1)
        assert int(flag) == optimize
        head, _, offset = message.rpartition(" ")
        assert head == "internal error: forward window not fully covered at"
        assert 1 <= int(offset) <= 716

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
        assert pl.N == auto_target(math.prod(cert.residues()))
        # the paper's radius at this N, floor(ln N (ln ln N)^(1/325525))
        ln_n = math.log(pl.N)
        assert e["m_paper"] == int(ln_n * math.log(ln_n) ** (1 / 325525)) == 831
        assert cert.irreducibility == "proved"
        report = verify_certificate(cert)
        assert report.valid, report.messages

    def test_beyond_the_default_limit_under_the_lowest_one(self, f_x, cache_dir, tmp_path):
        # at x = 4000 N has 5097 digits, past the interpreter's default
        # 4300-digit limit; construction, the certificate file, loading it
        # and the verifier's report all convert under a 640 limit
        path = str(tmp_path / "cert.json")
        with str_digit_limit(640):
            cert, stats = construct_certificate(f_x, SieveParams(x=4000), seed=0,
                                                cache_dir=cache_dir)
            assert stats.extras["n_digits"] == decimal_digits(cert.placement.N) == 5097
            cert.save(path)
            again = ResidueCertificate.load(path)
            report = verify_certificate(again)
            json.dumps(report.to_json_dict())
        assert again.to_json_bytes() == cert.to_json_bytes()
        assert again.placement == cert.placement
        assert report.valid, report.messages

    def test_stage_tags(self, f_x, cache_dir):
        # the stage tags are the stats rows' alone: a certificate stores
        # no stages
        cert, stats = construct_certificate(
            f_x, SieveParams(x=300), seed=7, cache_dir=cache_dir
        )
        tags = [(r.stage, r.side) for r in stats.rows]
        assert tags == [(stage, side) for stage in ("small", "medium", "cleanup")
                        for side in ("fwd", "bwd")]
        assert "stages" not in cert.to_json_dict()

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
            "ok", "small_retry_budget", "residual_over_capacity",
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

    def test_pairing_only_for_feasible_attempts(self, f_x2p1, cache_dir, monkeypatch):
        # the capacity rule decides feasibility before any pairing; every
        # pairing call is one ok attempt, and none of them raises
        from composite_forge import assemble

        paired = []
        pair = assemble.pairing_stage

        def recording_pair(res_f, res_b, *args):
            paired.append((len(res_f), len(res_b)))
            return pair(res_f, res_b, *args)

        monkeypatch.setattr(assemble, "pairing_stage", recording_pair)
        _, stats = construct_certificate(f_x2p1, SieveParams(x=300), seed=7, cache_dir=cache_dir)
        attempts = stats.extras["attempts"]
        assert any(a["outcome"] == "residual_over_capacity" for a in attempts)
        assert paired == [
            (a["residual_fwd"], a["residual_bwd"]) for a in attempts if a["outcome"] == "ok"
        ]

    def test_sieves_only_for_the_final_check(self, f_x2p1, cache_dir, monkeypatch):
        # post-medium residuals come from the cover-count engine; the full
        # re-sieve runs once per window, as the independent final check
        from composite_forge import assemble

        seen = []
        sieve = assemble.sieve_survivors

        def counting_sieve(*args, **kwargs):
            seen.append(args[2])
            return sieve(*args, **kwargs)

        monkeypatch.setattr(assemble, "sieve_survivors", counting_sieve)
        _, stats = construct_certificate(f_x2p1, SieveParams(x=300), seed=7, cache_dir=cache_dir)
        y = stats.extras["achieved_y"]
        # several window lengths were tried, so a per-attempt sieve would show
        assert len(stats.extras["attempts"]) > 1
        assert seen == [(1, y), (-y, -1)]

    def test_target_reduced_once_per_prime(self, f_x2p1, cache_dir, monkeypatch):
        # N is reduced once per construction, once per block of usable
        # primes (residues_mod), the blocks partitioning the usable primes,
        # and every sieve stage of every window length tried reads only the
        # map q -> N mod q: no stage negates N itself (the backward classes
        # -N - r)
        from composite_forge import assemble

        reductions = []
        negations = []

        class CountingInt(int):
            def __mod__(self, m):
                reductions.append(m)
                return int(self) % m

            def __neg__(self):
                negations.append(1)
                return -int(self)

        auto = assemble.auto_target
        monkeypatch.setattr(assemble, "auto_target", lambda m: CountingInt(auto(m)))
        _, stats = construct_certificate(f_x2p1, SieveParams(x=300), seed=7, cache_dir=cache_dir)
        assert len(stats.extras["attempts"]) > 1
        from composite_forge.modroots import build_root_table

        usable = usable_between(build_root_table(f_x2p1, 300, cache_dir=cache_dir), 0, 300)
        # each reduction is by the product of the next run of usable primes
        i = 0
        for m in reductions:
            j = i + 1
            while math.prod(usable[i:j]) < m and j < len(usable):
                j += 1
            assert math.prod(usable[i:j]) == m
            i = j
        assert i == len(usable)
        assert not negations

    def test_one_cover_state_per_attempt(self, f_x2p1, cache_dir, monkeypatch):
        # the greedy pass and the post-medium residuals both work on the one
        # state an attempt builds
        from composite_forge import assemble, cover

        built = []
        tried = []
        init = cover.CoverState.__init__
        draw = assemble.sample_small_residue

        def counting_init(self, *args, **kwargs):
            built.append(tried[-1])
            init(self, *args, **kwargs)

        def counting_draw(params, *args, **kwargs):
            tried.append(params.y)
            return draw(params, *args, **kwargs)

        monkeypatch.setattr(cover.CoverState, "__init__", counting_init)
        monkeypatch.setattr(assemble, "sample_small_residue", counting_draw)
        _, stats = construct_certificate(f_x2p1, SieveParams(x=300), seed=7, cache_dir=cache_dir)
        attempts = stats.extras["attempts"]
        assert len(attempts) > 1
        assert all(a["outcome"] != "small_retry_budget" for a in attempts)
        assert built == [a["y"] for a in attempts]

    def test_greedy_medium_stage_is_one_pass(self, f_x2p1, cache_dir, monkeypatch):
        # the ascending greedy pass alone fixes the medium residues; no
        # refinement sweep follows it
        from composite_forge import assemble

        def forbidden(*args, **kwargs):
            raise AssertionError("construction must not refine the greedy pass")

        monkeypatch.setattr(assemble, "refine_residues", forbidden)
        cert, _ = construct_certificate(f_x2p1, SieveParams(x=300), seed=7, cache_dir=cache_dir)
        assert verify_certificate(cert).valid

    def test_every_usable_prime_assigned(self, f_x, cache_dir):
        cert, _ = construct_certificate(
            f_x, SieveParams(x=300), seed=7, cache_dir=cache_dir
        )
        from composite_forge.modroots import build_root_table

        table = build_root_table(f_x, 300, cache_dir=cache_dir)
        assert sorted(cert.residues()) == usable_between(table, 0, table.limit)

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

    def test_explicit_target_beyond_digit_bound(self, f_x, cache_dir):
        # at x = 300 a certificate may carry 399 digits, which a verifier
        # will parse, and no more
        assert decimal_digit_bound(300) == 399
        with pytest.raises(ConstructionError, match="more than 399 digits"):
            construct_certificate(f_x, SieveParams(x=300), seed=0, n_target=10**399)
        cert, _ = construct_certificate(
            f_x, SieveParams(x=300), seed=0, n_target=10**398, cache_dir=cache_dir
        )
        again = ResidueCertificate.from_json_dict(json.loads(cert.to_json_bytes()))
        assert again.placement.N == 10**398


POLYS = {"x": [0, 1], "x^2+1": [1, 0, 1], "x^3+2": [2, 0, 0, 1]}


def log_excess(root: float, slope: float = 3.0):
    """A try_length with excess slope * ln(y / root): feasible exactly up
    to root."""

    def try_length(y):
        g = slope * math.log(y / root)
        return g <= 0, g

    return try_length


def recording(try_length):
    tried = []

    def wrapped(y):
        tried.append(y)
        return try_length(y)

    return wrapped, tried


class TestWindowLengthSearch:
    def test_residual_excess(self):
        rec = {"residual_fwd": 13, "residual_bwd": 20}
        assert residual_excess(rec, 13, 20) == 0
        assert residual_excess(rec, 13, 19) == pytest.approx(math.log(21 / 20))
        assert residual_excess(rec, 27, 41) == pytest.approx(math.log(1 / 2))
        retry = {"residual_fwd": None, "residual_bwd": None}
        assert residual_excess(retry, 5, 5) is None

    def test_feasible_start_at_the_cap_is_taken_at_once(self):
        try_length, tried = recording(log_excess(5000))
        assert search_window_length(try_length, 700, 10**6) == 700
        assert tried == [700]

    @pytest.mark.parametrize("slope", [1.5, 3.0, 6.0])
    @pytest.mark.parametrize("root", [9.5, 60, 1234.5, 7777])
    @pytest.mark.parametrize("start", [0.25, 0.8, 1.25, 4.0])
    def test_smooth_excess_is_solved_within_budget(self, root, start, slope):
        # a start within a factor 4 of the root, as the capacity guess gives
        try_length, tried = recording(log_excess(root, slope))
        y = search_window_length(try_length, 10**5, int(root * start))
        assert 8 <= min(tried) and max(tried) <= 10**5
        assert len(set(tried)) == len(tried) <= SEARCH_ATTEMPTS
        assert y == max(t for t in tried if t <= root)
        assert y >= math.floor(root) * 0.97

    @pytest.mark.parametrize("root,slope,start", [(1000, 1.5, 0.8), (7777, 3.0, 0.8),
                                                  (7777, 6.0, 1.25)])
    def test_stalled_secant_still_closes_in(self, root, slope, start):
        # a sharply convex excess above the root: plain regula falsi creeps
        # down from the infeasible end and keeps the far feasible one; the
        # held end's halved excess (Illinois) moves it
        def try_length(y):
            u = math.log(y / root)
            g = slope * u + 8 * u * abs(u)
            return g <= 0, g

        wrapped, tried = recording(try_length)
        y = search_window_length(wrapped, 10**5, int(root * start))
        assert len(tried) <= SEARCH_ATTEMPTS
        assert y >= 0.99 * root

    @pytest.mark.parametrize("root,start", [(1110, 663), (2000, 900), (5000, 2600)])
    def test_saturated_feasible_start_gives_way(self, root, start):
        # residual 0 far below the root floors the excess at -ln(capacity + 1)
        # (capacity 66 here), much lower than the smooth curve: the secant
        # from that end creeps down from the infeasible one unless the held
        # feasible end's excess keeps halving
        def try_length(y):
            g = 3 * math.log(y / root)
            g = g if g > -1 else -math.log(67)
            return g <= 0, g

        wrapped, tried = recording(try_length)
        assert try_length(start)[1] == -math.log(67)
        y = search_window_length(wrapped, 10**5, start)
        assert len(tried) <= SEARCH_ATTEMPTS
        assert y >= 0.97 * root

    @pytest.mark.parametrize("start", [5000, 9990, 10010, 20000])
    def test_steps_before_the_bracket_are_at_least_the_minimum(self, start):
        # an excess of nearly 0 asks for steps far below SEARCH_MIN_STEP;
        # while every attempt so far falls on the start's side of the root,
        # each step still moves y by at least that fraction (int truncates)
        root = 10**4

        def try_length(y):
            good = y <= root
            return good, -1e-3 if good else 1e-3

        wrapped, tried = recording(try_length)
        search_window_length(wrapped, 10**6, start)
        below = start <= root
        # the first attempt on the other side of the root, or the end
        k = next((i for i, t in enumerate(tried) if (t <= root) != below), len(tried))
        assert len(tried) >= 2
        for t, nxt in zip(tried[:k], tried[1:k + 1]):
            if below:
                assert nxt > t * (1 + SEARCH_MIN_STEP) - 1
            else:
                assert nxt <= t / (1 + SEARCH_MIN_STEP)

    def test_stops_at_the_tolerance(self):
        try_length, tried = recording(log_excess(1000))
        y = search_window_length(try_length, 10**5, 990)
        infeasible = min(t for t in tried if t > 1000)
        assert infeasible - y <= max(1, SEARCH_TOLERANCE * y)

    def test_nothing_feasible_halves_down_to_8(self):
        # retry-budget attempts carry no excess: the search halves
        try_length, tried = recording(lambda y: (False, None))
        assert search_window_length(try_length, 716, 5000) is None
        assert tried == [716, 358, 179, 89, 44, 22, 11, 8]

    def test_descends_along_the_slope_then_stops_at_8(self):
        try_length, tried = recording(lambda y: (False, 0.5))
        assert search_window_length(try_length, 716, 716) is None
        assert tried[-1] == 8 and min(tried) == 8
        assert tried == sorted(tried, reverse=True)

    def test_largest_feasible_kept_when_feasibility_is_not_monotone(self):
        # feasible at and below 400 and at 450 and 451, so 450 may be found
        # above an infeasible length; whatever is tried, the largest
        # feasible one comes back
        def try_length(y):
            good = y <= 400 or y in (450, 451)
            return good, -0.1 if good else 0.1

        wrapped, tried = recording(try_length)
        y = search_window_length(wrapped, 1000, 300)
        assert y == max(t for t in tried if try_length(t)[0])

    def test_attempt_bounds_in_construction(self, f_x2p1, cache_dir):
        # formula y at x = 300 is 716; nothing above it or below 8 is tried
        _, stats = construct_certificate(f_x2p1, SieveParams(x=300), seed=7, cache_dir=cache_dir)
        ys = [a["y"] for a in stats.extras["attempts"]]
        assert 8 <= min(ys) and max(ys) <= 716

    def test_feasible_formula_y_is_taken_at_once(self, f_x, cache_dir):
        # y = 40 is far below what x = 300 covers for f = x
        cert, stats = construct_certificate(
            f_x, SieveParams(x=300, y_override=40), seed=7, cache_dir=cache_dir
        )
        assert [(a["y"], a["outcome"]) for a in stats.extras["attempts"]] == [(40, "ok")]
        assert stats.extras["achieved_y"] == cert.params.y == 40

    def test_nothing_fits_raises(self, f_x2p1, cache_dir, monkeypatch):
        from composite_forge import assemble

        tried = []
        search = assemble.search_window_length

        def recording_search(try_length, *args):
            def wrapped(y):
                tried.append(y)
                return try_length(y)

            return search(wrapped, *args)

        monkeypatch.setattr(assemble, "search_window_length", recording_search)
        with pytest.raises(ConstructionError, match="no feasible window length"):
            construct_certificate(f_x2p1, SieveParams(x=10), seed=1, cache_dir=cache_dir)
        assert tried and tried[-1] == 8 and min(tried) == 8

    @pytest.mark.parametrize("x", [300, 1000, 3000])
    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("name", sorted(POLYS))
    def test_start_is_near_the_length_found(self, cache_dir, name, x, seed):
        # the fitted start (SEARCH_START) lies within a factor 1.25 of the
        # greedy two-sided length found, on seeds the fit did not see
        f = IntPolynomial.from_monomial(POLYS[name])
        _, stats = construct_certificate(f, SieveParams(x=x), seed=seed, cache_dir=cache_dir)
        e = stats.extras
        assert 1 / 1.25 <= e["achieved_y"] / e["y_start"] <= 1.25

    @pytest.mark.parametrize("x", [300, 1000, 3000])
    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("name", sorted(POLYS))
    def test_few_attempts_and_largest_ok_achieved(self, cache_dir, name, x, seed):
        f = IntPolynomial.from_monomial(POLYS[name])
        _, stats = construct_certificate(f, SieveParams(x=x), seed=seed, cache_dir=cache_dir)
        e = stats.extras
        attempts = e["attempts"]
        assert len(attempts) <= SEARCH_ATTEMPTS
        assert e["achieved_y"] == max(a["y"] for a in attempts if a["outcome"] == "ok")
        assert all(8 <= a["y"] <= e["formula_y"] for a in attempts)
