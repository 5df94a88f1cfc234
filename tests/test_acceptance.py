"""Acceptance gate: nine quantitative criteria, one printed verdict line each.

Every criterion measures against an independent baseline (exhaustive scans,
closed-form expectations, big-integer recomputation) rather than against the
module under test. Stated tolerances and runtime budgets are asserted.
"""

import math
import time

import numpy as np
import pytest

from composite_forge.assemble import (
    construct_certificate,
    crt_combine,
    stage_rng,
)
from composite_forge.cover import SieveParams, sample_small_residue
from composite_forge.modroots import (
    build_root_table,
    density_stats,
    residue_collision_count,
    roots_mod_p,
)
from composite_forge.poly import IntPolynomial, parse_poly_literal
from composite_forge.sievecore import translate_check
from composite_forge.verify import (
    CoveringSimConfig,
    covering_lemma_sim,
    oracle_longest_run,
    verify_certificate,
)
from conftest import usable_between


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def primes_up_to(n: int) -> np.ndarray:
    bits = np.ones(n + 1, dtype=bool)
    bits[:2] = False
    for p in range(2, int(n**0.5) + 1):
        if bits[p]:
            bits[p * p :: p] = False
    return np.flatnonzero(bits)


def scan_roots(f: IntPolynomial, p: int) -> tuple[int, ...]:
    """Exhaustive root scan of the integer companion mod p. Primes at most
    the degree, and primes dividing the companion's leading coefficient,
    carry no usable root class and scan to the empty tuple."""
    comp = f.companion()
    if p <= f.degree or comp[-1] % p == 0:
        return ()
    acc = np.zeros(p, dtype=np.int64)
    ns = np.arange(p, dtype=np.int64)
    for c in reversed(comp):
        acc = (acc * ns + c % p) % p
    return tuple(int(v) for v in np.flatnonzero(acc == 0))


@pytest.fixture(scope="module")
def built_300(f_x, f_x2p1, cache_dir):
    """Shared two-sided constructions at x = 300 for criteria 4 and 5."""
    out = {}
    for name, f in (("x", f_x), ("x^2+1", f_x2p1)):
        t0 = time.perf_counter()
        cert, stats = construct_certificate(
            f, SieveParams(x=300), seed=7, cache_dir=str(cache_dir)
        )
        out[name] = (cert, stats, time.perf_counter() - t0)
    return out


def test_criterion_01_root_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    polys = [
        parse_poly_literal("poly:[0,1]"),
        parse_poly_literal("poly:[1,0,1]"),
        parse_poly_literal("binom:[1,0,1]"),
        parse_poly_literal("poly:[2,0,0,1]"),
    ]
    ps = [int(p) for p in primes_up_to(10**4)]
    mismatches = 0
    for f in polys:
        for p in ps:
            if roots_mod_p(f, p) != scan_roots(f, p):
                mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 30.0
    _report(capsys, 1, ok,
            f"4 polynomials x {len(ps)} primes, {mismatches} mismatches, {dt:.1f}s")
    assert mismatches == 0
    assert dt < 30.0


def test_criterion_02_density_trends(capsys, table_x2p1_1e6):
    t0 = time.perf_counter()
    s4 = density_stats(table_x2p1_1e6, 10**4)
    s5 = density_stats(table_x2p1_1e6, 10**5)
    s6 = density_stats(table_x2p1_1e6)
    sig4 = s4.sigma * math.log(10**4)
    sig6 = s6.sigma * math.log(10**6)
    sigma_drift = abs(sig6 - sig4) / sig4
    mertens_drift = abs(s6.loglog_gap() - s5.loglog_gap())
    dt = time.perf_counter() - t0
    ok = (abs(s6.rho_hat - 0.5) <= 0.010
          and sigma_drift <= 0.15
          and mertens_drift <= 0.02
          and dt < 120.0)
    _report(capsys, 2, ok,
            f"rho_hat={s6.rho_hat:.4f}, sigma*log x drift={sigma_drift:.4f}, "
            f"mertens gap drift={mertens_drift:.4f}, {dt:.1f}s")
    assert abs(s6.rho_hat - 0.5) <= 0.010
    assert sigma_drift <= 0.15
    assert mertens_drift <= 0.02
    assert dt < 120.0


def test_criterion_03_sampling_mean(capsys, table_x2p1_2000):
    t0 = time.perf_counter()
    params = SieveParams(x=2000)
    expected = table_x2p1_2000.density_product(params.z) * params.y
    counts = []
    for i in range(200):
        rng = stage_rng(42, 3, i)
        _, fwd, _, _ = sample_small_residue(
            params, table_x2p1_2000, rng, two_sided=False
        )
        counts.append(fwd.count())
    mean = float(np.mean(counts))
    sd = float(np.std(counts, ddof=1))
    se = sd / math.sqrt(len(counts))
    pull = abs(mean - expected) / se
    rsd = sd / mean
    dt = time.perf_counter() - t0
    ok = pull <= 3.0 and rsd <= 0.2 and dt < 120.0
    _report(capsys, 3, ok,
            f"mean={mean:.1f} vs sigma*y={expected:.1f}, {pull:.2f} SE, "
            f"RSD={rsd:.4f}, {dt:.1f}s")
    assert pull <= 3.0
    assert rsd <= 0.2
    assert dt < 120.0


def test_criterion_04_end_to_end_construction(capsys, built_300):
    details = []
    ok = True
    for name, (cert, stats, built_dt) in built_300.items():
        t0 = time.perf_counter()
        rep = verify_certificate(cert, deep=True)
        ok = ok and rep.valid
        f = cert.poly
        x = cert.params.x
        deg = f.degree
        qs = sorted(cert.residues())
        pl = cert.placement
        n_checked = 0
        for lo, hi in (pl.I1, pl.I2):
            for n in range(lo, hi + 1):
                v = f.eval(n)
                # witness recheck from raw big-integer arithmetic only
                has = any(
                    q <= x and q > deg and v % q == 0 and abs(v) > q
                    for q in qs
                )
                ok = ok and has
                n_checked += 1
        ok = ok and pl.n1 + pl.n2 == pl.N
        dt = built_dt + (time.perf_counter() - t0)
        ok = ok and dt < 60.0
        details.append(f"f={name}: valid={rep.valid}, {n_checked} values "
                       f"witnessed, n1+n2=N, {dt:.1f}s")
    _report(capsys, 4, ok, "; ".join(details))
    assert ok


def test_criterion_05_residual_capacity(capsys, built_300):
    details = []
    ok = True
    for name, (_, stats, _) in built_300.items():
        ex = stats.extras
        ok = ok and ex["residual_fwd"] <= ex["capacity_fwd"]
        ok = ok and ex["residual_bwd"] <= ex["capacity_bwd"]
        for row in stats.rows:
            if row.stage == "medium":
                ok = ok and row.survivors_after <= row.capacity
        details.append(
            f"f={name}: fwd {ex['residual_fwd']}/{ex['capacity_fwd']}, "
            f"bwd {ex['residual_bwd']}/{ex['capacity_bwd']}"
        )
    _report(capsys, 5, ok, "; ".join(details))
    assert ok


def test_criterion_06_nontriviality(capsys, f_x, cache_dir):
    t0 = time.perf_counter()
    cert, stats = construct_certificate(
        f_x, SieveParams(x=500), seed=7, cache_dir=str(cache_dir)
    )
    achieved = stats.extras["achieved_y"]
    rep = verify_certificate(cert, deep=True)
    run = oracle_longest_run(f_x, 10**6)
    dt = time.perf_counter() - t0
    ok = achieved >= 500 and rep.valid
    _report(capsys, 6, ok,
            f"achieved y={achieved} >= x=500, valid={rep.valid}; natural "
            f"longest run below 1e6 is {run.length} at {run.start}, {dt:.1f}s")
    assert achieved >= 500
    assert rep.valid


def test_criterion_07_covering_harness(capsys):
    t0 = time.perf_counter()
    rep = covering_lemma_sim(CoveringSimConfig(trials=100), seed=0)
    dt = time.perf_counter() - t0
    ok = rep.passes >= 99 and dt < 120.0
    _report(capsys, 7, ok,
            f"{rep.passes}/100 trials with residual <= {rep.threshold:.0f}, "
            f"max residual {max(rep.residuals)}, c_hat={rep.c_hat:.3f}, {dt:.1f}s")
    assert rep.passes >= 99
    assert dt < 120.0


def test_criterion_08_determinism(capsys, f_x2p1, table_x2p1_2000, cache_dir):
    t0 = time.perf_counter()
    blobs = [
        construct_certificate(
            f_x2p1, SieveParams(x=300), seed=11, cache_dir=str(cache_dir)
        )[0].to_json_bytes()
        for _ in range(2)
    ]
    identical = blobs[0] == blobs[1]

    rng = np.random.default_rng(8)
    pool = [int(p) for p in primes_up_to(200)]
    crt_ok = 0
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        qs = rng.choice(pool, size=k, replace=False)
        assignments = {int(q): int(rng.integers(q)) for q in qs}
        b, modulus = crt_combine(assignments)
        if modulus == math.prod(assignments) and 0 <= b < modulus and all(
            b % q == r for q, r in assignments.items()
        ):
            crt_ok += 1

    small = usable_between(table_x2p1_2000, 0, 40)
    trans_ok = 0
    for _ in range(1000):
        residues = {q: int(rng.integers(q)) for q in small}
        lo = int(rng.integers(-500, 500))
        width = int(rng.integers(1, 120))
        shift = int(rng.integers(-(10**6), 10**6))
        if translate_check(
            table_x2p1_2000, residues, (lo, lo + width), (0, 40), shift
        ):
            trans_ok += 1
    dt = time.perf_counter() - t0
    ok = identical and crt_ok == 1000 and trans_ok == 1000
    _report(capsys, 8, ok,
            f"equal-seed certificates byte-identical={identical}, "
            f"CRT round-trips {crt_ok}/1000, translation identities "
            f"{trans_ok}/1000, {dt:.1f}s")
    assert identical
    assert crt_ok == 1000
    assert trans_ok == 1000


def test_criterion_09_collision_bound(capsys, table_x2p1_1e6):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    ms = rng.integers(1, 10**6, size=1000, endpoint=True)
    worst = 0.0
    violations = 0
    for m in ms:
        m = int(m)
        c = residue_collision_count(table_x2p1_1e6, m, 10**3, 10**5)
        bound = 40.0 * math.log(m + 1)
        worst = max(worst, c / bound)
        if c > bound:
            violations += 1
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 120.0
    _report(capsys, 9, ok,
            f"1000 random m <= 1e6, {violations} exceed 40*log(m+1), "
            f"worst ratio {worst:.4f}, {dt:.1f}s")
    assert violations == 0
    assert dt < 120.0
