"""Certificate verification, the composite-run oracle, and the covering
simulation harness.

The verifier trusts nothing from construction: it reloads the polynomial,
recomputes root sets, and checks every claim by direct modular arithmetic.
Compositeness inside the windows is always certified by a divisor witness
(q | f(n) with 1 < q < |f(n)|), never by primality testing; primality
testing appears only in the small-scale oracle.

The witness search works on a whole window at a time: each window start is
reduced once per prime, the window's offsets are then walked with small-int
arithmetic, and the size condition |f(n)| > q is proved once per window
(with an exact per-value check only for small or hostile windows). Fast
mode is deep mode's walk on a sample of each window's offsets, and neither
mode walks a stored window of the wrong length or the stored centers. The
stored y is bounded by the formula length, and the stored x by what the
certificate's N or listed primes can support (stored_x_bound) and by the
root table's bound, before anything is sized by them.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .assemble import ResidueCertificate, big_decimals, stage_rng
from .modroots import ROW_PRIME_BOUND, build_root_table, companion_eval_mod
from .poly import IntPolynomial, irreducibility_check
from .primes import is_prime, sieve_primes
from .sievecore import MissingResidueError, sieve_survivors

VERIFY_SAMPLE_STREAM = 11


@dataclass
class VerifyReport:
    valid: bool
    mode: str
    checked: int
    failures: list[int] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)
    # prime q -> number of checked values whose smallest witness is q
    witness_primes: Counter[int] = field(default_factory=Counter)

    def to_json_dict(self) -> dict:
        with big_decimals():
            failures = [str(n) for n in sorted(self.failures)]
        return {
            "valid": self.valid,
            "checked": self.checked,
            "failures": failures,
            "mode": self.mode,
            "messages": list(self.messages),
            "witness_primes": {str(q): c for q, c in sorted(self.witness_primes.items())},
        }


def find_witness(
    base: int,
    offsets: Sequence[int],
    primes_with_roots: list[tuple[int, tuple[int, ...]]],
    comp: tuple[int, ...],
    f: IntPolynomial,
    degree: int,
) -> list[int | None]:
    """Witnessing prime for each n = base + k, k in offsets (distinct, all
    k >= 0): the smallest prime q > degree (primes ascending) with q | f(n)
    and |f(n)| > q, so that f(n) is composite, or None when no listed prime
    works.

    Each prime costs one big-int reduction s = base mod q; an offset is a
    hit when (s + k) mod q is a root r of the companion B!*f mod q, which
    is checked once per root on r itself (the companion has integer
    coefficients, so its value at n agrees with its value at r mod q).
    Per prime the hits are found by scanning the open offsets or by
    striding through each root's progression, whichever visits fewer, and
    an offset is closed at its first hit. The size condition is
    proved once for the whole group when the companion g = sum c_i n^i
    gives c_d*base - sum_{i<d} |c_i| > B!*q_max with base >= 1, since then
    |g(n)| >= n^(d-1) (c_d n - sum |c_i|) > B!*q_max for every n >= base;
    otherwise |f(n)| > q is checked exactly per hit. A hit failing it has
    no witness at all, as every later prime is larger still.
    """
    out: list[int | None] = [None] * len(offsets)
    q_max = max((q for q, roots in primes_with_roots if q > degree and roots), default=0)
    size_ok = base >= 1 and comp[-1] * base - sum(map(abs, comp[:-1])) > (
        math.factorial(degree) * q_max
    )
    open_ = {k: i for i, k in enumerate(offsets)}  # open offset -> position
    span = max(offsets, default=0) + 1
    for q, roots in primes_with_roots:
        if not open_:
            break
        if q <= degree:
            continue
        good = [r for r in roots if companion_eval_mod(comp, r, q) == 0]
        if not good:
            continue
        s = base % q
        if len(open_) * q <= len(good) * span:
            hits = [k for k in open_ if (s + k) % q in good]
        else:
            hits = [k for r in good for k in range((r - s) % q, span, q) if k in open_]
        for k in hits:
            i = open_.pop(k)
            if size_ok or abs(f.eval(base + k)) > q:
                out[i] = q
    return out


# The stored x the verifier always accepts: a root table that size takes
# milliseconds, and it spares small pathological polynomials the cap below.
X_BOUND_FLOOR = 2**16


def stored_x_bound(degree: int, n_target: int | None, n_listed: int) -> int:
    """The largest stored x a certificate can support, refused beyond this
    before any root table is built; never below X_BOUND_FLOOR.

    A construction lists every usable prime q <= x (those with a root of f
    mod q), and a placed one has P(x)^3 <= N for their product P(x), so
    theta_u(x) = ln P(x) <= ln N / 3. By Chebotarev's theorem the usable
    primes of an irreducible f of degree d carry theta_u(x) ~ c x with
    c >= 1/d (a transitive group of degree d fixes a point in at least 1/d
    of its elements). The cap allows theta_u(x) down to x / (12 d):
    x <= 4 d ln N, with ln N taken as bit_length * ln 2. A placement-free
    certificate has no N; its n_listed primes are all the usable ones, about
    x / (d ln x) for density 1/d, so it is held to x <= 4 u ln(u + 2) with
    u = d * (n_listed + 1). Measured on ten polynomials of degree 1 to 10
    (among them x^3 - 3x + 1, whose usable primes have density 1/3, and
    x^2 + x + 41, with no usable prime below 41) at every x from 2^16 to
    2 * 10^5, with the least N a construction takes: x / (d ln N) stays
    below 0.35 and x / (u ln(u + 2)) below 1.2, against the cap's 4. Below
    the floor x^2 + x + 41 reaches 1.9 and 5.9 (at x = 42).
    """
    if n_target is not None:
        cap = 4 * degree * max(n_target, 1).bit_length() * math.log(2)
    else:
        u = degree * (n_listed + 1)
        cap = 4 * u * math.log(u + 2)
    return max(X_BOUND_FLOOR, int(cap))


def _structural_failures(cert: ResidueCertificate) -> list[str]:
    msgs: list[str] = []
    if cert.version != 1:
        msgs.append(f"unsupported certificate version {cert.version}")
    allowed_stages = {"small", "medium", "cleanup"}
    allowed_sides = {"fwd", "bwd", "both"}
    for st in cert.stages:
        if st.stage not in allowed_stages:
            msgs.append(f"unknown stage tag {st.stage!r}")
        if st.side not in allowed_sides:
            msgs.append(f"unknown side tag {st.side!r}")
    return msgs


def verify_certificate(
    cert: ResidueCertificate,
    deep: bool = False,
    sample_rate: float = 0.01,
    seed: int = 0,
) -> VerifyReport:
    """Check a certificate from its serialized content alone.

    Placed certificates: every n in I1 and I2 (deep mode), or in each
    window its two ends, its center (offset y//2 - 1 in I1, y - y//2 in I2,
    where it lies in the window) and the offsets of one seeded sample of
    max(1, int(sample_rate * 2y)) draws (fast mode), must have a witness
    among the certificate primes whose residues are consistent with b1. A
    placement-free certificate is checked at offset level instead: the
    forward window [1, y] must be fully covered by the residue classes.
    Neither check runs when y lies outside [1, formula y], and neither mode
    walks a stored window whose length is not y; both faults are reported.
    The stored centers n1, n2 are checked against b2 and N, not walked.
    An x beyond what the certificate can support (stored_x_bound) or the
    root table refuses (2^31 or more) is reported before anything is sized
    by it, and a listed modulus below 2 is reported and takes no further
    part.
    Invalid certificates produce a negative report, not an exception; a
    sample_rate that is not a finite rate in (0, 1] raises ValueError
    before anything is checked.
    """
    if not 0 < sample_rate <= 1:  # also false for nan
        raise ValueError(f"sample_rate {sample_rate} is not a rate in (0, 1]")
    mode = "deep" if deep else "fast"
    report = VerifyReport(valid=True, mode=mode, checked=0)
    report.messages.extend(_structural_failures(cert))

    f = cert.poly
    degree = f.degree
    comp = f.companion()
    x = cert.params.x
    y = cert.params.y
    # construction never exceeds the formula length, and the witness loop
    # and the offset sieve allocate by y, so they only run for y in range
    y_formula = cert.params.y_formula
    y_bounded = 1 <= y <= y_formula
    if not y_bounded:
        report.messages.append(f"window length {y} outside [1, formula length {y_formula}]")
    pl = cert.placement
    x_max = stored_x_bound(
        degree, None if pl is None else pl.N, sum(len(st.assignments) for st in cert.stages)
    )
    # an x the root table cannot hold at all is refused by build_root_table
    if ROW_PRIME_BOUND > x > x_max:
        report.messages.append(
            f"x = {x} exceeds {x_max}, the most this certificate's"
            f" {'N' if pl else 'listed primes'} can support"
        )
        report.valid = False
        return report
    try:
        # refuses an x at or above its bound before it sizes anything by x
        table = build_root_table(f, x)
    except ValueError as e:
        report.messages.append(str(e))
        report.valid = False
        return report

    try:
        residues = cert.residues()
    except ValueError as e:
        report.messages.append(str(e))
        report.valid = False
        return report
    for q in [q for q in residues if q < 2]:
        # no residue class modulo q < 2 can vouch for anything
        report.messages.append(f"modulus {q} is not a prime")
        del residues[q]
    for q, r in residues.items():
        if not (0 <= r < q):
            report.messages.append(f"residue {r} out of range for prime {q}")
        if q > x or not table.roots.get(q):
            report.messages.append(f"prime {q} is not a usable sieve prime below x")
    verdict = irreducibility_check(
        f, assert_irreducible=cert.irreducibility == "asserted-by-user"
    )
    if verdict == "fail":
        report.messages.append("polynomial fails the irreducibility check")
    if cert.irreducibility not in ("proved", "heuristic-pass", "asserted-by-user"):
        report.messages.append(f"bad irreducibility verdict {cert.irreducibility!r}")

    if cert.placement is None:
        # offset-level check: the residue classes must blanket [1, y]
        if y_bounded:
            try:
                leftover = sieve_survivors(table, residues, (1, y), (0, x))
            except MissingResidueError as e:
                report.messages.append(f"usable prime {e.args[0]} has no residue")
            else:
                report.checked = y
                report.failures = [int(v) for v in leftover.survivors()]
        report.valid = not report.failures and not report.messages
        return report

    n_target, b1, b2 = pl.N, pl.b1, pl.b2
    modulus = math.prod(residues.keys())
    if modulus**3 > n_target:
        report.messages.append("modulus exceeds N^(1/3)")
    if not (-((3 * n_target) // 10) <= b1 <= -((n_target + 4) // 5)):
        report.messages.append("b1 outside [-0.3N, -0.2N]")
    if pl.I1 != (b2 + 1, b2 + y) or pl.I2 != (n_target - b2 - y, n_target - b2 - 1):
        report.messages.append("window bounds disagree with b2 and y")
    if pl.n1 != b2 + y // 2 or pl.n2 != n_target - pl.n1:
        report.messages.append("centers do not split N")
    if pl.m != y // 2 - 1:
        report.messages.append("center radius m is not floor(y/2) - 1")

    # a prime vouches for nothing unless b1 actually satisfies its congruence;
    # foreign primes get an empty root set and can never produce a witness
    consistent: list[tuple[int, tuple[int, ...]]] = []
    for q in sorted(residues):
        if (b1 - residues[q]) % q == 0:
            consistent.append((q, table.roots.get(q, ())))
        else:
            report.messages.append(f"b1 does not satisfy the residue for prime {q}")

    # each group is (base, offsets): a stored window of length y from its
    # start, walked whole (deep) or at its ends, its center and a seeded
    # sample shared by both windows (fast). A window of the wrong length,
    # reported above, is not walked, so its bounds cannot size the work.
    groups = []
    if y_bounded and not deep:
        rng = stage_rng(seed, VERIFY_SAMPLE_STREAM)
        sample = {0, y - 1, *map(int, rng.integers(0, y, size=max(1, int(sample_rate * 2 * y))))}
    for (lo, hi), center in ((pl.I1, y // 2 - 1), (pl.I2, y - y // 2)):
        if y_bounded and hi - lo + 1 == y:
            in_window = {center} if 0 <= center < y else set()
            groups.append((lo, range(y) if deep else sorted(sample | in_window)))

    for base, offsets in groups:
        for k, q in zip(offsets, find_witness(base, offsets, consistent, comp, f, degree)):
            report.checked += 1
            if q is None:
                report.failures.append(base + k)
            else:
                report.witness_primes[q] += 1
    report.failures.sort()
    report.valid = not report.failures and not report.messages
    return report


@dataclass(frozen=True)
class RunRecord:
    """First maximal run of consecutive n with f(n) not prime."""

    start: int
    length: int
    n_scanned: int


# the most n the oracle scans: its value table holds one int64 per n
ORACLE_N_MAX = 10**7


def oracle_longest_run(f: IntPolynomial, n_max: int) -> RunRecord:
    """Exact longest run of n in [1, n_max] where f(n) is composite or
    |f(n)| <= 1, for 1 <= n_max <= ORACLE_N_MAX (else ValueError before any
    scan). Values are tested with a value sieve when they fit a reasonable
    table, deterministic Miller-Rabin otherwise (probabilistic only beyond
    64-bit scale). Ties go to the earliest run."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if n_max > ORACLE_N_MAX:
        raise ValueError(f"n_max must not exceed {ORACLE_N_MAX}")
    comp = f.companion()
    prime_flags = None
    # a value sieve when every |B! f(n)| fits int64 (so does each Horner
    # step) and the largest |f(n)| is at most 3 * 10^8
    if sum(abs(c) for c in comp) * n_max**f.degree < np.iinfo(np.int64).max:
        xs = np.arange(n_max + 1, dtype=np.int64)
        acc = np.zeros(n_max + 1, dtype=np.int64)
        for c in reversed(comp):
            acc = acc * xs + c
        values = np.abs(acc // math.factorial(f.degree))
        bound = int(values.max())
        if bound <= 3 * 10**8:
            sieve = np.ones(bound + 1, dtype=bool)
            sieve[:2] = False
            for p in sieve_primes(math.isqrt(bound)):
                sieve[p * p :: p] = False
            prime_flags = sieve[values]

    best_start, best_len = 1, 0
    cur_start, cur_len = 1, 0
    for n in range(1, n_max + 1):
        if prime_flags is not None:
            composite = not bool(prime_flags[n])
        else:
            v = abs(f.eval(n))
            composite = v <= 1 or not is_prime(v)
        if composite:
            if cur_len == 0:
                cur_start = n
            cur_len += 1
            if cur_len > best_len:
                best_start, best_len = cur_start, cur_len
        else:
            cur_len = 0
    return RunRecord(start=best_start, length=best_len, n_scanned=n_max)


class CoveringConfigError(ValueError):
    """The requested family cannot satisfy the covering hypotheses."""


@dataclass(frozen=True)
class CoveringSimConfig:
    """Synthetic covering instance: s rounds of k-element draws from a
    ground set of given size, greedy keeping the best of `candidates`
    proposals per round."""

    ground_size: int = 10_000
    c1: float = 10.0
    eta: float = 0.02
    k0: float = 8.0
    candidates: int = 8
    trials: int = 100
    c0_gate: float = 10.0

    @property
    def k(self) -> int:
        logy = math.log(self.ground_size)
        return int(self.k0 * math.sqrt(logy) / math.log(logy))

    @property
    def rounds(self) -> int:
        return round(self.c1 * self.ground_size / self.k)

    def validate(self) -> dict:
        """Check the four hypotheses for the actual generator (draws are
        uniform with replacement, so inclusion probabilities are exact)."""
        v = self.ground_size
        if v < 16:
            raise CoveringConfigError("ground set too small")
        if self.candidates < 1:
            raise CoveringConfigError("at least one candidate per round is needed")
        k = self.k
        if k < 1:
            raise CoveringConfigError("subset size collapsed to zero")
        logy = math.log(v)
        size_bound = self.k0 * math.sqrt(logy) / math.log(logy)
        s = self.rounds
        if s > v:
            raise CoveringConfigError(
                f"round count {s} exceeds the ground size {v}; lower c1 or raise k0"
            )
        p_in = 1.0 - (1.0 - 1.0 / v) ** k
        mass = s * p_in
        if abs(mass - self.c1) > self.eta:
            raise CoveringConfigError(
                f"per-element mass {mass:.4f} misses c1 = {self.c1} by more than eta"
            )
        p_pair = 1.0 - 2.0 * (1.0 - 1.0 / v) ** k + (1.0 - 2.0 / v) ** k
        pair_mass = s * p_pair
        pair_budget = v**-0.5
        if pair_mass > pair_budget:
            raise CoveringConfigError(
                f"pair mass {pair_mass:.5f} exceeds the sqrt budget {pair_budget:.5f}"
            )
        return {
            "k": k,
            "size_bound": size_bound,
            "rounds": s,
            "element_mass": mass,
            "pair_mass": pair_mass,
            "pair_budget": pair_budget,
        }


@dataclass
class CoveringSimReport:
    hypothesis: dict
    residuals: list[int]
    threshold: float
    passes: int
    c_hat: float


# rounds per block of covering-simulation draws, so memory stays at
# SIM_ROUND_BLOCK * candidates * k int64 whatever the ground size
SIM_ROUND_BLOCK = 1024


def covering_lemma_sim(config: CoveringSimConfig, seed: int = 0) -> CoveringSimReport:
    """Run the synthetic covering trials and report residual statistics.

    Residuals are compared against c0_gate * eta * ground_size; the summary
    statistic c_hat = max residual / (eta * ground_size) estimates the
    covering constant the bound hides.
    """
    hyp = config.validate()
    v, k, s = config.ground_size, config.k, config.rounds
    threshold = config.c0_gate * config.eta * v
    residuals: list[int] = []
    for t in range(config.trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 13, t])))
        uncovered = np.ones(v, dtype=bool)
        # the rounds are drawn SIM_ROUND_BLOCK at a time; consecutive draws
        # continue one stream, so the blocks equal one draw of all rounds
        for lo in range(0, s, SIM_ROUND_BLOCK):
            draws = rng.integers(0, v, size=(min(SIM_ROUND_BLOCK, s - lo), config.candidates, k))
            for cand in draws:
                gains = uncovered[cand].sum(axis=1)
                uncovered[cand[int(np.argmax(gains))]] = False
        residuals.append(int(uncovered.sum()))
    passes = sum(1 for r in residuals if r <= threshold)
    c_hat = max(residuals) / (config.eta * v) if residuals else 0.0
    return CoveringSimReport(
        hypothesis=hyp,
        residuals=residuals,
        threshold=threshold,
        passes=passes,
        c_hat=c_hat,
    )
