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
(with an exact per-value check only for small or hostile windows). The
stored y is bounded by the formula length before anything is sized by it.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .assemble import ResidueCertificate
from .modroots import build_root_table, companion_eval_mod
from .poly import IntPolynomial, irreducibility_check
from .primes import is_prime, sieve_primes
from .sievecore import sieve_survivors

VERIFY_SAMPLE_STREAM = 11


@dataclass(frozen=True)
class Witness:
    """q divides f(n) and 1 < q < |f(n)|, so f(n) is composite."""

    n: int
    q: int
    alpha: int


@dataclass
class VerifyReport:
    valid: bool
    mode: str
    checked: int
    failures: list[int] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)
    witnesses: list[Witness] = field(default_factory=list)
    # prime q -> number of checked values whose smallest witness is q
    witness_primes: Counter[int] = field(default_factory=Counter)

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "checked": self.checked,
            "failures": [str(n) for n in sorted(self.failures)],
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
) -> list[Witness | None]:
    """Witness for each n = base + k, k in offsets (distinct, all k >= 0):
    the smallest prime q > degree (primes ascending) with q | f(n) and
    |f(n)| > q, or None when no listed prime works.

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
    out: list[Witness | None] = [None] * len(offsets)
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
            n = base + k
            if size_ok or abs(f.eval(n)) > q:
                out[i] = Witness(n, q, (s + k) % q)
    return out


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

    Placed certificates: every n in I1 and I2 (deep mode) or a seeded 1%
    sample plus endpoints and centers (fast mode) must have a witness among
    the certificate primes whose residues are consistent with b1. A
    placement-free certificate is checked at offset level instead: the
    forward window [1, y] must be fully covered by the residue classes.
    Neither check runs when y lies outside [1, formula y], and deep mode
    skips a stored window whose length is not y; both faults are reported.
    Invalid certificates produce a negative report, not an exception.
    """
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
    y_formula = replace(cert.params, y_override=None).y
    y_bounded = 1 <= y <= y_formula
    if not y_bounded:
        report.messages.append(f"window length {y} outside [1, formula length {y_formula}]")
    table = build_root_table(f, x)

    try:
        residues = cert.residues()
    except ValueError as e:
        report.messages.append(str(e))
        report.valid = False
        return report
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
            leftover = sieve_survivors(table, residues, (1, y), (0, x))
            report.checked = y
            report.failures = [int(v) for v in leftover.survivors()]
        report.valid = not report.failures and not report.messages
        return report

    pl = cert.placement
    n_target, b1, b2 = pl.N, pl.b1, pl.b2
    modulus = math.prod(residues.keys())
    if modulus**3 > n_target:
        report.messages.append("modulus exceeds N^(1/3)")
    if not (-((3 * n_target) // 10) <= b1 <= -((n_target + 4) // 5)):
        report.messages.append("b1 outside [-0.3N, -0.2N]")
    if b2 != -b1:
        report.messages.append("b2 is not -b1")
    if pl.I1 != (b2 + 1, b2 + y) or pl.I2 != (n_target - b2 - y, n_target - b2 - 1):
        report.messages.append("window bounds disagree with b2 and y")
    if pl.n1 != b2 + y // 2 or pl.n2 != n_target - pl.n1 or pl.n1 + pl.n2 != n_target:
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

    # each group is (base, offsets): its values are base + k, in target order.
    # A stored window of the wrong length is already reported above; it is
    # not walked, so its bounds cannot size the work.
    windows = [(lo, hi) for lo, hi in (pl.I1, pl.I2) if hi - lo + 1 == y]
    if not y_bounded:
        groups = []
    elif deep:
        groups = [(lo, range(y)) for lo, _ in windows]
    else:
        i1_lo, i1_hi = pl.I1
        i2_lo, i2_hi = pl.I2
        targets = {i1_lo, i1_hi, i2_lo, i2_hi, pl.n1, pl.n2}
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, VERIFY_SAMPLE_STREAM])))
        n_sample = max(1, int(sample_rate * 2 * y))
        for off in rng.integers(0, y, size=n_sample):
            targets.add(i1_lo + int(off))
            targets.add(i2_lo + int(off))
        groups = _window_groups(sorted(targets), windows)

    for base, offsets in groups:
        for k, w in zip(offsets, find_witness(base, offsets, consistent, comp, f, degree)):
            report.checked += 1
            if w is None:
                report.failures.append(base + k)
                continue
            report.witness_primes[w.q] += 1
            if len(report.witnesses) < 32:
                report.witnesses.append(w)
    report.failures.sort()
    report.valid = not report.failures and not report.messages
    return report


def _window_groups(
    targets: list[int], windows: list[tuple[int, int]]
) -> list[tuple[int, list[int]]]:
    """Split sorted targets into runs lying in one window (base = the
    window start); a target in no window is a group of its own."""
    groups: list[tuple[int, list[int]]] = []
    prev = None
    for n in targets:
        win = next((w for w in windows if w[0] <= n <= w[1]), None)
        if win is not None and win is prev:
            groups[-1][1].append(n - win[0])
        else:
            base = n if win is None else win[0]
            groups.append((base, [n - base]))
        prev = win
    return groups


@dataclass(frozen=True)
class RunRecord:
    """First maximal run of consecutive n with f(n) not prime."""

    start: int
    length: int
    n_scanned: int


def oracle_longest_run(f: IntPolynomial, n_max: int) -> RunRecord:
    """Exact longest run of n in [1, n_max] where f(n) is composite or
    |f(n)| <= 1. Values are tested with a value sieve when they fit a
    reasonable table, deterministic Miller-Rabin otherwise (probabilistic
    only beyond 64-bit scale). Ties go to the earliest run."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    values = None
    bound = 0
    comp = f.companion()
    fact = math.factorial(f.degree)
    if n_max <= 10**7:
        try:
            xs = np.arange(n_max + 1, dtype=np.int64)
            acc = np.zeros(n_max + 1, dtype=np.int64)
            limit = np.iinfo(np.int64).max
            coeff_bound = sum(abs(c) for c in comp)
            if coeff_bound * (max(n_max, 1) ** f.degree) >= limit:
                raise OverflowError
            for c in reversed(comp):
                acc = acc * xs + c
            vals = np.abs(acc // fact)
            bound = int(vals.max())
            if bound <= 3 * 10**8:
                values = vals
        except OverflowError:
            values = None
    if values is not None:
        sieve = np.ones(bound + 1, dtype=bool)
        sieve[:2] = False
        for p in sieve_primes(math.isqrt(bound)):
            sieve[p * p :: p] = False
        prime_flags = sieve[values]
    else:
        prime_flags = None

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
    config: CoveringSimConfig
    hypothesis: dict
    residuals: list[int]
    threshold: float
    passes: int
    c_hat: float


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
        draws = rng.integers(0, v, size=(s, config.candidates, k))
        for i in range(s):
            cand = draws[i]
            gains = uncovered[cand].sum(axis=1)
            uncovered[cand[int(np.argmax(gains))]] = False
        residuals.append(int(uncovered.sum()))
    passes = sum(1 for r in residuals if r <= threshold)
    c_hat = max(residuals) / (config.eta * v) if residuals else 0.0
    return CoveringSimReport(
        config=config,
        hypothesis=hyp,
        residuals=residuals,
        threshold=threshold,
        passes=passes,
        c_hat=c_hat,
    )
