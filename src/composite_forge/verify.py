"""Certificate verification, the composite-run oracle, and the covering
simulation harness.

The verifier trusts nothing from construction: it reloads the polynomial,
recomputes root sets, and checks every claim by direct modular arithmetic.
Compositeness inside the windows is always certified by a divisor witness
(q | f(n) with 1 < q < |f(n)|), never by primality testing; primality
testing appears only in the small-scale oracle.

Both windows are the ones N, b1 and y give: I1 from 1 - b1, I2 from
N + b1 - y, and both must lie in [1, N]. A certificate (version 3) lists no
primes or residues: b1 mod q is the residue of every prime q. The verifier
builds its own root table over every prime up to x, with no cache
(modroots.build_root_table), re-checks each root of each usable prime
against the companion, evaluated by one row Horner over every root, and
reduces b1 and N down the table's product tree over the usable primes
(RootTable.usable_tree, a primes.ProductTree). That gives each window start
mod q. Certificate integers and reported failures go to and from decimal
through assemble.int_to_decimal and decimal_to_int: sub-quadratic above
640 digits, and never reading or setting the interpreter's int-string
digit limit. The witness search is one least-prime-factor sieve per window
on int64 rows (q, root, s), one per root (find_witness), struck by
sievecore.smallest_hit, the kernel construction's survivor sieve uses
too, so each offset keeps its smallest witnessing prime. Every offset of
both windows is checked, as the theorem claims f(n) composite for every
n in I1 and I2; failures are read off each window's result with numpy,
and the witness counts off one bincount over both (witness_counts).
|f(n)| > q is proved once per window. A certificate stores no
bounds or centers: they follow from N, b1 and y. A stored x or y out of
range (x below 8 or at or above the root kernel's bound 2^31, y outside
[1, floor(x sqrt(ln x))], the formula y) does not load
(cover.SieveParams), and neither does a certificate without a placement
(ResidueCertificate.from_json_dict), so every certificate checked here
has both windows, of a length in range. Parameters older files store
besides x and y are ignored.
The stored x is further bounded by what the certificate's N can support
(stored_x_bound), which is a claim and so gets a negative report, before
anything is sized by x.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .assemble import CERT_VERSION, ResidueCertificate, b1_range, int_to_decimal
from .modroots import build_root_table, companion_eval_mod
from .poly import IntPolynomial, irreducibility_check
from .primes import is_prime, sieve_primes
from .sievecore import sieve_survivors  # noqa: F401  (bench/harness.py traces verify.sieve_survivors)
from .sievecore import smallest_hit


@dataclass
class VerifyReport:
    valid: bool
    checked: int
    failures: list[int] = field(default_factory=list)
    messages: list[str] = field(default_factory=list)
    # prime q -> number of checked values whose smallest witness is q
    witness_primes: Counter[int] = field(default_factory=Counter)

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "checked": self.checked,
            "failures": [int_to_decimal(n) for n in sorted(self.failures)],
            # a constant, as every report checks every offset; the key
            # stays so that report bytes (VERIFY_GOLDEN) do not move
            "mode": "deep",
            "messages": list(self.messages),
            "witness_primes": {str(q): c for q, c in sorted(self.witness_primes.items())},
        }


def find_witness(
    base: int,
    length: int,
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
    f: IntPolynomial,
) -> np.ndarray:
    """Witnessing prime for each n = base + k, k in [0, length), as an int32
    array: the smallest q of rows with q | f(n) and |f(n)| > q, so that
    f(n) is composite, or 0 when no row works.

    rows is three int64 arrays (q, root, s), one entry per root: q a prime
    > deg f, below 2^31 (ROW_PRIME_BOUND, the root kernel's bound), in
    ascending order; root a root of the companion B!*f mod q, checked
    by the caller; s = base mod q. An offset k is a hit of the row when
    (s + k) mod q is its root, which is every k = (root - s) mod q + j q,
    and sievecore.smallest_hit gives each offset its smallest hit. The
    size condition is proved once for the whole group when the companion
    g = sum c_i n^i gives c_d*base - sum_{i<d} |c_i| > B!*q_max with
    base >= 1, since then
    |g(n)| >= n^(d-1) (c_d n - sum |c_i|) > B!*q_max for every n >= base;
    otherwise |f(n)| > q is checked exactly on each hit. A hit failing it
    has no witness at all, as every larger prime is larger still.
    """
    q, root, s = rows
    comp = f.companion()
    size_ok = base >= 1 and comp[-1] * base - sum(map(abs, comp[:-1])) > (
        math.factorial(f.degree) * int(q.max(initial=0))
    )
    got = smallest_hit(q, (root - s) % q, length)
    if not size_ok:
        for k in np.flatnonzero(got).tolist():
            if abs(f.eval(base + k)) <= int(got[k]):
                got[k] = 0
    return got


def witness_counts(witnesses: list[np.ndarray]) -> Counter[int]:
    """How many checked values have each prime as their smallest witness,
    from the nonzero witnesses of both windows: one bincount over all of
    them, indexed by the witness, so at most x + 1 counts."""
    tally = np.bincount(np.concatenate(witnesses))
    hit = np.flatnonzero(tally)
    return Counter(dict(zip(hit.tolist(), tally[hit].tolist())))


# The stored x the verifier always accepts: the primes and roots that size
# take milliseconds, and it spares small pathological polynomials the cap
# below.
X_BOUND_FLOOR = 2**16


def stored_x_bound(degree: int, n_target: int) -> int:
    """The largest stored x a certificate with target N can support, refused
    beyond this before anything is sized by x; never below X_BOUND_FLOOR.

    Construction picks N with P(x)^3 <= N, P(x) the product of the usable
    primes q <= x (those with a root of f mod q): that cube rule is
    construction's (assemble.auto_target and the explicit-N refusal), and
    the verifier does not check it. So theta_u(x) = ln P(x) <= ln N / 3 for
    every certificate construction writes, and the cap is a work bound on
    those. By Chebotarev's theorem the usable
    primes of an irreducible f of degree d carry theta_u(x) ~ c x with
    c >= 1/d (a transitive group of degree d fixes a point in at least 1/d
    of its elements). The cap allows theta_u(x) down to x / (12 d):
    x <= 4 d ln N, with ln N taken as bit_length * ln 2. Measured on ten
    polynomials of degree 1 to 10 (among them x^3 - 3x + 1, whose usable
    primes have density 1/3, and x^2 + x + 41, with no usable prime below
    41) at every x from 2^16 to 2 * 10^5, with the least N a construction
    takes: x / (d ln N) stays below 0.35, against the cap's 4. Below the
    floor x^2 + x + 41 reaches 1.9 (at x = 42).
    """
    cap = 4 * degree * max(n_target, 1).bit_length() * math.log(2)
    return max(X_BOUND_FLOOR, int(cap))


def verify_certificate(cert: ResidueCertificate, deep: bool = True, seed: int = 0) -> VerifyReport:
    """Check a certificate from its serialized content alone.

    Every n in I1 = [1 - b1, y - b1] and I2 = [N + b1 - y, N + b1 - 1]
    (Placement.I1 and I2; b1 in b1_range, both windows inside [1, N]) must
    have a witness among the usable primes up to x: b1 and N are reduced
    down the product tree over them (RootTable.usable_tree) of a root table
    built here with no cache (build_root_table), and each root is checked
    again against the companion. A certificate stores N and b1 only, so
    there are no stored bounds, centers or residues to compare: the
    centers n1 = floor(y/2) - b1 and n2 = N - n1 split N by their
    definition, and b1 mod q is the residue of every prime q.

    A stored x or y out of range never gets here: the certificate does not
    load (cover.SieveParams). What is refused, in order: the version first;
    then an x beyond what the certificate's N can support (stored_x_bound),
    before anything is sized by x, which ends the check; then the
    irreducibility verdict, b1 outside its range and a window outside
    [1, N], each checked before the root table is built and reported
    alongside the values that have no witness. Invalid certificates
    produce a negative report, not an exception.

    deep and seed are accepted and ignored: every call checks every
    offset. They remain because tests/test_acceptance.py passes deep=True
    and bench/harness.py passes seed= and deep=True.
    """
    report = VerifyReport(valid=True, checked=0)
    if cert.version != CERT_VERSION:
        report.messages.append(f"unsupported certificate version {cert.version}")

    f = cert.poly
    degree = f.degree
    # SieveParams holds x below 2^31 and y within [1, formula y]
    x = cert.params.x
    y = cert.params.y
    pl = cert.placement
    n_target, b1 = pl.N, pl.b1
    x_max = stored_x_bound(degree, n_target)
    if x > x_max:
        report.messages.append(f"x = {x} exceeds {x_max}, the most this certificate's N can support")
        report.valid = False
        return report
    verdict = irreducibility_check(
        f, assert_irreducible=cert.irreducibility == "asserted-by-user"
    )
    if verdict == "fail":
        report.messages.append("polynomial fails the irreducibility check")
    if cert.irreducibility not in ("proved", "heuristic-pass", "asserted-by-user"):
        report.messages.append(f"bad irreducibility verdict {cert.irreducibility!r}")
    lo, hi = b1_range(n_target)
    if not lo <= b1 <= hi:
        report.messages.append("b1 outside [-0.3N, -0.2N]")
    # I1 starts at 1 - b1 and I2 ends at N + b1 - 1, so both lie in [1, N]
    # exactly when b1 <= 0 and I2 starts at 1 or above
    if not (b1 <= 0 and y <= n_target + b1 - 1):
        report.messages.append("window I1 or I2 outside [1, N]")

    table = build_root_table(f, x)
    tree = table.usable_tree
    usable, count, roots = table.rows(0, x)
    # one entry per root of each usable prime, ascending in q, and row, its
    # prime's place in usable; each root is re-checked against the
    # companion, all in one row Horner
    row = np.repeat(np.arange(len(usable)), count)
    q, roots = usable[row], roots.astype(np.int64)
    keep = (q > degree) & (companion_eval_mod(f.companion(), roots, q) == 0)
    q, roots, row = q[keep], roots[keep], row[keep]

    # b1 and N mod each row's prime, both down the one tree
    b1_q = np.array(tree.remainders(b1), dtype=np.int64)[row]
    n_q = np.array(tree.remainders(n_target), dtype=np.int64)[row]
    # one row set per window, each with the window start mod q; each window
    # is sieved and read whole
    window_starts = ((1 - b1_q) % q, (n_q + b1_q - y) % q)
    witnesses = []
    for base, s in zip((pl.I1[0], pl.I2[0]), window_starts):
        got = find_witness(base, y, (q, roots, s), f)
        report.checked += y
        report.failures.extend(base + k for k in np.flatnonzero(got == 0).tolist())
        witnesses.append(got[got > 0])
    report.witness_primes = witness_counts(witnesses)
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

    @property
    def k(self) -> int:
        logy = math.log(self.ground_size)
        return int(self.k0 * math.sqrt(logy) / math.log(logy))

    @property
    def rounds(self) -> int:
        return round(self.c1 * self.ground_size / self.k)

    def validate(self) -> dict:
        """Check the four hypotheses for the actual generator (draws are
        uniform with replacement, so inclusion probabilities are exact),
        after the parameters themselves: c1, eta and k0 finite and positive,
        trials not negative, and neither the ground set nor one block of
        draws beyond SIM_ELEMENTS_MAX elements."""
        for name in ("c1", "eta", "k0"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # also false for nan
                raise CoveringConfigError(f"{name} must be finite and positive, not {value}")
        if self.trials < 0:
            raise CoveringConfigError(f"trial count {self.trials} is negative")
        v = self.ground_size
        if v < 16:
            raise CoveringConfigError("ground set too small")
        if v > SIM_ELEMENTS_MAX:
            raise CoveringConfigError(f"ground size {v} exceeds {SIM_ELEMENTS_MAX}")
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
        block = min(SIM_ROUND_BLOCK, s) * self.candidates * k
        if block > SIM_ELEMENTS_MAX:
            raise CoveringConfigError(
                f"a block of {block} draws exceeds {SIM_ELEMENTS_MAX}; lower candidates"
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
# the most elements the simulation holds in one array, checked by
# CoveringSimConfig.validate: the ground set (one bool each) or one block
# of draws (one int64 each)
SIM_ELEMENTS_MAX = 10**7
# the covering constant c0 of the residual gate c0 * eta * ground_size
SIM_C0_GATE = 10.0


def covering_lemma_sim(config: CoveringSimConfig, seed: int = 0) -> CoveringSimReport:
    """Run the synthetic covering trials and report residual statistics.

    Residuals are compared against SIM_C0_GATE * eta * ground_size; the
    summary statistic c_hat = max residual / (eta * ground_size) estimates
    the covering constant the bound hides.
    """
    hyp = config.validate()
    v, k, s = config.ground_size, config.k, config.rounds
    threshold = SIM_C0_GATE * config.eta * v
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
