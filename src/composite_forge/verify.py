"""Certificate verification, the composite-run oracle, and the covering
simulation harness.

The verifier trusts nothing from construction: it reloads the polynomial,
recomputes root sets, and checks every claim by direct modular arithmetic.
Compositeness inside the windows is always certified by a divisor witness
(q | f(n) with 1 < q < |f(n)|), never by primality testing; primality
testing appears only in the small-scale oracle.

Both windows are the ones N, b1 and y give: I1 from 1 - b1, I2 from
N + b1 - y. The listed moduli are held ascending, and one lookup in the
root table (RootTable.lookup) gives each its root count and roots. b1 is
reduced by every listed modulus and N by each prime that vouches: b1 lies
in its class, it exceeds the degree, and the companion, evaluated by one
row Horner over every candidate root, confirms a root. That gives each
window start mod q. Both reductions walk down one primes.ProductTree over
the listed moduli up to the root table's limit, whose root also gives the
N^(1/3) check its product; a modulus beyond the limit (no prime of the
table, so it vouches for nothing) takes one b1 % q and is never multiplied
into anything. Certificate
integers and reported failures go to and from decimal through
assemble.int_to_decimal and decimal_to_int: sub-quadratic above 640
digits, and never reading or setting the interpreter's int-string digit
limit. The witness search is one least-prime-factor sieve per window on
int64 rows (q, root, s), one per root (find_witness), struck by
sievecore.smallest_hit, the kernel construction's survivor sieve uses
too, so each offset keeps its smallest witnessing prime. Every offset of
both windows is checked, as the theorem claims f(n) composite for every
n in I1 and I2; failures and witness counts are read off the result with
numpy. |f(n)| > q is proved once per window. A certificate stores no
bounds or centers: they follow from N, b1 and y. The stored y is bounded
by the formula length, and the stored x by what the certificate's N can
support (stored_x_bound) and by the root table's bound, before anything is
sized by them. A certificate without a placement does not load
(ResidueCertificate.from_json_dict), so every certificate checked here has
both windows.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .assemble import CERT_VERSION, ResidueCertificate, b1_range, int_to_decimal
from .modroots import ROW_PRIME_BOUND, build_root_table, companion_eval_mod
from .poly import IntPolynomial, irreducibility_check
from .primes import ProductTree, is_prime, sieve_primes
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
    > deg f, below 2^31 (ROW_PRIME_BOUND, as for every root table prime),
    in ascending order; root a root of the companion B!*f mod q, checked
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


# The stored x the verifier always accepts: a root table that size takes
# milliseconds, and it spares small pathological polynomials the cap below.
X_BOUND_FLOOR = 2**16


def stored_x_bound(degree: int, n_target: int) -> int:
    """The largest stored x a certificate with target N can support, refused
    beyond this before any root table is built; never below X_BOUND_FLOOR.

    A construction lists every usable prime q <= x (those with a root of f
    mod q), and has P(x)^3 <= N for their product P(x), so
    theta_u(x) = ln P(x) <= ln N / 3. By Chebotarev's theorem the usable
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


def _structural_failures(cert: ResidueCertificate) -> list[str]:
    msgs: list[str] = []
    if cert.version != CERT_VERSION:
        msgs.append(f"unsupported certificate version {cert.version}")
    allowed_stages = {"small", "medium", "cleanup"}
    allowed_sides = {"fwd", "bwd", "both"}
    for st in cert.stages:
        if st.stage not in allowed_stages:
            msgs.append(f"unknown stage tag {st.stage!r}")
        if st.side not in allowed_sides:
            msgs.append(f"unknown side tag {st.side!r}")
    return msgs


def verify_certificate(cert: ResidueCertificate, deep: bool = True, seed: int = 0) -> VerifyReport:
    """Check a certificate from its serialized content alone.

    Every n in I1 = [1 - b1, y - b1] and I2 = [N + b1 - y, N + b1 - 1]
    (Placement.I1 and I2; b1 in b1_range) must have a witness among the
    certificate primes whose residues are consistent with b1; b1 and N are
    reduced down one product tree over the listed moduli up to the root
    table's limit (primes.ProductTree), and b1 by each modulus beyond it on
    its own. A certificate stores N and b1 only, so there are no stored
    bounds or centers to compare: the centers n1 = floor(y/2) - b1 and
    n2 = N - n1 split N by their definition. No window is checked when y
    lies outside [1, formula y], which is reported. Moduli whose bit lengths put
    their product's cube above N are reported without forming it;
    otherwise the tree's root is cubed, and no modulus beyond the limit
    enters a product. An x beyond what the certificate can support
    (stored_x_bound) or the root table refuses (2^31 or more) is reported
    before anything is sized by it, and a listed modulus below 2 is
    reported and takes no further part.
    Invalid certificates produce a negative report, not an exception.

    deep and seed are accepted and ignored: every call checks every
    offset. They remain because tests/test_acceptance.py passes deep=True
    and bench/harness.py passes seed= and deep=True.
    """
    report = VerifyReport(valid=True, checked=0)
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
    x_max = stored_x_bound(degree, pl.N)
    # an x the root table cannot hold at all is refused by build_root_table
    if ROW_PRIME_BOUND > x > x_max:
        report.messages.append(f"x = {x} exceeds {x_max}, the most this certificate's N can support")
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
    # the listed moduli ascending, and those within the table's limit, a
    # prefix: one lookup gives each of these its root count, 0 unless it is
    # a usable prime, and their roots
    listed = sorted(residues)
    beyond = bisect.bisect_right(listed, table.limit)
    inner = np.array(listed[:beyond], dtype=np.int64)
    count, table_roots = table.lookup(inner)
    usable = set(inner[count > 0].tolist())
    for q, r in residues.items():
        if not (0 <= r < q):
            report.messages.append(f"residue {r} out of range for prime {q}")
        if q not in usable:
            report.messages.append(f"prime {q} is not a usable sieve prime below x")
    verdict = irreducibility_check(
        f, assert_irreducible=cert.irreducibility == "asserted-by-user"
    )
    if verdict == "fail":
        report.messages.append("polynomial fails the irreducibility check")
    if cert.irreducibility not in ("proved", "heuristic-pass", "asserted-by-user"):
        report.messages.append(f"bad irreducibility verdict {cert.irreducibility!r}")

    n_target, b1 = pl.N, pl.b1
    # q >= 2^(q.bit_length() - 1), so enough bits decide it before any
    # product is formed
    bits = 3 * (sum(map(int.bit_length, listed)) - len(listed))
    exceeds = bits >= n_target.bit_length()
    # one product tree over the listed moduli the table reaches; a modulus
    # beyond it is reduced on its own and never multiplied into anything
    tree = ProductTree(listed[:beyond])
    if not exceeds:
        # M^3 > N exactly when N // M^3 <= 0, and N // M^3 is N // root^3
        # floor-divided by each q^3 beyond the table in turn
        quotient = n_target // tree.root**3
        for q in listed[beyond:]:
            quotient //= q**3
        exceeds = quotient <= 0
    if exceeds:
        report.messages.append("modulus exceeds N^(1/3)")
    lo, hi = b1_range(n_target)
    if not lo <= b1 <= hi:
        report.messages.append("b1 outside [-0.3N, -0.2N]")
    starts = (pl.I1[0], pl.I2[0])

    # a prime vouches for nothing unless b1 satisfies its congruence, it
    # exceeds the degree and it has companion roots (a foreign prime has
    # none); b1 is reduced by every listed modulus, down the tree up to the
    # table's limit
    b1_mod = tree.remainders(b1) + [b1 % q for q in listed[beyond:]]
    consistent = np.array(
        [(b1_q - residues[q]) % q == 0 for q, b1_q in zip(listed, b1_mod)], dtype=bool
    )
    for i in np.flatnonzero(~consistent).tolist():
        report.messages.append(f"b1 does not satisfy the residue for prime {listed[i]}")
    # one entry per table root of each listed prime, ascending in q, and
    # row, its prime's place in listed; the roots of the candidates are
    # re-checked against the companion in one row Horner
    row = np.repeat(np.arange(beyond), count)
    q, roots = inner[row], table_roots.astype(np.int64)
    keep = consistent[row] & (q > degree) & (companion_eval_mod(comp, roots, q) == 0)
    q, roots, row = q[keep], roots[keep], row[keep]

    # each window is sieved and read whole
    if y_bounded:
        # b1 and N (down the same tree) mod each row's prime
        b1_q = np.array(b1_mod[:beyond], dtype=np.int64)[row]
        n_q = np.array(tree.remainders(n_target), dtype=np.int64)[row]
        # one row set per window, each with the window start mod q
        window_starts = ((1 - b1_q) % q, (n_q + b1_q - y) % q)
        for base, s in zip(starts, window_starts):
            got = find_witness(base, y, (q, roots, s), f)
            report.checked += y
            report.failures.extend(base + k for k in np.flatnonzero(got == 0).tolist())
            # witness counts indexed by the witness, so at most x + 1 of them
            tally = np.bincount(got[got > 0])
            hit = np.flatnonzero(tally)
            report.witness_primes.update(dict(zip(hit.tolist(), tally[hit].tolist())))
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
