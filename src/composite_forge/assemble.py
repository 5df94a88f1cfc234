"""Certificate assembly: cleanup pairing, CRT combination, placement, and
the end-to-end construction pipeline.

A finished certificate fixes residues r_q for every usable prime
q <= x, determining b mod P(x) by the Chinese remainder theorem. Placement
picks the representative b1 of b in [-0.3N, -0.2N]; with b2 = -b1 the
windows I1 = [b2+1, b2+y] and I2 = [N-b2-y, N-b2-1] contain only integers n
where some certificate prime divides the polynomial value, so every value
is composite, and the centers satisfy n1 + n2 = N.

A certificate (version 2) stores what cannot be derived: the polynomial,
the parameters, the seed, the stages with their [q, r] pairs, N and b1 as
decimal strings, the verdict and the version. The windows, centers and
radius follow from N, b1 and y (Placement). It is written as one line of
JSON by one json.dumps call and read by one json.loads.
"""

from __future__ import annotations

import decimal
import json
import math
from collections import Counter
from dataclasses import astuple, dataclass, field, fields
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .cover import (
    CoverState,
    RetryBudgetError,
    SieveParams,
    backward_residues,
    json_int,
    sample_small_residue,
    select_shifts_greedy,
    target_residues,
)
from .modroots import RootTable, build_root_table
from .poly import IntPolynomial, decimal_text, irreducibility_check
from .primes import ProductTree, divmod_newton
from .sievecore import sieve_survivors

CERT_VERSION = 2

# fixed stream labels so adding a stage never reshuffles another stage's draws
STREAM_SMALL = 1


def stage_rng(seed: int, label: int, *extra: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, label, *extra])))


class ConstructionError(RuntimeError):
    """Construction cannot proceed; diagnostics say why."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def crt_combine(
    assignments: Mapping[int, int], tree: ProductTree | None = None
) -> tuple[int, int]:
    """Combine per-prime residues q -> r into (b, modulus) with
    0 <= b < modulus, up the product tree of the primes (ProductTree.crt);
    the primes must be distinct (a map's keys are). tree, when given, is
    the tree over the sorted primes, which a construction already holds
    (RootTable.usable_tree); ValueError if its moduli are not those."""
    primes = sorted(assignments)
    if tree is None:
        tree = ProductTree(primes)
    elif tree.moduli != primes:
        raise ValueError("the product tree is not over the assigned primes")
    return tree.crt([assignments[q] for q in primes]), tree.root


def refine_residues(*args, **kwargs):
    """A stub that raises: nothing refines the greedy pass any more, but the
    benchmark harness (bench/harness.py) wraps this name and its smoke test
    reads it. Step 2 of ROADMAP item 1, which rebuilds the benchmark on
    traces, deletes it along with that wrapper."""
    raise NotImplementedError("residue refinement was removed")


def cleanup_pools(table: RootTable, x: int) -> tuple[list[tuple[int, int]], ...]:
    """The cleanup primes, one per survivor left: the usable primes in
    (x/2, 3x/4] for the forward window and in (3x/4, x] for the backward
    one, ascending, each as (q, alpha_1) with alpha_1 its least root. A
    construction takes them once, for every attempt."""
    rows = table.rows(x / 2, 3 * x / 4), table.rows(3 * x / 4, x)
    return tuple(list(zip(q.tolist(), roots[np.cumsum(k) - k].tolist())) for q, k, roots in rows)


def pairing_stage(
    residual_fwd: Iterable[int],
    residual_bwd: Iterable[int],
    pool_f: Sequence[tuple[int, int]],
    pool_b: Sequence[tuple[int, int]],
    n_mod: Mapping[int, int],
) -> tuple[dict[int, int], dict[int, int]]:
    """Assign each leftover survivor its own large prime.

    Sorted forward survivors a (offsets in [1, y]) pair in order with
    pool_f, the usable primes q in (x/2, 3x/4] with their least roots
    alpha_1 (cleanup_pools), via r_q = a - alpha_1; sorted backward
    survivors (offsets in [-y, -1]) pair with pool_b, those in (3x/4, x],
    via that class in the backward frame (backward_residues, which reads
    N mod q from n_mod). A survivor beyond its pool stays unpaired:
    construction pairs only attempts whose survivors fit
    (residual_excess <= 0). Each congruence kills its
    survivor, and other offsets too when y exceeds the prime (e.g. y = 4577
    at x = 3000 for f = x), which does no harm. Full cover is not argued
    here: the construction checks it with a final sieve.
    """

    def pair(survivors: Iterable[int], pool: Sequence[tuple[int, int]]) -> dict[int, int]:
        return {q: (a - alpha) % q for a, (q, alpha) in zip(sorted(map(int, survivors)), pool)}

    return pair(residual_fwd, pool_f), backward_residues(pair(residual_bwd, pool_b), n_mod)


# The window-length search (search_window_length): the attempts after which a
# feasible length in hand ends it, the feasible-infeasible bracket, relative
# to y, that ends it sooner, the log-log slope of the residual against y
# (measured 2.3-2.9 near the root for x <= 3000, 2.5-3.4 above it at large
# x), and the least and the most factor, 1 + SEARCH_MIN_STEP and SEARCH_STEP,
# by which one step before the bracket scales y. The least step keeps a run
# of feasible (or of infeasible) attempts from creeping by the small steps a
# small excess asks for (0.5 % steps used up the attempts at x = 10^6 for
# x^2+1 before it), and a climb that fails leaves a bracket one secant step
# from SEARCH_TOLERANCE. 0.01, 0.015, 0.02, 0.03 and 0.05 were compared on
# seeds 101 to 140 at x <= 3000: 0.01 took the fewest attempts.
SEARCH_ATTEMPTS = 6
SEARCH_TOLERANCE = 0.005
SEARCH_SLOPE = 3.0
SEARCH_STEP = 2.0
SEARCH_MIN_STEP = 0.01
# The slope a construction assumes until two attempts measure one:
# SEARCH_SLOPE * (1 + SEARCH_NOISE / (capacity + 1)). Near the root one
# attempt's excess varies from draw to draw with a standard deviation of
# 0.35-0.57 / sqrt(capacity) (0.05-0.16 for each f at x <= 3000, 16 seeds at
# each of five lengths within 10 % of the root), so a step read off one
# excess is noise as much as signal when the capacity is small. It should go
# the fraction start error^2 / (start error^2 + noise^2) of the way, about
# 1 / (1 + 10 / capacity) for a start within 5 % of the root. 5, 10 and 20
# were compared on seeds 101 to 140 at x <= 3000; 10 took the fewest
# attempts.
SEARCH_NOISE = 10.0
# Its start (construct_certificate): 3 * capacity / sigma(x/2) times
# a * (x / 300)^b = a * exp(b ln(x / 300)), with (a, b) fitted by least
# squares on ln of the found y over that base, for each f at x in
# {300, 1000, 3000, 10^4, 3 * 10^4}, seeds 21 to 28, with up to 10 attempts
# (runs that reached the formula y left out). The ratio is 1.0-1.1 at 300
# and 1.6-1.8 at 3 * 10^4, and f moves it by up to 8 % either way (x^3+2
# lowest from 3000 on); the line 1.035 + 0.145 ln(x / 300) fitted to the
# same points starts 2-4 % lower at 300 and at 10^5, and took more attempts
# there (seeds 101 to 140 at 300, 21 and 22 at 10^5).
SEARCH_START = (1.056, 0.106)


def residual_excess(record: dict, cap_f: int, cap_b: int) -> float | None:
    """The larger over an attempt's two windows of ln((residual + 1) /
    (capacity + 1)): at most 0 exactly when both residuals fit their
    capacities, and None when the attempt left no residuals (small-stage
    retry budget)."""
    if record["residual_fwd"] is None:
        return None
    return max(math.log((record["residual_fwd"] + 1) / (cap_f + 1)),
               math.log((record["residual_bwd"] + 1) / (cap_b + 1)))


def _slope(excess: dict[int, float | None], near: int, assumed: float) -> float:
    """Log-log slope of the excess between the two measured lengths nearest
    to near, or the assumed one when fewer than two are measured or their
    excess does not rise with y."""
    measured = sorted((t for t, g in excess.items() if g is not None),
                      key=lambda t: abs(math.log(t / near)))
    if len(measured) >= 2:
        a, b = measured[:2]
        k = (excess[a] - excess[b]) / math.log(a / b)
        if k > 0.5:
            return k
    return assumed


def _free_step(excess: dict[int, float | None], end: int, slope: float) -> float:
    """ln of the factor by which a step before the bracket moves y from end:
    the excess at end over the local slope (_slope), held to
    [ln(1 + SEARCH_MIN_STEP), ln SEARCH_STEP]."""
    step = abs(excess[end]) / _slope(excess, end, slope)
    return min(max(step, math.log1p(SEARCH_MIN_STEP)), math.log(SEARCH_STEP))


def search_window_length(
    try_length: Callable[[int], tuple[bool, float | None]],
    y_max: int,
    y_start: int,
    slope: float = SEARCH_SLOPE,
) -> int | None:
    """The largest feasible window length a few attempts find, or None when
    nothing is feasible down to y = 8.

    try_length(y) runs one attempt and returns (feasible, excess), the excess
    as in residual_excess. The search solves excess = 0 against ln y. It starts
    at y_start, clamped to [8, y_max]. Until a feasible length and a larger
    infeasible one bracket the root it steps along the local log-log slope
    (_slope; the given slope until two attempts measure one), by at least a
    factor 1 + SEARCH_MIN_STEP and at most SEARCH_STEP (_free_step): up from
    the largest feasible length, so a run of feasible attempts climbs instead
    of creeping, or down from the smallest infeasible one while none is
    feasible, halving when that one has no excess. Once bracketed it takes the
    regula falsi step; when one end has held for two steps in a row, the secant
    has stalled, and the held end's stored excess is halved, again at each
    further hold (Illinois), so even a saturated end (residual 0) far from the
    root gives way; an infeasible end with no excess gives the geometric
    midpoint. It stops when y_max is feasible, when the bracket is within
    SEARCH_TOLERANCE of y, or after SEARCH_ATTEMPTS attempts with a feasible
    length in hand, and returns the largest feasible length tried. Every
    attempt draws its own random stream, so feasibility is not monotone in y: a
    feasible length above the infeasible end moves the bracket up, and the
    length returned need not be the largest feasible one.
    """
    excess: dict[int, float | None] = {}  # length tried -> its excess, halved per hold
    feasible: set[int] = set()
    moved: list[bool] = []  # per bracketed attempt: did it move the feasible end
    y = min(max(y_start, 8), y_max)
    while True:
        good, excess[y] = try_length(y)
        if good:
            feasible.add(y)
        lo = max(feasible, default=None)
        hi = min((t for t in excess if t not in feasible and (lo is None or t > lo)), default=None)
        if lo is None:
            if y <= 8:
                return None
            if excess[hi] is None:
                y = max(8, hi // 2)
            else:
                y = max(8, min(hi - 1, int(hi * math.exp(-_free_step(excess, hi, slope)))))
            continue
        if lo >= y_max or len(excess) >= SEARCH_ATTEMPTS:
            return lo
        if hi is None:
            y = min(y_max, max(lo + 1, int(lo * math.exp(_free_step(excess, lo, slope)))))
            continue
        if hi - lo <= max(1, SEARCH_TOLERANCE * lo):
            return lo
        moved.append(good)
        span = math.log(hi / lo)
        g_lo, g_hi = excess[lo], excess[hi]
        if g_hi is None:
            t = span / 2
        else:
            if moved[-2:] == [True, True]:
                g_hi = excess[hi] = g_hi / 2
            elif moved[-2:] == [False, False]:
                g_lo = excess[lo] = g_lo / 2
            t = span * -g_lo / (g_hi - g_lo)
        y = min(hi - 1, max(lo + 1, round(lo * math.exp(t))))


def decimal_digit_bound(x: int) -> int:
    """Most decimal digits N, and so b1, has at prime bound x. An auto N is
    the least power of ten >= P(x)^3, where P(x) <= e^theta(x) and
    theta(x) < 1.0163 x (Rosser and Schoenfeld), so N < 10 P(x)^3 has at
    most 2 + 3 * 1.0163 x / ln 10 digits; an explicit N is held to the same
    bound."""
    return 2 + int(3 * 1.0163 * x / math.log(10))


# Decimal conversion of certificate integers, which never reads or sets the
# interpreter's int-string limit: str() and int() take a number of at most
# DECIMAL_PIECE_DIGITS digits, the lowest limit the interpreter accepts, and
# a longer one is split into pieces of at most that size, recombined
# exactly in sub-quadratic time.
DECIMAL_PIECE_DIGITS = 640
_PIECE_BITS = int(DECIMAL_PIECE_DIGITS * math.log2(10))


def int_to_decimal(n: int) -> str:
    """str(n), for an int of any size. A longer n is split at powers of two
    into pieces, which become Decimals and are recombined in the decimal
    module, whose multiplication is sub-quadratic, exactly: every value is
    an integer and the precision is the module's maximum. Neither Decimal(m)
    nor str() of a Decimal is subject to the int-string limit."""
    if n.bit_length() <= _PIECE_BITS:
        return str(n)
    # exact integer arithmetic: the largest precision and exponent, and
    # Inexact trapped. A Decimal's own operators round to the default
    # context's 28 digits, so this context's methods are called instead
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    powers: dict[int, decimal.Decimal] = {}  # w -> 2^w

    def convert(m: int, w: int) -> decimal.Decimal:
        # 0 <= m < 2^w
        if w <= _PIECE_BITS:
            return decimal.Decimal(m)
        half = w // 2
        high = m >> half
        if half not in powers:
            powers[half] = ctx.power(decimal.Decimal(2), half)
        return ctx.add(ctx.multiply(convert(high, w - half), powers[half]),
                       convert(m - (high << half), half))

    text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def decimal_to_int(text: str) -> int:
    """int(text) for a decimal string (-?[0-9]+, see poly.decimal_text). A
    longer string is split in halves down to pieces for int(), which are
    recombined as high * 10^k + low, with 10^k = 5^k * 2^k: the multiplier
    5^k is shorter, and each one is computed once per call."""
    negative = text.startswith("-")
    digits = text[negative:]
    powers: dict[int, int] = {}  # k -> 5^k

    def convert(lo: int, hi: int) -> int:
        if hi - lo <= DECIMAL_PIECE_DIGITS:
            return int(digits[lo:hi])
        mid = (lo + hi) // 2
        k = hi - mid
        if k not in powers:
            powers[k] = 5**k
        return ((convert(lo, mid) * powers[k]) << k) + convert(mid, hi)

    value = convert(0, len(digits))
    return -value if negative else value


def decimal_field(value, max_digits: int) -> str:
    """value itself when it is a decimal string (see poly.decimal_text) of
    at most max_digits characters after an optional sign; ValueError
    otherwise, before any conversion work."""
    if isinstance(value, str) and len(value) - value.startswith("-") > max_digits:
        raise ValueError(
            f"decimal field of {len(value)} characters exceeds the {max_digits}-digit bound"
        )
    return decimal_text(value)


def parse_decimal(value, max_digits: int) -> int:
    """The integer of a decimal field, refused as decimal_field refuses it."""
    return decimal_to_int(decimal_field(value, max_digits))


def decimal_digits(n: int) -> int:
    """len(str(n)) for n >= 1, without converting n. With b its bit length,
    k = floor(b log10 2) gives 10^(k-1) < n < 10^(k+1), so n has k + 1
    digits when n >= 10^k and k otherwise. The float product is off by far
    less than b log10 2 lies from an integer for any b a certificate
    reaches."""
    k = int(n.bit_length() * math.log10(2))
    return k + (n >= 10**k)


def auto_target(modulus: int) -> int:
    """Smallest power of ten N with modulus <= N^(1/3)."""
    need = modulus**3
    # 10^k <= 2^(bit_length - 1) <= need < 10^(k + 2) for
    # k = floor((bit_length - 1) * log10 2), so the loop steps at most twice
    # (once more if the float product rounds k down)
    n = 10 ** int((need.bit_length() - 1) * math.log10(2))
    while n < need:
        n *= 10
    return n


@dataclass(frozen=True)
class Placement:
    """A certificate's placement: N and the representative b1,
    read with the window length y. Everything else follows from them: the
    windows I1 = [1 - b1, y - b1] and I2 = [N + b1 - y, N + b1 - 1], and
    the centers n1 = floor(y/2) - b1 and n2 = N - n1, with radius
    floor(y/2) - 1."""

    N: int
    b1: int
    y: int

    @property
    def I1(self) -> tuple[int, int]:
        return 1 - self.b1, self.y - self.b1

    @property
    def I2(self) -> tuple[int, int]:
        return self.N + self.b1 - self.y, self.N + self.b1 - 1

    @property
    def n1(self) -> int:
        return self.y // 2 - self.b1

    @property
    def n2(self) -> int:
        return self.N - self.n1

    def to_json(self) -> dict:
        """N and b1 as decimal strings (int_to_decimal); y is the
        certificate's own."""
        return {"N": int_to_decimal(self.N), "b1": int_to_decimal(self.b1)}

    @classmethod
    def from_json(cls, obj: dict, max_digits: int, y: int) -> "Placement":
        """N and b1 from their decimal strings, both checked and refused
        beyond max_digits digits (see decimal_digit_bound, decimal_field)
        before either is converted; any other key is ignored."""
        n_text, b1_text = decimal_field(obj["N"], max_digits), decimal_field(obj["b1"], max_digits)
        return cls(N=decimal_to_int(n_text), b1=decimal_to_int(b1_text), y=y)


def b1_range(n_target: int) -> tuple[int, int]:
    """The least and the greatest integer of [-0.3N, -0.2N], where b1 lies."""
    return -((3 * n_target) // 10), -((n_target + 4) // 5)


def place(b: int, modulus: int, n_target: int, y: int) -> Placement:
    """Pick the representative of b mod modulus inside [-0.3N, -0.2N]
    (b1_range; smallest absolute value, i.e. the largest such integer); the
    placement derives the two windows and centers from it. The caller has
    checked modulus^3 <= N. The one N-sized reduction goes by
    divmod_newton."""
    lo, hi = b1_range(n_target)
    if hi - lo + 1 < modulus:
        raise ConstructionError(
            "placement window narrower than the modulus; increase N",
            {"window": hi - lo + 1, "modulus_bits": modulus.bit_length()},
        )
    b1 = hi - divmod_newton(hi - b, modulus)[1]
    if b1 < lo:
        raise RuntimeError(f"internal error: b1 = {b1} lies below the placement window")
    return Placement(N=n_target, b1=b1, y=y)


@dataclass
class StageRecord:
    stage: str  # small | medium | cleanup
    side: str  # fwd | bwd | both
    assignments: list[tuple[int, int]]

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "side": self.side,
            "assignments": [[q, r] for q, r in self.assignments],
        }


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


@dataclass
class ResidueCertificate:
    poly: IntPolynomial
    params: SieveParams
    seed: int
    stages: list[StageRecord]
    irreducibility: str
    placement: Placement
    version: int = CERT_VERSION

    def residues(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for st in self.stages:
            for q, r in st.assignments:
                if q in out:
                    raise ValueError(f"prime {q} assigned twice")
                out[q] = r
        return out

    def to_json_dict(self) -> dict:
        return {
            "poly": self.poly.to_json(),
            "params": self.params.to_json(),
            "seed": self.seed,
            "stages": [st.to_json() for st in self.stages],
            "placement": self.placement.to_json(),
            "irreducibility": self.irreducibility,
            "version": self.version,
        }

    def to_json_bytes(self) -> bytes:
        """to_json_dict() on one line with no spaces, plus a newline. With
        no indent json.dumps runs CPython's C encoder."""
        return (json.dumps(self.to_json_dict(), separators=(",", ":")) + "\n").encode()

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ResidueCertificate":
        """Rebuild a certificate from parsed JSON; keys it does not name are
        ignored. Input of the wrong shape (a list where an object belongs, a
        number where a list does, a missing field) raises ValueError, and so
        does a field in any form but the one construct writes (decimal
        strings for coefficients, N and b1, json_int and json_number for the
        rest) or an N or b1 with more digits than the stored x allows (see
        decimal_digit_bound). Every certificate has a placement: a null or
        missing one is malformed too."""
        try:
            params = SieveParams.from_json(obj["params"])
            placement = Placement.from_json(obj["placement"], decimal_digit_bound(params.x), params.y)
            return cls(
                poly=IntPolynomial.from_json(obj["poly"]),
                params=params,
                seed=json_int(obj["seed"]),
                stages=[
                    StageRecord(
                        _text(st["stage"]),
                        _text(st["side"]),
                        [(json_int(q), json_int(r)) for q, r in st["assignments"]],
                    )
                    for st in obj["stages"]
                ],
                irreducibility=_text(obj["irreducibility"]),
                placement=placement,
                version=json_int(obj["version"]),
            )
        except (AttributeError, IndexError, KeyError, OverflowError, TypeError) as e:
            raise ValueError(f"malformed certificate: {type(e).__name__}: {e}") from e

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_json_bytes())

    @classmethod
    def load(cls, path: str) -> "ResidueCertificate":
        """Read a certificate file; input that is not one raises ValueError,
        JSON nested past the interpreter's recursion limit included."""
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            return cls.from_json_dict(json.loads(data))
        except RecursionError:
            raise ValueError("certificate JSON nested too deeply") from None


@dataclass
class StageStats:
    stage: str
    side: str
    primes_used: int
    survivors_before: int
    survivors_after: int
    capacity: int | None
    seed: int

    def row(self) -> list:
        return ["" if v is None else v for v in astuple(self)]


STATS_HEADER = [f.name for f in fields(StageStats)]


@dataclass
class ConstructionStats:
    rows: list[StageStats] = field(default_factory=list)
    extras: dict = field(default_factory=dict)


def _theorem_window_center_radius(n_target: int, delta: float) -> int:
    logn = math.log(n_target)
    return int(logn * math.log(logn) ** delta)


def construct_certificate(
    f: IntPolynomial,
    params: SieveParams,
    seed: int,
    *,
    n_target: int | None = None,
    cache_dir: str | None = None,
    assert_irreducible: bool = False,
) -> tuple[ResidueCertificate, ConstructionStats]:
    """Run the full staged sieve and emit a certificate.

    An attempt at length y draws the small residues (q <= z) at random,
    assigns the medium primes (z, x/2] in one ascending greedy pass
    (select_shifts_greedy), and is feasible when the survivors left in each
    window fit its cleanup primes, the rule residual_excess <= 0 encodes;
    only then does pairing_stage pair them.

    The window length y is found by search_window_length, a secant search
    on the residual excess of each attempt against ln y. It starts at
    3 * capacity / sigma(x/2) (capacity: the cleanup primes of the tighter
    window; sigma: RootTable.density_product) times a * (x / 300)^b, a and
    b fitted (SEARCH_START), capped at the formula y;
    stats.extras["y_start"] is that start before the cap. It never tries a
    length above the formula y or below 8. Until a feasible and a larger
    infeasible length bracket the root, each step moves y by at least 1 %
    (SEARCH_MIN_STEP), so a run of feasible attempts climbs, and the slope
    it assumes until two attempts measure one is the steeper the fewer
    cleanup primes there are (SEARCH_NOISE), since one attempt's excess is
    then the noisier. It stops once a feasible and an infeasible length lie
    within 0.5 % of each other, or after 6 attempts with a feasible length
    in hand, and keeps the largest feasible length tried. Each length draws
    its own random stream, so feasibility is not monotone in y and the
    length found need not be the largest feasible one. Each length tried
    leaves one record in stats.extras["attempts"]: y, outcome (ok,
    small_retry_budget or residual_over_capacity) and the residual per
    window, None for a window not reached; the stats rows come from the
    chosen attempt. Raises ConstructionError, counting the outcomes in its
    diagnostics, when nothing down to y = 8 is feasible, and when the target
    N is too small for the prime modulus or has more digits than
    decimal_digit_bound(x).
    """
    verdict = irreducibility_check(f, assert_irreducible=assert_irreducible)
    if verdict == "fail":
        raise ConstructionError(
            "polynomial is reducible (or could not be certified); "
            "pass the assertion flag only for polynomials known irreducible",
            {"irreducibility": verdict},
        )
    x = params.x
    table = build_root_table(f, x, cache_dir=cache_dir)
    usable = table.rows(0, x)[0].tolist()
    if not usable:
        raise ConstructionError("no usable primes below x", {"x": x})
    modulus = table.usable_tree.root
    if n_target is None:
        target = auto_target(modulus)
    else:
        target = int(n_target)
        if modulus**3 > target:
            raise ConstructionError(
                "explicit N is smaller than modulus^3; raise N, or give none for the auto target",
                {"modulus_bits": modulus.bit_length()},
            )
    n_digits = decimal_digits(target)
    max_digits = decimal_digit_bound(x)
    if n_digits > max_digits:
        raise ConstructionError(
            f"explicit N has more than {max_digits} digits, the most a certificate"
            f" at x = {x} may carry",
            {"max_digits": max_digits},
        )
    # N mod q once per construction: the only form of N any sieve stage of
    # any attempt takes; N itself is read again only at placement
    n_mod = target_residues(target, table)
    # the cleanup primes, one per survivor left: their counts are the capacities
    pools = cleanup_pools(table, x)
    cap_f, cap_b = map(len, pools)
    attempts: list[dict] = []  # one outcome record per window length tried
    # y -> (params, small, medium, (cleanup fwd, cleanup bwd), rejections,
    # (small-stage survivors, residual) per window), per feasible length
    feasible: dict[int, tuple] = {}

    def try_length(y: int) -> tuple[bool, float | None]:
        rec = {"y": y, "outcome": "small_retry_budget", "residual_fwd": None, "residual_bwd": None}
        attempts.append(rec)
        p = params.with_y(y)
        try:
            small, fwd0, bwd0, rejections = sample_small_residue(
                p, table, stage_rng(seed, STREAM_SMALL, y), n_mod
            )
        except RetryBudgetError:
            return False, None
        # the attempt's one cover state: the small-stage survivors, less
        # every class the medium stage assigns
        state = CoverState(table, fwd0, bwd0, n_mod)
        medium = select_shifts_greedy(state, table.rows(p.z, x / 2))
        res_f, res_b = state.fwd, state.bwd
        counts = [(fwd0.count(), len(res_f)), (bwd0.count(), len(res_b))]
        rec.update(residual_fwd=len(res_f), residual_bwd=len(res_b))
        excess = residual_excess(rec, cap_f, cap_b)
        good = excess <= 0
        rec["outcome"] = "ok" if good else "residual_over_capacity"
        if good:
            pairs = pairing_stage(res_f, res_b, *pools, n_mod)
            feasible[y] = (p, small, medium, pairs, rejections, counts)
        return good, excess

    capacity = min(cap_f, cap_b)
    c0, c1 = SEARCH_START
    y_start = int(3 * capacity / max(table.density_product(x / 2), 1e-300)
                  * c0 * (x / 300) ** c1)
    slope = SEARCH_SLOPE * (1 + SEARCH_NOISE / (capacity + 1))
    achieved_y = search_window_length(try_length, params.y, y_start, slope)
    if achieved_y is None:
        outcomes = Counter(a["outcome"] for a in attempts)
        # only an attempt that got past the small stage says anything about x
        reason = ("x is too small for this polynomial" if outcomes["residual_over_capacity"]
                  else "every attempt used up the small-stage retry budget")
        raise ConstructionError(
            f"no feasible window length down to y = 8; {reason}",
            {"x": x, "y_formula": params.y, "capacity_fwd": cap_f, "capacity_bwd": cap_b,
             "outcomes": dict(outcomes)},
        )
    p_final, small, medium, pairs, rejections, counts = feasible[achieved_y]

    assigned = {**small, **medium, **pairs[0], **pairs[1]}
    fills = {q: 0 for q in usable if q not in assigned}
    full = {**assigned, **fills}

    # the whole point: no offset in either window survives the full system
    windows = [("forward", full, (1, achieved_y)),
               ("backward", backward_residues(full, n_mod), (-achieved_y, -1))]
    for side, residues, interval in windows:
        left = sieve_survivors(table, residues, interval, (0, x))
        if left.count():
            raise RuntimeError(f"internal error: {side} window not fully covered at {left.offsets[0]}")

    stages = [
        StageRecord("small", "both", sorted(small.items())),
        StageRecord("medium", "both", sorted(medium.items())),
        StageRecord("cleanup", "fwd", sorted(pairs[0].items())),
        StageRecord("cleanup", "bwd", sorted(pairs[1].items())),
    ]
    if fills:
        stages.append(StageRecord("cleanup", "both", sorted(fills.items())))

    b, p_x = crt_combine(full, table.usable_tree)
    cert = ResidueCertificate(
        poly=f,
        params=p_final,
        seed=seed,
        stages=stages,
        irreducibility=verdict,
        placement=place(b, p_x, target, achieved_y),
    )
    # the chosen attempt's stage rows, one per window and stage
    sides = list(zip(("fwd", "bwd"), counts, pairs, (cap_f, cap_b)))
    rows = [StageStats("small", s, len(small), achieved_y, n0, None, seed) for s, (n0, _), _, _ in sides]
    rows += [StageStats("medium", s, len(medium), n0, n1, cap, seed) for s, (n0, n1), _, cap in sides]
    rows += [StageStats("cleanup", s, len(pr), n1, 0, cap, seed) for s, (_, n1), pr, cap in sides]
    stats = ConstructionStats(rows=rows)
    m_achieved = achieved_y // 2 - 1
    m_formula = _theorem_window_center_radius(target, p_final.delta)
    stats.extras.update(
        {
            "achieved_y": achieved_y,
            "formula_y": params.y,
            "rejections": rejections,
            "residual_fwd": counts[0][1],
            "residual_bwd": counts[1][1],
            "capacity_fwd": cap_f,
            "capacity_bwd": cap_b,
            "m_achieved": m_achieved,
            "modulus_bits": p_x.bit_length(),
            "fills": len(fills),
            "y_start": y_start,
            "attempts": attempts,
            "m_formula": m_formula,
            "m_larger": "achieved" if m_achieved >= m_formula else "formula",
            "n_digits": n_digits,
        }
    )
    return cert, stats
