"""Staged residue selection: parameters, small-prime sampling, and
medium-prime shift selection (random and greedy).

The sieve covers two offset windows, forward [1, y] and backward [-y, -1].
A certificate residue r_q kills forward offsets j = r_q + alpha (mod q) and
backward offsets j = alpha - N - r_q (mod q), where N is the target sum. So
the sieve needs N only mod each sieving prime: every stage that touches the
backward window takes the map q -> N mod q (target_residues), which a
construction builds once, and N in full enters only at placement.
Greedy mode scores residue classes directly, in one ascending pass over the
medium primes; random mode walks the scales H = xi^j, samples a shift n_q
per prime and induces residues from it. The shifts are uniform: the paper
weights a shift by sigma2^(-count) over its progression, and sigma2 = 1 at
every supported scale (the small-stage boundary z sits below H^M for every
scale), so each weight is 1. Each window-length attempt builds one
CoverState from its small-stage survivors: the sorted offsets of both
windows that no class assigned so far kills. The greedy pass and the
random-mode residues assign their classes on it, its arrays are the
post-medium residuals, and the medium stage hands back plain q -> residue
maps. Assigning a prime computes its class keys over the survivors of both
windows once; greedy mode picks the residue by one bincount of those keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from .modroots import RootTable
from .sievecore import SurvivorSet, sieve_survivors


# the most scales H = xi^j per side that SieveParams lets random mode walk
MAX_SCALES = 1024


class RetryBudgetError(RuntimeError):
    """Residue sampling failed the survivor-count bound too many times."""


def json_int(value) -> int:
    """A JSON integer field of a certificate; a bool, float or string raises ValueError."""
    if type(value) is not int:
        raise ValueError(f"expected a JSON integer, got {value!r:.40}")
    return value


def json_number(value) -> float:
    """A JSON number field of a certificate; a bool or string raises ValueError."""
    if type(value) not in (int, float):
        raise ValueError(f"expected a JSON number, got {value!r:.40}")
    return float(value)


@dataclass(frozen=True)
class SieveParams:
    """Construction parameters and their derived window sizes.

    y is the window length floor(x * (log x)^delta); the staging boundary z
    separating the randomized small stage from the shift-selection stage is
    the formula value y * loglog(x) / sqrt(log x) capped at isqrt(y). The
    formula alone exceeds x/2 for every x reachable in practice, which would
    leave no primes for shift selection at all, so the cap is what makes the
    staged pipeline nondegenerate; both values are exposed.

    Random mode draws int64 shifts from ranges of (K + 2) * y values and
    walks at most ln(x/2) / ln(xi) scales per side, so (K + 2) * y must stay
    below 2^63 at the formula y, and ln(x/2) / ln(xi) within MAX_SCALES.
    """

    x: int
    delta: float = 0.5
    xi: float = 2.0
    M: float = 6.5
    K: float = 8.0
    eps: float = 0.05
    retry_budget: int = 64
    y_override: int | None = None

    def __post_init__(self):
        if self.x < 8:
            raise ValueError("x must be at least 8")
        if not (1e-6 < self.delta <= 0.5):
            raise ValueError("delta must lie in (1e-6, 0.5]")
        if not (1 < self.xi < math.inf):
            raise ValueError("xi must be finite and exceed 1")
        if not (6 < self.M < 7):
            raise ValueError("M must lie in (6, 7)")
        if not (0 < self.K < math.inf):
            raise ValueError("K must be finite and positive")
        if (self.K + 2) * self.y_formula >= 2**63:
            raise ValueError("(K + 2) * y must stay below 2^63 at the formula length")
        if math.log(self.x / 2) > MAX_SCALES * math.log(self.xi):
            raise ValueError(f"xi must be at least (x/2)^(1/{MAX_SCALES}): too many scales")
        if not (0 < self.eps < (self.M - 6) / 7):
            raise ValueError("eps must lie in (0, (M - 6) / 7)")
        if self.retry_budget < 0:
            raise ValueError("retry budget must be nonnegative")

    @property
    def y_formula(self) -> int:
        return int(self.x * math.log(self.x) ** self.delta)

    @property
    def y(self) -> int:
        return self.y_formula if self.y_override is None else self.y_override

    @property
    def boundary_formula(self) -> int:
        return int(self.y * math.log(math.log(self.x)) / math.sqrt(math.log(self.x)))

    @property
    def z(self) -> int:
        return min(self.boundary_formula, math.isqrt(self.y))

    def with_y(self, y: int) -> "SieveParams":
        return replace(self, y_override=int(y))

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "delta": self.delta,
            "xi": self.xi,
            "M": self.M,
            "K": self.K,
            "eps": self.eps,
            "y": self.y,
            "z": self.z,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SieveParams":
        p = cls(
            x=json_int(obj["x"]),
            delta=json_number(obj["delta"]),
            xi=json_number(obj["xi"]),
            M=json_number(obj["M"]),
            K=json_number(obj["K"]),
            eps=json_number(obj["eps"]),
            y_override=json_int(obj["y"]),
        )
        if p.z != json_int(obj["z"]):
            raise ValueError("stored staging boundary disagrees with parameters")
        return p


def backward_residues(residues: Mapping[int, int], n_mod: Mapping[int, int]) -> dict[int, int]:
    """Translate certificate residues to the backward offset frame: offset j
    in [-y, -1] is killed by q when (j - c_q) mod q is a root, with
    c_q = -N - r_q, taken mod q from n_mod[q] = N mod q."""
    return {q: (-n_mod[q] - r) % q for q, r in residues.items()}


def sample_small_residue(
    params: SieveParams,
    table: RootTable,
    rng: np.random.Generator,
    n_mod: Mapping[int, int] | None = None,
    two_sided: bool = True,
) -> tuple[dict[int, int], SurvivorSet, SurvivorSet | None, int]:
    """Draw uniform residues for the usable primes q <= z, rejecting until
    both survivor windows hold at most 2 * sigma(z) * y offsets. Returns
    (residues, fwd survivors, bwd survivors, rejections).

    The backward window needs the target sum N mod each small prime; in
    two-sided mode n_mod (see target_residues) must be given.
    """
    y, z = params.y, params.z
    if two_sided and n_mod is None:
        raise ValueError("two-sided sampling requires the target residues")
    small = table.usable_between(0, z)
    bound = 2.0 * table.density_product(z) * y
    rejections = 0
    for _ in range(params.retry_budget):
        residues = {q: int(rng.integers(q)) for q in small}
        fwd = sieve_survivors(table, residues, (1, y), (0, z))
        if fwd.count() > bound:
            rejections += 1
            continue
        bwd = None
        if two_sided:
            bwd = sieve_survivors(
                table, backward_residues(residues, n_mod), (-y, -1), (0, z)
            )
            if bwd.count() > bound:
                rejections += 1
                continue
        return residues, fwd, bwd, rejections
    raise RetryBudgetError(
        f"no residue draw met the {bound:.1f}-survivor bound in "
        f"{params.retry_budget} attempts"
    )


def target_residues(n_target: int, table: RootTable) -> dict[int, int]:
    """q -> N mod q for every usable prime of the table: the only form of N
    the sieve stages take. A construction reduces its N (thousands of
    digits) once per prime, and every stage of every attempt reads the
    map."""
    return {q: n_target % q for q in table.usable_primes()}


class CoverState:
    """The surviving offsets of the forward and backward windows.

    fwd and bwd are the sorted int64 absolute offsets that no class assigned
    so far kills. One window-length attempt builds one state from its
    small-stage survivor bitmaps; the medium stage assigns its classes on it,
    and its arrays are the residuals. With no backward bitmap the backward
    array is empty, and n_mod, the map q -> N mod q (see target_residues)
    read only for a nonempty backward array, may be None.

    Assigning a prime computes its class keys once over every survivor and
    root alpha: residue r kills forward survivor o when r = o - alpha and
    backward survivor o when r = alpha - N - o (mod q). One bincount of the
    keys scores every residue on both sides jointly, and the survivors none
    of whose keys is the chosen residue are kept.
    """

    def __init__(self, table: RootTable, fwd: SurvivorSet, bwd: SurvivorSet | None,
                 n_mod: Mapping[int, int] | None):
        self.table = table
        self.n_mod = n_mod
        self.fwd = fwd.survivors()
        self.bwd = np.zeros(0, dtype=np.int64) if bwd is None else bwd.survivors()

    def add(self, q: int, r: int | None = None) -> int:
        """Assign q the residue r, or, when r is None, the residue killing
        the most survivors on both sides jointly (ties to the smallest);
        drop the survivors it kills and return it."""
        alphas = self.table.roots[q]
        nf, nb = self.fwd.size, self.bwd.size
        c_bwd = -self.n_mod[q] if nb else 0
        keys = np.concatenate(
            [self.fwd - a for a in alphas] + [(c_bwd + a) - self.bwd for a in alphas]
        )
        keys %= q
        if r is None:
            r = int(np.bincount(keys, minlength=q).argmax())
        # a survivor stays when none of its keys (one per root) is r
        live = keys != r
        k = len(alphas) * nf
        self.fwd = self.fwd[live[:k].reshape(len(alphas), nf).all(axis=0)]
        self.bwd = self.bwd[live[k:].reshape(len(alphas), nb).all(axis=0)]
        return r


def select_shifts_greedy(state: CoverState, primes: Iterable[int]) -> dict[int, int]:
    """Deterministic shift selection on the attempt's cover state, in
    Rankin's order (Rankin 1938; Ford, Green, Konyagin, Maynard and Tao 2018
    for f(n) = n): primes in ascending order, each takes the residue class
    covering the most survivors left (ties to the smallest residue) and is
    assigned in the state. A two-sided state scores one certificate residue
    against both windows jointly, since it kills on both sides; a one-sided
    state has an empty backward window, so only forward survivors count.
    Returns q -> residue."""
    return {q: state.add(q) for q in sorted(set(primes))}


def select_shifts_random(
    params: SieveParams,
    table: RootTable,
    rng: np.random.Generator,
    n_mod: Mapping[int, int] | None,
) -> dict[int, int]:
    """Randomized medium stage over the scales H = xi^j with
    2y/x <= H <= y/(xi z): each usable prime q in (y/(xi H), y/H] draws one
    shift n, uniform over (-(K+1)y, y] on a forward scale (even j) or
    [-y, (K+1)y) on a backward one (odd j), and takes the residue it
    induces: n mod q forward, -N - n mod q backward (N read from n_mod;
    n_mod None makes the run one-sided, with no backward scales). Draw
    order: the forward scales, then the backward ones, each by ascending j;
    within a scale by root count, then by size. Primes outside every scale
    window stay unassigned. At most ln(x/2) / ln(xi) <= MAX_SCALES scales
    lie in range (SieveParams refuses a larger count).

    The paper's progression weight sigma2^(-count) is 1 for every shift
    (see the module docstring). The range holds (K+2)*y - O(1) shifts, so
    the paper's weight-sum condition around (K+2)*y always holds.
    """
    y, z, xi, x = params.y, params.z, params.xi, params.x
    ky = int((params.K + 1) * y)
    out: dict[int, int] = {}
    if z < 1 or y / (xi * z) < 2 * y / x:
        return out
    j_lo = math.ceil(math.log(2 * y / x) / math.log(xi) - 1e-12)
    j_hi = math.floor(math.log(y / (xi * z)) / math.log(xi) + 1e-12)
    for side in (0, 1) if n_mod is not None else (0,):
        lo, hi = (-y, ky - 1) if side else (-ky + 1, y)
        for j in range(j_lo, j_hi + 1):
            h = xi**j
            if j % 2 != side or not 2 * y / x - 1e-12 <= h <= y / (xi * z) + 1e-12:
                continue
            primes = table.usable_between(y / (xi * h), y / h)
            for q in sorted(primes, key=lambda q: len(table.roots[q])):
                n = int(rng.integers(lo, hi + 1))
                out[q] = (-n_mod[q] - n) % q if side else n % q
    return out

