"""Staged residue selection: parameters, scale ladder, small-prime sampling,
and medium-prime shift selection (random and greedy).

The sieve covers two offset windows, forward [1, y] and backward [-y, -1].
A certificate residue r_q kills forward offsets j = r_q + alpha (mod q) and
backward offsets j = alpha - N - r_q (mod q), where N is the target sum. So
the sieve needs N only mod each sieving prime: every stage that touches the
backward window takes the map q -> N mod q (target_residues), which a
construction builds once, and N in full enters only at placement.
Greedy mode scores residue classes directly; random mode samples shifts n_q
and induces residues from them. The shifts are uniform: the paper weights a
shift by sigma2^(-count) over its progression, and sigma2 = 1 at every
supported scale (the small-stage boundary z sits below H^M for every ladder
scale), so each weight is 1. Each window-length attempt builds one
incremental engine, CoverState, from its small-stage survivors; the greedy
pass, the refinement sweeps, the random-mode residues and the post-medium
residuals all work on that state, and the medium stage hands back plain
q -> residue maps. The state scores a prime with one bincount over the
class keys of both windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .modroots import RootTable
from .sievecore import SurvivorSet, sieve_survivors


class RetryBudgetError(RuntimeError):
    """Residue sampling failed the survivor-count bound too many times."""


@dataclass(frozen=True)
class SieveParams:
    """Construction parameters and their derived window sizes.

    y is the window length floor(x * (log x)^delta); the staging boundary z
    separating the randomized small stage from the shift-selection stage is
    the formula value y * loglog(x) / sqrt(log x) capped at isqrt(y). The
    formula alone exceeds x/2 for every x reachable in practice, which would
    leave no primes for shift selection at all, so the cap is what makes the
    staged pipeline nondegenerate; both values are exposed.
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
        if not (0 < self.eps < (self.M - 6) / 7):
            raise ValueError("eps must lie in (0, (M - 6) / 7)")
        if self.retry_budget < 0:
            raise ValueError("retry budget must be nonnegative")

    @property
    def y(self) -> int:
        if self.y_override is not None:
            return self.y_override
        return int(self.x * math.log(self.x) ** self.delta)

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
            x=int(obj["x"]),
            delta=float(obj["delta"]),
            xi=float(obj["xi"]),
            M=float(obj["M"]),
            K=float(obj["K"]),
            eps=float(obj["eps"]),
            y_override=int(obj["y"]),
        )
        if p.z != int(obj["z"]):
            raise ValueError("stored staging boundary disagrees with parameters")
        return p


@dataclass(frozen=True)
class LadderScale:
    """One scale H = xi^j with its per-root-count prime buckets."""

    j: int
    H: float
    side: str  # "fwd" for even j, "bwd" for odd j
    buckets: dict[int, tuple[int, ...]]  # root count -> primes in (y/(xi H), y/H]


@dataclass(frozen=True)
class ScaleLadder:
    scales: tuple[LadderScale, ...]

    def side_scales(self, side: str) -> list[LadderScale]:
        return [s for s in self.scales if s.side == side]


def build_ladder(params: SieveParams, table: RootTable) -> ScaleLadder:
    """Enumerate scales H = xi^j with 2y/x <= H <= y/(xi z) and their prime
    buckets; empty whenever the scale window is empty (then shift selection
    falls back to dense mode over all of (z, x/2])."""
    y, z, xi, x = params.y, params.z, params.xi, params.x
    scales = []
    if z >= 1 and y / (xi * z) >= 2 * y / x:
        j_lo = math.ceil(math.log(2 * y / x) / math.log(xi) - 1e-12)
        j_hi = math.floor(math.log(y / (xi * z)) / math.log(xi) + 1e-12)
        for j in range(j_lo, j_hi + 1):
            h = xi**j
            if h < 2 * y / x - 1e-12 or h > y / (xi * z) + 1e-12:
                continue
            lo, hi = y / (xi * h), y / h
            assert lo >= z - 1e-9 and hi <= x / 2 + 1e-9
            buckets: dict[int, list[int]] = {}
            for q in table.usable_between(lo, hi):
                buckets.setdefault(len(table.roots[q]), []).append(q)
            scales.append(
                LadderScale(
                    j=j,
                    H=h,
                    side="fwd" if j % 2 == 0 else "bwd",
                    buckets={k: tuple(v) for k, v in sorted(buckets.items())},
                )
            )
    return ScaleLadder(tuple(scales))


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


def shift_range(params: SieveParams, side: str) -> tuple[int, int]:
    """Inclusive shift bounds: forward (-(K+1)y, y], backward [-y, (K+1)y)."""
    ky = int((params.K + 1) * params.y)
    if side == "fwd":
        return (-ky + 1, params.y)
    return (-params.y, ky - 1)


def target_residues(n_target: int, table: RootTable) -> dict[int, int]:
    """q -> N mod q for every usable prime of the table: the only form of N
    the sieve stages take. A construction reduces its N (thousands of
    digits) once per prime, and every stage of every attempt reads the
    map."""
    return {q: n_target % q for q in table.usable_primes()}


class CoverState:
    """Incremental cover counts for the forward and backward offset windows.

    fwd[i] counts the assigned classes hitting forward offset fwd_lo + i
    (prime q with residue r hits j = r + alpha mod q); bwd[i] counts those
    hitting backward offset bwd_lo + i (j = alpha - N - r mod q). Offsets
    with count zero are the survivors. Adding or removing one prime's class
    is nu strided slice updates per window. N enters only through n_mod,
    the map q -> N mod q (see target_residues). One window-length attempt
    builds one state from its small-stage survivors; the medium stage
    assigns, re-picks and reads residuals on it.

    Scoring a prime takes one survivor extraction per window and a single
    bincount: residue r hits forward survivor o when r = o - alpha and
    backward survivor o when r = alpha - N - o (mod q), so counting those
    keys over every survivor and root gives each residue's joint score.
    """

    def __init__(self, table: RootTable, n_mod: Mapping[int, int], fwd_lo: int,
                 fwd: np.ndarray, bwd_lo: int, bwd: np.ndarray):
        self.table = table
        self.n_mod = n_mod
        self.fwd_lo, self.fwd = fwd_lo, fwd
        self.bwd_lo, self.bwd = bwd_lo, bwd

    @classmethod
    def from_survivors(
        cls,
        table: RootTable,
        fwd: SurvivorSet,
        bwd: SurvivorSet | None,
        n_mod: Mapping[int, int],
    ) -> "CoverState":
        """Start from survivor bitmaps; each killed offset counts once. With
        no backward bitmap the backward window is empty, so no count and no
        score depends on n_mod."""
        f = (~fwd.bits).astype(np.int32)
        if bwd is None:
            return cls(table, n_mod, fwd.lo, f, 0, np.zeros(0, dtype=np.int32))
        return cls(table, n_mod, fwd.lo, f, bwd.lo, (~bwd.bits).astype(np.int32))

    def add(self, q: int, r: int, count: int = 1) -> None:
        """Assign residue r to q (count -1 takes the assignment back)."""
        nq = self.n_mod[q]
        for a in self.table.roots[q]:
            self.fwd[(r + a - self.fwd_lo) % q :: q] += count
            self.bwd[(a - nq - r - self.bwd_lo) % q :: q] += count

    def remove(self, q: int, r: int) -> None:
        self.add(q, r, -1)

    def survivors_fwd(self) -> np.ndarray:
        return np.flatnonzero(self.fwd == 0).astype(np.int64) + self.fwd_lo

    def survivors_bwd(self) -> np.ndarray:
        return np.flatnonzero(self.bwd == 0).astype(np.int64) + self.bwd_lo

    def best_residue(self, q: int) -> int:
        """The residue for q hitting the most survivors on both sides jointly
        (ties to the smallest)."""
        alphas = self.table.roots[q]
        fi = (self.fwd == 0).nonzero()[0]
        bi = (self.bwd == 0).nonzero()[0]
        # forward key o - alpha with o = fwd_lo + i; backward key
        # alpha - N - o with o = bwd_lo + i; one shift per root and window
        c_bwd = -self.n_mod[q] - self.bwd_lo
        keys = np.concatenate(
            [fi + (self.fwd_lo - a) for a in alphas] + [(c_bwd + a) - bi for a in alphas]
        )
        keys %= q
        return int(np.bincount(keys, minlength=q).argmax())


def select_shifts_greedy(state: CoverState, primes: Iterable[int]) -> dict[int, int]:
    """Deterministic shift selection on the attempt's cover state: primes in
    descending order, each takes the residue class covering the most
    survivors left (ties to the smallest residue) and is assigned in the
    state. A two-sided state scores one certificate residue against both
    windows jointly, since it kills on both sides; a one-sided state has an
    empty backward window, so only forward survivors count. Returns
    q -> residue."""
    out: dict[int, int] = {}
    for q in sorted(set(primes), reverse=True):
        out[q] = state.best_residue(q)
        state.add(q, out[q])
    return out


def select_shifts_random(
    ladder: ScaleLadder,
    side: str,
    rng: np.random.Generator,
    params: SieveParams,
    n_mod: Mapping[int, int],
) -> dict[int, int]:
    """Sample one shift per bucket prime on the given side, uniformly over
    the shift range, and return q -> the certificate residue it induces
    (n mod q forward, -N - n mod q backward, N read from n_mod). The
    paper's progression weight sigma2^(-count) is 1 for every shift, as
    sigma2 = 1 at every supported scale (the small-stage boundary z sits
    below H^M for every ladder scale). The range holds (K+2)*y - O(1)
    shifts, so the paper's weight-sum condition around (K+2)*y always holds.
    """
    if side not in ("fwd", "bwd"):
        raise ValueError("side must be fwd or bwd")
    lo, hi = shift_range(params, side)
    out: dict[int, int] = {}
    for scale in ladder.side_scales(side):
        for nu in sorted(scale.buckets):
            for q in scale.buckets[nu]:
                n = int(rng.integers(lo, hi + 1))
                out[q] = n % q if side == "fwd" else (-n_mod[q] - n) % q
    return out


def refine_residues(
    state: CoverState,
    residues: Mapping[int, int],
    medium_primes: Sequence[int],
    sweeps: int = 2,
) -> dict[int, int]:
    """Local improvement on top of the greedy pass: re-pick each medium
    prime's residue against the survivors of everything else in the state,
    holding the rest fixed. The state must hold residues[q] for every medium
    prime, and ends holding the returned map. Only the state's windows are
    scored: a one-sided state has no backward window, so N plays no part.
    Deterministic; returns a new residue map."""
    out = dict(residues)
    for _ in range(sweeps):
        for q in sorted(medium_primes, reverse=True):
            state.remove(q, out[q])
            out[q] = state.best_residue(q)
            state.add(q, out[q])
    return out
