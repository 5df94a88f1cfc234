"""Staged residue selection: parameters, scale ladder, small-prime sampling,
and medium-prime shift selection (random and greedy).

The sieve covers two offset windows, forward [1, y] and backward [-y, -1].
A certificate residue r_q kills forward offsets j = r_q + alpha (mod q) and,
once the target sum N is fixed, backward offsets j = alpha - N - r_q (mod q).
Greedy mode scores residue classes directly; random mode samples shifts n_q
and induces residues from them. The shifts are uniform: the paper weights a
shift by sigma2^(-count) over its progression, and sigma2 = 1 at every
supported scale (the small-stage boundary z sits below H^M for every ladder
scale), so each weight is 1. The greedy pass, the refinement sweeps and the
post-medium residuals all run on one incremental engine, CoverState.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    N_target: int | None = None
    y_override: int | None = None

    def __post_init__(self):
        if self.x < 8:
            raise ValueError("x must be at least 8")
        if not (1e-6 < self.delta <= 0.5):
            raise ValueError("delta must lie in (1e-6, 0.5]")
        if self.xi <= 1:
            raise ValueError("xi must exceed 1")
        if not (6 < self.M < 7):
            raise ValueError("M must lie in (6, 7)")
        if self.K <= 0:
            raise ValueError("K must be positive")
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

    def with_target(self, n_target: int) -> "SieveParams":
        return replace(self, N_target=int(n_target))

    def constraint_report(self, rho_hat: float | None = None) -> dict:
        """Density requirement 6*10^(2 delta) / log(1/(2 delta)) < rho.

        The threshold blows up as delta -> 1/2 (log term hits zero), so at
        the desk-scale default it is reported as unsatisfied; nothing
        downstream enforces it.
        """
        log_term = math.log(1.0 / (2.0 * self.delta)) if self.delta < 0.5 else 0.0
        threshold = math.inf if log_term <= 0 else 6.0 * 10 ** (2 * self.delta) / log_term
        return {
            "delta": self.delta,
            "rho_threshold": threshold,
            "rho_hat": rho_hat,
            "satisfied": rho_hat is not None and rho_hat > threshold,
        }

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
    def from_json(cls, obj: dict, n_target: int | None = None) -> "SieveParams":
        p = cls(
            x=int(obj["x"]),
            delta=float(obj["delta"]),
            xi=float(obj["xi"]),
            M=float(obj["M"]),
            K=float(obj["K"]),
            eps=float(obj["eps"]),
            N_target=n_target,
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

    def primes(self) -> list[int]:
        out: list[int] = []
        for qs in self.buckets.values():
            out.extend(qs)
        return sorted(out)


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


def backward_residues(residues: Mapping[int, int], n_target: int) -> dict[int, int]:
    """Translate certificate residues to the backward offset frame: offset j
    in [-y, -1] is killed by q when (j - c_q) mod q is a root, with
    c_q = -N - r_q."""
    return {q: (-n_target - r) % q for q, r in residues.items()}


def sample_small_residue(
    params: SieveParams,
    table: RootTable,
    rng: np.random.Generator,
    two_sided: bool = True,
    threshold_factor: float = 2.0,
) -> tuple[dict[int, int], SurvivorSet, SurvivorSet | None, int]:
    """Draw uniform residues for the usable primes q <= z, rejecting until
    both survivor windows hold at most threshold_factor * sigma(z) * y
    offsets. Returns (residues, fwd survivors, bwd survivors, rejections).

    The backward window needs the target sum N; in two-sided mode
    params.N_target must be set.
    """
    y, z = params.y, params.z
    if two_sided and params.N_target is None:
        raise ValueError("two-sided sampling requires N_target")
    small = table.usable_between(0, z)
    sigma = table.density_product(z)
    bound = threshold_factor * sigma * y
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
                table, backward_residues(residues, params.N_target), (-y, -1), (0, z)
            )
            if bwd.count() > bound:
                rejections += 1
                continue
        return residues, fwd, bwd, rejections
    raise RetryBudgetError(
        f"no residue draw met the {bound:.1f}-survivor bound in "
        f"{params.retry_budget} attempts"
    )


@dataclass
class CoverChoice:
    q: int
    side: str  # fwd | bwd | both
    residue: int  # certificate residue r_q
    shift: int | None  # shift n_q when one was sampled/derived
    covered_fwd: int
    covered_bwd: int
    stage: str = "medium"


@dataclass
class CoverPlan:
    mode: str
    choices: list[CoverChoice] = field(default_factory=list)
    residual_fwd: np.ndarray | None = None
    residual_bwd: np.ndarray | None = None
    dropped: list[tuple[int, str]] = field(default_factory=list)

    def residues(self) -> dict[int, int]:
        return {c.q: c.residue for c in self.choices}


def shift_range(params: SieveParams, side: str) -> tuple[int, int]:
    """Inclusive shift bounds: forward (-(K+1)y, y], backward [-y, (K+1)y)."""
    ky = int((params.K + 1) * params.y)
    if side == "fwd":
        return (-ky + 1, params.y)
    return (-params.y, ky - 1)


def _class_counts(positions: np.ndarray, q: int) -> np.ndarray:
    return np.bincount(positions % q, minlength=q).astype(np.int64)


def forward_class_scores(q: int, alphas: Sequence[int], fwd_pos: np.ndarray) -> np.ndarray:
    """scores[r] = how many forward survivors sit in classes r + alpha."""
    cnt = _class_counts(fwd_pos, q)
    idx = (np.arange(q)[None, :] + np.asarray(alphas)[:, None]) % q
    return cnt[idx].sum(axis=0)


def backward_class_scores(
    q: int, alphas: Sequence[int], bwd_pos: np.ndarray, n_target: int
) -> np.ndarray:
    """scores[r] = how many backward survivors sit in classes alpha - N - r."""
    cnt = _class_counts(bwd_pos, q)
    nt = n_target % q  # N can be hundreds of digits; reduce before numpy
    idx = ((np.asarray(alphas)[:, None] - nt) - np.arange(q)[None, :]) % q
    return cnt[idx].sum(axis=0)


class CoverState:
    """Incremental cover counts for the forward and backward offset windows.

    fwd[i] counts the assigned classes hitting forward offset fwd_lo + i
    (prime q with residue r hits j = r + alpha mod q); bwd[i] counts those
    hitting backward offset bwd_lo + i (j = alpha - N - r mod q). Offsets
    with count zero are the survivors. Adding or removing one prime's class
    is nu strided slice updates per window, and N mod q is reduced once per
    prime, however many digits N has.
    """

    def __init__(self, table: RootTable, n_target: int, fwd_lo: int, fwd: np.ndarray,
                 bwd_lo: int, bwd: np.ndarray):
        self.table = table
        self.n_target = n_target
        self.fwd_lo, self.fwd = fwd_lo, fwd
        self.bwd_lo, self.bwd = bwd_lo, bwd
        self._n_mod: dict[int, int] = {}

    @classmethod
    def empty(cls, table: RootTable, y: int, n_target: int) -> "CoverState":
        """Nothing assigned over [1, y] and [-y, -1]."""
        fwd, bwd = np.zeros(y, dtype=np.int32), np.zeros(y, dtype=np.int32)
        return cls(table, n_target, 1, fwd, -y, bwd)

    @classmethod
    def from_survivors(
        cls, table: RootTable, fwd: SurvivorSet, bwd: SurvivorSet | None, n_target: int | None
    ) -> "CoverState":
        """Start from survivor bitmaps; each killed offset counts once. With
        no backward bitmap the backward window is empty and N plays no part."""
        f = (~fwd.bits).astype(np.int32)
        if bwd is None:
            return cls(table, 0, fwd.lo, f, 0, np.zeros(0, dtype=np.int32))
        return cls(table, n_target, fwd.lo, f, bwd.lo, (~bwd.bits).astype(np.int32))

    def n_mod(self, q: int) -> int:
        nq = self._n_mod.get(q)
        if nq is None:
            nq = self._n_mod[q] = self.n_target % q
        return nq

    def add(self, q: int, r: int, count: int = 1) -> None:
        """Assign residue r to q (count -1 takes the assignment back)."""
        nq = self.n_mod(q)
        for a in self.table.roots[q]:
            self.fwd[(r + a - self.fwd_lo) % q :: q] += count
            self.bwd[(a - nq - r - self.bwd_lo) % q :: q] += count

    def remove(self, q: int, r: int) -> None:
        self.add(q, r, -1)

    def survivors_fwd(self) -> np.ndarray:
        return np.flatnonzero(self.fwd == 0).astype(np.int64) + self.fwd_lo

    def survivors_bwd(self) -> np.ndarray:
        return np.flatnonzero(self.bwd == 0).astype(np.int64) + self.bwd_lo

    def best_residue(self, q: int) -> tuple[int, int, int]:
        """The residue for q hitting the most survivors on both sides jointly
        (ties to the smallest), with the forward and backward survivors it
        hits."""
        alphas = self.table.roots[q]
        sf = forward_class_scores(q, alphas, self.survivors_fwd())
        sb = backward_class_scores(q, alphas, self.survivors_bwd(), self.n_mod(q))
        r = int(np.argmax(sf + sb))
        return r, int(sf[r]), int(sb[r])


def select_shifts_greedy(
    primes: Iterable[int],
    survivors: SurvivorSet,
    table: RootTable,
    *,
    paired: SurvivorSet | None = None,
    n_target: int | None = None,
) -> CoverPlan:
    """Deterministic shift selection: primes in descending order, each takes
    the residue class covering the most not-yet-covered survivors (ties to
    the smallest residue).

    With `paired` (the backward survivors, which need the target sum) one
    certificate residue is scored against both windows jointly, since it
    kills on both sides; this is the construction default. Without it the
    backward window is empty and only forward survivors count.
    """
    if paired is not None and n_target is None:
        raise ValueError("backward coverage requires the target sum")
    plan = CoverPlan(mode="greedy")
    side = "fwd" if paired is None else "both"
    # one engine sweep that starts with only the small stage assigned
    state = CoverState.from_survivors(table, survivors, paired, n_target)
    for q in sorted(set(primes), reverse=True):
        if not table.roots[q]:
            continue
        r, cov_f, cov_b = state.best_residue(q)
        state.add(q, r)
        plan.choices.append(CoverChoice(q, side, r, r - q, cov_f, cov_b))
    plan.residual_fwd = state.survivors_fwd()
    plan.residual_bwd = state.survivors_bwd()
    return plan


def select_shifts_random(
    ladder: ScaleLadder,
    side: str,
    survivors: SurvivorSet | None,
    rng: np.random.Generator,
    params: SieveParams,
    table: RootTable,
) -> CoverPlan:
    """Sample one shift per bucket prime on the given side, uniformly over
    the shift range: the progression weight sigma2^(-count) is 1 for every
    shift, as sigma2 = 1 at every supported scale (the small-stage boundary
    z sits below H^M for every ladder scale). A prime is dropped and logged
    in the plan when the weight sum, here the size of the shift range,
    fails the factor-2 mass sanity check around (K+2)*y. Choices record how
    many of `survivors` (None: none counted) each progression covers.
    """
    if side not in ("fwd", "bwd"):
        raise ValueError("side must be fwd or bwd")
    if side == "bwd" and params.N_target is None:
        raise ValueError("backward selection requires the target sum")
    lo, hi = shift_range(params, side)
    n_range = hi - lo + 1
    expected_mass = (params.K + 2) * params.y
    plan = CoverPlan(mode="random")
    for scale in ladder.side_scales(side):
        for nu in sorted(scale.buckets):
            for q in scale.buckets[nu]:
                alphas = table.roots[q]
                if not (0.5 * expected_mass <= n_range <= 2.0 * expected_mass):
                    plan.dropped.append((q, "weight-sum out of window"))
                    continue
                n = int(rng.integers(lo, hi + 1))
                if side == "fwd":
                    r_cert = n % q
                else:
                    r_cert = (-params.N_target - n) % q
                covered = 0
                if survivors is not None:
                    h_max = int(params.K * scale.H)
                    for a in alphas:
                        for h in range(1, h_max + 1):
                            e = n + a + q * h if side == "fwd" else n + a - q * h
                            if survivors.contains(e):
                                covered += 1
                plan.choices.append(
                    CoverChoice(
                        q,
                        side,
                        r_cert,
                        n,
                        covered if side == "fwd" else 0,
                        covered if side == "bwd" else 0,
                    )
                )
    return plan


def refine_residues(
    table: RootTable,
    params: SieveParams,
    residues: dict[int, int],
    medium_primes: Sequence[int],
    n_target: int,
    sweeps: int = 2,
) -> dict[int, int]:
    """Local improvement on top of the greedy pass: re-pick each medium
    prime's residue against the survivors of everything else, holding the
    rest fixed. Every usable prime up to the largest medium prime must be
    assigned. Deterministic; returns a new residue map."""
    if sweeps <= 0:
        return dict(residues)
    out = dict(residues)
    state = CoverState.empty(table, params.y, n_target)
    for q in table.usable_between(0, max(medium_primes, default=0)):
        state.add(q, out[q])
    for _ in range(sweeps):
        for q in sorted(medium_primes, reverse=True):
            state.remove(q, out[q])
            out[q] = state.best_residue(q)[0]
            state.add(q, out[q])
    return out
