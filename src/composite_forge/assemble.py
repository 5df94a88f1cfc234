"""Certificate assembly: cleanup pairing, CRT combination, placement, and
the end-to-end construction pipeline.

A finished two-sided certificate fixes residues r_q for every usable prime
q <= x, determining b mod P(x) by the Chinese remainder theorem. Placement
picks the representative b1 of b in [-0.3N, -0.2N]; with b2 = -b1 the
windows I1 = [b2+1, b2+y] and I2 = [N-b2-y, N-b2-1] contain only integers n
where some certificate prime divides the polynomial value, so every value
is composite, and the centers satisfy n1 + n2 = N.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .cover import (
    CoverState,
    RetryBudgetError,
    SieveParams,
    backward_residues,
    build_ladder,
    refine_residues,
    sample_small_residue,
    select_shifts_greedy,
    select_shifts_random,
)
from .modroots import RootTable, build_root_table
from .poly import IntPolynomial, irreducibility_check
from .sievecore import sieve_survivors

CERT_VERSION = 1

# fixed stream labels so adding a stage never reshuffles another stage's draws
STREAM_SMALL = 1
STREAM_MEDIUM = 2
STREAM_SAMPLE = 5
STREAM_SIM = 7


def stage_rng(seed: int, label: int, *extra: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, label, *extra])))


class ConstructionError(RuntimeError):
    """Construction cannot proceed; diagnostics say why."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


def crt_combine(assignments: Mapping[int, int] | Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Combine per-prime residues into (b, modulus) with 0 <= b < modulus.

    Duplicate primes are a hard error; moduli must be pairwise coprime
    (primes, in practice).
    """
    items = sorted(assignments.items() if isinstance(assignments, Mapping) else assignments)
    seen: set[int] = set()
    b, modulus = 0, 1
    for q, r in items:
        if q in seen:
            raise ValueError(f"duplicate prime {q} in residue system")
        seen.add(q)
        t = ((r - b) * pow(modulus, -1, q)) % q
        b += modulus * t
        modulus *= q
    return b, modulus


def pairing_stage(
    residual_fwd: Iterable[int],
    residual_bwd: Iterable[int],
    table: RootTable,
    x: int,
    n_target: int,
) -> tuple[dict[int, int], dict[int, int]]:
    """Assign each leftover survivor its own large prime.

    Forward survivors a (offsets in [1, y]) pair with usable primes in
    (x/2, 3x/4] via r_q = a - alpha_1; backward survivors (offsets in
    [-y, -1]) pair with (3x/4, x] via r_q = -N - a + alpha_1. Primes in
    these ranges exceed y, so one congruence kills exactly its survivor
    within the window.
    """
    fwd = sorted(int(a) for a in residual_fwd)
    bwd = sorted(int(a) for a in residual_bwd)
    pool_f = table.usable_between(x / 2, 3 * x / 4)
    pool_b = table.usable_between(3 * x / 4, x)
    if len(fwd) > len(pool_f) or len(bwd) > len(pool_b):
        raise ConstructionError(
            "cleanup capacity exceeded; retry with another seed or larger x",
            {
                "residual_fwd": len(fwd),
                "capacity_fwd": len(pool_f),
                "residual_bwd": len(bwd),
                "capacity_bwd": len(pool_b),
            },
        )
    out_f: dict[int, int] = {}
    for a, q in zip(fwd, pool_f):
        alpha = table.roots[q][0]
        out_f[q] = (a - alpha) % q
    out_b: dict[int, int] = {}
    for a, q in zip(bwd, pool_b):
        alpha = table.roots[q][0]
        out_b[q] = (-n_target - a + alpha) % q
    return out_f, out_b


def auto_target(modulus: int) -> int:
    """Smallest power of ten N with modulus <= N^(1/3)."""
    need = modulus**3
    n = 1
    while n < need:
        n *= 10
    return n


@dataclass(frozen=True)
class Placement:
    N: int
    b1: int
    b2: int
    I1: tuple[int, int]
    I2: tuple[int, int]
    n1: int
    n2: int
    m: int

    def to_json(self) -> dict:
        return {
            "N": str(self.N),
            "b1": str(self.b1),
            "I1": [str(self.I1[0]), str(self.I1[1])],
            "I2": [str(self.I2[0]), str(self.I2[1])],
            "n1": str(self.n1),
            "n2": str(self.n2),
            "m": str(self.m),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Placement":
        n = int(obj["N"])
        b1 = int(obj["b1"])
        return cls(
            N=n,
            b1=b1,
            b2=-b1,
            I1=(int(obj["I1"][0]), int(obj["I1"][1])),
            I2=(int(obj["I2"][0]), int(obj["I2"][1])),
            n1=int(obj["n1"]),
            n2=int(obj["n2"]),
            m=int(obj["m"]),
        )


def place(b: int, modulus: int, n_target: int, y: int) -> Placement:
    """Pick the representative of b mod modulus inside [-0.3N, -0.2N]
    (smallest absolute value, i.e. the largest such integer) and derive the
    two windows and centers."""
    if modulus**3 > n_target:
        raise ConstructionError(
            "modulus exceeds N^(1/3); increase N or use the auto target",
            {"modulus_bits": modulus.bit_length(), "N": str(n_target)},
        )
    hi = -((n_target + 4) // 5)  # largest integer <= -N/5
    lo = -((3 * n_target) // 10)  # smallest integer >= -3N/10
    if hi - lo + 1 < modulus:
        raise ConstructionError(
            "placement window narrower than the modulus; increase N",
            {"window": hi - lo + 1, "modulus_bits": modulus.bit_length()},
        )
    b1 = hi - ((hi - b) % modulus)
    assert b1 >= lo
    b2 = -b1
    half = y // 2
    return Placement(
        N=n_target,
        b1=b1,
        b2=b2,
        I1=(b2 + 1, b2 + y),
        I2=(n_target - b2 - y, n_target - b2 - 1),
        n1=b2 + half,
        n2=n_target - b2 - half,
        m=half - 1,
    )


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


@dataclass
class ResidueCertificate:
    poly: IntPolynomial
    params: SieveParams
    seed: int
    stages: list[StageRecord]
    irreducibility: str
    placement: Placement | None
    version: int = CERT_VERSION

    def residues(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for st in self.stages:
            for q, r in st.assignments:
                if q in out:
                    raise ValueError(f"prime {q} assigned twice")
                out[q] = r
        return out

    def modulus(self) -> int:
        return math.prod(self.residues().keys())

    @property
    def p_x_bitlength(self) -> int:
        return self.modulus().bit_length()

    def b_mod(self) -> tuple[int, int]:
        return crt_combine(self.residues())

    def to_json_dict(self) -> dict:
        out = {
            "poly": self.poly.to_json(),
            "params": self.params.to_json(),
            "seed": self.seed,
            "stages": [st.to_json() for st in self.stages],
            "placement": self.placement.to_json() if self.placement else None,
            "irreducibility": self.irreducibility,
            "version": self.version,
        }
        return out

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_json_dict(), indent=2) + "\n").encode()

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ResidueCertificate":
        """Rebuild a certificate from parsed JSON. Input of the wrong shape
        (a list where an object belongs, a number where a list does, a
        missing field) raises ValueError."""
        try:
            placement = obj.get("placement")
            return cls(
                poly=IntPolynomial.from_json(obj["poly"]),
                params=SieveParams.from_json(
                    obj["params"],
                    n_target=int(placement["N"]) if placement else None,
                ),
                seed=int(obj["seed"]),
                stages=[
                    StageRecord(
                        st["stage"],
                        st["side"],
                        [(int(q), int(r)) for q, r in st["assignments"]],
                    )
                    for st in obj["stages"]
                ],
                irreducibility=obj["irreducibility"],
                placement=Placement.from_json(placement) if placement else None,
                version=int(obj["version"]),
            )
        except (AttributeError, IndexError, KeyError, OverflowError, TypeError) as e:
            raise ValueError(f"malformed certificate: {type(e).__name__}: {e}") from e

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_json_bytes())

    @classmethod
    def load(cls, path: str) -> "ResidueCertificate":
        with open(path, "rb") as fh:
            return cls.from_json_dict(json.loads(fh.read().decode()))


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
        return [
            self.stage,
            self.side,
            self.primes_used,
            self.survivors_before,
            self.survivors_after,
            "" if self.capacity is None else self.capacity,
            self.seed,
        ]


STATS_HEADER = ["stage", "side", "primes_used", "survivors_before", "survivors_after", "capacity", "seed"]


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
    two_sided: bool = True,
    mode: str = "greedy",
    n_target: int | None = None,
    sweeps: int = 2,
    cache_dir: str | None = None,
    assert_irreducible: bool = False,
    threshold_factor: float = 2.0,
) -> tuple[ResidueCertificate, ConstructionStats]:
    """Run the full staged sieve and emit a certificate.

    The window length y starts at the parameter formula and, when the prime
    budget cannot cover that window, bisects to a feasible length (never
    below 8). Each length draws its own random stream, so feasibility is not
    monotone in y and the length found need not be the largest feasible one.
    stats.extras["attempts"] records the outcome of every length tried.
    Raises ConstructionError when even the smallest window fails or the
    target N is too small for the prime modulus.
    """
    if mode not in ("greedy", "random"):
        raise ValueError("mode must be greedy or random")
    verdict = irreducibility_check(f, assert_irreducible=assert_irreducible)
    if verdict == "fail":
        raise ConstructionError(
            "polynomial is reducible (or could not be certified); "
            "pass the assertion flag only for polynomials known irreducible",
            {"irreducibility": verdict},
        )
    x = params.x
    table = build_root_table(f, x, cache_dir=cache_dir)
    usable = table.usable_primes()
    if not usable:
        raise ConstructionError("no usable primes below x", {"x": x})
    modulus = math.prod(usable)
    target = auto_target(modulus) if n_target is None else int(n_target)
    if modulus**3 > target:
        raise ConstructionError(
            "explicit N is smaller than modulus^3; use --n-mode auto or raise N",
            {"modulus_bits": modulus.bit_length()},
        )
    base = params.with_target(target)
    cap_f = len(table.usable_between(x / 2, 3 * x / 4))
    cap_b = len(table.usable_between(3 * x / 4, x))
    attempts: list[dict] = []  # one outcome record per window length tried

    def record(y: int, outcome: str, res_f=None, res_b=None) -> None:
        attempts.append(
            {
                "y": y,
                "outcome": outcome,
                "residual_fwd": None if res_f is None else len(res_f),
                "residual_bwd": None if res_b is None else len(res_b),
            }
        )

    def attempt(y: int):
        p = base.with_y(y)
        z = p.z
        try:
            residues, fwd0, bwd0, rejections = sample_small_residue(
                p, table, stage_rng(seed, STREAM_SMALL, y), two_sided, threshold_factor
            )
        except RetryBudgetError:
            record(y, "small_retry_budget")
            return None
        med = table.usable_between(z, x / 2)
        stats_rows = [
            StageStats("small", "fwd", len(residues), y, fwd0.count(), None, seed),
        ]
        if two_sided:
            stats_rows.append(
                StageStats("small", "bwd", len(residues), y, bwd0.count(), None, seed)
            )
        if mode == "greedy":
            plan = select_shifts_greedy(med, fwd0, table, paired=bwd0, n_target=target)
            assignment = dict(residues)
            assignment.update(plan.residues())
            if sweeps > 0 and med:
                assignment = refine_residues(table, p, assignment, med, target, sweeps)
        else:
            ladder = build_ladder(p, table)
            rng_med = stage_rng(seed, STREAM_MEDIUM, y)
            plan_f = select_shifts_random(ladder, "fwd", fwd0, rng_med, p, table)
            assignment = dict(residues)
            assignment.update(plan_f.residues())
            if two_sided:
                plan_b = select_shifts_random(ladder, "bwd", bwd0, rng_med, p, table)
                assignment.update(plan_b.residues())
        assigned_med = [q for q in med if q in assignment]
        # post-medium residuals: the small-stage survivors less every class
        # the medium stage assigned (one-sided: an empty backward window)
        state = CoverState.from_survivors(table, fwd0, bwd0, target)
        for q in assigned_med:
            state.add(q, assignment[q])
        res_f, res_b = state.survivors_fwd(), state.survivors_bwd()
        stats_rows.append(
            StageStats("medium", "fwd", len(assigned_med), fwd0.count(), len(res_f), cap_f, seed)
        )
        if two_sided:
            stats_rows.append(
                StageStats("medium", "bwd", len(assigned_med), bwd0.count(), len(res_b), cap_b, seed)
            )
        if len(res_f) > cap_f or (two_sided and len(res_b) > cap_b):
            record(y, "residual_over_capacity", res_f, res_b)
            return None
        try:
            pairs_f, pairs_b = pairing_stage(res_f, res_b, table, x, target)
        except ConstructionError:
            record(y, "pairing_failed", res_f, res_b)
            return None
        record(y, "ok", res_f, res_b)
        stats_rows.append(StageStats("cleanup", "fwd", len(pairs_f), len(res_f), 0, cap_f, seed))
        if two_sided:
            stats_rows.append(StageStats("cleanup", "bwd", len(pairs_b), len(res_b), 0, cap_b, seed))
        return {
            "y": y,
            "params": p,
            "small": residues,
            "medium": {q: assignment[q] for q in assigned_med},
            "cleanup_fwd": pairs_f,
            "cleanup_bwd": pairs_b,
            "rejections": rejections,
            "stats_rows": stats_rows,
            "residuals": (len(res_f), len(res_b)),
        }

    y_formula = base.y
    best = attempt(y_formula)
    achieved_y = y_formula
    if best is None:
        lo, hi = 8, y_formula - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            got = attempt(mid)
            if got is not None:
                best, achieved_y = got, mid
                lo = mid + 1
            else:
                hi = mid - 1
    if best is None:
        raise ConstructionError(
            "no feasible window length down to y = 8; x is too small for this polynomial",
            {"x": x, "y_formula": y_formula, "capacity_fwd": cap_f, "capacity_bwd": cap_b},
        )

    p_final: SieveParams = best["params"]
    assigned = dict(best["small"])
    assigned.update(best["medium"])
    assigned.update(best["cleanup_fwd"])
    assigned.update(best["cleanup_bwd"])
    fills = {q: 0 for q in usable if q not in assigned}
    full = dict(assigned)
    full.update(fills)

    # the whole point: no offset in either window survives the full system
    final_f = sieve_survivors(table, full, (1, achieved_y), (0, x))
    assert final_f.count() == 0, "internal error: forward window not fully covered"
    if two_sided:
        final_b = sieve_survivors(
            table, backward_residues(full, target), (-achieved_y, -1), (0, x)
        )
        assert final_b.count() == 0, "internal error: backward window not fully covered"

    stages = [
        StageRecord("small", "both" if two_sided else "fwd", sorted(best["small"].items())),
        StageRecord(
            "medium",
            "both" if (two_sided and mode == "greedy") else "fwd",
            sorted(best["medium"].items()),
        ),
        StageRecord("cleanup", "fwd", sorted(best["cleanup_fwd"].items())),
    ]
    if two_sided:
        stages.append(StageRecord("cleanup", "bwd", sorted(best["cleanup_bwd"].items())))
    if fills:
        stages.append(StageRecord("cleanup", "both", sorted(fills.items())))

    b, p_x = crt_combine(full)
    placement = place(b, p_x, target, achieved_y) if two_sided else None
    cert = ResidueCertificate(
        poly=f,
        params=p_final,
        seed=seed,
        stages=stages,
        irreducibility=verdict,
        placement=placement,
    )
    stats = ConstructionStats(rows=best["stats_rows"])
    m_achieved = achieved_y // 2 - 1
    m_formula = _theorem_window_center_radius(target, p_final.delta)
    stats.extras.update(
        {
            "achieved_y": achieved_y,
            "formula_y": y_formula,
            "rejections": best["rejections"],
            "residual_fwd": best["residuals"][0],
            "residual_bwd": best["residuals"][1],
            "capacity_fwd": cap_f,
            "capacity_bwd": cap_b,
            "m_achieved": m_achieved,
            "m_formula": m_formula,
            "m_larger": "achieved" if m_achieved >= m_formula else "formula",
            "n_digits": len(str(target)),
            "modulus_bits": p_x.bit_length(),
            "fills": len(fills),
            "mode": mode,
            "attempts": attempts,
        }
    )
    return cert, stats
