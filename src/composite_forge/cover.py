"""Staged residue selection: parameters, small-prime sampling, and greedy
medium-prime residue selection.

SieveParams holds the construction parameters a certificate stores (x,
delta and y) and is the one place their ranges are checked, so a stored
value out of range does not load.

The sieve covers two offset windows, forward [1, y] and backward [-y, -1].
A certificate residue r_q kills forward offsets j = r_q + alpha (mod q) and
backward offsets j = alpha - N - r_q (mod q), where N is the target sum. So
the sieve needs N only mod each sieving prime: every stage that touches the
backward window takes the map q -> N mod q (target_residues), which a
construction builds once, and N in full enters only at placement.
The medium stage scores residue classes directly, in one ascending pass
over the medium primes. Each window-length attempt builds one CoverState
from its small-stage survivors: the sorted offsets of both windows that no
class assigned so far kills. The medium stage assigns its primes on it
through CoverState.assign, its arrays are the post-medium residuals, and
the stage hands back a plain q -> residue map. assign walks the primes in
blocks of consecutive primes, and a prime that fits no larger block is a
block of one: a block computes the class keys of all its primes over the
survivors of both windows at once, scores its first prime by one bincount
of its keys and each later one by a bincount weighted by the survivors
still live, and the survivors are compacted once per block.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .gfpoly import ROW_PRIME_BOUND
from .modroots import RootTable, Rows
from .sievecore import SurvivorSet, sieve_survivors


class RetryBudgetError(RuntimeError):
    """Residue sampling failed the survivor-count bound too many times."""


def json_int(value) -> int:
    """A JSON integer field of a certificate; a bool, float or string raises ValueError."""
    if type(value) is not int:
        raise ValueError(f"expected a JSON integer, got {value!r:.40}")
    return value


def json_number(value) -> float:
    """A JSON number field of a certificate; a bool, a string or an integer
    beyond float range raises ValueError."""
    if type(value) not in (int, float):
        raise ValueError(f"expected a JSON number, got {value!r:.40}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"expected a JSON number within float range, got {value!r:.40}") from None


@dataclass(frozen=True)
class SieveParams:
    """Construction parameters and their derived window sizes, and the one
    place their ranges are checked.

    x is the prime bound, at least 8 and below ROW_PRIME_BOUND (2^31), the
    root kernel's bound; y is the window length, floor(x * (log x)^delta)
    unless overridden, and lies in [1, formula y]. Each is refused here
    before anything is sized by it, x before any float math on it, so a
    certificate storing one out of range does not load. The staging
    boundary z separating the randomized small stage from the medium stage
    is isqrt(y). The paper's boundary y * loglog(x) / sqrt(log x) is at
    least 0.507 y for every x in [8, 2^31), so isqrt(y) is the smaller at
    every y >= 2; at y = 1 the formula gives 0 and isqrt 1, and neither
    selects a small prime.
    """

    x: int
    delta: float = 0.5
    retry_budget: int = 64
    y_override: int | None = None

    def __post_init__(self):
        if self.x < 8:
            raise ValueError("x must be at least 8")
        if self.x >= ROW_PRIME_BOUND:
            raise ValueError(f"x must stay below {ROW_PRIME_BOUND}, the root kernel's bound")
        if not (1e-6 < self.delta <= 0.5):
            raise ValueError("delta must lie in (1e-6, 0.5]")
        if not 1 <= self.y <= self.y_formula:
            raise ValueError(
                f"window length y = {self.y} outside [1, formula length {self.y_formula}]"
            )
        if self.retry_budget < 0:
            raise ValueError("retry budget must be nonnegative")

    @property
    def y_formula(self) -> int:
        return int(self.x * math.log(self.x) ** self.delta)

    @property
    def y(self) -> int:
        return self.y_formula if self.y_override is None else self.y_override

    @property
    def z(self) -> int:
        return math.isqrt(self.y)

    def with_y(self, y: int) -> "SieveParams":
        return replace(self, y_override=int(y))

    def to_json(self) -> dict:
        return {"x": self.x, "delta": self.delta, "y": self.y}

    @classmethod
    def from_json(cls, obj: dict) -> "SieveParams":
        return cls(
            x=json_int(obj["x"]),
            delta=json_number(obj["delta"]),
            y_override=json_int(obj["y"]),
        )


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
    small = table.rows(0, z)[0]
    bound = 2.0 * table.density_product(z) * y
    rejections = 0
    for _ in range(params.retry_budget):
        # one draw per prime, uniform below it, in one call
        residues = dict(zip(small.tolist(), rng.integers(small).tolist()))
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
    digits) once, down the table's product tree of its usable primes
    (RootTable.usable_tree, which also gives the construction its modulus
    and its CRT), and every stage of every attempt reads the map."""
    tree = table.usable_tree
    return dict(zip(tree.moduli, tree.remainders(n_target)))


# CoverState keeps its survivors as int32 while every class key fits: the
# largest |offset| of its windows plus the table's prime limit stays below
# this bound. Halving the element width roughly halves the key arithmetic.
NARROW_KEY_BOUND = 2**31

# The block pass of CoverState.assign: a block takes consecutive primes
# while their root rows times the survivors left stay within BLOCK_KEYS,
# and holds at least BLOCK_MIN_PRIMES of them (or every prime left); a
# prime with fewer fitting is a block of one. A longer block saves the
# fixed cost of the numpy calls that each block pays for its keys and its
# compaction, but weighs, up to its last prime, every survivor it started
# with, and a root count above 1 makes its kill mask a reduction over rows
# and its live mask that many rows deep. A block of one makes no live mask
# at all. Timed on numpy 2.4 (2-vCPU x86 host), in-process, alternating
# with a pass that assigns one prime at a time, on the cover states of
# every attempt of seed-7 constructions of f = x, x^2+1 and x^3+2: 65,536
# keys and 12 primes took 0.63-0.80 of the one-prime pass's time at
# x = 300 to 3000, 0.73-0.91 at 10^4 and 0.86-0.89 (f = x) and 0.98-1.01
# (x^2+1, x^3+2) at 3 * 10^4, where most primes are blocks of one; 16,384
# keys and 6 primes took 0.84-0.94 at 10^4 and 0.98-1.15 at 3 * 10^4.
# Timed per prime on synthetic states, a block of 6 or more f = x primes
# was the cheaper at 1,000 to 8,000 survivors, while x^2+1 and x^3+2
# blocks were cheaper only to about 2,000 survivors.
BLOCK_KEYS = 65536
BLOCK_MIN_PRIMES = 12

# Key-row length from which keys are reduced mod q as k - (k // q) * q
# rather than k % q: numpy divides by a scalar with a multiply and a shift
# but takes % element by element, so the three-call form wins on long rows
# and loses on short ones by its extra fixed cost. Measured on numpy 2.4
# (2-vCPU x86 host, in-place, int32 and int64) the two cross near
# 1,000-1,200 keys; at 30,000 int32 keys the floor form takes 33 us against
# 106 us. A block takes % by its column of primes for rows shorter than
# this and the floor form prime by prime, with the scalar q over that
# prime's rows, from there on.
FLOOR_DIV_KEYS = 1024


class CoverState:
    """The surviving offsets of the forward and backward windows.

    fwd and bwd are the sorted absolute offsets that no class assigned so
    far kills. One window-length attempt builds one state from its
    small-stage survivor sets, whose offsets it narrows to its key dtype;
    the medium stage assigns its classes on it, and its arrays are the
    residuals. n_mod is the map q -> N mod q (see target_residues), read
    only while backward survivors remain. Both arrays are int32 when the
    largest |offset| of the windows plus the table's limit is below
    NARROW_KEY_BOUND = 2^31, so that every class key fits, and int64
    otherwise.

    Residue r of q kills forward survivor o when r = o - alpha and backward
    survivor o when r = alpha - N - o (mod q), for a root alpha: these are
    the survivor's class keys, one per root. assign takes its primes as
    rows of the root table (RootTable.rows: the primes, their root counts
    and their roots, so the root column of every block is a slice of the
    table's roots) and walks them in blocks of consecutive primes (see
    BLOCK_KEYS); a prime that fits no larger block is a block of one. A
    block computes the keys of all its primes at once, one row per root, by
    one broadcast subtract per window and a reduction mod q: by the column
    of primes on short rows, prime by prime with the scalar q from
    FLOOR_DIV_KEYS keys on. The block's first
    prime scores by one unweighted bincount of its rows, since every
    survivor is still live, and argmax; a compare of its rows with the
    chosen residue (and a reduction over them when there are several) marks
    the survivors it keeps. Each later prime takes four numpy calls: a
    bincount weighted by a live mask (a survivor killed earlier in the block
    weighs 0), argmax, the compare, and a copyto that clears the survivors
    it kills in the mask. The counts are exact integers, so ties go to the
    smallest residue. The arrays are compacted once per block.
    """

    def __init__(self, table: RootTable, fwd: SurvivorSet, bwd: SurvivorSet,
                 n_mod: Mapping[int, int]):
        self.n_mod = n_mod
        reach = max(abs(fwd.lo), abs(fwd.hi), abs(bwd.lo), abs(bwd.hi)) + table.limit
        # a class key o - alpha or alpha - N - o lies within reach of 0
        dtype = np.int32 if reach < NARROW_KEY_BOUND else np.int64
        self.fwd = fwd.offsets.astype(dtype)
        self.bwd = bwd.offsets.astype(dtype)

    def assign(self, rows: Rows) -> dict[int, int]:
        """Assign each prime of rows (primes, root counts and roots, as
        RootTable.rows gives them), in order, the residue killing the most
        survivors left on both sides jointly (ties to the smallest), and
        drop the survivors it kills. Returns q -> residue. Once no survivor
        is left every residue is 0, what a bincount of no keys gives."""
        q, k, roots = rows
        primes, nus = q.tolist(), k.tolist()
        ends = list(itertools.accumulate(nus))  # one past each prime's last row
        cols = self._columns(primes, nus, roots)
        residues: list[int] = []
        i, n = 0, len(primes)
        while i < n and (self.fwd.size or self.bwd.size):
            j = self._block_end(ends, i)
            residues += self._block(primes[i:j], nus[i:j], cols[:, ends[i] - nus[i]:ends[j - 1]])
            i = j
        return dict(zip(primes, residues + [0] * (n - i)))

    def _columns(self, primes: list[int], nus: list[int], roots: np.ndarray) -> np.ndarray:
        """One row per (prime, root) of primes, in order, and three columns:
        the root alpha, the prime and the backward key's constant alpha - N
        (N mod q read only when backward survivors remain); shape
        (3, rows, 1)."""
        n_mod = [self.n_mod[q] for q in primes] if self.bwd.size else [0] * len(primes)
        cols = np.empty((3, len(roots), 1), self.fwd.dtype)
        cols[0, :, 0] = roots
        cols[1:, :, 0] = np.repeat(np.array([primes, n_mod], cols.dtype), nus, axis=1)
        cols[2] = cols[0] - cols[2]
        return cols

    def _block_end(self, ends: list[int], i: int) -> int:
        """One past the last prime of the block that starts at prime i (ends:
        one past each prime's last row): the primes whose rows, times the
        survivors left, fit BLOCK_KEYS, or prime i alone, a block of one,
        when fewer than BLOCK_MIN_PRIMES of them fit, unless they are all
        the primes left."""
        row0 = ends[i - 1] if i else 0
        j = bisect.bisect_right(ends, row0 + BLOCK_KEYS // (self.fwd.size + self.bwd.size), i)
        return j if j - i >= min(BLOCK_MIN_PRIMES, len(ends) - i) else i + 1

    def _block(self, primes: list[int], nus: list[int], cols: np.ndarray) -> list[int]:
        """Assign a block of primes (see the class docstring) from its row
        columns (see _columns), scoring their residues, and compact the
        survivor arrays once; returns the residues in order."""
        fwd, bwd = self.fwd, self.bwd
        nf = fwd.size
        keys = np.empty((cols.shape[1], nf + bwd.size), dtype=fwd.dtype)
        np.subtract(fwd, cols[0], out=keys[:, :nf])
        np.subtract(cols[2], bwd, out=keys[:, nf:])
        if keys.shape[1] < FLOOR_DIV_KEYS:
            np.remainder(keys, cols[1], out=keys)
        else:
            row = 0
            for q, nu in zip(primes, nus):
                k = keys[row:row + nu]
                k -= k // q * q
                row += nu
        # the first prime finds every survivor live and counts its keys
        # unweighted; a survivor stays when none of its keys is the residue
        q, row = primes[0], nus[0]
        if row == 1:
            k = keys[0]
            r = int(np.bincount(k, minlength=q).argmax())
            keep = k != r
        else:
            k = keys[:row]
            r = int(np.bincount(k.ravel(), minlength=q).argmax())
            keep = np.logical_and.reduce(k != r)
        residues = [r]
        if len(primes) > 1:
            # 1 for a survivor no prime of the block has killed yet, in
            # identical rows, so that the first nu of them weigh nu key rows
            live = np.empty((max(1, *nus[1:]), keys.shape[1]))
            live[:] = keep
            for q, nu in zip(primes[1:], nus[1:]):
                if nu == 1:
                    k = keys[row]
                    r = int(np.bincount(k, live[0], q).argmax())
                    hit = k == r
                else:
                    k = keys[row:row + nu]
                    r = int(np.bincount(k.ravel(), live[:nu].ravel(), q).argmax())
                    hit = np.logical_or.reduce(k == r)
                np.copyto(live, 0, where=hit)
                row += nu
                residues.append(r)
            keep = live[0] > 0
        self.fwd = fwd[keep[:nf]]
        self.bwd = bwd[keep[nf:]]
        return residues


def select_shifts_greedy(state: CoverState, rows: Rows) -> dict[int, int]:
    """The medium stage, Rankin's order (Rankin 1938; Ford, Green, Konyagin,
    Maynard and Tao 2018 for f(n) = n): state.assign(rows), where each prime
    of rows takes the residue class covering the most survivors left in both
    windows jointly. The name stays only because the benchmark harness (bench/harness.py) wraps
    it to time the stage; step 2 of ROADMAP item 1, which rebuilds the
    benchmark on traces, deletes it along with that wrapper."""
    return state.assign(rows)
