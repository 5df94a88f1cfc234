"""Workloads, measurement and output checks of the composite-forge benchmark.

One process, one thread. A run repeats passes over its workload until the
requested seconds have elapsed, and always makes at least two passes, so
that every certificate is constructed twice and compared byte for byte.
One pass constructs and saves each case, then loads and verifies it fast
(repeated) and deep, then builds the workload's root tables cold into a
fresh cache directory and reads them back warm. End-to-end metrics are
medians over the untraced passes; a traced run alternates untraced and
traced passes and reports per-layer metrics from the traced ones.

See bench/README.md for the metric table and why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from composite_forge import assemble, cover, gfpoly, modroots, verify
from composite_forge.assemble import ResidueCertificate
from composite_forge.cover import SieveParams
from composite_forge.poly import parse_poly_literal

from tracing import END, NAME, N, OK, PASS, PHASE, START, Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = BENCH / "results"

POLYS = {"x": "poly:[0,1]", "x^2+1": "poly:[1,0,1]", "x^3+2": "poly:[2,0,0,1]"}

# name -> (unit, which direction is better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "construct_s": ("s", "lower"),
    "verify_fast_s": ("s", "lower"),
    "verify_deep_s": ("s", "lower"),
    "stats_s": ("s", "lower"),
    "stats_cached_s": ("s", "lower"),
    "y_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "assemble.attempts": ("count", "lower"),
    "assemble.attempts_feasible": ("count", "higher"),
    "assemble.attempt_yield": ("ratio", "higher"),
    "assemble.crt_place_s": ("s", "lower"),
    "assemble.serialize_s": ("s", "lower"),
    "assemble.load_s": ("s", "lower"),
    "assemble.self_s": ("s", "lower"),
    "cover.refine_residues.s": ("s", "lower"),
    "cover.select_shifts_greedy.s": ("s", "lower"),
    "cover.backward_residues.s": ("s", "lower"),
    "cover.backward_residues.calls": ("count", "lower"),
    "cover.sample_small_residue.s": ("s", "lower"),
    "cover.small_rejections": ("count", "lower"),
    "sievecore.sieve_survivors.s": ("s", "lower"),
    "sievecore.sieve_survivors.calls": ("count", "lower"),
    "sievecore.sieve_survivors.positions": ("count", "lower"),
    "modroots.build_root_table.s": ("s", "lower"),
    "modroots.build_root_table.cached_s": ("s", "lower"),
    "modroots.build_root_table.primes": ("count", "lower"),
    "verify.build_root_table.s": ("s", "lower"),
    "gfpoly.gf_powmod.calls": ("count", "lower"),
    "gfpoly.gf_powmod.s": ("s", "lower"),
    "verify.find_witness.s": ("s", "lower"),
    "verify.find_witness.calls": ("count", "lower"),
    "verify.companion_eval_mod.calls": ("count", "lower"),
    "verify.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
# counts that must repeat exactly for a given seed, so changes may cite them
REPEATABLE_COUNTS = (
    "assemble.attempts",
    "sievecore.sieve_survivors.calls",
    "sievecore.sieve_survivors.positions",
    "verify.find_witness.calls",
    "gfpoly.gf_powmod.calls",
)

FAST_REPS = 9  # fast verification is milliseconds; its median over repeats is steady
SETUP_REPS = 5
# Yardstick time on the reference machine (a 2-vCPU Xeon VM, Python 3.11,
# numpy 2.4) in its fast state. Reported times are scaled to that speed;
# see yardstick().
YARDSTICK_REF_S = 0.013
YARDSTICK_REPS = 3
CLI_CASE = ("x^2+1", 300)  # also constructed through `composite-forge construct`


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: tuple[tuple[str, int], ...]  # (poly, x): construct, save, load, verify
    grid: tuple[tuple[str, int], ...]  # (poly, x): root table built cold, then read warm
    stats_reps: int  # cold/warm repeats per pass, reported as medians
    deep_reps: int  # deep verifications per case and pass, reported as medians


def _cases(xs) -> tuple[tuple[str, int], ...]:
    return tuple((f, x) for x in xs for f in POLYS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "construct-small",
            "N of at most 1.2k digits and 12-13 window-length attempts per case, "
            "so per-attempt and per-call fixed costs weigh most",
            _cases((300, 1000)),
            _cases((10**4,)),
            stats_reps=5,
            deep_reps=3,
        ),
        Workload(
            "construct-large",
            "N of 1.9k-3.8k digits: refinement, backward residues and the deep "
            "verifier's witness loop dominate; x=3000 is below the x=3400 crash",
            _cases((3000,)),
            _cases((3 * 10**4,)),
            stats_reps=5,
            deep_reps=1,
        ),
        Workload(
            "roots",
            "root tables up to x=1e6 built cold into a fresh cache and read back "
            "warm: modroots, gfpoly and primes do the work",
            (("x^2+1", 1000), ("x^3+2", 1000)),
            (
                ("x^2+1", 10**4),
                ("x^2+1", 10**5),
                ("x^2+1", 10**6),
                ("x^3+2", 10**4),
                ("x^3+2", 10**5),
            ),
            stats_reps=1,
            deep_reps=3,
        ),
    )
}


def case_id(case: tuple[str, int]) -> str:
    return f"{case[0]}@{case[1]}"


def _primes(args, kwargs, table) -> int:
    return len(table.primes)


def install_tracing(tr: Tracer) -> None:
    """Wrap each layer's functions where the library looks them up."""
    tr.patch(
        assemble,
        "sample_small_residue",
        "cover.sample_small_residue",
        work=lambda a, k, r: r[3],
        work_on_error=lambda a, k: a[0].retry_budget,
    )
    tr.patch(assemble, "select_shifts_greedy", "cover.select_shifts_greedy")
    tr.patch(assemble, "refine_residues", "cover.refine_residues")
    for mod in (assemble, cover):
        tr.patch(mod, "backward_residues", "cover.backward_residues")
    for mod in (assemble, cover, verify):
        tr.patch(mod, "sieve_survivors", "sievecore.sieve_survivors",
                 work=lambda a, k, r: r.hi - r.lo + 1)
    tr.patch(assemble, "pairing_stage", "assemble.pairing_stage")
    tr.patch(assemble, "crt_combine", "assemble.crt_combine")
    tr.patch(assemble, "place", "assemble.place")
    for mod in (assemble, modroots):
        tr.patch(mod, "build_root_table", "modroots.build_root_table", work=_primes)
    tr.patch(verify, "build_root_table", "verify.build_root_table", work=_primes)
    for mod in (modroots, gfpoly):
        tr.patch(mod, "gf_powmod", "gfpoly.gf_powmod")
    tr.patch(verify, "find_witness", "verify.find_witness")
    tr.count_calls(verify, "companion_eval_mod", "verify.companion_eval_mod")


def layer_metrics(tr: Tracer, pass_no: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without the overhead pair)."""
    tot: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    work: Counter = Counter()
    oks: Counter = Counter()
    for s, self_s in zip(tr.spans, self_times(tr.spans)):
        if s[PASS] != pass_no:
            continue
        name = s[NAME]
        if name == "modroots.build_root_table" and s[PHASE] == "stats_cached_s":
            name += ".cached"
        tot[name] += s[END] - s[START]
        own[name] += self_s
        calls[name] += 1
        work[name] += s[N]
        oks[name] += s[OK]
    attempts = calls["cover.sample_small_residue"]
    feasible = oks["assemble.pairing_stage"]
    return {
        "assemble.attempts": attempts,
        "assemble.attempts_feasible": feasible,
        "assemble.attempt_yield": feasible / attempts if attempts else 0.0,
        "assemble.crt_place_s": tot["assemble.crt_combine"] + tot["assemble.place"],
        "assemble.serialize_s": tot["assemble.serialize"],
        "assemble.load_s": tot["assemble.load"],
        "assemble.self_s": own["assemble.construct_certificate"],
        "cover.refine_residues.s": tot["cover.refine_residues"],
        "cover.select_shifts_greedy.s": tot["cover.select_shifts_greedy"],
        "cover.backward_residues.s": tot["cover.backward_residues"],
        "cover.backward_residues.calls": calls["cover.backward_residues"],
        "cover.sample_small_residue.s": tot["cover.sample_small_residue"],
        "cover.small_rejections": work["cover.sample_small_residue"],
        "sievecore.sieve_survivors.s": tot["sievecore.sieve_survivors"],
        "sievecore.sieve_survivors.calls": calls["sievecore.sieve_survivors"],
        "sievecore.sieve_survivors.positions": work["sievecore.sieve_survivors"],
        "modroots.build_root_table.s": tot["modroots.build_root_table"],
        "modroots.build_root_table.cached_s": tot["modroots.build_root_table.cached"],
        "modroots.build_root_table.primes": work["modroots.build_root_table"],
        "verify.build_root_table.s": tot["verify.build_root_table"],
        "gfpoly.gf_powmod.calls": calls["gfpoly.gf_powmod"],
        "gfpoly.gf_powmod.s": tot["gfpoly.gf_powmod"],
        "verify.find_witness.s": tot["verify.find_witness"],
        "verify.find_witness.calls": calls["verify.find_witness"],
        "verify.companion_eval_mod.calls": tr.counts[(pass_no, "verify.companion_eval_mod")],
        "verify.self_s": own["verify.verify_certificate"],
    }


def trace_shape(tr: Tracer, passes: list[int]) -> dict:
    """Where the time goes in the traced passes: self time per span and per
    layer in the construct phase (means per pass), and the shares that name
    what dominates deep verification and the cold stats pass."""
    chosen = set(passes)
    by_span: dict[str, float] = defaultdict(float)
    phase_total: dict[str, float] = defaultdict(float)
    inside: dict[tuple[str, str], float] = defaultdict(float)
    for s, self_s in zip(tr.spans, self_times(tr.spans)):
        if s[PASS] not in chosen:
            continue
        dur = s[END] - s[START]
        if s[NAME] == s[PHASE]:
            phase_total[s[PHASE]] += dur
            continue
        inside[(s[PHASE], s[NAME])] += dur
        if s[PHASE] == "construct_s":
            by_span[s[NAME]] += self_s / len(chosen)
    by_layer: dict[str, float] = defaultdict(float)
    for name, t in by_span.items():
        by_layer[name.split(".")[0]] += t

    def share(phase: str, name: str) -> float:
        total = phase_total[phase]
        return inside[(phase, name)] / total if total else 0.0

    def ranked(d: dict[str, float]) -> list[list]:
        return [[k, v] for k, v in sorted(d.items(), key=lambda kv: -kv[1])]

    return {
        "construct_self_s_by_span": ranked(by_span),
        "construct_self_s_by_layer": ranked(by_layer),
        "find_witness_share_of_verify_deep": share("verify_deep_s", "verify.find_witness"),
        "build_root_table_share_of_stats": share("stats_s", "modroots.build_root_table"),
    }


def measure_setup(wl: Workload) -> float:
    """Median wall time of a fresh interpreter that imports composite_forge
    and parses the workload's inputs."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import composite_forge as cf\n"
        "for p, x in zip(sys.argv[2::2], sys.argv[3::2]):\n"
        "    cf.parse_poly_literal(p); cf.SieveParams(x=int(x))\n"
    )
    argv = [sys.executable, "-c", code, str(SRC)]
    for f, x in wl.cases + wl.grid:
        argv += [POLYS[f], str(x)]
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        # wait() without a timeout blocks in waitpid; with one it polls in
        # sleeps of up to 50 ms, which would round the measurement
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        if proc.wait():
            raise subprocess.CalledProcessError(proc.returncode, argv)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _poly_mulmod(a: tuple, b: tuple, p: int) -> tuple:
    """a * b mod (X^3 + 2, p): the shape of work root finding does."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) > 3:
        c = out.pop()
        out[len(out) - 3] = (out[len(out) - 3] - 2 * c) % p
    return tuple(out)


def yardstick() -> float:
    """Seconds taken by a fixed mix of work like composite_forge's, done by
    code of the benchmark's own.

    The host this benchmark was built on switches between a fast and a slow
    state that lasts tens of seconds; in the slow state pure-Python object
    work runs up to 1.7x slower and big-integer reductions about 1.25x.
    The mix holds both kinds: polynomial powers over prime fields, big-integer
    reductions by small primes, and numpy strided sieving driven from a
    Python loop. Samples taken before and after each timed block measure the
    state while it ran, and the block's time is scaled by YARDSTICK_REF_S
    over their median. A change to composite_forge does not move the
    yardstick.
    """
    t0 = time.perf_counter()
    acc = 0
    for p in range(1009, 1200, 2):
        base, r, e = (0, 1), (1,), p
        while e:
            if e & 1:
                r = _poly_mulmod(r, base, p)
            base = _poly_mulmod(base, base, p)
            e >>= 1
        acc += r[0]
    big = 10**3000 + 7
    residues = {q: (-big - q) % q for q in range(1001, 6001, 2)}
    acc += sum(residues.values()) % 7
    for _ in range(10):
        bits = np.ones(8192, dtype=bool)
        for q in range(11, 1500, 2):
            bits[q % 7 :: q] = False
        acc += int(np.count_nonzero(bits))
    return time.perf_counter() - t0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class BenchRun:
    """State of one benchmark run: inputs, checks, per-pass measurements."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        self.wl = wl
        self.seed = seed
        self.dir = workdir
        self.inputs = {
            c: (parse_poly_literal(POLYS[c[0]]), SieveParams(x=c[1]))
            for c in wl.cases + wl.grid + (CLI_CASE,)
        }
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.stats_ref: dict[str, object] = {}
        self.passes: list[dict] = []
        self.yardsticks: list[float] = []

    def calibrate(self) -> list[float]:
        got = [yardstick() for _ in range(YARDSTICK_REPS)]
        self.yardsticks += got
        return got

    def expect(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a failed one is reported on stderr."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: FAILED: {what}", file=sys.stderr)
        return ok

    def _same_bytes(self, cid: str, data: bytes, how: str) -> None:
        digest = _sha(data)
        first = self.digests.setdefault(cid, digest)
        self.expect(first == digest, f"{cid}: {how} certificate differs from the first construction")

    @contextmanager
    def _timed(self, metric: str):
        """Time a block and trace it as a phase span; yields a list that
        holds the elapsed seconds once the block ends."""
        self.tracer.phase = metric
        box: list[float] = []
        t0 = time.perf_counter()
        with self.tracer.span(metric):
            yield box
        box.append(time.perf_counter() - t0)

    def cli_check(self) -> None:
        """The CLI must write the same bytes as the API for the same inputs."""
        f, params = self.inputs[CLI_CASE]
        out = self.dir / "cli.json"
        env = dict(os.environ)
        env.pop("COMPOSITE_FORGE_CACHE", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "composite_forge", "construct", "--poly", POLYS[CLI_CASE[0]],
             "--x", str(CLI_CASE[1]), "--seed", str(self.seed), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        cid = case_id(CLI_CASE)
        if not self.expect(proc.returncode == 0, f"CLI construct exited {proc.returncode}: {proc.stderr}"):
            return
        cert, _ = assemble.construct_certificate(f, params, self.seed)
        self._same_bytes(cid, cert.to_json_bytes(), "API-built")
        self._same_bytes(cid, out.read_bytes(), "CLI-written")

    def _case(self, case, samples: dict[str, dict]) -> None:
        f, params = self.inputs[case]
        cid = case_id(case)
        path = self.dir / f"{cid}.json"
        tr = self.tracer
        tr.case = cid
        before = self.calibrate()
        samples["yard"][cid] = statistics.median(before)
        with self._timed("construct_s") as t:
            with tr.span("assemble.construct_certificate"):
                cert, stats = assemble.construct_certificate(f, params, self.seed)
            with tr.span("assemble.serialize"):
                cert.save(path)
        samples["construct_s"][cid] = t[0]
        data = path.read_bytes()
        self._same_bytes(cid, data, "re-constructed")
        y = stats.extras["achieved_y"]
        samples["y_frac"][cid] = y / stats.extras["formula_y"]

        reps: list[float] = []
        for _ in range(FAST_REPS):
            with self._timed("verify_fast_s") as t:
                with tr.span("assemble.load"):
                    loaded = ResidueCertificate.load(path)
                with tr.span("verify.verify_certificate"):
                    report = verify.verify_certificate(loaded, seed=self.seed)
            reps += t
            self.expect(report.valid, f"{cid}: fast verification rejected: {report.messages}")
        samples["verify_fast_s"][cid] = statistics.median(reps)

        reps = []
        for _ in range(self.wl.deep_reps):
            with self._timed("verify_deep_s") as t:
                with tr.span("assemble.load"):
                    loaded = ResidueCertificate.load(path)
                with tr.span("verify.verify_certificate"):
                    report = verify.verify_certificate(loaded, deep=True)
            reps += t
            self.expect(
                report.valid and report.checked == 2 * y,
                f"{cid}: deep verification rejected or incomplete: {report.messages}",
            )
        samples["verify_deep_s"][cid] = statistics.median(reps)
        self.expect(loaded.to_json_bytes() == data, f"{cid}: load and save change the bytes")
        samples["yard"][cid] = statistics.median(before + self.calibrate())

    def _stats(self, samples: dict[str, dict]) -> None:
        before = self.calibrate()
        samples["yard"]["grid"] = statistics.median(before)
        times: dict[tuple[str, str], list[float]] = defaultdict(list)
        for _ in range(self.wl.stats_reps):
            cache = tempfile.mkdtemp(dir=self.dir)
            for g in self.wl.grid:
                f, x = self.inputs[g][0], g[1]
                self.tracer.case = case_id(g)
                results = []
                for phase in ("stats_s", "stats_cached_s"):
                    with self._timed(phase) as t:
                        results.append(modroots.density_stats(
                            modroots.build_root_table(f, x, cache_dir=cache)))
                    times[(phase, case_id(g))] += t
                cold, warm = results
                self.expect(cold == warm, f"{case_id(g)}: root table read back from the cache differs")
                first = self.stats_ref.setdefault(case_id(g), cold)
                self.expect(cold == first, f"{case_id(g)}: root-table statistics differ between passes")
        for (phase, gid), ts in times.items():
            samples[phase][gid] = statistics.median(ts)
        samples["yard"]["grid"] = statistics.median(before + self.calibrate())

    def run_pass(self, traced: bool) -> None:
        """One pass; records per-case (and per-grid) samples of every
        end-to-end metric, and the layer metrics when traced."""
        tr = self.tracer
        tr.pass_no = len(self.passes)
        samples: dict[str, dict] = defaultdict(dict)
        if traced:
            install_tracing(tr)
            tr.enabled = True
        try:
            for case in self.wl.cases:
                try:
                    self._case(case, samples)
                except Exception:
                    traceback.print_exc()
                    self.expect(False, f"{case_id(case)} raised")
            tr.case = None
            try:
                self._stats(samples)
            except Exception:
                traceback.print_exc()
                self.expect(False, "stats pass raised")
        finally:
            tr.enabled = False
            tr.uninstall()
        rec = {"traced": traced, "samples": dict(samples)}
        if traced:
            rec["layer"] = layer_metrics(tr, tr.pass_no)
        self.passes.append(rec)


TIMED = ("construct_s", "verify_fast_s", "verify_deep_s", "stats_s", "stats_cached_s")


def _speed(sample: dict, metric: str, key: str) -> float:
    """Factor that scales one timed block to the reference speed, from the
    yardstick samples taken around its case (or around the stats phase)."""
    yard = sample["yard"]
    return YARDSTICK_REF_S / (yard["grid"] if metric.startswith("stats") else yard[key])


def _aggregate(passes: list[dict], scaled: bool = True) -> dict[str, float]:
    """Per case (or grid entry), the median over the passes; then the sum
    over the cases, or for y_frac the mean. Taking medians per case first
    keeps a slow moment in one pass from moving the whole pass's sum."""
    out = {}
    for m in TIMED + ("y_frac",):
        per_key = []
        for k in sorted({k for p in passes for k in p["samples"][m]}):
            vals = [
                p["samples"][m][k] * (_speed(p["samples"], m, k) if scaled and m in TIMED else 1.0)
                for p in passes
                if k in p["samples"][m]
            ]
            per_key.append(statistics.median(vals))
        if m == "y_frac":
            out[m] = statistics.fmean(per_key) if per_key else 0.0
        else:
            out[m] = sum(per_key)
    return out


def _layer_medians(passes: list[dict]) -> dict[str, float]:
    """Median over traced passes; times scaled by each pass's yardstick."""
    out = {}
    for m in passes[0]["layer"]:
        vals = []
        for p in passes:
            factor = YARDSTICK_REF_S / statistics.median(p["samples"]["yard"].values())
            vals.append(p["layer"][m] * (factor if PER_LAYER[m][0] == "s" else 1.0))
        out[m] = statistics.median(vals)
        if PER_LAYER[m][0] == "count" and out[m] == int(out[m]):
            out[m] = int(out[m])
    return out


def run(wl: Workload, seed: int, seconds: float, trace: bool, trace_path: Path | None = None) -> dict:
    """Run one workload; returns the full report (see `result_line`)."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        br = BenchRun(wl, seed, Path(tmp))
        before = br.calibrate()
        setup_s = measure_setup(wl)
        setup_yard = statistics.median(before + br.calibrate())
        br.cli_check()
        # A traced run leaves out its first pass, which warms up, so that
        # traced and untraced passes compare like with like; it then
        # alternates traced and untraced passes.
        min_passes = 3 if trace else 2
        t0 = time.perf_counter()
        while len(br.passes) < min_passes or time.perf_counter() - t0 < seconds:
            br.run_pass(traced=trace and len(br.passes) % 2 == 1)
        elapsed = time.perf_counter() - t0
    timed = br.passes[1:] if trace else br.passes
    plain = [p for p in timed if not p["traced"]]
    traced = [p for p in timed if p["traced"]]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_ref = setup_s * YARDSTICK_REF_S / setup_yard
    e2e = _aggregate(plain) | {"setup_s": setup_ref, "peak_rss_mb": rss}
    raw = _aggregate(plain, scaled=False) | {"setup_s": setup_s, "peak_rss_mb": rss}
    report = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(br.passes),
        "elapsed_s": elapsed,
        "attempted": br.attempted,
        "failed": br.failed,
        "yardstick_median_s": statistics.median(br.yardsticks),
        "setup_yardstick_s": setup_yard,
        "end_to_end": {m: e2e[m] for m in END_TO_END},
        "end_to_end_unscaled": {m: raw[m] for m in END_TO_END},
        "digests": dict(sorted(br.digests.items())),
        "samples": [p["samples"] for p in br.passes],
    }
    if traced:
        layer = _layer_medians(traced)
        untraced_c = e2e["construct_s"]
        traced_c = _aggregate(traced)["construct_s"]
        layer["trace.overhead_s"] = traced_c - untraced_c
        layer["trace.overhead_frac"] = (traced_c - untraced_c) / untraced_c
        report["per_layer"] = {m: layer[m] for m in PER_LAYER}
        per_pass = [{c: p["layer"][c] for c in REPEATABLE_COUNTS} for p in traced]
        report["counts"] = per_pass[0]
        report["counts_repeat"] = all(c == per_pass[0] for c in per_pass)
        report["shape"] = trace_shape(br.tracer, [i for i, p in enumerate(br.passes) if p["traced"]])
        if trace_path is not None:
            br.tracer.write_jsonl(trace_path)
            report["trace_file"] = os.path.relpath(trace_path, ROOT)
    report["recorded"] = compare_recorded(report)
    return report


def recorded_path(workload: str, seed: int) -> Path:
    return RESULTS / f"{workload}-seed{seed}.json"


def compare_recorded(report: dict) -> dict:
    """Compare digests (and counts, in a traced run) with the numbers
    recorded for this workload and seed, when there are any."""
    path = recorded_path(report["workload"], report["seed"])
    if not path.exists():
        return {}
    rec = json.loads(path.read_text())
    out = {"digests_match": rec.get("digests") == report["digests"]}
    if "counts" in report and "counts" in rec:
        out["counts_match"] = rec["counts"] == report["counts"]
    return out


def result_line(report: dict) -> dict:
    """The benchmark's final JSON object."""
    table = PER_LAYER if report["trace"] else END_TO_END
    values = report["per_layer"] if report["trace"] else report["end_to_end"]
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m: {"value": values[m], "unit": table[m][0]} for m in table},
    }


def human_lines(report: dict) -> list[str]:
    """Readable summary: every metric with its unit and better direction."""
    lines = [
        f"workload {report['workload']}  seed {report['seed']}  trace {int(report['trace'])}  "
        f"{report['passes']} passes in {report['elapsed_s']:.1f} s",
    ]
    sections = [("end-to-end", END_TO_END, report["end_to_end"])]
    if report["trace"]:
        sections.append(("per-layer (traced passes)", PER_LAYER, report["per_layer"]))
    for title, table, values in sections:
        lines.append(f"  {title}:")
        for m, (unit, better) in table.items():
            lines.append(f"    {m:<38} {values[m]:>14.6g} {unit:<6} ({better} is better)")
    lines.append(
        f"  times are scaled to the reference yardstick of {YARDSTICK_REF_S} s "
        f"(this run's yardstick median: {report['yardstick_median_s']:.5f} s)"
    )
    for cid, digest in report["digests"].items():
        lines.append(f"  certificate {cid:<12} sha256 {digest}")
    frac = report["failed"] / report["attempted"] if report["attempted"] else 0.0
    lines.append(
        f"  checks: {report['attempted']} attempted, {report['failed']} failed "
        f"(failed_frac {frac:.4g})"
    )
    if report["trace"]:
        shape = report["shape"]
        lines.append(f"  counts repeat across traced passes: {report['counts_repeat']}")
        top = ", ".join(f"{n} {t:.3f}s" for n, t in shape["construct_self_s_by_span"][:4])
        lines.append(f"  construct self time by span (unscaled): {top}")
        top = ", ".join(f"{n} {t:.3f}s" for n, t in shape["construct_self_s_by_layer"])
        lines.append(f"  construct self time by layer (unscaled): {top}")
        lines.append(
            f"  find_witness share of verify_deep_s {shape['find_witness_share_of_verify_deep']:.3f}; "
            f"build_root_table share of stats_s {shape['build_root_table_share_of_stats']:.3f}"
        )
    for key, same in report["recorded"].items():
        if not same:
            lines.append(f"  NOTE: {key} is false: differs from {recorded_path(report['workload'], report['seed'])}")
    return lines
