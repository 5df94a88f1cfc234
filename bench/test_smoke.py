"""Smoke self-test of the benchmark harness, on the x = 300 cases only.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402

SMOKE = harness.Workload(
    "smoke",
    "x=300 cases only",
    harness._cases((300,)),
    harness._cases((300,)),
    stats_reps=2,
    deep_reps=1,
)


def test_untraced_run_reports_every_end_to_end_metric():
    report = harness.run(SMOKE, seed=7, seconds=0, trace=False)
    line = harness.result_line(report)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert report["passes"] == 2
    assert set(line["metrics"]) == set(harness.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert set(report["digests"]) == {"x@300", "x^2+1@300", "x^3+2@300"}


def test_traced_run_reports_layers_and_restores_the_library(tmp_path):
    spans_file = tmp_path / "spans.jsonl"
    originals = (harness.assemble.refine_residues, harness.verify.find_witness)
    report = harness.run(SMOKE, seed=7, seconds=0, trace=True, trace_path=spans_file)
    line = harness.result_line(report)
    assert line["correct"]
    assert set(line["metrics"]) == set(harness.PER_LAYER)
    m = report["per_layer"]
    assert m["assemble.attempts"] >= m["assemble.attempts_feasible"] >= 3
    assert m["cover.backward_residues.calls"] > 0
    assert m["sievecore.sieve_survivors.positions"] > m["sievecore.sieve_survivors.calls"] > 0
    assert m["verify.find_witness.calls"] > 0 and m["gfpoly.gf_powmod.calls"] > 0
    assert m["modroots.build_root_table.cached_s"] > 0

    spans = [json.loads(s) for s in spans_file.read_text().splitlines()]
    assert spans and all(s["end"] >= s["start"] for s in spans)
    assert all(s["self_s"] >= -1e-6 for s in spans)
    assert {s["pass"] for s in spans} == {1}
    # wrappers are gone once the traced pass ends
    assert (harness.assemble.refine_residues, harness.verify.find_witness) == originals


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in harness.WORKLOADS.values()
    }
    for key, table in (("end_to_end", harness.END_TO_END), ("per_layer", harness.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "construct-small", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
