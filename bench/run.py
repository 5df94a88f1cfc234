"""Benchmark entry point for composite-forge.

Run from the repository root, for example:

    python3 bench/run.py --workload construct-small --seed 7 --seconds 15 --trace 0

Prints a readable report with every metric, its unit and which direction is
better, then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1). Exits 1 when any output check fails, and
2 when the library sources are missing. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None, help="also write the full report JSON here")
    args = ap.parse_args(argv)

    if not (SRC / "composite_forge" / "__init__.py").is_file():
        print(f"bench: no composite_forge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import harness

    wl = harness.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}",
              file=sys.stderr)
        return 2
    trace_path = harness.WORK / f"trace-{wl.name}-seed{args.seed}.jsonl" if args.trace else None
    report = harness.run(wl, args.seed, args.seconds, bool(args.trace), trace_path)
    for line in harness.human_lines(report):
        print(line)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(harness.result_line(report)))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
