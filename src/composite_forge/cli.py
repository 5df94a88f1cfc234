"""Command-line front end.

Subcommands: construct (build a certificate), verify (check one), oracle
(longest composite run by brute force), stats (root-density table over an x
grid), simulate (covering harness). Exit codes: 0 success, 1 verification
failure, 2 construction infeasible, 64 usage error, which includes a named
path that cannot be read, written or made.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from .assemble import (
    STATS_HEADER,
    ConstructionError,
    ResidueCertificate,
    construct_certificate,
    decimal_digit_bound,
    parse_decimal,
)
from .cover import SieveParams
from .modroots import build_root_table, density_stats
from .poly import parse_poly_literal
from .verify import (
    ORACLE_N_MAX,
    CoveringConfigError,
    CoveringSimConfig,
    covering_lemma_sim,
    oracle_longest_run,
    verify_certificate,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default, which would collide with the
    # construction-infeasible code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _poly(text: str):
    try:
        return parse_poly_literal(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def nonnegative_int(text: str) -> int:
    # the type of every --seed: numpy takes nonnegative seeds only
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _x_grid(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(int(float(part)))
        except (OverflowError, ValueError):
            raise argparse.ArgumentTypeError(f"x value {part!r} is not a finite number") from None
        if out[-1] < 2:
            raise argparse.ArgumentTypeError(f"x value {part!r} is below 2")
    return out


def default_cache_dir() -> str | None:
    return os.environ.get("COMPOSITE_FORGE_CACHE") or None


def build_parser() -> _Parser:
    p = _Parser(prog="composite-forge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a residue certificate")
    c.add_argument("--poly", type=_poly, required=True,
                   help="binomial-basis list, binom:[...], or poly:[c0,...,cB] monomial form")
    c.add_argument("--x", type=int, required=True, help="sieve prime bound")
    c.add_argument("--retry-budget", type=int, default=64)
    c.add_argument("--seed", type=nonnegative_int, default=0)
    c.add_argument("--N", type=str, default=None,
                   help="explicit target sum (decimal); default: the least power of"
                        " ten at least the cube of the prime modulus")
    c.add_argument("--assert-irreducible", action="store_true")
    c.add_argument("--cache-dir", default=default_cache_dir())
    c.add_argument("--out", default="certificate.json")
    c.add_argument("--stats", default=None, help="stats CSV path (default <out>.stats.csv)")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="verify a certificate file")
    v.add_argument("cert", help="certificate JSON path")
    v.add_argument("--out", default=None, help="write the report JSON here (default stdout)")
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("oracle", help="longest composite run by brute force")
    o.add_argument("--poly", type=_poly, required=True)
    o.add_argument("--n", type=int, required=True,
                   help=f"scan n = 1..n, for n in [1, {ORACLE_N_MAX}]")
    o.set_defaults(func=cmd_oracle)

    s = sub.add_parser("stats", help="root-density statistics over an x grid")
    s.add_argument("--poly", type=_poly, required=True)
    s.add_argument("--x", type=_x_grid, required=True, help="comma-separated, e.g. 1e4,1e5,1e6")
    s.add_argument("--cache-dir", default=default_cache_dir())
    s.add_argument("--out", default=None, help="CSV path (default stdout)")
    s.set_defaults(func=cmd_stats)

    m = sub.add_parser("simulate", help="covering harness residual trials")
    m.add_argument("--ground-size", type=int, default=10_000)
    m.add_argument("--c1", type=float, default=10.0)
    m.add_argument("--eta", type=float, default=0.02)
    m.add_argument("--k0", type=float, default=8.0)
    m.add_argument("--candidates", type=int, default=8)
    m.add_argument("--trials", type=int, default=100)
    m.add_argument("--seed", type=nonnegative_int, default=0)
    m.add_argument("--out", default=None, help="CSV path (default stdout)")
    m.set_defaults(func=cmd_simulate)
    return p


def cmd_construct(args) -> int:
    try:
        params = SieveParams(x=args.x, retry_budget=args.retry_budget)
    except ValueError as e:
        print(f"composite-forge: bad parameters: {e}", file=sys.stderr)
        return EXIT_USAGE
    n_target = None
    if args.N is not None:
        try:
            n_target = parse_decimal(args.N, decimal_digit_bound(args.x))
        except ValueError as e:
            print(f"composite-forge: bad --N: {e}", file=sys.stderr)
            return EXIT_USAGE
    try:
        cert, stats = construct_certificate(
            args.poly,
            params,
            args.seed,
            n_target=n_target,
            cache_dir=args.cache_dir,
            assert_irreducible=args.assert_irreducible,
        )
    except ConstructionError as e:
        print(f"composite-forge: construction failed: {e}", file=sys.stderr)
        if e.diagnostics:
            print(f"composite-forge: diagnostics: {json.dumps(e.diagnostics)}", file=sys.stderr)
        return EXIT_INFEASIBLE
    cert.save(args.out)
    stats_path = args.stats or args.out + ".stats.csv"
    with open(stats_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(STATS_HEADER)
        for row in stats.rows:
            w.writerow(row.row())
    e = stats.extras
    feasible = sum(a["outcome"] == "ok" for a in e["attempts"])
    print(
        f"certificate written to {args.out}: y = {e['achieved_y']}"
        f" (formula {e['formula_y']}), {len(e['attempts'])} attempts"
        f" ({feasible} feasible), N has {e['n_digits']} digits,"
        f" residuals fwd {e['residual_fwd']}/{e['capacity_fwd']}"
        f" bwd {e['residual_bwd']}/{e['capacity_bwd']},"
        f" center radius m = {e['m_achieved']} (the paper's m = {e['m_paper']})"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        # any input that is no certificate raises ValueError, a JSON
        # decode error included
        cert = ResidueCertificate.load(args.cert)
    except ValueError as e:
        print(f"composite-forge: unreadable certificate: {e}", file=sys.stderr)
        return EXIT_USAGE
    report = verify_certificate(cert)
    payload = json.dumps(report.to_json_dict(), indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK if report.valid else EXIT_VERIFY_FAILED


def cmd_oracle(args) -> int:
    try:
        rec = oracle_longest_run(args.poly, args.n)
    except ValueError as e:
        print(f"composite-forge: bad --n: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps({"start": rec.start, "length": rec.length, "n_scanned": rec.n_scanned}))
    return EXIT_OK


def cmd_stats(args) -> int:
    if not args.x:
        print("composite-forge: empty x grid", file=sys.stderr)
        return EXIT_USAGE
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(
        [
            "x", "n_primes", "n_usable", "mertens_sum", "loglog_x", "sigma",
            "sigma_log_x", "rho_hat", "rho_hat_norm", "nu_weighted_sum", "rho_nu_hat",
        ]
    )
    xs = sorted(args.x)
    # one table for the largest x; every smaller x reads its prefix
    try:
        table = build_root_table(args.poly, xs[-1], cache_dir=args.cache_dir)
    except ValueError as e:
        print(f"composite-forge: bad x grid: {e}", file=sys.stderr)
        return EXIT_USAGE
    for x in xs:
        st = density_stats(table, limit=x)
        w.writerow(
            [
                st.x, st.n_primes, st.n_usable,
                f"{st.mertens_sum:.10f}",
                f"{math.log(math.log(st.x)):.10f}",
                f"{st.sigma:.10e}",
                f"{st.sigma * math.log(st.x):.10f}",
                f"{st.rho_hat:.10f}",
                f"{st.rho_hat_norm:.10f}",
                f"{st.nu_weighted_sum:.10f}",
                ";".join(f"{k}:{v:.8f}" for k, v in st.rho_nu_hat.items()),
            ]
        )
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = CoveringSimConfig(
        ground_size=args.ground_size,
        c1=args.c1,
        eta=args.eta,
        k0=args.k0,
        candidates=args.candidates,
        trials=args.trials,
    )
    try:
        report = covering_lemma_sim(config, seed=args.seed)
    except CoveringConfigError as e:
        print(f"composite-forge: bad covering config: {e}", file=sys.stderr)
        return EXIT_USAGE
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["trial", "residual", "threshold", "passed"])
    for i, r in enumerate(report.residuals):
        w.writerow([i, r, f"{report.threshold:.1f}", int(r <= report.threshold)])
    _emit(buf.getvalue(), args.out)
    print(
        f"covering: {report.passes}/{len(report.residuals)} trials within"
        f" threshold {report.threshold:.1f}; c_hat = {report.c_hat:.4f}"
        f" (rounds {report.hypothesis['rounds']}, subset size {report.hypothesis['k']})",
        file=sys.stderr,
    )
    return EXIT_OK


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        # a path the user named cannot be read, written or made
        print(f"composite-forge: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
