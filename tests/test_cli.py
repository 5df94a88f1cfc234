"""Exit codes and artifact emission of the command-line front end."""

import csv
import json
import os
import subprocess
import sys
import time

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

OK, VERIFY_FAILED, INFEASIBLE, USAGE = 0, 1, 2, 64

# JSON nested 5000 deep, past the interpreter's recursion limit
NESTED = "[" * 5000 + "]" * 5000
# 1 + C(x, 25) and x^25 + 1, one degree above poly.MAX_DEGREE
DEGREE_25 = "[" + "1," + "0," * 24 + "1]"


def run_cli(*args, cwd, env_extra=None):
    env = dict(os.environ)
    # the child runs in a tmp directory, where a relative PYTHONPATH entry
    # does not resolve; put this checkout's src first by absolute path
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "composite_forge", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    r = run_cli(
        "construct", "--poly", "poly:[1,0,1]", "--x", "300", "--seed", "7",
        "--out", "cert.json", cwd=d,
    )
    assert r.returncode == OK, r.stderr
    return d


class TestConstruct:
    def test_artifacts_written(self, workdir):
        assert (workdir / "cert.json").exists()
        assert (workdir / "cert.json.stats.csv").exists()

    def test_summary_line(self, workdir):
        r = run_cli(
            "construct", "--poly", "poly:[1,0,1]", "--x", "300", "--seed", "7",
            "--out", "again.json", cwd=workdir,
        )
        assert r.returncode == OK
        assert "again.json" in r.stdout and "y =" in r.stdout

    def test_summary_counts_the_attempts(self, tmp_path, f_x2p1):
        from composite_forge.assemble import construct_certificate
        from composite_forge.cover import SieveParams

        r = run_cli(
            "construct", "--poly", "poly:[1,0,1]", "--x", "300", "--seed", "7",
            "--out", "c.json", cwd=tmp_path,
        )
        assert r.returncode == OK, r.stderr
        _, stats = construct_certificate(f_x2p1, SieveParams(x=300), 7)
        attempts = stats.extras["attempts"]
        feasible = sum(a["outcome"] == "ok" for a in attempts)
        assert f", {len(attempts)} attempts ({feasible} feasible)," in r.stdout

    def test_deterministic_bytes(self, workdir):
        assert (workdir / "again.json").read_bytes() == (workdir / "cert.json").read_bytes()

    def test_stats_csv_shape(self, workdir):
        with open(workdir / "cert.json.stats.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "stage", "side", "primes_used", "survivors_before",
            "survivors_after", "capacity", "seed",
        ]
        stages = {row[0] for row in rows[1:]}
        assert stages == {"small", "medium", "cleanup"}

    def test_infeasible_exits_2(self, tmp_path):
        r = run_cli(
            "construct", "--poly", "poly:[1,0,1]", "--x", "10",
            "--out", "no.json", cwd=tmp_path,
        )
        assert r.returncode == INFEASIBLE
        assert "construction failed" in r.stderr and "x is too small" in r.stderr
        assert not (tmp_path / "no.json").exists()

    def test_bad_poly_literal(self, tmp_path):
        r = run_cli("construct", "--poly", "spam:[1]", "--x", "300", cwd=tmp_path)
        assert r.returncode == USAGE

    def test_bad_delta(self, tmp_path):
        r = run_cli(
            "construct", "--poly", "poly:[0,1]", "--x", "300", "--delta", "0.9",
            cwd=tmp_path,
        )
        assert r.returncode == USAGE
        assert "bad parameters" in r.stderr

    def test_exhausted_retry_budget_exits_2_without_blaming_x(self, tmp_path):
        # with no small-stage draw allowed, every attempt ends at the retry
        # budget, which says nothing about x; the diagnostics count outcomes
        r = run_cli(
            "construct", "--poly", "poly:[1,0,1]", "--x", "300", "--retry-budget", "0",
            "--out", "no.json", cwd=tmp_path,
        )
        assert r.returncode == INFEASIBLE
        assert "Traceback" not in r.stderr
        assert "every attempt used up the small-stage retry budget" in r.stderr
        assert "x is too small" not in r.stderr
        diag = json.loads(r.stderr.split("diagnostics: ", 1)[1])
        assert list(diag["outcomes"]) == ["small_retry_budget"]
        assert not (tmp_path / "no.json").exists()

    def test_explicit_target_is_used(self, tmp_path):
        # --N alone selects the explicit target; 12345 is far below the
        # cube of the prime modulus, so construction is infeasible
        r = run_cli(
            "construct", "--poly", "poly:[0,1]", "--x", "300", "--N", "12345",
            "--out", "no.json", cwd=tmp_path,
        )
        assert r.returncode == INFEASIBLE
        assert "explicit N is smaller than modulus^3" in r.stderr
        assert not (tmp_path / "no.json").exists()

    def test_missing_subcommand(self, tmp_path):
        r = run_cli(cwd=tmp_path)
        assert r.returncode == USAGE

    def test_x_at_the_root_table_bound_exits_64(self, tmp_path):
        r = run_cli(
            "construct", "--poly", "poly:[0,1]", "--x", "3000000000",
            "--out", "no.json", cwd=tmp_path,
        )
        assert r.returncode == USAGE
        assert "Traceback" not in r.stderr and "below 2147483648" in r.stderr
        assert not (tmp_path / "no.json").exists()

    @pytest.mark.parametrize("digits", [400, 6000])
    def test_explicit_target_beyond_digit_bound_exits_64(self, tmp_path, digits):
        # at x = 300 a target has at most 399 digits; 6000 also passes the
        # interpreter's own 4300-digit conversion limit
        r = run_cli(
            "construct", "--poly", "poly:[0,1]", "--x", "300",
            "--N", "1" + "0" * (digits - 1), "--out", "no.json", cwd=tmp_path,
        )
        assert r.returncode == USAGE
        assert "Traceback" not in r.stderr and "399-digit bound" in r.stderr
        assert not (tmp_path / "no.json").exists()

    def test_explicit_target_not_a_number_exits_64(self, tmp_path):
        r = run_cli(
            "construct", "--poly", "poly:[0,1]", "--x", "300",
            "--N", "1e400", cwd=tmp_path,
        )
        assert r.returncode == USAGE
        assert "Traceback" not in r.stderr


class TestBeyondDecimalLimit:
    """From x of about 3400 on, N has more than the interpreter's default
    4300 decimal digits (5097 at x = 4000)."""

    def test_construct_then_verify(self, tmp_path):
        r = run_cli(
            "construct", "--poly", "poly:[0,1]", "--x", "4000", "--seed", "7",
            "--out", "cert.json", cwd=tmp_path,
        )
        assert r.returncode == OK, r.stderr
        assert "N has 5097 digits" in r.stdout
        with open(tmp_path / "cert.json") as fh:
            assert len(json.load(fh)["placement"]["N"]) == 5097
        r = run_cli("verify", "cert.json", cwd=tmp_path)
        assert r.returncode == OK, r.stderr
        report = json.loads(r.stdout)
        assert report["valid"] is True and report["failures"] == []

    @pytest.mark.parametrize("field", ["N", "b1"])
    def test_field_beyond_digit_bound_exits_64(self, workdir, field):
        # x = 300 allows 399 digits; a longer field is refused before int()
        with open(workdir / "cert.json") as fh:
            obj = json.load(fh)
        obj["placement"][field] = "7" * 400
        with open(workdir / "long.json", "w") as fh:
            json.dump(obj, fh)
        r = run_cli("verify", "long.json", cwd=workdir)
        assert r.returncode == USAGE
        assert "Traceback" not in r.stderr and "399-digit bound" in r.stderr

    @pytest.mark.parametrize("form", ["missing", "number", "list", "million-digits"])
    @pytest.mark.parametrize("field", ["N", "b1"])
    def test_hostile_placement_field_exits_64(self, workdir, field, form):
        # N and b1 are the placement's only fields: each must be there, a
        # decimal string, and within the digit bound, which refuses a
        # million digits before converting any
        with open(workdir / "cert.json") as fh:
            obj = json.load(fh)
        pl = obj["placement"]
        if form == "missing":
            del pl[field]
        else:
            pl[field] = {"number": 10**7, "list": [pl[field]], "million-digits": "7" * 10**6}[form]
        with open(workdir / "hostile.json", "w") as fh:
            json.dump(obj, fh)
        r = run_cli("verify", "hostile.json", cwd=workdir)
        assert r.returncode == USAGE
        assert "Traceback" not in r.stderr and r.stdout == ""


class TestVerify:
    def test_valid(self, workdir):
        r = run_cli("verify", "cert.json", cwd=workdir)
        assert r.returncode == OK
        report = json.loads(r.stdout)
        assert report["valid"] is True
        # every offset of both windows; the mode key is a constant
        with open(workdir / "cert.json") as fh:
            assert report["checked"] == 2 * json.load(fh)["params"]["y"]
        assert report["mode"] == "deep"
        assert report["failures"] == []

    def test_report_to_file(self, workdir):
        r = run_cli("verify", "cert.json", "--out", "report.json", cwd=workdir)
        assert r.returncode == OK
        with open(workdir / "report.json") as fh:
            assert json.load(fh)["valid"] is True

    def test_tampered_exits_1(self, workdir):
        with open(workdir / "cert.json") as fh:
            obj = json.load(fh)
        for stage in obj["stages"]:
            if stage["stage"] == "medium" and stage["assignments"]:
                q, r = stage["assignments"][0]
                stage["assignments"][0] = [q, (r + 1) % q]
                break
        with open(workdir / "bad.json", "w") as fh:
            json.dump(obj, fh, indent=2)
        r = run_cli("verify", "bad.json", cwd=workdir)
        assert r.returncode == VERIFY_FAILED
        report = json.loads(r.stdout)
        assert report["valid"] is False

    def test_version_1_exits_1(self, workdir):
        # a certificate as version 1 wrote it: its extra fields are not
        # read, so it loads, and its version is refused
        with open(workdir / "cert.json") as fh:
            obj = json.load(fh)
        obj["params"].update(M=6.5, eps=0.05, z=18)
        obj["placement"].update(I1=["1", "2"], I2=["3", "4"], n1="1", n2="3", m="0")
        obj["version"] = 1
        with open(workdir / "v1.json", "w") as fh:
            json.dump(obj, fh, indent=2)
        r = run_cli("verify", "v1.json", cwd=workdir)
        assert r.returncode == VERIFY_FAILED
        assert "Traceback" not in r.stderr
        assert json.loads(r.stdout)["messages"] == ["unsupported certificate version 1"]

    def test_prime_zero_exits_1_without_traceback(self, workdir):
        with open(workdir / "cert.json") as fh:
            obj = json.load(fh)
        obj["stages"].append({"stage": "cleanup", "side": "fwd", "assignments": [[0, 0]]})
        with open(workdir / "zero.json", "w") as fh:
            json.dump(obj, fh)
        r = run_cli("verify", "zero.json", cwd=workdir)
        assert r.returncode == VERIFY_FAILED
        assert "Traceback" not in r.stderr
        assert "modulus 0 is not a prime" in json.loads(r.stdout)["messages"]

    def test_x_near_root_table_bound_exits_1_without_sieving(self, workdir):
        # a sieve to 2^31 would take about a gigabyte; the x = 300
        # certificate's N cannot support that x, which is refused first
        with open(workdir / "cert.json") as fh:
            obj = json.load(fh)
        obj["params"]["x"] = 2**31 - 1
        with open(workdir / "huge_x.json", "w") as fh:
            json.dump(obj, fh)
        r = run_cli("verify", "huge_x.json", cwd=workdir)
        assert r.returncode == VERIFY_FAILED
        assert "Traceback" not in r.stderr
        report = json.loads(r.stdout)
        assert report["checked"] == 0
        assert any("can support" in m for m in report["messages"])

    def test_non_finite_parameter_exits_64(self, workdir):
        with open(workdir / "cert.json") as fh:
            obj = json.load(fh)
        obj["params"]["K"] = float("nan")
        with open(workdir / "nan.json", "w") as fh:
            json.dump(obj, fh)
        r = run_cli("verify", "nan.json", cwd=workdir)
        assert r.returncode == USAGE
        assert "Traceback" not in r.stderr and "K must be finite" in r.stderr

    @pytest.mark.parametrize(
        "name,value,message", [("K", 1e30, "2^63"), ("xi", 1.000001, "scales")],
        ids=["K-1e30", "xi-1.000001"],
    )
    def test_out_of_range_parameter_exits_64(self, workdir, name, value, message):
        # construct takes neither value any more; a stored one is still refused
        with open(workdir / "cert.json") as fh:
            obj = json.load(fh)
        obj["params"][name] = value
        with open(workdir / "range.json", "w") as fh:
            json.dump(obj, fh)
        r = run_cli("verify", "range.json", cwd=workdir)
        assert r.returncode == USAGE
        assert "Traceback" not in r.stderr and message in r.stderr

    def test_missing_file_exits_64(self, tmp_path):
        r = run_cli("verify", "nope.json", cwd=tmp_path)
        assert r.returncode == USAGE

    def test_unreadable_json_exits_64(self, tmp_path):
        (tmp_path / "junk.json").write_text("{not json")
        r = run_cli("verify", "junk.json", cwd=tmp_path)
        assert r.returncode == USAGE
        # nested past the recursion limit, which the JSON parser raises on
        (tmp_path / "nested.json").write_text(NESTED)
        r = run_cli("verify", "nested.json", cwd=tmp_path)
        assert r.returncode == USAGE
        assert "Traceback" not in r.stderr and "nested too deeply" in r.stderr

    def test_degree_beyond_the_bound_exits_64(self, workdir):
        # 1 + C(x, 200), which would keep the verifier busy for minutes
        with open(workdir / "cert.json") as fh:
            obj = json.load(fh)
        obj["poly"]["coeffs"] = ["1"] + ["0"] * 199 + ["1"]
        with open(workdir / "high-degree.json", "w") as fh:
            json.dump(obj, fh)
        r = run_cli("verify", "high-degree.json", cwd=workdir)
        assert r.returncode == USAGE
        assert "Traceback" not in r.stderr and "degree 200 exceeds the bound" in r.stderr

    @pytest.mark.parametrize(
        "path,value",
        [
            (("poly", "coeffs", 0), 1.5),
            (("poly", "coeffs", 0), True),
            (("poly", "coeffs", 0), " 1"),
            (("params", "x"), 300.7),
            (("params", "x"), "300"),
            (("params", "K"), "8"),
            (("params", "K"), True),
            (("seed",), "7"),
            (("version",), True),
        ],
        ids=["coeff-float", "coeff-bool", "coeff-padded", "x-float", "x-string",
             "K-string", "K-bool", "seed-string", "version-bool"],
    )
    def test_field_in_another_form_exits_64(self, workdir, path, value):
        # each used to be coerced, and the certificate verified as valid
        with open(workdir / "cert.json") as fh:
            obj = json.load(fh)
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with open(workdir / "retyped.json", "w") as fh:
            json.dump(obj, fh)
        r = run_cli("verify", "retyped.json", cwd=workdir)
        assert r.returncode == USAGE
        assert "Traceback" not in r.stderr and r.stdout == ""

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda obj: [obj],
            lambda obj: {**obj, "stages": 5},
            lambda obj: {**obj, "params": "x"},
            # the placement, which fixes both windows, as a number
            lambda obj: {**obj, "placement": 7},
            # falsy placements, each once read as no placement at all
            lambda obj: {**obj, "placement": {}},
            lambda obj: {**obj, "placement": []},
            lambda obj: {**obj, "placement": 0},
            lambda obj: {**obj, "placement": False},
            lambda obj: {**obj, "placement": ""},
            # no placement at all: every certificate has one
            lambda obj: {**obj, "placement": None},
            lambda obj: {k: v for k, v in obj.items() if k != "placement"},
        ],
        ids=["top-level-list", "stages-number", "params-string", "window-number",
             "window-empty-object", "window-empty-list", "window-zero", "window-false",
             "window-empty-string", "window-null", "window-missing"],
    )
    def test_malformed_certificate_exits_64(self, workdir, mangle):
        with open(workdir / "cert.json") as fh:
            obj = mangle(json.load(fh))
        with open(workdir / "malformed.json", "w") as fh:
            json.dump(obj, fh)
        r = run_cli("verify", "malformed.json", cwd=workdir)
        assert r.returncode == USAGE
        assert "Traceback" not in r.stderr
        assert "malformed certificate" in r.stderr


@pytest.mark.parametrize(
    "args,message",
    [
        (["stats", "--poly", "poly:[0,1]", "--x", "1e400"], "not a finite number"),
        (["stats", "--poly", "poly:[1,0,1]", "--x", "1"], "below 2"),
        (["stats", "--poly", "poly:[1,0,1]", "--x", "0,100"], "below 2"),
        (["oracle", "--poly", "poly:[0,1]", "--n", "0"], "n_max must be positive"),
        (["simulate", "--candidates", "0"], "at least one candidate"),
        (["construct", "--poly", "poly:[0,1]", "--x", "300", "--seed", "-1"], "negative"),
        (["simulate", "--seed", "-1"], "negative"),
        (["simulate", "--k0", "nan"], "k0 must be finite and positive"),
        (["simulate", "--k0", "inf"], "k0 must be finite and positive"),
        (["simulate", "--c1", "nan"], "c1 must be finite and positive"),
        (["simulate", "--c1", "inf"], "c1 must be finite and positive"),
        (["simulate", "--c1", "-5"], "c1 must be finite and positive"),
        (["simulate", "--eta", "nan"], "eta must be finite and positive"),
        (["simulate", "--trials", "-3"], "negative"),
        # refused before anything of that size is allocated
        (["simulate", "--ground-size", "100000000"], "ground size"),
        (["simulate", "--candidates", "1000000000000"], "draws exceeds"),
        (["construct", "--poly", NESTED, "--x", "300"], "nested too deeply"),
        (["oracle", "--poly", NESTED, "--n", "10"], "nested too deeply"),
        (["stats", "--poly", NESTED, "--x", "1e3"], "nested too deeply"),
        # refused before any work on the polynomial
        (["construct", "--poly", DEGREE_25, "--x", "300"], "degree 25 exceeds the bound 24"),
        (["oracle", "--poly", "poly:" + DEGREE_25, "--n", "10"], "degree 25 exceeds the bound"),
        (["stats", "--poly", DEGREE_25, "--x", "1e3"], "degree 25 exceeds the bound"),
    ],
    ids=[
        "stats-x-overflow", "stats-x-one", "stats-x-zero", "oracle-n-zero",
        "simulate-no-candidates", "construct-seed-negative",
        "simulate-seed-negative",
        "simulate-k0-nan", "simulate-k0-inf", "simulate-c1-nan", "simulate-c1-inf",
        "simulate-c1-negative", "simulate-eta-nan", "simulate-trials-negative",
        "simulate-ground-size-over-bound", "simulate-block-over-bound",
        "construct-poly-nested", "oracle-poly-nested", "stats-poly-nested",
        "construct-poly-degree-25", "oracle-poly-degree-25", "stats-poly-degree-25",
    ],
)
def test_bad_argument_exits_64(tmp_path, args, message):
    r = run_cli(*args, cwd=tmp_path)
    assert r.returncode == USAGE
    assert "Traceback" not in r.stderr and message in r.stderr


@pytest.mark.parametrize(
    "command,flag",
    [
        # no construction stage reads these
        ("construct", ["--sweeps", "2"]),
        ("construct", ["--M", "6.5"]),
        ("construct", ["--eps", "0.05"]),
        ("construct", ["--mode", "random"]),
        ("construct", ["--xi", "2"]),
        ("construct", ["--K", "8"]),
        # every certificate is two-sided
        ("construct", ["--two-sided"]),
        ("construct", ["--no-two-sided"]),
        # verify checks every offset of both windows: no mode, sample or seed
        ("verify", ["--deep"]),
        ("verify", ["--sample", "0.5"]),
        ("verify", ["--seed", "3"]),
        # values once refused as rates, seeds or parameters are now refused
        # as flags
        *(("verify", ["--sample", rate]) for rate in ("nan", "inf", "1e30", "0", "-0.5")),
        ("verify", ["--seed", "-1"]),
        *(("construct", ["--K", k]) for k in ("nan", "inf", "1e30")),
        *(("construct", ["--xi", xi]) for xi in ("nan", "1.000001")),
    ],
    ids=lambda v: v if isinstance(v, str) else "=".join(v).lstrip("-"),
)
def test_removed_flag_exits_64(tmp_path, workdir, command, flag):
    head = {
        "construct": ["construct", "--poly", "poly:[0,1]", "--x", "300"],
        "verify": ["verify", str(workdir / "cert.json")],
    }[command]
    r = run_cli(*head, *flag, "--out", "no.json", cwd=tmp_path)
    assert r.returncode == USAGE
    assert "unrecognized arguments" in r.stderr and flag[0] in r.stderr
    assert "Traceback" not in r.stderr and r.stdout == ""
    assert not (tmp_path / "no.json").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "."],
        ["construct", "--poly", "poly:[1,0,1]", "--x", "300", "--out", "missing/c.json"],
        ["verify", "cert.json", "--out", "missing/r.json"],
        ["stats", "--poly", "poly:[1,0,1]", "--x", "1e3", "--out", "missing/s.csv"],
        # a regular file where a cache directory belongs
        ["construct", "--poly", "poly:[1,0,1]", "--x", "300", "--out", "c.json",
         "--cache-dir", "cert.json"],
        ["stats", "--poly", "poly:[1,0,1]", "--x", "1e3", "--cache-dir", "cert.json"],
    ],
    ids=[
        "verify-directory", "construct-out-missing-dir", "verify-out-missing-dir",
        "stats-out-missing-dir", "construct-cache-dir-is-a-file", "stats-cache-dir-is-a-file",
    ],
)
def test_unusable_path_exits_64(workdir, args):
    r = run_cli(*args, cwd=workdir)
    assert r.returncode == USAGE
    assert "Traceback" not in r.stderr and r.stderr.startswith("composite-forge: ")
    assert not (workdir / "missing").exists() and not (workdir / "c.json").exists()


class TestOracle:
    def test_frozen_run(self, tmp_path):
        r = run_cli("oracle", "--poly", "poly:[0,1]", "--n", "100", cwd=tmp_path)
        assert r.returncode == OK
        assert json.loads(r.stdout) == {"start": 90, "length": 7, "n_scanned": 100}

    def test_n_beyond_the_cap_exits_64_before_scanning(self, capsys):
        from composite_forge.cli import main

        t = time.perf_counter()
        assert main(["oracle", "--poly", "poly:[1,0,1]", "--n", "10000001"]) == USAGE
        assert time.perf_counter() - t < 0.5
        err = capsys.readouterr().err
        assert "Traceback" not in err and "must not exceed 10000000" in err

    def test_help_names_the_cap(self, tmp_path):
        r = run_cli("oracle", "--help", cwd=tmp_path)
        assert r.returncode == OK and "10000000" in r.stdout


class TestStats:
    def test_csv_grid(self, tmp_path):
        r = run_cli(
            "stats", "--poly", "poly:[1,0,1]", "--x", "1e3,2e3", cwd=tmp_path
        )
        assert r.returncode == OK
        rows = list(csv.reader(r.stdout.splitlines()))
        assert len(rows) == 3
        assert rows[0][0] == "x"
        assert [row[0] for row in rows[1:]] == ["1000", "2000"]

    def test_one_table_serves_the_whole_grid(self, tmp_path, monkeypatch):
        from composite_forge import cli

        monkeypatch.delenv("COMPOSITE_FORGE_CACHE", raising=False)
        limits = []
        build = cli.build_root_table

        def counted(f, limit, cache_dir=None):
            limits.append(limit)
            return build(f, limit, cache_dir=cache_dir)

        monkeypatch.setattr(cli, "build_root_table", counted)

        def stats_rows(grid):
            out = tmp_path / "stats.csv"
            assert cli.main(["stats", "--poly", "poly:[2,0,0,1]", "--x", grid, "--out", str(out)]) == OK
            return list(csv.reader(out.read_text().splitlines()))

        rows = stats_rows("1000,2,997,3e4")
        assert limits == [30000]
        # the same rows as a table built for each x alone
        alone = [stats_rows(x) for x in ("2", "997", "1000", "3e4")]
        assert limits[1:] == [2, 997, 1000, 30000]
        assert rows == alone[0][:1] + [r[1] for r in alone]

    def test_empty_grid_exits_64(self, tmp_path):
        r = run_cli("stats", "--poly", "poly:[1,0,1]", "--x", "", cwd=tmp_path)
        assert r.returncode == USAGE

    def test_x_at_the_root_table_bound_exits_64(self, tmp_path):
        r = run_cli("stats", "--poly", "poly:[1,0,1]", "--x", "1e3,3e9", cwd=tmp_path)
        assert r.returncode == USAGE
        assert "Traceback" not in r.stderr and "below 2147483648" in r.stderr

    def test_cache_env_honored(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        r = run_cli(
            "stats", "--poly", "poly:[1,0,1]", "--x", "1e3", cwd=tmp_path,
            env_extra={"COMPOSITE_FORGE_CACHE": str(cache)},
        )
        assert r.returncode == OK
        assert len(list(cache.iterdir())) == 1


class TestSimulate:
    def test_csv_rows(self, tmp_path):
        r = run_cli("simulate", "--trials", "4", "--seed", "3", cwd=tmp_path)
        assert r.returncode == OK
        rows = list(csv.reader(r.stdout.splitlines()))
        assert rows[0] == ["trial", "residual", "threshold", "passed"]
        assert len(rows) == 5
        assert "covering:" in r.stderr

    def test_bad_config_exits_64(self, tmp_path):
        r = run_cli("simulate", "--ground-size", "8", cwd=tmp_path)
        assert r.returncode == USAGE
