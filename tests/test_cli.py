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

    @pytest.mark.parametrize("flag,value", [("--sweeps", "2"), ("--M", "6.5"), ("--eps", "0.05")])
    def test_removed_flag_exits_64(self, tmp_path, flag, value):
        # no stage reads these, so construct no longer takes them
        r = run_cli(
            "construct", "--poly", "poly:[0,1]", "--x", "300", flag, value,
            "--out", "no.json", cwd=tmp_path,
        )
        assert r.returncode == USAGE
        assert "unrecognized arguments" in r.stderr and flag in r.stderr
        assert not (tmp_path / "no.json").exists()

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

    @pytest.mark.parametrize(
        "extra",
        [["--K", "nan"],["--K", "inf"], ["--xi", "nan"], ["--mode", "random", "--K", "nan"]],
        ids=["K-nan", "K-inf", "xi-nan", "random-K-nan"],
    )
    def test_non_finite_parameter_exits_64(self, tmp_path, extra):
        # a NaN would reach the certificate as "K": NaN, which is not JSON
        r = run_cli(
            "construct", "--poly", "poly:[0,1]", "--x", "300", *extra,
            "--out", "no.json", cwd=tmp_path,
        )
        assert r.returncode == USAGE
        assert "Traceback" not in r.stderr and "must be finite" in r.stderr
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

    def test_one_sided_ignores_explicit_target(self, tmp_path):
        # a one-sided certificate carries no N, so --N is neither checked
        # nor used, and the summary line names no N
        base = ("construct", "--poly", "poly:[0,1]", "--x", "300", "--no-two-sided")
        a = run_cli(*base, "--out", "a.json", cwd=tmp_path)
        b = run_cli(*base, "--N", "12345", "--out", "b.json", cwd=tmp_path)
        assert a.returncode == b.returncode == 0, b.stderr
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert "one-sided" in a.stdout and "N has" not in a.stdout
        assert a.stdout.replace("a.json", "b.json") == b.stdout

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

    def test_construct_then_deep_verify(self, tmp_path):
        r = run_cli(
            "construct", "--poly", "poly:[0,1]", "--x", "4000", "--seed", "7",
            "--out", "cert.json", cwd=tmp_path,
        )
        assert r.returncode == OK, r.stderr
        assert "N has 5097 digits" in r.stdout
        with open(tmp_path / "cert.json") as fh:
            assert len(json.load(fh)["placement"]["N"]) == 5097
        r = run_cli("verify", "cert.json", "--deep", cwd=tmp_path)
        assert r.returncode == OK, r.stderr
        report = json.loads(r.stdout)
        assert report["valid"] is True and report["failures"] == []

    @pytest.mark.parametrize("field", ["N", "b1", "n2"])
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


class TestVerify:
    def test_valid_deep(self, workdir):
        r = run_cli("verify", "cert.json", "--deep", cwd=workdir)
        assert r.returncode == OK
        report = json.loads(r.stdout)
        assert report["valid"] is True
        assert report["mode"] == "deep"
        assert report["failures"] == []

    def test_fast_default(self, workdir):
        r = run_cli("verify", "cert.json", cwd=workdir)
        assert r.returncode == OK
        assert json.loads(r.stdout)["mode"] == "fast"

    def test_report_to_file(self, workdir):
        r = run_cli("verify", "cert.json", "--deep", "--out", "report.json", cwd=workdir)
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
        r = run_cli("verify", "bad.json", "--deep", cwd=workdir)
        assert r.returncode == VERIFY_FAILED
        report = json.loads(r.stdout)
        assert report["valid"] is False

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
        r = run_cli("verify", "huge_x.json", "--deep", cwd=workdir)
        assert r.returncode == VERIFY_FAILED
        assert "Traceback" not in r.stderr
        report = json.loads(r.stdout)
        assert report["checked"] == 0
        assert any("can support" in m for m in report["messages"])

    @pytest.mark.parametrize("rate", ["nan", "inf", "1e30", "0", "-0.5"])
    def test_sample_rate_outside_unit_interval_exits_64(self, workdir, rate):
        r = run_cli("verify", "cert.json", "--sample", rate, cwd=workdir)
        assert r.returncode == USAGE
        assert "Traceback" not in r.stderr and "(0, 1]" in r.stderr
        assert r.stdout == ""

    def test_non_finite_parameter_exits_64(self, workdir):
        with open(workdir / "cert.json") as fh:
            obj = json.load(fh)
        obj["params"]["K"] = float("nan")
        with open(workdir / "nan.json", "w") as fh:
            json.dump(obj, fh)
        r = run_cli("verify", "nan.json", cwd=workdir)
        assert r.returncode == USAGE
        assert "Traceback" not in r.stderr and "K must be finite" in r.stderr

    def test_missing_file_exits_64(self, tmp_path):
        r = run_cli("verify", "nope.json", cwd=tmp_path)
        assert r.returncode == USAGE

    def test_unreadable_json_exits_64(self, tmp_path):
        (tmp_path / "junk.json").write_text("{not json")
        r = run_cli("verify", "junk.json", cwd=tmp_path)
        assert r.returncode == USAGE

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
            lambda obj: {**obj, "placement": {**obj["placement"], "I1": 7}},
        ],
        ids=["top-level-list", "stages-number", "params-string", "window-number"],
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
        (["verify", "cert.json", "--seed", "-1"], "negative"),
        (["simulate", "--seed", "-1"], "negative"),
        # the shift range (K + 2) * y must fit int64
        (["construct", "--poly", "poly:[0,1]", "--x", "300", "--mode", "random", "--K", "1e30"],
         "2^63"),
        # about 10^6 scales per side would not finish
        (["construct", "--poly", "poly:[0,1]", "--x", "300", "--mode", "random",
          "--xi", "1.000001"], "scales"),
    ],
    ids=[
        "stats-x-overflow", "stats-x-one", "stats-x-zero", "oracle-n-zero",
        "simulate-no-candidates", "construct-seed-negative", "verify-seed-negative",
        "simulate-seed-negative", "random-K-overflow", "random-xi-near-one",
    ],
)
def test_bad_argument_exits_64(tmp_path, args, message):
    r = run_cli(*args, cwd=tmp_path)
    assert r.returncode == USAGE
    assert "Traceback" not in r.stderr and message in r.stderr


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
