"""Exit codes and artifact emission of the command-line front end."""

import csv
import json
import os
import subprocess
import sys

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
        assert "construction failed" in r.stderr
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

    def test_explicit_mode_requires_target(self, tmp_path):
        r = run_cli(
            "construct", "--poly", "poly:[0,1]", "--x", "300",
            "--n-mode", "explicit", cwd=tmp_path,
        )
        assert r.returncode == USAGE

    def test_missing_subcommand(self, tmp_path):
        r = run_cli(cwd=tmp_path)
        assert r.returncode == USAGE


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

    def test_missing_file_exits_64(self, tmp_path):
        r = run_cli("verify", "nope.json", cwd=tmp_path)
        assert r.returncode == USAGE

    def test_unreadable_json_exits_64(self, tmp_path):
        (tmp_path / "junk.json").write_text("{not json")
        r = run_cli("verify", "junk.json", cwd=tmp_path)
        assert r.returncode == USAGE

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


class TestOracle:
    def test_frozen_run(self, tmp_path):
        r = run_cli("oracle", "--poly", "poly:[0,1]", "--n", "100", cwd=tmp_path)
        assert r.returncode == OK
        assert json.loads(r.stdout) == {"start": 90, "length": 7, "n_scanned": 100}


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
