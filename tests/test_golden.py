"""Golden certificates: equal inputs and seeds give the same bytes across
versions of the constructor, not only within one run.

The cases are x = 300 with seeds 7 and 8, and x = 1000, 10^4 and
3 * 10^4 with seed 7, under default parameters (auto N). At x = 10^4 the
survivors are sparse against the windows, which pins the cover state
where it differs most from a bitmap. At 3 * 10^4 the survivors are too
many for most medium primes to share a block, so those three cases pin
the cover state's blocks of one prime, scoring on both sides. They were
recorded before a block of one replaced the separate one-prime step, and
kept their bytes. Each digest pins the certificate of the window length
the constructor settles on, so a change to the search over y moves every
digest whose y it moves. The 9 digests at x <= 1000 were last
re-recorded when the greedy medium stage became one ascending pass, in
place of a greedy pass followed by refinement sweeps that re-picked each
medium residue: every certificate moved. So none of the default x = 300
digests equals the ones in bench/results/construct-small-seed{7,8}.json
until the benchmark's recorded results are refreshed. Earlier changes that
moved digests on purpose: the search over y starting from a fitted start
that grows with x, stepping by at least 1 % before it brackets the root,
and damping its first step where the cleanup primes are few (the cases
whose y it moved), and the secant search over y (the cases whose y it
moved). Every case then pinned moved once more, with every y unchanged,
when the certificate format became version 2: one line of compact JSON,
with the placement reduced to N and b1 and the parameters to x, delta,
xi, K and y. Every case moved again, with every y unchanged, when the
parameters lost xi and K, which no stage read: each certificate is the one
before with `"xi":2.0,"K":8.0,` removed. The version stayed 2, and a file
that still carries the two keys loads, writes the new bytes and verifies
the same (PARENT_FORMAT pins such files).
A change that moves one of them changes the certificate format or the
construction, and must say so.

The x = 300 cases are built once more from a warm root cache, whose
tables hold their root counts as u1 and their roots as u4, and must give
the same digests.

One stats CSV is pinned the same way (STATS_GOLDEN), and so are the verify
reports of the x = 1000 and x = 10^4 certificates (VERIFY_GOLDEN), each of
which checks every offset of both windows. They were recorded in the
verifier's deep mode, and kept their bytes when it became the only one, and
again when the verifier stopped building a root table over every prime up
to x and found the roots of its listed primes alone, which each of them
checks with the table builder stubbed out.
Certificates written by the randomized medium stage, since removed, label
a two-sided medium stage "fwd"; a greedy certificate relabelled that way
must verify with the same report bytes, which pins that such files still
verify.

Run as a script (`PYTHONPATH=src python tests/test_golden.py`) to print the
current digest of every case in GOLDEN, STATS_GOLDEN and VERIFY_GOLDEN with
the achieved y of its certificate, ready to paste over those tables when a
change moves them on purpose, and then each moved case's pinned digest next
to its new one and its y.
"""

import csv
import hashlib
import io
import json

import numpy as np
import pytest

from composite_forge import assemble, modroots
from composite_forge import verify as verify_mod
from composite_forge.assemble import STATS_HEADER, ResidueCertificate, construct_certificate
from composite_forge.cover import SieveParams
from composite_forge.modroots import build_root_table
from composite_forge.poly import IntPolynomial
from composite_forge.verify import verify_certificate

POLYS = {"x": [0, 1], "x^2+1": [1, 0, 1], "x^3+2": [2, 0, 0, 1]}

# (poly, seed) for the default construction, (poly, seed, variant) otherwise
GOLDEN = {
    ("x", 7): "4874ef24a7548ec9d6afa8197e4ad5ccb166ad2f9286eae22286e60e15c92fa9",
    ("x^2+1", 7): "c58269fac8ac2b780d7d79da7624a042fd324c3b73a35775558b275552fcafd9",
    ("x^3+2", 7): "78037c80cf656669ff9f537a37b44b73f1dc6d49b2a8cc33c19290cc91972f34",
    ("x", 8): "ef143003fa27c2947214986463e99996cf3c664e0884ffcb19afa23e499219c4",
    ("x^2+1", 8): "cdac4b403b41e38b3ce869010cf6d027c914b9a049ef2190c8a6f0baf6535f6c",
    ("x^3+2", 8): "03cd248e1462b1ff791cac51d5a98eae2ac699b4b4f7c645df0357a941b894ca",
    ("x", 7, "x=1000"): "55990f6009b7fac701a34c9a60f7c63df5109eecc6caa28c53c1433c65a13faa",
    ("x^2+1", 7, "x=1000"): "f538d0fef71974935413fdaaaedac2caa07cc4cf0dc6043faf3684049b1341a1",
    ("x^3+2", 7, "x=1000"): "5bb09546544c667dd54839184507c70c2ef66d450bb59bc5edf7a65fae51e545",
    ("x", 7, "x=10000"): "01c3833700aaf94cfe959ffe0a65a502b12a9994bb0b265310ab4a1d8ee97f81",
    ("x^2+1", 7, "x=10000"): "5275e860dcbac329d88638dcecde3799726e7a9c87d88cc16410d05c4f0368cb",
    ("x^3+2", 7, "x=10000"): "1d96326d4d721c9263d8716e9a845779d1159b27b1ce1bc9b4c1fbc67b907661",
    ("x", 7, "x=30000"): "3aa46c1d9d881d8c9cb9fbb63a3127693ca476397dc23172ffac7d4d8ee03c1f",
    ("x^2+1", 7, "x=30000"): "00bf2c418c22a908dc0ec27336d0e0148120036c5e77c25bf1e95373a7406713",
    ("x^3+2", 7, "x=30000"): "a89189f5700bfd23c0df1cff1fcb7ab807cfdd0d4d81b037f231dd8a36ec6e46",
}
# sha256 of the x = 1000 certificates as written while the parameters
# still held xi = 2.0 and K = 8.0: each is the GOLDEN certificate with the
# two keys put back between delta and y
PARENT_FORMAT = {
    "x": "f38034a14bcdfbcd6f417737f7b4afa42066755d4d44f595525da6e7cf29a9a8",
    "x^2+1": "5614ba38720eb7778973e0ede7f987136ae1cf6f9fefcb3b6c30a053520e34c5",
    "x^3+2": "01d902ff05f126b54a361d3d2c658b161f8bcd89bb5557f4726b16a51b57c9de",
}
# the x of each variant
VARIANTS = {"x=1000": 1000, "x=10000": 10**4, "x=30000": 3 * 10**4}


# sha256 of the stats CSV that `construct` writes beside the certificate:
# the rows come from the chosen attempt alone, so they move only with its
# certificate
STATS_GOLDEN = {
    ("x^2+1", 7): "0543ed61b7588c1953b02cb8f1f47899dd8b60111f021825ff478ab65d9f736b",
}


# sha256 of the verify report JSON (keys sorted) of the seed 7 certificate
# of each polynomial at the variant's x; a report moves only when the
# verifier's checks move
VERIFY_GOLDEN = {
    ("x", "x=1000"): "5efcdcca0676c3c075602dc3b4099819d10cf1696937313fde786436e2df4aa2",
    ("x^2+1", "x=1000"): "99453d6ea498c3f71f50b333cae53c3fcd10a7386f4082b0a4c4481738b7a72e",
    ("x^3+2", "x=1000"): "9f79f7347d96a7fd327db07e221f594d888ae3f0f8cd10c24c9a94ee828c586d",
    ("x", "x=10000"): "c6884bc335ebea18635aebc5864003707edc99d5c87d17a0828e2690973f04df",
    ("x^2+1", "x=10000"): "a3a733fca7fdeefa3f934cf8cbd26bec9225b5f3ccb4c3f45ff867a86dd1ac23",
    ("x^3+2", "x=10000"): "e4bbbe6f72e9d4bb98fb0c07f138aa7a7e91b7f0b3a62a4e063bb99d00769673",
}


def construct(case, cache_dir=None):
    name, seed, *variant = case
    f = IntPolynomial.from_monomial(POLYS[name])
    x = VARIANTS[variant[0]] if variant else 300
    return construct_certificate(f, SieveParams(x=x), seed, cache_dir=cache_dir)


def certificate_digest(case, cache_dir=None) -> tuple[str, int]:
    """The sha256 of the case's certificate bytes, and its achieved y."""
    cert, stats = construct(case, cache_dir)
    return hashlib.sha256(cert.to_json_bytes()).hexdigest(), stats.extras["achieved_y"]


def stats_csv_digest(case) -> tuple[str, int]:
    """The sha256 of the case's stats CSV, written as the CLI writes it, and
    the case's achieved y."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(STATS_HEADER)
    _, stats = construct(case)
    for row in stats.rows:
        w.writerow(row.row())
    return hashlib.sha256(buf.getvalue().encode()).hexdigest(), stats.extras["achieved_y"]


def verify_report_digest(case) -> tuple[str, int]:
    """The sha256 of the verify report of the case's certificate, read back
    from its bytes as the CLI reads it, and that certificate's achieved y."""
    name, variant = case
    cert, stats = construct((name, 7, variant))
    loaded = ResidueCertificate.from_json_dict(json.loads(cert.to_json_bytes()))
    report = verify_certificate(loaded)
    digest = hashlib.sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode()).hexdigest()
    return digest, stats.extras["achieved_y"]


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda case: "-".join(map(str, case)))
def test_certificate_digest(case):
    assert certificate_digest(case)[0] == GOLDEN[case]


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A root cache holding each polynomial's table at x = 300."""
    cache_dir = str(tmp_path_factory.mktemp("warm-roots"))
    for coeffs in POLYS.values():
        build_root_table(IntPolynomial.from_monomial(coeffs), 300, cache_dir=cache_dir)
    return cache_dir


@pytest.mark.parametrize(
    "case",
    sorted(case for case in GOLDEN if len(case) == 2),
    ids=lambda case: "-".join(map(str, case)),
)
def test_certificate_digest_from_warm_cache(case, warm_cache, monkeypatch):
    # a cached table holds its root counts as u1 and its roots as u4, in
    # read-only arrays, and every stage takes its rows from them as they are
    def warm_only(f, limit, cache_dir=None):
        table = build_root_table(f, limit, cache_dir=cache_dir)
        assert table.counts.dtype == np.uint8 and not table.flat.flags.writeable
        return table

    monkeypatch.setattr(assemble, "build_root_table", warm_only)
    assert certificate_digest(case, warm_cache)[0] == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(STATS_GOLDEN), ids=lambda case: "-".join(map(str, case)))
def test_stats_csv_digest(case):
    assert stats_csv_digest(case)[0] == STATS_GOLDEN[case]


@pytest.mark.parametrize(
    "case", sorted(VERIFY_GOLDEN), ids=lambda case: "-".join(map(str, case))
)
def test_verify_report_digest(case):
    assert verify_report_digest(case)[0] == VERIFY_GOLDEN[case]


@pytest.mark.parametrize(
    "case", sorted(VERIFY_GOLDEN), ids=lambda case: "-".join(map(str, case))
)
def test_verify_builds_no_root_table(case, monkeypatch):
    # the verifier finds the roots of its listed primes alone: no table over
    # every prime up to x is built, and the report keeps its pinned bytes.
    # Construction keeps its own name for the builder (assemble's)
    def no_table(*args, **kwargs):
        raise AssertionError("the verifier built a root table")

    monkeypatch.setattr(verify_mod, "build_root_table", no_table)
    monkeypatch.setattr(modroots, "build_root_table", no_table)
    assert verify_report_digest(case)[0] == VERIFY_GOLDEN[case]


@pytest.mark.parametrize("name", sorted(POLYS))
def test_medium_stage_labelled_fwd_verifies_the_same(name):
    # files from the removed randomized medium stage label a two-sided
    # medium stage "fwd": relabelled so, a greedy certificate differs in
    # that label alone, and its report keeps the pinned bytes
    cert, _ = construct((name, 7, "x=1000"))
    obj = json.loads(cert.to_json_bytes())
    medium = [st for st in obj["stages"] if st["stage"] == "medium"]
    assert [st["side"] for st in medium] == ["both"]
    medium[0]["side"] = "fwd"
    relabelled = ResidueCertificate.from_json_dict(obj)
    raw = relabelled.to_json_bytes()
    assert raw.replace(b'"medium","side":"fwd"', b'"medium","side":"both"') == cert.to_json_bytes()
    report = verify_certificate(relabelled)
    assert report.valid
    digest = hashlib.sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_GOLDEN[name, "x=1000"]


@pytest.mark.parametrize("name", sorted(POLYS))
def test_certificate_with_xi_and_K_verifies_the_same(name):
    # a file from before xi and K were dropped from the parameters: it
    # loads, the two keys ignored, writes the new bytes, and its report
    # keeps the pinned bytes
    cert, _ = construct((name, 7, "x=1000"))
    obj = json.loads(cert.to_json_bytes())
    params = obj["params"]
    obj["params"] = {"x": params["x"], "delta": params["delta"], "xi": 2.0, "K": 8.0,
                     "y": params["y"]}
    raw = (json.dumps(obj, separators=(",", ":")) + "\n").encode()
    assert hashlib.sha256(raw).hexdigest() == PARENT_FORMAT[name]
    loaded = ResidueCertificate.from_json_dict(json.loads(raw))
    assert loaded.to_json_bytes() == cert.to_json_bytes()
    report = verify_certificate(loaded)
    assert report.valid
    digest = hashlib.sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_GOLDEN[name, "x=1000"]


if __name__ == "__main__":
    moved = []
    for table, digest_of, what in ((GOLDEN, certificate_digest, "certificate"),
                                   (STATS_GOLDEN, stats_csv_digest, "stats CSV"),
                                   (VERIFY_GOLDEN, verify_report_digest, "verify report")):
        for case in table:
            key = ", ".join(json.dumps(part) for part in case)
            digest, y = digest_of(case)
            print(f"    ({key}): {json.dumps(digest)},  # {what}, y = {y}")
            if digest != table[case]:
                name = "-".join(map(str, case))
                moved.append(f"{what} {name}: {table[case]} -> {digest} (y = {y})")
    print(f"{len(moved)} moved, pinned -> now:" if moved else "nothing moved")
    for line in moved:
        print(f"  {line}")
