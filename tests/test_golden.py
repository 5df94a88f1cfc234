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
xi, K and y.
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
    ("x", 7): "69fea40e3c2137164f2d0d41a68dd91110a71aa52fef994dd096a0f498c3735b",
    ("x^2+1", 7): "9a026f786345d815599ba986123813c736c54ed6a92138de4df9f3965b0c174b",
    ("x^3+2", 7): "60f8afaea9e6a8b3a4f860d263fa5b215e5bd0901effa5dbc8c54cf20d47724f",
    ("x", 8): "8471a1495073794ab130d5ec2a1c5d93361d0424f8b90e778c13a5c5e4e72c39",
    ("x^2+1", 8): "4a0684f18dab076919f0b8d910710a99bfe3bb5cb3a204fd075365450ea7f062",
    ("x^3+2", 8): "e0bce219421b55fc07525fa900eca492e9f98922b8418a9ca1a3f271d6830125",
    ("x", 7, "x=1000"): "f38034a14bcdfbcd6f417737f7b4afa42066755d4d44f595525da6e7cf29a9a8",
    ("x^2+1", 7, "x=1000"): "5614ba38720eb7778973e0ede7f987136ae1cf6f9fefcb3b6c30a053520e34c5",
    ("x^3+2", 7, "x=1000"): "01d902ff05f126b54a361d3d2c658b161f8bcd89bb5557f4726b16a51b57c9de",
    ("x", 7, "x=10000"): "36b3843268d72e0f230ae0d21b96a46a551867d7935e68d037750a14bb7089d8",
    ("x^2+1", 7, "x=10000"): "dfcfaf777411eed6b0ade409ed650f8ac7f46bc8f454e85387f46c9cee840a46",
    ("x^3+2", 7, "x=10000"): "87385d6b9f5961eb25850208d65a13eea7f3fd38a8426717b9b683dc36bf85de",
    ("x", 7, "x=30000"): "922164b33902e5e3669d8318ecb5fc792d516783ab6ed1e968c1eb2ecff38a37",
    ("x^2+1", 7, "x=30000"): "afac2e46469ef9000abb50e1db561c27fa9c2a2b821f204fadfae210c831b598",
    ("x^3+2", 7, "x=30000"): "2999662231ec604d618950f613176978d3ae0c3de349149da564d15e1a09606c",
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
