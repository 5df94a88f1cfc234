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
the same (PARENT_FORMAT pins such files). Every case moved again, with
every y unchanged, when the certificate format became version 3: each
certificate is the one before with its stage lists removed and its version
3, since b1 determines every residue. A file that still carries a stage
list, as well as xi and K, loads, writes the new bytes and verifies the
same. Every case moved again, with every y unchanged, when the parameters
lost delta, which only set the exponent of the formula y (now fixed at
1/2) and of a radius the paper does not use: each certificate is the one
before with `"delta":0.5,` removed. A file that still stores delta, in any
form, loads, writes the new bytes and verifies the same.
A change that moves one of them changes the certificate format or the
construction, and must say so.

The x = 300 cases are built once more from a warm root cache, whose
tables hold their root counts as u1 and their roots as u4, and must give
the same digests.

One stats CSV is pinned the same way (STATS_GOLDEN), and so are the verify
reports of the x = 1000 and x = 10^4 certificates (VERIFY_GOLDEN), each of
which checks every offset of both windows. They were recorded in the
verifier's deep mode, and kept their bytes when it became the only one,
when the verifier found the roots of its listed primes alone, and again
when certificates stopped listing primes and the verifier built its root
table over every prime up to x once more, with no cache, which each of
them checks with a spy on the table builder.

Run as a script (`PYTHONPATH=src python tests/test_golden.py`) to print the
current digest of every case in GOLDEN, PARENT_FORMAT, STATS_GOLDEN and
VERIFY_GOLDEN with the achieved y of its certificate, ready to paste over
those tables when a change moves them on purpose, and then each moved
case's pinned digest next to its new one and its y.
"""

import csv
import hashlib
import io
import json

import numpy as np
import pytest

from composite_forge import assemble
from composite_forge import verify as verify_mod
from composite_forge.assemble import STATS_HEADER, ResidueCertificate, construct_certificate
from composite_forge.cover import SieveParams
from composite_forge.modroots import build_root_table
from composite_forge.poly import IntPolynomial
from composite_forge.verify import verify_certificate

POLYS = {"x": [0, 1], "x^2+1": [1, 0, 1], "x^3+2": [2, 0, 0, 1]}

# (poly, seed) for the default construction, (poly, seed, variant) otherwise
GOLDEN = {
    ("x", 7): "f7a418547c268847b40102894927fb365cddd2c9ea4d03fce54944194797fb68",
    ("x^2+1", 7): "5c126633fe3c03122316e3637484f7dd9f68f549859435ead9a297ab3643b98e",
    ("x^3+2", 7): "b8262229ef38f2687bfdaf6f843b925e4f0c1e903b4e8cccf75fe2993da68a3c",
    ("x", 8): "8eaa814489fff21db8526c7456cfa6edcacbf72b5b92f7188dd745590539cdab",
    ("x^2+1", 8): "e01e1b1a984b830d8e766df1338bf2ed2fe99c5b0d24001fcc51770d1def44c4",
    ("x^3+2", 8): "bee172a32e7ac50ea92430f29b4a3e064ecd3c5e5f13d97368004d7f06b3702e",
    ("x", 7, "x=1000"): "bc0632be35f4091998726b15fe7c54fec24c0c2fe529791a5cc93b1aa92b3277",
    ("x^2+1", 7, "x=1000"): "20187f652cfb26504336e6e89cb6c465d8158792573c530ab141fd262e3ba25b",
    ("x^3+2", 7, "x=1000"): "6c10014109ac180162c396676363fc8be888b700d0a5b3e08f7483bec3649762",
    ("x", 7, "x=10000"): "becb4c2172ff333ab84cbf99e9d4383a137c84c12ab697b28e872cec0de39351",
    ("x^2+1", 7, "x=10000"): "5504510311f7a8dbdc7020a8433555e2ca65fa6d848ed2f3ff5458fc7a0696ab",
    ("x^3+2", 7, "x=10000"): "25d9852b22b251e7c8392fabca00d00b1977a9bdf9de15b3f75b12a4f55cce62",
    ("x", 7, "x=30000"): "157a32f72c68cebfcb6c074e17c71404dbab68f73a63df71a2a6ed94c6e27749",
    ("x^2+1", 7, "x=30000"): "8f0732e43afbd619baab0f6431ef1c4dbaf91ccb34b9c3a80d2571926c8f3afc",
    ("x^3+2", 7, "x=30000"): "fd935a39470f6200940acbd49058dd3e0963a83ed28c2b5d73adbf10a4005824",
}
# sha256 of the x = 1000 certificates with the keys older files carry put
# back (with_older_keys): delta = 0.5, xi = 2.0 and K = 8.0, which the
# parameters held before they were dropped, and a stage list, in which
# version 2 stored its residues
PARENT_FORMAT = {
    "x": "f24f16cb44a0c94a0517320bc40f01b9af1ea6bbab127505126d02fa103876ed",
    "x^2+1": "3393fa244b88cc30af64d6d4a15aa80258fb723d9bfbd10d878ab44bde792991",
    "x^3+2": "889e0a55c53e92c7d8e780e7efdecbe70cf34e4fe38fc2e769970154fb790bad",
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
def test_verify_builds_its_table_without_a_cache(case, monkeypatch):
    # the verifier builds one root table over the primes up to x by
    # build_root_table(f, x), trusting no cache, and the report keeps its
    # pinned bytes. Construction keeps its own name for the builder
    # (assemble's)
    calls = []
    build = verify_mod.build_root_table

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return build(*args, **kwargs)

    monkeypatch.setattr(verify_mod, "build_root_table", spy)
    assert verify_report_digest(case)[0] == VERIFY_GOLDEN[case]
    name, variant = case
    [((f, x), kwargs)] = calls
    assert f.coeffs == IntPolynomial.from_monomial(POLYS[name]).coeffs
    assert x == VARIANTS[variant] and kwargs.get("cache_dir") is None


def with_older_keys(cert, delta=0.5) -> bytes:
    """The certificate's bytes with the keys older files carry put back:
    delta, xi = 2.0 and K = 8.0 between x and y, and between seed and
    placement a stage list of [q, r] pairs (here b1's residues, one stage),
    as version 2 stored its residues."""
    obj = json.loads(cert.to_json_bytes())
    params = obj["params"]
    stages = [{"stage": "small", "side": "both",
               "assignments": [[q, r] for q, r in sorted(cert.residues().items())]}]
    older = {
        "poly": obj["poly"],
        "params": {"x": params["x"], "delta": delta, "xi": 2.0, "K": 8.0, "y": params["y"]},
        "seed": obj["seed"],
        "stages": stages,
        **{k: obj[k] for k in ("placement", "irreducibility", "version")},
    }
    return (json.dumps(older, separators=(",", ":")) + "\n").encode()


@pytest.mark.parametrize("name", sorted(POLYS))
def test_certificate_with_xi_and_K_verifies_the_same(name):
    # a file that still carries delta, xi, K and a stage list: it loads, the
    # keys ignored whatever delta holds, writes the certificate's bytes, and
    # its report keeps the pinned bytes
    cert, _ = construct((name, 7, "x=1000"))
    assert hashlib.sha256(with_older_keys(cert)).hexdigest() == PARENT_FORMAT[name]
    for delta in (0.5, 0.25, "0.5"):
        loaded = ResidueCertificate.from_json_dict(json.loads(with_older_keys(cert, delta)))
        assert loaded.to_json_bytes() == cert.to_json_bytes()
        report = verify_certificate(loaded)
        assert report.valid
        digest = hashlib.sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode())
        assert digest.hexdigest() == VERIFY_GOLDEN[name, "x=1000"]


def older_keys_digest(name) -> tuple[str, int]:
    """The sha256 of the x = 1000, seed 7 certificate of the polynomial with
    the older keys put back (with_older_keys), and its achieved y."""
    cert, stats = construct((name, 7, "x=1000"))
    return hashlib.sha256(with_older_keys(cert)).hexdigest(), stats.extras["achieved_y"]


if __name__ == "__main__":
    moved = []
    for table, digest_of, what in ((GOLDEN, certificate_digest, "certificate"),
                                   (PARENT_FORMAT, older_keys_digest, "older-keys certificate"),
                                   (STATS_GOLDEN, stats_csv_digest, "stats CSV"),
                                   (VERIFY_GOLDEN, verify_report_digest, "verify report")):
        for case in table:
            # PARENT_FORMAT is keyed by the polynomial's name alone
            parts = (case,) if isinstance(case, str) else case
            key = ", ".join(json.dumps(part) for part in parts)
            key = key if isinstance(case, str) else f"({key})"
            digest, y = digest_of(case)
            print(f"    {key}: {json.dumps(digest)},  # {what}, y = {y}")
            if digest != table[case]:
                name = "-".join(map(str, parts))
                moved.append(f"{what} {name}: {table[case]} -> {digest} (y = {y})")
    print(f"{len(moved)} moved, pinned -> now:" if moved else "nothing moved")
    for line in moved:
        print(f"  {line}")
