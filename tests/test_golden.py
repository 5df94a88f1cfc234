"""Golden certificates: equal inputs and seeds give the same bytes across
versions of the constructor, not only within one run.

The cases are x = 300 with seeds 7 and 8, and x = 1000 and x = 10^4 with
seed 7, under default parameters (greedy mode, auto N), and at x = 300 also
one-sided, random and random one-sided. At x = 10^4 the survivors are
sparse against the windows, which pins the cover state where it differs
most from a bitmap. Each digest pins the certificate of the window length
the constructor settles on, so a change to the search over y moves every
digest whose y it moves. The 15 greedy digests at x <= 1000 were last
re-recorded when the greedy medium stage became one ascending pass, in
place of a greedy pass followed by refinement sweeps that re-picked each
medium residue: every greedy certificate moved, and the 12 random-mode ones
kept their bytes. So none of the default x = 300 digests equals the ones in
bench/results/construct-small-seed{7,8}.json until the benchmark's recorded
results are refreshed. Earlier changes that moved digests on purpose: the
search over y starting from a start fitted per mode and sidedness that
grows with x, stepping by at least 1 % before it brackets the root, and
damping its first step where the cleanup primes are few (the cases whose y
it moved), the secant search over y (the cases whose y it moved), and the
one-sided refinement sweeps coming to score the forward window only (the
one-sided cases).
A change that moves one of them changes the certificate format or the
construction, and must say so.

Two stats CSVs, of one two-sided and one one-sided case, are pinned the
same way (STATS_GOLDEN), and so are the verify reports of the x = 1000 and
x = 10^4 certificates and of the x = 300 one-sided and random ones
(VERIFY_GOLDEN), each of which checks every offset of both windows, or of
the one window of a one-sided certificate. They were recorded in the
verifier's deep mode, and kept their bytes when it became the only one.

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

import pytest

from composite_forge.assemble import STATS_HEADER, ResidueCertificate, construct_certificate
from composite_forge.cover import SieveParams
from composite_forge.poly import IntPolynomial
from composite_forge.verify import verify_certificate

POLYS = {"x": [0, 1], "x^2+1": [1, 0, 1], "x^3+2": [2, 0, 0, 1]}

# (poly, seed) for the default construction, (poly, seed, variant) otherwise
GOLDEN = {
    ("x", 7): "b4d9f3abf0e2ee05e1dbbeafee3604dc808200dc3549f583c58c2a68b00771b7",
    ("x^2+1", 7): "b45e1066ace4bac10e331f0c9a4e4c4973b65c684b5990f29f13e0e006f4f174",
    ("x^3+2", 7): "d21da84fe69948d860e0ddd7b4dac921de50b1fd9af17437409e088d2af50538",
    ("x", 8): "a686c9af201873379db4ad8bf9ded1cdeca1ed3882adc083d2316bfa8545ebca",
    ("x^2+1", 8): "2d8306f35180939513387984a2daae9c35951c0db7d1dbe0b04bff3e65692a2d",
    ("x^3+2", 8): "955dc640a1a780a76a13349e864110b28c15f2f4b23f838a71571fb428fed1ff",
    ("x", 7, "one-sided"): "874693e9debd2e36a6a4c7665b0a07210c9b2bc66fda374c2a9d3d8f6ec29bfd",
    ("x^2+1", 7, "one-sided"): "055125d5ecced866c4a192831f6722c464d7f1c5968d64904817fc6b3b057087",
    ("x^3+2", 7, "one-sided"): "02c994b86c64791395472287f0c971d18f795c53205a4c97f311b45fa5170b24",
    ("x", 8, "one-sided"): "9bcffb3775e66848f3e5f519fe645b5d40c610f7dcd0e465e4c3d0bb853c2d02",
    ("x^2+1", 8, "one-sided"): "94e3886d4d6c795112c709f609f854baea9ca0f063bfd71a2ecedcf82d97c8c6",
    ("x^3+2", 8, "one-sided"): "4f5797edd61fb3487ddd5b3210141571fb2027b78a13a22975b8c2d126247637",
    ("x", 7, "random"): "a54badaf3611ae05e758ab791b56d153dc81839324ede1c09296ccf47e3b5418",
    ("x^2+1", 7, "random"): "cae6cb58d690e54ff39680038752e37a506b4d5ecede701cac5a5a4b8851b38a",
    ("x^3+2", 7, "random"): "1209feac1672d272cc4bf75a1d1eae57b8b3ae4511c2b1179b2013ae85d95d04",
    ("x", 8, "random"): "bd4861aa61bd339fb2593b017f35703a0ef65130a9d6880fd339178b98674587",
    ("x^2+1", 8, "random"): "e1416236a1fdebf11d5cac7312c3b594582f9b00da47115bd17ad1417075fdfb",
    ("x^3+2", 8, "random"): "af147d0a2596fcd94d1981b504b6b1f9ff06e460442e5e0df24b388d44ddc562",
    ("x", 7, "random-one-sided"): "05426c7e0b164088196da33c381540b40184fcf243f99dfaea07617464ed853b",
    ("x^2+1", 7, "random-one-sided"): "df0505a068016c81be15bd25987296a68061d7dcab2d13f0cacafc890e331ac0",
    ("x^3+2", 7, "random-one-sided"): "ac5bb35661bfb9594bb1468e181beab0b3f89dcfe0de89dd6000b570088bb238",
    ("x", 8, "random-one-sided"): "f874e4d377e492b5f19cbe2ad3fff514d2a96708fc6ac67bc2819ecb44c35a7b",
    ("x^2+1", 8, "random-one-sided"): "78694a2637dea7f3b2246c2e0724c21fba551c242baf6f38d186236ce3d7b335",
    ("x^3+2", 8, "random-one-sided"): "3d741cf7093ccfc3ce42c4a2f9dacef0f983af6e690caff65601639f9530acee",
    ("x", 7, "x=1000"): "f899fa828a8ed4fd2f786ee1b24b41a57f6c0356eb9f00fd68a43f23eb148828",
    ("x^2+1", 7, "x=1000"): "5e11abb760783ea23f875060f4b872d8f443b044920f2792649d59947e573eb3",
    ("x^3+2", 7, "x=1000"): "779f3fe04877a0c50e646ac99cec3cef7cb9bf676391cec230880d6a750235e4",
    ("x", 7, "x=10000"): "094f6bf0da2b027039eb446fc384928a2608da2c049f398e4e67f9d72b2db4e4",
    ("x^2+1", 7, "x=10000"): "03c2d25f36a97ed14243a4275c43736eba2d5528158e751befc3d1e304fe5908",
    ("x^3+2", 7, "x=10000"): "67483c982bb719d727f5d2b220162572892335c5c23b8ea0c9b05b833c12be18",
}
# (x, keyword arguments of construct_certificate) for each variant
VARIANTS = {
    "one-sided": (300, {"two_sided": False}),
    "random": (300, {"mode": "random"}),
    "random-one-sided": (300, {"mode": "random", "two_sided": False}),
    "x=1000": (1000, {}),
    "x=10000": (10**4, {}),
}


# sha256 of the stats CSV that `construct` writes beside the certificate,
# for one two-sided and one one-sided case: the rows come from the chosen
# attempt alone, so they move only with its certificate
STATS_GOLDEN = {
    ("x^2+1", 7): "0543ed61b7588c1953b02cb8f1f47899dd8b60111f021825ff478ab65d9f736b",
    ("x^3+2", 7, "one-sided"): "3c664e34121a3ca1facc002e87ca017523d2c51bef748c56a8fe1f25f111e72a",
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
    ("x", "one-sided"): "b816458d7e3fdd183baa95418561776b9a8341867c2599ac5bdefe940bc70eae",
    ("x^2+1", "one-sided"): "f3c9b2a404d5b6e454949e40fe664ec96a91122f4d6702c4fb861db9d727f7fd",
    ("x^3+2", "one-sided"): "bc6fc3dadf36a9ebe297b8cfba8667c7d44713c1a4396db47e1aae73559a4db6",
    ("x", "random"): "e95008821d9b9004335b9af30bf34cffb1c850c77de8a4e2555ca7fc128a609a",
    ("x^2+1", "random"): "e2a5f9f81a8740d8abfd3df380460740014423d612b6704ca428468b8e8d91f0",
    ("x^3+2", "random"): "415d686a66144da6f7234bea7a1247de1954588963f10b15f7c6de92a37b94e5",
}


def construct(case):
    name, seed, *variant = case
    f = IntPolynomial.from_monomial(POLYS[name])
    x, kwargs = VARIANTS[variant[0]] if variant else (300, {})
    return construct_certificate(f, SieveParams(x=x), seed, **kwargs)


def certificate_digest(case) -> tuple[str, int]:
    """The sha256 of the case's certificate bytes, and its achieved y."""
    cert, stats = construct(case)
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


@pytest.mark.parametrize("case", sorted(STATS_GOLDEN), ids=lambda case: "-".join(map(str, case)))
def test_stats_csv_digest(case):
    assert stats_csv_digest(case)[0] == STATS_GOLDEN[case]


@pytest.mark.parametrize(
    "case", sorted(VERIFY_GOLDEN), ids=lambda case: "-".join(map(str, case))
)
def test_verify_report_digest(case):
    assert verify_report_digest(case)[0] == VERIFY_GOLDEN[case]


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
