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
secant search over y (the cases whose y it moved), and the one-sided
refinement sweeps coming to score the forward window only (the one-sided
cases).
A change that moves one of them changes the certificate format or the
construction, and must say so.

Two stats CSVs, of one two-sided and one one-sided case, are pinned the
same way (STATS_GOLDEN).

Run as a script (`PYTHONPATH=src python tests/test_golden.py`) to print the
current digest and achieved y of every case, and the pinned stats digests,
ready to paste over GOLDEN and STATS_GOLDEN when a change moves them on
purpose.
"""

import csv
import hashlib
import io
import json

import pytest

from composite_forge.assemble import STATS_HEADER, construct_certificate
from composite_forge.cover import SieveParams
from composite_forge.poly import IntPolynomial

POLYS = {"x": [0, 1], "x^2+1": [1, 0, 1], "x^3+2": [2, 0, 0, 1]}

# (poly, seed) for the default construction, (poly, seed, variant) otherwise
GOLDEN = {
    ("x", 7): "f37ba5abee2d4517b236ef0ce444b2d26ea7b6d664ef88671079ead1d7a5d25c",
    ("x^2+1", 7): "b45e1066ace4bac10e331f0c9a4e4c4973b65c684b5990f29f13e0e006f4f174",
    ("x^3+2", 7): "d21da84fe69948d860e0ddd7b4dac921de50b1fd9af17437409e088d2af50538",
    ("x", 8): "23e38e846b9a6cf6da608aa4655808ad22bc616a5e7a0e75df6593d8108b4a46",
    ("x^2+1", 8): "2d8306f35180939513387984a2daae9c35951c0db7d1dbe0b04bff3e65692a2d",
    ("x^3+2", 8): "955dc640a1a780a76a13349e864110b28c15f2f4b23f838a71571fb428fed1ff",
    ("x", 7, "one-sided"): "78aaab2555b70f8227be4dc16d9cd666eb436f2eedc75e122f09feec531d9f3a",
    ("x^2+1", 7, "one-sided"): "e852e007ea6163abbe6e0bd8bac5ab6c737e76230f4df52df08b4bcffda8efc0",
    ("x^3+2", 7, "one-sided"): "bca2dc8494c164429ffd690a24555f52266c17356f97e19b732ed9962ddbfa78",
    ("x", 8, "one-sided"): "eae72ae18d7971dca0fa7b8b559ae0d8ec3569201b2221a30b9244df48004e45",
    ("x^2+1", 8, "one-sided"): "0f7442035ac4d2f2decfba15b2f821230de1b3ae3a5a64ff44713823638f0153",
    ("x^3+2", 8, "one-sided"): "58464a5b63ab3708f52d5aff89cc2c65f62fdb2b06ab9c3a5416987864219d2d",
    ("x", 7, "random"): "77970ec9c0ca0103b253c8e6d098d38a731529de73d4205db61a727a58b82cb3",
    ("x^2+1", 7, "random"): "cae6cb58d690e54ff39680038752e37a506b4d5ecede701cac5a5a4b8851b38a",
    ("x^3+2", 7, "random"): "a707ba47eb3e0f582da9d331c4c19c96866663b43bdb476dbe39b373a08928c2",
    ("x", 8, "random"): "b2a23b15c0343ea0a2861b60144d384ab5daf6235e7ba4d274af7858c74edf7b",
    ("x^2+1", 8, "random"): "e1416236a1fdebf11d5cac7312c3b594582f9b00da47115bd17ad1417075fdfb",
    ("x^3+2", 8, "random"): "af147d0a2596fcd94d1981b504b6b1f9ff06e460442e5e0df24b388d44ddc562",
    ("x", 7, "random-one-sided"): "646e436351dff02808f6578ffe5723fab7c9fa860a8726ea5fde6ac0cc2e4b54",
    ("x^2+1", 7, "random-one-sided"): "df0505a068016c81be15bd25987296a68061d7dcab2d13f0cacafc890e331ac0",
    ("x^3+2", 7, "random-one-sided"): "ac5bb35661bfb9594bb1468e181beab0b3f89dcfe0de89dd6000b570088bb238",
    ("x", 8, "random-one-sided"): "7c30e29e5704831341c7b88e756929dd43fa85c2afd7954f98cd2b0e2834ff42",
    ("x^2+1", 8, "random-one-sided"): "78694a2637dea7f3b2246c2e0724c21fba551c242baf6f38d186236ce3d7b335",
    ("x^3+2", 8, "random-one-sided"): "b93ed2b9df0bfe8ddaf671ad0dfe00cf1168d43720bbcedc3ecee94a9b92b085",
    ("x", 7, "x=1000"): "d65bfcd00729362f418cc143555e1da3e52fa7093658e7d2804f0ee810e8a1cc",
    ("x^2+1", 7, "x=1000"): "f5858d70391997fc1aa3e094c43e025f857816e91f302647844ebc0541b61493",
    ("x^3+2", 7, "x=1000"): "779f3fe04877a0c50e646ac99cec3cef7cb9bf676391cec230880d6a750235e4",
    ("x", 7, "x=10000"): "86b31609d61eca3efa9035dd7e2053e64cb81d3a5befed5663e1ac415982e0a9",
    ("x^2+1", 7, "x=10000"): "fcbc0cb8086a7682c39dacb81fd37f0ffe3c0d733a9677f39ad1c647ad2448b4",
    ("x^3+2", 7, "x=10000"): "e8215e4634a0507919008f619be4b5dcd836857a9e5fd917fcdfc7a1dbbff940",
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
    ("x^3+2", 7, "one-sided"): "35b3515c43f3b12745669dedea3704f42fbc60bf12a9e96a834c84a254262a55",
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


def stats_csv_digest(case) -> str:
    """The sha256 of the case's stats CSV, written as the CLI writes it."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(STATS_HEADER)
    for row in construct(case)[1].rows:
        w.writerow(row.row())
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda case: "-".join(map(str, case)))
def test_certificate_digest(case):
    assert certificate_digest(case)[0] == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(STATS_GOLDEN), ids=lambda case: "-".join(map(str, case)))
def test_stats_csv_digest(case):
    assert stats_csv_digest(case) == STATS_GOLDEN[case]


if __name__ == "__main__":
    for case in GOLDEN:
        key = ", ".join(json.dumps(part) for part in case)
        digest, y = certificate_digest(case)
        print(f"    ({key}): {json.dumps(digest)},  # y = {y}")
    for case in STATS_GOLDEN:
        key = ", ".join(json.dumps(part) for part in case)
        print(f"    ({key}): {json.dumps(stats_csv_digest(case))},  # stats CSV")
