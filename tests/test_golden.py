"""Golden certificates: equal inputs and seeds give the same bytes across
versions of the constructor, not only within one run.

The cases are x = 300 with seeds 7 and 8, and x = 1000 with seed 7, under
default parameters (two refinement sweeps, auto N). The default greedy
two-sided digests at x = 300 are the ones recorded in
bench/results/construct-small-seed{7,8}.json; the one-sided greedy and the
two-sided random digests were recorded from the constructor before the
medium stage moved onto the cover-count engine, and the x = 1000 digests
before the one-bincount scorer replaced the per-window class scores. The
one-sided digests were re-recorded when each window-length attempt came to
build one cover state: refinement used to score a backward window built
from N, which a one-sided certificate neither covers nor records, and now
scores only the forward window, so those certificates changed (and no
longer depend on N). The random one-sided digests were recorded before the
randomized medium stage stopped building a scale-ladder object and came to
walk its scales itself, in the same draw order. A change that moves one of
them changes the certificate format or the construction, and must say so.

Run as a script (`PYTHONPATH=src python tests/test_golden.py`) to print the
current digest of every case, ready to paste over GOLDEN when a change moves
the certificates on purpose.
"""

import hashlib
import json

import pytest

from composite_forge.assemble import construct_certificate
from composite_forge.cover import SieveParams
from composite_forge.poly import IntPolynomial

POLYS = {"x": [0, 1], "x^2+1": [1, 0, 1], "x^3+2": [2, 0, 0, 1]}

# (poly, seed) for the default construction, (poly, seed, variant) otherwise
GOLDEN = {
    ("x", 7): "20e4f72cbbc49874527408727b2024ef2551d76c7f559bed5c8148ad3bb47731",
    ("x^2+1", 7): "befc5abe938008f9cdc429619e1b4cfdd91b8512e9f171b61595448fe27d960a",
    ("x^3+2", 7): "56820e0025c798bcdf080cc3df0fce6f047c1cdbf318b1a30682d35f4c175d8e",
    ("x", 8): "b9cc4fd4e0b41b08714e14ece70edfcd0ccef940027f4ea6740080ddaf4e73fd",
    ("x^2+1", 8): "f5ec2f174901c23cbecaa929034d3c97d0d9e8aa939226fc25bd64ec25e061f8",
    ("x^3+2", 8): "aceacd79e13d2d020bd2803134ffc30787ed338fa269fdddbd9b57db06ccefdb",
    ("x", 7, "one-sided"): "93a8c26fb1bf819eb8ef98aece953b7835cc93cfb13fbb1e152a1a2c30523c88",
    ("x^2+1", 7, "one-sided"): "2f6505ad6a8a573092b2edc988761e59de49f9096935b09cec7bb1767c848149",
    ("x^3+2", 7, "one-sided"): "dd16d33434e1327a7e20834b46037e85dd4b9c6f90ed35976e28217e9246b8b7",
    ("x", 8, "one-sided"): "76620ff4afa284b621a4d6a7c06075696166839805a3a8ebf48ddca3e2a2694f",
    ("x^2+1", 8, "one-sided"): "2f859a9a832e4835488d7745667407f3ce50903c35b404dd21cbdb84def7dce8",
    ("x^3+2", 8, "one-sided"): "ac69dce0054b6bf4ea69152d3dadbd8590a7a7e522a9ad12f820ad314e5b2225",
    ("x", 7, "random"): "a54badaf3611ae05e758ab791b56d153dc81839324ede1c09296ccf47e3b5418",
    ("x^2+1", 7, "random"): "cae6cb58d690e54ff39680038752e37a506b4d5ecede701cac5a5a4b8851b38a",
    ("x^3+2", 7, "random"): "a707ba47eb3e0f582da9d331c4c19c96866663b43bdb476dbe39b373a08928c2",
    ("x", 8, "random"): "7a6c269ff59c8bb037da2420c6649962c2d8017516c175572c5eca92a37bf63e",
    ("x^2+1", 8, "random"): "e1416236a1fdebf11d5cac7312c3b594582f9b00da47115bd17ad1417075fdfb",
    ("x^3+2", 8, "random"): "64804910738ec20f5185c029fb09ce6bd4b3dee5e4e39adfcdc0f2896aeea2ae",
    ("x", 7, "random-one-sided"): "fdc0136dd214ab4c96a7c4b8dd8ea833f0bd3f928043581b45fdb70bf42d5926",
    ("x^2+1", 7, "random-one-sided"): "df0505a068016c81be15bd25987296a68061d7dcab2d13f0cacafc890e331ac0",
    ("x^3+2", 7, "random-one-sided"): "ac5bb35661bfb9594bb1468e181beab0b3f89dcfe0de89dd6000b570088bb238",
    ("x", 8, "random-one-sided"): "f874e4d377e492b5f19cbe2ad3fff514d2a96708fc6ac67bc2819ecb44c35a7b",
    ("x^2+1", 8, "random-one-sided"): "78694a2637dea7f3b2246c2e0724c21fba551c242baf6f38d186236ce3d7b335",
    ("x^3+2", 8, "random-one-sided"): "3d741cf7093ccfc3ce42c4a2f9dacef0f983af6e690caff65601639f9530acee",
    ("x", 7, "x=1000"): "a4af46cc1fa6249568fd4a90e0d7677b5a8bb161934e7897329fa085aff6ccde",
    ("x^2+1", 7, "x=1000"): "250abb71c744d17c336547ec6abed10fac4d567a46bc23835bbcb29ab0df90c8",
    ("x^3+2", 7, "x=1000"): "23e9b6a24fcc1aac23233b8050925fa716dea8f2e78fbdf64cb2012fc8e7a2d0",
}
# (x, keyword arguments of construct_certificate) for each variant
VARIANTS = {
    "one-sided": (300, {"two_sided": False}),
    "random": (300, {"mode": "random"}),
    "random-one-sided": (300, {"mode": "random", "two_sided": False}),
    "x=1000": (1000, {}),
}


def certificate_digest(case) -> str:
    name, seed, *variant = case
    f = IntPolynomial.from_monomial(POLYS[name])
    x, kwargs = VARIANTS[variant[0]] if variant else (300, {})
    cert, _ = construct_certificate(f, SieveParams(x=x), seed, **kwargs)
    return hashlib.sha256(cert.to_json_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda case: "-".join(map(str, case)))
def test_certificate_digest(case):
    assert certificate_digest(case) == GOLDEN[case]


if __name__ == "__main__":
    for case in GOLDEN:
        key = ", ".join(json.dumps(part) for part in case)
        print(f"    ({key}): {json.dumps(certificate_digest(case))},")
