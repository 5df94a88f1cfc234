"""Golden certificates: equal inputs and seeds give the same bytes across
versions of the constructor, not only within one run.

The cases are x = 300 with seeds 7 and 8, and x = 1000 with seed 7, under
default parameters (two refinement sweeps, auto N), and at x = 300 also
one-sided, random and random one-sided. Each digest pins the certificate of
the window length the constructor settles on, so a change to the search
over y moves every digest whose y it moves. The digests were last
re-recorded when the bisection over y gave way to the secant search on the
residual excess: the cases whose y stayed kept their digests, and the rest
moved with their y. So only some of the default x = 300 digests still equal
the ones in bench/results/construct-small-seed{7,8}.json, which predate that
search, until the benchmark's recorded results are refreshed. Earlier
changes that moved digests on purpose: one-sided refinement came to score
the forward window only (the one-sided cases). A change that moves one of
them changes the certificate format or the construction, and must say so.

Run as a script (`PYTHONPATH=src python tests/test_golden.py`) to print the
current digest and achieved y of every case, ready to paste over GOLDEN when
a change moves the certificates on purpose.
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
    ("x", 7): "0e09a4705f24d2d2acb4519a5448923aa348b48882a7564b8b422fe108d1e212",
    ("x^2+1", 7): "befc5abe938008f9cdc429619e1b4cfdd91b8512e9f171b61595448fe27d960a",
    ("x^3+2", 7): "56820e0025c798bcdf080cc3df0fce6f047c1cdbf318b1a30682d35f4c175d8e",
    ("x", 8): "9699b7e0c352022f313526c7f9e2f903815fc68700243b8a1cafe0e383b97fe7",
    ("x^2+1", 8): "0db958724167529ebfba5ad1bcc53206bc42585a2125f9a6cfa5974ba9e34065",
    ("x^3+2", 8): "aceacd79e13d2d020bd2803134ffc30787ed338fa269fdddbd9b57db06ccefdb",
    ("x", 7, "one-sided"): "96ecac9de6d4222dcfbb7189ae4a2965c21b81480671d927857aa58fa0268235",
    ("x^2+1", 7, "one-sided"): "2f6505ad6a8a573092b2edc988761e59de49f9096935b09cec7bb1767c848149",
    ("x^3+2", 7, "one-sided"): "dd16d33434e1327a7e20834b46037e85dd4b9c6f90ed35976e28217e9246b8b7",
    ("x", 8, "one-sided"): "f4091e273706b08f9059b7a10d235f941829c38a7afa42948c4ebc4cf971934f",
    ("x^2+1", 8, "one-sided"): "9023501f8d1b60436134174b965ae6770402048d2e944b3a5db02482abff905f",
    ("x^3+2", 8, "one-sided"): "ac69dce0054b6bf4ea69152d3dadbd8590a7a7e522a9ad12f820ad314e5b2225",
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
    ("x", 7, "x=1000"): "a4af46cc1fa6249568fd4a90e0d7677b5a8bb161934e7897329fa085aff6ccde",
    ("x^2+1", 7, "x=1000"): "d399001a6bf3e96e453c5b869d0e4ccb8a73f9366922f5c9981f9317cd490b82",
    ("x^3+2", 7, "x=1000"): "20614be7f94de10b4ddbde348f6cf585570692a9f6f543fc5a6dbda477687cc9",
}
# (x, keyword arguments of construct_certificate) for each variant
VARIANTS = {
    "one-sided": (300, {"two_sided": False}),
    "random": (300, {"mode": "random"}),
    "random-one-sided": (300, {"mode": "random", "two_sided": False}),
    "x=1000": (1000, {}),
}


def certificate_digest(case) -> tuple[str, int]:
    """The sha256 of the case's certificate bytes, and its achieved y."""
    name, seed, *variant = case
    f = IntPolynomial.from_monomial(POLYS[name])
    x, kwargs = VARIANTS[variant[0]] if variant else (300, {})
    cert, stats = construct_certificate(f, SieveParams(x=x), seed, **kwargs)
    return hashlib.sha256(cert.to_json_bytes()).hexdigest(), stats.extras["achieved_y"]


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda case: "-".join(map(str, case)))
def test_certificate_digest(case):
    assert certificate_digest(case)[0] == GOLDEN[case]


if __name__ == "__main__":
    for case in GOLDEN:
        key = ", ".join(json.dumps(part) for part in case)
        digest, y = certificate_digest(case)
        print(f"    ({key}): {json.dumps(digest)},  # y = {y}")
