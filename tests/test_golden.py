"""Golden certificates: equal inputs and seeds give the same bytes across
versions of the constructor, not only within one run.

All cases are x = 300 with seeds 7 and 8 under default parameters (two
refinement sweeps, auto N). The default greedy two-sided digests are the
ones recorded in bench/results/construct-small-seed{7,8}.json; the
one-sided greedy and the two-sided random digests were recorded from the
constructor before the medium stage moved onto the cover-count engine. A
change that moves one of them changes the certificate format or the
construction, and must say so.
"""

import hashlib

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
    ("x", 7, "one-sided"): "95af07404fecb21428b90781ffeb2236192576ee92622ff3716f2bc50d588b75",
    ("x^2+1", 7, "one-sided"): "bf47dfe50a7ff7bab7c3dee1c86a44743642a25505882d06fb7f58027bd56038",
    ("x^3+2", 7, "one-sided"): "29ab797d45112438ef6d0b33d2442c37a8a5a134bd37cbd3ee07f423e06709bc",
    ("x", 8, "one-sided"): "fb59475967512bb85ae60938d26b2cb5f69d116fcb173dcf52d9e0571b1dc2e0",
    ("x^2+1", 8, "one-sided"): "32819a401a6889714913570cceffc792fcf545304f201e4cf18cb88526c1ce13",
    ("x^3+2", 8, "one-sided"): "d888e633b6dc83e911d6cf26409394c3c508f60054941e5d5a7361e8d3b70202",
    ("x", 7, "random"): "a54badaf3611ae05e758ab791b56d153dc81839324ede1c09296ccf47e3b5418",
    ("x^2+1", 7, "random"): "cae6cb58d690e54ff39680038752e37a506b4d5ecede701cac5a5a4b8851b38a",
    ("x^3+2", 7, "random"): "a707ba47eb3e0f582da9d331c4c19c96866663b43bdb476dbe39b373a08928c2",
    ("x", 8, "random"): "7a6c269ff59c8bb037da2420c6649962c2d8017516c175572c5eca92a37bf63e",
    ("x^2+1", 8, "random"): "e1416236a1fdebf11d5cac7312c3b594582f9b00da47115bd17ad1417075fdfb",
    ("x^3+2", 8, "random"): "64804910738ec20f5185c029fb09ce6bd4b3dee5e4e39adfcdc0f2896aeea2ae",
}
# keyword arguments of construct_certificate for each variant
VARIANTS = {"one-sided": {"two_sided": False}, "random": {"mode": "random"}}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda case: "-".join(map(str, case)))
def test_certificate_digest(case):
    name, seed, *variant = case
    f = IntPolynomial.from_monomial(POLYS[name])
    kwargs = VARIANTS[variant[0]] if variant else {}
    cert, _ = construct_certificate(f, SieveParams(x=300), seed, **kwargs)
    assert hashlib.sha256(cert.to_json_bytes()).hexdigest() == GOLDEN[case]
