"""Golden certificates: equal inputs and seeds give the same bytes across
versions of the constructor, not only within one run.

The digests are the ones recorded for the x = 300 cases in
bench/results/construct-small-seed{7,8}.json (default parameters, greedy,
two-sided, two refinement sweeps, auto N). A change that moves one of them
changes the certificate format or the construction, and must say so.
"""

import hashlib

import pytest

from composite_forge.assemble import construct_certificate
from composite_forge.cover import SieveParams
from composite_forge.poly import IntPolynomial

POLYS = {"x": [0, 1], "x^2+1": [1, 0, 1], "x^3+2": [2, 0, 0, 1]}

GOLDEN = {
    ("x", 7): "20e4f72cbbc49874527408727b2024ef2551d76c7f559bed5c8148ad3bb47731",
    ("x^2+1", 7): "befc5abe938008f9cdc429619e1b4cfdd91b8512e9f171b61595448fe27d960a",
    ("x^3+2", 7): "56820e0025c798bcdf080cc3df0fce6f047c1cdbf318b1a30682d35f4c175d8e",
    ("x", 8): "b9cc4fd4e0b41b08714e14ece70edfcd0ccef940027f4ea6740080ddaf4e73fd",
    ("x^2+1", 8): "f5ec2f174901c23cbecaa929034d3c97d0d9e8aa939226fc25bd64ec25e061f8",
    ("x^3+2", 8): "aceacd79e13d2d020bd2803134ffc30787ed338fa269fdddbd9b57db06ccefdb",
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_certificate_digest(name, seed):
    f = IntPolynomial.from_monomial(POLYS[name])
    cert, _ = construct_certificate(f, SieveParams(x=300), seed)
    assert hashlib.sha256(cert.to_json_bytes()).hexdigest() == GOLDEN[(name, seed)]
