"""Sieve construction of paired intervals of provably composite polynomial
values, with independently verifiable residue certificates."""

from .assemble import (
    STATS_HEADER,
    ConstructionError,
    ResidueCertificate,
    construct_certificate,
)
from .cover import RetryBudgetError, SieveParams
from .modroots import build_root_table, density_stats
from .poly import IntPolynomial, parse_poly_literal
from .verify import (
    CoveringConfigError,
    CoveringSimConfig,
    covering_lemma_sim,
    oracle_longest_run,
    verify_certificate,
)

__version__ = "0.1.0"

# what the command line drives, plus the polynomial type its inputs parse to
__all__ = [
    "STATS_HEADER",
    "ConstructionError",
    "CoveringConfigError",
    "CoveringSimConfig",
    "IntPolynomial",
    "ResidueCertificate",
    "RetryBudgetError",
    "SieveParams",
    "build_root_table",
    "construct_certificate",
    "covering_lemma_sim",
    "density_stats",
    "oracle_longest_run",
    "parse_poly_literal",
    "verify_certificate",
]
