"""Exact Kauffman bracket and Jones polynomials of braid closures via the
Temperley-Lieb algebra, with an independent state-sum cross-check, plus the
golden-ratio (Fibonacci) unitary braid representation on sequence spaces."""

from .braid import BraidWord, parse_braid
from .bracket import (
    ChiralityCertificate,
    StateSumCapError,
    bracket_state_sum,
    bracket_via_tl,
    chirality_certificate,
    jones_polynomial,
    normalized_bracket,
)
from .fibrep import (
    FIBONACCI_PHASE,
    GOLDEN_RATIO,
    ModelParams,
    ThreeStrandFamily,
    braid_generator_matrix,
    braid_word_matrix,
    compatible_phase,
    f_matrix,
    fib_dim,
    fib_sequences,
    fibonacci_params,
    make_params,
    r_matrix,
    theta_validity,
    three_strand_family,
    tl_generator_matrix,
    verify_model,
)
from .laurent import LaurentPoly, delta, format_jones, jones_substitute
from .tl import (
    PlanarPairing,
    RelationCheck,
    TLElement,
    VerifyReport,
    enumerate_pairings,
    markov_trace,
    rep_braid_word,
    verify_relations,
)

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "ChiralityCertificate",
    "FIBONACCI_PHASE",
    "GOLDEN_RATIO",
    "LaurentPoly",
    "ModelParams",
    "PlanarPairing",
    "RelationCheck",
    "StateSumCapError",
    "TLElement",
    "ThreeStrandFamily",
    "VerifyReport",
    "bracket_state_sum",
    "bracket_via_tl",
    "braid_generator_matrix",
    "braid_word_matrix",
    "chirality_certificate",
    "compatible_phase",
    "delta",
    "enumerate_pairings",
    "f_matrix",
    "fib_dim",
    "fib_sequences",
    "fibonacci_params",
    "format_jones",
    "jones_polynomial",
    "jones_substitute",
    "make_params",
    "markov_trace",
    "normalized_bracket",
    "parse_braid",
    "r_matrix",
    "rep_braid_word",
    "theta_validity",
    "three_strand_family",
    "tl_generator_matrix",
    "verify_model",
    "verify_relations",
]
