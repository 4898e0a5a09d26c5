"""Exact bi-Frobenius structures on quantum complete intersections.

The package constructs finite-dimensional algebras
K<x_1..x_n> / (x_i^{a_i}, x_j x_i - q_ij x_i x_j), decides whether they
carry a bi-Frobenius algebra structure whose antipode permutes the
monomial basis, builds the structure when it exists, and verifies every
axiom exhaustively over exact fields (Q, GF(p), cyclotomics).
"""

from .algebra import Presentation, monomial_name, parse_vector_key, vector_key
from .builder import (
    BfaStructure,
    Regime,
    Witness,
    applicable_regime,
    build_structure,
    check_witness,
    decide,
    g_table,
    solve_c,
)
from .demos import example_presentation, example_structure, example_witness
from .errors import (
    CrossCheckError,
    FileSemanticError,
    FileSyntaxError,
    QciError,
    WitnessInvalidError,
)
from .permutations import (
    Permutation,
    enumerate_compatible,
    is_compatible,
    partition,
    q_pi,
)
from .scalars import (
    CyclotomicField,
    Field,
    PrimeField,
    RationalField,
    Scalar,
    make_field,
    multiplicative_order,
    parse_field_descriptor,
)
from .structio import (
    load_presentation,
    load_structure,
    save_presentation,
    save_structure,
)
from .verify import (
    is_hopf_comultiplication,
    negate_socle_entry,
    primitive_space_dim,
    verify_axioms,
    verify_derived,
)

__version__ = "0.1.0"

__all__ = [
    "BfaStructure",
    "CrossCheckError",
    "CyclotomicField",
    "Field",
    "FileSemanticError",
    "FileSyntaxError",
    "Permutation",
    "Presentation",
    "PrimeField",
    "QciError",
    "RationalField",
    "Regime",
    "Scalar",
    "Witness",
    "WitnessInvalidError",
    "applicable_regime",
    "build_structure",
    "check_witness",
    "decide",
    "enumerate_compatible",
    "example_presentation",
    "example_structure",
    "example_witness",
    "g_table",
    "is_compatible",
    "is_hopf_comultiplication",
    "load_presentation",
    "load_structure",
    "make_field",
    "monomial_name",
    "multiplicative_order",
    "negate_socle_entry",
    "parse_field_descriptor",
    "parse_vector_key",
    "partition",
    "primitive_space_dim",
    "q_pi",
    "save_presentation",
    "save_structure",
    "solve_c",
    "vector_key",
    "verify_axioms",
    "verify_derived",
]
