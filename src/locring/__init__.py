"""Exact isomorphism toolkit for the local rings K[X]/(P^n)."""

from .errors import LocringError
from .fields import (
    ExtensionField,
    FieldAutomorphism,
    FieldElement,
    IDENTITY,
    PrimeField,
    RationalFunctionField,
    Rationals,
    format_field,
    frobenius,
    parse_field,
)
from .poly import (
    Poly,
    apply_automorphism_to_poly,
    enumerate_irreducibles,
    exact_div,
    ext_gcd,
    format_poly,
    gcd,
    is_irreducible,
    parse_element,
    parse_poly,
)
from .quotient import (
    QuotientElement,
    QuotientRing,
    StabilizingMorphism,
)
from .hensel import (
    ResidueDigits,
    RootSeries,
    digits_mul,
    embed_residue_field,
    from_digits,
    hensel_root_series,
    structure_isomorphism_check,
    taylor_shift_certificate,
    to_digits,
)
from .lift import (
    LiftReport,
    find_residue_isomorphisms,
    induced_residue_morphism,
    kernel_witness,
    lift_is_isomorphism,
    lift_morphism,
    residue_morphism_from_Q,
    rings_isomorphic_separable,
    roots_bijection_check,
)
from .verify import (
    Matrix,
    certify_isomorphism,
    exhaustive_morphism_check,
    kernel_basis,
    kernel_dimension,
    morphism_matrix,
)

__version__ = "0.1.0"
