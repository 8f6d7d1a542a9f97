"""Finite theta groups and their abelian-subgroup index bounds.

The library builds the theta group over any finite abelian base, computes
the exact minimal index of an abelian subgroup two independent ways (an
exhaustive subgroup-search oracle and a closed-form symplectic bound), and
packages the results as verification reports and Jordan-violation
certificates for the two diffeomorphism classes of orientable S2-bundles
over the 2-torus.
"""

from .abelian import (
    CapExceeded,
    FiniteAbelianGroup,
    is_pairing_nondegenerate,
    make_group,
    parse_group_spec,
)
from .bundlemodel import (
    BoundViolation,
    Certificate,
    DiffeoClass,
    LevelData,
    ReportEntry,
    VerificationReport,
    build_class_report,
    diffeo_class,
    family_for_class,
    jordan_certificate,
    level_data,
    torsion_group,
    torsion_inclusion,
    verify_level,
)
from .heis import (
    ThetaElement,
    ThetaGroup,
    format_element,
    parse_element,
    theta_group,
)
from .lattice import (
    ConcreteGroup,
    Subgroup,
    all_subgroups,
    closure,
    is_abelian,
    is_subgroup,
    max_abelian_order,
    min_abelian_index,
    order_sequence,
)
from .symplectic import (
    PairingSpace,
    is_isotropic,
    max_isotropic_order,
    pairing_space,
    structural_min_abelian_index,
)

__version__ = "0.1.0"

__all__ = [
    "BoundViolation",
    "CapExceeded",
    "Certificate",
    "ConcreteGroup",
    "DiffeoClass",
    "FiniteAbelianGroup",
    "LevelData",
    "PairingSpace",
    "ReportEntry",
    "Subgroup",
    "ThetaElement",
    "ThetaGroup",
    "VerificationReport",
    "all_subgroups",
    "build_class_report",
    "closure",
    "diffeo_class",
    "family_for_class",
    "format_element",
    "is_abelian",
    "is_isotropic",
    "is_pairing_nondegenerate",
    "is_subgroup",
    "jordan_certificate",
    "level_data",
    "make_group",
    "max_abelian_order",
    "max_isotropic_order",
    "min_abelian_index",
    "order_sequence",
    "pairing_space",
    "parse_element",
    "parse_group_spec",
    "structural_min_abelian_index",
    "theta_group",
    "torsion_group",
    "torsion_inclusion",
    "verify_level",
]
