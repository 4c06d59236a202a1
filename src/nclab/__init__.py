"""Numerical laboratory for covering constructions on finite-dimensional
truncations of operator algebras: branch roots of unitaries, square-root
towers with function embeddings, rational noncommutative tori, generated
word-spans, and the amplified branch-swap isomorphism check.
"""

__version__ = "0.1.0"

from .operators import (
    SpectralDecomposition,
    apply_circle_function,
    as_operator,
    circle_function_distance,
    hs_norm,
    operator_norm,
    random_unitary,
    require_unitary,
    spectral_decompose,
    unitarity_defect,
)
from .roots import (
    BranchFunction,
    RootReport,
    branch_quotient,
    correction_unitary,
    general_root_search,
    nth_root_branch,
    root_residual,
)
from .spans import (
    AmplificationIsoReport,
    GeneratedAlgebraSpan,
    amplification_iso_check,
    generate_span,
    membership_residual,
)
from .torus import (
    AnticommutingWitness,
    ThetaHalvingReport,
    TorusParams,
    TorusRep,
    anticommuting_root_example,
    clock_matrix,
    clock_shift,
    covering_generator_products,
    iterate_theta_halving,
    shift_matrix,
    theta_halving_embedding,
)
from .towers import (
    CompactFunction,
    RootTower,
    build_tower,
    embed_compact_function,
    level_independence_residual,
    max_level_independence,
)

__all__ = [
    "__version__",
    "SpectralDecomposition",
    "apply_circle_function",
    "as_operator",
    "circle_function_distance",
    "hs_norm",
    "operator_norm",
    "random_unitary",
    "require_unitary",
    "spectral_decompose",
    "unitarity_defect",
    "BranchFunction",
    "RootReport",
    "branch_quotient",
    "correction_unitary",
    "general_root_search",
    "nth_root_branch",
    "root_residual",
    "AmplificationIsoReport",
    "GeneratedAlgebraSpan",
    "amplification_iso_check",
    "generate_span",
    "membership_residual",
    "AnticommutingWitness",
    "ThetaHalvingReport",
    "TorusParams",
    "TorusRep",
    "anticommuting_root_example",
    "clock_matrix",
    "clock_shift",
    "covering_generator_products",
    "iterate_theta_halving",
    "shift_matrix",
    "theta_halving_embedding",
    "CompactFunction",
    "RootTower",
    "build_tower",
    "embed_compact_function",
    "level_independence_residual",
    "max_level_independence",
]
