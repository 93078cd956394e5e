"""Finite skew left braces, their ideal structure, and Yang-Baxter solutions."""

from .braces import (
    SkewBrace,
    almost_trivial_brace,
    annihilator,
    classify_subset,
    direct_product,
    fix_set,
    is_isomorphic,
    kernel_lambda,
    lambda_map,
    quotient,
    socle,
    star,
    star_span,
    sub_brace,
    subbrace_product,
    subbraces,
    trivial_brace,
    validate_brace,
)
from .catalog import alternating_5, groups_of_order
from .construct import (
    CensusEntry,
    brace_from_regular_subgroup,
    enumerate_braces,
    enumerate_braces_on,
    oracle_enumerate_braces,
    simple_inner_regular_subgroups,
)
from .groups import (
    FiniteGroup,
    RegularSubgroup,
    automorphism_group,
    group_isomorphism,
    regular_subgroups,
    subgroups,
    validate_group,
)
from .structure import (
    SeriesWitness,
    all_ideals,
    annihilator_quotient_test,
    chief_series,
    classify_chief_factor,
    commutator,
    derived_length,
    derived_series,
    dossier,
    frattini,
    is_soluble,
    maximal_ideals,
    maximal_subbraces,
    minimal_ideals,
    verify_maximal_subbrace_dichotomy,
    verify_no_proper_subbraces,
    verify_soluble_chief_factors,
)
from .ybe import (
    MultidecompositionWitness,
    Partition,
    Solution,
    coset_partition,
    embedded_multidecomposition,
    flip_solution,
    ideal_coset_decomposition,
    is_partition_decomposable,
    multidecomposition_from_series,
    solution_from_brace,
    validate_solution,
)

__version__ = "0.1.0"
