"""Desk-scale verification toolkit for length-twist spectra of hyperbolic
surfaces, necklace-count discrepancy scenarios, spectral Dirichlet series,
and flat 2-orbifold isospectrality relations."""

from .errors import (
    BeyondHorizon,
    EmptyGenerators,
    HorizonMismatch,
    IncompatibleRotation,
    InexactLength,
    InvariantViolation,
    IsogeoError,
    MalformedRelation,
    MixedBases,
    NotMinimal,
    NotTranslating,
    PrimeCollision,
    QueryBeyondHorizon,
    RatioIsInteger,
    TooLarge,
)
from .lengths import (
    DEFAULT_TOLERANCE,
    Exact,
    LengthValue,
    Numeric,
    cluster_lengths,
    exact_ratio,
    lengths_equal,
    tanh_half,
)
from .spectrum import (
    ConjugacyWitness,
    CountingFunction,
    DiscrepancyTable,
    ForcedGrowth,
    GeodesicEntry,
    JumpReport,
    LengthTwistSpectrum,
    Orientation,
    almost_conjugate,
    compare_weights,
    discrepancy,
    forced_growth,
    lemma1_residual,
    odd_prime_multiples,
    pgt_jump_report,
    support_sets,
    total_weight,
    validate_surface,
    weight,
    weight_function,
)
from .scenario import (
    ScenarioSolution,
    asymptotic_ratio,
    build_scenario,
    mobius,
    necklace_count,
    necklace_count_oracle,
    verify_constraint,
)
from .dirichlet import (
    ConvergenceWarning,
    TwistData,
    dirichlet_partial_sum,
    dirichlet_partial_sum_grouped,
    q_factor,
)
from .flat import (
    ISOSPECTRAL_RELATIONS,
    LatticeKind,
    OrbifoldId,
    OrbifoldSpectrum,
    SpectralRelation,
    norm_census,
    orbifold_spectrum,
    orbit_multiplicity,
    orbit_multiplicity_oracle,
    parse_relation,
    relations_for_family,
    verify_relation,
    verify_relations,
)
from .hyperbolic import (
    EnumConfig,
    EnumerationResult,
    Isometry,
    IsometryClass,
    classify,
    enumerate_geodesics,
    translation_length,
)

__version__ = "0.1.0"
