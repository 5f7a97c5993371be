"""Composition operators on finite-dimensional weighted Schatten carriers.

The package realises, at desk scale, the theory of composition operators
between weighted noncommutative L^p spaces over direct sums of matrix
blocks: symmetric embeddings, Jordan *-morphisms in tile form, bounded
changes of weights, module-homomorphism multiplier recovery, and the
characteristic-function classifier, together with the matching commutative
layer on atomic measure spaces.
"""

from .errors import (
    BadExponent,
    DominationFails,
    ExponentMismatch,
    ExponentOrder,
    InvalidMorphism,
    NclpError,
    NoConvergence,
    NotCommuting,
    NotFaithful,
    NotHermitian,
    NotModuleMap,
    NotPSD,
    NotSummable,
    ProfileMismatch,
    RatioMismatch,
    SingularNegativePower,
    SpecFileError,
    TooLarge,
)
from .exponents import Exponent, INF, holder_complement, ratio
from .matcore import (
    BlockMatrix,
    BlockProfile,
    commutator_norm,
    frac_power,
    hermitian_eig,
    polar,
    schatten_norm,
    singular_values,
    support_of,
)
from .vnops import (
    Projection,
    SubalgebraBasis,
    Weight,
    centralizer_tests,
    generate_algebra,
    in_centralizer,
    locally_absolutely_continuous,
    modular_conjugate,
    support_projection,
    weights_commute,
)
from .haagerup import (
    ExponentTriple,
    LpElement,
    embed,
    holder_check,
    kosaki_embed,
    tr,
    unembed,
)
from .jordan import (
    JordanMorphismSpec,
    JordanVerification,
    Tile,
    ZDecomposition,
    decompose,
    identity_morphism,
    is_modular_invariant,
    jordan_defect,
    pushforward_density,
    random_morphism,
    random_onto_morphism,
    transpose_morphism,
    verify_jordan,
)
from .compop import (
    ChangeOfWeights,
    ClassifyResult,
    ContractionInclusion,
    MultiplierRecovery,
    NormEstimate,
    ScaleReport,
    SplittingReport,
    SuperOperator,
    build_composition,
    change_of_weights,
    change_of_weights_bound_if_onto,
    change_of_weights_scale,
    classify_characteristic_preserving,
    contraction_inclusion,
    identity_operator,
    left_multiplication,
    operator_norm,
    recover_left_multiplier,
    recover_right_multiplier,
    splitting_inequality_check,
)
from .classical import (
    ConsistencyReport,
    CriterionResult,
    FiniteMeasureSpace,
    Partition,
    PipelineResult,
    PointMap,
    build_classical,
    criterion,
    diagonal_consistency,
    eps_delta_modulus,
    exact_diagonal_norm,
    five_step_pipeline,
    point_map_morphism,
    pushforward,
    rn_derivative,
)

__version__ = "0.1.0"
