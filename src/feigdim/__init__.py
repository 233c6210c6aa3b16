"""feigdim: renormalization fixed points, presentation IFS, and dimension.

Solves the period-doubling renormalization fixed-point equation at even
criticality, builds the induced infinite iterated function system on the
conjugate coordinate, and computes the Hausdorff dimension of the Cantor
attractor as the Bowen root of the transfer-operator pressure, with
Moran-type brackets and parabolic-limit diagnostics.
"""
from .errors import (
    BranchCutCrossed,
    BranchNotMonotone,
    CorruptFile,
    DegenerateJacobian,
    DomainError,
    EigenvectorSignFailure,
    FeigdimError,
    IndexOutOfAlphabet,
    InvariantViolation,
    LambdaDegenerate,
    NoContraction,
    NoConvergence,
    NoCriticalPoint,
    OrbitEscaped,
    OrbitIndexOverflow,
    OutOfNeighborhood,
    PowerIterationStall,
    RatioNotContracting,
    RootNotBracketed,
    SchemaMismatch,
    TailTooFat,
    UnsupportedCombinatorics,
)
from .fixedpoint import (
    BASIS,
    PERIOD_DOUBLING,
    SCHEMA,
    CombinatoricsType,
    FixedPointMap,
    cache_filename,
    cached_solve,
    continue_in_ell,
    evaluate_g,
    load_fixed_point,
    save_fixed_point,
    solve_fixed_point,
)
from .unimodal import (
    DEFAULT_ORBIT_MAX,
    UnimodalSystem,
    build_system,
    conjugacy_residual,
    critical_orbit,
    eval_G,
    eval_H,
    involution,
    jet_compose,
    second_derivative_identity,
)
from .presentation import (
    DecayProfile,
    PresentationSystem,
    build_presentation,
    contraction_certificate,
    cylinder_of_word,
    cylinders_csv,
    decay_profile,
    iter_letter_jets,
    psi,
    psi_alt,
    tail_bound,
    word_map,
)
from .dimension import (
    CSV_HEADER,
    CylinderMeasure,
    DimensionReport,
    DimensionResult,
    MoranBracket,
    PressureModel,
    build_pressure_model,
    conformality_residual,
    cylinder_measure,
    hausdorff_dimension,
    moran_oracle,
    pressure_eigen,
    pressure_sums,
    sweep,
)
from .poincare import (
    DEFAULT_R0,
    LinearHarness,
    PoincareDiagnostics,
    alpha_decay_check,
    claim2_csv,
    claim2_scan,
    dominance_table,
    poincare_tail,
    quadratic_normalization,
    to_parabolic_coords,
)

__version__ = "0.1.0"
