"""feigdim: renormalization fixed points, presentation IFS, and dimension.

Solves the period-doubling renormalization fixed-point equation at even
criticality, builds the induced infinite iterated function system on the
conjugate coordinate, and computes the Hausdorff dimension of the Cantor
attractor as the Bowen root of the transfer-operator pressure, with a
certified operator bracket, Moran-type brackets and a conformal-measure
check. The parabolic-limit diagnostics are the per-ell dominance table and
the claim2 scan of the affine model family.
"""
from .errors import (
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
    write_csv,
)
from .unimodal import (
    DEFAULT_ORBIT_MAX,
    UnimodalSystem,
    build_system,
    conjugacy_residual,
    critical_orbit,
    eval_G,
    eval_H,
    jet_compose,
    second_derivative_identity,
)
from .presentation import (
    PresentationSystem,
    build_presentation,
    contraction_certificate,
    cylinder_of_word,
    iter_letter_jets,
    psi,
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
    sweep,
)
from .poincare import (
    CLAIM2_HEADER,
    DOMINANCE_HEADER,
    claim2_scan,
    dominance_table,
)

__version__ = "0.1.0"
