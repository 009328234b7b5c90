"""Second-order spectral shift machinery for pairs of unitary matrices.

Given unitaries U0 and U = e^{iA} U0 with Hermitian A, the package computes
the shift profile eta on [0, 2pi], evaluates directional derivatives along
the path U_s = e^{isA} U0, and verifies at finite dimension the trace
identity pairing Tr{p(U) - p(U0) - d/ds p(U_s)|_0} with the curvature
integral of p against eta, together with the quantitative off-block and
compression estimates behind the finite-rank reduction of the problem.
"""

from .errors import (
    BadWindow,
    DimensionMismatch,
    EmptyMatrix,
    MissingConstruction,
    NoConvergence,
    NotHermitian,
    NotUnitary,
    OnUnitCircle,
    PartitionTooFine,
    PathMismatch,
    PhaseTooClose,
    SampleOutOfRange,
    UnishiftError,
    UnnormalisedSeed,
    ZeroDirection,
    ZeroHarmonic,
)
from .linalg import (
    HermitianDecomposition,
    MatrixNorms,
    SpectralDecomposition,
    UnitaryPair,
    UnitaryPath,
    choose_phase,
    haar_unitary,
    herm_eig,
    hs_norm,
    is_hermitian,
    is_unitary,
    log_unitary,
    norms,
    op_norm,
    random_hermitian,
    random_pair,
    trace,
    trace_norm,
    unitary_eig,
    unitary_path,
)
from .quadrature import QuadratureRule, gauss_legendre
from .trigpoly import TrigPolynomial, random_trig_polynomial
from .spectral_shift import (
    EtaIntegrator,
    EtaProfile,
    StepFunction,
    eta_fourier,
    eta_profile,
    eta_step_at_s,
    integrate_against,
    weighted_measure_step,
)
from .trace_formula import (
    ResolventReport,
    VerificationReport,
    batch_verify,
    gateaux_monomial,
    gateaux_series,
    lhs_trace,
    remainder_trace_norm_bound,
    resolvent_check,
    rhs_integral,
    verify,
)
from .doi import (
    DOIKernel,
    SchurBoundReport,
    doi_apply,
    kernel,
    primitive_of,
    schur_bound_check,
)
from .reduction import (
    AuditReport,
    BoundCheck,
    CompressedModel,
    ConvergenceRow,
    ConvergenceStudy,
    ProjectionBasis,
    WindowParams,
    audit_compressed_model,
    audit_perturbation_estimates,
    audit_projection_estimates,
    build_direction_projection,
    build_projection,
    cayley_forward,
    cayley_inverse,
    compressed_model,
    convergence_study,
    random_low_rank_hermitian,
    reduction_instance,
    spread_diagonal,
)

__version__ = "0.1.0"
