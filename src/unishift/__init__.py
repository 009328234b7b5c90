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
    SampleOutOfRange,
    UnishiftError,
    UnnormalisedSeed,
    ZeroDirection,
)
from .linalg import (
    HermitianDecomposition,
    SpectralDecomposition,
    UnitaryPair,
    UnitaryPath,
    haar_unitary,
    herm_eig,
    hs_norm,
    op_norm,
    random_hermitian,
    random_pair,
    trace,
    trace_norm,
    unitary_eig,
)
from .quadrature import QuadratureRule, gauss_legendre
from .trigpoly import TrigPolynomial, random_trig_polynomial
from .spectral_shift import (
    EtaIntegrator,
    EtaProfile,
    eta_profile,
)
from .trace_formula import (
    ResolventReport,
    VerificationReport,
    batch_verify,
    lhs_trace,
    resolvent_check,
)
from .doi import (
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
    cayley_inverse,
    compressed_model,
    convergence_study,
    random_low_rank_hermitian,
    reduction_instance,
    spread_diagonal,
)

__version__ = "0.1.0"
