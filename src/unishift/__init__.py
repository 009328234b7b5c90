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
    ZeroDirection,
)
from .linalg import herm_eig, hs_norm, op_norm, random_pair, unitary_eig
from .quadrature import gauss_legendre
from .trigpoly import TrigPolynomial
from .spectral_shift import EtaIntegrator, eta_profile
from .trace_formula import batch_verify, lhs_trace, resolvent_check
from .doi import doi_apply, schur_bound_check
from .reduction import (
    audit_compressed_model,
    audit_perturbation_estimates,
    audit_projection_estimates,
    build_direction_projection,
    compressed_model,
    convergence_study,
    reduction_instance,
)

__version__ = "0.1.0"
