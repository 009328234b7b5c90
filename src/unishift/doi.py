"""Double operator integrals as Schur multipliers in two eigenbases.

At finite dimension the transform X -> integral of k(lambda, mu) dE X dF
collapses to: rotate X into the (left, right) eigenbases, multiply entrywise
by the divided-difference kernel of g, rotate back.  Applied to X = Us - U0
with the kernel of g this reproduces g(Us) - g(U0) exactly, and the kernel
sup bound (pi/2) ||f||_inf for g the primitive of a mean-zero f yields the
Hilbert-Schmidt Lipschitz estimate

    || g(Us) - g(U0) ||_2  <=  pi ||f||_inf ||Us - U0||_2 .
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    SpectralDecomposition, _as_array, _from_spectrum, _require_finite, hs_norm, require_unitary, unitary_eig,
)
from .trigpoly import TrigPolynomial, _require_polynomial

# Eigenvalue pairs closer than this switch to the derivative limit of the
# divided difference, which dodges catastrophic cancellation in the quotient.
NEAR_DIAGONAL = 1e-8

SUP_SAMPLES = 4096


def primitive_of(f: TrigPolynomial) -> TrigPolynomial:
    """Antiderivative g of the mean-zero part of f along the circle.

    g(e^{it}) = integral of f0 over [0, t] with f0 = f - mean(f); in
    coefficients g_n = f_n / (i n) for n != 0, and g_0 makes g(1) = 0.
    """
    coeffs = {n: c / (1j * n) for n, c in _require_polynomial(f, "f").coeffs.items() if n != 0}
    coeffs[0] = -sum(coeffs.values())
    return TrigPolynomial(coeffs)


def kernel(g: TrigPolynomial, left: SpectralDecomposition, right: SpectralDecomposition) -> np.ndarray:
    """K_{jk} = [g(e^{i lambda_j}) - g(e^{i mu_k})] / [e^{i lambda_j} - e^{i mu_k}].

    Near-coincident eigenvalues (gap below ``NEAR_DIAGONAL``) take the
    analytic limit sum_n n g_n e^{i(n-1) mu_k} instead of the quotient.
    """
    zl = np.exp(1j * left.angles)[:, None]
    zr = np.exp(1j * right.angles)[None, :]
    denom = zl - zr
    near = np.abs(denom) < NEAR_DIAGONAL
    quotient = (g(zl) - g(zr)) / np.where(near, 1.0, denom)
    limit = np.broadcast_to(g.z_derivative()(zr), quotient.shape)
    return np.where(near, limit, quotient)


def doi_apply(g: TrigPolynomial, us, u0, x) -> np.ndarray:
    """Schur-multiply X by the kernel of g in the eigenbases of (Us, U0).

    With X = Us - U0 the result equals g(Us) - g(U0); that identity is what
    makes the kernel the right finite-dimensional stand-in for the abstract
    two-variable spectral integral.  ``g`` must be a ``TrigPolynomial`` and
    ``X`` a numeric (dim Us) x (dim U0) array with finite entries; otherwise
    ``DimensionMismatch`` or ``UnishiftError`` is raised.
    """
    _require_polynomial(g, "g")
    us = require_unitary(us, "doi left unitary")
    u0 = require_unitary(u0, "doi right unitary")
    x = _require_finite(_as_array(x, copy=None))
    if x.shape != (us.shape[0], u0.shape[0]):
        raise DimensionMismatch(f"X has shape {x.shape}, expected {(us.shape[0], u0.shape[0])}")
    ldec, rdec = unitary_eig(us, check=False), unitary_eig(u0, check=False)
    rotated = ldec.vectors.conj().T @ x @ rdec.vectors
    return ldec.vectors @ (kernel(g, ldec, rdec) * rotated) @ rdec.vectors.conj().T


def circle_function_of(g: TrigPolynomial, dec: SpectralDecomposition) -> np.ndarray:
    """g(U) assembled from a spectral decomposition of U."""
    return _from_spectrum(dec.vectors, g(np.exp(1j * dec.angles)))


def sampled_sup_norm(p: TrigPolynomial) -> float:
    """max |p(e^{it})| on a uniform mesh of ``SUP_SAMPLES`` points; exact enough for low-degree input."""
    t = np.linspace(0.0, 2.0 * np.pi, SUP_SAMPLES, endpoint=False)
    return float(np.max(np.abs(p.at_angle(t)), initial=0.0))


@dataclass(frozen=True)
class SchurBoundReport:
    lhs: float
    rhs: float
    f_sup: float
    kernel_sup: float
    kernel_bound: float
    samples: int
    passed: bool


def schur_bound_check(f: TrigPolynomial, us, u0) -> SchurBoundReport:
    """Check ||g(Us) - g(U0)||_2 <= pi ||f||_inf ||Us - U0||_2 for g = primitive_of(f).

    Also audits the kernel itself against its sup bound (pi/2) ||f0||_inf.
    The sup norms come from dense sampling, so the reported mesh matters.
    """
    us = require_unitary(us, "bound left unitary")
    u0 = require_unitary(u0, "bound right unitary", us.shape[0])
    g = primitive_of(f)
    ldec, rdec = unitary_eig(us, check=False), unitary_eig(u0, check=False)
    lhs = hs_norm(circle_function_of(g, ldec) - circle_function_of(g, rdec))
    f_sup = sampled_sup_norm(f)
    f0 = TrigPolynomial({n: c for n, c in f.coeffs.items() if n != 0})
    f0_sup = sampled_sup_norm(f0)
    rhs = np.pi * f_sup * hs_norm(us - u0)
    ker_sup = float(np.max(np.abs(kernel(g, ldec, rdec)), initial=0.0))
    ker_bound = 0.5 * np.pi * f0_sup
    passed = lhs <= rhs + 1e-10 and ker_sup <= ker_bound + 1e-8
    return SchurBoundReport(
        lhs=lhs,
        rhs=float(rhs),
        f_sup=f_sup,
        kernel_sup=ker_sup,
        kernel_bound=float(ker_bound),
        samples=SUP_SAMPLES,
        passed=passed,
    )
