"""Double operator integrals as Schur multipliers in two eigenbases.

At finite dimension the transform X -> integral of k(lambda, mu) dE X dF
collapses to: rotate X into the (left, right) eigenbases, multiply entrywise
by the divided-difference kernel of g, rotate back.  Applied to X = Us - U0
with the kernel of g this reproduces g(Us) - g(U0) exactly, and the kernel
sup bound (pi/2) ||f||_inf for g the primitive of a mean-zero f yields the
Hilbert-Schmidt Lipschitz estimate

    || g(Us) - g(U0) ||_2  <=  pi ||f||_inf ||Us - U0||_2 .

The kernel takes each mode of g in closed form, the same at every gap, so
no pair of eigenvalues switches to a limit.  The sup norms are bracketed by
the degree: sampled at N >= 8 deg points, their max M gives
M <= ||f||_inf <= M / (1 - pi deg / N), and the check passes, fails or
raises ``NoConvergence`` by where its left sides fall against the two ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, UnishiftError
from .linalg import (
    TWO_PI, SpectralDecomposition, _from_spectrum, as_matrix, hs_norm, require_unitary, unitary_eig,
)
from .trace_formula import _MAX_ORDER
from .trigpoly import TrigPolynomial, _require_polynomial

SUP_SAMPLES = 4096  # the fewest points a sup norm is sampled at; a degree-deg f takes max(this, 8 deg)


def primitive_of(f: TrigPolynomial) -> TrigPolynomial:
    """Antiderivative g of the mean-zero part of f along the circle.

    g(e^{it}) = integral of f0 over [0, t] with f0 = f - mean(f); in
    coefficients g_n = f_n / (i n) for n != 0, and g_0 makes g(1) = 0.
    """
    coeffs = {n: c / (1j * n) for n, c in _require_polynomial(f, "f").coeffs.items() if n != 0}
    coeffs[0] = -sum(coeffs.values())
    return TrigPolynomial(coeffs)


def kernel(g: TrigPolynomial, left: SpectralDecomposition, right: SpectralDecomposition) -> np.ndarray:
    """K_{jk} = [g(e^{i lambda_j}) - g(e^{i mu_k})] / [e^{i lambda_j} - e^{i mu_k}], and g'(e^{i mu_k}) where they meet.

    Each mode n of g adds g_n (z^n - w^n) / (z - w) for z = e^{i lambda},
    w = e^{i mu}, which is

        e^{i (n - 1) sigma} n sinc(n delta / 2 pi) / sinc(delta / 2 pi),

    with delta = lambda - mu reduced to (-pi, pi] and sigma = mu + delta / 2.
    Reduced, |delta / 2 pi| <= 1/2, so the denominator is at least 2 / pi and
    the form is as accurate at a gap of 0 as at a gap of pi, across the
    wrap from 2 pi to 0 included.  The cost is O(modes d^2), in O(d^2) memory.
    """
    lam, mu = left.angles[:, None], right.angles[None, :]
    # Across the wrap the angle above pi moves by TWO_PI, exactly, and then by 2 pi - TWO_PI, so delta is
    # the reduced gap of the two angles to within a rounding of its own size, however near 2 pi apart they are.
    delta = lam - mu
    delta = np.where(delta > np.pi, (lam - TWO_PI) - mu - 2.4492935982947064e-16,
                     np.where(delta <= -np.pi, lam - (mu - TWO_PI) + 2.4492935982947064e-16, delta))
    sigma, x = mu + 0.5 * delta, delta / TWO_PI
    out = np.zeros(delta.shape, dtype=np.complex128)
    for n, a in g.items():
        out += (n * a) * np.exp(1j * ((n - 1) * sigma)) * np.sinc(n * x)
    return out / np.sinc(x)


def doi_apply(g: TrigPolynomial, us, u0, x) -> np.ndarray:
    """Schur-multiply X by the kernel of g in the eigenbases of (Us, U0).

    With X = Us - U0 the result equals g(Us) - g(U0); that identity is what
    makes the kernel the right finite-dimensional stand-in for the abstract
    two-variable spectral integral.  ``g`` must be a ``TrigPolynomial``, and
    U0 and X pass ``as_matrix`` at the size of Us; otherwise
    ``DimensionMismatch`` or ``UnishiftError`` is raised.
    """
    _require_polynomial(g, "g")
    us = require_unitary(us, "doi left unitary")
    u0 = require_unitary(u0, "doi right unitary", us.shape[0])
    x = as_matrix(x, "X", us.shape[0], copy=None)
    ldec, rdec = unitary_eig(us, check=False), unitary_eig(u0, check=False)
    rotated = ldec.vectors.conj().T @ x @ rdec.vectors
    return ldec.vectors @ (kernel(g, ldec, rdec) * rotated) @ rdec.vectors.conj().T


def circle_function_of(g: TrigPolynomial, dec: SpectralDecomposition) -> np.ndarray:
    """g(U) assembled from a spectral decomposition of U."""
    return _from_spectrum(dec.vectors, g(np.exp(1j * dec.angles)))


def sampled_sup_norm(p: TrigPolynomial, samples: int) -> tuple[float, float]:
    """(M, M / (1 - pi deg / N)), which bracket ||p||_inf: M is the max of |p| on N = ``samples`` equispaced points.

    Every point of the circle lies within pi / N of a sample, and by
    Bernstein's inequality ||p'||_inf <= deg ||p||_inf, so
    ||p||_inf - M <= (pi deg / N) ||p||_inf.  Needs N > pi deg.  The samples
    p(e^{2 pi i k / N}) are one inverse FFT of the coefficients placed at
    n mod N, which no two modes share, in O(N log N).
    """
    coeffs = np.zeros(samples, dtype=np.complex128)
    coeffs[np.array(list(p.coeffs), dtype=np.int64) % samples] = list(p.coeffs.values())
    top = float(np.max(np.abs(np.fft.ifft(coeffs, norm="forward"))))
    return top, top / (1.0 - np.pi * p.degree / samples)


@dataclass(frozen=True)
class SchurBoundReport:
    """Both sides of each bound, the right sides from both ends of the sampled sup norms, at ``samples`` points."""

    lhs: float
    rhs: float
    rhs_upper: float
    f_sup: float
    f_sup_upper: float
    kernel_sup: float
    kernel_bound: float
    kernel_bound_upper: float
    samples: int
    passed: bool


def schur_bound_check(f: TrigPolynomial, us, u0) -> SchurBoundReport:
    """Check ||g(Us) - g(U0)||_2 <= pi ||f||_inf ||Us - U0||_2 for g = primitive_of(f).

    Also audits the kernel itself against its sup bound (pi/2) ||f0||_inf.
    The sup norms of f and f0 are sampled at N = max(``SUP_SAMPLES``, 8 deg)
    points and bracketed as in ``sampled_sup_norm``.  The check passes when
    both left sides are within the bounds built from the lower ends, and
    fails when either exceeds its bound built from the upper end; in between
    the samples cannot decide, and ``NoConvergence`` is raised.  A degree
    beyond ``_MAX_ORDER`` + 1 is ``UnishiftError`` before anything is allocated.
    """
    if _require_polynomial(f, "f").degree > _MAX_ORDER + 1:
        raise UnishiftError(f"Fourier modes must lie within +-{_MAX_ORDER + 1}, not {max(f.coeffs, key=abs)}")
    us = require_unitary(us, "bound left unitary")
    u0 = require_unitary(u0, "bound right unitary", us.shape[0])
    g = primitive_of(f)
    ldec, rdec = unitary_eig(us, check=False), unitary_eig(u0, check=False)
    lhs = hs_norm(circle_function_of(g, ldec) - circle_function_of(g, rdec))
    samples = max(SUP_SAMPLES, 8 * f.degree)
    f_sup = sampled_sup_norm(f, samples)
    f0_sup = sampled_sup_norm(TrigPolynomial({n: c for n, c in f.coeffs.items() if n != 0}), samples)
    gap = hs_norm(us - u0)
    rhs = [np.pi * x * gap for x in f_sup]
    ker_sup = float(np.max(np.abs(kernel(g, ldec, rdec)), initial=0.0))
    ker_bound = [0.5 * np.pi * x for x in f0_sup]
    passed = lhs <= rhs[0] + 1e-10 and ker_sup <= ker_bound[0] + 1e-8
    if not passed and lhs <= rhs[1] + 1e-10 and ker_sup <= ker_bound[1] + 1e-8:
        raise NoConvergence(
            f"{samples} samples cannot decide the bound: lhs {lhs:.6e} against [{rhs[0]:.6e}, {rhs[1]:.6e}],"
            f" kernel sup {ker_sup:.6e} against [{ker_bound[0]:.6e}, {ker_bound[1]:.6e}]"
        )
    return SchurBoundReport(
        lhs=lhs,
        rhs=float(rhs[0]),
        rhs_upper=float(rhs[1]),
        f_sup=f_sup[0],
        f_sup_upper=f_sup[1],
        kernel_sup=ker_sup,
        kernel_bound=float(ker_bound[0]),
        kernel_bound_upper=float(ker_bound[1]),
        samples=samples,
        passed=passed,
    )
