"""Both sides of the second-order trace identity for unitary pairs.

For U = e^{iA} U0 and a trigonometric polynomial p, the identity reads

    Tr{ p(U) - p(U0) - d/ds p(U_s)|_{s=0} }
        = integral over [0, 2pi] of (d/dt)^2 p(e^{it}) * eta(t) dt .

Both sides are linear in the coefficients of p, so each is an array of one
number per Fourier mode n, and one coefficient matrix C (row j holds the
coefficients of polynomial j on the sorted modes) assembles both for every
polynomial: C @ traces and C @ pairings.  The left side streams the powers
U^k and U0^k in blocks of consecutive k (``linalg._power_blocks``), each
block one (b, d, d) stack advanced by one batched product (adjoints for
negative modes); per block it takes the b traces and, by the cyclic trace
identity below, the b derivative terms in one product with conj(A).  The
right side is an exact sum over the jump list of eta (eigenangles of U_s at
Gauss-Legendre nodes in s, see ``spectral_shift``).  The left side touches
no eigendecomposition, so the two sides share no spectral code path and
agreeing results mean something.

The resolvent w -> (w - z)^{-1} is not a trigonometric polynomial.  Its
right side is one closed-form sum over the jumps from f'(t) =
-i e^{it} / (e^{it} - z)^2, with no truncation; only the left side uses a
truncated Fourier series, with an explicit tail bound, and that series is
checked against the left side computed directly from matrix inverses.  The
series is geometric in X = z U* inside the circle and X = U / z outside, so
its left side needs only S = sum_{k<n} X^k and T = sum_{k<n} k X^k for U and
U0, which binary doubling gives in O(log n) products of one (2, d, d) stack
(``_geometric_sums``) rather than one product per mode.

The directional derivative of a monomial follows the product rule along the
path:

    d/ds U_s^r = sum_{k=0}^{r-1} U_s^{r-k-1} (iA) U_s^{k+1}      (r >= 1)
               = 0                                               (r = 0)
               = -sum_{k=0}^{|r|-1} (U_s*)^{|r|-k} (iA) (U_s*)^k (r <= -1).

By cyclicity every term has trace Tr(iA U_s^r), so for every integer r

    Tr d/ds U_s^r = i r Tr(A U_s^r).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable
from dataclasses import dataclass
from numbers import Number

import numpy as np

from .errors import OnUnitCircle, UnishiftError, _is_real, _is_whole
from .linalg import UnitaryPath, _adjoint, _power_blocks, hs_norm, op_norm, trace
from .spectral_shift import EtaIntegrator
from .trigpoly import TrigPolynomial, _require_polynomial


# Largest resolvent series order; a z that needs more counts as on the circle.
_MAX_ORDER = 100_000


def _exp_remainder_factor(x: float) -> float:
    """(e^x - x - 1) / x^2, continuous through x = 0."""
    if x < 1e-6:
        return 0.5 + x / 6.0 + x * x / 24.0
    return (math.expm1(x) - x) / (x * x)


def _require_tol(tol: float) -> None:
    if not (_is_real(tol) and tol > 0.0):
        raise UnishiftError(f"tol must be a finite positive number, not {tol!r}")


def _require_point(z) -> complex:
    """A resolvent point z as a complex number, converted once; anything but a finite number is ``UnishiftError``."""
    if not (isinstance(z, Number) and cmath.isfinite(z := complex(z))):
        raise UnishiftError(f"z = {z!r} is not a finite complex number")
    return z


def require_path(u0, u, a) -> None:
    """Check U0 unitary, A Hermitian and U = e^{iA} U0 within dim * 1e-10."""
    UnitaryPath(u0, a).require_endpoint(u)


def _lhs_mode_traces(u0: np.ndarray, u: np.ndarray, a: np.ndarray, modes) -> np.ndarray:
    """Tr{ U^n - U0^n - d/ds U_s^n|_0 } for each mode n in ``modes``, in that order.

    The derivative trace is i n Tr(A U0^n) = i n sum conj(A) * U0^n, since A
    is Hermitian.  Blocks of powers of U and U0 are streamed side by side up
    to the largest wanted |n|; each block gives its traces and its products
    with conj(A) at once, and nothing is kept between blocks.
    """
    modes = np.asarray(modes, dtype=np.int64)
    lo = modes.min(initial=0)
    values = np.zeros(modes.max(initial=0) - lo + 1, dtype=np.complex128)
    a_conj = a.conj().ravel()
    for (ks, power), (_, power0) in zip(_power_blocks(u, modes), _power_blocks(u0, modes)):
        traces = np.trace(power, axis1=1, axis2=2) - np.trace(power0, axis1=1, axis2=2)
        values[ks - lo] = traces - 1j * ks * (power0.reshape(len(ks), -1) @ a_conj)
    return values[modes - lo]


def _coefficients(polys) -> tuple[np.ndarray, np.ndarray]:
    """The sorted modes of ``polys`` and the matrix C whose row j holds polys[j]'s coefficients on them.

    A mode beyond +-(``_MAX_ORDER`` + 1), the largest the resolvent series
    uses, is ``UnishiftError`` before anything is allocated.
    """
    modes = sorted({n for p in polys for n in p.coeffs})
    if modes and max(-modes[0], modes[-1]) > _MAX_ORDER + 1:
        raise UnishiftError(f"Fourier modes must lie within +-{_MAX_ORDER + 1}, not {max(modes, key=abs)}")
    modes = np.array(modes, dtype=np.int64)
    c = np.zeros((len(polys), modes.size), dtype=np.complex128)
    for row, p in zip(c, polys):
        row[np.searchsorted(modes, list(p.coeffs))] = list(p.coeffs.values())
    return modes, c


def _lhs(u0: np.ndarray, u: np.ndarray, a: np.ndarray, *polys: TrigPolynomial) -> np.ndarray:
    """Left side of each of ``polys`` for a pair that is already validated: C @ the per-mode traces."""
    modes, c = _coefficients(polys)
    return c @ _lhs_mode_traces(u0, u, a, modes)


def lhs_trace(u0, u, a, p: TrigPolynomial) -> complex:
    """Tr{ p(U) - p(U0) - d/ds p(U_s)|_0 } via blocks of streamed powers."""
    path = UnitaryPath(u0, a)
    return complex(_lhs(path.u0, path.require_endpoint(u), path.a, _require_polynomial(p))[0])


@dataclass(frozen=True)
class VerificationReport:
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    s_nodes_used: int
    passed: bool
    tolerance: float

    @staticmethod
    def from_sides(lhs: complex, rhs: complex, tol: float, s_nodes: int) -> "VerificationReport":
        abs_err = abs(lhs - rhs)
        scale = 1.0 + abs(lhs)
        return VerificationReport(
            lhs=lhs,
            rhs=rhs,
            abs_err=abs_err,
            rel_err=abs_err / scale,
            s_nodes_used=s_nodes,
            passed=abs_err <= tol * scale,
            tolerance=tol,
        )


def batch_verify(u0, u, a, polys, tol: float = 1e-8, s_rule=None) -> list[VerificationReport]:
    """Verify many polynomials for one pair, validating it once.

    The pair is validated by the integrator's path.  Both sides are linear in
    the coefficients, so each is one product of the coefficient matrix C of
    ``polys`` with per-mode values: the streamed traces of U^n - U0^n - D_n
    on the left and the curvature pairings on the right.
    """
    _require_tol(tol)
    if not isinstance(polys, Iterable):
        raise UnishiftError(f"polys must be an iterable of TrigPolynomials, not {type(polys).__name__}")
    modes, c = _coefficients([_require_polynomial(p) for p in polys])
    session = EtaIntegrator(u0, a, s_rule)
    u = session.path.require_endpoint(u)
    lhs = c @ _lhs_mode_traces(session.u0, u, session.a, modes)
    rhs = c @ session.curvature_pairings(modes)
    return [VerificationReport.from_sides(*s, tol, session.rule.count) for s in zip(lhs.tolist(), rhs.tolist())]


@dataclass(frozen=True)
class ResolventReport(VerificationReport):
    """Verification of the resolvent identity with its truncation bookkeeping."""

    z: complex
    truncation_order: int
    tail_bound: float
    direct_lhs: complex
    series_vs_direct: float


def resolvent_coefficients(z: complex, order: int) -> TrigPolynomial:
    """Truncated Fourier expansion of w -> (w - z)^{-1} on |w| = 1.

    Inside the circle the coefficients sit at negative modes, a_{-(k+1)} = z^k;
    outside they sit at nonnegative modes, a_k = -w^{k+1} with w = 1/z, which
    underflows to 0 where z^{-(k+1)} would overflow.  z is taken as
    a complex number, as in ``resolvent_check``, and the order is a whole
    number from 0 to ``_MAX_ORDER``, checked before anything is allocated.
    """
    z = _require_point(z)
    if not _is_whole(order, 0):
        raise UnishiftError(f"the series order must be a whole number, at least 0, not {order!r}")
    if order > _MAX_ORDER:
        raise UnishiftError(f"the series order must be at most {_MAX_ORDER}, not {order}")
    if abs(z) < 1.0:
        return TrigPolynomial({-(k + 1): z**k for k in range(order, -1, -1)})
    return TrigPolynomial({k: -((1.0 / z) ** (k + 1)) for k in range(order + 1)})


def resolvent_truncation(z: complex, a_hs: float, a_op: float, tol: float):
    """Smallest order whose dropped terms cannot move either side by tol/10.

    The k-th dropped coefficient has modulus rho^k with rho = min(|z|, 1/|z|).
    Its mode r = k + 1 moves the left side by at most the trace norm of
    U^r - U0^r - d/ds U_s^r|_0.  Split into quadratic exponential remainders
    and first-order mismatches, that is at most [r(r - 1)/2 + r c] ||A||_2^2
    = a_hs^2 q(k), with q(k) = (k^2 + k)/2 + (k + 1) c and
    c = (e^x - x - 1)/x^2 at x = ||A||.  Expanding q(K + j) in j, the tail from k = K on is

        a_hs^2 rho^K [ q(K)/g + q'(K) rho/g^2 + rho (1 + rho)/(2 g^3) ],  g = 1 - rho,

    which decreases in K, so a bisection finds the smallest K below tol/10;
    the order is K - 1, and past ``_MAX_ORDER``, or at rho = 1, z counts as
    on the circle.  z must be a finite number and tol a finite positive one.
    """
    z = _require_point(z)
    _require_tol(tol)
    rho = min(abs(z), 1.0 / abs(z)) if z != 0 else 0.0
    if rho == 0.0:
        return 0, 0.0
    c, g, budget = _exp_remainder_factor(a_op), 1.0 - rho, tol / 10.0

    def tail(k: int) -> float:
        q = 0.5 * (k * k + k) + (k + 1) * c
        return a_hs**2 * rho**k * (q / g + (k + 0.5 + c) * rho / g**2 + rho * (1.0 + rho) / (2.0 * g**3))

    lo, hi = 0, _MAX_ORDER + 1
    if not (rho < 1.0 and tail(hi) < budget):
        raise OnUnitCircle(f"|z| = {abs(z):.6f} needs a series order above {_MAX_ORDER} for tolerance {tol:g}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if tail(mid) < budget else (mid, hi)
    return hi - 1, tail(hi)


def _geometric_sums(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """S = sum_{k<n} X^k and T = sum_{k<n} k X^k for each X of a stack, n >= 1, by binary doubling.

    From S_m, T_m and P = X^m, doubling takes S_2m = S_m + P S_m,
    T_2m = T_m + P (T_m + m S_m) and P^2; each set bit of n after the
    leading one then adds the term P to S and m P to T, and takes P X.  So
    n needs at most 4 (bit length of n - 1) stacked products, where the
    streamed sum needs n (Higham, Functions of Matrices, SIAM 2008, ch. 4).
    """
    s, t, power, m = np.broadcast_to(np.eye(x.shape[-1], dtype=x.dtype), x.shape).copy(), np.zeros_like(x), x, 1
    for bit in bin(n)[3:]:
        s, t, power, m = s + power @ s, t + power @ (t + m * s), power @ power, 2 * m
        if bit == "1":
            s, t, power, m = s + power, t + m * power, power @ x, m + 1
    return s, t


def _resolvent_lhs(u0: np.ndarray, u: np.ndarray, a: np.ndarray, z: complex, order: int) -> complex:
    """The left side of ``resolvent_coefficients(z, order)`` for a validated pair, from ``_geometric_sums``.

    Inside the circle, with X = z U* and n = order + 1, the modes -(k+1) sum to
    Tr(U* S) - Tr(U0* S0) + i Tr(A U0* (T0 + S0)); outside, with X = U / z, the
    modes k sum to -(Tr S - Tr S0 - i Tr(A T0)) / z.  Tr(M* N) is vdot(M, N),
    and Tr(A N) = vdot(A, N) for Hermitian A.
    """
    pair = np.stack([u, u0])
    if abs(z) < 1.0:
        (s, s0), (_, t0) = _geometric_sums(z * _adjoint(pair), order + 1)
        return np.vdot(u, s) - np.vdot(u0, s0) + 1j * np.vdot(a, _adjoint(u0) @ (t0 + s0))
    (s, s0), (_, t0) = _geometric_sums(pair / z, order + 1)
    return -(np.trace(s) - np.trace(s0) - 1j * np.vdot(a, t0)) / z


def resolvent_check(u0, u, a, z: complex, tol: float = 1e-7, s_rule=None) -> ResolventReport:
    """Verify the trace identity for w -> (w - z)^{-1}, |z| != 1.

    The right side is the closed-form pairing of eta with the resolvent's
    derivative on the circle.  The left side sums a truncated coefficient
    expansion, whose order comes from an explicit tail bound, as two
    geometric series summed by binary doubling (``_resolvent_lhs``), in
    O(log order) products; it must also agree with the left side computed
    directly from matrix inverses.
    """
    _require_tol(tol)
    if abs(abs(z := _require_point(z)) - 1.0) < 1e-6:
        raise OnUnitCircle(f"|z| = {abs(z):.8f} is within 1e-6 of the unit circle")
    session = EtaIntegrator(u0, a, s_rule)
    u0, a, u = session.u0, session.a, session.path.require_endpoint(u)
    order, tail = resolvent_truncation(z, hs_norm(a), op_norm(a), tol)
    lhs = complex(_resolvent_lhs(u0, u, a, z, order))

    def fprime(t):
        """d/dt (e^{it} - z)^{-1} on the circle; dividing twice keeps a huge |z| from overflowing."""
        w = np.exp(1j * t)
        return -1j * w / (w - z) / (w - z)

    rhs = session.pairing(fprime)
    report = VerificationReport.from_sides(lhs, rhs, tol, session.rule.count)

    eye = np.eye(u0.shape[0])
    r_u = np.linalg.inv(u - z * eye)
    r_u0 = np.linalg.inv(u0 - z * eye)
    # d/ds (U_s - z)^{-1}|_0 = -R0 (iA U0) R0
    direct = trace(r_u - r_u0 + r_u0 @ (1j * a @ u0) @ r_u0)
    gap = abs(lhs - direct)
    agreement = gap <= tol * (1.0 + abs(direct))
    return ResolventReport(
        **dict(vars(report), passed=report.passed and agreement),
        z=z, truncation_order=order, tail_bound=float(tail), direct_lhs=direct, series_vs_direct=gap,
    )
