"""Reference implementations the tests compare the package against.

Each oracle computes a quantity the slow, direct way, with no shared code
path to the package routine it checks:

  * ``choose_phase`` puts the avoided point of the Cayley rotation in the
    largest gap of the spectrum itself (at least pi/d away), at the price of
    a general eigenvalue solve; ``unitary_eig`` picks it from the reflected
    spectrum of (U + U*)/2 instead.
  * ``cayley_forward`` is the Hermitian preimage H0 of a unitary, the inverse
    of ``cayley_inverse``.
  * ``StepFunction``, ``weighted_measure_step``, ``eta_step_at_s`` and
    ``integrate_against`` evaluate the integrand of eta one s-node at a time;
    they are the per-node reference the jump list of ``EtaIntegrator`` is
    tested against.
  * ``gateaux_monomial`` and ``gateaux_series`` keep the full matrices of the
    directional derivative along U_s = e^{isA} U0, by the product rule

        d/ds U_s^r = sum_{k=0}^{r-1} U_s^{r-k-1} (iA) U_s^{k+1}      (r >= 1)
                   = 0                                               (r = 0)
                   = -sum_{k=0}^{|r|-1} (U_s*)^{|r|-k} (iA) (U_s*)^k (r <= -1);

    they are the oracle for the per-mode traces of the left side.

Integer powers come from ``np.linalg.matrix_power``, of U* for negative
exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from unishift.errors import DimensionMismatch, PhaseTooClose
from unishift.linalg import (
    TWO_PI,
    SpectralDecomposition,
    UnitaryPath,
    hs_norm,
    require_hermitian,
    require_unitary,
)
from unishift.spectral_shift import IMAG_TOL
from unishift.trigpoly import TrigPolynomial

MERGE_TOL = 1e-10


def power(u, n: int) -> np.ndarray:
    """U^n, with U* standing in for U^{-1}."""
    u = np.asarray(u, dtype=np.complex128)
    return np.linalg.matrix_power(u if n >= 0 else u.conj().T, abs(n))


def polynomial_of(u, p: TrigPolynomial) -> np.ndarray:
    """p(U) = sum a_n U^n."""
    out = np.zeros(np.shape(u), dtype=np.complex128)
    for n, a in p.items():
        out = out + a * power(u, n)
    return out


def choose_phase(u0):
    """Rotation phase phi in (-pi, pi] placing -e^{i phi} farthest from the spectrum.

    The avoided point is the midpoint of the largest gap between consecutive
    eigenangles, so it lies at least pi/d from the spectrum; on ties the first
    largest gap in the ascending scan wins, which keeps the choice
    reproducible.  A matrix gives a float, a stack (..., d, d) an array of
    shape (...).
    """
    u0 = np.asarray(u0, dtype=np.complex128)
    ang = np.sort(np.mod(np.angle(np.linalg.eigvals(u0)), TWO_PI), axis=-1)
    gaps = np.empty_like(ang)
    gaps[..., :-1] = ang[..., 1:] - ang[..., :-1]
    gaps[..., -1] = ang[..., 0] + TWO_PI - ang[..., -1]
    k = np.argmax(gaps, axis=-1)[..., None]
    midpoint = np.take_along_axis(ang, k, -1) + 0.5 * np.take_along_axis(gaps, k, -1)
    phi = np.mod(midpoint[..., 0] - np.pi, TWO_PI)
    phi = np.where(phi > np.pi, phi - TWO_PI, phi)
    return phi if u0.ndim > 2 else float(phi)


def cayley_forward(u0, phase: float, min_gap: float = 1e-6) -> np.ndarray:
    """Hermitian H0 with e^{i phase} (i - H0)(i + H0)^{-1} = U0.

    Requires -e^{i phase} to keep an angular distance of at least ``min_gap``
    from the spectrum of U0; otherwise I + e^{-i phase} U0 is near singular.
    """
    u0 = require_unitary(u0, what="cayley input")
    rotated = np.exp(-1j * phase) * u0
    eye = np.eye(u0.shape[0])
    smallest = float(np.linalg.svd(eye + rotated, compute_uv=False)[-1])
    if smallest < 2.0 * np.sin(min_gap / 2.0):
        raise PhaseTooClose(
            f"-e^(i phase) is within {min_gap:g} of the spectrum (sigma_min {smallest:.3e})"
        )
    h0 = 1j * np.linalg.solve(eye + rotated, eye - rotated)
    return 0.5 * (h0 + h0.conj().T)


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous piecewise-constant function on [0, 2pi].

    ``values[i]`` holds on [breakpoints[i-1], breakpoints[i]) with the outer
    edges pinned at 0 and 2pi; ``values`` therefore has one more entry than
    ``breakpoints``.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values)
        if v.shape[0] != b.shape[0] + 1:
            raise ValueError("need exactly one value per interval")
        if b.size and (b[0] < 0.0 or b[-1] > TWO_PI or np.any(np.diff(b) <= 0.0)):
            raise ValueError("breakpoints must ascend strictly within [0, 2pi]")
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_jumps(cls, positions, weights, base=0.0, merge_tol: float = MERGE_TOL) -> "StepFunction":
        """Build from jump locations and heights; near-coincident jumps merge.

        Positions closer than ``merge_tol`` collapse onto the first of their
        group and their weights add, so numerically coincident eigenangles
        cannot create zero-length intervals.
        """
        positions = np.asarray(positions, dtype=float)
        weights = np.asarray(weights)
        order = np.argsort(positions, kind="stable")
        positions, weights = positions[order], weights[order]
        merged_pos: list[float] = []
        merged_w: list = []
        for p, w in zip(positions, weights):
            if merged_pos and p - merged_pos[-1] < merge_tol:
                merged_w[-1] = merged_w[-1] + w
            else:
                merged_pos.append(float(p))
                merged_w.append(w)
        values = base + np.concatenate([[0.0], np.cumsum(merged_w)]) if merged_w else np.atleast_1d(base + 0.0)
        return cls(breakpoints=np.asarray(merged_pos), values=values)

    def _edges(self) -> np.ndarray:
        return np.concatenate([[0.0], self.breakpoints, [TWO_PI]])

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def evaluate(self, t):
        idx = np.searchsorted(self.breakpoints, np.asarray(t, dtype=float), side="right")
        return self.values[idx]

    def jumps(self) -> np.ndarray:
        return np.diff(self.values)

    def total_variation(self) -> float:
        return float(np.sum(np.abs(self.jumps())))

    def integral(self) -> complex:
        """Exact integral over [0, 2pi]."""
        return complex(np.sum(self.values * np.diff(self._edges())))

    def fourier_integral(self, r: int) -> complex:
        """Exact integral of e^{irt} f(t) dt over [0, 2pi]."""
        if r == 0:
            return self.integral()
        e = np.exp(1j * r * self._edges())
        return complex(np.sum(self.values * np.diff(e)) / (1j * r))

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        pos = np.concatenate([self.breakpoints, other.breakpoints])
        w = np.concatenate([self.jumps(), -other.jumps()])
        base = self.values[0] - other.values[0]
        return StepFunction.from_jumps(pos, w, base=base)


def integrate_against(step: StepFunction, r: int) -> complex:
    """Exact integral of (d/dt)^2 e^{irt} against a step function.

    Interval [t_a, t_b) with value v contributes v (ir)(e^{ir t_b} - e^{ir t_a});
    the r = 0 mode has vanishing second derivative, so the result is 0.
    """
    if r == 0:
        return 0j
    return (1j * r) ** 2 * step.fourier_integral(r)


def weighted_measure_step(dec: SpectralDecomposition, w, imag_tol: float = IMAG_TOL) -> StepFunction:
    """t -> Tr{ W E(t) }: cumulative sums of v_k* W v_k over angles <= t.

    W must be Hermitian, which forces real jump weights; an imaginary residue
    above ``imag_tol`` (scaled by ||W||) aborts rather than being dropped.
    """
    w = require_hermitian(w, what="measure weight")
    if w.shape[0] != dec.angles.shape[-1]:
        raise DimensionMismatch("weight and decomposition dimensions differ")
    raw = np.einsum("ik,ij,jk->k", dec.vectors.conj(), w, dec.vectors)
    residue = float(np.max(np.abs(raw.imag), initial=0.0))
    if residue > imag_tol * max(1.0, hs_norm(w)):
        raise ValueError(f"jump weights carry imaginary residue {residue:.3e}")
    return StepFunction.from_jumps(dec.angles, raw.real, base=0.0)


def eta_step_at_s(u0dec: SpectralDecomposition, usdec: SpectralDecomposition, a) -> StepFunction:
    """t -> Tr{ A [E_0(t) - E_s(t)] } on the merged breakpoint set."""
    if u0dec.angles.shape != usdec.angles.shape:
        raise DimensionMismatch("decompositions have different dimensions")
    return weighted_measure_step(u0dec, a) - weighted_measure_step(usdec, a)


def _monomial_derivative(us: np.ndarray, ia: np.ndarray, r: int) -> np.ndarray:
    if r == 0:
        return np.zeros_like(ia)
    if r >= 1:
        return sum(power(us, r - k - 1) @ ia @ power(us, k + 1) for k in range(r))
    m = -r
    return -sum(power(us, -(m - k)) @ ia @ power(us, -k) for k in range(m))


def _path_point(u0, a, s: float) -> np.ndarray:
    u0 = require_unitary(u0, what="gateaux base")
    a = require_hermitian(a, what="gateaux direction")
    return UnitaryPath(u0, a, check=False).at(s) if s != 0.0 else u0


def gateaux_monomial(u0, a, r: int, s: float = 0.0) -> np.ndarray:
    """d/ds (U_s)^r along U_s = e^{isA} U0, evaluated at the given s."""
    return _monomial_derivative(_path_point(u0, a, s), 1j * np.asarray(a, dtype=np.complex128), r)


def gateaux_series(u0, a, p: TrigPolynomial, s: float = 0.0) -> np.ndarray:
    """d/ds p(U_s): coefficient-weighted sum of the monomial derivatives."""
    us = _path_point(u0, a, s)
    ia = 1j * np.asarray(a, dtype=np.complex128)
    out = np.zeros_like(ia)
    for n, coeff in p.items():
        out = out + coeff * _monomial_derivative(us, ia, n)
    return out
