"""Reference implementations the tests compare the package against.

Each oracle computes a quantity the slow, direct way, with no shared code
path to the package routine it checks:

  * ``choose_phase`` puts the avoided point of the Cayley rotation in the
    largest gap of the spectrum itself (at least pi/d away), at the price of
    a general eigenvalue solve; the package's block solver picks it from the
    reflected spectrum of (U + U*)/2 instead.
  * ``cayley_unitary_eig`` is the spectral decomposition of a whole unitary
    (or stack) by the phase-rotated Cayley transform at ``choose_phase``;
    ``unitary_eig`` takes Ritz pairs of (U + U*)/2 and solves only its
    coupled blocks that way.
  * ``cayley_forward`` is the Hermitian preimage H0 of a unitary, the inverse
    of ``reduction._cayley``; ``log_unitary`` is the principal logarithm of a
    unitary, spectrum in (-pi, pi], the boundary eigenvalue -1 mapped to +pi.
  * ``StepFunction``, ``weighted_measure_step``, ``eta_step_at_s`` and
    ``integrate_against`` evaluate the integrand of eta one s-node at a time;
    they are the per-node reference the jump list of ``EtaIntegrator`` is
    tested against.  ``eta_fourier`` reads one Fourier coefficient of eta off
    that jump list (``ZeroHarmonic`` for n = 0), for the Fourier cross-check.
  * ``eigenvector_pass`` is the integrator's node data from ``unitary_eig``
    of each node's matrix, weights read off the sorted eigenvectors; the
    integrator takes one Ritz pass per block of nodes, keeps no eigenvectors
    and solves the coupled runs of all blocks together, and its angles must
    equal these bit for bit.
  * ``exact_eta`` is the profile in closed form from Krein's shift function:
    a step function of the eigenvector masses of U0 minus ramps between the
    eigenangles of U0 and U, from two eigendecompositions and no s at all.
    The package integrates in s at Gauss-Legendre nodes and is first-order
    accurate pointwise.  It stays a test oracle: paired with f'' it would
    be a spectral left side.
  * ``gateaux_monomial`` and ``gateaux_series`` keep the full matrices of the
    directional derivative along U_s = e^{isA} U0, by the product rule

        d/ds U_s^r = sum_{k=0}^{r-1} U_s^{r-k-1} (iA) U_s^{k+1}      (r >= 1)
                   = 0                                               (r = 0)
                   = -sum_{k=0}^{|r|-1} (U_s*)^{|r|-k} (iA) (U_s*)^k (r <= -1);

    they are the oracle for the per-mode traces of the left side.
  * ``mp_lhs_trace`` is the left side of a polynomial to 40 digits (mpmath),
    from the eigenvalues of the float64 U and U0 and the diagonal of A in
    U0's eigenvectors, one power per mode; the package's resolvent left side
    sums geometric series of matrices by binary doubling instead.
  * ``require_hermitian_svd`` and ``require_unitary_svd`` are the validation
    checks by their definition, with an SVD for every operator norm; the
    package proves most passes from Hilbert-Schmidt norms instead.
  * ``window_basis_global_mgs`` spans the spectral-cell pieces of the seeds
    by one modified Gram-Schmidt over all cells in the ambient space; the
    package orthonormalises cell by cell in eigen-coordinates.
  * ``window_basis_per_cell`` is the cell-by-cell construction with one SVD
    call and one fill per occupied cell; the package batches
    the SVDs over cells of one shape, and its outputs must equal these bit
    for bit.
  * ``dense_projection_audit``, ``dense_perturbation_audit`` and
    ``dense_compressed_audit`` evaluate every audited quantity from its
    displayed formula with the projector P = BB*, full matrix powers from
    ``np.linalg.matrix_power`` (so U^{-m} comes from an inverse), ``inv``
    for the resolvents and exponentials from a full ``eigh``; the package
    telescopes U^m B through thin d x L streams and works on low-rank factors.
  * ``dense_kept_pairs`` takes the kept eigenpairs of a Hermitian matrix
    from one full eigh; the package builds a basis of the range first and
    diagonalises only the k x k compression.
  * ``one_cell_basis``, ``ambient_columns``, ``full_space``,
    ``seeded_instance``, ``abs_sum``, ``weighted_abs_sum``,
    ``remainder_trace_norm_bound`` and ``PhaseTooClose`` are test-only
    helpers: a hand-built basis with one cell holding every row of a checked
    instance, the columns B of a basis, which keeps only its cells, the
    whole-space projection of a diagonal H0 and an A, an instance whose
    seeds are given columns, coefficient sums of a polynomial, the per-mode
    trace-norm bound of the left side, and the error of ``cayley_forward``.

Except in the dense audits, integer powers come from
``np.linalg.matrix_power``, of U* for negative exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from unishift.errors import DimensionMismatch, NotHermitian, NotUnitary, UnishiftError
from unishift.linalg import (
    TWO_PI,
    SpectralDecomposition,
    UnitaryPath,
    _from_spectrum,
    as_matrix,
    hs_norm,
    require_hermitian,
    require_unitary,
    unitary_eig,
)
from unishift.reduction import GS_DROP_TOL, CheckedInstance, ProjectionBasis, WindowParams, _cells_of, _instance
from unishift.trace_formula import _exp_remainder_factor
from unishift.trigpoly import TrigPolynomial

MERGE_TOL = 1e-10
# Largest imaginary jump-weight residue, relative to ||W||, that counts as roundoff.
IMAG_TOL = 1e-10


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


def cayley_unitary_eig(u) -> SpectralDecomposition:
    """Eigenangles in (0, 2pi], eigenvalue 1 at 2pi, and eigencolumns of U or of each slice of a stack.

    One eigh of the Hermitian i (I - U')(I + U')^{-1}, U' = e^{-i phi} U at
    phi = ``choose_phase``, maps each eigenvalue h back to the angle of
    e^{i phi} (i - h)/(i + h); angles within 1e-12 of 0 (mod 2pi) go to 2pi.
    """
    u = np.asarray(u, dtype=np.complex128)
    phi = np.asarray(choose_phase(u))
    rotated = np.exp(-1j * phi)[..., None, None] * u
    eye = np.eye(u.shape[-1])
    h = 1j * np.linalg.solve(eye + rotated, eye - rotated)
    w, v = np.linalg.eigh(0.5 * (h + np.swapaxes(h, -1, -2).conj()))
    theta = np.mod(phi[..., None] + np.pi - 2.0 * np.arctan2(1.0, w), TWO_PI)
    theta = np.where((theta <= 1e-12) | (theta >= TWO_PI - 1e-12), TWO_PI, theta)
    order = np.argsort(theta, axis=-1, kind="stable")
    return SpectralDecomposition(
        angles=np.take_along_axis(theta, order, -1), vectors=np.take_along_axis(v, order[..., None, :], -1)
    )


class PhaseTooClose(UnishiftError):
    """The rotation phase puts -e^{i*phase} too close to the spectrum."""


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


def log_unitary(v) -> np.ndarray:
    """Principal logarithm A of a unitary: A Hermitian, spectrum in (-pi, pi], e^{iA} = V."""
    dec = unitary_eig(as_matrix(v))
    x = np.where(dec.angles > np.pi, dec.angles - TWO_PI, dec.angles)
    a = _from_spectrum(dec.vectors, x)
    return 0.5 * (a + a.conj().T)


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

    def abs_integral(self, shift: float) -> float:
        """Exact integral of |f - shift| over [0, 2pi]."""
        return float(np.sum(np.abs(self.values - shift) * np.diff(self._edges())))

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


def eigenvector_pass(u0, a, rule) -> tuple[np.ndarray, np.ndarray]:
    """The (1 + nodes, d) sorted angles and weights sum_j L_j |y_j|^2 from ``unitary_eig`` of each e^{isL} M."""
    path = UnitaryPath(u0, a)
    lam, m = path.direction_spectrum.eigenvalues, path.vstar_u0 @ path.direction_spectrum.vectors
    angles, weights = [], []
    for s in np.concatenate([[0.0], rule.nodes]):
        dec = unitary_eig(np.exp(1j * (s * lam))[:, None] * m, check=False)
        angles.append(dec.angles)
        weights.append(lam @ np.abs(dec.vectors) ** 2)
    return np.array(angles), np.array(weights)


def exact_eta(u0, a, t) -> tuple[np.ndarray, int]:
    """Krein's closed form of eta at the angles t, with no s-quadrature, and the spectral flow k.

        eta(t) = sum_{theta0_j <= t} v_j*Av_j - sum_j [(t - theta0_j)_+ - (t - theta1_j)_+] - k t

    In angle variables Tr g(U) - Tr g(U0) = integral of g' xi dt, and the
    derivative term is the integral of g' against mu_A(t) = Tr(A E_0(t)), so
    d eta = d mu_A - xi dt.  theta0_j, v_j are the eigenangles in (0, 2pi]
    and eigenvectors of U0, theta1_j those of U = e^{iA} U0, both from
    ``cayley_unitary_eig`` with e^{iA} from one eigh of A.  The integer
    k = (Tr A - sum theta1 + sum theta0) / 2pi counts the angles that wrap
    past 2pi; a k farther than d 1e-9 from an integer is an AssertionError.
    """
    u0, a = np.asarray(u0, dtype=np.complex128), np.asarray(a, dtype=np.complex128)
    lam, w = np.linalg.eigh(a)
    before, after = cayley_unitary_eig(u0), cayley_unitary_eig(((w * np.exp(1j * lam)) @ w.conj().T) @ u0)
    flow = (np.trace(a).real - after.angles.sum() + before.angles.sum()) / TWO_PI
    k = round(flow)
    assert abs(flow - k) <= 1e-9 * a.shape[0], f"spectral flow {flow!r} is not an integer"
    masses = np.sum(before.vectors.conj() * (a @ before.vectors), axis=0).real
    t = np.asarray(t, dtype=float)[:, None]
    ramps = np.maximum(t - before.angles, 0.0) - np.maximum(t - after.angles, 0.0)
    return (t >= before.angles) @ masses - ramps.sum(axis=1) - k * t[:, 0], k


class ZeroHarmonic(UnishiftError):
    """The zeroth Fourier mode was requested where only nonzero modes make sense."""


def eta_fourier(integrator, n: int) -> complex:
    """Exact-in-t Fourier coefficient of eta: integral of e^{int} eta(t) dt.

    One mode of the integrator's own jump-list sum: (i/n) sum_k w_k (e^{in theta_k} - 1).
    """
    if n == 0:
        raise ZeroHarmonic("the n = 0 coefficient is the additive-constant ambiguity")
    return complex(1j / n * ((np.exp(1j * n * integrator.jump_angles) - 1.0) @ integrator.jump_weights))


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


def mp_lhs_trace(u0, u, a, p: TrigPolynomial, dps: int = 40) -> complex:
    """Tr{ p(U) - p(U0) - d/ds p(U_s)|_0 } for the given float64 matrices, summed with ``dps`` digits.

    With U0 = V0 diag(mu) V0^{-1}, mode n contributes c_n (sum lambda^n - sum mu^n
    - i n sum w mu^n), w the diagonal of V0^{-1} A V0; the powers are kept as
    running products over n = 1, 2, ... for each sign.  Mode 0 contributes 0.
    """
    import mpmath

    with mpmath.workdps(dps):
        lam, _ = mpmath.eig(mpmath.matrix(np.asarray(u).tolist()))
        mu, v0 = mpmath.eig(mpmath.matrix(np.asarray(u0).tolist()))
        w_mat = mpmath.inverse(v0) * mpmath.matrix(np.asarray(a).tolist()) * v0
        w = [w_mat[j, j] for j in range(len(mu))]
        total = mpmath.mpc(0)
        for sign in (1, -1):
            steps_l, steps_m = [x**sign for x in lam], [x**sign for x in mu]
            pl, pm = list(steps_l), list(steps_m)
            for k in range(1, max([sign * n for n in p.coeffs] + [0]) + 1):
                if (n := sign * k) in p.coeffs:
                    tn = mpmath.fsum(pl) - mpmath.fsum(pm) - 1j * n * mpmath.fsum(x * y for x, y in zip(w, pm))
                    total += mpmath.mpc(p.coeffs[n]) * tn
                pl = [x * y for x, y in zip(pl, steps_l)]
                pm = [x * y for x, y in zip(pm, steps_m)]
        return complex(total)


def require_hermitian_svd(m, what: str = "matrix") -> None:
    """Raise NotHermitian unless ||M - M*||_2 <= tol = 1e-10 ||M||_2, norms by SVD."""
    m = np.asarray(m, dtype=np.complex128)
    tol = 1e-10 * float(np.linalg.norm(m, 2))
    dev = float(np.linalg.norm(m - m.conj().T, 2))
    if dev > tol:
        raise NotHermitian(f"{what} deviates from Hermitian by {dev:.3e} (tol {tol:.3e})")


def require_unitary_svd(m, what: str = "matrix") -> None:
    """Raise NotUnitary unless ||M*M - I||_2 <= tol = d 1e-10, norms by SVD."""
    m = np.asarray(m, dtype=np.complex128)
    tol = m.shape[0] * 1e-10
    dev = float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]), 2))
    if dev > tol:
        raise NotUnitary(f"{what} deviates from unitary by {dev:.3e} (tol {tol:.3e})")


def window_basis_global_mgs(h0, seeds, half_width: float, cells: int, drop_tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the normalised cell pieces of the seed columns.

    Cell k of the window (-a, a] is (edge_k, edge_{k+1}]; each seed's piece
    in a cell is formed in the ambient space, kept if its norm exceeds
    ``drop_tol``, and all pieces, cell by cell and seed by seed, go through
    one modified Gram-Schmidt with a re-orthogonalisation pass, which drops
    a residual of norm ``drop_tol`` or less.
    """
    w, v = np.linalg.eigh(np.asarray(h0, dtype=np.complex128))
    seeds = np.asarray(seeds, dtype=np.complex128)
    edges = np.linspace(-half_width, half_width, cells + 1)
    candidates = []
    for k in range(cells):
        block = v[:, (w > edges[k]) & (w <= edges[k + 1])]
        for l in range(seeds.shape[1]):
            piece = block @ (block.conj().T @ seeds[:, l])
            norm = np.linalg.norm(piece)
            if norm > drop_tol:
                candidates.append(piece / norm)
    basis = np.zeros((h0.shape[0], len(candidates)), dtype=np.complex128)
    kept = 0
    for vec in candidates:
        x = vec.copy()
        for _ in range(2):
            q = basis[:, :kept]
            x -= q @ (q.conj().T @ x)
        norm = np.linalg.norm(x)
        if norm > drop_tol:
            basis[:, kept] = x / norm
            kept += 1
    return basis[:, :kept]


def window_basis_per_cell(eigenvalues, f, half_width: float, cells: int) -> dict[str, np.ndarray]:
    """The columns and cell layout of the window basis, one SVD per occupied cell.

    ``eigenvalues`` are the ascending diagonal of H0 and ``f`` the orthonormal
    seeds in its eigen-coordinates; the cells come from ``_cells_of``, and the
    seeds are assumed captured by the window.
    """
    window = np.flatnonzero((eigenvalues > -half_width) & (eigenvalues <= half_width))
    runs = np.split(window, np.flatnonzero(np.diff(_cells_of(eigenvalues[window], half_width, cells))) + 1)
    rows_of, blocks = [], []
    for rows in runs if window.size else []:
        pieces = f[rows, :]
        norms = np.linalg.norm(pieces, axis=0)
        kept = norms > GS_DROP_TOL
        left, values, _ = np.linalg.svd(pieces[:, kept] / norms[kept], full_matrices=False)
        if np.any(big := values > GS_DROP_TOL):
            rows_of.append(rows)
            blocks.append(left[:, big])
    n, width = max(map(len, rows_of), default=0), max((x.shape[1] for x in blocks), default=0)
    cell_rows, cell_columns = np.full((len(blocks), n), -1), np.full((len(blocks), width), -1)
    cell_blocks = np.zeros((len(blocks), n, width), dtype=np.complex128)
    start = 0
    for k, (rows, block) in enumerate(zip(rows_of, blocks)):
        cell_rows[k, :rows.size] = rows
        cell_columns[k, :block.shape[1]] = np.arange(start, start + block.shape[1])
        cell_blocks[k, :rows.size, :block.shape[1]] = block
        start += block.shape[1]
    columns = np.zeros((f.shape[0], start), dtype=np.complex128)
    for k, (rows, block) in enumerate(zip(rows_of, blocks)):
        columns[np.ix_(rows, cell_columns[k, : block.shape[1]])] = block
    return dict(columns=columns, cell_rows=cell_rows, cell_columns=cell_columns, cell_blocks=cell_blocks)


def _dense_exp_i(h: np.ndarray, s: float = 1.0) -> np.ndarray:
    """e^{isH} from a full eigh of the Hermitian part of H."""
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (v * np.exp(1j * s * w)) @ v.conj().T


def dense_kept_pairs(h) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenpairs (F, tau) of the Hermitian part of H with |tau| > 1e-12 max(||H||, 1), and ||H||.

    One full eigh of the d x d matrix: ||H|| is its largest |eigenvalue|.
    """
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    top = float(np.max(np.abs(w), initial=0.0))
    keep = np.abs(w) > 1e-12 * max(top, 1.0)
    return v[:, keep], w[keep], top


def _projectors(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = b @ b.conj().T
    return p, np.eye(b.shape[0]) - p


def dense_projection_audit(b, seeds, eps, h0, u0, m_list) -> list[tuple[str, float, float]]:
    """(name, value, bound) of the window-projection audit from its formulas."""
    p, q = _projectors(b)
    eye = np.eye(b.shape[0])
    checks = [(f"seed_capture[{l}]", np.linalg.norm(q @ seeds[:, l]), eps) for l in range(seeds.shape[1])]
    checks.append(("window_offblock", hs_norm(q @ h0 @ p), eps))
    checks.append(("resolvent_plus", hs_norm(q @ np.linalg.inv(1j * eye + h0) @ p), eps))
    checks.append(("resolvent_minus", hs_norm(q @ np.linalg.inv(1j * eye - h0) @ p), eps))
    for m in m_list:
        checks.append((f"base_power[{m}]", hs_norm(q @ np.linalg.matrix_power(u0, m) @ p), 2 * abs(m) * eps))
    return checks


def dense_perturbation_audit(b, eps, u0, u, a, t_max, m_list, t_samples) -> list[tuple[str, float, float]]:
    """(name, value, bound) of the perturbation-coupling audit from its formulas."""
    p, q = _projectors(b)
    a_op = float(np.linalg.norm(a, 2))
    checks = [("direction_offblock", hs_norm(q @ a), 2 * eps)]
    bound = 2.0 * t_max * np.exp(t_max * a_op) * eps
    for t in t_samples:
        checks.append((f"propagator[t={float(t):+.3f}]", hs_norm(q @ _dense_exp_i(a, float(t)) @ p), bound))
    for m in m_list:
        checks.append((f"base_power[{m}]", hs_norm(q @ np.linalg.matrix_power(u0, m) @ p), 2 * abs(m) * eps))
        value = hs_norm(q @ np.linalg.matrix_power(u, m) @ p)
        checks.append((f"pert_power[{m}]", value, abs(m) * 2.0 * (np.exp(a_op) + 1.0) * eps))
    return checks


def dense_compressed_model(b, h0, a, phase: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank coordinates (U0p, Ap, Up) of the pair compressed to ran P = ran B.

    U0p is the phase-rotated Cayley image of B* H0 B (by ``inv``), Ap = B* A B
    and Up = e^{iAp} U0p; on the ambient space each acts as B X B*.
    """
    bh = b.conj().T
    eye_r = np.eye(b.shape[1])
    hc = bh @ h0 @ b
    hc = 0.5 * (hc + hc.conj().T)
    ap = bh @ a @ b
    ap = 0.5 * (ap + ap.conj().T)
    u0p = np.exp(1j * phase) * (1j * eye_r - hc) @ np.linalg.inv(1j * eye_r + hc)
    return u0p, ap, _dense_exp_i(ap) @ u0p


def dense_compressed_audit(
    b, eps, h0, a, u0, u, phase, t_max, m_list, k_list, s_samples, remainder_factor
) -> list[tuple[str, float, float]]:
    """(name, value, bound) of the compressed-model audit from its formulas.

    The compressed operators are those of ``dense_compressed_model``.
    ``remainder_factor`` is x -> (e^x - x - 1) / x^2, the Taylor constant of
    the trace-norm bound.
    """
    p, q = _projectors(b)
    eye = np.eye(b.shape[0])
    bh = b.conj().T
    u0p, ap, up = dense_compressed_model(b, h0, a, phase)
    a_op, a_hs = float(np.linalg.norm(a, 2)), hs_norm(a)
    exp_a = _dense_exp_i(a)

    def embed(x):
        return b @ x @ bh

    checks = [("exp_step_offblock", hs_norm(q @ (exp_a - eye)), 2 * eps)]
    worst = max(hs_norm((_dense_exp_i(a, float(s)) - embed(_dense_exp_i(ap, float(s)))) @ p) for s in s_samples)
    checks.append(("propagator_vs_compressed", worst, 2 * t_max * eps))
    remainder = float(np.linalg.svd(q @ (exp_a - 1j * a - eye), compute_uv=False).sum())
    checks.append(("taylor_remainder_tracenorm", remainder, 2.0 * a_hs * remainder_factor(a_op) * eps))
    for m in m_list:
        value = hs_norm((np.linalg.matrix_power(u0, m) - embed(np.linalg.matrix_power(u0p, m))) @ p)
        checks.append((f"base_power_error[{m}]", value, 2 * abs(m) * eps))
        value = hs_norm(p @ (np.linalg.matrix_power(u, m) - embed(np.linalg.matrix_power(up, m))) @ p)
        bound = 2 * abs(m) * eps * ((abs(m) - 1) * np.exp(a_op) + abs(m) + 1)
        checks.append((f"pert_power_error[{m}]", value, bound))
    exp_ap = embed(_dense_exp_i(ap))
    for m in m_list:
        for k in k_list:
            prod = p @ embed(np.linalg.matrix_power(up, m)) @ (exp_a - exp_ap) @ np.linalg.matrix_power(u0, k)
            checks.append((f"mixed_trace[m={m},k={k}]", abs(np.trace(prod)), 4.0 * eps * eps * np.exp(a_op)))
    return checks


def one_cell_basis(columns, instance: CheckedInstance, params: WindowParams) -> ProjectionBasis:
    """A hand-built basis B with one cell: every column, and every eigen-row of the instance's H0 = diag(lambda).

    Its cell block is all of B, so it fits any orthonormal B, window or not.
    """
    dim, rank = columns.shape
    return ProjectionBasis(
        params, instance, cell_rows=np.arange(dim)[None], cell_columns=np.arange(rank)[None],
        cell_blocks=np.array(columns, dtype=np.complex128)[None],
    )


def ambient_columns(p: ProjectionBasis) -> np.ndarray:
    """The columns B of a window basis: each occupied cell's block on its eigen-rows and its columns."""
    b = np.zeros((p.ambient_dim, p.rank), dtype=np.complex128)
    for rows, cols, block in zip(p.cell_rows, p.cell_columns, p.cell_blocks):
        rows, cols = rows[rows >= 0], cols[cols >= 0]
        b[np.ix_(rows, cols)] = block[: rows.size, : cols.size]
    return b


def full_space(dim: int, h0, a) -> ProjectionBasis:
    """The projection onto the whole ambient space, with the checked instance of H0 and A.

    ran P is everything, so its construction record has eps = 0, with the
    whole line as its window.
    """
    instance = _instance(h0, a)
    eye = np.eye(dim, dtype=np.complex128)
    return one_cell_basis(eye, instance, WindowParams(count=instance.tau.size, half_width=np.inf, cells=1, eps=0.0))


def seeded_instance(h0, f) -> CheckedInstance:
    """The checked instance of H0 and A = F F*, recording the unit columns F themselves as its seeds, each tau 1."""
    f = np.asarray(f, dtype=np.complex128)
    return replace(_instance(h0, f @ f.conj().T), f=f, tau=np.ones(f.shape[1]))


def abs_sum(p: TrigPolynomial) -> float:
    """sum |a_n|."""
    return float(sum(abs(a) for a in p.coeffs.values()))


def weighted_abs_sum(p: TrigPolynomial, power: int) -> float:
    """sum |n|^power |a_n|; power 2 is the series-class weight."""
    return float(sum(abs(n) ** power * abs(a) for n, a in p.coeffs.items()))


def remainder_trace_norm_bound(r: int, a_hs: float, a_op: float) -> float:
    """Trace-norm bound on U^r - U0^r - d/ds(U_s^r)|_0 in terms of A.

    Splitting each term of the telescoped difference into the quadratic
    exponential remainder plus a first-order mismatch gives

        [ |r|(|r|-1)/2 + |r| (e^{||A||} - ||A|| - 1)/||A||^2 ] * ||A||_2^2 .
    """
    n = abs(r)
    return (n * (n - 1) / 2.0 + n * _exp_remainder_factor(a_op)) * a_hs**2
