"""Dense complex linear algebra for unitary perturbation pairs.

The rest of the package works with two kinds of objects built here:

  * Hermitian eigendecompositions (``herm_eig``), used both directly and as
    the backend for unitary spectra,
  * spectral decompositions of one unitary matrix (``unitary_eig``) with
    eigenangles in (0, 2pi]; an eigenvalue 1 is parked at angle 2pi, so the
    cumulative spectral projection vanishes at t = 0.

Unitary spectra come from Rayleigh-Ritz on the Hermitian part
C = (U + U*)/2, which commutes with U (Parlett, The Symmetric Eigenvalue
Problem, ch. 11).  One private Ritz pass (``_ritz_pass``) is the only
eigen-solve; only its coupled runs, where eigh mixed eigenvectors of U, go
through the phase-rotated Cayley transform (``_cayley_eig``).
``unitary_eig`` rotates and sorts the eigenvectors of one matrix;
``_spectra``, behind the shift profile's integrator, keeps only the sorted
(angle, weight) pairs of a sequence of node stacks.

Every matrix operand passes one check, ``as_matrix``: complex128 (ragged or
non-numeric input is an ``UnishiftError``), square and of the expected size
if one is given (else ``DimensionMismatch``), with finite entries.
``require_hermitian`` and ``require_unitary`` run it and take the size too.

A C-ordered M and its adjoint M* are read in transposed orders, so one
strided pass over M + M* misses the cache at every entry once d is large.
The one row-blocked kernel, ``_hermitian_blocks``, reads a block of rows
against the conjugate of the matching columns instead, at every size.  It
gives the Hermitian part (``_hermitian_part``) that ``herm_eig`` decomposes
and the reduction's range finder starts from, and the norms of
``require_hermitian``'s certificate (``_hermitian_norms``), with no d x d
temporary.

Everything here is a pure function of its arguments; returned arrays are
freshly allocated and never aliased to the inputs, except that
``require_hermitian`` reads its operand in place and returns it as checked,
as ``as_matrix`` does for a caller that asks for ``copy=None``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch, EmptyMatrix, NoConvergence, NotHermitian, NotUnitary, PathMismatch, UnishiftError,
    _is_real, _is_whole,
)

TWO_PI = 2.0 * np.pi

# Angles within this distance of 0 (mod 2pi) are treated as eigenvalue 1.
_ONE_SNAP = 1e-12

# An off-diagonal entry of Q*UQ above this, for the Ritz vectors Q of (U + U*)/2, marks two mixed eigenvectors.
_COUPLING_TOL = 1e-13

# Cap, in entries, on one block of stacked temporaries: the integrator's
# (nodes, d, d) stacks and (modes, jumps) phase matrices in
# ``spectral_shift`` and the (rows, columns) cells of one block of the CLI's
# CSV writer.  Without it peak memory would grow with the number of nodes,
# modes or rows.
_BLOCK = 1 << 13


def _as_array(m, copy: bool | None) -> np.ndarray:
    """``np.array(m, complex128, copy=copy)``; ragged or non-numeric input raises ``UnishiftError``."""
    try:
        return np.array(m, dtype=np.complex128, copy=copy)
    except (TypeError, ValueError) as exc:
        raise UnishiftError(f"not a rectangular numeric array: {exc}") from exc


def as_matrix(m, what: str = "matrix", dim: int | None = None, copy: bool | None = True) -> np.ndarray:
    """The one operand check: M as a finite square complex128 matrix, dim x dim when ``dim`` is given.

    Ragged or non-numeric input and NaN or Inf entries raise ``UnishiftError``,
    any other shape ``DimensionMismatch``.  ``copy=None`` reads a complex128
    input in place.
    """
    a = _as_array(m, copy=copy)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or dim not in (None, a.shape[0]):
        wanted = "a square matrix" if dim is None else f"{dim} x {dim}"
        raise DimensionMismatch(f"{what} has shape {a.shape}, not {wanted}")
    with np.errstate(over="ignore", invalid="ignore"):  # huge finite entries can overflow the sum: check each then
        if not (np.isfinite(a.sum()) or np.isfinite(a).all()):
            raise UnishiftError("matrix has NaN or Inf entries")
    return a


def _adjoint(m) -> np.ndarray:
    """Conjugate transpose of a matrix or of each slice of a stack."""
    return np.swapaxes(m, -1, -2).conj()


def op_norm(m) -> float:
    """Operator norm (largest singular value)."""
    m = np.asarray(m)
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(m)))


def trace_norm(m) -> float:
    """Trace norm (sum of singular values)."""
    m = np.asarray(m)
    return float(np.linalg.svd(m, compute_uv=False).sum()) if m.size else 0.0


def trace(m) -> complex:
    return complex(np.trace(np.asarray(m)))


# Rows per block of the row-blocked passes (``_row_blocks``): a block of 32 rows
# and the matching 32 columns stay in cache (32 measured best from d = 256 to
# 2048 on a 2-core Xeon with one BLAS thread).
_ROWS = 32


def _row_blocks(d: int) -> list[slice]:
    """Consecutive slices of ``_ROWS`` rows covering range(d), the last one taking a lone last row.

    So no block of a matrix of several rows is a single row: numpy takes a
    one-row product to gemv, which rounds otherwise than the rows of one gemm.
    """
    edges = [*range(0, max(d - 1, 1), _ROWS), d]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _blocks_hs_norm(blocks) -> float:
    """sqrt(sum ||X||_HS^2) over an iterable of arrays X: the Hilbert-Schmidt norm of the matrix they tile."""
    return float(np.sqrt(sum(np.vdot(x, x).real for x in blocks)))


def _hermitian_blocks(m: np.ndarray):
    """Yield (rows, M[rows], (M*)[rows]) over the ``_row_blocks(d)`` of a square M.

    (M*)[rows] is the transposed view of the conjugate of the block of
    columns M[:, rows], copied in its own layout into one buffer that the
    next block overwrites, so no d x d adjoint is formed.
    """
    column = np.empty((m.shape[0], min(m.shape[0], _ROWS + 1)), dtype=np.complex128)
    for rows in _row_blocks(m.shape[0]):
        top = m[rows]
        yield rows, top, np.conjugate(m[:, rows], out=column[:, : top.shape[0]]).T


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*)/2 of a square M, a block of rows at a time, bit for bit ``0.5 * (M + M.conj().T)``.

    Only the sign of a zero may differ, where halving a subnormal entry
    underflows: numpy computes the complex product 0.5 S otherwise than S 0.5
    there, and swaps the two when it reuses a temporary S of 256 KiB or more.
    """
    out = np.empty(m.shape, dtype=np.complex128)
    for rows, top, adjoint in _hermitian_blocks(m):
        np.multiply(np.add(top, adjoint, out=out[rows]), 0.5, out=out[rows])
    return out


def _hermitian_norms(m: np.ndarray) -> tuple[float, float]:
    """(||M - M*||_HS, ||M||_HS) of a square M from one pass of row blocks, each difference in one reused buffer."""
    gap = norm = 0.0
    buffer = np.empty((min(m.shape[0], _ROWS + 1), m.shape[0]), dtype=np.complex128)
    for _, top, adjoint in _hermitian_blocks(m):
        diff = np.subtract(top, adjoint, out=buffer[: top.shape[0]])
        gap, norm = gap + np.vdot(diff, diff).real, norm + np.vdot(top, top).real
    return float(np.sqrt(gap)), float(np.sqrt(norm))


# A Hilbert-Schmidt certificate must clear its operator-norm test by this
# relative margin, so norm roundoff cannot turn a near tie into a pass.
_CERTIFICATE_MARGIN = 1.0 - 1e-9


def _require_small(gap: np.ndarray, tol: float, error: type[UnishiftError], what: str) -> None:
    """``error`` unless ||gap||_2 <= tol; ||gap||_2 <= ||gap||_HS, so a Hilbert-Schmidt norm proves a pass."""
    if hs_norm(gap) > _CERTIFICATE_MARGIN * tol:
        dev = op_norm(gap)
        if dev > tol:
            raise error(f"{what} by {dev:.3e} (tol {tol:.3e})")


def require_hermitian(m, what: str = "matrix", dim: int | None = None) -> np.ndarray:
    """``as_matrix(m, what, dim, copy=None)`` with ||M - M*||_2 <= tol = 1e-10 ||M||_2, else ``NotHermitian``.

    A complex128 operand is read in place and returned as is.
    ||X||_2 <= ||X||_HS and ||M||_HS / sqrt(d) <= ||M||_2, so Hilbert-Schmidt
    norms prove a pass without an SVD; only an undecided case takes them.
    The certificate's two norms come from one row-blocked pass
    (``_hermitian_norms``), with no d x d gap; an undecided case forms the gap.
    """
    m = as_matrix(m, what, dim, copy=None)
    gap, norm = _hermitian_norms(m)
    if gap > _CERTIFICATE_MARGIN * (1e-10 * norm / np.sqrt(max(m.shape[0], 1))):
        _require_small(m - m.conj().T, 1e-10 * op_norm(m), NotHermitian, f"{what} deviates from Hermitian")
    return m


def require_unitary(m, what: str = "matrix", dim: int | None = None) -> np.ndarray:
    """``as_matrix(m, what, dim)`` with ||M*M - I||_2 <= tol = d 1e-10, else ``NotUnitary``."""
    m = as_matrix(m, what, dim)
    gap = m.conj().T @ m - np.eye(m.shape[0])
    _require_small(gap, m.shape[0] * 1e-10, NotUnitary, f"{what} deviates from unitary")
    return m


@dataclass(frozen=True)
class HermitianDecomposition:
    """Eigenvalues (real, ascending) and orthonormal eigencolumns."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


def _from_spectrum(vectors: np.ndarray, values) -> np.ndarray:
    """V diag(values) V* for eigencolumns V and per-eigenvalue scalars; stacks too."""
    return (vectors * np.asarray(values)[..., None, :]) @ _adjoint(vectors)


def _off_diagonal(m: np.ndarray) -> np.ndarray:
    """The d(d - 1) off-diagonal entries of the square M as a (d - 1, d) array, a view of a C-contiguous M.

    Past the first entry, the flat M splits into d - 1 rows of d + 1 entries
    that each end on a diagonal entry.
    """
    d = m.shape[0]
    return m.reshape(-1)[1:].reshape(d - 1, d + 1)[:, :d]


def herm_eig(h, check: bool = True) -> HermitianDecomposition:
    """Eigendecomposition of a Hermitian matrix, ascending eigenvalues.

    Deterministic for a fixed input, which is only read.  Raises
    ``NotHermitian`` when the input deviates from its adjoint by more than
    1e-10 of its operator norm, and ``NoConvergence`` if the LAPACK iteration
    fails.  LAPACK decomposes the Hermitian part (``_hermitian_part``).
    """
    h = require_hermitian(h, what="eigensolver input") if check else as_matrix(h, copy=None)
    w, v = _eigh(_hermitian_part(h))
    return HermitianDecomposition(eigenvalues=w, vectors=v)


def _eigh(h: np.ndarray):
    """LAPACK eigh of an exactly Hermitian matrix or stack, failures typed."""
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware dependent
        raise NoConvergence(str(exc)) from exc


@dataclass(frozen=True)
class SpectralDecomposition:
    """Unitary spectrum as eigenangles in (0, 2pi] with orthonormal columns.

    The cumulative projection E(t) sums the eigenprojections with angle <= t,
    so E(0) = 0 and E(2pi) = I.  Eigenvalue 1 always carries the angle 2pi.
    """

    angles: np.ndarray
    vectors: np.ndarray


def _reflected_phases(u: np.ndarray) -> np.ndarray:
    """Phase phi in (-pi, pi] putting -e^{i phi} at least pi/(2d) from the spectrum.

    The eigenvalues cos(theta) of (U + U*)/2 give alpha = arccos(cos(theta))
    in [0, pi], and every eigenangle is +alpha or -alpha.  The gaps of the
    reflected set {+-alpha} are 2 alpha_min across 0, the differences of
    consecutive alpha (taken in the upper half), and 2 (pi - alpha_max)
    across pi; they sum to 2pi over at most 2d points, so the largest is at
    least pi/d.  The avoided point is its midpoint; on ties the first gap in
    that order wins.
    """
    try:
        c = np.linalg.eigvalsh(0.5 * (u + _adjoint(u)))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware dependent
        raise NoConvergence(str(exc)) from exc
    alpha = np.arccos(np.minimum(np.maximum(c[..., ::-1], -1.0), 1.0))
    # -alpha_min, the ascending alpha, 2pi - alpha_max: consecutive differences are the gaps
    ext = np.concatenate([-alpha[..., :1], alpha, TWO_PI - alpha[..., -1:]], axis=-1)
    gaps = ext[..., 1:] - ext[..., :-1]
    k = np.argmax(gaps, axis=-1)[..., None]
    mid = np.take_along_axis(ext[..., :-1] + 0.5 * gaps, k, -1)[..., 0]
    # mid is exactly 0 only for the gap across 0, whose avoided point 1 needs phi = pi
    return np.where(mid > 0.0, mid - np.pi, np.pi)


def _cayley_eig(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenangles in [0, 2pi) and eigencolumns of a unitary block or stack by the phase-rotated Cayley transform.

    Reduces to the Hermitian eigenproblem of
    i (I - e^{-i phi} U)(I + e^{-i phi} U)^{-1} and maps each eigenvalue h
    back to the angle of e^{i phi} (i - h)/(i + h).  With the phase of
    ``_reflected_phases``, -e^{i phi} is at least pi/(2d) from the spectrum,
    so the transform has norm at most cot(pi/(4d)).
    """
    phi = _reflected_phases(u)
    rotated = np.exp(-1j * phi)[..., None, None] * u
    eye = np.eye(u.shape[-1])
    h0 = 1j * np.linalg.solve(eye + rotated, eye - rotated)
    w, v = _eigh(0.5 * (h0 + _adjoint(h0)))
    # angle of e^{i phi} (i - h)/(i + h); the arctan form avoids complex division
    return np.mod(phi[..., None] + np.pi - 2.0 * np.arctan2(1.0, w), TWO_PI), v


def _coupled_runs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts (flat indices into the (n, d) angles) and lengths of the coupled runs of a stack X (n, d, d).

    Indices j < k with |X_jk| or |X_kj| above ``_COUPLING_TOL`` join every
    index from j to k into one run; overlapping runs merge.  Only runs of
    two or more indices are returned.
    """
    d = x.shape[-1]
    coupled = np.abs(x) > _COUPLING_TOL
    coupled |= np.swapaxes(coupled, -1, -2)
    # the last index each index is coupled to, then the running maximum; |X_kk| is near 1, so a row
    # is clear only far from unitary, and then it reaches to the end and the rest is solved as one run
    reach = np.maximum(d - 1 - np.argmax(coupled[..., ::-1], axis=-1), np.arange(d))
    ends = np.flatnonzero(np.maximum.accumulate(reach, axis=-1) == np.arange(d))
    starts = np.concatenate([[0], ends[:-1] + 1])
    lengths = ends - starts + 1
    return starts[lengths > 1], lengths[lengths > 1]


def _ritz_pass(u: np.ndarray):
    """Rayleigh-Ritz on a stack U (n, d, d) of unitaries: the one eigen-solve of ``unitary_eig`` and ``_spectra``.

    One eigh of C = (U + U*)/2, which commutes with U, gives Ritz vectors Q;
    with X = Q*UQ each Ritz angle is arg X_kk in [0, 2pi).  eigh can mix
    eigenvectors of U only where the eigenvalues cos(theta) of C (nearly)
    coincide: mirror pairs theta, -theta, or a cluster.  Such a mixing shows
    as an off-diagonal |X_jk| above ``_COUPLING_TOL``; the flagged indices
    form runs of consecutive indices (``_coupled_runs``), and each run's
    block of X is left for ``_cayley_eig``.  Every other Ritz pair has
    residual ||U q_k - X_kk q_k|| <= sqrt(d) ``_COUPLING_TOL``.

    Returns Q (n, d, d), the Ritz angles (n, d) and, per run length in
    ascending order, (k, rows, blocks): the slice k (m,) and the indices
    rows (m, size) of each run, and its block X[k][rows, rows] (m, size, size).
    eigh and the products are numpy gufuncs, so every slice gets the bits of
    a stack of one.
    """
    d = u.shape[-1]
    _, q = _eigh(0.5 * (u + _adjoint(u)))
    x = _adjoint(q) @ (u @ q)
    theta = np.mod(np.angle(np.diagonal(x, axis1=-2, axis2=-1)), TWO_PI)
    starts, lengths = _coupled_runs(x)
    runs = []
    for size in sorted(set(lengths.tolist())):
        first = starts[lengths == size]
        k, rows = first // d, first[:, None] % d + np.arange(size)
        runs.append((k, rows, x[k[:, None, None], rows[:, :, None], rows[:, None, :]]))
    return q, theta, runs


def _sorted_angles(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles in [0, 2pi) snapped to (0, 2pi], eigenvalue 1 at 2pi, each row sorted, and the stable sorting order."""
    theta = np.where((theta <= _ONE_SNAP) | (theta >= TWO_PI - _ONE_SNAP), TWO_PI, theta)
    order = np.argsort(theta, axis=-1, kind="stable")
    return np.take_along_axis(theta, order, -1), order


def unitary_eig(u, check: bool = True) -> SpectralDecomposition:
    """Spectral decomposition of one unitary matrix by Rayleigh-Ritz on its Hermitian part.

    One Ritz pass (``_ritz_pass``) gives Ritz vectors Q and angles; each
    coupled run's block of X = Q*UQ is solved by ``_cayley_eig``, one stacked
    call per run length, and rotates its columns of Q.  The input passes
    ``require_unitary`` with ``check``, else ``as_matrix``, so any shape but
    d x d, a stack too, is a ``DimensionMismatch``; 0 x 0 is an ``EmptyMatrix``.
    """
    u = require_unitary(u, "unitary_eig input") if check else as_matrix(u, "unitary_eig input", copy=None)
    if u.shape[0] == 0:
        raise EmptyMatrix("unitary_eig input is 0x0 and has no spectrum")
    q, theta, runs = _ritz_pass(u[None])
    for k, rows, blocks in runs:
        block_angles, w = _cayley_eig(blocks)
        theta[k[:, None], rows] = block_angles
        q[k[:, None], :, rows] = np.swapaxes(np.swapaxes(q[k[:, None], :, rows], 1, 2) @ w, 1, 2)
    angles, order = _sorted_angles(theta[0])
    return SpectralDecomposition(angles=angles, vectors=np.take_along_axis(q[0], order[None], -1))


def _ritz_summary(u: np.ndarray, lam: np.ndarray, offset: int):
    """One Ritz pass of a stack U (n, d, d), reduced to what ``_spectra`` keeps; slice 0 is its row ``offset``.

    Returns the Ritz angles, the weights lam @ |Q|^2 of the Ritz vectors Q
    and, per run length, (at, blocks, G): the flat indices (m, size) of each
    run's entries in the results, its block of X (``_ritz_pass``) and
    G = Q_r* diag(lam) Q_r (m, size, size) for its Ritz vectors Q_r.  Q is
    freed on return.
    """
    q, theta, runs = _ritz_pass(u)
    kept = []
    for k, rows, blocks in runs:
        columns = q[k[:, None], :, rows]  # (m, size, d): row i is Ritz vector rows[i] of slice k
        at = (offset + k[:, None]) * u.shape[-1] + rows
        kept.append((at, blocks, columns.conj() @ np.swapaxes(lam * columns, 1, 2)))
    return theta, lam @ np.abs(q) ** 2, kept


def _spectra(stacks, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenangles and eigenvector weights sum_j lam_j |v_j|^2 of each slice of a sequence of stacks (n_i, d, d).

    Row i of each (sum n_i, d) result is one slice, sorted by angle: the
    angles of ``unitary_eig`` bit for bit, with no eigenvector kept.  Each
    stack takes one Ritz pass (``_ritz_summary``) and keeps only its Ritz
    angles and weights and its coupled runs' small blocks of X and G, so it
    is freed before the next stack is read.  After the last stack every run
    of one length, from all of them, is solved by one ``_cayley_eig`` call;
    a run's rotation W gives its angles and, as Q_r W are its eigenvectors,
    its weights diag(W* G W).
    """
    angles, weights, runs, offset = [], [], {}, 0
    for u in stacks:
        theta, w, kept = _ritz_summary(u, lam, offset)
        offset += len(u)
        angles.append(theta)
        weights.append(w)
        for run in kept:
            runs.setdefault(run[0].shape[1], []).append(run)
    theta, weights = np.concatenate(angles), np.concatenate(weights)
    for size in sorted(runs):
        at, blocks, gram = (np.concatenate(part) for part in zip(*runs[size]))
        block_angles, w = _cayley_eig(blocks)
        theta.flat[at] = block_angles
        weights.flat[at] = np.sum(w.conj() * (gram @ w), axis=-2).real
    theta, order = _sorted_angles(theta)
    return theta, np.take_along_axis(weights, order, -1)


class UnitaryPath:
    """The path s -> e^{isA} U0: the one validated pair context.

    With ``check`` the base must be unitary and the direction Hermitian; the
    two must share their size either way.  A's eigensystem A = V L V* and
    V* U0 are computed once; every point of the path, the endpoint check
    and ``random_pair`` use the one product U_s = (V e^{isL})(V* U0).
    """

    def __init__(self, u0, a, check: bool = True):
        self.u0 = (require_unitary if check else as_matrix)(u0, "path base")
        n = self.u0.shape[0]
        self.a = as_matrix(require_hermitian(a, "path direction", n) if check else a, "path direction", n)
        self.direction_spectrum = herm_eig(self.a, check=False)
        self.vstar_u0 = _adjoint(self.direction_spectrum.vectors) @ self.u0

    def at(self, s: float) -> np.ndarray:
        spectrum = self.direction_spectrum
        return (spectrum.vectors * np.exp(1j * s * spectrum.eigenvalues)) @ self.vstar_u0

    def require_endpoint(self, u) -> np.ndarray:
        """U checked as the endpoint: unitary, of the base's size, within dim * 1e-10 of e^{iA} U0."""
        u = require_unitary(u, "path endpoint", self.u0.shape[0])
        _require_small(u - self.at(1.0), u.shape[0] * 1e-10, PathMismatch, "U deviates from e^(iA) U0")
        return u


@dataclass(frozen=True)
class UnitaryPair:
    """A seeded test instance: U0 Haar unitary, A Hermitian, U = e^{iA} U0."""

    u0: np.ndarray
    a: np.ndarray
    u: np.ndarray
    seed: int
    dim: int
    scale: float


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, R-diagonal phases fixed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(rng: np.random.Generator, dim: int, op_scale: float) -> np.ndarray:
    """GUE-like Hermitian matrix rescaled to a prescribed operator norm."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / 2.0
    h = g + g.conj().T
    top = op_norm(h)
    if top == 0.0:  # only a 0x0 draw; nonzero sizes have probability zero
        raise UnishiftError(f"a {dim}x{dim} random Hermitian draw has zero norm")
    return h * (op_scale / top)


def _require_draw(seed, scale) -> None:
    """A seeded instance's seed is a whole number >= 0 and its scale, the norm of A, a real number in (0, pi)."""
    if not _is_whole(seed, 0):
        raise UnishiftError(f"seed must be a whole number, at least 0, not {seed!r}")
    if not (_is_real(scale) and 0.0 < scale < np.pi):
        raise UnishiftError(f"scale must lie in (0, pi), not {scale!r}")


_MAX_DIM = 1024  # a draw and the integrator's stacks grow as dim^2


def random_pair(seed: int, dim: int, scale: float) -> UnitaryPair:
    """Deterministic random pair (U0, A, U = e^{iA} U0) with ||A||_op = scale.

    ``scale`` must stay in (0, pi) so the principal logarithm of U U0* is A,
    and ``dim`` in [1, ``_MAX_DIM``], checked before anything is allocated.
    """
    _require_draw(seed, scale)
    if not _is_whole(dim, 1):
        raise UnishiftError(f"dim must be a whole number, at least 1, not {dim!r}")
    if dim > _MAX_DIM:
        raise UnishiftError(f"dim must be at most {_MAX_DIM}, not {dim}")
    rng = np.random.default_rng(seed)
    u0 = haar_unitary(rng, dim)
    a = random_hermitian(rng, dim, scale)
    u = UnitaryPath(u0, a, check=False).at(1.0)
    return UnitaryPair(u0=u0, a=a, u=u, seed=seed, dim=dim, scale=scale)
