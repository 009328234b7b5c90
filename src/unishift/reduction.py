"""Finite-rank reduction of a unitary pair via spectral-window projections.

A large "ambient" space stands in for infinite dimension.  Starting from the
self-adjoint Cayley preimage H0 of the base unitary and a low-rank direction
A, the construction slices the window (-a, a] into n equal spectral cells,
projects each seed vector into every cell, and spans the normalised pieces.
The off-block couplings of the resulting projection P obey quantitative
bounds with the constructive size

    eps = L * a / sqrt(n),

and compressing (H0, A) by P yields a model pair whose second-order trace
approaches the ambient one as the partition refines.  The audit functions
evaluate every bounded quantity and compare against its bound, with a small
numerical slack; ``convergence_study`` tabulates the compressed-versus-full
trace error over a ladder of partition resolutions.

One instance (``_instance``) checks H0 and A (``require_hermitian``), takes
the eigh of H0 and the kept pairs of A for a projection, every partition of
a ``bounds`` run or a convergence ladder, whose U0 = V diag(c) V* comes from
that eigh; nothing is kept between calls.  The seeds, A's kept eigenvectors,
are orthonormal, and a window basis carries the checked H0 that built it.
Each audit, and ``compressed_model``, builds one checked frame (``_frame``)
at delta = AUDIT_SLACK / (2 max(1, max |m|)) over the call's powers m: H0
against the basis's H0 in O(d^2), A by ``require_hermitian``, U0 against
the eigenpairs and U against e^{iA} U0.  Phases, half-widths, the horizon
T >= 0 and samples in [-T, T] are finite real numbers (``_is_real``);
powers, samples and cell counts are iterables.

The direction is low rank, so no d x d exponential and no d x d
eigendecomposition of it is ever formed.  An orthonormal basis Q of the
range of A, grown by blocks of its largest residual columns, and the eigh
of the k x k matrix Q*AQ give, in O(d^2 k) for rank k, the eigenpairs
(F, tau) of A with |tau| > 1e-12 max(||A||, 1) (||A|| is read from the same
eigenvalues), and

    e^{isA} = I + F diag(e^{is tau} - 1) F*,

and likewise for the compressed direction Ap = B* A B of rank at most L,
whose kept eigenpairs the compressed model carries; one helper forms each
endpoint e^{iA} U0 = U0 + F diag(e^{i tau} - 1) F* U0.  The propagator
samples, the exponential off-block norms, the Taylor-remainder trace norm
and the mixed-trace factors all work on d x L factors; a norm
||X diag(D) Y||_HS with X = QR is ||R diag(D) Y||_HS, and each mixed trace
is the trace of a product of L x r and r x r factors, not of r x r ones.

Every other ambient step works in the eigen-coordinates of H0 and uses the
cells of the window basis.  A window basis carries the eigenpairs
H0 = V diag(lambda) V* it was built from and, for each occupied cell, its
eigen-rows and its block Bhat_k of Bhat = V* B, so B = V Bhat (r = rank P
columns, at most L per cell).  The frame reads U0 = V diag(c) V* from one
d x d product.  Then:

  * H0 B, both resolvents (i +- H0)^{-1} B and every U0^m B are diagonal
    scalings D Bhat, whose part outside ran P splits by cell:
    ||P_perp X P||_HS^2 = sum_k ||D_k Bhat_k - Bhat_k (Bhat_k* D_k Bhat_k)||^2,
    one batched product over the padded (K, n, L) cell stack, O(d L^2) in
    all, with no d x d solve;
  * U acts as (I + Fh diag(e^{i tau} - 1) Fh*) diag(c) with Fh = V* F, so
    V* U^m B is streamed from Bhat at O(d r k) a step, and a dense
    coordinate block Y is projected onto ran Bhat through the cell blocks
    in O(d L r);
  * B* H0 B = Bhat* diag(lambda) Bhat is block diagonal, so U0p is the
    Cayley image of each cell's L x L block, and Up = (I + Fc (e^{i tau_c}
    - 1) Fc*) U0p is streamed from the r x r identity at O(r^2 L) a step.

The streamed coordinates carry one extra zero row, which the -1 padding of
the cell rows and columns reads.

The basis itself comes from one SVD per cell.  The pieces of the seeds in
different cells lie on disjoint sets of eigenvectors of H0, so they are
orthogonal; in each cell's eigen-coordinates the pieces of norm above
``GS_DROP_TOL``, normalised, give their left singular vectors of singular
value above that tolerance, which the cell's eigencolumns map back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadWindow,
    DimensionMismatch,
    MissingConstruction,
    NotUnitary,
    PartitionTooFine,
    PathMismatch,
    SampleOutOfRange,
    UnishiftError,
    ZeroDirection,
    _is_real,
    _is_whole,
)
from .linalg import (
    HermitianDecomposition,
    _adjoint,
    _eigh,
    _from_spectrum,
    _require_draw,
    as_matrix,
    herm_eig,
    hs_norm,
    require_hermitian,
    trace_norm,
)
from .trace_formula import _exp_remainder_factor, _lhs
from .trigpoly import TrigPolynomial, _require_polynomial

GS_DROP_TOL = 1e-12
AUDIT_SLACK = 1e-10


def _cayley(h0: np.ndarray, phase: float) -> np.ndarray:
    """Unitary e^{i phase} (i - H0)(i + H0)^{-1} of a checked H0, or of each of a stack, at a finite real phase."""
    if not _is_real(phase):
        raise UnishiftError(f"phase must be a finite real number, not {phase!r}")
    eye = 1j * np.eye(h0.shape[-1])
    return np.exp(1j * phase) * np.linalg.solve(eye + h0, eye - h0)


def _cayley_values(lam: np.ndarray, phase: float) -> np.ndarray:
    """e^{i phase} (i - lam) / (i + lam) for each real lam: U0 = V diag(c) V* is the Cayley image of V diag(lam) V*."""
    return _cayley(lam[:, None, None], phase)[:, 0, 0]


@dataclass(frozen=True)
class WindowParams:
    """Construction record: seed count L, half-width a, cell count n, eps = L a / sqrt(n)."""

    count: int
    half_width: float
    cells: int
    eps: float


@dataclass(frozen=True)
class ProjectionBasis:
    """Orthonormal columns B spanning ran P, with the inputs that built it.

    The basis carries the checked ``h0`` (V diag(lambda) V* for a hand-built
    basis without it), its eigenpairs H0 = V diag(lambda) V* (``eigenvalues``,
    ``eigenvectors``) and the coordinates Bhat = V* B by cell: row k of
    ``cell_rows`` holds the eigen-rows of occupied cell k and row k of
    ``cell_columns`` the columns of B it spans, each padded with -1, and
    ``cell_blocks[k]`` is the block of Bhat on those rows and columns,
    padded with zeros.  Like the columns, these are trusted as built.
    """

    ambient_dim: int
    columns: np.ndarray
    directions: np.ndarray
    params: WindowParams
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    cell_rows: np.ndarray
    cell_columns: np.ndarray
    cell_blocks: np.ndarray
    h0: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return self.columns.shape[1]


def _offblock(b: np.ndarray, y: np.ndarray) -> float:
    """||Y - B(B*Y)||_2: the part of Y outside ran B (for Y = X B, ||P_perp X P||_2)."""
    return hs_norm(y - b @ (b.conj().T @ y))


def _window_basis(dec: HermitianDecomposition, f: np.ndarray, half_width: float, cells: int, h0=None):
    """Span of the spectral-cell pieces of the orthonormal seed columns F, from the eigendecomposition of H0.

    The window (-a, a] splits into ``cells`` half-open intervals; each seed
    f_l contributes the normalised projection of f_l onto every cell it
    meets.  A seed leaking past the window by more than eps = L a / sqrt(n)
    is an error, since every off-block estimate downstream assumes capture.
    """
    dim, count = f.shape
    if count == 0:
        raise ZeroDirection("no seed vectors to project (a zero direction gives none)")
    if not (_is_whole(cells, 1) and cells < 2**63 and _is_real(half_width) and half_width > 0.0):
        raise BadWindow("need a finite positive window and a whole number of cells within int64, at least one")
    eps = count * half_width / np.sqrt(cells)
    coords = dec.vectors.conj().T @ f  # eigenbasis coordinates of the seeds
    inside = (dec.eigenvalues > -half_width) & (dec.eigenvalues <= half_width)
    leak = np.linalg.norm(np.where(inside[:, None], 0.0, coords), axis=0)
    if np.any(leak >= eps):
        raise BadWindow(f"a seed vector leaks {float(np.max(leak)):.3e} outside the window (eps {eps:.3e})")
    # The eigenvalues ascend, so each occupied cell's rows are one run of the window's rows.
    window = np.flatnonzero(inside)
    runs = np.split(window, np.flatnonzero(np.diff(_cells_of(dec.eigenvalues[window], half_width, cells))) + 1)
    # Pieces from different cells lie on disjoint sets of eigenvectors, so they
    # are orthogonal: one SVD per occupied cell on the eigen-coordinates of its
    # kept normalised pieces, and the cell's eigencolumns map the result back.
    rows_of, blocks = [], []
    for rows in runs if window.size else []:
        pieces = coords[rows, :]
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
    columns = [dec.vectors[:, rows] @ block for rows, block in zip(rows_of, blocks)]
    return ProjectionBasis(
        ambient_dim=dim,
        columns=np.concatenate([np.zeros((dim, 0), dtype=np.complex128), *columns], axis=1),
        directions=f,
        params=WindowParams(count=count, half_width=half_width, cells=cells, eps=float(eps)),
        eigenvalues=dec.eigenvalues,
        eigenvectors=dec.vectors,
        cell_rows=cell_rows,
        cell_columns=cell_columns,
        cell_blocks=cell_blocks,
        h0=h0,
    )


def _cells_of(values: np.ndarray, half_width: float, cells: int) -> np.ndarray:
    """The cell k of each value in (-a, a], edge k < value <= edge k + 1; values outside land in the end cells.

    The edges of np.linspace(-a, a, cells + 1), k (2a / cells) + (-a) and last a, are bisected, never built.
    """
    step = 2.0 * half_width / cells
    lo, hi = np.zeros(values.shape, np.int64), np.full(values.shape, cells, np.int64)
    while np.any(hi - lo > 1):  # edge lo < value <= edge hi; edge hi is a or has the formula
        mid = lo + (hi - lo) // 2
        below = mid * step + -half_width < values
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return lo


def _kept_pairs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenpairs (F, tau) of a Hermitian H with |tau| > 1e-12 max(||H||, 1), and ||H|| = max |eigenvalue|.

    Up to the dropped eigenvalues, e^{isH} = I + F diag(e^{is tau} - 1) F*.
    The pairs come from an orthonormal basis Q of the range of H and the
    eigh of the k x k matrix Q*HQ, in O(d^2 k) for rank k.  Q grows by
    blocks, doubling in size, of the largest columns of the residual
    H - Q(Q*H), each orthonormalised by SVD against Q, until every residual
    column is at most delta = 1e-13 max(max column norm, 1) / sqrt(d); the
    dropped part is then at most 2 sqrt(d) delta in the 2-norm.
    """
    rest = 0.5 * (h + h.conj().T)  # H - Q(Q*H) for the Hermitian part of H, with Q empty so far
    dim, norms = h.shape[0], np.linalg.norm(rest, axis=0)
    delta = 1e-13 * max(float(np.max(norms, initial=0.0)), 1.0) / np.sqrt(max(dim, 1))
    q, size = np.zeros((dim, 0), dtype=np.complex128), 1
    while q.shape[1] < dim and (big := np.flatnonzero(norms > delta)).size:
        pick = big[np.argsort(-norms[big], kind="stable")[:size]]
        left, values, _ = np.linalg.svd(rest[:, pick], full_matrices=False)
        new = left[:, values > delta]  # not empty: the first picked column exceeds delta
        # A direction of small singular value keeps roundoff along Q divided by it: project and re-orthonormalise.
        new = np.linalg.qr(new - q @ (q.conj().T @ new))[0]
        rest -= new @ (new.conj().T @ rest)
        q, size = np.concatenate([q, new], axis=1), 2 * size
        norms = np.linalg.norm(rest, axis=0)
    small = q.conj().T @ (h @ q)  # hermitised, Q*HQ of the Hermitian part
    tau, vectors = _eigh(0.5 * (small + small.conj().T))
    top = float(np.max(np.abs(tau), initial=0.0))
    keep = np.abs(tau) > 1e-12 * max(top, 1.0)
    return q @ vectors[:, keep], tau[keep], top


def _exp_step(f: np.ndarray, tau: np.ndarray, s: float = 1.0) -> np.ndarray:
    """F diag(e^{is tau} - 1), so that e^{isH} X = X + _exp_step(F, tau, s) @ (F* X)."""
    return f * np.expm1(1j * s * tau)


def _low_rank_endpoint(f: np.ndarray, tau: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """e^{iH} U0 = U0 + F diag(e^{i tau} - 1) F* U0 from H's kept pairs (F, tau)."""
    return u0 + _exp_step(f, tau) @ (f.conj().T @ u0)


def _instance(h0, a):
    """The checked H0, its ``HermitianDecomposition``, the checked A of its size and A's kept pairs (F, tau)."""
    h0 = require_hermitian(h0, "h0")
    a = require_hermitian(a, "a", h0.shape[0])
    return h0, herm_eig(h0, check=False), a, *_kept_pairs(a)[:2]


def build_direction_projection(h0, a, half_width: float, cells: int) -> ProjectionBasis:
    """Window projection seeded by the eigenvectors of the low-rank direction A."""
    h0, dec, _, f, _ = _instance(h0, a)
    return _window_basis(dec, f, half_width, cells, h0)


@dataclass(frozen=True)
class BoundCheck:
    name: str
    value: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class AuditReport:
    label: str
    eps: float
    checks: tuple[BoundCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def violations(self) -> list[BoundCheck]:
        return [c for c in self.checks if not c.ok]


def _listed(values, what: str) -> list:
    """An iterable ``values`` read once into a list; anything else is ``UnishiftError``."""
    try:
        return list(values)
    except TypeError:
        raise UnishiftError(f"{what} must be an iterable, not {type(values).__name__}") from None


def _powers(values) -> list[int]:
    """Audited powers: an iterable of whole numbers (``_is_whole``) as ints, else ``UnishiftError``."""
    if not all(map(_is_whole, values := _listed(values, "audited powers"))):
        raise UnishiftError(f"audited powers must be whole numbers, not {values!r}")
    return [int(m) for m in values]


def _frame(p: ProjectionBasis, powers: list[int], t_max: float = 0.0, *, h0=None, a=None, u0=None, u=None):
    """The one checked frame of an audit, or with no ``powers`` of ``compressed_model``.

    The projection must be a window basis with its construction record,
    eigenpairs H0 = V diag(lambda) V* and cell layout (``MissingConstruction``),
    of its ambient size d (``DimensionMismatch``), and T a finite real
    number >= 0 (``UnishiftError``).  Each operand given is checked once,
    where used, at size d (``as_matrix``) and in the Hilbert-Schmidt norm at
    delta = AUDIT_SLACK / (2 max(1, max |m|)) over the call's powers m:
    ||H0 - p.h0|| (``PathMismatch``, ``NotHermitian`` for a non-Hermitian H0),
    A by ``require_hermitian``, and with c = diag(V* U0 V), ||U0 V - V diag(c)||
    and ||U - e^{iA} U0|| (``PathMismatch``) and abs(|c_j| - 1) (``NotUnitary``).
    So no operand moves a power U0^m or U^m by more than |m| delta (1 + 2 delta)^|m|
    < AUDIT_SLACK, nor the Cayley image of H0 by more than 2 delta.  A power
    whose delta falls below d times the machine epsilon, the roundoff of one
    such gap at ambient size d, is refused (``UnishiftError``) first.

    Returns eps, the cells (rows, columns, blocks), c (None without U0), the
    checked A (None without it), and with U A's kept pairs (F, tau), ||A||,
    Fh = V* F, P_perp F = F - B(B* F) and F* B (else None).
    """
    if not isinstance(p, ProjectionBasis) or any(x is None for k, x in vars(p).items() if k != "h0"):
        raise MissingConstruction("the projection must be a window basis with its record, eigenpairs and cells")
    if not (_is_real(t_max) and t_max >= 0.0):
        raise UnishiftError(f"the audit horizon T must be a finite real number >= 0, not {t_max!r}")
    d, v, lam = p.ambient_dim, p.eigenvectors, p.eigenvalues
    if np.shape(lam) != (d,) or np.shape(v) != (d, d):
        raise DimensionMismatch(f"the eigenpairs of H0 must be of the ambient size {d}")
    cells = (p.cell_rows, p.cell_columns, p.cell_blocks)
    delta = AUDIT_SLACK / (2.0 * max([1, *map(abs, powers)]))
    if delta < (floor := d * np.finfo(float).eps):
        raise UnishiftError(
            f"power {max(powers, key=abs)} needs its operands checked to {delta:.3e}, below the roundoff"
            f" {floor:.3e} of a Hilbert-Schmidt gap at ambient size {d}"
        )

    def require(gap, what):
        if hs_norm(gap) > delta:
            raise PathMismatch(f"{what} (tol {delta:.3e})")

    if h0 is not None:
        h0 = as_matrix(h0, "h0", d, copy=None)
        if hs_norm(gap := h0 - (_from_spectrum(v, lam) if p.h0 is None else p.h0)) > delta:
            require_hermitian(h0, "h0", d)
            require(gap, "H0 is not the operator that built the projection")
    if a is not None:
        a = require_hermitian(a, "a", d)
    c = direction = None
    if u0 is not None:
        u0 = as_matrix(u0, "u0", d, copy=None)
        gap = u0 @ v
        c = np.einsum("ij,ij->j", v.conj(), gap)
        gap -= v * c
        require(gap, "U0 is not diagonal in the eigenbasis of H0")
        if np.max(np.abs(np.abs(c) - 1.0), initial=0.0) > delta:
            raise NotUnitary(f"U0 has an eigenvalue off the unit circle (tol {delta:.3e})")
    if u is not None:
        f, tau, a_op = _kept_pairs(a)
        require(as_matrix(u, "u", d, copy=None) - _low_rank_endpoint(f, tau, u0), "U is not e^(iA) U0")
        b = p.columns
        direction = f, tau, a_op, v.conj().T @ f, f - b @ (b.conj().T @ f), f.conj().T @ b
    return p.params.eps, cells, c, a, direction


def _power(c: np.ndarray, m: int) -> np.ndarray:
    """c^m elementwise, conj(c)^|m| for m < 0: the eigenvalues of U^m for a unitary U = V diag(c) V*."""
    return (c if m >= 0 else c.conj()) ** abs(m)


def _offblock_norms(cells, scales: np.ndarray):
    """||P_perp X P||_HS for each X = V diag(D) V*, D in ``scales`` (s, d), summed over the cells in O(d L^2).

    Also returns the cell blocks of diag(D) Bhat and of Bhat* diag(D) Bhat,
    (s, K, n, L) and (s, K, L, L).  Padded rows read the last entry of D and
    meet zero rows of the blocks.
    """
    rows, _, blocks = cells
    y = scales[:, rows, None] * blocks
    grams = _adjoint(blocks) @ y
    return _norms(y - blocks @ grams), y, grams


def _norms(x: np.ndarray) -> np.ndarray:
    """The Hilbert-Schmidt norm of each x[j] of a stack."""
    return np.linalg.norm(x.reshape(x.shape[0], int(np.prod(x.shape[1:]))), axis=1)


def _factor_norms(x: np.ndarray, scales: np.ndarray, y: np.ndarray) -> np.ndarray:
    """||X diag(D) Y||_HS for each row D of ``scales``: with X = QR, the orthonormal Q drops out of R diag(D) Y."""
    return _norms((np.linalg.qr(x, mode="r")[None] * scales[:, None, :]) @ y)


def _dense_offblock(cells, y: np.ndarray) -> float:
    """||Y - Bhat(Bhat* Y)||_HS for dense coordinates Y, cell by cell in O(d L c).

    Y carries a zero row d, which the padding (-1) of the cell rows reads;
    rows in no cell keep all of Y.
    """
    rows, _, blocks = cells
    inside = y[rows]
    rest = inside - blocks @ (_adjoint(blocks) @ inside)
    outside = np.ones(len(y), dtype=bool)
    outside[rows] = False
    return float(np.sqrt(hs_norm(rest) ** 2 + hs_norm(y[outside]) ** 2))


def _to_columns(cells, x: np.ndarray) -> np.ndarray:
    """The (r, ...) array, in B's column order, of a (K, L, ...) array indexed by cell and slot."""
    used = cells[1] >= 0
    out = np.empty((int(used.sum()), *x.shape[2:]), dtype=x.dtype)
    out[cells[1][used]] = x[used]
    return out


def _scatter(row_index: np.ndarray, col_index: np.ndarray, blocks: np.ndarray, shape) -> np.ndarray:
    """A zero matrix of ``shape`` with blocks[k] on rows row_index[k] and columns col_index[k], padding (-1) skipped."""
    out = np.zeros(shape, dtype=np.complex128)
    i = np.broadcast_to(row_index[:, :, None], blocks.shape)
    j = np.broadcast_to(col_index[:, None, :], blocks.shape)
    used = (i >= 0) & (j >= 0)
    out[i[used], j[used]] = blocks[used]
    return out


def _unitary_powers(scale, unscale, f: np.ndarray, e: np.ndarray, y: np.ndarray, ms):
    """Yield (m, X^m Y) for each wanted m, X = (I + F diag(e) F*) S with orthonormal F, one step per power.

    ``scale`` applies S and ``unscale`` S*; X^{-1} = X* = S* (I + F diag(conj e) F*) for a unitary X.
    """
    wanted = set(ms)
    if 0 in wanted:
        yield 0, y
    fh = f.conj().T
    for sign in (1, -1):
        x = y
        for k in range(1, max([0, *(sign * m for m in wanted)]) + 1):
            if sign > 0:
                x = scale(x)
                x = x + f @ (e[:, None] * (fh @ x))
            else:
                x = unscale(x + f @ (e.conj()[:, None] * (fh @ x)))
            if sign * k in wanted:
                yield sign * k, x


def _ambient_powers(p: ProjectionBasis, cells, c: np.ndarray, fh: np.ndarray, tau: np.ndarray, ms):
    """Yield (m, V* U^m B) for U = e^{iA} U0 = V (I + Fh diag(e^{i tau} - 1) Fh*) diag(c) V*, Fh = V* F.

    Starts from the coordinates Bhat of B; each step costs O(d r k).  The
    coordinates carry a zero row d (with c and Fh zero there), which the
    padding (-1) of the cell rows reads.
    """
    start = _scatter(cells[0], cells[1], cells[2], (p.ambient_dim + 1, p.rank))
    c, fh = np.append(c, 0.0)[:, None], np.concatenate([fh, np.zeros((1, fh.shape[1]))])
    yield from _unitary_powers(lambda x: c * x, lambda x: c.conj() * x, fh, np.expm1(1j * tau), start, ms)


def _by_cell(cells, w: np.ndarray):
    """Z -> diag(W_k) Z on rank coordinates Z whose zero row r the padding (-1) of the cell columns reads and writes."""
    cols = cells[1]

    def apply(z):
        out = np.zeros_like(z)
        out[cols] = w @ z[cols]
        out[-1] = 0.0
        return out

    return apply


def _check(name: str, value: float, bound: float) -> BoundCheck:
    return BoundCheck(name=name, value=float(value), bound=float(bound), ok=bool(value <= bound + AUDIT_SLACK))


def audit_projection_estimates(p: ProjectionBasis, h0, u0, m_list) -> AuditReport:
    """Off-block estimates of the window projection against eps = L a / sqrt(n).

    Checks, in order: seed capture ||P_perp f_l||, the window operator
    ||P_perp H0 P||_2, both resolvents ||P_perp (i +- H0)^{-1} P||_2, and the
    unitary powers ||P_perp U0^m P||_2 <= 2|m| eps.  H0 is checked against
    the basis's H0 and U0 against its eigenpairs, as in ``_frame``.
    """
    m_list = _powers(m_list)
    eps, cells, c, _, _ = _frame(p, m_list, h0=h0, u0=u0)
    checks = []
    for l in range(p.directions.shape[1]):
        checks.append(_check(f"seed_capture[{l}]", _offblock(p.columns, p.directions[:, l]), eps))
    lam = p.eigenvalues
    scales = [lam, 1.0 / (1j + lam), 1.0 / (1j - lam), *(_power(c, m) for m in m_list)]
    norms = _offblock_norms(cells, np.array(scales))[0]
    for name, value in zip(("window_offblock", "resolvent_plus", "resolvent_minus"), norms):
        checks.append(_check(name, value, eps))
    for m, value in zip(m_list, norms[3:]):
        checks.append(_check(f"base_power[{m}]", value, 2 * abs(m) * eps))
    return AuditReport(label="window-projection", eps=eps, checks=tuple(checks))


def audit_perturbation_estimates(p: ProjectionBasis, u0, u, a, t_max: float, m_list, t_samples) -> AuditReport:
    """Off-block estimates involving the perturbation direction.

    Checks ||P_perp A||_2 < 2 eps, the propagator ||P_perp e^{itA} P||_2
    < 2 T e^{T ||A||} eps over the sample grid, the base powers, and the
    perturbed powers ||P_perp U^m P||_2 < 2|m| (e^{||A||} + 1) eps, those of
    e^{iA} U0.  U0 and U are checked as in ``_frame``.
    """
    m_list = _powers(m_list)
    eps, cells, c, _, (_, tau, a_op, fh, f_perp, fb) = _frame(p, m_list, t_max, u0=u0, u=u, a=a)
    # F* is a co-isometry, so it drops out of ||P_perp A||_HS = ||P_perp F tau F*||_HS
    checks = [_check("direction_offblock", hs_norm(f_perp * tau), 2 * eps)]
    ts = _listed(t_samples, "propagator samples")
    if not all(_is_real(t) and abs(t) <= t_max + 1e-12 for t in ts):
        raise SampleOutOfRange("propagator samples must be finite real numbers within [-T, T]")
    # P_perp e^{itA} P = P_perp F (e^{it tau} - 1) F*B, a d x L factor times an L x r one
    ts = np.array([float(t) for t in ts])
    propagators = _factor_norms(f_perp, np.expm1(1j * np.multiply.outer(ts, tau)), fb)
    propagator_bound = 2.0 * t_max * np.exp(t_max * a_op) * eps
    for t, value in zip(ts, propagators):
        checks.append(_check(f"propagator[t={t:+.3f}]", value, propagator_bound))
    base = _offblock_norms(cells, np.array([_power(c, m) for m in m_list]).reshape(-1, p.ambient_dim))[0]
    pert = {m: _dense_offblock(cells, y) for m, y in _ambient_powers(p, cells, c, fh, tau, m_list)}
    pert_factor = 2.0 * (np.exp(a_op) + 1.0) * eps
    for m, value in zip(m_list, base):
        checks.append(_check(f"base_power[{m}]", value, 2 * abs(m) * eps))
        checks.append(_check(f"pert_power[{m}]", pert[m], abs(m) * pert_factor))
    return AuditReport(label="perturbation-coupling", eps=eps, checks=tuple(checks))


@dataclass(frozen=True)
class CompressedModel:
    """The pair compressed to ran P: base unitary, direction, endpoint, phase.

    ``ap_vectors`` and ``ap_values`` are the kept eigenpairs (Fc, tau_c) of
    the direction, so e^{isAp} = I + Fc diag(e^{is tau_c} - 1) Fc*.
    """

    u0p: np.ndarray
    ap: np.ndarray
    up: np.ndarray
    phase: float
    ap_vectors: np.ndarray
    ap_values: np.ndarray

    @property
    def rank(self) -> int:
        return self.u0p.shape[0]


def compressed_model(p: ProjectionBasis, h0, a, phase: float) -> CompressedModel:
    """Compress H0 and A by P and rebuild the unitaries inside ran P.

    The compressed base is the phase-rotated Cayley image of B* H0 B, which
    is Hermitian, so i + B* H0 B is always invertible; the endpoint is
    e^{i Ap} U0p.  P commutes with both rebuilt unitaries by construction,
    which is what makes rank-coordinates legitimate.  H0 and A are checked
    as in ``_frame``, with no powers.
    """
    _, cells, _, a, _ = _frame(p, (), h0=h0, a=a)
    return _compressed(p, cells, a, phase)[0]


def _compressed(p: ProjectionBasis, cells, a: np.ndarray, phase: float) -> tuple[CompressedModel, np.ndarray]:
    """``compressed_model`` of a checked A, and the cell blocks W of U0p, (K, L, L).

    B* H0 B = Bhat* diag(lambda) Bhat is block diagonal, so U0p is the
    Cayley image of each cell's block, placed on the cell's columns.
    """
    b, (rows, cols, blocks) = p.columns, cells
    hc = _adjoint(blocks) @ (p.eigenvalues[rows, None] * blocks)
    w = _cayley(0.5 * (hc + _adjoint(hc)), phase)
    u0p = _scatter(cols, cols, w, (p.rank, p.rank))
    ac = b.conj().T @ a @ b
    ac = 0.5 * (ac + ac.conj().T)
    fc, tau_c, _ = _kept_pairs(ac)
    up = _low_rank_endpoint(fc, tau_c, u0p)
    return CompressedModel(u0p=u0p, ap=ac, up=up, phase=phase, ap_vectors=fc, ap_values=tau_c), w


def audit_compressed_model(
    p: ProjectionBasis, h0, a, u0, u, phase: float, t_max: float, m_list, k_list
) -> AuditReport:
    """Error bounds for replacing the ambient pair by its compressed model.

    Covers the six displayed quantities: the rank-one-step exponentials
    ||P_perp (e^{iA} - I)||_2 and ||(e^{isA} - e^{isAp}) P||_2 (at 21 equally
    spaced s in [-T, T]), the trace-norm remainder
    ||P_perp (e^{iA} - iA - I)||_1, the power errors
    ||(U0^m - U0p^m) P||_2 and ||P (U^m - Up^m) P||_2, and the mixed traces
    |Tr{ P Up^m (e^{iA} - e^{iAp}) U0^k }|.  H0, U0 and U are checked as in
    ``_frame``, over the powers m and k.
    """
    m_list, k_list = _powers(m_list), _powers(k_list)
    frame = _frame(p, [*m_list, *k_list], t_max, h0=h0, a=a, u0=u0, u=u)
    eps, cells, c, a, (f, tau, a_op, fh, f_perp, fb) = frame
    b = p.columns
    model, w = _compressed(p, cells, a, phase)
    fc, tau_c = model.ap_vectors, model.ap_values
    # Every exponential is I + F (e^{is tau} - 1) F*, so each quantity below
    # works on d x L factors; F* is a co-isometry and drops out of the norms.
    checks = [_check("exp_step_offblock", hs_norm(_exp_step(f_perp, tau)), 2 * eps)]
    # e^{isA} B - B e^{isAp} = F (e^{is tau} - 1) F*B - B Fc (e^{is tau_c} - 1) Fc*
    #                        = [F, B Fc] diag(e^{is tau} - 1, 1 - e^{is tau_c}) [F*B; Fc*]
    s_grid = np.linspace(-t_max, t_max, 21)
    steps = np.expm1(1j * np.multiply.outer(s_grid, np.concatenate([tau, tau_c])))
    steps[:, tau.size:] *= -1.0
    worst = _factor_norms(np.concatenate([f, b @ fc], axis=1), steps, np.concatenate([fb, fc.conj().T]))
    checks.append(_check("propagator_vs_compressed", float(np.max(worst)), 2 * t_max * eps))
    perp_remainder = _exp_step(f_perp, tau) - f_perp * (1j * tau)
    tr_bound = 2.0 * hs_norm(a) * _exp_remainder_factor(a_op) * eps
    checks.append(_check("taylor_remainder_tracenorm", trace_norm(perp_remainder), tr_bound))
    # U0 = V diag(c) V* and U0p = diag(W_k) act cell by cell: (U0^m B - B U0p^m) = V (c^m Bhat - Bhat W^m)
    # has one block per cell.  Up = (I + Fc (e^{i tau_c} - 1) Fc*) U0p is streamed on the r x r identity,
    # and B* U^m B is read cell by cell off the stream of V* U^m B.
    ms = sorted({*m_list, *k_list})
    _, y, grams = _offblock_norms(cells, np.array([_power(c, m) for m in ms]).reshape(-1, p.ambient_dim))
    y, grams = dict(zip(ms, y)), dict(zip(ms, grams))
    bhat = _adjoint(cells[2])
    pert = {m: _to_columns(cells, bhat @ x[cells[0]]) for m, x in _ambient_powers(p, cells, c, fh, tau, m_list)}
    # rank coordinates with a zero row r, as in ``_by_cell``
    fc_rows, eye = np.concatenate([fc, np.zeros((1, fc.shape[1]))]), np.eye(p.rank + 1, p.rank, dtype=np.complex128)
    steps = _by_cell(cells, w), _by_cell(cells, _adjoint(w))
    pert_c = {m: z[:-1] for m, z in _unitary_powers(*steps, fc_rows, np.expm1(1j * tau_c), eye, m_list)}
    for m in m_list:
        w_m = np.linalg.matrix_power(w if m >= 0 else _adjoint(w), abs(m))
        value = hs_norm(y[m] - cells[2] @ w_m)
        checks.append(_check(f"base_power_error[{m}]", value, 2 * abs(m) * eps))
        value = hs_norm(pert[m] - pert_c[m])
        bound = 2 * abs(m) * eps * ((abs(m) - 1) * np.exp(a_op) + abs(m) + 1)
        checks.append(_check(f"pert_power_error[{m}]", value, bound))
    # Tr{P Up^m (e^{iA} - e^{iAp}) U0^k} in rank coordinates, where
    # B* e^{iA} U0^k B - e^{iAp} B* U0^k B = X Y_k with X = [(F*B)* (e^{i tau} - 1), -Fc (e^{i tau_c} - 1)]
    # and Y_k = [F* U0^k B; Fc* B* U0^k B], F* U0^k B = Fh* (c^k Bhat) and B* U0^k B = diag(Bhat_k* c^k Bhat_k)
    # cell by cell.  So each trace is Tr{(Y_k Up^m) X}, with no r x r factor formed.
    fh_cells, fc_cells = _adjoint(fh[cells[0]]), _adjoint(fc_rows[cells[1]])
    x = np.concatenate([_exp_step(fb.conj().T, tau), -_exp_step(fc, tau_c)], axis=1)
    ys = np.array([
        np.concatenate([
            _to_columns(cells, (fh_cells @ y[k]).swapaxes(1, 2)).T,
            _to_columns(cells, (fc_cells @ grams[k]).swapaxes(1, 2)).T,
        ])
        for k in k_list
    ]).reshape(len(k_list), x.shape[1], p.rank)
    mixed_bound = 4.0 * eps * eps * np.exp(a_op)
    for m in m_list:
        for k, value in zip(k_list, np.abs(np.einsum("kaj,ja->k", ys @ pert_c[m], x))):
            checks.append(_check(f"mixed_trace[m={m},k={k}]", value, mixed_bound))
    return AuditReport(label="compressed-model", eps=eps, checks=tuple(checks))


@dataclass(frozen=True)
class ConvergenceRow:
    cells: int
    rank: int
    compressed_trace: complex
    abs_diff: float


@dataclass(frozen=True)
class ConvergenceStudy:
    full_trace: complex
    rows: tuple[ConvergenceRow, ...]


def convergence_study(h0, a, phase: float, p: TrigPolynomial, cell_counts) -> ConvergenceStudy:
    """Compressed-trace error across a ladder of partition resolutions.

    For each cell count n the study builds the direction-seeded projection,
    forms the compressed model, evaluates the second-order trace on the
    compressed operators, and records |full - compressed|.  The window is
    the extent of H0's spectrum.  The ambient space must be at least 4x the
    finest partition so cells keep holding several eigenvalues.
    """
    h0, h0_dec, a, f, tau = _instance(h0, a)
    _require_polynomial(p)
    cell_counts = _listed(cell_counts, "cell counts")
    if not cell_counts or not all(_is_whole(n, 1) for n in cell_counts):
        raise BadWindow("need at least one cell count, each a positive whole number")
    if h0.shape[0] < 4 * max(cell_counts):
        raise PartitionTooFine("ambient dimension must be at least 4x the finest partition")
    half_width = float(np.max(np.abs(h0_dec.eigenvalues))) * (1.0 + 1e-12) + 1e-15
    u0 = _from_spectrum(h0_dec.vectors, _cayley_values(h0_dec.eigenvalues, phase))
    full = complex(_lhs(u0, _low_rank_endpoint(f, tau, u0), a, p)[0])
    rows = []
    for n in sorted(cell_counts):
        proj = _window_basis(h0_dec, f, half_width, n, h0)
        model = _compressed(proj, (proj.cell_rows, proj.cell_columns, proj.cell_blocks), a, phase)[0]
        compressed = complex(_lhs(model.u0p, model.up, model.ap, p)[0])
        rows.append(ConvergenceRow(int(n), proj.rank, compressed, abs(full - compressed)))
    return ConvergenceStudy(full_trace=full, rows=tuple(rows))


def spread_diagonal(dim: int, half_width: float) -> np.ndarray:
    """Diagonal Hermitian with spectrum equidistributed strictly inside (-a, a)."""
    levels = -half_width + (np.arange(dim) + 0.5) * (2.0 * half_width / dim)
    return np.diag(levels).astype(np.complex128)


def random_low_rank_hermitian(rng: np.random.Generator, dim: int, rank: int, scale: float) -> np.ndarray:
    """Hermitian of exact rank ``rank`` with operator norm ``scale``."""
    z = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))) / np.sqrt(2.0)
    q, _ = np.linalg.qr(z)
    taus = rng.uniform(0.4, 1.0, rank) * rng.choice([-1.0, 1.0], rank)
    taus *= scale / np.max(np.abs(taus))
    return (q * taus) @ q.conj().T


@dataclass(frozen=True)
class ReductionInstance:
    h0: np.ndarray
    a: np.ndarray
    phase: float
    u0: np.ndarray
    u: np.ndarray
    half_width: float


def reduction_instance(seed: int, ambient: int, rank: int, scale: float, phase: float = 0.0) -> ReductionInstance:
    """Seeded ambient model: H0 equidistributed in (-1, 1) and a low-rank direction."""
    _require_draw(seed, scale)
    if not (_is_whole(rank, 1) and _is_whole(ambient, rank)):
        raise DimensionMismatch(f"need whole sizes 1 <= rank <= ambient, got rank {rank!r} and ambient {ambient!r}")
    rng = np.random.default_rng(seed)
    h0 = spread_diagonal(ambient, 1.0)
    a = random_low_rank_hermitian(rng, ambient, rank, scale)
    u0 = np.diag(_cayley_values(np.diagonal(h0).real, phase))
    f, tau, _ = _kept_pairs(a)
    u = _low_rank_endpoint(f, tau, u0)
    return ReductionInstance(h0=h0, a=a, phase=phase, u0=u0, u=u, half_width=1.0)
