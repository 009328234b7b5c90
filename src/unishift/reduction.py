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

One checked instance (``_instance``) holds spectral data only: the
eigenvalues lambda of H0 and A's kept pairs (F, tau), so ||A|| = max |tau|.
The reduction works in H0's eigen-coordinates: H0 must be exactly diagonal
with a non-decreasing real part, as ``reduction_instance`` builds it, and
any other H0 is ``UnishiftError`` before A is read; its Cayley image is the
scalar map of lambda (``_cayley_values``).  The instance checks H0 and A in
place (``require_hermitian``) and keeps no d x d array.  A ``bounds`` run or
a convergence ladder builds every partition from one instance.  A window
basis (``ProjectionBasis``) is its eps, the cell layout of B and the
instance whose F are its seeds, checked when it is made.  Each audit, and
``compressed_model``, holds its operands to the forms it computes with in
one checked frame (``_frame``), so an operand that did not build the basis
is refused.  Phases, half-widths, the horizon T >= 0 and samples in [-T, T]
are finite real numbers (``_is_real``); powers, samples and cell counts are
iterables.  The dense d x d operands are read in place a block of rows at a
time (``linalg._row_blocks``, ``linalg._hermitian_blocks``, the range
finder's ``_deflated_norms``), with no d x d temporary.

The direction is low rank, so no d x d exponential and no d x d
eigendecomposition of it is ever formed.  An orthonormal basis Q of the
range of A, grown by blocks of its largest residual columns, and the eigh
of the k x k matrix Q*AQ give, in O(d^2 k) for rank k, the eigenpairs
(F, tau) of A with |tau| > 1e-12 max(||A||, 1) (||A|| is read from the same
eigenvalues), and

    e^{isA} = I + F diag(e^{is tau} - 1) F*.

The compressed direction is Ap = B* A B = (F*B)* diag(tau) (F*B), of rank at
most L; with the thin QR B*F = QR its kept eigenpairs come from the eigh of
the small R diag(tau) R*, so no product of B with a d x d matrix is formed.
One helper forms each endpoint e^{iA} U0 = U0 + F diag(e^{i tau} - 1) F* U0.
The propagator samples, the exponential off-block norms, the Taylor-remainder
trace norm and the mixed-trace factors all work on d x L factors; a norm
||X diag(D) Y||_HS with X = QR is ||R diag(D) Y||_HS, and each mixed trace
is the trace of a product of a 2L x r factor and an r x 2L one.

Every other ambient step uses the cells of the window basis: for each
occupied cell its eigen-rows and its block B_k of B (r = rank P columns, at
most L per cell).  So P_perp F, F*B and B X come cell by cell, in
coordinates with one extra zero row, which the -1 padding of the cell rows
reads.  The frame's check of U0 gives its diagonal c.  Then:

  * H0 B, both resolvents (i +- H0)^{-1} B and every U0^m B are diagonal
    scalings D B, whose part outside ran P splits by cell:
    ||P_perp X P||_HS^2 = sum_k ||D_k B_k - B_k (B_k* D_k B_k)||^2,
    one batched product over the padded (K, n, L) cell stack, O(d L^2) in
    all, with no d x d solve;
  * B* H0 B = B* diag(lambda) B is block diagonal: one batched eigh gives
    each cell's block Q_k diag(mu_k) Q_k*, so in each cell's eigenbasis
    U0p = diag(omega) with omega the Cayley values of mu.  ``_compressed``
    returns the compressed pair in this form, which the compressed audit
    reads directly and ``compressed_model`` expands once to r x r;
  * so U = (I + F diag(e) F*) diag(c), e = e^{i tau} - 1, and in the basis
    B diag(Q_k) Up = (I + Fc' diag(e_c) Fc'*) diag(omega): each is X =
    (I + F diag(e) F*) S with S diagonal and F thin, and telescoping gives

        X^m = S^m + sum_{j<m} (X^j F) diag(e) (F* S^{m-j})         (m > 0)

    and its mirror through X^{-1} = S* (I + F diag(conj e) F*) for m < 0.
    Only the thin X^j F advance, at O(d L^2) a step, shared by the audited
    powers of one sign; the rows F* S^q B come cell by cell from the blocks.
    Each audited power then forms only the matrix its check reads:
    P_perp U^m B (d x r), with P_perp applied to the thin factors, or
    B* U^m B - Up^m (r x r), a block diagonal plus one skinny product, and
    Up^m X (r x 2L) for the mixed traces.  The terms are summed in blocks of
    at most max(256, L) columns, so memory does not grow with |m|, and the
    norms are taken of the formed matrices;
  * ``convergence_study`` reads each trace off the same stream with Z = I,
    Tr(X^n - S^n) = sum_{j<n} tr((X^j F) diag(e) (F* S^{n-j})), the ambient
    one from (c, F) and each rung's from (omega, Fc'), so it forms no d x d
    or r x r matrix.

The basis comes from one SVD per cell of the seeds' pieces, normalised,
which lie on disjoint eigenvectors of H0 and so are orthogonal from cell to
cell; the SVDs are batched over the cells that share a row count and a
kept-piece pattern, with the bits of a cell-by-cell loop.
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
    _adjoint,
    _as_array,
    _blocks_hs_norm,
    _eigh,
    _hermitian_blocks,
    _hermitian_part,
    _off_diagonal,
    _require_draw,
    _row_blocks,
    as_matrix,
    hs_norm,
    require_hermitian,
    trace_norm,
)
from .trace_formula import _coefficients, _exp_remainder_factor, _require_exponent
from .trigpoly import TrigPolynomial, _require_polynomial

GS_DROP_TOL = 1e-12
AUDIT_SLACK = 1e-10


def _cayley_values(lam: np.ndarray, phase: float) -> np.ndarray:
    """e^{i phase} (i - lam) / (i + lam) for each real lam, at a finite real phase: U0 = diag(c) is H0 = diag(lam)'s."""
    if not _is_real(phase):
        raise UnishiftError(f"phase must be a finite real number, not {phase!r}")
    return np.exp(1j * phase) * ((1j - lam) / (1j + lam))


@dataclass(frozen=True)
class CheckedInstance:
    """H0 = diag(lambda) and A's kept pairs (F, tau): ||A|| is max |tau| and ||A||_HS is ||tau||_2."""

    eigenvalues: np.ndarray
    f: np.ndarray
    tau: np.ndarray


@dataclass(frozen=True)
class ProjectionBasis:
    """Orthonormal columns B spanning ran P, given by their cells, with eps and the checked instance that built it.

    The seeds are the instance's F and eps = L a / sqrt(n).  Row k of
    ``cell_rows`` holds the eigen-rows of occupied cell k and row k of
    ``cell_columns`` the columns of B it spans, each padded with -1, and
    ``cell_blocks[k]`` is the block of B on those rows and columns, padded
    with zeros.  Making a basis, ``dataclasses.replace`` included, checks that
    every field, its own and its instance's, is there (``MissingConstruction``),
    that eps is a finite real number >= 0 (``BadWindow``) and that the shapes
    agree on d, the seed count and the cell layout (``DimensionMismatch``).
    """

    eps: float
    instance: CheckedInstance
    cell_rows: np.ndarray
    cell_columns: np.ndarray
    cell_blocks: np.ndarray

    def __post_init__(self):
        if not isinstance(self.instance, CheckedInstance) or any(
            x is None for x in (*vars(self).values(), *vars(self.instance).values())
        ):
            raise MissingConstruction("a window basis needs its eps, its checked instance and its cells")
        if not (_is_real(self.eps) and self.eps >= 0.0):
            raise BadWindow(f"a window basis needs eps a finite real number >= 0, not {self.eps!r}")
        # axes: d ambient, L seeds, K cells, n rows and w columns per cell
        axes = dict(eigenvalues="d", f="dL", tau="L", cell_rows="Kn", cell_columns="Kw", cell_blocks="Knw")
        fields, sizes = {**vars(self.instance), **vars(self)}, {}
        for name, names in axes.items():
            shape = np.shape(fields[name])
            if len(shape) != len(names) or any(sizes.setdefault(a, n) != n for a, n in zip(names, shape)):
                raise DimensionMismatch(f"{name} of shape {shape} does not fit the window basis {sizes}")

    @property
    def ambient_dim(self) -> int:
        return self.instance.eigenvalues.shape[0]

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.cell_columns >= 0))


def _window_basis(inst: CheckedInstance, half_width: float, cells: int) -> ProjectionBasis:
    """Span of the spectral-cell pieces of the instance's orthonormal seed columns F, in H0's eigen-coordinates.

    The window (-a, a] splits into ``cells`` half-open intervals; each seed
    f_l contributes the normalised projection of f_l onto every cell it
    meets.  A seed leaking past the window by more than eps = L a / sqrt(n)
    is an error, since every off-block estimate downstream assumes capture.
    Only the cell layout is kept: each cell's eigen-rows and block of B.
    """
    coords, eigenvalues = inst.f, inst.eigenvalues
    count = coords.shape[1]
    if count == 0:
        raise ZeroDirection("no seed vectors to project (a zero direction gives none)")
    if not (_is_whole(cells, 1) and cells < 2**63 and _is_real(half_width) and half_width > 0.0):
        raise BadWindow("need a finite positive window and a whole number of cells within int64, at least one")
    eps = float(count * half_width / np.sqrt(cells))
    inside = (eigenvalues > -half_width) & (eigenvalues <= half_width)
    leak = np.linalg.norm(np.where(inside[:, None], 0.0, coords), axis=0)
    if np.any(leak >= eps):
        raise BadWindow(f"a seed vector leaks {float(np.max(leak)):.3e} outside the window (eps {eps:.3e})")
    # The eigenvalues ascend, so each cell's rows are one run of the window's rows.
    window = np.flatnonzero(inside)
    starts = np.flatnonzero(np.diff(_cells_of(eigenvalues[window], half_width, cells), prepend=-1))
    lengths = np.diff(starts, append=window.size)
    # One SVD per cell of its kept normalised pieces, batched over the cells of one row count and one kept
    # pattern.  The singular values descend, so each cell keeps a prefix of its left singular vectors.
    cell_rows = np.full((starts.size, int(lengths.max(initial=0))), -1)
    cell_blocks = np.zeros((*cell_rows.shape, count), dtype=np.complex128)
    widths = np.zeros(starts.size, dtype=np.int64)
    for at in _groups(lengths):
        rows = window[starts[at, None] + np.arange(lengths[at[0]])]
        cell_rows[at, :rows.shape[1]] = rows
        pieces = coords[rows]
        norms = np.linalg.norm(pieces, axis=1)
        for mine in _groups(norms > GS_DROP_TOL):
            if (kept := norms[mine[0]] > GS_DROP_TOL).any():
                left, values, _ = np.linalg.svd(pieces[mine][:, :, kept] / norms[mine][:, None, kept],
                                                full_matrices=False)
                widths[at[mine]] = w = np.count_nonzero(values > GS_DROP_TOL, axis=1)
                cell_blocks[at[mine], :rows.shape[1], :left.shape[2]] = np.where(
                    np.arange(left.shape[2]) < w[:, None, None], left, 0.0)
    # Occupied cells, in ascending order, each with its first column of B.
    occupied, first = np.flatnonzero(widths), np.cumsum(widths) - widths
    n, span = int(lengths[occupied].max(initial=0)), np.arange(widths.max(initial=0))
    cell_columns = np.where(span < widths[occupied, None], first[occupied, None] + span, -1)
    return ProjectionBasis(eps, inst, cell_rows[occupied, :n], cell_columns, cell_blocks[occupied, :n, :span.size])


def _groups(keys: np.ndarray) -> list[np.ndarray]:
    """Indices of the equal entries of a 1-D ``keys``, or of its equal rows if 2-D: one ascending array per value.

    np.unique would do, but its first call in a process imports numpy.ma, which costs more than the grouping.
    """
    if not len(keys):
        return []
    keys = keys.reshape(len(keys), -1)
    order = np.lexsort(keys.T[::-1])
    return np.split(order, np.flatnonzero(np.any(keys[order][1:] != keys[order][:-1], axis=1)) + 1)


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


def _kept_pairs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (F, tau) of a Hermitian H with |tau| > 1e-12 max(||H||, 1); the largest |tau| is ||H||.

    Up to the dropped eigenvalues, e^{isH} = I + F diag(e^{is tau} - 1) F*.
    The pairs come from an orthonormal basis Q of the range of H and the
    eigh of the k x k matrix Q*HQ, in O(d^2 k) for rank k.  Q grows by
    blocks, doubling in size, of the largest columns of the residual
    H - Q(Q*H), each orthonormalised by SVD against Q, until every residual
    column is at most delta = 1e-13 max(max column norm, 1) / sqrt(d); the
    dropped part is then at most 2 sqrt(d) delta in the 2-norm.  The
    Hermitian part and each update of the residual with its column norms
    are row-blocked passes (``_hermitian_part``, ``_deflated_norms``), with
    no d x d temporary.
    """
    rest = _hermitian_part(h)  # H - Q(Q*H) for the Hermitian part of H, with Q empty so far
    dim, norms = h.shape[0], _deflated_norms(rest)
    delta = 1e-13 * max(float(np.max(norms, initial=0.0)), 1.0) / np.sqrt(max(dim, 1))
    q, size = np.zeros((dim, 0), dtype=np.complex128), 1
    while q.shape[1] < dim and (big := np.flatnonzero(norms > delta)).size:
        pick = big[np.argsort(-norms[big], kind="stable")[:size]]
        left, values, _ = np.linalg.svd(rest[:, pick], full_matrices=False)
        new = left[:, values > delta]  # not empty: the first picked column exceeds delta
        # A direction of small singular value keeps roundoff along Q divided by it: project and re-orthonormalise.
        new = np.linalg.qr(new - q @ (q.conj().T @ new))[0]
        norms = _deflated_norms(rest, new)
        q, size = np.concatenate([q, new], axis=1), 2 * size
    return _kept_of(q, q.conj().T @ (h @ q))  # hermitised, Q*HQ of the Hermitian part


def _deflated_norms(rest: np.ndarray, new: np.ndarray | None = None) -> np.ndarray:
    """The column norms of R - N(N*R), written into R = ``rest`` a block of rows at a time; of R itself without N.

    Bit for bit ``rest -= new @ (new.conj().T @ rest)`` and
    ``np.linalg.norm(rest, axis=0)``, whose reduction over rows adds the
    squares row after row; the squares go on in that order from block to block.
    """
    coefficients = None if new is None else new.conj().T @ rest
    squares = np.zeros((1, rest.shape[1]))
    for rows in _row_blocks(rest.shape[0]):
        block = rest[rows]
        if new is not None:
            block -= new[rows] @ coefficients
        squares = np.add.reduce(np.concatenate([squares, (block.conj() * block).real]), axis=0, keepdims=True)
    return np.sqrt(squares[0])


def _kept_of(q: np.ndarray, small: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (Q W, tau) of Q S Q*, S = W diag(tau) W* hermitised, with |tau| > 1e-12 max(||S||, 1)."""
    tau, vectors = _eigh(0.5 * (small + small.conj().T))
    top = float(np.max(np.abs(tau), initial=0.0))
    keep = np.abs(tau) > 1e-12 * max(top, 1.0)
    return q @ vectors[:, keep], tau[keep]


def _exp_step(f: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """F diag(e^{i tau} - 1), so that e^{iH} X = X + _exp_step(F, tau) @ (F* X)."""
    return f * np.expm1(1j * tau)


def _low_rank_endpoint(f: np.ndarray, tau: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """e^{iH} U0 = U0 + F diag(e^{i tau} - 1) F* U0 from H's kept pairs (F, tau)."""
    return u0 + _exp_step(f, tau) @ (f.conj().T @ u0)


def _instance(h0, a) -> CheckedInstance:
    """The one checked instance of (H0, A): both checked in place, H0's eigenvalues and A's kept pairs.

    H0 must be exactly diagonal with a non-decreasing real part, its own eigenbasis; any other H0 is
    ``UnishiftError`` before A is read, so a refused H0 never builds the range finder's d x d residual.
    """
    h0 = require_hermitian(h0, "h0")
    lam = np.diagonal(h0).real.copy()
    if _off_diagonal(h0).any() or np.any(lam[1:] < lam[:-1]):
        raise UnishiftError(
            "the reduction works in H0's eigenbasis: H0 must be diagonal with a non-decreasing real part; for"
            " H0 = V diag(lambda) V*, pass diag(lambda) and the pair rotated by V (V* A V, V* U0 V, V* U V)"
        )
    a = require_hermitian(a, "a", h0.shape[0])
    f, tau = _kept_pairs(a)
    return CheckedInstance(lam, f, tau)


def build_direction_projection(h0, a, half_width: float, cells: int) -> ProjectionBasis:
    """Window projection seeded by the eigenvectors of the low-rank direction A."""
    return _window_basis(_instance(h0, a), half_width, cells)


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


def _gap(x: np.ndarray, w: np.ndarray | None, mu: np.ndarray, hermitian: bool = False) -> float:
    """||Y - W diag(mu) W*||_HS for Y a square X or its Hermitian part, X read in place by rows; W None is I."""
    d = x.shape[0]
    if w is None and not hermitian:
        off = _off_diagonal(x)
        return float(np.hypot(_blocks_hs_norm(off[rows] for rows in _row_blocks(d - 1)), hs_norm(np.diagonal(x) - mu)))
    squares = 0.0
    for rows, top, adjoint in _hermitian_blocks(x) if hermitian else ((r, x[r], 0) for r in _row_blocks(d)):
        block = 0.5 * (top + adjoint) if hermitian else top
        if w is None:
            block[np.arange(block.shape[0]), np.arange(rows.start, rows.stop)] -= mu[rows]
        else:  # less (W diag(mu) W*)[rows], the conjugate of conj(W[rows]) diag(mu) W^T: no adjoint of W is formed
            kept = (w[rows].conj() * mu) @ w.T
            block = np.subtract(block, np.conjugate(kept, out=kept), out=kept)
        squares += np.vdot(block, block).real
    return float(np.sqrt(squares))


def _frame(p: ProjectionBasis, powers: list[int], t_max: float = 0.0, *, h0=None, a=None, u0=None, u=None):
    """The one checked frame of an audit, or with no ``powers`` of ``compressed_model``.

    The projection must be a ``ProjectionBasis`` (``MissingConstruction``), checked when it was made, T a finite
    real number >= 0 (``UnishiftError``) and, with A, ||A|| = max |tau| within ``_require_exponent``
    (``NoConvergence``).  Each d x d operand (``DimensionMismatch``) is held, read in place by rows, to the form
    the audits compute with, within delta = AUDIT_SLACK / (2 max(1, max |m|)) over the call's powers m in the
    Hilbert-Schmidt norm: the Hermitian parts of H0 and A (the audits take no skew part) to diag(lambda) and
    F diag(tau) F*, U0 to diag(c) with c = diag(U0) and abs(|c_j| - 1), and U to e^{iA} U0 =
    U0 + F diag(e^{i tau} - 1) F* U0.  So no operand moves a power U0^m or U^m by more than
    |m| delta (1 + 2 delta)^|m| < AUDIT_SLACK, nor the Cayley image of H0 by more than 2 delta.  A delta below d times the machine epsilon, the roundoff of
    one such gap, is refused (``UnishiftError``) first.  A gap not within delta (NaN too) sends its operand to
    ``as_matrix`` and, for H0 and A, ``require_hermitian``; past them it is ``PathMismatch``, or ``NotUnitary``
    for |c|, whose message states the measured gap beside delta.

    Returns c (None without U0) and, with A, tau, ||A|| = max |tau|, F and
    P_perp F with their zero row d, and F* B (else None).
    """
    if not isinstance(p, ProjectionBasis):
        raise MissingConstruction(f"the projection must be a window basis, not {type(p).__name__}")
    if not (_is_real(t_max) and t_max >= 0.0):
        raise UnishiftError(f"the audit horizon T must be a finite real number >= 0, not {t_max!r}")
    inst, d, a_op = p.instance, p.ambient_dim, float(np.max(np.abs(p.instance.tau), initial=0.0))
    if a is not None:
        _require_exponent(a_op, "||A||")
    delta = AUDIT_SLACK / (2.0 * max([1, *map(abs, powers)]))
    if delta < (floor := d * np.finfo(float).eps):
        raise UnishiftError(
            f"power {max(powers, key=abs)} needs its operands checked to {delta:.3e}, below the roundoff"
            f" {floor:.3e} of a Hilbert-Schmidt gap at ambient size {d}"
        )

    def operand(given, name):
        x = _as_array(given, copy=None)
        return x if x.shape == (d, d) else as_matrix(x, name, d, copy=None)  # DimensionMismatch

    def require(x, name, gap, error, what, measured="Hilbert-Schmidt gap"):
        if not gap <= delta:
            as_matrix(x, name, d, copy=None)
            if name in ("h0", "a"):
                require_hermitian(x, name, d)
            raise error(f"{what} (tol {delta:.3e}): {measured} {gap:.3e}")

    c, f = None, _padded(inst.f)
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or Inf entry only fails its gap
        for name, x, w, mu, what in (("h0", h0, None, inst.eigenvalues, "H0 is not the operator"),
                                     ("a", a, inst.f, inst.tau, "A is not the direction")):
            if x is not None:  # the gap of X, one read, bounds that of its Hermitian part
                x = operand(x, name)
                gap = gap if (gap := _gap(x, w, mu)) <= delta else _gap(x, w, mu, hermitian=True)
                require(x, name, gap, PathMismatch, f"{what} that built the projection")
        if u0 is not None:
            u0 = operand(u0, "u0")
            c = np.diagonal(u0).copy()
            require(u0, "u0", _gap(u0, None, c), PathMismatch, "U0 is not diagonal in the eigenbasis of H0")
            require(u0, "u0", np.max(np.abs(np.abs(c) - 1.0), initial=0.0), NotUnitary,
                    "U0 has an eigenvalue off the unit circle", "largest abs(|c_j| - 1)")
        if u is not None:
            u, step, fu0 = operand(u, "u"), _exp_step(inst.f, inst.tau), inst.f.conj().T @ u0
            gap = _blocks_hs_norm(u[rows] - (u0[rows] + step[rows] @ fu0) for rows in _row_blocks(d))
            require(u, "u", gap, PathMismatch, "U is not e^(iA) U0")
    return c, None if a is None else (inst.tau, a_op, f, _perp(p, f), _seed_rows(p, f, p.cell_blocks))


def _powers_of(c: np.ndarray, ms) -> np.ndarray:
    """Row j is c^m elementwise for m = ms[j], conj(c)^|m| for m < 0: the diagonal of U^m for U = diag(c)."""
    ms = np.asarray(ms, dtype=np.int64).reshape(-1, 1)
    return np.where(ms >= 0, c, c.conj()) ** np.abs(ms)


def _offblock_cells(p: ProjectionBasis, scales: np.ndarray) -> np.ndarray:
    """The cell blocks (s, K, n, L) of P_perp X P for each X = diag(D), D in ``scales`` (s, d), in O(d L^2).

    P_perp X P is diag(D) B - B (B* diag(D) B), which has one block per cell.  Padded rows read the last entry of D and
    meet zero rows of the blocks.
    """
    y = scales[:, p.cell_rows, None] * p.cell_blocks
    return y - p.cell_blocks @ (_adjoint(p.cell_blocks) @ y)


def _norms(x: np.ndarray) -> np.ndarray:
    """The Hilbert-Schmidt norm of each x[j] of a stack."""
    return np.linalg.norm(x.reshape(x.shape[0], int(np.prod(x.shape[1:]))), axis=1)


def _factor_norms(x: np.ndarray, scales: np.ndarray, y: np.ndarray) -> np.ndarray:
    """||X diag(D) Y||_HS for each row D of ``scales``: with X = QR, the orthonormal Q drops out of R diag(D) Y."""
    return _norms((np.linalg.qr(x, mode="r")[None] * scales[:, None, :]) @ y)


def _to_columns(p: ProjectionBasis, x: np.ndarray) -> np.ndarray:
    """The (r, ...) array, in B's column order, of a (K, L, ...) array indexed by cell and slot."""
    used = p.cell_columns >= 0
    out = np.empty((int(used.sum()), *x.shape[2:]), dtype=x.dtype)
    out[p.cell_columns[used]] = x[used]
    return out


def _scatter(row_index: np.ndarray, col_index: np.ndarray, blocks: np.ndarray, shape) -> np.ndarray:
    """Zero matrices of ``shape`` with blocks[..., k, :, :] on rows row_index[k] and columns col_index[k].

    One matrix per leading index of the (..., K, n, w) ``blocks``; padding (-1) is skipped.
    """
    i = np.broadcast_to(row_index[:, :, None], blocks.shape[-3:])
    j = np.broadcast_to(col_index[:, None, :], blocks.shape[-3:])
    used = (i >= 0) & (j >= 0)
    out = np.zeros((*blocks.shape[:-3], *shape), dtype=np.complex128)
    out[..., i[used], j[used]] = blocks[..., used]
    return out


_TERM_COLUMNS = 256  # a block of telescoped terms holds at most max(this, L) columns


def _telescoped(s: np.ndarray, f: np.ndarray, e: np.ndarray, rows, ms, per: int):
    """Blocks (G, {m: R_m}) with X^m Z = S^m Z + sum G[:, :len(R_m)] @ R_m over the blocks, for each m of ``ms``.

    X = (I + F diag(e) F*) S is unitary, S = diag(s), F orthonormal, and the
    powers ``ms`` are all positive or all negative.  Telescoping
    X^m - S^m = sum_{j<m} X^j (X - S) S^{m-1-j} gives, for m > 0 and n = -m > 0,

        X^m - S^m       = sum_{j<m} (X^j F) diag(e) (F* S^{m-j}),
        X^{-n} - S^{-n} = sum_{j<n} (X^{-j} S* F) diag(conj e) (F* S^{-(n-1-j)}),

    as X^{-1} = X* = S* (I + F diag(conj e) F*).  So only the thin X^{+-j} F
    advances, at O(N L^2) a step, once for all the powers; ``rows(qs)`` gives
    the rows F* S^q Z, (len(qs), L, r), each q read once a block.  A block
    holds the terms of ``per`` steps j, the last one fewer.
    """
    if not ms:
        return
    n, fh, forward = max(map(abs, ms)), f.conj().T, ms[0] > 0
    if not forward:
        s, e = s.conj(), e.conj()
    g = f if forward else s[:, None] * f
    for lo in range(0, n, per):
        steps = np.arange(lo, min(n, lo + per))
        left = []
        for j in steps:
            left.append(g)
            if j + 1 < n:  # g <- X g, or g <- X^{-1} g
                if forward:
                    g = s[:, None] * g
                g = g + f @ (e[:, None] * (fh @ g))
                if not forward:
                    g = s[:, None] * g
        # term j of the power m reads the rows at q = m - j for m > 0, q = m + 1 + j for m < 0
        own = {m: (m - steps if m > 0 else m + 1 + steps)[: abs(m) - lo] for m in ms if abs(m) > lo}
        qs = np.sort(np.concatenate(list(own.values())))
        qs = qs[np.append(True, qs[1:] != qs[:-1])]
        t = rows(qs) * e[:, None]
        yield np.concatenate(left, axis=1), {
            m: t[np.searchsorted(qs, q)].reshape(q.size * t.shape[1], t.shape[2]) for m, q in own.items()
        }


def _per(width: int) -> int:
    """Terms per block of ``_telescoped`` for thin factors of ``width`` columns: at most max(_TERM_COLUMNS, width)."""
    return max(1, _TERM_COLUMNS // max(1, width))


def _slot_rows(p: ProjectionBasis, x: np.ndarray) -> np.ndarray:
    """The (s, l, r) array, in B's column order, of an (s, K, l, w) array whose last axis is the cell's column slot."""
    return _to_columns(p, x.transpose(1, 3, 0, 2)).transpose(1, 2, 0)


def _ambient_stream(p: ProjectionBasis, c: np.ndarray, f: np.ndarray, tau: np.ndarray, blocks: np.ndarray):
    """The ``_telescoped`` operands (s, F, e, rows) of U^m B for U = (I + F diag(e) F*) diag(c).

    Here e = e^{i tau} - 1, B is given by its cell blocks, those of ``p`` or
    a rotation of each within its columns, and F with its zero row d, where
    c is taken 0; the rows F* c^q B come cell by cell in O(d L^2).
    """
    c1, f_cells = np.append(c, 0.0), _adjoint(f[p.cell_rows])

    def rows(qs):
        return _slot_rows(p, f_cells @ (_powers_of(c1, qs)[:, p.cell_rows, None] * blocks))

    return c1, f, np.expm1(1j * tau), rows


def _diagonal_stream(s: np.ndarray, f: np.ndarray, tau: np.ndarray):
    """The ``_telescoped`` operands (s, F, e, rows) of X^m Z, X = (I + F diag(e^{i tau} - 1) F*) diag(s), Z = I."""
    return s, f, np.expm1(1j * tau), lambda qs: f.conj().T[None] * _powers_of(s, qs)[:, None, :]


def _padded(x: np.ndarray) -> np.ndarray:
    """X with a zero row appended: the row d (or r) that the padding (-1) of the cell rows (or columns) reads."""
    return np.concatenate([x, np.zeros((1, x.shape[1]))])


def _seed_rows(p: ProjectionBasis, g: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """G* B (c x r, in B's column order) for coordinates G with a zero row d and B given by its cell ``blocks``."""
    return _slot_rows(p, (_adjoint(g[p.cell_rows]) @ blocks)[None])[0]


def _perp(p: ProjectionBasis, g: np.ndarray) -> np.ndarray:
    """P_perp G = G - B (B* G) for coordinates G with a zero row d, cell by cell in O(d L c) for c columns.

    The padding (-1) of the cell rows reads and writes the zero row; rows in
    no cell keep all of G.
    """
    out = g.copy()
    out[p.cell_rows] -= p.cell_blocks @ (_adjoint(p.cell_blocks) @ g[p.cell_rows])
    return out


def _check(name: str, value: float, bound: float) -> BoundCheck:
    return BoundCheck(name=name, value=float(value), bound=float(bound), ok=bool(value <= bound + AUDIT_SLACK))


def audit_projection_estimates(p: ProjectionBasis, h0, u0, m_list) -> AuditReport:
    """Off-block estimates of the window projection against eps = L a / sqrt(n).

    Checks, in order: seed capture ||P_perp f_l||, the window operator
    ||P_perp H0 P||_2, both resolvents ||P_perp (i +- H0)^{-1} P||_2, and the
    unitary powers ||P_perp U0^m P||_2 <= 2|m| eps.  H0 and U0 are checked as in ``_frame``.
    """
    m_list = _powers(m_list)
    c, _ = _frame(p, m_list, h0=h0, u0=u0)
    eps, checks, seeds = p.eps, [], _perp(p, _padded(p.instance.f))
    for l in range(seeds.shape[1]):
        checks.append(_check(f"seed_capture[{l}]", hs_norm(seeds[:, l]), eps))
    lam = p.instance.eigenvalues
    scales = np.concatenate([[lam, 1.0 / (1j + lam), 1.0 / (1j - lam)], _powers_of(c, m_list)])
    norms = _norms(_offblock_cells(p, scales))
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
    e^{iA} U0.  U0, U and A are checked as in ``_frame``, T ||A|| as ||A||.
    """
    m_list = _powers(m_list)
    c, (tau, a_op, f, f_perp, fb) = _frame(p, m_list, t_max, u0=u0, u=u, a=a)
    _require_exponent(t_max * a_op, "T ||A||")
    eps = p.eps
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
    # P_perp U^m B = P_perp c^m B + sum_j (P_perp G_j) R_j: the cell blocks of the first
    # term are those of the base power, and P_perp acts on the thin factors G_j of the stream.
    base = _offblock_cells(p, _powers_of(c, m_list))
    pert = dict(zip(m_list, _scatter(p.cell_rows, p.cell_columns, base, (p.ambient_dim + 1, p.rank))))
    stream, per = _ambient_stream(p, c, f, tau, p.cell_blocks), _per(tau.size)
    for sign in (1, -1):
        for left, right in _telescoped(*stream, [m for m in pert if sign * m > 0], per):
            left = _perp(p, left)
            for m, r_m in right.items():
                pert[m] += left[:, : r_m.shape[0]] @ r_m
    pert_factor = 2.0 * (np.exp(a_op) + 1.0) * eps
    for m, value in zip(m_list, _norms(base)):
        checks.append(_check(f"base_power[{m}]", value, 2 * abs(m) * eps))
        checks.append(_check(f"pert_power[{m}]", hs_norm(pert[m]), abs(m) * pert_factor))
    return AuditReport(label="perturbation-coupling", eps=eps, checks=tuple(checks))


@dataclass(frozen=True)
class CompressedModel:
    """The pair compressed to ran P, in B's coordinates: base unitary, direction Ap = B* A B, endpoint, phase."""

    u0p: np.ndarray
    ap: np.ndarray
    up: np.ndarray
    phase: float

    @property
    def rank(self) -> int:
        return self.u0p.shape[0]


def compressed_model(p: ProjectionBasis, h0, a, phase: float) -> CompressedModel:
    """Compress H0 and A by P and rebuild the unitaries inside ran P.

    The compressed base is the phase-rotated Cayley image of the Hermitian
    B* H0 B, taken on each cell's eigenvalues; the direction Ap = B* A B is
    (F*B)* diag(tau) (F*B) from A's kept pairs, and the endpoint is
    e^{i Ap} U0p.  P commutes with both rebuilt unitaries by construction,
    which is what makes rank-coordinates legitimate.  H0 and A are checked
    as in ``_frame``, with no powers.
    """
    _, (tau, _, _, _, fb) = _frame(p, (), h0=h0, a=a)
    q, omega, fc, tau_c, _ = _compressed(p, fb, tau, phase)
    u0p = _scatter(p.cell_columns, p.cell_columns, (q * omega[:, None, :]) @ _adjoint(q), (p.rank, p.rank))
    ap = (fb.conj().T * tau) @ fb
    return CompressedModel(u0p=u0p, ap=0.5 * (ap + ap.conj().T), up=_low_rank_endpoint(fc, tau_c, u0p), phase=phase)


def _compressed(p: ProjectionBasis, fb: np.ndarray, tau: np.ndarray, phase: float):
    """The compressed pair in each cell's eigenbasis, from A's kept pairs (F, tau) through F*B (L x r).

    B* H0 B = B* diag(lambda) B has one block per cell; one batched
    eigh per cell width gives Q_k diag(mu_k) Q_k* (a padded slot gets the
    eigenvalue 0 and its own unit vector), and U0p = (+)_k Q_k diag(omega_k)
    Q_k* with omega the Cayley values of mu.  With the thin QR B*F = QR,
    Ap = (F*B)* diag(tau) (F*B) = Q (R diag(tau) R*) Q*, so the eigh of the
    small R diag(tau) R* gives Ap's kept pairs (Fc, tau_c), those with
    |tau_c| > 1e-12 max(||Ap||, 1).  Returns Q (K, w, w), omega (K, w), Fc, tau_c and Q_k* Fc (K, w, Lc).
    """
    blocks, widths = p.cell_blocks, np.count_nonzero(p.cell_columns >= 0, axis=1)
    hc = _adjoint(blocks) @ (p.instance.eigenvalues[p.cell_rows, None] * blocks)
    hc = 0.5 * (hc + _adjoint(hc))
    mu, q = np.zeros(hc.shape[:2]), np.broadcast_to(np.eye(hc.shape[-1], dtype=np.complex128), hc.shape).copy()
    for at in _groups(widths):
        k = widths[at[0]]
        mu[at, :k], q[at, :k, :k] = _eigh(hc[at, :k, :k])
    qf, rf = np.linalg.qr(fb.conj().T)
    fc, tau_c = _kept_of(qf, (rf * tau) @ rf.conj().T)
    return q, _cayley_values(mu.ravel(), phase).reshape(mu.shape), fc, tau_c, _adjoint(q) @ _padded(fc)[p.cell_columns]


def audit_compressed_model(
    p: ProjectionBasis, h0, a, u0, u, phase: float, t_max: float, m_list, k_list
) -> AuditReport:
    """Error bounds for replacing the ambient pair by its compressed model.

    Covers the six displayed quantities: the rank-one-step exponentials
    ||P_perp (e^{iA} - I)||_2 and ||(e^{isA} - e^{isAp}) P||_2 (at 21 equally
    spaced s in [-T, T]), the trace-norm remainder
    ||P_perp (e^{iA} - iA - I)||_1, the power errors
    ||(U0^m - U0p^m) P||_2 and ||P (U^m - Up^m) P||_2, and the mixed traces
    |Tr{ P Up^m (e^{iA} - e^{iAp}) U0^k }|.  H0, A, U0 and U are checked as
    in ``_frame``, over the powers m and k.
    """
    m_list, k_list = _powers(m_list), _powers(k_list)
    c, (tau, a_op, f, f_perp, fb) = _frame(p, [*m_list, *k_list], t_max, h0=h0, a=a, u0=u0, u=u)
    eps, rows, cols = p.eps, p.cell_rows, p.cell_columns
    q, omega_cells, fc, tau_c, fc_cells = _compressed(p, fb, tau, phase)
    # Every exponential is I + F (e^{is tau} - 1) F*, so each quantity below
    # works on d x L factors; F* is a co-isometry and drops out of the norms.
    checks = [_check("exp_step_offblock", hs_norm(_exp_step(f_perp, tau)), 2 * eps)]
    # e^{isA} B - B e^{isAp} = F (e^{is tau} - 1) F*B - B Fc (e^{is tau_c} - 1) Fc*
    #                        = [F, B Fc] diag(e^{is tau} - 1, 1 - e^{is tau_c}) [F*B; Fc*]
    s_grid = np.linspace(-t_max, t_max, 21)
    steps = np.expm1(1j * np.multiply.outer(s_grid, np.concatenate([tau, tau_c])))
    steps[:, tau.size:] *= -1.0
    b_fc = np.zeros((f.shape[0], tau_c.size), dtype=np.complex128)
    b_fc[rows] = p.cell_blocks @ _padded(fc)[cols]
    worst = _factor_norms(np.concatenate([f, b_fc], axis=1), steps, np.concatenate([fb, fc.conj().T]))
    checks.append(_check("propagator_vs_compressed", float(np.max(worst)), 2 * t_max * eps))
    perp_remainder = _exp_step(f_perp, tau) - f_perp * (1j * tau)
    tr_bound = 2.0 * hs_norm(tau) * _exp_remainder_factor(a_op) * eps
    checks.append(_check("taylor_remainder_tracenorm", trace_norm(perp_remainder), tr_bound))
    # The powers work in each cell's eigenbasis Q_k of B_k* diag(lambda) B_k.  With B' = B diag(Q_k),
    # U0p = diag(omega), and U0^m B' - B' U0p^m = c^m B' - B' omega^m has one block per cell.
    nm, blocks = len(m_list), p.cell_blocks @ q
    y = _powers_of(c, [*m_list, *k_list])[:, rows, None] * blocks
    grams = _adjoint(blocks) @ y
    base = _norms(y[:nm] - blocks * _powers_of(omega_cells.ravel(), m_list).reshape(nm, *omega_cells.shape)[:, :, None])
    # In B' coordinates Up = (I + Fc' diag(e^{i tau_c} - 1) Fc'*) diag(omega) with Fc' = diag(Q_k*) Fc, and
    # Tr{P Up^m (e^{iA} - e^{iAp}) U0^k} = Tr{Y_k (Up^m X)} with B'* e^{iA} U0^k B' - e^{iAp} B'* U0^k B' = X Y_k:
    # X = [(F*B')* (e^{i tau} - 1), -Fc' (e^{i tau_c} - 1)], Y_k = [F* c^k B'; Fc'* diag(B'_k* c^k B'_k)].
    f_cells = _adjoint(f[rows])
    fc_q, omega = _to_columns(p, fc_cells), _to_columns(p, omega_cells)
    fb_q = _seed_rows(p, f, blocks)
    x = np.concatenate([_exp_step(fb_q.conj().T, tau), -_exp_step(fc_q, tau_c)], axis=1)
    ys = np.concatenate([_slot_rows(p, f_cells @ y[nm:]), _slot_rows(p, _adjoint(fc_cells) @ grams[nm:])], axis=1)
    # B'* U^m B' - Up^m = diag(grams_m - omega^m) + sum_j [B'* G_j, -Gc_j] [R_j; Rc_j] from the two
    # telescoped streams, and Up^m X = omega^m X + sum_j Gc_j (Rc_j X): one r x r matrix per m.
    omega_m = _powers_of(omega, m_list)
    diff = _scatter(cols, cols, grams[:nm], (p.rank, p.rank))
    diff[:, np.arange(p.rank), np.arange(p.rank)] -= omega_m
    diff, up_x = dict(zip(m_list, diff)), dict(zip(m_list, omega_m[:, :, None] * x))
    ambient, per = _ambient_stream(p, c, f, tau, blocks), _per(max(tau.size, tau_c.size))
    compressed = _diagonal_stream(omega, fc_q, tau_c)
    for sign in (1, -1):
        signed = [m for m in diff if sign * m > 0]
        for (g, r_amb), (gc, r_c) in zip(_telescoped(*ambient, signed, per), _telescoped(*compressed, signed, per)):
            g = _to_columns(p, _adjoint(blocks) @ g[rows])
            for m in r_amb:
                a_m, c_m = r_amb[m].shape[0], r_c[m].shape[0]
                diff[m] += np.concatenate([g[:, :a_m], -gc[:, :c_m]], axis=1) @ np.concatenate([r_amb[m], r_c[m]])
                up_x[m] += gc[:, :c_m] @ (r_c[m] @ x)
    for m, value in zip(m_list, base):
        checks.append(_check(f"base_power_error[{m}]", value, 2 * abs(m) * eps))
        bound = 2 * abs(m) * eps * ((abs(m) - 1) * np.exp(a_op) + abs(m) + 1)
        checks.append(_check(f"pert_power_error[{m}]", hs_norm(diff[m]), bound))
    mixed_bound = 4.0 * eps * eps * np.exp(a_op)
    for m in m_list:
        for k, value in zip(k_list, np.abs(np.einsum("kaj,ja->k", ys, up_x[m]))):
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
    inst = _instance(h0, a)
    _require_polynomial(p)
    cell_counts = _listed(cell_counts, "cell counts")
    if not cell_counts or not all(_is_whole(n, 1) for n in cell_counts):
        raise BadWindow("need at least one cell count, each a positive whole number")
    if inst.eigenvalues.shape[0] < 4 * max(cell_counts):
        raise PartitionTooFine("ambient dimension must be at least 4x the finest partition")
    half_width = float(np.max(np.abs(inst.eigenvalues))) * (1.0 + 1e-12) + 1e-15
    full = _thin_lhs(_cayley_values(inst.eigenvalues, phase), inst.f, inst.tau, p)
    f, rows = _padded(inst.f), []
    for n in sorted(cell_counts):
        proj = _window_basis(inst, half_width, n)
        _, omega, _, tau_c, fc_cells = _compressed(proj, _seed_rows(proj, f, proj.cell_blocks), inst.tau, phase)
        compressed = _thin_lhs(_to_columns(proj, omega), _to_columns(proj, fc_cells), tau_c, p)
        rows.append(ConvergenceRow(int(n), proj.rank, compressed, abs(full - compressed)))
    return ConvergenceStudy(full_trace=full, rows=tuple(rows))


def _thin_lhs(s: np.ndarray, f: np.ndarray, tau: np.ndarray, p: TrigPolynomial) -> complex:
    """Left side Tr{p(X) - p(S) - d/dt p(e^{itH} S)|_0} of X = e^{iH} S, H = F diag(tau) F*, S = diag(s), F orthonormal.

    X = (I + F diag(e) F*) S with e = e^{i tau} - 1, so ``_telescoped`` gives
    Tr(X^n - S^n) = sum_{j<n} tr((X^j F) diag(e) (F* S^{n-j})), and its mirror
    for n < 0, and i n Tr(H S^n) = i n sum_l tau_l f_l* S^n f_l: no square
    matrix, O(|n| N L^2) per mode n for N rows of F.
    """
    modes, coeffs = _coefficients([p])
    traces = dict.fromkeys(modes.tolist(), 0.0)
    for sign in (1, -1):
        for g, right in _telescoped(*_diagonal_stream(s, f, tau), [n for n in traces if sign * n > 0], _per(tau.size)):
            for n, r in right.items():
                traces[n] += np.einsum("ia,ai->", g[:, : r.shape[0]], r)
    derivative = 1j * modes * (_powers_of(s, modes) @ (np.abs(f) ** 2 @ tau))
    return complex((coeffs @ (np.array(list(traces.values())) - derivative))[0])


def spread_diagonal(dim: int, half_width: float) -> np.ndarray:
    """Diagonal Hermitian with spectrum equidistributed strictly inside (-a, a)."""
    levels = -half_width + (np.arange(dim) + 0.5) * (2.0 * half_width / dim)
    return np.diag(levels.astype(np.complex128))


def random_low_rank_hermitian(rng: np.random.Generator, dim: int, rank: int, scale: float) -> np.ndarray:
    """Hermitian of exact rank ``rank`` with operator norm ``scale``."""
    q, taus = _low_rank_pairs(rng, dim, rank, scale)
    return (q * taus) @ q.conj().T


def _low_rank_pairs(rng: np.random.Generator, dim: int, rank: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs (Q, tau) that ``random_low_rank_hermitian`` draws: orthonormal Q, max |tau| = ``scale``."""
    z = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))) / np.sqrt(2.0)
    q, _ = np.linalg.qr(z)
    taus = rng.uniform(0.4, 1.0, rank) * rng.choice([-1.0, 1.0], rank)
    taus *= scale / np.max(np.abs(taus))
    return q, taus


@dataclass(frozen=True)
class ReductionInstance:
    h0: np.ndarray
    a: np.ndarray
    phase: float
    u0: np.ndarray
    u: np.ndarray
    half_width: float


_MAX_AMBIENT = 4096  # an instance holds four ambient x ambient matrices


def reduction_instance(seed: int, ambient: int, rank: int, scale: float, phase: float = 0.0) -> ReductionInstance:
    """Seeded ambient model: H0 equidistributed in (-1, 1) and a low-rank direction, at most ``_MAX_AMBIENT``."""
    _require_draw(seed, scale)
    if not (_is_whole(rank, 1) and _is_whole(ambient, rank)):
        raise DimensionMismatch(f"need whole sizes 1 <= rank <= ambient, got rank {rank!r} and ambient {ambient!r}")
    if ambient > _MAX_AMBIENT:
        raise UnishiftError(f"ambient must be at most {_MAX_AMBIENT}, not {ambient}")
    rng = np.random.default_rng(seed)
    h0 = spread_diagonal(ambient, 1.0)
    q, tau = _low_rank_pairs(rng, ambient, rank, scale)
    u0 = np.diag(_cayley_values(np.diagonal(h0).real, phase))
    return ReductionInstance(h0=h0, a=(q * tau) @ q.conj().T, phase=phase, u0=u0, u=_low_rank_endpoint(q, tau, u0),
                             half_width=1.0)
