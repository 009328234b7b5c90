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

Each public entry point checks its operands once, in one private check,
and everything behind it trusts them.  At the ambient size (the
projection's, or else the first operand's) H0 and A pass
``require_hermitian`` and U0 and U ``as_matrix``, read in place; each seed
must be a vector of that length (``DimensionMismatch``).  The audits check
U against e^{iA} U0 from A's kept pairs (``PathMismatch``), and the phase,
half-width, horizon T >= 0 and samples in [-T, T] must be finite.

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
and the mixed-trace factors all work on d x L factors, and each mixed trace
is an elementwise sum, not the trace of a product.

Every other ambient step acts on the d x r orthonormal columns B of the
projection (r = rank P).  No dense power of U0 or U is formed: the powers
are streamed as U^m B by the same generator that serves the left side of
the trace identity, one product U Y (or U* Y) per step, and an off-block
norm ||P_perp X P||_2 is ||Y - B(B* Y)||_2 for Y = X B.  The resolvent
checks solve (i +- H0) Y = B instead of inverting, the compressed powers
are streamed from the r x r identity, and the mixed-trace factors read
F* (U0^k B).

The basis itself comes from one SVD per cell.  The pieces of the seeds in
different cells lie on disjoint sets of eigenvectors of H0, so they are
orthogonal; in each cell's eigen-coordinates the pieces of norm above
``GS_DROP_TOL``, normalised, give their left singular vectors of singular
value above that tolerance, which the cell's eigencolumns map back.

``convergence_study`` checks and decomposes H0 and A once for its whole
ladder, and builds and traces every rung's pair without checking it again.
Nothing is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadWindow,
    DimensionMismatch,
    MissingConstruction,
    PartitionTooFine,
    PathMismatch,
    SampleOutOfRange,
    UnishiftError,
    UnnormalisedSeed,
    ZeroDirection,
    _is_whole,
)
from .linalg import (
    HermitianDecomposition,
    _as_array,
    _eigh,
    _power_stream,
    _require_draw,
    _require_small,
    as_matrix,
    herm_eig,
    hs_norm,
    require_hermitian,
    trace_norm,
)
from .trace_formula import _exp_remainder_factor, _lhs
from .trigpoly import TrigPolynomial

GS_DROP_TOL = 1e-12
AUDIT_SLACK = 1e-10


def cayley_inverse(h0, phase: float) -> np.ndarray:
    """Unitary e^{i phase} (i - H0)(i + H0)^{-1} from a Hermitian H0."""
    (h0,) = _ambient_operands(None, h0=h0)
    return _cayley(h0, phase)


def _cayley(h0: np.ndarray, phase: float) -> np.ndarray:
    """``cayley_inverse`` of an H0 that is already a Hermitian complex matrix; the phase must be finite."""
    if not -np.inf < phase < np.inf:  # NaN fails too
        raise UnishiftError(f"phase must be a finite real number, not {phase!r}")
    eye = 1j * np.eye(h0.shape[0])
    return np.exp(1j * phase) * np.linalg.solve(eye + h0, eye - h0)


@dataclass(frozen=True)
class WindowParams:
    """Construction record: seed count L, half-width a, cell count n, eps = L a / sqrt(n)."""

    count: int
    half_width: float
    cells: int
    eps: float


@dataclass(frozen=True)
class ProjectionBasis:
    """Orthonormal columns spanning ran P, with the inputs that built it."""

    ambient_dim: int
    columns: np.ndarray
    directions: np.ndarray
    params: WindowParams | None = None

    @property
    def rank(self) -> int:
        return self.columns.shape[1]


def _offblock(b: np.ndarray, y: np.ndarray) -> float:
    """||Y - B(B*Y)||_2: the part of Y outside ran B (for Y = X B, ||P_perp X P||_2)."""
    return hs_norm(y - b @ (b.conj().T @ y))


def build_projection(h0, vectors, half_width: float, cells: int) -> ProjectionBasis:
    """Span of the spectral-cell pieces of the seed vectors.

    The window (-a, a] splits into ``cells`` half-open intervals; each seed
    f_l contributes the normalised projection of f_l onto every cell it
    meets.  A seed leaking past the window by more than eps = L a / sqrt(n)
    is an error, since every off-block estimate downstream assumes capture.
    """
    h0, f = _ambient_operands(None, h0=h0, seeds=vectors)
    return _window_basis(herm_eig(h0, check=False), f, half_width, cells)


def _window_basis(dec: HermitianDecomposition, f: np.ndarray, half_width: float, cells: int) -> ProjectionBasis:
    """``build_projection`` from the eigendecomposition of H0 and the seeds as columns."""
    dim, count = f.shape
    if count == 0:
        raise ZeroDirection("no seed vectors to project (a zero direction gives none)")
    lengths = np.linalg.norm(f, axis=0)
    if not np.all(np.abs(lengths - 1.0) <= 1e-10):  # NaN lengths fail too
        raise UnnormalisedSeed("seed vectors must be finite and normalised")
    if not (_is_whole(cells, 1) and cells < 2**63 and 0.0 < half_width < np.inf):  # NaN fails too
        raise BadWindow("need a finite positive window and a whole number of cells within int64, at least one")
    eps = count * half_width / np.sqrt(cells)
    coords = dec.vectors.conj().T @ f  # eigenbasis coordinates of the seeds
    inside = (dec.eigenvalues > -half_width) & (dec.eigenvalues <= half_width)
    leak = np.linalg.norm(np.where(inside[:, None], 0.0, coords), axis=0)
    if np.any(leak >= eps):
        worst = float(np.max(leak))
        raise BadWindow(f"a seed vector leaks {worst:.3e} outside the window (eps {eps:.3e})")
    cell_index = _cells_of(dec.eigenvalues, half_width, cells)
    # Pieces from different cells lie on disjoint sets of eigenvectors, so they
    # are orthogonal: one SVD per occupied cell on the eigen-coordinates of its
    # kept normalised pieces, and the cell's eigencolumns map the result back.
    blocks = [np.zeros((dim, 0), dtype=np.complex128)]
    for k in np.unique(cell_index[inside]):
        rows = (cell_index == k) & inside
        pieces = coords[rows, :]
        norms = np.linalg.norm(pieces, axis=0)
        kept = norms > GS_DROP_TOL
        left, values, _ = np.linalg.svd(pieces[:, kept] / norms[kept], full_matrices=False)
        blocks.append(dec.vectors[:, rows] @ left[:, values > GS_DROP_TOL])
    return ProjectionBasis(
        ambient_dim=dim,
        columns=np.concatenate(blocks, axis=1),
        directions=f,
        params=WindowParams(count=count, half_width=half_width, cells=cells, eps=float(eps)),
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


def build_direction_projection(h0, a, half_width: float, cells: int) -> ProjectionBasis:
    """Window projection seeded by the eigenvectors of the low-rank direction A."""
    h0, a = _ambient_operands(None, h0=h0, a=a)
    f, _, _ = _kept_pairs(a)
    return _window_basis(herm_eig(h0, check=False), f, half_width, cells)


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


def _ambient_operands(p: ProjectionBasis | None, **operands) -> list[np.ndarray]:
    """The one operand check: each operand as a complex array, in the order given.

    The ambient size is the projection's, or without one the first
    operand's.  Every operand passes ``as_matrix`` at that size, ``h0`` and
    ``a`` through ``require_hermitian``, except ``seeds``, a list of vectors
    of that length returned as columns (``DimensionMismatch``).
    """
    dim = None if p is None else p.ambient_dim
    out = []
    for name, x in operands.items():
        if name == "seeds":
            f = [_as_array(v, copy=None) for v in x]
            if any(v.shape != (dim,) for v in f):
                raise DimensionMismatch(f"seeds must be vectors of the ambient length {dim}")
            out.append(np.column_stack(f) if f else np.zeros((dim, 0), dtype=np.complex128))
        else:  # require_hermitian copies; U0 and U are only read
            x = require_hermitian(x, name, dim) if name in ("h0", "a") else as_matrix(x, name, dim, copy=None)
            dim = x.shape[0]
            out.append(x)
    return out


def _audit_frame(p: ProjectionBasis, powers, t_max: float = 0.0, **operands):
    """eps and the columns B of an audited projection, and its operands (see ``_ambient_operands``).

    Every audited power must be a whole number and T a finite number >= 0 (``UnishiftError``).
    """
    if p.params is None:
        raise MissingConstruction("projection carries no construction record to audit")
    for m in powers:
        if not _is_whole(m):
            raise UnishiftError(f"audited powers must be whole numbers, not {m!r}")
    if not 0.0 <= t_max < np.inf:  # NaN fails too
        raise UnishiftError(f"the audit horizon T must be a finite number >= 0, not {t_max!r}")
    return p.params.eps, p.columns, _ambient_operands(p, **operands)


def _direction_factors(a, b: np.ndarray, u0: np.ndarray, u: np.ndarray):
    """A's kept pairs (F, tau), ||A||, P_perp F = F - B(B* F) and F* B, once U is e^{iA} U0 within d 1e-10.

    F* is a co-isometry, so it drops out of the Hilbert-Schmidt norms of
    P_perp A = P_perp F tau F* and P_perp e^{itA} P = P_perp F (e^{it tau} - 1) F* P.
    """
    f, tau, a_op = _kept_pairs(a)
    _require_small(u - _low_rank_endpoint(f, tau, u0), u.shape[0] * 1e-10, PathMismatch, "U deviates from e^(iA) U0")
    return f, tau, a_op, f - b @ (b.conj().T @ f), f.conj().T @ b


def _check(name: str, value: float, bound: float) -> BoundCheck:
    return BoundCheck(name=name, value=float(value), bound=float(bound), ok=bool(value <= bound + AUDIT_SLACK))


def audit_projection_estimates(p: ProjectionBasis, h0, u0, m_list) -> AuditReport:
    """Off-block estimates of the window projection against eps = L a / sqrt(n).

    Checks, in order: seed capture ||P_perp f_l||, the window operator
    ||P_perp H0 P||_2, both resolvents ||P_perp (i +- H0)^{-1} P||_2, and the
    unitary powers ||P_perp U0^m P||_2 <= 2|m| eps.
    """
    eps, b, (h0, u0) = _audit_frame(p, m_list, h0=h0, u0=u0)
    checks = []
    for l in range(p.directions.shape[1]):
        checks.append(_check(f"seed_capture[{l}]", _offblock(b, p.directions[:, l]), eps))
    checks.append(_check("window_offblock", _offblock(b, h0 @ b), eps))
    eye = 1j * np.eye(p.ambient_dim)
    checks.append(_check("resolvent_plus", _offblock(b, np.linalg.solve(eye + h0, b)), eps))
    checks.append(_check("resolvent_minus", _offblock(b, np.linalg.solve(eye - h0, b)), eps))
    base = dict(_power_stream(u0, m_list, b))
    for m in m_list:
        checks.append(_check(f"base_power[{m}]", _offblock(b, base[int(m)]), 2 * abs(m) * eps))
    return AuditReport(label="window-projection", eps=eps, checks=tuple(checks))


def audit_perturbation_estimates(p: ProjectionBasis, u0, u, a, t_max: float, m_list, t_samples) -> AuditReport:
    """Off-block estimates involving the perturbation direction.

    Checks ||P_perp A||_2 < 2 eps, the propagator ||P_perp e^{itA} P||_2
    < 2 T e^{T ||A||} eps over the sample grid, the base powers, and the
    perturbed powers ||P_perp U^m P||_2 < 2|m| (e^{||A||} + 1) eps.
    """
    eps, b, (u0, u, a) = _audit_frame(p, m_list, t_max, u0=u0, u=u, a=a)
    _, tau, a_op, f_perp, fb = _direction_factors(a, b, u0, u)
    checks = [_check("direction_offblock", hs_norm(f_perp * tau), 2 * eps)]
    propagator_bound = 2.0 * t_max * np.exp(t_max * a_op) * eps
    for t in t_samples:
        if not abs(t) <= t_max + 1e-12:  # NaN fails too
            raise SampleOutOfRange("propagator samples must stay within [-T, T]")
        value = hs_norm(_exp_step(f_perp, tau, float(t)) @ fb)
        checks.append(_check(f"propagator[t={float(t):+.3f}]", value, propagator_bound))
    base, pert = dict(_power_stream(u0, m_list, b)), dict(_power_stream(u, m_list, b))
    pert_factor = 2.0 * (np.exp(a_op) + 1.0) * eps
    for m in m_list:
        m = int(m)
        checks.append(_check(f"base_power[{m}]", _offblock(b, base[m]), 2 * abs(m) * eps))
        checks.append(_check(f"pert_power[{m}]", _offblock(b, pert[m]), abs(m) * pert_factor))
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
    which is what makes rank-coordinates legitimate.  H0 and A must be
    Hermitian and of the projection's ambient size.
    """
    h0, a = _ambient_operands(p, h0=h0, a=a)
    return _compressed(p, h0, a, phase)


def _compressed(p: ProjectionBasis, h0: np.ndarray, a: np.ndarray, phase: float) -> CompressedModel:
    """``compressed_model`` of operands that passed the check."""
    b = p.columns
    hc, ac = b.conj().T @ h0 @ b, b.conj().T @ a @ b
    hc = 0.5 * (hc + hc.conj().T)
    ac = 0.5 * (ac + ac.conj().T)
    u0p = _cayley(hc, phase)
    fc, tau_c, _ = _kept_pairs(ac)
    up = _low_rank_endpoint(fc, tau_c, u0p)
    return CompressedModel(u0p=u0p, ap=ac, up=up, phase=phase, ap_vectors=fc, ap_values=tau_c)


def audit_compressed_model(
    p: ProjectionBasis, h0, a, u0, u, phase: float, t_max: float, m_list, k_list
) -> AuditReport:
    """Error bounds for replacing the ambient pair by its compressed model.

    Covers the six displayed quantities: the rank-one-step exponentials
    ||P_perp (e^{iA} - I)||_2 and ||(e^{isA} - e^{isAp}) P||_2 (at 21 equally
    spaced s in [-T, T]), the trace-norm remainder
    ||P_perp (e^{iA} - iA - I)||_1, the power errors
    ||(U0^m - U0p^m) P||_2 and ||P (U^m - Up^m) P||_2, and the mixed traces
    |Tr{ P Up^m (e^{iA} - e^{iAp}) U0^k }|.
    """
    eps, b, (h0, a, u0, u) = _audit_frame(p, [*m_list, *k_list], t_max, h0=h0, a=a, u0=u0, u=u)
    model = _compressed(p, h0, a, phase)
    f, tau, a_op, f_perp, fb = _direction_factors(a, b, u0, u)
    fc, tau_c = model.ap_vectors, model.ap_values
    # Every exponential is I + F (e^{is tau} - 1) F*, so each quantity below
    # works on d x L factors; F* is a co-isometry and drops out of the norms.
    bfc = b @ fc
    checks = [_check("exp_step_offblock", hs_norm(_exp_step(f_perp, tau)), 2 * eps)]
    worst = 0.0
    for s in np.linspace(-t_max, t_max, 21):
        # e^{isA} B - B e^{isAp} = F (e^{is tau} - 1) F*B - B Fc (e^{is tau_c} - 1) Fc*
        diff = _exp_step(f, tau, float(s)) @ fb - _exp_step(bfc, tau_c, float(s)) @ fc.conj().T
        worst = max(worst, hs_norm(diff))
    checks.append(_check("propagator_vs_compressed", worst, 2 * t_max * eps))
    perp_remainder = _exp_step(f_perp, tau) - f_perp * (1j * tau)
    tr_bound = 2.0 * hs_norm(a) * _exp_remainder_factor(a_op) * eps
    checks.append(_check("taylor_remainder_tracenorm", trace_norm(perp_remainder), tr_bound))
    # U0^m B and U^m B are streamed on the d x r columns; the compressed
    # powers are r x r, streamed from the identity.
    base = dict(_power_stream(u0, [*m_list, *k_list], b))
    base_c = dict(_power_stream(model.u0p, m_list))
    pert, pert_c = dict(_power_stream(u, m_list, b)), dict(_power_stream(model.up, m_list))
    for m in m_list:
        m = int(m)
        value = hs_norm(base[m] - b @ base_c[m])
        checks.append(_check(f"base_power_error[{m}]", value, 2 * abs(m) * eps))
        value = hs_norm(b.conj().T @ pert[m] - pert_c[m])
        bound = 2 * abs(m) * eps * ((abs(m) - 1) * np.exp(a_op) + abs(m) + 1)
        checks.append(_check(f"pert_power_error[{m}]", value, bound))
    # Tr{P Up^m (e^{iA} - e^{iAp}) U0^k} in rank coordinates, where
    # B* e^{iA} U0^k B - e^{iAp} B* U0^k B = (F*B)* (e^{i tau} - 1) F* U0^k B
    #                                         - Fc (e^{i tau_c} - 1) (B Fc)* U0^k B.
    # The factor depends on k only, so it is formed once per k; the trace is
    # the elementwise sum of Up^m and the factor's transpose.
    mixed_bound = 4.0 * eps * eps * np.exp(a_op)
    inners = []
    for k in k_list:
        base_k = base[int(k)]
        inners.append(
            _exp_step(fb.conj().T, tau) @ (f.conj().T @ base_k)
            - _exp_step(fc, tau_c) @ (bfc.conj().T @ base_k)
        )
    for m in m_list:
        for k, inner in zip(k_list, inners):
            value = abs(complex(np.sum(pert_c[int(m)] * inner.T)))
            checks.append(_check(f"mixed_trace[m={int(m)},k={int(k)}]", value, mixed_bound))
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
    h0, a = _ambient_operands(None, h0=h0, a=a)
    cell_counts = list(cell_counts)
    if not cell_counts or not all(_is_whole(n, 1) for n in cell_counts):
        raise BadWindow("need at least one cell count, each a positive whole number")
    if h0.shape[0] < 4 * max(cell_counts):
        raise PartitionTooFine("ambient dimension must be at least 4x the finest partition")
    h0_dec = herm_eig(h0, check=False)
    f, tau, _ = _kept_pairs(a)
    half_width = float(np.max(np.abs(h0_dec.eigenvalues))) * (1.0 + 1e-12) + 1e-15
    u0 = _cayley(h0, phase)
    full = complex(_lhs(u0, _low_rank_endpoint(f, tau, u0), a, p)[0])
    rows = []
    for n in sorted(cell_counts):
        proj = _window_basis(h0_dec, f, half_width, n)
        model = _compressed(proj, h0, a, phase)
        compressed = complex(_lhs(model.u0p, model.up, model.ap, p)[0])
        rows.append(
            ConvergenceRow(
                cells=int(n),
                rank=proj.rank,
                compressed_trace=compressed,
                abs_diff=abs(full - compressed),
            )
        )
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
    u0 = _cayley(h0, phase)
    f, tau, _ = _kept_pairs(a)
    u = _low_rank_endpoint(f, tau, u0)
    return ReductionInstance(h0=h0, a=a, phase=phase, u0=u0, u=u, half_width=1.0)
