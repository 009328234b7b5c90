"""The spectral shift profile eta and exact integration against its jumps.

For a pair U0, U = e^{iA} U0 the profile is

    eta(t) = integral over s in [0, 1] of  Tr{ A [E_0(t) - E_s(t)] },

where E_s is the cumulative spectral projection of U_s = e^{isA} U0.  For a
fixed s the integrand is a right-continuous step function of t that starts
at 0 and jumps exactly at the eigenangles of U0 and U_s, by +-v*Av for the
unit eigenvector v.  Only the s-integral is approximated, with
Gauss-Legendre nodes, so eta itself is a step function described by one
flat list of (angle, weight) jumps.

``EtaIntegrator`` builds that list in the eigenbasis A = V L V*.  There
U_s is unitarily similar to e^{isL} M with M = V* U0 V, a row scaling of
one fixed matrix, so one Ritz pass (``linalg._spectra``) over the stack of
s = 0 (U0 itself) and every node, in blocks of at most ``_BLOCK``
entries, gives all the eigenangles: per block one stacked eigh of the
Hermitian parts and two products for the Ritz values.  The small coupled
blocks (mirror pairs theta, -theta) of every block are kept and solved
together once the last block is read, in one Cayley solve per run length
for the whole integrator.  For an eigencolumn y of e^{isL} M the
eigenvector of U_s is v = V y, and its weight v*Av = sum_j L_j |y_j|^2 is
real by construction; no product with A is formed, and no eigenvector is
kept: each node's (angle, weight) pairs are sorted by angle.  Every t-integral
is then a closed-form sum over the jumps (summation by parts): for any f
whose derivative f' is known on the circle,

    integral of f''(t) eta(t) dt = -sum_k w_k (f'(theta_k) - f'(2pi)),

one O(jumps) sum with no truncation; f = e^{irt} gives the right side of the
trace identity per Fourier mode, -ir sum_k w_k (e^{ir theta_k} - 1), as one
array aligned with the modes asked for (``curvature_pairings``).

The reduced s-integrand behind the trace identity is analytic in s, so those
integrals converge geometrically even though the pointwise profile on a
t-grid converges only first order in the node count.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMatrix, UnishiftError, _is_mode, _is_whole
from .linalg import _BLOCK, TWO_PI, UnitaryPath, _spectra
from .quadrature import as_rule

_MAX_GRID = 10**6  # a profile holds three grid-long columns


@dataclass(frozen=True)
class EtaProfile:
    """Gridded shift profile, its centred version and the exact L1 size of the latter.

    ``eta0`` subtracts the exact mean of the quadrature mixture.  ``l1_eta0``
    is the integral of |eta - mean| over [0, 2pi], a sum over the jump list
    that does not depend on the grid.
    """

    grid: np.ndarray
    eta: np.ndarray
    eta0: np.ndarray
    l1_eta0: float


class EtaIntegrator:
    """The jumps of eta for one pair (U0, A), shared across queries.

    ``jump_angles`` and ``jump_weights`` are eta's flat jump list: the U0
    jumps first and once, scaled by the weight sum, then every node's jumps
    times minus its weight.  ``node_angles`` and ``node_weights`` keep the
    unweighted (1 + nodes, d) jump data from the eigenbasis of A (see the
    module docstring): row 0 is U0 (s = 0), row j + 1 the U_s of node j.

    Building the object validates U0 and A once, through its ``path`` (a
    ``UnitaryPath``, which also checks endpoints), and takes the rows'
    spectra in stacked blocks (0x0 operands raise ``EmptyMatrix``); the
    profile, its mean and the pairings against f''
    are sums over the jump list, exact in t.  Every step is deterministic,
    so repeated runs are bit-identical.
    """

    def __init__(self, u0, a, rule=None):
        self.rule = as_rule(rule)
        self.path = UnitaryPath(u0, a)
        self.u0, self.a = self.path.u0, self.path.a
        spectrum = self.path.direction_spectrum
        m = self.path.vstar_u0 @ spectrum.vectors
        if m.shape[0] == 0:
            raise EmptyMatrix("the pair is 0x0 and has no spectrum")
        s = np.concatenate([[0.0], self.rule.nodes])
        per_block = max(1, _BLOCK // m.size)
        blocks = (np.exp(1j * np.multiply.outer(s[start:start + per_block], spectrum.eigenvalues))[:, :, None] * m
                  for start in range(0, s.size, per_block))
        self.node_angles, self.node_weights = _spectra(blocks, spectrum.eigenvalues)
        w = self.rule.weights
        self.jump_angles = self.node_angles.ravel()
        self.jump_weights = (np.concatenate([[np.sum(w)], -w])[:, None] * self.node_weights).ravel()

    def _steps(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted jump angles and eta's levels: level k holds from angle k - 1 to angle k, edges 0 and 2pi."""
        order = np.argsort(self.jump_angles, kind="stable")
        return self.jump_angles[order], np.concatenate([[0.0], np.cumsum(self.jump_weights[order])])

    def eta(self, t) -> np.ndarray:
        """Profile values at t: cumulative jump weights over angles <= t."""
        angles, levels = self._steps()
        return levels[np.searchsorted(angles, np.asarray(t, dtype=float), side="right")]

    def mean(self) -> float:
        """Mean of eta over [0, 2pi]: each jump holds from its angle to 2pi."""
        return float(np.sum(self.jump_weights * (TWO_PI - self.jump_angles))) / TWO_PI

    def pairing(self, fprime) -> complex:
        """Integral of f'' against eta, exact in t, from f' on the circle.

        Each jump w_k holds from theta_k to 2pi, so summation by parts gives
        -sum_k w_k (f'(theta_k) - f'(2pi)); ``fprime`` maps an array of
        angles to the values of f' there.
        """
        return complex(-((fprime(self.jump_angles) - fprime(TWO_PI)) @ self.jump_weights))

    def curvature_pairings(self, rs) -> np.ndarray:
        """``pairing`` for f' = ir e^{irt} for each whole-number mode r in ``rs``, in that order, in blocks of modes.

        The -1 in -ir sum_k w_k (e^{ir theta_k} - 1) is the upper edge 2pi; keeping it makes
        each sum exact without relying on the jump weights cancelling to zero.
        """
        if not (isinstance(rs, Iterable) and all(map(_is_mode, rs := list(rs)))):
            raise UnishiftError("modes must be an iterable of whole numbers within int64")
        rs = np.array(rs, dtype=np.int64)
        out = np.empty(rs.shape, dtype=np.complex128)
        per_block = max(1, _BLOCK // self.jump_angles.size)
        for start in range(0, rs.size, per_block):
            r = rs[start:start + per_block]
            phases = np.exp(1j * np.multiply.outer(r, self.jump_angles))
            out[start:start + per_block] = -1j * r * ((phases - 1.0) @ self.jump_weights)
        return out

    def profile(self, grid_size: int) -> EtaProfile:
        """eta, eta0 and the exact L1 size of eta0 on a uniform grid of 2 to ``_MAX_GRID`` points over [0, 2pi]."""
        if not _is_whole(grid_size, 2):
            raise UnishiftError(f"grid must be a whole number of points, at least 2, not {grid_size!r}")
        if grid_size > _MAX_GRID:
            raise UnishiftError(f"grid must be at most {_MAX_GRID}, not {grid_size}")
        angles, levels = self._steps()
        grid = np.linspace(0.0, TWO_PI, grid_size)
        eta = levels[np.searchsorted(angles, grid, side="right")]
        mean = self.mean()
        gaps = np.diff(np.concatenate([[0.0], angles, [TWO_PI]]))
        return EtaProfile(grid=grid, eta=eta, eta0=eta - mean, l1_eta0=float(np.abs(levels - mean) @ gaps))


def eta_profile(u0, a, grid_size: int, s_rule=None) -> EtaProfile:
    """Gridded eta and centred eta0 for the pair (U0, A)."""
    return EtaIntegrator(u0, a, s_rule).profile(grid_size)

