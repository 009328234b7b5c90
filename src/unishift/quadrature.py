"""Gauss-Legendre rules on [0, 1] for the coupling-constant integral."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnishiftError, _is_whole

DEFAULT_S_NODES = 64
_MAX_S_NODES = 4096  # leggauss diagonalises a dense n x n matrix: 128 MiB and seconds at 4096 nodes


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on [0, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def count(self) -> int:
        return self.nodes.shape[0]


def gauss_legendre(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule mapped from [-1, 1] to [0, 1].

    The symmetric raw rule integrates s exactly, so sum(w * s) = 1/2 to
    rounding; several bounds downstream rely on that.  Rules are cached by
    node count, so the returned arrays are shared and read-only.  More than
    ``_MAX_S_NODES`` nodes is an error, raised before anything is allocated.
    """
    if not _is_whole(n, 1):
        raise UnishiftError(f"need a whole number of nodes, at least one, not {n!r}")
    if n > _MAX_S_NODES:
        raise UnishiftError(f"at most {_MAX_S_NODES} Gauss-Legendre nodes, not {n}")
    return _legendre_rule(int(n))


@lru_cache(maxsize=32)
def _legendre_rule(n: int) -> QuadratureRule:
    """``gauss_legendre(n)``, built once per node count; its arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


def as_rule(rule) -> QuadratureRule:
    """Accept a QuadratureRule (returned with float64 arrays), a node count, or None (package default)."""
    if rule is None:
        return gauss_legendre(DEFAULT_S_NODES)
    if isinstance(rule, QuadratureRule):
        try:
            nodes, weights = np.asarray(rule.nodes), np.asarray(rule.weights)
        except ValueError as exc:  # ragged
            raise UnishiftError(f"quadrature nodes and weights must be arrays: {exc}") from exc
        kinds = {nodes.dtype.kind, weights.dtype.kind}
        if kinds - set("iuf") or nodes.ndim != 1 or nodes.shape != weights.shape or not nodes.size:
            raise UnishiftError("quadrature nodes and weights must be real 1-d arrays of the same non-zero length")
        if not (np.all((nodes >= 0.0) & (nodes <= 1.0)) and np.isfinite(weights).all()):  # NaN nodes fail too
            raise UnishiftError("quadrature nodes must lie in [0, 1] and weights be finite")
        return QuadratureRule(*(x.astype(np.float64, copy=False) for x in (nodes, weights)))
    if _is_whole(rule):
        return gauss_legendre(int(rule))
    raise UnishiftError(f"cannot interpret {rule!r} as a quadrature rule")
