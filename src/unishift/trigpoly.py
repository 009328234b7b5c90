"""Trigonometric (Laurent) polynomials on the unit circle.

A polynomial is a finite map from whole-number modes n, within int64, to
finite numeric coefficients a_n (never a bool or a string), acting as
z -> sum a_n z^n on |z| = 1.  The weight sum(n^2 |a_n|) controls membership
in the class to which the trace identity extends from monomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Number

import numpy as np

from .errors import UnishiftError, _is_mode


@dataclass(frozen=True)
class TrigPolynomial:
    coeffs: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        if not (isinstance(self.coeffs, dict) and all(map(_is_mode, self.coeffs))):
            raise UnishiftError("a trigonometric polynomial maps whole-number modes within int64 to coefficients")
        if not all(isinstance(a, Number) and not isinstance(a, bool) for a in self.coeffs.values()):
            raise UnishiftError("trigonometric polynomial coefficients must be numbers, never a bool or a string")
        clean = {int(n): complex(a) for n, a in self.coeffs.items() if a != 0}
        if not np.isfinite(np.fromiter(clean.values(), np.complex128, len(clean))).all():
            raise UnishiftError("trigonometric polynomial coefficients must be finite")
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def monomial(cls, n: int) -> "TrigPolynomial":
        return cls({n: 1.0})

    def items(self):
        """Coefficient pairs in ascending n, for reproducible iteration."""
        return sorted(self.coeffs.items())

    @property
    def support(self) -> list[int]:
        return sorted(self.coeffs)

    @property
    def degree(self) -> int:
        return max((abs(n) for n in self.coeffs), default=0)

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        out = np.zeros_like(z)
        for n, a in self.items():
            out = out + a * z**n
        return out if out.ndim else complex(out)

    def at_angle(self, t):
        return self(np.exp(1j * np.asarray(t)))


def _require_polynomial(p, what: str = "polynomial") -> TrigPolynomial:
    """``p`` itself if it is a ``TrigPolynomial``, else ``UnishiftError``."""
    if not isinstance(p, TrigPolynomial):
        raise UnishiftError(f"{what} must be a TrigPolynomial, not {type(p).__name__}")
    return p


def random_trig_polynomial(rng: np.random.Generator, max_degree: int) -> TrigPolynomial:
    """Random polynomial with coefficients damped like 1 / (1 + |n|^2)."""
    coeffs = {}
    for n in range(-max_degree, max_degree + 1):
        re, im = rng.standard_normal(2)
        coeffs[n] = (re + 1j * im) / (1.0 + abs(n) ** 2)
    return TrigPolynomial(coeffs)
