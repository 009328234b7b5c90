import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from unishift import (
    DimensionMismatch,
    NoConvergence,
    TrigPolynomial,
    UnishiftError,
    doi_apply,
    hs_norm,
    random_pair,
    schur_bound_check,
    unitary_eig,
)
from unishift import doi
from unishift.doi import circle_function_of, kernel, primitive_of, sampled_sup_norm
from unishift.linalg import TWO_PI, SpectralDecomposition, haar_unitary
from unishift.quadrature import gauss_legendre
from unishift.trigpoly import random_trig_polynomial

seeds = st.integers(0, 2**31 - 1)


class TestPrimitive:
    def test_constant_integrates_to_zero(self):
        g = primitive_of(TrigPolynomial({0: 3.0}))
        assert g.coeffs == {}

    def test_single_harmonic(self):
        # f = e^{it}  ->  g(z) = (z - 1)/i
        g = primitive_of(TrigPolynomial.monomial(1))
        assert g.coeffs[1] == pytest.approx(1.0 / 1j)
        assert g.coeffs[0] == pytest.approx(-1.0 / 1j)
        assert g(1.0) == pytest.approx(0.0, abs=1e-15)

    @given(seeds)
    def test_quadrature_oracle(self, seed):
        # g(e^{it}) must equal the running integral of the mean-zero part of f
        rng = np.random.default_rng(seed)
        f = random_trig_polynomial(rng, 5)
        g = primitive_of(f)
        f0 = TrigPolynomial({n: c for n, c in f.coeffs.items() if n != 0})
        rule = gauss_legendre(200)
        for t in (0.7, 2.0, 5.5):
            nodes = rule.nodes * t
            running = t * np.sum(rule.weights * f0.at_angle(nodes))
            assert g.at_angle(t) == pytest.approx(running, abs=1e-10)

    def test_endpoints_vanish(self):
        rng = np.random.default_rng(3)
        g = primitive_of(random_trig_polynomial(rng, 6))
        assert abs(g.at_angle(0.0)) <= 1e-14
        assert abs(g.at_angle(2 * np.pi)) <= 1e-12


class TestKernel:
    def test_identity_function(self):
        pair = random_pair(0, 4, 1.0)
        k = kernel(TrigPolynomial.monomial(1), unitary_eig(pair.u), unitary_eig(pair.u0))
        np.testing.assert_allclose(k, np.ones((4, 4)), atol=1e-12)

    def test_square_diagonal_limit(self):
        dec = unitary_eig(np.diag([np.exp(0.5j), np.exp(0.5j)]))
        k = kernel(TrigPolynomial.monomial(2), dec, dec)
        np.testing.assert_allclose(np.diag(k), 2 * np.exp(0.5j), atol=1e-12)

    @given(seeds)
    def test_quotient_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = random_trig_polynomial(rng, 4)
        pair = random_pair(seed, 5, 1.0)
        ldec, rdec = unitary_eig(pair.u), unitary_eig(pair.u0)
        k = kernel(g, ldec, rdec)
        zl, zr = np.exp(1j * ldec.angles), np.exp(1j * rdec.angles)
        for j in range(5):
            for m in range(5):
                if abs(zl[j] - zr[m]) >= 1e-8:
                    direct = (g(zl[j]) - g(zr[m])) / (zl[j] - zr[m])
                    assert k[j, m] == pytest.approx(direct, abs=1e-12)

    def test_diagonal_limit_consistency(self):
        # off-diagonal entries at an angle gap of 1e-6 approach the analytic limit
        rng = np.random.default_rng(7)
        g = random_trig_polynomial(rng, 5)
        t = 1.2
        dec_a = unitary_eig(np.array([[np.exp(1j * t)]]))
        dec_b = unitary_eig(np.array([[np.exp(1j * (t + 1e-6))]]))
        off = kernel(g, dec_a, dec_b)[0, 0]
        diag = kernel(g, dec_a, dec_a)[0, 0]
        assert off == pytest.approx(diag, abs=1e-5)


class TestKernelAgainstMpmath:
    """Each monomial's kernel entry against (z^n - w^n) / (z - w), or n z^(n-1) at a gap of 0, at 40 digits."""

    GAPS = [0.0, 1e-12, 1e-10, 9e-9, 1.1e-8, 1e-6, 1e-4, 1e-2, 0.1, 1.0]

    @classmethod
    def angle_pairs(cls):
        """Gaps from 1e-12 to 1 at two angles, and the same gaps across the wrap from 2 pi to 0, both ways."""
        pairs = [(base + gap, base) for base in (0.7, 4.0) for gap in cls.GAPS]
        pairs += [(TWO_PI, gap) for gap in cls.GAPS[1:]] + [(gap, TWO_PI) for gap in cls.GAPS[1:]]
        pairs += [(TWO_PI - gap, 0.03) for gap in cls.GAPS[1:]]
        return np.array(pairs).T

    def test_every_monomial_to_200_at_every_gap(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        lam, mu = self.angle_pairs()
        modes = np.arange(1, 201)
        want = np.empty((2, modes.size, lam.size), dtype=complex)
        for j, (a, b) in enumerate(zip(lam, mu)):
            z, w = mpmath.expj(mpmath.mpf(float(a))), mpmath.expj(mpmath.mpf(float(b)))
            for row, (x, y) in enumerate([(z, w), (1 / z, 1 / w)]):
                xn = yn = mpmath.mpc(1)
                for i, n in enumerate(modes):
                    xn, yn = xn * x, yn * y
                    want[row, i, j] = complex((xn - yn) / (z - w) if a != b else (1 - 2 * row) * n * xn / z)
        left, right = (SpectralDecomposition(t, np.eye(t.size)) for t in (lam, mu))
        for row, sign in enumerate((1, -1)):
            for i, n in enumerate(sign * modes):
                got = np.diagonal(kernel(TrigPolynomial.monomial(int(n)), left, right))
                err = np.abs(got - want[row, i]) / (abs(n) * (1.0 + np.abs(want[row, i])))
                assert err.max() <= 4e-15, (n, lam[err.argmax()], mu[err.argmax()], err.max())


class TestDoiApply:
    def test_constant_gives_zero(self):
        pair = random_pair(1, 4, 1.0)
        out = doi_apply(TrigPolynomial({0: 2.0}), pair.u, pair.u0, pair.u - pair.u0)
        np.testing.assert_allclose(out, np.zeros((4, 4)), atol=1e-12)

    def test_identity_function_returns_x(self):
        pair = random_pair(2, 4, 1.0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = doi_apply(TrigPolynomial.monomial(1), pair.u, pair.u0, x)
        np.testing.assert_allclose(out, x, atol=1e-11)

    @given(seeds, st.integers(1, 12))
    def test_functional_calculus_identity(self, seed, dim):
        rng = np.random.default_rng(seed)
        g = random_trig_polynomial(rng, 5)
        pair = random_pair(seed, dim, 1.3)
        got = doi_apply(g, pair.u, pair.u0, pair.u - pair.u0)
        exact = circle_function_of(g, unitary_eig(pair.u)) - circle_function_of(
            g, unitary_eig(pair.u0)
        )
        assert hs_norm(got - exact) <= 1e-10 * (1 + hs_norm(circle_function_of(g, unitary_eig(pair.u))))

    def test_wrong_shape_raises_dimension_mismatch(self):
        pair = random_pair(3, 4, 1.0)
        g = TrigPolynomial.monomial(2)
        for x in (np.zeros((4, 3)), np.zeros((3, 3)), np.zeros(16), np.zeros((1, 4, 4))):
            with pytest.raises(DimensionMismatch):
                doi_apply(g, pair.u, pair.u0, x)

    def test_unitaries_of_different_sizes_raise_dimension_mismatch(self):
        pair, small = random_pair(3, 4, 1.0), random_pair(3, 3, 1.0)
        with pytest.raises(DimensionMismatch, match="doi right unitary has shape"):
            doi_apply(TrigPolynomial.monomial(2), pair.u, small.u0, np.zeros((4, 3)))

    def test_non_finite_rejected(self):
        pair = random_pair(4, 3, 1.0)
        g = TrigPolynomial.monomial(2)
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            x = pair.u - pair.u0
            x[1, 2] = bad
            with pytest.raises(ValueError, match="NaN or Inf"):
                doi_apply(g, pair.u, pair.u0, x)


class TestSchurBound:
    def test_zero_function(self):
        pair = random_pair(3, 3, 1.0)
        rep = schur_bound_check(TrigPolynomial({}), pair.u, pair.u0)
        assert rep.passed and rep.lhs == pytest.approx(0.0) and rep.rhs == pytest.approx(0.0)

    def test_equal_unitaries(self):
        pair = random_pair(4, 3, 1.0)
        rng = np.random.default_rng(1)
        rep = schur_bound_check(random_trig_polynomial(rng, 4), pair.u0, pair.u0)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.passed

    @given(seeds, st.integers(2, 12))
    def test_random_instances(self, seed, dim):
        rng = np.random.default_rng(seed)
        f = random_trig_polynomial(rng, 6)
        pair = random_pair(seed, dim, 1.5)
        rep = schur_bound_check(f, pair.u, pair.u0)
        assert rep.passed, (rep.lhs, rep.rhs, rep.kernel_sup, rep.kernel_bound)

    def test_dimension_mismatch(self):
        f = TrigPolynomial.monomial(1)
        with pytest.raises(DimensionMismatch):
            schur_bound_check(f, random_pair(0, 3, 1.0).u, random_pair(1, 4, 1.0).u0)

    @staticmethod
    def edge_pairs():
        """(Us, U0) with eigenvalues exactly at 1 and -1, each repeated."""
        d4 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        q = haar_unitary(np.random.default_rng(7), 4)
        return [
            (np.diag([1.0, -1.0, 1.0]).astype(complex), np.diag([1.0, 1.0, -1.0]).astype(complex)),
            (np.eye(3, dtype=complex), -np.eye(3, dtype=complex)),
            (q @ d4 @ q.conj().T, d4),
        ]

    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_edge_spectra(self, degree):
        g = random_trig_polynomial(np.random.default_rng(degree), degree)
        for us, u0 in self.edge_pairs():
            got = doi_apply(g, us, u0, us - u0)
            exact = circle_function_of(g, unitary_eig(us)) - circle_function_of(g, unitary_eig(u0))
            assert hs_norm(got - exact) <= 1e-13
            rep = schur_bound_check(g, us, u0)
            assert rep.passed, (rep.lhs, rep.rhs, rep.kernel_sup, rep.kernel_bound)

    def test_sampled_sup_norm(self):
        p = TrigPolynomial({1: 1.0, -1: 1.0})  # 2 cos t, sampled at its max t = 0
        lower, upper = sampled_sup_norm(p, 4096)
        assert lower == pytest.approx(2.0, abs=1e-12)
        assert upper == pytest.approx(2.0 / (1.0 - np.pi / 4096), abs=1e-12)

    def test_degree_beyond_the_samples_does_not_alias(self):
        """z^4096 reads 1 at 4096 points; sampled at 8 deg points its true sup 2 of z^4096 - 1 is seen."""
        pair = random_pair(0, 4, 1.0)
        rep = schur_bound_check(TrigPolynomial({4096: 1.0, 0: -1.0}), pair.u, pair.u0)
        assert rep.passed, rep
        assert rep.samples == 8 * 4096
        assert rep.f_sup <= 2.0 + 1e-9 and rep.f_sup_upper >= 2.0
        assert rep.rhs == pytest.approx(np.pi * rep.f_sup * hs_norm(pair.u - pair.u0))

    def test_verdict_by_the_ends_of_the_bracket(self, monkeypatch):
        """Pass below the bound from the lower end, fail above the one from the upper end, else NoConvergence."""
        pair = random_pair(5, 6, 1.5)
        f = random_trig_polynomial(np.random.default_rng(5), 6)
        real, sampled = schur_bound_check(f, pair.u, pair.u0), doi.sampled_sup_norm
        ratio = max(real.lhs / real.rhs, real.kernel_sup / real.kernel_bound)
        assert 0.05 < ratio < 1.0
        for scale, verdict in [(1.0, True), (ratio / 1.5, None), (ratio / 3.0, False)]:
            def bracket(p, n, s=scale):  # each sampled max scaled by ``scale``, the upper end twice the lower one
                return s * sampled(p, n)[0], 2.0 * s * sampled(p, n)[0]

            monkeypatch.setattr(doi, "sampled_sup_norm", bracket)
            if verdict is None:
                with pytest.raises(NoConvergence, match="cannot decide"):
                    schur_bound_check(f, pair.u, pair.u0)
            else:
                assert schur_bound_check(f, pair.u, pair.u0).passed is verdict

    @pytest.mark.parametrize("degree", [100_002, 10**6, -(10**12)])
    def test_degree_beyond_the_series_is_refused_before_allocating(self, address_space_cap, degree):
        pair = random_pair(0, 4, 1.0)
        with pytest.raises(UnishiftError, match=f"within \\+-100001, not {degree}$"):
            schur_bound_check(TrigPolynomial({degree: 1.0, 1: 0.5}), pair.u, pair.u0)
