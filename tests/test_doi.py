import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from unishift import (
    DimensionMismatch,
    TrigPolynomial,
    doi_apply,
    hs_norm,
    random_pair,
    schur_bound_check,
    unitary_eig,
)
from unishift.doi import circle_function_of, kernel, primitive_of, sampled_sup_norm
from unishift.linalg import haar_unitary
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
        p = TrigPolynomial({1: 1.0, -1: 1.0})  # 2 cos t
        assert sampled_sup_norm(p) == pytest.approx(2.0, abs=1e-6)
