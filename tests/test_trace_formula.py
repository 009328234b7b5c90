import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    abs_sum,
    gateaux_monomial,
    gateaux_series,
    mp_lhs_trace,
    mp_mode_traces,
    polynomial_of,
    power,
    remainder_trace_norm_bound,
    weighted_abs_sum,
)
from unishift import (
    DimensionMismatch,
    EmptyMatrix,
    EtaIntegrator,
    NoConvergence,
    OnUnitCircle,
    PathMismatch,
    TrigPolynomial,
    UnishiftError,
    batch_verify,
    eta_profile,
    gauss_legendre,
    hs_norm,
    lhs_trace,
    op_norm,
    random_pair,
    resolvent_check,
)
from unishift import linalg, reduction_instance, trace_formula
from unishift.reduction import _cayley_values, _instance, _thin_lhs
from unishift.linalg import UnitaryPath, haar_unitary, random_hermitian, trace_norm
from unishift.trace_formula import (
    _MAX_ORDER, _coefficients, _geometric_sums, _lhs_mode_traces, _resolvent_lhs, resolvent_coefficients,
    resolvent_truncation,
)
from unishift.trigpoly import random_trig_polynomial

seeds = st.integers(0, 2**31 - 1)


def central_difference(u0, a, p, s, h):
    path = UnitaryPath(u0, a)
    return (polynomial_of(path.at(s + h), p) - polynomial_of(path.at(s - h), p)) / (2.0 * h)


def curvature_integral(u0, a, p, s_rule=None):
    """Curvature integral of p against eta from the integrator's mode pairings."""
    pairings = dict(zip(p.support, EtaIntegrator(u0, a, s_rule).curvature_pairings(p.support)))
    return complex(sum(c * pairings[n] for n, c in p.items()))


class TestTrigPolynomial:
    def test_weights(self):
        p = TrigPolynomial({2: 1.0, -3: 2.0, 0: 5.0})
        assert abs_sum(p) == pytest.approx(8.0)
        assert weighted_abs_sum(p, 1) == pytest.approx(8.0)
        assert weighted_abs_sum(p, 2) == pytest.approx(22.0)

    def test_evaluation(self):
        p = TrigPolynomial({1: 1.0, -1: 1.0})
        assert p(np.exp(0.4j)) == pytest.approx(2 * np.cos(0.4))

    def test_zero_coefficients_dropped(self):
        assert TrigPolynomial({3: 0.0, 1: 2.0}).support == [1]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TrigPolynomial({1.5: 1.0}),
            lambda: TrigPolynomial({2.0: 1.0}),
            lambda: TrigPolynomial({True: 1.0}),
            lambda: TrigPolynomial({"1": 1.0}),
            lambda: TrigPolynomial([(1, 1.0)]),
            lambda: TrigPolynomial.monomial(2.5),
        ],
        ids=["float", "whole-float", "bool", "string", "list", "monomial-float"],
    )
    def test_modes_must_be_whole_numbers(self, build):
        with pytest.raises(UnishiftError, match="whole-number modes"):
            build()

    def test_numpy_integer_modes_become_ints(self):
        p = TrigPolynomial({np.int64(-2): 1.0, np.int32(3): 2.0})
        assert p.support == [-2, 3] and all(type(n) is int for n in p.coeffs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 1.0)])
    def test_non_finite_coefficient_rejected(self, value):
        with pytest.raises(UnishiftError, match="finite"):
            TrigPolynomial({1: 1.0, 2: value})

    @pytest.mark.parametrize("value", ["1", True, "a", None, [1], np.array(1.0), np.True_])
    def test_coefficients_must_be_numbers(self, value):
        with pytest.raises(UnishiftError, match="must be numbers"):
            TrigPolynomial({0: 1.0, 1: value})

    def test_numpy_and_python_numbers_accepted(self):
        p = TrigPolynomial({0: np.float64(0.5), 1: np.int8(2), 2: np.complex64(1j), 3: 3})
        assert p.coeffs == {0: 0.5, 1: 2.0, 2: 1j, 3: 3.0}


def dense_lhs(pair, polys) -> np.ndarray:
    """The left side of each of ``polys`` for a validated pair, as ``batch_verify`` takes it: C @ the per-mode traces."""
    modes, c = _coefficients(polys)
    return c @ _lhs_mode_traces(pair.u0, pair.u, pair.a, modes)


def lhs_oracle(pair, n: int) -> complex:
    """Tr{ U^n - U0^n - i n A U0^n } from ``np.linalg.matrix_power``."""
    base = power(pair.u0, n)
    return complex(np.trace(power(pair.u, n) - base - 1j * n * pair.a @ base))


class TestSteppedPair:
    """The left side steps the stack (U, U0), one stacked product per mode, against the oracles."""

    @settings(max_examples=25, deadline=None)
    @given(seeds, st.integers(1, 7), st.sets(st.integers(-400, 400), min_size=1, max_size=8))
    def test_lhs_values_match_oracle_on_gapped_modes(self, seed, dim, modes):
        pair = random_pair(seed, dim, 1.0)
        modes = sorted(modes)
        got = _lhs_mode_traces(pair.u0, pair.u, pair.a, modes)
        for n, value in zip(modes, got):
            ref = lhs_oracle(pair, n)
            assert abs(value - ref) <= 1e-12 * (1 + abs(n)) * (1 + abs(ref)), n

    @pytest.mark.parametrize("modes", [[0], [-1, 0, 1], [-7, -3, 0, 2, 9], [5, 1, -5, 5]])
    def test_both_signs_mode_zero_and_dimension_one(self, modes):
        pair = random_pair(3, 1, 1.0)
        got = _lhs_mode_traces(pair.u0, pair.u, pair.a, modes)
        assert got.shape == (len(modes),)
        for n, value in zip(modes, got):
            assert abs(value - lhs_oracle(pair, n)) <= 1e-13, n
        if 0 in modes:
            assert got[modes.index(0)] == 0

    @pytest.mark.parametrize("dim", [1, 6, 8])
    @pytest.mark.parametrize("top", [127, 128, 129, 227, 228, 455])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_highest_mode_and_its_neighbours(self, dim, top, sign):
        pair = random_pair(11, dim, 1.0)
        wanted = [sign * k for k in (1, top - 1, top)]
        got = _lhs_mode_traces(pair.u0, pair.u, pair.a, wanted)
        for n, value in zip(wanted, got):
            ref = lhs_oracle(pair, n)
            assert abs(value - ref) <= 1e-12 * (1 + abs(n)) * (1 + abs(ref)), n

    @pytest.mark.parametrize("dim", [2, 6])
    def test_modes_at_the_rmax_cap_match_the_40_digit_sum(self, dim):
        """Modes up to +-1024, the CLI's --rmax cap, from ``batch_verify`` and ``lhs_trace``, within 1e-12 (1 + |ref|).

        The pair is the draw of ``verify --dim {2, 6} --trials 1``.  The error of a mode n grows as n^2 eps ||A||
        through the derivative term i n Tr(A U0^n), so other draws at d = 6 reach 1.6e-12 (1 + |ref|) at |n| = 1024.
        """
        pytest.importorskip("mpmath")
        pair = random_pair(0, dim, 1.0)
        modes = [-1024, -1023, -700, -2, -1, 1, 2, 511, 1000, 1023, 1024]
        ref = mp_mode_traces(pair.u0, pair.u, pair.a, modes)
        reports = batch_verify(pair.u0, pair.u, pair.a, [TrigPolynomial.monomial(n) for n in modes])
        for n, rep in zip(modes, reports):
            assert abs(rep.lhs - ref[n]) <= 1e-12 * (1 + abs(ref[n])), n
        for n in (-1024, 1024):
            got = lhs_trace(pair.u0, pair.u, pair.a, TrigPolynomial.monomial(n))
            assert abs(got - ref[n]) <= 1e-12 * (1 + abs(ref[n])), n

    @pytest.mark.parametrize("z", [0.99, 1 / 0.99])
    def test_near_circle_series_matches_direct_inverses(self, z):
        # order ~4000 on either side of the circle: the series left side stays
        # within the resolvent tolerance of the one from matrix inverses
        pair = random_pair(20, 6, 1.0)
        tol = 1e-7
        order, _ = resolvent_truncation(z, hs_norm(pair.a), op_norm(pair.a), tol)
        assert order > 3000
        series = lhs_trace(pair.u0, pair.u, pair.a, resolvent_coefficients(z, order))
        eye = np.eye(6)
        r_u, r_u0 = np.linalg.inv(pair.u - z * eye), np.linalg.inv(pair.u0 - z * eye)
        direct = np.trace(r_u - r_u0 + r_u0 @ (1j * pair.a @ pair.u0) @ r_u0)
        assert abs(series - direct) <= tol * (1 + abs(direct))


class TestGateauxMonomial:
    def test_zero_power(self):
        pair = random_pair(1, 4, 1.0)
        np.testing.assert_allclose(gateaux_monomial(pair.u0, pair.a, 0), np.zeros((4, 4)))

    def test_first_power_at_zero(self):
        pair = random_pair(2, 4, 1.0)
        np.testing.assert_allclose(
            gateaux_monomial(pair.u0, pair.a, 1), 1j * pair.a @ pair.u0, atol=1e-14
        )

    def test_scalar_negative_power(self):
        beta, alpha, s = 0.9, 0.5, 0.3
        u0 = np.array([[np.exp(1j * beta)]])
        a = np.array([[alpha]], dtype=complex)
        got = gateaux_monomial(u0, a, -1, s)
        expected = -1j * alpha * np.exp(-1j * (s * alpha + beta))
        assert got[0, 0] == pytest.approx(expected, abs=1e-14)

    @given(seeds, st.integers(-6, 6), st.floats(0.0, 1.0))
    def test_central_difference_oracle(self, seed, r, s):
        pair = random_pair(seed, 4, 1.0)
        d = gateaux_monomial(pair.u0, pair.a, r, s)
        h = 1e-4
        fd = central_difference(pair.u0, pair.a, TrigPolynomial.monomial(r), s, h)
        assert op_norm(fd - d) <= 50.0 * h**2 * max(1, abs(r)) ** 3


class TestGateauxSeries:
    def test_constant(self):
        pair = random_pair(3, 3, 1.0)
        np.testing.assert_allclose(
            gateaux_series(pair.u0, pair.a, TrigPolynomial({0: 4.2})), np.zeros((3, 3))
        )

    def test_two_term_expansion(self):
        pair = random_pair(4, 4, 1.2)
        p = TrigPolynomial({1: 1.0, -1: 1.0})
        expected = 1j * pair.a @ pair.u0 - pair.u0.conj().T @ (1j * pair.a)
        np.testing.assert_allclose(gateaux_series(pair.u0, pair.a, p), expected, atol=1e-13)

    @given(seeds)
    def test_series_central_difference(self, seed):
        rng = np.random.default_rng(seed)
        pair = random_pair(seed, 4, 1.0)
        p = random_trig_polynomial(rng, 5)
        h = 1e-4
        d = gateaux_series(pair.u0, pair.a, p, 0.5)
        fd = central_difference(pair.u0, pair.a, p, 0.5, h)
        assert op_norm(fd - d) <= 1e-4

    def test_error_ratio_is_quadratic(self):
        pair = random_pair(17, 5, 1.0)
        p = TrigPolynomial.monomial(4)
        d = gateaux_series(pair.u0, pair.a, p, 0.0)
        errs = [
            op_norm(central_difference(pair.u0, pair.a, p, 0.0, h) - d) for h in (1e-3, 5e-4)
        ]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


class TestModeTraces:
    """The streamed per-mode left side against the full-matrix oracle."""

    @given(seeds, st.integers(1, 8), st.integers(-12, 12), st.floats(0.1, 3.0))
    def test_derivative_trace_closed_form(self, seed, dim, r, scale):
        pair = random_pair(seed, dim, scale)
        ref = 1j * r * np.trace(pair.a @ np.linalg.matrix_power(pair.u0, r))
        got = np.trace(gateaux_monomial(pair.u0, pair.a, r))
        assert abs(got - ref) <= 1e-12 * (1 + abs(ref))

    @given(seeds, st.integers(1, 8), st.floats(0.1, 3.0))
    def test_matches_full_matrix_oracle(self, seed, dim, scale):
        pair = random_pair(seed, dim, scale)
        modes = range(-12, 13)
        got = dict(zip(modes, _lhs_mode_traces(pair.u0, pair.u, pair.a, modes)))
        assert sorted(got) == list(modes)
        for n in modes:
            ref = np.trace(power(pair.u, n) - power(pair.u0, n) - gateaux_monomial(pair.u0, pair.a, n))
            assert abs(got[n] - ref) <= 1e-12 * (1 + abs(ref)), n

    def test_sparse_modes(self):
        pair = random_pair(19, 4, 1.0)
        got = dict(zip([-5, 3], _lhs_mode_traces(pair.u0, pair.u, pair.a, [-5, 3])))
        assert sorted(got) == [-5, 3]
        full = dict(zip(range(-5, 6), _lhs_mode_traces(pair.u0, pair.u, pair.a, range(-5, 6))))
        assert got[-5] == full[-5] and got[3] == full[3]


class TestLhsTrace:
    def test_zero_direction(self):
        pair = random_pair(5, 4, 1.0)
        z = np.zeros((4, 4), dtype=complex)
        assert lhs_trace(pair.u0, pair.u0, z, TrigPolynomial.monomial(3)) == pytest.approx(0.0, abs=1e-13)

    def test_constant_polynomial(self):
        pair = random_pair(6, 4, 1.0)
        assert lhs_trace(pair.u0, pair.u, pair.a, TrigPolynomial({0: 2.0})) == pytest.approx(
            0.0, abs=1e-13
        )

    def test_scalar_closed_form(self):
        alpha, beta = 0.6, 1.1
        u0 = np.array([[np.exp(1j * beta)]])
        a = np.array([[alpha]], dtype=complex)
        u = np.exp(1j * alpha) * u0
        got = lhs_trace(u0, u, a, TrigPolynomial.monomial(1))
        expected = np.exp(1j * (alpha + beta)) - np.exp(1j * beta) - 1j * alpha * np.exp(1j * beta)
        assert got == pytest.approx(expected, abs=1e-14)

    def test_path_mismatch(self):
        pair = random_pair(7, 4, 1.0)
        with pytest.raises(PathMismatch):
            lhs_trace(pair.u0, pair.u0, pair.a, TrigPolynomial.monomial(1))


class TestRhsIntegral:
    def test_zero_direction(self):
        pair = random_pair(8, 4, 1.0)
        z = np.zeros((4, 4), dtype=complex)
        assert curvature_integral(pair.u0, z, TrigPolynomial.monomial(2), 16) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_tent_matches_lhs(self):
        alpha, beta = 0.6, 1.1
        u0 = np.array([[np.exp(1j * beta)]])
        a = np.array([[alpha]], dtype=complex)
        u = np.exp(1j * alpha) * u0
        p = TrigPolynomial.monomial(1)
        assert curvature_integral(u0, a, p) == pytest.approx(lhs_trace(u0, u, a, p), abs=1e-12)

    def test_two_paths_agree(self):
        pair = random_pair(9, 4, 1.3)
        p = TrigPolynomial({3: 1.0, -2: -2.0})
        lhs = lhs_trace(pair.u0, pair.u, pair.a, p)
        rhs = curvature_integral(pair.u0, pair.a, p)
        assert abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs))

    @given(seeds)
    def test_linearity_in_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        pair = random_pair(seed, 3, 1.0)
        p = random_trig_polynomial(rng, 4)
        split = {n: rng.uniform(0.2, 0.8) for n in p.coeffs}
        p1 = TrigPolynomial({n: split[n] * c for n, c in p.coeffs.items()})
        p2 = TrigPolynomial({n: c - p1.coeffs[n] for n, c in p.coeffs.items()})
        lhs = lhs_trace(pair.u0, pair.u, pair.a, p)
        parts = lhs_trace(pair.u0, pair.u, pair.a, p1) + lhs_trace(pair.u0, pair.u, pair.a, p2)
        assert lhs == pytest.approx(parts, abs=1e-12)
        rhs = curvature_integral(pair.u0, pair.a, p, 16)
        rparts = curvature_integral(pair.u0, pair.a, p1, 16) + curvature_integral(pair.u0, pair.a, p2, 16)
        assert rhs == pytest.approx(rparts, abs=1e-12)


class TestVerify:
    def test_trivial_pair(self):
        eye = np.eye(3, dtype=complex)
        rep = batch_verify(eye, eye, np.zeros((3, 3), dtype=complex), [TrigPolynomial.monomial(2)])[0]
        assert rep.passed and rep.lhs == pytest.approx(0.0) and rep.rhs == pytest.approx(0.0)

    def test_scalar_tent_tight_tolerance(self):
        alpha, beta = 0.6, 1.1
        u0 = np.array([[np.exp(1j * beta)]])
        a = np.array([[alpha]], dtype=complex)
        u = np.exp(1j * alpha) * u0
        rep = batch_verify(u0, u, a, [TrigPolynomial.monomial(1)], tol=1e-10)[0]
        assert rep.passed

    @given(seeds, st.integers(1, 16), st.integers(-8, 8))
    def test_monomials_random(self, seed, dim, r):
        pair = random_pair(seed, dim, 1.5)
        rep = batch_verify(pair.u0, pair.u, pair.a, [TrigPolynomial.monomial(r)])[0]
        assert rep.passed, (rep.abs_err, rep.lhs)

    def test_quadrature_doubling(self):
        pair = random_pair(13, 8, 2.0)
        p = TrigPolynomial({5: 1.0, -4: 2.0, 1: -1.0})
        r64 = curvature_integral(pair.u0, pair.a, p, gauss_legendre(64))
        r128 = curvature_integral(pair.u0, pair.a, p, gauss_legendre(128))
        assert abs(r64 - r128) <= 1e-9

    def test_batch_matches_single(self):
        pair = random_pair(14, 5, 1.0)
        polys = [TrigPolynomial.monomial(r) for r in (-3, 0, 2)] + [
            TrigPolynomial({1: 1.0, -2: 0.5j})
        ]
        batch = batch_verify(pair.u0, pair.u, pair.a, polys)
        for p, rep in zip(polys, batch):
            single = batch_verify(pair.u0, pair.u, pair.a, [p])[0]
            assert rep.lhs == pytest.approx(single.lhs, abs=1e-12)
            assert rep.rhs == pytest.approx(single.rhs, abs=1e-12)
            assert rep.passed

    def test_right_side_is_the_coefficient_sum_of_pairings(self):
        """Each report's rhs is sum_n c_n * pairing(f' = in e^{int}), with modes shared across polynomials."""
        pair = random_pair(15, 4, 1.2)
        rng = np.random.default_rng(15)
        polys = [random_trig_polynomial(rng, 6), TrigPolynomial({9: 2.0, -1: 1j}), TrigPolynomial({}),
                 TrigPolynomial({0: 3.0, 4: -1.0})]
        integrator = EtaIntegrator(pair.u0, pair.a, 32)
        for p, rep in zip(polys, batch_verify(pair.u0, pair.u, pair.a, polys, s_rule=32)):
            ref = sum(c * integrator.pairing(lambda t: 1j * n * np.exp(1j * n * t)) for n, c in p.items())
            assert abs(rep.rhs - ref) <= 1e-12 * (1.0 + abs(ref))
            assert rep.lhs == pytest.approx(lhs_trace(pair.u0, pair.u, pair.a, p), abs=1e-12)

    def test_empty_matrices_raise_typed_error(self):
        empty = np.zeros((0, 0), dtype=complex)
        with pytest.raises(EmptyMatrix):
            batch_verify(empty, empty, empty, [TrigPolynomial.monomial(1)])

    def test_coefficient_matrix_is_formed_once(self, monkeypatch):
        # both sides take the one C; the left side is C @ the per-mode traces, bit for bit as dense_lhs gives it
        pair = random_pair(16, 4, 1.2)
        polys = [TrigPolynomial({3: 1.0, -2: 0.5j}), TrigPolynomial.monomial(-5), TrigPolynomial({0: 2.0, 3: -1.0})]
        want = dense_lhs(pair, polys)
        calls = []
        coefficients = trace_formula._coefficients
        monkeypatch.setattr(trace_formula, "_coefficients", lambda ps: calls.append(len(ps)) or coefficients(ps))
        reports = batch_verify(pair.u0, pair.u, pair.a, polys)
        assert calls == [3]
        np.testing.assert_array_equal([rep.lhs for rep in reports], want)


class TestEdgeSpectra:
    """The identity where U0 has eigenvalues at or next to 1 and -1, or repeated ones."""

    @staticmethod
    def base(rng, dim, kind, rotate):
        if kind == "repeated":
            z = np.exp(1j * rng.choice(rng.uniform(0.0, 2 * np.pi, 2), dim))
        else:
            z = rng.choice([1.0, -1.0], dim).astype(complex)
            if kind == "near":
                z *= np.exp(1j * rng.uniform(-1e-13, 1e-13, dim))
        u0 = np.diag(z)
        if rotate:
            q = haar_unitary(rng, dim)
            u0 = q @ u0 @ q.conj().T
        return u0

    @given(seeds, st.integers(1, 8), st.sampled_from(["exact", "near", "repeated"]), st.booleans(),
           st.sampled_from([1e-9, 0.5, 3.1]))
    @settings(max_examples=60)
    def test_monomials_and_l1_bound(self, seed, dim, kind, rotate, scale):
        rng = np.random.default_rng(seed)
        u0 = self.base(rng, dim, kind, rotate)
        a = random_hermitian(rng, dim, scale)
        u = UnitaryPath(u0, a).at(1.0)
        reports = batch_verify(u0, u, a, [TrigPolynomial.monomial(r) for r in range(-6, 7)], tol=1e-8)
        assert all(rep.passed for rep in reports), max(rep.rel_err for rep in reports)
        assert eta_profile(u0, a, 256).l1_eta0 <= np.pi / 2 * hs_norm(a) ** 2 + 1e-8


class Forbidden(AssertionError):
    """A side of the identity reached code that belongs to the other side."""


def forbid(monkeypatch, owner, *names):
    def forbidden(*args, **kwargs):
        raise Forbidden("called from the wrong side of the identity")

    for name in names:
        monkeypatch.setattr(owner, name, forbidden)


class TestSidesShareNoSpectralCode:
    """The left side runs with every eigensolver disabled, the right side with the left side's power loop disabled."""

    pair = random_pair(13, 5, 1.4)
    polys = [TrigPolynomial.monomial(n) for n in (-4, -1, 2, 7)] + [TrigPolynomial({-2: 0.5, 3: 1j})]

    def test_left_side_takes_no_eigendecomposition(self, monkeypatch):
        want = dense_lhs(self.pair, self.polys)
        forbid(monkeypatch, np.linalg, "eigh", "eigvalsh", "eig", "eigvals")
        np.testing.assert_array_equal(dense_lhs(self.pair, self.polys), want)
        with pytest.raises(Forbidden):  # the patch reaches the right side
            EtaIntegrator(self.pair.u0, self.pair.a)

    def test_thin_left_side_takes_no_eigendecomposition(self, monkeypatch):
        """The reduction's left side in H0's eigen-coordinates reads eigenpairs found before it, and finds none."""
        inst = reduction_instance(13, 48, 3, 1.4, phase=0.3)
        checked = _instance(inst.h0, inst.a)
        c = _cayley_values(checked.eigenvalues, 0.3)
        want = [_thin_lhs(c, checked.f, checked.tau, p) for p in self.polys]
        forbid(monkeypatch, np.linalg, "eigh", "eigvalsh", "eig", "eigvals")
        got = [_thin_lhs(c, checked.f, checked.tau, p) for p in self.polys]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        with pytest.raises(Forbidden):  # the patch reaches the eigenpairs
            _instance(inst.h0, inst.a)

    def test_right_side_takes_no_matrix_power(self, monkeypatch):
        modes = list(range(-8, 9))
        want = EtaIntegrator(self.pair.u0, self.pair.a).curvature_pairings(modes)
        forbid(monkeypatch, trace_formula, "_lhs_mode_traces")
        forbid(monkeypatch, np.linalg, "matrix_power")
        got = EtaIntegrator(self.pair.u0, self.pair.a).curvature_pairings(modes)
        np.testing.assert_array_equal(got, want)
        with pytest.raises(Forbidden):  # the patch reaches the left side
            lhs_trace(self.pair.u0, self.pair.u, self.pair.a, self.polys[-1])

    def test_resolvent_left_side_takes_no_eigendecomposition(self, monkeypatch):
        """The doubled resolvent series left side, inside and outside the circle, finds no eigenpairs."""
        points = [(0.3 + 0.4j, 40), (1 / 0.9, 300)]
        want = [_resolvent_lhs(self.pair.u0, self.pair.u, self.pair.a, z, order) for z, order in points]
        forbid(monkeypatch, np.linalg, "eigh", "eigvalsh", "eig", "eigvals")
        got = [_resolvent_lhs(self.pair.u0, self.pair.u, self.pair.a, z, order) for z, order in points]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        with pytest.raises(Forbidden):  # the patch reaches the right side
            resolvent_check(self.pair.u0, self.pair.u, self.pair.a, 0.5)

    def test_right_side_takes_no_geometric_sums(self, monkeypatch):
        modes = list(range(-8, 9))

        def right_side():
            session = EtaIntegrator(self.pair.u0, self.pair.a)
            return session.pairing(lambda t: -1j * np.exp(1j * t) / (np.exp(1j * t) - 0.5) ** 2), \
                session.curvature_pairings(modes)

        want = right_side()
        forbid(monkeypatch, trace_formula, "_geometric_sums")
        got = right_side()
        assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        with pytest.raises(Forbidden):  # the patch reaches the left side
            resolvent_check(self.pair.u0, self.pair.u, self.pair.a, 0.5)


class TestGeometricSums:
    """S = sum_{k<n} X^k and T = sum_{k<n} k X^k by binary doubling, against the plain loop."""

    @staticmethod
    def plain(x, n):
        s, t, power = np.zeros_like(x), np.zeros_like(x), np.broadcast_to(np.eye(x.shape[-1]), x.shape)
        for k in range(n):
            s, t, power = s + power, t + k * power, power @ x
        return s, t

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 1023, 1024, 1025])
    @pytest.mark.parametrize("dim", [1, 4])
    def test_matches_the_plain_loop(self, n, dim):
        rng = np.random.default_rng(n + dim)
        x = 0.995 * np.stack([haar_unitary(rng, dim), haar_unitary(rng, dim)])
        got, want = _geometric_sums(x, n), self.plain(x, n)
        for g, w in zip(got, want):
            assert g.shape == x.shape
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12 * (1.0 + np.abs(w).max()))

    def test_one_term_is_exact(self):
        x = np.stack([haar_unitary(np.random.default_rng(1), 3)] * 2)
        s, t = _geometric_sums(x, 1)
        assert np.array_equal(s, np.stack([np.eye(3)] * 2)) and not t.any()

    @pytest.mark.parametrize("z, order", [(1e300, 5), (-1e300j, 64), (1e-300, 5)])
    def test_extreme_points_raise_no_runtime_warning(self, z, order):
        """Powers of X = U / z or z U* underflow to zero quietly, so the sum is that of its first mode."""
        pair = random_pair(18, 3, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _resolvent_lhs(pair.u0, pair.u, pair.a, complex(z), order)
        want = lhs_trace(pair.u0, pair.u, pair.a, resolvent_coefficients(z, 0))
        assert np.isfinite(got) and abs(got - want) <= 1e-12 * (1.0 + abs(want))

    def test_resolvent_check_streams_no_powers(self, monkeypatch):
        pair = random_pair(19, 4, 1.0)
        for owner, name in ((trace_formula, "_lhs_mode_traces"), (trace_formula, "resolvent_coefficients")):
            monkeypatch.setattr(owner, name, lambda *args, _name=name: pytest.fail(f"resolvent_check called {_name}"))
        for z in (0.0, 0.6 - 0.5j, 1 / 0.9):
            assert resolvent_check(pair.u0, pair.u, pair.a, z).passed

    def test_left_side_products_grow_as_log_order(self, monkeypatch):
        """At z = 0.999 (order above 40 000) the left side takes at most 4 ceil(log2(order + 2)) + 4 products.

        Every product is counted whose operands descend from the stack handed to ``_geometric_sums`` (a
        (2, d, d) stacked product counts once); the direct-inverse check and the right side are not counted.
        """
        products = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    products.append(ufunc)
                plain = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
                assert "out" not in kwargs
                result = getattr(ufunc, method)(*plain, **kwargs)
                return result.view(Counted) if isinstance(result, np.ndarray) else result

        original = trace_formula._geometric_sums
        monkeypatch.setattr(trace_formula, "_geometric_sums", lambda x, n: original(x.view(Counted), n))
        pair = random_pair(20, 3, 1.0)
        rep = resolvent_check(pair.u0, pair.u, pair.a, 0.999)
        assert rep.truncation_order > 40_000
        assert math.ceil(math.log2(rep.truncation_order + 1)) <= len(products)
        assert len(products) <= 4 * math.ceil(math.log2(rep.truncation_order + 2)) + 4


class TestRemainderBound:
    @given(seeds, st.integers(1, 8))
    def test_trace_norm_membership(self, seed, r):
        pair = random_pair(seed, 6, 1.5)
        d = gateaux_monomial(pair.u0, pair.a, r)
        diff = (
            np.linalg.matrix_power(pair.u, r) - np.linalg.matrix_power(pair.u0, r) - d
        )
        bound = remainder_trace_norm_bound(r, hs_norm(pair.a), op_norm(pair.a))
        assert trace_norm(diff) <= bound + 1e-10


class TestResolvent:
    def test_zero_direction(self):
        pair = random_pair(15, 4, 1.0)
        z = np.zeros((4, 4), dtype=complex)
        rep = resolvent_check(pair.u0, pair.u0, z, 0.5)
        assert rep.passed
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.direct_lhs == pytest.approx(0.0, abs=1e-12)

    def test_z_zero_is_inverse_monomial(self):
        pair = random_pair(16, 4, 1.0)
        rep = resolvent_check(pair.u0, pair.u, pair.a, 0.0)
        assert rep.truncation_order == 0
        assert rep.passed
        direct = lhs_trace(pair.u0, pair.u, pair.a, TrigPolynomial.monomial(-1))
        assert rep.lhs == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("z", [0.5, 2.0])
    def test_inside_and_outside(self, z):
        pair = random_pair(17, 4, 1.0)
        rep = resolvent_check(pair.u0, pair.u, pair.a, z, tol=1e-7)
        assert rep.passed
        assert rep.series_vs_direct <= 1e-7 * (1 + abs(rep.direct_lhs))
        assert rep.tail_bound < 1e-8

    def test_coefficients(self):
        p_in = resolvent_coefficients(0.5, 2)
        assert p_in.coeffs == {-1: 1.0, -2: 0.5, -3: 0.25}
        p_out = resolvent_coefficients(2.0, 1)
        assert p_out.coeffs == {0: -0.5, 1: -0.25}

    @pytest.mark.parametrize("z", [1e300, -1e300j, 1e160 + 1e160j, 1e-300])
    def test_coefficients_far_from_the_circle_are_finite(self, z):
        """Past |z| of about 1.3e154, z^{-(k+1)} would overflow to nan; (1/z)^{k+1} underflows quietly to 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = resolvent_coefficients(z, 2).coeffs
        with mpmath.workdps(40):
            zm = mpmath.mpc(complex(z))
            want = {n: complex(zm ** (-n - 1)) for n in range(-3, 0)} if abs(z) < 1 else {
                n: complex(-(zm ** -(n + 1))) for n in range(3)}
        for n, c in want.items():
            assert abs(got.get(n, 0j) - c) <= 1e-15 * abs(c) + 1e-310
        assert got[-1 if abs(z) < 1 else 0] != 0

    @pytest.mark.parametrize("z", [0.99, 1 / 0.99])
    def test_near_circle_orders(self, z):
        # Orders near 4000.  Modes that high need more s-nodes than the
        # 64-node default, which misses the tolerance for this pair on the
        # right side (relative error 0.1 at 64 nodes, 1.7e-4 at 128, 2.5e-10
        # at 256).
        pair = random_pair(20, 6, 1.0)
        rep = resolvent_check(pair.u0, pair.u, pair.a, z, tol=1e-7, s_rule=gauss_legendre(256))
        assert rep.truncation_order > 3000
        assert rep.passed
        assert rep.series_vs_direct <= 1e-7 * (1 + abs(rep.direct_lhs))

    @pytest.mark.parametrize("z", [0.0, 0.5, 2.0, 0.95, 1 / 0.95, 0.3 + 0.4j, -0.6 + 0.9j])
    def test_closed_form_matches_series(self, z):
        pair = random_pair(23, 5, 1.0)
        rule = gauss_legendre(64)
        rep = resolvent_check(pair.u0, pair.u, pair.a, z, s_rule=rule)
        p = resolvent_coefficients(z, rep.truncation_order)
        pairings = dict(zip(p.support, EtaIntegrator(pair.u0, pair.a, rule).curvature_pairings(p.support)))
        series = sum(c * pairings[n] for n, c in p.items())
        assert rep.passed
        assert abs(rep.rhs - series) <= rep.tail_bound + 1e-12 * (1.0 + abs(series))

    @pytest.mark.parametrize("seed, dim, z", [
        (23, 5, 0.3 + 0.4j), (23, 5, 1 / 0.95), (23, 5, 0.95), (7, 4, -0.6 + 0.9j), (8, 3, 0.95j), (10, 1, -1 / 0.94),
    ], ids=["(0.3+0.4j)", "1.0526315789473684", "0.95", "(-0.6+0.9j)", "0.95j", "dim1-outside"])
    def test_left_side_is_lhs_trace_of_the_coefficients(self, seed, dim, z):
        """The doubled series left side and ``lhs_trace`` of the coefficients are both a 40-digit sum of that series.

        The two take different roundoff (O(log order) products against one product per mode), so each is
        held to the same truncated series summed by mpmath from the eigenvalues, within 1e-13 (1 + |ref|).
        """
        pytest.importorskip("mpmath")
        pair = random_pair(seed, dim, 1.0)
        rep = resolvent_check(pair.u0, pair.u, pair.a, z, s_rule=gauss_legendre(16))
        series = resolvent_coefficients(rep.z, rep.truncation_order)
        ref = mp_lhs_trace(pair.u0, pair.u, pair.a, series)
        assert rep.truncation_order > 10
        for got in (rep.lhs, lhs_trace(pair.u0, pair.u, pair.a, series)):
            assert abs(got - ref) <= 1e-13 * (1.0 + abs(ref))

    def test_right_side_uses_no_curvature_pairings(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the resolvent right side must not sum over modes")

        monkeypatch.setattr(EtaIntegrator, "curvature_pairings", refuse)
        pair = random_pair(24, 4, 1.0)
        assert resolvent_check(pair.u0, pair.u, pair.a, 0.9).passed

    @pytest.mark.parametrize("check", ["batch", "resolvent"])
    def test_validation_counts(self, monkeypatch, check):
        pair = random_pair(25, 3, 1.0)
        calls = []
        for owner, name in ((linalg, "require_unitary"), (linalg, "require_hermitian"),
                            (UnitaryPath, "require_endpoint")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        if check == "batch":
            batch_verify(pair.u0, pair.u, pair.a, [TrigPolynomial.monomial(2)])
        else:
            resolvent_check(pair.u0, pair.u, pair.a, 0.5)
        assert sorted(calls) == ["require_endpoint", "require_hermitian", "require_unitary", "require_unitary"]

    def test_pair_validated_once(self, monkeypatch):
        pair = random_pair(21, 4, 1.0)
        calls = []
        original = UnitaryPath.require_endpoint
        monkeypatch.setattr(
            UnitaryPath, "require_endpoint", lambda *args: calls.append(1) or original(*args)
        )
        assert resolvent_check(pair.u0, pair.u, pair.a, 0.5).passed
        assert len(calls) == 1

    @pytest.mark.parametrize("check", ["batch", "resolvent", "lhs"])
    def test_direction_diagonalised_once(self, monkeypatch, check):
        pair = random_pair(26, 4, 1.0)
        seen = []
        original = linalg.herm_eig
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("unishift") and "herm_eig" in vars(module):
                monkeypatch.setattr(module, "herm_eig", lambda h, **kw: seen.append(h) or original(h, **kw))
        poly = TrigPolynomial.monomial(2)
        if check == "batch":
            batch_verify(pair.u0, pair.u, pair.a, [poly])
        elif check == "resolvent":
            resolvent_check(pair.u0, pair.u, pair.a, 0.5)
        else:
            lhs_trace(pair.u0, pair.u, pair.a, poly)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], pair.a)

    @pytest.mark.parametrize("check", ["batch", "resolvent", "lhs"])
    def test_mismatched_sizes(self, check):
        small, big = random_pair(27, 3, 1.0), random_pair(28, 4, 1.0)
        poly = TrigPolynomial.monomial(2)
        calls = {
            "batch": lambda: batch_verify(small.u0, big.u, small.a, [poly]),
            "resolvent": lambda: resolvent_check(small.u0, big.u, small.a, 0.5),
            "lhs": lambda: lhs_trace(small.u0, small.u, big.a, poly),
        }
        with pytest.raises(DimensionMismatch):
            calls[check]()

    def test_path_mismatch(self):
        pair = random_pair(22, 4, 1.0)
        with pytest.raises(PathMismatch):
            resolvent_check(pair.u0, pair.u0, pair.a, 0.5)

    @pytest.mark.parametrize("z, a_hs, a_op, tol", [
        (0.5, 2.0, 1.0, 1e-7), (2.0, 2.0, 1.0, 1e-7), (0.9j, 5.0, 2.5, 1e-10),
        (-0.99, 1.5, 1.0, 1e-7), (0.3, 0.0, 0.0, 1e-7), (1 / 0.95, 3.0, 3.0, 1e-3),
    ])
    def test_truncation_tail_is_the_summed_tail(self, z, a_hs, a_op, tol):
        order, tail = resolvent_truncation(z, a_hs, a_op, tol)
        rho = min(abs(z), 1 / abs(z))
        terms = [rho**k * remainder_trace_norm_bound(k + 1, a_hs, a_op) for k in range(200_000)]
        assert tail == pytest.approx(math.fsum(terms[order + 1:]), rel=1e-12, abs=1e-300)
        assert tail < tol / 10
        assert order == 0 or math.fsum(terms[order:]) >= tol / 10

    def test_truncation_order_capped(self):
        with pytest.raises(OnUnitCircle):
            resolvent_truncation(1 - 2e-6, 1.0, 1.0, 1e-7)
        with pytest.raises(OnUnitCircle):  # rho = 1: no order suffices
            resolvent_truncation(1.0, 1.0, 1.0, 1e-7)

    @pytest.mark.parametrize("call", [
        lambda: resolvent_coefficients("x", 3),
        lambda: resolvent_coefficients(None, 3),
        lambda: resolvent_coefficients(np.nan, 3),
        lambda: resolvent_coefficients(0.5, 2.5),
        lambda: resolvent_coefficients(0.5, -1),
        lambda: resolvent_coefficients(0.5, True),
        lambda: resolvent_truncation(np.nan, 1.0, 1.0, 1e-7),
        lambda: resolvent_truncation("x", 1.0, 1.0, 1e-7),
        lambda: resolvent_truncation(0.5, 1.0, 1.0, 0.0),
        lambda: resolvent_truncation(0.5, 1.0, 1.0, np.nan),
    ], ids=["z-string", "z-none", "z-nan", "order-float", "order-negative", "order-bool", "trunc-z-nan",
            "trunc-z-string", "trunc-tol-zero", "trunc-tol-nan"])
    def test_series_helpers_check_their_inputs(self, call):
        """A bad point, order or tol is named in a typed error, never taken for a z on the circle."""
        with pytest.raises(UnishiftError) as exc:
            call()
        assert not isinstance(exc.value, OnUnitCircle)

    def test_series_order_beyond_the_cap_is_refused_before_allocating(self, address_space_cap):
        for order in (_MAX_ORDER + 1, 10**9, 10**18):
            with pytest.raises(UnishiftError, match=f"at most {_MAX_ORDER}, not {order}"):
                resolvent_coefficients(0.5, order)
        assert resolvent_coefficients(0.5, _MAX_ORDER).coeffs[-1] == 1.0  # the cap itself is an order

    def test_real_z_gives_the_coefficients_of_complex_z(self):
        pair = random_pair(23, 5, 1.0)
        z = 1 / 0.95
        order, _ = resolvent_truncation(z, hs_norm(pair.a), op_norm(pair.a), 1e-7)
        got = resolvent_coefficients(z, order)
        assert got.coeffs == resolvent_coefficients(complex(z), order).coeffs
        rep = resolvent_check(pair.u0, pair.u, pair.a, z, s_rule=gauss_legendre(16))
        want = resolvent_check(pair.u0, pair.u, pair.a, complex(z), s_rule=gauss_legendre(16))
        assert order == rep.truncation_order == 670
        assert np.array(rep.lhs).tobytes() == np.array(want.lhs).tobytes()

    @pytest.mark.parametrize("z", [0.5, 2.0, 0.9j])
    def test_base_eigenvalues_at_one_minus_one_and_i(self, z):
        u0 = np.diag([1.0, -1.0, 1j])
        a = random_hermitian(np.random.default_rng(3), 3, 1.0)
        rep = resolvent_check(u0, UnitaryPath(u0, a).at(1.0), a, z)
        assert rep.passed
        assert rep.series_vs_direct <= 1e-7 * (1 + abs(rep.direct_lhs))

    def test_unit_circle_rejected(self):
        pair = random_pair(18, 3, 1.0)
        with pytest.raises(OnUnitCircle):
            resolvent_check(pair.u0, pair.u, pair.a, 1.0 + 1e-9)

    @pytest.mark.parametrize("z", [1e300, -1e300j, 1e-300])
    def test_extreme_z_without_overflow(self, z):
        pair = random_pair(18, 3, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = resolvent_check(pair.u0, pair.u, pair.a, z)
        assert rep.passed

    @pytest.mark.parametrize("z", [1e308 + 1e308j, -1e308 - 1e308j])
    def test_z_near_the_float_maximum_gives_zero(self, z):
        """At |z| = 1.4e308 each division by z, or by w - z, is scaled first, so nothing overflows: both sides are 0."""
        pair = random_pair(18, 3, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = resolvent_check(pair.u0, pair.u, pair.a, z)
        assert rep.passed and rep.lhs == rep.rhs == rep.direct_lhs == 0

    @pytest.mark.parametrize("z", [1.5e308 + 1.5e308j, -(10**400), complex("nan")], ids=["past-max", "huge-int", "nan"])
    def test_z_of_no_finite_modulus_is_refused(self, z):
        pair = random_pair(18, 3, 1.0)
        with pytest.raises(UnishiftError, match="finite modulus"):
            resolvent_check(pair.u0, pair.u, pair.a, z)

    def test_direction_whose_bound_overflows_is_refused(self):
        """At ||A|| = 800 the truncation bound's e^||A|| overflows: ``NoConvergence`` names ||A||."""
        a = np.diag([800.0, 0.3, -0.2]).astype(complex)
        u0 = haar_unitary(np.random.default_rng(9), 3)
        with pytest.raises(NoConvergence, match=r"\|\|A\|\| = 800"):
            resolvent_check(u0, UnitaryPath(u0, a).at(1.0), a, 0.5)
        assert resolvent_truncation(0.5, 300.0, 300.0, 1e-7)[0] > 0


class TestToleranceRejected:
    """A tol that is NaN, infinite or not positive is named in a typed error, not taken as an unreachable z."""

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_batch_verify(self, tol):
        pair = random_pair(4, 3, 1.0)
        with pytest.raises(UnishiftError, match="tol") as exc:
            batch_verify(pair.u0, pair.u, pair.a, [TrigPolynomial.monomial(1)], tol=tol)
        assert not isinstance(exc.value, OnUnitCircle)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_resolvent_check(self, tol):
        pair = random_pair(4, 3, 1.0)
        with pytest.raises(UnishiftError, match="tol") as exc:
            resolvent_check(pair.u0, pair.u, pair.a, 0.5, tol=tol)
        assert not isinstance(exc.value, OnUnitCircle)
