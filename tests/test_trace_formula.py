import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    abs_sum,
    gateaux_monomial,
    gateaux_series,
    polynomial_of,
    power,
    remainder_trace_norm_bound,
    weighted_abs_sum,
)
from unishift import (
    DimensionMismatch,
    EmptyMatrix,
    EtaIntegrator,
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
from unishift import linalg, trace_formula
from unishift.linalg import _BLOCK, UnitaryPath, _power_blocks, haar_unitary, random_hermitian, trace_norm
from unishift.trace_formula import _lhs, _lhs_mode_traces, resolvent_coefficients, resolvent_truncation
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

    def test_evaluation_and_derivative(self):
        p = TrigPolynomial({1: 1.0, -1: 1.0})
        assert p(np.exp(0.4j)) == pytest.approx(2 * np.cos(0.4))
        d = p.z_derivative()
        assert d.coeffs == {0: 1.0, -2: -1.0}

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


def wanted_powers(u, wanted) -> dict:
    """{m: U^m} for each wanted m, read off the runs of ``_power_blocks``."""
    return {k: y for ks, ys in _power_blocks(u, wanted) for k, y in zip(ks.tolist(), ys) if k in wanted}


class TestPowers:
    def test_matches_matrix_power(self):
        pair = random_pair(0, 5, 1.0)
        wanted = [0, 1, 3, -2, -5, 4, -1]
        got = wanted_powers(pair.u, wanted)
        assert sorted(got) == [-5, -2, -1, 0, 1, 3, 4]
        for n, p in got.items():
            ref = np.linalg.matrix_power(pair.u if n > 0 else pair.u.conj().T, abs(n))
            np.testing.assert_allclose(p, ref, atol=1e-11)
        # the unit powers are copies, never views of the input
        assert not np.shares_memory(got[1], pair.u) and not np.shares_memory(got[-1], pair.u)
        assert list(_power_blocks(pair.u, [])) == []


def lhs_oracle(pair, n: int) -> complex:
    """Tr{ U^n - U0^n - i n A U0^n } from ``np.linalg.matrix_power``."""
    base = power(pair.u0, n)
    return complex(np.trace(power(pair.u, n) - base - 1j * n * pair.a @ base))


class TestPowerBlocks:
    """The blocked stream: blocks of ``_BLOCK // d^2`` consecutive powers, one batched step each."""

    @staticmethod
    def block_size(dim: int) -> int:
        return _BLOCK // dim**2

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
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_block_boundaries(self, dim, offset, blocks, sign):
        pair = random_pair(11, dim, 1.0)
        size = self.block_size(dim)
        top = blocks * size + offset
        wanted = [sign * k for k in sorted({top, top - 1, min(size, top), min(size + 1, top), 1})]
        runs = list(_power_blocks(pair.u, wanted))
        ks = np.concatenate([k for k, _ in runs])
        # one run per block, consecutive powers from sign * 1 to sign * top
        assert ks.tolist() == [sign * k for k in range(1, top + 1)]
        assert [len(y) for _, y in runs] == [min(size, top - start) for start in range(0, top, size)]
        powers = wanted_powers(pair.u, wanted)
        for m in set(wanted):
            np.testing.assert_allclose(powers[m], power(pair.u, m), atol=1e-12 * abs(m))
        got = _lhs_mode_traces(pair.u0, pair.u, pair.a, wanted)
        for n, value in zip(wanted, got):
            ref = lhs_oracle(pair, n)
            assert abs(value - ref) <= 1e-12 * (1 + abs(n)) * (1 + abs(ref)), n

    @pytest.mark.parametrize("dim, cols", [(3, 2), (6, 6), (40, 3), (70, 4)])
    @pytest.mark.parametrize("far", [True, False])
    def test_blocks_never_alias_inputs_or_each_other(self, dim, cols, far):
        # blocks of one power (far=False, or dim 70) are a special case of the doubling;
        # cols is unused: the stream yields whole powers, never powers times columns
        pair = random_pair(12, dim, 1.0)
        wanted = [0, 1, -1, 2 * self.block_size(dim) + 3, -5] if far else [0, 1, -1]
        kept = []
        for ks, y in _power_blocks(pair.u, wanted):
            assert not np.shares_memory(y, pair.u)
            assert all(not np.shares_memory(y, earlier) for _, earlier, _ in kept)
            kept.append((ks, y, y.copy()))
        # no block is written after it is yielded
        for _, y, snapshot in kept:
            np.testing.assert_array_equal(y, snapshot)
        for ks, y, _ in kept:
            for k, yk in zip(ks, y):
                np.testing.assert_allclose(yk, power(pair.u, k), atol=1e-11 * (1 + abs(k)))

    @pytest.mark.parametrize("z", [0.99, 1 / 0.99])
    def test_near_circle_series_matches_direct_inverses(self, z):
        # order ~4000 on either side of the circle: the series left side stays
        # within the resolvent tolerance of the one from matrix inverses
        pair = random_pair(20, 6, 1.0)
        tol = 1e-7
        order, _ = resolvent_truncation(z, hs_norm(pair.a), op_norm(pair.a), tol)
        assert order > 3000
        series = _lhs(pair.u0, pair.u, pair.a, resolvent_coefficients(z, order))
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
        # both sides take the one C; the left side is C @ the per-mode traces, bit for bit as _lhs gives it
        pair = random_pair(16, 4, 1.2)
        polys = [TrigPolynomial({3: 1.0, -2: 0.5j}), TrigPolynomial.monomial(-5), TrigPolynomial({0: 2.0, 3: -1.0})]
        want = _lhs(pair.u0, pair.u, pair.a, *polys)
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
    """The left side runs with every eigensolver disabled, the right side with every power stream disabled."""

    pair = random_pair(13, 5, 1.4)
    polys = [TrigPolynomial.monomial(n) for n in (-4, -1, 2, 7)] + [TrigPolynomial({-2: 0.5, 3: 1j})]

    def test_left_side_takes_no_eigendecomposition(self, monkeypatch):
        want = _lhs(self.pair.u0, self.pair.u, self.pair.a, *self.polys)
        forbid(monkeypatch, np.linalg, "eigh", "eigvalsh", "eig", "eigvals")
        np.testing.assert_array_equal(_lhs(self.pair.u0, self.pair.u, self.pair.a, *self.polys), want)
        with pytest.raises(Forbidden):  # the patch reaches the right side
            EtaIntegrator(self.pair.u0, self.pair.a)

    def test_right_side_takes_no_matrix_power(self, monkeypatch):
        modes = list(range(-8, 9))
        want = EtaIntegrator(self.pair.u0, self.pair.a).curvature_pairings(modes)
        forbid(monkeypatch, linalg, "_power_blocks")
        forbid(monkeypatch, trace_formula, "_power_blocks")
        forbid(monkeypatch, np.linalg, "matrix_power")
        got = EtaIntegrator(self.pair.u0, self.pair.a).curvature_pairings(modes)
        np.testing.assert_array_equal(got, want)
        with pytest.raises(Forbidden):  # the patch reaches the left side
            _lhs(self.pair.u0, self.pair.u, self.pair.a, *self.polys)


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

    @pytest.mark.parametrize("z", [0.3 + 0.4j, 1 / 0.95])
    def test_left_side_is_lhs_trace_of_the_coefficients(self, z):
        """The series left side, from the coefficient arrays, has the bits of ``lhs_trace`` of the polynomial."""
        pair = random_pair(23, 5, 1.0)
        rep = resolvent_check(pair.u0, pair.u, pair.a, z, s_rule=gauss_legendre(16))
        want = lhs_trace(pair.u0, pair.u, pair.a, resolvent_coefficients(rep.z, rep.truncation_order))
        assert rep.truncation_order > 10
        assert np.array(rep.lhs).tobytes() == np.array(want).tobytes()

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
