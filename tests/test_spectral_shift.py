import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    StepFunction,
    ZeroHarmonic,
    cayley_unitary_eig,
    eigenvector_pass,
    exact_eta,
    exact_l1_eta0,
    eta_fourier,
    eta_step_at_s,
    integrate_against,
    weighted_measure_step,
)
from unishift import (
    DimensionMismatch,
    EmptyMatrix,
    EtaIntegrator,
    TrigPolynomial,
    UnishiftError,
    batch_verify,
    doi_apply,
    eta_profile,
    gauss_legendre,
    hs_norm,
    random_pair,
    resolvent_check,
    schur_bound_check,
    unitary_eig,
)
from unishift import linalg
from unishift.doi import primitive_of
from unishift.linalg import _BLOCK, TWO_PI, UnitaryPath, haar_unitary, trace, trace_norm
from unishift.quadrature import QuadratureRule, as_rule
from unishift.trace_formula import _MAX_ORDER, resolvent_coefficients

seeds = st.integers(0, 2**31 - 1)


def scalar_pair(alpha, beta):
    u0 = np.array([[np.exp(1j * beta)]])
    a = np.array([[alpha]], dtype=complex)
    return u0, a


def tent(grid, alpha, beta):
    out = np.maximum(0.0, alpha - (grid - beta))
    out[grid < beta] = 0.0
    return out


def per_node_steps(pair, rule):
    """Reference: the step of every node built one at a time, as a loop."""
    u0dec = unitary_eig(pair.u0)
    path = UnitaryPath(pair.u0, pair.a)
    return [eta_step_at_s(u0dec, unitary_eig(path.at(float(s))), pair.a) for s in rule.nodes]


def node_step(integrator, j):
    """The step of node j rebuilt from the integrator's jump data: row 0 is U0, row j + 1 node j."""
    angles = np.concatenate([integrator.node_angles[0], integrator.node_angles[j + 1]])
    weights = np.concatenate([integrator.node_weights[0], -integrator.node_weights[j + 1]])
    return StepFunction.from_jumps(angles, weights)


class TestStepFunction:
    def test_right_continuity(self):
        f = StepFunction(np.array([1.0, 2.0]), np.array([0.0, 5.0, 1.0]))
        assert f.evaluate(0.5) == 0.0
        assert f.evaluate(1.0) == 5.0  # jump value holds at the breakpoint
        assert f.evaluate(1.999) == 5.0
        assert f.evaluate(2.0) == 1.0

    def test_from_jumps_merges_coincident(self):
        f = StepFunction.from_jumps([1.0, 1.0 + 1e-12, 3.0], [1.0, 2.0, -1.0])
        assert f.breakpoints.shape == (2,)
        np.testing.assert_allclose(f.values, [0.0, 3.0, 2.0])

    def test_difference_and_total_variation(self):
        f = StepFunction.from_jumps([1.0, 2.0], [1.0, 1.0])
        g = StepFunction.from_jumps([1.5], [2.0])
        d = f - g
        np.testing.assert_allclose(d.evaluate([0.5, 1.2, 1.7, 2.5]), [0.0, 1.0, -1.0, 0.0])
        assert d.total_variation() == pytest.approx(4.0)

    def test_integral(self):
        f = StepFunction.from_jumps([np.pi], [2.0])
        assert f.integral() == pytest.approx(2.0 * np.pi)


class TestIntegrateAgainst:
    def test_zero_mode(self):
        f = StepFunction.from_jumps([1.0], [1.0])
        assert integrate_against(f, 0) == 0

    def test_constant_step_vanishes(self):
        f = StepFunction(np.array([]), np.array([3.7]))
        for r in (1, -1, 2, 5):
            assert integrate_against(f, r) == pytest.approx(0.0, abs=1e-13)

    def test_half_interval_closed_form(self):
        # 1 on [0, pi), 0 after: (i)^2 * int_0^pi e^{it} dt = i (e^{i pi} - 1) = -2i
        f = StepFunction(np.array([np.pi]), np.array([1.0, 0.0]))
        assert integrate_against(f, 1) == pytest.approx(-2j, abs=1e-14)

    def test_vectorised_matches_scalar(self):
        pair = random_pair(5, 3, 1.3)
        rule = gauss_legendre(8)
        steps = per_node_steps(pair, rule)
        rs = [-3, -1, 0, 2, 7]
        batch = dict(zip(rs, EtaIntegrator(pair.u0, pair.a, rule).curvature_pairings(rs)))
        assert sorted(batch) == sorted(rs)
        for r in rs:
            ref = sum(w * integrate_against(f, r) for w, f in zip(rule.weights, steps))
            assert batch[r] == pytest.approx(ref, abs=1e-13)
        assert batch[0] == 0


class TestWeightedMeasureStep:
    def test_zero_weight(self):
        pair = random_pair(0, 4, 1.0)
        f = weighted_measure_step(unitary_eig(pair.u0), np.zeros((4, 4), dtype=complex))
        assert f.total_variation() == 0.0
        assert f.evaluate(3.0) == 0.0

    def test_scalar(self):
        beta, alpha = 1.0, 0.7
        u0, a = scalar_pair(alpha, beta)
        f = weighted_measure_step(unitary_eig(u0), a)
        assert f.evaluate(0.5) == pytest.approx(0.0)
        assert f.evaluate(beta) == pytest.approx(alpha)
        assert f.evaluate(TWO_PI) == pytest.approx(alpha)

    def test_saturates_to_trace(self):
        pair = random_pair(3, 4, 1.0)
        f = weighted_measure_step(unitary_eig(pair.u0), pair.a)
        assert f.evaluate(TWO_PI) == pytest.approx(trace(pair.a).real, abs=1e-12)
        assert f.is_real

    def test_dimension_mismatch(self):
        pair = random_pair(1, 3, 1.0)
        with pytest.raises(DimensionMismatch):
            weighted_measure_step(unitary_eig(pair.u0), np.zeros((4, 4), dtype=complex))


class TestEtaStep:
    def test_zero_at_s_zero(self):
        pair = random_pair(2, 5, 1.0)
        dec = unitary_eig(pair.u0)
        f = eta_step_at_s(dec, dec, pair.a)
        assert f.total_variation() == pytest.approx(0.0, abs=1e-12)

    def test_scalar_window(self):
        alpha, beta, s = 0.8, 1.5, 0.6
        u0, a = scalar_pair(alpha, beta)
        us = np.array([[np.exp(1j * (s * alpha + beta))]])
        f = eta_step_at_s(unitary_eig(u0), unitary_eig(us), a)
        mid = beta + s * alpha / 2.0
        assert f.evaluate(mid) == pytest.approx(alpha)
        assert f.evaluate(beta - 0.1) == pytest.approx(0.0)
        assert f.evaluate(beta + s * alpha + 0.1) == pytest.approx(0.0)

    @given(seeds)
    def test_total_variation_bound(self, seed):
        pair = random_pair(seed, 6, 1.5)
        us = UnitaryPath(pair.u0, pair.a).at(0.37)
        f = eta_step_at_s(unitary_eig(pair.u0), unitary_eig(us), pair.a)
        assert f.total_variation() <= 2 * trace_norm(pair.a) + 1e-10


class TestEtaProfile:
    def test_zero_direction(self):
        pair = random_pair(4, 3, 1.0)
        prof = eta_profile(pair.u0, np.zeros((3, 3), dtype=complex), 64, 8)
        np.testing.assert_allclose(prof.eta, 0.0, atol=1e-14)
        assert prof.l1_eta0 == pytest.approx(0.0, abs=1e-14)

    def test_scalar_tent_closed_form(self):
        alpha, beta = 1.1, 2.3
        u0, a = scalar_pair(alpha, beta)
        prof = eta_profile(u0, a, 1501, gauss_legendre(1024))
        err = np.max(np.abs(prof.eta - tent(prof.grid, alpha, beta)))
        assert err <= 2 * alpha / 1024

    def test_centering_and_l1(self):
        pair = random_pair(7, 8, 1.7)
        prof = eta_profile(pair.u0, pair.a, 512)
        assert prof.eta0 == pytest.approx(prof.eta - np.mean(prof.eta), abs=0.05)
        assert np.all(np.isreal(prof.eta))
        assert prof.l1_eta0 <= np.pi / 2 * hs_norm(pair.a) ** 2 + 1e-8

    @given(seeds, st.integers(1, 12), st.floats(0.1, 2.9))
    def test_l1_bound_random(self, seed, dim, scale):
        pair = random_pair(seed, dim, scale)
        prof = eta_profile(pair.u0, pair.a, 256, 32)
        assert prof.l1_eta0 <= np.pi / 2 * hs_norm(pair.a) ** 2 + 1e-8


def eigenvalue_one_pairs():
    """U0 with the eigenvalue 1 (angle 2pi): once moved by A, once fixed by every U_s (A e_1 = 0)."""
    u0 = np.diag(np.exp(1j * np.array([0.0, 2.0, -1.0, 4.0])))
    a = random_pair(5, 4, 1.3).a
    fixed = a.copy()
    fixed[0, :] = fixed[:, 0] = 0.0
    return [(u0, a), (u0, fixed)]


class TestExactL1:
    """``l1_eta0`` is the exact L1 distance of the step function eta from its mean, whatever the grid."""

    @pytest.mark.parametrize(
        "u0, a",
        [(p.u0, p.a) for p in (random_pair(d, d, 2.0) for d in (1, 4, 16, 64))]
        + [(random_pair(2, 5, 1.0).u0, np.zeros((5, 5)))]
        + eigenvalue_one_pairs(),
        ids=["d=1", "d=4", "d=16", "d=64", "zero direction", "eigenvalue 1", "eigenvalue 1 on the path"],
    )
    def test_matches_step_function_oracle(self, u0, a):
        integrator = EtaIntegrator(u0, a)
        want = StepFunction.from_jumps(integrator.jump_angles, integrator.jump_weights).abs_integral(integrator.mean())
        for grid_size in (2, 20000):
            got = integrator.profile(grid_size).l1_eta0
            assert abs(got - want) <= 1e-13 * want


class TestPerNodeIdentity:
    """Exactness in t: each node's step integral matches the closed trace form."""

    @given(seeds, st.integers(1, 8))
    def test_node_oracle(self, seed, r):
        pair = random_pair(seed, 5, 1.2)
        integrator = EtaIntegrator(pair.u0, pair.a, 16)
        u0_r = np.linalg.matrix_power(pair.u0, r)
        for j, s in enumerate(integrator.rule.nodes[:4]):
            us = integrator.path.at(float(s))
            expected = r * trace(1j * pair.a @ np.linalg.matrix_power(us, r)) - r * trace(
                1j * pair.a @ u0_r
            )
            assert integrate_against(node_step(integrator, j), r) == pytest.approx(expected, abs=1e-11)


class TestJumpListReference:
    """The stacked jump list against the per-node loop it replaces."""

    @settings(max_examples=40, deadline=None)
    @given(seeds, st.integers(1, 16), st.floats(0.1, 2.9))
    def test_matches_per_node_reference(self, seed, dim, scale):
        pair = random_pair(seed, dim, scale)
        rule = gauss_legendre(16)
        steps = per_node_steps(pair, rule)
        integrator = EtaIntegrator(pair.u0, pair.a, rule)

        def close(got, ref):
            assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))

        rs = list(range(-8, 9)) + [-20, 25]
        pairings = dict(zip(rs, integrator.curvature_pairings(rs)))
        for r in rs:
            close(pairings[r], sum(w * integrate_against(f, r) for w, f in zip(rule.weights, steps)))
        for n in (1, -2, 5):
            close(eta_fourier(integrator, n), sum(w * f.fourier_integral(n) for w, f in zip(rule.weights, steps)))
        close(integrator.mean(), sum(w * f.integral().real for w, f in zip(rule.weights, steps)) / TWO_PI)
        grid = np.linspace(0.0, TWO_PI, 997)
        close(integrator.eta(grid), sum(w * f.evaluate(grid) for w, f in zip(rule.weights, steps)))

    def test_jump_list_layout(self):
        pair = random_pair(9, 4, 1.0)
        gl = gauss_legendre(8)
        # weights summing to 3, so the scaling of the U0 jumps shows
        rule = QuadratureRule(gl.nodes, 3.0 * gl.weights)
        integrator = EtaIntegrator(pair.u0, pair.a, rule)
        assert integrator.node_angles.shape == integrator.node_weights.shape == (1 + 8, 4)
        assert integrator.jump_angles.shape == integrator.jump_weights.shape == (4 + 8 * 4,)
        np.testing.assert_allclose(integrator.jump_weights[:4], 3.0 * integrator.node_weights[0], rtol=1e-14)
        steps = per_node_steps(pair, rule)
        grid = np.linspace(0.0, TWO_PI, 101)
        ref = sum(w * f.evaluate(grid) for w, f in zip(rule.weights, steps))
        np.testing.assert_allclose(integrator.eta(grid), ref, atol=1e-12)
        # every node step, and so eta, ends where it starts: Tr A - Tr A
        assert np.sum(integrator.jump_weights) == pytest.approx(0.0, abs=1e-12)
        assert integrator.eta(TWO_PI) == pytest.approx(0.0, abs=1e-12)
        # right-continuous: a jump already holds at its own angle
        first = np.argmin(integrator.jump_angles)
        t = integrator.jump_angles[first]
        assert integrator.eta(t) == integrator.jump_weights[first]
        assert integrator.eta(np.nextafter(t, 0.0)) == 0.0


class TestBatchedRunResolution:
    """One Ritz pass per node block, the coupled runs of all blocks solved together, no eigenvectors kept."""

    @pytest.mark.parametrize("seed, dim", [(3, 1), (3, 2), (0, 5), (3, 16), (3, 64)])
    def test_angles_bit_identical_to_the_eigenvector_pass(self, seed, dim):
        pair = random_pair(seed, dim, 2.0)
        rule = gauss_legendre(64)
        integrator = EtaIntegrator(pair.u0, pair.a, rule)
        angles, weights = eigenvector_pass(pair.u0, pair.a, rule)
        assert integrator.node_angles.tobytes() == angles.tobytes()
        assert np.max(np.abs(integrator.node_weights - weights)) <= 1e-14 * max(1.0, np.max(np.abs(weights)))

    @pytest.mark.parametrize("seed, dim, nodes, rows", [(3, 64, 64, None), (1, 512, 8, (0, 1))],
                             ids=["d64-64-nodes", "d512-8-nodes"])
    def test_matches_the_per_node_cayley_oracle(self, monkeypatch, seed, dim, nodes, rows):
        """Row 0 is U0, row j + 1 node j; at d = 512 rows 0 and 1 hold coupled runs of length 3 and 4."""
        sizes = []
        solve = linalg._cayley_eig
        monkeypatch.setattr(linalg, "_cayley_eig", lambda x: sizes.append(x.shape[-1]) or solve(x))
        pair = random_pair(seed, dim, 2.0)
        rule = gauss_legendre(nodes)
        integrator = EtaIntegrator(pair.u0, pair.a, rule)
        # at most one Cayley solve per run length, over every block of nodes
        assert sizes == sorted(set(sizes)) and sizes[0] == 2
        assert dim < 512 or sizes == [2, 3, 4]
        path, s = UnitaryPath(pair.u0, pair.a), np.concatenate([[0.0], rule.nodes])
        grid = np.linspace(0.0, TWO_PI, 1000)
        for row in range(s.size) if rows is None else rows:
            dec = cayley_unitary_eig(path.at(float(s[row])))
            weights = np.sum(dec.vectors.conj() * (pair.a @ dec.vectors), axis=0).real
            np.testing.assert_allclose(integrator.node_angles[row], dec.angles, rtol=0, atol=1e-12)
            np.testing.assert_allclose(integrator.node_weights[row], weights, rtol=0, atol=1e-10)
            if row == 0:
                oracle_u0 = dec
            elif rows is None:
                ours, step = node_step(integrator, row - 1), eta_step_at_s(oracle_u0, dec, pair.a)
                np.testing.assert_allclose(ours.evaluate(grid), step.evaluate(grid), atol=1e-10)
                for r in (-3, 1, 4):
                    assert integrate_against(ours, r) == pytest.approx(integrate_against(step, r), abs=1e-9)

    def test_peak_memory_within_the_eigenvector_pass(self):
        """At d = 256 a block is one node; the integrator holds no eigenvector stack beside it."""
        pair = random_pair(3, 256, 2.0)
        rule = gauss_legendre(8)
        peaks = []
        for build in (eigenvector_pass, EtaIntegrator):
            tracemalloc.start()
            try:
                build(pair.u0, pair.a, rule)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


def _all_wrapping_pair(seed, dim):
    """U0 with angles in [5.5, 6], A with eigenvalues in [1, 2]: every angle moves up by 1 to 2 and wraps past 2pi once."""
    rng = np.random.default_rng(seed)
    q, v = haar_unitary(rng, dim), haar_unitary(rng, dim)
    return (q * np.exp(1j * rng.uniform(5.5, 6.0, dim))) @ q.conj().T, (v * rng.uniform(1.0, 2.0, dim)) @ v.conj().T


class TestExactProfile:
    """The integrator's profile against Krein's closed form (``exact_eta``) on a 20001-point grid."""

    GRID = np.linspace(0.0, TWO_PI, 20001)
    NODES = (64, 256, 1024)

    @pytest.mark.parametrize("beta, alpha, flow", [(2.3, 1.1, 0), (5.8, 1.0, 1), (0.4, -1.1, -1)])
    def test_one_by_one_ramp(self, beta, alpha, flow):
        """The 1x1 pair e^{i beta}, alpha: eta(t) = alpha ([beta <= t] - |{s : angle of e^{i(beta + s alpha)} <= t}|)."""
        eta, k = exact_eta([[np.exp(1j * beta)]], [[alpha]], self.GRID)
        # the angle of U_s is at most t where beta + s alpha lies in some (2pi m, 2pi m + t]
        lo, hi = sorted((beta, beta + alpha))
        cells = TWO_PI * np.arange(-1, 2)
        overlap = np.minimum(hi, cells + self.GRID[:, None]) - np.maximum(lo, cells)
        ramp = alpha * (self.GRID >= beta) - np.sign(alpha) * np.maximum(overlap, 0.0).sum(axis=1)
        assert k == flow
        np.testing.assert_allclose(eta, ramp, rtol=0, atol=1e-12)

    PAIRS = {
        "d4": lambda: (random_pair(2, 4, 2.0).u0, random_pair(2, 4, 2.0).a),
        "d16": lambda: (random_pair(2, 16, 2.0).u0, random_pair(2, 16, 2.0).a),
        "d64": lambda: (random_pair(2, 64, 2.0).u0, random_pair(2, 64, 2.0).a),
        "ramp": lambda: (np.array([[np.exp(2.3j)]]), np.array([[1.1 + 0j]])),
        "wrapped-ramp": lambda: (np.array([[np.exp(5.8j)]]), np.array([[1.0 + 0j]])),
        "all-wrap-d8": lambda: _all_wrapping_pair(5, 8),
    }
    FLOWS = [("d4", 0), ("d16", -1), ("d64", 0), ("ramp", 0), ("wrapped-ramp", 1), ("all-wrap-d8", 8)]

    @pytest.mark.parametrize("case, flow", FLOWS)
    def test_profile_converges_at_first_order(self, case, flow):
        """n times the sup and L1 distances at 256 and 1024 nodes stay within 2 and 3 times their value at 64.

        The L1 distance of a pair whose angles wrap scatters more: where an
        angle wraps at s*, the s-integrand has a step at s* for every t in
        the spectral gap, and its quadrature error depends on where s* falls
        between the nodes.
        """
        u0, a = self.PAIRS[case]()
        exact, k = exact_eta(u0, a, self.GRID)
        assert k == flow
        scaled = []
        for nodes in self.NODES:
            gap = np.abs(EtaIntegrator(u0, a, gauss_legendre(nodes)).eta(self.GRID) - exact)
            scaled.append((nodes * gap.max(), nodes * TWO_PI * gap.mean()))
        (sup, l1), rest = scaled[0], scaled[1:]
        assert all(s <= 2.0 * sup and m <= 3.0 * l1 for s, m in rest), scaled
        assert sup <= 8.0  # every t-distance at 64 nodes is below 0.125

    @pytest.mark.parametrize("case, flow", FLOWS)
    def test_l1_eta0_is_within_twice_the_l1_distance(self, case, flow):
        """Criterion 02's 64-node ``l1_eta0`` against the exact centred L1 size ``exact_l1_eta0``.

        With means m_n and m of the profile eta_n and of eta,
        | ||eta_n - m_n||_1 - ||eta - m||_1 | <= ||eta_n - eta||_1 + 2pi |m_n - m| <= 2 ||eta_n - eta||_1,
        and the L1 distance is measured on the grid.
        """
        u0, a = self.PAIRS[case]()
        exact, k = exact_eta(u0, a, self.GRID)
        assert k == flow
        profile = eta_profile(u0, a, self.GRID.size, gauss_legendre(64))
        assert np.array_equal(profile.grid, self.GRID)
        distance = TWO_PI * np.abs(profile.eta - exact).mean()
        assert abs(profile.l1_eta0 - exact_l1_eta0(u0, a)) <= 2.0 * distance

    @pytest.mark.parametrize("case", ["d4", "d16", "ramp", "wrapped-ramp", "all-wrap-d8"])
    def test_exact_l1_matches_the_midpoint_rule(self, case):
        """The closed form against a 200000-cell midpoint rule of |eta - mean|, within 2 h TV(eta).

        A midpoint sum of f errs by at most h TV(f), for the integral of eta as for that of |eta - m|; the mean's
        error adds at most h TV(eta) more.  TV(eta) <= sum |v_j*Av_j| + 2pi (d + |k|): the jumps, then the slopes.
        """
        u0, a = self.PAIRS[case]()
        cells = 200_000
        h = TWO_PI / cells
        eta, k = exact_eta(u0, a, (np.arange(cells) + 0.5) * h)
        midpoint = h * np.abs(eta - eta.mean()).sum()
        masses = np.abs(np.linalg.eigvalsh(a)).sum()  # sum |v_j*Av_j| <= trace norm of A
        assert abs(exact_l1_eta0(u0, a) - midpoint) <= 2.0 * h * (masses + TWO_PI * (len(a) + abs(k)))


def _conjugated(rng, values):
    """Q diag(values) Q* for a Haar Q: a Hermitian with exactly that spectrum, repeats included."""
    q = haar_unitary(rng, len(values))
    return (q * np.asarray(values, dtype=float)) @ q.conj().T


class TestEigenbasisEdgeSpectra:
    """The eigenbasis jump data against the per-node oracle where V is not unique or U0 sits at +-1."""

    dim = 4

    @pytest.mark.parametrize("u0_kind", ["haar", "identity", "minus_identity"])
    @pytest.mark.parametrize("a_kind", ["zero", "scalar", "repeated", "generic"])
    def test_matches_per_node_oracle(self, u0_kind, a_kind):
        rng = np.random.default_rng(17)
        u0 = {"haar": haar_unitary(rng, self.dim), "identity": np.eye(self.dim),
              "minus_identity": -np.eye(self.dim)}[u0_kind]
        a = {"zero": np.zeros((self.dim, self.dim)), "scalar": 0.8 * np.eye(self.dim),
             "repeated": _conjugated(rng, [0.7, 0.7, -0.4, 1.2]),
             "generic": _conjugated(rng, [0.9, -0.3, 0.2, -1.1])}[a_kind]
        rule = gauss_legendre(8)
        integrator = EtaIntegrator(u0, a, rule)
        steps = per_node_steps(SimpleNamespace(u0=u0, a=a), rule)

        np.testing.assert_allclose(np.sort(integrator.node_angles[0]), unitary_eig(u0).angles, atol=1e-13)
        np.testing.assert_allclose(integrator.node_weights.sum(axis=1), np.trace(a).real, atol=1e-13)
        grid = np.linspace(0.0, TWO_PI, 1000)  # misses pi, where U0 = -I jumps
        for j, (s, step) in enumerate(zip(rule.nodes, steps)):
            oracle = unitary_eig(UnitaryPath(u0, a).at(float(s)))
            np.testing.assert_allclose(np.sort(integrator.node_angles[j + 1]), oracle.angles, atol=1e-13)
            ours = node_step(integrator, j)
            np.testing.assert_allclose(ours.evaluate(grid), step.evaluate(grid), atol=1e-13)
            for r in (-5, -1, 1, 2, 7):
                assert integrate_against(ours, r) == pytest.approx(integrate_against(step, r), abs=1e-12)
        ref = sum(w * f.evaluate(grid) for w, f in zip(rule.weights, steps))
        profile = integrator.profile(grid.size)
        np.testing.assert_allclose(profile.eta, ref, atol=1e-13)
        mean = sum(w * f.integral().real for w, f in zip(rule.weights, steps)) / TWO_PI
        np.testing.assert_allclose(profile.eta0, ref - mean, atol=1e-13)
        pairings = dict(zip(range(-6, 7), integrator.curvature_pairings(range(-6, 7))))
        for r, value in pairings.items():
            expected = sum(w * integrate_against(f, r) for w, f in zip(rule.weights, steps))
            assert value == pytest.approx(expected, abs=1e-12)


class TestCurvaturePairings:
    """The per-mode right side: one array aligned with the modes given, whole numbers only."""

    def test_aligned_with_unsorted_modes_across_blocks(self):
        pair = random_pair(11, 6, 1.7)
        integrator = EtaIntegrator(pair.u0, pair.a, 32)
        rng = np.random.default_rng(4)
        rs = [int(r) for r in rng.permutation(np.arange(-70, 71))] + [7, 0, -33, 7]
        assert len(rs) > 2 * (_BLOCK // integrator.jump_angles.size)  # at least three mode blocks
        got = integrator.curvature_pairings(rs)
        assert got.shape == (len(rs),) and got.dtype == np.complex128
        for r, value in zip(rs, got):
            ref = integrator.pairing(lambda t: 1j * r * np.exp(1j * r * t))
            assert abs(value - ref) <= 1e-12 * (1.0 + abs(ref))
        assert got[rs.index(0)] == 0

    def test_empty_and_generator_input(self):
        integrator = EtaIntegrator(np.eye(2), np.diag([0.3, -0.2]), 8)
        assert integrator.curvature_pairings([]).shape == (0,)
        np.testing.assert_array_equal(
            integrator.curvature_pairings(r for r in (2, np.int64(-1))), integrator.curvature_pairings([2, -1])
        )

    @pytest.mark.parametrize("rs", [[1.5], [2.0], [True], ["1"], [1, None]])
    def test_non_integer_modes_rejected(self, rs):
        integrator = EtaIntegrator(np.eye(2), np.diag([0.3, -0.2]), 8)
        with pytest.raises(UnishiftError, match="whole number"):
            integrator.curvature_pairings(rs)


class TestPairing:
    """The f'-pairing against the batched mode sums it generalises."""

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(1, 16), st.integers(-12, 12), st.floats(0.1, 2.9))
    def test_matches_curvature_pairings(self, seed, dim, r, scale):
        pair = random_pair(seed, dim, scale)
        integrator = EtaIntegrator(pair.u0, pair.a, 32)
        ref = dict(zip([r], integrator.curvature_pairings([r])))[r]
        got = integrator.pairing(lambda t: 1j * r * np.exp(1j * r * t))
        assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_scalar_tent_closed_form(self):
        # eta is the tent alpha - (t - beta) on [beta, beta + alpha), so for
        # f' = cos t the pairing is the integral of -sin t over the tent
        alpha, beta = 0.7, 1.1
        u0, a = scalar_pair(alpha, beta)
        got = EtaIntegrator(u0, a, 32).pairing(np.cos)
        expected = np.sin(beta + alpha) - np.sin(beta) - alpha * np.cos(beta)
        assert got == pytest.approx(expected, abs=1e-12)


class TestEmptyMatrices:
    """0x0 inputs raise the typed error, not an IndexError."""

    empty = np.zeros((0, 0), dtype=complex)

    def test_eta_integrator(self):
        with pytest.raises(EmptyMatrix):
            EtaIntegrator(self.empty, self.empty)

    def test_eta_profile(self):
        with pytest.raises(EmptyMatrix):
            eta_profile(self.empty, self.empty, 16)

    def test_eta_fourier(self):
        with pytest.raises(EmptyMatrix):
            eta_fourier(EtaIntegrator(self.empty, self.empty), 1)


class TestQuadratureRule:
    def test_node_cap_raises_before_allocating(self, address_space_cap):
        # leggauss(20000) would need a 3.2 GB companion matrix
        for call in (gauss_legendre, as_rule):
            with pytest.raises(UnishiftError, match="at most 4096"):
                call(20000)

    def test_rules_cached_read_only(self):
        first, again = gauss_legendre(64), gauss_legendre(np.int64(64))
        np.testing.assert_array_equal(first.nodes, again.nodes)
        np.testing.assert_array_equal(first.weights, again.weights)
        x, w = np.polynomial.legendre.leggauss(64)
        assert first.nodes.tobytes() == ((x + 1.0) / 2.0).tobytes()
        assert first.weights.tobytes() == (w / 2.0).tobytes()
        for array in (first.nodes, first.weights):
            with pytest.raises(ValueError):
                array[0] = 0.5
        assert gauss_legendre(64).nodes[0] == again.nodes[0]


class TestTypedErrors:
    """Bad rules, grids, points, polynomials and operands raise UnishiftError, never a bare ValueError or TypeError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: gauss_legendre(0),
            lambda: gauss_legendre(-3),
            lambda: as_rule(2.0),
            lambda: as_rule("64"),
            lambda: as_rule(QuadratureRule(np.array([-0.5, 0.5]), np.array([0.5, 0.5]))),
            lambda: EtaIntegrator(np.eye(2), np.zeros((2, 2)), [2.0]),
            lambda: EtaIntegrator(np.eye(2), np.zeros((2, 2)), 4).profile(1),
            lambda: eta_profile(np.eye(2), np.zeros((2, 2)), 0, 4),
            lambda: gauss_legendre(2.5),
            lambda: gauss_legendre(True),
            lambda: as_rule(True),
            lambda: EtaIntegrator(np.eye(2), np.zeros((2, 2)), 4).profile(2.5),
            lambda: EtaIntegrator(np.eye(2), np.zeros((2, 2)), QuadratureRule(np.array([]), np.array([]))),
            lambda: batch_verify(np.eye(2), np.eye(2), np.zeros((2, 2)), [TrigPolynomial.monomial(1)],
                                 s_rule=QuadratureRule(np.array([0.5]), np.array([0.5, 0.5]))),
            lambda: batch_verify(np.eye(2), np.eye(2), np.zeros((2, 2)), [TrigPolynomial.monomial(1)],
                                 s_rule=QuadratureRule(np.full((2, 2), 0.5), np.full((2, 2), 0.25))),
            lambda: batch_verify(np.eye(2), np.eye(2), np.zeros((2, 2)), [TrigPolynomial.monomial(1)],
                                 s_rule=QuadratureRule(np.array([0.5]), np.array([np.nan]))),
            lambda: EtaIntegrator(np.eye(2), np.zeros((2, 2)), QuadratureRule(np.array(["0.5"]), np.array(["1.0"]))),
            lambda: EtaIntegrator(np.eye(2), np.zeros((2, 2)), QuadratureRule([[0.5], [0.2, 0.3]], [1.0, 1.0])),
            lambda: resolvent_check(np.eye(2), np.eye(2), np.zeros((2, 2)), "x"),
            lambda: batch_verify(np.eye(2), np.eye(2), np.zeros((2, 2)), [1.0]),
            lambda: schur_bound_check(1.0, np.eye(2), np.eye(2)),
            lambda: doi_apply(1.0, np.eye(2), np.eye(2), np.zeros((2, 2))),
            lambda: doi_apply(TrigPolynomial.monomial(1), np.eye(2), np.eye(2), [[1.0, 2.0], [3.0]]),
            lambda: doi_apply(TrigPolynomial.monomial(1), np.eye(2), np.eye(2), [["a", "b"], ["c", "d"]]),
            lambda: primitive_of(3),
            lambda: random_pair(0, 3, "1"),
            lambda: EtaIntegrator(np.eye(2), np.zeros((2, 2)), 4).curvature_pairings([1.5]),
            lambda: batch_verify(np.eye(2), np.eye(2), np.zeros((2, 2)), [TrigPolynomial({2**70: 1.0})]),
            lambda: EtaIntegrator(np.eye(2), np.zeros((2, 2)), 4).curvature_pairings([2**70]),
            lambda: batch_verify(np.eye(2), np.eye(2), np.zeros((2, 2)), None),
            lambda: EtaIntegrator(np.eye(2), np.zeros((2, 2)), 4).curvature_pairings(None),
            lambda: batch_verify(np.eye(2), np.eye(2), np.zeros((2, 2)), [TrigPolynomial.monomial(1)], tol=True),
            lambda: random_pair(0, 3, True),
            lambda: resolvent_coefficients(0.5, _MAX_ORDER + 1),
        ],
    )
    def test_raises_unishift_error(self, call):
        with pytest.raises(UnishiftError):
            call()

    def test_rule_from_lists_runs_as_float64(self):
        """A rule built from lists is the rule of the same float64 arrays."""
        listed = as_rule(QuadratureRule([0.25, 0.75], [0.5, 0.5]))
        assert listed.nodes.dtype == listed.weights.dtype == np.float64
        pair = random_pair(3, 3, 1.0)
        got = EtaIntegrator(pair.u0, pair.a, QuadratureRule([0.25, 0.75], [0.5, 0.5]))
        want = EtaIntegrator(pair.u0, pair.a, QuadratureRule(np.array([0.25, 0.75]), np.array([0.5, 0.5])))
        np.testing.assert_array_equal(got.jump_angles, want.jump_angles)
        np.testing.assert_array_equal(got.jump_weights, want.jump_weights)


class TestEtaFourier:
    def test_zero_direction(self):
        pair = random_pair(0, 4, 1.0)
        zero = np.zeros((4, 4), dtype=complex)
        assert eta_fourier(EtaIntegrator(pair.u0, zero, 8), 2) == pytest.approx(0.0, abs=1e-14)

    def test_zero_mode_rejected(self):
        pair = random_pair(0, 3, 1.0)
        with pytest.raises(ZeroHarmonic):
            eta_fourier(EtaIntegrator(pair.u0, pair.a), 0)

    def test_scalar_tent_antiderivative(self):
        # int_beta^{beta+alpha} e^{int} (alpha - t + beta) dt
        #   = e^{in beta} [ i alpha / n - (e^{in alpha} - 1) / n^2 ]
        alpha, beta = 1.1, 2.3
        u0, a = scalar_pair(alpha, beta)
        integrator = EtaIntegrator(u0, a)
        for n in (1, -1, 3):
            expected = np.exp(1j * n * beta) * (
                1j * alpha / n - (np.exp(1j * n * alpha) - 1.0) / n**2
            )
            assert eta_fourier(integrator, n) == pytest.approx(expected, abs=1e-12)

    def test_trace_side_oracle(self):
        from unishift import lhs_trace
        from unishift.trigpoly import TrigPolynomial

        pair = random_pair(11, 6, 1.4)
        session = EtaIntegrator(pair.u0, pair.a)
        for n in (1, -1, 3, -3):
            lhs = lhs_trace(pair.u0, pair.u, pair.a, TrigPolynomial.monomial(n))
            assert abs(eta_fourier(session, n) + lhs / n**2) <= 1e-8 * (1 + abs(lhs))
