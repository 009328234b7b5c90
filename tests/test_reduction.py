from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    PhaseTooClose,
    cayley_forward,
    choose_phase,
    dense_compressed_audit,
    dense_compressed_model,
    dense_kept_pairs,
    dense_perturbation_audit,
    dense_projection_audit,
    full_space,
    one_cell_basis,
    window_basis_global_mgs,
)
from unishift import (
    BadWindow,
    DimensionMismatch,
    MissingConstruction,
    NotHermitian,
    NotUnitary,
    PartitionTooFine,
    PathMismatch,
    SampleOutOfRange,
    TrigPolynomial,
    UnishiftError,
    ZeroDirection,
    audit_compressed_model,
    audit_perturbation_estimates,
    audit_projection_estimates,
    build_direction_projection,
    compressed_model,
    convergence_study,
    herm_eig,
    lhs_trace,
    op_norm,
    reduction_instance,
    unitary_eig,
)
from unishift.linalg import UnitaryPath, haar_unitary
from unishift.reduction import (
    ReductionInstance,
    _cayley,
    _kept_pairs,
    _offblock,
    _window_basis,
    random_low_rank_hermitian,
    spread_diagonal,
)
from unishift.trace_formula import _exp_remainder_factor

seeds = st.integers(0, 2**31 - 1)
M_LIST = [1, -1, 2, -2, 4, -4]
T_GRID = np.linspace(-2.0, 2.0, 21)


class TestCayley:
    def test_identity_with_zero_phase(self):
        h0 = cayley_forward(np.eye(3, dtype=complex), 0.0)
        np.testing.assert_allclose(h0, np.zeros((3, 3)), atol=1e-12)

    def test_scalar_fixed_point(self):
        phi = 0.8
        u0 = np.array([[np.exp(1j * phi)]])
        np.testing.assert_allclose(cayley_forward(u0, phi), [[0.0]], atol=1e-14)

    @given(seeds, st.integers(1, 10))
    def test_roundtrip(self, seed, dim):
        u0 = haar_unitary(np.random.default_rng(seed), dim)
        phi = choose_phase(u0)
        h0 = cayley_forward(u0, phi)
        assert op_norm(h0 - h0.conj().T) <= dim * 1e-10
        assert op_norm(_cayley(h0, phi) - u0) <= dim * 1e-10

    def test_phase_too_close(self):
        u0 = np.diag([np.exp(1j * (np.pi + 1e-9)), 1.0])
        with pytest.raises(PhaseTooClose):
            cayley_forward(u0, 0.0)


class TestBuildProjection:
    def test_standard_basis_seed_is_captured_exactly(self):
        h0 = spread_diagonal(16, 1.0)
        f = np.zeros(16, dtype=complex)
        f[3] = 1.0
        p = _window_basis(herm_eig(h0), f[:, None], 1.0, 4)
        assert np.linalg.norm(f - p.columns @ (p.columns.conj().T @ f)) <= 1e-12

    def test_single_cell_rank_bound(self):
        h0 = spread_diagonal(8, 1.0)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f /= np.linalg.norm(f)
        p = _window_basis(herm_eig(h0), f[:, None], 1.0, 1)
        assert p.rank <= 1
        assert p.params.eps == pytest.approx(1.0)

    def test_rank_capped_by_cells_times_seeds(self):
        inst = reduction_instance(0, 64, 3, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 8)
        assert p.rank <= 8 * 3
        assert op_norm(p.columns.conj().T @ p.columns - np.eye(p.rank)) <= 1e-12

    def test_huge_cell_count_visits_only_occupied_cells(self, address_space_cap):
        # spread_diagonal(64) puts one eigenvalue in each of 64 cells, as any finer partition does
        inst = reduction_instance(1, 64, 2, 0.5)
        fine = build_direction_projection(inst.h0, inst.a, inst.half_width, 64)
        huge = build_direction_projection(inst.h0, inst.a, inst.half_width, 10**12)
        np.testing.assert_array_equal(huge.columns, fine.columns)
        assert huge.params.cells == 10**12
        seeded = _window_basis(herm_eig(inst.h0), fine.directions, 1.0, 10**12)
        assert seeded.columns.tobytes() == huge.columns.tobytes()

    def test_bad_window(self):
        h0 = spread_diagonal(8, 1.0)
        f = np.zeros(8, dtype=complex)
        f[7] = 1.0  # eigenvalue near +1, outside a shrunken window
        with pytest.raises(BadWindow):
            _window_basis(herm_eig(h0), f[:, None], 0.5, 64)


class TestProjectionAudit:
    def test_full_space_trivial(self):
        inst = reduction_instance(1, 32, 2, 0.5)
        p = replace(full_space(32, inst.h0), params=None)
        with pytest.raises(ValueError):
            audit_projection_estimates(p, inst.h0, inst.u0, [1])

    def test_bounds_hold_on_instance(self):
        inst = reduction_instance(2, 128, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 16)
        report = audit_projection_estimates(p, inst.h0, inst.u0, M_LIST + [0])
        assert report.passed, report.violations()
        zero_power = [c for c in report.checks if c.name == "base_power[0]"]
        assert zero_power[0].value <= 1e-10

    @given(st.integers(0, 200))
    @settings(max_examples=6)
    def test_bounds_hold_randomised(self, seed):
        inst = reduction_instance(seed, 96, (seed % 3) + 1, 0.6)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 12)
        report = audit_projection_estimates(p, inst.h0, inst.u0, M_LIST)
        assert report.passed, report.violations()

    def test_non_integer_power_rejected(self):
        inst = reduction_instance(1, 32, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        with pytest.raises(UnishiftError, match="whole numbers"):
            audit_projection_estimates(p, inst.h0, inst.u0, [1.5])

    def test_resolvent_compression_scaling(self):
        # the off-block resolvent decays like 1/sqrt(cells); fit the log-log slope
        inst = reduction_instance(5, 256, 1, 0.5)
        res = np.linalg.inv(1j * np.eye(256) + inst.h0)
        cells = [4, 8, 16, 32, 64]
        vals = []
        for n in cells:
            p = build_direction_projection(inst.h0, inst.a, inst.half_width, n)
            value = _offblock(p.columns, res @ p.columns)
            assert value <= p.params.eps + 1e-10
            vals.append(value)
        slope = np.polyfit(np.log(cells), np.log(vals), 1)[0]
        assert -0.65 <= slope <= -0.35, slope


class TestPerturbationAudit:
    def test_zero_direction(self):
        inst = reduction_instance(3, 64, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 8)
        z = np.zeros((64, 64), dtype=complex)
        report = audit_perturbation_estimates(p, inst.u0, inst.u0, z, 2.0, [1], [0.0, 1.0])
        direction = [c for c in report.checks if c.name == "direction_offblock"][0]
        assert direction.value <= 1e-12

    def test_bounds_hold_on_instance(self):
        inst = reduction_instance(4, 128, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 16)
        report = audit_perturbation_estimates(
            p, inst.u0, inst.u, inst.a, 2.0, M_LIST, T_GRID
        )
        assert report.passed, report.violations()

    def test_samples_must_stay_in_range(self):
        inst = reduction_instance(4, 64, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 8)
        with pytest.raises(ValueError):
            audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, 1.0, [1], [1.5])

    def test_non_integer_power_rejected(self):
        inst = reduction_instance(1, 32, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        with pytest.raises(UnishiftError, match="whole numbers"):
            audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, 2.0, [2.5], [0.0])


class TestCompressedModel:
    def test_full_space_reproduces_pair(self):
        inst = reduction_instance(6, 48, 2, 0.5)
        model = compressed_model(full_space(48, inst.h0), inst.h0, inst.a, inst.phase)
        assert op_norm(model.u0p - inst.u0) <= 48 * 1e-10
        assert op_norm(model.ap - inst.a) <= 1e-12
        assert op_norm(model.up - inst.u) <= 48 * 1e-10

    def test_zero_direction_freezes_path(self):
        inst = reduction_instance(7, 48, 2, 0.5)
        z = np.zeros((48, 48), dtype=complex)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 8)
        model = compressed_model(p, inst.h0, z, inst.phase)
        assert op_norm(model.up - model.u0p) <= 1e-12

    def test_invariants(self):
        inst = reduction_instance(8, 96, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 12)
        model = compressed_model(p, inst.h0, inst.a, inst.phase)
        r = model.rank
        eye = np.eye(r)
        assert op_norm(model.u0p.conj().T @ model.u0p - eye) <= r * 1e-10
        assert op_norm(model.up.conj().T @ model.up - eye) <= r * 1e-10
        assert op_norm(model.ap - model.ap.conj().T) <= 1e-12
        assert op_norm(model.up - UnitaryPath(model.u0p, model.ap).at(1.0)) <= r * 1e-10

    def test_model_audit_bounds_hold(self):
        inst = reduction_instance(9, 128, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 16)
        report = audit_compressed_model(
            p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, M_LIST, [1, 2, 3]
        )
        assert report.passed, report.violations()

    @pytest.mark.parametrize("m_list, k_list", [([1], [0.5]), ([1.5], [1])])
    def test_non_integer_power_rejected(self, m_list, k_list):
        inst = reduction_instance(1, 32, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        with pytest.raises(UnishiftError, match="whole numbers"):
            audit_compressed_model(p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, m_list, k_list)

    def test_model_audit_trivial_cases(self):
        inst = reduction_instance(10, 64, 2, 0.5)
        # A = 0: the first block of quantities collapses to zero
        z = np.zeros((64, 64), dtype=complex)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 8)
        report = audit_compressed_model(p, inst.h0, z, inst.u0, inst.u0, inst.phase, 2.0, [1], [1])
        by_name = {c.name: c for c in report.checks}
        assert by_name["exp_step_offblock"].value <= 1e-12
        assert by_name["propagator_vs_compressed"].value <= 1e-12
        assert by_name["taylor_remainder_tracenorm"].value <= 1e-12
        # P = full space: power errors vanish
        eye = np.eye(64, dtype=np.complex128)
        full = one_cell_basis(eye, p.eigenvalues, p.eigenvectors, p.params, eye[:, :2])
        report = audit_compressed_model(
            full, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, [1, 2], [1]
        )
        for c in report.checks:
            if c.name.startswith(("base_power_error", "pert_power_error", "mixed_trace")):
                assert c.value <= 64 * 1e-10, c


class TestConvergenceStudy:
    def test_zero_direction(self):
        inst = reduction_instance(11, 64, 2, 0.5)
        z = np.zeros((64, 64), dtype=complex)
        with pytest.raises(ValueError):
            convergence_study(inst.h0, z, inst.phase, TrigPolynomial.monomial(2), [4, 8])

    def test_constant_polynomial(self):
        inst = reduction_instance(11, 64, 2, 0.5)
        study = convergence_study(inst.h0, inst.a, inst.phase, TrigPolynomial({0: 1.0}), [4, 8])
        assert study.full_trace == pytest.approx(0.0, abs=1e-12)
        for row in study.rows:
            assert row.abs_diff <= 1e-12

    def test_trend(self):
        inst = reduction_instance(12, 128, 2, 0.4)
        study = convergence_study(inst.h0, inst.a, inst.phase, TrigPolynomial.monomial(2), [4, 8, 16, 32])
        diffs = [row.abs_diff for row in study.rows]
        assert diffs[-1] <= diffs[0]
        assert diffs[-1] <= 1e-3

    def test_ambient_must_dominate_partition(self):
        inst = reduction_instance(13, 32, 2, 0.5)
        with pytest.raises(ValueError):
            convergence_study(inst.h0, inst.a, inst.phase, TrigPolynomial.monomial(2), [16])

    def test_identity_projection_matches_full(self):
        inst = reduction_instance(14, 64, 2, 0.5)
        p_full = full_space(64, inst.h0)
        model = compressed_model(p_full, inst.h0, inst.a, inst.phase)
        poly = TrigPolynomial.monomial(2)
        full = lhs_trace(inst.u0, inst.u, inst.a, poly)
        compressed = lhs_trace(model.u0p, model.up, model.ap, poly)
        assert abs(full - compressed) <= 64 * 1e-10


class TestGenerators:
    def test_spread_diagonal_strictly_inside(self):
        h0 = spread_diagonal(16, 0.7)
        w = np.diagonal(h0).real
        assert np.all(np.abs(w) < 0.7)
        assert np.all(np.diff(w) > 0)

    def test_low_rank_hermitian(self):
        rng = np.random.default_rng(0)
        a = random_low_rank_hermitian(rng, 32, 3, 0.8)
        assert op_norm(a - a.conj().T) <= 1e-12
        w = np.linalg.eigvalsh(a)
        assert np.sum(np.abs(w) > 1e-10) == 3
        assert op_norm(a) == pytest.approx(0.8, rel=1e-10)

    def test_reduction_instance_consistency(self):
        inst = reduction_instance(15, 64, 2, 0.5)
        assert op_norm(inst.u0.conj().T @ inst.u0 - np.eye(64)) <= 64 * 1e-12
        assert op_norm(cayley_forward(inst.u0, inst.phase) - inst.h0) <= 64 * 1e-10


def assert_matches_reference(report, reference):
    assert [c.name for c in report.checks] == [name for name, _, _ in reference]
    for check, (name, value, bound) in zip(report.checks, reference):
        assert abs(check.value - value) <= 1e-12 * (1 + abs(value)), (name, check.value, value)
        assert abs(check.bound - bound) <= 1e-12 * (1 + abs(bound)), (name, check.bound, bound)


OFF_IDENTITY = ["haar", "repeated", "edge", "isometry", "outside"]


def off_identity_case(kind: str):
    """An instance whose H0 is not diagonal in the standard basis, and a projection for it.

    ``haar``: H0 = Q diag(levels) Q* with a Haar Q, 8 cells.  ``repeated``:
    four 12-fold eigenvalues, one per cell of 4, under a Haar Q.  ``edge``:
    every cell edge of 4 cells in (-1, 1] is an eigenvalue, exactly: H0 is a
    permuted diagonal, so its eigenbasis is a permutation, not I.
    ``isometry``: the ``haar`` H0 with a Haar isometry B that carries H0's
    eigenpairs and one cell holding every row (``one_cell_basis``).  ``outside``: 11 of 44 eigenvalues lie
    outside the window (-1, 1] of 2 unequal cells, so their rows are in no
    cell.  U0 is the dense Cayley image of H0, and U = e^{iA} U0 from a full
    eigh of the rank-2 A.
    """
    rng = np.random.default_rng(OFF_IDENTITY.index(kind) + 40)
    if kind == "edge":
        levels = np.concatenate([np.linspace(-1.0, 1.0, 5)[1:], np.linspace(-0.95, 0.95, 28)])
        order = rng.permutation(levels.size)
        h0, cells = np.diag(levels[order]).astype(complex), 4
    else:
        if kind == "repeated":
            levels, cells = np.repeat([-0.7, -0.2, 0.1, 0.6], 12), 4
        elif kind == "outside":
            inside = np.concatenate([np.linspace(-0.9, 0.9, 30), [0.95, 0.96, 0.97]])
            levels, cells = np.concatenate([np.linspace(-1.4, -1.05, 6), inside, np.linspace(1.1, 1.5, 5)]), 2
        else:
            levels, cells = spread_diagonal(64, 1.0).diagonal().real, 8
        q = haar_unitary(rng, levels.size)
        h0 = (q * levels) @ q.conj().T
        h0 = 0.5 * (h0 + h0.conj().T)
    dim = levels.size
    a = random_low_rank_hermitian(rng, dim, 2, 0.6)
    u0 = _cayley(h0, 0.3)
    inst = ReductionInstance(h0=h0, a=a, phase=0.3, u0=u0, u=UnitaryPath(u0, a).at(1.0), half_width=1.0)
    p = build_direction_projection(h0, a, 1.0, cells)
    if kind == "isometry":
        b = haar_unitary(rng, dim)[:, : dim // 3]
        p = one_cell_basis(b, p.eigenvalues, p.eigenvectors, p.params, p.directions)
    return inst, p


class TestThinFactorsOracle:
    M = [0, 1, -1, 2, -2, 4, -4]
    K = [0, 1, -1, 2, -4]

    def audit_against_reference(self, p, inst, a, u, samples):
        pert = audit_perturbation_estimates(p, inst.u0, u, a, 2.0, self.M, samples)
        comp = audit_compressed_model(p, inst.h0, a, inst.u0, u, inst.phase, 2.0, self.M, self.K)
        b, eps = p.columns, p.params.eps
        assert_matches_reference(pert, dense_perturbation_audit(b, eps, inst.u0, u, a, 2.0, self.M, samples))
        assert_matches_reference(comp, dense_compressed_audit(
            b, eps, inst.h0, a, inst.u0, u, inst.phase, 2.0, self.M, self.K, T_GRID, _exp_remainder_factor
        ))
        model = compressed_model(p, inst.h0, a, inst.phase)
        for got, want in zip((model.u0p, model.ap, model.up), dense_compressed_model(b, inst.h0, a, inst.phase)):
            assert np.max(np.abs(got - want)) <= 1e-12

    @given(
        seeds,
        st.integers(8, 64),
        st.sampled_from([1, 2, 3, None]),
        st.integers(1, 16),
        st.floats(0.05, 2.5),
    )
    @settings(max_examples=30)
    def test_matches_dense_formulas(self, seed, ambient, rank, cells, scale):
        # rank None is a full-rank direction
        inst = reduction_instance(seed, ambient, rank or ambient, scale)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, cells)
        self.audit_against_reference(p, inst, inst.a, inst.u, T_GRID)

    @given(seeds, st.integers(8, 64), st.sampled_from([1, 2, 3, None]), st.data())
    @settings(max_examples=20)
    def test_matches_dense_formulas_on_any_isometry(self, seed, ambient, rank, data):
        # window projections capture the seeds, so P_perp F is roundoff there;
        # a random isometry B makes every P_perp F quantity non-trivial
        inst = reduction_instance(seed, ambient, rank or ambient, data.draw(st.floats(0.05, 2.5)))
        cols = data.draw(st.integers(1, ambient))
        b = haar_unitary(np.random.default_rng(seed + 1), ambient)[:, :cols]
        window = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        p = one_cell_basis(b, window.eigenvalues, window.eigenvectors, window.params, window.directions)
        self.audit_against_reference(p, inst, inst.a, inst.u, T_GRID)

    def test_projection_of_full_rank(self):
        # one eigenvalue per cell: every cell piece is a unit vector, so ran P is everything
        inst = reduction_instance(3, 8, 1, 0.7)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 8)
        assert p.rank == 8
        self.audit_against_reference(p, inst, inst.a, inst.u, T_GRID)

    def test_zero_direction_and_zero_time(self):
        inst = reduction_instance(4, 32, 2, 0.5)
        zero = np.zeros((32, 32), dtype=complex)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 8)
        self.audit_against_reference(p, inst, zero, inst.u0, [0.0])
        self.audit_against_reference(p, inst, inst.a, inst.u, [0.0])

    @pytest.mark.parametrize("kind", OFF_IDENTITY)
    def test_matches_dense_formulas_off_the_identity_basis(self, kind):
        inst, p = off_identity_case(kind)
        assert np.max(np.abs(p.eigenvectors - np.eye(p.ambient_dim))) > 0.5
        self.audit_against_reference(p, inst, inst.a, inst.u, T_GRID)


class TestKeptPairsOracle:
    """Kept eigenpairs from a basis of the range against one full eigh of the d x d matrix."""

    @staticmethod
    def assert_matches_dense(h):
        f, tau, top = _kept_pairs(h)
        f_ref, tau_ref, top_ref = dense_kept_pairs(h)
        scale = max(op_norm(h), 1.0)
        assert tau.shape == tau_ref.shape
        assert np.max(np.abs(tau - tau_ref), initial=0.0) <= 1e-12 * scale
        assert op_norm((f * tau) @ f.conj().T - h) <= 1e-12 * scale
        assert np.max(np.abs(f.conj().T @ f - np.eye(tau.size)), initial=0.0) <= 1e-12
        assert abs(top - top_ref) <= 1e-14 * scale
        return tau

    @pytest.mark.parametrize("dim", [1, 8, 64])
    @pytest.mark.parametrize("rank", ["zero", "one", "two", "quarter", "full"])
    @pytest.mark.parametrize("norm", [0.5, 3.0])
    def test_random_ranks(self, dim, rank, norm):
        k = {"zero": 0, "one": 1, "two": min(2, dim), "quarter": dim // 4, "full": dim}[rank]
        if k == 0:
            zero = np.zeros((dim, dim), dtype=complex)
            assert self.assert_matches_dense(zero).size == 0
            with pytest.raises(ZeroDirection):
                build_direction_projection(spread_diagonal(dim, 1.0), zero, 1.0, 1)
            return
        h = random_low_rank_hermitian(np.random.default_rng(100 * dim + k), dim, k, norm)
        assert self.assert_matches_dense(h).size == k

    @pytest.mark.parametrize(
        "taus",
        [[0.5, 0.5, 0.5, -0.5, -0.5], [1.0] * 16, [0.7] * 64, [2.0, 2.0, 1e-3, 1e-3, -1e-3]],
        ids=["two-levels", "projection", "multiple-of-identity", "near-zero-pairs"],
    )
    def test_repeated_eigenvalues(self, taus):
        q = haar_unitary(np.random.default_rng(len(taus)), 64)[:, : len(taus)]
        assert self.assert_matches_dense((q * taus) @ q.conj().T).size == len(taus)

    @pytest.mark.parametrize("norm", [0.5, 2.0, 40.0])
    def test_one_kept_one_dropped_below_the_threshold(self, norm):
        # 1e-11 ||H|| is above the drop threshold 1e-12 max(||H||, 1), 1e-13 ||H|| below it
        taus = norm * np.array([1.0, -0.6, 1e-11, -1e-13])
        q = haar_unitary(np.random.default_rng(7), 64)[:, :4]
        kept = self.assert_matches_dense((q * taus) @ q.conj().T)
        np.testing.assert_allclose(np.sort(kept), np.sort(taus[:3]), rtol=0, atol=1e-14 * max(norm, 1.0))


class TestStreamedAuditsOracle:
    """Every audit value against its dense definition with P = BB*, full powers and inverses."""

    M = [0, 1, -1, 2, -3, 4, -4]
    K = [0, -1, 2, -4]
    SAMPLES = np.linspace(-2.0, 2.0, 5)

    @pytest.mark.parametrize(
        "ambient, rank, cells, full",
        [(64, 2, 8, False), (64, 1, 64, True), (96, 3, 12, False), (96, 2, 48, True)],
    )
    def test_matches_dense_definitions(self, ambient, rank, cells, full):
        inst = reduction_instance(ambient + cells, ambient, rank, 0.6, phase=0.3)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, cells)
        assert (p.rank == ambient) == full
        assert all(report.passed for report in self.audit_against_dense(p, inst))

    @pytest.mark.parametrize("kind", OFF_IDENTITY)
    def test_matches_dense_definitions_off_the_identity_basis(self, kind):
        inst, p = off_identity_case(kind)
        reports = self.audit_against_dense(p, inst)
        if kind != "isometry":  # a window projection passes its own audits
            assert all(report.passed for report in reports)
        if kind == "repeated":  # two seeds in each of four 12-fold eigenspaces
            assert p.rank == 8
        if kind == "outside":  # 33 eigen-rows in two cells of 15 and 18, padded to 18
            assert (p.cell_rows >= 0).sum() == 33 and p.cell_rows.shape == (2, 18)

    def audit_against_dense(self, p, inst):
        """The three audits, each value within 1e-12 and each bound within 1e-12 (1 + bound) of its definition."""
        b, eps = p.columns, p.params.eps
        reports = [
            audit_projection_estimates(p, inst.h0, inst.u0, self.M),
            audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, 2.0, self.M, self.SAMPLES),
            audit_compressed_model(p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, self.M, self.K),
        ]
        references = [
            dense_projection_audit(b, p.directions, eps, inst.h0, inst.u0, self.M),
            dense_perturbation_audit(b, eps, inst.u0, inst.u, inst.a, 2.0, self.M, self.SAMPLES),
            dense_compressed_audit(
                b, eps, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, self.M, self.K, T_GRID,
                _exp_remainder_factor,
            ),
        ]
        for report, reference in zip(reports, references):
            assert [c.name for c in report.checks] == [name for name, _, _ in reference]
            for check, (name, value, bound) in zip(report.checks, reference):
                assert abs(check.value - value) <= 1e-12, (name, check.value, value)
                assert abs(check.bound - bound) <= 1e-12 * (1 + bound), (name, check.bound, bound)
        return reports


class TestPerCellOrthonormalisation:
    """One SVD per cell spans what one global Gram-Schmidt over all pieces spans."""

    @staticmethod
    def assert_matches_global(h0, seeds, half_width, cells):
        p = _window_basis(herm_eig(h0), np.asarray(seeds, dtype=complex), half_width, cells)
        ref = window_basis_global_mgs(h0, seeds, half_width, cells)
        b = p.columns
        assert p.rank == ref.shape[1]
        assert np.max(np.abs(b @ b.conj().T - ref @ ref.conj().T)) <= 1e-12
        assert np.max(np.abs(b.conj().T @ b - np.eye(p.rank))) <= 1e-12
        return p

    @staticmethod
    def unit(v):
        v = np.asarray(v, dtype=complex)
        return v / np.linalg.norm(v)

    @given(seeds, st.integers(1, 4), st.integers(1, 12))
    @settings(max_examples=25)
    def test_random_seeds_and_cells(self, seed, count, cells):
        inst = reduction_instance(seed, 48, count, 0.5)
        f = herm_eig(inst.a, check=False).vectors[:, -count:]
        rng = np.random.default_rng(seed)
        f = f @ haar_unitary(rng, count)
        self.assert_matches_global(inst.h0, f, inst.half_width, cells)

    def test_repeated_eigenvalues_in_one_cell(self):
        levels = np.repeat([-0.7, -0.2, 0.1, 0.6], 6)
        rng = np.random.default_rng(1)
        q = haar_unitary(rng, levels.size)
        h0 = (q * levels) @ q.conj().T
        f = np.column_stack([self.unit(rng.standard_normal(24) + 1j * rng.standard_normal(24)) for _ in range(3)])
        p = self.assert_matches_global(h0, f, 1.0, 4)
        # three seeds in each of four six-fold eigenspaces
        assert p.rank == 12

    def test_eigenvalue_on_a_cell_edge(self):
        cells, half_width = 4, 1.0
        edges = np.linspace(-half_width, half_width, cells + 1)
        levels = np.array([edges[1], edges[2], edges[3], half_width, -0.9, -0.3, 0.2, 0.8])
        h0 = np.diag(levels).astype(complex)
        f = np.column_stack([self.unit(np.arange(1.0, 9.0)), self.unit(np.cos(np.arange(8.0)))])
        p = self.assert_matches_global(h0, f, half_width, cells)
        # cells are closed on the right, so each holds two eigenvalues and both
        # seeds give two directions per cell; closed on the left it would be 7
        assert p.rank == 8

    def test_seed_with_no_piece_in_some_cells(self):
        h0 = spread_diagonal(16, 1.0)
        # eigenvalues of the spread diagonal ascend, so entries 0-3 and 12-15 are cells 0 and 3
        f = np.zeros((16, 2), dtype=complex)
        f[[0, 2, 13], 0] = [1.0, 2.0, 1.0j]
        f[:, 1] = np.linspace(1.0, 2.0, 16)
        f /= np.linalg.norm(f, axis=0)
        p = self.assert_matches_global(h0, f, 1.0, 4)
        assert p.rank == 2 + 4

    def test_parallel_pieces_drop_one(self):
        h0 = spread_diagonal(16, 1.0)
        x = np.zeros(16, dtype=complex)
        x[4:8] = [1.0, -1.0j, 0.5, 2.0]  # cell 1 of 4
        y, z = np.zeros(16, dtype=complex), np.zeros(16, dtype=complex)
        y[0], z[12] = 1.0, 1.0  # cells 0 and 3
        f = np.column_stack([self.unit(x + y), self.unit(3.0j * x + z)])
        p = self.assert_matches_global(h0, f, 1.0, 4)
        # cells 0, 1 and 3 each give one direction; the second piece in cell 1 is dropped
        assert p.rank == 3

    def test_small_piece_counts_at_unit_length(self):
        h0 = spread_diagonal(8, 1.0)
        e = np.eye(8, dtype=complex)
        # cell 1 of 2 holds a piece of norm 1e-6 along e_4 and a unit piece 1e-7 off it: normalised
        # first, they are independent; unnormalised, their smaller singular value is about 1e-13
        f = np.column_stack([self.unit(e[0] + 1e-6 * e[4]), self.unit(e[4] + 1e-7 * e[5])])
        p = self.assert_matches_global(h0, f, 1.0, 2)
        assert p.rank == 3


class TestOneDecompositionPerCall:
    def test_convergence_study_diagonalises_h0_once(self, monkeypatch):
        from unishift import reduction

        inst = reduction_instance(21, 128, 2, 0.4)
        ladder = [4, 8, 16, 32]
        calls = []
        original = reduction.herm_eig

        def counting(h, check=True):
            calls.append(np.array_equal(h, inst.h0))
            return original(h, check)

        monkeypatch.setattr(reduction, "herm_eig", counting)
        poly = TrigPolynomial.monomial(2)
        study = convergence_study(inst.h0, inst.a, inst.phase, poly, ladder)
        assert sum(calls) == 1
        monkeypatch.undo()

        half_width = float(np.max(np.abs(np.linalg.eigvalsh(inst.h0)))) * (1.0 + 1e-12) + 1e-15
        full = lhs_trace(inst.u0, inst.u, inst.a, poly)
        assert abs(study.full_trace - full) <= 1e-12
        for row, n in zip(study.rows, ladder):
            p = build_direction_projection(inst.h0, inst.a, half_width, n)
            model = compressed_model(p, inst.h0, inst.a, inst.phase)
            compressed = lhs_trace(model.u0p, model.up, model.ap, poly)
            assert (row.cells, row.rank) == (n, p.rank)
            assert abs(row.compressed_trace - compressed) <= 1e-12
            assert abs(row.abs_diff - abs(full - compressed)) <= 1e-12


class TestOneOperandCheck:
    """Each public entry point checks each Hermitian operand once; nothing behind it checks again."""

    @staticmethod
    def count(monkeypatch, name):
        from unishift import reduction

        calls = []
        original = getattr(reduction, name)
        monkeypatch.setattr(reduction, name, lambda *args, **kw: calls.append(1) or original(*args, **kw))
        return calls

    @pytest.mark.parametrize("ladder", [[4], [4, 8], [2, 4, 8, 16], [2, 4, 8, 12, 16, 24]])
    def test_convergence_study_checks_h0_and_a_once(self, monkeypatch, ladder):
        inst = reduction_instance(21, 96, 2, 0.4)
        checks = self.count(monkeypatch, "require_hermitian")
        convergence_study(inst.h0, inst.a, inst.phase, TrigPolynomial.monomial(2), ladder)
        assert len(checks) == 2

    def test_each_entry_point_checks_once_and_diagonalises_as_before(self, monkeypatch):
        inst = reduction_instance(4, 64, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        checks, eigs = self.count(monkeypatch, "require_hermitian"), self.count(monkeypatch, "herm_eig")
        cases = [
            (2, 1, lambda: build_direction_projection(inst.h0, inst.a, 1.0, 4)),
            (1, 0, lambda: compressed_model(p, inst.h0, inst.a, 0.0)),
            (0, 0, lambda: audit_projection_estimates(p, inst.h0, inst.u0, [1])),
            (1, 0, lambda: audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, 2.0, [1], [0.0])),
            (1, 0, lambda: audit_compressed_model(p, inst.h0, inst.a, inst.u0, inst.u, 0.0, 2.0, [1], [1])),
        ]
        for n_checks, n_eigs, call in cases:
            checks.clear()
            eigs.clear()
            call()
            assert (len(checks), len(eigs)) == (n_checks, n_eigs)

    @pytest.mark.parametrize("ranks", ["16", "4,8,16,32"])
    def test_bounds_checks_and_diagonalises_h0_once_per_run(self, monkeypatch, tmp_path, ranks):
        """H0 and A are checked once per run, A again by two audits of each partition; H0 has one eigh."""
        from unishift.cli import main

        checks, eigs = self.count(monkeypatch, "require_hermitian"), self.count(monkeypatch, "herm_eig")
        assert main(["bounds", "--ambient", "64", "--ranks", ranks, "--out", str(tmp_path / "bounds.json")]) == 0
        assert (len(checks), len(eigs)) == (2 + 2 * len(ranks.split(",")), 1)

    def test_each_audit_finds_the_kept_pairs_of_a_at_most_once(self, monkeypatch):
        """One checked frame per call: each Hermitian operand checked once, A's kept pairs found at most once."""
        from unishift import reduction

        inst = reduction_instance(4, 64, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        checks, ambient = self.count(monkeypatch, "require_hermitian"), []
        original = reduction._kept_pairs
        monkeypatch.setattr(reduction, "_kept_pairs", lambda h: ambient.append(h.shape == (64, 64)) or original(h))
        cases = [
            (0, 0, lambda: audit_projection_estimates(p, inst.h0, inst.u0, [1, -2])),
            (1, 1, lambda: audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, 2.0, [1, -2], [0.0, 1.0])),
            (1, 1, lambda: audit_compressed_model(p, inst.h0, inst.a, inst.u0, inst.u, 0.0, 2.0, [1, -2], [1, 2])),
            (1, 0, lambda: compressed_model(p, inst.h0, inst.a, 0.0)),
        ]
        for n_checks, n_pairs, call in cases:
            checks.clear()
            ambient.clear()
            call()
            assert (len(checks), sum(ambient)) == (n_checks, n_pairs)


class TestTypedErrors:
    def test_each_guard_raises_its_type(self):
        inst = reduction_instance(16, 32, 2, 0.5)
        zero = np.zeros((32, 32), dtype=complex)
        poly = TrigPolynomial.monomial(2)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        bare = replace(p, params=None)
        dec, unit = herm_eig(inst.h0), np.eye(32, dtype=complex)[:, :1]
        skew_a = inst.a + 1e-3 * np.triu(np.ones((32, 32)), 1)
        skew_h0 = inst.h0 + 1e-3 * np.triu(np.ones((32, 32)), 1)
        small = np.eye(31, dtype=complex)
        wide = reduction_instance(16, 64, 2, 0.5)
        # U0 must be V diag(c) V* with |c| = 1 in the eigenbasis V of the H0 that built the projection
        haar = haar_unitary(np.random.default_rng(5), 32)
        haar_u = UnitaryPath(haar, inst.a).at(1.0)
        other = spread_diagonal(32, 0.9)
        cases = [
            (NotUnitary, lambda: audit_projection_estimates(p, inst.h0, 1.01 * inst.u0, [1, 2])),
            (NotUnitary, lambda: audit_perturbation_estimates(
                p, 1.01 * inst.u0, 1.01 * inst.u, inst.a, 2.0, [1, 2], [0.0])),
            (NotUnitary, lambda: audit_compressed_model(
                p, inst.h0, inst.a, 1.01 * inst.u0, 1.01 * inst.u, inst.phase, 2.0, [1, 2], [1])),
            (PathMismatch, lambda: audit_projection_estimates(p, inst.h0, haar, [1, 2])),
            (PathMismatch, lambda: audit_perturbation_estimates(p, haar, haar_u, inst.a, 2.0, [1, 2], [0.0])),
            (PathMismatch, lambda: audit_compressed_model(
                p, inst.h0, inst.a, haar, haar_u, inst.phase, 2.0, [1, 2], [1])),
            (PathMismatch, lambda: audit_projection_estimates(p, other, inst.u0, [1, 2])),
            (PathMismatch, lambda: audit_compressed_model(
                p, other, inst.a, inst.u0, inst.u, inst.phase, 2.0, [1, 2], [1])),
            (PathMismatch, lambda: compressed_model(p, other, inst.a, inst.phase)),
            (PartitionTooFine, lambda: convergence_study(inst.h0, inst.a, inst.phase, poly, [16])),
            (BadWindow, lambda: convergence_study(inst.h0, inst.a, inst.phase, poly, [0, 4])),
            (ZeroDirection, lambda: build_direction_projection(inst.h0, zero, 1.0, 4)),
            (ZeroDirection, lambda: convergence_study(inst.h0, zero, inst.phase, poly, [4])),
            (BadWindow, lambda: _window_basis(dec, unit, 0.0, 4)),
            (BadWindow, lambda: _window_basis(dec, unit, 1.0, 0)),
            (MissingConstruction, lambda: audit_projection_estimates(bare, inst.h0, inst.u0, [1])),
            (MissingConstruction, lambda: audit_perturbation_estimates(
                bare, inst.u0, inst.u, inst.a, 2.0, [1], [0.0])),
            (MissingConstruction, lambda: audit_compressed_model(
                bare, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, [1], [1])),
            (SampleOutOfRange, lambda: audit_perturbation_estimates(
                p, inst.u0, inst.u, inst.a, 1.0, [1], [-1.5])),
            (NotHermitian, lambda: audit_projection_estimates(p, skew_h0, inst.u0, [1])),
            (DimensionMismatch, lambda: audit_projection_estimates(p, inst.h0, small, [1])),
            (NotHermitian, lambda: audit_perturbation_estimates(p, inst.u0, inst.u, skew_a, 2.0, [1], [0.0])),
            (DimensionMismatch, lambda: audit_perturbation_estimates(
                p, inst.u0, inst.u[:, :31], inst.a, 2.0, [1], [0.0])),
            (NotHermitian, lambda: audit_compressed_model(
                p, inst.h0, skew_a, inst.u0, inst.u, inst.phase, 2.0, [1], [1])),
            (DimensionMismatch, lambda: audit_compressed_model(
                p, inst.h0, inst.a, small, inst.u, inst.phase, 2.0, [1], [1])),
            (NotHermitian, lambda: compressed_model(p, skew_h0, inst.a, inst.phase)),
            (DimensionMismatch, lambda: compressed_model(full_space(31, small), inst.h0, inst.a, 0.0)),
            (DimensionMismatch, lambda: build_direction_projection(wide.h0, inst.a, 1.0, 4)),
            (DimensionMismatch, lambda: convergence_study(wide.h0, inst.a, inst.phase, poly, [4])),
            (DimensionMismatch, lambda: unitary_eig(np.ones((3, 4)))),
            (DimensionMismatch, lambda: unitary_eig(np.ones(3))),
            (ZeroDirection, lambda: _window_basis(dec, unit[:, :0], 1.0, 4)),
            (BadWindow, lambda: convergence_study(inst.h0, inst.a, inst.phase, poly, [])),
            (DimensionMismatch, lambda: reduction_instance(1, 0, 2, 0.5)),
            (DimensionMismatch, lambda: reduction_instance(1, 4, 8, 0.5)),
            (BadWindow, lambda: _window_basis(dec, unit, 1.0, 2.5)),
            (BadWindow, lambda: build_direction_projection(inst.h0, inst.a, 1.0, 2.5)),
            (BadWindow, lambda: _window_basis(dec, unit, 1.0, 2**63)),
            # lists that are not iterables, a projection that is not a basis, polynomials that are not
            (UnishiftError, lambda: audit_projection_estimates(p, inst.h0, inst.u0, None)),
            (UnishiftError, lambda: audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, 2.0, None, [0.0])),
            (UnishiftError, lambda: audit_compressed_model(
                p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, None, [1])),
            (UnishiftError, lambda: audit_compressed_model(
                p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, [1], None)),
            (UnishiftError, lambda: audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, 2.0, [1], None)),
            (UnishiftError, lambda: convergence_study(inst.h0, inst.a, inst.phase, poly, None)),
            (MissingConstruction, lambda: audit_projection_estimates(None, inst.h0, inst.u0, [1])),
            (MissingConstruction, lambda: audit_perturbation_estimates(
                None, inst.u0, inst.u, inst.a, 2.0, [1], [0.0])),
            (MissingConstruction, lambda: audit_compressed_model(
                None, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, [1], [1])),
            (MissingConstruction, lambda: compressed_model(None, inst.h0, inst.a, inst.phase)),
            (UnishiftError, lambda: lhs_trace(inst.u0, inst.u, inst.a, 3)),
            (UnishiftError, lambda: convergence_study(inst.h0, inst.a, 0.0, 3, [4])),
        ]
        for error, call in cases:
            with pytest.raises(error):
                call()
            assert issubclass(error, UnishiftError)

    @pytest.mark.parametrize(
        "error, call",
        [
            (DimensionMismatch, lambda inst, poly: reduction_instance(1, 32.5, 2, 0.5)),
            (DimensionMismatch, lambda inst, poly: reduction_instance(1, 32, 1.5, 0.5)),
            (DimensionMismatch, lambda inst, poly: reduction_instance(1, 32, True, 0.5)),
            (UnishiftError, lambda inst, poly: reduction_instance(-1, 32, 2, 0.5)),
            (UnishiftError, lambda inst, poly: reduction_instance(1.5, 32, 2, 0.5)),
            (UnishiftError, lambda inst, poly: reduction_instance(True, 32, 2, 0.5)),
            (BadWindow, lambda inst, poly: convergence_study(inst.h0, inst.a, inst.phase, poly, [4, 8.5])),
            (BadWindow, lambda inst, poly: convergence_study(inst.h0, inst.a, inst.phase, poly, [4, True])),
            (BadWindow, lambda inst, poly: build_direction_projection(inst.h0, inst.a, 1.0, True)),
            (UnishiftError, lambda inst, poly: audit_projection_estimates(
                build_direction_projection(inst.h0, inst.a, 1.0, 4), inst.h0, inst.u0, [True])),
        ],
        ids=["ambient-float", "rank-float", "rank-bool", "seed-negative", "seed-float", "seed-bool", "ladder-float", "ladder-bool", "cells-bool", "power-bool"],
    )
    def test_whole_sizes(self, error, call):
        """Sizes, cell counts and powers are ints or numpy integers, never floats or bools."""
        inst = reduction_instance(16, 32, 2, 0.5)
        with pytest.raises(error):
            call(inst, TrigPolynomial.monomial(2))

    @pytest.mark.parametrize(
        "error, call",
        [
            (UnishiftError, lambda inst, p: reduction_instance(1, 32, 2, 0.5, phase=np.inf)),
            (UnishiftError, lambda inst, p: reduction_instance(1, 32, 2, 0.0)),
            (UnishiftError, lambda inst, p: reduction_instance(1, 32, 2, -0.5)),
            (UnishiftError, lambda inst, p: reduction_instance(1, 32, 2, np.pi)),
            (UnishiftError, lambda inst, p: reduction_instance(1, 32, 2, np.nan)),
            (UnishiftError, lambda inst, p: reduction_instance(1, 32, 2, "0.5")),
            (UnishiftError, lambda inst, p: _cayley(inst.h0, np.nan)),
            (UnishiftError, lambda inst, p: convergence_study(inst.h0, inst.a, np.nan, TrigPolynomial.monomial(2), [4])),
            (UnishiftError, lambda inst, p: compressed_model(p, inst.h0, inst.a, -np.inf)),
            (UnishiftError, lambda inst, p: audit_compressed_model(
                p, inst.h0, inst.a, inst.u0, inst.u, np.nan, 2.0, [1], [1])),
            (BadWindow, lambda inst, p: _window_basis(herm_eig(inst.h0), p.directions[:, :1], np.nan, 4)),
            (BadWindow, lambda inst, p: build_direction_projection(inst.h0, inst.a, np.inf, 4)),
            (UnishiftError, lambda inst, p: audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, np.nan, [1], [])),
            (UnishiftError, lambda inst, p: audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, -1.0, [1], [])),
            (UnishiftError, lambda inst, p: audit_compressed_model(
                p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, np.nan, [1], [1])),
            (UnishiftError, lambda inst, p: audit_compressed_model(
                p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, -1.0, [1], [1])),
            (SampleOutOfRange, lambda inst, p: audit_perturbation_estimates(
                p, inst.u0, inst.u, inst.a, 2.0, [1], [np.nan])),
            (UnishiftError, lambda inst, p: reduction_instance(1, 32, 2, 0.5, phase="x")),
            (UnishiftError, lambda inst, p: audit_compressed_model(
                p, inst.h0, inst.a, inst.u0, inst.u, "x", 2.0, [1], [1])),
            (BadWindow, lambda inst, p: build_direction_projection(inst.h0, inst.a, "1", 4)),
            (UnishiftError, lambda inst, p: audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, "2", [1], [])),
            (SampleOutOfRange, lambda inst, p: audit_perturbation_estimates(
                p, inst.u0, inst.u, inst.a, 2.0, [1], ["a"])),
            (UnishiftError, lambda inst, p: reduction_instance(1, 32, 2, True)),
            (BadWindow, lambda inst, p: build_direction_projection(inst.h0, inst.a, True, 4)),
            (UnishiftError, lambda inst, p: audit_compressed_model(
                p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, True, [1], [1])),
        ],
        ids=["instance-phase-inf", "instance-scale-zero", "instance-scale-negative", "instance-scale-pi",
             "instance-scale-nan", "instance-scale-string", "cayley-phase-nan", "study-phase-nan", "model-phase-inf", "audit-phase-nan",
             "window-nan", "window-inf", "perturbation-t-nan", "perturbation-t-negative", "compressed-t-nan",
             "compressed-t-negative", "sample-nan", "instance-phase-string", "audit-phase-string", "window-string",
             "perturbation-t-string", "sample-string", "instance-scale-bool", "window-bool", "compressed-t-bool"],
    )
    def test_finite_scalars(self, error, call):
        """Phases, half-widths, audit horizons T and samples must be finite real numbers, never bools (T >= 0).

        NaN, Inf and strings never run.  The instance scale (the norm of A) is a real number in (0, pi)."""
        inst = reduction_instance(16, 32, 2, 0.5)
        with pytest.raises(error):
            call(inst, build_direction_projection(inst.h0, inst.a, inst.half_width, 4))

    def test_audits_check_u_against_the_endpoint(self):
        """U must lie within delta = 1e-10 / (2 max |m|) of e^{iA} U0 in the Hilbert-Schmidt norm."""
        inst = reduction_instance(16, 32, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        corner = np.zeros((32, 32), dtype=complex)
        corner[0, 0] = 1.0  # Hilbert-Schmidt norm 1
        audits = [
            lambda u, ms: audit_perturbation_estimates(p, inst.u0, u, inst.a, 2.0, ms, [0.0]),
            lambda u, ms: audit_compressed_model(p, inst.h0, inst.a, inst.u0, u, inst.phase, 2.0, ms, [1]),
        ]
        for audit in audits:
            for ms, delta in [([1], 5e-11), ([1, -4], 1.25e-11)]:
                assert audit(inst.u, ms).passed
                assert audit(inst.u + 0.5 * delta * corner, ms).passed
                for u in (inst.u + 2.0 * delta * corner, inst.u0):
                    with pytest.raises(PathMismatch):
                        audit(u, ms)
            # 2e-11 lies between the two tolerances
            assert audit(inst.u + 2e-11 * corner, [1]).passed
            with pytest.raises(PathMismatch):
                audit(inst.u + 2e-11 * corner, [1, -4])
            # 1.6e-9, half of d 1e-10, can move U^4 by 6.4e-9, far above the audit slack
            with pytest.raises(PathMismatch):
                audit(inst.u + 1.6e-9 * corner, [4])

    def test_power_beyond_the_roundoff_of_the_checks_is_refused(self):
        """delta = 1e-10 / (2 max |m|) below d eps names the power, not an operand, as at fault."""
        inst = reduction_instance(1, 32, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        audits = [
            lambda ms: audit_projection_estimates(p, inst.h0, inst.u0, ms),
            lambda ms: audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, 2.0, ms, [0.0]),
            lambda ms: audit_compressed_model(p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, [1], ms),
        ]
        for audit in audits:
            for ms in ([2**20], [1, -(2**20)], [7038]):  # 32 eps = 7.1e-15 > 1e-10 / 14076
                with pytest.raises(UnishiftError, match=f"power {ms[-1]} ") as info:
                    audit(ms)
                assert type(info.value) is UnishiftError
            assert audit([4096]).passed  # delta 1.2e-14

    def test_tolerance_is_the_audit_slack_over_twice_the_largest_power(self):
        """delta = 1e-10 / (2 max |m|) for U0 and H0, so |m| delta stays below the audit slack."""
        inst = reduction_instance(16, 32, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        scaled = (1.0 + 4e-11) * inst.u0  # every |c_j| - 1 is 4e-11
        assert audit_projection_estimates(p, inst.h0, scaled, [1, -1]).passed  # delta 5e-11
        with pytest.raises(NotUnitary):
            audit_projection_estimates(p, inst.h0, scaled, [1, -4])  # delta 1.25e-11
        for shift, passes in [(8e-12, True), (9e-12, False)]:  # ||H0 V - V diag(lambda)||_HS = shift sqrt(32)
            call = lambda: audit_projection_estimates(p, inst.h0 + shift * np.eye(32), inst.u0, [1, -1])
            if passes:
                call()
            else:
                with pytest.raises(PathMismatch):
                    call()

    def test_h0_is_held_to_the_h0_that_built_the_basis(self):
        """H0 within delta of the basis's own H0 (Hilbert-Schmidt) passes; beyond it PathMismatch, or NotHermitian."""
        inst = reduction_instance(16, 32, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        bump = np.zeros((32, 32), dtype=complex)
        bump[0, 1] = bump[1, 0] = 1.0 / np.sqrt(2.0)  # Hermitian, Hilbert-Schmidt norm 1
        calls = [  # with delta = 1e-10 / (2 max(1, max |m|))
            (lambda h0: audit_projection_estimates(p, h0, inst.u0, [1, 2]), 2.5e-11),
            (lambda h0: audit_compressed_model(p, h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, [1, 2], [1]), 2.5e-11),
            (lambda h0: compressed_model(p, h0, inst.a, inst.phase), 5e-11),
        ]
        for call, delta in calls:
            call(inst.h0 + 0.5 * delta * bump)
            with pytest.raises(PathMismatch):
                call(inst.h0 + 2.0 * delta * bump)
            with pytest.raises(NotHermitian):
                call(inst.h0 + 1e-3 * np.triu(bump))

    def test_hand_built_basis_needs_the_eigenpairs_of_h0(self):
        inst = reduction_instance(16, 32, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        plain = replace(p, eigenvalues=None, eigenvectors=None)
        short = replace(p, eigenvalues=p.eigenvalues[:31])
        with pytest.raises(MissingConstruction):
            audit_projection_estimates(plain, inst.h0, inst.u0, [1])
        with pytest.raises(MissingConstruction):
            compressed_model(plain, inst.h0, inst.a, inst.phase)
        with pytest.raises(DimensionMismatch):
            audit_perturbation_estimates(short, inst.u0, inst.u, inst.a, 2.0, [1], [0.0])
        with pytest.raises(MissingConstruction):  # eigenpairs without a cell layout
            audit_compressed_model(replace(p, cell_blocks=None), inst.h0, inst.a, inst.u0, inst.u, 0.0, 2.0, [1], [1])
        # the same basis with one cell holding every row gives the same values
        one_cell = one_cell_basis(p.columns, p.eigenvalues, p.eigenvectors, p.params, p.directions)
        for got, want in [
            (audit_projection_estimates(one_cell, inst.h0, inst.u0, [1, -2]),
             audit_projection_estimates(p, inst.h0, inst.u0, [1, -2])),
            (audit_compressed_model(one_cell, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, [1, -2], [1]),
             audit_compressed_model(p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, [1, -2], [1])),
        ]:
            assert [c.name for c in got.checks] == [c.name for c in want.checks]
            values = [(x.value, y.value) for x, y in zip(got.checks, want.checks)]
            assert max(abs(x - y) for x, y in values) <= 1e-13

    def test_powers_and_samples_are_read_once(self):
        """Iterators of powers and samples give the reports of the same lists."""
        inst = reduction_instance(16, 32, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        audits = [
            lambda ms, ks, ts: audit_projection_estimates(p, inst.h0, inst.u0, ms),
            lambda ms, ks, ts: audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, 2.0, ms, ts),
            lambda ms, ks, ts: audit_compressed_model(p, inst.h0, inst.a, inst.u0, inst.u, 0.0, 2.0, ms, ks),
        ]
        for audit in audits:
            want = audit([1, -4], [0, 2], [0.0, 1.5])
            assert len(want.checks) > 3
            assert audit(iter([1, -4]), iter([0, 2]), iter([0.0, 1.5])) == want

    def test_numpy_integer_sizes_accepted(self):
        inst = reduction_instance(np.int64(16), np.int64(32), np.int32(2), 0.5)
        study = convergence_study(inst.h0, inst.a, inst.phase, TrigPolynomial.monomial(2), np.array([4, 8]))
        assert [type(row.cells) for row in study.rows] == [int, int]
