import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    PhaseTooClose,
    ambient_columns,
    cayley_forward,
    choose_phase,
    dense_compressed_audit,
    dense_compressed_model,
    dense_kept_pairs,
    dense_perturbation_audit,
    dense_projection_audit,
    full_space,
    one_cell_basis,
    seeded_instance,
    window_basis_global_mgs,
    window_basis_per_cell,
)
from unishift import (
    BadWindow,
    DimensionMismatch,
    MissingConstruction,
    NoConvergence,
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
    batch_verify,
    build_direction_projection,
    compressed_model,
    convergence_study,
    herm_eig,
    hs_norm,
    lhs_trace,
    op_norm,
    reduction_instance,
    unitary_eig,
)
from unishift.linalg import UnitaryPath, haar_unitary
from unishift.reduction import (
    CompressedModel,
    ReductionInstance,
    _cayley_values,
    _deflated_norms,
    _frame,
    _instance,
    _kept_of,
    _kept_pairs,
    _thin_lhs,
    _window_basis,
    random_low_rank_hermitian,
    spread_diagonal,
)
from unishift.trace_formula import _exp_remainder_factor, _lhs_mode_traces

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
        lam, v = np.linalg.eigh(h0)
        assert op_norm((v * _cayley_values(lam, phi)) @ v.conj().T - u0) <= dim * 1e-10

    def test_phase_too_close(self):
        u0 = np.diag([np.exp(1j * (np.pi + 1e-9)), 1.0])
        with pytest.raises(PhaseTooClose):
            cayley_forward(u0, 0.0)


class TestBuildProjection:
    def test_standard_basis_seed_is_captured_exactly(self):
        h0 = spread_diagonal(16, 1.0)
        f = np.zeros(16, dtype=complex)
        f[3] = 1.0
        p = _window_basis(seeded_instance(h0, f[:, None]), 1.0, 4)
        b = ambient_columns(p)
        assert np.linalg.norm(f - b @ (b.conj().T @ f)) <= 1e-12

    def test_single_cell_rank_bound(self):
        h0 = spread_diagonal(8, 1.0)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f /= np.linalg.norm(f)
        p = _window_basis(seeded_instance(h0, f[:, None]), 1.0, 1)
        assert p.rank <= 1
        assert p.eps == pytest.approx(1.0)

    def test_rank_capped_by_cells_times_seeds(self):
        inst = reduction_instance(0, 64, 3, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 8)
        assert p.rank <= 8 * 3
        b = ambient_columns(p)
        assert op_norm(b.conj().T @ b - np.eye(p.rank)) <= 1e-12

    def test_huge_cell_count_visits_only_occupied_cells(self, address_space_cap):
        # spread_diagonal(64) puts one eigenvalue in each of 64 cells, as any finer partition does
        inst = reduction_instance(1, 64, 2, 0.5)
        fine = build_direction_projection(inst.h0, inst.a, inst.half_width, 64)
        huge = build_direction_projection(inst.h0, inst.a, inst.half_width, 10**12)
        np.testing.assert_array_equal(ambient_columns(huge), ambient_columns(fine))
        assert huge.eps == pytest.approx(2 / 10**6)
        seeded = _window_basis(fine.instance, 1.0, 10**12)
        assert ambient_columns(seeded).tobytes() == ambient_columns(huge).tobytes()

    def test_bad_window(self):
        h0 = spread_diagonal(8, 1.0)
        f = np.zeros(8, dtype=complex)
        f[7] = 1.0  # eigenvalue near +1, outside a shrunken window
        with pytest.raises(BadWindow):
            _window_basis(seeded_instance(h0, f[:, None]), 0.5, 64)


class TestProjectionAudit:
    def test_full_space_trivial(self):
        inst = reduction_instance(1, 32, 2, 0.5)
        with pytest.raises(ValueError):
            audit_projection_estimates(replace(full_space(32, inst.h0, inst.a), eps=None), inst.h0, inst.u0, [1])

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
            b = ambient_columns(p)
            y = res @ b
            value = hs_norm(y - b @ (b.conj().T @ y))  # ||P_perp (i + H0)^{-1} P||_HS
            assert value <= p.eps + 1e-10
            vals.append(value)
        slope = np.polyfit(np.log(cells), np.log(vals), 1)[0]
        assert -0.65 <= slope <= -0.35, slope


class TestPerturbationAudit:
    def test_zero_direction(self):
        inst = reduction_instance(3, 64, 2, 0.5)
        z = np.zeros((64, 64), dtype=complex)
        p = replace(build_direction_projection(inst.h0, inst.a, inst.half_width, 8), instance=_instance(inst.h0, z))
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
        model = compressed_model(full_space(48, inst.h0, inst.a), inst.h0, inst.a, inst.phase)
        assert op_norm(model.u0p - inst.u0) <= 48 * 1e-10
        assert op_norm(model.ap - inst.a) <= 1e-12
        assert op_norm(model.up - inst.u) <= 48 * 1e-10

    def test_zero_direction_freezes_path(self):
        inst = reduction_instance(7, 48, 2, 0.5)
        z = np.zeros((48, 48), dtype=complex)
        p = replace(build_direction_projection(inst.h0, inst.a, inst.half_width, 8), instance=_instance(inst.h0, z))
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
        zero_p = replace(p, instance=_instance(inst.h0, z))
        report = audit_compressed_model(zero_p, inst.h0, z, inst.u0, inst.u0, inst.phase, 2.0, [1], [1])
        by_name = {c.name: c for c in report.checks}
        assert by_name["exp_step_offblock"].value <= 1e-12
        assert by_name["propagator_vs_compressed"].value <= 1e-12
        assert by_name["taylor_remainder_tracenorm"].value <= 1e-12
        # P = full space: power errors vanish
        eye = np.eye(64, dtype=np.complex128)
        full = one_cell_basis(eye, p.instance, p.eps)
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
        p_full = full_space(64, inst.h0, inst.a)
        model = compressed_model(p_full, inst.h0, inst.a, inst.phase)
        poly = TrigPolynomial.monomial(2)
        full = lhs_trace(inst.u0, inst.u, inst.a, poly)
        compressed = lhs_trace(model.u0p, model.up, model.ap, poly)
        assert abs(full - compressed) <= 64 * 1e-10


THIN_MODES = list(range(-4, 5))


def rel_gap(got, want) -> float:
    """|got - want| / (1 + |want|), the package's ``rel_err``."""
    return abs(got - want) / (1.0 + abs(want))


def assert_refused(call):
    """``call`` refuses an H0 that is not diagonal with a non-decreasing real part, as a plain ``UnishiftError``."""
    with pytest.raises(UnishiftError, match="the reduction works in H0's eigenbasis") as info:
        call()
    assert type(info.value) is UnishiftError


class TestThinLeftSide:
    """The study's traces, from thin streams in H0's eigen-coordinates, against the dense left side of the same pair."""

    @staticmethod
    def case(dim: int, kind: str):
        """(H0, A, U0, U) of a reduction instance at phase 0.3, or of its rotation by a Haar Q."""
        inst = reduction_instance(dim, dim, 2, 0.5, phase=0.3)
        if kind == "diagonal":
            return inst.h0, inst.a, inst.u0, inst.u
        q = haar_unitary(np.random.default_rng(dim), dim)
        f, tau = _kept_pairs(inst.a)
        qf = q @ f
        h0 = (q * np.diagonal(inst.h0).real) @ q.conj().T
        u0 = (q * np.diagonal(inst.u0)) @ q.conj().T
        u = u0 + (qf * np.expm1(1j * tau)) @ (qf.conj().T @ u0)
        return 0.5 * (h0 + h0.conj().T), (qf * tau) @ qf.conj().T, u0, u

    @pytest.mark.parametrize("kind", ["diagonal", "haar"])
    @pytest.mark.parametrize("dim, ladder", [(64, [4, 8, 16]), (256, [8, 16, 64]), (1024, [16, 64, 256])])
    def test_matches_the_dense_left_side(self, dim, ladder, kind):
        """Every mode -4..4 of the ambient pair, and every rung of the ladder, within 1e-12 of the dense left side.

        The study works in H0's eigen-coordinates: the pair rotated by a Haar Q is refused.
        """
        h0, a, u0, u = self.case(dim, kind)
        mixed = TrigPolynomial({n: (1.0 + 0.5j) / (1 + abs(n)) for n in THIN_MODES})
        if kind == "haar":
            assert_refused(lambda: convergence_study(h0, a, 0.3, mixed, ladder))
            return
        inst = _instance(h0, a)
        polys = [TrigPolynomial.monomial(n) for n in THIN_MODES]
        c = _cayley_values(inst.eigenvalues, 0.3)
        thin = [_thin_lhs(c, inst.f, inst.tau, poly) for poly in polys]
        for n, got, want in zip(THIN_MODES, thin, _lhs_mode_traces(u0, u, a, THIN_MODES)):
            assert rel_gap(got, want) <= 1e-12, (n, got, want)
        study = convergence_study(h0, a, 0.3, mixed, ladder)
        assert rel_gap(study.full_trace, sum(mixed.coeffs[n] * x for n, x in zip(THIN_MODES, thin))) <= 1e-12
        half_width = float(np.max(np.abs(inst.eigenvalues))) * (1.0 + 1e-12) + 1e-15
        for row in study.rows:
            model = compressed_model(_window_basis(inst, half_width, row.cells), h0, a, 0.3)
            assert model.rank == row.rank
            traces = _lhs_mode_traces(model.u0p, model.up, model.ap, THIN_MODES)
            want = np.dot([mixed.coeffs[n] for n in THIN_MODES], traces)
            assert rel_gap(row.compressed_trace, want) <= 1e-12, (row.cells, row.compressed_trace, want)

    def test_convergence_study_takes_no_dense_left_side(self, monkeypatch):
        """The study never runs the dense left side ``_lhs_mode_traces``: the same study with it refused."""
        from unishift import reduction, trace_formula

        inst = reduction_instance(21, 128, 2, 0.4)
        poly = TrigPolynomial({-3: 0.5, 2: 1.0, 4: 0.25j})
        want = convergence_study(inst.h0, inst.a, inst.phase, poly, [4, 8, 16])

        def refused(*args, **kwargs):
            raise AssertionError("the study ran the dense left side")

        monkeypatch.setattr(trace_formula, "_lhs_mode_traces", refused)
        assert not hasattr(reduction, "_lhs_mode_traces")
        assert convergence_study(inst.h0, inst.a, inst.phase, poly, [4, 8, 16]) == want
        with pytest.raises(AssertionError, match="dense left side"):  # the patch reaches the dense left side
            lhs_trace(inst.u0, inst.u, inst.a, poly)


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
    """A pair drawn with H0 = Q diag(levels) Q*, taken to H0's eigen-coordinates, and a projection for it.

    H0 becomes diag(levels), ascending, and the drawn rank-2 direction A
    becomes Q* A Q.  ``haar``: a Haar Q, 8 cells.  ``repeated``: four
    12-fold eigenvalues, one per cell of 4, and a Haar Q.  ``edge``: every
    cell edge of 4 cells in (-1, 1] is an eigenvalue, exactly, drawn as a
    permuted diagonal, so Q is a permutation.  ``isometry``: the ``haar``
    pair with a Haar isometry B that carries the instance and one cell
    holding every row (``one_cell_basis``).  ``outside``: 11 of 44
    eigenvalues lie outside the window (-1, 1] of 2 unequal cells, so their
    rows are in no cell.  U0 = diag(c) holds the Cayley values of the
    levels, and U = e^{iA} U0 comes from a full eigh of A.
    """
    rng = np.random.default_rng(OFF_IDENTITY.index(kind) + 40)
    if kind == "edge":
        levels = np.concatenate([np.linspace(-1.0, 1.0, 5)[1:], np.linspace(-0.95, 0.95, 28)])
        drawn, cells = levels[rng.permutation(levels.size)], 4
        q, levels = np.eye(levels.size, dtype=complex)[:, np.argsort(drawn)], np.sort(drawn)
    else:
        if kind == "repeated":
            levels, cells = np.repeat([-0.7, -0.2, 0.1, 0.6], 12), 4
        elif kind == "outside":
            inside = np.concatenate([np.linspace(-0.9, 0.9, 30), [0.95, 0.96, 0.97]])
            levels, cells = np.concatenate([np.linspace(-1.4, -1.05, 6), inside, np.linspace(1.1, 1.5, 5)]), 2
        else:
            levels, cells = spread_diagonal(64, 1.0).diagonal().real, 8
        q = haar_unitary(rng, levels.size)
    dim = levels.size
    a = q.conj().T @ random_low_rank_hermitian(rng, dim, 2, 0.6) @ q
    a, h0, u0 = 0.5 * (a + a.conj().T), np.diag(levels).astype(complex), np.diag(_cayley_values(levels, 0.3))
    inst = ReductionInstance(h0=h0, a=a, phase=0.3, u0=u0, u=UnitaryPath(u0, a).at(1.0), half_width=1.0)
    p = build_direction_projection(h0, a, 1.0, cells)
    if kind == "isometry":
        b = haar_unitary(rng, dim)[:, : dim // 3]
        p = one_cell_basis(b, p.instance, p.eps)
    return inst, p


def unequal_widths_case():
    """A diagonal H0 whose first of 4 cells holds one eigenvalue and the others 13 each, and its window basis.

    The rank-2 direction has a piece in every cell, so the first cell keeps
    one column and the others two: cell blocks and columns are padded.
    """
    levels = np.concatenate([[-0.75], np.linspace(-0.45, 0.95, 39)])
    h0 = np.diag(levels).astype(complex)
    a = random_low_rank_hermitian(np.random.default_rng(77), levels.size, 2, 0.6)
    u0 = np.diag(_cayley_values(levels, 0.3))
    f, tau = _kept_pairs(a)
    inst = ReductionInstance(h0=h0, a=a, phase=0.3, u0=u0, u=u0 + (f * np.expm1(1j * tau)) @ (f.conj().T @ u0),
                             half_width=1.0)
    p = build_direction_projection(h0, a, 1.0, 4)
    assert list((p.cell_columns >= 0).sum(axis=1)) == [1, 2, 2, 2]
    return inst, p


THIN_DIRECTIONS = ["orthogonal", "one-column", "zero", "repeated", "full-rank"]


def thin_direction_case(kind: str):
    """A projection, an instance and its direction A and endpoint U for an edge case of the thin Ap = (F*B)* diag(tau) F*B.

    ``orthogonal``: A lives on the first two coordinates and B spans ten
    others, so B*F = 0.  ``one-column``: one Haar column against a rank-3 A,
    so r < L.  ``zero``: A = 0.  ``repeated``: A = F diag(0.5, 0.5, -0.3) F*
    with a repeated eigenvalue.  ``full-rank``: a direction of rank d.
    """
    rng = np.random.default_rng(THIN_DIRECTIONS.index(kind) + 60)
    h0 = spread_diagonal(32, 1.0)
    if kind == "orthogonal":
        a = np.zeros((32, 32), dtype=complex)
        a[:2, :2] = [[0.5, 0.2j], [-0.2j, -0.3]]
    elif kind == "repeated":
        f = haar_unitary(rng, 32)[:, :3]
        a = (f * [0.5, 0.5, -0.3]) @ f.conj().T
    else:
        a = random_low_rank_hermitian(rng, 32, 32 if kind == "full-rank" else 3, 0.6)
    u0 = np.diag(_cayley_values(h0.diagonal().real, 0.3))
    f, tau = _kept_pairs(a)
    inst = ReductionInstance(h0=h0, a=a, phase=0.3, u0=u0, u=u0 + (f * np.expm1(1j * tau)) @ (f.conj().T @ u0),
                             half_width=1.0)
    p = build_direction_projection(h0, a, 1.0, 8)
    if kind in ("orthogonal", "one-column"):
        b = np.eye(32, dtype=complex)[:, 2:12] if kind == "orthogonal" else haar_unitary(rng, 32)[:, :1]
        p = one_cell_basis(b, p.instance, p.eps)
    if kind == "zero":
        return replace(p, instance=_instance(h0, np.zeros_like(a))), inst, np.zeros_like(a), u0
    return p, inst, a, inst.u


class TestThinFactorsOracle:
    M = [0, 1, -1, 2, -2, 4, -4, 7, -7, 16, -16]
    K = [0, 1, -1, 2, -4]

    def audit_against_reference(self, p, inst, a, u, samples):
        pert = audit_perturbation_estimates(p, inst.u0, u, a, 2.0, self.M, samples)
        comp = audit_compressed_model(p, inst.h0, a, inst.u0, u, inst.phase, 2.0, self.M, self.K)
        b, eps = ambient_columns(p), p.eps
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
        p = one_cell_basis(b, window.instance, window.eps)
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
        self.audit_against_reference(replace(p, instance=_instance(inst.h0, zero)), inst, zero, inst.u0, [0.0])
        self.audit_against_reference(p, inst, inst.a, inst.u, [0.0])

    @pytest.mark.parametrize("kind", OFF_IDENTITY)
    def test_matches_dense_formulas_off_the_identity_basis(self, kind):
        inst, p = off_identity_case(kind)
        assert np.array_equal(inst.h0, np.diag(p.instance.eigenvalues))
        self.audit_against_reference(p, inst, inst.a, inst.u, T_GRID)

    def test_cells_of_unequal_widths(self):
        inst, p = unequal_widths_case()
        self.audit_against_reference(p, inst, inst.a, inst.u, T_GRID)
        zero = np.zeros_like(inst.a)
        self.audit_against_reference(replace(p, instance=_instance(inst.h0, zero)), inst, zero, inst.u0, T_GRID)

    @pytest.mark.parametrize("kind", THIN_DIRECTIONS)
    def test_thin_compressed_direction_edge_cases(self, kind):
        p, inst, a, u = thin_direction_case(kind)
        fb = _kept_pairs(a)[0].conj().T @ ambient_columns(p)
        shapes = {"orthogonal": (2, 10), "one-column": (3, 1), "zero": (0, p.rank), "repeated": (3, p.rank),
                  "full-rank": (32, p.rank)}
        assert fb.shape == shapes[kind]
        if kind == "orthogonal":
            assert np.max(np.abs(fb)) == 0.0
        self.audit_against_reference(p, inst, a, u, T_GRID)


class TestKeptPairsOracle:
    """Kept eigenpairs from a basis of the range against one full eigh of the d x d matrix."""

    @staticmethod
    def assert_matches_dense(h):
        f, tau = _kept_pairs(h)
        f_ref, tau_ref, top_ref = dense_kept_pairs(h)
        scale = max(op_norm(h), 1.0)
        assert tau.shape == tau_ref.shape
        assert np.max(np.abs(tau - tau_ref), initial=0.0) <= 1e-12 * scale
        assert op_norm((f * tau) @ f.conj().T - h) <= 1e-12 * scale
        assert np.max(np.abs(f.conj().T @ f - np.eye(tau.size)), initial=0.0) <= 1e-12
        assert abs(np.max(np.abs(tau), initial=0.0) - top_ref) <= 1e-14 * scale  # the largest |tau| is kept
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

    @staticmethod
    def dense_range_finder(h):
        """``_kept_pairs`` with each residual update and its column norms taken as whole d x d arrays."""
        rest = 0.5 * (h + h.conj().T)
        dim, norms = h.shape[0], np.linalg.norm(rest, axis=0)
        delta = 1e-13 * max(float(np.max(norms, initial=0.0)), 1.0) / np.sqrt(max(dim, 1))
        q, size = np.zeros((dim, 0), dtype=np.complex128), 1
        while q.shape[1] < dim and (big := np.flatnonzero(norms > delta)).size:
            pick = big[np.argsort(-norms[big], kind="stable")[:size]]
            left, values, _ = np.linalg.svd(rest[:, pick], full_matrices=False)
            new = left[:, values > delta]
            new = np.linalg.qr(new - q @ (q.conj().T @ new))[0]
            rest -= new @ (new.conj().T @ rest)
            q, size = np.concatenate([q, new], axis=1), 2 * size
            norms = np.linalg.norm(rest, axis=0)
        return _kept_of(q, q.conj().T @ (h @ q))

    @pytest.mark.parametrize("dim", [31, 32, 33, 65, 257])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_row_blocked_deflation_is_the_dense_update_bit_for_bit(self, dim, k):
        rng = np.random.default_rng(dim + k)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rest = g + g.conj().T
        new = np.linalg.qr(rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k)))[0]
        assert _deflated_norms(rest).tobytes() == np.linalg.norm(rest, axis=0).tobytes()
        want = rest - new @ (new.conj().T @ rest)
        norms = _deflated_norms(rest, new)
        assert rest.tobytes() == want.tobytes()
        assert norms.tobytes() == np.linalg.norm(want, axis=0).tobytes()

    @pytest.mark.parametrize("dim", [33, 65, 257])
    @pytest.mark.parametrize("rank", [2, 5, 12])
    def test_row_blocked_range_finder_gives_the_dense_bits(self, dim, rank):
        h = random_low_rank_hermitian(np.random.default_rng(dim * rank), dim, rank, 0.5)
        h[0, -1] += 1e-14j  # not exactly Hermitian: the range finder reads its Hermitian part
        for got, want in zip(_kept_pairs(h), self.dense_range_finder(h)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("norm", [0.5, 2.0, 40.0])
    def test_one_kept_one_dropped_below_the_threshold(self, norm):
        # 1e-11 ||H|| is above the drop threshold 1e-12 max(||H||, 1), 1e-13 ||H|| below it
        taus = norm * np.array([1.0, -0.6, 1e-11, -1e-13])
        q = haar_unitary(np.random.default_rng(7), 64)[:, :4]
        kept = self.assert_matches_dense((q * taus) @ q.conj().T)
        np.testing.assert_allclose(np.sort(kept), np.sort(taus[:3]), rtol=0, atol=1e-14 * max(norm, 1.0))


class TestStreamedAuditsOracle:
    """Every audit value against its dense definition with P = BB*, full powers and inverses."""

    M = [0, 1, -1, 2, -3, 4, -4, 7, -7, 16, -16]
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

    def test_cells_of_unequal_widths(self):
        inst, p = unequal_widths_case()
        assert all(report.passed for report in self.audit_against_dense(p, inst))

    @pytest.mark.parametrize("kind", ["instance", "unequal"])
    def test_zero_direction(self, kind):
        if kind == "unequal":
            inst, p = unequal_widths_case()
        else:
            inst = reduction_instance(6, 64, 2, 0.6, phase=0.3)
            p = build_direction_projection(inst.h0, inst.a, inst.half_width, 8)
        inst = replace(inst, a=np.zeros_like(inst.a), u=inst.u0)
        reports = self.audit_against_dense(replace(p, instance=_instance(inst.h0, inst.a)), inst)
        assert all(report.passed for report in reports)
        # U = U0: the perturbed powers are the base ones
        pert = {c.name: c.value for c in reports[1].checks}
        for m in self.M:
            assert pert[f"pert_power[{m}]"] == pytest.approx(pert[f"base_power[{m}]"], abs=1e-13)

    def audit_against_dense(self, p, inst):
        """The three audits, each value within 1e-12 and each bound within 1e-12 (1 + bound) of its definition."""
        b, eps = ambient_columns(p), p.eps
        reports = [
            audit_projection_estimates(p, inst.h0, inst.u0, self.M),
            audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, 2.0, self.M, self.SAMPLES),
            audit_compressed_model(p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, self.M, self.K),
        ]
        references = [
            dense_projection_audit(b, p.instance.f, eps, inst.h0, inst.u0, self.M),
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
        p = _window_basis(seeded_instance(h0, seeds), half_width, cells)
        ref = window_basis_global_mgs(h0, seeds, half_width, cells)
        b = ambient_columns(p)
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
        h0 = np.diag(levels).astype(complex)
        f = np.column_stack([self.unit(rng.standard_normal(24) + 1j * rng.standard_normal(24)) for _ in range(3)])
        p = self.assert_matches_global(h0, q.conj().T @ f, 1.0, 4)
        # three seeds in each of four six-fold eigenspaces
        assert p.rank == 12

    def test_eigenvalue_on_a_cell_edge(self):
        cells, half_width = 4, 1.0
        edges = np.linspace(-half_width, half_width, cells + 1)
        levels = np.array([edges[1], edges[2], edges[3], half_width, -0.9, -0.3, 0.2, 0.8])
        order = np.argsort(levels)  # H0's eigen-coordinates: the levels ascend, and the seeds' rows follow them
        h0 = np.diag(levels[order]).astype(complex)
        f = np.column_stack([self.unit(np.arange(1.0, 9.0)), self.unit(np.cos(np.arange(8.0)))])
        p = self.assert_matches_global(h0, f[order], half_width, cells)
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


def window_case(kind: str, cells: int):
    """An H0 of ambient size 256 and orthonormal seeds for a window of ``cells`` cells in (-1, 1].

    H0 is diagonal and ascending.  ``repeated``: sixteen 16-fold eigenvalues
    and three seeds rotated by a Haar Q*.  ``edge``: eigenvalues on the edges
    k (2 / cells) - 1 of the partition, among them 1, the last.
    ``no-piece``: a seed with entries on four eigenvectors only, so most
    cells keep one piece of two.  ``instance`` is a ``reduction_instance``
    with its two kept eigenvectors as seeds, and ``rotated`` one of them
    rotated by a Haar Q*, so each cell keeps one column of several rows.
    """
    rng = np.random.default_rng(cells % 1000)
    levels = spread_diagonal(256, 1.0).diagonal().real
    if kind == "repeated":
        levels = np.repeat(np.linspace(-0.9, 0.9, 16), 16)
        f = np.linalg.qr(rng.standard_normal((256, 3)) + 1j * rng.standard_normal((256, 3)))[0]
    elif kind == "edge":
        k = np.unique(np.round(np.linspace(1, cells, 9)).astype(np.int64))
        levels = np.sort(np.concatenate([levels[: 256 - k.size], k * (2.0 / cells) + -1.0]))
        f = np.linalg.qr(rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2)))[0]
    elif kind == "no-piece":
        f = np.zeros((256, 2), dtype=complex)
        f[[3, 90, 91, 250], 0] = [0.5, 0.5j, -0.5, 0.5]
        f[:, 1] = np.linspace(1.0, 2.0, 256) / np.linalg.norm(np.linspace(1.0, 2.0, 256))
    else:
        inst = reduction_instance(cells % 97, 256, 2, 0.5)
        f = _kept_pairs(inst.a)[0][:, : 2 if kind == "instance" else 1]
    if kind in ("repeated", "rotated"):
        f = haar_unitary(rng, 256).conj().T @ f
    return np.diag(levels).astype(complex), f


class TestBatchedWindowBasis:
    """The window basis, with its SVDs batched over cells of one shape, equals one SVD per cell bit for bit."""

    @pytest.mark.parametrize("cells", [1, 8, 64, 256, 10**12])
    @pytest.mark.parametrize("kind", ["instance", "rotated", "repeated", "edge", "no-piece"])
    def test_matches_the_per_cell_loop(self, kind, cells):
        h0, f = window_case(kind, cells)
        levels = np.diagonal(h0).real
        p = _window_basis(seeded_instance(h0, f), 1.0, cells)
        for name, want in window_basis_per_cell(levels, f, 1.0, cells).items():
            got = ambient_columns(p) if name == "columns" else getattr(p, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
        if kind == "no-piece" and cells == 8:  # the first seed has pieces in cells 0, 2 and 7 only
            assert list(np.count_nonzero(p.cell_columns >= 0, axis=1)) == [2, 1, 2, 1, 1, 1, 1, 2]
        if kind == "edge" and cells == 8:  # cells are closed on the right: each edge ends its cell
            edges = np.flatnonzero(np.isin(levels, np.arange(1, 9) * 0.25 - 1.0))
            assert all(np.any(p.cell_rows[k] == edges[k]) for k in range(8))


class TestBoundedMemory:
    """The telescoped sums are formed in blocks of bounded width: memory does not grow with the power."""

    @pytest.mark.parametrize("audit", ["perturbation", "compressed"])
    def test_peak_at_power_400_is_at_most_twice_that_at_4(self, audit):
        inst = reduction_instance(8, 64, 64, 0.5)  # a full-rank direction: L = d
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        assert p.instance.f.shape == (64, 64)

        def peak(m):
            calls = {
                "perturbation": lambda: audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, 2.0, [m, -m], [0.0]),
                "compressed": lambda: audit_compressed_model(
                    p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, [m, -m], [1]
                ),
            }
            tracemalloc.start()
            try:
                assert calls[audit]().passed
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(4), peak(400)
        assert large <= 2 * small, (small, large)

    def test_convergence_study_forms_no_square_matrix_beyond_the_instance(self):
        """The study's peak is that of checking (H0, A) and taking their eigenpairs, plus 8 MiB, at ambient 1024."""
        inst = reduction_instance(5, 1024, 2, 0.5)

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        checked = peak(lambda: _instance(inst.h0, inst.a))
        study = peak(lambda: convergence_study(inst.h0, inst.a, inst.phase, TrigPolynomial.monomial(2), [16, 64, 256]))
        assert study <= checked + 8 * 2**20, (checked, study)

    def test_instance_holds_at_most_four_square_matrices(self):
        """At ambient 1024 (16 MiB a matrix) the peak is the range finder's residual, and nothing d x d is kept.

        H0 and A are checked in place and the diagonal H0 is its own eigenbasis: the instance holds only
        eigenvalues, the thin F and tau.
        """
        inst = reduction_instance(5, 1024, 2, 0.5)
        tracemalloc.start()
        try:
            checked = _instance(inst.h0, inst.a)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(vars(checked)) == ["eigenvalues", "f", "tau"]
        assert peak <= 20 * 2**20, peak
        assert held < 2**20, held

    def test_each_frame_allocates_less_than_one_square_matrix(self, monkeypatch):
        """Every audit's and the model's frame reads its d x d operands in place, at ambient 1024."""
        from unishift import reduction

        inst = reduction_instance(5, 1024, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 16)
        peaks = []

        def measured(*args, **kw):
            tracemalloc.start()
            try:
                return _frame(*args, **kw)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(reduction, "_frame", measured)
        audit_projection_estimates(p, inst.h0.copy(), inst.u0, [1, -2])
        audit_perturbation_estimates(p, inst.u0, inst.u, inst.a.copy(), 2.0, [1, -2], [0.0, 1.0])
        audit_compressed_model(p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, [1, -2], [1, 2])
        compressed_model(p, inst.h0, inst.a, inst.phase)
        assert len(peaks) == 4 and max(peaks) < 16 * 2**20, peaks


class TestRowBlockedFrame:
    """The frame's single-read checks of H0, A, U0 and U against the audits' forms see every block of rows."""

    @pytest.mark.parametrize("i, j", [(0, 1), (40, 3), (3, 40), (96, 95), (95, 96), (70, 20)])
    def test_a_gap_in_any_block_of_rows_is_caught(self, i, j):
        inst = reduction_instance(16, 97, 2, 0.5)  # row blocks 0-31, 32-63 and 64-96
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        corner = np.zeros((97, 97), dtype=complex)
        corner[i, j] = 1.0
        bump = (corner + corner.T) / np.sqrt(2.0)  # Hermitian, Hilbert-Schmidt norm 1
        calls = {  # with delta = 1e-10 / (2 * 2) = 2.5e-11 for the powers 1 and 2
            "h0": lambda x: audit_projection_estimates(p, inst.h0 + x * bump, inst.u0, [1, 2]),
            "u0": lambda x: audit_projection_estimates(p, inst.h0, inst.u0 + x * corner, [1, 2]),
            "a": lambda x: audit_perturbation_estimates(p, inst.u0, inst.u, inst.a + x * bump, 2.0, [1, 2], [0.0]),
            "u": lambda x: audit_perturbation_estimates(p, inst.u0, inst.u + x * corner, inst.a, 2.0, [1, 2], [0.0]),
        }
        for name, call in calls.items():
            call(0.5 * 2.5e-11)
            with pytest.raises(PathMismatch):
                call(2.0 * 2.5e-11)

    @pytest.mark.parametrize("kind", ["diagonal", "haar"])
    def test_equal_operands_pass_with_no_square_allocation(self, monkeypatch, kind):
        """Copies of the operands, a zero's sign flipped, pass each frame in place: no full check, no d x d array.

        At ambient 512 a d x d complex array is 4 MiB; each frame stays under a quarter of one.  A Haar-rotated
        H0 is refused before a basis is built, also under a quarter of one.
        """
        from unishift import reduction

        dim = 512
        inst = reduction_instance(16, dim, 2, 0.5, phase=0.3)
        if kind == "haar":
            q = haar_unitary(np.random.default_rng(dim), dim)
            h0, a = (q @ x @ q.conj().T for x in (inst.h0, inst.a))
            h0, a = 0.5 * (h0 + h0.conj().T), 0.5 * (a + a.conj().T)
            tracemalloc.start()
            try:
                assert_refused(lambda: build_direction_projection(h0, a, inst.half_width, 16))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < dim * dim * 16 / 4, peak
            return
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 16)
        h0, a, u0, u = (x.copy() for x in (inst.h0, inst.a, inst.u0, inst.u))
        h0[5, 60] = -0.0
        want = audit_compressed_model(p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, [1, -2], [1])
        seen, peaks = [], []
        for name in ("as_matrix", "require_hermitian"):
            original = getattr(reduction, name)
            monkeypatch.setattr(reduction, name, lambda m, what, *args, _original=original, **kw: (
                seen.append(what) or _original(m, what, *args, **kw)))
        frame = reduction._frame

        def measured(*args, **kw):
            tracemalloc.start()
            try:
                return frame(*args, **kw)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(reduction, "_frame", measured)
        assert audit_projection_estimates(p, h0, u0, [1, -2]).passed
        assert audit_perturbation_estimates(p, u0, u, a, 2.0, [1, -2], [0.0, 1.0]).passed
        assert audit_compressed_model(p, h0, a, u0, u, inst.phase, 2.0, [1, -2], [1]) == want
        compressed_model(p, h0, a, inst.phase)
        assert seen == []
        assert len(peaks) == 4 and max(peaks) < dim * dim * 16 / 4, peaks
        h0[5, 60] = np.nan  # the gap is NaN: the full check names the entry
        with pytest.raises(UnishiftError, match="NaN or Inf"):
            audit_compressed_model(p, h0, a, u0, u, inst.phase, 2.0, [1, -2], [1])
        assert seen == ["h0"]


class TestOneDecompositionPerCall:
    def test_convergence_study_never_diagonalises_h0(self, monkeypatch):
        """A diagonal H0 is its own eigenbasis and takes no d x d eigh; a rotated one is refused before any eigh."""
        from unishift import linalg, reduction

        inst = reduction_instance(21, 128, 2, 0.4)
        ladder = [4, 8, 16, 32]
        shapes, original = [], linalg._eigh
        for owner in (linalg, reduction):
            monkeypatch.setattr(owner, "_eigh", lambda h: shapes.append(h.shape) or original(h))
        assert "herm_eig" not in vars(reduction)
        poly = TrigPolynomial.monomial(2)
        study = convergence_study(inst.h0, inst.a, inst.phase, poly, ladder)
        assert shapes and max(shape[-1] for shape in shapes) < 128, shapes
        shapes.clear()
        q = haar_unitary(np.random.default_rng(21), 128)
        rotated = (q * np.diagonal(inst.h0).real) @ q.conj().T
        rotated = 0.5 * (rotated + rotated.conj().T)
        assert_refused(lambda: convergence_study(rotated, inst.a, inst.phase, poly, ladder))
        assert shapes == []
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


class TestDiagonalH0:
    """A diagonal H0 with a non-decreasing real part is its own eigenbasis; any other H0 is refused."""

    @pytest.mark.parametrize("argv", [["bounds", "--ranks", "4,16,64"], ["converge", "--ranks", "2,4,8,16"]])
    def test_commands_take_no_ambient_eigh(self, monkeypatch, tmp_path, argv):
        from unishift import linalg, reduction
        from unishift.cli import main

        shapes = []
        original = linalg._eigh

        def recording(h):
            shapes.append(h.shape)
            return original(h)

        monkeypatch.setattr(linalg, "_eigh", recording)
        monkeypatch.setattr(reduction, "_eigh", recording)
        assert main([*argv, "--ambient", "64", "--out", str(tmp_path / "out")]) == 0
        assert shapes and max(shape[-1] for shape in shapes) < 64

    @pytest.mark.parametrize("cells", [4, 16, 64])
    def test_haar_rotated_h0_is_refused_until_rotated_back(self, cells):
        """A pair rotated by a Haar Q is refused; taken back by the eigenvectors V of its H0 it gets the verdicts of
        the diagonal instance: H0 = diag(lambda) from the eigenvalues, and A, U0 and U rotated by V."""
        inst = reduction_instance(9, 64, 2, 0.5, phase=0.3)
        q = haar_unitary(np.random.default_rng(cells), 64)

        def rotated(x, v):
            return v @ x @ v.conj().T

        h0, a = (0.5 * (rotated(x, q) + rotated(x, q).conj().T) for x in (inst.h0, inst.a))
        u0, u = rotated(inst.u0, q), rotated(inst.u, q)
        assert_refused(lambda: build_direction_projection(h0, a, inst.half_width, cells))
        lam, v = np.linalg.eigh(h0)
        back = 0.5 * (rotated(a, v.conj().T) + rotated(a, v.conj().T).conj().T)
        twin = ReductionInstance(h0=np.diag(lam).astype(complex), a=back, phase=0.3, u0=rotated(u0, v.conj().T),
                                 u=rotated(u, v.conj().T), half_width=1.0)
        reports = []
        for case in (inst, twin):
            p = build_direction_projection(case.h0, case.a, case.half_width, cells)
            reports.append((p, [
                audit_projection_estimates(p, case.h0, case.u0, M_LIST),
                audit_perturbation_estimates(p, case.u0, case.u, case.a, 2.0, M_LIST, T_GRID),
                audit_compressed_model(p, case.h0, case.a, case.u0, case.u, case.phase, 2.0, M_LIST, [1, 2, 4]),
            ]))
            # U0 off the unit circle, and U0 with a coupling between two eigenvectors of H0
            coupling = np.zeros((64, 64), dtype=complex)
            coupling[0, 1] = 1e-6
            with pytest.raises(NotUnitary):
                audit_projection_estimates(p, case.h0, 1.01 * case.u0, M_LIST)
            with pytest.raises(PathMismatch):
                audit_projection_estimates(p, case.h0, case.u0 + coupling, M_LIST)
        (p, diagonal), (twin_p, dense) = reports
        assert p.rank == twin_p.rank
        for got, want in zip(dense, diagonal):
            assert [(c.name, c.ok) for c in got.checks] == [(c.name, c.ok) for c in want.checks]
            for g, w in zip(got.checks, want.checks):
                assert abs(g.value - w.value) <= 1e-11 * (1 + abs(w.value)), g.name
                assert abs(g.bound - w.bound) <= 1e-12 * (1 + abs(w.bound)), g.name

    @staticmethod
    def off_eigenbasis(kind: str, dim: int) -> np.ndarray:
        """A Hermitian H0 with the spectrum of ``spread_diagonal(dim, 1)`` that is not diagonal and ascending."""
        levels, rng = np.diagonal(spread_diagonal(dim, 1.0)), np.random.default_rng(dim)
        if kind == "haar":
            q = haar_unitary(rng, dim)
            h0 = (q * levels.real) @ q.conj().T
            return 0.5 * (h0 + h0.conj().T)
        return np.diag(levels[::-1] if kind == "descending" else rng.permutation(levels))

    @pytest.mark.parametrize("kind", ["haar", "permuted", "descending"])
    def test_h0_off_its_eigenbasis_is_refused(self, kind):
        """Every way to a basis or a study refuses the H0 before it reads A: a 3 x 3 A makes no difference."""
        inst = reduction_instance(3, 64, 2, 0.5)
        h0, unit = self.off_eigenbasis(kind, 64), np.eye(64, dtype=complex)[:, :1]
        for a in (inst.a, np.ones((3, 3))):
            assert_refused(lambda: build_direction_projection(h0, a, 1.0, 4))
            assert_refused(lambda: convergence_study(h0, a, inst.phase, TrigPolynomial.monomial(2), [4, 8]))
            assert_refused(lambda: compressed_model(full_space(64, h0, a), h0, a, inst.phase))
        assert_refused(lambda: _window_basis(seeded_instance(h0, unit), 1.0, 4))
        with pytest.raises(NotHermitian):  # a non-Hermitian H0 is named as such first
            build_direction_projection(h0 + 1e-3 * np.triu(np.ones((64, 64)), 1), inst.a, 1.0, 4)

    @pytest.mark.parametrize("kind", ["haar", "descending"])
    def test_refusal_runs_no_range_finder_and_allocates_nothing_square(self, monkeypatch, kind):
        """At ambient 1024 (16 MiB a matrix) a refused H0 never reaches ``_kept_pairs``, and each refusal peaks
        under 2 MiB, as ``require_hermitian`` does: the d x d bools of its finite check alone take 1 MiB."""
        from unishift import reduction

        def refused(h):
            raise AssertionError("the range finder ran")

        inst = reduction_instance(5, 1024, 2, 0.5)
        h0 = self.off_eigenbasis(kind, 1024)
        monkeypatch.setattr(reduction, "_kept_pairs", refused)
        for call in (lambda: build_direction_projection(h0, inst.a, 1.0, 16),
                     lambda: convergence_study(h0, inst.a, inst.phase, TrigPolynomial.monomial(2), [16, 64])):
            tracemalloc.start()
            try:
                assert_refused(call)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, peak


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

    def test_audits_take_the_operands_from_the_basis(self, monkeypatch):
        """Building checks H0 and A and finds A's kept pairs once; the audits and the model then run none of these.

        The diagonal H0 is its own eigenbasis: the reduction binds no ``herm_eig``.
        """
        from unishift import reduction

        inst = reduction_instance(4, 64, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        assert "herm_eig" not in vars(reduction)
        counted = [self.count(monkeypatch, name) for name in ("require_hermitian", "_kept_pairs")]
        cases = [
            ((2, 1), lambda: build_direction_projection(inst.h0, inst.a, 1.0, 4)),
            ((0, 0), lambda: compressed_model(p, inst.h0, inst.a, 0.0)),
            ((0, 0), lambda: audit_projection_estimates(p, inst.h0, inst.u0, [1, -2])),
            ((0, 0), lambda: audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, 2.0, [1, -2], [0.0, 1.0])),
            ((0, 0), lambda: audit_compressed_model(p, inst.h0, inst.a, inst.u0, inst.u, 0.0, 2.0, [1, -2], [1, 2])),
        ]
        for want, call in cases:
            for calls in counted:
                calls.clear()
            call()
            assert tuple(map(len, counted)) == want

    @pytest.mark.parametrize("command, ranks", [
        ("bounds", "16"), ("bounds", "4,8,16,32"), ("converge", "16"), ("converge", "2,4,8,16"),
    ])
    def test_commands_check_and_decompose_once_per_run(self, monkeypatch, tmp_path, command, ranks):
        """A run checks H0 and A once and finds A's kept pairs once (the draw keeps its own)."""
        from unishift.cli import main

        counted = [self.count(monkeypatch, name) for name in ("require_hermitian", "_kept_pairs")]
        assert main([command, "--ambient", "64", "--ranks", ranks, "--out", str(tmp_path / "out")]) == 0
        assert tuple(map(len, counted)) == (2, 1)

    @staticmethod
    def kept_pair_shapes(monkeypatch):
        """The shape of the matrix of every ``_kept_pairs`` call, in order."""
        from unishift import reduction

        shapes, original = [], reduction._kept_pairs
        monkeypatch.setattr(reduction, "_kept_pairs", lambda h: shapes.append(h.shape) or original(h))
        return shapes

    @pytest.mark.parametrize("ladder", [[4], [4, 8], [2, 4, 8, 16], [2, 4, 8, 12, 16, 24]])
    def test_convergence_study_finds_the_kept_pairs_of_a_once(self, monkeypatch, ladder):
        """Every rung reuses the study's kept pairs of A: one ``_kept_pairs`` call per study, on the d x d A."""
        inst = reduction_instance(21, 96, 2, 0.4)
        shapes = self.kept_pair_shapes(monkeypatch)
        convergence_study(inst.h0, inst.a, inst.phase, TrigPolynomial.monomial(2), ladder)
        assert shapes == [(96, 96)]

    def test_no_entry_point_solves_a_cayley_block(self, monkeypatch):
        """U0 and the compressed base come from eigenvalues: ``_cayley_values`` only ever sees a vector, and nothing
        calls a linear solve."""
        from unishift import reduction

        shapes, original, solves = [], reduction._cayley_values, []
        monkeypatch.setattr(reduction, "_cayley_values", lambda x, phi: shapes.append(x.shape) or original(x, phi))
        monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(args))
        inst = reduction_instance(4, 64, 2, 0.5, phase=0.3)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        audit_projection_estimates(p, inst.h0, inst.u0, [1, -2])
        audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, 2.0, [1, -2], [0.0, 1.0])
        audit_compressed_model(p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, [1, -2], [1, 2])
        compressed_model(p, inst.h0, inst.a, inst.phase)
        convergence_study(inst.h0, inst.a, inst.phase, TrigPolynomial.monomial(2), [4, 8])
        assert shapes and all(len(shape) == 1 for shape in shapes) and not solves, shapes


def overflow_case(scale: float):
    """An instance with ||A|| = ``scale`` and its window basis, built by hand: ``reduction_instance`` caps the scale."""
    h0 = spread_diagonal(32, 1.0)
    a = random_low_rank_hermitian(np.random.default_rng(8), 32, 2, scale)
    u0 = np.diag(_cayley_values(h0.diagonal().real, 0.3))
    f, tau = _kept_pairs(a)
    inst = ReductionInstance(h0=h0, a=a, phase=0.3, u0=u0, u=u0 + (f * np.expm1(1j * tau)) @ (f.conj().T @ u0),
                             half_width=1.0)
    return inst, build_direction_projection(h0, a, 1.0, 4)


class TestTypedErrors:
    @pytest.mark.parametrize("scale, t_max, audit, what", [
        (800.0, 1.0, "compressed", "||A|| = 800"),
        (800.0, 1.0, "perturbation", "||A|| = 800"),
        (0.5, 1500.0, "perturbation", "T ||A|| = 750"),
    ])
    def test_a_bound_that_overflows_is_refused(self, scale, t_max, audit, what):
        """e^||A||, or e^(T ||A||) for the propagators, past sqrt(float max) is ``NoConvergence``, with no warning."""
        inst, p = overflow_case(scale)
        with pytest.raises(NoConvergence, match=re.escape(what)):
            if audit == "compressed":
                audit_compressed_model(p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, t_max, [1], [1])
            else:
                audit_perturbation_estimates(p, inst.u0, inst.u, inst.a, t_max, [1], [0.0])
        if scale < 1.0:  # the compressed audit takes T only as a factor: a long horizon is no overflow there
            audit_compressed_model(p, inst.h0, inst.a, inst.u0, inst.u, inst.phase, t_max, [1], [1])

    def test_each_guard_raises_its_type(self):
        inst = reduction_instance(16, 32, 2, 0.5)
        zero = np.zeros((32, 32), dtype=complex)
        poly = TrigPolynomial.monomial(2)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        unit = np.eye(32, dtype=complex)[:, :1]
        seeded = seeded_instance(inst.h0, unit)
        skew_a = inst.a + 1e-3 * np.triu(np.ones((32, 32)), 1)
        skew_h0 = inst.h0 + 1e-3 * np.triu(np.ones((32, 32)), 1)
        small = np.eye(31, dtype=complex)
        wide = reduction_instance(16, 64, 2, 0.5)
        # U0 must be diag(c) with |c| = 1 in the eigenbasis of the H0 that built the projection
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
            (BadWindow, lambda: _window_basis(seeded, 0.0, 4)),
            (BadWindow, lambda: _window_basis(seeded, 1.0, 0)),
            (MissingConstruction, lambda: audit_projection_estimates(replace(p, eps=None), inst.h0, inst.u0, [1])),
            (MissingConstruction, lambda: audit_perturbation_estimates(
                replace(p, eps=None), inst.u0, inst.u, inst.a, 2.0, [1], [0.0])),
            (MissingConstruction, lambda: audit_compressed_model(
                replace(p, eps=None), inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, [1], [1])),
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
            (DimensionMismatch, lambda: compressed_model(full_space(31, small, small), inst.h0, inst.a, 0.0)),
            (DimensionMismatch, lambda: build_direction_projection(wide.h0, inst.a, 1.0, 4)),
            (DimensionMismatch, lambda: convergence_study(wide.h0, inst.a, inst.phase, poly, [4])),
            (DimensionMismatch, lambda: unitary_eig(np.ones((3, 4)))),
            (DimensionMismatch, lambda: unitary_eig(np.ones(3))),
            (ZeroDirection, lambda: _window_basis(seeded_instance(inst.h0, unit[:, :0]), 1.0, 4)),
            (BadWindow, lambda: convergence_study(inst.h0, inst.a, inst.phase, poly, [])),
            (DimensionMismatch, lambda: reduction_instance(1, 0, 2, 0.5)),
            (DimensionMismatch, lambda: reduction_instance(1, 4, 8, 0.5)),
            (BadWindow, lambda: _window_basis(seeded, 1.0, 2.5)),
            (BadWindow, lambda: build_direction_projection(inst.h0, inst.a, 1.0, 2.5)),
            (BadWindow, lambda: _window_basis(seeded, 1.0, 2**63)),
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
            (UnishiftError, lambda inst, p: _cayley_values(inst.h0.diagonal().real, np.nan)),
            (UnishiftError, lambda inst, p: convergence_study(inst.h0, inst.a, np.nan, TrigPolynomial.monomial(2), [4])),
            (UnishiftError, lambda inst, p: compressed_model(p, inst.h0, inst.a, -np.inf)),
            (UnishiftError, lambda inst, p: audit_compressed_model(
                p, inst.h0, inst.a, inst.u0, inst.u, np.nan, 2.0, [1], [1])),
            (BadWindow, lambda inst, p: _window_basis(p.instance, np.nan, 4)),
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

    @pytest.mark.parametrize("mode", [10**12, -(10**12), 100_002])
    @pytest.mark.parametrize("entry", ["lhs_trace", "batch_verify", "convergence_study"])
    def test_fourier_mode_beyond_the_series_is_refused_before_allocating(self, address_space_cap, entry, mode):
        """A mode beyond +-100001, the largest of the resolvent series, is UnishiftError, not a MemoryError."""
        inst = reduction_instance(16, 32, 2, 0.5)
        poly = TrigPolynomial.monomial(mode)
        calls = {
            "lhs_trace": lambda: lhs_trace(inst.u0, inst.u, inst.a, poly),
            "batch_verify": lambda: batch_verify(inst.u0, inst.u, inst.a, [TrigPolynomial.monomial(1), poly]),
            "convergence_study": lambda: convergence_study(inst.h0, inst.a, inst.phase, poly, [4]),
        }
        with pytest.raises(UnishiftError, match=f"within \\+-100001, not {mode}$"):
            calls[entry]()

    def test_the_largest_series_mode_is_accepted(self):
        inst = reduction_instance(16, 4, 2, 0.5)
        assert np.isfinite(lhs_trace(inst.u0, inst.u, inst.a, TrigPolynomial.monomial(-100_001)))

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
        for shift, passes in [(8e-12, True), (9e-12, False)]:  # ||H0 - diag(lambda)||_HS = shift sqrt(32)
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

    def test_a_is_held_to_the_a_that_built_the_basis(self):
        """A within delta of the basis's kept pairs of A gives its checks; beyond it PathMismatch, NotHermitian or a wrong size."""
        inst = reduction_instance(16, 32, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        bump = np.zeros((32, 32), dtype=complex)
        bump[0, 1] = bump[1, 0] = 1.0 / np.sqrt(2.0)  # Hermitian, Hilbert-Schmidt norm 1
        rng = np.random.default_rng(3)
        noise = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        noise = 1e-13 * (noise + noise.conj().T) / hs_norm(noise + noise.conj().T)
        calls = [  # with delta = 1e-10 / (2 max(1, max |m|))
            (lambda a: audit_perturbation_estimates(p, inst.u0, inst.u, a, 2.0, [1, 2], T_GRID), 2.5e-11),
            (lambda a: audit_compressed_model(p, inst.h0, a, inst.u0, inst.u, inst.phase, 2.0, [1, 2], [1]), 2.5e-11),
            (lambda a: compressed_model(p, inst.h0, a, inst.phase), 5e-11),
        ]
        for call, delta in calls:
            want, got = call(inst.a), call(inst.a + noise)
            if isinstance(want, CompressedModel):
                for x, y in [(got.u0p, want.u0p), (got.ap, want.ap), (got.up, want.up)]:
                    assert np.max(np.abs(x - y)) <= 1e-12
            else:
                assert [(c.name, c.ok) for c in got.checks] == [(c.name, c.ok) for c in want.checks]
                assert max(abs(x.value - y.value) for x, y in zip(got.checks, want.checks)) <= 1e-12
            call(inst.a + 0.5 * delta * bump)
            for other in (inst.a + 2.0 * delta * bump, reduction_instance(17, 32, 2, 0.5).a):
                with pytest.raises(PathMismatch, match="A is not the direction that built the projection"):
                    call(other)
            with pytest.raises(NotHermitian):
                call(inst.a + 1e-3 * np.triu(bump))
            with pytest.raises(DimensionMismatch):
                call(inst.a[:31, :31])

    @pytest.mark.parametrize("kind", ["diagonal", "haar"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf * 1j])
    def test_nan_or_inf_in_any_operand_is_named_by_the_full_check(self, kind, bad):
        """A NaN or Inf entry of H0, A, U0 (on the diagonal only, or off it) or U, given to every call that takes the
        operand, is the finite check's UnishiftError: never PathMismatch or NotUnitary, whatever its gap.

        A Haar-rotated H0 is refused before any basis is built, but a NaN or Inf in it is named first.
        """
        inst = reduction_instance(16, 32, 2, 0.5, phase=0.3)
        if kind == "haar":
            q = haar_unitary(np.random.default_rng(32), 32)
            h0, a = (q @ x @ q.conj().T for x in (inst.h0, inst.a))
            h0, a = 0.5 * (h0 + h0.conj().T), 0.5 * (a + a.conj().T)
            assert_refused(lambda: build_direction_projection(h0, a, inst.half_width, 4))
            for at in [(3, 3), (3, 17)]:
                bad_h0 = h0.copy()
                bad_h0[at] = bad
                with pytest.raises(UnishiftError, match="NaN or Inf") as info:
                    build_direction_projection(bad_h0, a, inst.half_width, 4)
                assert type(info.value) is UnishiftError, at
            return
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        calls = [  # each call takes the operands it names
            lambda h0, a, u0, u: audit_projection_estimates(p, h0, u0, [1, -2]),
            lambda h0, a, u0, u: audit_perturbation_estimates(p, u0, u, a, 2.0, [1, -2], [0.0]),
            lambda h0, a, u0, u: audit_compressed_model(p, h0, a, u0, u, inst.phase, 2.0, [1, -2], [1]),
            lambda h0, a, u0, u: compressed_model(p, h0, a, inst.phase),
        ]
        takes = [("h0", "u0"), ("u0", "u", "a"), ("h0", "a", "u0", "u"), ("h0", "a")]
        for call, names in zip(calls, takes):
            for name in names:
                for at in [(3, 3), (3, 17)]:
                    operands = dict(h0=inst.h0, a=inst.a, u0=inst.u0, u=inst.u)
                    operands[name] = operands[name].copy()
                    operands[name][at] = bad
                    with pytest.raises(UnishiftError, match="NaN or Inf") as info:
                        call(**operands)
                    assert type(info.value) is UnishiftError, (name, at)

    def test_a_is_held_to_its_kept_pairs(self):
        """A is held to F diag(tau) F*, the direction every audit computes with: dropped eigenvalues count in its gap.

        Thirty eigenvalues of 9e-13, below the keep threshold 1e-12 max(||A||, 1), are dropped from the kept
        pairs; their Hilbert-Schmidt norm 4.9e-12 passes delta = 2.5e-11 (powers up to 2) and fails
        delta = 5e-13 (power 100).
        """
        rng = np.random.default_rng(18)
        inst = reduction_instance(18, 64, 2, 0.5)
        q = haar_unitary(rng, 64)[:, :32]
        f, _ = _kept_pairs(inst.a)
        q = q - f @ (f.conj().T @ q)
        q = np.linalg.qr(q)[0][:, :30]
        a = inst.a + (q * 9e-13) @ q.conj().T
        a = 0.5 * (a + a.conj().T)
        p = build_direction_projection(inst.h0, a, inst.half_width, 4)
        assert p.instance.tau.size == 2
        for ms in ([1, 2], [1, 100]):
            calls = [
                lambda: audit_perturbation_estimates(p, inst.u0, inst.u, a, 2.0, ms, [0.0]),
                lambda: audit_compressed_model(p, inst.h0, a, inst.u0, inst.u, inst.phase, 2.0, ms, [1]),
            ]
            for call in calls:
                if ms == [1, 2]:
                    call()
                else:
                    with pytest.raises(PathMismatch, match="A is not the direction that built the projection"):
                        call()
        compressed_model(p, inst.h0, a, inst.phase)

    @pytest.mark.parametrize("kind", ["diagonal", "haar"])
    def test_near_hermitian_operands_pass_the_frames_of_their_basis(self, kind):
        """H0 and A with a skew part that ``require_hermitian`` accepts pass every audit of the basis they built.

        The audits compute with Hermitian parts only, so the frame holds those to the basis: a skew part of
        1e-11 on each of H0's 256 diagonal entries, and one of A near 5e-11, are past delta = 2.5e-11 in
        the Hilbert-Schmidt norm and leave every report as it is for the Hermitian parts.  A Hermitian
        change of 2 delta is still ``PathMismatch``, skew part or not.  A Haar-rotated H0 with such a skew
        part passes ``require_hermitian`` and is refused for not being diagonal.
        """
        dim, rng = 256, np.random.default_rng(34)
        inst = reduction_instance(34, dim, 2, 0.5, phase=0.3)
        h0, a, u0, u = inst.h0, inst.a, inst.u0, inst.u
        if kind == "haar":
            q = haar_unitary(rng, dim)
            h0, a, u0, u = (q @ x @ q.conj().T for x in (h0, a, u0, u))
            h0, a = 0.5 * (h0 + h0.conj().T), 0.5 * (a + a.conj().T)
        k = 1e-13 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        skewed = {"h0": h0 + np.diag(1e-11j * rng.standard_normal(dim)), "a": a + (k - k.conj().T)}
        for name, x in skewed.items():
            assert hs_norm(x - x.conj().T) / 2 > 2.5e-11, name
        if kind == "haar":
            assert_refused(lambda: build_direction_projection(skewed["h0"], skewed["a"], inst.half_width, 16))
            return
        p = build_direction_projection(skewed["h0"], skewed["a"], inst.half_width, 16)
        bump = np.zeros((dim, dim), dtype=complex)
        bump[3, 40] = bump[40, 3] = 2 * 2.5e-11 / np.sqrt(2.0)  # Hermitian, Hilbert-Schmidt norm 2 delta

        def reports(h0, a):
            return [
                audit_projection_estimates(p, h0, u0, [1, 2]),
                audit_perturbation_estimates(p, u0, u, a, 2.0, [1, 2], [0.0, 1.0]),
                audit_compressed_model(p, h0, a, u0, u, inst.phase, 2.0, [1, 2], [1]),
            ]

        assert reports(skewed["h0"], skewed["a"]) == reports(h0, a)
        compressed_model(p, skewed["h0"], skewed["a"], inst.phase)
        for name in skewed:
            moved = {**skewed, name: skewed[name] + bump}
            with pytest.raises(PathMismatch, match=f"{'H0' if name == 'h0' else 'A'} is not the"):
                reports(moved["h0"], moved["a"])

    def test_h0_is_held_to_its_eigendecomposition(self):
        """H0 is held to diag(lambda), its own eigendecomposition: the gap of the H0 that built the basis is 0 at any
        norm.  A Haar-rotated H0 is refused at any norm, before a basis or a residual of LAPACK's is formed."""
        inst = reduction_instance(35, 64, 2, 0.5, phase=0.3)
        q = haar_unitary(np.random.default_rng(35), 64)
        for scale in (1e2, 1e5):
            h0 = scale * inst.h0
            p = build_direction_projection(h0, inst.a, scale, 4)
            audit_projection_estimates(p, h0, inst.u0, [1, 2])
            compressed_model(p, h0, inst.a, inst.phase)
            rotated = q @ h0 @ q.conj().T
            assert_refused(lambda: build_direction_projection(0.5 * (rotated + rotated.conj().T), inst.a, scale, 4))

    @pytest.mark.parametrize("field", [
        "eps", "instance", "cell_rows", "cell_columns", "cell_blocks", "eigenvalues", "f", "tau",
    ])
    def test_basis_is_checked_where_it_is_made(self, field):
        """Each field of the basis, and each array of its instance, is checked when the basis is made."""
        inst = reduction_instance(16, 32, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        own = field in vars(p)

        def made(value):
            return replace(p, **{field: value}) if own else replace(p, instance=replace(p.instance, **{field: value}))

        # an array where the instance belongs is a missing instance, and where eps belongs a bad window; any other
        # wrong shape disagrees with the layout.  A scalar is a wrong shape, except for eps.
        wrong_shape = {"eps": BadWindow, "instance": MissingConstruction}.get(field, DimensionMismatch)
        cases = [(None, MissingConstruction), (np.eye(3), wrong_shape)]
        for value, error in cases + ([] if field == "eps" else [(np.float64(1.0), wrong_shape)]):
            with pytest.raises(error):
                made(value)
        kept = made(getattr(p if own else p.instance, field))
        assert (kept.ambient_dim, kept.rank) == (32, p.rank)

    @pytest.mark.parametrize("eps, error", [
        (np.nan, BadWindow), (-1.0, BadWindow), (np.inf, BadWindow), ("foo", BadWindow), (True, BadWindow),
        (None, MissingConstruction),
    ])
    def test_eps_is_checked_where_the_basis_is_made(self, eps, error):
        """eps is a finite real number >= 0 and never a bool, in a replaced basis and in a hand-built one."""
        inst = reduction_instance(16, 32, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        with pytest.raises(error):
            replace(p, eps=eps)
        with pytest.raises(error):
            one_cell_basis(ambient_columns(p), p.instance, eps)
        assert replace(p, eps=0).eps == 0

    def test_hand_built_basis_needs_the_eigenpairs_of_h0(self):
        inst = reduction_instance(16, 32, 2, 0.5)
        p = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
        bare = replace(p.instance, eigenvalues=None)
        with pytest.raises(MissingConstruction):
            audit_projection_estimates(replace(p, instance=bare), inst.h0, inst.u0, [1])
        with pytest.raises(MissingConstruction):
            compressed_model(replace(p, instance=bare), inst.h0, inst.a, inst.phase)
        with pytest.raises(DimensionMismatch):
            short = replace(p.instance, eigenvalues=p.instance.eigenvalues[:31])
            audit_perturbation_estimates(replace(p, instance=short), inst.u0, inst.u, inst.a, 2.0, [1], [0.0])
        with pytest.raises(MissingConstruction):  # eigenpairs without a cell layout
            audit_compressed_model(replace(p, cell_blocks=None), inst.h0, inst.a, inst.u0, inst.u, 0.0, 2.0, [1], [1])
        # the same basis with one cell holding every row gives the same values
        one_cell = one_cell_basis(ambient_columns(p), p.instance, p.eps)
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
