import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cayley_unitary_eig, choose_phase, log_unitary, require_hermitian_svd, require_unitary_svd
from unishift import (
    DimensionMismatch,
    EmptyMatrix,
    NotHermitian,
    NotUnitary,
    UnishiftError,
    herm_eig,
    hs_norm,
    op_norm,
    random_pair,
    unitary_eig,
)
from unishift import linalg
from unishift.linalg import (
    TWO_PI,
    UnitaryPath,
    _from_spectrum,
    _reflected_phases,
    haar_unitary,
    random_hermitian,
    require_hermitian,
    require_unitary,
)
from unishift.reduction import _instance

seeds = st.integers(0, 2**31 - 1)
dims = st.integers(1, 12)


def test_herm_eig_zero_matrix():
    dec = herm_eig(np.zeros((3, 3), dtype=complex))
    np.testing.assert_allclose(dec.eigenvalues, np.zeros(3))
    np.testing.assert_allclose(dec.vectors @ dec.vectors.conj().T, np.eye(3), atol=1e-14)


def test_herm_eig_diagonal():
    dec = herm_eig(np.diag([-1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 2.0])


def test_herm_eig_roundtrip_8x8():
    rng = np.random.default_rng(42)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = g + g.conj().T
    dec = herm_eig(h)
    assert op_norm(_from_spectrum(dec.vectors, dec.eigenvalues) - h) <= 8 * 1e-12
    # per-eigenpair residual stays at the machine level
    res = np.linalg.norm(h @ dec.vectors - dec.vectors * dec.eigenvalues, axis=0)
    assert np.all(res <= 50 * 8 * np.finfo(float).eps * op_norm(h))


class TestDiagonalEigenbasis:
    """The reduction's checked instance takes only an exactly diagonal H0 with a non-decreasing real part, its own
    eigenbasis: no LAPACK call, LAPACK's bits.  Any other H0 is refused, with no LAPACK call either.
    ``herm_eig`` itself always calls LAPACK."""

    @staticmethod
    def recorded(monkeypatch):
        shapes = []
        original = linalg._eigh
        monkeypatch.setattr(linalg, "_eigh", lambda h: shapes.append(h.shape) or original(h))
        return shapes

    @pytest.mark.parametrize("dim", [1, 2, 64, 256])
    @pytest.mark.parametrize("kind", ["ascending", "descending", "shuffled", "repeated", "repeated-shuffled",
                                      "repeated-descending", "imaginary"])
    def test_matches_lapack_bit_for_bit(self, monkeypatch, dim, kind):
        rng = np.random.default_rng(dim)
        levels, repeated = np.sort(rng.standard_normal(dim)), np.sort(rng.integers(-2, 3, dim).astype(float))
        diagonal = {
            "ascending": levels,
            "descending": levels[::-1],
            "shuffled": rng.permutation(levels),
            "repeated": repeated,
            "repeated-shuffled": rng.permutation(repeated),
            "repeated-descending": repeated[::-1],
            "imaginary": levels + 1e-13j * rng.standard_normal(dim),  # well inside the Hermitian tolerance
        }[kind]
        h = np.diag(diagonal).astype(complex)
        w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
        shapes = self.recorded(monkeypatch)
        ascending = bool(np.all(diagonal.real[1:] >= diagonal.real[:-1]))
        assert ascending or kind not in ("ascending", "repeated", "imaginary")
        if ascending:  # its eigenbasis is I, LAPACK's bits too
            assert _instance(h, np.zeros_like(h)).eigenvalues.tobytes() == w.tobytes()
            assert np.eye(dim, dtype=complex).tobytes() == v.tobytes()
        else:
            with pytest.raises(UnishiftError, match="the reduction works in H0's eigenbasis"):
                _instance(h, np.zeros_like(h))
        assert shapes == []
        dec = herm_eig(h)
        assert dec.eigenvalues.tobytes() == w.tobytes() and dec.vectors.tobytes() == v.tobytes()
        assert shapes == [(dim, dim)]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_off_diagonal_entry_is_refused(self, monkeypatch, order):
        dim = 5
        zero = np.zeros((dim, dim), dtype=complex)
        shapes = self.recorded(monkeypatch)
        for i, j in zip(*np.nonzero(~np.eye(dim, dtype=bool))):
            h = np.asarray(np.diag(np.arange(dim, dtype=complex)), order=order)
            h[i, j] = 1e-300
            with pytest.raises(UnishiftError, match="the reduction works in H0's eigenbasis"):
                _instance(h, zero)
        inst = _instance(np.asarray(np.diag(np.arange(dim, dtype=complex)), order=order), zero)
        assert inst.eigenvalues.tolist() == list(range(dim))
        assert shapes == []


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_unchecked_herm_eig_reads_its_input_in_place(kind):
    """With check=False no copy of the input is made: a read-only input works.

    A diagonal one, checked by the reduction's instance as its own eigenbasis, costs no more than the range
    finder's residual of a zero direction.
    """
    rng = np.random.default_rng(512)
    h = np.diag(np.arange(512.0)).astype(complex) if kind == "diagonal" else random_hermitian(rng, 512, 1.0)
    h.flags.writeable = False
    want = herm_eig(h.copy())
    tracemalloc.start()
    try:
        dec = herm_eig(h, check=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.eigenvalues.tobytes() == want.eigenvalues.tobytes() and dec.vectors.tobytes() == want.vectors.tobytes()
    assert not np.shares_memory(dec.eigenvalues, h) and not np.shares_memory(dec.vectors, h)
    if kind == "diagonal":
        zero = np.zeros_like(h)
        tracemalloc.start()
        try:
            inst = _instance(h, zero)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert peak < 1.5 * h.nbytes, peak


def test_choose_phase_identity():
    assert choose_phase(np.eye(4, dtype=complex)) == pytest.approx(0.0, abs=1e-15)


def test_choose_phase_two_point_tie():
    # spectrum {1, -1}: two equal gaps; the first in the ascending scan wins
    phi = choose_phase(np.diag([1.0, -1.0]).astype(complex))
    assert -np.exp(1j * phi) == pytest.approx(1j, abs=1e-14)


def test_choose_phase_largest_gap_midpoint():
    u0 = np.diag(np.exp(1j * np.array([0.1, 0.2])))
    phi = choose_phase(u0)
    midpoint = (0.2 + 0.1 + TWO_PI) / 2.0
    avoided = np.mod(np.angle(-np.exp(1j * phi)), TWO_PI)
    assert avoided == pytest.approx(np.mod(midpoint, TWO_PI), abs=1e-12)


# Angles at, or within 1e-13 of, the eigenvalues 1 and -1 (angles 0 and pi).
BOUNDARY_ANGLES = (0.0, np.pi, 1e-13, -1e-13, np.pi - 1e-13, np.pi + 1e-13)


def circle_points(angles):
    """e^{i angles}, with angles exactly 0 and pi giving exactly 1 and -1."""
    z = np.exp(1j * angles)
    return np.where(angles == 0.0, 1.0, np.where(angles == np.pi, -1.0, z))


def edge_angles(rng, kind, dim):
    """Random, clustered, reflected, equispaced-reflected or boundary eigenangles."""
    if kind == "random":
        return rng.uniform(0.0, TWO_PI, dim)
    if kind == "clustered":
        centres = rng.uniform(0.0, TWO_PI, rng.integers(1, 4))
        spread = rng.choice([0.0, 1e-13, 1e-8, 1e-3])
        return rng.choice(centres, dim) + spread * rng.standard_normal(dim)
    if kind == "reflected":
        half = rng.uniform(0.0, np.pi, (dim + 1) // 2)
        return np.concatenate([half, -half])[:dim]
    if kind == "equispaced":
        # the reflected set has 2d equal gaps, so the pi/(2d) bound is tight
        return (np.arange(dim) + 0.5) * np.pi / dim * rng.choice([-1.0, 1.0], dim)
    boundary = rng.choice(BOUNDARY_ANGLES, dim)
    return np.where(rng.random(dim) < 0.7, boundary, rng.uniform(0.0, TWO_PI, dim))


EDGE_KINDS = ("random", "clustered", "reflected", "equispaced", "boundary")


@given(seeds, st.integers(1, 64), st.sampled_from(EDGE_KINDS), st.booleans())
def test_reflected_phase_keeps_half_gap_distance(seed, dim, kind, rotate):
    # the pick sees only (U + U*)/2, yet -e^{i phi} stays pi/(2d) from the true spectrum
    rng = np.random.default_rng(seed)
    z = circle_points(edge_angles(rng, kind, dim))
    u = np.diag(z)
    if rotate:
        q = haar_unitary(rng, dim)
        u = q @ u @ q.conj().T
    phi = _reflected_phases(u)
    assert -np.pi < phi <= np.pi
    avoided = np.angle(-np.exp(1j * phi))
    dist = np.min(np.abs(np.mod(np.angle(z) - avoided + np.pi, TWO_PI) - np.pi))
    assert dist >= np.pi / (2 * dim) - 1e-9


@given(seeds, st.integers(2, 10))
def test_choose_phase_maximises_distance(seed, dim):
    # oracle: enumerate the gaps of the spectrum directly
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.uniform(0.0, TWO_PI, dim))
    u0 = np.diag(np.exp(1j * ang))
    phi = choose_phase(u0)
    target = np.mod(np.angle(-np.exp(1j * phi)), TWO_PI)
    dist = np.min(np.abs(np.mod(ang - target + np.pi, TWO_PI) - np.pi))
    gaps = np.diff(np.concatenate([ang, [ang[0] + TWO_PI]]))
    assert dist == pytest.approx(np.max(gaps) / 2.0, abs=1e-10)


def test_unitary_eig_identity_convention():
    dec = unitary_eig(np.eye(3, dtype=complex))
    np.testing.assert_allclose(dec.angles, np.full(3, TWO_PI))
    np.testing.assert_allclose(dec.vectors, np.eye(3), atol=1e-12)


def test_unitary_eig_diagonal():
    dec = unitary_eig(np.diag([1j, -1j]))
    np.testing.assert_allclose(dec.angles, [np.pi / 2, 3 * np.pi / 2], atol=1e-12)


def test_unitary_eig_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        unitary_eig(2.0 * np.eye(2, dtype=complex))


def rebuild(dec):
    """The unitary (or stack) with the eigenangles and eigencolumns of ``dec``."""
    return _from_spectrum(dec.vectors, np.exp(1j * dec.angles))


@given(seeds, dims)
def test_unitary_eig_reconstruction(seed, dim):
    u = haar_unitary(np.random.default_rng(seed), dim)
    dec = unitary_eig(u)
    assert op_norm(rebuild(dec) - u) <= dim * 1e-12
    assert op_norm(dec.vectors.conj().T @ dec.vectors - np.eye(dim)) <= 1e-12
    assert np.all(dec.angles > 0.0) and np.all(dec.angles <= TWO_PI)
    assert np.all(np.diff(dec.angles) >= 0.0)


def decompose_slices(stack):
    """``unitary_eig`` of each slice of a stack (k, d, d), stacked into angles (k, d) and vectors (k, d, d)."""
    decs = [unitary_eig(u) for u in stack]
    dec = linalg.SpectralDecomposition(np.stack([one.angles for one in decs]), np.stack([one.vectors for one in decs]))
    phases = choose_phase(stack)
    assert dec.angles.shape == stack.shape[:-1] and dec.vectors.shape == stack.shape
    for k, u in enumerate(stack):
        assert phases[k] == choose_phase(u)
    return dec


@given(seeds, st.integers(1, 64))
def test_unitary_eig_unchecked_matches_checked(seed, dim):
    """``check`` only decides the operand check: both paths return the same bits."""
    u = haar_unitary(np.random.default_rng(seed), dim)
    checked, unchecked = unitary_eig(u), unitary_eig(u, check=False)
    assert np.array_equal(checked.angles, unchecked.angles)
    assert np.array_equal(checked.vectors, unchecked.vectors)


@pytest.mark.parametrize("shape", [(3, 4, 4), (4, 3)], ids=["stack", "rectangle"])
@pytest.mark.parametrize("check", [True, False])
def test_an_operand_that_is_not_square_is_named_so(shape, check):
    """With no size given, a stack or a rectangle is "not a square matrix", not a square of its first axis."""
    m = np.zeros(shape, dtype=complex)
    for decompose in (unitary_eig, herm_eig):
        with pytest.raises(DimensionMismatch, match=re.escape(f"has shape {shape}, not a square matrix") + "$"):
            decompose(m, check=check)


@pytest.mark.parametrize("dim", [1, 3, 4])
@pytest.mark.parametrize("check", [True, False])
def test_unitary_eig_rejects_a_stack(dim, check):
    stack = np.stack([haar_unitary(np.random.default_rng(k), dim) for k in range(3)])
    with pytest.raises(DimensionMismatch):
        unitary_eig(stack, check=check)


def test_unitary_eig_stack_edge_spectra():
    dec = decompose_slices(
        np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0]), np.diag([1j, -1.0, 1.0])]).astype(complex)
    )
    # eigenvalue 1 is parked at 2pi, -1 sits at pi, repeats stay repeated
    np.testing.assert_array_equal(dec.angles[0], np.full(3, TWO_PI))
    assert dec.angles[1][0] == pytest.approx(np.pi, abs=1e-12)
    assert dec.angles[1][1:].tolist() == [TWO_PI, TWO_PI]
    np.testing.assert_allclose(dec.angles[2], [np.pi / 2, np.pi, TWO_PI], atol=1e-12)
    assert op_norm(rebuild(dec)[2] - np.diag([1j, -1.0, 1.0])) <= 1e-12

    scalars = np.array([[[1.0]], [[-1.0]], [[np.exp(0.3j)]]], dtype=complex)
    dec = decompose_slices(scalars)
    np.testing.assert_allclose(dec.angles[:, 0], [TWO_PI, np.pi, 0.3], atol=1e-12)

    # clustered, reflected and boundary spectra, diagonal and in a Haar basis
    rng = np.random.default_rng(11)
    for dim in (1, 2, 5, 16, 64):
        for kind in EDGE_KINDS[1:]:
            diagonal = np.stack([np.diag(circle_points(edge_angles(rng, kind, dim))) for _ in range(2)])
            q = haar_unitary(rng, dim)
            for stack in (diagonal, q @ diagonal @ q.conj().T):
                dec = decompose_slices(stack)
                for u, rebuilt, v in zip(stack, rebuild(dec), dec.vectors):
                    assert op_norm(rebuilt - u) <= dim * 1e-12
                    assert op_norm(v.conj().T @ v - np.eye(dim)) <= 1e-12


# Centres of eigenvalue groups sit on j 2pi / GROUP_GRID, so a centre's mirror image is a centre too and
# distinct centres are at least 3.1e-3 apart.  A mirror partner -theta is moved by delta: exact pairs,
# and shifts on both sides of the coupling tolerance 1e-13.
GROUP_GRID = 2000
MIRROR_DELTAS = (0.0, 0.0, 1e-15, 3e-14, 8e-14, 1.2e-13, 3e-13, 1e-11, 1e-8, 1e-5)


def grouped_spectrum(rng, dim):
    """Eigenangles in groups about separated centres, and the centres.

    Up to six centres come from the upper half circle, 0 and pi included;
    most others get the mirror partner -theta + delta, the rest move to
    -theta.  Each eigenvalue sits on its centre (repeats), 1e-13 off it
    (within 1e-13 of +-1 at those centres) or 1e-9 off it (clusters).
    """
    centres = []
    for j in rng.choice(GROUP_GRID // 2 + 1, size=min(dim, 6), replace=False):
        theta = np.pi * (j / (GROUP_GRID // 2))
        if j % (GROUP_GRID // 2) == 0 or rng.random() < 0.3:
            centres.append(theta * rng.choice([-1.0, 1.0]))
        else:
            centres += [theta, -theta + rng.choice(MIRROR_DELTAS) * rng.choice([-1.0, 1.0])]
    centres = np.mod(centres, TWO_PI)
    which = np.concatenate([np.arange(centres.size), rng.integers(0, centres.size, dim)])[:dim]
    offsets = rng.choice([0.0, 0.0, 1e-13, 1e-9], dim) * rng.choice([-1.0, 1.0], dim)
    return centres[which] + offsets, centres


def group_sums(dec, centres, weights):
    """Per centre: the count, the sorted angle offsets from it and the sum of lambda_j |y_j|^2 over its eigencolumns."""
    offset = np.mod(dec.angles[:, None] - centres[None, :] + np.pi, TWO_PI) - np.pi
    nearest = np.argmin(np.abs(offset), axis=1)
    mass = weights @ np.abs(dec.vectors) ** 2
    return [
        (np.sort(offset[nearest == g, g]), float(np.sum(mass[nearest == g]))) for g in range(centres.size)
    ]


@given(seeds, st.integers(1, 64), st.booleans())
def test_unitary_eig_matches_the_cayley_oracle_on_grouped_spectra(seed, dim, rotate):
    # mirror pairs put equal cos(theta) into one coupled Ritz block; the oracle solves the whole matrix by Cayley
    rng = np.random.default_rng(seed)
    stack, truths = [], []
    for _ in range(3):
        angles, centres = grouped_spectrum(rng, dim)
        q = haar_unitary(rng, dim) if rotate else np.eye(dim, dtype=complex)
        stack.append((q * circle_points(angles)) @ q.conj().T)
        truths.append((angles, centres, q))
    stack = np.stack(stack)
    dec = decompose_slices(stack)
    oracle = cayley_unitary_eig(stack)
    weights = rng.uniform(-1.0, 1.0, dim)
    for k, (angles, centres, q) in enumerate(truths):
        one = linalg.SpectralDecomposition(dec.angles[k], dec.vectors[k])
        ref = linalg.SpectralDecomposition(oracle.angles[k], oracle.vectors[k])
        true = linalg.SpectralDecomposition(np.mod(angles, TWO_PI), q)
        assert op_norm(rebuild(one) - stack[k]) <= dim * 1e-12
        assert op_norm(one.vectors.conj().T @ one.vectors - np.eye(dim)) <= 1e-12
        got, want = group_sums(one, centres, weights), group_sums(ref, centres, weights)
        for (offsets, mass), (ref_offsets, ref_mass), (true_offsets, true_mass) in zip(
            got, want, group_sums(true, centres, weights)
        ):
            assert offsets.shape == ref_offsets.shape == true_offsets.shape
            np.testing.assert_allclose(offsets, ref_offsets, rtol=0, atol=1e-11)
            np.testing.assert_allclose(offsets, true_offsets, rtol=0, atol=1e-11)
            assert abs(mass - ref_mass) <= 1e-10 and abs(mass - true_mass) <= 1e-10


def test_unitary_eig_solves_a_coupled_run_of_two_mirror_pairs(monkeypatch):
    # cos(1.1) and cos(1.1 + 1e-9) agree to 1e-9, so eigh mixes all four eigenvectors of the two pairs
    angles = np.array([1.1, -1.1, 1.1 + 1e-9, -1.1 - 1e-9, 0.3, 2.5])
    q = haar_unitary(np.random.default_rng(7), 6)
    u = (q * np.exp(1j * angles)) @ q.conj().T
    blocks = []
    solve = linalg._cayley_eig
    monkeypatch.setattr(linalg, "_cayley_eig", lambda x: blocks.append(x.shape[-1]) or solve(x))
    dec = unitary_eig(u)
    assert max(blocks) >= 3
    np.testing.assert_allclose(dec.angles, np.sort(np.mod(angles, TWO_PI)), rtol=0, atol=1e-13)
    np.testing.assert_allclose(dec.angles, cayley_unitary_eig(u).angles, rtol=0, atol=1e-13)
    assert op_norm(rebuild(dec) - u) <= 6 * 1e-14
    assert op_norm(dec.vectors.conj().T @ dec.vectors - np.eye(6)) <= 1e-14
    # each eigencolumn is q's column for its angle, up to a phase
    overlap = np.abs(q.conj().T @ dec.vectors)
    np.testing.assert_allclose(overlap[np.argsort(np.mod(angles, TWO_PI)), np.arange(6)], 1.0, atol=1e-6)


def test_unitary_eig_empty_matrix():
    with pytest.raises(EmptyMatrix):
        unitary_eig(np.zeros((0, 0), dtype=complex))


def test_log_unitary_identity():
    np.testing.assert_allclose(log_unitary(np.eye(2, dtype=complex)), np.zeros((2, 2)), atol=1e-14)


def test_log_unitary_branch_at_minus_one():
    np.testing.assert_allclose(log_unitary(np.array([[-1.0 + 0j]])), [[np.pi]], atol=1e-12)


def test_log_unitary_diagonal_and_bounds():
    v = np.diag(np.exp(1j * np.array([0.3, -2.9])))
    a = log_unitary(v)
    np.testing.assert_allclose(a, np.diag([0.3, -2.9]), atol=1e-12)
    assert op_norm(UnitaryPath(np.eye(2), a).at(1.0) - v) <= 2 * 1e-12
    assert hs_norm(a) <= np.pi / 2 * hs_norm(v - np.eye(2)) + 2 * 1e-10


@given(seeds, dims)
def test_log_exp_roundtrip(seed, dim):
    v = haar_unitary(np.random.default_rng(seed), dim)
    a = log_unitary(v)
    assert op_norm(a - a.conj().T) <= dim * 1e-12
    w = np.linalg.eigvalsh(a)
    assert np.all(w > -np.pi - 1e-12) and np.all(w <= np.pi + 1e-12)
    assert op_norm(UnitaryPath(np.eye(dim), a).at(1.0) - v) <= dim * 1e-12


@given(seeds, dims, st.floats(0.05, 3.0))
def test_hs_bound_on_log(seed, dim, scale):
    pair = random_pair(seed, dim, scale)
    a = log_unitary(pair.u @ pair.u0.conj().T)
    assert hs_norm(a) <= np.pi / 2 * hs_norm(pair.u - pair.u0) + dim * 1e-10


def test_unitary_path_endpoints():
    pair = random_pair(9, 5, 1.0)
    path = UnitaryPath(pair.u0, pair.a)
    np.testing.assert_allclose(path.at(0.0), pair.u0, atol=1e-14)
    u1 = path.at(1.0)
    np.testing.assert_allclose(u1, pair.u, atol=1e-13)
    assert op_norm(log_unitary(u1 @ pair.u0.conj().T) - pair.a) <= 5 * 1e-10


def test_unitary_path_scalar():
    beta, alpha, s = 0.7, 0.4, 0.6
    u0 = np.array([[np.exp(1j * beta)]])
    a = np.array([[alpha]], dtype=complex)
    np.testing.assert_allclose(UnitaryPath(u0, a).at(s), [[np.exp(1j * (s * alpha + beta))]])


def test_unitary_path_stays_unitary():
    pair = random_pair(3, 6, 2.5)
    path = UnitaryPath(pair.u0, pair.a)
    for s in (0.25, 0.5, 1.75):
        us_mat = path.at(s)
        assert op_norm(us_mat.conj().T @ us_mat - np.eye(6)) <= 6 * 1e-12


def test_random_pair_deterministic():
    p1, p2 = random_pair(123, 7, 1.5), random_pair(123, 7, 1.5)
    assert p1.u0.tobytes() == p2.u0.tobytes()
    assert p1.a.tobytes() == p2.a.tobytes()
    assert p1.u.tobytes() == p2.u.tobytes()


def test_random_pair_small_scale_continuity():
    pair = random_pair(5, 6, 1e-6)
    assert hs_norm(pair.u - pair.u0) <= np.sqrt(6) * 1e-6 * (1 + 1e-6)


def test_random_pair_scale_sets_operator_norm():
    pair = random_pair(8, 5, 0.9)
    assert op_norm(pair.a) == pytest.approx(0.9, rel=1e-12)


@given(seeds, dims, st.floats(0.05, 3.0))
def test_random_pair_log_roundtrip(seed, dim, scale):
    pair = random_pair(seed, dim, scale)
    assert op_norm(log_unitary(pair.u @ pair.u0.conj().T) - pair.a) <= dim * 1e-10


def test_random_pair_rejects_bad_scale():
    for dim, scale in ((3, np.pi), (3, 0.0), (3, -1.0), (3, np.nan), (0, 1.0), (-2, 1.0)):
        with pytest.raises(UnishiftError):
            random_pair(0, dim, scale)


@pytest.mark.parametrize("dim", [2.5, 3.0, True])
def test_random_pair_rejects_non_integer_dim(dim):
    with pytest.raises(UnishiftError, match="whole number"):
        random_pair(0, dim, 1.0)


@pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
def test_random_pair_rejects_bad_seed(seed):
    with pytest.raises(UnishiftError, match="seed must be a whole number"):
        random_pair(seed, 3, 1.0)


@pytest.mark.parametrize(
    "bad, dim",
    [(np.ones((2, 3)), None), (np.eye(3), 4), (np.ones(3), None), (np.ones((1, 3, 3)), 3), (5.0, None), (5.0, 1)],
    ids=["non-square", "wrong-size", "vector", "stack", "scalar", "scalar-sized"],
)
def test_one_operand_check_states_the_size(bad, dim):
    """Any shape but dim x dim (any square size when dim is None) is a DimensionMismatch, in each check."""
    from unishift.linalg import as_matrix

    for check in (as_matrix, require_hermitian, require_unitary):
        with pytest.raises(DimensionMismatch, match="probe has shape"):
            check(bad, "probe", dim)


def test_one_operand_check_copies_unless_asked():
    from unishift.linalg import as_matrix

    c = np.eye(3, dtype=complex)
    assert as_matrix(c, dim=3, copy=None) is c
    got = as_matrix(np.eye(3), dim=3)
    assert got.dtype == np.complex128 and as_matrix(c) is not c
    np.testing.assert_array_equal(got, c)


def test_matrix_coercion_rejects_bad_input():
    from unishift.linalg import as_matrix

    with pytest.raises(ValueError):
        as_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("ragged", [[[1, 2], [3]], [[1, 2], [3, [4]]], [[1.0, "x"], [0.0, 1.0]]])
def test_ragged_or_non_numeric_input_raises_unishift_error(ragged):
    from unishift.linalg import as_matrix

    with pytest.raises(UnishiftError):
        as_matrix(ragged)


def test_empty_random_hermitian_raises_unishift_error():
    with pytest.raises(UnishiftError):
        random_hermitian(np.random.default_rng(0), 0, 1.0)


@pytest.mark.parametrize("bad", ["non-square", "nan", "inf"])
def test_malformed_matrices_raise_unishift_error(bad):
    """A malformed matrix is a typed input error at every public entry point."""
    from unishift import (
        EtaIntegrator,
        TrigPolynomial,
        audit_projection_estimates,
        batch_verify,
        build_direction_projection,
        doi_apply,
        reduction_instance,
    )

    def malformed(good):
        if bad == "non-square":
            return np.asarray(good)[:, :-1]
        out = np.array(good, dtype=complex)
        out[0, 1] = np.nan if bad == "nan" else np.inf
        return out

    pair = random_pair(5, 2, 1.0)
    inst = reduction_instance(6, 32, 2, 0.5)
    proj = build_direction_projection(inst.h0, inst.a, inst.half_width, 4)
    m, h0 = malformed(pair.u0), malformed(inst.h0)
    calls = [
        lambda: batch_verify(m, pair.u, pair.a, [TrigPolynomial.monomial(1)]),
        lambda: EtaIntegrator(m, pair.a),
        lambda: doi_apply(TrigPolynomial.monomial(1), m, pair.u0, pair.u - pair.u0),
        lambda: audit_projection_estimates(proj, h0, inst.u0, [1]),
    ]
    for call in calls:
        with pytest.raises(UnishiftError):
            call()


def _validation_outcome(check, m):
    try:
        check(m, what="probe")
    except UnishiftError as exc:
        return type(exc), str(exc)
    return None


@given(
    seeds,
    dims,
    st.sampled_from(["hermitian", "unitary"]),
    st.sampled_from([1e-3, 0.5, 0.99, 1.01, 2.0]),
)
@settings(max_examples=80)
def test_validation_certificate_matches_svd_definition(seed, dim, kind, factor):
    """Near either side of the tolerance, the decision and message are those of the SVD check."""
    rng = np.random.default_rng(seed)
    if kind == "hermitian":
        h = random_hermitian(rng, dim, rng.uniform(0.1, 10.0))
        limit = 1e-10 * op_norm(h)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = h + (factor * limit / op_norm(x - x.conj().T)) * x
        checks = require_hermitian, require_hermitian_svd
    else:
        limit = dim * 1e-10
        # M*M - I = V diag(delta) V* with max |delta| = factor * limit
        delta = rng.uniform(-1.0, 1.0, dim)
        delta *= factor * limit / np.max(np.abs(delta))
        v = haar_unitary(rng, dim)
        m = haar_unitary(rng, dim) @ ((v * np.sqrt(1.0 + delta)) @ v.conj().T)
        checks = require_unitary, require_unitary_svd
    got, want = (_validation_outcome(check, m) for check in checks)
    assert got == want
    assert (want is not None) == (factor > 1.0)


class TestRowBlockedHermitianKernel:
    """The row-blocked Hermitian part and gap at sizes of one block, several, and a lone last row.

    Every size is read through the blocks, so 3 (one short block) and 64 (two
    full blocks, no remainder) stand beside the block edges 31 to 33 and 65.
    """

    SIZES = [1, 2, 3, 31, 32, 33, 64, 65, 257]

    @staticmethod
    def perturbed(dim, factor, limit, rng):
        """A random Hermitian H plus a dense X with ||X - X*||_2 = factor * limit."""
        h = random_hermitian(rng, dim, rng.uniform(0.1, 10.0))
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return h, (factor * limit(h) / op_norm(x - x.conj().T)) * x

    @pytest.mark.parametrize("dim", SIZES)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_blocks_cover_every_row_once(self, dim, order):
        blocks = linalg._row_blocks(dim)
        assert np.array_equal(np.concatenate([np.arange(dim)[rows] for rows in blocks]), np.arange(dim))
        assert all(rows.stop - rows.start >= min(dim, 2) for rows in blocks)
        m = np.asarray(np.random.default_rng(dim).standard_normal((dim, dim, 2)) @ [1.0, 1j], order=order)
        rows = [(r, top.copy(), adjoint.copy()) for r, top, adjoint in linalg._hermitian_blocks(m)]
        assert [r for r, _, _ in rows] == blocks
        for r, top, adjoint in rows:
            assert np.array_equal(top, m[r]) and np.array_equal(adjoint, m.conj().T[r])

    @pytest.mark.parametrize("dim", SIZES)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_hermitian_part_is_the_dense_formula_bit_for_bit(self, dim, order):
        rng = np.random.default_rng(dim)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = np.asarray(m, order=order)
        want = 0.5 * (m + m.conj().T)
        got = linalg._hermitian_part(m)
        assert got.flags.c_contiguous and got.tobytes() == np.ascontiguousarray(want).tobytes()
        gap, norm = linalg._hermitian_norms(m)
        assert abs(gap - hs_norm(m - m.conj().T)) <= 1e-14 * gap
        assert abs(norm - hs_norm(m)) <= 1e-14 * norm

    @pytest.mark.parametrize("dim", SIZES[2:])
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_require_hermitian_decides_as_the_svd_definition(self, dim, factor):
        """At 0.99 and 1.01 of the tolerance 1e-10 ||M||_2, with the gap spread over every block."""
        rng = np.random.default_rng(dim)
        h, x = self.perturbed(dim, factor, lambda h: 1e-10 * op_norm(h), rng)
        got, want = (_validation_outcome(check, h + x) for check in (require_hermitian, require_hermitian_svd))
        assert got == want
        assert (want is not None) == (factor > 1.0)

    @pytest.mark.parametrize("dim", SIZES[2:])
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_certificate_reads_the_blocked_gap(self, monkeypatch, dim, factor):
        """At 0.99 of the Hilbert-Schmidt certificate a pass takes no operator norm; at 1.01 it takes them."""
        rng = np.random.default_rng(dim)
        h = random_hermitian(rng, dim, rng.uniform(0.1, 10.0))
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = h + (factor * 1e-10 * hs_norm(h) / np.sqrt(dim) / hs_norm(x - x.conj().T)) * x
        calls = []
        original = linalg.op_norm
        monkeypatch.setattr(linalg, "op_norm", lambda a: calls.append(1) or original(a))
        assert _validation_outcome(require_hermitian, m) is None is _validation_outcome(require_hermitian_svd, m)
        assert bool(calls) == (factor > 1.0)


def test_valid_input_passes_without_an_svd(monkeypatch):
    rng = np.random.default_rng(256)
    u = haar_unitary(rng, 256)
    h = (u * rng.uniform(-2.0, 2.0, 256)) @ u.conj().T  # Hermitian up to roundoff

    def no_svd(m):
        raise AssertionError("op_norm was needed for a valid input")

    monkeypatch.setattr(linalg, "op_norm", no_svd)
    require_hermitian(h)
    require_unitary(u)
