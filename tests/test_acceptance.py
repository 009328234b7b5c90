"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines as they complete.
"""

import time

import numpy as np
import pytest

from oracles import eta_fourier, full_space, gateaux_series, log_unitary, polynomial_of, power
from unishift import (
    EtaIntegrator,
    TrigPolynomial,
    audit_compressed_model,
    audit_perturbation_estimates,
    audit_projection_estimates,
    batch_verify,
    build_direction_projection,
    compressed_model,
    convergence_study,
    doi_apply,
    eta_profile,
    gauss_legendre,
    hs_norm,
    lhs_trace,
    op_norm,
    random_pair,
    reduction_instance,
    resolvent_check,
    schur_bound_check,
    unitary_eig,
)
from unishift.doi import circle_function_of
from unishift.linalg import UnitaryPath
from unishift.trigpoly import random_trig_polynomial

BASE_SEED = 20260810
IDENTITY_DIMS = (1, 2, 4, 8, 16)
TRIALS_PER_DIM = 100
RMAX = 8


def report_line(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num:2d}: {description}{suffix}")
    return ok


def instance_polynomials(rng):
    polys = [TrigPolynomial.monomial(r) for r in range(-RMAX, RMAX + 1)]
    polys += [random_trig_polynomial(rng, RMAX) for _ in range(3)]
    return polys


@pytest.fixture(scope="module")
def identity_batch():
    """Criterion-1 batch shared with criterion 2: reports plus profile data."""
    rule = gauss_legendre(64)
    reports = []
    l1_checks = []
    start = time.perf_counter()
    for dim in IDENTITY_DIMS:
        for trial in range(TRIALS_PER_DIM):
            seed = BASE_SEED + 1000 * dim + trial
            pair = random_pair(seed, dim, 2.0)
            rng = np.random.default_rng(seed)
            polys = instance_polynomials(rng)
            reports.extend(batch_verify(pair.u0, pair.u, pair.a, polys, tol=1e-8, s_rule=rule))
            profile = eta_profile(pair.u0, pair.a, 512, rule)
            l1_checks.append((profile.l1_eta0, np.pi / 2 * hs_norm(pair.a) ** 2))
    elapsed = time.perf_counter() - start
    return {"reports": reports, "l1": l1_checks, "elapsed": elapsed}


def test_criterion_01_trace_identity(identity_batch):
    reports = identity_batch["reports"]
    worst = max(r.rel_err for r in reports)
    ok = all(r.passed for r in reports) and identity_batch["elapsed"] <= 120.0
    assert report_line(
        1,
        "trace identity on 500 pairs, |r| <= 8 plus random series",
        ok,
        f"{len(reports)} checks, worst rel err {worst:.2e}, {identity_batch['elapsed']:.1f}s",
    )


def test_criterion_02_l1_bound(identity_batch):
    margin = min(bound + 1e-8 - l1 for l1, bound in identity_batch["l1"])
    ok = all(l1 <= bound + 1e-8 for l1, bound in identity_batch["l1"])
    assert report_line(
        2,
        "centred profile L1 mass within (pi/2)||A||_2^2 on every pair",
        ok,
        f"{len(identity_batch['l1'])} instances, smallest margin {margin:.2e}",
    )


def test_criterion_03_scalar_closed_form():
    alpha, beta = 1.1, 2.3
    u0 = np.array([[np.exp(1j * beta)]])
    a = np.array([[alpha]], dtype=complex)
    u = np.exp(1j * alpha) * u0
    profile = eta_profile(u0, a, 2048, gauss_legendre(1024))
    tent = np.maximum(0.0, alpha - (profile.grid - beta))
    tent[profile.grid < beta] = 0.0
    tent_err = float(np.max(np.abs(profile.eta - tent)))
    lhs = lhs_trace(u0, u, a, TrigPolynomial.monomial(1))
    symbolic = np.exp(1j * (alpha + beta)) - np.exp(1j * beta) - 1j * alpha * np.exp(1j * beta)
    ok = tent_err <= 2 * alpha / 1024 and abs(lhs - symbolic) <= 1e-10
    assert report_line(
        3,
        "1x1 ramp profile and first-power trace match their closed forms",
        ok,
        f"ramp err {tent_err:.2e} vs {2 * alpha / 1024:.2e}, trace err {abs(lhs - symbolic):.2e}",
    )


def test_criterion_04_fourier_uniqueness():
    worst = 0.0
    ok = True
    for k in range(50):
        dim = IDENTITY_DIMS[k % len(IDENTITY_DIMS)]
        pair = random_pair(BASE_SEED + 77_000 + k, dim, 1.5)
        session = EtaIntegrator(pair.u0, pair.a, gauss_legendre(64))
        for n in list(range(-8, 0)) + list(range(1, 9)):
            d_n = gateaux_series(pair.u0, pair.a, TrigPolynomial.monomial(n))
            lhs = complex(np.trace(power(pair.u, n) - power(pair.u0, n) - d_n))
            gap = abs(eta_fourier(session, n) + lhs / n**2)
            worst = max(worst, gap / (1 + abs(lhs)))
            ok = ok and gap <= 1e-8 * (1 + abs(lhs))
    assert report_line(
        4,
        "Fourier data of eta equals -Tr{U^n - U0^n - D_n}/n^2, |n| <= 8, 50 pairs",
        ok,
        f"worst scaled gap {worst:.2e}",
    )


def test_criterion_05_log_norm_bound():
    rng = np.random.default_rng(BASE_SEED + 5)
    ok = True
    worst = -np.inf
    near_branch = np.pi - 1e-3
    for k in range(500):
        dim = int(rng.integers(1, 17))
        scale = near_branch if k % 5 == 0 else float(rng.uniform(0.1, 3.0))
        pair = random_pair(BASE_SEED + 50_000 + k, dim, scale)
        recovered = log_unitary(pair.u @ pair.u0.conj().T)
        slack = np.pi / 2 * hs_norm(pair.u - pair.u0) + dim * 1e-10 - hs_norm(recovered)
        worst = max(worst, -slack)
        ok = ok and slack >= 0.0
    assert report_line(
        5,
        "||A||_2 <= (pi/2) ||U - U0||_2 on 500 pairs incl. spectra 1e-3 from -1",
        ok,
        f"worst overshoot {max(worst, 0.0):.2e}",
    )


def test_criterion_06_doi_exactness_and_lipschitz():
    rng = np.random.default_rng(BASE_SEED + 6)
    ok = True
    worst_exact = 0.0
    for k in range(500):
        dim = int(rng.integers(2, 13))
        pair = random_pair(BASE_SEED + 60_000 + k, dim, float(rng.uniform(0.2, 2.5)))
        f = random_trig_polynomial(rng, 6)
        from unishift.doi import primitive_of

        g = primitive_of(f)
        got = doi_apply(g, pair.u, pair.u0, pair.u - pair.u0)
        exact = circle_function_of(g, unitary_eig(pair.u)) - circle_function_of(
            g, unitary_eig(pair.u0)
        )
        scaled = hs_norm(got - exact) / (1 + hs_norm(circle_function_of(g, unitary_eig(pair.u))))
        worst_exact = max(worst_exact, scaled)
        ok = ok and scaled <= 1e-10
        ok = ok and schur_bound_check(f, pair.u, pair.u0).passed
    assert report_line(
        6,
        "Schur transform reproduces g(U)-g(U0); HS Lipschitz bound holds, 500 pairs",
        ok,
        f"worst scaled identity gap {worst_exact:.2e}",
    )


def test_criterion_07_derivative_ratio():
    rng = np.random.default_rng(BASE_SEED + 7)
    ratios = []
    for k in range(20):
        dim = int(rng.integers(2, 9))
        r = int(rng.choice([n for n in range(-5, 6) if n != 0]))
        pair = random_pair(BASE_SEED + 70_000 + k, dim, 1.0)
        p = TrigPolynomial.monomial(r)
        exact = gateaux_series(pair.u0, pair.a, p)
        path = UnitaryPath(pair.u0, pair.a)

        def central(h):
            plus = polynomial_of(path.at(h), p)
            minus = polynomial_of(path.at(-h), p)
            return op_norm((plus - minus) / (2 * h) - exact)

        ratios.append(central(1e-3) / central(5e-4))
    ok = all(3.2 <= q <= 4.8 for q in ratios)
    assert report_line(
        7,
        "central-difference error ratio h=1e-3 vs 5e-4 equals 4 within 20%",
        ok,
        f"ratios in [{min(ratios):.2f}, {max(ratios):.2f}]",
    )


def test_criterion_08_reduction_audits():
    m_list = (1, -1, 2, -2, 4, -4)
    k_list = (1, -1, 2, -2, 4, -4)
    t_grid = np.linspace(-2.0, 2.0, 21)
    checked = 0
    ok = True
    for ambient in (64, 128, 256):
        for rank in (1, 2, 3):
            inst = reduction_instance(BASE_SEED + ambient + rank, ambient, rank, 0.5)
            for cells in (16, 64, 256):
                proj = build_direction_projection(inst.h0, inst.a, inst.half_width, cells)
                reports = [
                    audit_projection_estimates(proj, inst.h0, inst.u0, m_list),
                    audit_perturbation_estimates(
                        proj, inst.u0, inst.u, inst.a, 2.0, m_list, t_grid
                    ),
                    audit_compressed_model(
                        proj, inst.h0, inst.a, inst.u0, inst.u, inst.phase, 2.0, m_list, k_list
                    ),
                ]
                checked += sum(len(r.checks) for r in reports)
                ok = ok and all(r.passed for r in reports)
    assert report_line(
        8,
        "window/coupling/compression estimates hold over the full audit grid",
        ok,
        f"{checked} individual bounds",
    )


def test_criterion_09_compression_convergence():
    inst = reduction_instance(BASE_SEED + 9, 256, 2, 0.5)
    poly = TrigPolynomial.monomial(2)
    study = convergence_study(inst.h0, inst.a, inst.phase, poly, [8, 16, 32, 64])
    diffs = {row.cells: row.abs_diff for row in study.rows}
    model = compressed_model(full_space(256, inst.h0, inst.a), inst.h0, inst.a, inst.phase)
    identity_err = abs(
        lhs_trace(inst.u0, inst.u, inst.a, poly)
        - lhs_trace(model.u0p, model.up, model.ap, poly)
    )
    ok = diffs[64] <= 1e-3 and diffs[64] <= diffs[8] and identity_err <= 256 * 1e-10
    assert report_line(
        9,
        "compressed trace error falls below 1e-3 and shrinks with resolution",
        ok,
        f"err(8)={diffs[8]:.2e}, err(64)={diffs[64]:.2e}, identity-P {identity_err:.2e}",
    )


def test_criterion_10_resolvent_identity():
    pair = random_pair(BASE_SEED + 10, 4, 1.0)
    ok = True
    details = []
    for z in (0.0, 0.5, 2.0, -0.3 + 0.4j):
        rep = resolvent_check(pair.u0, pair.u, pair.a, z, tol=1e-7)
        agree = rep.series_vs_direct <= 1e-7 * (1 + abs(rep.direct_lhs))
        ok = ok and rep.passed and agree
        details.append(f"z={z}: order {rep.truncation_order}, gap {rep.series_vs_direct:.1e}")
    assert report_line(
        10,
        "resolvent identity at four points with direct-inverse cross-check",
        ok,
        "; ".join(details),
    )
