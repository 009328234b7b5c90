"""The four benchmark workloads: seeded inputs, timed items and probe replays.

A workload is a fixed round of ``round_items`` items that the runner repeats
in a closed loop.  ``item(r, k, tr, out)`` runs item ``k`` of round ``r``
through the public API, wraps each public call in a span of ``tr`` and
records every correctness check in ``out``.  ``probe(r, k, tr, counts)``
replays the public sub-steps of that item's composite calls on the same
inputs, one span per sub-step, and adds the item's work counts.

``window`` is the number of leading timed rounds whose items give the tail
time, the eleventh-largest item time.  Since every round holds the same item
mix, that item falls inside one item class and reads a typical member of it:
the middle of the d = 16 pairs (identity, p90 of 105 items), of the
rho = 0.9 points (resolvent, p80 of 49) and of the 64-cell partitions
(reduction, p64 of 28), and the upper quarter of the d = 32 exports
(export, p58 of 24).  It is not the tail latency of the slowest class: a
change that slows only the slowest members of a class, or adds an
occasional outlier item, barely moves it.  The windows are as long as the
run time allows; the extreme items of a class are the ones machine noise
moves most.

Inputs come only from the seed.  Each workload draws a pool of inputs at
set-up; round ``r`` uses pool entry ``r % pool`` and so recycles inputs once
the pool is exhausted (the library caches nothing between calls).
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
from collections import Counter

import numpy as np

from unishift import (
    EtaIntegrator,
    TrigPolynomial,
    audit_compressed_model,
    audit_perturbation_estimates,
    audit_projection_estimates,
    batch_verify,
    build_direction_projection,
    convergence_study,
    doi_apply,
    eta_profile,
    gauss_legendre,
    herm_eig,
    hs_norm,
    lhs_trace,
    op_norm,
    random_pair,
    reduction_instance,
    resolvent_check,
    schur_bound_check,
    unitary_eig,
)
from unishift import cli, spectral_shift
from unishift.doi import circle_function_of, primitive_of
from unishift.linalg import UnitaryPath, require_hermitian, require_unitary
from unishift.trace_formula import require_path, resolvent_coefficients, resolvent_truncation
from unishift.trigpoly import random_trig_polynomial

# Tolerances of the acceptance suite (tests/test_acceptance.py), unchanged.
IDENTITY_TOL = 1e-8
L1_SLACK = 1e-8
RESOLVENT_TOL = 1e-7
CONVERGENCE_TOL = 1e-3
DOI_EXACTNESS_TOL = 1e-10
# s-nodes of the resolvent checks.  The package default, 64, under-resolves
# some pairs near the circle: one |z| = 0.95 point of seed 702 missed the
# 1e-7 tolerance (relative error 1.03e-7 at 64 nodes, 4e-12 at 96 and
# 1e-14 at 128), so every check is solved with 128.
RESOLVENT_NODES = 128

# Library functions whose real calls a traced run counts, by layer.  The
# modules of ``unishift`` look them up as module globals at each call.
COUNTED_FUNCTIONS = {
    "require_unitary": "linalg.validate",
    "require_hermitian": "linalg.validate",
    "require_path": "linalg.validate",
    "unitary_eig": "linalg.unitary_eig",
    "herm_eig": "linalg.herm_eig",
}
COUNTED_LAYERS = frozenset(COUNTED_FUNCTIONS.values()) | {"spectral_shift.build"}

# Probe spans whose work the ``eta`` command repeats inside each ``cli.run`` span.
CLI_LIBRARY_SPANS = ("linalg.random_pair", "spectral_shift.build", "spectral_shift.profile")


class Outcome:
    """Checks attempted and failed, plus the work counts read from outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.counts: Counter = Counter()

    def check(self, ok: bool, failure_counter: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if failure_counter:
                self.counts[failure_counter] += 1


@contextlib.contextmanager
def count_library_calls(tr):
    """Count the calls the library makes to ``COUNTED_FUNCTIONS`` and ``EtaIntegrator``.

    Yields a Counter by layer.  Each function is replaced, for the duration,
    in every ``unishift`` module that binds it; a call counts while the
    outermost open span of ``tr`` is a traced set-up or item, so the probe
    replay is not counted.  Nor are this module's own direct calls (the
    correctness checks): they go to the functions it bound at import.
    """
    calls: Counter = Counter()

    def counted(fn, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.within("bench.setup", "bench.item"):
                calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    replaced = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "unishift" or name.startswith("unishift."))]
    for name, layer in COUNTED_FUNCTIONS.items():
        binders = [m for m in modules if name in vars(m)]
        original = getattr(binders[0], name)
        wrapper = counted(original, layer)
        for m in binders:
            replaced.append((m, name, original))
            setattr(m, name, wrapper)
    integrator = spectral_shift.EtaIntegrator
    replaced.append((integrator, "__init__", integrator.__init__))
    integrator.__init__ = counted(integrator.__init__, "spectral_shift.build")
    try:
        yield calls
    finally:
        for owner, name, original in reversed(replaced):
            setattr(owner, name, original)


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _probe_pair(tr, counts: Counter, pair, rule, modes=None, grid=None, lhs_poly=None) -> None:
    """Replay validation, per-node spectra and the integrator steps for one pair."""
    u0, u, a = pair.u0, pair.u, pair.a
    with tr.span("linalg.validate"):
        require_unitary(u0)
    with tr.span("linalg.validate"):
        require_unitary(u)
    with tr.span("linalg.validate"):
        require_hermitian(a)
    with tr.span("linalg.validate"):
        require_path(u0, u, a)
    # The path's constructor is herm_eig(A); the node unitaries reuse it.
    with tr.span("linalg.herm_eig"):
        path = UnitaryPath(u0, a, check=False)
    with tr.span("linalg.unitary_eig"):
        unitary_eig(u0, check=False)
    for s in rule.nodes:
        with tr.span("linalg.unitary_eig"):
            unitary_eig(path.at(s), check=False)
    with tr.span("spectral_shift.build"):
        integrator = EtaIntegrator(u0, a, rule)
    counts["spectral_shift.nodes"] += rule.count
    counts["spectral_shift.jumps"] += 2 * u0.shape[0] * rule.count
    if modes is not None:
        with tr.span("spectral_shift.pairings"):
            integrator.curvature_pairings(modes)
        counts["spectral_shift.pairing_modes"] += len(modes)
    if grid is not None:
        with tr.span("spectral_shift.profile"):
            integrator.profile(grid)
        counts["spectral_shift.grid_points"] += grid
    if lhs_poly is not None:
        with tr.span("trace_formula.lhs"):
            lhs_trace(u0, u, a, lhs_poly)
        counts["trace_formula.lhs_modes"] += len(lhs_poly.coeffs)
        counts["trace_formula.max_order"] = max(counts["trace_formula.max_order"], lhs_poly.degree)


class Identity:
    """Acceptance criterion-01/02 batch: one pair per item, dims 1 to 16."""

    def __init__(self, seed: int, smoke: bool, tr):
        self.dims = (1, 2) if smoke else (1, 2, 4, 8, 16)
        rmax = 2 if smoke else 8
        self.rule = gauss_legendre(16 if smoke else 64)
        self.grid = 64 if smoke else 512
        self.round_items = len(self.dims)
        self.window = 11 if smoke else 21
        self.modes = list(range(-rmax, rmax + 1))
        rng = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(4 if smoke else 16):
            row = []
            for dim, pair_seed in zip(self.dims, _seeds(rng, len(self.dims))):
                with tr.span("linalg.random_pair"):
                    pair = random_pair(pair_seed, dim, 2.0)
                polys = [TrigPolynomial.monomial(r) for r in self.modes]
                polys += [random_trig_polynomial(rng, rmax) for _ in range(3)]
                row.append((pair, polys))
            self.inputs.append(row)

    def _input(self, r, k):
        return self.inputs[r % len(self.inputs)][k]

    def item(self, r, k, tr, out: Outcome) -> None:
        pair, polys = self._input(r, k)
        with tr.span("trace_formula.batch_verify"):
            reports = batch_verify(pair.u0, pair.u, pair.a, polys, tol=IDENTITY_TOL, s_rule=self.rule)
        with tr.span("spectral_shift.eta_profile"):
            profile = eta_profile(pair.u0, pair.a, self.grid, self.rule)
        for rep in reports:
            out.check(rep.passed, "trace_formula.failed_checks")
        bound = math.pi / 2.0 * hs_norm(pair.a) ** 2
        out.check(profile.l1_eta0 <= bound + L1_SLACK, "trace_formula.failed_checks")

    def probe(self, r, k, tr, counts: Counter) -> None:
        pair, _ = self._input(r, k)
        every_mode = TrigPolynomial({n: 1.0 for n in self.modes})
        _probe_pair(tr, counts, pair, self.rule, modes=self.modes, grid=self.grid, lhs_poly=every_mode)


class Resolvent:
    """Resolvent identity at dim 6 over a ladder of points inside and outside the circle."""

    RHOS = (0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95)

    def __init__(self, seed: int, smoke: bool, tr):
        rhos = self.RHOS[:2] if smoke else self.RHOS
        dim = 2 if smoke else 6
        self.rule = gauss_legendre(RESOLVENT_NODES)
        self.round_items = len(rhos)
        self.window = 11 if smoke else 7
        rng = np.random.default_rng(seed)
        self.inputs = []
        for r in range(self.window):
            row = []
            for k, (rho, pair_seed) in enumerate(zip(rhos, _seeds(rng, len(rhos)))):
                with tr.span("linalg.random_pair"):
                    pair = random_pair(pair_seed, dim, 1.0)
                # min(|z|, 1/|z|) = rho; inside and outside alternate along the ladder
                radius = rho if (r + k) % 2 == 0 else 1.0 / rho
                row.append((pair, radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))))
            self.inputs.append(row)

    def _input(self, r, k):
        return self.inputs[r % len(self.inputs)][k]

    def item(self, r, k, tr, out: Outcome) -> None:
        pair, z = self._input(r, k)
        with tr.span("trace_formula.resolvent_check"):
            rep = resolvent_check(pair.u0, pair.u, pair.a, z, tol=RESOLVENT_TOL, s_rule=self.rule)
        out.check(rep.passed, "trace_formula.failed_checks")
        out.counts["trace_formula.truncation_order"] += rep.truncation_order

    def probe(self, r, k, tr, counts: Counter) -> None:
        pair, z = self._input(r, k)
        order, _ = resolvent_truncation(z, hs_norm(pair.a), op_norm(pair.a), RESOLVENT_TOL)
        series = resolvent_coefficients(z, order)
        _probe_pair(tr, counts, pair, self.rule, modes=series.support, lhs_poly=series)


class Reduction:
    """Partitions of the ``bounds`` ladder and one convergence study per round."""

    def __init__(self, seed: int, smoke: bool, tr):
        ambient = 64 if smoke else 256
        self.partitions = (4, 16) if smoke else (16, 64, 256)
        self.ladder = (2, 4, 8, 16) if smoke else (8, 16, 32, 64)
        self.round_items = len(self.partitions) + 1
        self.window = 7
        self.t_grid = np.linspace(-cli.AUDIT_T_MAX, cli.AUDIT_T_MAX, 21)
        rng = np.random.default_rng(seed)
        self.instances = []
        for inst_seed in _seeds(rng, 2 if smoke else 4):
            with tr.span("reduction.instance"):
                self.instances.append(reduction_instance(inst_seed, ambient, rank=2, scale=0.5))

    def _input(self, r):
        return self.instances[r % len(self.instances)]

    def item(self, r, k, tr, out: Outcome) -> None:
        inst = self._input(r)
        if k == len(self.partitions):
            with tr.span("reduction.convergence_study"):
                study = convergence_study(
                    inst.h0, inst.a, inst.phase, TrigPolynomial.monomial(2), self.ladder
                )
            diffs = [row.abs_diff for row in study.rows]
            out.check(diffs[-1] <= CONVERGENCE_TOL and diffs[-1] <= diffs[0])
            return
        m_list, k_list, t_max = cli.AUDIT_M_LIST, cli.AUDIT_K_LIST, cli.AUDIT_T_MAX
        with tr.span("reduction.build_projection"):
            proj = build_direction_projection(inst.h0, inst.a, inst.half_width, self.partitions[k])
        with tr.span("reduction.audit_projection"):
            reports = [audit_projection_estimates(proj, inst.h0, inst.u0, m_list)]
        with tr.span("reduction.audit_perturbation"):
            reports.append(
                audit_perturbation_estimates(proj, inst.u0, inst.u, inst.a, t_max, m_list, self.t_grid)
            )
        with tr.span("reduction.audit_compressed"):
            reports.append(
                audit_compressed_model(
                    proj, inst.h0, inst.a, inst.u0, inst.u, inst.phase, t_max, m_list, k_list
                )
            )
        for rep in reports:
            out.check(rep.passed)
            out.counts["reduction.audit_checks"] += len(rep.checks)
            out.counts["reduction.audit_violations"] += len(rep.violations())
        out.counts["reduction.rank"] += proj.rank

    def probe(self, r, k, tr, counts: Counter) -> None:
        inst = self._input(r)
        with tr.span("linalg.validate"):
            require_hermitian(inst.h0)
        with tr.span("linalg.validate"):
            require_hermitian(inst.a)
        with tr.span("linalg.validate"):
            require_unitary(inst.u0)
        with tr.span("linalg.validate"):
            require_unitary(inst.u)
        with tr.span("linalg.herm_eig"):
            herm_eig(inst.h0, check=False)
        with tr.span("linalg.herm_eig"):
            herm_eig(inst.a, check=False)


class Export:
    """The ``eta`` command run twice per pair, then the DOI checks on the same pair."""

    def __init__(self, seed: int, smoke: bool, tr, workdir: str):
        dims = (4, 8, 4) if smoke else (32, 64, 32)
        self.grid = 200 if smoke else 20000
        # The full size runs the command with its default node count, as a user would.
        self.s_nodes = 8 if smoke else cli.RunConfig.s_nodes
        self.node_args = ["--s-nodes", str(self.s_nodes)] if smoke else []
        self.round_items = len(dims)
        self.window = 7 if smoke else 8
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(2 if smoke else 4):
            row = []
            for dim, cli_seed in zip(dims, _seeds(rng, len(dims))):
                with tr.span("linalg.random_pair"):
                    pair = random_pair(cli_seed, dim, 2.0)
                row.append((cli_seed, pair, random_trig_polynomial(rng, 6)))
            self.inputs.append(row)

    def _input(self, r, k):
        return self.inputs[r % len(self.inputs)][k]

    def item(self, r, k, tr, out: Outcome) -> None:
        cli_seed, pair, f = self._input(r, k)
        argv = ["eta", "--dim", str(pair.dim), "--seed", str(cli_seed), "--scale", "2.0",
                "--grid", str(self.grid)] + self.node_args
        outputs = []
        for run in ("first", "rerun"):
            csv_path = os.path.join(self.workdir, run, "eta.csv")
            with tr.span("cli.run"):
                code = cli.main(argv + ["--out", csv_path])
            out.check(code == 0)
            files = []
            for path in (csv_path, os.path.splitext(csv_path)[0] + ".json"):
                with open(path, "rb") as fh:
                    files.append(fh.read())
            outputs.append(files)
        out.check(outputs[0] == outputs[1])
        out.counts["cli.bytes_written"] += sum(len(data) for files in outputs for data in files)

        with tr.span("doi.schur_bound_check"):
            bound = schur_bound_check(f, pair.u, pair.u0)
        out.check(bound.passed, "doi.failed_checks")
        g = primitive_of(f)
        with tr.span("doi.doi_apply"):
            got = doi_apply(g, pair.u, pair.u0, pair.u - pair.u0)
        g_u = circle_function_of(g, unitary_eig(pair.u))
        exact = g_u - circle_function_of(g, unitary_eig(pair.u0))
        gap = hs_norm(got - exact) / (1.0 + hs_norm(g_u))
        out.check(gap <= DOI_EXACTNESS_TOL, "doi.failed_checks")

    def probe(self, r, k, tr, counts: Counter) -> None:
        cli_seed, pair, _ = self._input(r, k)
        with tr.span("linalg.random_pair"):
            random_pair(cli_seed, pair.dim, 2.0)
        _probe_pair(tr, counts, pair, gauss_legendre(self.s_nodes), grid=self.grid)


WORKLOADS = {"identity": Identity, "resolvent": Resolvent, "reduction": Reduction, "export": Export}


def make(name: str, seed: int, smoke: bool, tr, workdir: str):
    if name == "export":
        return Export(seed, smoke, tr, workdir)
    return WORKLOADS[name](seed, smoke, tr)


def cli_write_seconds(spans: list[dict]) -> float:
    """Per item: its ``cli.run`` time minus, per run, the item's probed library spans."""
    runs: Counter = Counter()
    run_time: Counter = Counter()
    library: Counter = Counter()
    for rec in spans:
        duration = rec["end"] - rec["start"]
        if rec["name"] == "cli.run":
            runs[rec["item"]] += 1
            run_time[rec["item"]] += duration
        elif rec["name"] in CLI_LIBRARY_SPANS and rec["item"] is not None:
            library[rec["item"]] += duration
    return float(sum(run_time[i] - runs[i] * library[i] for i in runs))
