"""Command-line front end: seeded instances, batch verification, exports.

Subcommands
-----------
verify     run seeded random pairs through the trace-identity checker for all
           monomials |r| <= rmax plus three random polynomials; JSON report.
eta        export the shift profile as CSV ``t,eta,eta0`` with a JSON sidecar
           recording the centred L1 mass and its bound.
converge   tabulate compressed-versus-full trace errors as CSV
           ``rank,compressed_trace_re,compressed_trace_im,abs_diff``.
resolvent  verify the resolvent identity at one point z; JSON report.
bounds     run the three reduction audits over a ladder of partitions; JSON.

Identical configurations (including the seed) produce byte-identical files:
floats are serialised with 17 significant digits, JSON keys are sorted, and
nothing time- or host-dependent is written.  Exit status is 0 only if every
assertion in the requested run passed, 1 on a failed assertion, and 2 for an
invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import UnishiftError
from .linalg import hs_norm, random_pair
from .quadrature import gauss_legendre
from .reduction import (
    audit_compressed_model,
    audit_perturbation_estimates,
    audit_projection_estimates,
    build_direction_projection,
    convergence_study,
    reduction_instance,
)
from .spectral_shift import eta_profile
from .trace_formula import batch_verify, resolvent_check
from .trigpoly import TrigPolynomial, random_trig_polynomial

ENV_OUTDIR = "UNISHIFT_OUTDIR"

DEFAULT_OUTPUTS = {
    "verify": "verify.json",
    "eta": "eta.csv",
    "converge": "converge.csv",
    "resolvent": "resolvent.json",
    "bounds": "bounds.json",
}

AUDIT_M_LIST = (1, -1, 2, -2, 4, -4)
AUDIT_K_LIST = (1, 2, 4)
AUDIT_T_MAX = 2.0


class ConfigError(UnishiftError):
    """An invalid run configuration."""


@dataclass
class RunConfig:
    command: str
    dim: int = 6
    seed: int = 0
    trials: int = 10
    scale: float = 1.0
    rmax: int = 4
    s_nodes: int = 64
    grid: int = 512
    tol: float = 1e-8
    ambient: int = 256
    ranks: tuple[int, ...] = (8, 16, 32, 64)
    z: complex = 0.5 + 0j
    out: str | None = None
    format: str = "csv"

    def validate(self) -> None:
        if self.command not in DEFAULT_OUTPUTS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.dim < 1 or self.trials < 1 or self.s_nodes < 1:
            raise ConfigError("dim, trials and s_nodes must be positive")
        if self.grid < 2:
            raise ConfigError("grid needs at least the two endpoints")
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("tol must lie in (0, 1)")
        if not 0.0 < self.scale < math.pi:
            raise ConfigError("scale must lie in (0, pi)")
        if self.rmax < 0:
            raise ConfigError("rmax must be non-negative")
        if self.ambient < 4:
            raise ConfigError("ambient dimension too small")
        if not self.ranks or any(n < 1 for n in self.ranks):
            raise ConfigError("ranks must be positive integers")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")

    def out_path(self) -> str:
        if self.out:
            return self.out
        base = os.environ.get(ENV_OUTDIR, ".")
        return os.path.join(base, DEFAULT_OUTPUTS[self.command])


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _complex_fields(prefix: str, value: complex) -> dict:
    return {f"{prefix}_re": value.real, f"{prefix}_im": value.imag}


def _report_dict(report, label: str, trial: int | None = None) -> dict:
    out = {
        "label": label,
        **_complex_fields("lhs", report.lhs),
        **_complex_fields("rhs", report.rhs),
        "abs_err": report.abs_err,
        "rel_err": report.rel_err,
        "s_nodes_used": report.s_nodes_used,
        "tolerance": report.tolerance,
        "pass": report.passed,
    }
    if trial is not None:
        out["trial"] = trial
    return out


def _write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows(path: str, header: str, rows: Iterable[str]) -> None:
    """Write a header line, then ``rows``, each already ending in a newline."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(rows)


def _trial_polynomials(config: RunConfig, trial: int) -> tuple[list[TrigPolynomial], list[str]]:
    polys = [TrigPolynomial.monomial(r) for r in range(-config.rmax, config.rmax + 1)]
    labels = [f"r={r}" for r in range(-config.rmax, config.rmax + 1)]
    rng = np.random.default_rng((config.seed, trial, 0xA5))
    for j in range(3):
        polys.append(random_trig_polynomial(rng, max(config.rmax, 1)))
        labels.append(f"poly{j}")
    return polys, labels


def _run_verify_trial(config: RunConfig, trial: int) -> list[dict]:
    pair = random_pair(config.seed + trial, config.dim, config.scale)
    polys, labels = _trial_polynomials(config, trial)
    reports = batch_verify(
        pair.u0, pair.u, pair.a, polys, tol=config.tol, s_rule=gauss_legendre(config.s_nodes)
    )
    return [_report_dict(rep, label, trial) for rep, label in zip(reports, labels)]


def cmd_verify(config: RunConfig) -> int:
    records = [rec for t in range(config.trials) for rec in _run_verify_trial(config, t)]
    _write_json(config.out_path(), records)
    return 0 if all(rec["pass"] for rec in records) else 1


def cmd_eta(config: RunConfig) -> int:
    pair = random_pair(config.seed, config.dim, config.scale)
    profile = eta_profile(pair.u0, pair.a, config.grid, gauss_legendre(config.s_nodes))
    bound = math.pi / 2.0 * hs_norm(pair.a) ** 2
    ok = profile.l1_eta0 <= bound + 1e-8
    path = config.out_path()
    if config.format == "csv":
        columns = (profile.grid.tolist(), profile.eta.tolist(), profile.eta0.tolist())
        _write_rows(path, "t,eta,eta0", map("{:.17g},{:.17g},{:.17g}\n".format, *columns))
    else:
        _write_json(
            path,
            {
                "t": [float(v) for v in profile.grid],
                "eta": [float(v) for v in profile.eta],
                "eta0": [float(v) for v in profile.eta0],
            },
        )
    sidecar = {
        "dim": config.dim,
        "seed": config.seed,
        "scale": config.scale,
        "s_nodes": config.s_nodes,
        "grid": config.grid,
        "l1_eta0": profile.l1_eta0,
        "l1_bound": bound,
        "pass": ok,
    }
    base, ext = os.path.splitext(path)
    _write_json(base + (".json" if ext != ".json" else ".meta.json"), sidecar)
    return 0 if ok else 1


def cmd_converge(config: RunConfig) -> int:
    inst = reduction_instance(config.seed, config.ambient, rank=2, scale=config.scale)
    threshold = config.tol
    study = convergence_study(
        inst.h0, inst.a, inst.phase, TrigPolynomial.monomial(2), list(config.ranks)
    )
    rows = [
        f"{row.rank},{_fmt(row.compressed_trace.real)},{_fmt(row.compressed_trace.imag)},{_fmt(row.abs_diff)}\n"
        for row in study.rows
    ]
    path = config.out_path()
    if config.format == "csv":
        _write_rows(path, "rank,compressed_trace_re,compressed_trace_im,abs_diff", rows)
    else:
        _write_json(
            path,
            [
                {
                    "rank": row.rank,
                    "cells": row.cells,
                    **_complex_fields("compressed_trace", row.compressed_trace),
                    "abs_diff": row.abs_diff,
                }
                for row in study.rows
            ],
        )
    diffs = [row.abs_diff for row in study.rows]
    return 0 if diffs[-1] <= threshold and diffs[-1] <= diffs[0] else 1


def cmd_resolvent(config: RunConfig) -> int:
    pair = random_pair(config.seed, config.dim, config.scale)
    report = resolvent_check(
        pair.u0, pair.u, pair.a, config.z, tol=config.tol, s_rule=gauss_legendre(config.s_nodes)
    )
    payload = _report_dict(report, label=f"z={report.z}")
    payload.update(
        {
            **_complex_fields("z", report.z),
            **_complex_fields("direct_lhs", report.direct_lhs),
            "series_vs_direct": report.series_vs_direct,
            "truncation_order": report.truncation_order,
            "tail_bound": report.tail_bound,
        }
    )
    _write_json(config.out_path(), payload)
    return 0 if report.passed else 1


def _audit_dict(report) -> dict:
    return {
        "label": report.label,
        "eps": report.eps,
        "pass": report.passed,
        "checks": [
            {"name": c.name, "value": c.value, "bound": c.bound, "ok": c.ok}
            for c in report.checks
        ],
    }


def cmd_bounds(config: RunConfig) -> int:
    inst = reduction_instance(config.seed, config.ambient, rank=2, scale=config.scale)
    t_grid = np.linspace(-AUDIT_T_MAX, AUDIT_T_MAX, 21)
    audits = []
    for cells in config.ranks:
        proj = build_direction_projection(inst.h0, inst.a, inst.half_width, int(cells))
        reports = [
            audit_projection_estimates(proj, inst.h0, inst.u0, AUDIT_M_LIST),
            audit_perturbation_estimates(
                proj, inst.u0, inst.u, inst.a, AUDIT_T_MAX, AUDIT_M_LIST, t_grid
            ),
            audit_compressed_model(
                proj, inst.h0, inst.a, inst.u0, inst.u, inst.phase,
                AUDIT_T_MAX, AUDIT_M_LIST, AUDIT_K_LIST,
            ),
        ]
        audits.append(
            {
                "cells": int(cells),
                "rank": proj.rank,
                "pass": all(r.passed for r in reports),
                "audits": [_audit_dict(r) for r in reports],
            }
        )
    payload = {"ambient": config.ambient, "seed": config.seed, "scale": config.scale,
               "pass": all(a["pass"] for a in audits), "partitions": audits}
    _write_json(config.out_path(), payload)
    return 0 if payload["pass"] else 1


COMMANDS = {
    "verify": cmd_verify,
    "eta": cmd_eta,
    "converge": cmd_converge,
    "resolvent": cmd_resolvent,
    "bounds": cmd_bounds,
}


def parse_complex(text: str) -> complex:
    try:
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


def parse_ranks(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse rank list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unishift",
        description="Spectral shift profiles and trace-identity checks for unitary pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--scale", type=float, default=None, help="operator norm of A")
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--config", type=str, default=None, help="JSON config file; flags win")

    sp = sub.add_parser("verify", help="batch-check the trace identity on random pairs")
    add_common(sp)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--rmax", type=int, default=None)
    sp.add_argument("--s-nodes", type=int, default=None, dest="s_nodes")
    sp.add_argument("--tol", type=float, default=None)

    sp = sub.add_parser("eta", help="export the shift profile on a uniform grid")
    add_common(sp)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--s-nodes", type=int, default=None, dest="s_nodes")
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--format", choices=("csv", "json"), default=None)

    sp = sub.add_parser("converge", help="compressed-trace convergence table")
    add_common(sp)
    sp.add_argument("--ambient", type=int, default=None)
    sp.add_argument("--ranks", type=parse_ranks, default=None, help="comma-separated cell counts")
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--format", choices=("csv", "json"), default=None)

    sp = sub.add_parser("resolvent", help="verify the resolvent identity at a point z")
    add_common(sp)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--s-nodes", type=int, default=None, dest="s_nodes")
    sp.add_argument("--z", type=parse_complex, default=None)
    sp.add_argument("--tol", type=float, default=None)

    sp = sub.add_parser("bounds", help="audit the reduction estimates")
    add_common(sp)
    sp.add_argument("--ambient", type=int, default=None)
    sp.add_argument("--ranks", type=parse_ranks, default=None, help="comma-separated cell counts")
    return parser


_COMMAND_DEFAULT_TOL = {"converge": 1e-3, "resolvent": 1e-7}

# Accepted value types per configuration key (never bool); every other key takes an int.
_VALUE_TYPES = {
    "scale": (int, float),
    "tol": (int, float),
    "z": (int, float, complex),
    "ranks": (tuple,),
    "out": (str, type(None)),
    "format": (str,),
}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Flags over an optional JSON config file, which may set only this subcommand's flags."""
    settings: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - (set(vars(args)) - {"config", "command"})
        if unknown:
            raise ConfigError(f"unknown configuration keys for {args.command}: {sorted(unknown)}")
        settings.update(loaded)
    for name in vars(args):
        if name in ("config", "command"):
            continue
        value = getattr(args, name)
        if value is not None:
            settings[name] = value
    try:
        if "ranks" in settings and not isinstance(settings["ranks"], tuple):
            settings["ranks"] = tuple(int(n) for n in settings["ranks"])
        if "z" in settings and isinstance(settings["z"], str):
            settings["z"] = parse_complex(settings["z"])
    except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"bad configuration value: {exc}") from exc
    settings.setdefault("tol", _COMMAND_DEFAULT_TOL.get(args.command, 1e-8))
    for name, value in settings.items():
        if isinstance(value, bool) or not isinstance(value, _VALUE_TYPES.get(name, (int,))):
            raise ConfigError(f"configuration value {name}={value!r} has the wrong type")
    config = RunConfig(command=args.command, **settings)
    config.validate()
    return config


def run(config: RunConfig) -> int:
    config.validate()
    return COMMANDS[config.command](config)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        return run(config)
    except UnishiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
