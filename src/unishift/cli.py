"""Command-line front end: seeded instances, batch verification, exports.

Each subcommand is one row of ``COMMANDS``: its runner, its default output
file, its flags beyond the shared ``--seed/--scale/--out/--config``, its
default ``tol`` and its help line.  The parser, the keys a ``--config`` file
may set, the tolerance a ``RunConfig`` falls back on and the output path all
derive from that row, so ``run(RunConfig(command=...))`` and the command line
agree at equal settings.  ``_FLAGS`` gives each non-int flag its parser type
and the types its ``RunConfig`` field may hold.  ``RunConfig.validate`` is
the one type-and-range check, for flags, config files and the Python API
alike; ``config_from_args`` only reads the file and converts JSON lists and
strings to the tuple ``ranks`` and the complex ``z``.

Every JSON record is a library report written by ``_record``: its dataclass
fields, with a complex field ``x`` as ``x_re`` and ``x_im``, a tuple of
reports as a list of records and ``passed`` as ``pass``; ``_write_json``
encodes it in memory and writes it in one call.  Every CSV table goes
through ``_write_csv``, which formats each distinct value of a column once
per block of rows.  Identical configurations (including the seed) produce
byte-identical files: floats are serialised with 17 significant digits
(``%.17g``, the text of ``{:.17g}``), JSON keys are sorted, and nothing
time- or host-dependent is written.
Exit status is 0 only if every assertion in the requested run passed, 1 on a
failed assertion, and 2 for an invalid configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .errors import UnishiftError
from .linalg import _BLOCK, hs_norm, random_pair
from .quadrature import DEFAULT_S_NODES, gauss_legendre
from .reduction import (
    _instance,
    _window_basis,
    audit_compressed_model,
    audit_perturbation_estimates,
    audit_projection_estimates,
    convergence_study,
    reduction_instance,
)
from .spectral_shift import eta_profile
from .trace_formula import batch_verify, resolvent_check
from .trigpoly import TrigPolynomial, random_trig_polynomial

ENV_OUTDIR = "UNISHIFT_OUTDIR"

AUDIT_M_LIST = (1, -1, 2, -2, 4, -4)
AUDIT_K_LIST = (1, 2, 4)
AUDIT_T_MAX = 2.0

# Largest sizes a run may ask for, refused before anything is allocated: a
# Haar draw and the integrator's stacks grow as dim^2, a reduction instance
# holds four ambient^2 matrices, and an eta export three grid-long columns.
_MAX_SIZES = {"dim": 1024, "ambient": 4096, "grid": 10**6}


class ConfigError(UnishiftError):
    """An invalid run configuration."""


@dataclasses.dataclass
class RunConfig:
    command: str
    dim: int = 6
    seed: int = 0
    trials: int = 10
    scale: float = 1.0
    rmax: int = 4
    s_nodes: int = DEFAULT_S_NODES
    grid: int = 512
    tol: float | None = None  # None: the command's default in COMMANDS
    ambient: int = 256
    ranks: tuple[int, ...] = (8, 16, 32, 64)
    z: complex = 0.5 + 0j
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.tol is None and isinstance(self.command, str) and self.command in COMMANDS:
            self.tol = COMMANDS[self.command].tol

    def validate(self) -> None:
        """Each field's type (``_FLAGS``; never a bool), then its range (``ConfigError``)."""
        if not isinstance(self.command, str) or self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        for field in dataclasses.fields(self)[1:]:
            value = getattr(self, field.name)
            if field.name == "tol" and value is None and COMMANDS[self.command].tol is None:
                continue  # a command without --tol has no tolerance
            if isinstance(value, bool) or not isinstance(value, _FLAGS.get(field.name, _Flag()).json_types):
                raise ConfigError(f"configuration value {field.name}={value!r} has the wrong type")
        if self.dim < 1 or self.trials < 1 or self.s_nodes < 1:
            raise ConfigError("dim, trials and s_nodes must be positive")
        if self.grid < 2:
            raise ConfigError("grid needs at least the two endpoints")
        if self.tol is not None and not 0.0 < self.tol < 1.0:
            raise ConfigError("tol must lie in (0, 1)")
        if not 0.0 < self.scale < math.pi:
            raise ConfigError("scale must lie in (0, pi)")
        if self.seed < 0 or self.rmax < 0:
            raise ConfigError("seed and rmax must be non-negative")
        if self.ambient < 4:
            raise ConfigError("ambient dimension too small")
        for name, cap in _MAX_SIZES.items():
            if getattr(self, name) > cap:
                raise ConfigError(f"{name} must be at most {cap}, not {getattr(self, name)}")
        if not self.ranks or not all(type(n) is int and n >= 1 for n in self.ranks):
            raise ConfigError("ranks must be positive integers")
        if self.format not in _FLAGS["format"].choices:
            raise ConfigError(f"unknown format {self.format!r}")

    def out_path(self) -> str:
        """``out``, else the command's default file in ``$UNISHIFT_OUTDIR``, named ``.json`` for JSON."""
        if self.out:
            return self.out
        name = COMMANDS[self.command].output
        if self.format == "json":
            name = os.path.splitext(name)[0] + ".json"
        return os.path.join(os.environ.get(ENV_OUTDIR, "."), name)


def _record(report, **extra) -> dict:
    """A report dataclass as a JSON record, with the CLI-only keys in ``extra``."""
    out = dict(extra)
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if isinstance(value, complex):
            out[field.name + "_re"], out[field.name + "_im"] = value.real, value.imag
        elif isinstance(value, tuple):
            out[field.name] = [_record(item) for item in value]
        elif field.name != "passed":
            out[field.name] = value
    if hasattr(report, "passed"):  # a field or a property
        out["pass"] = report.passed
    return out


def _write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, columns: dict) -> None:
    """A header of the column names, then one row per index of the equal-length columns.

    Each cell is ``"%.17g"`` of its value, as ``"{:.17g}"`` gives it, for
    float64 or int64 columns.  Rows go out in blocks of ``_BLOCK`` cells; in
    a block each column formats its distinct values (keyed on their bits, so
    ``-0.0`` stays apart from ``0.0``) in one ``%`` and indexes the text
    back, and the block is written with one more ``%``.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    values = [np.asarray(column) for column in columns.values()]
    rows = max(1, _BLOCK // len(values))
    row = ",".join(["%s"] * len(values)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(values[0]), rows):
            blocks = [column[start:start + rows] for column in values]
            cells = np.empty((len(blocks[0]), len(blocks)), dtype=object)
            for j, block in enumerate(blocks):
                bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
                text = ("%.17g\n" * bits.size % tuple(bits.view(block.dtype).tolist())).split("\n")
                cells[:, j] = np.array(text[:-1], dtype=object)[inverse]
            fh.write(row * len(cells) % tuple(cells.ravel().tolist()))


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
    return [_record(rep, label=label, trial=trial) for rep, label in zip(reports, labels)]


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
    columns = {"t": profile.grid, "eta": profile.eta, "eta0": profile.eta0}
    if config.format == "csv":
        _write_csv(path, columns)
    else:
        _write_json(path, {name: column.tolist() for name, column in columns.items()})
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
    study = convergence_study(
        inst.h0, inst.a, inst.phase, TrigPolynomial.monomial(2), list(config.ranks)
    )
    records = [_record(row) for row in study.rows]
    if config.format == "csv":
        names = ("rank", "compressed_trace_re", "compressed_trace_im", "abs_diff")
        _write_csv(config.out_path(), {name: [rec[name] for rec in records] for name in names})
    else:
        _write_json(config.out_path(), records)
    diffs = [row.abs_diff for row in study.rows]
    return 0 if diffs[-1] <= config.tol and diffs[-1] <= diffs[0] else 1


def cmd_resolvent(config: RunConfig) -> int:
    pair = random_pair(config.seed, config.dim, config.scale)
    report = resolvent_check(
        pair.u0, pair.u, pair.a, config.z, tol=config.tol, s_rule=gauss_legendre(config.s_nodes)
    )
    _write_json(config.out_path(), _record(report, label=f"z={report.z}"))
    return 0 if report.passed else 1


def cmd_bounds(config: RunConfig) -> int:
    inst = reduction_instance(config.seed, config.ambient, rank=2, scale=config.scale)
    t_grid = np.linspace(-AUDIT_T_MAX, AUDIT_T_MAX, 21)
    h0, dec, _, f, _ = _instance(inst.h0, inst.a)
    partitions = []
    for cells in config.ranks:
        proj = _window_basis(dec, f, inst.half_width, cells, h0)
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
        partitions.append({"cells": cells, "rank": proj.rank, "pass": all(r.passed for r in reports),
                           "audits": [_record(r) for r in reports]})
    payload = {"ambient": config.ambient, "seed": config.seed, "scale": config.scale,
               "pass": all(p["pass"] for p in partitions), "partitions": partitions}
    _write_json(config.out_path(), payload)
    return 0 if payload["pass"] else 1


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


class _Flag(NamedTuple):
    type: Callable = int
    json_types: tuple = (int,)  # the types its RunConfig field may hold (never bool)
    help: str | None = None
    choices: tuple | None = None


# Flags not listed here take an int and have no help line.
_FLAGS = {
    "scale": _Flag(float, (int, float), "operator norm of A"),
    "out": _Flag(str, (str, type(None))),
    "config": _Flag(str, (), "JSON config file; flags win"),
    "tol": _Flag(float, (int, float)),
    "z": _Flag(parse_complex, (int, float, complex)),
    "ranks": _Flag(parse_ranks, (tuple,), "comma-separated cell counts"),
    "format": _Flag(str, (str,), choices=("csv", "json")),
}

_SHARED_FLAGS = ("seed", "scale", "out", "config")


class _Command(NamedTuple):
    run: Callable[[RunConfig], int]
    output: str
    flags: tuple[str, ...]  # beyond _SHARED_FLAGS, in help order
    help: str
    tol: float | None = None  # the default for commands with --tol


COMMANDS = {
    "verify": _Command(cmd_verify, "verify.json", ("dim", "trials", "rmax", "s_nodes", "tol"),
                       "batch-check the trace identity on random pairs", tol=1e-8),
    "eta": _Command(cmd_eta, "eta.csv", ("dim", "s_nodes", "grid", "format"),
                    "export the shift profile on a uniform grid"),
    "converge": _Command(cmd_converge, "converge.csv", ("ambient", "ranks", "tol", "format"),
                         "compressed-trace convergence table", tol=1e-3),
    "resolvent": _Command(cmd_resolvent, "resolvent.json", ("dim", "s_nodes", "z", "tol"),
                          "verify the resolvent identity at a point z", tol=1e-7),
    "bounds": _Command(cmd_bounds, "bounds.json", ("ambient", "ranks"), "audit the reduction estimates"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unishift",
        description="Spectral shift profiles and trace-identity checks for unitary pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for flag in _SHARED_FLAGS + command.flags:
            spec = _FLAGS.get(flag, _Flag())
            sp.add_argument("--" + flag.replace("_", "-"), type=spec.type, choices=spec.choices, help=spec.help)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Flags over an optional JSON config file, which may set only this subcommand's flags."""
    keys = [name for name in vars(args) if name not in ("config", "command")]
    settings: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded).difference(keys)
        if unknown:
            raise ConfigError(f"unknown configuration keys for {args.command}: {sorted(unknown)}")
        settings.update(loaded)
    settings.update((name, getattr(args, name)) for name in keys if getattr(args, name) is not None)
    if isinstance(settings.get("ranks"), list):
        settings["ranks"] = tuple(settings["ranks"])
    if isinstance(settings.get("z"), str):
        try:
            settings["z"] = parse_complex(settings["z"])
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"bad configuration value: {exc}") from exc
    return RunConfig(command=args.command, **settings)


def run(config: RunConfig) -> int:
    config.validate()
    return COMMANDS[config.command].run(config)


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
