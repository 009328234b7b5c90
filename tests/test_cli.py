import json
import subprocess
import sys

import numpy as np
import pytest

from unishift import UnishiftError, cli, eta_profile, random_pair, reduction_instance
from unishift.cli import (
    _MAX_SIZES,
    ConfigError,
    RunConfig,
    _distinct,
    _json_columns,
    _write_csv,
    _write_json,
    build_parser,
    config_from_args,
    main,
    parse_complex,
    parse_ranks,
    run,
)
from unishift.linalg import _BLOCK


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestConfig:
    def test_defaults_and_validation(self):
        cfg = RunConfig(command="verify")
        cfg.validate()
        with pytest.raises(ConfigError):
            RunConfig(command="nope").validate()
        with pytest.raises(ConfigError):
            RunConfig(command=["verify"]).validate()
        with pytest.raises(ConfigError):
            RunConfig(command="verify", scale=4.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(command="verify", tol=2.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(command="eta", grid=1).validate()

    def test_parse_complex(self):
        assert parse_complex("0.5") == 0.5
        assert parse_complex("-0.3+0.4i") == -0.3 + 0.4j
        assert parse_complex("-0.3+0.4j") == -0.3 + 0.4j

    def test_parse_ranks(self):
        assert parse_ranks("8,16,32") == (8, 16, 32)

    def test_config_file_flags_win(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"dim": 9, "trials": 4, "scale": 0.7}))
        parser = build_parser()
        args = parser.parse_args(["verify", "--config", str(cfg_file), "--dim", "3"])
        cfg = config_from_args(args)
        assert cfg.dim == 3  # flag beats the file
        assert cfg.trials == 4  # file beats the default
        assert cfg.scale == 0.7

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"frobnicate": 1}))
        parser = build_parser()
        args = parser.parse_args(["verify", "--config", str(cfg_file)])
        with pytest.raises(ConfigError):
            config_from_args(args)

    @pytest.mark.parametrize("settings", [{"z": [1, 2]}, {"dim": "3"}, {"ranks": 8}, {"command": "eta"}])
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, settings):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(settings))
        out = tmp_path / "r.json"
        assert main(["resolvent", "--config", str(cfg_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", [None, "{not json", "[1, 2]", '{"z": "abc"}'],
                             ids=["missing", "invalid-json", "json-list", "bad-z"])
    def test_unusable_config_file_exits_2(self, tmp_path, capsys, text):
        cfg_file = tmp_path / "run.json"
        if text is not None:
            cfg_file.write_text(text)
        out = tmp_path / "r.json"
        assert main(["resolvent", "--config", str(cfg_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_non_integer_config_ranks_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"ranks": [16.7, 64.2]}))
        out = tmp_path / "b.json"
        assert main(["bounds", "--ambient", "64", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: ranks must be positive integers\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["bounds", "--format", "csv"], ["bounds", "--tol", "0.5"],
                                       ["eta", "--tol", "0.9"], ["verify", "--format", "csv"],
                                       ["resolvent", "--format", "json"]])
    def test_flags_only_where_they_act(self, tmp_path, capsys, flags):
        out = tmp_path / "out.file"
        with pytest.raises(SystemExit) as exc:
            main(flags + ["--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, settings", [
        ("verify", {"grid": 7, "z": 0.3, "ranks": [2]}), ("verify", {"format": "csv"}),
        ("eta", {"tol": 0.9}), ("bounds", {"tol": 0.5}), ("bounds", {"dim": 3}),
    ])
    def test_config_keys_are_the_subcommand_flags(self, tmp_path, capsys, command, settings):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(settings))
        out = tmp_path / "out.file"
        assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown configuration keys") and err.count("\n") == 1
        assert not out.exists()

    def test_outdir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UNISHIFT_OUTDIR", str(tmp_path))
        cfg = RunConfig(command="verify")
        assert cfg.out_path() == str(tmp_path / "verify.json")

    @pytest.mark.parametrize("argv, written", [
        (["eta", "--dim", "2", "--grid", "8"], {"eta.csv", "eta.json"}),
        (["eta", "--dim", "2", "--grid", "8", "--format", "json"], {"eta.json", "eta.meta.json"}),
        (["converge", "--ambient", "64", "--ranks", "4,8,16", "--seed", "6", "--scale", "0.4"], {"converge.csv"}),
        (["converge", "--ambient", "64", "--ranks", "4,8,16", "--seed", "6", "--scale", "0.4", "--format", "json"],
         {"converge.json"}),
    ])
    def test_default_output_name_follows_format(self, tmp_path, monkeypatch, argv, written):
        monkeypatch.setenv("UNISHIFT_OUTDIR", str(tmp_path))
        assert main(argv) == 0
        assert {p.name for p in tmp_path.iterdir()} == written
        if "json" in argv:
            read_json(tmp_path / (argv[0] + ".json"))


class TestCommandTable:
    @pytest.mark.parametrize("command, settings", [
        ("verify", {"dim": 2, "trials": 1, "rmax": 2, "s_nodes": 16}),
        ("eta", {"dim": 3, "grid": 16, "format": "json"}),
        ("converge", {"ambient": 64, "ranks": (4, 8, 16), "seed": 6, "scale": 0.4}),
        ("resolvent", {"dim": 3, "seed": 2, "z": 0.5 + 0.25j}),
        ("bounds", {"ambient": 64, "ranks": (4, 16), "seed": 8, "scale": 0.5}),
    ])
    def test_api_and_command_line_agree(self, tmp_path, command, settings):
        """At equal settings and the default tol, run() and main() write the same bytes and exit alike."""
        api, cli = tmp_path / "api" / "out.file", tmp_path / "cli" / "out.file"
        argv = [command, "--out", str(cli)]
        for name, value in settings.items():
            text = ",".join(map(str, value)) if name == "ranks" else str(value)
            argv.append(f"--{name.replace('_', '-')}={text}")
        assert run(RunConfig(command=command, out=str(api), **settings)) == main(argv)
        written = sorted(path.name for path in api.parent.iterdir())
        assert written == sorted(path.name for path in cli.parent.iterdir())
        for name in written:
            assert (api.parent / name).read_bytes() == (cli.parent / name).read_bytes()

    def test_flag_dests_per_command(self):
        shared = {"command", "seed", "scale", "out", "config"}
        parser = build_parser()
        dests = {c: set(vars(parser.parse_args([c]))) - shared
                 for c in ("verify", "eta", "converge", "resolvent", "bounds")}
        assert dests == {
            "verify": {"dim", "trials", "rmax", "s_nodes", "tol"},
            "eta": {"dim", "s_nodes", "grid", "format"},
            "converge": {"ambient", "ranks", "tol", "format"},
            "resolvent": {"dim", "s_nodes", "z", "tol"},
            "bounds": {"ambient", "ranks"},
        }

    def test_default_tol_per_command(self):
        assert [RunConfig(command=c).tol for c in ("verify", "converge", "resolvent")] == [1e-8, 1e-3, 1e-7]
        assert config_from_args(build_parser().parse_args(["converge"])).tol == 1e-3

    def test_validate_runs_once_per_main(self, tmp_path, monkeypatch):
        calls = []
        original = RunConfig.validate
        monkeypatch.setattr(RunConfig, "validate", lambda self: calls.append(1) or original(self))
        assert main(["eta", "--dim", "2", "--grid", "8", "--out", str(tmp_path / "eta.csv")]) == 0
        assert len(calls) == 1


class TestVerifyCommand:
    def test_near_zero_perturbation_passes(self, tmp_path):
        out = tmp_path / "v.json"
        code = main(
            ["verify", "--dim", "1", "--scale", "1e-9", "--trials", "1", "--seed", "0",
             "--out", str(out)]
        )
        assert code == 0
        records = read_json(out)
        assert all(r["pass"] for r in records)
        assert max(abs(complex(r["lhs_re"], r["lhs_im"])) for r in records) <= 1e-9

    def test_batch_report_schema(self, tmp_path):  # the VerificationReport fields
        out = tmp_path / "v.json"
        code = main(
            ["verify", "--dim", "4", "--trials", "2", "--rmax", "3", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        records = read_json(out)
        # 2 trials x (7 monomials + 3 random polynomials)
        assert len(records) == 20
        keys = {
            "label", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_err", "rel_err",
            "s_nodes_used", "tolerance", "pass", "trial",
        }
        assert set(records[0]) == keys

    def test_byte_identical_reruns(self, tmp_path):
        args = ["verify", "--dim", "3", "--trials", "2", "--rmax", "3", "--seed", "9"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestEtaCommand:
    def test_csv_schema_and_sidecar(self, tmp_path):
        out = tmp_path / "eta.csv"
        code = main(["eta", "--dim", "4", "--seed", "7", "--grid", "64", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,eta,eta0"
        assert len(lines) == 65
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(lines[-1].split(",")[0]) == pytest.approx(2 * np.pi, rel=1e-15)
        sidecar = read_json(tmp_path / "eta.json")
        assert sidecar["pass"] is True
        assert sidecar["l1_eta0"] <= sidecar["l1_bound"] + 1e-8

    def test_scalar_tent_matches_closed_form(self, tmp_path):
        # need a positive direction entry and a ramp that stays inside [0, 2pi]
        from unishift import random_pair

        def is_tent(s):
            pair = random_pair(s, 1, 1.0)
            beta = np.angle(pair.u0[0, 0]) % (2 * np.pi)
            return pair.a[0, 0].real > 0 and beta + 1.0 < 2 * np.pi - 0.05

        seed = next(s for s in range(50) if is_tent(s))
        pair = random_pair(seed, 1, 1.0)
        alpha = pair.a[0, 0].real
        beta = float(np.angle(pair.u0[0, 0]) % (2 * np.pi))
        out = tmp_path / "eta.csv"
        code = main(
            ["eta", "--dim", "1", "--seed", str(seed), "--scale", "1.0",
             "--grid", "257", "--s-nodes", "1024", "--out", str(out)]
        )
        assert code == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        grid, eta = rows[:, 0], rows[:, 1]
        tent = np.maximum(0.0, alpha - (grid - beta))
        tent[grid < beta] = 0.0
        assert np.max(np.abs(eta - tent)) <= 2 * alpha / 1024

    def test_byte_identical_reruns(self, tmp_path):
        args = ["eta", "--dim", "8", "--seed", "3", "--grid", "2000"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_csv_rows_are_profile_values(self, tmp_path):
        from unishift import random_pair
        from unishift.quadrature import gauss_legendre
        from unishift.spectral_shift import eta_profile

        cfg = RunConfig(command="eta", dim=8, seed=4, grid=2000)
        out = tmp_path / "eta.csv"
        assert main(["eta", "--dim", "8", "--seed", "4", "--grid", "2000", "--out", str(out)]) == 0
        pair = random_pair(cfg.seed, cfg.dim, cfg.scale)
        profile = eta_profile(pair.u0, pair.a, cfg.grid, gauss_legendre(cfg.s_nodes))
        expected = [
            f"{t:.17g},{e:.17g},{e0:.17g}" for t, e, e0 in zip(profile.grid, profile.eta, profile.eta0)
        ]
        assert out.read_bytes().decode("utf-8").split("\n") == ["t,eta,eta0", *expected, ""]

    def test_json_format(self, tmp_path):
        out = tmp_path / "eta.json"
        code = main(["eta", "--dim", "3", "--seed", "2", "--grid", "16",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert set(payload) == {"t", "eta", "eta0"}
        assert len(payload["t"]) == 16

    def test_csv_and_json_carry_the_same_floats(self, tmp_path):
        args = ["eta", "--dim", "8", "--seed", "5", "--grid", "1024"]
        csv_out, json_out = tmp_path / "csv" / "eta.csv", tmp_path / "json" / "eta.json"
        assert main(args + ["--out", str(csv_out)]) == 0
        assert main(args + ["--format", "json", "--out", str(json_out)]) == 0
        lines = csv_out.read_text(encoding="utf-8").splitlines()
        header, rows = lines[0].split(","), [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        payload = read_json(json_out)
        for j, name in enumerate(header):
            from_csv = np.array([row[j] for row in rows], dtype=np.float64)
            from_json = np.array(payload[name], dtype=np.float64)
            assert from_csv.view(np.int64).tolist() == from_json.view(np.int64).tolist()


SPECIAL_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0), 0.1, 1.0 / 3.0, 2.0**-1022, 1e16, 123456789.0,
]


class TestWriters:
    """The blocked CSV writer against the per-row ``{:.17g}`` text, the JSON writer against ``json.dump``."""

    @staticmethod
    def reference_csv(columns) -> bytes:
        row = ",".join(["{:.17g}"] * len(columns)) + "\n"
        body = map(row.format, *(np.asarray(column).tolist() for column in columns.values()))
        return (",".join(columns) + "\n" + "".join(body)).encode("utf-8")

    @staticmethod
    def columns(n: int) -> dict:
        rng = np.random.default_rng(n)
        return {
            "special": np.resize(np.array(SPECIAL_FLOATS), n),
            "signed_zero": np.where(np.arange(n) % 3 == 0, -0.0, 0.0),
            "steps": np.floor(np.arange(n) / 100.0) * 0.1,  # runs of 100 equal values across block edges
            "random": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
            "rank": (np.arange(n) % 7 - 3) * 10**15,
        }

    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_csv_bytes_match_per_row_format(self, tmp_path, offset):
        rows = _BLOCK // len(self.columns(0))
        for n in ([0, 1, 2 * rows + 5] if offset is None else [rows + offset]):
            columns = self.columns(n)
            assert columns["rank"].dtype == np.int64
            out = tmp_path / f"rows{n}.csv"
            _write_csv(str(out), columns)
            assert out.read_bytes() == self.reference_csv(columns)

    def test_csv_takes_lists_and_single_columns(self, tmp_path):
        for columns in ({"x": SPECIAL_FLOATS}, {"rank": [8, 16, 32], "abs_diff": [1e-3, -0.0, 2.5e-7]}):
            out = tmp_path / "lists.csv"
            _write_csv(str(out), columns)
            assert out.read_bytes() == self.reference_csv(columns)

    def test_csv_signed_zeros_repeats_and_int64_against_printf_text(self, tmp_path):
        columns = {"x": np.array([0.0, -0.0, 1.5, 0.0, -0.0, 1.5, -2.0]),
                   "n": np.array([2**62, -1, 2**62, 0, -1, 7, -(2**63)], dtype=np.int64)}
        out = tmp_path / "printf.csv"
        _write_csv(str(out), columns)
        rows = ["%.17g,%.17g" % pair for pair in zip(columns["x"].tolist(), columns["n"].tolist())]
        assert out.read_text(encoding="utf-8") == "x,n\n" + "".join(row + "\n" for row in rows)
        assert rows[:2] == ["0,4.6116860184273879e+18", "-0,-1"]

    @pytest.mark.parametrize("keys", [
        [5], [3, 3, 3], [0, -(2**63), 2**63 - 1, 0, 7, -(2**63)],
        np.array([0.0, -0.0, 0.0, np.inf, -0.0, 1.0]).view(np.int64),
        np.random.default_rng(4).integers(-3, 3, 500),
    ], ids=["one", "all-equal", "int64-extremes", "signed-zero-bits", "many-repeats"])
    def test_distinct_is_unique_with_inverse(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        got, want = _distinct(keys), np.unique(keys, return_inverse=True)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(got[0][got[1]], keys)

    def test_json_bytes_match_json_dump(self, tmp_path):
        payload = {"b": [1.0, -0.0, 5e-324, 1.7976931348623157e308], "a": {"z": True, "y": None, "x": "\u03b7"},
                   "records": [{"rank": 8, "pass": False}, {"rank": 16, "pass": True}], "empty": []}
        out, ref = tmp_path / "out.json", tmp_path / "ref.json"
        _write_json(str(out), payload)
        with open(ref, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        assert out.read_bytes() == ref.read_bytes()

    def test_eta_json_columns_match_json_dumps(self, tmp_path):
        profile = {"t": [0.0, 5e-324, 1e308, 1.7976931348623157e308], "eta": [-0.0, 0.1, -5e-324, 1.0 / 3.0],
                   "eta0": [-1e308, 2.0**-1022, 1e16, -0.0]}
        assert _json_columns(profile) == json.dumps(profile, indent=2, sort_keys=True) + "\n"
        repeated = {"eta": [0.0, -0.0, 0.5, 0.0, -0.0, 0.5, 5e-324, -5e-324, 0.0]}  # distinct bits, formatted once
        assert _json_columns(repeated) == json.dumps(repeated, indent=2, sort_keys=True) + "\n"
        out = tmp_path / "eta.json"
        assert main(["eta", "--dim", "4", "--grid", "64", "--format", "json", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


CONVERGE_ROW_KEYS = {"cells", "rank", "compressed_trace_re", "compressed_trace_im", "abs_diff"}
RESOLVENT_KEYS = {
    "label", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_err", "rel_err", "s_nodes_used", "tolerance", "pass",
    "z_re", "z_im", "truncation_order", "tail_bound", "direct_lhs_re", "direct_lhs_im", "series_vs_direct",
}
BOUNDS_KEYS = {"ambient", "seed", "scale", "pass", "partitions"}
PARTITION_KEYS = {"cells", "rank", "pass", "audits"}
AUDIT_KEYS = {"label", "eps", "pass", "checks"}
CHECK_KEYS = {"name", "value", "bound", "ok"}


class TestConvergeCommand:
    def test_csv_schema_and_trend(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["converge", "--ambient", "128", "--ranks", "4,8,16", "--seed", "3",
                     "--scale", "0.4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,compressed_trace_re,compressed_trace_im,abs_diff"
        diffs = [float(line.split(",")[3]) for line in lines[1:]]
        assert diffs[-1] <= diffs[0]

    def test_json_schema(self, tmp_path):  # the ConvergenceRow fields
        out = tmp_path / "c.json"
        assert main(["converge", "--ambient", "64", "--ranks", "4,8,16", "--seed", "6", "--scale", "0.4",
                     "--format", "json", "--out", str(out)]) == 0
        rows = read_json(out)
        assert [row["cells"] for row in rows] == [4, 8, 16]
        assert all(set(row) == CONVERGE_ROW_KEYS for row in rows)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["converge", "--ambient", "64", "--ranks", "4,8,16", "--seed", "6", "--scale", "0.4"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_partition_too_fine_exits_2(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "unishift", "converge", "--ambient", "64", "--ranks", "8,32",
             "--out", str(tmp_path / "c.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: ambient dimension must be at least 4x the finest partition\n"
        assert not (tmp_path / "c.csv").exists()


class TestResolventCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["resolvent", "--dim", "4", "--seed", "2", "--z=-0.3+0.4i",
                     "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert set(payload) == RESOLVENT_KEYS  # the ResolventReport fields
        assert payload["pass"] is True
        assert payload["label"] == "z=(-0.3+0.4j)"
        assert (payload["z_re"], payload["z_im"]) == (-0.3, 0.4)
        assert payload["series_vs_direct"] <= 1e-7 * (1 + abs(payload["direct_lhs_re"]))

    @pytest.mark.parametrize("z", ["--z=1e400", "--z=nan"])
    def test_non_finite_z_exits_2(self, tmp_path, capsys, z):
        out = tmp_path / "r.json"
        assert main(["resolvent", "--dim", "4", z, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: z = ") and err.count("\n") == 1
        assert not out.exists()


class TestBoundsCommand:
    def test_audit_passes(self, tmp_path):
        out = tmp_path / "b.json"
        code = main(["bounds", "--ambient", "96", "--ranks", "8,16", "--seed", "4",
                     "--scale", "0.5", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert payload["pass"] is True
        assert [p["cells"] for p in payload["partitions"]] == [8, 16]
        assert len(payload["partitions"][0]["audits"]) == 3

    def test_json_schema(self, tmp_path):  # the AuditReport and BoundCheck fields
        out = tmp_path / "b.json"
        assert main(["bounds", "--ambient", "64", "--ranks", "4,16", "--out", str(out)]) == 0
        payload = read_json(out)
        assert set(payload) == BOUNDS_KEYS
        for partition in payload["partitions"]:
            assert set(partition) == PARTITION_KEYS
            assert [audit["label"] for audit in partition["audits"]] == [
                "window-projection", "perturbation-coupling", "compressed-model"]
            for audit in partition["audits"]:
                assert set(audit) == AUDIT_KEYS
                assert audit["pass"] is all(check["ok"] for check in audit["checks"])
                assert all(set(check) == CHECK_KEYS for check in audit["checks"])

    def test_huge_cell_count_runs_in_bounded_memory(self, tmp_path, address_space_cap):
        out = tmp_path / "b.json"
        assert main(["bounds", "--ambient", "64", "--ranks", "1000000000000", "--out", str(out)]) == 0
        assert [(p["cells"], p["rank"]) for p in read_json(out)["partitions"]] == [(10**12, 64)]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["bounds", "--ambient", "64", "--ranks", "4,16", "--seed", "8", "--scale", "0.5"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestExitCodes:
    def test_invalid_config_exits_2(self, capsys):
        assert main(["verify", "--dim", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "bounds"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "out.file"
        assert main([command, "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed and rmax must be non-negative\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "eta", "converge", "resolvent", "bounds"])
    @pytest.mark.parametrize("where", ["below-a-file", "a-directory", "not-writable"])
    def test_unwritable_out_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch, command, where):
        def no_run(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "random_pair", no_run)
        monkeypatch.setattr(cli, "reduction_instance", no_run)
        (tmp_path / "file").write_text("")
        out = {"below-a-file": tmp_path / "file" / "sub" / "out.json", "a-directory": tmp_path,
               "not-writable": tmp_path / "out.json"}[where]
        if where == "not-writable":
            monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        assert main([command, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {str(out)!r}: ") and err.count("\n") == 1
        assert not (tmp_path / "out.json").exists()

    def test_eta_sidecar_that_is_a_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "eta.json").mkdir()
        assert main(["eta", "--dim", "2", "--out", str(tmp_path / "eta.csv")]) == 2
        assert capsys.readouterr().err == f"error: cannot write {str(tmp_path / 'eta.json')!r}: it is a directory\n"
        assert not (tmp_path / "eta.csv").exists()

    @pytest.mark.parametrize("first, then", [("csv", "json"), ("json", "csv")])
    def test_eta_export_over_the_other_formats_files_exits_2(self, tmp_path, capsys, monkeypatch, first, then):
        """A CSV export's sidecar eta.json is a JSON export's profile, and the other way round: refused, nothing written."""
        assert main(["eta", "--dim", "2", "--grid", "8", "--format", first, "--out", str(tmp_path / f"eta.{first}")]) == 0
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        monkeypatch.setattr(cli, "random_pair", lambda *args: pytest.fail("the run started"))
        assert main(["eta", "--dim", "2", "--grid", "8", "--format", then, "--out", str(tmp_path / f"eta.{then}")]) == 2
        clash = {"json": "it holds the sidecar of another eta export", "csv": "it holds no eta sidecar"}[then]
        assert capsys.readouterr().err.endswith(f"{str(tmp_path / 'eta.json')!r}: {clash}\n")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_eta_reruns_into_one_directory(self, tmp_path, fmt):
        argv = ["eta", "--dim", "2", "--grid", "8", "--format", fmt, "--out", str(tmp_path / f"eta.{fmt}")]
        assert main(argv) == 0
        first = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert main(argv) == 0
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == first
        assert len(first) == 2

    def test_node_count_beyond_the_cap_exits_2(self, tmp_path, capsys, address_space_cap):
        out = tmp_path / "eta.csv"
        assert main(["eta", "--s-nodes", "20000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: at most 4096 Gauss-Legendre nodes, not 20000\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eta", "--grid", str(10**12)], f"grid must be at most 1000000, not {10**12}"),
            (["eta", "--dim", "1025"], "dim must be at most 1024, not 1025"),
            (["verify", "--dim", "100000", "--trials", "1"], "dim must be at most 1024, not 100000"),
            (["resolvent", "--dim", "100000"], "dim must be at most 1024, not 100000"),
            (["bounds", "--ambient", str(10**6)], f"ambient must be at most 4096, not {10**6}"),
            (["converge", "--ambient", "4097"], "ambient must be at most 4096, not 4097"),
            (["verify", "--dim", "2", "--trials", "1", "--rmax", "100000"], "rmax must be at most 1024, not 100000"),
            (["verify", "--dim", "2", "--trials", "1", "--rmax", str(10**9)], f"rmax must be at most 1024, not {10**9}"),
        ],
        ids=["grid", "eta-dim", "verify-dim", "resolvent-dim", "bounds-ambient", "converge-ambient", "verify-rmax",
             "verify-rmax-huge"],
    )
    def test_size_beyond_its_cap_exits_2(self, tmp_path, capsys, address_space_cap, argv, message):
        """Each size is refused above its cap before anything is allocated, not with a MemoryError."""
        out = tmp_path / "out.file"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "size, call",
        [
            ("dim", lambda n: random_pair(0, n, 1.0)),
            ("ambient", lambda n: reduction_instance(0, n, 2, 0.5)),
            ("grid", lambda n: eta_profile(np.eye(2), np.zeros((2, 2)), n)),
        ],
    )
    def test_library_refuses_sizes_beyond_the_cli_caps(self, address_space_cap, size, call):
        """The library holds each size to the cap the command line reads, before allocating anything."""
        cap = _MAX_SIZES[size]
        for n in (cap + 1, 10**6 * cap):
            with pytest.raises(UnishiftError, match=f"{size} must be at most {cap}, not {n}"):
                call(n)

    @pytest.mark.parametrize("command", ["verify", "eta", "converge", "resolvent", "bounds"])
    def test_sizes_at_their_caps_pass_validation(self, command):
        RunConfig(command=command, dim=1024, ambient=4096, grid=10**6, rmax=1024).validate()

    def test_subprocess_entry_point(self, tmp_path):
        out = tmp_path / "v.json"
        proc = subprocess.run(
            [sys.executable, "-m", "unishift", "verify", "--dim", "2", "--trials", "1",
             "--rmax", "2", "--seed", "0", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_run_config_api(self, tmp_path):
        cfg = RunConfig(command="verify", dim=2, trials=1, rmax=2, out=str(tmp_path / "v.json"))
        assert run(cfg) == 0

    @pytest.mark.parametrize("settings", [
        {"command": "verify", "dim": "3"}, {"command": "eta", "s_nodes": 2.5},
        {"command": "bounds", "ranks": (16.5,)}, {"command": "converge", "ranks": [8, 16]},
        {"command": "verify", "trials": True}, {"command": "resolvent", "z": "0.5"},
    ])
    def test_run_config_api_checks_types(self, tmp_path, settings):
        with pytest.raises(ConfigError, match="wrong type|positive integers"):
            run(RunConfig(out=str(tmp_path / "out.file"), **settings))
        assert not (tmp_path / "out.file").exists()

    def test_tol_none_only_without_default(self):
        RunConfig(command="eta").validate()  # eta has no --tol
        cfg = RunConfig(command="verify")
        cfg.tol = None  # construction fills the default; a later None is rejected
        with pytest.raises(ConfigError, match="wrong type"):
            cfg.validate()
