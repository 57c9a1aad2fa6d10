"""Config parsing and the command-line contract: exit codes, artifacts,
byte-identical reruns."""

import argparse
import builtins
import csv
import dataclasses
import json
import os
import subprocess
import sys

import pytest

import pinchfl
from pinchfl.analytics import straggler_moments
from pinchfl.cli import _COMMANDS, _FLAG_KEYS, _build_parser, main
from pinchfl.config import RunConfig, load_config
from pinchfl.errors import ConfigError
from pinchfl.flcore import TrainRecord


class TestLoadConfig:
    def test_defaults_are_operating_point(self):
        cfg = load_config(None, {})
        assert (cfg.k, cfg.corridor, cfg.height, cfg.bandwidth) == \
            (40, 10.0, 3.0, 1e6)

    def test_file_parsing_and_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nk = 12\ncorridor = 8.5  # trailing\n\n")
        cfg = load_config(str(p), {})
        assert cfg.k == 12 and cfg.corridor == 8.5

    def test_flag_overrides_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("k = 10\n")
        cfg = load_config(str(p), {"k": "20"})
        assert cfg.k == 20

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("koridor = 10\n")
        with pytest.raises(ConfigError, match="koridor"):
            load_config(str(p), {})

    def test_malformed_value_named(self):
        with pytest.raises(ConfigError, match="'k'"):
            load_config(None, {"k": "forty"})

    def test_precondition_breach_named(self):
        with pytest.raises(ConfigError, match="'k'"):
            load_config(None, {"k": "0"})
        with pytest.raises(ConfigError, match="'m'"):
            load_config(None, {"k": "5", "m": "9"})

    def test_arch_case_normalized(self):
        assert load_config(None, {"arch": "pa"}).arch == "PA"
        assert load_config(None, {"mode": "AFL"}).mode == "afl"

    @pytest.mark.parametrize("field", dataclasses.fields(RunConfig),
                             ids=lambda f: f.name)
    def test_every_key_parses_to_its_default(self, field):
        # a key's type comes from its annotation alone: the default, written
        # out as a string, reads back with the same value and type
        cfg = load_config(None, {field.name: str(field.default)})
        value = getattr(cfg, field.name)
        assert value == field.default
        assert type(value) is type(field.default)


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["verify", "--bogus", "1"]) == 1

    @pytest.mark.parametrize("command", ["ccdf", "participation", "highsnr",
                                         "train", "verify"])
    def test_every_command_takes_every_flag(self, command):
        keys = ["config", "out", *_FLAG_KEYS]
        argv = [command]
        for key in keys:
            argv += [f"--{key.replace('_', '-')}", f"value-{key}"]
        args = _build_parser().parse_args(argv)
        assert args.command == command
        assert {key: getattr(args, key) for key in keys} == \
            {key: f"value-{key}" for key in keys}

    def test_bad_config_value(self, tmp_path, capsys):
        rc = main(["verify", "--k", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert "k" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("corridor", "inf"),
                                           ("deadline", "inf"),
                                           ("power", "nan")])
    def test_non_finite_value_rejected_before_artifacts(self, tmp_path, capsys,
                                                        key, value):
        out = tmp_path / "out"
        rc = main(["highsnr", f"--{key}", value, "--out", str(out)])
        assert rc == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("flags,key", [
        (["--deadline", "0"], "deadline"),                # zero tick period
        (["--tick", "1e-310", "--horizon", "1"], "tick"),  # too many ticks
        (["--deadline", "1e-310", "--horizon", "1"], "deadline"),
        (["--tick", "1e308", "--rounds", "10"], "horizon"),  # rounds * tick
    ])
    def test_impossible_afl_timing_rejected_before_artifacts(
            self, tmp_path, capsys, flags, key):
        rc = main(["train", "--mode", "afl", "--k", "5", "--m", "2", *flags,
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("argv", [
        ["participation", "--k", "5"],
        ["participation", "--k", "3", "--m", "0"],
        ["ccdf", "--mode", "afl", "--k", "3"],
        ["train", "--mode", "afl", "--k", "3", "--rounds", "2"],
        ["highsnr", "--k", "3"],
    ], ids=["participation", "participation-m0", "ccdf-afl", "train-afl",
            "highsnr"])
    def test_m_is_not_checked_where_it_is_not_read(self, tmp_path, capsys,
                                                  argv):
        # the default M=7 exceeds these K, and no command here reads M
        assert main([*argv, "--trials", "100", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv", [
        ["verify", "--k", "5"],
        ["verify", "--k", "5", "--m", "0"],
        ["ccdf", "--mode", "sfl", "--k", "5"],
        ["train", "--mode", "sfl", "--k", "5", "--rounds", "2"],
    ], ids=["verify", "verify-m0", "ccdf-sfl", "train-sfl"])
    def test_m_is_checked_before_artifacts_where_it_is_read(
            self, tmp_path, capsys, argv):
        rc = main([*argv, "--trials", "100", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "'m'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bits", ["0", "54", "2000"])
    @pytest.mark.parametrize("mode", ["sfl", "afl"])
    def test_bit_budget_beyond_the_exact_grid_rejected_before_artifacts(
            self, tmp_path, capsys, mode, bits):
        # at 54 bits 2^b - 1 is no longer an exact double; from 1024 on it
        # overflows a float
        rc = main(["train", "--mode", mode, "--bits", bits, "--rounds", "2",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "'bits'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["participation", "--trials", "10"],
        ["verify", "--trials", "10"],
        ["ccdf", "--trials", "10"],
        ["train", "--rounds", "2"],
    ], ids=["participation", "verify", "ccdf", "train"])
    def test_negative_seed_rejected_before_artifacts(self, tmp_path, capsys,
                                                     argv):
        # numpy seeds only from nonnegative integers
        rc = main([*argv, "--seed", "-1", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "'seed'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["sfl", "afl"])
    def test_heterogeneity_of_one_user_rejected_before_artifacts(
            self, tmp_path, capsys, mode):
        # one user's centre is the mean, so there is no spread to scale
        rc = main(["train", "--mode", mode, "--k", "1", "--m", "1",
                   "--delta2", "0.05", "--rounds", "2",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "'delta2'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["train", "--mode", mode, "--k", "1", "--m", "1",
                     "--rounds", "2", "--out", str(tmp_path / "out")]) == 0

    def test_seed_is_not_checked_where_nothing_is_drawn(self, tmp_path,
                                                         capsys):
        assert main(["highsnr", "--seed", "-1", "--out", str(tmp_path)]) == 0

    def test_parser_is_built_once(self, tmp_path, capsys):
        # a usage error leaves the shared parser fit for the next call
        assert _build_parser() is _build_parser()
        assert main(["verify", "--bogus", "1"]) == 1
        assert main(["verify", "--k", "3", "--m", "2", "--trials", "10",
                     "--out", str(tmp_path)]) == 0
        assert main([]) == 1

    def test_sfl_accepts_zero_deadline(self):
        # a synchronous round waits for its slowest upload; no tick is involved
        assert load_config(None, {"mode": "sfl", "deadline": "0"}).deadline == 0.0

    def test_runtime_error_names_its_type(self, tmp_path, capsys):
        # an SNR scale this small rounds every rate to zero
        for argv in (["train", "--mode", "sfl", "--k", "5", "--m", "2",
                      "--rounds", "2"],
                     ["train", "--mode", "afl", "--arch", "CONV", "--k", "5",
                      "--m", "2", "--rounds", "2"],
                     ["train", "--mode", "afl", "--arch", "PA", "--k", "5",
                      "--m", "2", "--rounds", "2"],
                     ["ccdf", "--k", "5", "--m", "2", "--trials", "100"],
                     ["participation", "--k", "5", "--m", "2", "--trials", "100"]):
            rc = main(argv + ["--snr", "1e-30", "--out", str(tmp_path)])
            assert rc == 3, argv
            err = capsys.readouterr().err
            assert "runtime error: InfeasibleLinkError:" in err, argv

    @pytest.mark.parametrize("argv", [
        # an SNR scale this small rounds every rate to zero
        ["train", "--mode", "sfl", "--k", "5", "--m", "2", "--rounds", "2",
         "--snr", "1e-30"],
        ["train", "--mode", "afl", "--arch", "CONV", "--k", "5", "--m", "2",
         "--rounds", "2", "--snr", "1e-30"],
        ["train", "--mode", "afl", "--arch", "PA", "--k", "5", "--m", "2",
         "--rounds", "2", "--snr", "1e-30"],
        ["ccdf", "--k", "5", "--m", "2", "--trials", "100", "--snr", "1e-30"],
        ["participation", "--k", "5", "--m", "2", "--trials", "100",
         "--snr", "1e-30"],
        # a step this large diverges to a non-finite loss, with and without
        # the quantizer
        ["train", "--mode", "sfl", "--c-q", "0", "--eta", "1e155",
         "--rounds", "5"],
        ["train", "--mode", "afl", "--c-q", "0", "--eta", "1e155",
         "--rounds", "5"],
        ["train", "--mode", "sfl", "--c-q", "1", "--eta", "1e155",
         "--rounds", "5"],
        ["train", "--mode", "afl", "--c-q", "1", "--eta", "1e155",
         "--rounds", "5"],
    ], ids=["train-sfl-dead", "train-afl-conv-dead", "train-afl-pa-dead",
            "ccdf-dead", "participation-dead", "train-sfl-nan",
            "train-afl-nan", "train-sfl-diverged-cq1",
            "train-afl-diverged-cq1"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_runtime_error_leaves_no_artifact(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "runtime error:" in err
        if "--eta" in argv:
            assert "runtime error: DivergenceError:" in err
        assert not out.exists()

    def test_success_writes_artifacts(self, tmp_path, capsys):
        rc = main(["verify", "--k", "8", "--m", "2", "--trials", "2000",
                   "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "verify.csv").exists()
        assert (tmp_path / "verify.json").exists()


class TestArtifacts:
    def test_json_echoes_config_and_seed(self, tmp_path, capsys):
        main(["verify", "--k", "8", "--m", "3", "--trials", "2000",
              "--seed", "77", "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["seed"] == 77
        assert payload["config"]["k"] == 8
        assert payload["metrics"]["moments"] == dataclasses.asdict(
            straggler_moments(8, 3, 10.0))
        # the moments live in verify.json; there is no separate command
        assert main(["straggler"]) == 1

    def test_csv_has_header(self, tmp_path, capsys):
        main(["highsnr", "--out", str(tmp_path)])
        with open(tmp_path / "highsnr.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["Lambda", "envelope", "gap_bracket"]
        assert len(rows) > 1

    def test_train_rerun_byte_identical(self, tmp_path, capsys):
        args = ["train", "--mode", "sfl", "--arch", "both", "--m", "3",
                "--k", "10", "--rounds", "20", "--seed", "7"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        assert (d1 / "train.csv").read_bytes() == (d2 / "train.csv").read_bytes()

    def test_afl_train_csv_cells_are_numbers(self, tmp_path, capsys):
        assert main(["train", "--mode", "afl", "--arch", "both", "--k", "10",
                     "--rounds", "20", "--seed", "3", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "train.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            for key, cell in row.items():
                if key not in ("arch", "scheduled"):
                    float(cell)  # raises on cells such as "np.float64(...)"

    def test_train_json_is_strict_with_null_target(self, tmp_path, capsys):
        # five rounds never reach the default loss target
        assert main(["train", "--mode", "sfl", "--arch", "both", "--k", "10",
                     "--m", "3", "--rounds", "5", "--out", str(tmp_path)]) == 0

        def reject(token):
            raise ValueError(f"non-finite JSON constant {token}")

        text = (tmp_path / "train.json").read_text()
        payload = json.loads(text, parse_constant=reject)
        for arch in ("CONV", "PA"):
            assert payload["metrics"][arch]["time_to_target"] is None

    def test_empty_train_log_writes_the_full_header(self, tmp_path, capsys):
        # at p_s = 0.001 no user of three triggers within one round
        assert main(["train", "--mode", "afl", "--p-s", "0.001", "--k", "3",
                     "--m", "1", "--rounds", "1", "--out", str(tmp_path)]) == 0
        header = ",".join(f.name for f in dataclasses.fields(TrainRecord))
        assert (tmp_path / "train.csv").read_bytes() == \
            f"{header}\r\n".encode()
        payload = json.loads((tmp_path / "train.json").read_text())
        for arch in ("CONV", "PA"):
            assert payload["metrics"][arch]["final_loss"] is None
            assert payload["metrics"][arch]["events"] == 0

    def test_ccdf_csv_matches_summary_keys(self, tmp_path, capsys):
        main(["ccdf", "--k", "10", "--m", "3", "--trials", "2000",
              "--grid-points", "12", "--out", str(tmp_path)])
        with open(tmp_path / "ccdf.csv", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "ccdf_conv", "ccdf_pa"]
        payload = json.loads((tmp_path / "ccdf.json").read_text())
        assert payload["metrics"]["pa_dominates"] in (True, False)


class TestCommandTable:
    ARGVS = {
        "ccdf": ["--k", "10", "--m", "3", "--trials", "2000",
                 "--grid-points", "12"],
        "participation": ["--trials", "2000", "--grid-points", "12"],
        "highsnr": [],
        "train": ["--mode", "afl", "--arch", "both", "--k", "10",
                  "--rounds", "5"],
        "verify": ["--k", "8", "--m", "2", "--trials", "2000"],
    }

    def test_parser_reads_the_table(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(_COMMANDS) == list(self.ARGVS)

    @pytest.mark.parametrize("name", list(ARGVS))
    def test_command_does_no_io_and_main_writes_what_it_returns(
            self, tmp_path, capsys, monkeypatch, name):
        out = tmp_path / "out"
        argv = [*self.ARGVS[name], "--out", str(out)]
        cfg = load_config(None, {a[2:].replace("-", "_"): b for a, b in
                                 zip(argv[::2], argv[1::2])}, name)

        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} touched the file system")

        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", refuse)
            patch.setattr(os, "makedirs", refuse)
            rows, metrics = _COMMANDS[name](cfg)
        assert not out.exists()
        assert main([name, *argv]) == 0
        with open(out / f"{name}.csv", encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == list(rows[0])
        assert len(table) == len(rows) > 1
        payload = json.loads((out / f"{name}.json").read_text())
        assert payload["metrics"] == metrics


def _python(code):
    """Run ``code`` in a fresh interpreter that imports this pinchfl."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pinchfl.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


class TestRuntimeWithoutScipy:
    def test_cli_import_loads_no_scipy(self):
        proc = _python("import sys, pinchfl.cli\n"
                       "print([m for m in sys.modules if m.startswith('scipy')])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("dist", [
        [], ["--dist", "gaussian_mixture", "--mu", "3", "--sigma-x", "0.5"]])
    def test_participation_runs_with_scipy_blocked(self, tmp_path, dist):
        argv = ["participation", "--fc-kind", "shifted_exponential",
                "--rate", "200", "--trials", "2000", *dist,
                "--out", str(tmp_path)]
        # a None entry in sys.modules makes every scipy import fail
        proc = _python("import sys\n"
                       "sys.modules['scipy'] = None\n"
                       "from pinchfl.cli import main\n"
                       f"sys.exit(main({argv!r}))")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "participation.csv").exists()
