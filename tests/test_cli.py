"""Config parsing and the command-line contract: exit codes, artifacts,
byte-identical reruns."""

import argparse
import builtins
import csv
import itertools
import json
import os
import subprocess
import sys

import pytest

import pinchfl
from pinchfl.analytics import straggler_moments
from pinchfl.cli import _COMMANDS, _UsageError, _build_parser, main
from pinchfl.config import RunConfig, flags, load_config, reads, validate
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

    def test_validate_checks_only_the_keys_the_command_reads(self):
        # M=7 over K=3, a negative seed and one user's spread: each key is
        # checked by the commands that read it and by no other
        cases = [(RunConfig(k=3), "m", {"ccdf", "train", "verify"}),
                 (RunConfig(seed=-1), "seed",
                  {"ccdf", "participation", "train", "verify"}),
                 (RunConfig(k=1, m=1, delta2=0.05), "delta2", {"train"})]
        for cfg, key, readers in cases:
            for command in _COMMANDS:
                if command in readers:
                    with pytest.raises(ConfigError, match=f"'{key}'"):
                        validate(cfg, command)
                else:
                    assert validate(cfg, command) is cfg
            with pytest.raises(ConfigError, match=f"'{key}'"):
                validate(cfg)
        # M is read by SFL runs only
        assert validate(RunConfig(k=3, mode="afl"), "train").mode == "afl"

    def test_centred_mixture_is_valid(self):
        # mu = 0 is one Gaussian at the origin; a negative mu is no mixture
        for command in ("ccdf", "participation", "train"):
            cfg = load_config(None, {"dist": "gaussian_mixture", "mu": "0"},
                              command)
            assert cfg.dist_spec().mu == 0.0
            with pytest.raises(ConfigError, match="'mu'"):
                load_config(None, {"dist": "gaussian_mixture", "mu": "-1"},
                            command)

    def test_arch_case_normalized(self):
        assert load_config(None, {"arch": "pa"}).arch == "PA"
        assert load_config(None, {"mode": "AFL"}).mode == "afl"

    @pytest.mark.parametrize("name", RunConfig._fields)
    def test_every_key_parses_to_its_default(self, name):
        # a key's type comes from its default alone: the default, written
        # out as a string, reads back with the same value and type
        default = RunConfig._field_defaults[name]
        cfg = load_config(None, {name: str(default)})
        value = getattr(cfg, name)
        assert value == default
        assert type(value) is type(default)


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["verify", "--bogus", "1"]) == 1
        # reported under the command's prog and usage, not the top level's
        err = capsys.readouterr().err
        assert err.startswith("pinchfl verify: error: unrecognized arguments: "
                              "--bogus 1\nusage: pinchfl verify ")

    # the fields each command reads in some mode or distribution, out aside
    SETTABLE = {"ccdf": 18, "participation": 19, "highsnr": 2, "train": 32,
                "verify": 5}

    @pytest.mark.parametrize("command", list(SETTABLE))
    def test_every_command_takes_only_the_flags_it_reads(self, command):
        keys = ["config", *(key for key, _ in flags(command))]
        assert len(keys) == 2 + self.SETTABLE[command]
        argv = [command]
        for key in keys:
            argv += [f"--{key.replace('_', '-')}", f"value-{key}"]
        assert vars(_build_parser().parse_args(argv)) == \
            {"command": command, **{key: f"value-{key}" for key in keys}}
        for name in RunConfig._fields:
            if name not in keys:
                with pytest.raises(_UsageError, match=f"^pinchfl {command}: "
                                   f"error: unrecognized"):
                    _build_parser().parse_args(
                        [command, f"--{name.replace('_', '-')}", "1"])

    @pytest.mark.parametrize("argv,key", [
        (["train", "--mode", "afl", "--m", "3"], "m"),
        (["ccdf", "--mode", "afl", "--m", "3"], "m"),
        (["train", "--mode", "sfl", "--tick", "0.004"], "tick"),
        (["train", "--horizon", "1"], "horizon"),
        (["train", "--weighting", "uniform"], "weighting"),
        (["train", "--deadline", "0.02"], "deadline"),
        (["ccdf", "--mu", "3"], "mu"),
        (["participation", "--sigma-x", "0.5"], "sigma_x"),
        # an AFL upload is the round of one user, whatever K
        (["ccdf", "--mode", "afl", "--k", "3"], "k"),
    ])
    def test_key_read_only_in_another_mode_or_distribution_is_named(
            self, tmp_path, capsys, argv, key):
        rc = main([*argv, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,text,key", [
        ("verify", "bits = 4\n", "bits"),
        ("verify", "dist = uniform\n", "dist"),
        ("ccdf", "mode = afl\nm = 3\n", "m"),
    ])
    def test_config_file_carries_only_keys_the_command_reads(
            self, tmp_path, capsys, command, text, key):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        rc = main([command, "--config", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        rc = main(["participation", f"--{key}", value, "--out", str(out)])
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
        rc = main(["train", "--mode", "afl", "--k", "5", *flags,
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("argv,rc", [
        (["participation", "--k", "5", "--trials", "100"], 0),
        (["participation", "--k", "3", "--m", "0", "--trials", "100"], 1),
        (["train", "--mode", "afl", "--k", "3", "--rounds", "2"], 0),
        (["highsnr", "--k", "3"], 1),
    ], ids=["participation", "participation-m0", "train-afl", "highsnr"])
    def test_m_is_not_checked_where_it_is_not_read(self, tmp_path, capsys,
                                                  argv, rc):
        # the default M=7 exceeds these K, and no command here reads M; a
        # flag the command does not read at all is a usage error
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == rc
        assert out.exists() == (rc == 0)

    @pytest.mark.parametrize("argv", [
        ["verify", "--k", "5", "--trials", "100"],
        ["verify", "--k", "5", "--m", "0", "--trials", "100"],
        ["ccdf", "--mode", "sfl", "--k", "5", "--trials", "100"],
        ["train", "--mode", "sfl", "--k", "5", "--rounds", "2"],
    ], ids=["verify", "verify-m0", "ccdf-sfl", "train-sfl"])
    def test_m_is_checked_before_artifacts_where_it_is_read(
            self, tmp_path, capsys, argv):
        rc = main([*argv, "--out", str(tmp_path / "out")])
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
        # one user's centre is the mean, so there is no spread to scale;
        # only SFL reads M
        m = ["--m", "1"] if mode == "sfl" else []
        rc = main(["train", "--mode", mode, "--k", "1", *m,
                   "--delta2", "0.05", "--rounds", "2",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "'delta2'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["train", "--mode", mode, "--k", "1", *m,
                     "--rounds", "2", "--out", str(tmp_path / "out")]) == 0

    def test_seed_is_not_checked_where_nothing_is_drawn(self, tmp_path,
                                                         capsys):
        # highsnr's outputs are closed forms: it takes no seed at all
        out = tmp_path / "out"
        assert main(["highsnr", "--seed", "-1", "--out", str(out)]) == 1
        assert "pinchfl highsnr: error: unrecognized arguments: --seed" in \
            capsys.readouterr().err
        assert not out.exists()

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
                      "--rounds", "2"],
                     ["train", "--mode", "afl", "--arch", "PA", "--k", "5",
                      "--rounds", "2"],
                     ["ccdf", "--k", "5", "--m", "2", "--trials", "100"],
                     ["participation", "--k", "5", "--trials", "100"]):
            rc = main(argv + ["--snr", "1e-30", "--out", str(tmp_path)])
            assert rc == 3, argv
            err = capsys.readouterr().err
            assert "runtime error: InfeasibleLinkError:" in err, argv

    @pytest.mark.parametrize("argv", [
        # an SNR scale this small rounds every rate to zero
        ["train", "--mode", "sfl", "--k", "5", "--m", "2", "--rounds", "2",
         "--snr", "1e-30"],
        ["train", "--mode", "afl", "--arch", "CONV", "--k", "5",
         "--rounds", "2", "--snr", "1e-30"],
        ["train", "--mode", "afl", "--arch", "PA", "--k", "5",
         "--rounds", "2", "--snr", "1e-30"],
        ["ccdf", "--k", "5", "--m", "2", "--trials", "100", "--snr", "1e-30"],
        ["participation", "--k", "5", "--trials", "100", "--snr", "1e-30"],
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
        assert payload["metrics"]["moments"] == \
            straggler_moments(8, 3, 10.0)._asdict()
        # the moments live in verify.json; there is no separate command
        assert main(["straggler"]) == 1
        # highsnr reads no seed: none at top level, a whole config echo
        assert main(["highsnr", "--out", str(tmp_path / "highsnr")]) == 0
        payload = json.loads((tmp_path / "highsnr" / "highsnr.json").read_text())
        assert "seed" not in payload
        assert payload["config"]["seed"] == RunConfig().seed

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
                     "--rounds", "1", "--out", str(tmp_path)]) == 0
        header = ",".join(TrainRecord._fields)
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


_FIELDS = set(RunConfig._fields)
# the effect check's small run; its deadline is one that CONV users beyond
# about 3 m miss, so that HT and uniform weights differ
_BASE = RunConfig(k=5, m=2, trials=200, grid_points=4, rounds=20,
                  deadline=0.0115, rate=200.0)
_CHOICES = {"mode": ("sfl", "afl"), "dist": ("uniform", "gaussian_mixture"),
            "fc_kind": ("deterministic", "shifted_exponential"),
            "weighting": ("HT", "uniform"), "arch": ("both", "PA")}
# valid values besides the base one; a choice key takes its other choice
_OTHER = {"k": [6], "m": [3], "corridor": [8.0], "height": [2.0],
          "power": [0.02], "noise": [2e-12], "f_c": [20e9],
          "bandwidth": [2e6], "payload": [2e5], "snr": [1e6], "bits": [2],
          "c_q": [0.0, 2.0], "deadline": [0.02], "t0": [0.001],
          "rate": [100.0], "p_s": [0.5], "tick": [0.004], "mu": [0.0],
          "sigma_x": [1.0], "eta": [0.2], "rounds": [40], "horizon": [0.1],
          "sigma_grad": [0.1], "delta2": [0.1], "dim": [3], "target": [1e9],
          "trials": [300], "seed": [2], "grid_points": [5]}


def _constant_rows(cfg, value):
    return cfg.sigma_grad == cfg.delta2 == 0


# (command, or None for every command; key; when, given the base config and
# the other value; why the value changes no output there)
_IGNORED = [
    (None, "rate", lambda cfg, value: cfg.fc_kind == "deterministic",
     "deterministic compute draws no exponential time"),
    (None, "corridor", lambda cfg, value: cfg.dist == "gaussian_mixture",
     "PhyParams.D is read only on the uniform corridor; dropping it is "
     "blocked, as the benchmark passes D to PhyParams.from_snr_scale"),
    ("train", "bits", _constant_rows,
     "every gradient row is constant, so every entry sits on the top "
     "quantizer level (ROADMAP item 13(b))"),
    ("train", "c_q", _constant_rows,
     "every gradient row is constant, so the quantizer returns it exactly "
     "(ROADMAP item 13(b))"),
    ("train", "c_q", lambda cfg, value: value != 0,
     "training reads only whether c_q is 0 (ROADMAP item 8(a))"),
]


def _contexts(command):
    """The base config in each mode, distribution, compute family and
    gradient noise that ``command`` reads, once per distinct reading."""
    seen = set()
    for mode, dist, fc_kind, noise in itertools.product(
            _CHOICES["mode"], _CHOICES["dist"], _CHOICES["fc_kind"],
            (0.0, 0.05)):
        cfg = _BASE._replace(mode=mode, dist=dist, fc_kind=fc_kind,
                             sigma_grad=noise, delta2=noise)
        reading = tuple(getattr(cfg, key) if key in reads(cfg, command)
                        else None for key in ("mode", "dist", "fc_kind",
                                              "sigma_grad"))
        if reading not in seen:
            seen.add(reading)
            yield cfg


def _output(command, cfg):
    """The rows and metrics ``command`` returns at ``cfg``, as text, less
    the metrics that echo a config field."""
    rows, metrics = _COMMANDS[command](validate(cfg, command))
    return repr((rows, {key: value for key, value in metrics.items()
                        if key not in _FIELDS}))


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

    @pytest.mark.parametrize("name", list(ARGVS))
    def test_fields_each_command_reads_match_the_read_table(
            self, monkeypatch, name):
        # one small run in every mode and distribution; ``out`` is read by
        # main's artifact writer, not by the command
        get = RunConfig.__getattribute__
        names = set(RunConfig._fields)
        seen, union = set(), set()

        def spy(cfg, attr):
            seen.add(attr)
            return get(cfg, attr)

        for mode in ("sfl", "afl"):
            for dist in ("uniform", "gaussian_mixture"):
                cfg = RunConfig(k=5, m=2, trials=200, grid_points=4,
                                rounds=2, mode=mode, dist=dist)
                seen.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(RunConfig, "__getattribute__", spy)
                    _COMMANDS[name](cfg)
                assert seen & names == reads(cfg, name) - {"out"}, (mode, dist)
                union |= seen & names
        assert union == {key for key, _ in flags(name)} - {"out"}

    @pytest.mark.parametrize("name", list(ARGVS))
    def test_each_key_a_command_reads_changes_its_output(self, name):
        # by effect: a field that the command records but never uses counts
        # as unread here, unlike in the recorder test above
        unread = []
        for cfg in _contexts(name):
            base = _output(name, cfg)
            for key in sorted(reads(cfg, name) - {"out"}):
                others = _OTHER.get(key) or [
                    next(c for c in _CHOICES[key] if c != getattr(cfg, key))]
                for value in others:
                    if any(command in (None, name) and key == ignored
                           and when(cfg, value)
                           for command, ignored, when, _ in _IGNORED):
                        continue
                    if _output(name, cfg._replace(**{key: value})) == base:
                        unread.append((cfg.mode, cfg.dist, cfg.fc_kind,
                                       cfg.sigma_grad, key, value))
        assert not unread

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


def _env():
    """The environment of a fresh interpreter that imports this pinchfl."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pinchfl.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _python(code):
    """Run ``code`` in a fresh interpreter that imports this pinchfl."""
    return subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("argv", [["highsnr"], ["verify", "--trials", "1000"]])
def test_closed_stdout_exits_0_without_traceback(tmp_path, argv):
    # the reader of stdout leaves before the summary is printed, as under
    # ``pinchfl highsnr | head -1``: the artifacts hold the metrics
    proc = subprocess.Popen([sys.executable, "-m", "pinchfl", *argv,
                             "--out", str(tmp_path)], env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert (proc.returncode, err) == (0, b"")
    payload = json.loads((tmp_path / f"{argv[0]}.json").read_text())
    assert payload["metrics"]


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


class TestStartup:
    def test_cli_import_loads_neither_dataclasses_nor_numpy_polynomial(self):
        proc = _python("import sys, pinchfl.cli\n"
                       "print([m for m in ('dataclasses', 'numpy.polynomial')"
                       " if m in sys.modules])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_gauss_legendre_rule_is_tabulated(self):
        # the shifted-exponential closed forms sum the rule on both layouts
        # without numpy.polynomial, whose leggauss(64) it equals bit for bit
        proc = _python(
            "import sys\n"
            "from pinchfl import participation as pt\n"
            "from pinchfl.phy import PhyParams\n"
            "from pinchfl.spatial import DistributionSpec\n"
            "model = pt.DeadlineModel(T_d=0.012, fc_kind=pt.SHIFTED_EXPONENTIAL,"
            " rate=200.0)\n"
            "phy = PhyParams(P=0.01, sigma_n2=1e-12, f_c=28e9, d=3.0, D=10.0,"
            " W=1e6, B_t=1e5)\n"
            "for spec in (DistributionSpec('uniform', D=10.0),"
            " DistributionSpec('gaussian_mixture', mu=3.0, sigma=0.5)):\n"
            "    pt.expected_participants(40, 0.012, model, spec, phy)\n"
            "assert 'numpy.polynomial' not in sys.modules\n"
            "from numpy.polynomial.legendre import leggauss\n"
            "print([a.tobytes() == b.tobytes() and not a.flags.writeable"
            " for a, b in zip(pt._gauss_legendre(), leggauss(64))])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[True, True]"
