"""Config parsing and the command-line contract: exit codes, artifacts,
byte-identical reruns."""

import csv
import json
import os

import pytest

from pinchfl.cli import main
from pinchfl.config import RunConfig, load_config
from pinchfl.errors import ConfigError


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


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["verify", "--bogus", "1"]) == 1

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

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_runtime_error_names_its_type(self, tmp_path, capsys):
        # an SNR scale this small rounds every rate to zero
        rc = main(["train", "--mode", "sfl", "--snr", "1e-30", "--k", "5",
                   "--m", "2", "--rounds", "2", "--out", str(tmp_path)])
        assert rc == 3
        assert "runtime error: InfeasibleLinkError:" in capsys.readouterr().err

    def test_success_writes_artifacts(self, tmp_path, capsys):
        rc = main(["verify", "--k", "8", "--m", "2", "--trials", "2000",
                   "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "verify.csv").exists()
        assert (tmp_path / "verify.json").exists()


class TestArtifacts:
    def test_json_echoes_config_and_seed(self, tmp_path, capsys):
        main(["straggler", "--k", "8", "--m", "3", "--trials", "2000",
              "--seed", "77", "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "straggler.json").read_text())
        assert payload["seed"] == 77
        assert payload["config"]["k"] == 8
        assert "metrics" in payload

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

    def test_ccdf_csv_matches_summary_keys(self, tmp_path, capsys):
        main(["ccdf", "--k", "10", "--m", "3", "--trials", "2000",
              "--grid-points", "12", "--out", str(tmp_path)])
        with open(tmp_path / "ccdf.csv", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "ccdf_conv", "ccdf_pa"]
        payload = json.loads((tmp_path / "ccdf.json").read_text())
        assert payload["metrics"]["pa_dominates"] in (True, False)
