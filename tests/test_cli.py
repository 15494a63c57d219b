"""In-process tests for the command-line surface.

Every test but one calls main(argv) directly and inspects the returned
exit code plus captured stdout/stderr; the exception runs ``python -m
segnetr`` in a subprocess.  Training-heavy commands run on a tiny 32x32 C=4
config so the whole file stays fast.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from segnetr.cli import _load_config, main
from segnetr.model import ModelConfig
from segnetr.verify import CheckResult


@pytest.fixture()
def tiny_cfg_path(tmp_path):
    cfg = ModelConfig(base_channels=4, resolution=32, num_classes=2, seed=3)
    path = tmp_path / "tiny.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    return str(path)


class TestArgParsing:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_python_m_segnetr_runs_the_cli(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "segnetr", "train", "--help"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: segnetr train")


class TestSummarize:
    def test_default_config(self, capsys):
        assert main(["summarize"]) == 0
        out = capsys.readouterr().out
        assert "params: 14,202,164" in out
        assert "GFLOPs (2flop convention)" in out

    def test_mac_convention_and_csv(self, tiny_cfg_path, tmp_path, capsys):
        csv_path = tmp_path / "layers.csv"
        rc = main(["summarize", "--config", tiny_cfg_path,
                   "--convention", "mac", "--csv", str(csv_path)])
        assert rc == 0
        assert "GFLOPs (mac convention)" in capsys.readouterr().out
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "layer,params,macs"
        assert len(lines) > 2

    def test_missing_config_file(self, capsys):
        assert main(["summarize", "--config", "/nonexistent/cfg.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_value(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(ModelConfig().to_json().replace("224", "40"), encoding="utf-8")
        assert main(["summarize", "--config", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, field", [
        ('{"seed": -3}', "seed"),
        ('{"seed": 1.5}', "seed"),
        ('{"resolution": "224"}', "resolution"),
        ('{"depths": 3}', "depths"),
        ('{"patch_schedule": [8, 4, 2, "1"]}', "patch_schedule"),
        ('{"variant": ["segnetr"]}', "variant"),
    ])
    def test_wrongly_typed_config_field_exits_2(self, tmp_path, capsys, raw, field):
        bad = tmp_path / "bad.json"
        bad.write_text(raw, encoding="utf-8")
        assert main(["summarize", "--config", str(bad)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {field} must be")

    def test_config_directory_exits_2(self, tmp_path, capsys):
        assert main(["summarize", "--config", str(tmp_path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and str(tmp_path) in line

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dropout": 0.5}', encoding="utf-8")
        assert main(["summarize", "--config", str(bad)]) == 2
        assert "unknown config keys" in capsys.readouterr().err


class TestTrain:
    def test_small_run_writes_artifacts(self, tiny_cfg_path, tmp_path, capsys):
        out_dir = tmp_path / "run"
        rc = main(["train", "--config", tiny_cfg_path, "--steps", "2",
                   "--batch-size", "2", "--eval-interval", "2",
                   "--out", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ran 2 steps" in out
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "model.ckpt").exists()
        assert "checkpoint:" in out

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all", encoding="utf-8")
        assert main(["train", "--config", str(bad), "--steps", "1"]) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--steps", "0", "steps must be >= 1, got 0"),
        ("--eval-interval", "0", "eval_interval must be >= 1, got 0"),
        ("--batch-size", "0", "batch_size must be >= 2, got 0"),
        ("--batch-size", "1", "batch_size must be >= 2, got 1"),
    ])
    def test_bad_training_size_exits_2(self, tiny_cfg_path, capsys, flag, value, message):
        assert main(["train", "--config", tiny_cfg_path, flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


    def test_out_is_an_existing_file_exits_2(self, tiny_cfg_path, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        rc = main(["train", "--config", tiny_cfg_path, "--steps", "1",
                   "--batch-size", "2", "--out", str(taken)])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and str(taken) in line


class TestEval:
    def test_roundtrip_after_train(self, tiny_cfg_path, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(["train", "--config", tiny_cfg_path, "--steps", "1",
                     "--batch-size", "2", "--out", str(out_dir)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(out_dir / "model.ckpt"),
                   "--config", tiny_cfg_path, "--samples", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean IoU" in out
        assert "class 0:" in out and "class 1:" in out

    def test_corrupt_checkpoint_exits_1(self, tiny_cfg_path, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XXXX" + b"\x00" * 16)
        rc = main(["eval", "--checkpoint", str(bad), "--config", tiny_cfg_path])
        assert rc == 1
        assert "checkpoint load failed" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tiny_cfg_path):
        rc = main(["eval", "--checkpoint", "/nonexistent/model.ckpt",
                   "--config", tiny_cfg_path])
        assert rc == 2

    def test_checkpoint_directory_exits_2(self, tiny_cfg_path, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(tmp_path), "--config", tiny_cfg_path])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and str(tmp_path) in line

    def test_zero_samples_exits_2(self, tiny_cfg_path, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                   "--config", tiny_cfg_path, "--samples", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "error: samples must be >= 1, got 0\n"


class TestSuiteCommands:
    def test_layout_test_passes(self, capsys):
        assert main(["layout-test"]) == 0
        out = capsys.readouterr().out
        assert "layout round-trips p=1: ok" in out
        assert "FAIL" not in out

    def test_gradcheck_plumbing_pass(self, monkeypatch, capsys):
        fake = [CheckResult("linear", True), CheckResult("conv2d", True, "max 1e-9")]
        monkeypatch.setattr("segnetr.cli.gradient_suite", lambda: fake)
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck linear: ok" in out
        assert "gradcheck conv2d: ok  max 1e-9" in out

    def test_gradcheck_plumbing_fail(self, monkeypatch, capsys):
        fake = [CheckResult("linear", True), CheckResult("softmax", False, "max 0.2")]
        monkeypatch.setattr("segnetr.cli.gradient_suite", lambda: fake)
        assert main(["gradcheck"]) == 1
        captured = capsys.readouterr()
        assert "gradcheck softmax: FAIL  max 0.2" in captured.out
        assert "1 gradcheck check(s) failed" in captured.err

    @pytest.mark.parametrize("procs, noun", [(2, "2 processes"), (1, "1 process")])
    def test_gradcheck_reports_its_processes(self, monkeypatch, capsys, procs, noun):
        monkeypatch.setattr("segnetr.cli.gradient_suite", lambda: [CheckResult("linear", True)])
        monkeypatch.setattr("segnetr.cli.worker_count", lambda: procs)
        assert main(["gradcheck"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(rf"gradient suite finished in \d+\.\ds \({noun}\)", last), last

    def test_gradcheck_has_no_precision_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--f64"])
        assert exc.value.code == 2

    def test_layout_plumbing_fail(self, monkeypatch, capsys):
        fake = [CheckResult("round-trips p=2", False, "mismatch")]
        monkeypatch.setattr("segnetr.cli.layout_suite", lambda: fake)
        assert main(["layout-test"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestAblate:
    def test_two_modes_small(self, tiny_cfg_path, capsys):
        rc = main(["ablate", "--config", tiny_cfg_path,
                   "--modes", "without,parallel", "--steps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mode" in out and "params" in out
        assert "without" in out and "parallel" in out

    def test_zero_steps_exits_2(self, tiny_cfg_path, capsys):
        rc = main(["ablate", "--config", tiny_cfg_path, "--modes", "without", "--steps", "0"])
        assert rc == 2
        assert capsys.readouterr().err == "error: steps must be >= 1, got 0\n"

    def test_empty_mode_list_exits_2(self, tiny_cfg_path, capsys):
        rc = main(["ablate", "--config", tiny_cfg_path, "--modes", ",", "--steps", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --modes must name at least one interaction mode, got ','\n"

    def test_unknown_mode_exits_2(self, tiny_cfg_path, capsys):
        rc = main(["ablate", "--config", tiny_cfg_path, "--modes", "bogus"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSeedOverride:
    def test_env_overrides_config_seed(self, tiny_cfg_path, monkeypatch):
        monkeypatch.setenv("SEGNETR_SEED", "123")
        cfg = _load_config(tiny_cfg_path, ModelConfig())
        assert cfg.seed == 123

    def test_env_absent_keeps_config_seed(self, tiny_cfg_path, monkeypatch):
        monkeypatch.delenv("SEGNETR_SEED", raising=False)
        cfg = _load_config(tiny_cfg_path, ModelConfig())
        assert cfg.seed == 3

    def test_non_integer_env_exits_2(self, tiny_cfg_path, monkeypatch, capsys):
        monkeypatch.setenv("SEGNETR_SEED", "x1")
        assert main(["summarize", "--config", tiny_cfg_path]) == 2
        assert "SEGNETR_SEED must be an integer" in capsys.readouterr().err

    def test_negative_env_seed_exits_2(self, tiny_cfg_path, monkeypatch, capsys):
        monkeypatch.setenv("SEGNETR_SEED", "-5")
        assert main(["summarize", "--config", tiny_cfg_path]) == 2
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -5\n"

    def test_env_seed_wins_over_config_seed(self, tiny_cfg_path, tmp_path, monkeypatch):
        # two configs that differ only in their file seed produce identical
        # checkpoints when SEGNETR_SEED overrides both
        other = tmp_path / "other.json"
        other.write_text(
            ModelConfig(base_channels=4, resolution=32, num_classes=2,
                        seed=99).to_json(),
            encoding="utf-8")

        def ckpt_bytes(cfg_path, out_name, env_seed):
            if env_seed is None:
                monkeypatch.delenv("SEGNETR_SEED", raising=False)
            else:
                monkeypatch.setenv("SEGNETR_SEED", env_seed)
            out_dir = tmp_path / out_name
            assert main(["train", "--config", cfg_path, "--steps", "1",
                         "--batch-size", "2", "--out", str(out_dir)]) == 0
            return (out_dir / "model.ckpt").read_bytes()

        a = ckpt_bytes(tiny_cfg_path, "a", "123")
        b = ckpt_bytes(str(other), "b", "123")
        c = ckpt_bytes(tiny_cfg_path, "c", None)
        assert a == b
        assert a != c
