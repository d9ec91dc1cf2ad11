import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weldlab.cli
import weldlab.ensemble
from weldlab.cli import EXIT_ALL_FAILED, EXIT_IO, EXIT_OK, main, run
from weldlab.dataset import Dataset, builtin_aa6262, write_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReportCommand:
    def test_default_builtin_text(self, capsys):
        code, out, err = run_cli(capsys, "report", "--trees", "20")
        assert code == EXIT_OK
        assert "Analysis of Variance" in out
        assert "Discrepancies" in out
        assert "not orthogonal" in out

    def test_json_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--trees", "10", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["config"]["seed"] == 0
        assert "anova" in payload["sections"]

    def test_out_dir_writes_files(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "report", "--trees", "10", "--format", "json",
            "--out", str(tmp_path / "r"),
        )
        assert code == EXIT_OK
        assert (tmp_path / "r" / "report.json").exists()
        assert (tmp_path / "r" / "plot_feature_importance.csv").exists()

    def test_csv_format_requires_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--format", "csv"])
        assert exc.value.code == 2

    def test_csv_format_without_out_rejected_before_compute(self, monkeypatch):
        def no_compute(cfg):
            raise AssertionError("pipeline ran without an output directory")

        monkeypatch.setattr("weldlab.cli.run_pipeline", no_compute)
        with pytest.raises(SystemExit) as exc:
            main(["report", "--format", "csv"])
        assert exc.value.code == 2

    def test_missing_input_io_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "report", "--input", str(tmp_path / "nope.csv")
        )
        assert code == EXIT_IO
        assert "I/O error" in err
        # no partial outputs anywhere
        assert list(tmp_path.iterdir()) == []

    def test_csv_input(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(builtin_aa6262(), path)
        code, out, _ = run_cli(
            capsys, "report", "--input", str(path), "--trees", "10"
        )
        assert code == EXIT_OK
        assert "177.736" in out


class TestSubcommands:
    def test_taguchi_sections_only(self, capsys):
        code, out, _ = run_cli(capsys, "taguchi", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload["sections"]) == {"dataset", "design", "taguchi"}

    def test_anova_sections_only(self, capsys):
        code, out, _ = run_cli(capsys, "anova", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload["sections"]) == {"dataset", "anova"}

    def test_fit_rf(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--model", "rf", "--trees", "15", "--seed", "3",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["sections"]["model"]["spec"]["trees"] == 15

    def test_fit_gbm_with_hyperparams(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--model", "gbm", "--rounds", "8", "--depth", "3",
            "--nu", "0.5", "--lambda", "1.0", "--cv", "k:3", "--format", "json",
        )
        assert code == EXIT_OK
        spec = json.loads(out)["sections"]["model"]["spec"]
        assert spec["rounds"] == 8
        assert spec["nu"] == 0.5
        assert spec["lambda"] == 1.0

    def test_taguchi_criterion_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "taguchi", "--criterion", "smaller", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["config"]["criterion"] == "smaller"
        # Nominal-is-best needs replicates, and a CLI run has one response
        # per run: the parser refuses it before anything is computed.
        for command in ("taguchi", "report"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--criterion", "nominal"])
            assert exc.value.code == 2
            assert "invalid choice: 'nominal'" in capsys.readouterr().err

    def test_builtin_flag_is_gone(self, capsys):
        # The embedded dataset is the default when --input is absent.
        with pytest.raises(SystemExit) as exc:
            main(["report", "--builtin", "aa6262"])
        assert exc.value.code == 2
        assert "--builtin" in capsys.readouterr().err

    @pytest.mark.parametrize("command, code, failed", [
        ("anova", EXIT_ALL_FAILED,
         "anova failed: ValueError: model needs 3 parameters"),
        ("fit", EXIT_ALL_FAILED,
         "model failed: ValueError: fold 0 leaves only 1 training run"),
        ("taguchi", EXIT_OK,
         "taguchi failed: DegenerateFactorError: factor 'rpm' has a single level"),
    ])
    def test_exit_3_when_every_printed_stage_fails(
        self, capsys, tmp_path, command, code, failed
    ):
        # Two runs: too few for the ANOVA model or leave-one-out folds, and
        # one rpm level, but the design diagnostics of `taguchi` still run.
        path = tmp_path / "two.csv"
        write_csv(Dataset(runs=builtin_aa6262().runs[:2]), path)
        got, out, err = run_cli(capsys, command, "--input", str(path))
        assert got == code
        assert f"weldlab: stage {failed}" in err
        assert (out == "") == (code == EXIT_ALL_FAILED)

    def test_unknown_command_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cv", ["sometimes", "k: 3", "k:+3", "k:\u0663",
                                    "k:1_0"])
    def test_bad_cv_usage_error(self, capsys, cv):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--cv", cv])
        assert exc.value.code == 2
        assert "bad CV spec" in capsys.readouterr().err


class TestBadModelConfig:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--trees", "0"], ["--rounds", "-1"], ["--depth", "-1"],
            ["--m", "0"], ["--m", "4"], ["--nu", "0"], ["--nu", "1.5"],
            ["--lambda", "-1"], ["--lambda", "inf"], ["--seed", "-1"],
            ["--seed", str(2**64)],
        ],
    )
    def test_usage_error_before_any_compute(self, monkeypatch, flags):
        def no_compute(cfg):
            raise AssertionError("pipeline ran on a bad config")

        monkeypatch.setattr("weldlab.cli.run_pipeline", no_compute)
        with pytest.raises(SystemExit) as exc:
            main(["fit", *flags])
        assert exc.value.code == 2

    def test_taguchi_rejects_negative_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["taguchi", "--seed", "-1"])
        assert exc.value.code == 2
        assert "seed" in capsys.readouterr().err


class TestFoldPlanFirst:
    @pytest.mark.parametrize("flags", [[], ["--m", "2"], ["--model", "gbm"]])
    def test_bad_fold_count_fails_before_any_tree_grows(self, capsys,
                                                         monkeypatch, flags):
        def refuse(*args, **kwargs):
            raise AssertionError("a model tree grew before the fold plan")

        for name in ("_grow_forests", "build_tree"):
            monkeypatch.setattr(weldlab.ensemble, name, refuse)
        code, out, err = run_cli(capsys, "fit", "--cv", "k:10", *flags)
        assert code == EXIT_ALL_FAILED
        assert out == ""
        assert err == ("weldlab: stage model failed: ValueError: fold count must satisfy "
                       "2 <= k <= n, got k=10, n=9\n")


class TestDeterminismViaCli:
    def test_same_seed_same_json(self, capsys):
        _, out1, _ = run_cli(
            capsys, "report", "--trees", "20", "--seed", "9", "--format", "json"
        )
        _, out2, _ = run_cli(
            capsys, "report", "--trees", "20", "--seed", "9", "--format", "json"
        )
        assert out1 == out2


class TestEntryPoint:
    """`run`, the `weldlab` command, freezes the import-time heap before
    `main`; `main`, which tests call in process, does not."""

    def test_run_freezes_then_exits_with_the_code_of_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(weldlab.cli, "main",
                            lambda: calls.append("main") or EXIT_ALL_FAILED)
        with pytest.raises(SystemExit) as exit_:
            run()
        assert exit_.value.code == EXIT_ALL_FAILED
        assert calls == ["freeze", "main"]

    def test_main_leaves_the_heap_unfrozen(self, capsys):
        frozen = gc.get_freeze_count()
        assert run_cli(capsys, "fit", "--trees", "5")[0] == EXIT_OK
        assert gc.get_freeze_count() == frozen

    def test_a_module_process_prints_what_main_prints(self, capsys):
        argv = ["report", "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        src = str(Path(weldlab.cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-m", "weldlab.cli", *argv],
                              capture_output=True, env=env)
        assert (proc.returncode, proc.stdout) == (code, out.encode())
