import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

import weldlab.cart
import weldlab.ensemble
import weldlab.pipeline
from weldlab.cli import main
from weldlab.dataset import builtin_aa6262, write_csv
from weldlab.pipeline import (
    ReportDocument,
    RunConfig,
    render,
    report_json,
    report_text,
    run_pipeline,
)
from weldlab.taguchi import DegenerateFactorError

from conftest import make_dataset


@pytest.fixture(scope="module")
def default_doc() -> ReportDocument:
    return run_pipeline(RunConfig(trees=40, seed=0))


class TestRunConfig:
    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            RunConfig(input_path="x.csv", builtin="aa6262")
        with pytest.raises(ValueError):
            RunConfig(input_path=None, builtin=None)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            RunConfig(builtin="aa7075")

    @pytest.mark.parametrize("bad", [
        "half", "k:1", "k:0", "k:", "k: 3", "k:3 ", "k:3\n", "k:+3", "k:-3",
        "k:\u0663", "k:1_0", "k:03", "K:3", "k:3.0",
    ])
    def test_cv_spec_validated(self, bad):
        """A fold count has one spelling, since the report echoes the spec."""
        with pytest.raises(ValueError):
            RunConfig(cv=bad)
        RunConfig(cv="k:3")
        RunConfig(cv="k:10")
        RunConfig(cv="loo")

    @pytest.mark.parametrize(
        "bad",
        [
            {"trees": 0}, {"rounds": -1}, {"depth": -1}, {"m": 0}, {"m": 4},
            {"nu": 0.0}, {"nu": 1.5}, {"nu": float("nan")}, {"lam": -0.5},
            {"lam": float("inf")},
            {"seed": -1}, {"seed": 2**64},
        ],
    )
    def test_model_settings_validated(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**bad)

    @pytest.mark.parametrize("field", ["trees", "rounds", "depth", "seed", "m"])
    @pytest.mark.parametrize("value", [True, np.bool_(True), 1.5, 2.0, "3"])
    def test_non_integer_model_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field", ["nu", "lam"])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", None])
    def test_non_real_model_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            RunConfig(model="gbm", **{field: value})

    def test_bool_learning_rate_and_penalty_rejected(self):
        with pytest.raises(ValueError, match="^nu "):
            RunConfig(model="gbm", nu=True, lam=False)

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError, match="criterion"):
            RunConfig(criterion="bogus")
        for criterion in ("larger", "smaller", "nominal"):
            RunConfig(criterion=criterion)

    def test_numpy_integer_model_settings_become_ints(self):
        cfg = RunConfig(trees=np.int64(5), rounds=np.int32(2),
                        depth=np.uint8(1), seed=np.uint64(2**64 - 1),
                        m=np.int16(2))
        assert cfg == RunConfig(trees=5, rounds=2, depth=1, seed=2**64 - 1, m=2)
        for name in ("trees", "rounds", "depth", "seed", "m"):
            assert type(getattr(cfg, name)) is int

    @pytest.mark.parametrize("field, value, plain", [
        ("nu", np.float32(0.5), 0.5), ("lam", np.int64(1), 1),
    ])
    def test_numpy_reals_written_as_python_numbers(self, field, value, plain):
        cfg = RunConfig(model="gbm", rounds=3, **{field: value})
        assert type(getattr(cfg, field)) is type(plain)
        assert report_json(run_pipeline(cfg)) == report_json(
            run_pipeline(RunConfig(model="gbm", rounds=3, **{field: plain})))

    def test_model_setting_bounds_accepted(self):
        RunConfig(trees=1, rounds=0, depth=0, m=1, nu=1.0, lam=0.0, seed=0)
        RunConfig(m=3, seed=2**64 - 1)


class TestRunPipeline:
    def test_all_stages_succeed(self, default_doc):
        assert set(default_doc.sections) == {
            "dataset", "design", "taguchi", "anova", "model", "tree"
        }
        assert default_doc.errors == {}

    def test_non_orthogonality_warning_present(self, default_doc):
        assert any(
            "traverse_mm_min" in w and "plan_depth_mm" in w
            for w in default_doc.warnings
        )

    def test_honest_sst_and_published_discrepancy(self, default_doc):
        total = default_doc.sections["anova"]["total"]["adj_ss"]
        assert total == pytest.approx(177.736, abs=0.01)
        entries = [d for d in default_doc.discrepancies if "370.963" in d.published]
        assert len(entries) == 1

    def test_optimum_discrepancy_logged(self, default_doc):
        """The published levels maximize hardness, so only a larger-is-better
        optimum is compared with them."""
        topics = [d.topic for d in default_doc.discrepancies]
        assert "optimal level combination" in topics
        smaller = run_pipeline(RunConfig(criterion="smaller", trees=5))
        assert "optimal level combination" not in [
            d.topic for d in smaller.discrepancies]

    def test_seed_recorded_in_report(self, default_doc):
        payload = json.loads(report_json(default_doc))
        assert payload["config"]["seed"] == 0
        assert payload["sections"]["model"]["spec"]["seed"] == 0

    def test_csv_input_equivalent_to_builtin(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(builtin_aa6262(), path)
        doc = run_pipeline(
            RunConfig(input_path=str(path), builtin=None, trees=10, seed=1)
        )
        assert doc.sections["anova"]["total"]["adj_ss"] == pytest.approx(
            177.736, abs=0.01
        )

    def test_exact_fit_keeps_anova_section(self, tmp_path):
        """An exact fit (SSE 0, 4 error DF) leaves F and p undefined: the
        ANOVA section and model summary are written with them null."""
        cells = [(800, 40, 0.1, 5.0), (800, 50, 0.2, 6.0),
                 (900, 40, 0.2, 9.0), (900, 50, 0.1, 10.0)]
        path = tmp_path / "exact.csv"
        write_csv(make_dataset(cells + cells), path)
        doc = run_pipeline(RunConfig(input_path=str(path), builtin=None, trees=5))
        assert doc.errors == {}
        section = doc.sections["anova"]
        assert [(r["f_value"], r["p_value"]) for r in section["rows"]] == [
            (None, None)] * 3
        assert section["model_summary"]["r_sq"] == 1.0

    def test_missing_csv_raises_oserror(self):
        with pytest.raises(OSError):
            run_pipeline(RunConfig(input_path="/nonexistent/f.csv", builtin=None))

    def test_gbm_model_stage(self):
        doc = run_pipeline(RunConfig(model="gbm", rounds=10, depth=3, seed=2))
        assert doc.sections["model"]["spec"]["kind"] == "gbm"
        assert doc.errors == {}

    def test_gbm_report_writes_m_as_null(self):
        """Boosted trees search every feature, so `m` would only echo an
        unused flag."""
        with_m = report_json(run_pipeline(RunConfig(model="gbm", rounds=3, m=2)))
        doc = json.loads(with_m)
        assert doc["config"]["m"] is None
        assert doc["sections"]["model"]["spec"]["m"] is None
        assert with_m == report_json(run_pipeline(RunConfig(model="gbm", rounds=3)))

    def test_nominal_criterion_annotates_not_aborts(self):
        # single-replicate runs cannot produce a nominal-is-best S/N
        doc = run_pipeline(RunConfig(criterion="nominal", trees=5))
        assert "taguchi" in doc.errors
        assert "anova" in doc.sections  # later stages still ran


class TestModelStageCalls:
    """The call shape of the model stage on each path."""

    def test_every_feature_report_bootstraps_and_builds_per_tree(
        self, monkeypatch
    ):
        """m == p: 200 trees x (final forest + 9 leave-one-out folds), each
        bootstrapped and read back by `build_tree`, plus the CART stage."""
        calls = Counter()
        for module, name in ((weldlab.ensemble, "bootstrap_indices"),
                             (weldlab.ensemble, "build_tree"),
                             (weldlab.cart, "build_tree")):
            def wrapper(*args, real=getattr(module, name), name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        run_pipeline(RunConfig(seed=0))
        assert calls == {"bootstrap_indices": 2000, "build_tree": 2001}

    def test_subset_report_grows_every_forest_in_one_pass(self, monkeypatch):
        calls = []
        grow = weldlab.ensemble._grow_forests

        def recording(X, y, roots, cfg, lanes, m):
            calls.append(lanes.size)
            return grow(X, y, roots, cfg, lanes, m)

        monkeypatch.setattr(weldlab.ensemble, "_grow_forests", recording)
        monkeypatch.setattr(weldlab.ensemble, "bootstrap_indices", None)
        doc = run_pipeline(RunConfig(trees=40, m=2, cv="k:3", seed=5))
        assert doc.errors == {}
        assert calls == [40 * 4]


# The library call each analysis stage makes first.
STAGE_CALLS = {
    "design": (weldlab.pipeline, "check_design"),
    "taguchi": (weldlab.pipeline, "response_table"),
    "anova": (weldlab.pipeline.anova_mod, "fit_glm"),
    "model": (weldlab.pipeline, "_fit_and_validate"),
    "tree": (weldlab.pipeline, "fit_regression_tree"),
}


class TestStageIsolation:
    @staticmethod
    def _break(monkeypatch, stage, exc):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(*STAGE_CALLS[stage], broken)

    @pytest.mark.parametrize("error", [ValueError, ArithmeticError,
                                       DegenerateFactorError, ZeroDivisionError])
    @pytest.mark.parametrize("stage", list(STAGE_CALLS))
    def test_domain_failure_recorded_under_its_stage(
        self, monkeypatch, capsys, stage, error
    ):
        """The record names the exception's own class, subclasses too, in
        the document, both reports and the CLI's stderr line."""
        self._break(monkeypatch, stage, error("broken stage"))
        doc = run_pipeline(RunConfig(trees=5))
        message = f"{error.__name__}: broken stage"
        assert doc.errors == {stage: message}
        assert set(doc.sections) == {"dataset", *STAGE_CALLS} - {stage}
        assert f"- {stage}: {message}" in report_text(doc)
        assert json.loads(report_json(doc))["errors"] == {stage: message}
        assert main(["report", "--trees", "5"]) == 0
        assert f"weldlab: stage {stage} failed: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", list(STAGE_CALLS))
    def test_programming_error_propagates(self, monkeypatch, stage):
        self._break(monkeypatch, stage, TypeError("broken stage"))
        with pytest.raises(TypeError, match="broken stage"):
            run_pipeline(RunConfig(trees=5))


class TestDeterminism:
    def test_json_report_byte_identical_across_runs(self):
        cfg = RunConfig(trees=30, seed=5)
        a = report_json(run_pipeline(cfg))
        b = report_json(run_pipeline(cfg))
        assert a == b

    def test_different_seeds_differ(self):
        a = report_json(run_pipeline(RunConfig(trees=30, seed=1)))
        b = report_json(run_pipeline(RunConfig(trees=30, seed=2)))
        assert a != b


def config_from_report(block: dict) -> RunConfig:
    """The `RunConfig` that a JSON report's `config` block records: the
    `input` label back to `input_path` and `builtin`, `lambda` back to `lam`,
    and `response` (always the dataset's) dropped."""
    fields = {k: v for k, v in block.items() if k not in ("input", "response")}
    fields["lam"] = fields.pop("lambda")
    label = block["input"]
    if label.startswith("builtin:"):
        return RunConfig(**fields, input_path=None,
                         builtin=label.removeprefix("builtin:"))
    return RunConfig(**fields, input_path=label, builtin=None)


class TestReplayRecord:
    """Every report carries the settings that replay it."""

    @pytest.fixture(params=["default", "csv-rf-m2-k3", "gbm-lam1"])
    def cfg(self, request, tmp_path, monkeypatch) -> RunConfig:
        monkeypatch.chdir(tmp_path)
        write_csv(builtin_aa6262(), "runs.csv")
        return {
            "default": RunConfig(),
            "csv-rf-m2-k3": RunConfig(input_path="runs.csv", builtin=None,
                                      model="rf", m=2, cv="k:3"),
            "gbm-lam1": RunConfig(model="gbm", lam=1.0),
        }[request.param]

    def test_config_block_replays_the_report(self, cfg):
        doc = run_pipeline(cfg)
        replay = config_from_report(json.loads(report_json(doc))["config"])
        assert replay == cfg
        again = run_pipeline(replay)
        assert report_json(again) == report_json(doc)
        assert report_text(again) == report_text(doc)

    def test_config_block_is_every_field(self, default_doc):
        """A field added to `RunConfig` is echoed without a writer change."""
        names = {f.name for f in dataclasses.fields(RunConfig)}
        block = json.loads(report_json(default_doc))["config"]
        assert set(block) == (names - {"input_path", "builtin", "lam"}) | {
            "input", "lambda", "response"}

    @pytest.mark.parametrize("option", [{"format": "json"}, {"out_dir": "out"}])
    def test_output_options_are_not_settings(self, option):
        with pytest.raises(TypeError):
            RunConfig(**option)


class TestRender:
    def test_json_render_twice_byte_identical(self, default_doc, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        render(default_doc, "json", out1)
        render(default_doc, "json", out2)
        assert (out1 / "report.json").read_bytes() == (
            out2 / "report.json"
        ).read_bytes()

    def test_text_anova_header_columns(self, default_doc):
        text = report_text(default_doc)
        assert "Source" in text
        header_line = next(
            line for line in text.splitlines() if line.startswith("Source")
        )
        for col in ("DF", "Adjusted SS", "Adjusted MS", "F-Value", "P-Value"):
            assert col in header_line

    def test_csv_render_section_files(self, default_doc, tmp_path):
        files = render(default_doc, "csv", tmp_path / "csvout")
        names = {p.name for p in files}
        assert {
            "dataset_summary.csv", "response_table.csv", "anova.csv",
            "model_summary.csv", "model_metrics.csv", "design_diagnostics.json",
            "discrepancies.csv", "tree.txt", "tree.dot",
        } <= names

    def test_response_table_csv_schema(self, default_doc, tmp_path):
        render(default_doc, "csv", tmp_path)
        lines = (tmp_path / "response_table.csv").read_text().splitlines()
        assert lines[0] == "factor,level_index,level,raw_mean,sn_mean"
        assert len(lines) == 10  # header + 3 factors x 3 levels

    def test_plot_data_written_for_all_formats(self, default_doc, tmp_path):
        for fmt in ("text", "json", "csv"):
            out = tmp_path / fmt
            files = {p.name for p in render(default_doc, fmt, out)}
            assert {
                "plot_main_effects.csv", "plot_sn_means.csv",
                "plot_feature_importance.csv",
            } <= files

    def test_anova_csv_header_row(self, default_doc, tmp_path):
        render(default_doc, "csv", tmp_path / "c")
        first = (tmp_path / "c" / "anova.csv").read_text().splitlines()[0]
        assert first == "Source,DF,Adjusted SS,Adjusted MS,F-Value,P-Value"

    def test_unknown_format_rejected(self, default_doc, tmp_path):
        with pytest.raises(ValueError):
            render(default_doc, "xml", tmp_path)
