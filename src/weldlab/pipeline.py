"""Full analysis pipeline and report rendering.

Stages run in order (dataset -> design/taguchi -> ANOVA -> models); a
failure in one stage is recorded in the report instead of aborting the
rest.  Every report embeds the seed and hyperparameters needed to replay
it, and a discrepancy section surfaces where the published tables disagree
with what the embedded data actually give.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import anova as anova_mod
from . import published
from .cart import TreeConfig, export_tree, fit_regression_tree
from .dataset import FACTOR_NAMES, builtin_aa6262, kfold_plan, load_csv, summarize
from .ensemble import (
    ModelSpec,
    cross_validate,
    feature_importance,
    fit_model,
    predict_ensemble_many,
    regression_metrics,
)
from .taguchi import (
    check_design,
    diagnostics_to_json_dict,
    optimal_combination,
    response_table,
    response_table_rows,
)

FORMATS = ("text", "csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """Explicit configuration for one pipeline run (no hidden defaults)."""

    input_path: str | None = None  # None -> builtin dataset
    builtin: str | None = "aa6262"
    response: str = "hardness"
    criterion: str = "larger"
    model: str = "rf"  # "rf" | "gbm"
    trees: int = 200
    rounds: int = 50
    depth: int = 0  # 0 = unlimited
    nu: float = 0.3
    lam: float = 0.0
    m: int | None = None
    cv: str = "loo"  # "loo" | "k:<K>"
    seed: int = 0
    format: str = "text"
    out_dir: str | None = None

    def __post_init__(self):
        if (self.input_path is None) == (self.builtin is None):
            raise ValueError("exactly one input source (CSV path or builtin)")
        if self.builtin is not None and self.builtin != "aa6262":
            raise ValueError(f"unknown builtin dataset {self.builtin!r}")
        if self.response != "hardness":
            raise ValueError("the fixed CSV schema supports only response 'hardness'")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if self.model not in ("rf", "gbm"):
            raise ValueError("model must be 'rf' or 'gbm'")
        # Model settings fail here, before any compute, not as a stage error.
        if self.trees < 1:
            raise ValueError(f"tree count must be >= 1, got {self.trees}")
        if self.rounds < 0:
            raise ValueError(f"round count must be >= 0, got {self.rounds}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        n_factors = len(FACTOR_NAMES)
        if self.m is not None and not 1 <= self.m <= n_factors:
            raise ValueError(f"m must be in [1, {n_factors}], got {self.m}")
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"learning rate must be in (0, 1], got {self.nu}")
        if not self.lam >= 0.0:
            raise ValueError(f"L2 leaf penalty must be >= 0, got {self.lam}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")
        _parse_cv(self.cv)  # validate early


def _parse_cv(spec: str) -> int | None:
    """Returns fold count, or None for leave-one-out."""
    if spec == "loo":
        return None
    if spec.startswith("k:"):
        try:
            k = int(spec[2:])
        except ValueError:
            raise ValueError(f"bad CV spec {spec!r}; use 'loo' or 'k:<K>'") from None
        if k < 2:
            raise ValueError("CV fold count must be >= 2")
        return k
    raise ValueError(f"bad CV spec {spec!r}; use 'loo' or 'k:<K>'")


@dataclass
class ReportDocument:
    """All pipeline outputs plus per-stage errors and the discrepancy log."""

    config: RunConfig
    sections: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)  # stage -> message
    warnings: list = field(default_factory=list)
    discrepancies: list = field(default_factory=list)

    @property
    def succeeded_stages(self) -> tuple[str, ...]:
        return tuple(self.sections)


def _model_spec(cfg: RunConfig) -> ModelSpec:
    tree_cfg = TreeConfig(max_depth=cfg.depth)
    return ModelSpec(
        kind=cfg.model,
        config=tree_cfg,
        trees=cfg.trees,
        m=cfg.m,
        rounds=cfg.rounds,
        nu=cfg.nu,
        lam=cfg.lam,
        seed=cfg.seed,
    )


def run_pipeline(cfg: RunConfig) -> ReportDocument:
    """Execute dataset -> taguchi -> anova -> model stages on one config."""
    doc = ReportDocument(config=cfg)

    # Dataset stage: a failure here is fatal (nothing downstream can run).
    if cfg.input_path is not None:
        d = load_csv(cfg.input_path)
    else:
        d = builtin_aa6262()
    stats = summarize(d)
    doc.sections["dataset"] = {
        "n_runs": len(d),
        "columns": list(stats.columns),
        "min": list(stats.minimum),
        "max": list(stats.maximum),
        "mean": list(stats.mean),
        "std_population": list(stats.std),
        "correlation": [
            [None if math.isnan(v) else v for v in row] for row in stats.correlation
        ],
    }

    try:
        diag = check_design(d)
        doc.sections["design"] = diagnostics_to_json_dict(diag)
        for pair in diag.non_orthogonal_pairs():
            doc.warnings.append(
                f"design is not orthogonal for the pair ({pair[0]}, {pair[1]}); "
                "level means remain interpretable but effects are partially "
                "confounded"
            )
    except Exception as exc:
        doc.errors["design"] = str(exc)

    try:
        table = response_table(d, criterion=cfg.criterion)
        raw_best = optimal_combination(table, basis="raw")
        sn_best = optimal_combination(table, basis="s_n")
        doc.sections["taguchi"] = {
            "criterion": cfg.criterion,
            "grand_mean": table.grand_mean,
            "rows": response_table_rows(table),
            "delta": {
                e.factor: {"raw": e.delta, "rank_raw": e.rank} for e in table.raw
            },
            "delta_sn": {
                e.factor: {"s_n": e.delta, "rank_sn": e.rank} for e in table.s_n
            },
            "optimal_raw": [
                {"factor": c.factor, "level_index": c.level_index,
                 "level": c.level_value, "mean": c.mean}
                for c in raw_best
            ],
            "optimal_sn": [
                {"factor": c.factor, "level_index": c.level_index,
                 "level": c.level_value, "mean": c.mean}
                for c in sn_best
            ],
        }
        if cfg.builtin == "aa6262":
            got = tuple(c.level_index for c in raw_best)
            if got != published.PUBLISHED_OPTIMAL_LEVELS:
                doc.discrepancies.append(
                    published.Discrepancy(
                        topic="optimal level combination",
                        published="levels "
                        + "/".join(str(v) for v in published.PUBLISHED_OPTIMAL_LEVELS)
                        + " (1200 rpm, 50 mm/min, 0.3 mm)",
                        computed="levels "
                        + "/".join(str(v) for v in got)
                        + " ("
                        + ", ".join(f"{c.factor}={c.level_value:g}" for c in raw_best)
                        + ")",
                        note="argmax of the level means over the embedded runs; "
                        "the run with maximum hardness (74.2) sits at "
                        "1000 rpm / 60 mm/min / 0.1 mm",
                    )
                )
    except Exception as exc:
        doc.errors["taguchi"] = str(exc)

    try:
        fit = anova_mod.fit_glm(d)
        table = anova_mod.anova_table(fit)
        summary = anova_mod.model_summary(fit)
        doc.sections["anova"] = {
            "rows": [
                {
                    "source": r.source, "df": r.df, "adj_ss": _sig6(r.adj_ss),
                    "adj_ms": _sig6(r.adj_ms), "f_value": _sig6(r.f_value),
                    "p_value": _sig6(r.p_value),
                }
                for r in table.rows
            ],
            "error": {"source": "Error", "df": table.error.df,
                      "adj_ss": _sig6(table.error.adj_ss),
                      "adj_ms": _sig6(table.error.adj_ms)},
            "total": {"source": "Total", "df": table.total.df,
                      "adj_ss": _sig6(table.total.adj_ss)},
            "significant": list(table.significant_sources()),
            "model_summary": {
                "s": _sig6(summary.s),
                "r_sq": _sig6(summary.r_sq),
                "r_sq_adjusted": _sig6(summary.r_sq_adjusted),
                "r_sq_predicted": _sig6(summary.r_sq_predicted),
                "press": _sig6(summary.press),
            },
        }
        if cfg.builtin == "aa6262":
            doc.discrepancies.append(
                published.Discrepancy(
                    topic="total sum of squares",
                    published=f"{published.PUBLISHED_TOTAL_SS}",
                    computed=f"{fit.sst:.6g}",
                    note="the published ANOVA total cannot be derived from the "
                    "9 published runs; it implies unpublished replicate data, "
                    "so this table reports the honest decomposition of the "
                    "embedded runs",
                )
            )
    except Exception as exc:
        doc.errors["anova"] = str(exc)

    try:
        spec = _model_spec(cfg)
        model = fit_model(d, spec)
        y = d.responses()
        train_pred = predict_ensemble_many(model, d.features())
        train_metrics = regression_metrics(y, train_pred)
        k = _parse_cv(cfg.cv)
        plan = kfold_plan(len(d), len(d) if k is None else k, cfg.seed)
        cv = cross_validate(d, spec, plan)
        importance = feature_importance(model)
        doc.sections["model"] = {
            "spec": {
                "kind": spec.kind, "trees": spec.trees, "m": spec.m,
                "bootstrap": spec.bootstrap, "rounds": spec.rounds,
                "nu": spec.nu, "lambda": spec.lam, "seed": spec.seed,
                "max_depth": spec.config.max_depth,
                "min_samples_leaf": spec.config.min_samples_leaf,
                "cv": cfg.cv,
            },
            "training": _metrics_dict(train_metrics),
            "cv_pooled": _metrics_dict(cv.pooled),
            "cv_folds": [
                None if m is None else _metrics_dict(m) for m in cv.fold_metrics
            ],
            "feature_importance": {
                name: importance.scores[i]
                for i, name in enumerate(d.factor_names)
            },
        }
        if cfg.builtin == "aa6262":
            pub = (
                published.PUBLISHED_RF_METRICS
                if cfg.model == "rf"
                else published.PUBLISHED_XGB_METRICS
            )
            doc.discrepancies.append(
                published.Discrepancy(
                    topic=f"{cfg.model} held-out metrics",
                    published=f"MSE={pub[0]}, MAE={pub[1]}, R^2={pub[2]}",
                    computed=f"MSE={cv.pooled.mse:.6g}, MAE={cv.pooled.mae:.6g}, "
                    f"R^2={_fmt_opt(cv.pooled.r_sq)} ({cfg.cv} CV, seed {cfg.seed})",
                    note="the published metrics never state their train/test "
                    "split, seed, or hyperparameters (9 samples), so they are "
                    "not reproducible targets; seeded cross-validation metrics "
                    "are reported instead",
                )
            )
    except Exception as exc:
        doc.errors["model"] = str(exc)

    try:
        tree = fit_regression_tree(d, TreeConfig(max_depth=cfg.depth))
        doc.sections["tree"] = {
            "text": export_tree(tree, "text", feature_names=d.factor_names),
            "graph": export_tree(tree, "graph", feature_names=d.factor_names),
        }
    except Exception as exc:
        doc.errors["tree"] = str(exc)

    return doc


def _fmt_opt(v) -> str:
    return "undefined" if v is None else f"{v:.6g}"


def _sig6(v):
    """Round to 6 significant digits (the emission contract for ANOVA numbers)."""
    if v is None:
        return None
    return float(f"{v:.6g}")


def _metrics_dict(m) -> dict:
    return {"mse": m.mse, "mae": m.mae, "r_sq": m.r_sq}


# --- rendering ------------------------------------------------------------


def report_json(doc: ReportDocument) -> str:
    """Single JSON document with stable key order (byte-identical per config)."""
    payload = {
        "config": {
            "input": doc.config.input_path or f"builtin:{doc.config.builtin}",
            "response": doc.config.response,
            "criterion": doc.config.criterion,
            "model": doc.config.model,
            "trees": doc.config.trees,
            "rounds": doc.config.rounds,
            "depth": doc.config.depth,
            "nu": doc.config.nu,
            "lambda": doc.config.lam,
            "m": doc.config.m,
            "cv": doc.config.cv,
            "seed": doc.config.seed,
        },
        "sections": doc.sections,
        "warnings": doc.warnings,
        "errors": doc.errors,
        "discrepancies": [dx.as_dict() for dx in doc.discrepancies],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _text_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c])
        for c in range(len(header))
    ]
    out = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in rows:
        out.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(out)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def report_text(doc: ReportDocument) -> str:
    """Human-readable report mirroring the familiar table layouts."""
    parts: list[str] = []
    cfg = doc.config
    parts.append("weldlab report")
    parts.append(
        f"input: {cfg.input_path or 'builtin:' + str(cfg.builtin)}   "
        f"seed: {cfg.seed}   model: {cfg.model}   cv: {cfg.cv}"
    )

    if "dataset" in doc.sections:
        s = doc.sections["dataset"]
        parts.append(f"\n== Dataset ({s['n_runs']} runs) ==")
        rows = [
            [c, _cell(s["min"][i]), _cell(s["max"][i]), _cell(s["mean"][i]),
             _cell(s["std_population"][i])]
            for i, c in enumerate(s["columns"])
        ]
        parts.append(_text_table(["Column", "Min", "Max", "Mean", "StdDev"], rows))

    if "design" in doc.sections:
        s = doc.sections["design"]
        parts.append("\n== Design diagnostics ==")
        parts.append(
            "balanced: "
            + ", ".join(f"{k}={'yes' if v else 'no'}" for k, v in s["balanced"].items())
        )
        parts.append(
            "orthogonal pairs: "
            + ", ".join(
                f"{k}={'yes' if v else 'no'}" for k, v in s["orthogonal_pairs"].items()
            )
        )

    if "taguchi" in doc.sections:
        s = doc.sections["taguchi"]
        parts.append("\n== Response table ==")
        rows = [
            [r["factor"], str(r["level_index"]), _cell(r["level"]),
             _cell(r["raw_mean"]), _cell(r["sn_mean"])]
            for r in s["rows"]
        ]
        parts.append(
            _text_table(["Factor", "Level", "Setting", "Mean", "S/N Mean"], rows)
        )
        parts.append(
            "optimal (raw means):  "
            + ", ".join(f"{c['factor']}={c['level']:g}" for c in s["optimal_raw"])
        )
        parts.append(
            "optimal (S/N means):  "
            + ", ".join(f"{c['factor']}={c['level']:g}" for c in s["optimal_sn"])
        )

    if "anova" in doc.sections:
        s = doc.sections["anova"]
        parts.append("\n== Analysis of Variance ==")
        rows = [
            [r["source"], str(r["df"]), _cell(r["adj_ss"]), _cell(r["adj_ms"]),
             _cell(r["f_value"]), _cell(r["p_value"])]
            for r in s["rows"]
        ]
        rows.append(
            ["Error", str(s["error"]["df"]), _cell(s["error"]["adj_ss"]),
             _cell(s["error"]["adj_ms"]), "", ""]
        )
        rows.append(["Total", str(s["total"]["df"]), _cell(s["total"]["adj_ss"]), "", "", ""])
        parts.append(
            _text_table(
                ["Source", "DF", "Adjusted SS", "Adjusted MS", "F-Value", "P-Value"],
                rows,
            )
        )
        ms = s["model_summary"]
        parts.append("\n== Model Summary ==")
        parts.append(
            _text_table(
                ["S", "R-sq", "R-sq(adj)", "R-sq(pred)"],
                [[_cell(ms["s"]), _pct(ms["r_sq"]), _pct(ms["r_sq_adjusted"]),
                  _pct(ms["r_sq_predicted"])]],
            )
        )
        if s["significant"]:
            parts.append("significant at 95%: " + ", ".join(s["significant"]))

    if "model" in doc.sections:
        s = doc.sections["model"]
        parts.append(f"\n== Model ({s['spec']['kind']}) ==")
        parts.append(
            _text_table(
                ["Split", "MSE", "MAE", "R-sq"],
                [
                    ["training", _cell(s["training"]["mse"]),
                     _cell(s["training"]["mae"]), _cell(s["training"]["r_sq"])],
                    [f"cv ({s['spec']['cv']})", _cell(s["cv_pooled"]["mse"]),
                     _cell(s["cv_pooled"]["mae"]), _cell(s["cv_pooled"]["r_sq"])],
                ],
            )
        )
        parts.append(
            "feature importance: "
            + ", ".join(f"{k}={_cell(v)}" for k, v in s["feature_importance"].items())
        )

    if "tree" in doc.sections:
        parts.append("\n== Decision tree ==")
        parts.append(doc.sections["tree"]["text"].rstrip("\n"))

    if doc.warnings:
        parts.append("\n== Warnings ==")
        parts.extend(f"- {w}" for w in doc.warnings)

    if doc.discrepancies:
        parts.append("\n== Discrepancies vs published tables ==")
        for dx in doc.discrepancies:
            parts.append(f"- {dx.topic}: published {dx.published}; computed {dx.computed}")
            parts.append(f"  note: {dx.note}")

    if doc.errors:
        parts.append("\n== Stage errors ==")
        parts.extend(f"- {stage}: {msg}" for stage, msg in doc.errors.items())

    return "\n".join(parts) + "\n"


def _pct(v) -> str:
    return "" if v is None else f"{100.0 * v:.6g}%"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def render(doc: ReportDocument, format: str, out_dir) -> list[Path]:
    """Write the report to `out_dir`; returns the files written.

    'text' and 'json' each produce a single document; 'csv' produces one
    file per section.  Plot-data CSVs (main effects, S/N means, feature
    importance) are written for every format.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if format == "text":
        p = out / "report.txt"
        p.write_text(report_text(doc), encoding="utf-8")
        written.append(p)
    elif format == "json":
        p = out / "report.json"
        p.write_text(report_json(doc), encoding="utf-8")
        written.append(p)
    elif format == "csv":
        written.extend(_render_csv_sections(doc, out))
    else:
        raise ValueError(f"format must be one of {FORMATS}")

    written.extend(_write_plot_data(doc, out))
    return written


def _render_csv_sections(doc: ReportDocument, out: Path) -> list[Path]:
    written = []
    if "dataset" in doc.sections:
        s = doc.sections["dataset"]
        p = out / "dataset_summary.csv"
        _write_csv(
            p,
            ["column", "min", "max", "mean", "std_population"],
            [
                [c, s["min"][i], s["max"][i], s["mean"][i], s["std_population"][i]]
                for i, c in enumerate(s["columns"])
            ],
        )
        written.append(p)
    if "design" in doc.sections:
        p = out / "design_diagnostics.json"
        p.write_text(
            json.dumps(doc.sections["design"], sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        written.append(p)
    if "taguchi" in doc.sections:
        s = doc.sections["taguchi"]
        p = out / "response_table.csv"
        _write_csv(
            p,
            ["factor", "level_index", "level", "raw_mean", "sn_mean"],
            [
                [r["factor"], r["level_index"], r["level"], r["raw_mean"], r["sn_mean"]]
                for r in s["rows"]
            ],
        )
        written.append(p)
    if "anova" in doc.sections:
        s = doc.sections["anova"]
        p = out / "anova.csv"
        rows = [
            [r["source"], r["df"], r["adj_ss"], r["adj_ms"], r["f_value"], r["p_value"]]
            for r in s["rows"]
        ]
        rows.append(["Error", s["error"]["df"], s["error"]["adj_ss"],
                     s["error"]["adj_ms"], None, None])
        rows.append(["Total", s["total"]["df"], s["total"]["adj_ss"], None, None, None])
        _write_csv(
            p, ["Source", "DF", "Adjusted SS", "Adjusted MS", "F-Value", "P-Value"], rows
        )
        written.append(p)
        ms = s["model_summary"]
        p = out / "model_summary.csv"
        _write_csv(
            p,
            ["S", "r_sq", "r_sq_adjusted", "r_sq_predicted"],
            [[ms["s"], ms["r_sq"], ms["r_sq_adjusted"], ms["r_sq_predicted"]]],
        )
        written.append(p)
    if "model" in doc.sections:
        s = doc.sections["model"]
        p = out / "model_metrics.csv"
        _write_csv(
            p,
            ["split", "mse", "mae", "r_sq"],
            [
                ["training", s["training"]["mse"], s["training"]["mae"],
                 s["training"]["r_sq"]],
                [f"cv:{s['spec']['cv']}", s["cv_pooled"]["mse"],
                 s["cv_pooled"]["mae"], s["cv_pooled"]["r_sq"]],
            ],
        )
        written.append(p)
    if "tree" in doc.sections:
        p = out / "tree.txt"
        p.write_text(doc.sections["tree"]["text"], encoding="utf-8")
        written.append(p)
        p = out / "tree.dot"
        p.write_text(doc.sections["tree"]["graph"], encoding="utf-8")
        written.append(p)
    if doc.discrepancies:
        p = out / "discrepancies.csv"
        _write_csv(
            p,
            ["topic", "published", "computed", "note"],
            [[dx.topic, dx.published, dx.computed, dx.note] for dx in doc.discrepancies],
        )
        written.append(p)
    return written


def _write_plot_data(doc: ReportDocument, out: Path) -> list[Path]:
    """The data behind the main-effects, S/N, and importance plots."""
    written = []
    if "taguchi" in doc.sections:
        rows = doc.sections["taguchi"]["rows"]
        p = out / "plot_main_effects.csv"
        _write_csv(
            p,
            ["factor", "level", "raw_mean"],
            [[r["factor"], r["level"], r["raw_mean"]] for r in rows],
        )
        written.append(p)
        p = out / "plot_sn_means.csv"
        _write_csv(
            p,
            ["factor", "level", "sn_mean"],
            [[r["factor"], r["level"], r["sn_mean"]] for r in rows],
        )
        written.append(p)
    if "model" in doc.sections:
        imp = doc.sections["model"]["feature_importance"]
        p = out / "plot_feature_importance.csv"
        _write_csv(p, ["feature", "importance"], [[k, v] for k, v in imp.items()])
        written.append(p)
    return written
