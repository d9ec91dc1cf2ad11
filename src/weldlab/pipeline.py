"""Full analysis pipeline and report rendering.

Stages run in order (dataset -> design/taguchi -> ANOVA -> models); a
domain failure in one stage (a ValueError or ArithmeticError) is recorded
in the report instead of aborting the rest, while programming errors
propagate.  Every report embeds the seed and hyperparameters needed to
replay it, and a discrepancy section surfaces where the published tables
disagree with what the embedded data actually give.

Each report section is described once, in `_blocks`: its text lines, its
tables (raw cells with text and CSV headers) and its CSV-only files.  The
text report and the file writer are short loops over those blocks, so
adding a section means adding one block there.
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
from .cart import (
    TreeConfig,
    _check_real_fields,
    _set_int_fields,
    export_tree,
    fit_regression_tree,
)
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
    CRITERIA,
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
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if self.model not in ("rf", "gbm"):
            raise ValueError("model must be 'rf' or 'gbm'")
        if self.criterion not in CRITERIA:
            raise ValueError(
                f"criterion must be one of {CRITERIA}, got {self.criterion!r}"
            )
        # Model settings fail here, before any compute, not as a stage
        # error: `ModelSpec` and `TreeConfig` check them.  Numpy numbers
        # are stored as Python ones so the report's JSON can write them.
        _set_int_fields(self, ("trees", "rounds", "depth", "seed")
                        + (() if self.m is None else ("m",)))
        _check_real_fields(self, ("nu", "lam"))
        _model_spec(self)
        n_factors = len(FACTOR_NAMES)
        if self.m is not None and self.m > n_factors:
            raise ValueError(f"m must be in [1, {n_factors}], got {self.m}")
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
    return ModelSpec(
        kind=cfg.model,
        config=TreeConfig(max_depth=cfg.depth),
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
    except (ValueError, ArithmeticError) as exc:
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
            "optimal_raw": _combination_dicts(raw_best),
            "optimal_sn": _combination_dicts(sn_best),
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
    except (ValueError, ArithmeticError) as exc:
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
    except (ValueError, ArithmeticError) as exc:
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
    except (ValueError, ArithmeticError) as exc:
        doc.errors["model"] = str(exc)

    try:
        tree = fit_regression_tree(d, TreeConfig(max_depth=cfg.depth))
        doc.sections["tree"] = {
            "text": export_tree(tree, "text", feature_names=d.factor_names),
            "graph": export_tree(tree, "graph", feature_names=d.factor_names),
        }
    except (ValueError, ArithmeticError) as exc:
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


def _combination_dicts(combination) -> list[dict]:
    return [
        {"factor": c.factor, "level_index": c.level_index,
         "level": c.level_value, "mean": c.mean}
        for c in combination
    ]


# --- rendering ------------------------------------------------------------


def report_json(doc: ReportDocument) -> str:
    """Single JSON document with stable key order (byte-identical per config)."""
    payload = {
        "config": {
            "input": doc.config.input_path or f"builtin:{doc.config.builtin}",
            "response": "hardness",
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


def report_text(doc: ReportDocument) -> str:
    """Human-readable report mirroring the familiar table layouts."""
    parts = []
    for block in _blocks(doc):
        if isinstance(block, str):
            parts.append(block)
        elif isinstance(block, _Table) and block.text:
            parts.append(block.as_text())
    return "\n".join(parts) + "\n"


def render(doc: ReportDocument, format: str, out_dir) -> list[Path]:
    """Write the report to `out_dir`; returns the files written.

    'text' and 'json' each produce a single document; 'csv' produces one
    file per section.  Plot-data CSVs (main effects, S/N means, feature
    importance) are written for every format.
    """
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    files = []  # (file name, content) in write order
    if format == "text":
        files.append(("report.txt", report_text(doc)))
    elif format == "json":
        files.append(("report.json", report_json(doc)))
    plots = []
    for block in _blocks(doc):
        if isinstance(block, _Table):
            if block.plot:
                plots.append((block.file, block.as_csv()))
            elif format == "csv":
                files.append((block.file, block.as_csv()))
        elif isinstance(block, tuple) and format == "csv":
            files.append(block)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, content in files + plots:
        path = out / name
        path.write_text(content, encoding="utf-8")
        written.append(path)
    return written


@dataclass(frozen=True)
class _Table:
    """One report table: raw cells plus how each writer labels them.

    The csv format writes `header` and the raw cells to `file`.  The text
    report shows the table only when it has `text` headers, formatting each
    cell with the matching `fmt` function (default `_cell`).  `plot` tables
    hold the data behind a plot; every format writes them, after the rest.
    """

    file: str
    header: tuple[str, ...]
    rows: list
    text: tuple[str, ...] | None = None
    fmt: tuple | None = None
    plot: bool = False

    def as_text(self) -> str:
        fmt = self.fmt or (_cell,) * len(self.header)
        lines = [self.text, *([f(v) for f, v in zip(fmt, row)] for row in self.rows)]
        widths = [max(map(len, column)) for column in zip(*lines)]
        return "\n".join(
            "  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip()
            for line in lines
        )

    def as_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.header)
        writer.writerows(self.rows)
        return buf.getvalue()


def _blocks(doc: ReportDocument):
    """Visit each report section once, in report order.

    Yields text lines (text report only), `_Table`s, and `(file name,
    content)` pairs that only the csv format writes.
    """
    cfg = doc.config
    sections = doc.sections
    yield "weldlab report"
    yield (
        f"input: {cfg.input_path or 'builtin:' + str(cfg.builtin)}   "
        f"seed: {cfg.seed}   model: {cfg.model}   cv: {cfg.cv}"
    )

    if "dataset" in sections:
        s = sections["dataset"]
        yield f"\n== Dataset ({s['n_runs']} runs) =="
        yield _Table(
            "dataset_summary.csv",
            ("column", "min", "max", "mean", "std_population"),
            [
                [c, s["min"][i], s["max"][i], s["mean"][i], s["std_population"][i]]
                for i, c in enumerate(s["columns"])
            ],
            text=("Column", "Min", "Max", "Mean", "StdDev"),
        )

    if "design" in sections:
        s = sections["design"]
        yield "\n== Design diagnostics =="
        yield "balanced: " + _yes_no(s["balanced"])
        yield "orthogonal pairs: " + _yes_no(s["orthogonal_pairs"])
        yield "design_diagnostics.json", json.dumps(s, sort_keys=True, indent=2) + "\n"

    if "taguchi" in sections:
        s = sections["taguchi"]
        keys = ("factor", "level_index", "level", "raw_mean", "sn_mean")
        yield "\n== Response table =="
        yield _Table(
            "response_table.csv", keys, _rows(s["rows"], keys),
            text=("Factor", "Level", "Setting", "Mean", "S/N Mean"),
        )
        yield "optimal (raw means):  " + _levels(s["optimal_raw"])
        yield "optimal (S/N means):  " + _levels(s["optimal_sn"])
        for file, mean in (("plot_main_effects.csv", "raw_mean"),
                           ("plot_sn_means.csv", "sn_mean")):
            keys = ("factor", "level", mean)
            yield _Table(file, keys, _rows(s["rows"], keys), plot=True)

    if "anova" in sections:
        s = sections["anova"]
        header = ("Source", "DF", "Adjusted SS", "Adjusted MS", "F-Value", "P-Value")
        yield "\n== Analysis of Variance =="
        yield _Table(
            "anova.csv", header,
            _rows([*s["rows"], s["error"], s["total"]],
                  ("source", "df", "adj_ss", "adj_ms", "f_value", "p_value")),
            text=header,
        )
        yield "\n== Model Summary =="
        yield _Table(
            "model_summary.csv",
            ("S", "r_sq", "r_sq_adjusted", "r_sq_predicted"),
            _rows([s["model_summary"]], ("s", "r_sq", "r_sq_adjusted", "r_sq_predicted")),
            text=("S", "R-sq", "R-sq(adj)", "R-sq(pred)"),
            fmt=(_cell, _pct, _pct, _pct),
        )
        if s["significant"]:
            yield "significant at 95%: " + ", ".join(s["significant"])

    if "model" in sections:
        s = sections["model"]
        yield f"\n== Model ({s['spec']['kind']}) =="
        splits = (
            ("training", s["training"]), (f"cv:{s['spec']['cv']}", s["cv_pooled"])
        )
        yield _Table(
            "model_metrics.csv",
            ("split", "mse", "mae", "r_sq"),
            [[split, m["mse"], m["mae"], m["r_sq"]] for split, m in splits],
            text=("Split", "MSE", "MAE", "R-sq"),
            fmt=(_split_label, _cell, _cell, _cell),
        )
        importance = s["feature_importance"]
        yield "feature importance: " + ", ".join(
            f"{k}={_cell(v)}" for k, v in importance.items()
        )
        yield _Table(
            "plot_feature_importance.csv", ("feature", "importance"),
            list(importance.items()), plot=True,
        )

    if "tree" in sections:
        s = sections["tree"]
        yield "\n== Decision tree =="
        yield s["text"].rstrip("\n")
        yield "tree.txt", s["text"]
        yield "tree.dot", s["graph"]

    if doc.warnings:
        yield "\n== Warnings =="
        yield from (f"- {w}" for w in doc.warnings)

    if doc.discrepancies:
        yield "\n== Discrepancies vs published tables =="
        for dx in doc.discrepancies:
            yield f"- {dx.topic}: published {dx.published}; computed {dx.computed}"
            yield f"  note: {dx.note}"
        keys = ("topic", "published", "computed", "note")
        yield _Table(
            "discrepancies.csv", keys,
            _rows([dx.as_dict() for dx in doc.discrepancies], keys),
        )

    if doc.errors:
        yield "\n== Stage errors =="
        yield from (f"- {stage}: {msg}" for stage, msg in doc.errors.items())


def _rows(records, keys) -> list[list]:
    """One row per record, one cell per key (None where a record lacks it)."""
    return [[r.get(k) for k in keys] for r in records]


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _pct(v) -> str:
    return "" if v is None else f"{100.0 * v:.6g}%"


def _split_label(split: str) -> str:
    """'cv:loo' -> 'cv (loo)' for the text report; 'training' unchanged."""
    kind, _, spec = split.partition(":")
    return f"{kind} ({spec})" if spec else kind


def _yes_no(flags: dict) -> str:
    return ", ".join(f"{k}={'yes' if v else 'no'}" for k, v in flags.items())


def _levels(combination: list) -> str:
    return ", ".join(f"{c['factor']}={c['level']:g}" for c in combination)
