"""Command-line front end.

Subcommands mirror the analysis stages so each is usable in isolation:

* ``taguchi`` -- response table, optimal combination, design diagnostics
* ``anova``   -- ANOVA table and model summary
* ``fit``     -- train a model, cross-validate, report importance
* ``report``  -- the full pipeline

Exit codes: 0 success (at least one analysis stage that the subcommand
prints ran, and no I/O error), 1 I/O error, 2 usage error, 3 every analysis
stage that the subcommand prints failed (nothing is written to stdout).
"""

from __future__ import annotations

import argparse
import gc
import sys

from .pipeline import FORMATS, RunConfig, render, report_json, report_text, run_pipeline

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_ALL_FAILED = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--input", dest="input_path", metavar="PATH",
        help="CSV file to analyze (default: the embedded aa6262 dataset)",
    )
    p.add_argument("--seed", type=int, help="64-bit seed, recorded in the report")
    p.add_argument("--format", choices=FORMATS, default="text", help="output format")
    p.add_argument("--out", dest="out_dir", metavar="DIR", default=None,
                   help="write report files to DIR")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=["rf", "gbm"])
    p.add_argument("--trees", type=int, help="forest size (rf only)")
    p.add_argument("--rounds", type=int, help="boosting rounds (gbm only)")
    p.add_argument("--depth", type=int, help="max tree depth (0 = unlimited)")
    p.add_argument("--nu", type=float, help="boosting learning rate (gbm only)")
    p.add_argument("--lambda", dest="lam", type=float, help="L2 leaf penalty (gbm only)")
    p.add_argument("--m", type=int, help="features searched per split (rf only)")
    p.add_argument("--cv", help="'loo' or 'k:<K>'")


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser.  An absent analysis flag leaves its `RunConfig` field
    at the default declared there; `--format` and `--out` declare theirs here."""
    parser = argparse.ArgumentParser(
        prog="weldlab",
        description="Taguchi, ANOVA, and tree-ensemble analysis of "
        "process-parameter experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("taguchi", "signal-to-noise response table and design diagnostics"),
        ("anova", "ANOVA table and model summary"),
        ("fit", "train and cross-validate a model"),
        ("report", "run the full pipeline"),
    ):
        p = sub.add_parser(name, help=helptext, argument_default=argparse.SUPPRESS)
        _add_common(p)
        if name in ("fit", "report"):
            _add_model_flags(p)
        if name in ("taguchi", "report"):
            # Nominal-is-best S/N needs replicates that a CLI run never
            # has (`response_table` has one response per run), so only
            # the library offers it.
            p.add_argument(
                "--criterion", choices=["larger", "smaller"],
                help="S/N quality criterion",
            )
    return parser


_SECTIONS_BY_COMMAND = {
    "taguchi": ("dataset", "design", "taguchi"),
    "anova": ("dataset", "anova"),
    "fit": ("dataset", "model"),
    "report": ("dataset", "design", "taguchi", "anova", "model", "tree"),
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {k: v for k, v in vars(args).items()
              if k not in ("command", "format", "out_dir")}
    if "input_path" in fields:
        fields["builtin"] = None
    return RunConfig(**fields)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))  # exits with EXIT_USAGE
    if args.format == "csv" and args.out_dir is None:
        parser.error("--format csv requires --out DIR")

    try:
        doc = run_pipeline(cfg)
    except OSError as exc:
        print(f"weldlab: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"weldlab: {exc}", file=sys.stderr)
        return EXIT_IO

    # Keep only the sections this subcommand owns.
    wanted = _SECTIONS_BY_COMMAND[args.command]
    doc.sections = {k: v for k, v in doc.sections.items() if k in wanted}
    doc.errors = {k: v for k, v in doc.errors.items() if k in wanted}

    # Every subcommand keeps the dataset section, so only the analysis
    # stages decide whether anything succeeded.
    if doc.sections.keys() == {"dataset"}:
        for stage, msg in doc.errors.items():
            print(f"weldlab: stage {stage} failed: {msg}", file=sys.stderr)
        return EXIT_ALL_FAILED

    if args.out_dir is not None:
        try:
            written = render(doc, args.format, args.out_dir)
        except OSError as exc:
            print(f"weldlab: I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
        for p in written:
            print(p)
    else:
        sys.stdout.write(
            report_json(doc) if args.format == "json" else report_text(doc)
        )

    for stage, msg in doc.errors.items():
        print(f"weldlab: stage {stage} failed: {msg}", file=sys.stderr)
    return EXIT_OK


def run() -> None:
    """The `weldlab` command: `main` in a process whose import-time heap is
    frozen, so that exit does not collect over it."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
