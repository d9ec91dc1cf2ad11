"""Golden SHA-256 digests of every report output, checked across versions.

Each pipeline case records the digests of ``report_text``, ``report_json``,
and, for every format, the ordered file list and every file's bytes from
``render``.  Each CLI case records the exit code, stdout and stderr of
``main()``.  The cases are rf/gbm x m 2/3 x loo/k:3 x seeds 0/7 with small
models, one CSV input read through a relative path, the nominal criterion
(a recorded stage error in the pipeline, a usage error at the CLI), the
smaller criterion with boosting settings, and rf at m 2 and 3 on a
replicated full factorial read from CSV, whose trees reach nodes where every
run shares one factor setting but the responses differ.  Each model case records the
bytes of one saved model file (``model_to_json``).
Every case runs in an empty working directory and uses relative paths, so
no temporary path reaches the bytes.

The digests in ``golden_digests.json`` are the byte-identity contract of the
report.  A change that keeps the report bytes must pass them unchanged.
Regenerate the file only in a change that means to alter the bytes and says
so, by running from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from weldlab.cart import TreeConfig
from weldlab.cli import main
from weldlab.dataset import Dataset, Run, _sequential_sum, builtin_aa6262, write_csv
from weldlab.ensemble import fit_gbm, fit_random_forest, model_from_json, model_to_json
from weldlab.pipeline import RunConfig, render, report_json, report_text, run_pipeline

GOLDEN = Path(__file__).with_name("golden_digests.json")
CSV_INPUT = "runs.csv"
REPLICATED_INPUT = "replicated.csv"
SMALL = {"trees": 8, "rounds": 6}


def replicated_factorial() -> Dataset:
    """The 3^3 full factorial over the builtin levels, each trial run three
    times: an additive response plus a fixed offset per run, so that the
    runs of one trial differ."""
    levels = ((800.0, 1000.0, 1200.0), (40.0, 50.0, 60.0), (0.1, 0.2, 0.3))
    runs = []
    for rep in range(3):
        for a, b, c in itertools.product(range(3), repeat=3):
            offset = ((7 * len(runs) + 3 * rep) % 11 - 5) * 0.4
            runs.append(Run(levels[0][a], levels[1][b], levels[2][c],
                            round(60.0 + 2.0 * a - 3.0 * b + c + offset, 2)))
    return Dataset(runs=tuple(runs))


def _pipeline_cases() -> dict[str, dict]:
    cases = {
        f"{model}-m{m}-{cv.replace(':', '')}-s{seed}": {
            "model": model, "m": m, "cv": cv, "seed": seed,
        }
        for model in ("rf", "gbm")
        for m in (2, 3)
        for cv in ("loo", "k:3")
        for seed in (0, 7)
    }
    cases["csv-input"] = {"input_path": CSV_INPUT, "builtin": None, "seed": 3}
    cases["nominal"] = {"criterion": "nominal", "seed": 1}
    cases["smaller-gbm"] = {
        "criterion": "smaller", "model": "gbm", "nu": 0.5, "lam": 1.0,
        "depth": 2, "seed": 5,
    }
    for m in (2, 3):
        cases[f"replicated-rf-m{m}-k3"] = {
            "input_path": REPLICATED_INPUT, "builtin": None, "model": "rf",
            "m": m, "cv": "k:3", "trees": 20, "seed": 4,
        }
    return {name: {**SMALL, **kw} for name, kw in cases.items()}


def _cli_cases() -> dict[str, list[str]]:
    base = {
        "taguchi": ["taguchi", "--seed", "3"],
        "anova": ["anova"],
        "fit-gbm": ["fit", "--model", "gbm", "--rounds", "6", "--depth", "2",
                    "--seed", "7"],
        "report": ["report", "--trees", "8", "--rounds", "6", "--seed", "7"],
    }
    cases = dict(base)
    cases.update({f"{name}-json": argv + ["--format", "json"]
                  for name, argv in base.items()})
    cases["taguchi-nominal"] = ["taguchi", "--criterion", "nominal"]
    cases["report-csv-input-out"] = [
        "report", "--input", CSV_INPUT, "--trees", "8", "--format", "csv",
        "--out", "out",
    ]
    return cases


PIPELINE_CASES = _pipeline_cases()
CLI_CASES = _cli_cases()
# The model of each case on the builtin data, and the SHA-256 of its
# `model_to_json` text.  The first two keep every config field, `bootstrap`
# and lam at their defaults; the last two set each of them.
MODEL_CASES = {
    "rf-t5-m2-s0": (
        lambda d: fit_random_forest(d, trees=5, m=2, seed=0),
        "0fb7bc0d309401eaf91795e16d4d6ad4fc93490cc2b39729a4822a7924a8f586"),
    "gbm-r5-s0": (
        lambda d: fit_gbm(d, rounds=5, seed=0),
        "894e65868cab6ede56b0b0397dac0d08199e16a465d5a1a631ea057096e7a7e4"),
    "rf-t4-m2-nobs-d2-s9": (
        lambda d: fit_random_forest(
            d, trees=4, m=2, bootstrap=False,
            cfg=TreeConfig(max_depth=2, min_samples_leaf=2,
                           min_impurity_decrease=0.05), seed=9),
        "d890d28634d850cc76db34894885ddaee6dab62deaedda8f0891ed0ba67f57ec"),
    "gbm-r4-d2-nu05-lam1-s3": (
        lambda d: fit_gbm(d, rounds=4, cfg=TreeConfig(max_depth=2), nu=0.5,
                          lam=1.0, seed=3),
        "274cdf042187304b50c369b322fede52189a407b20c2b57b693d28da8e1b40b7"),
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def pipeline_digests(kwargs: dict) -> dict[str, str]:
    """Digests of every output of one pipeline case, run in the current directory."""
    write_csv(builtin_aa6262(), CSV_INPUT)
    write_csv(replicated_factorial(), REPLICATED_INPUT)
    doc = run_pipeline(RunConfig(**kwargs))
    digests = {"report_text": _sha(report_text(doc)), "report_json": _sha(report_json(doc))}
    for fmt in ("text", "json", "csv"):
        files = render(doc, fmt, f"out-{fmt}")
        digests[f"{fmt}/files"] = _sha("\n".join(p.as_posix() for p in files))
        for p in files:
            digests[f"{fmt}/{p.name}"] = _sha(p.read_bytes())
    return digests


def cli_digest(argv: list[str]) -> str:
    """Digest of (exit code, stdout, stderr) of one CLI call, run in the
    current directory.  argparse wraps a usage message to the terminal's
    width, so the call sees 80 columns."""
    write_csv(builtin_aa6262(), CSV_INPUT)
    out, err = io.StringIO(), io.StringIO()
    with (redirect_stdout(out), redirect_stderr(err),
          mock.patch.dict(os.environ, {"COLUMNS": "80"})):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return _sha(json.dumps([code, out.getvalue(), err.getvalue()]))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert set(golden["pipeline"]) == set(PIPELINE_CASES)
    assert set(golden["cli"]) == set(CLI_CASES)


@pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
def test_pipeline_outputs_match_golden(case, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert pipeline_digests(PIPELINE_CASES[case]) == golden["pipeline"][case]


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_outputs_match_golden(case, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_digest(CLI_CASES[case]) == golden["cli"][case]


@pytest.mark.parametrize("case", sorted(MODEL_CASES))
def test_model_file_matches_golden(case):
    fit, digest = MODEL_CASES[case]
    assert _sha(model_to_json(fit(builtin_aa6262()))) == digest


@pytest.mark.parametrize("case", sorted(MODEL_CASES))
def test_model_file_round_trips_to_an_equal_model(case):
    # NamedTuple equality compares every field, trees and config included.
    model = MODEL_CASES[case][0](builtin_aa6262())
    assert model_from_json(model_to_json(model)) == model


def compensated_sum(iterable, /, start=0):
    """The built-in `sum` of CPython 3.12 and later, in Python: ints add
    exactly, and a run of floats by Neumaier's compensated summation
    (gh-100425), where Python 3.10 and 3.11 add floats one at a time."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(item) is not int and not isinstance(item, bool):
                break
        else:
            return result
    if type(result) is float:
        total, c = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    c += (total - t) + item
                else:
                    c += (item - t) + total
                total = t
                continue
            if type(item) is int and -2**63 <= item < 2**63:
                total += float(item)
                continue
            if c and math.isfinite(c):
                total += c
            result = total + item
            break
        else:
            if c and math.isfinite(c):
                total += c
            return total
    for item in items:
        result = result + item
    return result


def test_compensated_sum_is_the_sum_of_python_3_12():
    """The emulation below is the built-in `sum` on Python 3.12 and later;
    before 3.12 the built-in adds as `_sequential_sum` does.  The two differ."""
    rng = random.Random(2024)
    builtin = compensated_sum if sys.version_info >= (3, 12) else _sequential_sum
    for _ in range(300):
        xs = [rng.choice((rng.random(), rng.gauss(60.0, 5.0), 0.1, -0.0, 1e16, 3))
              for _ in range(rng.randrange(40))]
        assert repr(sum(xs)) == repr(builtin(xs))
    assert compensated_sum([0.1] * 10) == 1.0 != _sequential_sum([0.1] * 10)


@pytest.mark.parametrize("kind, case", [
    *(("pipeline", case) for case in sorted(PIPELINE_CASES)),
    *(("cli", case) for case in sorted(CLI_CASES)),
])
def test_outputs_match_golden_under_compensated_sum(kind, case, golden, tmp_path,
                                                    monkeypatch):
    """No report byte depends on how the interpreter's `sum` adds floats:
    every weldlab module sees Python 3.12's `sum` here."""
    for name, module in list(sys.modules.items()):
        if name == "weldlab" or name.startswith("weldlab."):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    monkeypatch.chdir(tmp_path)
    if kind == "pipeline":
        assert pipeline_digests(PIPELINE_CASES[case]) == golden[kind][case]
    else:
        assert cli_digest(CLI_CASES[case]) == golden[kind][case]


def _generate() -> dict:
    result = {"pipeline": {}, "cli": {}}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for kind, cases, digest in (("pipeline", PIPELINE_CASES, pipeline_digests),
                                        ("cli", CLI_CASES, cli_digest)):
                for name in sorted(cases):
                    case_dir = Path(tmp, kind, name)
                    case_dir.mkdir(parents=True)
                    os.chdir(case_dir)
                    result[kind][name] = digest(cases[name])
        finally:
            os.chdir(home)
    return result


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_generate(), sort_keys=True, indent=1) + "\n",
                      encoding="utf-8")
