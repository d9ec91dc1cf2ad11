"""Tests of the benchmark itself: inputs, output check, tracer counters.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import itertools
import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run
import weldlab.cart
import weldlab.ensemble
import weldlab.kernels
import weldlab.pipeline
from workloads import (
    LEVELS,
    ColdCli,
    InProcessReport,
    factorial_rows,
    make_workload,
    op_seeds,
)


def test_workload_inputs_are_deterministic_per_seed(tmp_path):
    assert factorial_rows(7) == factorial_rows(7)
    assert factorial_rows(7) != factorial_rows(8)
    assert op_seeds(7, 4) == op_seeds(7, 4) != op_seeds(8, 4)
    assert ColdCli(tmp_path).prepare(7) == ColdCli(tmp_path).prepare(7)
    ff81 = InProcessReport("rf-m2-ff81", tmp_path)
    first = ff81.prepare(7)
    csv_path = tmp_path / first[0][1].input_path
    csv_bytes = csv_path.read_bytes()
    assert ff81.prepare(7) == first
    assert csv_path.read_bytes() == csv_bytes


def test_81_run_design_is_a_balanced_full_factorial():
    rows = factorial_rows(3)
    assert len(rows) == 81
    combos = Counter(row[:3] for row in rows)
    assert set(combos) == set(itertools.product(*LEVELS))
    assert set(combos.values()) == {3}
    assert all(row[3] > 0 for row in rows)


def test_traced_counters_match_closed_forms_on_report_aa6262(tmp_path):
    workload = make_workload("report-aa6262", tmp_path)
    (key, cfg), *_ = workload.prepare(0)
    _, untraced, _, _ = workload.execute(cfg, traced=False)
    _, traced, _, summary = workload.execute(cfg, traced=True)
    assert traced == untraced
    # 200 trees x (final model + 9 leave-one-out folds), plus the CART stage.
    assert summary["dataset.bootstrap_calls"] == 2000
    assert summary["cart.builds"] == 2001
    assert summary["_rng.subset_calls"] == 0
    assert summary["kernels.calls"] == sum(
        summary[f"kernels.calls.{b}"] for b in ("n9", "n27", "n81"))
    assert summary["kernels.calls.n9"] == summary["kernels.calls"]
    # Uninstalling restores every name the tracer wrapped.
    assert weldlab.cart.best_split is weldlab.kernels.best_split
    assert weldlab.ensemble.build_tree is weldlab.cart.build_tree
    assert not hasattr(weldlab.cart.build_tree, "__wrapped__")


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90, 10)
    value, p, beyond = run.tail([1.0, 2.0, 3.0])
    assert (value, p) == (2.0, 50)
    assert run.cycle_latencies([1, 2, 3, 4, 5, 6], 4) == [10, 14, 18]


def _result(main_args, capsys):
    assert run.main(main_args) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_tampered_report_byte_raises_error_rate(monkeypatch, capsys):
    monkeypatch.chdir(run.ROOT)
    args = ["--workload", "report-aa6262", "--seed", "0", "--seconds", "0"]
    clean = _result(args, capsys)
    assert clean["correct"] and clean["failed"] == 0
    assert clean["metrics"]["success_rate"]["value"] == 1.0

    real = weldlab.pipeline.report_text
    monkeypatch.setattr(weldlab.pipeline, "report_text",
                        lambda doc: real(doc).replace("seed", "seeD", 1))
    tampered = _result(args, capsys)
    assert not tampered["correct"]
    # The canary and the timed op both differ from their stored digests.
    assert tampered["failed"] == 2
    assert tampered["metrics"]["success_rate"]["value"] < 1.0


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-aa6262",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
