"""Workload inputs, the op each workload repeats, and the output check.

Every input is derived from the workload seed; weldlab only ever sees the
generated configs, CSV files and command lines.  Each op's output bytes are
compared by SHA-256: against `digests.json` for the default seed, and
against the first run of the same input for any other seed.  A canary op of
the default seed runs in every set-up, so drifting report bytes show on
every seed.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORK_DIR = ".perfbench_work"  # relative to the checkout root
DEFAULT_SEED = 0
REPORT_SEEDS = 4  # report seeds cycled by the in-process workloads
CLI_SEEDS = 2  # --seed values cycled by cli-cold
CLI_COMMANDS = (
    ("taguchi",),
    ("anova",),
    ("fit", "--model", "gbm", "--depth", "3"),
    ("report", "--format", "json"),
)

# Factor levels of the builtin AA6262 design (rpm, mm/min, mm).
LEVELS = ((800.0, 1000.0, 1200.0), (40.0, 50.0, 60.0), (0.1, 0.2, 0.3))
CSV_HEADER = ("rpm", "traverse_mm_min", "plan_depth_mm", "hardness")


def op_seeds(seed: int, k: int) -> list[int]:
    """k report seeds derived from the workload seed."""
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(k)]


def factorial_rows(seed: int, replicates: int = 3) -> list[tuple[float, ...]]:
    """3^3 full factorial over LEVELS, `replicates` times, with a seeded
    additive response (base + one effect per factor level) plus noise."""
    rng = random.Random(seed)
    effects = [[rng.uniform(-4.0, 4.0) for _ in lv] for lv in LEVELS]
    rows = []
    for _ in range(replicates):
        for combo in itertools.product(*(range(len(lv)) for lv in LEVELS)):
            y = 65.0 + sum(effects[f][lvl] for f, lvl in enumerate(combo))
            y += rng.gauss(0.0, 1.0)
            rows.append(tuple(LEVELS[f][lvl] for f, lvl in enumerate(combo))
                        + (round(y, 2),))
    return rows


def write_design(path: Path, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([repr(v) for v in row] for row in rows)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class OpFailed(Exception):
    """An op ran but its outcome does not count as a success."""


class OutputCheck:
    """Compares each op's output bytes with the expected digest of its input."""

    def __init__(self, expected: dict[str, str] | None = None):
        self.expected = dict(expected or {})

    def check(self, key: str, data: bytes) -> None:
        digest = sha256(data)
        want = self.expected.setdefault(key, digest)
        if digest != want:
            raise OpFailed(f"output of {key} has digest {digest[:12]}, "
                           f"expected {want[:12]}")


def load_digests() -> dict[str, dict[str, str]]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


# --- workloads -------------------------------------------------------------


class InProcessReport:
    """In-process report: run_pipeline, then report_json and report_text."""

    cold = False

    def __init__(self, name: str, root: Path):
        self.name = name
        self.root = root

    def prepare(self, seed: int) -> list:
        """(input key, RunConfig) for each op of a cycle."""
        from weldlab.pipeline import RunConfig

        seeds = op_seeds(seed, REPORT_SEEDS)
        if self.name == "report-aa6262":
            return [(f"seed={s}", RunConfig(seed=s)) for s in seeds]
        rel = Path(WORK_DIR) / f"ff81-{seed}.csv"
        write_design(self.root / rel, factorial_rows(seed))
        return [(f"{rel} seed={s}",
                 RunConfig(input_path=str(rel), builtin=None, model="rf",
                           trees=50, m=2, cv="k:3", seed=s))
                for s in seeds]

    def execute(self, cfg, traced: bool) -> tuple[float, bytes, int, dict | None]:
        """(seconds, output bytes, 0, per-layer summary or None) of one op.

        Tracer installation stays outside the timed region.
        """
        # Looked up on the module at call time, so the tracer's wrappers apply.
        import weldlab.pipeline as pipeline

        from tracer import Tracer, op_summary

        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            t0 = perf_counter()
            doc = pipeline.run_pipeline(cfg)
            data = (pipeline.report_json(doc) + pipeline.report_text(doc)).encode()
            seconds = perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        if doc.errors:
            raise OpFailed(f"stage errors: {doc.errors}")
        summary = op_summary(tracer.spans, tracer.counters) if tracer else None
        return seconds, data, 0, summary


class ColdCli:
    """One fresh `python -m weldlab.cli` process per op, one at a time."""

    cold = True
    name = "cli-cold"

    def __init__(self, root: Path):
        self.root = root

    def prepare(self, seed: int) -> list:
        ops = []
        for s in op_seeds(seed, CLI_SEEDS):
            for cmd in CLI_COMMANDS:
                argv = list(cmd) + ["--seed", str(s)]
                ops.append((" ".join(argv), argv))
        return ops

    def execute(self, argv, traced: bool) -> tuple[float, bytes, int, dict | None]:
        """(seconds, stdout+stderr bytes, peak RSS in KB, summary or None).

        A traced op runs `cli_child.py`, which wraps weldlab from outside and
        writes the per-layer summary of the process to a file.
        """
        trace_out = self.root / WORK_DIR / "cli-child-trace.json"
        if traced:
            trace_out.parent.mkdir(exist_ok=True)
            trace_out.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_out), *argv]
        else:
            cmd = [sys.executable, "-m", "weldlab.cli", *argv]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        with proc.stdout:
            data = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise OpFailed(f"exit code {proc.returncode}: {data[-300:]!r}")
        summary = json.loads(trace_out.read_text()) if traced else None
        return seconds, data, usage.ru_maxrss, summary


def make_workload(name: str, root: Path):
    if name in ("report-aa6262", "rf-m2-ff81"):
        return InProcessReport(name, root)
    if name == "cli-cold":
        return ColdCli(root)
    raise KeyError(name)


WORKLOADS = ("report-aa6262", "rf-m2-ff81", "cli-cold")
