#!/usr/bin/env python3
"""Side-by-side timing of two weldlab checkouts, op by op.

Run from the root of a checkout, against another one (say, the parent
commit's, made with ``git worktree`` or ``git clone``)::

    python3 bench/layers.py --against ../weldlab-parent --out BENCH.json

Each of `PAIRS` pairs times one op on both checkouts in fresh processes,
one after the other, alternating which side goes first.  The ops:

* ``report-rf``: the default report (``RunConfig()``), in process;
* ``report-gbm``: the default gbm report (``RunConfig(model="gbm")``);
* ``rf-m2-ff81``: the report on perfbench's seed-0 81-run full factorial
  (``perfbench/workloads.factorial_rows``, imported read-only) with rf, 50
  trees, m = 2 and 3-fold CV;
* ``cli-cold``: one cycle of the four perfbench CLI subcommands, each a
  fresh ``python -m weldlab.cli`` process.

An in-process side runs a warm-up op and then `REPS` timed ops in one
process, and its pair sample is their median; a cli-cold sample is one
cycle, after one untimed cycle per side that writes the bytecode caches.
Both sides import weldlab from their own ``src/`` and run this file's
harness.  The output records, per op and side, the median and quartiles of
wall and process-CPU time over the pairs, the pairs each side won (ties
count for neither), the median peak RSS and whether both sides printed the
same bytes.  No dependency beyond the standard library and weldlab's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import CLI_COMMANDS, factorial_rows, write_design  # noqa: E402

PAIRS = 12  # alternating pairs per op
REPS = 5  # timed in-process ops per side and pair
# RunConfig arguments of each in-process op; ops run in a directory that
# holds the design file.
IN_PROCESS = {
    "report-rf": {},
    "report-gbm": {"model": "gbm"},
    "rf-m2-ff81": {"input_path": "ff81.csv", "builtin": None, "model": "rf",
                   "trees": 50, "m": 2, "cv": "k:3"},
}
OPS = (*IN_PROCESS, "cli-cold")
FF81_SEED = 0
# One thread per process: numpy's BLAS must not add worker threads.
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


def child(op: str) -> None:
    """Time `REPS` ops of `op` after a warm-up and print one JSON line."""
    from weldlab.pipeline import RunConfig, report_json, report_text, run_pipeline

    cfg = RunConfig(**IN_PROCESS[op])
    wall, cpu = [], []
    for rep in range(REPS + 1):
        t0, c0 = perf_counter(), process_time()
        doc = run_pipeline(cfg)
        data = (report_json(doc) + report_text(doc)).encode()
        if rep:
            wall.append(perf_counter() - t0)
            cpu.append(process_time() - c0)
    print(json.dumps({
        "wall_s": statistics.median(wall), "cpu_s": statistics.median(cpu),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "sha256": hashlib.sha256(data).hexdigest(),
    }))


def _env(side: Path) -> dict:
    return {**os.environ, **ENV, "PYTHONPATH": str(side / "src")}


def run_in_process(side: Path, op: str, work: Path) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--child", op],
        cwd=work, env=_env(side), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def run_cli_cycle(side: Path, work: Path) -> dict:
    """One cycle of the perfbench subcommands in fresh processes: wall time,
    CPU time of the children, their peak RSS and a digest of their output."""
    wall = cpu = 0.0
    peak = 0
    digest = hashlib.sha256()
    for cmd in CLI_COMMANDS:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "weldlab.cli", *cmd, "--seed", "0"],
            cwd=work, env=_env(side), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        with proc.stdout:
            digest.update(proc.stdout.read())
        _, status, usage = os.wait4(proc.pid, 0)
        wall += perf_counter() - t0
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"{' '.join(cmd)} failed in {side}")
        cpu += usage.ru_utime + usage.ru_stime
        peak = max(peak, usage.ru_maxrss)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_kb": peak,
            "sha256": digest.hexdigest()}


def summary(samples: list[dict]) -> dict:
    out = {}
    for metric in ("wall_s", "cpu_s"):
        xs = [s[metric] for s in samples]
        q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        out[metric] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
                       "samples": xs}
    out["peak_rss_mb"] = statistics.median(
        s["peak_rss_kb"] for s in samples) / 1024.0
    return out


def measure(op: str, side: Path, work: Path) -> dict:
    if op == "cli-cold":
        return run_cli_cycle(side, work)
    return run_in_process(side, op, work)


def git_head(side: Path) -> str:
    head = subprocess.run(["git", "-C", str(side), "rev-parse", "HEAD"],
                          capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "-C", str(side), "status", "--porcelain",
                            "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return head + ("+changes" if dirty else "")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path, required=True,
                    help="the other checkout's root")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args()
    sides = {"here": ROOT, "against": args.against.resolve()}
    result = {"meta": {
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(), "pairs": PAIRS, "reps": REPS,
        "commits": {name: git_head(side) for name, side in sides.items()},
    }, "ops": {}}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_design(work / "ff81.csv", factorial_rows(FF81_SEED))
        for op in OPS:
            if op == "cli-cold":  # untimed: writes the bytecode caches
                for side in sides.values():
                    measure(op, side, work)
            samples = {name: [] for name in sides}
            for pair in range(PAIRS):
                for name in sides if pair % 2 == 0 else reversed(sides):
                    samples[name].append(measure(op, sides[name], work))
            here, against = samples["here"], samples["against"]
            result["ops"][op] = {name: {**summary(mine), "pairs_won": {
                metric: sum(a[metric] < b[metric] for a, b in zip(mine, theirs))
                for metric in ("wall_s", "cpu_s")}}
                for name, mine, theirs in (("here", here, against),
                                           ("against", against, here))}
            result["ops"][op]["same_output"] = len(
                {s["sha256"] for s in here + against}) == 1
            print(op, {name: round(result["ops"][op][name]["cpu_s"]["median"], 4)
                       for name in sides}, flush=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:])
    else:
        sys.exit(main())
