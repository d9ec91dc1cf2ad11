#!/usr/bin/env python3
"""Side-by-side timing of two weldlab checkouts, op by op.

Run from the root of a checkout, against another one (say, the parent
commit's, made with ``git worktree`` or ``git clone``)::

    python3 bench/layers.py --against ../weldlab-parent --out BENCH.json

Each op is timed in `PAIRS` pairs.  The ops:

* ``report-rf``: the default report (``RunConfig()``), in process;
* ``report-gbm``: the default gbm report (``RunConfig(model="gbm")``);
* ``rf-m2-ff81``: the report on perfbench's seed-0 81-run full factorial
  (``perfbench/workloads.factorial_rows``, imported read-only) with rf, 50
  trees, m = 2 and 3-fold CV;
* ``cli-cold``: one cycle of the four perfbench CLI subcommands, each a
  fresh ``python -m weldlab.cli`` process.

An in-process pair is one fresh process that imports both checkouts'
``src/weldlab``, each under its own package name (`load_copy`), runs one
untimed op on each, and then alternates single ops of the two `REPS`
times, switching which side runs first.  Side by side in one process, the
two see the same machine state, which separate processes on a noisy host
do not.  Its pair sample per side is the median over its ops, and it also
records the median ratio of the process CPU times of adjacent ops, this
checkout over the other.  A cli-cold pair runs one cycle per side in fresh
processes, alternating which side goes first, after one untimed cycle per
side that writes the bytecode caches.  A side's CLI processes run with
bytecode writing on (``PYTHONDONTWRITEBYTECODE`` is dropped from their
environment) and a bytecode cache directory of their own
(``PYTHONPYCACHEPREFIX``), empty when the script starts: both sides are
timed with complete caches of every module they import, and no
``__pycache__`` directory in a checkout is read.  Under
``PYTHONDONTWRITEBYTECODE=1`` a side with stale ``__pycache__`` files would
otherwise recompile those modules in every process.  perfbench instead
runs a fresh checkout in the environment as it is, where under that
setting weldlab's modules compile in every process.

The output names each side by its commit (empty where git names none) and
by the SHA-256 of its ``src/weldlab`` sources, which a copy without
``.git`` has too.  It records, per op and side, the median and quartiles
of wall and process-CPU time over the pairs, the pairs each side won (ties
count for neither) and whether both sides printed the same bytes; per
in-process op, the quartiles of the pairs' CPU ratios; and per cli-cold
side, the median peak RSS.  Peak RSS needs a process per side, so in-process ops do not
report it; perfbench's ``peak_rss_mb`` covers them.  No dependency beyond
the standard library and weldlab's.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("here", "against")
PAIRS = 12  # alternating pairs per op
REPS = 10  # alternations of single in-process ops per pair
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


def load_copy(src: Path, name: str):
    """Import the weldlab package in the directory `src` as the package
    `name`.  The package imports its own modules only relatively, so each
    copy's modules resolve within that copy, beside any other."""
    spec = importlib.util.spec_from_file_location(
        name, src / "weldlab" / "__init__.py",
        submodule_search_locations=[str(src / "weldlab")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def report_bytes(pipeline, kwargs: dict) -> bytes:
    """The JSON and text report of ``RunConfig(**kwargs)`` from `pipeline`,
    one copy's ``weldlab.pipeline`` module."""
    doc = pipeline.run_pipeline(pipeline.RunConfig(**kwargs))
    return (pipeline.report_json(doc) + pipeline.report_text(doc)).encode()


def child(op: str, pair: str, *roots: str) -> None:
    """One in-process pair of `op`: print one JSON line with each side's
    median wall and CPU time, the digest of its outputs, and the median
    CPU ratio of adjacent ops, here over against."""
    order = SIDES if int(pair) % 2 == 0 else SIDES[::-1]
    pipelines = {}
    for side, root in zip(SIDES, roots):
        load_copy(Path(root, "src"), f"weldlab_{side}")
        pipelines[side] = importlib.import_module(f"weldlab_{side}.pipeline")
    digests = {side: hashlib.sha256() for side in SIDES}
    for side in order:  # warm-up
        digests[side].update(report_bytes(pipelines[side], IN_PROCESS[op]))
    wall = {side: [] for side in SIDES}
    cpu = {side: [] for side in SIDES}
    for rep in range(REPS):
        for side in order if rep % 2 == 0 else order[::-1]:
            t0, c0 = perf_counter(), process_time()
            data = report_bytes(pipelines[side], IN_PROCESS[op])
            cpu[side].append(process_time() - c0)
            wall[side].append(perf_counter() - t0)
            digests[side].update(data)
    print(json.dumps({
        **{side: {"wall_s": statistics.median(wall[side]),
                  "cpu_s": statistics.median(cpu[side]),
                  "sha256": digests[side].hexdigest()} for side in SIDES},
        "cpu_ratio": statistics.median(
            h / a for h, a in zip(cpu["here"], cpu["against"])),
    }))


def _env(side: Path, cache: Path) -> dict:
    env = {**os.environ, **ENV, "PYTHONPATH": str(side / "src"),
           "PYTHONPYCACHEPREFIX": str(cache)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_in_process_pair(sides: dict, op: str, pair: int, work: Path) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--child", op, str(pair),
         *(str(sides[side]) for side in SIDES)],
        cwd=work, env={**os.environ, **ENV}, stdin=subprocess.DEVNULL,
        capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def run_cli_cycle(side: Path, work: Path, commands, cache: Path) -> dict:
    """One cycle of the perfbench subcommands in fresh processes, with the
    bytecode cache directory `cache`: wall time, CPU time of the children,
    their peak RSS and a digest of their output."""
    wall = cpu = 0.0
    peak = 0
    digest = hashlib.sha256()
    for cmd in commands:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "weldlab.cli", *cmd, "--seed", "0"],
            cwd=work, env=_env(side, cache), stdin=subprocess.DEVNULL,
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


def quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "samples": xs}


def summary(mine: list[dict], theirs: list[dict]) -> dict:
    out = {metric: quartiles([s[metric] for s in mine])
           for metric in ("wall_s", "cpu_s")}
    out["pairs_won"] = {
        metric: sum(a[metric] < b[metric] for a, b in zip(mine, theirs))
        for metric in ("wall_s", "cpu_s")}
    if "peak_rss_kb" in mine[0]:
        out["peak_rss_mb"] = statistics.median(
            s["peak_rss_kb"] for s in mine) / 1024.0
    return out


def git_head(side: Path) -> str:
    """The commit checked out at `side`, with "+changes" when tracked files
    differ from it; "" where git names none (no `.git`, or no commit)."""
    head = subprocess.run(
        ["git", "-C", str(side), "rev-parse", "--verify", "--quiet", "HEAD"],
        capture_output=True, text=True)
    if head.returncode != 0:
        return ""
    dirty = subprocess.run(["git", "-C", str(side), "status", "--porcelain",
                            "--untracked-files=no"],
                           capture_output=True, text=True).stdout.strip()
    return head.stdout.strip() + ("+changes" if dirty else "")


def source_digest(side: Path) -> str:
    """SHA-256 over the `src/weldlab/*.py` files at `side`, each file's name
    and bytes in name order: what was timed, with or without git."""
    digest = hashlib.sha256()
    for path in sorted((side / "src" / "weldlab").glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path, required=True,
                    help="the other checkout's root")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import CLI_COMMANDS, factorial_rows, write_design

    sides = {"here": ROOT, "against": args.against.resolve()}
    result = {"meta": {
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(), "pairs": PAIRS, "reps": REPS,
        "commits": {name: git_head(side) for name, side in sides.items()},
        "src_sha256": {name: source_digest(side) for name, side in sides.items()},
    }, "ops": {}}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_design(work / "ff81.csv", factorial_rows(FF81_SEED))
        # Each side's bytecode cache directory, empty until its first cycle.
        caches = {name: work / f"pycache-{name}" for name in SIDES}
        for op in OPS:
            samples = {name: [] for name in SIDES}
            ratios = []
            if op == "cli-cold":
                for name in SIDES:  # untimed: writes the bytecode caches
                    run_cli_cycle(sides[name], work, CLI_COMMANDS,
                                  caches[name])
            for pair in range(PAIRS):
                if op == "cli-cold":
                    for name in SIDES if pair % 2 == 0 else SIDES[::-1]:
                        samples[name].append(run_cli_cycle(
                            sides[name], work, CLI_COMMANDS, caches[name]))
                    continue
                sample = run_in_process_pair(sides, op, pair, work)
                for name in SIDES:
                    samples[name].append(sample[name])
                ratios.append(sample["cpu_ratio"])
            here, against = samples["here"], samples["against"]
            result["ops"][op] = {"here": summary(here, against),
                                 "against": summary(against, here)}
            if ratios:
                result["ops"][op]["cpu_ratio"] = quartiles(ratios)
            result["ops"][op]["same_output"] = len(
                {s["sha256"] for s in here + against}) == 1
            print(op, {name: round(result["ops"][op][name]["cpu_s"]["median"], 4)
                       for name in SIDES}, flush=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:])
    else:
        sys.exit(main())
