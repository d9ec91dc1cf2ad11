#!/usr/bin/env python3
"""weldlab benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report-aa6262 --seed 0 --seconds 20 --trace 0

Workloads (one client, closed loop, one op at a time, no worker threads):

* report-aa6262: in-process default report on the builtin 9-run dataset.
* rf-m2-ff81: in-process report on a seeded 81-run full factorial
  (rf, 50 trees, m=2, 3-fold CV).
* cli-cold: fresh `python -m weldlab.cli` processes cycling taguchi, anova,
  fit (gbm, depth 3) and report (json).

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics of BENCHMARK.json with
`--trace 0`, the per-layer ones with `--trace 1`).  The line before it is
run metadata.  `--write-digests` regenerates `digests.json`, the expected
output digests of every op of the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

# One thread per process: numpy's BLAS must not add worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from workloads import (  # noqa: E402
    CLI_COMMANDS,
    DEFAULT_SEED,
    DIGESTS,
    WORKLOADS,
    ColdCli,
    OutputCheck,
    load_digests,
    make_workload,
    sha256,
)

SETUP_PROBES = 3  # fresh processes whose set-up time gives setup_s
CLI_PROBES = 5  # bare-interpreter and import-only processes, traced runs
MIN_BEYOND_TAIL = 10  # samples that must lie beyond the reported tail
FIXED_KERNEL_SIZES = (9, 27, 81)


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, error: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)


def run_op(workload, key, arg, check: OutputCheck, tally: Tally, traced=False):
    """Run and check one op; returns (seconds, peak RSS KB, summary).

    Any exception, a non-zero exit, stage errors or unexpected output bytes
    count the op as failed.
    """
    t0 = perf_counter()
    try:
        seconds, data, rss, summary = workload.execute(arg, traced)
        check.check(key, data)
    except Exception as exc:  # every failure is counted, then reported
        tally.record(False, f"{key}: {type(exc).__name__}: {exc}")
        return perf_counter() - t0, 0, None
    tally.record(True)
    return seconds, rss, summary


def setup(name: str, seed: int, tally: Tally):
    """Imports, input generation and a warm-up canary op of the default seed,
    whose output must match its stored digest."""
    import weldlab.cli  # noqa: F401  (every layer, as the ops will need)

    workload = make_workload(name, ROOT)
    stored = load_digests()[name]
    canary_key, canary_arg = workload.prepare(DEFAULT_SEED)[0]
    ops = workload.prepare(seed)
    run_op(workload, canary_key, canary_arg, OutputCheck(stored), tally)
    check = OutputCheck(stored if seed == DEFAULT_SEED else None)
    return workload, ops, check


# --- statistics --------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond): the highest whole percentile,
    from p99 down to the median, with at least MIN_BEYOND_TAIL samples above
    its nearest-rank value."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        idx = max(math.ceil(p / 100 * n) - 1, 0)
        beyond = n - idx - 1
        if beyond >= MIN_BEYOND_TAIL or p == 50:
            return xs[idx], p, beyond
    raise AssertionError("unreachable")


def cycle_latencies(seconds: list[float], width: int) -> list[float]:
    """Latency of every run of `width` consecutive ops; ops cycle through the
    kinds in order, so each run holds one op of every kind."""
    return [sum(seconds[i:i + width]) for i in range(len(seconds) - width + 1)]


def overhead_share(untraced: dict, traced: dict) -> float:
    """Sum over inputs of traced medians / same for untraced, minus 1."""
    keys = [k for k in untraced if k in traced]
    den = sum(statistics.median(untraced[k]) for k in keys)
    num = sum(statistics.median(traced[k]) for k in keys)
    return num / den - 1.0 if den else 0.0


# --- runs ---------------------------------------------------------------------


def timed_loop(workload, ops, check, tally, seconds: float, trace: bool):
    """Closed loop over `ops` for `seconds`; with `trace`, whole cycles of ops
    alternate between untraced and traced."""
    lat, rss, summaries = [], [], []
    by_key = ({}, {})  # untraced, traced: input key -> latencies
    # A traced run needs at least one untraced and one traced cycle.
    min_ops = 2 * len(ops) if trace else 1
    t_start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - t_start < seconds:
        key, arg = ops[i % len(ops)]
        traced = trace and (i // len(ops)) % 2 == 1
        dt, peak, summary = run_op(workload, key, arg, check, tally, traced)
        lat.append(dt)
        rss.append(peak)
        by_key[traced].setdefault(key, []).append(dt)
        if summary is not None:
            summaries.append((key, summary))
        i += 1
    return {"elapsed": perf_counter() - t_start, "lat": lat, "rss": rss,
            "by_key": by_key, "summaries": summaries}


def setup_probes(name: str, seed: int, tally: Tally) -> float:
    """Median wall time of fresh processes that only run `setup`."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        code = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        ).returncode
        times.append(perf_counter() - t0)
        tally.record(code == 0, f"set-up probe exited with {code}")
    return statistics.median(times)


def end_to_end(name, seed, workload, loop, tally) -> dict[str, float]:
    lat = loop["lat"]
    if workload.cold:
        samples = cycle_latencies(lat, len(CLI_COMMANDS))
        ops_done = len(lat) / len(CLI_COMMANDS)
        peak_kb = max(loop["rss"])
    else:
        samples = lat
        ops_done = len(lat)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_s, tail_p, beyond = tail(samples)
    print(f"op latency samples: {len(samples)}; tail is p{tail_p} "
          f"with {beyond} samples beyond it")
    metrics = {
        "op_p50_s": statistics.median(samples),
        "op_tail_s": tail_s,
        "ops_per_s": ops_done / loop["elapsed"],
        "peak_rss_mb": peak_kb / 1024.0,
    }
    metrics["setup_s"] = setup_probes(name, seed, tally)
    metrics["success_rate"] = 1.0 - tally.failed / tally.attempted
    return metrics


def fixed_kernel_us(seed: int, tally: Tally) -> dict[str, float]:
    """Per-call kernel time at fixed node sizes (median of 5 batches), each
    result checked against the uncompiled reference loop."""
    import numpy as np

    from weldlab import kernels

    out = {}
    rng = np.random.default_rng(seed)
    for n in FIXED_KERNEL_SIZES:
        X = np.ascontiguousarray(rng.uniform(-1.0, 1.0, (n, 3)))
        y = rng.uniform(0.0, 10.0, n)
        feats = np.arange(3, dtype=np.int64)
        got = kernels.best_split(X, y, feats, 1)
        want = kernels._best_split_loops(X, y, feats, 1)
        tally.record(tuple(got) == tuple(want), f"kernel n={n}: {got} != {want}")
        batches = []
        for _ in range(5):
            calls, t0 = 0, perf_counter()
            while calls < 20 or perf_counter() - t0 < 0.04:
                kernels.best_split(X, y, feats, 1)
                calls += 1
            batches.append((perf_counter() - t0) / calls)
        out[f"kernels.fixed_us.n{n}"] = 1e6 * statistics.median(batches)
    return out


def forest200_s(tally: Tally) -> float:
    """Median of 3 fits of a 200-tree forest on the builtin dataset."""
    from weldlab.dataset import builtin_aa6262
    from weldlab.ensemble import fit_random_forest, model_to_json

    d = builtin_aa6262()
    times, outputs = [], set()
    for _ in range(3):
        t0 = perf_counter()
        model = fit_random_forest(d, trees=200, m=3, seed=7)
        times.append(perf_counter() - t0)
        outputs.add(sha256(model_to_json(model).encode()))
    tally.record(len(outputs) == 1, "200-tree forest fits differ between runs")
    return statistics.median(times)


def process_seconds(code: str) -> float:
    """Median wall time of CLI_PROBES `python -c code` processes."""
    times = []
    for _ in range(CLI_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def cli_figures(cli_loop) -> dict[str, float]:
    """Per-subcommand cold medians (untraced) and kept-section shares (traced)."""
    untraced, _ = cli_loop["by_key"]
    out = {}
    for cmd in CLI_COMMANDS:
        sub = cmd[0]
        lat = [x for k, v in untraced.items() if k.split()[0] == sub for x in v]
        kept = [s["pipeline.sections_rendered"] / s["pipeline.sections_computed"]
                for k, s in cli_loop["summaries"] if k.split()[0] == sub]
        out[f"cli.{sub}_p50_s"] = statistics.median(lat)
        out[f"cli.kept_share.{sub}"] = statistics.fmean(kept) if kept else 0.0
    return out


def cli_probe(seed: int, tally: Tally) -> dict:
    """One untraced, then one traced cold process per subcommand; the traced
    output must match the untraced one byte for byte."""
    cli = ColdCli(ROOT)
    check = OutputCheck(load_digests()[cli.name] if seed == DEFAULT_SEED else None)
    untraced, summaries = {}, []
    for key, argv in cli.prepare(seed)[:len(CLI_COMMANDS)]:
        untraced[key] = [run_op(cli, key, argv, check, tally)[0]]
        summary = run_op(cli, key, argv, check, tally, traced=True)[2]
        if summary is not None:
            summaries.append((key, summary))
    return {"by_key": (untraced, {}), "summaries": summaries}


def per_layer(seed, workload, loop, tally) -> dict[str, float]:
    from tracer import pool

    metrics = pool([s for _, s in loop["summaries"]])
    metrics["trace.overhead_share"] = overhead_share(*loop["by_key"])
    cli_loop = loop if workload.cold else cli_probe(seed, tally)
    metrics.update(cli_figures(cli_loop))
    metrics["cli.interp_s"] = process_seconds("pass")
    metrics["cli.import_s"] = process_seconds("import weldlab.cli")
    metrics.update(fixed_kernel_us(seed, tally))
    metrics["ensemble.forest200_s"] = forest200_s(tally)
    return metrics


def metadata(name, seed, seconds, trace) -> dict:
    import numpy

    from weldlab import kernels

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, check=True)
        lines = top.stdout.splitlines()
        commit = lines[1] if Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.CalledProcessError, IndexError):
        commit = None
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "numba_importable": has_numba, "kernel_backend": kernels.active_backend(),
            "nproc": os.cpu_count(), "commit": commit}


def declared_metrics(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def write_digests() -> None:
    """Record the output digest of every op of the default seed."""
    doc = {}
    for name in WORKLOADS:
        workload = make_workload(name, ROOT)
        check, tally = OutputCheck(), Tally()
        for key, arg in workload.prepare(DEFAULT_SEED):
            run_op(workload, key, arg, check, tally)
        if tally.failed:
            raise SystemExit(f"{name}: {tally.errors}")
        doc[name] = check.expected
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="run the set-up, then exit (times setup_s)")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_digests and args.workload is None:
        parser.error("--workload is required")

    # Build from the checkout's own source, never an installed copy.
    if not (SRC / "weldlab" / "__init__.py").is_file():
        print(f"perfbench: no weldlab source under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import weldlab

    if Path(weldlab.__file__).resolve().parent != SRC / "weldlab":
        print(f"perfbench: imported weldlab from {weldlab.__file__}", file=sys.stderr)
        return 2

    if args.write_digests:
        write_digests()
        return 0

    tally = Tally()
    workload, ops, check = setup(args.workload, args.seed, tally)
    if args.setup_only:
        return 0 if tally.failed == 0 else 1

    declared = declared_metrics(bool(args.trace))
    loop = timed_loop(workload, ops, check, tally, args.seconds, bool(args.trace))
    if args.trace:
        values = per_layer(args.seed, workload, loop, tally)
    else:
        values = end_to_end(args.workload, args.seed, workload, loop, tally)
    if set(values) != set(declared):
        print(f"perfbench: measured {sorted(set(values) ^ set(declared))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 2

    for err in tally.errors:
        print(f"FAILED {err}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name} = {value:.6g} {declared[name]}")
    print(f"error_rate = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} ops)")
    print(json.dumps({"meta": metadata(args.workload, args.seed, args.seconds,
                                       args.trace)}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values[n], "unit": declared[n]} for n in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
