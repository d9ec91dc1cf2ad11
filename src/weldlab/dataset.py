"""Data model, CSV ingestion, the embedded AA6262 dataset, and resampling.

The CSV schema is fixed: header ``rpm,traverse_mm_min,plan_depth_mm,hardness``
with '.' decimals; extra or repeated columns and data rows with more cells
than the header are rejected to prevent silent misuse.
Run order is preserved exactly as ingested and every iteration over runs
follows stored order (the determinism anchor).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ._rng import SplitMix64

CSV_COLUMNS = ("rpm", "traverse_mm_min", "plan_depth_mm", "hardness")
FACTOR_NAMES = CSV_COLUMNS[:3]
RESPONSE_NAME = CSV_COLUMNS[3]


class SchemaError(ValueError):
    """CSV header does not match the fixed schema."""


class CsvParseError(ValueError):
    def __init__(self, row: int, column: str, value: str):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: cannot parse {value!r}")


class InsufficientDataError(ValueError):
    """Fewer than 2 data rows."""


@dataclass(frozen=True)
class Run:
    """One experimental observation: three factor settings and the response."""

    rpm: float
    traverse: float  # mm/min
    depth: float  # plan depth, mm
    hardness: float  # Vickers-scale number at the nugget zone

    def __post_init__(self):
        for name in ("rpm", "traverse", "depth", "hardness"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be a finite positive number, got {v}")

    def factors(self) -> tuple[float, float, float]:
        return (self.rpm, self.traverse, self.depth)


@dataclass(frozen=True)
class Dataset:
    runs: tuple[Run, ...]
    factor_names: tuple[str, ...] = FACTOR_NAMES
    response_name: str = RESPONSE_NAME

    def __post_init__(self):
        if len(self.runs) < 2:
            raise InsufficientDataError(
                f"need at least 2 runs, got {len(self.runs)}"
            )

    def __len__(self) -> int:
        return len(self.runs)

    def features(self) -> np.ndarray:
        """(n, 3) float64 feature matrix in stored run order."""
        return np.ascontiguousarray(
            [[r.rpm, r.traverse, r.depth] for r in self.runs], dtype=np.float64
        )

    def responses(self) -> np.ndarray:
        return np.asarray([r.hardness for r in self.runs], dtype=np.float64)

    def levels(self, factor_index: int) -> tuple[float, ...]:
        """Distinct settings of one factor, ascending."""
        return tuple(sorted({r.factors()[factor_index] for r in self.runs}))


# The nine runs of the embedded experiment, in sample-ID order.
_AA6262_ROWS = (
    (800.0, 40.0, 0.1, 65.8),
    (800.0, 50.0, 0.2, 65.78),
    (800.0, 60.0, 0.3, 67.4),
    (1000.0, 40.0, 0.2, 64.3),
    (1000.0, 50.0, 0.3, 69.9),
    (1000.0, 60.0, 0.1, 74.2),
    (1200.0, 40.0, 0.3, 58.3),
    (1200.0, 50.0, 0.2, 60.5),
    (1200.0, 60.0, 0.1, 64.6),
)


def builtin_aa6262() -> Dataset:
    """The embedded 9-run friction-stir-welding hardness experiment (AA6262)."""
    return Dataset(runs=tuple(Run(*row) for row in _AA6262_ROWS))


def load_csv(path) -> Dataset:
    """Load a dataset from the fixed-schema CSV file at `path`.

    Raises SchemaError for a wrong header (missing, unexpected or repeated
    column names), CsvParseError (with 1-based data row number) for
    non-numeric cells, ValueError (with the row number) for a data row with
    more cells than the header, InsufficientDataError for < 2 rows.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InsufficientDataError("empty file") from None
        header = [h.strip() for h in header]
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"missing column(s): {', '.join(missing)}")
        extra = [c for c in header if c not in CSV_COLUMNS]
        if extra:
            raise SchemaError(f"unexpected column(s): {', '.join(extra)}")
        repeated = [c for c in CSV_COLUMNS if header.count(c) > 1]
        if repeated:
            raise SchemaError(f"repeated column(s): {', '.join(repeated)}")
        pos = {c: header.index(c) for c in CSV_COLUMNS}

        runs = []
        for rownum, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) > len(header):
                raise ValueError(
                    f"row {rownum}: {len(row)} cells but the header has "
                    f"{len(header)} columns"
                )
            values = {}
            for col in CSV_COLUMNS:
                cell = row[pos[col]].strip() if pos[col] < len(row) else ""
                try:
                    values[col] = float(cell)
                except ValueError:
                    raise CsvParseError(rownum, col, cell) from None
            try:
                runs.append(
                    Run(
                        rpm=values["rpm"],
                        traverse=values["traverse_mm_min"],
                        depth=values["plan_depth_mm"],
                        hardness=values["hardness"],
                    )
                )
            except ValueError as exc:
                raise ValueError(f"row {rownum}: {exc}") from None
    if len(runs) < 2:
        raise InsufficientDataError(f"need at least 2 data rows, got {len(runs)}")
    return Dataset(runs=tuple(runs))


def write_csv(d: Dataset, path) -> None:
    """Write `d` back out in the fixed schema (round-trips bit-for-bit)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in d.runs:
            writer.writerow([repr(r.rpm), repr(r.traverse), repr(r.depth), repr(r.hardness)])


@dataclass(frozen=True)
class SummaryStats:
    """Column-wise descriptive stats plus a Pearson correlation matrix.

    Std is population (divisor n), matching the descriptive intent of the
    exploratory plots.  Correlation entries involving a zero-variance
    column are NaN (undefined), including that column's diagonal.
    """

    columns: tuple[str, ...]
    minimum: tuple[float, ...]
    maximum: tuple[float, ...]
    mean: tuple[float, ...]
    std: tuple[float, ...]
    correlation: np.ndarray  # (c, c), NaN where undefined


def summarize(d: Dataset) -> SummaryStats:
    cols = d.factor_names + (d.response_name,)
    M = np.column_stack([d.features(), d.responses()])
    mins = M.min(axis=0)
    maxs = M.max(axis=0)
    means = M.mean(axis=0)
    stds = M.std(axis=0)  # population

    c = M.shape[1]
    corr = np.full((c, c), np.nan)
    centered = M - means
    for i in range(c):
        for j in range(c):
            if stds[i] == 0.0 or stds[j] == 0.0:
                continue
            cov = float(np.mean(centered[:, i] * centered[:, j]))
            corr[i, j] = cov / (stds[i] * stds[j])
    return SummaryStats(
        columns=cols,
        minimum=tuple(float(v) for v in mins),
        maximum=tuple(float(v) for v in maxs),
        mean=tuple(float(v) for v in means),
        std=tuple(float(v) for v in stds),
        correlation=corr,
    )


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of run indices to k cross-validation folds."""

    k: int
    assignments: tuple[int, ...]  # run index -> fold index

    def fold_indices(self, fold: int) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.assignments) if f == fold)


def kfold_plan(n: int, k: int, seed: int) -> FoldPlan:
    """Deterministic shuffled k-fold plan; k == n is leave-one-out.

    Fold sizes differ by at most 1 (round-robin over a seeded shuffle).
    """
    if k < 2 or k > n:
        raise ValueError(f"fold count must satisfy 2 <= k <= n, got k={k}, n={n}")
    order = list(range(n))
    SplitMix64(seed).shuffle(order)
    assignments = [0] * n
    for pos, run_idx in enumerate(order):
        assignments[run_idx] = pos % k
    return FoldPlan(k=k, assignments=tuple(assignments))


def bootstrap_indices(n: int, seed: int) -> list[int]:
    """n indices drawn uniformly with replacement from [0, n), seeded."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = SplitMix64(seed)
    return [rng.next_below(n) for _ in range(n)]
