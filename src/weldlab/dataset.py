"""Data model, CSV ingestion, the embedded AA6262 dataset, and resampling.

The CSV schema is fixed: header ``rpm,traverse_mm_min,plan_depth_mm,hardness``
with '.' decimals; extra or repeated columns and data rows with more cells
than the header are rejected to prevent silent misuse.
Run order is preserved exactly as ingested and every iteration over runs
follows stored order (the determinism anchor).  `Dataset.level_codes` is the
one place that decides which runs share a level of a factor; the Taguchi
table, the design check and the ANOVA design all read it.

Every number that enters weldlab passes one of two checks, `_integer` or
`_real`, which raise a ValueError that names what is wrong.
"""

from __future__ import annotations

import csv
import numbers
import sys
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from ._rng import SplitMix64, _first_below, derive_seed

CSV_COLUMNS = ("rpm", "traverse_mm_min", "plan_depth_mm", "hardness")


class SchemaError(ValueError):
    """CSV header does not match the fixed schema."""


class CsvParseError(ValueError):
    def __init__(self, row: int, column: str, value: str):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: cannot parse {value!r}")


class InsufficientDataError(ValueError):
    """Fewer than 2 data rows."""


def _integer(value, what: str, low: int | None = None,
             high: int | None = None) -> int:
    """`value` as an int if it is a Python or numpy integer (not a bool) in
    [low, high), where a bound left None is open; else a ValueError that
    names `what`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if (low is not None and value < low) or (high is not None and value >= high):
        raise ValueError(f"{what} {value} is outside "
                         f"[{'-inf' if low is None else low}, "
                         f"{'inf' if high is None else high})")
    return value


def _real(value, what: str):
    """`value` if it is a real number that is finite as a float (a Python or
    numpy int or float; not a bool, NaN, infinity or an int too large for a
    float), a numpy number as the Python int or float it holds, so JSON can
    write it; else a ValueError that names `what`."""
    if type(value) is not float:  # a float, the common case, skips the ABC
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{what} must be a real number, got {value!r}")
        if isinstance(value, np.generic):
            value = value.item()
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def _sequential_sum(values):
    """`values` added one at a time from the int 0, as the built-in `sum` adds
    floats before Python 3.12 (which compensates), on every interpreter."""
    total = 0
    for v in values:
        total += v
    return total


def _check_fields(obj, check, names) -> None:
    """Store ``check(value, name)`` in each field named in `names` of the
    frozen dataclass `obj`."""
    for name in names:
        object.__setattr__(obj, name, check(getattr(obj, name), name))


@dataclass(frozen=True)
class Run:
    """One experimental observation: three factor settings and the response."""

    rpm: float
    traverse: float  # mm/min
    depth: float  # plan depth, mm
    hardness: float  # Vickers-scale number at the nugget zone

    def __post_init__(self):
        for name in ("rpm", "traverse", "depth", "hardness"):
            value = getattr(self, name)
            v = _real(value, name)
            if v <= 0:
                raise ValueError(f"{name} must be a finite positive number, got {v}")
            if v is not value:  # a numpy number, now a Python one
                object.__setattr__(self, name, v)


@dataclass(frozen=True)
class Dataset:
    runs: tuple[Run, ...]
    FACTOR_NAMES: ClassVar[tuple[str, ...]] = CSV_COLUMNS[:3]
    RESPONSE_NAME: ClassVar[str] = CSV_COLUMNS[3]

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

    def level_codes(self) -> tuple[tuple[tuple[float, ...], ...], np.ndarray]:
        """Each factor's distinct settings, ascending, and an (n, 3)
        ``np.intp`` array of each run's 0-based index into its factor's
        settings, rows in stored run order."""
        columns = self.features().T.tolist()
        levels = tuple(tuple(sorted(set(col))) for col in columns)
        return levels, np.array(
            [np.array(lv).searchsorted(col) for lv, col in zip(levels, columns)]).T


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
    more cells than the header, InsufficientDataError for < 2 rows.  A
    leading UTF-8 byte-order mark (as spreadsheet "CSV UTF-8" exports
    write) is skipped.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
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
        pos = [header.index(c) for c in CSV_COLUMNS]

        runs = []
        for rownum, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) > len(header):
                raise ValueError(
                    f"row {rownum}: {len(row)} cells but the header has "
                    f"{len(header)} columns"
                )
            cells = []  # in CSV_COLUMNS order, which is Run's field order
            for col, i in zip(CSV_COLUMNS, pos):
                cell = row[i].strip() if i < len(row) else ""
                try:
                    cells.append(float(cell))
                except ValueError:
                    raise CsvParseError(rownum, col, cell) from None
            try:
                runs.append(Run(*cells))
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


class SummaryStats(NamedTuple):
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
    M = np.column_stack([d.features(), d.responses()])
    mins = M.min(axis=0)
    maxs = M.max(axis=0)
    means = M.mean(axis=0)
    stds = M.std(axis=0)  # population

    # Run products C-contiguous along the run axis, so `np.add.reduce` sums
    # each covariance in the pairwise order `np.mean` of one pair uses.
    centered = np.ascontiguousarray((M - means).T)
    cov = np.add.reduce(centered[:, None, :] * centered, axis=-1) / len(d)
    defined = (stds != 0.0)[:, None] & (stds != 0.0)
    corr = np.full(cov.shape, np.nan)
    np.divide(cov, stds[:, None] * stds, out=corr, where=defined)
    return SummaryStats(
        columns=d.FACTOR_NAMES + (d.RESPONSE_NAME,),
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

    def __post_init__(self):
        _check_fields(self, _integer, ("k",))
        object.__setattr__(self, "assignments", tuple(
            _integer(f, "fold id") for f in self.assignments))
        # A run outside every fold would never be held out or predicted.
        if not all(0 <= f < self.k for f in self.assignments):
            raise ValueError(f"fold ids must be in [0, {self.k})")
        # An empty fold would train on every run and predict nothing.
        empty = sorted(set(range(self.k)) - set(self.assignments))
        if empty:
            raise ValueError(f"fold {empty[0]} holds no runs")

    def fold_indices(self, fold: int) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.assignments) if f == fold)


def kfold_plan(n: int, k: int, seed: int) -> FoldPlan:
    """Deterministic shuffled k-fold plan; k == n is leave-one-out.

    Fold sizes differ by at most 1 (round-robin over a seeded shuffle).
    """
    n, k = _integer(n, "n"), _integer(k, "k")
    seed = _integer(seed, "seed", 0, 2**64)
    if k < 2 or k > n:
        raise ValueError(f"fold count must satisfy 2 <= k <= n, got k={k}, n={n}")
    order = list(range(n))
    SplitMix64(seed).shuffle(order)
    assignments = [0] * n
    for pos, run_idx in enumerate(order):
        assignments[run_idx] = pos % k
    return FoldPlan(k=k, assignments=tuple(assignments))


def bootstrap_indices(n: int, seed: int) -> list[int]:
    """n indices drawn uniformly with replacement from [0, n), seeded: equal
    to ``next_below(n)`` called n times on one ``SplitMix64(seed)``."""
    n = n if type(n) is int else _integer(n, "n")  # skip it for an int
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if type(seed) is not int or not 0 <= seed < 2**64:  # skip it for an int in range
        seed = _integer(seed, "seed", 0, 2**64)
    return _first_below(n, seed)


def lane_bootstraps(n: int, seeds) -> np.ndarray:
    """Row t is ``bootstrap_indices(n, seeds[t])``, as a (len(seeds), n)
    ``np.intp`` array, every seed's first n draws from one `derive_seed`
    call.  A seed with a draw among them that `next_below` would reject,
    which is rare, is redone by `bootstrap_indices`.
    """
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    seeds = np.array([_integer(s, "seed", 0, 2**64) for s in seeds], np.uint64)
    draws = derive_seed(seeds[:, None], np.arange(n, dtype=np.uint64))
    rows = (draws % np.uint64(n)).astype(np.intp)
    limit = (2**64 // n) * n
    if limit < 2**64:  # a power-of-two n rejects nothing
        for t in np.flatnonzero((draws >= limit).any(axis=1)).tolist():
            rows[t] = bootstrap_indices(n, int(seeds[t]))
    return rows
