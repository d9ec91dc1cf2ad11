"""Signal-to-noise ratios, main-effects response tables, and design checks.

Larger-is-better is the criterion that drives the analysis (the goal is
maximum hardness); smaller-is-better and nominal-is-best are provided
behind the same interface for generality.  Level means and the design
check count and sum over `Dataset.level_codes`.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import Dataset, _sequential_sum

CRITERIA = ("larger", "smaller", "nominal")


class DegenerateFactorError(ValueError):
    """A factor has fewer than two distinct levels."""


def sn_larger_is_better(y: Sequence[float]) -> float:
    """-10*log10(mean(1/y^2)) in dB; equals 20*log10(y) for one replicate."""
    if len(y) == 0:
        raise ValueError("need at least one replicate")
    if any(v <= 0 for v in y):
        raise ValueError("larger-is-better S/N requires all responses > 0")
    return -10.0 * math.log10(_sequential_sum(1.0 / (v * v) for v in y) / len(y))


def sn_smaller_is_better(y: Sequence[float]) -> float:
    """-10*log10(mean(y^2)) in dB."""
    if len(y) == 0:
        raise ValueError("need at least one replicate")
    return -10.0 * math.log10(_sequential_sum(v * v for v in y) / len(y))


def sn_nominal_is_best(y: Sequence[float]) -> float:
    """10*log10(mean^2 / sample variance); needs >= 2 replicates with spread."""
    if len(y) < 2:
        raise ValueError("nominal-is-best S/N requires at least 2 replicates")
    n = len(y)
    mean = _sequential_sum(y) / n
    var = _sequential_sum((v - mean) ** 2 for v in y) / (n - 1)
    if var == 0:
        raise ValueError("nominal-is-best S/N undefined for zero variance")
    return 10.0 * math.log10(mean * mean / var)


_SN_FUNCS = {
    "larger": sn_larger_is_better,
    "smaller": sn_smaller_is_better,
    "nominal": sn_nominal_is_best,
}


def sn_ratio(y: Sequence[float], criterion: str = "larger") -> float:
    try:
        fn = _SN_FUNCS[criterion]
    except KeyError:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    return fn(y)


class FactorEffect(NamedTuple):
    """Per-level means for one factor on one basis, with delta and rank."""

    factor: str
    levels: tuple[float, ...]
    means: tuple[float, ...]
    delta: float  # max level mean - min level mean
    rank: int  # 1 = largest delta


class ResponseTable(NamedTuple):
    """Main-effects table over raw response means and S/N means."""

    raw: tuple[FactorEffect, ...]
    s_n: tuple[FactorEffect, ...]
    criterion: str
    grand_mean: float


def _ranked(effects: list[tuple[str, tuple[float, ...], tuple[float, ...], float]]):
    # Rank 1 = largest delta; ties keep factor declaration order.
    order = sorted(range(len(effects)), key=lambda i: (-effects[i][3], i))
    ranks = [0] * len(effects)
    for rank, i in enumerate(order, start=1):
        ranks[i] = rank
    return tuple(
        FactorEffect(factor=f, levels=lv, means=mn, delta=dl, rank=ranks[i])
        for i, (f, lv, mn, dl) in enumerate(effects)
    )


def response_table(d: Dataset, criterion: str = "larger") -> ResponseTable:
    """Level means of the raw response and of per-run S/N, per factor.

    Every factor needs >= 2 levels and every level >= 1 run; single-level
    factors raise DegenerateFactorError.  A level's sums come from
    `np.bincount`, which adds the weights of its runs in stored run order.
    """
    y = d.responses()
    sn = np.array([sn_ratio([v], criterion) for v in y.tolist()])
    levels, codes = d.level_codes()

    raw_effects = []
    sn_effects = []
    for fi, name in enumerate(d.FACTOR_NAMES):
        if len(levels[fi]) < 2:
            raise DegenerateFactorError(
                f"factor {name!r} has a single level {levels[fi][0]}"
            )
        counts = np.bincount(codes[:, fi])
        for values, effects in ((y, raw_effects), (sn, sn_effects)):
            means = (np.bincount(codes[:, fi], values) / counts).tolist()
            effects.append((name, levels[fi], tuple(means), max(means) - min(means)))
    return ResponseTable(
        raw=_ranked(raw_effects),
        s_n=_ranked(sn_effects),
        criterion=criterion,
        grand_mean=float(y.mean()),
    )


class LevelChoice(NamedTuple):
    factor: str
    level_index: int  # 1-based, per DOE convention
    level_value: float
    mean: float


def optimal_combination(
    table: ResponseTable, basis: str = "raw"
) -> tuple[LevelChoice, ...]:
    """Per factor, the best level on the chosen basis: the largest S/N mean,
    or the largest raw mean (the smallest under the "smaller" criterion).
    Ties break toward the lowest level index.
    """
    if basis == "raw":
        effects = table.raw
        sign = -1.0 if table.criterion == "smaller" else 1.0
    elif basis == "s_n":
        effects, sign = table.s_n, 1.0
    else:
        raise ValueError(f"basis must be 'raw' or 's_n', got {basis!r}")
    choices = []
    for eff in effects:
        best = max(range(len(eff.means)), key=lambda i: (sign * eff.means[i], -i))
        choices.append(
            LevelChoice(
                factor=eff.factor,
                level_index=best + 1,
                level_value=eff.levels[best],
                mean=eff.means[best],
            )
        )
    return tuple(choices)


class DesignDiagnostics(NamedTuple):
    """Balance per factor and orthogonality per factor pair."""

    balanced: dict[str, bool]
    orthogonal_pairs: dict[tuple[str, str], bool]

    @property
    def all_orthogonal(self) -> bool:
        return all(self.orthogonal_pairs.values())

    def non_orthogonal_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(p for p, ok in self.orthogonal_pairs.items() if not ok)


def check_design(d: Dataset) -> DesignDiagnostics:
    """Balance: each level appears equally often.  Orthogonality of a pair:
    every (level_i, level_j) combination appears equally often, absences
    counting as zero."""
    levels, codes = d.level_codes()
    names = d.FACTOR_NAMES
    balanced = {name: len(set(np.bincount(codes[:, fi]).tolist())) == 1
                for fi, name in enumerate(names)}
    orthogonal = {}
    for i, j in itertools.combinations(range(len(names)), 2):
        li, lj = len(levels[i]), len(levels[j])
        cells = np.bincount(codes[:, i] * lj + codes[:, j], minlength=li * lj)
        orthogonal[(names[i], names[j])] = len(set(cells.tolist())) == 1
    return DesignDiagnostics(balanced=balanced, orthogonal_pairs=orthogonal)


def response_table_rows(table: ResponseTable) -> list[dict]:
    """Flatten to one row per (factor, level), for CSV/JSON rendering."""
    rows = []
    for raw_eff, sn_eff in zip(table.raw, table.s_n):
        for idx, lv in enumerate(raw_eff.levels):
            rows.append(
                {
                    "factor": raw_eff.factor,
                    "level_index": idx + 1,
                    "level": lv,
                    "raw_mean": raw_eff.means[idx],
                    "sn_mean": sn_eff.means[idx],
                }
            )
    return rows


def diagnostics_to_json_dict(diag: DesignDiagnostics) -> dict:
    return {
        "balanced": dict(diag.balanced),
        "orthogonal_pairs": {
            f"{a}*{b}": ok for (a, b), ok in diag.orthogonal_pairs.items()
        },
        "all_orthogonal": diag.all_orthogonal,
    }
