"""Signal-to-noise ratios, main-effects response tables, and design checks.

Larger-is-better is the criterion that drives the analysis (the goal is
maximum hardness); smaller-is-better and nominal-is-best are provided
behind the same interface for generality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dataset import Dataset

CRITERIA = ("larger", "smaller", "nominal")


class DegenerateFactorError(ValueError):
    """A factor has fewer than two distinct levels."""


def sn_larger_is_better(y: Sequence[float]) -> float:
    """-10*log10(mean(1/y^2)) in dB; equals 20*log10(y) for one replicate."""
    if len(y) == 0:
        raise ValueError("need at least one replicate")
    if any(v <= 0 for v in y):
        raise ValueError("larger-is-better S/N requires all responses > 0")
    return -10.0 * math.log10(sum(1.0 / (v * v) for v in y) / len(y))


def sn_smaller_is_better(y: Sequence[float]) -> float:
    """-10*log10(mean(y^2)) in dB."""
    if len(y) == 0:
        raise ValueError("need at least one replicate")
    return -10.0 * math.log10(sum(v * v for v in y) / len(y))


def sn_nominal_is_best(y: Sequence[float]) -> float:
    """10*log10(mean^2 / sample variance); needs >= 2 replicates with spread."""
    if len(y) < 2:
        raise ValueError("nominal-is-best S/N requires at least 2 replicates")
    n = len(y)
    mean = sum(y) / n
    var = sum((v - mean) ** 2 for v in y) / (n - 1)
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


@dataclass(frozen=True)
class FactorEffect:
    """Per-level means for one factor on one basis, with delta and rank."""

    factor: str
    levels: tuple[float, ...]
    means: tuple[float, ...]
    delta: float  # max level mean - min level mean
    rank: int  # 1 = largest delta


@dataclass(frozen=True)
class ResponseTable:
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
    factors raise DegenerateFactorError.
    """
    y = d.responses()
    sn = [sn_ratio([r.hardness], criterion) for r in d.runs]

    raw_effects = []
    sn_effects = []
    for fi, name in enumerate(d.factor_names):
        levels = d.levels(fi)
        if len(levels) < 2:
            raise DegenerateFactorError(
                f"factor {name!r} has a single level {levels[0]}"
            )
        raw_means = []
        sn_means = []
        for lv in levels:
            members = [i for i, r in enumerate(d.runs) if r.factors()[fi] == lv]
            raw_means.append(float(sum(y[i] for i in members)) / len(members))
            sn_means.append(float(sum(sn[i] for i in members)) / len(members))
        raw_effects.append(
            (name, levels, tuple(raw_means), max(raw_means) - min(raw_means))
        )
        sn_effects.append(
            (name, levels, tuple(sn_means), max(sn_means) - min(sn_means))
        )
    return ResponseTable(
        raw=_ranked(raw_effects),
        s_n=_ranked(sn_effects),
        criterion=criterion,
        grand_mean=float(y.mean()),
    )


@dataclass(frozen=True)
class LevelChoice:
    factor: str
    level_index: int  # 1-based, per DOE convention
    level_value: float
    mean: float


def optimal_combination(
    table: ResponseTable, basis: str = "raw"
) -> tuple[LevelChoice, ...]:
    """Per factor, the level with the maximum mean on the chosen basis.

    Larger-is-better throughout; ties break toward the lowest level index.
    """
    if basis == "raw":
        effects = table.raw
    elif basis == "s_n":
        effects = table.s_n
    else:
        raise ValueError(f"basis must be 'raw' or 's_n', got {basis!r}")
    choices = []
    for eff in effects:
        best = max(range(len(eff.means)), key=lambda i: (eff.means[i], -i))
        choices.append(
            LevelChoice(
                factor=eff.factor,
                level_index=best + 1,
                level_value=eff.levels[best],
                mean=eff.means[best],
            )
        )
    return tuple(choices)


@dataclass(frozen=True)
class DesignDiagnostics:
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
    balanced = {}
    for fi, name in enumerate(d.factor_names):
        counts = {}
        for r in d.runs:
            lv = r.factors()[fi]
            counts[lv] = counts.get(lv, 0) + 1
        balanced[name] = len(set(counts.values())) == 1

    orthogonal = {}
    nf = len(d.factor_names)
    for i in range(nf):
        for j in range(i + 1, nf):
            li = d.levels(i)
            lj = d.levels(j)
            combo_counts = {(a, b): 0 for a in li for b in lj}
            for r in d.runs:
                combo_counts[(r.factors()[i], r.factors()[j])] += 1
            orthogonal[(d.factor_names[i], d.factor_names[j])] = (
                len(set(combo_counts.values())) == 1
            )
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
