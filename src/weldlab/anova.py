"""Main-effects general linear model, ANOVA table, and model summary.

Factors enter through effects coding of `Dataset.level_codes` (intercept
plus L-1 contrast columns per factor; contrast k is 1 at level k, -1 at the
last level, 0 elsewhere; Montgomery, *Design and Analysis of Experiments*).
Adjusted SS are Type-III-style nested-model SSE differences, which stay
order-independent on non-orthogonal designs; each reduced model is the one
full design without a factor's columns.  F and p are undefined, and None,
when the full fit is exact (SSE 0).  The F upper tail is computed from
scratch via the regularized incomplete beta continued fraction.

No product goes through BLAS, whose kernel (and so its rounding) depends on
the CPU: each is elementwise products summed by `np.add.reduce` in one
fixed order, and one elimination per model gives beta and the hat diagonal.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dataset import Dataset

# Pivot below this fraction of the largest pivot counts as singular.
PIVOT_RTOL = 1e-10
# Degenerate p-values clamp to the open interval rather than reporting 0.
P_FLOOR = 1e-300
SIGNIFICANCE_LEVEL = 0.05


class RankDeficiencyError(ValueError):
    """Normal equations are singular (confounded design)."""

    def __init__(self, factors: tuple[str, ...]):
        self.factors = factors
        super().__init__(
            "singular normal equations; dependent columns involve factor(s): "
            + ", ".join(factors)
        )


class SaturatedModelError(ValueError):
    """Zero error degrees of freedom; no F tests possible."""


class LeverageOneError(ValueError):
    """A run with hat diagonal 1 makes PRESS undefined."""


def _sum_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sums of `a * b` (broadcast) over the last axis, in a fixed order."""
    return np.add.reduce(a * b, axis=-1)


def _solve_normal(A: np.ndarray, B: np.ndarray, labels: tuple[str, ...]):
    """Gaussian elimination with partial pivoting on the normal equations.

    `labels` names the source of each column (for the singularity error).
    Solves A Z = B column by column, each column alone.
    """
    A, B = A.copy(), B.copy()
    p = A.shape[0]
    perm = list(range(p))
    max_pivot = 0.0
    for k in range(p):
        pivot_row = k + int(np.argmax(np.abs(A[k:, k])))
        pivot = abs(A[pivot_row, k])
        max_pivot = max(max_pivot, pivot)
        if max_pivot == 0.0 or pivot < PIVOT_RTOL * max_pivot:
            bad = {labels[perm[i]] for i in range(k, p)}
            raise RankDeficiencyError(tuple(sorted(bad - {"intercept"}) or ["intercept"]))
        if pivot_row != k:
            A[[k, pivot_row]] = A[[pivot_row, k]]
            B[[k, pivot_row]] = B[[pivot_row, k]]
            perm[k], perm[pivot_row] = perm[pivot_row], perm[k]
        factors = A[k + 1 :, k] / A[k, k]
        A[k + 1 :, k:] -= factors[:, None] * A[k, k:]
        B[k + 1 :] -= factors[:, None] * B[k]
    Z = np.empty_like(B)
    for k in range(p - 1, -1, -1):
        Z[k] = (B[k] - _sum_products(A[k, k + 1 :], Z[k + 1 :].T)) / A[k, k]
    return Z


def _design_matrix(d: Dataset):
    """Effects-coded design (intercept + each factor's contrasts) and the
    source of each column."""
    levels, codes = d.level_codes()
    cols = [np.ones((len(d), 1))]
    labels = ("intercept",)
    for fi, name in enumerate(d.FACTOR_NAMES):
        c, last = codes[:, fi, None], len(levels[fi]) - 1
        cols.append((c == np.arange(last)) - (c == last) * 1.0)
        labels += (name,) * last
    return np.hstack(cols), labels


class GlmFit(NamedTuple):
    dataset: Dataset
    labels: tuple[str, ...]  # the source of each design column
    design: np.ndarray
    coefficients: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    hat_diagonal: np.ndarray
    sse: float
    sst: float
    error_df: int

    @property
    def n_parameters(self) -> int:
        return self.design.shape[1]


def fit_glm(d: Dataset) -> GlmFit:
    """Least squares for the effects-coded main-effects model."""
    X, labels = _design_matrix(d)
    n, p = X.shape
    if p > n:
        raise ValueError(f"model needs {p} parameters but only {n} runs")
    return _fit(d, X, labels)


def _fit(d: Dataset, X: np.ndarray, labels: tuple[str, ...]) -> GlmFit:
    """Least squares of `d`'s responses on the design `X`, whose columns
    come from `labels`."""
    y = d.responses()
    XtX = _sum_products(X.T[:, None, :], X.T)
    # One elimination solves XtX [beta | Z] = [X'y | X'], and the hat
    # diagonal is h_i = x_i . solve(XtX, x_i) = x_i . Z[:, i].
    Z = _solve_normal(XtX, np.column_stack((_sum_products(X.T, y), X.T)), labels)
    beta = Z[:, 0]
    fitted = _sum_products(X, beta)
    residuals = y - fitted
    hat = _sum_products(X, Z[:, 1:].T)
    sse = float(_sum_products(residuals, residuals))
    ybar = float(y.mean())
    sst = float(((y - ybar) ** 2).sum())
    return GlmFit(
        dataset=d,
        labels=labels,
        design=X,
        coefficients=beta,
        fitted=fitted,
        residuals=residuals,
        hat_diagonal=hat,
        sse=sse,
        sst=sst,
        error_df=X.shape[0] - X.shape[1],
    )


class AnovaRow(NamedTuple):
    source: str
    df: int
    adj_ss: float
    adj_ms: float | None
    f_value: float | None
    p_value: float | None


class AnovaTable(NamedTuple):
    rows: tuple[AnovaRow, ...]  # one per factor, declaration order
    error: AnovaRow
    total: AnovaRow

    def significant_sources(self, alpha: float = SIGNIFICANCE_LEVEL):
        return tuple(
            r.source for r in self.rows if r.p_value is not None and r.p_value < alpha
        )


def anova_table(fit: GlmFit) -> AnovaTable:
    """Adjusted-SS ANOVA: each factor's SS is the SSE increase from
    refitting without that factor's contrast columns.  F and p are None
    where they are undefined: for a factor with one level, and for every
    factor when the fit is exact (SSE 0)."""
    if fit.error_df < 1:
        raise SaturatedModelError(
            "error DF is 0 (saturated model); no F tests possible"
        )
    d = fit.dataset
    mse = fit.sse / fit.error_df
    rows = []
    for name in d.FACTOR_NAMES:
        # The reduced design must be C-contiguous: a column subset comes
        # back F-contiguous, and `_sum_products` would then add in another
        # order.  It goes through the full model's routine, right-hand side
        # [X'y | X'] included, because solving [X'y] alone changes the last
        # bits of some SSEs; so its hat diagonal is computed and dropped.
        keep = [label != name for label in fit.labels]
        reduced = _fit(d, np.ascontiguousarray(fit.design[:, keep]),
                       tuple(label for label in fit.labels if label != name))
        adj_ss = reduced.sse - fit.sse
        df = fit.labels.count(name)
        ms = adj_ss / df if df > 0 else None
        f = p = None
        if df > 0 and mse > 0.0:
            f = ms / mse
            p = f_survival(max(f, 0.0), df, fit.error_df)
        rows.append(AnovaRow(source=name, df=df, adj_ss=adj_ss, adj_ms=ms,
                             f_value=f, p_value=p))
    error = AnovaRow(
        source="Error", df=fit.error_df, adj_ss=fit.sse, adj_ms=mse,
        f_value=None, p_value=None,
    )
    total = AnovaRow(
        source="Total", df=len(d) - 1, adj_ss=fit.sst, adj_ms=None,
        f_value=None, p_value=None,
    )
    return AnovaTable(rows=tuple(rows), error=error, total=total)


class ModelSummary(NamedTuple):
    s: float  # sqrt(MSE_error)
    r_sq: float
    r_sq_adjusted: float
    r_sq_predicted: float | None
    press: float | None


def summary_from_aggregates(
    sse: float, error_df: int, sst: float, total_df: int, press: float | None = None
) -> ModelSummary:
    """Model-summary arithmetic from raw sums; shared by fit-based and
    published-table checks."""
    if error_df < 1:
        raise SaturatedModelError("error DF is 0; S undefined")
    if sst <= 0.0:
        raise ValueError("zero-variance response; R^2 undefined")
    s = math.sqrt(sse / error_df)
    r_sq = 1.0 - sse / sst
    r_adj = 1.0 - (sse / error_df) / (sst / total_df)
    r_pred = None if press is None else 1.0 - press / sst
    return ModelSummary(
        s=s, r_sq=r_sq, r_sq_adjusted=r_adj, r_sq_predicted=r_pred, press=press
    )


def model_summary(fit: GlmFit) -> ModelSummary:
    """S, R^2, adjusted R^2, and predicted R^2 via PRESS leave-one-out."""
    if np.any(fit.hat_diagonal >= 1.0 - 1e-12):
        worst = int(np.argmax(fit.hat_diagonal))
        raise LeverageOneError(
            f"run {worst} has leverage ~1; PRESS (predicted R^2) undefined"
        )
    loo = fit.residuals / (1.0 - fit.hat_diagonal)
    press = float(_sum_products(loo, loo))
    return summary_from_aggregates(
        fit.sse, fit.error_df, fit.sst, len(fit.dataset) - 1, press
    )


# --- F-distribution upper tail -------------------------------------------

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 500


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # The even term of the fraction, then the odd one.
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) to ~1e-12."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_survival(f: float, d1: int, d2: int) -> float:
    """P(F_{d1,d2} > f) = I_x(d2/2, d1/2) with x = d2/(d2 + d1*f)."""
    if f < 0:
        raise ValueError(f"F statistic must be >= 0, got {f}")
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if f == 0.0:
        return 1.0
    x = d2 / (d2 + d1 * f)
    p = betainc_regularized(d2 / 2.0, d1 / 2.0, x)
    return min(max(p, P_FLOOR), 1.0)
