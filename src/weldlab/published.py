"""Reference values printed in the original study of this dataset.

The embedded dataset transcribes a published 9-run friction-stir-welding
hardness experiment.  The study's printed ANOVA and model-quality tables
are internally consistent but cannot be derived from the 9 printed runs
(their total SS implies unpublished replicate data), so these constants
exist for two purposes only: checking the arithmetic *within* the printed
tables, and flagging discrepancies against what the embedded data give.
"""

from __future__ import annotations

from typing import NamedTuple

# Printed ANOVA for the hardness response: source -> (DF, adjusted SS).
PUBLISHED_ANOVA_SS = {
    "rpm": (2, 232.621),
    "traverse_mm_min": (2, 2.965),
    "plan_depth_mm": (2, 133.779),
}
PUBLISHED_ERROR_DF = 2
PUBLISHED_ERROR_SS = 1.597
PUBLISHED_TOTAL_DF = 8
PUBLISHED_TOTAL_SS = 370.963

# Printed model summary.
PUBLISHED_S = 0.89370
PUBLISHED_R_SQ = 0.9957
PUBLISHED_R_SQ_ADJUSTED = 0.9828
PUBLISHED_R_SQ_PREDICTED = 0.9128

# Printed optimum: levels (3, 2, 3), i.e. 1200 rpm / 50 mm/min / 0.3 mm.
PUBLISHED_OPTIMAL_LEVELS = (3, 2, 3)
PUBLISHED_OPTIMAL_VALUES = (1200.0, 50.0, 0.3)

# Printed held-out metrics (MSE, MAE, R^2); the split/seed behind them was
# never stated, so they are context, not targets.
PUBLISHED_RF_METRICS = (4.42, 1.979, 0.62)
PUBLISHED_XGB_METRICS = (4.14, 1.99, 0.65)


class Discrepancy(NamedTuple):
    """One published-vs-computed mismatch surfaced in reports."""

    topic: str
    published: str
    computed: str
    note: str
