import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weldlab
from weldlab import anova
from weldlab.anova import (
    LeverageOneError,
    RankDeficiencyError,
    SaturatedModelError,
    anova_table,
    betainc_regularized,
    f_survival,
    fit_glm,
    model_summary,
    summary_from_aggregates,
)
from weldlab.dataset import Dataset, Run

from conftest import f_tail_quadrature, make_dataset


def pinv_oracle(d, drop=None):
    """Independent least-squares route: pseudo-inverse on effects coding."""
    y = d.responses()
    F = d.features()
    cols = [np.ones(len(d))]
    for fi in range(3):
        if drop == fi:
            continue
        levels = sorted(set(F[:, fi]))
        for k in range(len(levels) - 1):
            cols.append(
                np.where(F[:, fi] == levels[k], 1.0,
                         np.where(F[:, fi] == levels[-1], -1.0, 0.0))
            )
    X = np.column_stack(cols)
    beta = np.linalg.pinv(X) @ y
    resid = y - X @ beta
    return X, float(resid @ resid)


def fit_on(d, sources):
    """The fit routine behind `fit_glm` and the reduced models, on the
    columns of `d`'s design that come from `sources`."""
    X, labels = anova._design_matrix(d)
    keep = [label in sources for label in labels]
    return anova._fit(d, np.ascontiguousarray(X[:, keep]),
                      tuple(label for label in labels if label in sources))


class TestFitGlm:
    def test_builtin_sst(self, builtin):
        fit = fit_glm(builtin)
        assert fit.sst == pytest.approx(177.736, abs=0.01)

    def test_residuals_sum_zero(self, builtin):
        fit = fit_glm(builtin)
        assert abs(fit.residuals.sum()) < 1e-9

    def test_residuals_orthogonal_to_design(self, builtin):
        fit = fit_glm(builtin)
        assert np.max(np.abs(fit.design.T @ fit.residuals)) < 1e-8

    def test_hat_diagonal_sums_to_parameter_count(self, builtin):
        fit = fit_glm(builtin)
        assert fit.hat_diagonal.sum() == pytest.approx(fit.n_parameters, abs=1e-9)
        assert np.all(fit.hat_diagonal >= -1e-12)
        assert np.all(fit.hat_diagonal < 1.0)

    def test_sse_matches_pinv_oracle(self, builtin):
        fit = fit_glm(builtin)
        _, sse = pinv_oracle(builtin)
        assert fit.sse == pytest.approx(sse, abs=1e-9)

    def test_constant_response_perfect_fit(self):
        # Hadamard-patterned 2-level design (not confounded), constant y
        d = make_dataset(
            [(800, 40, 0.1, 5.0), (800, 50, 0.2, 5.0), (900, 40, 0.2, 5.0),
             (900, 50, 0.1, 5.0)]
        )
        fit = fit_glm(d)
        assert fit.sse == pytest.approx(0.0, abs=1e-18)
        assert np.allclose(fit.coefficients[1:], 0.0, atol=1e-12)

    def test_mean_only_model(self, builtin):
        fit = fit_on(builtin, ("intercept",))
        y = builtin.responses()
        assert fit.coefficients[0] == pytest.approx(y.mean())
        assert np.allclose(fit.hat_diagonal, 1.0 / 9.0)

    def test_too_many_parameters_rejected(self):
        d = make_dataset([(800, 40, 0.1, 5.0), (900, 50, 0.2, 6.0)])
        # 2 runs cannot support 1 + 3 contrast columns
        with pytest.raises(ValueError):
            fit_glm(d)

    def test_confounded_design_names_factors(self):
        # traverse is a relabeling of rpm: their contrasts are collinear
        d = make_dataset(
            [(800, 40, 0.1, 5.0), (800, 40, 0.2, 6.0), (900, 50, 0.1, 7.0),
             (900, 50, 0.2, 8.0)]
        )
        with pytest.raises(RankDeficiencyError) as exc:
            fit_glm(d)
        assert "rpm" in exc.value.factors or "traverse_mm_min" in exc.value.factors


class TestAnovaTable:
    def test_adjusted_ss_match_pinv_oracle(self, builtin):
        fit = fit_glm(builtin)
        table = anova_table(fit)
        _, sse_full = pinv_oracle(builtin)
        for fi, row in enumerate(table.rows):
            _, sse_red = pinv_oracle(builtin, drop=fi)
            assert row.adj_ss == pytest.approx(sse_red - sse_full, abs=1e-6)

    def test_builtin_frozen_golden_values(self, builtin):
        # Frozen from the pseudo-inverse oracle before the main build.
        table = anova_table(fit_glm(builtin))
        byname = {r.source: r for r in table.rows}
        assert byname["rpm"].adj_ss == pytest.approx(106.274756, abs=1e-4)
        assert byname["traverse_mm_min"].adj_ss == pytest.approx(36.488036, abs=1e-4)
        assert byname["plan_depth_mm"].adj_ss == pytest.approx(17.042702, abs=1e-4)
        assert table.error.adj_ss == pytest.approx(1.333476, abs=1e-4)

    def test_ms_f_p_identities(self, builtin):
        table = anova_table(fit_glm(builtin))
        mse = table.error.adj_ms
        for row in table.rows:
            assert row.adj_ms == pytest.approx(row.adj_ss / row.df, rel=1e-9)
            assert row.f_value == pytest.approx(row.adj_ms / mse, rel=1e-9)
            assert 0.0 < row.p_value <= 1.0

    def test_adjusted_ss_nonnegative(self, builtin):
        table = anova_table(fit_glm(builtin))
        for row in table.rows:
            assert row.adj_ss >= -1e-9

    def test_row_order_is_declaration_order(self, builtin):
        table = anova_table(fit_glm(builtin))
        assert [r.source for r in table.rows] == list(builtin.FACTOR_NAMES)

    def test_orthogonal_design_decomposes_exactly(self):
        # replicated 2x2 factorial in (rpm, traverse), depth crossed evenly:
        # all pairs orthogonal, so adjusted SS sum with SSE to SST
        rows = [
            (800, 40, 0.1, 5.0), (800, 50, 0.2, 6.1), (900, 40, 0.2, 9.3),
            (900, 50, 0.1, 10.0), (800, 40, 0.2, 5.4), (800, 50, 0.1, 6.6),
            (900, 40, 0.1, 8.9), (900, 50, 0.2, 10.4),
        ]
        d = make_dataset(rows)
        fit = fit_glm(d)
        table = anova_table(fit)
        total_factor_ss = sum(r.adj_ss for r in table.rows)
        assert total_factor_ss + fit.sse == pytest.approx(fit.sst, abs=1e-6)

    def test_significance_flags(self, builtin):
        table = anova_table(fit_glm(builtin))
        assert "rpm" in table.significant_sources()
        assert "plan_depth_mm" not in table.significant_sources()

    def test_adjusted_ss_nonnegative_random_designs(self):
        # nested SSE differences cannot go below zero (within roundoff)
        rng = np.random.default_rng(44)
        for _ in range(20):
            rows = []
            for _ in range(12):
                rows.append(
                    (float(rng.choice([700, 800, 900])),
                     float(rng.choice([40, 50])),
                     float(rng.choice([0.1, 0.2])),
                     float(rng.uniform(50, 90)))
                )
            d = make_dataset(rows)
            try:
                table = anova_table(fit_glm(d))
            except (RankDeficiencyError, SaturatedModelError):
                continue
            for row in table.rows:
                assert row.adj_ss >= -1e-9

    def test_exact_fit_leaves_f_and_p_undefined(self):
        """Replicated Hadamard cells fit exactly (SSE 0) with 4 error DF:
        the table keeps its SS and MS, and F and p are None."""
        cells = [
            (800, 40, 0.1, 5.0), (800, 50, 0.2, 6.0),
            (900, 40, 0.2, 9.0), (900, 50, 0.1, 10.0),
        ]
        fit = fit_glm(make_dataset(cells + cells))
        assert (fit.sse, fit.error_df) == (0.0, 4)
        table = anova_table(fit)
        assert table.error.adj_ms == 0.0
        assert [r.adj_ss for r in table.rows] == pytest.approx([32.0, 2.0, 0.0])
        for row in table.rows:
            assert row.df == 1 and row.adj_ms == row.adj_ss
            assert row.f_value is None and row.p_value is None
        assert table.significant_sources() == ()

    def test_saturated_model_rejected(self):
        # three 2-level factors on 4 runs: 4 parameters, 0 error DF
        d = make_dataset(
            [(800, 40, 0.1, 5.0), (800, 50, 0.2, 6.0), (900, 40, 0.2, 9.0),
             (900, 50, 0.1, 10.0)]
        )
        fit = fit_glm(d)
        assert fit.error_df == 0
        with pytest.raises(SaturatedModelError):
            anova_table(fit)

    def test_published_row_arithmetic(self):
        # printed SS/DF against printed error MS reproduce the printed F/p
        mse = 1.597 / 2
        ms = 232.621 / 2
        f = ms / mse
        assert ms == pytest.approx(116.311, abs=0.01)
        assert f == pytest.approx(145.66, abs=0.1)
        assert f_survival(f, 2, 2) == pytest.approx(0.0068, abs=0.0005)
        ms2 = 2.965 / 2
        f2 = ms2 / mse
        assert f2 == pytest.approx(1.86, abs=0.01)
        assert f_survival(f2, 2, 2) == pytest.approx(0.350, abs=0.001)


class TestModelSummary:
    def test_published_aggregates(self):
        # S, R^2, adjusted R^2 from the printed SSE/SST sums
        s = summary_from_aggregates(1.597, 2, 370.963, 8)
        assert s.s == pytest.approx(0.8936, abs=0.001)
        assert 100 * s.r_sq == pytest.approx(99.57, abs=0.01)
        assert 100 * s.r_sq_adjusted == pytest.approx(98.28, abs=0.01)

    def test_builtin_orderings(self, builtin):
        s = model_summary(fit_glm(builtin))
        assert s.r_sq_predicted <= s.r_sq_adjusted <= s.r_sq
        assert s.press >= fit_glm(builtin).sse

    def test_perfect_fit(self):
        # replicated Hadamard cells: main effects reproduce y exactly,
        # error DF = 4, and the response is not constant
        cells = [
            (800, 40, 0.1, 5.0), (800, 50, 0.2, 6.0),
            (900, 40, 0.2, 9.0), (900, 50, 0.1, 10.0),
        ]
        d = make_dataset(cells + cells)
        fit = fit_glm(d)
        assert fit.error_df == 4
        s = model_summary(fit)
        assert s.s == pytest.approx(0.0, abs=1e-12)
        assert s.r_sq == pytest.approx(1.0)

    def test_mean_model_press_algebra(self, builtin):
        # LOO residual of the mean model is e_i * n/(n-1)
        fit = fit_on(builtin, ("intercept",))
        s = model_summary(fit)
        n = 9
        assert s.press == pytest.approx(fit.sst * (n / (n - 1)) ** 2, rel=1e-12)

    def test_leverage_one_rejected(self):
        # 2-level factor with a single run at one level: that run has h=1...
        # build it with one factor informative, others constant-free
        rows = [
            (800, 40, 0.1, 5.0), (900, 41, 0.2, 6.0), (900, 42, 0.3, 7.0),
            (900, 43, 0.11, 8.0), (900, 44, 0.12, 9.0), (900, 45, 0.13, 10.0),
        ]
        d = Dataset(runs=tuple(Run(*r) for r in rows))
        fit = fit_on(d, ("intercept", "rpm"))
        with pytest.raises(LeverageOneError):
            model_summary(fit)


# The full-precision ANOVA values (as float.hex) of the builtin data, of
# two responses on its settings whose 6-digit ANOVA sections once differed
# between OpenBLAS's Prescott and Haswell kernels, and of two seeded random
# designs of 20 runs and 13 parameters.
_ANOVA_VALUES = """
import json

import numpy as np

from weldlab.anova import anova_table, fit_glm, model_summary
from weldlab.dataset import Dataset, Run, builtin_aa6262

RESPONSES = (
    [83.692, 59.593, 58.47, 62.04, 50.77, 83.2, 85.65, 47.2, 48.1],
    [46.04, 42.405, 73.03, 45.5, 50.8, 85.5, 61.1, 88.7, 65.57],
)
SEEDS = (200, 291)


# 20-27 runs over 4, 5 and 6 levels, each level used at least once.
def seeded_design(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 28))
    columns = []
    for k in (4, 5, 6):
        settings = rng.choice(np.arange(1, 20) * 10.0, size=k, replace=False)
        columns.append(rng.permutation(np.concatenate(
            [settings, rng.choice(settings, size=n - k)])))
    ys = rng.uniform(40, 90, n).round(3)
    return Dataset(runs=tuple(
        Run(*row) for row in zip(*(c.tolist() for c in columns), ys.tolist())))


def anova_values():
    builtin = builtin_aa6262()
    designs = [builtin, *(
        Dataset(runs=tuple(Run(r.rpm, r.traverse, r.depth, y)
                           for r, y in zip(builtin.runs, ys)))
        for ys in RESPONSES), *map(seeded_design, SEEDS)]
    out = []
    for d in designs:
        fit = fit_glm(d)
        values = [fit.sse, model_summary(fit).press,
                  *(r.adj_ss for r in anova_table(fit).rows),
                  *fit.coefficients.tolist(), *fit.hat_diagonal.tolist()]
        out.append([v.hex() for v in values])
    return out


if __name__ == "__main__":
    print(json.dumps(anova_values()))
"""


# `anova_values()` as float.hex, pinned while each reduced model was still
# refit from the runs: an ANOVA value whose arithmetic changes order (a
# strided sum, another right-hand side) changes in its last bits here.
_PINNED_VALUES = [
    [
        "0x1.555ea76d206b8p+0", "0x1.5e821d7dbf38dp+5", "0x1.a919598536069p+6",
        "0x1.23e77f2f732c3p+5", "0x1.10aee8867e932p+4", "0x1.0691a2b3c4d5ep+6",
        "0x1.5e6f8091a2b73p-1", "0x1.e987654320fdcp+1", "-0x1.6bcdf0123456fp+1",
        "0x1.3817aa7069968p+0", "0x1.3628814065f1bp+1", "-0x1.fb1b88c2c99d8p+0",
        "0x1.d27d27d27d27ep-1", "0x1.49f49f49f49f5p-1", "0x1.d27d27d27d27dp-1",
        "0x1.d27d27d27d27ep-1", "0x1.d27d27d27d27ep-1", "0x1.49f49f49f49f4p-1",
        "0x1.8e38e38e38e3ap-1", "0x1.49f49f49f49f5p-1", "0x1.49f49f49f49f4p-1",
    ],
    [
        "0x1.96ac7dbcc4413p+9", "0x1.b0b34e62ccb54p+14", "0x1.33d8ef34d6a18p+6",
        "0x1.726db0cdda5a7p+9", "0x1.71a0f62bb27c4p+7", "0x1.0134e81b4e81cp+6",
        "0x1.7999999999997p+1", "0x1.08f5c28f5c284p+0", "0x1.9a6bdc8057619p+3",
        "-0x1.b5f5e58335625p+2", "0x1.c4d47224515f9p+2", "-0x1.ef2d3149dd521p+2",
        "0x1.d27d27d27d27ep-1", "0x1.49f49f49f49f5p-1", "0x1.d27d27d27d27dp-1",
        "0x1.d27d27d27d27ep-1", "0x1.d27d27d27d27ep-1", "0x1.49f49f49f49f4p-1",
        "0x1.8e38e38e38e3ap-1", "0x1.49f49f49f49f5p-1", "0x1.49f49f49f49f4p-1",
    ],
    [
        "0x1.0a0bb2fec56d5p+10", "0x1.8b651d0e703c2p+14", "0x1.eddba29c779b0p+8",
        "0x1.93df1a9fbe772p+9", "0x1.2448e8a71dec0p+4", "0x1.f092c5f92c5f9p+5",
        "-0x1.07e4b17e4b17fp+3", "-0x1.78bf258bf2579p+0", "-0x1.6622222222224p+3",
        "-0x1.7b17e4b17e4a7p+1", "-0x1.0962fc962fc90p+1", "0x1.40369d0369cfcp+1",
        "0x1.d27d27d27d27ep-1", "0x1.49f49f49f49f5p-1", "0x1.d27d27d27d27dp-1",
        "0x1.d27d27d27d27ep-1", "0x1.d27d27d27d27ep-1", "0x1.49f49f49f49f4p-1",
        "0x1.8e38e38e38e3ap-1", "0x1.49f49f49f49f5p-1", "0x1.49f49f49f49f4p-1",
    ],
    [
        "0x1.69f18c774adacp+9", "0x1.60f47f770f922p+12", "0x1.04398cfb8169bp+10",
        "0x1.69e0d743760bep+10", "0x1.fc817b25a2988p+9", "0x1.06d8c814d6946p+6",
        "-0x1.444543d87cf91p+3", "0x1.31a1ec088f848p+3", "0x1.12a1806536bbdp-1",
        "-0x1.8edba091bcea6p+2", "0x1.62673fc8567c0p+3", "-0x1.b83713bec6d45p+3",
        "0x1.d5efedbd6ea4ep+3", "0x1.877f3c7d35402p+1", "-0x1.4fbc4ec2ef7b6p+2",
        "-0x1.1970255079b3dp+2", "-0x1.ad89f1a4dbbecp+3", "0x1.29250e4c7786bp+4",
        "0x1.2e32ac09bc991p-1", "0x1.7c17734c36b7ap-1", "0x1.289348ec2642ep-1",
        "0x1.4eaea4c510c3dp-1", "0x1.9294ffc2900ffp-1", "0x1.5c46a01b6d668p-1",
        "0x1.9294ffc2900fep-1", "0x1.89b8357bbb4b6p-1", "0x1.6e1a89348ec26p-1",
        "0x1.966bfec409766p-1", "0x1.68ce8725f3dd1p-2", "0x1.3352cbda8fc9cp-1",
        "0x1.11a806db59a73p-1", "0x1.41f214a39aa80p-1", "0x1.7c17734c36b7bp-1",
        "0x1.3d0f64c2df0dap-1", "0x1.6e1a89348ec26p-1", "0x1.2532c65e4810cp-1",
        "0x1.9294ffc290101p-1", "0x1.68ce8725f3dd1p-2",
    ],
    [
        "0x1.6a48df3aaa89fp+8", "0x1.9a1ae93e0efc8p+11", "0x1.4c07cb7af4a02p+7",
        "0x1.98e47da5edfdbp+8", "0x1.13c744845c9bfp+11", "0x1.095de19f70bc2p+6",
        "-0x1.46d97466c4b86p+1", "0x1.0cd3b72b4d1d0p-6", "-0x1.9120a5e1a274bp+1",
        "-0x1.8622898e2f792p+1", "0x1.ccc229a1aae89p+1", "-0x1.61e51b8744307p+0",
        "-0x1.91d7b646db95fp+2", "-0x1.2c8f0955d22eap+4", "0x1.cc986c3899be0p+3",
        "0x1.467d7c8e3e335p+2", "-0x1.21a3894bc7c84p+4", "0x1.c9d572cf56a5bp+3",
        "0x1.7f422491ce407p-2", "0x1.4441941395929p-1", "0x1.8232d9d0e082ap-1",
        "0x1.3ba1dbe72a4e4p-1", "0x1.4c9abb421720ep-1", "0x1.4c9abb421720ep-1",
        "0x1.1e73e77af3f6ap-1", "0x1.b14189fedf03bp-1", "0x1.cc343e0212edcp-2",
        "0x1.3106bbd5f1966p-1", "0x1.a59996e968eaep-1", "0x1.a59996e968eb0p-1",
        "0x1.40ca755264a01p-1", "0x1.7dbfb53bb6053p-1", "0x1.b14189fedf039p-1",
        "0x1.7f422491ce407p-2", "0x1.7d50d1638fe6fp-1", "0x1.8971bd07bb385p-1",
        "0x1.3458e3f9c07edp-1", "0x1.08817a08bdf65p-1",
    ],
]


def _cpu_has_avx2() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX2"))


class TestOneSolveWithoutBlas:
    @pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
    def test_values_equal_under_every_blas_kernel(self, coretype):
        """OpenBLAS picks its kernel from the CPU, and OPENBLAS_CORETYPE
        forces one: the values must not depend on it.  Prescott runs on any
        x86-64 CPU, Haswell needs AVX2."""
        if platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip("OpenBLAS core types are x86-64 kernels")
        if coretype == "Haswell" and not _cpu_has_avx2():
            pytest.skip("the Haswell kernel needs AVX2")
        here = {"__name__": "anova_values"}
        exec(_ANOVA_VALUES, here)
        src = str(Path(weldlab.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run(
            [sys.executable, "-c", _ANOVA_VALUES],
            capture_output=True, text=True, check=True, env=env,
        )
        assert json.loads(out.stdout) == here["anova_values"]()

    def test_values_equal_pinned_hex(self):
        """Both processes of the test above run the same code, so a bit
        change in both would pass it; this compares with pinned values."""
        here = {"__name__": "anova_values"}
        exec(_ANOVA_VALUES, here)
        assert here["anova_values"]() == _PINNED_VALUES

    def test_stacked_solve_equals_separate_solves(self):
        """`fit_glm` solves [X'y | X'] in one elimination; beta and each hat
        entry equal those of solving each right-hand side alone, bit for
        bit, on random effects-coded designs."""
        rng = np.random.default_rng(27)
        checked = 0
        for _ in range(40):
            levels = [rng.choice([700.0, 800.0, 900.0, 1000.0],
                                 size=int(rng.integers(2, 5)), replace=False),
                      rng.choice([40.0, 50.0, 60.0], size=int(rng.integers(2, 4)),
                                 replace=False),
                      rng.choice([0.1, 0.2, 0.3], size=int(rng.integers(2, 4)),
                                 replace=False)]
            rows = [(*(float(rng.choice(lv)) for lv in levels),
                     float(rng.uniform(40, 90)))
                    for _ in range(int(rng.integers(9, 25)))]
            d = make_dataset(rows)
            try:
                fit = fit_glm(d)
            except ValueError:  # too few runs, or a confounded design
                continue
            X, labels = anova._design_matrix(d)
            XtX = anova._sum_products(X.T[:, None, :], X.T)
            Xty = anova._sum_products(X.T, d.responses())
            beta = anova._solve_normal(XtX, Xty[:, None], labels)[:, 0]
            hat = [anova._sum_products(
                       X[i], anova._solve_normal(XtX, X.T[:, [i]], labels)[:, 0])
                   for i in range(len(d))]
            assert np.array_equal(fit.coefficients, beta)
            assert np.array_equal(fit.hat_diagonal, np.array(hat))
            checked += 1
        assert checked >= 20

    def test_one_solve_per_model(self, builtin, monkeypatch):
        """One ANOVA stage decides factor levels once and solves each model
        once: the full one, then each reduced one, a column subset of the
        full design with the same stacked right-hand side."""
        calls = []
        solve, level_codes = anova._solve_normal, Dataset.level_codes

        def counting(*args):
            calls.append(args[1].shape)
            return solve(*args)

        def counting_codes(self):
            calls.append("level_codes")
            return level_codes(self)

        monkeypatch.setattr(anova, "_solve_normal", counting)
        monkeypatch.setattr(Dataset, "level_codes", counting_codes)
        fit = fit_glm(builtin)
        anova_table(fit)
        model_summary(fit)
        assert calls == ["level_codes", (7, 10), (5, 10), (5, 10), (5, 10)]


class TestFSurvival:
    @pytest.mark.parametrize("f", [1.86, 83.75, 145.62])
    def test_closed_form_d2_2_2(self, f):
        assert f_survival(f, 2, 2) == pytest.approx(1.0 / (1.0 + f), abs=1e-10)

    def test_zero_statistic(self):
        assert f_survival(0.0, 3, 5) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            f_survival(-0.5, 2, 2)

    def test_strictly_decreasing(self):
        values = [f_survival(f, 3, 4) for f in (0.1, 0.5, 1.0, 2.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("d1", [1, 2, 3, 5])
    @pytest.mark.parametrize("d2", [1, 2, 3, 5])
    @pytest.mark.parametrize("f", [0.5, 1.0, 2.0, 10.0])
    def test_against_quadrature(self, d1, d2, f):
        got = f_survival(f, d1, d2)
        want = f_tail_quadrature(f, d1, d2)
        assert got == pytest.approx(want, abs=1e-6)

    def test_quadrature_self_check(self):
        # sanity: the oracle itself reproduces the d1=d2=2 closed form
        for f in (0.5, 2.0, 10.0):
            assert f_tail_quadrature(f, 2, 2) == pytest.approx(
                1 / (1 + f), abs=1e-8
            )

    def test_betainc_bounds(self):
        assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
        assert betainc_regularized(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            betainc_regularized(-1.0, 2.0, 0.5)

    def test_betainc_symmetry(self):
        a, b, x = 2.5, 3.5, 0.3
        assert betainc_regularized(a, b, x) == pytest.approx(
            1.0 - betainc_regularized(b, a, 1.0 - x), abs=1e-12
        )

    def test_p_floor_clamp(self):
        p = f_survival(1e12, 5, 5)
        assert p > 0.0
