import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from weldlab import anova
from weldlab.taguchi import (
    DegenerateFactorError,
    check_design,
    diagnostics_to_json_dict,
    optimal_combination,
    response_table,
    response_table_rows,
    sn_larger_is_better,
    sn_nominal_is_best,
    sn_ratio,
    sn_smaller_is_better,
)

from conftest import l9_dataset, make_dataset


class TestSnLargerIsBetter:
    def test_table_value(self):
        assert sn_larger_is_better([65.8]) == pytest.approx(36.3646, abs=1e-3)

    def test_unity(self):
        assert sn_larger_is_better([1.0]) == 0.0

    def test_ten(self):
        assert sn_larger_is_better([10.0]) == pytest.approx(20.0, abs=1e-12)

    def test_single_replicate_is_20log10(self):
        for v in (0.5, 3.7, 120.0):
            assert sn_larger_is_better([v]) == pytest.approx(
                20 * math.log10(v), abs=1e-9
            )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sn_larger_is_better([5.0, -1.0])
        with pytest.raises(ValueError):
            sn_larger_is_better([0.0])

    def test_multi_replicate_formula(self):
        y = [2.0, 4.0]
        expected = -10 * math.log10((1 / 4 + 1 / 16) / 2)
        assert sn_larger_is_better(y) == pytest.approx(expected, rel=1e-12)

    @given(
        st.floats(min_value=0.1, max_value=1e4),
        st.floats(min_value=0.01, max_value=10.0),
    )
    def test_strictly_increasing(self, y, delta):
        assert sn_larger_is_better([y + delta]) > sn_larger_is_better([y])

    @given(
        st.floats(min_value=0.1, max_value=1e3),
        st.floats(min_value=1.0001, max_value=100.0),
    )
    def test_scaling_shifts_by_constant(self, y, c):
        shift = sn_larger_is_better([c * y]) - sn_larger_is_better([y])
        assert shift == pytest.approx(20 * math.log10(c), rel=1e-9, abs=1e-9)


class TestOtherCriteria:
    def test_smaller_is_better(self):
        assert sn_smaller_is_better([10.0]) == pytest.approx(-20.0, abs=1e-12)

    def test_nominal_needs_replicates(self):
        with pytest.raises(ValueError):
            sn_nominal_is_best([5.0])

    def test_nominal_value(self):
        # mean 10, sample var 2
        y = [9.0, 10.0, 11.0]
        assert sn_nominal_is_best(y) == pytest.approx(10 * math.log10(100.0), abs=1e-9)

    def test_nominal_zero_variance(self):
        with pytest.raises(ValueError):
            sn_nominal_is_best([5.0, 5.0])

    def test_dispatch(self):
        assert sn_ratio([10.0], "larger") == pytest.approx(20.0)
        with pytest.raises(ValueError):
            sn_ratio([10.0], "bogus")


class TestResponseTable:
    def test_rpm_level_means(self, builtin):
        t = response_table(builtin)
        rpm = t.raw[0]
        assert rpm.factor == "rpm"
        assert rpm.means[1] == pytest.approx(69.4667, abs=1e-3)

    def test_all_level_means(self, builtin):
        t = response_table(builtin)
        expected = {
            "rpm": (66.3267, 69.4667, 61.1333),
            "traverse_mm_min": (62.8, 65.3933, 68.7333),
            "plan_depth_mm": (68.2, 63.5267, 65.2),
        }
        for eff in t.raw:
            for got, want in zip(eff.means, expected[eff.factor]):
                assert got == pytest.approx(want, abs=1e-3)

    def test_deltas_and_ranks(self, builtin):
        t = response_table(builtin)
        deltas = {e.factor: e.delta for e in t.raw}
        assert deltas["rpm"] == pytest.approx(8.3333, abs=1e-3)
        assert deltas["traverse_mm_min"] == pytest.approx(5.9333, abs=1e-3)
        assert deltas["plan_depth_mm"] == pytest.approx(4.6733, abs=1e-3)
        ranks = {e.factor: e.rank for e in t.raw}
        assert ranks == {"rpm": 1, "traverse_mm_min": 2, "plan_depth_mm": 3}

    def test_ranks_are_permutation(self, builtin):
        t = response_table(builtin)
        assert sorted(e.rank for e in t.s_n) == [1, 2, 3]
        assert all(e.delta >= 0 for e in t.raw + t.s_n)

    def test_constant_response(self):
        d = make_dataset(
            [(800, 40, 0.1, 7.0), (800, 50, 0.2, 7.0), (900, 40, 0.2, 7.0),
             (900, 50, 0.1, 7.0)]
        )
        t = response_table(d)
        for eff in t.raw:
            assert all(m == pytest.approx(7.0) for m in eff.means)
            assert eff.delta == pytest.approx(0.0)

    def test_weighted_level_means_recover_grand_mean(self, builtin):
        t = response_table(builtin)
        y = builtin.responses()
        F = builtin.features()
        for fi, eff in enumerate(t.raw):
            total = 0.0
            for lv, mean in zip(eff.levels, eff.means):
                count = sum(1 for v in F[:, fi] if v == lv)
                total += count * mean
            assert total / len(builtin) == pytest.approx(y.mean(), abs=1e-9)

    def test_degenerate_factor_rejected(self):
        d = make_dataset([(800, 40, 0.1, 5.0), (800, 50, 0.2, 6.0)])
        with pytest.raises(DegenerateFactorError, match="rpm"):
            response_table(d)

    def test_rows_flatten(self, builtin):
        rows = response_table_rows(response_table(builtin))
        assert len(rows) == 9  # 3 factors x 3 levels
        assert {r["factor"] for r in rows} == set(builtin.FACTOR_NAMES)


class TestOptimalCombination:
    def test_builtin_raw_basis(self, builtin):
        best = optimal_combination(response_table(builtin), basis="raw")
        assert [c.level_value for c in best] == [1000.0, 60.0, 0.1]
        assert [c.level_index for c in best] == [2, 3, 1]

    def test_builtin_smaller_takes_smallest_raw_mean(self, builtin):
        """The raw basis took the largest mean under "smaller" too (levels
        2/3/1); it now agrees with the S/N basis."""
        table = response_table(builtin, criterion="smaller")
        raw = optimal_combination(table, basis="raw")
        assert [c.level_index for c in raw] == [3, 1, 2]
        assert [c.mean for c in raw] == [min(e.means) for e in table.raw]
        sn = optimal_combination(table, basis="s_n")
        assert [c.level_index for c in sn] == [3, 1, 2]

    def test_constant_ties_to_level_one(self):
        d = make_dataset(
            [(800, 40, 0.1, 7.0), (800, 50, 0.2, 7.0), (900, 40, 0.2, 7.0),
             (900, 50, 0.1, 7.0)]
        )
        for criterion in ("larger", "smaller"):
            table = response_table(d, criterion=criterion)
            for basis in ("raw", "s_n"):
                best = optimal_combination(table, basis=basis)
                assert [c.level_index for c in best] == [1, 1, 1]

    def test_dominant_level_wins(self):
        d = make_dataset(
            [(800, 40, 0.1, 1.0), (800, 50, 0.2, 1.0), (900, 40, 0.2, 9.0),
             (900, 50, 0.1, 9.0)]
        )
        best = optimal_combination(response_table(d))
        assert best[0].level_value == 900.0

    def test_affine_invariance_raw(self, builtin):
        base = optimal_combination(response_table(builtin), basis="raw")
        scaled = make_dataset(
            [(r.rpm, r.traverse, r.depth, 3.5 * r.hardness + 11.0)
             for r in builtin.runs]
        )
        after = optimal_combination(response_table(scaled), basis="raw")
        assert [c.level_index for c in base] == [c.level_index for c in after]

    def test_scale_invariance_sn(self, builtin):
        base = optimal_combination(response_table(builtin), basis="s_n")
        scaled = make_dataset(
            [(r.rpm, r.traverse, r.depth, 7.0 * r.hardness) for r in builtin.runs]
        )
        after = optimal_combination(response_table(scaled), basis="s_n")
        assert [c.level_index for c in base] == [c.level_index for c in after]

    def test_bad_basis(self, builtin):
        with pytest.raises(ValueError):
            optimal_combination(response_table(builtin), basis="median")


class TestCheckDesign:
    def test_builtin_balanced(self, builtin):
        diag = check_design(builtin)
        assert all(diag.balanced.values())

    def test_builtin_traverse_depth_not_orthogonal(self, builtin):
        diag = check_design(builtin)
        assert diag.orthogonal_pairs[("rpm", "traverse_mm_min")]
        assert diag.orthogonal_pairs[("rpm", "plan_depth_mm")]
        assert not diag.orthogonal_pairs[("traverse_mm_min", "plan_depth_mm")]
        assert diag.non_orthogonal_pairs() == (
            ("traverse_mm_min", "plan_depth_mm"),
        )

    def test_l9_restriction_fully_orthogonal(self):
        diag = check_design(l9_dataset())
        assert all(diag.balanced.values())
        assert diag.all_orthogonal

    def test_orthogonality_implies_balance(self):
        # property over a few constructed designs
        for d in (l9_dataset(),):
            diag = check_design(d)
            for (a, b), ok in diag.orthogonal_pairs.items():
                if ok:
                    assert diag.balanced[a] and diag.balanced[b]

    def test_unbalanced_detected(self):
        d = make_dataset(
            [(800, 40, 0.1, 5.0), (800, 50, 0.2, 6.0), (900, 40, 0.1, 7.0)]
        )
        diag = check_design(d)
        assert not diag.balanced["traverse_mm_min"]

    def test_json_dict_shape(self, builtin):
        j = diagnostics_to_json_dict(check_design(builtin))
        assert j["balanced"]["rpm"] is True
        assert j["orthogonal_pairs"]["traverse_mm_min*plan_depth_mm"] is False
        assert j["all_orthogonal"] is False


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestLevelCodesAgainstRunScans:
    """On random unbalanced designs (uneven level counts, levels of 8 and
    more runs, shuffled run order), everything read from
    `Dataset.level_codes` equals a scan of every run for every level."""

    @staticmethod
    def designs(count: int):
        rng = np.random.default_rng(0)
        for _ in range(count):
            n = int(rng.integers(16, 48))
            columns = []
            for _ in range(3):
                settings = rng.uniform(0.05, 2000.0, size=int(rng.integers(2, 6)))
                # Every setting once, the rest drawn with uneven weights.
                col = np.concatenate([settings, rng.choice(
                    settings, size=n - len(settings),
                    p=rng.dirichlet(np.full(len(settings), 0.7)))])
                columns.append(rng.permutation(col))
            y = rng.uniform(20.0, 90.0, size=n)
            yield make_dataset(zip(*(c.tolist() for c in columns), y.tolist()))

    def test_designs_match_per_run_scans(self):
        big_levels = 0
        for d in self.designs(60):
            levels, codes = d.level_codes()
            y = d.responses()
            F = d.features()
            factors = [(r.rpm, r.traverse, r.depth) for r in d.runs]
            for fi in range(3):
                want = tuple(sorted({f[fi] for f in factors}))
                assert _hex(levels[fi]) == _hex(want)
                assert codes[:, fi].tolist() == [want.index(f[fi]) for f in factors]
                counts = [sum(f[fi] == lv for f in factors) for lv in want]
                big_levels += max(counts) >= 8
            for criterion in ("larger", "smaller"):
                sn = [sn_ratio([r.hardness], criterion) for r in d.runs]
                table = response_table(d, criterion)
                for fi in range(3):
                    for eff, values in ((table.raw[fi], y), (table.s_n[fi], sn)):
                        means = []
                        for lv in levels[fi]:
                            members = [i for i, f in enumerate(factors)
                                       if f[fi] == lv]
                            means.append(float(sum(values[i] for i in members))
                                         / len(members))
                        assert _hex(eff.means) == _hex(means)

            diag = check_design(d)
            for fi, name in enumerate(d.FACTOR_NAMES):
                counts = {}
                for f in factors:
                    counts[f[fi]] = counts.get(f[fi], 0) + 1
                assert diag.balanced[name] == (len(set(counts.values())) == 1)
            for i in range(3):
                for j in range(i + 1, 3):
                    cells = {(a, b): 0 for a in levels[i] for b in levels[j]}
                    for f in factors:
                        cells[(f[i], f[j])] += 1
                    pair = (d.FACTOR_NAMES[i], d.FACTOR_NAMES[j])
                    assert diag.orthogonal_pairs[pair] == (
                        len(set(cells.values())) == 1)

            X, labels = anova._design_matrix(d)
            cols = [np.ones(len(d))]
            for fi in range(3):
                lv = levels[fi]
                for k in range(len(lv) - 1):
                    cols.append(np.where(F[:, fi] == lv[k], 1.0,
                                         np.where(F[:, fi] == lv[-1], -1.0, 0.0)))
            assert _hex(X.ravel()) == _hex(np.column_stack(cols).ravel())
            assert labels == ("intercept",) + tuple(
                name for fi, name in enumerate(d.FACTOR_NAMES)
                for _ in range(len(levels[fi]) - 1))
        assert big_levels >= 150  # of 180 factors
