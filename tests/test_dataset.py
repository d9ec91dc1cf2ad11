import numpy as np
import pytest

import weldlab.dataset
from weldlab._rng import MASK64, SplitMix64, derive_seed, mix64
from weldlab.dataset import (
    CsvParseError,
    Dataset,
    FoldPlan,
    InsufficientDataError,
    Run,
    SchemaError,
    bootstrap_indices,
    builtin_aa6262,
    kfold_plan,
    lane_bootstraps,
    load_csv,
    summarize,
    write_csv,
)

from conftest import lane_draws, make_dataset, rejecting_seed


class TestRun:
    def test_positive_fields_required(self):
        with pytest.raises(ValueError):
            Run(rpm=0.0, traverse=50.0, depth=0.2, hardness=65.0)
        with pytest.raises(ValueError):
            Run(rpm=800.0, traverse=50.0, depth=0.2, hardness=-1.0)

    def test_factor_fields_in_order(self):
        r = Run(800.0, 40.0, 0.1, 65.8)
        assert (r.rpm, r.traverse, r.depth) == (800.0, 40.0, 0.1)

    @pytest.mark.parametrize("field", ["rpm", "traverse", "depth", "hardness"])
    @pytest.mark.parametrize("value", [True, np.bool_(True), "800", None])
    def test_non_real_value_rejected(self, field, value):
        values = dict(rpm=800.0, traverse=40.0, depth=0.1, hardness=65.8)
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            Run(**{**values, field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValueError, match="^hardness must be finite"):
            Run(800.0, 40.0, 0.1, value)

    def test_numpy_values_stored_as_python_floats(self):
        r = Run(*(np.float32(v) for v in (800.0, 40.0, 0.1, 65.8)))
        assert all(type(v) is float for v in (r.rpm, r.traverse, r.depth, r.hardness))
        assert r == Run(800.0, 40.0, float(np.float32(0.1)), float(np.float32(65.8)))


class TestBuiltin:
    def test_first_run(self, builtin):
        assert builtin.runs[0] == Run(800.0, 40.0, 0.1, 65.8)

    def test_run_seven(self, builtin):
        assert builtin.runs[6] == Run(1200.0, 40.0, 0.3, 58.3)

    def test_hardness_sum(self, builtin):
        assert sum(r.hardness for r in builtin.runs) == pytest.approx(590.78)

    def test_nine_runs_in_order(self, builtin):
        assert len(builtin) == 9
        assert [r.rpm for r in builtin.runs[:3]] == [800.0] * 3

    def test_levels(self, builtin):
        levels, _ = builtin.level_codes()
        assert levels[0] == (800.0, 1000.0, 1200.0)
        assert levels[2] == (0.1, 0.2, 0.3)
        assert all(type(v) is float for lv in levels for v in lv)

    def test_level_codes(self, builtin):
        levels, codes = builtin.level_codes()
        assert levels == ((800.0, 1000.0, 1200.0), (40.0, 50.0, 60.0),
                          (0.1, 0.2, 0.3))
        assert codes.dtype == np.intp
        assert codes.tolist() == [[0, 0, 0], [0, 1, 1], [0, 2, 2],
                                  [1, 0, 1], [1, 1, 2], [1, 2, 0],
                                  [2, 0, 2], [2, 1, 1], [2, 2, 0]]

    @pytest.mark.parametrize("keyword", ["factor_names", "response_name"])
    def test_names_are_not_options(self, builtin, keyword):
        """Two factor names made the ANOVA drop a factor (2 sources, error
        df 4); the names are fixed by the CSV schema."""
        with pytest.raises(TypeError, match=keyword):
            Dataset(runs=builtin.runs, **{keyword: ("rpm", "depth")})
        assert Dataset.FACTOR_NAMES + (Dataset.RESPONSE_NAME,) == (
            "rpm", "traverse_mm_min", "plan_depth_mm", "hardness")


class TestLoadCsv:
    def test_roundtrip_bit_for_bit(self, builtin, tmp_path):
        path = tmp_path / "runs.csv"
        write_csv(builtin, path)
        again = load_csv(path)
        assert again.runs == builtin.runs

    def test_table_values(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(builtin_aa6262(), path)
        d = load_csv(path)
        assert d.runs[5].hardness == 74.2

    def test_header_only_insufficient(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("rpm,traverse_mm_min,plan_depth_mm,hardness\n")
        with pytest.raises(InsufficientDataError):
            load_csv(path)

    def test_parse_error_cites_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "rpm,traverse_mm_min,plan_depth_mm,hardness\n"
            "800,40,0.1,65.8\n"
            "800,50,0.2,65.78\n"
            "800,60,0.3,abc\n"
        )
        with pytest.raises(CsvParseError) as exc:
            load_csv(path)
        assert exc.value.row == 3
        assert exc.value.column == "hardness"

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("rpm,traverse_mm_min,hardness\n800,40,65.8\n900,50,66\n")
        with pytest.raises(SchemaError, match="plan_depth_mm"):
            load_csv(path)

    def test_extra_column_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(
            "rpm,traverse_mm_min,plan_depth_mm,hardness,operator\n"
            "800,40,0.1,65.8,bob\n800,50,0.2,65.78,eve\n"
        )
        with pytest.raises(SchemaError, match="operator"):
            load_csv(path)

    def test_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "rpm,traverse_mm_min,plan_depth_mm,hardness,rpm\n"
            "800,40,0.1,65.8,900\n1000,50,0.2,64.3,1100\n"
        )
        with pytest.raises(SchemaError, match="repeated column.*rpm"):
            load_csv(path)

    def test_row_with_extra_cell_rejected(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(
            "rpm,traverse_mm_min,plan_depth_mm,hardness\n"
            "1000,50,0.2,64.3\n"
            "800,40,0.1,65.8,999\n"
        )
        with pytest.raises(ValueError, match=r"^row 2: 5 cells"):
            load_csv(path)

    def test_byte_order_mark_skipped(self, builtin, tmp_path):
        plain = tmp_path / "plain.csv"
        write_csv(builtin, plain)
        assert not plain.read_bytes().startswith(b"\xef\xbb\xbf")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_csv(marked) == load_csv(plain)

    def test_crlf_tolerated(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(
            b"rpm,traverse_mm_min,plan_depth_mm,hardness\r\n"
            b"800,40,0.1,65.8\r\n1000,50,0.2,64.3\r\n"
        )
        d = load_csv(path)
        assert len(d) == 2
        assert d.runs[1].rpm == 1000.0

    def test_columns_in_any_order(self, builtin, tmp_path):
        """Each cell is read under its header's name, not its position."""
        plain = tmp_path / "plain.csv"
        write_csv(builtin, plain)
        header, *rows = (line.split(",") for line in plain.read_text().splitlines())
        order = [header.index(name) for name in
                 "hardness,plan_depth_mm,rpm,traverse_mm_min".split(",")]
        permuted = tmp_path / "permuted.csv"
        permuted.write_text("".join(",".join(cells[i] for i in order) + "\n"
                                    for cells in [header, *rows]))
        assert permuted.read_text().startswith("hardness,plan_depth_mm,rpm,")
        assert load_csv(permuted).runs == builtin_aa6262().runs

    def test_single_row_insufficient(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(
            "rpm,traverse_mm_min,plan_depth_mm,hardness\n800,40,0.1,65.8\n"
        )
        with pytest.raises(InsufficientDataError):
            load_csv(path)


class TestSummarize:
    def test_hardness_mean(self, builtin):
        s = summarize(builtin)
        i = s.columns.index("hardness")
        assert s.mean[i] == pytest.approx(590.78 / 9, abs=1e-4)

    def test_hardness_extremes(self, builtin):
        s = summarize(builtin)
        i = s.columns.index("hardness")
        assert s.maximum[i] == 74.2
        assert s.minimum[i] == 58.3

    def test_mean_between_min_and_max(self, builtin):
        s = summarize(builtin)
        for i in range(len(s.columns)):
            assert s.minimum[i] <= s.mean[i] <= s.maximum[i]
            assert s.std[i] >= 0

    def test_correlation_diag_and_symmetry(self, builtin):
        s = summarize(builtin)
        c = s.correlation
        assert np.allclose(np.diag(c), 1.0, atol=1e-12)
        assert np.array_equal(c, c.T)
        assert np.nanmax(np.abs(c)) <= 1.0 + 1e-12

    def test_degenerate_identical_runs(self, constant_dataset):
        s = summarize(constant_dataset)
        assert all(v == 0.0 for v in s.std)
        assert np.isnan(s.correlation).all()


class TestKfold:
    def test_leave_one_out_sizes(self):
        plan = kfold_plan(9, 9, seed=123)
        sizes = [len(plan.fold_indices(f)) for f in range(9)]
        assert sizes == [1] * 9

    def test_divisible_sizes(self):
        plan = kfold_plan(9, 3, seed=42)
        assert sorted(len(plan.fold_indices(f)) for f in range(3)) == [3, 3, 3]

    def test_uneven_sizes(self):
        plan = kfold_plan(10, 3, seed=42)
        assert sorted(len(plan.fold_indices(f)) for f in range(3)) == [3, 3, 4]

    def test_partition_property(self):
        for seed in range(5):
            plan = kfold_plan(11, 4, seed=seed)
            seen = [i for f in range(4) for i in plan.fold_indices(f)]
            assert sorted(seen) == list(range(11))

    def test_deterministic(self):
        assert kfold_plan(20, 5, seed=9) == kfold_plan(20, 5, seed=9)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_fold_ids_outside_range_rejected(self, bad):
        with pytest.raises(ValueError, match="fold ids"):
            FoldPlan(k=2, assignments=(0, 0, 0, 1, 1, 1, bad, bad, bad))

    @pytest.mark.parametrize("k, assignments, empty", [
        (3, (0, 1, 0, 1, 0, 1, 0, 1, 0), 2),
        (3, (2, 2, 1, 2), 0),
        (2, (), 0),
    ])
    def test_empty_fold_rejected(self, k, assignments, empty):
        with pytest.raises(ValueError, match=f"fold {empty} holds no runs"):
            FoldPlan(k=k, assignments=assignments)

    @pytest.mark.parametrize("bad", [0.5, True, np.float64(1.0), "1", None])
    def test_non_integer_fold_id_rejected(self, bad):
        """A run whose fold id is no integer would be held out by no fold,
        or, for True, by fold 1."""
        with pytest.raises(ValueError, match="^fold id must be an integer"):
            FoldPlan(k=2, assignments=(0, 1, 0, 1, 0, 1, 0, 1, bad))

    def test_numpy_fold_ids_stored_as_ints(self):
        plan = FoldPlan(k=np.int64(2), assignments=tuple(np.array([0, 1, 1])))
        assert plan == FoldPlan(k=2, assignments=(0, 1, 1))
        assert all(type(v) is int for v in (plan.k,) + plan.assignments)

    @pytest.mark.parametrize("k", [2.0, True, "2"])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            FoldPlan(k=k, assignments=(0, 1))

    @pytest.mark.parametrize("n,k", [(5, 1), (5, 6), (3, 0)])
    def test_bad_k(self, n, k):
        with pytest.raises(ValueError):
            kfold_plan(n, k, seed=0)

    @pytest.mark.parametrize("k", [2.0, True, "2"])
    def test_non_integer_fold_count_rejected(self, k):
        with pytest.raises(ValueError, match="^k must be an integer"):
            kfold_plan(5, k, seed=0)

    @pytest.mark.parametrize("seed, match", [
        (2.5, "^seed must be an integer"), (True, "^seed must be an integer"),
        (-1, "^seed -1 is outside"), (2**64, f"^seed {2**64} is outside"),
    ])
    def test_bad_seed_rejected(self, seed, match):
        """The seed range is `ModelSpec`'s: -1 would otherwise wrap to
        2^64 - 1, and True would be taken as 1."""
        with pytest.raises(ValueError, match=match):
            kfold_plan(5, 2, seed=seed)

    def test_numpy_seed_equals_int_seed(self):
        assert kfold_plan(9, 3, np.uint64(2**64 - 1)) == kfold_plan(9, 3, 2**64 - 1)

    @pytest.mark.parametrize("n", [9.0, 2.5, True, "9"])
    def test_non_integer_run_count_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be an integer"):
            kfold_plan(n, 3, seed=0)

    def test_numpy_run_count_equals_int(self):
        assert kfold_plan(np.int64(9), 3, 0) == kfold_plan(9, 3, 0)


class TestBootstrap:
    def test_single_element(self):
        assert bootstrap_indices(1, seed=999) == [0]

    def test_deterministic(self):
        assert bootstrap_indices(9, seed=7) == bootstrap_indices(9, seed=7)

    def test_range_and_length(self):
        idx = bootstrap_indices(9, seed=3)
        assert len(idx) == 9
        assert all(0 <= i < 9 for i in idx)

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0"):
            bootstrap_indices(0, seed=0)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_non_integer_n_rejected(self, n):
        """2.5 drew float indices and True one index."""
        with pytest.raises(ValueError, match="^n must be an integer"):
            bootstrap_indices(n, seed=0)

    def test_numpy_n_equals_int(self):
        assert bootstrap_indices(np.int32(9), 5) == bootstrap_indices(9, 5)

    @pytest.mark.parametrize("seed, match", [
        (2.5, "^seed must be an integer"), (True, "^seed must be an integer"),
        (-1, "^seed -1 is outside"), (2**64, f"^seed {2**64} is outside"),
    ])
    def test_bad_seed_rejected(self, seed, match):
        """-1 drew seed 2^64 - 1's indices, True seed 1's, and 2.5 raised a
        TypeError."""
        with pytest.raises(ValueError, match=match):
            bootstrap_indices(9, seed)

    def test_numpy_seed_equals_int_seed(self):
        assert bootstrap_indices(9, np.uint64(MASK64)) == bootstrap_indices(9, MASK64)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 54, 64, 81, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2**63, MASK64] + [
        derive_seed(5, t) for t in range(3)])
    def test_equals_next_below_called_n_times(self, n, seed):
        """The definition: n `next_below(n)` draws of one stream."""
        rng = SplitMix64(seed)
        assert bootstrap_indices(n, seed) == [rng.next_below(n) for _ in range(n)]

    @pytest.mark.parametrize("n", [3, 9, 54])
    def test_a_rejected_draw_is_redrawn(self, n):
        """Draw k of the stream is 2^64 - 1, which `next_below(n)` rejects,
        so the n indices take n + 1 draws."""
        for k in (1, n // 2 + 1, n):
            seed = rejecting_seed(k)
            rng = SplitMix64(seed)
            assert bootstrap_indices(n, seed) == [
                rng.next_below(n) for _ in range(n)]
            assert lane_draws(seed, rng._state) == n + 1

    def test_distinct_fraction_expectation(self):
        # E[distinct / n] = 1 - (1 - 1/9)^9 for with-replacement draws
        expected = 1.0 - (1.0 - 1.0 / 9.0) ** 9
        fractions = [
            len(set(bootstrap_indices(9, seed=s))) / 9 for s in range(2000)
        ]
        assert np.mean(fractions) == pytest.approx(expected, abs=0.02)


class TestLaneBootstraps:
    """One uint64 lane expression for the bootstraps of many trees must
    equal `bootstrap_indices` row for row, rejected draws included."""

    @pytest.mark.parametrize("n", [1, 2, 8, 9, 54, 81])
    def test_rows_equal_bootstrap_indices(self, n):
        seeds = [derive_seed(5, t) for t in range(300)]
        seeds += [0, 1, MASK64, 2**63, MASK64 - 1]
        got = lane_bootstraps(n, seeds)
        assert got.dtype == np.intp and got.shape == (len(seeds), n)
        assert got.tolist() == [bootstrap_indices(n, s) for s in seeds]

    @pytest.mark.parametrize("n, k", [(9, 1), (9, 9), (54, 20), (81, 3), (3, 2)])
    def test_a_rejected_draw_is_redone_by_the_scalar_loop(self, monkeypatch, n, k):
        """Draw k of the second seed is 2^64 - 1, which every bound but a
        power of two rejects: that tree alone goes to `bootstrap_indices`,
        whose n indices take n + 1 draws."""
        seeds = [11, rejecting_seed(k), 12]
        rng = SplitMix64(seeds[1])
        for _ in range(k - 1):
            rng.next_u64()
        assert rng.next_u64() == MASK64
        redone = []
        real = weldlab.dataset.bootstrap_indices

        def recording(n, seed):
            redone.append(seed)
            return real(n, seed)

        monkeypatch.setattr(weldlab.dataset, "bootstrap_indices", recording)
        got = lane_bootstraps(n, seeds)
        assert redone == [seeds[1]]
        assert got.tolist() == [real(n, s) for s in seeds]
        rng = SplitMix64(seeds[1])
        assert got[1].tolist() == [rng.next_below(n) for _ in range(n)]

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_a_power_of_two_n_rejects_nothing(self, monkeypatch, n):
        monkeypatch.setattr(weldlab.dataset, "bootstrap_indices", None)
        seeds = [rejecting_seed(1), 3]
        got = lane_bootstraps(n, seeds)
        assert got[0, 0] == MASK64 % n
        monkeypatch.undo()
        assert got.tolist() == [bootstrap_indices(n, s) for s in seeds]

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0"):
            lane_bootstraps(0, [1])

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be an integer"):
            lane_bootstraps(n, [1, 2])

    @pytest.mark.parametrize("seed, match", [
        (2.5, "^seed must be an integer"), (True, "^seed must be an integer"),
        (-1, "^seed -1 is outside"), (2**64, f"^seed {2**64} is outside"),
    ])
    def test_bad_seed_rejected(self, seed, match):
        """2.5 drew seed 2's indices and True seed 1's; -1 and 2^64 raised
        an OverflowError."""
        with pytest.raises(ValueError, match=match):
            lane_bootstraps(9, [1, seed])

    def test_numpy_seeds_equal_int_seeds(self):
        seeds = [0, 7, MASK64]
        assert np.array_equal(lane_bootstraps(9, np.array(seeds, np.uint64)),
                              lane_bootstraps(9, seeds))


class TestSplitMix:
    def test_matches_independent_reimplementation(self):
        # Reference: seed += 0x9E3779B97F4A7C15; xor-shift-multiply finalizer.
        def ref_stream(seed, count):
            out = []
            state = seed
            for _ in range(count):
                state = (state + 0x9E3779B97F4A7C15) & MASK64
                z = state
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
                out.append(z ^ (z >> 31))
            return out

        for seed in (0, 1, 42, 2**63):
            rng = SplitMix64(seed)
            assert [rng.next_u64() for _ in range(5)] == ref_stream(seed, 5)

    def test_golden_values_frozen(self):
        # Pinned so any cross-platform or refactoring drift is caught.
        rng = SplitMix64(0)
        assert rng.next_u64() == 16294208416658607535
        rng = SplitMix64(42)
        assert rng.next_u64() == 13679457532755275413

    def test_published_vector(self):
        # Widely circulated SplitMix64 reference outputs for seed 1234567.
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_mix64_avalanche_nonzero(self):
        assert mix64(1) != mix64(2)

    def test_derive_seed_order_sensitive(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(5, 0) != derive_seed(5, 1)

    def test_next_below_unbiased_range(self):
        rng = SplitMix64(11)
        draws = [rng.next_below(7) for _ in range(1000)]
        assert set(draws) == set(range(7))

    def test_shuffle_is_permutation(self):
        rng = SplitMix64(3)
        items = list(range(20))
        rng.shuffle(items)
        assert sorted(items) == list(range(20))
        assert items != list(range(20))


class TestDatasetInvariants:
    def test_two_run_minimum(self):
        with pytest.raises(InsufficientDataError):
            Dataset(runs=(Run(800.0, 40.0, 0.1, 65.8),))

    def test_feature_matrix_order(self, builtin):
        X = builtin.features()
        assert X.shape == (9, 3)
        assert X[5].tolist() == [1000.0, 60.0, 0.1]

    def test_mixed_rows_preserved(self):
        d = make_dataset([(1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)])
        assert d.responses().tolist() == [4.0, 8.0]
