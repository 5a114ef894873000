"""Perturbation sampling: statistics, per-kind behaviour, determinism."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baylime import (
    ConfigError,
    Instance,
    PerturbConfig,
    PredictorHandle,
    column_statistics,
    config_from_data,
    frequency_table,
    perturb_matrix,
    probe,
)
from baylime.types import BINARY_MASK, CATEGORICAL, FEATURE_KINDS, NUMERICAL


class TestColumnStatistics:
    def test_hand_case(self):
        mean, std = column_statistics([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert abs(std - np.sqrt(2.0 / 3.0)) < 1e-12

    def test_population_not_sample(self):
        _, std = column_statistics([0.0, 2.0])
        assert std == 1.0  # sample std would be sqrt(2)

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            column_statistics([1.0, np.inf])

    @pytest.mark.parametrize("values", [[], [[1.0, 2.0]]])
    def test_rejects_an_empty_or_2d_column(self, values):
        with pytest.raises(ConfigError, match="non-empty 1-d column"):
            column_statistics(values)


class TestFrequencyTable:
    def test_hand_case(self):
        table = frequency_table([0.0, 0.0, 1.0])
        assert table == {0.0: 2 / 3, 1.0: 1 / 3}

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        table = frequency_table(rng.integers(0, 5, size=200).astype(float))
        assert abs(sum(table.values()) - 1.0) < 1e-12

    @pytest.mark.parametrize("values", [[], [[1.0, 2.0]]])
    def test_rejects_an_empty_or_2d_column(self, values):
        with pytest.raises(ConfigError, match="non-empty 1-d column"):
            frequency_table(values)


class TestConfigFromData:
    def test_per_kind_statistics(self):
        data = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 1.0]])
        config = config_from_data(data, (NUMERICAL, CATEGORICAL), n=10,
                                  seed=0)
        assert config.numeric_scale[0][0] == 2.0
        assert config.categorical_frequencies[1] == {0.0: 2 / 3, 1.0: 1 / 3}

    def test_constant_column_gets_unit_spread(self):
        data = np.array([[5.0], [5.0], [5.0]])
        config = config_from_data(data, (NUMERICAL,), n=10, seed=0)
        assert config.numeric_scale[0] == (5.0, 1.0)

    def test_rejects_kind_count_mismatch(self):
        with pytest.raises(ConfigError):
            config_from_data(np.ones((3, 2)), (NUMERICAL,), n=10, seed=0)

    @pytest.mark.parametrize("data", [np.ones(3), np.ones((0, 2))])
    def test_rejects_data_that_is_no_matrix_of_rows(self, data):
        with pytest.raises(ConfigError, match="non-empty n-by-m matrix"):
            config_from_data(data, (NUMERICAL, NUMERICAL), n=10, seed=0)


class TestPerturbMatrix:
    @staticmethod
    def _numeric_config(n=2000, seed=5, mean=10.0, std=2.0):
        return PerturbConfig(n=n, seed=seed,
                             numeric_scale={0: (mean, std)})

    def test_numerical_standardized_and_rescaled(self):
        inst = Instance([9.0], (NUMERICAL,), ("a",))
        config = self._numeric_config()
        interp, original = perturb_matrix(inst, config)
        np.testing.assert_allclose(original[:, 0],
                                   interp[:, 0] * 2.0 + 10.0)
        assert abs(interp[:, 0].mean()) < 0.1
        assert abs(interp[:, 0].std() - 1.0) < 0.1

    def test_numerical_centers_on_data_not_instance(self):
        # The instance sits far from the data mean; samples stay with the
        # data statistics.
        inst = Instance([100.0], (NUMERICAL,), ("a",))
        _, original = perturb_matrix(inst, self._numeric_config())
        assert abs(original[:, 0].mean() - 10.0) < 0.5

    def test_binary_mask_round_trip(self):
        inst = Instance([7.5, 3.0], (BINARY_MASK, BINARY_MASK), ("a", "b"))
        config = PerturbConfig(n=4000, seed=1,
                               binary_off_values={1: -1.0})
        interp, original = perturb_matrix(inst, config)
        assert set(np.unique(interp)) == {0.0, 1.0}
        on = interp[:, 0] == 1.0
        assert np.all(original[on, 0] == 7.5)
        assert np.all(original[~on, 0] == 0.0)
        assert np.all(original[interp[:, 1] == 0.0, 1] == -1.0)
        assert abs(interp[:, 0].mean() - 0.5) < 0.05

    def test_categorical_match_indicator_and_frequencies(self):
        inst = Instance([2.0], (CATEGORICAL,), ("a",))
        config = PerturbConfig(
            n=6000, seed=3,
            categorical_frequencies={0: {1.0: 0.25, 2.0: 0.5, 7.0: 0.25}},
        )
        interp, original = perturb_matrix(inst, config)
        assert set(np.unique(original)) <= {1.0, 2.0, 7.0}
        np.testing.assert_array_equal(interp[:, 0] == 1.0,
                                      original[:, 0] == 2.0)
        assert abs((original[:, 0] == 2.0).mean() - 0.5) < 0.03
        assert abs((original[:, 0] == 7.0).mean() - 0.25) < 0.03

    def test_same_seed_reproduces(self):
        inst = Instance([0.0, 1.0], (NUMERICAL, BINARY_MASK), ("a", "b"))
        config = PerturbConfig(n=50, seed=9, numeric_scale={0: (0.0, 1.0)})
        first = perturb_matrix(inst, config)
        second = perturb_matrix(inst, config)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_column_streams_independent_of_added_features(self):
        # Extending the instance with a new feature must not change the
        # draws of existing columns.
        short = Instance([0.0], (NUMERICAL,), ("a",))
        long = Instance([0.0, 0.0], (NUMERICAL, NUMERICAL), ("a", "b"))
        config1 = PerturbConfig(n=100, seed=4, numeric_scale={0: (0.0, 1.0)})
        config2 = PerturbConfig(n=100, seed=4,
                                numeric_scale={0: (0.0, 1.0),
                                               1: (0.0, 1.0)})
        interp1, _ = perturb_matrix(short, config1)
        interp2, _ = perturb_matrix(long, config2)
        np.testing.assert_array_equal(interp1[:, 0], interp2[:, 0])

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.sampled_from(FEATURE_KINDS), min_size=1, max_size=6),
           st.integers(0, 2**31 - 1), st.integers(1, 60),
           st.integers(1, 300))
    def test_first_rows_do_not_depend_on_the_total(self, kinds, seed, n,
                                                   extra):
        # Every column draws from its own stream, so the first n rows of a
        # larger sample are the sample of size n, for each feature kind.
        m = len(kinds)
        inst = Instance([1.0] * m, tuple(kinds),
                        tuple(f"f{j}" for j in range(m)))

        def config(size):
            return PerturbConfig(
                n=size, seed=seed,
                numeric_scale={j: (0.5, 2.0) for j in range(m)},
                categorical_frequencies={
                    j: {0.0: 0.2, 1.0: 0.5, 2.0: 0.3} for j in range(m)},
                binary_off_values={j: -1.0 for j in range(m)})

        small = perturb_matrix(inst, config(n))
        large = perturb_matrix(inst, config(n + extra))
        for part, whole in zip(small, large):
            assert part.tobytes() == whole[:n].tobytes()

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.sampled_from(FEATURE_KINDS), min_size=1, max_size=6),
           st.sampled_from(FEATURE_KINDS), st.integers(0, 2**31 - 1),
           st.integers(1, 60))
    def test_added_feature_leaves_existing_columns_unchanged(self, kinds,
                                                             added, seed, n):
        # Each column's stream depends on (seed, column) alone, so a feature
        # of any kind appended to any kind list changes no earlier column.
        m = len(kinds)
        config = PerturbConfig(
            n=n, seed=seed,
            numeric_scale={j: (0.5, 2.0) for j in range(m + 1)},
            categorical_frequencies={
                j: {0.0: 0.2, 1.0: 0.5, 2.0: 0.3} for j in range(m + 1)},
            binary_off_values={j: -1.0 for j in range(m + 1)})

        def sample(feature_kinds):
            k = len(feature_kinds)
            return perturb_matrix(
                Instance([1.0] * k, tuple(feature_kinds),
                         tuple(f"f{j}" for j in range(k))), config)

        short = sample(kinds)
        long = sample([*kinds, added])
        for part, whole in zip(short, long):
            assert part.tobytes() == whole[:, :m].tobytes()

    def test_labels_come_from_original_space(self):
        inst = Instance([0.0], (NUMERICAL,), ("a",))
        config = PerturbConfig(n=64, seed=11,
                               numeric_scale={0: (5.0, 2.0)})
        handle = PredictorHandle.in_process(lambda rows: rows[:, 0] * 10.0)
        interp, original = perturb_matrix(inst, config)
        np.testing.assert_allclose(probe(handle, original),
                                   (interp[:, 0] * 2.0 + 5.0) * 10.0)

    def test_missing_statistics_named(self):
        inst = Instance([0.0], (NUMERICAL,), ("a",))
        with pytest.raises(ConfigError, match="feature 0"):
            perturb_matrix(inst, PerturbConfig(n=10, seed=0))
        inst = Instance([0.0, 1.0], (NUMERICAL, CATEGORICAL), ("a", "b"))
        config = PerturbConfig(n=10, seed=0, numeric_scale={0: (0.0, 1.0)})
        with pytest.raises(ConfigError,
                           match="no frequency table for categorical "
                                 "feature 1"):
            perturb_matrix(inst, config)

    def test_frequency_table_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            PerturbConfig(n=10, seed=0,
                          categorical_frequencies={0: {1.0: 0.5, 2.0: 0.4}})

    @pytest.mark.parametrize("fields, message", [
        ({"n": 0}, "perturbation count must be at least 1"),
        ({"seed": -1}, "seed must be non-negative"),
        ({"numeric_scale": {2: (np.nan, 1.0)}},
         "non-finite scale for feature 2"),
        ({"numeric_scale": {2: (0.0, 0.0)}},
         "std for feature 2 must be positive"),
        ({"categorical_frequencies": {3: {}}},
         "empty frequency table for feature 3"),
    ])
    def test_config_refusals(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            PerturbConfig(**{"n": 10, "seed": 0, **fields})
