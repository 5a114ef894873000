"""Core data types: ranking, normalization, container validation."""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baylime import (
    Explanation,
    ExplanationEnsemble,
    Instance,
    InvalidInputError,
    PerturbationSet,
    ShapeError,
    inconsistency,
    kendalls_w,
    normalize_coefficients,
    rank_features,
)
from baylime.types import BINARY_MASK, CATEGORICAL, NUMERICAL
from conftest import ensemble_of, explanation


class TestRankFeatures:
    def test_worked_example(self):
        ranks = rank_features([0.036, -0.599, 0.799, 0.044])
        assert ranks.tolist() == [4, 2, 1, 3]

    def test_rank_one_is_largest_magnitude(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = rng.normal(size=rng.integers(1, 12))
            ranks = rank_features(c)
            assert np.argmax(np.abs(c)) == np.argmin(ranks)
            assert sorted(ranks.tolist()) == list(range(1, c.size + 1))

    def test_ties_break_toward_lower_index(self):
        assert rank_features([0.5, -0.5, 0.5]).tolist() == [1, 2, 3]

    def test_sign_is_ignored(self):
        assert rank_features([-3.0, 2.0]).tolist() == [1, 2]

    def test_all_zero_vector_ranks_everything_first(self):
        assert rank_features([0.0, 0.0, 0.0]).tolist() == [1, 1, 1]

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            rank_features([1.0, np.nan])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            rank_features([])


class TestCoefficientRows:
    """A (k, m) matrix ranks and normalizes each row as the vector case."""

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_rows_equal_vectors(self, k, m, seed):
        rng = np.random.default_rng(seed)
        # Small integers give ties and all-zero rows.
        c = rng.integers(-2, 3, size=(k, m)) * rng.choice((1.0, 0.37), k)[
            :, None]
        ranks = rank_features(c)
        normalized = normalize_coefficients(c)
        for i, row in enumerate(c):
            assert ranks[i].tolist() == rank_features(row).tolist()
            assert (normalized[i].tobytes()
                    == normalize_coefficients(row).tobytes())


class TestPositiveScaling:
    # Integer-valued coefficients differ by at least 1 part in 1000, far
    # above rounding, so scaling cannot merge two distinct magnitudes.
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=12),
           st.floats(1e-100, 1e100))
    def test_ranks_and_importances_ignore_positive_scaling(self, values,
                                                           scale):
        c = np.array(values, dtype=float)
        scaled = scale * c
        assert rank_features(scaled).tolist() == rank_features(c).tolist()
        np.testing.assert_allclose(np.abs(normalize_coefficients(scaled)),
                                   np.abs(normalize_coefficients(c)),
                                   rtol=1e-12, atol=0.0)


class TestNormalizeCoefficients:
    def test_unit_norm(self):
        out = normalize_coefficients([3.0, 4.0])
        assert out.tolist() == [0.6, 0.8]

    def test_zero_stays_zero(self):
        assert normalize_coefficients([0.0, 0.0]).tolist() == [0.0, 0.0]

    def test_preserves_signs(self):
        out = normalize_coefficients([-3.0, 4.0])
        assert out[0] < 0 < out[1]


class TestInstance:
    def test_round_trip(self):
        inst = Instance([1.0, 0.0, 2.0],
                        (NUMERICAL, BINARY_MASK, CATEGORICAL),
                        ("a", "b", "c"))
        assert inst.m == 3
        assert inst.values.flags.writeable is False

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            Instance([1.0, 2.0], (NUMERICAL,), ("a", "b"))

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            Instance([1.0], ("mystery",), ("a",))

    @pytest.mark.parametrize("values, message", [
        ([], "at least one feature value"),
        ([np.nan], "instance values must be finite"),
    ])
    def test_rejects_empty_or_non_finite_values(self, values, message):
        with pytest.raises(InvalidInputError, match=message):
            Instance(values, (NUMERICAL,) * len(values), ("a",) * len(values))


class TestPerturbationSet:
    def test_shapes_and_views(self):
        pset = PerturbationSet(rows=[[1.0, 2.0]], labels=[3.0],
                               weights=[0.5], seed=4)
        assert (pset.n, pset.m) == (1, 2)
        assert pset.rows.flags.writeable is False

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(InvalidInputError):
            PerturbationSet(rows=[[1.0]], labels=[1.0], weights=[0.0], seed=0)

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ShapeError):
            PerturbationSet(rows=[[1.0], [2.0]], labels=[1.0],
                            weights=[1.0, 1.0], seed=0)

    @pytest.mark.parametrize("rows, seed, message", [
        ([1.0], 0, "non-empty n-by-m matrix"),
        ([[]], 0, "non-empty n-by-m matrix"),
        ([[1.0]], -1, "seed must be a non-negative integer"),
    ])
    def test_rejects_bad_rows_or_seed(self, rows, seed, message):
        with pytest.raises(InvalidInputError, match=message):
            PerturbationSet(rows=rows, labels=[1.0], weights=[1.0], seed=seed)

    def test_reweighted_set_shares_rows_and_labels(self):
        pset = PerturbationSet(rows=[[1.0], [2.0]], labels=[1.0, 2.0],
                               weights=[1.0, 1.0], seed=0)
        reweighted = replace(pset, weights=[0.25, 0.5])
        assert reweighted.weights.tolist() == [0.25, 0.5]
        assert pset.weights.tolist() == [1.0, 1.0]
        assert reweighted.rows is pset.rows
        assert reweighted.labels is pset.labels

    def test_caller_arrays_are_copied(self):
        rows = np.array([[1.0], [2.0]])
        view = rows[:, 0]
        view.setflags(write=False)
        pset = PerturbationSet(rows=rows, labels=view, weights=[1.0, 1.0],
                               seed=0)
        rows[0, 0] = 9.0
        assert pset.rows.tolist() == [[1.0], [2.0]]
        assert pset.labels.tolist() == [1.0, 2.0]


class TestExplanation:
    def test_holds_derived_importances_and_ranks(self):
        coefficients = np.array([3.0, -4.0])
        exp = Explanation(coefficients,
                          np.abs(normalize_coefficients(coefficients)),
                          rank_features(coefficients), kernel_width=0.75,
                          n_samples=100, seed=9)
        assert exp.importances.tolist() == [0.6, 0.8]
        assert exp.ranks.tolist() == [2, 1]
        assert exp.seed == 9

    def test_zero_coefficients_allowed(self):
        exp = explanation([0.0, 0.0])
        assert exp.importances.tolist() == [0.0, 0.0]
        assert exp.ranks.tolist() == [1, 1]

    def test_rejects_denormalized_importances(self):
        with pytest.raises(InvalidInputError):
            Explanation(coefficients=np.array([1.0, 1.0]),
                        importances=np.array([1.0, 1.0]),
                        ranks=np.array([1, 2]), kernel_width=1.0,
                        n_samples=10)

    @pytest.mark.parametrize("coefficients, importances, ranks, error, "
                             "message", [
        ([], [], [], InvalidInputError, "non-empty vector"),
        ([1.0, 0.0], [1.0], [1, 2], ShapeError, "must share length"),
        ([0.0, 0.0], [1.0, 0.0], [1, 1], InvalidInputError,
         "zero coefficients require zero importances"),
        ([1.0, 0.0], [1.0, 0.0], [1, 3], InvalidInputError,
         r"ranks must lie in \[1, m\]"),
    ])
    def test_rejects_inconsistent_fields(self, coefficients, importances,
                                         ranks, error, message):
        with pytest.raises(error, match=message):
            Explanation(np.array(coefficients), np.array(importances),
                        np.array(ranks, dtype=int), kernel_width=1.0,
                        n_samples=10)


class TestExplanationEnsemble:
    def test_matrices(self):
        ensemble = ensemble_of(map(explanation, ([0.8, 0.6], [0.6, 0.8])))
        assert ensemble.k == 2 and ensemble.m == 2
        assert ensemble.rank_matrix().tolist() == [[1, 2], [2, 1]]
        np.testing.assert_allclose(ensemble.importance_matrix(),
                                   [[0.8, 0.6], [0.6, 0.8]])

    def test_needs_two_runs(self):
        # An ensemble needs one run; agreement across runs needs two.
        with pytest.raises(InvalidInputError):
            ExplanationEnsemble(np.ones((0, 2)), np.ones((0, 2)),
                                lambda i: None)
        with pytest.raises(InvalidInputError):
            ExplanationEnsemble(np.ones(2), np.ones(2), lambda i: None)
        single = ensemble_of((explanation([1.0, 2.0]),))
        assert single.k == 1
        for metric in (inconsistency, kendalls_w):
            with pytest.raises(InvalidInputError):
                metric(single)

    def test_rows_make_their_runs_once_on_demand(self):
        runs = (explanation([0.8, 0.6]), explanation([0.6, 0.8]))
        made = []

        def make_run(i):
            made.append(i)
            return runs[i]

        ensemble = ExplanationEnsemble(
            np.stack([r.importances for r in runs]),
            np.stack([r.ranks for r in runs]), make_run,
            min_effective_sample_size=3.5)
        assert ensemble.k == 2 and ensemble.m == 2
        assert ensemble.rank_matrix().tolist() == [[1, 2], [2, 1]]
        assert made == []
        assert ensemble.runs == runs
        assert ensemble.runs == runs
        assert made == [0, 1]
        assert ensemble.min_effective_sample_size == 3.5
        assert ensemble_of(runs).min_effective_sample_size is None

    def test_runs_are_safe_to_read_from_threads(self):
        # A thread that enters while another is making the runs gets equal
        # runs, not an error.
        runs = tuple(map(explanation, ([0.8, 0.6], [0.6, 0.8], [1.0, 0.0])))

        def read_all(readers: int, start) -> list:
            """Read a fresh ensemble's runs from ``readers`` threads: the
            first starts alone, the others once ``start(making)`` returns."""
            making = threading.Event()

            def make_run(i):
                if i == 1:
                    making.set()
                time.sleep(0.01)
                return runs[i]

            ensemble = ExplanationEnsemble(
                np.stack([r.importances for r in runs]),
                np.stack([r.ranks for r in runs]), make_run)
            seen = []

            def read():
                try:
                    seen.append(ensemble.runs)
                except Exception as exc:
                    seen.append(exc)

            threads = [threading.Thread(target=read) for _ in range(readers)]
            threads[0].start()
            start(making)
            for thread in threads[1:]:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert ensemble.runs == runs
            return seen

        def midway(making):
            # Half-way through the first thread's second run, so the
            # second is still making runs when the first is done.
            making.wait(timeout=10)
            time.sleep(0.005)

        for _ in range(5):
            assert read_all(2, midway) == [runs, runs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert read_all(8, lambda making: None) == [runs] * 8
        finally:
            sys.setswitchinterval(interval)

    def test_rejects_mixed_m(self):
        with pytest.raises(ShapeError):
            ExplanationEnsemble(np.ones((2, 1)), np.ones((2, 2)),
                                lambda i: None)
