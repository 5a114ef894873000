"""Proximity kernel: distances, weights, defaults."""

from __future__ import annotations

import numpy as np
import pytest

from baylime import (
    ConfigError,
    Instance,
    KernelConfig,
    PerturbationSet,
    apply_weights,
    default_width,
    kernel_weight,
)
from baylime.kernel import (
    BINARY_HAMMING,
    distances,
    effective_sample_size,
    floored_weights,
    interpretable_reference,
)
from baylime.types import BINARY_MASK, CATEGORICAL, NUMERICAL


class TestEffectiveSampleSize:
    def test_equal_weights_count_every_sample(self):
        assert effective_sample_size(np.full(8, 0.25)) == 8.0

    def test_one_dominant_weight_counts_once(self):
        weights = np.array([1.0, 1e-9, 1e-9, 1e-9])
        assert abs(effective_sample_size(weights) - 1.0) < 1e-8

    def test_kish_formula(self):
        weights = np.array([0.5, 1.0, 2.0])
        assert abs(effective_sample_size(weights)
                   - weights.sum() ** 2 / (weights @ weights)) < 1e-12

    def test_floored_weights_do_not_underflow(self):
        # Squared, these would all be zero; scaled first, they are equal.
        weights = floored_weights(np.full(5, 100.0), 0.1)
        assert effective_sample_size(weights) == 5.0


class TestKernelWeight:
    def test_distance_equal_to_width(self):
        assert abs(kernel_weight(0.3, 0.3) - 0.36787944117144233) < 1e-12

    def test_distance_two_width_one(self):
        assert abs(kernel_weight(2.0, 1.0) - 0.018316) < 1e-6

    def test_zero_distance_is_full_weight(self):
        assert kernel_weight(0.0, 0.5) == 1.0

    def test_monotone_in_distance(self):
        d = np.linspace(0.0, 5.0, 50)
        w = kernel_weight(d, 0.75)
        assert np.all(np.diff(w) < 0)

    def test_width_flattens(self):
        assert kernel_weight(1.0, 3.0) > kernel_weight(1.0, 0.5)

    def test_rejects_bad_width(self):
        for width in (0.0, -1.0, np.nan, np.inf, None, [1.0, 0.0],
                      [np.nan, 2.0]):
            with pytest.raises(ConfigError):
                kernel_weight(1.0, width)

    def test_block_rows_are_the_one_width_weights(self):
        # Row i of a block is the weights at width i alone, bit for bit,
        # floored where exp underflows.
        d = np.random.default_rng(3).uniform(0.0, 30.0, 500)
        widths = [0.05, 0.7, 3.0, 40.0]
        block = floored_weights(d, widths)
        assert block.shape == (4, 500)
        for row, width in zip(block, widths):
            alone = np.maximum(np.exp(-(d * d) / (width * width)),
                               np.finfo(float).tiny)
            assert row.tobytes() == alone.tobytes()
            assert row.tobytes() == floored_weights(d, width).tobytes()


class TestDefaultWidth:
    def test_grows_with_sqrt_m(self):
        assert default_width(1) == 0.75
        assert abs(default_width(4) - 1.5) < 1e-12
        assert abs(default_width(9) - 2.25) < 1e-12

    def test_needs_a_feature(self):
        with pytest.raises(ConfigError, match="feature count must be at least 1"):
            default_width(0)


class TestReferenceAndDistance:
    def test_reference_by_kind(self):
        inst = Instance([2.5, 1.0, 3.0],
                        (NUMERICAL, BINARY_MASK, CATEGORICAL),
                        ("a", "b", "c"))
        assert interpretable_reference(inst).tolist() == [0.0, 1.0, 1.0]

    def test_euclidean(self):
        rows = np.array([[3.0, 4.0], [0.0, 0.0]])
        out = distances(rows, np.zeros(2))
        np.testing.assert_allclose(out, [5.0, 0.0])

    def test_hamming_fraction(self):
        rows = np.array([[1.0, 0.0, 1.0, 0.0]])
        out = distances(rows, np.ones(4), BINARY_HAMMING)
        assert out.tolist() == [0.5]


class TestApplyWeights:
    @staticmethod
    def _pset_and_instance():
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 4.0]])
        pset = PerturbationSet(rows=rows, labels=np.zeros(3),
                               weights=np.ones(3), seed=0)
        inst = Instance([0.0, 0.0], (NUMERICAL, NUMERICAL), ("a", "b"))
        return pset, inst

    def test_weights_follow_distance(self):
        pset, inst = self._pset_and_instance()
        out = apply_weights(pset, KernelConfig(width=2.0), inst)
        np.testing.assert_allclose(
            out.weights,
            [1.0, np.exp(-0.25), np.exp(-25.0 / 4.0)],
        )

    def test_default_width_used_when_unset(self):
        pset, inst = self._pset_and_instance()
        out = apply_weights(pset, KernelConfig(), inst)
        expected = np.exp(-1.0 / default_width(2) ** 2)
        assert abs(out.weights[1] - expected) < 1e-12

    def test_reapplying_overwrites(self):
        pset, inst = self._pset_and_instance()
        once = apply_weights(pset, KernelConfig(width=1.0), inst)
        twice = apply_weights(once, KernelConfig(width=1.0), inst)
        np.testing.assert_allclose(once.weights, twice.weights)

    def test_underflow_floors_to_positive(self):
        rows = np.array([[0.0], [60.0]])
        pset = PerturbationSet(rows=rows, labels=np.zeros(2),
                               weights=np.ones(2), seed=0)
        inst = Instance([0.0], (NUMERICAL,), ("a",))
        out = apply_weights(pset, KernelConfig(width=0.2), inst)
        assert out.weights[1] > 0.0

    def test_rejects_mismatched_instance(self):
        pset, _ = self._pset_and_instance()
        other = Instance([0.0], (NUMERICAL,), ("a",))
        with pytest.raises(ConfigError):
            apply_weights(pset, KernelConfig(), other)

    def test_is_distances_then_floored_weights(self):
        pset, inst = self._pset_and_instance()
        for distance in (KernelConfig().distance, BINARY_HAMMING):
            d = distances(pset.rows, interpretable_reference(inst), distance)
            for width in (0.1, 0.7, 3.0):
                out = apply_weights(pset, KernelConfig(width, distance), inst)
                assert np.array_equal(out.weights, floored_weights(d, width))
                assert out.rows is pset.rows

    def test_proximity_rejects_mismatched_instance(self):
        pset, _ = self._pset_and_instance()
        other = Instance([0.0], (NUMERICAL,), ("a",))
        with pytest.raises(ConfigError):
            distances(pset.rows, interpretable_reference(other))

    def test_rejects_unknown_distance(self):
        with pytest.raises(ConfigError):
            KernelConfig(distance="cosine")
        with pytest.raises(ConfigError, match="unknown distance 'cosine'"):
            distances(np.ones((2, 2)), np.zeros(2), "cosine")

    def test_rejects_a_bad_or_second_width(self):
        # A config holds one width, finite and positive, or None for the
        # default.
        for width in (0.0, -1.0, np.nan, np.inf, [1.0], [1.0, 2.0]):
            with pytest.raises(ConfigError):
                KernelConfig(width=width)
