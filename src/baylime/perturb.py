"""Perturbation sampling around an instance.

Each feature column draws from its own RNG stream, seeded with
``[seed, column]``, so adding or removing a feature never reshuffles the
draws of the others and a fixed seed reproduces the same neighbourhood
exactly.

Per feature kind:

* numerical: z ~ N(0, 1); the interpretable value is z and the
  original-space value is ``z * std + mean``, where mean and std are
  dataset statistics (so samples spread around the data, not the instance);
* binary mask: a fair coin; 1 keeps the instance's value, 0 substitutes
  the configured off value (default 0);
* categorical: a category code sampled from the dataset frequency table;
  the interpretable value is 1 where the draw matches the instance's
  category and 0 elsewhere, the original value is the drawn code.

The regression later runs on the interpretable matrix; the original matrix
exists only long enough to probe the black box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .types import BINARY_MASK, CATEGORICAL, NUMERICAL, Instance

_FREQ_TOL = 1e-9


@dataclass(frozen=True)
class PerturbConfig:
    """Sampling plan: how many rows, from which seed, with which statistics.

    ``numeric_scale`` maps a numerical column to its (mean, std);
    ``categorical_frequencies`` maps a categorical column to a
    code-to-probability table; ``binary_off_values`` optionally overrides
    the value written when a binary mask draw is 0.
    """

    n: int
    seed: int
    numeric_scale: Mapping[int, tuple[float, float]] = field(default_factory=dict)
    categorical_frequencies: Mapping[int, Mapping[float, float]] = field(
        default_factory=dict)
    binary_off_values: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("perturbation count must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for j, (mean, std) in self.numeric_scale.items():
            if not (math.isfinite(mean) and math.isfinite(std)):
                raise ConfigError(f"non-finite scale for feature {j}")
            if not std > 0:
                raise ConfigError(f"std for feature {j} must be positive")
        for j, table in self.categorical_frequencies.items():
            if not table:
                raise ConfigError(f"empty frequency table for feature {j}")
            probs = np.array(list(table.values()), dtype=float)
            if np.any(probs < 0) or abs(probs.sum() - 1.0) > _FREQ_TOL:
                raise ConfigError(
                    f"frequencies for feature {j} must be non-negative and "
                    f"sum to 1"
                )


def column_statistics(values: np.ndarray) -> tuple[float, float]:
    """Mean and population standard deviation of one data column."""
    col = np.asarray(values, dtype=float)
    if col.ndim != 1 or col.size == 0:
        raise ConfigError("statistics need a non-empty 1-d column")
    if not np.all(np.isfinite(col)):
        raise ConfigError("data column contains non-finite values")
    return float(col.mean()), float(col.std())


def frequency_table(values: np.ndarray) -> dict[float, float]:
    """Relative frequency of each distinct category code in a column."""
    col = np.asarray(values, dtype=float)
    if col.ndim != 1 or col.size == 0:
        raise ConfigError("frequency table needs a non-empty 1-d column")
    codes, counts = np.unique(col, return_counts=True)
    return {float(c): float(k) / col.size for c, k in zip(codes, counts)}


def config_from_data(data: np.ndarray, feature_kinds, *, n: int, seed: int,
                     binary_off_values: Mapping[int, float] | None = None,
                     ) -> PerturbConfig:
    """Derive the per-column sampling statistics from a reference dataset."""
    matrix = np.asarray(data, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ConfigError("reference data must be a non-empty n-by-m matrix")
    kinds = tuple(feature_kinds)
    if matrix.shape[1] != len(kinds):
        raise ConfigError(
            f"data has {matrix.shape[1]} columns but {len(kinds)} feature "
            f"kinds were given"
        )
    scale: dict[int, tuple[float, float]] = {}
    freq: dict[int, dict[float, float]] = {}
    for j, kind in enumerate(kinds):
        if kind == NUMERICAL:
            mean, std = column_statistics(matrix[:, j])
            # A constant column still gets a usable spread.
            scale[j] = (mean, std if std > 0 else 1.0)
        elif kind == CATEGORICAL:
            freq[j] = frequency_table(matrix[:, j])
    return PerturbConfig(n=n, seed=seed, numeric_scale=scale,
                         categorical_frequencies=freq,
                         binary_off_values=dict(binary_off_values or {}))


def _column_rng(seed: int, column: int) -> np.random.Generator:
    return np.random.default_rng([seed, column])


def perturb_matrix(instance: Instance,
                   config: PerturbConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sample the neighbourhood; returns (interpretable, original) matrices."""
    m = instance.m
    interp = np.empty((config.n, m), dtype=float)
    original = np.empty((config.n, m), dtype=float)
    for j, kind in enumerate(instance.feature_kinds):
        rng = _column_rng(config.seed, j)
        if kind == NUMERICAL:
            if j not in config.numeric_scale:
                raise ConfigError(f"no scale statistics for numerical "
                                  f"feature {j}")
            mean, std = config.numeric_scale[j]
            z = rng.standard_normal(config.n)
            interp[:, j] = z
            original[:, j] = z * std + mean
        elif kind == BINARY_MASK:
            draws = rng.integers(0, 2, size=config.n).astype(float)
            off = float(config.binary_off_values.get(j, 0.0))
            interp[:, j] = draws
            original[:, j] = np.where(draws == 1.0,
                                      instance.values[j], off)
        elif kind == CATEGORICAL:
            if j not in config.categorical_frequencies:
                raise ConfigError(f"no frequency table for categorical "
                                  f"feature {j}")
            table = config.categorical_frequencies[j]
            codes = np.array(sorted(table), dtype=float)
            probs = np.array([table[c] for c in codes], dtype=float)
            draws = rng.choice(codes, size=config.n, p=probs)
            interp[:, j] = (draws == instance.values[j]).astype(float)
            original[:, j] = draws
        else:
            raise ConfigError(f"unknown feature kind {kind!r}")
    return interp, original
