"""Core value types: instances, perturbation datasets and explanations.

Every container here is a frozen dataclass backed by read-only numpy arrays,
immutable after construction (the ensemble makes its runs on first
access), so instances are safe to share across threads. Besides the
containers, the module holds the ranking and coefficient normalization
every other module builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import InvalidInputError, ShapeError

if TYPE_CHECKING:  # pragma: no cover
    from .regression import SurrogateFit

NUMERICAL = "numerical"
CATEGORICAL = "categorical"
BINARY_MASK = "binary_mask"
FEATURE_KINDS = (NUMERICAL, CATEGORICAL, BINARY_MASK)


def _frozen_array(values, dtype=float) -> np.ndarray:
    # An array frozen here before is shared, not copied: a reweighted
    # perturbation set then holds the same rows and labels as its source,
    # which stays alive while explainers are fitted on it.
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.flags.owndata and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def rank_features(coefficients: Sequence[float] | np.ndarray) -> np.ndarray:
    """Rank features by coefficient magnitude, rank 1 = largest |value|.

    Ties are broken in favour of the lower feature index, so the result is
    deterministic. The all-zero vector is degenerate: every feature gets
    rank 1 (there is no ordering information to encode).

    Args:
        coefficients: length-m vector of finite reals, or a (k, m) matrix
            whose rows are ranked each on its own.

    Returns:
        Integer array of the input's shape with ``ranks[..., i]`` = rank of
        feature i.
    """
    c = np.asarray(coefficients, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1] == 0:
        raise InvalidInputError("coefficients must be a non-empty 1-D vector "
                                "or a matrix of such rows")
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("coefficients contain non-finite values")
    # A stable sort by descending |c| keeps tied features in index order.
    order = np.argsort(-np.abs(c), axis=-1, kind="stable")
    ranks = order.argsort(axis=-1) + 1
    ranks[~c.any(axis=-1)] = 1
    return ranks


def normalize_coefficients(coefficients: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scale a coefficient vector to unit Euclidean norm (zero stays zero).

    A (k, m) matrix is scaled row by row, and a vector is its one row. A
    row's norm is sqrt(row . row), as ``numpy.linalg.norm`` takes it for a
    vector, so row i equals the vector case bit for bit.
    """
    c = np.asarray(coefficients, dtype=float)
    rows = np.atleast_2d(c)
    norms = np.sqrt([row.dot(row) for row in rows])[:, None]
    return np.divide(rows, norms, out=np.zeros_like(rows),
                     where=norms != 0.0).reshape(c.shape)


@dataclass(frozen=True)
class Instance:
    """A single point to explain: m feature values plus their kinds and names.

    Categorical features are pre-encoded as category indices; binary-mask
    features carry the "on" value of the feature.
    """

    values: np.ndarray
    feature_kinds: tuple[str, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        values = _frozen_array(self.values)
        kinds = tuple(self.feature_kinds)
        names = tuple(self.feature_names)
        if values.ndim != 1 or values.size == 0:
            raise InvalidInputError("instance needs at least one feature value")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("instance values must be finite")
        if len(kinds) != values.size or len(names) != values.size:
            raise ShapeError(
                f"values ({values.size}), feature_kinds ({len(kinds)}) and "
                f"feature_names ({len(names)}) must have equal length"
            )
        for kind in kinds:
            if kind not in FEATURE_KINDS:
                raise InvalidInputError(f"unknown feature kind {kind!r}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "feature_kinds", kinds)
        object.__setattr__(self, "feature_names", names)

    @property
    def m(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class PerturbationSet:
    """Perturbed samples in the interpretable space with labels and weights.

    ``rows`` is the n-by-m interpretable-representation matrix, ``labels``
    the black-box outputs for the matching original-space rows, ``weights``
    the proximity weights (the diagonal of the weighting matrix, each in
    (0, 1]). ``seed`` records the RNG seed the rows were drawn with.
    """

    rows: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    seed: int

    def __post_init__(self):
        rows = _frozen_array(self.rows)
        labels = _frozen_array(self.labels)
        weights = _frozen_array(self.weights)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise InvalidInputError("rows must be a non-empty n-by-m matrix")
        n = rows.shape[0]
        if labels.shape != (n,) or weights.shape != (n,):
            raise ShapeError(
                f"labels {labels.shape} and weights {weights.shape} must both "
                f"have shape ({n},)"
            )
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise InvalidInputError("weights must be finite and strictly positive")
        if int(self.seed) < 0:
            raise InvalidInputError("seed must be a non-negative integer")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def m(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class Explanation:
    """A fitted local explanation of one instance.

    ``coefficients`` is the raw signed coefficient vector from the surrogate;
    ``importances`` its unit-normalized magnitudes; ``ranks`` the magnitude
    ranking (1 = most important). ``posterior`` optionally carries the full
    surrogate fit backing the coefficients. ``seed`` and ``warnings`` record
    what is needed to reproduce and audit the run.
    """

    coefficients: np.ndarray
    importances: np.ndarray
    ranks: np.ndarray
    kernel_width: float
    n_samples: int
    posterior: "SurrogateFit | None" = None
    seed: int | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        coeffs = _frozen_array(self.coefficients)
        importances = _frozen_array(self.importances)
        ranks = _frozen_array(self.ranks, dtype=int)
        m = coeffs.size
        if m == 0 or coeffs.ndim != 1:
            raise InvalidInputError("coefficients must be a non-empty vector")
        if importances.shape != (m,) or ranks.shape != (m,):
            raise ShapeError("coefficients, importances and ranks must share length")
        sq = float(importances.dot(importances))
        if coeffs.any():
            if abs(sq - 1.0) > 1e-9:
                raise InvalidInputError(
                    f"importances must form a unit vector (sum of squares {sq})"
                )
        elif sq != 0.0:
            raise InvalidInputError("zero coefficients require zero importances")
        if ranks.min() < 1 or ranks.max() > m:
            raise InvalidInputError("ranks must lie in [1, m]")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "importances", importances)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "warnings", tuple(self.warnings))

    @property
    def m(self) -> int:
        return self.coefficients.size


@dataclass(frozen=True, eq=False, repr=False)
class ExplanationEnsemble:
    """k >= 1 explanations of one instance, identical apart from seeds.

    An ensemble holds the (k, m) importance and rank matrices of its runs
    and a function that makes run i, whose importances and ranks are row i
    of the matrices. The runs are made on first access to ``runs``, where
    threads that enter together may each make them, equal ones. The
    consistency metrics read only the matrices, so a sweep makes none.
    ``min_effective_sample_size``, when known, is the smallest Kish
    effective sample size the kernel left over the runs' sample sets.
    """

    _importances: np.ndarray
    _ranks: np.ndarray
    _make_run: Callable[[int], Explanation]
    min_effective_sample_size: float | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if np.ndim(self._importances) != 2 or len(self._importances) < 1:
            raise InvalidInputError("an ensemble needs at least one run")
        if np.shape(self._ranks) != np.shape(self._importances):
            raise ShapeError("importance and rank matrices must share shape")
        for name, dtype in (("_importances", float), ("_ranks", int)):
            frozen = _frozen_array(getattr(self, name), dtype)
            object.__setattr__(self, name, frozen)

    @cached_property
    def runs(self) -> tuple[Explanation, ...]:
        return tuple(map(self._make_run, range(self.k)))

    @property
    def k(self) -> int:
        return self._importances.shape[0]

    @property
    def m(self) -> int:
        return self._importances.shape[1]

    def importance_matrix(self) -> np.ndarray:
        """k-by-m matrix of normalized importances, one row per run."""
        return self._importances.copy()

    def rank_matrix(self) -> np.ndarray:
        """k-by-m matrix of ranks, one row per run."""
        return self._ranks.copy()
