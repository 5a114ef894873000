"""Proximity weighting of perturbed samples.

A sample at interpretable-space distance d from the explained instance
gets weight exp(-d^2 / l^2), where l is the kernel width. Note the
exponent uses the squared width directly; there is no square root inside.
Larger l flattens the weighting, smaller l focuses it on the immediate
neighbourhood. The default width grows with the feature count as
0.75 * sqrt(m).

Distances run in the interpretable space, where the explained instance
itself sits at 0 for numerical features (its own standardized offset) and
at 1 for binary and categorical ones (mask on, category matched).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .types import Instance, NUMERICAL, PerturbationSet

EUCLIDEAN = "euclidean"
BINARY_HAMMING = "binary_hamming_fraction"
DISTANCES = (EUCLIDEAN, BINARY_HAMMING)

# exp() underflows to an exact zero for far samples at small widths; the
# weight floor keeps them representable without changing the fit.
_WEIGHT_FLOOR = float(np.finfo(float).tiny)


def default_width(m: int) -> float:
    """Kernel width used when none is configured: 0.75 * sqrt(m)."""
    if m < 1:
        raise ConfigError("feature count must be at least 1")
    return 0.75 * float(np.sqrt(m))


@dataclass(frozen=True)
class KernelConfig:
    """Width and distance choice; ``width=None`` defers to the default."""

    width: float | None = None
    distance: str = EUCLIDEAN

    def __post_init__(self):
        if self.width is not None and not (np.isfinite(self.width)
                                           and self.width > 0):
            raise ConfigError("kernel width must be finite and positive")
        if self.distance not in DISTANCES:
            raise ConfigError(
                f"unknown distance {self.distance!r}; expected one of "
                f"{DISTANCES}"
            )

    def resolved_width(self, m: int) -> float:
        return default_width(m) if self.width is None else float(self.width)


def interpretable_reference(instance: Instance) -> np.ndarray:
    """Where the explained instance sits in interpretable coordinates."""
    ref = np.ones(instance.m)
    for j, kind in enumerate(instance.feature_kinds):
        if kind == NUMERICAL:
            ref[j] = 0.0
    return ref


def distances(rows: np.ndarray, reference: np.ndarray,
              distance: str = EUCLIDEAN) -> np.ndarray:
    """Distance of each interpretable row from the reference point."""
    rows = np.asarray(rows, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if rows.ndim != 2 or reference.shape != (rows.shape[1],):
        raise ConfigError("rows must be n-by-m and the reference length m")
    delta = rows - reference
    if distance == EUCLIDEAN:
        # Squared in place: delta is n-by-m, and a second array that size
        # would cost a fresh allocation and its page faults.
        delta *= delta
        return np.sqrt(np.sum(delta, axis=1))
    if distance == BINARY_HAMMING:
        return np.mean(delta != 0.0, axis=1)
    raise ConfigError(f"unknown distance {distance!r}")


def distance_note(instance: Instance, distance: str) -> str | None:
    """Why ``distance`` cannot tell the instance's samples apart, or None.

    ``binary_hamming_fraction`` counts every nonzero offset as a mismatch,
    so on an all-numerical problem every sample sits at distance 1 and
    gets the same weight.
    """
    if distance == BINARY_HAMMING and all(
            kind == NUMERICAL for kind in instance.feature_kinds):
        return ("binary_hamming_fraction puts every sample of an "
                "all-numerical problem at distance 1, so the kernel gives "
                "every sample the same weight; use euclidean")
    return None


def kernel_weight(distance: np.ndarray | float, width: float) -> np.ndarray:
    """exp(-d^2 / l^2) for distance d and width l."""
    if not (np.isfinite(width) and width > 0):
        raise ConfigError("kernel width must be finite and positive")
    d = np.asarray(distance, dtype=float)
    return np.exp(-(d * d) / (width * width))


def proximity_distances(pset: PerturbationSet, instance: Instance,
                        distance: str = EUCLIDEAN) -> np.ndarray:
    """Distance of each sample from the explained instance.

    The distances do not depend on the kernel width, so a width sweep
    computes them once and weights at every width from them.
    """
    if instance.m != pset.m:
        raise ConfigError(
            f"instance has {instance.m} features but the perturbation set "
            f"has {pset.m}"
        )
    return distances(pset.rows, interpretable_reference(instance), distance)


def floored_weights(d: np.ndarray, width: float) -> np.ndarray:
    """Kernel weights at ``width``, floored so none underflows to zero."""
    return np.maximum(kernel_weight(d, width), _WEIGHT_FLOOR)


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish's effective sample size (sum w)^2 / sum w^2 of positive weights.

    n for equal weights, 1 when one sample carries all the weight. The
    weights are scaled to a maximum of 1 first, so their squares cannot
    underflow.
    """
    scaled = weights / weights.max()
    return float(scaled.sum() ** 2 / (scaled @ scaled))


def apply_weights(pset: PerturbationSet, config: KernelConfig,
                  instance: Instance) -> PerturbationSet:
    """Replace the set's weights with kernel weights around the instance.

    Weights are overwritten, not multiplied in, so reapplying with a new
    width is safe. The new set shares the rows and labels.
    """
    d = proximity_distances(pset, instance, config.distance)
    return replace(pset, weights=floored_weights(
        d, config.resolved_width(pset.m)))
