"""Evaluation measures for explanation quality.

Two questions are answered about an explainer on a given instance:

* how consistent are repeated explanations that differ only in sampling
  seed? Measured by an importance-weighted index of dispersion of the
  per-feature ranks, plus Kendall's coefficient of concordance W;
* how robust is the explanation to the kernel-width setting? Measured by
  the median, over sampled width pairs (l1, l2), of
  ||h(l1) - h(l2)||_2 / |l1 - l2|, where h(l) is the normalized importance
  vector produced at width l.

Both work on normalized importances, so they compare the direction of
explanations, not their regression scale.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidInputError, UndefinedMetricError
from .explainer import (
    BayLime,
    LimeRidge,
    check_surrogates,
    fit,
    join_sets,
    reduce_set,
)
from .kernel import EUCLIDEAN, floored_weights, proximity_distances
from .types import (
    ExplanationEnsemble,
    Instance,
    PerturbationSet,
    normalize_coefficients,
)

# Width pairs closer than this fraction of the sampled range are redrawn;
# the ratio divides by |l1 - l2|.
PAIR_GAP_FRACTION = 1e-6


@dataclass(frozen=True)
class MetricReport:
    """Computed metric values; unset halves stay None/empty.

    ``robustness_r`` is the lower-middle order statistic of the sample
    ratios (for an even count the smaller of the two central values), so
    it is always one of the observed ratios. ``min_effective_sample_size``
    is the smallest Kish effective sample size the kernel left over the
    swept widths.
    """

    inconsistency: float | None = None
    kendalls_w: float | None = None
    robustness_samples: tuple[tuple[float, float, float], ...] = ()
    robustness_r: float | None = None
    min_effective_sample_size: float | None = None

    def __post_init__(self):
        if self.inconsistency is not None and self.inconsistency < 0:
            raise ConfigError("inconsistency cannot be negative")
        if self.kendalls_w is not None and not (
                -1e-9 <= self.kendalls_w <= 1 + 1e-9):
            raise ConfigError("kendalls_w must lie in [0, 1]")
        if self.robustness_r is not None and self.robustness_samples:
            ratios = [s[2] for s in self.robustness_samples]
            if self.robustness_r not in ratios:
                raise ConfigError("robustness_r must be one of the sample "
                                  "ratios")


def _check_runs(ensemble: ExplanationEnsemble) -> None:
    if ensemble.k < 2:
        raise InvalidInputError("agreement across runs needs at least two "
                                "runs")


def inconsistency(ensemble: ExplanationEnsemble) -> float:
    """Importance-weighted dispersion of feature ranks across runs.

    Per feature i: E(g_i) is the mean normalized importance over runs and
    IoD(f_i) the population variance of its ranks divided by their mean.
    The result is sum_i [E(g_i) / sum_j E(g_j)] * IoD(f_i), so disagreement
    about important features costs more than disagreement about marginal
    ones. Zero exactly when every feature keeps one rank in every run.

    Raises:
        InvalidInputError: fewer than two runs.
        UndefinedMetricError: every importance in every run is zero, so the
            weights have a zero normalizer.
    """
    _check_runs(ensemble)
    importances = ensemble.importance_matrix()
    mean_importance = importances.mean(axis=0)
    total = float(mean_importance.sum())
    if total == 0.0:
        raise UndefinedMetricError(
            "all runs carry zero importances; rank weights are undefined"
        )
    ranks = ensemble.rank_matrix().astype(float)
    iod = ranks.var(axis=0) / ranks.mean(axis=0)
    return float(np.sum(mean_importance / total * iod))


def kendalls_w(ensemble: ExplanationEnsemble) -> float:
    """Kendall's coefficient of concordance over the per-run rankings.

    W = 12 S / (k^2 (m^3 - m) - k sum_j T_j), where S is the sum of squared
    deviations of per-feature rank sums from their mean and T_j the tie
    correction sum(t^3 - t) over tied groups in run j. 0 means no
    agreement, 1 complete agreement. When every run ties every feature the
    formula degenerates to 0/0; the runs are then identical, so 1 is
    returned.

    Raises:
        InvalidInputError: fewer than two runs.
        UndefinedMetricError: fewer than two features to rank.
    """
    _check_runs(ensemble)
    if ensemble.m < 2:
        raise UndefinedMetricError("rank agreement needs at least two "
                                   "features")
    ranks = ensemble.rank_matrix().astype(float)
    k, m = ranks.shape
    rank_sums = ranks.sum(axis=0)
    s = float(np.sum((rank_sums - rank_sums.mean()) ** 2))
    # Tied groups are runs of equal values in each sorted row; a row's
    # first value always starts a group.
    ordered = np.sort(ranks, axis=1)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    counts = np.diff(np.append(np.flatnonzero(starts), ordered.size))
    ties = float(np.sum(counts**3 - counts))
    denominator = k * k * (m**3 - m) - k * ties
    if denominator == 0.0:
        return 1.0
    w = 12.0 * s / denominator
    return float(min(max(w, 0.0), 1.0))


def width_pairs(pairs: int, bounds: tuple[float, float],
                seed: int) -> list[tuple[float, float]]:
    """Draw width pairs i.i.d. uniform on the bounds, no near-equal pairs.

    A pair whose gap is below 1e-6 of the range is discarded and redrawn,
    keeping the change ratio's denominator away from zero.
    """
    lo, up = float(bounds[0]), float(bounds[1])
    if not (np.isfinite(lo) and np.isfinite(up) and 0 < lo < up):
        raise ConfigError("width bounds must satisfy 0 < lower < upper")
    if pairs < 1:
        raise ConfigError("need at least one width pair")
    rng = np.random.default_rng(seed)
    gap = PAIR_GAP_FRACTION * (up - lo)
    out: list[tuple[float, float]] = []
    while len(out) < pairs:
        l1, l2 = rng.uniform(lo, up, size=2)
        if abs(l1 - l2) < gap:
            continue
        out.append((float(l1), float(l2)))
    return out


def robustness(pset: PerturbationSet, instance: Instance,
               surrogates: Sequence[LimeRidge | BayLime],
               pair_list: list[tuple[float, float]], *,
               distance: str = EUCLIDEAN) -> tuple[MetricReport, ...]:
    """Robustness of several surrogates over one probed set and width pairs.

    The set's own weights play no role, and its rows must be finite. The
    samples' distances from the instance are computed once, and the set is
    reduced under every width of every pair, in width order l1, l2 of each
    pair, to one stack row per width (:func:`~baylime.explainer.reduce_set`,
    one batched ``eigh``). Each surrogate is fitted on all of its rows in
    one call, each row bit for bit the fit at that width alone. Returns
    one report per surrogate, in the given order, each with the smallest
    Kish effective sample size over the widths.

    A prior mean whose length is not the set's feature count raises
    ShapeError before any fit. A fit failure ends that surrogate's sweep;
    the FitError raised is the one the surrogates would raise swept one
    after another: that of the first failing surrogate in the given
    order, at its first failing width, with the samples of the pairs
    before that width's pair on ``partial_samples``.
    """
    if not surrogates:
        raise ConfigError("robustness needs at least one surrogate")
    if not pair_list:
        raise ConfigError("robustness needs at least one width pair")
    evidence = check_surrogates(surrogates, pset.m)
    d = proximity_distances(pset, instance, distance)
    if not np.all(np.isfinite(pset.rows)):
        raise InvalidInputError("perturbation set rows must be finite")
    widths = [width for pair in pair_list for width in pair]
    columns, effective = reduce_set(
        pset.rows, pset.labels, lambda i: floored_weights(d, widths[i]),
        len(widths), evidence)
    stack = join_sets([columns], pset.n)
    reports = []
    for surrogate in surrogates:
        result = fit(stack, surrogate)
        h = np.abs(normalize_coefficients(result.coefficients))
        samples = tuple(
            (l1, l2, float(np.linalg.norm(h[2 * j] - h[2 * j + 1])
                           / abs(l1 - l2)))
            for j, (l1, l2) in enumerate(pair_list[:result.failed // 2]))
        if result.error is not None:
            result.error.partial_samples = samples
            raise result.error
        reports.append(MetricReport(
            robustness_samples=samples,
            robustness_r=statistics.median_low([s[2] for s in samples]),
            min_effective_sample_size=min(effective)))
    return tuple(reports)
