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

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blackbox import PredictorHandle
from .errors import ConfigError, InvalidInputError, UndefinedMetricError
from .explainer import fit_block
from .kernel import EUCLIDEAN
from .perturb import PerturbConfig
from .types import ExplanationEnsemble, Instance, normalize_coefficients

# Width pairs closer than this fraction of the sampled range are redrawn;
# the ratio divides by |l1 - l2|.
PAIR_GAP_FRACTION = 1e-6


@dataclass(frozen=True)
class MetricReport:
    """One surrogate's width-robustness result.

    ``robustness_r`` is the lower-middle order statistic of the sample
    ratios (for an even count the smaller of the two central values), so
    it is always one of the observed ratios. ``min_effective_sample_size``
    is the smallest Kish effective sample size the kernel left over the
    swept widths.
    """

    robustness_samples: tuple[tuple[float, float, float], ...] = ()
    robustness_r: float | None = None
    min_effective_sample_size: float | None = None

    def __post_init__(self):
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
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    gap = PAIR_GAP_FRACTION * (up - lo)
    out: list[tuple[float, float]] = []
    while len(out) < pairs:
        # Drawn a batch at a time, the same stream as pair by pair.
        draws = rng.uniform(lo, up, size=(pairs - len(out), 2)).tolist()
        out += [(l1, l2) for l1, l2 in draws if abs(l1 - l2) >= gap]
    return out


def robustness(instance: Instance, predictor: PredictorHandle,
               perturb: PerturbConfig,
               surrogates: Sequence,
               pair_list: list[tuple[float, float]], *,
               distance: str = EUCLIDEAN) -> tuple[MetricReport, ...]:
    """Robustness of several surrogates over one probed set and width pairs.

    The set is the seed block's at k = 1, ``perturb.n`` rows labelled in
    ceil(n / batch_limit) calls, weighted at every width of every pair in
    order l1, l2 (:func:`~baylime.explainer.fit_block`); each surrogate (a
    LimeRidge or BayLime) is fitted at all widths in one call, each row bit
    for bit the fit at that width alone. Returns one report per surrogate,
    in the given order, each with the smallest Kish effective sample size
    over the widths.

    A prior mean whose length is not the instance's feature count raises
    ShapeError, and a pair of equal widths or a width that is not finite
    and positive ConfigError, before the predictor is called. A fit
    failure ends that surrogate's sweep; the FitError raised is the one the
    surrogates would raise swept one after another: that of the first
    failing surrogate in the given order, at its first failing width, with
    the samples of the pairs before that width's pair on
    ``partial_samples``.
    """
    if any(l1 == l2 for l1, l2 in pair_list):
        raise ConfigError("a width pair needs two different widths")
    widths = [width for pair in pair_list for width in pair]
    stack, fits = fit_block(instance, predictor, perturb, 1, distance, widths,
                            surrogates)
    reports = []
    for result in fits:
        done = result.failed // 2
        h = np.abs(normalize_coefficients(result.coefficients[:2 * done]))
        # sqrt(gap . gap) is numpy.linalg.norm of a vector, bit for bit.
        samples = tuple(
            (l1, l2, math.sqrt(gap.dot(gap)) / abs(l1 - l2))
            for (l1, l2), gap in zip(pair_list[:done], h[0::2] - h[1::2]))
        if result.error is not None:
            result.error.partial_samples = samples
            raise result.error
        reports.append(MetricReport(
            robustness_samples=samples,
            robustness_r=statistics.median_low([s[2] for s in samples]),
            min_effective_sample_size=float(stack.effective.min())))
    return tuple(reports)
