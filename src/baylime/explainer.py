"""End-to-end explanation runs: perturb, probe, weight, fit, rank.

Also houses prior elicitation: turning explanations of similar instances
into a prior for the next one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .blackbox import PredictorHandle, label_blocks
from .errors import ConfigError, InvalidInputError, ShapeError
from .kernel import (
    KernelConfig,
    distance_note,
    distances,
    effective_sample_size,
    floored_weights,
    interpretable_reference,
)
from .perturb import PerturbConfig, perturb_matrix
from .regression import (
    FULL,
    PriorSpec,
    StackFit,
    WeightedStack,
    _rank_tol,
    _rotate,
    posterior_rows,
    ridge_rows,
)
from .types import (
    Explanation,
    ExplanationEnsemble,
    Instance,
    _spectra,
    _weighted_moments,
    normalize_coefficients,
    rank_features,
)


@dataclass(frozen=True)
class LimeRidge:
    """Plain weighted-ridge surrogate with regularizer ``r``."""

    r: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.r) and self.r >= 0):
            raise ConfigError("ridge regularizer must be finite and >= 0")


@dataclass(frozen=True)
class BayLime:
    """Bayesian surrogate governed by a prior-knowledge spec."""

    prior: PriorSpec

    def __post_init__(self):
        if not isinstance(self.prior, PriorSpec):
            raise ConfigError("BayLime needs a PriorSpec")


@dataclass(frozen=True)
class ExplainConfig:
    """Everything one explanation run needs besides instance and predictor."""

    perturb: PerturbConfig
    kernel: KernelConfig
    surrogate: LimeRidge | BayLime


def fit(stack: WeightedStack, surrogate: LimeRidge | BayLime) -> StackFit:
    """Fit the surrogate on every row of a stack.

    Each row of the returned :class:`StackFit` is bit for bit the fit of
    that row's weighted set alone, and the first failing row's error is on
    it.
    """
    if isinstance(surrogate, LimeRidge):
        return ridge_rows(stack, surrogate.r)
    return posterior_rows(stack, surrogate.prior)


def reduce_set(rows: np.ndarray, labels: np.ndarray,
               weights: Callable[[int], np.ndarray], s: int, evidence: bool,
               ) -> tuple[tuple[np.ndarray, ...], list[float]]:
    """Reduce one labelled set under s weightings to its rows of a stack.

    Row i weights the samples by ``weights(i)``: a seed's set is one row, a
    kernel-width sweep one row per width. Returns the stack columns, X'WX
    and X'WY, and each row's Kish effective sample size. With ``evidence``
    the columns add what evidence fits need from the samples: the spectrum
    (eig, V, V'X'WY) of all s rows from one batched ``eigh``, and the
    inputs :attr:`WeightedStack.evidence` holds. ``weights`` is called
    again for those, so one weight vector is held at a time.
    """
    m = rows.shape[1]
    grams, moments = np.empty((s, m, m)), np.empty((s, m))
    effective = []
    for i in range(s):
        w = weights(i)
        effective.append(effective_sample_size(w))
        grams[i], moments[i] = _weighted_moments(rows, labels, w)
    if not evidence:
        return (grams, moments), effective
    eig, vectors, b = spectrum = _spectra(grams, moments)
    c_ls = np.divide(b, eig, out=np.zeros_like(b),
                     where=eig > _rank_tol(eig)[:, None])
    rss_ls = np.empty(s)
    for i, beta in enumerate(_rotate(vectors, c_ls)):
        residual = labels - rows @ beta
        rss_ls[i] = (weights(i) * residual * residual).sum()
    var = float(np.var(labels))
    alpha = np.full(s, 1.0 / var if var > 0 else 1.0)
    return (grams, moments, *spectrum, c_ls, rss_ls, alpha), effective


def join_sets(parts: Sequence[tuple[np.ndarray, ...]],
              n: int) -> WeightedStack:
    """The stack of several sets' columns from :func:`reduce_set`, in order.

    A lone set's columns are the stack's, uncopied. Without evidence
    inputs, every row's X'WX is decomposed here, in one batched ``eigh``.
    """
    grams, moments, *inputs = (column[0] if len(parts) == 1
                               else np.concatenate(column)
                               for column in zip(*parts))
    spectrum = tuple(inputs[:3]) if inputs else _spectra(grams, moments)
    return WeightedStack((grams, moments), spectrum, n,
                         tuple(inputs[3:]) or None)


def check_surrogates(surrogates: Sequence[LimeRidge | BayLime],
                     m: int) -> bool:
    """Refuse a surrogate of the wrong type, or a prior mean not of length m.

    The one check of both rules: the seed block and the robustness sweep
    call it before they probe, and the CLI before it starts the predictor.
    Returns whether any surrogate maximizes the evidence (a BayLime prior
    not in full mode), whose fits need each set's rows while they are
    alive.
    """
    evidence = False
    for surrogate in surrogates:
        if not isinstance(surrogate, (LimeRidge, BayLime)):
            raise ConfigError("surrogate must be LimeRidge or BayLime")
        if isinstance(surrogate, LimeRidge):
            continue
        mu0 = surrogate.prior.mu0
        if mu0 is not None and mu0.shape != (m,):
            raise ShapeError(f"mu0 has shape {mu0.shape}; the design has "
                             f"{m} features")
        evidence |= surrogate.prior.mode != FULL
    return evidence


def _notes(n: int, effective: float, instance: Instance,
           kernel: KernelConfig) -> list[str]:
    """The warnings an explanation carries, given its sample count and the
    Kish effective sample size its kernel weights leave."""
    m = instance.m
    notes: list[str] = []
    if n < m:
        notes.append(f"only {n} samples for {m} features; coefficients "
                     f"lean on the prior or regularizer")
    if effective < m:
        notes.append(
            f"the kernel leaves an effective sample size of {effective:.3g} "
            f"for {m} features; coefficients lean on the prior or "
            f"regularizer, so widen the kernel"
        )
    note = distance_note(instance, kernel.distance)
    if note is not None:
        notes.append(note)
    return notes


def labelled_sets(instance: Instance, predictor: PredictorHandle,
                  perturb: PerturbConfig, k: int, distance: str,
                  ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Draw and label the sets of seeds perturb.seed, ..., perturb.seed+k-1.

    The one sample path of the seed block and the robustness sweep. Each
    seed draws ``perturb.n`` rows (:func:`~baylime.perturb.perturb_matrix`;
    the first seed from ``perturb`` itself, uncopied), and each draw is one
    block of :func:`~baylime.blackbox.label_blocks`, so the predictor sees
    ceil(k * n / batch_limit) calls and a request may carry rows of several
    seeds. Yields (interpretable rows, labels, distances from the instance)
    per seed, in seed order, as its last row is answered.
    """
    reference = interpretable_reference(instance)
    draws = map(partial(perturb_matrix, instance),
                (replace(perturb, seed=perturb.seed + i) if i else perturb
                 for i in range(k)))
    for rows, labels in label_blocks(predictor, draws):
        yield rows, labels, distances(rows, reference, distance)


def explain(instance: Instance, predictor: PredictorHandle,
            config: ExplainConfig) -> Explanation:
    """Explain one instance: sample, probe, weight, fit, rank.

    This is the one-run, one-surrogate seed block (:func:`explain_block`)
    at the configured seed, so the predictor sees ceil(n / batch_limit)
    calls. The perturbation seed fully determines the run given the
    config, so repeating the call reproduces the explanation bit for bit.
    """
    (ensemble,) = explain_block(instance, predictor, config.perturb,
                                config.kernel, (config.surrogate,), 1)
    return ensemble.runs[0]


def explain_block(instance: Instance, predictor: PredictorHandle,
                  perturb: PerturbConfig, kernel: KernelConfig,
                  surrogates: Sequence[LimeRidge | BayLime],
                  k: int) -> tuple[ExplanationEnsemble, ...]:
    """One seed block: k >= 1 seeded runs of several surrogates, paired.

    The seeds perturb.seed, ..., perturb.seed+k-1 each draw and label a
    sample set of ``perturb.n`` rows (:func:`labelled_sets`), so the
    predictor sees ceil(k * n / batch_limit) calls whatever the number of
    surrogates. Every surrogate therefore sees identical labels, even from
    a stochastic predictor, and the comparison is exactly paired. As each
    set comes back labelled it is weighted and reduced to its one stack row
    (:func:`reduce_set`), and its rows are dropped; only the rows still
    waiting for labels are held.
    :func:`join_sets` stacks the k rows, each surrogate is fitted on all
    of them in one call (:class:`WeightedStack`), and its importances and
    ranks are taken for all k runs at once.

    Returns one ensemble per surrogate, in the given order, with runs
    ordered by seed; each carries the smallest Kish effective sample size
    the kernel left over the k sets. For a predictor whose output for a
    row does not depend on the other rows of its request, run i of a
    surrogate equals :func:`explain` with that surrogate at seed
    perturb.seed+i, bit for bit. A fit failure raises the error a
    seed-by-seed loop would: that of the earliest failing seed, and
    within it of the first failing surrogate in the given order.
    """
    if k < 1:
        raise ConfigError("a seed block needs k >= 1 runs")
    if not surrogates:
        raise ConfigError("a seed block needs at least one surrogate")
    evidence = check_surrogates(surrogates, instance.m)
    width = kernel.resolved_width(instance.m)
    n = perturb.n
    parts, effective = [], []
    for rows, labels, d in labelled_sets(instance, predictor, perturb, k,
                                         kernel.distance):
        weights = floored_weights(d, width)
        columns, (size,) = reduce_set(rows, labels, lambda _: weights, 1,
                                      evidence)
        parts.append(columns)
        effective.append(size)
    stack = join_sets(parts, n)
    fits = [fit(stack, surrogate) for surrogate in surrogates]
    # min keeps the first of equal rows: the first surrogate in order.
    first_failure = min(fits, key=lambda result: result.failed)
    if first_failure.error is not None:
        raise first_failure.error
    floor = min(effective)

    def ensemble(result: StackFit) -> ExplanationEnsemble:
        importances = np.abs(normalize_coefficients(result.coefficients))
        ranks = rank_features(result.coefficients)

        def run(i: int) -> Explanation:
            posterior = (None if result.lam is None
                         else stack.surrogate_fit(result, i))
            return Explanation(result.coefficients[i], importances[i],
                               ranks[i], width, n, posterior=posterior,
                               seed=perturb.seed + i,
                               warnings=_notes(n, effective[i], instance,
                                               kernel))

        # Frozen here, the matrices are shared by the ensemble, not copied.
        importances.setflags(write=False)
        ranks.setflags(write=False)
        return ExplanationEnsemble(importances, ranks, run,
                                   min_effective_sample_size=floor)

    return tuple(ensemble(result) for result in fits)


def elicit_prior(previous: ExplanationEnsemble | Iterable[Explanation], *,
                 alpha: float | None = None) -> PriorSpec:
    """Turn explanations of similar instances into a prior for the next one.

    The prior mean is the elementwise mean of the previous raw (signed,
    pre-normalization) coefficient vectors, since that is the scale the
    posterior combines it on. The prior precision is the number of previous
    explanations: each one counts as a pseudo-observation of the mean.
    Without ``alpha`` the result is a partial prior (noise precision still
    fitted); supplying ``alpha`` upgrades it to a full prior.
    """
    if isinstance(previous, ExplanationEnsemble):
        runs: Sequence[Explanation] = previous.runs
    else:
        runs = tuple(previous)
    if not runs:
        raise InvalidInputError("prior elicitation needs at least one "
                                "previous explanation")
    m = runs[0].m
    for run in runs[1:]:
        if run.m != m:
            raise ShapeError("previous explanations disagree on feature count")
    mu0 = np.mean([run.coefficients for run in runs], axis=0)
    lam = float(len(runs))
    if alpha is None:
        return PriorSpec.partial(mu0, lam)
    return PriorSpec.full(mu0, lam, alpha)
