"""End-to-end explanation runs: perturb, probe, weight, fit, rank.

One path, :func:`fit_block`, takes k seeds' sample sets to fits at one or
more kernel widths, for the seed block and the robustness sweep alike.

Also houses prior elicitation: turning explanations of similar instances
into a prior for the next one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Iterable, Sequence

import numpy as np

from .blackbox import PredictorHandle, label_blocks
from .errors import ConfigError, InvalidInputError, ShapeError
from .kernel import (
    KernelConfig,
    distance_note,
    distances,
    floored_weights,
    interpretable_reference,
)
from .perturb import PerturbConfig, perturb_matrix
from .regression import (
    FULL,
    PriorSpec,
    StackFit,
    WeightedStack,
    join_sets,
    posterior_rows,
    reduce_set,
    ridge_rows,
)
from .types import (
    Explanation,
    ExplanationEnsemble,
    Instance,
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


def check_surrogates(surrogates: Sequence[LimeRidge | BayLime],
                     m: int) -> bool:
    """Refuse a surrogate of the wrong type, or a prior mean not of length m.

    The one check of both rules: :func:`fit_block` calls it before it
    probes, and the CLI before it starts the predictor. Returns whether any
    surrogate maximizes the evidence (a BayLime prior not in full mode),
    whose fits need each set's rows while they are alive.
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


def fit_block(instance: Instance, predictor: PredictorHandle,
              perturb: PerturbConfig, k: int, distance: str,
              widths: Sequence[float],
              surrogates: Sequence[LimeRidge | BayLime],
              ) -> tuple[WeightedStack, list[StackFit]]:
    """Sample, probe, weight and fit the sets of k seeds at every width.

    The one path of the seed block and the robustness sweep; its arguments,
    every width among them, are checked before the first draw. The seeds
    perturb.seed, ..., perturb.seed+k-1 each draw ``perturb.n`` rows (the
    first from ``perturb`` itself, uncopied) as one block of
    :func:`~baylime.blackbox.label_blocks`, so the predictor sees
    ceil(k * n / batch_limit) calls and a request may carry rows of
    several seeds. Once labelled, a set is reduced to one stack row per
    width (:func:`~baylime.regression.reduce_set`) and dropped. Each
    surrogate is fitted on all the rows, by seed then width, in one call,
    row i bit for bit the fit of its weighted set alone.

    Returns the stack, whose ``effective`` column holds each row's Kish
    effective sample size, and one fit per surrogate in the given order.
    """
    if k < 1 or not widths or not surrogates:
        raise ConfigError("a block needs k >= 1 seeds, at least one width "
                          "and at least one surrogate")
    evidence = check_surrogates(surrogates, instance.m)
    for width in widths:
        # KernelConfig reads None as the default width; a block needs a
        # resolved one.
        if width is None:
            raise ConfigError("kernel width must be finite and positive")
        KernelConfig(width, distance)  # refuses a bad width or distance
    reference = interpretable_reference(instance)
    draws = map(partial(perturb_matrix, instance),
                (replace(perturb, seed=perturb.seed + i) if i else perturb
                 for i in range(k)))
    parts = []
    for rows, labels in label_blocks(predictor, draws):
        d = distances(rows, reference, distance)
        # The last width's weights are kept: one width's are computed once
        # per set, and a sweep holds one weight vector at a time.
        weights = lru_cache(maxsize=1)(
            lambda i: floored_weights(d, widths[i]))
        parts.append(reduce_set(rows, labels, weights, len(widths),
                                evidence))
    stack = join_sets(parts, perturb.n)
    fits = [ridge_rows(stack, surrogate.r) if isinstance(surrogate, LimeRidge)
            else posterior_rows(stack, surrogate.prior)
            for surrogate in surrogates]
    return stack, fits


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
    set of ``perturb.n`` rows, weighted at the kernel's width
    (:func:`fit_block`), so the predictor sees ceil(k * n / batch_limit)
    calls whatever the number of surrogates. Every surrogate therefore
    sees identical labels, even from a stochastic predictor, and the
    comparison is exactly paired. Each surrogate's importances and ranks
    are taken for all k runs at once.

    Returns one ensemble per surrogate, in the given order, with runs
    ordered by seed; each carries the smallest Kish effective sample size
    the kernel left over the k sets. For a predictor whose output for a
    row does not depend on the other rows of its request, run i of a
    surrogate equals :func:`explain` with that surrogate at seed
    perturb.seed+i, bit for bit. A fit failure raises the error a
    seed-by-seed loop would: that of the earliest failing seed, and
    within it of the first failing surrogate in the given order.
    """
    width = kernel.resolved_width(instance.m)
    stack, fits = fit_block(instance, predictor, perturb, k, kernel.distance,
                            (width,), surrogates)
    # min keeps the first of equal rows: the first surrogate in order.
    first_failure = min(fits, key=lambda result: result.failed)
    if first_failure.error is not None:
        raise first_failure.error
    n, effective = stack.n, stack.effective.tolist()

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
                                   min_effective_sample_size=min(effective))

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
