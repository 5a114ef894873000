"""End-to-end explanation runs: perturb, probe, weight, fit, rank.

Also houses prior elicitation: turning explanations of similar instances
into a prior for the next one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .blackbox import PackedProbe, PredictorHandle, with_class
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
    evidence_inputs,
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
    target_class: int | None = None

    def __post_init__(self):
        if not isinstance(self.surrogate, (LimeRidge, BayLime)):
            raise ConfigError("surrogate must be LimeRidge or BayLime")
        if self.target_class is not None and self.target_class < 0:
            raise ConfigError("target_class must be non-negative")

    def with_seed(self, seed: int) -> "ExplainConfig":
        return replace(self, perturb=replace(self.perturb, seed=seed))

    def with_n(self, n: int) -> "ExplainConfig":
        return replace(self, perturb=replace(self.perturb, n=n))

    def with_surrogate(self, surrogate: LimeRidge | BayLime) -> "ExplainConfig":
        return replace(self, surrogate=surrogate)


def fit(stack: WeightedStack, surrogate: LimeRidge | BayLime) -> StackFit:
    """Fit the surrogate on every row of a stack.

    Each row of the returned :class:`StackFit` is bit for bit the fit of
    that row's weighted set alone, and the first failing row's error is on
    it.
    """
    if isinstance(surrogate, LimeRidge):
        return ridge_rows(stack, surrogate.r)
    return posterior_rows(stack, surrogate.prior)


def check_surrogates(surrogates: Sequence[LimeRidge | BayLime],
                     m: int) -> bool:
    """Refuse a surrogate of the wrong type, or a prior mean not of length m.

    Sweeps call this before they probe, so a bad spec costs no model call.
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


def _join(rows: list[np.ndarray]) -> np.ndarray:
    """Stack rows given as (1, ...) arrays; a lone row is its own stack."""
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def _class_handle(predictor: PredictorHandle,
                  target_class: int | None) -> PredictorHandle:
    """The handle an explanation probes: one class's output, if chosen."""
    if target_class is None:
        return predictor
    return with_class(predictor, target_class)


def explain(instance: Instance, predictor: PredictorHandle,
            config: ExplainConfig) -> Explanation:
    """Explain one instance: sample, probe, weight, fit, rank.

    This is the one-run, one-surrogate seed block (:func:`explain_block`)
    at the configured seed, so the predictor sees ceil(n / batch_limit)
    calls. The perturbation seed fully determines the run given the
    config, so repeating the call reproduces the explanation bit for bit.
    """
    (ensemble,) = explain_block(instance, predictor, config,
                                (config.surrogate,), 1,
                                seed_base=config.perturb.seed)
    return ensemble.runs[0]


def explain_block(instance: Instance, predictor: PredictorHandle,
                  config: ExplainConfig,
                  surrogates: Sequence[LimeRidge | BayLime], k: int, *,
                  seed_base: int = 0) -> tuple[ExplanationEnsemble, ...]:
    """One seed block: k >= 1 seeded runs of several surrogates, paired.

    The seeds seed_base, ..., seed_base+k-1 draw their sample sets in
    order; ``config.surrogate`` and the configured seed are not used. The
    sets are labelled in shared requests of ``batch_limit`` rows
    (:class:`~baylime.blackbox.PackedProbe`), so the predictor sees
    ceil(k * n / batch_limit) calls whatever the number of surrogates, and
    a request may carry rows of several seeds. Every surrogate therefore
    sees identical labels, even from a stochastic predictor, and the
    comparison is exactly paired. Once a set is labelled it is weighted
    and reduced to its fit inputs, and its rows are dropped; only the rows
    still waiting for labels are held. Each surrogate is then fitted on
    all k sets in one stacked call (:class:`WeightedStack`), and its
    importances and ranks are taken for all k runs at once.

    Returns one ensemble per surrogate, in the given order, with runs
    ordered by seed; each carries the smallest Kish effective sample size
    the kernel left over the k sets. For a predictor whose output for a
    row does not depend on the other rows of its request, run i of a
    surrogate equals :func:`explain` with that surrogate at seed
    seed_base+i, bit for bit. A fit failure raises the error a
    seed-by-seed loop would: that of the earliest failing seed, and
    within it of the first failing surrogate in the given order.
    """
    if k < 1:
        raise ConfigError("a seed block needs k >= 1 runs")
    if not surrogates:
        raise ConfigError("a seed block needs at least one surrogate")
    evidence = check_surrogates(surrogates, instance.m)
    kernel = config.kernel
    reference = interpretable_reference(instance)
    width = kernel.resolved_width(instance.m)
    n = config.perturb.n
    packed = PackedProbe(_class_handle(predictor, config.target_class))
    waiting: deque[tuple[int, np.ndarray]] = deque()
    seeds: list[int] = []
    notes: list[list[str]] = []
    effective: list[float] = []
    parts: list[tuple[np.ndarray, ...]] = []

    def reduce(labels: list[np.ndarray]) -> None:
        """Weight each labelled set and reduce it to its row of the stack."""
        for values in labels:
            seed, rows = waiting.popleft()
            weights = floored_weights(
                distances(rows, reference, kernel.distance), width)
            seeds.append(seed)
            effective.append(effective_sample_size(weights))
            notes.append(_notes(n, effective[-1], instance, kernel))
            gram, moment = _weighted_moments(rows, values, weights)
            row = (gram[None], moment[None])
            if evidence:
                # Evidence fits need the set's spectrum and least-squares
                # terms, taken while its rows are alive.
                spectrum = _spectra(*row)
                row += spectrum + evidence_inputs(spectrum, rows, values,
                                                  lambda _: weights)
            parts.append(row)

    for seed in range(seed_base, seed_base + k):
        # The configured seed draws from the config as given, uncopied.
        perturb = config.perturb
        if seed != perturb.seed:
            perturb = replace(perturb, seed=seed)
        rows, original = perturb_matrix(instance, perturb)
        waiting.append((seed, rows))
        labelled = packed.add(original)
        del rows, original
        reduce(labelled)
    reduce(packed.finish())
    grams, moments, *inputs = [_join(column) for column in zip(*parts)]
    # Without evidence fits, every set is decomposed in one batched eigh.
    spectrum = tuple(inputs[:3]) if evidence else _spectra(grams, moments)
    stack = WeightedStack((grams, moments), spectrum, n,
                          tuple(inputs[3:]) or None)
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
                               seed=seeds[i], warnings=notes[i])

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
