"""End-to-end explanation runs: perturb, probe, weight, fit, rank.

Also houses prior elicitation: turning explanations of similar instances
into a prior for the next one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .blackbox import PackedProbe, PredictorHandle, with_class
from .errors import ConfigError, InvalidInputError, ShapeError
from .kernel import (
    KernelConfig,
    apply_weights,
    distance_note,
    distances,
    effective_sample_size,
    floored_weights,
    interpretable_reference,
)
from .perturb import PerturbConfig, build_perturbation_set, perturb_matrix
from .regression import (
    FULL,
    PriorSpec,
    StackFit,
    SurrogateFit,
    WeightedStack,
    fit_surrogate,
    posterior_rows,
    ridge_fit,
    ridge_rows,
)
from .types import (
    Explanation,
    ExplanationEnsemble,
    Instance,
    PerturbationSet,
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


def fit(weighted: PerturbationSet | WeightedStack,
        surrogate: LimeRidge | BayLime,
        ) -> tuple[np.ndarray, SurrogateFit | None] | StackFit:
    """Fit the surrogate on a weighted sample set, or on every row of a stack.

    For a set, returns the raw coefficients and, for a BayLime surrogate,
    the posterior fit they come from (None for ridge); a failure raises.
    For a :class:`WeightedStack`, returns the rows' :class:`StackFit`,
    each row bit for bit the fit of that row's weighted set, with the
    first failing row's error on it. Every fit on one set shares its X'WX
    spectrum.
    """
    if isinstance(weighted, WeightedStack):
        if isinstance(surrogate, LimeRidge):
            return ridge_rows(weighted, surrogate.r)
        return posterior_rows(weighted, surrogate.prior)
    if isinstance(surrogate, LimeRidge):
        return ridge_fit(weighted, surrogate.r), None
    posterior = fit_surrogate(weighted, surrogate.prior)
    return posterior.mu_n, posterior


def check_surrogates(surrogates: Sequence[LimeRidge | BayLime],
                     m: int) -> None:
    """Refuse a surrogate of the wrong type, or a prior mean not of length m.

    Sweeps call this before they probe, so a bad spec costs no model call.
    """
    for surrogate in surrogates:
        if not isinstance(surrogate, (LimeRidge, BayLime)):
            raise ConfigError("surrogate must be LimeRidge or BayLime")
        mu0 = surrogate.prior.mu0 if isinstance(surrogate, BayLime) else None
        if mu0 is not None and mu0.shape != (m,):
            raise ShapeError(f"mu0 has shape {mu0.shape}; the design has "
                             f"{m} features")


def _notes(weighted: PerturbationSet, instance: Instance,
           kernel: KernelConfig) -> list[str]:
    """The warnings an explanation on this weighted set carries."""
    notes: list[str] = []
    if weighted.n < weighted.m:
        notes.append(
            f"only {weighted.n} samples for {weighted.m} features; "
            f"coefficients lean on the prior or regularizer"
        )
    # Kish's effective sample size is at least sum w / max w, so it is
    # computed only when that bound is below m.
    weights = weighted.weights
    if weights.sum() < weighted.m * weights.max():
        effective = effective_sample_size(weights)
        if effective < weighted.m:
            notes.append(
                f"the kernel leaves an effective sample size of "
                f"{effective:.3g} for {weighted.m} features; coefficients "
                f"lean on the prior or regularizer, so widen the kernel"
            )
    note = distance_note(instance, kernel.distance)
    if note is not None:
        notes.append(note)
    return notes


def explain_from_pset(pset: PerturbationSet, instance: Instance,
                      config: ExplainConfig) -> Explanation:
    """Weight, fit and rank a sample set already drawn and probed.

    ``config`` must be the one the set was drawn with; its seed is
    recorded on the explanation. The predictor is not touched.
    """
    weighted = apply_weights(pset, config.kernel, instance)
    coefficients, posterior = fit(weighted, config.surrogate)
    return Explanation.from_coefficients(
        coefficients,
        kernel_width=config.kernel.resolved_width(pset.m),
        n_samples=pset.n,
        posterior=posterior,
        seed=config.perturb.seed,
        warnings=_notes(weighted, instance, config.kernel),
    )


def _class_handle(predictor: PredictorHandle,
                  target_class: int | None) -> PredictorHandle:
    """The handle an explanation probes: one class's output, if chosen."""
    if target_class is None:
        return predictor
    return with_class(predictor, target_class)


def explain(instance: Instance, predictor: PredictorHandle,
            config: ExplainConfig) -> Explanation:
    """Explain one instance: sample, probe, weight, fit, rank.

    The perturbation seed fully determines the run given the config, so
    repeating the call reproduces the explanation bit for bit.
    """
    pset = build_perturbation_set(instance, config.perturb,
                                  _class_handle(predictor,
                                                config.target_class))
    return explain_from_pset(pset, instance, config)


class BlockRuns(NamedTuple):
    """One surrogate's runs in a seed block.

    Row i of the (k, m) ``importances`` and ``ranks`` matrices belongs to
    seed i's run, and ``run(i)`` makes that run's :class:`Explanation`.
    """

    importances: np.ndarray
    ranks: np.ndarray
    run: Callable[[int], Explanation]


def explain_block(instance: Instance, predictor: PredictorHandle,
                  config: ExplainConfig,
                  surrogates: Sequence[LimeRidge | BayLime], k: int, *,
                  seed_base: int = 0) -> tuple[tuple[BlockRuns, ...], float]:
    """One seed block: k >= 1 seeded runs of several surrogates, paired.

    The seeds seed_base, ..., seed_base+k-1 draw their sample sets in
    order. The sets are labelled in shared requests of ``batch_limit``
    rows (:class:`~baylime.blackbox.PackedProbe`), so the predictor sees
    ceil(k * n / batch_limit) calls whatever the number of surrogates, and
    a request may carry rows of several seeds. Once a set is labelled it
    is weighted and reduced to its fit inputs (:meth:`WeightedStack.of_sets`)
    and its rows are dropped; only the rows still waiting for labels are
    held. Each surrogate is then fitted on all k sets in one stacked call,
    and its importances and ranks are taken for all k runs at once. Run i
    of a surrogate equals :func:`explain_from_pset` on seed i's set, bit
    for bit; ``config.surrogate`` is not used.

    Returns the runs of each surrogate, in the given order, and the
    smallest Kish effective sample size the kernel left over the k sets.
    A fit failure raises the error a seed-by-seed loop would: that of the
    earliest failing seed, and within it of the first failing surrogate in
    the given order.
    """
    if k < 1:
        raise ConfigError("a seed block needs k >= 1 runs")
    if not surrogates:
        raise ConfigError("paired explanation needs at least one surrogate")
    check_surrogates(surrogates, instance.m)
    kernel = config.kernel
    reference = interpretable_reference(instance)
    width = kernel.resolved_width(instance.m)
    packed = PackedProbe(_class_handle(predictor, config.target_class))
    waiting: deque[tuple[int, np.ndarray]] = deque()
    seeds: list[int] = []
    notes: list[list[str]] = []
    effective: list[float] = []

    def weighted(labels: Iterable[np.ndarray]) -> Iterator[PerturbationSet]:
        for values in labels:
            seed, rows = waiting.popleft()
            weights = floored_weights(
                distances(rows, reference, kernel.distance), width)
            # Frozen here, the arrays are shared by the set, not copied.
            for arr in (rows, values, weights):
                arr.setflags(write=False)
            pset = PerturbationSet(rows, values, weights, seed)
            seeds.append(seed)
            notes.append(_notes(pset, instance, kernel))
            effective.append(effective_sample_size(pset.weights))
            yield pset

    def sets() -> Iterator[PerturbationSet]:
        for seed in range(seed_base, seed_base + k):
            rows, original = perturb_matrix(
                instance, replace(config.perturb, seed=seed))
            waiting.append((seed, rows))
            labelled = packed.add(original)
            del rows, original
            yield from weighted(labelled)
        yield from weighted(packed.finish())

    # Evidence fits need each set's least-squares terms, taken while its
    # rows are alive.
    evidence = any(isinstance(surrogate, BayLime)
                   and surrogate.prior.mode != FULL
                   for surrogate in surrogates)
    stack = WeightedStack.of_sets(sets(), evidence=evidence)
    fits = [fit(stack, surrogate) for surrogate in surrogates]
    # min keeps the first of equal rows: the first surrogate in order.
    first_failure = min(fits, key=lambda result: result.failed)
    if first_failure.error is not None:
        raise first_failure.error

    def runs(result: StackFit) -> BlockRuns:
        importances = np.abs(normalize_coefficients(result.coefficients))
        ranks = rank_features(result.coefficients)

        def run(i: int) -> Explanation:
            posterior = (None if result.lam is None
                         else stack.surrogate_fit(result, i))
            return Explanation(result.coefficients[i], importances[i],
                               ranks[i], width, stack.n, posterior=posterior,
                               seed=seeds[i], warnings=notes[i])

        return BlockRuns(importances, ranks, run)

    return tuple(runs(result) for result in fits), min(effective)


def explain_paired(instance: Instance, predictor: PredictorHandle,
                   config: ExplainConfig,
                   surrogates: Sequence[LimeRidge | BayLime], k: int, *,
                   seed_base: int = 0) -> tuple[ExplanationEnsemble, ...]:
    """k seeded runs of several surrogates, paired on shared sample sets.

    The k seeds (seed_base, seed_base+1, ...) form one seed block
    (:func:`explain_block`): each seed's sample set is drawn and probed
    once and every surrogate is fitted on it; ``config.surrogate`` is not
    used. The surrogates therefore see identical labels even from a
    stochastic predictor, so their comparison is exactly paired. The
    seeds' rows share requests of ``batch_limit`` rows, so the predictor
    sees ceil(k * n / batch_limit) calls whatever the number of
    surrogates, and the cell holds one set's rows at a time plus those
    still waiting for labels.

    Returns one ensemble per surrogate, in the given order, with runs
    ordered by seed and the block's smallest Kish effective sample size.
    The ensembles hold their importance and rank matrices and make their
    runs on first access. For a deterministic predictor whose output for
    a row does not depend on the other rows of its request, each ensemble
    equals :func:`explain_repeated` with that surrogate alone, and each
    run equals :func:`explain_from_pset` on its seed's set, bit for bit.
    """
    if k < 2:
        raise ConfigError("repeated explanation needs k >= 2 runs")
    blocks, effective = explain_block(instance, predictor, config,
                                      surrogates, k, seed_base=seed_base)
    return tuple(ExplanationEnsemble.of_rows(
        *block, min_effective_sample_size=effective) for block in blocks)


def explain_repeated(instance: Instance, predictor: PredictorHandle,
                     config: ExplainConfig, k: int, *,
                     seed_base: int = 0) -> ExplanationEnsemble:
    """k runs differing only in seed (seed_base, seed_base+1, ...).

    Runs are ordered by seed in the returned ensemble. This is the
    one-surrogate case of :func:`explain_paired`: the predictor sees
    ceil(k * n / batch_limit) calls.
    """
    return explain_paired(instance, predictor, config, (config.surrogate,),
                          k, seed_base=seed_base)[0]


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
