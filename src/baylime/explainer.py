"""End-to-end explanation runs: perturb, probe, weight, fit, rank.

Also houses prior elicitation: turning explanations of similar instances
into a prior for the next one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .blackbox import PredictorHandle, with_class
from .errors import ConfigError, InvalidInputError, ShapeError
from .kernel import KernelConfig, apply_weights, effective_sample_size
from .perturb import PerturbConfig, build_perturbation_set
from .regression import (
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


def explain_from_pset(pset: PerturbationSet, instance: Instance,
                      config: ExplainConfig) -> Explanation:
    """Weight, fit and rank a sample set already drawn and probed.

    ``config`` must be the one the set was drawn with; its seed is
    recorded on the explanation. The predictor is not touched.
    """
    weighted = apply_weights(pset, config.kernel, instance)
    coefficients, posterior = fit(weighted, config.surrogate)
    notes: list[str] = []
    if pset.n < pset.m:
        notes.append(
            f"only {pset.n} samples for {pset.m} features; coefficients "
            f"lean on the prior or regularizer"
        )
    # Kish's effective sample size is at least sum w / max w, so it is
    # computed only when that bound is below m.
    weights = weighted.weights
    if weights.sum() < pset.m * weights.max():
        effective = effective_sample_size(weights)
        if effective < pset.m:
            notes.append(
                f"the kernel leaves an effective sample size of "
                f"{effective:.3g} for {pset.m} features; coefficients lean "
                f"on the prior or regularizer, so widen the kernel"
            )
    return Explanation.from_coefficients(
        coefficients,
        kernel_width=config.kernel.resolved_width(pset.m),
        n_samples=pset.n,
        posterior=posterior,
        seed=config.perturb.seed,
        warnings=notes,
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


def explain_paired(instance: Instance, predictor: PredictorHandle,
                   config: ExplainConfig,
                   surrogates: Sequence[LimeRidge | BayLime], k: int, *,
                   seed_base: int = 0) -> tuple[ExplanationEnsemble, ...]:
    """k seeded runs of several surrogates, paired on shared sample sets.

    For each seed (seed_base, seed_base+1, ...) one sample set is drawn and
    probed, and every surrogate is fitted on it; ``config.surrogate`` is
    not used. The surrogates therefore see identical labels even from a
    stochastic predictor, so their comparison is exactly paired, and the
    predictor sees k * ceil(n / batch_limit) calls whatever the number of
    surrogates. A sample set is dropped once its seed's fits are done.

    Returns one ensemble per surrogate, in the given order, with runs
    ordered by seed. For a deterministic predictor each ensemble equals
    :func:`explain_repeated` with that surrogate alone.
    """
    if k < 2:
        raise ConfigError("repeated explanation needs k >= 2 runs")
    if not surrogates:
        raise ConfigError("paired explanation needs at least one surrogate")
    configs = [config.with_surrogate(surrogate) for surrogate in surrogates]
    handle = _class_handle(predictor, config.target_class)
    runs: list[list[Explanation]] = [[] for _ in configs]
    for seed in range(seed_base, seed_base + k):
        pset = build_perturbation_set(
            instance, config.with_seed(seed).perturb, handle)
        for surrogate_runs, surrogate_config in zip(runs, configs):
            surrogate_runs.append(explain_from_pset(
                pset, instance, surrogate_config.with_seed(seed)))
        # Released before the next seed is probed: one set alive at a time.
        del pset
    return tuple(ExplanationEnsemble(tuple(r)) for r in runs)


def explain_repeated(instance: Instance, predictor: PredictorHandle,
                     config: ExplainConfig, k: int, *,
                     seed_base: int = 0) -> ExplanationEnsemble:
    """k runs differing only in seed (seed_base, seed_base+1, ...).

    Runs are ordered by seed in the returned ensemble. This is the
    one-surrogate case of :func:`explain_paired`: the predictor sees
    k * ceil(n / batch_limit) calls.
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
