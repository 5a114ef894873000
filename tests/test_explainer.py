"""End-to-end explanation runs and prior elicitation."""

from __future__ import annotations

import numpy as np
import pytest

from baylime import (
    BayLime,
    ConfigError,
    ExplainConfig,
    Explanation,
    InvalidInputError,
    KernelConfig,
    LimeRidge,
    PerturbConfig,
    PredictorHandle,
    PriorSpec,
    ShapeError,
    elicit_prior,
    explain,
    explain_paired,
    explain_repeated,
)
from baylime.types import Instance, NUMERICAL


def numeric_problem(m: int, n: int, seed: int,
                    surrogate, width: float | None = None) -> tuple:
    instance = Instance(np.zeros(m), (NUMERICAL,) * m,
                        tuple(f"f{j}" for j in range(m)))
    config = ExplainConfig(
        PerturbConfig(n=n, seed=seed,
                      numeric_scale={j: (0.0, 1.0) for j in range(m)}),
        KernelConfig(width=width),
        surrogate,
    )
    return instance, config


def linear_predictor():
    return PredictorHandle.in_process(
        lambda rows: 3.0 * rows[:, 0] - rows[:, 1])


def quadratic_predictor():
    return PredictorHandle.in_process(
        lambda rows: rows @ np.array([1.0, 0.5]) + 0.5 * (rows**2).sum(axis=1))


class TestExplain:
    def test_linear_model_recovered(self):
        instance, config = numeric_problem(2, 500, 1, LimeRidge(1e-6))
        result = explain(instance, linear_predictor(), config)
        np.testing.assert_allclose(result.coefficients, [3.0, -1.0],
                                   rtol=0.02)
        assert result.ranks.tolist() == [1, 2]

    def test_prior_dominates_at_huge_lambda(self):
        prior = PriorSpec.full(np.array([1.0, 0.0]), lam=1e9, alpha=1.0)
        instance, config = numeric_problem(2, 200, 2, BayLime(prior))
        result = explain(instance, quadratic_predictor(), config)
        np.testing.assert_allclose(result.importances, [1.0, 0.0],
                                   atol=1e-5)

    def test_same_seed_reproduces_exactly(self):
        instance, config = numeric_problem(2, 100, 3, LimeRidge(1.0))
        first = explain(instance, quadratic_predictor(), config)
        second = explain(instance, quadratic_predictor(), config)
        np.testing.assert_array_equal(first.coefficients, second.coefficients)
        np.testing.assert_array_equal(first.ranks, second.ranks)
        assert first.seed == second.seed == 3
        assert first.kernel_width == second.kernel_width

    def test_ridge_and_full_prior_equivalence_end_to_end(self):
        r = 0.7
        instance, lime_config = numeric_problem(3, 300, 4, LimeRidge(r))
        prior = PriorSpec.full(np.zeros(3), lam=2.0 * r, alpha=2.0)
        bayes_config = lime_config.with_surrogate(BayLime(prior))
        predictor = PredictorHandle.in_process(
            lambda rows: rows @ np.array([1.0, -2.0, 0.5])
            + 0.3 * rows[:, 0] ** 2)
        lime_out = explain(instance, predictor, lime_config)
        bayes_out = explain(instance, predictor, bayes_config)
        np.testing.assert_allclose(lime_out.coefficients,
                                   bayes_out.coefficients, rtol=1e-8)

    def test_explanation_records_reproduction_fields(self):
        instance, config = numeric_problem(2, 150, 7, LimeRidge(1.0),
                                           width=2.5)
        result = explain(instance, quadratic_predictor(), config)
        assert result.kernel_width == 2.5
        assert result.n_samples == 150
        assert result.seed == 7
        assert result.posterior is None

    def test_bayes_fit_attached_to_explanation(self):
        instance, config = numeric_problem(
            2, 150, 7, BayLime(PriorSpec.non_informative()))
        result = explain(instance, quadratic_predictor(), config)
        assert result.posterior is not None
        assert result.posterior.alpha_used > 0

    def test_fewer_samples_than_features_warns(self):
        instance, config = numeric_problem(
            5, 3, 0, BayLime(PriorSpec.full(np.zeros(5), 1.0, 1.0)))
        result = explain(instance, PredictorHandle.in_process(
            lambda rows: rows[:, 0]), config)
        assert any("3 samples" in note for note in result.warnings)

    def test_collapsed_kernel_warns(self):
        surrogate = BayLime(PriorSpec.full(np.zeros(20), 1.0, 1.0))
        handle = PredictorHandle.in_process(lambda rows: rows.sum(axis=1))
        instance, narrow = numeric_problem(20, 2000, 3, surrogate, width=0.3)
        result = explain(instance, handle, narrow)
        assert any("effective sample size" in note
                   for note in result.warnings)
        _, default = numeric_problem(20, 2000, 3, surrogate)
        assert explain(instance, handle, default).warnings == ()

    def test_inputs_not_mutated(self):
        instance, config = numeric_problem(2, 50, 1, LimeRidge(1.0))
        values_before = instance.values.copy()
        explain(instance, quadratic_predictor(), config)
        np.testing.assert_array_equal(instance.values, values_before)


class TestExplainRepeated:
    def test_runs_ordered_by_seed(self):
        instance, config = numeric_problem(2, 80, 0, LimeRidge(1.0))
        ensemble = explain_repeated(instance, quadratic_predictor(), config,
                                    k=4, seed_base=10)
        assert [run.seed for run in ensemble.runs] == [10, 11, 12, 13]

    def test_distinct_seeds_vary_on_nonlinear_model(self):
        instance, config = numeric_problem(2, 80, 0, LimeRidge(1.0))
        ensemble = explain_repeated(instance, quadratic_predictor(), config,
                                    k=3, seed_base=0)
        coefficient_sets = {tuple(run.coefficients) for run in ensemble.runs}
        assert len(coefficient_sets) == 3

    def test_needs_two_runs(self):
        instance, config = numeric_problem(2, 80, 0, LimeRidge(1.0))
        with pytest.raises(ConfigError):
            explain_repeated(instance, quadratic_predictor(), config, k=1)


class CountingPredictor:
    """In-process quadratic black box that counts calls and rows."""

    def __init__(self, noise: float = 0.0):
        self.calls = 0
        self.rows = 0
        self.noise = noise
        self._rng = np.random.default_rng(0)

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        self.calls += 1
        self.rows += rows.shape[0]
        out = rows @ np.array([1.0, -0.5, 0.25]) + 0.5 * (rows**2).sum(axis=1)
        return out + self.noise * self._rng.normal(size=rows.shape[0])


class TestExplainPaired:
    SURROGATES = (
        LimeRidge(1.0),
        BayLime(PriorSpec.non_informative()),
        BayLime(PriorSpec.full(np.array([1.0, 0.0, 0.0]), 50.0, 1.0)),
    )

    def test_one_probe_per_seed_whatever_the_surrogate_count(self):
        instance, config = numeric_problem(3, 150, 0, LimeRidge(1.0))
        model = CountingPredictor()
        ensembles = explain_paired(
            instance, PredictorHandle.in_process(model, batch_limit=64),
            config, self.SURROGATES, 5, seed_base=20)
        assert (model.calls, model.rows) == (5 * 3, 5 * 150)
        assert len(ensembles) == len(self.SURROGATES)
        for surrogate, paired in zip(self.SURROGATES, ensembles):
            alone = explain_repeated(
                instance, PredictorHandle.in_process(CountingPredictor()),
                config.with_surrogate(surrogate), 5, seed_base=20)
            for got, want in zip(paired.runs, alone.runs, strict=True):
                assert got.coefficients.tobytes() == want.coefficients.tobytes()
                assert got.ranks.tolist() == want.ranks.tolist()
                assert got.seed == want.seed
                assert got.kernel_width == want.kernel_width
                assert (got.posterior is None) == (want.posterior is None)

    def test_stochastic_predictor_gives_every_surrogate_the_same_labels(self):
        # Ridge at r equals the full posterior with mu0 = 0 at
        # lambda / alpha = r, but only on identical labels.
        r = 0.5
        pair = (LimeRidge(r),
                BayLime(PriorSpec.full(np.zeros(3), lam=2.0 * r, alpha=2.0)))
        instance, config = numeric_problem(3, 120, 0, pair[0])
        lime, bayes = explain_paired(
            instance, PredictorHandle.in_process(CountingPredictor(noise=1.0)),
            config, pair, 4)
        for a, b in zip(lime.runs, bayes.runs):
            np.testing.assert_allclose(a.coefficients, b.coefficients,
                                       rtol=1e-8)

    def test_rejects_bad_surrogate_before_probing(self):
        instance, config = numeric_problem(3, 50, 0, LimeRidge(1.0))
        model = CountingPredictor()
        with pytest.raises(ConfigError):
            explain_paired(instance, PredictorHandle.in_process(model),
                           config, (LimeRidge(1.0), "ridge"), 3)
        with pytest.raises(ConfigError):
            explain_paired(instance, PredictorHandle.in_process(model),
                           config, (), 3)
        assert model.calls == 0


class TestElicitPrior:
    @staticmethod
    def _exp(coefficients):
        return Explanation.from_coefficients(coefficients, kernel_width=1.0,
                                             n_samples=10)

    def test_single_explanation(self):
        prior = elicit_prior([self._exp([2.0, -1.0])])
        assert prior.mode == "partial"
        assert prior.mu0.tolist() == [2.0, -1.0]
        assert prior.lam == 1.0

    def test_mean_and_count(self):
        prior = elicit_prior([self._exp([1.0, 0.0]), self._exp([3.0, 0.0]),
                              self._exp([2.0, 0.0])])
        assert prior.mu0.tolist() == [2.0, 0.0]
        assert prior.lam == 3.0

    def test_mean_is_on_raw_scale(self):
        # Coefficients [3, 4] normalize to [0.6, 0.8]; the prior mean must
        # keep the raw scale.
        prior = elicit_prior([self._exp([3.0, 4.0])])
        assert prior.mu0.tolist() == [3.0, 4.0]

    def test_permutation_invariant(self):
        runs = [self._exp([1.0, 2.0]), self._exp([5.0, -2.0]),
                self._exp([0.0, 3.0])]
        forward = elicit_prior(runs)
        backward = elicit_prior(list(reversed(runs)))
        np.testing.assert_array_equal(forward.mu0, backward.mu0)
        assert forward.lam == backward.lam

    def test_alpha_override_gives_full_mode(self):
        prior = elicit_prior([self._exp([1.0])], alpha=4.0)
        assert prior.mode == "full"
        assert prior.alpha == 4.0

    def test_mixed_m_rejected(self):
        with pytest.raises(ShapeError):
            elicit_prior([self._exp([1.0]), self._exp([1.0, 2.0])])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            elicit_prior([])
