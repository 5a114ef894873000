"""End-to-end explanation runs and prior elicitation."""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baylime import (
    BayLime,
    ConfigError,
    ConvergenceError,
    ExplainConfig,
    FitError,
    InvalidInputError,
    KernelConfig,
    LimeRidge,
    PerturbConfig,
    PredictorHandle,
    PriorSpec,
    ShapeError,
    SingularityError,
    apply_weights,
    build_perturbation_set,
    elicit_prior,
    explain,
    explain_block,
    inconsistency,
    kendalls_w,
    normalize_coefficients,
    perturb_matrix,
    rank_features,
)
from baylime import explainer
from baylime.kernel import BINARY_HAMMING, DISTANCES, effective_sample_size
from baylime.types import (
    BINARY_MASK,
    CATEGORICAL,
    FEATURE_KINDS,
    NUMERICAL,
    Instance,
)
from conftest import explanation, fit_surrogate, ridge_fit


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
        bayes_config = replace(lime_config, surrogate=BayLime(prior))
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

    def test_hamming_distance_on_a_numerical_problem_warns(self):
        instance, config = numeric_problem(3, 50, 0, LimeRidge(1.0))
        hamming = replace(config, kernel=KernelConfig(distance=BINARY_HAMMING))
        result = explain(instance, quadratic_predictor3(), hamming)
        assert any("same weight" in note for note in result.warnings)
        assert explain(instance, quadratic_predictor3(), config).warnings == ()

    @pytest.mark.parametrize("surrogate", [
        LimeRidge(0.5),
        BayLime(PriorSpec.non_informative()),
        BayLime(PriorSpec.partial(np.array([1.0, 0.5, -0.5]), 20.0)),
        BayLime(PriorSpec.full(np.array([1.0, 0.5, -0.5]), 20.0, 2.0)),
    ])
    def test_equals_the_lone_fit_of_its_weighted_set(self, surrogate):
        # explain is the one-run seed block; it must equal weighting the
        # probed set and fitting it alone, bit for bit.
        instance, config = numeric_problem(3, 200, 5, surrogate)
        result = explain(instance, quadratic_predictor3(), config)
        pset = apply_weights(build_perturbation_set(
            instance, config.perturb, quadratic_predictor3()),
            config.kernel, instance)
        if isinstance(surrogate, LimeRidge):
            coefficients = ridge_fit(pset, surrogate.r)
        else:
            posterior = fit_surrogate(pset, surrogate.prior)
            coefficients = posterior.mu_n
            assert ((result.posterior.lambda_used, result.posterior.alpha_used,
                     result.posterior.iterations)
                    == (posterior.lambda_used, posterior.alpha_used,
                        posterior.iterations))
        importances = np.abs(normalize_coefficients(coefficients))
        assert result.coefficients.tobytes() == coefficients.tobytes()
        assert result.importances.tobytes() == importances.tobytes()
        assert result.ranks.tolist() == rank_features(coefficients).tolist()

    def test_inputs_not_mutated(self):
        instance, config = numeric_problem(2, 50, 1, LimeRidge(1.0))
        values_before = instance.values.copy()
        explain(instance, quadratic_predictor(), config)
        np.testing.assert_array_equal(instance.values, values_before)


def quadratic_predictor3():
    return PredictorHandle.in_process(
        lambda rows: rows @ np.array([1.0, 0.5, -0.5])
        + 0.5 * (rows**2).sum(axis=1))


class TestExplainRepeated:
    """A seed block of one surrogate: k runs differing only in seed."""

    def test_runs_ordered_by_seed(self):
        instance, config = numeric_problem(2, 80, 10, LimeRidge(1.0))
        (ensemble,) = explain_block(instance, quadratic_predictor(),
                                    config.perturb, config.kernel,
                                    (config.surrogate,), 4)
        assert [run.seed for run in ensemble.runs] == [10, 11, 12, 13]

    def test_distinct_seeds_vary_on_nonlinear_model(self):
        instance, config = numeric_problem(2, 80, 0, LimeRidge(1.0))
        (ensemble,) = explain_block(instance, quadratic_predictor(),
                                    config.perturb, config.kernel,
                                    (config.surrogate,), 3)
        coefficient_sets = {tuple(run.coefficients) for run in ensemble.runs}
        assert len(coefficient_sets) == 3

    def test_needs_two_runs(self):
        # One run is a block, but agreement across runs needs two.
        instance, config = numeric_problem(2, 80, 0, LimeRidge(1.0))
        (ensemble,) = explain_block(instance, quadratic_predictor(),
                                    config.perturb, config.kernel,
                                    (config.surrogate,), 1)
        assert ensemble.k == 1
        for metric in (inconsistency, kendalls_w):
            with pytest.raises(InvalidInputError):
                metric(ensemble)
        with pytest.raises(ConfigError):
            explain_block(instance, quadratic_predictor(), config.perturb,
                          config.kernel, (config.surrogate,), 0)


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
    """A seed block of several surrogates, paired on shared sample sets."""

    SURROGATES = (
        LimeRidge(1.0),
        BayLime(PriorSpec.non_informative()),
        BayLime(PriorSpec.full(np.array([1.0, 0.0, 0.0]), 50.0, 1.0)),
    )

    def test_one_probe_per_seed_whatever_the_surrogate_count(self):
        instance, config = numeric_problem(3, 150, 20, LimeRidge(1.0))
        model = CountingPredictor()
        ensembles = explain_block(
            instance, PredictorHandle.in_process(model, batch_limit=64),
            config.perturb, config.kernel, self.SURROGATES, 5)
        # The seeds' rows share requests of batch_limit rows.
        assert (model.calls, model.rows) == (math.ceil(5 * 150 / 64), 5 * 150)
        assert len(ensembles) == len(self.SURROGATES)
        for surrogate, paired in zip(self.SURROGATES, ensembles):
            (alone,) = explain_block(
                instance, PredictorHandle.in_process(CountingPredictor()),
                config.perturb, config.kernel, (surrogate,), 5)
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
        lime, bayes = explain_block(
            instance, PredictorHandle.in_process(CountingPredictor(noise=1.0)),
            config.perturb, config.kernel, pair, 4)
        for a, b in zip(lime.runs, bayes.runs):
            np.testing.assert_allclose(a.coefficients, b.coefficients,
                                       rtol=1e-8)

    def test_rejects_bad_surrogate_before_probing(self):
        instance, config = numeric_problem(3, 50, 0, LimeRidge(1.0))
        model = CountingPredictor()
        with pytest.raises(ConfigError):
            explain_block(instance, PredictorHandle.in_process(model),
                          config.perturb, config.kernel,
                          (LimeRidge(1.0), "ridge"), 3)
        with pytest.raises(ConfigError):
            explain_block(instance, PredictorHandle.in_process(model),
                          config.perturb, config.kernel, (), 3)
        assert model.calls == 0


POOL = (
    LimeRidge(0.5),
    LimeRidge(0.0),
    BayLime(PriorSpec.non_informative()),
    "partial",
    "full",
)


def surrogate_of(entry, m: int):
    """A pool entry as a surrogate; informative priors get a length-m mu0."""
    mu0 = np.linspace(-1.0, 1.0, m)
    if entry == "partial":
        return BayLime(PriorSpec.partial(mu0, 10.0))
    if entry == "full":
        return BayLime(PriorSpec.full(mu0, 10.0, 2.0))
    return entry


@st.composite
def seed_blocks(draw):
    """A small problem of mixed feature kinds, seeded runs and surrogates.

    Sizes include n < m; the model is either row-wise nonlinear or
    constant (every weighted residual 0, so alpha runs to its clamp); a
    small evidence iteration cap makes some seeds fail to converge.
    """
    m = draw(st.integers(1, 6))
    kinds = tuple(draw(st.lists(st.sampled_from(FEATURE_KINDS),
                                min_size=m, max_size=m)))
    values = [{NUMERICAL: 0.3, BINARY_MASK: 1.0, CATEGORICAL: 1.0}[kind]
              for kind in kinds]
    instance = Instance(np.array(values), kinds,
                        tuple(f"f{j}" for j in range(m)))
    perturb = PerturbConfig(
        n=draw(st.integers(1, 40)), seed=draw(st.integers(0, 10**6)),
        numeric_scale={j: (0.5, 2.0) for j in range(m)
                       if kinds[j] == NUMERICAL},
        categorical_frequencies={j: {0.0: 0.3, 1.0: 0.5, 2.0: 0.2}
                                 for j in range(m)
                                 if kinds[j] == CATEGORICAL})
    kernel = KernelConfig(width=draw(st.sampled_from((None, 0.5, 3.0))),
                          distance=draw(st.sampled_from(DISTANCES)))
    surrogates = tuple(surrogate_of(entry, m) for entry in draw(
        st.lists(st.sampled_from(POOL), min_size=1, max_size=4)))
    return dict(instance=instance, perturb=perturb, kernel=kernel,
                surrogates=surrogates, k=draw(st.integers(2, 5)),
                limit=draw(st.integers(1, 64)),
                constant=draw(st.booleans()),
                max_iter=draw(st.sampled_from((3, 6, 300))))


def row_model(constant: bool):
    """A model whose output for a row does not depend on the other rows."""
    if constant:
        return lambda rows: np.full(rows.shape[0], 1.5)
    return lambda rows: (np.sin(rows[:, 0]) + 0.5 * rows[:, -1] ** 2
                         - rows[:, rows.shape[1] // 2])


def seeds_of(perturb, k):
    """The plans of a block's k seeds, in order."""
    return [replace(perturb, seed=perturb.seed + i) for i in range(k)]


def seed_by_seed(instance, model, perturb, kernel, surrogates, k):
    """The runs of a per-seed loop: explain each seed with each surrogate."""
    runs = [[] for _ in surrogates]
    for plan in seeds_of(perturb, k):
        for out, surrogate in zip(runs, surrogates):
            out.append(explain(instance, PredictorHandle.in_process(model),
                               ExplainConfig(plan, kernel, surrogate)))
    return runs


class TestSeedBlock:
    """A seed block equals the per-seed loop it replaces, bit for bit."""

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(seed_blocks())
    def test_block_equals_the_per_seed_loop(self, case):
        instance, perturb, kernel = (case["instance"], case["perturb"],
                                     case["kernel"])
        surrogates, k = case["surrogates"], case["k"]
        model = row_model(case["constant"])
        requests = []

        def counting(rows):
            requests.append(rows.copy())
            return model(rows)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(explainer, "posterior_rows", functools.partial(
                explainer.posterior_rows, max_iter=case["max_iter"]))
            try:
                want = seed_by_seed(instance, model, perturb, kernel,
                                    surrogates, k)
            except FitError as exc:
                want = exc
            try:
                got = explain_block(
                    instance,
                    PredictorHandle.in_process(counting,
                                               batch_limit=case["limit"]),
                    perturb, kernel, surrogates, k)
            except FitError as exc:
                got = exc

        # Every seed's rows reach the model in seed order, packed.
        assert len(requests) == math.ceil(k * perturb.n / case["limit"])
        originals = [perturb_matrix(instance, plan)[1]
                     for plan in seeds_of(perturb, k)]
        assert (np.vstack(requests).tobytes()
                == np.vstack(originals).tobytes())
        if isinstance(want, FitError):
            assert type(got) is type(want)
            assert str(got) == str(want)
            if isinstance(want, ConvergenceError):
                assert ((got.alpha, got.lam, got.iterations)
                        == (want.alpha, want.lam, want.iterations))
            return
        assert not isinstance(got, FitError)
        weights = [apply_weights(
            build_perturbation_set(instance, plan,
                                   PredictorHandle.in_process(model)),
            kernel, instance).weights
            for plan in seeds_of(perturb, k)]
        for ensemble, runs in zip(got, want, strict=True):
            assert ensemble.min_effective_sample_size == min(
                effective_sample_size(w) for w in weights)
            assert (ensemble.importance_matrix().tobytes()
                    == np.stack([r.importances for r in runs]).tobytes())
            assert (ensemble.rank_matrix().tolist()
                    == [r.ranks.tolist() for r in runs])
            for a, b in zip(ensemble.runs, runs, strict=True):
                assert a.coefficients.tobytes() == b.coefficients.tobytes()
                assert a.importances.tobytes() == b.importances.tobytes()
                assert a.ranks.tolist() == b.ranks.tolist()
                assert a.warnings == b.warnings
                assert (a.seed, a.kernel_width, a.n_samples) == (
                    b.seed, b.kernel_width, b.n_samples)
                assert (a.posterior is None) == (b.posterior is None)
                if a.posterior is not None:
                    assert (a.posterior.mu_n.tobytes()
                            == b.posterior.mu_n.tobytes())
                    assert ((a.posterior.lambda_used, a.posterior.alpha_used,
                             a.posterior.iterations,
                             a.posterior.n_effective_data)
                            == (b.posterior.lambda_used,
                                b.posterior.alpha_used,
                                b.posterior.iterations,
                                b.posterior.n_effective_data))

    def test_earliest_failing_seed_then_first_surrogate(self, monkeypatch):
        # Seed 1 fails for both surrogates and seed 0 for neither, so the
        # error is the first surrogate's at seed 1, although the second
        # surrogate's rows are fitted in a later call.
        instance, config = numeric_problem(3, 40, 0, LimeRidge(1.0))
        first, second = LimeRidge(1.0), LimeRidge(2.0)
        fail_at = {first.r: 1, second.r: 1}
        real_rows = explainer.ridge_rows

        def failing_rows(stack, r):
            result = real_rows(stack, r)
            row = fail_at[r]
            return result._replace(
                coefficients=result.coefficients[:row], failed=row,
                error=SingularityError(f"r={r} fails at seed {row}"))

        monkeypatch.setattr(explainer, "ridge_rows", failing_rows)
        with pytest.raises(FitError, match=r"r=1.0 fails at seed 1"):
            explain_block(instance, quadratic_predictor3(), config.perturb,
                          config.kernel, (first, second), 3)
        fail_at[first.r] = 2
        with pytest.raises(FitError, match=r"r=2.0 fails at seed 1"):
            explain_block(instance, quadratic_predictor3(), config.perturb,
                          config.kernel, (first, second), 3)

    @pytest.mark.parametrize("limit", [7, 20, 1000])
    def test_no_drawn_matrix_is_alive_while_sets_are_fitted(self, monkeypatch,
                                                            limit):
        # A seed's original-space rows are dropped once they are sent, so
        # no drawn matrix outlives its requests.
        instance, config = numeric_problem(3, 20, 0, LimeRidge(1.0))
        drawn, alive = [], []
        real_draw = explainer.perturb_matrix

        def draw(*args):
            rows, original = real_draw(*args)
            drawn.append(weakref.ref(original))
            return rows, original

        def watched(name):
            real = getattr(explainer, name)

            def call(*args):
                alive.append((name, sum(ref() is not None for ref in drawn)))
                return real(*args)

            monkeypatch.setattr(explainer, name, call)

        monkeypatch.setattr(explainer, "perturb_matrix", draw)
        watched("reduce_set")
        watched("fit")
        surrogates = (LimeRidge(1.0), BayLime(PriorSpec.non_informative()))
        explain_block(instance, PredictorHandle.in_process(
            CountingPredictor(), batch_limit=limit), config.perturb,
            config.kernel, surrogates, 3)
        assert len(drawn) == 3
        assert alive == [("reduce_set", 0)] * 3 + [("fit", 0)] * 2

    def test_runs_are_made_on_first_access(self):
        instance, config = numeric_problem(2, 60, 0, LimeRidge(1.0))
        (ensemble,) = explain_block(instance, quadratic_predictor(),
                                    config.perturb, config.kernel,
                                    (BayLime(PriorSpec.non_informative()),),
                                    3)
        assert ensemble._runs is None
        runs = ensemble.runs
        assert ensemble.runs is runs
        assert [run.seed for run in runs] == [0, 1, 2]

    def test_bad_prior_shape_is_refused_before_probing(self):
        instance, config = numeric_problem(3, 50, 0, LimeRidge(1.0))
        model = CountingPredictor()
        prior = BayLime(PriorSpec.partial(np.zeros(2), 1.0))
        with pytest.raises(ShapeError):
            explain_block(instance, PredictorHandle.in_process(model),
                          config.perturb, config.kernel,
                          (LimeRidge(1.0), prior), 3)
        assert model.calls == 0


class TestElicitPrior:
    def test_single_explanation(self):
        prior = elicit_prior([explanation([2.0, -1.0])])
        assert prior.mode == "partial"
        assert prior.mu0.tolist() == [2.0, -1.0]
        assert prior.lam == 1.0

    def test_mean_and_count(self):
        prior = elicit_prior([explanation([1.0, 0.0]), explanation([3.0, 0.0]),
                              explanation([2.0, 0.0])])
        assert prior.mu0.tolist() == [2.0, 0.0]
        assert prior.lam == 3.0

    def test_mean_is_on_raw_scale(self):
        # Coefficients [3, 4] normalize to [0.6, 0.8]; the prior mean must
        # keep the raw scale.
        prior = elicit_prior([explanation([3.0, 4.0])])
        assert prior.mu0.tolist() == [3.0, 4.0]

    def test_permutation_invariant(self):
        runs = [explanation([1.0, 2.0]), explanation([5.0, -2.0]),
                explanation([0.0, 3.0])]
        forward = elicit_prior(runs)
        backward = elicit_prior(list(reversed(runs)))
        np.testing.assert_array_equal(forward.mu0, backward.mu0)
        assert forward.lam == backward.lam

    def test_alpha_override_gives_full_mode(self):
        prior = elicit_prior([explanation([1.0])], alpha=4.0)
        assert prior.mode == "full"
        assert prior.alpha == 4.0

    def test_mixed_m_rejected(self):
        with pytest.raises(ShapeError):
            elicit_prior([explanation([1.0]), explanation([1.0, 2.0])])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            elicit_prior([])
