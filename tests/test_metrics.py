"""Consistency and robustness measures."""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baylime import explainer
from baylime import (
    BayLime,
    ConfigError,
    ConvergenceError,
    ExplainConfig,
    ExplanationEnsemble,
    FitError,
    KernelConfig,
    LimeRidge,
    MetricReport,
    PerturbConfig,
    PredictorHandle,
    PriorSpec,
    ShapeError,
    SingularityError,
    UndefinedMetricError,
    apply_weights,
    explain,
    inconsistency,
    kendalls_w,
    normalize_coefficients,
    robustness,
    width_pairs,
    with_class,
)
from baylime.kernel import (
    BINARY_HAMMING,
    EUCLIDEAN,
    distances,
    effective_sample_size,
    floored_weights,
    interpretable_reference,
)
from baylime.types import Instance, NUMERICAL
from conftest import (ensemble_of, explanation, fit_surrogate, probed_set,
                      ridge_fit, sweep)


def ensemble(*coefficient_sets) -> ExplanationEnsemble:
    return ensemble_of(explanation(c) for c in coefficient_sets)


class TestInconsistency:
    def test_hand_case_is_one_sixth(self):
        # Ranks swap between the two runs; each feature's ranks {1, 2} have
        # population variance 0.25 and mean 1.5, weights are 0.5 each:
        # 2 * 0.5 * (0.25 / 1.5) = 1/6.
        value = inconsistency(ensemble([0.8, 0.6], [0.6, 0.8]))
        assert abs(value - 1.0 / 6.0) < 1e-12

    def test_identical_runs_are_perfectly_consistent(self):
        assert inconsistency(ensemble([0.8, 0.6], [0.8, 0.6])) == 0.0

    def test_duplicate_run_keeps_zero(self):
        consistent = ensemble([0.8, 0.6], [0.8, 0.6], [0.8, 0.6])
        assert inconsistency(consistent) == 0.0

    def test_zero_iff_constant_ranks(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            sets = [rng.normal(size=4) for _ in range(5)]
            e = ensemble(*sets)
            value = inconsistency(e)
            constant = bool(np.all(e.rank_matrix() == e.rank_matrix()[0]))
            assert (value == 0.0) == constant
            assert value >= 0.0

    def test_invariant_under_uniform_rescaling(self):
        sets = [[0.5, -1.5, 0.25], [1.0, -0.5, 0.75]]
        scaled = [[s * 7.0 for s in c] for c in sets]
        assert inconsistency(ensemble(*sets)) == pytest.approx(
            inconsistency(ensemble(*scaled)), abs=1e-15)

    def test_important_features_weigh_more(self):
        # Same rank swap, once between the two dominant features and once
        # between the two marginal ones.
        top_swap = ensemble([0.8, 0.59, 0.05, 0.04],
                            [0.59, 0.8, 0.05, 0.04])
        tail_swap = ensemble([0.8, 0.59, 0.05, 0.04],
                             [0.8, 0.59, 0.04, 0.05])
        assert inconsistency(top_swap) > inconsistency(tail_swap)

    def test_all_zero_runs_are_undefined(self):
        with pytest.raises(UndefinedMetricError):
            inconsistency(ensemble([0.0, 0.0], [0.0, 0.0]))


class TestKendallsW:
    def test_identical_rankings_give_one(self):
        assert kendalls_w(ensemble([0.9, 0.5, 0.2], [0.9, 0.5, 0.2])) == 1.0

    def test_reversed_rankings_give_zero(self):
        assert kendalls_w(ensemble([0.9, 0.2], [0.2, 0.9])) == 0.0

    def test_hand_case_is_one_third(self):
        # Rankings (1,2,3), (1,2,3), (3,1,2): rank sums (5,5,8), S = 6,
        # denominator 9 * 24.
        e = ensemble([0.9, 0.5, 0.2], [0.9, 0.5, 0.2], [0.2, 0.9, 0.5])
        assert abs(kendalls_w(e) - 1.0 / 3.0) < 1e-12

    def test_fully_tied_runs_count_as_agreement(self):
        # All-zero runs rank every feature first; identical runs mean
        # complete agreement even though the formula degenerates.
        assert kendalls_w(ensemble([0.0, 0.0], [0.0, 0.0])) == 1.0

    def test_single_feature_undefined(self):
        with pytest.raises(UndefinedMetricError):
            kendalls_w(ensemble([1.0], [1.0]))

    def test_range(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            e = ensemble(*[rng.normal(size=5) for _ in range(4)])
            assert 0.0 <= kendalls_w(e) <= 1.0


class TestWidthPairs:
    def test_count_bounds_and_gap(self):
        pairs = width_pairs(200, (0.2, 5.0), seed=3)
        assert len(pairs) == 200
        for l1, l2 in pairs:
            assert 0.2 <= l1 <= 5.0 and 0.2 <= l2 <= 5.0
            assert abs(l1 - l2) >= 1e-6 * 4.8

    def test_deterministic_by_seed(self):
        assert width_pairs(10, (0.2, 5.0), 7) == width_pairs(10, (0.2, 5.0), 7)
        assert width_pairs(10, (0.2, 5.0), 7) != width_pairs(10, (0.2, 5.0), 8)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigError):
            width_pairs(10, (5.0, 0.2), seed=0)
        with pytest.raises(ConfigError):
            width_pairs(10, (0.0, 5.0), seed=0)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            width_pairs(10, (0.2, 5.0), seed=-1)


def numeric_setup(m: int, n: int, seed: int):
    instance = Instance(np.zeros(m), (NUMERICAL,) * m,
                        tuple(f"f{j}" for j in range(m)))
    perturb = PerturbConfig(n=n, seed=seed,
                            numeric_scale={j: (0.0, 1.0) for j in range(m)})
    return instance, perturb


class TestPairRatio:
    def test_symmetric_in_pair_order(self):
        instance, perturb = numeric_setup(2, 300, 1)
        handle = PredictorHandle.in_process(
            lambda rows: rows[:, 0] + 0.5 * rows[:, 1] ** 2)

        def ratio(pair):
            (report,) = robustness(instance, handle, perturb,
                                   (LimeRidge(1.0),), [pair])
            return report.robustness_samples[0][2]

        forward = ratio((0.5, 2.0))
        backward = ratio((2.0, 0.5))
        assert forward == backward
        assert forward > 0.0


class TestRobustness:
    def test_constant_zero_predictor_is_perfectly_robust(self):
        instance, perturb = numeric_setup(2, 200, 5)
        config = ExplainConfig(perturb, KernelConfig(), LimeRidge(1.0))
        handle = PredictorHandle.in_process(
            lambda rows: np.zeros(rows.shape[0]))
        report = sweep(instance, handle, config, pairs=10,
                       bounds=(0.2, 5.0), seed=2)
        assert all(sample[2] == 0.0 for sample in report.robustness_samples)
        assert report.robustness_r == 0.0

    def test_linear_model_is_robust_for_every_surrogate(self):
        instance, perturb = numeric_setup(2, 500, 6)
        handle = PredictorHandle.in_process(
            lambda rows: 3.0 * rows[:, 0] - rows[:, 1])
        for surrogate in (
            LimeRidge(1e-9),
            BayLime(PriorSpec.non_informative()),
            BayLime(PriorSpec.partial(np.array([3.0, -1.0]), 200.0)),
            BayLime(PriorSpec.full(np.array([3.0, -1.0]), 200.0, 1.0)),
        ):
            config = ExplainConfig(perturb, KernelConfig(), surrogate)
            report = sweep(instance, handle, config, pairs=30,
                           bounds=(0.2, 5.0), seed=3)
            assert report.robustness_r < 1e-6

    def test_median_is_lower_middle_sample(self):
        instance, perturb = numeric_setup(2, 200, 7)
        handle = PredictorHandle.in_process(
            lambda rows: rows[:, 0] + 0.5 * (rows**2).sum(axis=1))
        config = ExplainConfig(perturb, KernelConfig(), LimeRidge(1.0))
        report = sweep(instance, handle, config, pairs=10,
                       bounds=(0.2, 5.0), seed=4)
        ratios = sorted(s[2] for s in report.robustness_samples)
        assert report.robustness_r == ratios[(len(ratios) - 1) // 2]

    def test_single_pair(self):
        instance, perturb = numeric_setup(2, 100, 8)
        handle = PredictorHandle.in_process(
            lambda rows: rows[:, 0] ** 2)
        config = ExplainConfig(perturb, KernelConfig(), LimeRidge(1.0))
        report = sweep(instance, handle, config, pairs=1,
                       bounds=(0.2, 5.0), seed=5)
        assert len(report.robustness_samples) == 1

    def test_fit_failure_carries_partial_samples(self):
        # Two samples for three features: the unregularized fit is singular.
        instance, perturb = numeric_setup(3, 2, 9)
        handle = PredictorHandle.in_process(lambda rows: rows[:, 0])
        pairs = width_pairs(5, (0.2, 5.0), seed=1)
        with pytest.raises(FitError) as excinfo:
            robustness(instance, handle, perturb, (LimeRidge(0.0),), pairs)
        assert hasattr(excinfo.value, "partial_samples")
        assert excinfo.value.partial_samples == ()


def reference_robustness(pset, instance, surrogate, pair_list,
                         distance=EUCLIDEAN):
    """Robustness the plain way: weight and fit anew at every width."""
    samples = []
    for l1, l2 in pair_list:
        h = []
        for width in (l1, l2):
            weighted = apply_weights(pset, KernelConfig(width, distance),
                                     instance)
            if isinstance(surrogate, LimeRidge):
                coefficients = ridge_fit(weighted, surrogate.r)
            else:
                coefficients = fit_surrogate(weighted, surrogate.prior).mu_n
            h.append(np.abs(normalize_coefficients(coefficients)))
        samples.append(
            (l1, l2, float(np.linalg.norm(h[0] - h[1]) / abs(l1 - l2))))
    return tuple(samples), statistics.median_low([s[2] for s in samples])


def quadratic_problem(m: int, n: int, seed: int):
    """A numerical problem, its sampling plan and a quadratic model."""
    instance, perturb = numeric_setup(m, n, seed)
    handle = PredictorHandle.in_process(
        lambda rows: rows @ np.arange(1.0, m + 1) + 0.5 * (rows**2).sum(axis=1))
    return instance, perturb, handle


class TestRobustnessPaired:
    """Several surrogates swept over one probed set's width pairs."""

    SURROGATES = (
        LimeRidge(1.0),
        LimeRidge(0.0),
        BayLime(PriorSpec.non_informative()),
        BayLime(PriorSpec.partial(np.array([1.0, 2.0, 3.0]), 50.0)),
        BayLime(PriorSpec.full(np.array([1.0, 2.0, 3.0]), 200.0, 2.0)),
    )

    @pytest.mark.parametrize("distance", [EUCLIDEAN, BINARY_HAMMING])
    def test_bitwise_equal_to_reference_loop(self, distance):
        instance, perturb, handle = quadratic_problem(3, 300, 21)
        pset = probed_set(instance, perturb, handle)
        pairs = width_pairs(12, (0.5, 5.0), seed=4)
        reports = robustness(instance, handle, perturb, self.SURROGATES,
                             pairs, distance=distance)
        assert len(reports) == len(self.SURROGATES)
        for surrogate, report in zip(self.SURROGATES, reports):
            samples, median = reference_robustness(pset, instance,
                                                   surrogate, pairs, distance)
            assert report.robustness_samples == samples
            assert report.robustness_r == median

    def test_reports_the_smallest_effective_sample_size(self):
        instance, perturb, handle = quadratic_problem(3, 300, 21)
        pairs = width_pairs(5, (0.3, 5.0), seed=4)
        d = distances(probed_set(instance, perturb, handle).rows,
                      interpretable_reference(instance))
        smallest = min(effective_sample_size(floored_weights(d, width))
                       for pair in pairs for width in pair)
        reports = robustness(instance, handle, perturb, self.SURROGATES,
                             pairs)
        assert [r.min_effective_sample_size for r in reports] == (
            [smallest] * len(self.SURROGATES))

    def test_first_failing_surrogate_in_order_is_raised(self, monkeypatch):
        instance, perturb, handle = quadratic_problem(3, 200, 23)
        pairs = width_pairs(6, (0.5, 5.0), seed=6)
        first, second = LimeRidge(1.0), LimeRidge(2.0)
        (clean,) = robustness(instance, handle, perturb, (first,), pairs)
        # Widths are stacked l1, l2 of each pair in turn. The second
        # surrogate fails at row 0 (pair 0), the first at row 6 (the first
        # width of pair 3).
        fail_at = {first: 6, second: 0}
        real_rows = explainer.ridge_rows

        def failing_rows(stack, r):
            surrogate = LimeRidge(r)
            row = fail_at[surrogate]
            result = real_rows(stack, r)
            return result._replace(
                coefficients=result.coefficients[:row], failed=row,
                error=SingularityError(f"{surrogate} fails"))

        monkeypatch.setattr(explainer, "ridge_rows", failing_rows)
        with pytest.raises(FitError) as paired:
            robustness(instance, handle, perturb, (first, second), pairs)
        with pytest.raises(FitError) as alone:
            robustness(instance, handle, perturb, (first,), pairs)
        assert str(paired.value) == str(alone.value) == f"{first} fails"
        assert paired.value.partial_samples == alone.value.partial_samples
        assert alone.value.partial_samples == clean.robustness_samples[:3]

    def test_unsettled_evidence_fit_matches_its_lone_fit(self):
        # At m=20, widths near 0.45 leave about one effective sample, and
        # the non_informative evidence loop does not settle on this seed.
        instance, perturb, handle = quadratic_problem(20, 2000, 18)
        pairs = width_pairs(6, (0.4, 0.5), seed=18)
        noninf = BayLime(PriorSpec.non_informative())
        with pytest.raises(ConvergenceError) as paired:
            robustness(instance, handle, perturb, (LimeRidge(1.0), noninf),
                       pairs)
        with pytest.raises(ConvergenceError) as alone:
            robustness(instance, handle, perturb, (noninf,), pairs)
        got, want = paired.value, alone.value
        assert got.partial_samples == want.partial_samples
        assert ((got.alpha, got.lam, got.iterations)
                == (want.alpha, want.lam, want.iterations))
        # The failing width is the first of its pair that fails alone.
        pair = pairs[len(got.partial_samples)]
        pset = probed_set(instance, perturb, handle)
        for width in pair:
            weighted = apply_weights(pset, KernelConfig(width), instance)
            try:
                fit_surrogate(weighted, noninf.prior)
            except ConvergenceError as lone:
                assert ((got.alpha, got.lam, got.iterations)
                        == (lone.alpha, lone.lam, lone.iterations))
                break
        else:
            pytest.fail(f"no width of pair {pair} fails alone")

    @staticmethod
    def refused_unprobed(monkeypatch, error, surrogates, pairs=((0.5, 1.0),),
                         **options):
        """robustness raises ``error`` with no predictor call and no fit."""
        calls, fits = [], []
        instance, perturb, _ = quadratic_problem(3, 50, 25)
        handle = PredictorHandle.in_process(
            lambda rows: (calls.append(len(rows)), rows[:, 0])[1])
        for name in ("ridge_rows", "posterior_rows"):
            real_fit = getattr(explainer, name)

            def counting_fit(stack, surrogate, real_fit=real_fit):
                fits.append(surrogate)
                return real_fit(stack, surrogate)

            monkeypatch.setattr(explainer, name, counting_fit)
        with pytest.raises(error):
            robustness(instance, handle, perturb, surrogates, list(pairs),
                       **options)
        assert calls == [] and fits == []

    def test_mismatched_prior_is_rejected_before_any_fit(self, monkeypatch):
        wrong = BayLime(PriorSpec.partial(np.array([1.0, 2.0]), 50.0))
        self.refused_unprobed(monkeypatch, ShapeError,
                              (LimeRidge(1.0), wrong))

    def test_unknown_distance_is_refused_before_any_probe(self, monkeypatch):
        self.refused_unprobed(monkeypatch, ConfigError, (LimeRidge(1.0),),
                              distance="bogus")

    @pytest.mark.parametrize("pair", [(-1.0, 1.0), (np.nan, 1.0), (0.0, 1.0),
                                      (1.0, np.inf), (1.0, 1.0), (None, 1.0)])
    def test_bad_width_pair_is_refused_before_any_probe(self, monkeypatch,
                                                        pair):
        # A width outside (0, inf), a missing width, or two equal widths,
        # whose ratio would divide by zero.
        self.refused_unprobed(monkeypatch, ConfigError, (LimeRidge(1.0),),
                              pairs=[(0.5, 1.0), pair])

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(1, 6), st.integers(2, 300), st.data(),
           st.integers(0, 2**31 - 1), st.integers(1, 4))
    def test_one_probe_equal_to_the_reference_loop(self, m, n, data, seed,
                                                   pairs):
        # The sweep labels its one set in ceil(n / batch_limit) calls, and
        # refits equal weighting and fitting that set anew at every width.
        limit = data.draw(st.integers(1, n + 5), label="batch_limit")
        instance, perturb, handle = quadratic_problem(m, n, seed)
        calls = []
        counting = PredictorHandle.in_process(
            lambda rows: (calls.append(len(rows)), handle.predict_fn(rows))[1],
            batch_limit=limit)
        pair_list = width_pairs(pairs, (0.2, 5.0), seed)
        surrogates = (LimeRidge(1.0),
                      BayLime(PriorSpec.full(np.zeros(m), 10.0, 1.0)))
        reports = robustness(instance, counting, perturb, surrogates,
                             pair_list)
        assert len(calls) == math.ceil(n / limit) and sum(calls) == n
        # The same requests: a model's output may depend on their size.
        pset = probed_set(instance, perturb, counting)
        for surrogate, report in zip(surrogates, reports):
            samples, median = reference_robustness(pset, instance,
                                                   surrogate, pair_list)
            assert report.robustness_samples == samples
            assert report.robustness_r == median

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(1, 6), st.integers(2, 300), st.data(),
           st.integers(0, 2**31 - 1),
           st.sampled_from([EUCLIDEAN, BINARY_HAMMING]),
           st.sampled_from(["lime", "non_informative", "partial", "full"]))
    def test_a_sweep_row_is_the_explanation_at_its_width(self, m, n, data,
                                                         seed, distance,
                                                         mode):
        # The sweep and the seed block run one path: the sweep's row at
        # width l is explain's at KernelConfig(width=l), bit for bit.
        limit = data.draw(st.integers(1, n + 5), label="batch_limit")
        instance, perturb, model = quadratic_problem(m, n, seed)
        handle = PredictorHandle.in_process(model.predict_fn,
                                            batch_limit=limit)
        mu0 = np.linspace(-1.0, 1.0, m)
        surrogate = {"lime": LimeRidge(1.0),
                     "non_informative": BayLime(PriorSpec.non_informative()),
                     "partial": BayLime(PriorSpec.partial(mu0, 10.0)),
                     "full": BayLime(PriorSpec.full(mu0, 10.0, 2.0))}[mode]
        pairs = width_pairs(1, (0.2, 5.0), seed)
        ((l1, l2),) = pairs
        try:
            runs = [explain(instance, handle, ExplainConfig(
                        perturb, KernelConfig(width, distance), surrogate))
                    for width in (l1, l2)]
        except FitError as lone:
            with pytest.raises(FitError) as swept:
                robustness(instance, handle, perturb, (surrogate,), pairs,
                           distance=distance)
            assert (type(swept.value), str(swept.value)) == (type(lone),
                                                             str(lone))
            return
        _, (rows,) = explainer.fit_block(instance, handle, perturb, 1,
                                         distance, (l1, l2), (surrogate,))
        assert rows.coefficients.tobytes() == np.stack(
            [run.coefficients for run in runs]).tobytes()
        (report,) = robustness(instance, handle, perturb, (surrogate,), pairs,
                               distance=distance)
        h1, h2 = (np.abs(normalize_coefficients(run.coefficients))
                  for run in runs)
        assert report.robustness_samples == (
            (l1, l2, float(np.linalg.norm(h1 - h2) / abs(l1 - l2))),)

    def test_needs_a_surrogate(self):
        instance, perturb, handle = quadratic_problem(3, 50, 24)
        with pytest.raises(ConfigError):
            robustness(instance, handle, perturb, (), [(0.5, 1.0)])

    def test_needs_a_width_pair(self):
        instance, perturb, handle = quadratic_problem(3, 50, 24)
        with pytest.raises(ConfigError):
            robustness(instance, handle, perturb, (LimeRidge(1.0),), [])


class TestRobustnessConfig:
    def test_configured_distance_is_used(self):
        instance, perturb = numeric_setup(3, 200, 25)
        handle = PredictorHandle.in_process(
            lambda rows: rows[:, 0] + (rows**2).sum(axis=1))
        pset = probed_set(instance, perturb, handle)
        pairs = width_pairs(5, (0.2, 5.0), seed=7)
        reports = {}
        for distance in (EUCLIDEAN, BINARY_HAMMING):
            config = ExplainConfig(perturb, KernelConfig(distance=distance),
                                   LimeRidge(1.0))
            reports[distance] = sweep(instance, handle, config, pairs=5,
                                      seed=7)
            samples, _ = reference_robustness(pset, instance, LimeRidge(1.0),
                                              pairs, distance)
            assert reports[distance].robustness_samples == samples
        assert reports[EUCLIDEAN] != reports[BINARY_HAMMING]

    def test_target_class_selects_the_output(self):
        instance, perturb = numeric_setup(2, 200, 26)

        def score(rows):
            return rows[:, 0] + 0.5 * rows[:, 1] ** 2

        two_class = PredictorHandle.in_process(
            lambda rows: np.column_stack([np.zeros(rows.shape[0]),
                                          score(rows)]))
        config = ExplainConfig(perturb, KernelConfig(), LimeRidge(1.0))
        selected = sweep(instance, with_class(two_class, 1), config, pairs=4,
                         seed=8)
        direct = sweep(instance, PredictorHandle.in_process(score), config,
                       pairs=4, seed=8)
        assert selected == direct


class TestMetricReport:
    def test_validation(self):
        MetricReport(robustness_samples=((0.5, 1.0, 0.1), (0.2, 0.9, 0.3)),
                     robustness_r=0.1)
        with pytest.raises(ConfigError):
            MetricReport(robustness_samples=((0.5, 1.0, 0.1),),
                         robustness_r=0.2)
