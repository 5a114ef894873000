"""Weighted ridge and Bayesian surrogate fits.

The single-feature constant-weight cases are checked against the closed
form

    mu_n = (lam * mu0 + alpha * w * sum(x^2) * beta) / (lam + alpha * w * sum(x^2))

with beta = sum(x y) / sum(x^2), evaluated independently here with plain
Python arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from baylime import regression, types
from baylime import (
    ConfigError,
    ConvergenceError,
    PerturbationSet,
    PriorSpec,
    ShapeError,
    SingularityError,
    bayes_fit_full,
    bayes_fit_noninformative,
    bayes_fit_partial,
    decompose,
    fit_surrogate,
    ridge_fit,
)


def random_problem(rng, m=None, n=None):
    m = int(rng.integers(1, 21)) if m is None else m
    n = int(rng.integers(m + 1, 1001)) if n is None else n
    rows = rng.normal(size=(n, m))
    labels = rows @ rng.normal(size=m) + rng.normal(scale=0.3, size=n)
    weights = 1.0 - rng.random(n)
    return PerturbationSet(rows=rows, labels=labels, weights=weights,
                           seed=int(rng.integers(0, 2**31)))


class TestRidgeFit:
    def test_two_identical_rows(self):
        pset = PerturbationSet(rows=[[1.0], [1.0]], labels=[2.0, 2.0],
                               weights=[1.0, 1.0], seed=0)
        np.testing.assert_allclose(ridge_fit(pset, 0.0), [2.0], atol=1e-12)
        np.testing.assert_allclose(ridge_fit(pset, 2.0), [1.0], atol=1e-12)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pset = random_problem(rng)
            r = float(rng.uniform(0.0, 2.0))
            xw = pset.rows * pset.weights[:, None]
            expected = np.linalg.solve(
                pset.rows.T @ xw + r * np.eye(pset.m),
                pset.rows.T @ (pset.weights * pset.labels),
            )
            np.testing.assert_allclose(ridge_fit(pset, r), expected,
                                       rtol=1e-9, atol=1e-12)

    def test_singular_unregularized_system(self):
        pset = PerturbationSet(rows=[[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],
                               labels=[1.0, 2.0, 3.0],
                               weights=[1.0, 1.0, 1.0], seed=0)
        with pytest.raises(SingularityError):
            ridge_fit(pset, 0.0)
        assert np.all(np.isfinite(ridge_fit(pset, 1e-6)))

    def test_rejects_negative_regularizer(self):
        pset = random_problem(np.random.default_rng(0))
        with pytest.raises(ConfigError):
            ridge_fit(pset, -1.0)


class TestFullPosterior:
    def test_single_feature_worked_example(self):
        # sum(w x^2) = 2, beta = 2, so with lam=alpha=1 and mu0=0.5 the
        # posterior mean is (0.5 + 4) / 3.
        pset = PerturbationSet(rows=[[1.0], [1.0]], labels=[2.0, 2.0],
                               weights=[1.0, 1.0], seed=0)
        fit = bayes_fit_full(pset, np.array([0.5]), lam=1.0, alpha=1.0)
        assert abs(fit.mu_n[0] - 1.5) < 1e-12
        assert abs(fit.beta_mle[0] - 2.0) < 1e-12

    def test_single_feature_closed_form(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            w = float(rng.uniform(0.1, 1.0))
            lam = float(rng.uniform(0.01, 50.0))
            alpha = float(rng.uniform(0.01, 50.0))
            mu0 = float(rng.normal())
            pset = PerturbationSet(rows=x[:, None], labels=y,
                                   weights=np.full(n, w), seed=0)
            sxx = sum(float(v) * float(v) for v in x)
            sxy = sum(float(a) * float(b) for a, b in zip(x, y))
            beta = sxy / sxx
            expected = (lam * mu0 + alpha * w * sxx * beta) / (
                lam + alpha * w * sxx)
            fit = bayes_fit_full(pset, np.array([mu0]), lam=lam, alpha=alpha)
            assert abs(fit.mu_n[0] - expected) < 1e-10

    def test_matches_ridge_at_effective_regularizer(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pset = random_problem(rng)
            lam = float(10.0 ** rng.uniform(-3, 3))
            alpha = float(10.0 ** rng.uniform(-3, 3))
            fit = bayes_fit_full(pset, np.zeros(pset.m), lam=lam, alpha=alpha)
            ridge = ridge_fit(pset, lam / alpha)
            np.testing.assert_allclose(fit.mu_n, ridge, rtol=1e-8)

    def test_tiny_lambda_recovers_mle(self):
        pset = random_problem(np.random.default_rng(8), m=5, n=400)
        mu0 = np.full(5, 3.0)
        fit = bayes_fit_full(pset, mu0, lam=1e-12, alpha=1.0)
        gap = np.linalg.norm(fit.mu_n - fit.beta_mle)
        assert gap / np.linalg.norm(fit.beta_mle) < 1e-6

    def test_tiny_alpha_recovers_prior(self):
        pset = random_problem(np.random.default_rng(9), m=5, n=400)
        mu0 = np.array([1.0, -2.0, 0.5, 4.0, -0.25])
        fit = bayes_fit_full(pset, mu0, lam=1.0, alpha=1e-12)
        assert np.linalg.norm(fit.mu_n - mu0) / np.linalg.norm(mu0) < 1e-6

    def test_effective_sample_bookkeeping(self):
        pset = random_problem(np.random.default_rng(3), m=4, n=100)
        fit = bayes_fit_full(pset, np.zeros(4), lam=7.0, alpha=2.0)
        g = pset.rows.T @ (pset.rows * pset.weights[:, None])
        assert fit.n_effective_prior == 7.0
        assert abs(fit.n_effective_data - 2.0 * np.trace(g)) < 1e-9

    def test_mu0_shape_checked(self):
        pset = random_problem(np.random.default_rng(4), m=3, n=30)
        with pytest.raises(ShapeError):
            bayes_fit_full(pset, np.zeros(2), lam=1.0, alpha=1.0)


class TestSharedMoments:
    def test_fits_on_one_set_compute_moments_once(self, monkeypatch):
        calls = []
        real = types._weighted_moments

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(types, "_weighted_moments", counting)
        pset = random_problem(np.random.default_rng(41), m=4, n=200)
        ridge_fit(pset, 1.0)
        fit = fit_surrogate(pset, PriorSpec.non_informative())
        fit_surrogate(pset, PriorSpec.partial(np.ones(4), 10.0))
        fit_surrogate(pset, PriorSpec.full(np.ones(4), 10.0, 1.0))
        decompose(fit, pset)
        assert fit.beta_mle is not None
        assert len(calls) == 1

    def test_moments_are_frozen_and_exact(self):
        pset = random_problem(np.random.default_rng(42), m=3, n=50)
        g, b = pset.moments
        x, w = pset.rows, pset.weights
        assert np.array_equal(g, x.T @ (x * w[:, None]))
        assert np.array_equal(b, x.T @ (w * pset.labels))
        assert not g.flags.writeable and not b.flags.writeable
        assert pset.with_weights(w / 2).moments is not pset.moments


class TestLazyDerivedMatrices:
    def test_computed_on_first_access_only(self, monkeypatch):
        pset = random_problem(np.random.default_rng(43), m=5, n=300)
        g, b = pset.moments
        eager = cho_solve(cho_factor(g, lower=True), b)
        calls = []
        real = regression._beta_mle

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(regression, "_beta_mle", counting)
        fit = bayes_fit_full(pset, np.zeros(5), lam=2.0, alpha=1.0)
        assert calls == []
        assert np.array_equal(fit.beta_mle, eager)
        assert fit.beta_mle is fit.beta_mle
        assert len(calls) == 1
        assert not fit.beta_mle.flags.writeable

    def test_precision_is_computed_on_first_access(self):
        pset = random_problem(np.random.default_rng(45), m=4, n=200)
        fit = bayes_fit_full(pset, np.zeros(4), lam=3.0, alpha=0.5)
        assert "s_n_inv" not in vars(fit)
        g, _ = pset.moments
        assert np.array_equal(fit.s_n_inv, 3.0 * np.eye(4) + 0.5 * g)
        assert not fit.s_n_inv.flags.writeable

    def test_none_for_rank_deficient_design(self):
        rng = np.random.default_rng(44)
        rows = np.tile(rng.normal(size=(50, 1)), (1, 3))
        pset = PerturbationSet(rows=rows, labels=rng.normal(size=50),
                               weights=np.ones(50), seed=0)
        fit = bayes_fit_full(pset, np.zeros(3), lam=1.0, alpha=1.0)
        assert fit.beta_mle is None


class TestDecomposition:
    def test_weights_sum_to_identity_and_recover_mean(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            pset = random_problem(rng)
            mu0 = rng.normal(size=pset.m)
            lam = float(10.0 ** rng.uniform(-2, 2))
            alpha = float(10.0 ** rng.uniform(-2, 2))
            fit = bayes_fit_full(pset, mu0, lam=lam, alpha=alpha)
            a, b = decompose(fit, pset)
            np.testing.assert_allclose(a + b, np.eye(pset.m), atol=1e-9)
            np.testing.assert_allclose(a @ mu0 + b @ fit.beta_mle, fit.mu_n,
                                       atol=1e-8)

    def test_single_feature_worked_example(self):
        pset = PerturbationSet(rows=[[1.0], [1.0]], labels=[2.0, 2.0],
                               weights=[1.0, 1.0], seed=0)
        fit = bayes_fit_full(pset, np.array([0.5]), lam=1.0, alpha=1.0)
        a, b = decompose(fit, pset)
        assert abs(a[0, 0] - 1 / 3) < 1e-12
        assert abs(b[0, 0] - 2 / 3) < 1e-12


class TestEvidenceFitting:
    def test_recovers_known_noise_precision(self):
        rng = np.random.default_rng(31)
        hits = 0
        for _ in range(30):
            rows = rng.normal(size=(1000, 5))
            beta = rng.normal(size=5)
            labels = rows @ beta + rng.normal(scale=0.5, size=1000)
            pset = PerturbationSet(rows=rows, labels=labels,
                                   weights=np.ones(1000), seed=0)
            fit = bayes_fit_noninformative(pset)
            if 2.0 <= fit.alpha_used <= 8.0:
                hits += 1
        assert hits >= 29

    def test_noninformative_tracks_its_own_ridge(self):
        pset = random_problem(np.random.default_rng(41), m=6, n=500)
        fit = bayes_fit_noninformative(pset)
        ridge = ridge_fit(pset, fit.lambda_used / fit.alpha_used)
        np.testing.assert_allclose(fit.mu_n, ridge,
                                   rtol=1e-6, atol=1e-9)

    def test_partial_keeps_lambda_fixed(self):
        pset = random_problem(np.random.default_rng(43), m=4, n=300)
        fit = bayes_fit_partial(pset, np.zeros(4), lam=12.5)
        assert fit.lambda_used == 12.5
        assert fit.alpha_used > 0
        assert fit.iterations >= 1

    def test_partial_alpha_matches_residual_precision(self):
        rng = np.random.default_rng(47)
        rows = rng.normal(size=(2000, 3))
        beta = np.array([1.0, -2.0, 0.5])
        labels = rows @ beta + rng.normal(scale=0.25, size=2000)
        pset = PerturbationSet(rows=rows, labels=labels,
                               weights=np.ones(2000), seed=0)
        fit = bayes_fit_partial(pset, beta, lam=1.0)
        assert 8.0 <= fit.alpha_used <= 32.0

    def test_zero_residual_hits_alpha_cap(self):
        rng = np.random.default_rng(53)
        rows = rng.normal(size=(50, 2))
        labels = rows @ np.array([2.0, -1.0])
        pset = PerturbationSet(rows=rows, labels=labels,
                               weights=np.ones(50), seed=0)
        fit = bayes_fit_partial(pset, np.array([2.0, -1.0]), lam=5.0)
        assert fit.alpha_used == 1e10
        np.testing.assert_allclose(fit.mu_n, [2.0, -1.0], rtol=1e-9)

    def test_convergence_error_carries_last_iterate(self):
        pset = random_problem(np.random.default_rng(59), m=3, n=100)
        with pytest.raises(ConvergenceError) as excinfo:
            bayes_fit_noninformative(pset, max_iter=1)
        assert excinfo.value.iterations == 1
        assert excinfo.value.alpha is not None
        assert excinfo.value.lam is not None


class TestPriorSpec:
    def test_mode_field_requirements(self):
        PriorSpec.non_informative()
        PriorSpec.partial(np.array([1.0]), 2.0)
        PriorSpec.full(np.array([1.0]), 2.0, 3.0)
        with pytest.raises(ConfigError):
            PriorSpec("partial", mu0=np.array([1.0]))
        with pytest.raises(ConfigError):
            PriorSpec("full", mu0=np.array([1.0]), lam=1.0)
        with pytest.raises(ConfigError):
            PriorSpec("non_informative", lam=1.0)
        with pytest.raises(ConfigError):
            PriorSpec("bogus")

    def test_rejects_nonpositive_hyperparameters(self):
        with pytest.raises(ConfigError):
            PriorSpec.partial(np.array([1.0]), 0.0)
        with pytest.raises(ConfigError):
            PriorSpec.full(np.array([1.0]), 1.0, -2.0)

    def test_dispatch(self):
        pset = random_problem(np.random.default_rng(61), m=3, n=200)
        full = fit_surrogate(pset, PriorSpec.full(np.zeros(3), 2.0, 1.0))
        assert (full.lambda_used, full.alpha_used) == (2.0, 1.0)
        partial = fit_surrogate(pset, PriorSpec.partial(np.zeros(3), 2.0))
        assert partial.lambda_used == 2.0
        noninf = fit_surrogate(pset, PriorSpec.non_informative())
        assert noninf.alpha_used > 0 and noninf.lambda_used > 0
