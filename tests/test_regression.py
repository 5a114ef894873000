"""Weighted ridge and Bayesian surrogate fits.

The single-feature constant-weight cases are checked against the closed
form

    mu_n = (lam * mu0 + alpha * w * sum(x^2) * beta) / (lam + alpha * w * sum(x^2))

with beta = sum(x y) / sum(x^2), evaluated independently here with plain
Python arithmetic.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baylime import explainer, regression, types
from baylime import (
    ConfigError,
    ConvergenceError,
    FitError,
    PerturbationSet,
    PriorSpec,
    ShapeError,
    SingularityError,
    decompose,
)
from baylime.regression import posterior_rows, ridge_rows
from conftest import (fit_surrogate, one_row_stack, ridge_fit, stack_sets,
                      stack_weights)


def random_problem(rng, m=None, n=None):
    m = int(rng.integers(1, 21)) if m is None else m
    n = int(rng.integers(m + 1, 1001)) if n is None else n
    rows = rng.normal(size=(n, m))
    labels = rows @ rng.normal(size=m) + rng.normal(scale=0.3, size=n)
    weights = 1.0 - rng.random(n)
    return PerturbationSet(rows=rows, labels=labels, weights=weights,
                           seed=int(rng.integers(0, 2**31)))


@st.composite
def designs(draw):
    """A weighted set with m <= 20 features and n <= 60 samples.

    Its m columns cycle through k <= m distinct ones, so k < m tiles them
    into a rank-deficient design, as does n < m; with ``exact`` the labels
    are linear in the rows with zero residual. Returns the set and a prior
    mean.
    """
    m = draw(st.integers(1, 20))
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, m))
    exact = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(n, k))[:, np.arange(m) % k]
    labels = rows @ rng.normal(size=m)
    if not exact:
        labels = labels + rng.normal(scale=0.3, size=n)
    pset = PerturbationSet(rows=rows, labels=labels,
                           weights=rng.uniform(0.05, 1.0, size=n), seed=0)
    return pset, rng.normal(scale=2.0, size=m)


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


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
        fit = fit_surrogate(pset, PriorSpec.full(np.array([0.5]), 1.0, 1.0))
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
            fit = fit_surrogate(pset, PriorSpec.full(np.array([mu0]), lam,
                                                     alpha))
            assert abs(fit.mu_n[0] - expected) < 1e-10

    def test_matches_ridge_at_effective_regularizer(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pset = random_problem(rng)
            lam = float(10.0 ** rng.uniform(-3, 3))
            alpha = float(10.0 ** rng.uniform(-3, 3))
            fit = fit_surrogate(pset, PriorSpec.full(np.zeros(pset.m), lam,
                                                     alpha))
            ridge = ridge_fit(pset, lam / alpha)
            np.testing.assert_allclose(fit.mu_n, ridge, rtol=1e-8)

    def test_tiny_lambda_recovers_mle(self):
        pset = random_problem(np.random.default_rng(8), m=5, n=400)
        mu0 = np.full(5, 3.0)
        fit = fit_surrogate(pset, PriorSpec.full(mu0, 1e-12, 1.0))
        gap = np.linalg.norm(fit.mu_n - fit.beta_mle)
        assert gap / np.linalg.norm(fit.beta_mle) < 1e-6

    def test_tiny_alpha_recovers_prior(self):
        pset = random_problem(np.random.default_rng(9), m=5, n=400)
        mu0 = np.array([1.0, -2.0, 0.5, 4.0, -0.25])
        fit = fit_surrogate(pset, PriorSpec.full(mu0, 1.0, 1e-12))
        assert np.linalg.norm(fit.mu_n - mu0) / np.linalg.norm(mu0) < 1e-6

    def test_effective_sample_bookkeeping(self):
        pset = random_problem(np.random.default_rng(3), m=4, n=100)
        fit = fit_surrogate(pset, PriorSpec.full(np.zeros(4), 7.0, 2.0))
        g = pset.rows.T @ (pset.rows * pset.weights[:, None])
        assert fit.n_effective_prior == 7.0
        assert abs(fit.n_effective_data - 2.0 * np.trace(g)) < 1e-9

    def test_mu0_shape_checked(self):
        pset = random_problem(np.random.default_rng(4), m=3, n=30)
        with pytest.raises(ShapeError):
            fit_surrogate(pset, PriorSpec.full(np.zeros(2), 1.0, 1.0))


def counted(monkeypatch, owner, name: str) -> list:
    """Replace ``owner.name`` by a wrapper that logs each call in a list."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestSharedMoments:
    def test_fits_on_one_set_compute_moments_once(self, monkeypatch):
        # Every fit on a set's stack shares its one reduction, and the set
        # caches its own moments and spectrum for decompose.
        reductions = counted(monkeypatch, explainer, "_weighted_moments")
        moments = counted(monkeypatch, types, "_weighted_moments")
        eighs = counted(monkeypatch, np.linalg, "eigh")
        rng = np.random.default_rng(41)
        for weighted in range(1, 3):
            pset = random_problem(rng, m=4, n=200)
            stack = one_row_stack(pset)
            ridge_rows(stack, 1.0)
            ridge_rows(stack, 0.0)
            for prior in (PriorSpec.partial(np.ones(4), 10.0),
                          PriorSpec.full(np.ones(4), 10.0, 1.0),
                          PriorSpec.non_informative()):
                result = posterior_rows(stack, prior)
            fit = stack.surrogate_fit(result, 0)
            decompose(fit, pset)
            decompose(fit, pset)
            assert fit.beta_mle is not None
            assert len(reductions) == len(moments) == weighted
            assert len(eighs) == 2 * weighted

    def test_moments_are_frozen_and_exact(self):
        pset = random_problem(np.random.default_rng(42), m=3, n=50)
        g, b = pset.moments
        x, w = pset.rows, pset.weights
        assert np.array_equal(g, x.T @ (x * w[:, None]))
        assert np.array_equal(b, x.T @ (w * pset.labels))
        assert not g.flags.writeable and not b.flags.writeable
        assert replace(pset, weights=w / 2).moments is not pset.moments


class TestLazyDerivedMatrices:
    def test_computed_on_first_access_only(self):
        pset = random_problem(np.random.default_rng(43), m=5, n=300)
        g, b = pset.moments
        eager = np.linalg.solve(g, b)
        fit = fit_surrogate(pset, PriorSpec.full(np.zeros(5), 2.0, 1.0))
        assert "beta_mle" not in vars(fit)
        np.testing.assert_allclose(fit.beta_mle, eager, rtol=1e-10)
        assert fit.beta_mle is fit.beta_mle
        assert not fit.beta_mle.flags.writeable

    def test_precision_is_computed_on_first_access(self):
        pset = random_problem(np.random.default_rng(45), m=4, n=200)
        fit = fit_surrogate(pset, PriorSpec.full(np.zeros(4), 3.0, 0.5))
        assert "s_n_inv" not in vars(fit)
        g, _ = pset.moments
        assert np.array_equal(fit.s_n_inv, 3.0 * np.eye(4) + 0.5 * g)
        assert not fit.s_n_inv.flags.writeable

    def test_none_for_rank_deficient_design(self):
        rng = np.random.default_rng(44)
        rows = np.tile(rng.normal(size=(50, 1)), (1, 3))
        pset = PerturbationSet(rows=rows, labels=rng.normal(size=50),
                               weights=np.ones(50), seed=0)
        fit = fit_surrogate(pset, PriorSpec.full(np.zeros(3), 1.0, 1.0))
        assert fit.beta_mle is None


class TestDecomposition:
    def test_weights_sum_to_identity_and_recover_mean(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            pset = random_problem(rng)
            mu0 = rng.normal(size=pset.m)
            lam = float(10.0 ** rng.uniform(-2, 2))
            alpha = float(10.0 ** rng.uniform(-2, 2))
            fit = fit_surrogate(pset, PriorSpec.full(mu0, lam, alpha))
            a, b = decompose(fit, pset)
            np.testing.assert_allclose(a + b, np.eye(pset.m), atol=1e-9)
            np.testing.assert_allclose(a @ mu0 + b @ fit.beta_mle, fit.mu_n,
                                       atol=1e-8)

    def test_single_feature_worked_example(self):
        pset = PerturbationSet(rows=[[1.0], [1.0]], labels=[2.0, 2.0],
                               weights=[1.0, 1.0], seed=0)
        fit = fit_surrogate(pset, PriorSpec.full(np.array([0.5]), 1.0, 1.0))
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
            fit = fit_surrogate(pset, PriorSpec.non_informative())
            if 2.0 <= fit.alpha_used <= 8.0:
                hits += 1
        assert hits >= 29

    def test_noninformative_tracks_its_own_ridge(self):
        pset = random_problem(np.random.default_rng(41), m=6, n=500)
        fit = fit_surrogate(pset, PriorSpec.non_informative())
        ridge = ridge_fit(pset, fit.lambda_used / fit.alpha_used)
        np.testing.assert_allclose(fit.mu_n, ridge,
                                   rtol=1e-6, atol=1e-9)

    def test_partial_keeps_lambda_fixed(self):
        pset = random_problem(np.random.default_rng(43), m=4, n=300)
        fit = fit_surrogate(pset, PriorSpec.partial(np.zeros(4), 12.5))
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
        fit = fit_surrogate(pset, PriorSpec.partial(beta, 1.0))
        assert 8.0 <= fit.alpha_used <= 32.0

    def test_zero_residual_hits_alpha_cap(self):
        rng = np.random.default_rng(53)
        rows = rng.normal(size=(50, 2))
        labels = rows @ np.array([2.0, -1.0])
        pset = PerturbationSet(rows=rows, labels=labels,
                               weights=np.ones(50), seed=0)
        fit = fit_surrogate(pset, PriorSpec.partial(np.array([2.0, -1.0]),
                                                    5.0))
        assert fit.alpha_used == 1e10
        np.testing.assert_allclose(fit.mu_n, [2.0, -1.0], rtol=1e-9)

    def test_convergence_error_carries_last_iterate(self):
        pset = random_problem(np.random.default_rng(59), m=3, n=100)
        with pytest.raises(ConvergenceError) as excinfo:
            fit_surrogate(pset, PriorSpec.non_informative(), max_iter=1)
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


class TestProperties:
    """Invariants of the eigenbasis fits on random, tiled and exact designs."""

    @PROPERTY
    @given(designs(), st.floats(-2, 2), st.floats(-2, 2))
    def test_decomposition_recovers_mean(self, case, log_lam, log_alpha):
        pset, mu0 = case
        fit = fit_surrogate(pset, PriorSpec.full(mu0, 10.0 ** log_lam,
                                                 10.0 ** log_alpha))
        a, b = decompose(fit, pset)
        np.testing.assert_allclose(a + b, np.eye(pset.m), atol=1e-9)
        g, moment = pset.moments
        # A rank-deficient design has no unique MLE; B maps every
        # least-squares solution to the same point, so take the min-norm one.
        beta = (np.linalg.lstsq(g, moment)[0] if fit.beta_mle is None
                else fit.beta_mle)
        gap = np.linalg.norm(a @ mu0 + b @ beta - fit.mu_n)
        assert gap <= 1e-8 * (np.linalg.norm(mu0) + np.linalg.norm(beta))

    @PROPERTY
    @given(designs())
    def test_hyperparameter_limits(self, case):
        # mu_n - beta = A (mu0 - beta) and mu_n - mu0 = B (beta - mu0), where
        # |A| = lam / (lam + alpha eig_min) and |B| = 1 - lam / (lam + alpha
        # eig_max): a vanishing lam (alpha) leaves only that share of the gap.
        pset, mu0 = case
        eig = pset.spectrum[0]
        g, moment = pset.moments
        beta = np.linalg.lstsq(g, moment)[0]
        slack = 1e-9 * (np.linalg.norm(mu0) + np.linalg.norm(beta))
        near_prior = fit_surrogate(pset, PriorSpec.full(mu0, 1.0, 1e-12))
        share = 1e-12 * eig[-1] / (1.0 + 1e-12 * eig[-1])
        assert (np.linalg.norm(near_prior.mu_n - mu0)
                <= share * np.linalg.norm(beta - mu0) + slack)
        near_mle = fit_surrogate(pset, PriorSpec.full(mu0, 1e-12, 1.0))
        if near_mle.beta_mle is not None:
            share = 1e-12 / (1e-12 + eig[0])
            assert (np.linalg.norm(near_mle.mu_n - near_mle.beta_mle)
                    <= share * np.linalg.norm(mu0 - near_mle.beta_mle)
                    + slack)

    @PROPERTY
    @given(designs())
    def test_eigenbasis_wsse_matches_explicit_residual(self, case):
        pset, mu0 = case
        seen = []
        real = regression._weighted_sse

        def recording(c, *args):
            wsse = real(c, *args)
            seen.append((c[0].copy(), float(wsse[0, 0])))
            return wsse

        with mock.patch.object(regression, "_weighted_sse", recording):
            for prior in (PriorSpec.non_informative(),
                          PriorSpec.partial(mu0, 10.0)):
                try:
                    fit_surrogate(pset, prior)
                except ConvergenceError:
                    pass
        assert seen
        eig, vectors, _ = pset.spectrum
        w, y = pset.weights, pset.labels
        for c, wsse in seen:
            residual = y - pset.rows @ (vectors @ c)
            explicit = float(np.sum(w * residual * residual))
            # Floor: the rounding scale of a residual y - X mu, whose two
            # terms have weighted squared norms sum(w y^2) and <= eig_max c'c.
            floor = float(np.sum(w * y * y)) + eig[-1] * float(c @ c)
            assert abs(wsse - explicit) <= 1e-9 * max(explicit, floor)

    @PROPERTY
    @given(designs())
    def test_unregularized_ridge_refused_exactly_when_rank_deficient(
            self, case):
        pset, _ = case
        g, _ = pset.moments
        deficient = np.linalg.matrix_rank(g, hermitian=True) < pset.m
        try:
            ridge_fit(pset, 0.0)
        except SingularityError:
            assert deficient
        else:
            assert not deficient


@st.composite
def stacks(draw):
    """One design under s <= 8 weightings, m <= 12, n <= 60.

    Columns are tiled and labels exact as in :func:`designs`; each row of
    the stack draws its own weights. Returns the base set, the (s, n)
    weights, a prior mean and an evidence iteration cap, small caps making
    some rows settle and others fail.
    """
    s = draw(st.integers(1, 8))
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, m))
    exact = draw(st.booleans())
    max_iter = draw(st.sampled_from((2, 3, 4, 6, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(n, k))[:, np.arange(m) % k]
    labels = rows @ rng.normal(size=m)
    if not exact:
        labels = labels + rng.normal(scale=0.3, size=n)
    base = PerturbationSet(rows=rows, labels=labels, weights=np.ones(n),
                           seed=0)
    # Rows differ in how peaked their weights are, so they settle at
    # different iterations.
    weights = (rng.uniform(0.05, 1.0, size=(s, n))
               ** rng.uniform(1.0, 8.0, size=(s, 1)))
    return base, weights, rng.normal(scale=2.0, size=m), max_iter


def lone_fit(pset, surrogate, max_iter):
    """(coefficients, lambda, alpha, iterations) of one set, or its error."""
    try:
        if isinstance(surrogate, float):
            return ridge_fit(pset, surrogate), None, None, None
        fit = fit_surrogate(pset, surrogate, max_iter=max_iter)
    except FitError as exc:
        return exc
    return fit.mu_n, fit.lambda_used, fit.alpha_used, fit.iterations


class TestStackedRows:
    """Row i of a stacked fit is the fit of row i's set alone, bit for bit."""

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(stacks())
    def test_every_row_equals_its_lone_fit(self, case):
        base, weights, mu0, max_iter = case
        s = len(weights)
        stack = stack_weights(base, weights)
        for surrogate in (1.0, 0.0, PriorSpec.non_informative(),
                          PriorSpec.partial(mu0, 10.0),
                          PriorSpec.full(mu0, 10.0, 2.0)):
            if isinstance(surrogate, float):
                result = ridge_rows(stack, surrogate)
            else:
                result = posterior_rows(stack, surrogate, max_iter=max_iter)
            assert len(result.coefficients) == result.failed
            for i in range(min(result.failed + 1, s)):
                lone = lone_fit(replace(base, weights=weights[i]), surrogate,
                                max_iter)
                if i == result.failed:
                    assert type(lone) is type(result.error)
                    if isinstance(lone, ConvergenceError):
                        assert ((lone.alpha, lone.lam, lone.iterations)
                                == (result.error.alpha, result.error.lam,
                                    result.error.iterations))
                    continue
                assert not isinstance(lone, FitError)
                coefficients, lam, alpha, iterations = lone
                assert (result.coefficients[i].tobytes()
                        == coefficients.tobytes())
                if result.lam is not None:
                    assert (result.lam[i], result.alpha[i],
                            result.iterations[i]) == (lam, alpha, iterations)
            if result.failed == s:
                assert result.error is None

    def test_rows_settle_at_their_own_iterations(self):
        # Rows that settle early are frozen while the others iterate on.
        rng = np.random.default_rng(71)
        rows = rng.normal(size=(200, 3))
        base = PerturbationSet(rows=rows,
                               labels=rows @ [1.0, -2.0, 0.5]
                               + rng.normal(size=200),
                               weights=np.ones(200), seed=0)
        weights = (rng.uniform(0.01, 1.0, (4, 200))
                   ** (1 + 4 * rng.random((4, 1))))
        stack = stack_weights(base, weights)
        result = posterior_rows(stack, PriorSpec.non_informative())
        assert len(set(result.iterations.tolist())) > 1
        for i, w in enumerate(weights):
            lone = fit_surrogate(replace(base, weights=w),
                                 PriorSpec.non_informative())
            assert result.coefficients[i].tobytes() == lone.mu_n.tobytes()
            assert ((result.lam[i], result.alpha[i], result.iterations[i])
                    == (lone.lambda_used, lone.alpha_used, lone.iterations))

    def test_spectrum_is_the_one_row_stack(self):
        pset = random_problem(np.random.default_rng(73), m=6, n=80)
        stack = stack_weights(pset, [pset.weights])
        for stacked, alone in zip(stack.spectrum, pset.spectrum):
            assert stacked[0].tobytes() == alone.tobytes()


class TestStackedSets:
    """A stack of different sets fits each row as its set alone."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 40),
           st.integers(0, 2**32 - 1), st.sampled_from((3, 300)))
    def test_every_row_equals_its_lone_fit(self, s, m, n, seed, max_iter):
        rng = np.random.default_rng(seed)
        sets = [random_problem(rng, m=m, n=n) for _ in range(s)]
        mu0 = rng.normal(size=m)
        stacks = {True: stack_sets(sets),
                  False: stack_sets(sets, evidence=False)}
        for evidence, stack in stacks.items():
            for i, pset in enumerate(sets):
                for stacked, alone in zip(stack.spectrum, pset.spectrum):
                    assert stacked[i].tobytes() == alone.tobytes()
            surrogates = [1.0, 0.0, PriorSpec.full(mu0, 10.0, 2.0)]
            if evidence:
                surrogates += [PriorSpec.non_informative(),
                               PriorSpec.partial(mu0, 10.0)]
            for surrogate in surrogates:
                if isinstance(surrogate, float):
                    result = ridge_rows(stack, surrogate)
                else:
                    result = posterior_rows(stack, surrogate,
                                            max_iter=max_iter)
                for i in range(min(result.failed + 1, s)):
                    lone = lone_fit(sets[i], surrogate, max_iter)
                    if i == result.failed:
                        assert type(lone) is type(result.error)
                        continue
                    coefficients, lam, alpha, iterations = lone
                    assert (result.coefficients[i].tobytes()
                            == coefficients.tobytes())
                    if result.lam is not None:
                        fit = stack.surrogate_fit(result, i)
                        assert ((fit.lambda_used, fit.alpha_used,
                                 fit.iterations) == (lam, alpha, iterations))
                        assert fit.n_effective_data == fit_surrogate(
                            sets[i], surrogate,
                            max_iter=max_iter).n_effective_data

    def test_stack_without_evidence_inputs_refuses_evidence_fits(self):
        rng = np.random.default_rng(4)
        stack = stack_sets([random_problem(rng, m=3, n=30)
                            for _ in range(2)], evidence=False)
        with pytest.raises(ConfigError):
            posterior_rows(stack, PriorSpec.non_informative())
