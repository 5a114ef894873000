"""Weighted linear surrogates: plain ridge and the Bayesian variants.

All fits share the same weighted design: an n-by-m interpretable matrix X,
labels Y, and a diagonal weight matrix W from the proximity kernel. There
is no intercept column; coefficients act on the interpretable features
directly.

The ridge surrogate solves (X'WX + rI) beta = X'WY.

The Bayesian surrogate places a Gaussian prior N(mu0, lambda^-1 I) on the
coefficients and a Gaussian observation model with noise precision alpha.
Its posterior is Gaussian with

    precision  S_n^-1 = lambda I + alpha X'WX
    mean       mu_n   = S_n (lambda mu0 + alpha X'WY)

The mean is a matrix-weighted compromise between the prior mean and the
maximum-likelihood solution: mu_n = A mu0 + B beta_mle with
A = lambda M^-1, B = alpha M^-1 X'WX and A + B = I, where
M = S_n^-1. :func:`decompose` exposes A and B.

Three prior-knowledge modes differ in which hyperparameters are fixed:

* full: mu0, lambda, alpha all supplied;
* partial: mu0 and lambda supplied, alpha fitted by evidence maximization;
* non-informative: mu0 = 0, both lambda and alpha fitted.

Evidence maximization iterates, with s_i = alpha * eig_i(X'WX):

    gamma  = sum_i s_i / (lambda + s_i)
    lambda <- gamma / (mu_n' mu_n)
    alpha  <- (n - gamma) / sum_i w_i (y_i - x_i' mu_n)^2

where each step evaluates gamma and mu_n at the previous (lambda, alpha).
Estimates are clamped to [1e-10, 1e10]; the loop stops when the relative
change of every fitted hyperparameter drops to 1e-6, and the returned fit
is recomputed at the converged values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh

from .errors import (
    ConfigError,
    ConvergenceError,
    DecompositionError,
    ShapeError,
    SingularityError,
)
from .types import PerturbationSet, _frozen_array

NON_INFORMATIVE = "non_informative"
PARTIAL = "partial"
FULL = "full"
PRIOR_MODES = (NON_INFORMATIVE, PARTIAL, FULL)

# Clamp range for evidence-fitted hyperparameters. User-supplied values in
# full mode are taken as given and never clamped.
HYPER_MIN = 1e-10
HYPER_MAX = 1e10

MAX_ITER = 300
TOL = 1e-6


@dataclass(frozen=True)
class PriorSpec:
    """Which prior knowledge is available, and its values.

    ``lam`` is the prior precision (how strongly coefficients are pulled
    toward ``mu0``), ``alpha`` the observation noise precision. Fields a
    mode fits from data must be left as None.
    """

    mode: str
    mu0: np.ndarray | None = None
    lam: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.mode not in PRIOR_MODES:
            raise ConfigError(
                f"unknown prior mode {self.mode!r}; expected one of "
                f"{PRIOR_MODES}"
            )
        if self.mu0 is not None:
            mu0 = _frozen_array(self.mu0)
            if mu0.ndim != 1 or mu0.size == 0 or not np.all(np.isfinite(mu0)):
                raise ConfigError("mu0 must be a non-empty finite vector")
            object.__setattr__(self, "mu0", mu0)
        for name, value, wanted in (
            ("lam", self.lam, self.mode in (PARTIAL, FULL)),
            ("alpha", self.alpha, self.mode == FULL),
            ("mu0", self.mu0, self.mode in (PARTIAL, FULL)),
        ):
            if wanted and value is None:
                raise ConfigError(f"{self.mode} mode requires {name}")
            if not wanted and value is not None:
                raise ConfigError(f"{self.mode} mode fits {name} from data; "
                                  f"do not supply it")
        for name, value in (("lam", self.lam), ("alpha", self.alpha)):
            if value is not None and not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive")

    @classmethod
    def non_informative(cls) -> "PriorSpec":
        return cls(NON_INFORMATIVE)

    @classmethod
    def partial(cls, mu0: np.ndarray, lam: float) -> "PriorSpec":
        return cls(PARTIAL, mu0=mu0, lam=lam)

    @classmethod
    def full(cls, mu0: np.ndarray, lam: float, alpha: float) -> "PriorSpec":
        return cls(FULL, mu0=mu0, lam=lam, alpha=alpha)


@dataclass(frozen=True)
class SurrogateFit:
    """A fitted Bayesian surrogate.

    ``mu_n`` is the posterior mean (the explanation's raw coefficients).
    ``n_effective_prior`` and ``n_effective_data`` compare how much pull
    the prior and the weighted samples exert on the posterior (lambda
    versus alpha * trace(X'WX)). ``moments`` holds the X'WX and X'WY the
    fit was made from.

    Two matrices are computed from ``moments`` on first access, so a fit
    that never reads them neither pays for nor keeps them: ``s_n_inv``,
    the posterior precision lambda I + alpha X'WX, and ``beta_mle``, the
    unregularized solution, which is None when the unregularized system
    is rank deficient.
    """

    mu_n: np.ndarray
    alpha_used: float
    lambda_used: float
    n_effective_prior: float
    n_effective_data: float
    moments: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    iterations: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mu_n", _frozen_array(self.mu_n))

    @cached_property
    def s_n_inv(self) -> np.ndarray:
        return _frozen_array(_precision(self.moments[0], self.lambda_used,
                                        self.alpha_used))

    @cached_property
    def beta_mle(self) -> np.ndarray | None:
        beta = _beta_mle(*self.moments)
        return None if beta is None else _frozen_array(beta)


def _spd_solve(matrix: np.ndarray, rhs: np.ndarray,
               context: str) -> np.ndarray:
    try:
        return cho_solve(cho_factor(matrix, lower=True), rhs)
    except LinAlgError as exc:
        raise SingularityError(f"{context}: normal-equations matrix is "
                               f"rank deficient") from exc


def _full_rank(g: np.ndarray) -> bool:
    # Cholesky can slip past borderline rank deficiency on rounding noise,
    # so unregularized solves check the rank explicitly.
    return np.linalg.matrix_rank(g, hermitian=True) == g.shape[0]


def ridge_fit(pset: PerturbationSet, r: float = 0.0) -> np.ndarray:
    """Weighted ridge coefficients (X'WX + rI)^-1 X'WY."""
    if not (np.isfinite(r) and r >= 0):
        raise ConfigError("ridge regularizer must be finite and >= 0")
    g, b = pset.moments
    if r == 0.0 and not _full_rank(g):
        raise SingularityError("unregularized fit: normal-equations matrix "
                               "is rank deficient")
    return _spd_solve(g + r * np.eye(pset.m), b, "ridge fit")


def _beta_mle(g: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    if not _full_rank(g):
        return None
    try:
        return cho_solve(cho_factor(g, lower=True), b)
    except LinAlgError:
        return None


def _precision(g: np.ndarray, lam: float, alpha: float) -> np.ndarray:
    """Posterior precision lambda I + alpha X'WX."""
    return lam * np.eye(g.shape[0]) + alpha * g


def _posterior(g: np.ndarray, b: np.ndarray, mu0: np.ndarray, lam: float,
               alpha: float, iterations: int = 0) -> SurrogateFit:
    precision = _precision(g, lam, alpha)
    mu_n = _spd_solve(precision, lam * mu0 + alpha * b, "posterior")
    return SurrogateFit(
        mu_n=mu_n,
        alpha_used=float(alpha),
        lambda_used=float(lam),
        n_effective_prior=float(lam),
        n_effective_data=float(alpha * np.trace(g)),
        moments=(g, b),
        iterations=iterations,
    )


def _check_mu0(pset: PerturbationSet, mu0: np.ndarray) -> np.ndarray:
    mu0 = np.asarray(mu0, dtype=float)
    if mu0.shape != (pset.m,):
        raise ShapeError(f"mu0 has shape {mu0.shape}; the design has "
                         f"{pset.m} features")
    return mu0


def bayes_fit_full(pset: PerturbationSet, mu0: np.ndarray, lam: float,
                   alpha: float) -> SurrogateFit:
    """Posterior with every hyperparameter supplied by the caller."""
    if not (np.isfinite(lam) and lam > 0):
        raise ConfigError("lam must be finite and positive")
    if not (np.isfinite(alpha) and alpha > 0):
        raise ConfigError("alpha must be finite and positive")
    mu0 = _check_mu0(pset, mu0)
    g, b = pset.moments
    return _posterior(g, b, mu0, lam, alpha)


def _initial_alpha(pset: PerturbationSet) -> float:
    var = float(np.var(pset.labels))
    return 1.0 / var if var > 0 else 1.0


def _clamp(value: float) -> float:
    if not np.isfinite(value) or value > HYPER_MAX:
        return HYPER_MAX
    return max(value, HYPER_MIN)


def _evidence_loop(pset: PerturbationSet, mu0: np.ndarray, *,
                   lam: float, alpha: float, fit_lambda: bool,
                   max_iter: int, tol: float) -> tuple[float, float, int]:
    """Iterate the evidence updates; returns converged (lam, alpha, iters)."""
    g, b = pset.moments
    eig, vectors = eigh(g)
    eig = np.clip(eig, 0.0, None)
    b_rot = vectors.T @ b
    mu0_rot = vectors.T @ mu0
    n = pset.n
    for iteration in range(1, max_iter + 1):
        scaled = alpha * eig
        gamma = float(np.sum(scaled / (lam + scaled)))
        mu = vectors @ ((lam * mu0_rot + alpha * b_rot) / (lam + scaled))
        residual = pset.labels - pset.rows @ mu
        wsse = float(np.sum(pset.weights * residual * residual))
        new_alpha = _clamp((n - gamma) / wsse) if wsse > 0 else HYPER_MAX
        if fit_lambda:
            norm = float(mu @ mu)
            new_lam = _clamp(gamma / norm) if norm > 0 else HYPER_MAX
        else:
            new_lam = lam
        settled = abs(new_alpha - alpha) <= tol * abs(alpha)
        if fit_lambda:
            settled = settled and abs(new_lam - lam) <= tol * abs(lam)
        lam, alpha = new_lam, new_alpha
        if settled:
            return lam, alpha, iteration
    raise ConvergenceError(
        f"evidence maximization did not settle in {max_iter} iterations",
        alpha=alpha, lam=lam, iterations=max_iter,
    )


def bayes_fit_partial(pset: PerturbationSet, mu0: np.ndarray, lam: float, *,
                      max_iter: int = MAX_ITER,
                      tol: float = TOL) -> SurrogateFit:
    """Posterior with lam and mu0 given; alpha fitted from the samples."""
    if not (np.isfinite(lam) and lam > 0):
        raise ConfigError("lam must be finite and positive")
    mu0 = _check_mu0(pset, mu0)
    lam, alpha, iterations = _evidence_loop(
        pset, mu0, lam=lam, alpha=_initial_alpha(pset), fit_lambda=False,
        max_iter=max_iter, tol=tol,
    )
    g, b = pset.moments
    return _posterior(g, b, mu0, lam, alpha, iterations=iterations)


def bayes_fit_noninformative(pset: PerturbationSet, *,
                             max_iter: int = MAX_ITER,
                             tol: float = TOL) -> SurrogateFit:
    """Posterior around mu0 = 0 with lam and alpha both fitted."""
    mu0 = np.zeros(pset.m)
    lam, alpha, iterations = _evidence_loop(
        pset, mu0, lam=1.0, alpha=_initial_alpha(pset), fit_lambda=True,
        max_iter=max_iter, tol=tol,
    )
    g, b = pset.moments
    return _posterior(g, b, mu0, lam, alpha, iterations=iterations)


def fit_surrogate(pset: PerturbationSet, prior: PriorSpec) -> SurrogateFit:
    """Dispatch to the fit matching the prior's knowledge mode."""
    if prior.mode == FULL:
        return bayes_fit_full(pset, prior.mu0, prior.lam, prior.alpha)
    if prior.mode == PARTIAL:
        return bayes_fit_partial(pset, prior.mu0, prior.lam)
    return bayes_fit_noninformative(pset)


def decompose(fit: SurrogateFit,
              pset: PerturbationSet) -> tuple[np.ndarray, np.ndarray]:
    """The matrices A and B with mu_n = A mu0 + B beta_mle and A + B = I.

    A carries the prior's share of the posterior mean, B the data's.
    """
    g, _ = pset.moments
    m = pset.m
    precision = _precision(g, fit.lambda_used, fit.alpha_used)
    try:
        factor = cho_factor(precision, lower=True)
    except LinAlgError as exc:
        raise DecompositionError("posterior precision is not positive "
                                 "definite") from exc
    a = cho_solve(factor, fit.lambda_used * np.eye(m))
    b = cho_solve(factor, fit.alpha_used * g)
    return a, b
