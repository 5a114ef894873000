"""Weighted linear surrogates: plain ridge and the Bayesian variants.

All fits share the same weighted design: an n-by-m interpretable matrix X,
labels Y, and a diagonal weight matrix W from the proximity kernel. There
is no intercept column; coefficients act on the interpretable features
directly.

The ridge surrogate solves (X'WX + rI) beta = X'WY.

The Bayesian surrogate places a Gaussian prior N(mu0, lambda^-1 I) on the
coefficients and a Gaussian observation model with noise precision alpha.
Its posterior has precision S_n^-1 = lambda I + alpha X'WX and mean
mu_n = S_n (lambda mu0 + alpha X'WY). The mean is a matrix-weighted
compromise between the prior mean and the maximum-likelihood solution:
mu_n = A mu0 + B beta_mle with A + B = I (:func:`decompose`).

Every fit is a diagonal solve in the eigenbasis X'WX = V diag(eig) V',
which a perturbation set computes once for all its fits
(:attr:`~baylime.types.PerturbationSet.spectrum`). With b = V'X'WY and
s = alpha eig:

    ridge      V (b / (r + eig))
    mu_n       V c,  c = (lambda V'mu0 + alpha b) / (lambda + s)
    beta_mle   V (b / eig)
    A, B       V diag(d) V', V diag(1 - d) V'  for d = lambda / (lambda + s)

X'WX is rank deficient when eig_min <= eig_max * m * eps, the default
tolerance of ``numpy.linalg.matrix_rank``; then an unregularized ridge fit
(r = 0) is refused and ``beta_mle`` is None.

Three prior-knowledge modes differ in which hyperparameters are fixed:

* full: mu0, lambda, alpha all supplied;
* partial: mu0 and lambda supplied, alpha fitted by evidence maximization;
* non-informative: mu0 = 0, both lambda and alpha fitted.

Evidence maximization iterates

    gamma  = sum_i s_i / (lambda + s_i)
    lambda <- gamma / (mu_n' mu_n)
    alpha  <- (n - gamma) / wsse,  wsse = sum_i w_i (y_i - x_i' mu_n)^2

where each step evaluates gamma and mu_n at the previous (lambda, alpha).
Each step costs O(m): wsse = rss_ls + sum_i eig_i (c_i - c_ls_i)^2, where
c_ls = b / eig is the least-squares solution with directions under the
rank tolerance set to 0, and rss_ls its weighted residual, computed once
per fit. Both terms are non-negative, so the sum does not cancel.
Estimates are clamped to [1e-10, 1e10]; the loop stops when the relative
change of every fitted hyperparameter drops to 1e-6, and the returned fit
is recomputed at the converged values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
    fit was made from and ``spectrum`` their eigendecomposition
    (:attr:`PerturbationSet.spectrum`), shared with the set.

    Two matrices are computed on first access, so a fit that never reads
    them neither pays for nor keeps them: ``s_n_inv``, the posterior
    precision lambda I + alpha X'WX, and ``beta_mle``, the unregularized
    solution, which is None when X'WX is rank deficient.
    """

    mu_n: np.ndarray
    alpha_used: float
    lambda_used: float
    n_effective_prior: float
    n_effective_data: float
    moments: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    spectrum: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    iterations: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mu_n", _frozen_array(self.mu_n))

    @cached_property
    def s_n_inv(self) -> np.ndarray:
        g, _ = self.moments
        return _frozen_array(self.lambda_used * np.eye(g.shape[0])
                             + self.alpha_used * g)

    @cached_property
    def beta_mle(self) -> np.ndarray | None:
        eig, vectors, b = self.spectrum
        if eig[0] <= _rank_tol(eig):
            return None
        return _frozen_array(vectors @ (b / eig))


def _rank_tol(eig: np.ndarray) -> float:
    """The rank tolerance eig_max * m * eps for ascending eigenvalues."""
    return float(eig[-1] * eig.size * np.finfo(float).eps)


def ridge_fit(pset: PerturbationSet, r: float = 0.0) -> np.ndarray:
    """Weighted ridge coefficients (X'WX + rI)^-1 X'WY."""
    if not (np.isfinite(r) and r >= 0):
        raise ConfigError("ridge regularizer must be finite and >= 0")
    eig, vectors, b = pset.spectrum
    if r == 0.0 and eig[0] <= _rank_tol(eig):
        raise SingularityError("unregularized fit: normal-equations matrix "
                               "is rank deficient")
    return vectors @ (b / (r + eig))


def _initial_alpha(pset: PerturbationSet) -> float:
    var = float(np.var(pset.labels))
    return 1.0 / var if var > 0 else 1.0


def _clamp(value: float) -> float:
    if not np.isfinite(value) or value > HYPER_MAX:
        return HYPER_MAX
    return max(value, HYPER_MIN)


def _weighted_sse(pset: PerturbationSet):
    """sum_i w_i (y_i - x_i' V c)^2 as an O(m) function of c = V' mu."""
    eig, vectors, b = pset.spectrum
    c_ls = np.divide(b, eig, out=np.zeros_like(b), where=eig > _rank_tol(eig))
    residual = pset.labels - pset.rows @ (vectors @ c_ls)
    rss_ls = float(np.sum(pset.weights * residual * residual))
    return lambda c: rss_ls + float(np.sum(eig * (c - c_ls) ** 2))


def _evidence_loop(pset: PerturbationSet, mu0_rot: np.ndarray, *,
                   lam: float, alpha: float, fit_lambda: bool,
                   max_iter: int, tol: float) -> tuple[float, float, int]:
    """Iterate the evidence updates; returns converged (lam, alpha, iters)."""
    eig, _, b = pset.spectrum
    weighted_sse = _weighted_sse(pset)
    for iteration in range(1, max_iter + 1):
        scaled = alpha * eig
        gamma = float(np.sum(scaled / (lam + scaled)))
        c = (lam * mu0_rot + alpha * b) / (lam + scaled)
        wsse = weighted_sse(c)
        new_alpha = _clamp((pset.n - gamma) / wsse) if wsse > 0 else HYPER_MAX
        new_lam = lam
        if fit_lambda:
            norm = float(c @ c)
            new_lam = _clamp(gamma / norm) if norm > 0 else HYPER_MAX
        settled = (abs(new_alpha - alpha) <= tol * alpha
                   and abs(new_lam - lam) <= tol * lam)
        lam, alpha = new_lam, new_alpha
        if settled:
            return lam, alpha, iteration
    raise ConvergenceError(
        f"evidence maximization did not settle in {max_iter} iterations",
        alpha=alpha, lam=lam, iterations=max_iter,
    )


def fit_surrogate(pset: PerturbationSet, prior: PriorSpec, *,
                  max_iter: int = MAX_ITER,
                  tol: float = TOL) -> SurrogateFit:
    """The posterior under the prior's knowledge mode.

    full takes mu0, lambda and alpha as given; partial fits alpha and
    non-informative fits lambda and alpha (around mu0 = 0) by evidence
    maximization.
    """
    mu0 = np.zeros(pset.m) if prior.mu0 is None else prior.mu0
    if mu0.shape != (pset.m,):
        raise ShapeError(f"mu0 has shape {mu0.shape}; the design has "
                         f"{pset.m} features")
    eig, vectors, b = pset.spectrum
    mu0_rot = vectors.T @ mu0
    lam, alpha, iterations = prior.lam, prior.alpha, 0
    if prior.mode != FULL:
        lam, alpha, iterations = _evidence_loop(
            pset, mu0_rot, lam=prior.lam or 1.0, alpha=_initial_alpha(pset),
            fit_lambda=prior.mode == NON_INFORMATIVE, max_iter=max_iter,
            tol=tol,
        )
    return SurrogateFit(
        mu_n=vectors @ ((lam * mu0_rot + alpha * b) / (lam + alpha * eig)),
        alpha_used=float(alpha),
        lambda_used=float(lam),
        n_effective_prior=float(lam),
        n_effective_data=float(alpha * np.trace(pset.moments[0])),
        moments=pset.moments,
        spectrum=pset.spectrum,
        iterations=iterations,
    )


def decompose(fit: SurrogateFit,
              pset: PerturbationSet) -> tuple[np.ndarray, np.ndarray]:
    """The matrices A and B with mu_n = A mu0 + B beta_mle and A + B = I.

    A carries the prior's share of the posterior mean, B the data's.
    """
    eig, vectors, _ = pset.spectrum
    denominator = fit.lambda_used + fit.alpha_used * eig
    if denominator[0] <= 0:
        raise DecompositionError("posterior precision is not positive "
                                 "definite")
    prior_share = fit.lambda_used / denominator
    a = (vectors * prior_share) @ vectors.T
    b = (vectors * (1.0 - prior_share)) @ vectors.T
    return a, b
