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
computed once for all fits on a weighted set. The math is written once,
over a leading stack axis: a :class:`WeightedStack` holds s weighted
sample sets, and :func:`ridge_rows` and :func:`posterior_rows` fit every
row in one call. Only this module takes moments and knows the row format:
:func:`reduce_set` turns a labelled set under a block of weightings into
stack rows while its samples are alive, the block in one batched
``eigh``, and :func:`join_sets` stacks the blocks. A seed block has a row
per seed, a robustness sweep a row per width, its widths weighted a block
at a time (:func:`~baylime.explainer.fit_block`).
The fit code does not tell the layouts apart, and a single explanation
is the one-row stack. Row i of a stacked fit equals the fit of row i's
set alone, bit for bit. With b = V'X'WY and s = alpha eig:

    ridge      V (b / (r + eig))
    mu_n       V c,  c = (lambda V'mu0 + alpha b) / (lambda + s)
    beta_mle   V (b / eig)
    A, B       V diag(d) V', V diag(1 - d) V'  for d = lambda / (lambda + s)

X'WX is rank deficient when eig_min <= eig_max * m * eps, the default
tolerance of ``numpy.linalg.matrix_rank``; then an unregularized ridge fit
(r = 0) is refused and ``beta_mle`` is None.

Three prior-knowledge modes differ in which of mu0, lambda and alpha the
user supplies (:data:`PRIOR_KEYS`); evidence maximization fits the others,
around mu0 = 0 in non-informative mode.

Evidence maximization iterates

    gamma  = sum_i s_i / (lambda + s_i)
    lambda <- gamma / (mu_n' mu_n)
    alpha  <- (n - gamma) / wsse,  wsse = sum_i w_i (y_i - x_i' mu_n)^2

where each step evaluates gamma and mu_n at the previous (lambda, alpha).
Each step costs O(m): wsse = rss_ls + sum_i eig_i (c_i - c_ls_i)^2, where
c_ls = b / eig is the least-squares solution with directions under the
rank tolerance set to 0, and rss_ls its weighted residual, computed once
per stack row from the set's samples. Both terms are non-negative, so
the sum does not cancel.
Estimates are clamped to [1e-10, 1e10]; a row stops when the relative
change of every fitted hyperparameter drops to 1e-6, and the returned fit
is recomputed at the converged values. The rows of a stack iterate
together, and a row that settles is frozen at that iterate while the
others go on, so its lambda, alpha, iteration count and mean are those
of its fit alone. A row still unsettled after ``max_iter`` iterations
fails with :class:`~baylime.errors.ConvergenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DecompositionError,
    FitError,
    ShapeError,
    SingularityError,
)
from .kernel import effective_sample_size
from .types import PerturbationSet, _frozen_array

NON_INFORMATIVE = "non_informative"
PARTIAL = "partial"
FULL = "full"
# The hyperparameters the user supplies in each prior mode, named as in the
# CLI's explainer specs and prior files.
PRIOR_KEYS = {NON_INFORMATIVE: (), PARTIAL: ("mu0", "lambda"),
              FULL: ("mu0", "lambda", "alpha")}

# Clamp range for evidence-fitted hyperparameters. User-supplied values in
# full mode are taken as given and never clamped.
HYPER_MIN = 1e-10
HYPER_MAX = 1e10

MAX_ITER = 300
TOL = 1e-6

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PriorSpec:
    """Which prior knowledge is available, and its values.

    ``lam`` is the prior precision lambda (how strongly coefficients are
    pulled toward ``mu0``), ``alpha`` the observation noise precision. A
    mode takes the fields :data:`PRIOR_KEYS` names, and leaves the rest None.
    """

    mode: str
    mu0: np.ndarray | None = None
    lam: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.mode not in PRIOR_KEYS:
            raise ConfigError(
                f"unknown prior mode {self.mode!r}; expected one of "
                f"{tuple(PRIOR_KEYS)}"
            )
        if self.mu0 is not None:
            mu0 = _frozen_array(self.mu0)
            if mu0.ndim != 1 or mu0.size == 0 or not np.all(np.isfinite(mu0)):
                raise ConfigError("mu0 must be a non-empty finite vector")
            object.__setattr__(self, "mu0", mu0)
        supplied = PRIOR_KEYS[self.mode]
        for name, value in (("mu0", self.mu0), ("lambda", self.lam),
                            ("alpha", self.alpha)):
            if name in supplied and value is None:
                raise ConfigError(f"{self.mode} mode requires {name}")
            if name not in supplied and value is not None:
                raise ConfigError(f"{self.mode} mode fits {name} from data; "
                                  f"do not supply it")
        for name, value in (("lambda", self.lam), ("alpha", self.alpha)):
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
    versus alpha * trace(X'WX)). ``spectrum`` is the eigendecomposition
    (eig, V, V'X'WY) of the X'WX and X'WY the fit was made from, shared
    with the stack row it was fitted on.

    ``beta_mle``, the unregularized solution, is computed on first access,
    so a fit that never reads it neither pays for nor keeps it; it is None
    when X'WX is rank deficient.
    """

    mu_n: np.ndarray
    alpha_used: float
    lambda_used: float
    n_effective_prior: float
    n_effective_data: float
    spectrum: tuple[np.ndarray, ...] = field(repr=False, compare=False)
    iterations: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mu_n", _frozen_array(self.mu_n))

    @cached_property
    def beta_mle(self) -> np.ndarray | None:
        eig, vectors, b = self.spectrum
        if eig[0] <= _rank_tol(eig):
            return None
        return _frozen_array(vectors @ (b / eig))


def _weighted_moments(rows: np.ndarray, labels: np.ndarray,
                     weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X'WX and X'WY for design X, labels Y and diagonal weights W."""
    gram = rows.T @ (rows * weights[:, None])
    moment = rows.T @ (weights * labels)
    gram.setflags(write=False)
    moment.setflags(write=False)
    return gram, moment


def _spectra(grams: np.ndarray, moments: np.ndarray,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eig, V, V'X'WY) for every X'WX = V diag(eig) V' of an (s, m, m) stack.

    One batched ``eigh``, each row bit for bit as it would come alone.
    Eigenvalues ascend and are clipped at 0: X'WX is positive
    semi-definite, so a negative one is rounding noise.
    """
    eig, vectors = np.linalg.eigh(grams)
    return (np.maximum(eig, 0.0), vectors,
            np.matmul(moments[:, None, :], vectors)[:, 0])


def _rank_tol(eig: np.ndarray) -> np.ndarray:
    """eig_max * m * eps per row of ascending eigenvalues (last axis)."""
    return eig[..., -1] * eig.shape[-1] * _EPS


def _rotate(vectors: np.ndarray, c: np.ndarray) -> np.ndarray:
    """V c for every row: back from eigenbasis coordinates."""
    return np.matmul(vectors, c[..., None])[..., 0]


@dataclass(frozen=True)
class WeightedStack:
    """s weighted sample sets of n samples each, in their own eigenbases.

    A row is one weighted set: a kernel-width sweep stacks one set under s
    weightings, a seed block s different sets, one per seed. ``spectrum``
    stacks every row's (eig, V, V'X'WY) and ``effective`` its Kish size,
    each on a leading axis of length s. ``evidence`` holds each row's
    least-squares solution c_ls in the eigenbasis, with the directions
    under the rank tolerance set to 0, its weighted residual sum of squares
    rss_ls, and the initial alpha; only partial and non-informative fits
    read it, and a stack built for none leaves it None. The rows are built
    by :func:`reduce_set` and stacked by :func:`join_sets`. A stack holds
    O(s m^2) numbers, never the rows of its sets. The arrays are frozen.
    """

    spectrum: tuple[np.ndarray, np.ndarray, np.ndarray]
    effective: np.ndarray
    n: int
    evidence: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        for arr in (*self.spectrum, self.effective, *(self.evidence or ())):
            arr.setflags(write=False)

    def surrogate_fit(self, fit: "StackFit", i: int) -> "SurrogateFit":
        """Row i of a Bayesian fit of this stack as a :class:`SurrogateFit`."""
        lam, alpha = float(fit.lam[i]), float(fit.alpha[i])
        return SurrogateFit(
            mu_n=fit.coefficients[i],
            alpha_used=alpha,
            lambda_used=lam,
            n_effective_prior=lam,
            n_effective_data=float(alpha * self.spectrum[0][i].sum()),
            spectrum=tuple(arr[i] for arr in self.spectrum),
            iterations=int(fit.iterations[i]),
        )


def reduce_set(rows: np.ndarray, labels: np.ndarray, weights: np.ndarray,
               evidence: bool) -> tuple[np.ndarray, ...]:
    """Reduce one labelled set under s weightings to its rows of a stack.

    ``weights`` is the (s, n) block of the weightings; row i weights the
    samples of stack row i, and its Kish effective sample size, moments
    and, with ``evidence``, rss_ls all read that one row. Returns the stack
    columns: each row's Kish size and spectrum, all s rows decomposed in
    one batched ``eigh``, and with ``evidence`` the inputs
    :attr:`WeightedStack.evidence` holds.
    """
    s, m = len(weights), rows.shape[1]
    grams, moments = np.empty((s, m, m)), np.empty((s, m))
    effective = np.empty(s)
    for i, w in enumerate(weights):
        effective[i] = effective_sample_size(w)
        grams[i], moments[i] = _weighted_moments(rows, labels, w)
    eig, vectors, b = spectrum = _spectra(grams, moments)
    if not evidence:
        return (effective, *spectrum)
    c_ls = np.divide(b, eig, out=np.zeros_like(b),
                     where=eig > _rank_tol(eig)[:, None])
    rss_ls = np.empty(s)
    for i, (w, beta) in enumerate(zip(weights, _rotate(vectors, c_ls))):
        residual = labels - rows @ beta
        rss_ls[i] = (w * residual * residual).sum()
    var = float(np.var(labels))
    alpha = np.full(s, 1.0 / var if var > 0 else 1.0)
    return (effective, *spectrum, c_ls, rss_ls, alpha)


def join_sets(parts: Sequence[tuple[np.ndarray, ...]],
              n: int) -> WeightedStack:
    """The stack of several sets' columns from :func:`reduce_set`, in order.

    A lone set's columns are the stack's, uncopied.
    """
    effective, eig, vectors, b, *inputs = (
        column[0] if len(parts) == 1 else np.concatenate(column)
        for column in zip(*parts))
    return WeightedStack((eig, vectors, b), effective, n,
                         tuple(inputs) or None)


class StackFit(NamedTuple):
    """The fits of a stack's rows, in row order, up to the first failure.

    ``failed`` is the first row that could not be fitted and ``error`` its
    FitError; with no failure they are s and None. ``coefficients`` holds
    the ``failed`` fitted rows; a Bayesian fit adds each row's lambda,
    alpha and evidence iterations (None for ridge).
    """

    coefficients: np.ndarray
    lam: np.ndarray | None
    alpha: np.ndarray | None
    iterations: np.ndarray | None
    failed: int
    error: FitError | None


def ridge_rows(stack: WeightedStack, r: float) -> StackFit:
    """Weighted ridge coefficients (X'WX + rI)^-1 X'WY for every row.

    ``r`` is finite and >= 0, as :class:`~baylime.explainer.LimeRidge`
    checks. At r = 0 a row whose X'WX is rank deficient fails with
    SingularityError.
    """
    eig, vectors, b = stack.spectrum
    failed, error = len(eig), None
    if r == 0.0:
        singular = np.flatnonzero(eig[:, 0] <= _rank_tol(eig))
        if singular.size:
            failed = int(singular[0])
            error = SingularityError("unregularized fit: normal-equations "
                                     "matrix is rank deficient")
    coefficients = _rotate(vectors[:failed], b[:failed] / (r + eig[:failed]))
    return StackFit(coefficients, None, None, None, failed, error)


def _clamp(ratio: np.ndarray) -> np.ndarray:
    """Hyperparameter estimates clamped to [HYPER_MIN, HYPER_MAX].

    NaN and +inf, which a zero denominator gives (the evidence loop runs
    with division warnings off), become HYPER_MAX.
    """
    return np.fmax(np.fmin(ratio, HYPER_MAX), HYPER_MIN)


def _posterior(lam: np.ndarray, alpha: np.ndarray, eig: np.ndarray,
               pull: np.ndarray | None,
               b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The posterior mean in the eigenbasis and each direction's data share.

    c = (lam V'mu0 + alpha b) / (lam + alpha eig) and
    alpha eig / (lam + alpha eig), for lam and alpha of shape (s, 1).
    ``pull`` is the prior's term lam V'mu0, None for mu0 = 0.
    """
    scaled = alpha * eig
    denominator = lam + scaled
    data = alpha * b
    if pull is not None:
        data = pull + data
    return data / denominator, scaled / denominator


def _weighted_sse(c: np.ndarray, eig: np.ndarray, c_ls: np.ndarray,
                  rss_ls: np.ndarray) -> np.ndarray:
    """sum_i w_i (y_i - x_i' V c)^2 per row, an O(m) function of c."""
    return rss_ls + (eig * (c - c_ls) ** 2).sum(axis=1, keepdims=True)


def _evidence(eig: np.ndarray, b: np.ndarray, pull: np.ndarray | None,
              c_ls: np.ndarray, rss_ls: np.ndarray, alpha: np.ndarray, *,
              n: int, lam: float, fit_lambda: bool,
              max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Iterate the evidence updates on every row until each settles.

    ``alpha`` holds each row's initial alpha. ``pull`` (lam V'mu0) stays
    fixed: partial fixes lambda, and non-informative, which fits lambda,
    has mu0 = 0 (``pull`` None).
    A row that settles is frozen at that iterate and leaves the loop.
    Returns each row's lambda, alpha and iteration count, and the first
    row still unsettled after ``max_iter`` (s when every row settled),
    whose lambda and alpha are its last iterate.
    """
    s, m = eig.shape
    out_lam, out_alpha = np.empty(s), np.empty(s)
    out_iterations = np.full(s, max_iter)
    live = np.arange(s)
    lam, alpha = np.full((s, 1), float(lam)), alpha[:, None]
    rss_ls = rss_ls[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for iteration in range(1, max_iter + 1):
            c, shares = _posterior(lam, alpha, eig, pull, b)
            gamma = shares.sum(axis=1, keepdims=True)
            data_dof = n - gamma
            if n < m:
                # gamma <= m, so only here can n - gamma be negative; at 0
                # it gives HYPER_MIN as a negative ratio would, and
                # HYPER_MAX, not -inf, when wsse = 0.
                data_dof = np.maximum(data_dof, 0.0)
            new_alpha = _clamp(data_dof / _weighted_sse(c, eig, c_ls, rss_ls))
            settled = abs(new_alpha - alpha) <= TOL * alpha
            if fit_lambda:
                new_lam = _clamp(gamma / (c * c).sum(axis=1, keepdims=True))
                # A row settles when both settle; lambda's test only
                # matters where alpha's passed.
                if np.count_nonzero(settled):
                    settled &= abs(new_lam - lam) <= TOL * lam
                lam = new_lam
            alpha = new_alpha
            count = np.count_nonzero(settled)
            if not count:
                continue
            done = live[settled[:, 0]]
            out_lam[done], out_alpha[done] = lam[settled], alpha[settled]
            out_iterations[done] = iteration
            if count == len(live):
                return out_lam, out_alpha, out_iterations, s
            # Only the unsettled rows iterate on.
            keep = ~settled[:, 0]
            live, eig, b, c_ls, rss_ls, lam, alpha = (
                arr[keep] for arr in (live, eig, b, c_ls, rss_ls, lam, alpha))
            if pull is not None:
                pull = pull[keep]
    out_lam[live], out_alpha[live] = lam[:, 0], alpha[:, 0]
    return out_lam, out_alpha, out_iterations, int(live[0])


def posterior_rows(stack: WeightedStack, prior: PriorSpec, *,
                   max_iter: int = MAX_ITER) -> StackFit:
    """The posterior under the prior's knowledge mode, for every row.

    full takes mu0, lambda and alpha as given; partial fits alpha and
    non-informative fits lambda and alpha (around mu0 = 0) by evidence
    maximization, row by row in one vectorised loop, from the stack's
    evidence inputs (a stack without them is refused with ConfigError). A
    row that does not settle in ``max_iter`` fails with ConvergenceError
    carrying its last iterate. ``mu0`` is of length m (checked by
    :func:`~baylime.explainer.check_surrogates`).
    """
    eig, vectors, b = stack.spectrum
    s = len(eig)
    mu0_rot = None if prior.mu0 is None else np.matmul(prior.mu0, vectors)
    failed, error = s, None
    if prior.mode != FULL and stack.evidence is None:
        raise ConfigError("this stack was built without the inputs of "
                          "evidence fits")
    if prior.mode == FULL:
        lam, alpha = np.full(s, prior.lam), np.full(s, prior.alpha)
        iterations = np.zeros(s, dtype=int)
    else:
        lam, alpha, iterations, failed = _evidence(
            eig, b, None if mu0_rot is None else prior.lam * mu0_rot,
            *stack.evidence, n=stack.n, lam=prior.lam or 1.0,
            fit_lambda=prior.mode == NON_INFORMATIVE, max_iter=max_iter)
        if failed < s:
            error = ConvergenceError(
                f"evidence maximization did not settle in {max_iter} "
                f"iterations",
                alpha=float(alpha[failed]), lam=float(lam[failed]),
                iterations=max_iter,
            )
            eig, vectors, b, lam, alpha, iterations = (
                arr[:failed] for arr in (eig, vectors, b, lam, alpha,
                                         iterations))
            if mu0_rot is not None:
                mu0_rot = mu0_rot[:failed]
    column = lam[:, None]
    pull = None if mu0_rot is None else column * mu0_rot
    c, _ = _posterior(column, alpha[:, None], eig, pull, b)
    return StackFit(_rotate(vectors, c), lam, alpha, iterations, failed,
                    error)


def decompose(fit: SurrogateFit,
              pset: PerturbationSet) -> tuple[np.ndarray, np.ndarray]:
    """The matrices A and B with mu_n = A mu0 + B beta_mle and A + B = I.

    A carries the prior's share of the posterior mean, B the data's, both
    in the fit's own eigenbasis; ``pset`` must have the fit's m features.
    """
    eig, vectors, _ = fit.spectrum
    if pset.m != eig.size:
        raise ShapeError(f"set has {pset.m} features, the fit {eig.size}")
    denominator = fit.lambda_used + fit.alpha_used * eig
    if denominator[0] <= 0:
        raise DecompositionError("posterior precision is not positive definite")
    prior_share = fit.lambda_used / denominator
    a = (vectors * prior_share) @ vectors.T
    b = (vectors * (1.0 - prior_share)) @ vectors.T
    return a, b
