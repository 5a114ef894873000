"""One-row and stacked fit helpers shared by the test modules.

The package fits only stacks of weighted sets (``ridge_rows`` and
``posterior_rows``); a single explanation is the one-row stack of a seed
block. These helpers build the stacks the tests need with the package's
one reducer (``reduce_set`` and ``join_sets``): one set alone, s
different sets (a seed block's layout) and one set under s weightings (a
robustness sweep's layout), and wrap the one-row fits as plain functions.
Test modules import them with ``from conftest import ...``.
"""

from __future__ import annotations

import numpy as np

from baylime import (
    ExplanationEnsemble,
    MetricReport,
    build_perturbation_set,
    robustness,
    width_pairs,
    with_class,
)
from baylime.explainer import join_sets, reduce_set
from baylime.regression import (MAX_ITER, TOL, WeightedStack, posterior_rows,
                                ridge_rows)


def one_row_stack(pset) -> WeightedStack:
    """The one-row stack of a weighted set."""
    return stack_sets([pset])


def stack_sets(sets, *, evidence: bool = True) -> WeightedStack:
    """Different weighted sets of one size, one row each, in order.

    As a seed block lays its seeds out: with ``evidence`` each set is
    decomposed as it is reduced; without, the stack carries no evidence
    inputs and every row's X'WX is decomposed in one batched ``eigh``.
    """
    return join_sets([reduce_set(pset.rows, pset.labels,
                                 lambda _, w=pset.weights: w, 1, evidence)[0]
                      for pset in sets], sets[0].n)


def stack_weights(base, weights) -> WeightedStack:
    """One set under each row of ``weights``, as a robustness sweep stacks
    its widths: every row's X'WX decomposed in one batched ``eigh``."""
    columns, _ = reduce_set(base.rows, base.labels, weights.__getitem__,
                            len(weights), True)
    return join_sets([columns], base.n)


def ridge_fit(pset, r: float = 0.0) -> np.ndarray:
    """Weighted ridge coefficients (X'WX + rI)^-1 X'WY of one set."""
    fit = ridge_rows(one_row_stack(pset), r)
    if fit.error is not None:
        raise fit.error
    return fit.coefficients[0]


def fit_surrogate(pset, prior, *, max_iter: int = MAX_ITER,
                  tol: float = TOL):
    """The posterior of one set under the prior's knowledge mode."""
    stack = one_row_stack(pset)
    fit = posterior_rows(stack, prior, max_iter=max_iter, tol=tol)
    if fit.error is not None:
        raise fit.error
    return stack.surrogate_fit(fit, 0)


def ensemble_of(runs) -> ExplanationEnsemble:
    """The ensemble of these explanations, in order."""
    runs = tuple(runs)
    return ExplanationEnsemble(np.stack([run.importances for run in runs]),
                               np.stack([run.ranks for run in runs]),
                               runs.__getitem__)


def sweep(instance, handle, config, *, pairs: int,
          bounds: tuple[float, float] = (0.2, 5.0),
          seed: int = 0) -> MetricReport:
    """Draw and probe one set as ``config`` says, then sweep its surrogate.

    The set is drawn with the seed in ``config.perturb`` through the class
    ``config.target_class`` picks, and refit at both widths of every
    sampled pair with the configured distance; ``seed`` drives only the
    width sampling.
    """
    if config.target_class is not None:
        handle = with_class(handle, config.target_class)
    pset = build_perturbation_set(instance, config.perturb, handle)
    (report,) = robustness(pset, instance, (config.surrogate,),
                           width_pairs(pairs, bounds, seed),
                           distance=config.kernel.distance)
    return report
