"""Helpers and fixtures shared by the test modules.

The package fits only stacks of weighted sets (``ridge_rows`` and
``posterior_rows``); a single explanation is the one-row stack of a seed
block. These helpers build the stacks the tests need with the package's
one reducer (``reduce_set`` and ``join_sets``): one set alone, s
different sets (a seed block's layout) and one set under s weightings (a
robustness sweep's layout), and wrap the one-row fits as plain functions.
``explanation`` builds a run from its coefficients; ``manifest_argv``
rebuilds a CLI command from its manifest. Test modules import them with
``from conftest import ...``. Every test runs under
``predictor_children``, which fails it if a predictor child outlives it.
"""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from baylime import (
    Explanation,
    ExplanationEnsemble,
    MetricReport,
    build_perturbation_set,
    normalize_coefficients,
    rank_features,
    robustness,
    width_pairs,
)
from baylime.blackbox import SubprocessPredictor
from baylime.cli import build_parser
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


def explanation(coefficients, **fields) -> Explanation:
    """The explanation of these raw coefficients, its importances and ranks
    derived as a fit's are; ``fields`` default to width 1 and 10 samples."""
    coefficients = np.asarray(coefficients, dtype=float)
    fields = {"kernel_width": 1.0, "n_samples": 10, **fields}
    return Explanation(coefficients,
                       np.abs(normalize_coefficients(coefficients)),
                       rank_features(coefficients), **fields)


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

    The set is drawn with the seed in ``config.perturb`` and refit at both
    widths of every sampled pair with the configured distance; ``seed``
    drives only the width sampling.
    """
    pset = build_perturbation_set(instance, config.perturb, handle)
    (report,) = robustness(pset, instance, (config.surrogate,),
                           width_pairs(pairs, bounds, seed),
                           distance=config.kernel.distance)
    return report


@pytest.fixture(autouse=True)
def predictor_children(monkeypatch):
    """Every :class:`SubprocessPredictor` the test starts, in order.

    A child still running when the test ends is killed, and the test fails.
    """
    started = []
    start = SubprocessPredictor.__init__

    def recording(self, *args, **kwargs):
        start(self, *args, **kwargs)
        started.append(self)

    monkeypatch.setattr(SubprocessPredictor, "__init__", recording)
    yield started
    running = [p for p in started if p._proc.poll() is None]
    for predictor in running:
        predictor._proc.kill()
        predictor._proc.wait()
    assert not running, ("predictor children left running: "
                         f"{[p.command for p in running]}")


def command_parser(command: str) -> argparse.ArgumentParser:
    """The CLI's parser for one subcommand."""
    (commands,) = (action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    return commands.choices[command]


def manifest_argv(manifest: dict) -> list[str]:
    """The CLI argv that reruns a manifest's command from its parameters.

    Every flag gets its recorded value, a list as comma-separated values
    or, for a repeatable flag, one flag per entry.
    """
    parameters = manifest["parameters"]
    argv = [manifest["command"]]
    for action in command_parser(manifest["command"])._actions:
        value = parameters.get(action.dest)
        flag = action.option_strings[0]
        if value is None:
            continue
        if isinstance(action, argparse._AppendAction):
            argv += [f"{flag}={entry}" for entry in value]
        elif isinstance(value, list):
            argv.append(f"{flag}={','.join(map(str, value))}")
        else:
            argv.append(f"{flag}={value}")
    return argv
