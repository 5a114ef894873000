"""Helpers and fixtures shared by the test modules.

The package fits only stacks of weighted sets (``ridge_rows`` and
``posterior_rows``); a single explanation is the one-row stack of a seed
block. These helpers build the stacks the tests need with the reducer in
``regression``, the one module that knows the stack-row format
(``reduce_set`` and ``join_sets``): one set alone, s different sets (a
seed block's layout) and one set under s weightings (a robustness
sweep's layout), and wrap the one-row fits as plain functions;
``spectrum_of`` decomposes one set alone with the reducer's helpers.
``probed_set`` draws and labels a set as the package does, for checks
that weight and fit it by hand. ``explanation`` builds a run from its
coefficients; ``manifest_argv`` rebuilds a CLI command from its manifest.
Test modules import them with ``from conftest import ...``. Every test runs
under ``predictor_children``, which fails it if a predictor child outlives
it.
"""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from baylime import (
    Explanation,
    ExplanationEnsemble,
    MetricReport,
    PerturbationSet,
    normalize_coefficients,
    perturb_matrix,
    probe,
    rank_features,
    robustness,
    width_pairs,
)
from baylime import explainer
from baylime.blackbox import SubprocessPredictor
from baylime.cli import build_parser
from baylime.regression import (MAX_ITER, WeightedStack, _spectra,
                                _weighted_moments, join_sets, posterior_rows,
                                reduce_set, ridge_rows)


def one_row_stack(pset) -> WeightedStack:
    """The one-row stack of a weighted set."""
    return stack_sets([pset])


def stack_sets(sets, *, evidence: bool = True) -> WeightedStack:
    """Different weighted sets of one size, one row each, in order.

    As a seed block lays its seeds out, each set decomposed as it is
    reduced; without ``evidence`` the stack carries no evidence inputs.
    """
    return join_sets([reduce_set(pset.rows, pset.labels, pset.weights[None],
                                 evidence)
                      for pset in sets], sets[0].n)


def stack_weights(base, weights) -> WeightedStack:
    """One set under each row of ``weights``, as a robustness sweep stacks
    its widths: in blocks of ``explainer.WEIGHT_BLOCK`` doubles, each
    block's X'WX decomposed in one batched ``eigh``."""
    weights = np.asarray(weights, dtype=float)
    step = max(1, explainer.WEIGHT_BLOCK // base.n)
    return join_sets([reduce_set(base.rows, base.labels, weights[i:i + step],
                                 True)
                      for i in range(0, len(weights), step)], base.n)


def spectrum_of(pset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eig, V, V'X'WY) of one weighted set's X'WX and X'WY, decomposed
    alone as the one-row case of ``regression._spectra``."""
    gram, moment = _weighted_moments(pset.rows, pset.labels, pset.weights)
    eig, vectors, b = _spectra(gram[None], moment[None])
    return eig[0], vectors[0], b[0]


def ridge_fit(pset, r: float = 0.0) -> np.ndarray:
    """Weighted ridge coefficients (X'WX + rI)^-1 X'WY of one set."""
    fit = ridge_rows(one_row_stack(pset), r)
    if fit.error is not None:
        raise fit.error
    return fit.coefficients[0]


def fit_surrogate(pset, prior, *, max_iter: int = MAX_ITER):
    """The posterior of one set under the prior's knowledge mode."""
    stack = one_row_stack(pset)
    fit = posterior_rows(stack, prior, max_iter=max_iter)
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


def probed_set(instance, perturb, handle) -> PerturbationSet:
    """The set ``perturb`` draws, labelled in one probe, with unit weights."""
    rows, original = perturb_matrix(instance, perturb)
    return PerturbationSet(rows, probe(handle, original),
                           np.ones(perturb.n), perturb.seed)


def sweep(instance, handle, config, *, pairs: int,
          bounds: tuple[float, float] = (0.2, 5.0),
          seed: int = 0) -> MetricReport:
    """Sweep ``config``'s surrogate over sampled width pairs.

    The set is drawn with the seed in ``config.perturb`` and refit at both
    widths of every sampled pair with the configured distance; ``seed``
    drives only the width sampling.
    """
    (report,) = robustness(instance, handle, config.perturb,
                           (config.surrogate,),
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
