"""The package's public surface, and what the benchmark harness relies on.

``bench/`` imports and patches names of the package from outside. A rename
there would not fail any other test, only the benchmark, so these checks
pin every name it uses.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np

import baylime
from conftest import fit_surrogate

BENCH = Path(__file__).resolve().parents[1] / "bench"

PUBLIC = [
    "__version__",
    "BINARY_MASK", "CATEGORICAL", "NUMERICAL",
    "BayLime", "BaylimeError", "ConfigError", "ContractViolationError",
    "ConvergenceError", "DecompositionError", "ExplainConfig", "Explanation",
    "ExplanationEnsemble", "FitError", "Instance", "InvalidInputError",
    "KernelConfig", "LimeRidge", "MetricReport", "PerturbConfig",
    "PerturbationSet", "PredictorHandle", "PriorSpec", "ProbeError",
    "ShapeError", "SingularityError", "SurrogateFit", "UndefinedMetricError",
    "apply_weights", "column_statistics",
    "config_from_data", "decompose", "default_width", "elicit_prior",
    "explain", "explain_block", "frequency_table",
    "inconsistency", "kendalls_w", "kernel_weight", "normalize_coefficients",
    "perturb_matrix", "probe", "rank_features", "robustness",
    "select_class", "width_pairs", "with_class",
]


def test_public_names():
    assert baylime.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(baylime, name), name


def bench_imports(filename: str) -> list[tuple[str, str]]:
    """(module, name) for every ``from baylime... import name`` in a file."""
    tree = ast.parse((BENCH / filename).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module.split(".")[0] == "baylime"
            for alias in node.names]


def test_names_the_benchmark_uses_resolve():
    imported = bench_imports("workloads.py") + bench_imports("tracing.py")
    assert ("baylime.explainer", "BayLime") in imported
    for module, name in imported:
        # ``from baylime import cli`` names a submodule.
        if not hasattr(importlib.import_module(module), name):
            importlib.import_module(f"{module}.{name}")
    tracing = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tracing.body
                  if isinstance(node, ast.Assign)
                  and node.targets[0].id == "LAYERS")
    for layer in layers:
        importlib.import_module(f"baylime.{layer}")

    from baylime import cli, explainer, kernel, perturb, regression, types
    from baylime.blackbox import PredictorHandle, probe

    # Called by name: the explain workloads, their checks and the sweeps.
    for owner, name in ((explainer, "explain"), (kernel, "apply_weights"),
                        (regression, "decompose"), (perturb, "perturb_matrix"),
                        (perturb, "config_from_data"), (cli, "main"),
                        (types, "rank_features")):
        assert callable(getattr(owner, name)), name
    # The robustness workload wraps this classmethod to count rows.
    assert isinstance(PredictorHandle.__dict__["in_process"], classmethod)
    # The explain checks build a set positionally, decompose a posterior
    # on it, and read the posterior's hyperparameters.
    fields = [field.name for field in dataclasses.fields(types.PerturbationSet)]
    assert fields == ["rows", "labels", "weights", "seed"]
    pset = types.PerturbationSet(np.array([[1.0, 0.5], [0.0, 2.0]]),
                                 np.ones(2), np.ones(2), 0)
    fit = fit_surrogate(pset, regression.PriorSpec.full(np.zeros(2), 1.0,
                                                        2.0))
    a, b = regression.decompose(fit, pset)
    assert np.max(np.abs(a + b - np.eye(2))) <= 1e-9
    fit_fields = {field.name for field in
                  dataclasses.fields(regression.SurrogateFit)}
    assert {"lambda_used", "alpha_used"} <= fit_fields
    for function, parameters in (
            (explainer.explain, ["instance", "predictor", "config"]),
            (perturb.perturb_matrix, ["instance", "config"]),
            (probe, ["handle", "rows"]),
            (regression.decompose, ["fit", "pset"])):
        assert list(inspect.signature(function).parameters) == parameters
