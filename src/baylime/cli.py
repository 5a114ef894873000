"""Command-line front end.

Three subcommands: ``explain`` (one instance, JSON out), ``consistency``
(repeated-explanation sweep over perturbation sizes, CSV out) and
``robustness`` (kernel-width sensitivity sweep, CSV out). Black boxes come
either from built-in fixtures (linear / quadratic / constant, so everything
runs without an external model) or from a subprocess command speaking the
JSON-lines protocol (``--predictor-cmd`` or the BAYLIME_PREDICTOR_CMD
environment variable).

Every file output gets a sibling ``<name>.manifest.json`` recording the
command, all resolved parameters, the toolkit version and a timestamp;
rerunning with the manifest's parameters reproduces the output bytes
exactly (the timestamp lives only in the manifest).

Exit codes: 0 success, 2 configuration or input error, 3 probe/transport
error, 4 surrogate fit error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .blackbox import PREDICTOR_CMD_ENV, PredictorHandle
from .errors import (
    ConfigError,
    FitError,
    InvalidInputError,
    ProbeError,
    UndefinedMetricError,
)
from .explainer import (
    BayLime,
    ExplainConfig,
    LimeRidge,
    _class_handle,
    elicit_prior,
    explain,
    explain_block,
)
from .kernel import DISTANCES, EUCLIDEAN, KernelConfig, distance_note
from .metrics import inconsistency, kendalls_w, robustness, width_pairs
from .perturb import PerturbConfig, build_perturbation_set, config_from_data
from .regression import PriorSpec
from .types import CATEGORICAL, Instance, NUMERICAL

# Explainer spec names and the keys each accepts.
EXPLAINER_KEYS = {"lime": ("r",), "non_informative": (),
                  "partial": ("lambda", "mu0"),
                  "full": ("lambda", "alpha", "mu0")}
DEFAULT_N_GRID = (50, 100, 200, 400, 800, 1600)
DEFAULT_R = 1.0

# Elicitation runs must not share seeds with the sweep cells.
ELICIT_SEED_OFFSET = 1_000_000


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got "
                          f"{text!r}") from exc


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got "
                          f"{text!r}") from exc


# ---------------------------------------------------------------------------
# dataset ingestion


def ingest_csv(path: str, categorical: list[str],
               drop: list[str]) -> tuple[np.ndarray, tuple[str, ...],
                                         tuple[str, ...],
                                         dict[str, dict[str, float]]]:
    """Read a headered UTF-8 CSV into a numeric matrix.

    Categorical columns are encoded as codes in sorted-value order; the
    returned mapping translates column name -> value -> code. All other
    columns must parse as numbers; a failure names the offending row and
    column. Returns (matrix, kinds, names, category_codes).
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not rows or not rows[0]:
        raise ConfigError(f"{path}: empty CSV, need a header row")
    header = [name.strip() for name in rows[0]]
    body = rows[1:]
    if not body:
        raise ConfigError(f"{path}: no data rows")
    for name in categorical + drop:
        if name not in header:
            raise ConfigError(f"{path}: no column named {name!r}")
    keep = [j for j, name in enumerate(header) if name not in drop]
    names = tuple(header[j] for j in keep)
    kinds = tuple(CATEGORICAL if name in categorical else NUMERICAL
                  for name in names)
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise ConfigError(f"{path}: row {i + 2} has {len(row)} fields, "
                              f"header has {len(header)}")
    codes: dict[str, dict[str, float]] = {}
    matrix = np.empty((len(body), len(keep)), dtype=float)
    for out_j, j in enumerate(keep):
        name = names[out_j]
        column = [row[j].strip() for row in body]
        if kinds[out_j] == CATEGORICAL:
            mapping = {value: float(code)
                       for code, value in enumerate(sorted(set(column)))}
            codes[name] = mapping
            matrix[:, out_j] = [mapping[value] for value in column]
        else:
            for i, cell in enumerate(column):
                try:
                    matrix[i, out_j] = float(cell)
                except ValueError:
                    raise ConfigError(
                        f"{path}: row {i + 2}, column {name!r}: non-numeric "
                        f"value {cell!r}"
                    ) from None
    return matrix, kinds, names, codes


def _load_problem(args) -> tuple[Instance, PerturbConfig, dict]:
    """Build the instance and perturbation statistics from the data flags.

    Either ``--data`` (CSV plus ``--instance`` row index) or ``--m``
    (synthetic all-numerical problem with identity scaling, instance at
    ``--instance-values`` or the origin).
    """
    if args.data is not None and args.m is not None:
        raise ConfigError("--data and --m are mutually exclusive")
    if args.data is not None:
        categorical = _split_names(args.categorical)
        drop = _split_names(args.drop_columns)
        matrix, kinds, names, _ = ingest_csv(args.data, categorical, drop)
        if args.instance is None:
            raise ConfigError("--data needs --instance (row index)")
        if not 0 <= args.instance < matrix.shape[0]:
            raise ConfigError(f"--instance {args.instance} out of range for "
                              f"{matrix.shape[0]} rows")
        instance = Instance(matrix[args.instance], kinds, names)
        perturb = config_from_data(matrix, kinds, n=args.n, seed=args.seed)
        source = {"data": args.data, "instance": args.instance,
                  "categorical": categorical, "drop_columns": drop}
        return instance, perturb, source
    if args.m is None:
        raise ConfigError("provide either --data or --m")
    if args.m < 1:
        raise ConfigError("--m must be at least 1")
    if args.instance_values is not None:
        values = np.asarray(_parse_floats(args.instance_values))
        if values.size != args.m:
            raise ConfigError(f"--instance-values has {values.size} entries, "
                              f"--m is {args.m}")
    else:
        values = np.zeros(args.m)
    kinds = (NUMERICAL,) * args.m
    names = tuple(f"f{j}" for j in range(args.m))
    instance = Instance(values, kinds, names)
    perturb = PerturbConfig(
        n=args.n, seed=args.seed,
        numeric_scale={j: (0.0, 1.0) for j in range(args.m)},
    )
    source = {"m": args.m, "instance_values": values.tolist()}
    return instance, perturb, source


def _split_names(text: str | None) -> list[str]:
    if not text:
        return []
    return [part.strip() for part in text.split(",") if part.strip()]


# ---------------------------------------------------------------------------
# predictors


def _fixture_terms(text: str | None, flag: str,
                   default: np.ndarray) -> np.ndarray:
    """A fixture's per-feature terms: the flag's values, else the default."""
    if text is None:
        return default
    values = np.asarray(_parse_floats(text))
    if values.size != default.size:
        raise ConfigError(f"{flag} has {values.size} entries for "
                          f"{default.size} features")
    return values


def _resolve_predictor(args, m: int) -> tuple[PredictorHandle, dict]:
    """Turn the predictor flags into a handle plus its manifest record."""
    command = args.predictor_cmd or os.environ.get(PREDICTOR_CMD_ENV)
    if args.predictor is not None and command:
        raise ConfigError("choose either a built-in --predictor or a "
                          "--predictor-cmd, not both")
    if args.predictor is None and not command:
        raise ConfigError("no predictor configured; use --predictor or "
                          f"--predictor-cmd (or {PREDICTOR_CMD_ENV})")
    if command:
        handle = PredictorHandle.spawn(command, batch_limit=args.batch_limit,
                                       timeout=args.timeout)
        return handle, {"predictor": "subprocess", "command": command}
    if args.predictor == "constant":
        value = args.predictor_constant
        handle = PredictorHandle.in_process(
            lambda rows: np.full(rows.shape[0], value),
            batch_limit=args.batch_limit,
        )
        return handle, {"predictor": "constant", "value": value}
    c = _fixture_terms(args.predictor_coefficients, "--predictor-coefficients",
                       np.array([(m - j) / m for j in range(m)]))
    if args.predictor == "linear":
        handle = PredictorHandle.in_process(lambda rows: rows @ c,
                                            batch_limit=args.batch_limit)
        return handle, {"predictor": "linear", "coefficients": c.tolist()}
    q = _fixture_terms(args.predictor_quad, "--predictor-quad",
                       np.full(m, 0.5))
    handle = PredictorHandle.in_process(
        lambda rows: rows @ c + (rows * rows) @ q,
        batch_limit=args.batch_limit,
    )
    return handle, {"predictor": "quadratic", "coefficients": c.tolist(),
                    "quadratic_terms": q.tolist()}


# ---------------------------------------------------------------------------
# surrogate resolution


def _load_prior_file(path: str) -> dict:
    """Read ``--prior-file``: a bare JSON array (mu0) or an object with
    ``mu0`` and optional ``lambda`` and ``alpha``."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read prior file {path}: {exc}") from exc
    if isinstance(payload, list):
        payload = {"mu0": payload}
    if not isinstance(payload, dict) or not isinstance(payload.get("mu0"),
                                                       list):
        raise ConfigError(f'{path}: expected a JSON array or an object with '
                          f'"mu0"')
    try:
        prior = {"mu0": [float(v) for v in payload["mu0"]]}
        prior.update((key, float(payload[key]))
                     for key in ("lambda", "alpha") if key in payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: non-numeric prior value: {exc}") from exc
    return prior


def _parse_explainer_spec(spec: str) -> tuple[str, dict]:
    """Split ``name[:key=value]*`` into the name and its typed values:
    ``mu0`` a list of floats, ``r``, ``lambda`` and ``alpha`` floats."""
    parts = spec.split(":")
    name = parts[0]
    if name not in EXPLAINER_KEYS:
        raise ConfigError(f"unknown explainer {name!r} in {spec!r}; expected "
                          f"one of {tuple(EXPLAINER_KEYS)}")
    allowed = EXPLAINER_KEYS[name]
    options: dict = {}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep or not value or key not in allowed:
            raise ConfigError(f"bad option {part!r} in explainer spec "
                              f"{spec!r}; {name} accepts "
                              f"{sorted(allowed) or 'no options'}")
        try:
            options[key] = (_parse_floats(value) if key == "mu0"
                            else float(value))
        except ValueError:
            raise ConfigError(f"bad number in option {part!r} of explainer "
                              f"spec {spec!r}") from None
    return name, options


def _build_surrogate(spec: str, name: str, options: dict, m: int,
                     default_r: float, fallback: dict,
                     ) -> tuple[LimeRidge | BayLime, dict]:
    """Turn a parsed explainer spec into a surrogate and its manifest record.

    ``fallback`` supplies the ``mu0``, ``lambda`` and ``alpha`` a partial
    or full spec leaves out; keys in the spec override it.
    """
    record: dict = {"spec": spec, "name": name}
    if name == "lime":
        record["r"] = options.get("r", default_r)
        return LimeRidge(record["r"]), record
    if name == "non_informative":
        return BayLime(PriorSpec.non_informative()), record
    values = {**fallback, **options}
    if name == "partial" and "alpha" in values:
        raise ConfigError(f"explainer {spec!r} fits alpha; do not supply it")
    if "mu0" not in values:
        raise ConfigError(f"explainer {spec!r} needs mu0=")
    mu0 = np.asarray(values["mu0"], dtype=float)
    if mu0.size != m:
        raise ConfigError(f"explainer {spec!r}: mu0 has {mu0.size} "
                          f"entries for {m} features")
    if "lambda" not in values:
        raise ConfigError(f"explainer {spec!r} needs lambda=")
    lam = values["lambda"]
    record.update(mu0=mu0.tolist(), **{"lambda": lam})
    if name == "partial":
        return BayLime(PriorSpec.partial(mu0, lam)), record
    if "alpha" not in values:
        raise ConfigError(f"explainer {spec!r} needs alpha=")
    record["alpha"] = values["alpha"]
    return BayLime(PriorSpec.full(mu0, lam, record["alpha"])), record


def _resolve_sweep_explainers(args, instance: Instance,
                              handle: PredictorHandle,
                              perturb: PerturbConfig,
                              kernel: KernelConfig,
                              ) -> list[tuple[LimeRidge | BayLime, dict]]:
    """Build the sweep's surrogates and records, eliciting a prior on demand.

    Informative explainers without an explicit mu0 share one prior mean
    and lambda, elicited from a few baseline runs on the same instance
    (with dedicated seeds, so sweep cells are unaffected).
    """
    parsed = [(spec, *_parse_explainer_spec(spec))
              for spec in args.explainer or ["lime"]]
    fallback: dict = {}
    if any(name in ("partial", "full") and "mu0" not in options
           for _, name, options in parsed):
        if args.elicit_runs < 1:
            raise ConfigError("--elicit-runs must be at least 1")
        base = ExplainConfig(perturb, kernel, LimeRidge(args.r),
                             args.target_class).with_n(args.elicit_n)
        (runs,) = explain_block(instance, handle, base, (base.surrogate,),
                                args.elicit_runs,
                                seed_base=args.seed + ELICIT_SEED_OFFSET)
        elicited = elicit_prior(runs)
        fallback = {"mu0": elicited.mu0, "lambda": elicited.lam}
    return [_build_surrogate(spec, name, options, instance.m, args.r,
                             fallback)
            for spec, name, options in parsed]


# ---------------------------------------------------------------------------
# manifests and output


def _manifest_path(out: str) -> str:
    return str(Path(out).with_suffix(".manifest.json"))


def _write_manifest(out: str, command: str, parameters: dict,
                    **results) -> str:
    """Write the run's manifest; ``results`` become top-level keys."""
    path = _manifest_path(out)
    manifest = {
        "command": command,
        "parameters": parameters,
        **results,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": [out],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _metric_cell(value: float | None) -> str:
    return "nan" if value is None else repr(value)


def _warn_distance(instance: Instance, kernel: KernelConfig) -> None:
    """One stderr line per sweep when the distance cannot tell samples
    apart."""
    note = distance_note(instance, kernel.distance)
    if note is not None:
        print(f"warning: {note}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_explain(args) -> int:
    instance, perturb, source = _load_problem(args)
    kernel = KernelConfig(width=args.kernel_width, distance=args.distance)
    name, options = _parse_explainer_spec(args.explainer)
    if args.prior_file is not None and name in ("lime", "non_informative"):
        raise ConfigError(f"explainer {args.explainer!r} takes no prior file")
    fallback = (_load_prior_file(args.prior_file)
                if args.prior_file is not None else {})
    surrogate, surrogate_info = _build_surrogate(
        args.explainer, name, options, instance.m, DEFAULT_R, fallback)
    handle, predictor_info = _resolve_predictor(args, instance.m)
    with handle:
        result = explain(instance, handle,
                         ExplainConfig(perturb, kernel, surrogate,
                                       args.target_class))
    manifest_ref = _manifest_path(args.out) if args.out else None
    posterior = result.posterior
    payload = {
        "coefficients": result.coefficients.tolist(),
        "importances": result.importances.tolist(),
        "ranks": result.ranks.tolist(),
        "feature_names": list(instance.feature_names),
        "mode": name,
        "alpha": None if posterior is None else posterior.alpha_used,
        "lambda": None if posterior is None else posterior.lambda_used,
        "r": surrogate_info.get("r"),
        "kernel_width": result.kernel_width,
        "n": result.n_samples,
        "seed": result.seed,
        "warnings": list(result.warnings),
        "manifest": manifest_ref,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text)
        parameters = {
            **source,
            "n": args.n, "seed": args.seed,
            "kernel_width": result.kernel_width, "distance": args.distance,
            "target_class": args.target_class,
            "surrogate": surrogate_info, **predictor_info,
        }
        _write_manifest(args.out, "explain", parameters)
    return 0


def cmd_consistency(args) -> int:
    instance, perturb, source = _load_problem(args)
    kernel = KernelConfig(width=args.kernel_width, distance=args.distance)
    handle, predictor_info = _resolve_predictor(args, instance.m)
    n_grid = (_parse_ints(args.n_grid) if args.n_grid
              else list(DEFAULT_N_GRID))
    if any(n < 2 for n in n_grid) or not n_grid:
        raise ConfigError("--n-grid needs values >= 2")
    if args.k < 2:
        raise ConfigError("--k must be at least 2")
    _warn_distance(instance, kernel)
    rows: list[tuple] = []
    effective = []
    with handle:
        surrogates, records = zip(*_resolve_sweep_explainers(
            args, instance, handle, perturb, kernel))
        base = ExplainConfig(perturb, kernel, surrogates[0],
                             args.target_class)
        for cell, n in enumerate(n_grid):
            # Explainers share each cell's seed block, and each seed's
            # probed sample set, for an exactly paired comparison.
            ensembles = explain_block(instance, handle, base.with_n(n),
                                      surrogates, args.k,
                                      seed_base=args.seed + cell * args.k)
            effective.append(ensembles[0].min_effective_sample_size)
            for record, ensemble in zip(records, ensembles):
                try:
                    inc = inconsistency(ensemble)
                except UndefinedMetricError:
                    inc = None
                try:
                    w = kendalls_w(ensemble)
                except UndefinedMetricError:
                    w = None
                rows.append((n, record["spec"], inc, w))
    effective = min(effective)
    if effective < instance.m:
        print(f"warning: the kernel leaves an effective sample size as low "
              f"as {effective:.3g} for {instance.m} features; coefficients "
              f"in those cells lean on the prior or regularizer, so widen "
              f"the kernel", file=sys.stderr)
    with open(args.out, "w", newline="", encoding="utf-8") as out:
        writer = csv.writer(out)
        writer.writerow(["n", "explainer", "inconsistency", "kendalls_w"])
        for n, label, inc, w in rows:
            writer.writerow([n, label, _metric_cell(inc), _metric_cell(w)])
    parameters = {
        **source,
        "n_grid": list(n_grid), "k": args.k, "seed": args.seed,
        "kernel_width": args.kernel_width, "distance": args.distance,
        "target_class": args.target_class, "explainers": records,
        "elicit_runs": args.elicit_runs, "elicit_n": args.elicit_n,
        **predictor_info,
    }
    _write_manifest(args.out, "consistency", parameters,
                    min_effective_sample_size=effective)
    return 0


def cmd_robustness(args) -> int:
    instance, perturb, source = _load_problem(args)
    kernel = KernelConfig(width=args.kernel_width, distance=args.distance)
    handle, predictor_info = _resolve_predictor(args, instance.m)
    if not args.l_lo < args.l_up:
        raise ConfigError("--l-lo must be below --l-up")
    _warn_distance(instance, kernel)
    rows: list[tuple] = []
    with handle:
        surrogates, records = zip(*_resolve_sweep_explainers(
            args, instance, handle, perturb, kernel))
        # One perturbation set serves every pair and every explainer, and
        # each width is weighted once for all explainers.
        pset = build_perturbation_set(
            instance, perturb, _class_handle(handle, args.target_class))
        pair_list = width_pairs(args.pairs, (args.l_lo, args.l_up), args.seed)
        reports = robustness(pset, instance, surrogates, pair_list,
                             distance=kernel.distance)
        effective = reports[0].min_effective_sample_size
        if effective < instance.m:
            print(f"warning: the kernel leaves an effective sample size "
                  f"as low as {effective:.3g} for {instance.m} features; "
                  f"ratios at those widths measure the prior or "
                  f"regularizer, not the model, so raise --l-lo",
                  file=sys.stderr)
        for record, report in zip(records, reports):
            label = record["spec"]
            for l1, l2, ratio in report.robustness_samples:
                rows.append((label, "sample", repr(l1), repr(l2), repr(ratio)))
            rows.append((label, "median", "", "",
                         repr(report.robustness_r)))
    with open(args.out, "w", newline="", encoding="utf-8") as out:
        writer = csv.writer(out)
        writer.writerow(["explainer", "record", "l1", "l2", "value"])
        writer.writerows(rows)
    parameters = {
        **source,
        "n": args.n, "pairs": args.pairs, "l_lo": args.l_lo,
        "l_up": args.l_up, "seed": args.seed,
        "distance": args.distance, "target_class": args.target_class,
        "explainers": records, "elicit_runs": args.elicit_runs,
        "elicit_n": args.elicit_n, **predictor_info,
    }
    _write_manifest(args.out, "robustness", parameters,
                    min_effective_sample_size=effective)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", help="CSV dataset with a header row")
    parser.add_argument("--instance", type=int,
                        help="row index into --data (0-based)")
    parser.add_argument("--categorical",
                        help="comma-separated categorical column names")
    parser.add_argument("--drop-columns",
                        help="comma-separated columns to ignore")
    parser.add_argument("--m", type=int,
                        help="synthetic problem: number of numerical "
                             "features with identity scaling")
    parser.add_argument("--instance-values",
                        help="comma-separated instance for --m (default "
                             "origin)")
    parser.add_argument("--n", type=int, default=1000,
                        help="perturbed samples per explanation")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kernel-width", type=float, default=None,
                        help="kernel width (default 0.75*sqrt(m))")
    parser.add_argument("--distance", choices=DISTANCES, default=EUCLIDEAN,
                        help="sample-to-instance distance; "
                             "binary_hamming_fraction counts every nonzero "
                             "numerical offset as a mismatch, so on an "
                             "all-numerical problem every sample gets the "
                             "same weight")
    parser.add_argument("--target-class", type=int, default=None,
                        help="class column for probability predictors")


def _add_predictor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--predictor",
                        choices=("linear", "quadratic", "constant"),
                        help="built-in fixture black box")
    parser.add_argument("--predictor-coefficients",
                        help="linear coefficients for the fixtures "
                             "(default (m-j)/m ramp)")
    parser.add_argument("--predictor-quad",
                        help="quadratic-term coefficients (default 0.5 each)")
    parser.add_argument("--predictor-constant", type=float, default=0.0,
                        help="output of the constant fixture")
    parser.add_argument("--predictor-cmd",
                        help="subprocess predictor command (JSON lines; "
                             f"also via {PREDICTOR_CMD_ENV})")
    parser.add_argument("--batch-limit", type=int, default=1024,
                        help="max rows per predictor call")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="seconds to wait per predictor response")


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--explainer", action="append",
                        help="explainer spec, repeatable: name[:key=value]* "
                             "with name in lime|non_informative|partial|full "
                             "and keys r=, lambda=, alpha=, mu0= (default "
                             "lime)")
    parser.add_argument("--r", type=float, default=DEFAULT_R,
                        help="ridge regularizer for lime explainers")
    parser.add_argument("--elicit-runs", type=int, default=5,
                        help="baseline runs used to elicit a prior mean "
                             "when an informative explainer omits mu0=")
    parser.add_argument("--elicit-n", type=int, default=1000,
                        help="samples per elicitation run")
    parser.add_argument("--out", required=True, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baylime",
        description="Local surrogate explanations with Bayesian priors, "
                    "plus consistency and robustness sweeps.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    explain_cmd = commands.add_parser(
        "explain", help="explain one instance, JSON to stdout")
    _add_problem_flags(explain_cmd)
    _add_predictor_flags(explain_cmd)
    explain_cmd.add_argument("--explainer", default="lime",
                             help="explainer spec, as for the sweeps "
                                  "(default lime, with r=1)")
    explain_cmd.add_argument("--prior-file",
                             help="prior values for a partial or full spec: "
                                  'a JSON mu0 array or {"mu0": [...], '
                                  '"lambda": x?, "alpha": x?}; spec keys '
                                  "override file fields")
    explain_cmd.add_argument("--out", help="also write the JSON here "
                                           "(with a manifest)")
    explain_cmd.set_defaults(func=cmd_explain)

    consistency_cmd = commands.add_parser(
        "consistency",
        help="repeated-explanation agreement across perturbation sizes")
    _add_problem_flags(consistency_cmd)
    _add_predictor_flags(consistency_cmd)
    _add_sweep_flags(consistency_cmd)
    consistency_cmd.add_argument(
        "--n-grid", help="comma-separated perturbation sizes (default "
                         + ",".join(str(n) for n in DEFAULT_N_GRID) + ")")
    consistency_cmd.add_argument("--k", type=int, default=200,
                                 help="repeated explanations per cell")
    consistency_cmd.set_defaults(func=cmd_consistency)

    robustness_cmd = commands.add_parser(
        "robustness", help="explanation sensitivity to the kernel width")
    _add_problem_flags(robustness_cmd)
    _add_predictor_flags(robustness_cmd)
    _add_sweep_flags(robustness_cmd)
    robustness_cmd.add_argument("--pairs", type=int, default=100)
    robustness_cmd.add_argument("--l-lo", type=float, default=0.2)
    robustness_cmd.add_argument("--l-up", type=float, default=5.0)
    robustness_cmd.set_defaults(func=cmd_robustness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProbeError as exc:
        print(f"probe error: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
