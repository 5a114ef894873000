"""Command-line front end.

Three subcommands: ``explain`` (one instance, JSON out), ``consistency``
(repeated-explanation sweep over perturbation sizes, CSV out) and
``robustness`` (kernel-width sensitivity sweep, CSV out). Black boxes come
either from built-in fixtures (linear / quadratic / constant, so everything
runs without an external model) or from a subprocess command speaking the
JSON-lines protocol (``--predictor-cmd`` or the BAYLIME_PREDICTOR_CMD
environment variable).

The three share one setup, which checks every flag before the predictor
starts and closes the predictor however the command ends. Flags must be
spelled in full. Every file output gets a sibling ``<name>.manifest.json``
recording the command, every flag's parsed value under what the run
resolved (parsed lists, kernel width, predictor values, explainer records),
the toolkit version and a timestamp; rerunning with the manifest's
parameters reproduces the output bytes exactly (the timestamp lives only
in the manifest).

Exit codes: 0 success, 2 configuration or input error, 3 probe/transport
error, 4 surrogate fit error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, NamedTuple, TextIO

import numpy as np

from . import __version__
from .blackbox import (BATCH_LIMIT, MAX_TIMEOUT, PREDICTOR_CMD_ENV, TIMEOUT,
                       PredictorHandle, with_class)
from .errors import (
    ConfigError,
    FitError,
    InvalidInputError,
    ProbeError,
    ShapeError,
    UndefinedMetricError,
)
from .explainer import (
    DEFAULT_R,
    BayLime,
    ExplainConfig,
    LimeRidge,
    check_surrogates,
    elicit_prior,
    explain,
    explain_block,
)
from .kernel import DISTANCES, EUCLIDEAN, KernelConfig, distance_note
from .metrics import inconsistency, kendalls_w, robustness, width_pairs
from .perturb import PerturbConfig, config_from_data
from .regression import PRIOR_KEYS, PriorSpec
from .types import CATEGORICAL, Instance, NUMERICAL

# Explainer spec names and the keys each accepts.
EXPLAINER_KEYS = {"lime": ("r",), **PRIOR_KEYS}
DEFAULT_N_GRID = (50, 100, 200, 400, 800, 1600)

# Elicitation runs must not share seeds with the sweep cells.
ELICIT_SEED_OFFSET = 1_000_000


def _parse_list(text: str, kind: type = float) -> list:
    """A comma-separated list of ``kind`` values (float or int)."""
    try:
        return [kind(part) for part in text.split(",")]
    except ValueError as exc:
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"expected comma-separated {noun}, got "
                          f"{text!r}") from exc


# ---------------------------------------------------------------------------
# dataset ingestion


def ingest_csv(path: str, categorical: list[str],
               drop: list[str]) -> tuple[np.ndarray, tuple[str, ...],
                                         tuple[str, ...],
                                         dict[str, dict[str, float]]]:
    """Read a headered UTF-8 CSV, with or without a byte-order mark, into a
    numeric matrix.

    Categorical columns are encoded as codes in sorted-value order; the
    returned mapping translates column name -> value -> code. All other
    columns must parse as numbers; a failure names the offending row and
    column. Returns (matrix, kinds, names, category_codes).
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
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


def _load_problem(args, n: int) -> tuple[Instance, PerturbConfig, dict]:
    """Build the instance and its n-sample perturbation statistics from the
    data flags, plus the parsed lists the manifest records.

    Either ``--data`` (CSV plus ``--instance`` row index) or ``--m``
    (synthetic all-numerical problem with identity scaling, instance at
    ``--instance-values`` or the origin).
    """
    if args.data is not None and args.m is not None:
        raise ConfigError("--data and --m are mutually exclusive")
    if args.data is not None:
        _refuse_unused({"--instance-values": args.instance_values},
                       "with --data")
        categorical = _split_names(args.categorical)
        drop = _split_names(args.drop_columns)
        matrix, kinds, names, _ = ingest_csv(args.data, categorical, drop)
        if args.instance is None:
            raise ConfigError("--data needs --instance (row index)")
        if not 0 <= args.instance < matrix.shape[0]:
            raise ConfigError(f"--instance {args.instance} out of range for "
                              f"{matrix.shape[0]} rows")
        instance = Instance(matrix[args.instance], kinds, names)
        perturb = config_from_data(matrix, kinds, n=n, seed=args.seed)
        return instance, perturb, {"categorical": categorical,
                                   "drop_columns": drop}
    if args.m is None:
        raise ConfigError("provide either --data or --m")
    if args.m < 1:
        raise ConfigError("--m must be at least 1")
    _refuse_unused({"--instance": args.instance,
                    "--categorical": args.categorical,
                    "--drop-columns": args.drop_columns}, "without --data")
    if args.instance_values is not None:
        values = np.asarray(_parse_list(args.instance_values))
        if values.size != args.m:
            raise ConfigError(f"--instance-values has {values.size} entries, "
                              f"--m is {args.m}")
    else:
        values = np.zeros(args.m)
    kinds = (NUMERICAL,) * args.m
    names = tuple(f"f{j}" for j in range(args.m))
    instance = Instance(values, kinds, names)
    perturb = PerturbConfig(
        n=n, seed=args.seed,
        numeric_scale={j: (0.0, 1.0) for j in range(args.m)},
    )
    return instance, perturb, {"instance_values": values.tolist()}


def _refuse_unused(flags: dict, reason: str) -> None:
    """Refuse each flag given a value: the run ignores it, ``reason`` why."""
    for flag, value in flags.items():
        if value is not None:
            raise ConfigError(f"{flag} does not apply {reason}")


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
    values = np.asarray(_parse_list(text))
    if values.size != default.size:
        raise ConfigError(f"{flag} has {values.size} entries for "
                          f"{default.size} features")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{flag} must be finite")
    return values


def _resolve_predictor(args, m: int) -> tuple[PredictorHandle, dict]:
    """Turn the predictor flags into a handle plus the values it resolved,
    each under its own flag's manifest key."""
    command = args.predictor_cmd or os.environ.get(PREDICTOR_CMD_ENV)
    if args.predictor is not None and command:
        raise ConfigError("choose either a built-in --predictor or a "
                          "--predictor-cmd, not both")
    if args.predictor is None and not command:
        raise ConfigError("no predictor configured; use --predictor or "
                          f"--predictor-cmd (or {PREDICTOR_CMD_ENV})")
    if not np.isfinite(args.predictor_constant):
        raise ConfigError("--predictor-constant must be finite")
    terms = (("--predictor-coefficients", args.predictor_coefficients),
             ("--predictor-quad", args.predictor_quad))
    kind = "subprocess" if command else args.predictor
    reads = {"linear": 1, "quadratic": 2}.get(kind, 0)
    _refuse_unused(dict(terms[reads:]), f"to a {kind} predictor")
    if command:
        handle = PredictorHandle.spawn(command, batch_limit=args.batch_limit,
                                       timeout=args.timeout)
        return handle, {"predictor_cmd": command}
    values: dict = {}
    if args.predictor == "constant":
        value = args.predictor_constant
        fn = lambda rows: np.full(rows.shape[0], value)
    else:
        c = _fixture_terms(args.predictor_coefficients,
                           "--predictor-coefficients",
                           np.array([(m - j) / m for j in range(m)]))
        values["predictor_coefficients"] = c.tolist()
        fn = lambda rows: rows @ c
        if args.predictor == "quadratic":
            q = _fixture_terms(args.predictor_quad, "--predictor-quad",
                               np.full(m, 0.5))
            values["predictor_quad"] = q.tolist()
            fn = lambda rows: rows @ c + (rows * rows) @ q
    return PredictorHandle.in_process(fn, batch_limit=args.batch_limit), values


# ---------------------------------------------------------------------------
# surrogate resolution


def _load_prior_file(path: str) -> dict:
    """Read ``--prior-file``: a bare JSON array (mu0) or an object with
    ``mu0`` and optional ``lambda`` and ``alpha``, in UTF-8 with or without
    a byte-order mark."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read prior file {path}: {exc}") from exc
    if isinstance(payload, list):
        payload = {"mu0": payload}
    if not isinstance(payload, dict) or not isinstance(payload.get("mu0"),
                                                       list):
        raise ConfigError(f'{path}: expected a JSON array or an object with '
                          f'"mu0"')
    unknown = sorted(set(payload) - {"mu0", "lambda", "alpha"})
    if unknown:
        raise ConfigError(f"{path}: unknown prior keys {unknown}; expected "
                          f"mu0, lambda and alpha")
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
        if key in options:
            raise ConfigError(f"option {key!r} repeated in explainer spec "
                              f"{spec!r}")
        try:
            options[key] = (_parse_list(value) if key == "mu0"
                            else float(value))
        except ValueError:
            raise ConfigError(f"bad number in option {part!r} of explainer "
                              f"spec {spec!r}") from None
    return name, options


def _build_surrogate(spec: str, name: str, options: dict, default_r: float,
                     fallback: dict) -> tuple[LimeRidge | BayLime, dict]:
    """Turn a parsed explainer spec into a surrogate and its manifest record.

    ``fallback`` supplies the ``mu0`` (a list), ``lambda`` and ``alpha`` a
    spec that takes a prior leaves out; keys in the spec override it.
    :class:`PriorSpec` judges the values, and its error names the spec.
    """
    record: dict = {"spec": spec, "name": name}
    if name == "lime":
        record["r"] = options.get("r", default_r)
        return LimeRidge(record["r"]), record
    values = ({**fallback, **options} if "mu0" in EXPLAINER_KEYS[name]
              else options)
    try:
        prior = PriorSpec(name, values.get("mu0"), values.get("lambda"),
                          values.get("alpha"))
    except ConfigError as exc:
        raise ConfigError(f"explainer {spec!r}: {exc}") from None
    record.update(values)
    return BayLime(prior), record


class _Run(NamedTuple):
    """What a command runs on, set up by :func:`_setup`."""

    instance: Instance
    perturb: PerturbConfig
    kernel: KernelConfig
    handle: PredictorHandle
    surrogates: tuple[LimeRidge | BayLime, ...]
    records: tuple[dict, ...]
    resolved: dict


@contextmanager
def _setup(args, n: int, **lists) -> Iterator[_Run]:
    """Check every flag, then start the predictor and yield the run.

    The problem (at n samples), the kernel, the ``--out`` and manifest
    paths (in a directory, neither one itself), each explainer spec
    (against a stand-in of any prior a sweep will elicit), the prior file
    and the elicitation's counts and ridge are checked first. The predictor
    closes when the ``with`` block ends and is probed via ``--target-class``.
    ``resolved`` is what the manifest lays over the flags: parsed lists (a
    command's own ``lists`` too), kernel width, predictor and explainers.
    """
    sweep = args.command != "explain"
    instance, perturb, resolved = _load_problem(args, n)
    kernel = KernelConfig(width=args.kernel_width, distance=args.distance)
    if args.target_class is not None and args.target_class < 0:
        raise ConfigError("target_class must be non-negative")
    if args.out is not None:
        out = Path(args.out)
        if not out.parent.is_dir():
            raise ConfigError(f"--out {args.out}: no directory {out.parent}")
        # The output first: a directory such as / has no manifest path.
        blocked = args.out if out.is_dir() else _manifest_path(args.out)
        if Path(blocked).is_dir():
            raise ConfigError(f"cannot write {blocked}: it is a directory")
    parsed = [(spec, *_parse_explainer_spec(spec)) for spec in
              ((args.explainer or ["lime"]) if sweep else [args.explainer])]
    elicit = sweep and any("mu0" in EXPLAINER_KEYS[name] and "mu0" not in opts
                           for _, name, opts in parsed)
    fallback: dict = {}
    if elicit:
        for flag, value in (("--elicit-runs", args.elicit_runs),
                            ("--elicit-n", args.elicit_n)):
            if value < 1:
                raise ConfigError(f"{flag} must be at least 1")
        fallback = {"mu0": [0.0] * instance.m, "lambda": 1.0}
        baseline = (LimeRidge(args.r),)
    elif not sweep and args.prior_file is not None:
        if "mu0" not in EXPLAINER_KEYS[parsed[0][1]]:
            raise ConfigError(f"explainer {args.explainer!r} takes no prior "
                              f"file")
        fallback = _load_prior_file(args.prior_file)
    default_r = args.r if sweep else DEFAULT_R

    def resolve(fallback: dict) -> list[tuple[LimeRidge | BayLime, dict]]:
        return [_build_surrogate(*spec, default_r, fallback)
                for spec in parsed]

    explainers = resolve(fallback)
    for surrogate, record in explainers:
        try:
            check_surrogates((surrogate,), instance.m)
        except ShapeError as exc:
            raise ConfigError(f"explainer {record['spec']!r}: {exc}") from None
    predictor, predictor_values = _resolve_predictor(args, instance.m)
    with predictor:
        handle = (predictor if args.target_class is None
                  else with_class(predictor, args.target_class))
        note = distance_note(instance, kernel.distance) if sweep else None
        if note is not None:
            print(f"warning: {note}", file=sys.stderr)
        if elicit:
            plan = replace(perturb, n=args.elicit_n,
                           seed=args.seed + ELICIT_SEED_OFFSET)
            (runs,) = explain_block(instance, handle, plan, kernel,
                                    baseline, args.elicit_runs)
            prior = elicit_prior(runs)
            explainers = resolve({"mu0": prior.mu0.tolist(),
                                  "lambda": prior.lam})
        surrogates, records = zip(*explainers)
        resolved.update(lists, **predictor_values,
                        kernel_width=kernel.resolved_width(instance.m))
        resolved.update({"explainers": records} if sweep
                        else {"surrogate": records[0]})
        yield _Run(instance, perturb, kernel, handle, surrogates, records,
                   resolved)


# ---------------------------------------------------------------------------
# manifests and output


def _manifest_path(out: str) -> str:
    return str(Path(out).with_suffix(".manifest.json"))


@contextmanager
def _writing(path: str) -> Iterator[TextIO]:
    """``path`` open for writing; a failure to open or write it is an
    input error."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_manifest(args, run: _Run, **results) -> None:
    """Write the manifest of ``--out``: every flag as parsed, defaults
    included, under the run's resolved values; ``results`` are top-level
    keys."""
    parameters = {key: value for key, value in vars(args).items()
                  if key not in ("func", "command")}
    manifest = {
        "command": args.command,
        "parameters": {**parameters, **run.resolved},
        **results,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": [args.out],
    }
    with _writing(_manifest_path(args.out)) as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_csv(args, run: _Run, header: list[str], rows: list[tuple],
               **results) -> None:
    """Write a sweep's CSV to ``--out``, then its manifest."""
    with _writing(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    _write_manifest(args, run, **results)


def _metric_cell(metric, ensemble) -> str:
    """A consistency metric's CSV cell: ``nan`` where it is undefined."""
    try:
        return repr(metric(ensemble))
    except UndefinedMetricError:
        return "nan"


def _warn_effective(effective: float, m: int, consequence: str) -> None:
    """One stderr line per sweep when the kernel leaves fewer effective
    samples than features somewhere."""
    if effective < m:
        print(f"warning: the kernel leaves an effective sample size as low "
              f"as {effective:.3g} for {m} features; {consequence}",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_explain(args) -> int:
    with _setup(args, args.n) as run:
        result = explain(run.instance, run.handle,
                         ExplainConfig(run.perturb, run.kernel,
                                       run.surrogates[0]))
    posterior = result.posterior
    payload = {
        "coefficients": result.coefficients.tolist(),
        "importances": result.importances.tolist(),
        "ranks": result.ranks.tolist(),
        "feature_names": list(run.instance.feature_names),
        "mode": run.records[0]["name"],
        "alpha": None if posterior is None else posterior.alpha_used,
        "lambda": None if posterior is None else posterior.lambda_used,
        "r": run.records[0].get("r"),
        "kernel_width": result.kernel_width,
        "n": result.n_samples,
        "seed": result.seed,
        "warnings": list(result.warnings),
        "manifest": _manifest_path(args.out) if args.out else None,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.out:
        with _writing(args.out) as out:
            out.write(text)
        _write_manifest(args, run)
    return 0


def cmd_consistency(args) -> int:
    n_grid = (_parse_list(args.n_grid, int) if args.n_grid
              else list(DEFAULT_N_GRID))
    if any(n < 2 for n in n_grid) or not n_grid:
        raise ConfigError("--n-grid needs values >= 2")
    if args.k < 2:
        raise ConfigError("--k must be at least 2")
    rows: list[tuple] = []
    effective = []
    with _setup(args, n_grid[0], n_grid=n_grid) as run:
        for cell, n in enumerate(n_grid):
            # Explainers share each cell's seed block, and each seed's
            # probed sample set, for an exactly paired comparison.
            plan = replace(run.perturb, n=n, seed=args.seed + cell * args.k)
            ensembles = explain_block(run.instance, run.handle, plan,
                                      run.kernel, run.surrogates, args.k)
            effective.append(ensembles[0].min_effective_sample_size)
            rows.extend((n, record["spec"],
                         _metric_cell(inconsistency, ensemble),
                         _metric_cell(kendalls_w, ensemble))
                        for record, ensemble in zip(run.records, ensembles))
    effective = min(effective)
    _warn_effective(effective, run.instance.m,
                    "coefficients in those cells lean on the prior or "
                    "regularizer, so widen the kernel")
    _write_csv(args, run, ["n", "explainer", "inconsistency", "kendalls_w"],
               rows, min_effective_sample_size=effective)
    return 0


def cmd_robustness(args) -> int:
    pair_list = width_pairs(args.pairs, (args.l_lo, args.l_up), args.seed)
    with _setup(args, args.n) as run:
        # One perturbation set serves every pair and every explainer, and
        # each width is weighted once for all explainers.
        reports = robustness(run.instance, run.handle, run.perturb,
                             run.surrogates, pair_list,
                             distance=run.kernel.distance)
    effective = reports[0].min_effective_sample_size
    _warn_effective(effective, run.instance.m,
                    "ratios at those widths measure the prior or "
                    "regularizer, not the model, so raise --l-lo")
    rows: list[tuple] = []
    for record, report in zip(run.records, reports):
        label = record["spec"]
        rows.extend((label, "sample", repr(l1), repr(l2), repr(ratio))
                    for l1, l2, ratio in report.robustness_samples)
        rows.append((label, "median", "", "", repr(report.robustness_r)))
    _write_csv(args, run, ["explainer", "record", "l1", "l2", "value"], rows,
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
    parser.add_argument("--batch-limit", type=int, default=BATCH_LIMIT,
                        help="max rows per predictor call")
    parser.add_argument("--timeout", type=float, default=TIMEOUT,
                        help="seconds allowed per predictor request, to "
                             "write it and read its answer (at most "
                             f"{MAX_TIMEOUT:g})")


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
        prog="baylime", allow_abbrev=False,
        description="Local surrogate explanations with Bayesian priors, "
                    "plus consistency and robustness sweeps.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def subcommand(name: str, func, help: str) -> argparse.ArgumentParser:
        command = commands.add_parser(name, help=help, allow_abbrev=False)
        command.set_defaults(func=func)
        _add_problem_flags(command)
        _add_predictor_flags(command)
        return command

    explain_cmd = subcommand("explain", cmd_explain,
                             "explain one instance, JSON to stdout")
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

    consistency_cmd = subcommand(
        "consistency", cmd_consistency,
        "repeated-explanation agreement across perturbation sizes")
    _add_sweep_flags(consistency_cmd)
    consistency_cmd.add_argument(
        "--n-grid", help="comma-separated perturbation sizes (default "
                         + ",".join(str(n) for n in DEFAULT_N_GRID) + ")")
    consistency_cmd.add_argument("--k", type=int, default=200,
                                 help="repeated explanations per cell")

    robustness_cmd = subcommand("robustness", cmd_robustness,
                                "explanation sensitivity to the kernel width")
    _add_sweep_flags(robustness_cmd)
    robustness_cmd.add_argument("--pairs", type=int, default=100)
    robustness_cmd.add_argument("--l-lo", type=float, default=0.2)
    robustness_cmd.add_argument("--l-up", type=float, default=5.0)
    # Consistency sweeps take their sample counts from --n-grid.
    for command in (explain_cmd, robustness_cmd):
        command.add_argument("--n", type=int, default=1000,
                             help="perturbed samples per explanation")
    return parser


# main's parser, built on its first call: parsing leaves a parser as it
# found it, so every call can share it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except InvalidInputError as exc:
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
