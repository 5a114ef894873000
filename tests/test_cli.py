"""Command-line interface: flows, ingestion, exit codes, outputs."""

from __future__ import annotations

import csv
import itertools
import json
import re
import shlex
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from baylime import (
    BayLime,
    ExplainConfig,
    Instance,
    KernelConfig,
    LimeRidge,
    PerturbConfig,
    PredictorHandle,
    PriorSpec,
    apply_weights,
    explain,
    normalize_coefficients,
    width_pairs,
)
from baylime.blackbox import PREDICTOR_CMD_ENV
from baylime.cli import _parse_explainer_spec, build_parser, ingest_csv, main
from baylime.errors import ConfigError
from baylime.kernel import BINARY_HAMMING, effective_sample_size
from baylime.regression import PRIOR_KEYS
from baylime.types import NUMERICAL
from conftest import command_parser, manifest_argv, probed_set, ridge_fit

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE = str(FIXTURES / "jsonl_predictor.py")
SUM_PREDICTOR = f"{sys.executable} {FIXTURE} sum"
MISSPELT_PRIOR = str(FIXTURES / "misspelt_prior.json")
README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def quadratic_problem(m: int, n: int, seed: int):
    """The CLI's synthetic ``--m`` problem and its quadratic fixture."""
    instance = Instance(np.zeros(m), (NUMERICAL,) * m,
                        tuple(f"f{j}" for j in range(m)))
    perturb = PerturbConfig(
        n=n, seed=seed, numeric_scale={j: (0.0, 1.0) for j in range(m)})
    c = np.array([(m - j) / m for j in range(m)])
    q = np.full(m, 0.5)
    handle = PredictorHandle.in_process(
        lambda rows: rows @ c + (rows * rows) @ q)
    return instance, perturb, handle


class TestIngestCsv:
    @staticmethod
    def _write(tmp_path: Path, text: str) -> str:
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_statistics_and_encoding(self, tmp_path):
        path = self._write(tmp_path, "x,color\n1,red\n2,red\n3,blue\n")
        matrix, kinds, names, codes = ingest_csv(path, ["color"], [])
        assert names == ("x", "color")
        assert kinds == ("numerical", "categorical")
        assert matrix[:, 0].tolist() == [1.0, 2.0, 3.0]
        # Codes follow sorted value order: blue=0, red=1.
        assert codes["color"] == {"blue": 0.0, "red": 1.0}
        assert matrix[:, 1].tolist() == [1.0, 1.0, 0.0]

    def test_drop_columns(self, tmp_path):
        path = self._write(tmp_path, "x,skip,y\n1,foo,2\n3,bar,4\n")
        matrix, _, names, _ = ingest_csv(path, [], ["skip"])
        assert names == ("x", "y")
        assert matrix.shape == (2, 2)

    def test_non_numeric_cell_names_coordinates(self, tmp_path):
        path = self._write(tmp_path, "x,y\n1,2\n1,oops\n")
        with pytest.raises(ConfigError, match=r"row 3, column 'y'"):
            ingest_csv(path, [], [])

    def test_empty_file_rejected(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ConfigError):
            ingest_csv(path, [], [])

    def test_header_only_rejected(self, tmp_path):
        path = self._write(tmp_path, "x,y\n")
        with pytest.raises(ConfigError, match="no data rows"):
            ingest_csv(path, [], [])

    def test_unknown_categorical_column(self, tmp_path):
        path = self._write(tmp_path, "x\n1\n")
        with pytest.raises(ConfigError, match="mystery"):
            ingest_csv(path, ["mystery"], [])


class TestExplainCommand:
    def test_linear_fixture_ranks_follow_coefficients(self, tmp_path, capsys):
        code = main(["explain", "--m", "3", "--predictor", "linear",
                     "--explainer", "lime:r=1e-6", "--n", "400",
                     "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ranks"] == [1, 2, 3]
        np.testing.assert_allclose(payload["coefficients"],
                                   [1.0, 2 / 3, 1 / 3], rtol=0.05)
        assert payload["alpha"] is None and payload["lambda"] is None

    def test_full_mode_prior_dominates(self, tmp_path, capsys):
        priors = tmp_path / "prior.json"
        priors.write_text(json.dumps({"mu0": [0.0, 5.0, 0.0],
                                      "lambda": 1e9}), encoding="utf-8")
        code = main(["explain", "--m", "3", "--predictor", "quadratic",
                     "--explainer", "full:alpha=1.0", "--prior-file",
                     str(priors), "--n", "200", "--seed", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ranks"][1] == 1
        assert payload["lambda"] == 1e9

    def test_mu0_file_accepts_bare_array(self, tmp_path, capsys):
        mu0 = tmp_path / "mu0.json"
        mu0.write_text("[1.0, 0.0]", encoding="utf-8")
        code = main(["explain", "--m", "2", "--predictor", "quadratic",
                     "--explainer", "partial:lambda=5", "--prior-file",
                     str(mu0), "--n", "100"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == 5.0
        assert payload["alpha"] > 0

    def test_partial_without_lambda_is_config_error(self, capsys):
        code = main(["explain", "--m", "2", "--predictor", "linear",
                     "--explainer", "partial:mu0=1,0"])
        assert code == 2
        assert "lambda" in capsys.readouterr().err

    def test_missing_predictor_is_config_error(self, capsys):
        assert main(["explain", "--m", "2"]) == 2

    def test_unbalanced_quote_in_predictor_cmd_is_config_error(self, capsys):
        code = main(["explain", "--m", "2", "--predictor-cmd", 'python3 "x'])
        assert code == 2
        assert "predictor command" in capsys.readouterr().err

    def test_subprocess_predictor_exit_maps_to_probe_error(self, capsys):
        code = main(["explain", "--m", "2", "--predictor-cmd",
                     f"{sys.executable} {FIXTURE} exit", "--n", "50"])
        assert code == 3

    def test_non_numeric_predictor_output_maps_to_probe_error(self, capsys):
        code = main(["explain", "--m", "2", "--predictor-cmd",
                     f"{sys.executable} {FIXTURE} text", "--n", "50"])
        assert code == 3
        assert "non-numeric" in capsys.readouterr().err

    def test_env_var_supplies_predictor(self, capsys, monkeypatch):
        monkeypatch.setenv("BAYLIME_PREDICTOR_CMD",
                           f"{sys.executable} {FIXTURE} sum")
        code = main(["explain", "--m", "2", "--explainer", "lime:r=1e-6",
                     "--n", "200", "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # The fixture sums its inputs, so both coefficients are 1.
        np.testing.assert_allclose(payload["coefficients"], [1.0, 1.0],
                                   rtol=0.05)

    def test_underdetermined_fit_maps_to_fit_error(self, capsys):
        code = main(["explain", "--m", "2", "--predictor", "linear",
                     "--explainer", "lime:r=0", "--n", "1"])
        assert code == 4

    def test_out_file_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "explanation.json"
        code = main(["explain", "--m", "2", "--predictor", "linear",
                     "--n", "100", "--out", str(out)])
        assert code == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads(out.read_text(encoding="utf-8"))
        assert stdout_payload == file_payload
        manifest_path = tmp_path / "explanation.manifest.json"
        assert file_payload["manifest"] == str(manifest_path)
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["command"] == "explain"
        assert manifest["outputs"] == [str(out)]
        assert manifest["parameters"]["predictor"] == "linear"

    def test_csv_dataset_flow(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b,color\n" + "\n".join(
            f"{i},{2 * i},{'red' if i % 2 else 'blue'}" for i in range(20)),
            encoding="utf-8")
        code = main(["explain", "--data", str(data), "--instance", "3",
                     "--categorical", "color", "--predictor", "linear",
                     "--n", "200"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feature_names"] == ["a", "b", "color"]

    def test_instance_out_of_range(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a\n1\n2\n", encoding="utf-8")
        code = main(["explain", "--data", str(data), "--instance", "5",
                     "--predictor", "linear"])
        assert code == 2


class TestExplainerSpec:
    """``explain --explainer SPEC [--prior-file F]``."""

    @staticmethod
    def _explain(capsys, *flags, m=3):
        code = main(["explain", "--m", str(m), "--predictor", "quadratic",
                     "--n", "300", "--seed", "4", *flags])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("mode", tuple(PRIOR_KEYS))
    @pytest.mark.parametrize("keys", [
        keys for size in range(4)
        for keys in itertools.combinations(("mu0", "lambda", "alpha"), size)
    ], ids="+".join)
    def test_cli_and_prior_spec_agree(self, capsys, mode, keys):
        text = {"mu0": "0.5,-0.5", "lambda": "2", "alpha": "3"}
        spec = ":".join([mode, *(f"{key}={text[key]}" for key in keys)])
        code = main(["explain", "--m", "2", "--predictor", "linear",
                     "--n", "20", "--explainer", spec])
        out = capsys.readouterr().out
        values = {"mu0": np.array([0.5, -0.5]), "lambda": 2.0, "alpha": 3.0}
        try:
            prior = PriorSpec(mode, *(values[key] if key in keys else None
                                      for key in ("mu0", "lambda", "alpha")))
        except ConfigError:
            prior = None
        accepted = set(keys) <= set(PRIOR_KEYS[mode]) and prior is not None
        assert code == (0 if accepted else 2)
        if accepted:
            # The CLI's --m problem, probed through its linear fixture.
            instance, perturb, _ = quadratic_problem(2, 20, 0)
            handle = PredictorHandle.in_process(
                lambda rows: rows @ np.array([1.0, 0.5]))
            result = explain(instance, handle, ExplainConfig(
                perturb, KernelConfig(), BayLime(prior)))
            assert (json.loads(out)["coefficients"]
                    == result.coefficients.tolist())

    @pytest.mark.parametrize("spec, surrogate", [
        ("lime:r=0.5", LimeRidge(0.5)),
        ("non_informative", BayLime(PriorSpec.non_informative())),
        ("partial:mu0=1,0.5,0:lambda=20",
         BayLime(PriorSpec.partial(np.array([1.0, 0.5, 0.0]), 20.0))),
        ("full:mu0=1,0.5,0:lambda=20:alpha=2",
         BayLime(PriorSpec.full(np.array([1.0, 0.5, 0.0]), 20.0, 2.0))),
    ])
    def test_bitwise_equal_to_library(self, capsys, spec, surrogate):
        payload = self._explain(capsys, "--explainer", spec)
        instance, perturb, handle = quadratic_problem(3, 300, 4)
        result = explain(instance, handle,
                         ExplainConfig(perturb, KernelConfig(), surrogate))
        assert payload["coefficients"] == result.coefficients.tolist()
        assert payload["mode"] == spec.split(":")[0]

    def test_prior_file_shapes(self, tmp_path, capsys):
        bare = tmp_path / "bare.json"
        bare.write_text("[1.0, 0.5, 0.0]", encoding="utf-8")
        full = tmp_path / "object.json"
        full.write_text(json.dumps({"mu0": [1.0, 0.5, 0.0], "lambda": 20.0}),
                        encoding="utf-8")
        inline = self._explain(capsys, "--explainer",
                               "partial:mu0=1,0.5,0:lambda=20")
        assert self._explain(capsys, "--explainer", "partial:lambda=20",
                             "--prior-file", str(bare)) == inline
        assert self._explain(capsys, "--explainer", "partial",
                             "--prior-file", str(full)) == inline

    def test_spec_key_overrides_file_field(self, tmp_path, capsys):
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"mu0": [0.0, 5.0, 0.0],
                                     "lambda": 1e9}), encoding="utf-8")
        payload = self._explain(capsys, "--explainer", "full:lambda=3:alpha=1",
                                "--prior-file", str(prior))
        assert payload["lambda"] == 3.0

    @pytest.mark.parametrize("flags, prior, message", [
        (["--explainer", "lime"], [1.0, 0.0], "takes no prior file"),
        (["--explainer", "non_informative"], [1.0, 0.0],
         "takes no prior file"),
        (["--explainer", "partial:lambda=5:alpha=1"], None,
         "bad option 'alpha=1'"),
        (["--explainer", "partial:lambda=5"],
         {"mu0": [1.0, 0.0], "alpha": 1.0}, "fits alpha"),
        (["--explainer", "partial:lambda=5"], None,
         "explainer 'partial:lambda=5': partial mode requires mu0"),
        (["--explainer", "partial:mu0=1,0"], None,
         "partial mode requires lambda"),
        (["--explainer", "full:mu0=1,0:lambda=5"], None,
         "full mode requires alpha"),
        (["--explainer", "partial:mu0=1,0,0:lambda=5"], None,
         "mu0 has shape (3,); the design has 2 features"),
        (["--explainer", "full:lambda=5:alpha=1"], [1.0],
         "mu0 has shape (1,); the design has 2 features"),
        (["--explainer", "lime:r=x"], None, "bad number"),
        (["--mode", "lime"], None, "unrecognized arguments: --mode"),
    ])
    def test_bad_input_exits_two(self, tmp_path, capsys, flags, prior,
                                 message):
        if prior is not None:
            path = tmp_path / "prior.json"
            path.write_text(json.dumps(prior), encoding="utf-8")
            flags = [*flags, "--prior-file", str(path)]
        code = main(["explain", "--m", "2", "--predictor", "linear",
                     "--n", "50", *flags])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["lime:r=0.5", "non_informative",
                                      "partial:mu0=1,0:lambda=20",
                                      "full:mu0=1,0:lambda=20:alpha=2"])
    def test_manifest_record_matches_sweep(self, tmp_path, capsys, spec):
        assert main(["explain", "--m", "2", "--predictor", "linear",
                     "--n", "100", "--explainer", spec,
                     "--out", str(tmp_path / "e.json")]) == 0
        assert main(["robustness", "--m", "2", "--predictor", "linear",
                     "--n", "100", "--pairs", "1", "--explainer", spec,
                     "--out", str(tmp_path / "r.csv")]) == 0
        explained, swept = (
            json.loads((tmp_path / name).read_text(encoding="utf-8"))
            for name in ("e.manifest.json", "r.manifest.json"))
        assert (explained["parameters"]["surrogate"]
                == swept["parameters"]["explainers"][0])


class TestConsistencyCommand:
    def test_sweep_rows_and_manifest(self, tmp_path):
        out = tmp_path / "cons.csv"
        code = main(["consistency", "--m", "3", "--predictor", "quadratic",
                     "--explainer", "lime:r=1",
                     "--explainer", "non_informative",
                     "--n-grid", "50,200", "--k", "20", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert [(r["n"], r["explainer"]) for r in rows] == [
            ("50", "lime:r=1"), ("50", "non_informative"),
            ("200", "lime:r=1"), ("200", "non_informative")]
        for row in rows:
            assert float(row["inconsistency"]) >= 0.0
            assert 0.0 <= float(row["kendalls_w"]) <= 1.0
        manifest = json.loads(
            (tmp_path / "cons.manifest.json").read_text(encoding="utf-8"))
        assert manifest["parameters"]["n_grid"] == [50, 200]

    def test_explainers_in_one_run_match_separate_runs(self, tmp_path):
        def sweep(name, *specs):
            argv = ["consistency", "--m", "3", "--predictor", "quadratic",
                    "--n-grid", "30,60", "--k", "4", "--seed", "9",
                    "--out", str(tmp_path / name)]
            for spec in specs:
                argv += ["--explainer", spec]
            assert main(argv) == 0
            return read_csv(tmp_path / name)

        both = sweep("both.csv", "lime:r=1", "full:lambda=20:alpha=1")
        lime = sweep("lime.csv", "lime:r=1")
        full = sweep("full.csv", "full:lambda=20:alpha=1")
        assert both == [lime[0], full[0], lime[1], full[1]]

    def test_constant_predictor_flags_undefined(self, tmp_path):
        out = tmp_path / "cons.csv"
        code = main(["consistency", "--m", "2", "--predictor", "constant",
                     "--n-grid", "50", "--k", "5", "--out", str(out)])
        assert code == 0
        row = read_csv(out)[0]
        # All-zero coefficients: the weighted dispersion has no normalizer,
        # while the (fully tied) rankings agree completely.
        assert row["inconsistency"] == "nan"
        assert row["kendalls_w"] == "1.0"

    @pytest.mark.parametrize("width, warns", [("0.3", True), ("3", False)])
    def test_reports_the_smallest_effective_sample_size(self, tmp_path,
                                                        capsys, width, warns):
        out = tmp_path / "cons.csv"
        assert main(["consistency", "--m", "6", "--predictor", "quadratic",
                     "--kernel-width", width, "--n-grid", "40,80",
                     "--k", "3", "--seed", "2", "--out", str(out)]) == 0
        assert ("effective sample size" in capsys.readouterr().err) == warns
        manifest = json.loads(
            (tmp_path / "cons.manifest.json").read_text(encoding="utf-8"))
        # The same sets by hand: each cell's seed block, weighted.
        instance, perturb, handle = quadratic_problem(6, 40, 2)
        kernel = KernelConfig(float(width))
        smallest = min(
            effective_sample_size(apply_weights(probed_set(
                instance, replace(perturb, n=n, seed=2 + cell * 3 + i),
                handle), kernel, instance).weights)
            for cell, n in enumerate((40, 80)) for i in range(3))
        assert manifest["min_effective_sample_size"] == smallest
        assert (smallest < 6) == warns

    def test_bad_explainer_spec(self, tmp_path, capsys):
        out = tmp_path / "cons.csv"
        code = main(["consistency", "--m", "2", "--predictor", "linear",
                     "--explainer", "lime:bogus=1", "--out", str(out)])
        assert code == 2

    def test_full_spec_requires_alpha(self, tmp_path, capsys):
        out = tmp_path / "cons.csv"
        code = main(["consistency", "--m", "2", "--predictor", "quadratic",
                     "--explainer", "full:lambda=10", "--n-grid", "50",
                     "--k", "5", "--out", str(out)])
        assert code == 2
        assert "alpha" in capsys.readouterr().err


class TestRobustnessCommand:
    def test_samples_and_median_rows(self, tmp_path):
        out = tmp_path / "rob.csv"
        code = main(["robustness", "--m", "2", "--predictor", "quadratic",
                     "--explainer", "lime:r=1",
                     "--explainer", "partial:lambda=50",
                     "--pairs", "7", "--n", "300", "--seed", "6",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        for label in ("lime:r=1", "partial:lambda=50"):
            samples = [r for r in rows
                       if r["explainer"] == label and r["record"] == "sample"]
            medians = [r for r in rows
                       if r["explainer"] == label and r["record"] == "median"]
            assert len(samples) == 7
            assert len(medians) == 1
            ratios = sorted(float(r["value"]) for r in samples)
            assert float(medians[0]["value"]) == ratios[3]

    def test_single_pair_single_sample(self, tmp_path):
        out = tmp_path / "rob.csv"
        code = main(["robustness", "--m", "2", "--predictor", "linear",
                     "--pairs", "1", "--n", "100", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert [r["record"] for r in rows] == ["sample", "median"]

    def test_shared_pairs_across_explainers(self, tmp_path):
        out = tmp_path / "rob.csv"
        main(["robustness", "--m", "2", "--predictor", "quadratic",
              "--explainer", "lime:r=1", "--explainer", "non_informative",
              "--pairs", "4", "--n", "200", "--out", str(out)])
        rows = read_csv(out)
        lime_pairs = [(r["l1"], r["l2"]) for r in rows
                      if r["explainer"] == "lime:r=1"
                      and r["record"] == "sample"]
        noninf_pairs = [(r["l1"], r["l2"]) for r in rows
                        if r["explainer"] == "non_informative"
                        and r["record"] == "sample"]
        assert lime_pairs == noninf_pairs

    def test_bad_bounds(self, tmp_path):
        out = tmp_path / "rob.csv"
        code = main(["robustness", "--m", "2", "--predictor", "linear",
                     "--l-lo", "3.0", "--l-up", "1.0", "--out", str(out)])
        assert code == 2

    def test_refits_use_the_configured_distance(self, tmp_path):
        def sweep(name, *extra):
            out = tmp_path / name
            assert main(["robustness", "--m", "4", "--predictor", "quadratic",
                         "--n", "200", "--pairs", "5", "--seed", "3", *extra,
                         "--out", str(out)]) == 0
            return [(r["l1"], r["l2"], r["value"]) for r in read_csv(out)
                    if r["record"] == "sample"]

        euclidean = sweep("euclidean.csv")
        hamming = sweep("hamming.csv", "--distance", BINARY_HAMMING)
        assert hamming != euclidean
        # The same sweep by hand: the CLI's synthetic problem and quadratic
        # fixture, lime r=1 refit through apply_weights at every width.
        instance, perturb, handle = quadratic_problem(4, 200, 3)
        pset = probed_set(instance, perturb, handle)
        expected = []
        for l1, l2 in width_pairs(5, (0.2, 5.0), 3):
            h1, h2 = (np.abs(normalize_coefficients(ridge_fit(
                apply_weights(pset, KernelConfig(width, BINARY_HAMMING),
                              instance), 1.0))) for width in (l1, l2))
            ratio = float(np.linalg.norm(h1 - h2) / abs(l1 - l2))
            expected.append((repr(l1), repr(l2), repr(ratio)))
        assert hamming == expected

    @pytest.mark.parametrize("lo, up, warns", [("0.6", "0.9", True),
                                               ("2", "5", False)])
    def test_warns_when_the_kernel_collapses(self, tmp_path, capsys,
                                             lo, up, warns):
        out = tmp_path / "rob.csv"
        assert main(["robustness", "--m", "20", "--predictor", "quadratic",
                     "--l-lo", lo, "--l-up", up, "--seed", "3",
                     "--out", str(out)]) == 0
        assert ("effective sample size" in capsys.readouterr().err) == warns
        manifest = json.loads(
            (tmp_path / "rob.manifest.json").read_text(encoding="utf-8"))
        assert (manifest["min_effective_sample_size"] < 20) == warns

    def test_target_class_applies_to_the_sweep(self, tmp_path, capsys):
        # The quadratic fixture returns one output per row, so selecting a
        # class is a contract violation, as it is for consistency.
        code = main(["robustness", "--m", "3", "--predictor", "quadratic",
                     "--n", "100", "--pairs", "3", "--target-class", "1",
                     "--out", str(tmp_path / "rob.csv")])
        assert code == 3
        assert "class selection" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("consistency", ["--n-grid", "30", "--k", "2"]),
    ("robustness", ["--n", "60", "--pairs", "2"]),
])
def test_hamming_distance_on_a_numerical_problem_warns_once(
        tmp_path, capsys, command, flags):
    argv = [command, "--m", "3", "--predictor", "quadratic", *flags,
            "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    assert "same weight" not in capsys.readouterr().err
    assert main(argv + ["--distance", BINARY_HAMMING]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert sum("same weight" in line for line in lines) == 1


@pytest.mark.parametrize("flags, message", [
    (["consistency", "--k", "1"], "--k must be at least 2"),
    (["consistency", "--n-grid", "1"], "--n-grid needs values >= 2"),
    (["robustness", "--l-lo", "3", "--l-up", "1"],
     "width bounds must satisfy 0 < lower < upper"),
    (["consistency", "--explainer", "partial:lambda=5:mu0"],
     "bad option 'mu0'"),
    (["consistency", "--explainer", "full:lambda=10"],
     "full mode requires alpha"),
    (["robustness", "--explainer", "partial:lambda=5", "--elicit-runs", "0"],
     "--elicit-runs must be at least 1"),
    (["consistency", "--explainer", "full:lambda=5:alpha=1",
      "--elicit-n", "0"], "--elicit-n must be at least 1"),
    (["consistency", "--explainer", "partial:lambda=5", "--r", "-1"],
     "ridge regularizer must be finite and >= 0"),
    (["explain", "--predictor-constant", "nan"],
     "--predictor-constant must be finite"),
    (["explain", "--predictor-quad", "1,1"],
     "--predictor-quad does not apply to a subprocess predictor"),
    (["robustness", "--instance", "1"],
     "--instance does not apply without --data"),
    (["explain", "--explainer", "partial:lambda=5", "--prior-file",
      MISSPELT_PRIOR], "unknown prior keys ['alhpa', 'lamda']"),
    (["consistency", "--explainer", "partial:mu0=1,0,0:lambda=10"],
     "explainer 'partial:mu0=1,0,0:lambda=10': mu0 has shape (3,)"),
    (["explain", "--timeout", "inf"], "timeout must be positive and at most"),
    (["robustness", "--timeout", "1e300"],
     "timeout must be positive and at most"),
    (["robustness", "--seed", "-1"], "seed must be non-negative"),
    (["explain", "--explainer", "lime:r=1:r=1000"],
     "option 'r' repeated in explainer spec 'lime:r=1:r=1000'"),
    (["consistency", "--timeout", "3e6"],
     "timeout must be positive and at most"),
])
def test_config_error_starts_no_predictor(tmp_path, capsys,
                                          predictor_children, flags, message):
    code = main([*flags, "--m", "2", "--predictor-cmd", SUM_PREDICTOR,
                 "--out", str(tmp_path / "out.csv")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert predictor_children == []


def test_elicitation_counts_are_checked_only_when_it_runs(tmp_path):
    assert main(["consistency", "--m", "2", "--predictor", "linear",
                 "--explainer", "full:mu0=1,0:lambda=5:alpha=1",
                 "--elicit-runs", "0", "--elicit-n", "0", "--n-grid", "20",
                 "--k", "2", "--out", str(tmp_path / "out.csv")]) == 0


class TestManifest:
    @pytest.mark.parametrize("argv", [
        ["explain", "--m", "2", "--predictor", "linear", "--n", "50"],
        ["consistency", "--m", "2", "--predictor", "linear",
         "--n-grid", "20", "--k", "2"],
        ["robustness", "--m", "2", "--predictor", "linear", "--n", "50",
         "--pairs", "1"],
    ])
    def test_records_every_flag(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        manifest = json.loads(
            (tmp_path / "out.manifest.json").read_text(encoding="utf-8"))
        dests = {action.dest for action in command_parser(argv[0])._actions
                 if action.dest != "help"}
        assert dests <= manifest["parameters"].keys()

    @pytest.mark.parametrize("argv", [
        ["explain", "--m", "3", "--predictor", "quadratic",
         "--explainer", "full:alpha=2", "--prior-file", "PRIOR",
         "--n", "300", "--seed", "4", "--out", "OUT.json"],
        ["consistency", "--m", "3", "--predictor", "linear",
         "--instance-values=-1,0.5,2", "--explainer", "lime",
         "--explainer", "partial:lambda=20", "--explainer", "full:alpha=2",
         "--elicit-runs", "3", "--elicit-n", "100", "--r", "0.3",
         "--n-grid", "30,60", "--k", "3", "--seed", "5", "--out", "OUT.csv"],
        ["robustness", "--m", "3", "--predictor", "quadratic",
         "--kernel-width", "0.9", "--r", "0.5", "--explainer", "lime",
         "--explainer", "partial:lambda=20", "--pairs", "5", "--n", "200",
         "--out", "OUT.csv"],
        # No predictor flag: the first run takes its command from the
        # environment, and the rerun, without it, from the manifest.
        ["explain", "--m", "3", "--explainer", "non_informative",
         "--n", "100", "--seed", "2", "--out", "OUT.json"],
        # The manifest writes --categorical= and --drop-columns= back.
        ["robustness", "--data", "DATA", "--instance", "1", "--predictor",
         "linear", "--pairs", "2", "--n", "100", "--out", "OUT.csv"],
    ])
    def test_rerun_from_manifest_reproduces_output(self, tmp_path, capsys,
                                                   monkeypatch, argv):
        if "--predictor" not in argv:
            monkeypatch.setenv(PREDICTOR_CMD_ENV, SUM_PREDICTOR)
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"mu0": [1.0, 0.5, 0.0], "lambda": 20}),
                         encoding="utf-8")
        data = tmp_path / "d.csv"
        data.write_text("a,b,c\n1,2,0\n2,0,1\n0,1,2\n", encoding="utf-8")
        files = {"PRIOR": str(prior), "DATA": str(data)}
        argv = [files.get(arg, arg.replace("OUT", str(tmp_path / "out")))
                for arg in argv]
        out = Path(argv[-1])
        assert main(argv) == 0
        first = out.read_bytes(), capsys.readouterr()
        manifest = json.loads(out.with_suffix(".manifest.json")
                              .read_text(encoding="utf-8"))
        out.unlink()
        monkeypatch.delenv(PREDICTOR_CMD_ENV, raising=False)
        assert main(manifest_argv(manifest)) == 0
        assert (out.read_bytes(), capsys.readouterr()) == first


@pytest.mark.parametrize("flags, message", [
    (["--m", "3", "--predictor", "linear",
      "--predictor-coefficients", "nan,1,1"],
     "--predictor-coefficients must be finite"),
    (["--m", "3", "--predictor", "quadratic", "--predictor-quad", "inf,1,1"],
     "--predictor-quad must be finite"),
    (["--m", "3", "--predictor", "constant", "--predictor-constant", "nan"],
     "--predictor-constant must be finite"),
    (["--m", "3", "--instance", "2", "--predictor", "linear"],
     "--instance does not apply without --data"),
    (["--m", "3", "--categorical", "x", "--predictor", "linear"],
     "--categorical does not apply without --data"),
    (["--m", "3", "--drop-columns", "y", "--predictor", "linear"],
     "--drop-columns does not apply without --data"),
    (["--data", "DATA", "--instance", "0", "--instance-values", "5,6",
      "--predictor", "linear"], "--instance-values does not apply with --data"),
    (["--m", "3", "--predictor", "constant",
      "--predictor-coefficients", "1,1,1"],
     "--predictor-coefficients does not apply to a constant predictor"),
    (["--m", "3", "--predictor", "constant", "--predictor-quad", "1,1,1"],
     "--predictor-quad does not apply to a constant predictor"),
    (["--m", "3", "--predictor", "linear", "--predictor-quad", "1,1,1"],
     "--predictor-quad does not apply to a linear predictor"),
    (["--m", "3", "--predictor-cmd", SUM_PREDICTOR,
      "--predictor-coefficients", "1,1,1"],
     "--predictor-coefficients does not apply to a subprocess predictor"),
    # No predictor flag: the command comes from the environment.
    (["--m", "3", "--predictor-quad", "1,1,1"],
     "--predictor-quad does not apply to a subprocess predictor"),
])
def test_ignored_or_non_finite_flag_exits_two(tmp_path, capsys, monkeypatch,
                                              predictor_children, flags,
                                              message):
    data = tmp_path / "d.csv"
    data.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
    if not {"--predictor", "--predictor-cmd"} & set(flags):
        monkeypatch.setenv(PREDICTOR_CMD_ENV, SUM_PREDICTOR)
    flags = [str(data) if flag == "DATA" else flag for flag in flags]
    assert main(["explain", "--n", "10", *flags]) == 2
    assert message in capsys.readouterr().err
    assert predictor_children == []


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["explain", "--nonsense"]) == 2

    @pytest.mark.parametrize("flags", [
        ["consistency", "--n", "50"],
        ["robustness", "--pair", "3"],
        ["explain", "--predictor-qu", "1,1"],
    ])
    def test_dead_or_abbreviated_flag_exits_two(self, tmp_path, capsys,
                                                flags):
        code = main([*flags, "--m", "2", "--predictor", "linear",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "0.1.0" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["explain", "--m", "2", "--explainer", "partial:mu0=1,,0:lambda=5"],
         "bad number in option 'mu0=1,,0'"),
        (["explain", "--m", "3", "--instance-values", "1,,2,3"],
         "expected comma-separated numbers, got '1,,2,3'"),
        (["consistency", "--m", "2", "--n-grid", "200,,400", "--k", "2"],
         "expected comma-separated integers, got '200,,400'"),
    ])
    def test_empty_list_entry_exits_two(self, tmp_path, capsys, flags,
                                        message):
        code = main([*flags, "--predictor", "linear",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_readme_commands_parse(self):
        text = README.read_text(encoding="utf-8")
        commands = [
            shlex.split(line)[1:]
            for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("baylime ")
        ]
        assert len(commands) >= 3
        parser = build_parser()
        for argv in commands:
            try:
                args = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: {argv}")
            specs = args.explainer or []
            for spec in [specs] if isinstance(specs, str) else specs:
                _parse_explainer_spec(spec)
