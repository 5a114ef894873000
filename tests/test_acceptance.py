"""Acceptance gate: the toolkit's headline guarantees, one test per
criterion, each printing a PASS/FAIL line to the terminal.

Numeric criteria run at their stated tolerances against values computed
independently in this file (closed forms evaluated with plain arithmetic,
hand-worked metric cases). Trend criteria rerun the experiment commands
many times with spaced seeds and count how often the expected ordering
appears.
"""

from __future__ import annotations

import csv
import json
import math
import time

import numpy as np
import pytest

from baylime import (
    ExplainConfig,
    Explanation,
    KernelConfig,
    LimeRidge,
    PerturbConfig,
    PerturbationSet,
    PredictorHandle,
    PriorSpec,
    decompose,
    explain,
    inconsistency,
    kendalls_w,
)
from baylime.cli import main
from baylime.types import Instance, NUMERICAL
from conftest import ensemble_of, fit_surrogate, manifest_argv, ridge_fit


@pytest.fixture
def verdict(capsys):
    """Print one PASS/FAIL line per criterion, visible despite capture."""

    def _verdict(number: int, description: str, ok: bool):
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: "
                  f"{description}")
        assert ok, f"criterion {number} failed: {description}"

    return _verdict


def random_problem(rng):
    m = int(rng.integers(1, 21))
    n = int(rng.integers(m + 1, 1001))
    rows = rng.normal(size=(n, m))
    labels = rows @ rng.normal(size=m) + rng.normal(scale=0.3, size=n)
    weights = 1.0 - rng.random(n)
    return PerturbationSet(rows=rows, labels=labels, weights=weights, seed=0)


def test_criterion_1_ridge_equivalence(verdict):
    rng = np.random.default_rng(20240901)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        pset = random_problem(rng)
        lam = float(10.0 ** rng.uniform(-2, 2))
        alpha = float(10.0 ** rng.uniform(-2, 2))
        bayes = fit_surrogate(pset, PriorSpec.full(np.zeros(pset.m), lam,
                                                   alpha)).mu_n
        ridge = ridge_fit(pset, lam / alpha)
        rel = np.abs(bayes - ridge) / np.maximum(np.abs(ridge), 1e-300)
        ok = ok and bool(np.all(rel <= 1e-8))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    verdict(1, "full-information posterior equals ridge at r = lambda/alpha "
               "(100 random problems, per-coefficient rel tol 1e-8, "
               f"{elapsed:.1f} s < 10 s)", ok)


def test_criterion_2_prior_data_decomposition(verdict):
    rng = np.random.default_rng(20240902)
    ok = True
    for _ in range(100):
        pset = random_problem(rng)
        mu0 = rng.normal(scale=2.0, size=pset.m)
        lam = float(10.0 ** rng.uniform(-2, 2))
        alpha = float(10.0 ** rng.uniform(-2, 2))
        fit = fit_surrogate(pset, PriorSpec.full(mu0, lam, alpha))
        a, b = decompose(fit, pset)
        ok = ok and bool(np.all(np.abs(a + b - np.eye(pset.m)) <= 1e-9))
        recovered = a @ mu0 + b @ fit.beta_mle
        ok = ok and np.allclose(recovered, fit.mu_n, rtol=1e-8, atol=1e-8)
    verdict(2, "posterior mean decomposes as A mu0 + B beta_mle with "
               "A + B = I (tol 1e-9 / 1e-8, same 100 problems)", ok)


def test_criterion_3_single_feature_closed_form(verdict):
    ok = True
    # Worked case: sum(w x^2) = 2, beta = 2, lam = alpha = 1, mu0 = 0.5.
    pset = PerturbationSet(rows=[[1.0], [1.0]], labels=[2.0, 2.0],
                           weights=[1.0, 1.0], seed=0)
    fit = fit_surrogate(pset, PriorSpec.full(np.array([0.5]), 1.0, 1.0))
    ok = ok and abs(fit.mu_n[0] - 1.5) <= 1e-10
    rng = np.random.default_rng(20240903)
    for _ in range(25):
        n = int(rng.integers(1, 60))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        w = float(rng.uniform(0.05, 1.0))
        lam = float(rng.uniform(0.01, 30.0))
        alpha = float(rng.uniform(0.01, 30.0))
        mu0 = float(rng.normal())
        sxx = sum(float(v) ** 2 for v in x)
        beta = sum(float(a) * float(b) for a, b in zip(x, y)) / sxx
        expected = (lam * mu0 + alpha * w * sxx * beta) / (
            lam + alpha * w * sxx)
        pset = PerturbationSet(rows=x[:, None], labels=y,
                               weights=np.full(n, w), seed=0)
        fit = fit_surrogate(pset, PriorSpec.full(np.array([mu0]), lam, alpha))
        ok = ok and abs(fit.mu_n[0] - expected) <= 1e-10
    verdict(3, "single-feature constant-weight posterior matches the "
               "closed form (tol 1e-10, incl. the mu_n = 1.5 worked case)",
            ok)


def test_criterion_4_hyperparameter_limits(verdict):
    rng = np.random.default_rng(20240904)
    rows = rng.normal(size=(500, 8))
    labels = rows @ rng.normal(size=8) + rng.normal(scale=0.4, size=500)
    pset = PerturbationSet(rows=rows, labels=labels,
                           weights=1.0 - rng.random(500), seed=0)
    mu0 = rng.normal(scale=2.0, size=8)
    near_mle = fit_surrogate(pset, PriorSpec.full(mu0, 1e-12, 1.0))
    mle_gap = (np.linalg.norm(near_mle.mu_n - near_mle.beta_mle)
               / np.linalg.norm(near_mle.beta_mle))
    near_prior = fit_surrogate(pset, PriorSpec.full(mu0, 1.0, 1e-12))
    prior_gap = (np.linalg.norm(near_prior.mu_n - mu0)
                 / np.linalg.norm(mu0))
    ok = mle_gap < 1e-6 and prior_gap < 1e-6
    verdict(4, "vanishing prior precision recovers the weighted MLE and "
               "vanishing noise precision recovers the prior mean "
               f"(rel gaps {mle_gap:.1e}, {prior_gap:.1e} < 1e-6)", ok)


def test_criterion_5_evidence_recovers_noise_precision(verdict):
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(20240905 + seed)
        rows = rng.normal(size=(1000, 6))
        beta = rng.normal(size=6)
        labels = rows @ beta + rng.normal(scale=0.5, size=1000)
        pset = PerturbationSet(rows=rows, labels=labels,
                               weights=np.ones(1000), seed=0)
        fit = fit_surrogate(pset, PriorSpec.non_informative())
        hits += 2.0 <= fit.alpha_used <= 8.0
    verdict(5, "evidence maximization recovers noise precision 4 within "
               f"[2, 8] in {hits}/100 seeds (need >= 95)", hits >= 95)


def test_criterion_6_metric_oracles(verdict):
    def run(c):
        return Explanation.from_coefficients(c, kernel_width=1.0,
                                             n_samples=10)

    swap = ensemble_of((run([0.8, 0.6]), run([0.6, 0.8])))
    hand_inconsistency = inconsistency(swap)
    three = ensemble_of((run([0.9, 0.5, 0.2]), run([0.9, 0.5, 0.2]),
                         run([0.2, 0.9, 0.5])))
    hand_w = kendalls_w(three)
    identical = ensemble_of((run([0.9, 0.5, 0.2]), run([0.9, 0.5, 0.2])))
    ok = (abs(hand_inconsistency - 1.0 / 6.0) <= 1e-12
          and abs(hand_w - 1.0 / 3.0) <= 1e-12
          and inconsistency(identical) == 0.0
          and kendalls_w(identical) == 1.0)
    verdict(6, "metric oracles: rank-swap inconsistency 1/6, concordance "
               "1/3 (tol 1e-12); identical runs give 0 and 1", ok)


def _consistency_table(path) -> dict[int, dict[str, tuple[float, float]]]:
    table: dict[int, dict[str, tuple[float, float]]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            cell = table.setdefault(int(row["n"]), {})
            cell[row["explainer"]] = (float(row["inconsistency"]),
                                      float(row["kendalls_w"]))
    return table


def test_criterion_7_consistency_improves_with_samples(verdict, tmp_path):
    start = time.perf_counter()
    hits = 0
    for i in range(20):
        out = tmp_path / f"c7_{i}.csv"
        code = main(["consistency", "--m", "4", "--predictor", "quadratic",
                     "--explainer", "lime:r=1", "--n-grid", "50,1600",
                     "--k", "200", "--seed", str(50_000 + 1000 * i),
                     "--out", str(out)])
        assert code == 0
        table = _consistency_table(out)
        small = table[50]["lime:r=1"]
        large = table[1600]["lime:r=1"]
        hits += small[0] > large[0] and large[1] > small[1]
    elapsed = time.perf_counter() - start
    ok = hits >= 18 and elapsed < 120.0
    verdict(7, "baseline inconsistency falls and concordance rises from "
               f"n=50 to n=1600 in {hits}/20 sweeps (need >= 18), "
               f"{elapsed:.0f} s < 120 s", ok)


def test_criterion_8_stronger_prior_weighting_more_consistent(verdict,
                                                              tmp_path):
    strong = "full:lambda=200:alpha=1"
    weak = "full:lambda=20:alpha=1"
    hits = 0
    for i in range(20):
        out = tmp_path / f"c8_{i}.csv"
        code = main(["consistency", "--m", "4", "--predictor", "quadratic",
                     "--elicit-runs", "20", "--explainer", strong,
                     "--explainer", weak, "--k", "200",
                     "--seed", str(200_000 + 2000 * i), "--out", str(out)])
        assert code == 0
        table = _consistency_table(out)
        hits += all(cell[strong][0] <= cell[weak][0]
                    for cell in table.values())
    verdict(8, "prior-to-noise ratio 200 never exceeds ratio 20 in "
               f"inconsistency across the full grid in {hits}/20 sweeps "
               f"(need >= 16)", hits >= 16)


def _robustness_medians(path) -> dict[str, float]:
    medians: dict[str, float] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            if row["record"] == "median":
                medians[row["explainer"].split(":")[0]] = float(row["value"])
    return medians


def test_criterion_9_informative_priors_more_width_robust(verdict, tmp_path):
    explainers = ["lime:r=1", "non_informative", "partial:lambda=200",
                  "full:lambda=1000:alpha=1"]
    flags = [flag for spec in explainers for flag in ("--explainer", spec)]
    hits = 0
    for i in range(20):
        out = tmp_path / f"c9_{i}.csv"
        code = main(["robustness", "--m", "4", "--predictor", "quadratic",
                     "--elicit-runs", "20", *flags, "--pairs", "100",
                     "--n", "1000", "--seed", str(300_000 + 100 * i),
                     "--out", str(out)])
        assert code == 0
        med = _robustness_medians(out)
        hits += (med["full"] < med["non_informative"]
                 and med["full"] < med["lime"]
                 and med["partial"] < med["non_informative"]
                 and med["partial"] < med["lime"])
    linear_out = tmp_path / "c9_linear.csv"
    code = main(["robustness", "--m", "2", "--predictor", "linear",
                 "--r", "1e-9", "--explainer", "lime:r=1e-9",
                 "--explainer", "non_informative",
                 "--explainer", "partial:lambda=200",
                 "--explainer", "full:lambda=200:alpha=1",
                 "--pairs", "100", "--n", "1000", "--seed", "424242",
                 "--out", str(linear_out)])
    assert code == 0
    linear_medians = _robustness_medians(linear_out)
    linear_ok = all(value < 1e-6 for value in linear_medians.values())
    ok = hits >= 18 and linear_ok
    verdict(9, "informative priors beat the baselines on width robustness "
               f"in {hits}/20 sweeps (need >= 18); linear fixture R < 1e-6 "
               f"for all explainers (max {max(linear_medians.values()):.1e})",
            ok)


def test_criterion_10_explain_is_byte_deterministic(verdict, tmp_path,
                                                    capsys):
    out = tmp_path / "explanation.json"
    args = ["explain", "--m", "3", "--predictor", "quadratic",
            "--explainer", "non_informative", "--n", "500", "--seed", "11",
            "--out", str(out)]
    assert main(args) == 0
    first_stdout = capsys.readouterr().out
    first_bytes = out.read_bytes()
    manifest = json.loads((tmp_path / "explanation.manifest.json")
                          .read_text(encoding="utf-8"))
    out.unlink()
    assert main(manifest_argv(manifest)) == 0
    second_stdout = capsys.readouterr().out
    second_bytes = out.read_bytes()
    ok = first_bytes == second_bytes and first_stdout == second_stdout
    verdict(10, "rerunning the explain command with one manifest reproduces "
                "the JSON byte for byte", ok)


def test_criterion_11_probe_call_economy(verdict):
    ok = True
    for batch_limit in (1024, 64, 30, 7):
        calls = []

        def counting(rows):
            calls.append(rows.shape[0])
            return rows[:, 0] + 0.5 * (rows**2).sum(axis=1)

        handle = PredictorHandle.in_process(counting,
                                            batch_limit=batch_limit)
        instance = Instance(np.zeros(3), (NUMERICAL,) * 3, ("a", "b", "c"))
        config = ExplainConfig(
            PerturbConfig(n=100, seed=1,
                          numeric_scale={j: (0.0, 1.0) for j in range(3)}),
            KernelConfig(), LimeRidge(1.0))
        explain(instance, handle, config)
        ok = ok and len(calls) == math.ceil(100 / batch_limit)
        ok = ok and sum(calls) == 100
    verdict(11, "explaining with n=100 issues exactly "
                "ceil(100/batch_limit) predictor calls", ok)
