"""Acceptance suite: the exit criteria for the whole package.

Each criterion is one test that prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s``). The Monte Carlo criteria check
frozen expected values from the bundled reference study at their stated
tolerances; the heavy scenario-1 block (3 x 10,000 replicates x 6 rows via
the CLI at different worker counts) is shared across criteria through a
module fixture, so the module takes about 30 s on two cores.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stratsurv.config import load_study_config
from stratsurv.errors import DegenerateTestError, InvalidModelError
from stratsurv.inference import AnalysisSpec, Method, cox_fit, logrank, partial_likelihood_terms
from stratsurv.simulate import aggregate, run_replicates

from _oracles import grid_search_cox, hypergeom_logrank, random_survival_data

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

# Expected values for the bundled study, with Monte Carlo tolerances.
POWER_TOL = 0.015
BIAS_TOL = 0.010
SE_TOL = 0.005
MSE_TOL = 0.002


def _report(criterion, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def _run_cli(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "stratsurv", *args],
                          capture_output=True, text=True, cwd=ROOT)


@pytest.fixture(scope="module")
def scenario1_runs(tmp_path_factory):
    """Full scenario-1 study through the CLI at workers 1, 4 and 8."""
    base = tmp_path_factory.mktemp("scenario1")
    outputs = {}
    for workers in (1, 4, 8):
        out = base / f"results_w{workers}.csv"
        proc = _run_cli("simulate", str(CONFIGS / "table1_scenario1.cfg"),
                        "-o", str(out), "--workers", str(workers))
        assert proc.returncode == 0, proc.stderr
        outputs[workers] = out
    return outputs


@pytest.fixture(scope="module")
def scenario1_rows(scenario1_runs):
    sidecar = json.loads(
        (scenario1_runs[8].parent / (scenario1_runs[8].name + ".json")).read_text())
    return {round(row["true_hr"], 3): row for row in sidecar["rows"]}


def _run_config_row(config_name: str, row: int):
    study = load_study_config(str(CONFIGS / config_name))
    cfg = study.sim_configs()[row]
    results = run_replicates(cfg)
    return aggregate(results, cfg.design.true_hr, cfg.se_scale)


def test_criterion_1_scenario1_hr075(scenario1_rows):
    """Scenario 1, HR 0.75, D=380: Cox SEs, MSEs, and both log-rank powers."""
    row = scenario1_rows[0.75]
    ses = [row["methods"][k]["avg_se"] for k in ("unstrat_cox", "mult_cox", "strat_cox")]
    mses = [row["methods"][k]["mse"] for k in ("unstrat_cox", "mult_cox", "strat_cox")]
    power_lr = row["power"]["lr"]
    power_strat_lr = row["power"]["strat_lr"]
    checks = (
        [abs(se - 0.103) <= SE_TOL for se in ses]
        + [abs(mse - 0.006) <= MSE_TOL for mse in mses]
        + [abs(power_lr - 0.794) <= POWER_TOL,
           abs(power_strat_lr - 0.775) <= POWER_TOL]
    )
    ok = all(checks)
    _report(1, ok, (f"SE={[round(s, 4) for s in ses]} (0.103±{SE_TOL}), "
                    f"MSE={[round(m, 4) for m in mses]} (0.006±{MSE_TOL}), "
                    f"LR power={power_lr:.3f} (0.794±{POWER_TOL}), "
                    f"stratified-LR power={power_strat_lr:.3f} (0.775±{POWER_TOL})"))
    assert ok


def test_criterion_2_scenario1_hr050(scenario1_rows):
    """Scenario 1, HR 0.5, D=66: powers and the unstratified-Cox bias."""
    row = scenario1_rows[0.5]
    power_lr = row["power"]["lr"]
    power_strat_cox = row["power"]["strat_cox"]
    power_mult_cox = row["power"]["mult_cox"]
    bias = row["methods"]["unstrat_cox"]["avg_bias"]
    ok = (abs(power_lr - 0.791) <= POWER_TOL
          and abs(power_strat_cox - 0.678) <= POWER_TOL
          and abs(power_mult_cox - 0.781) <= POWER_TOL
          and abs(bias - 0.015) <= BIAS_TOL)
    _report(2, ok, (f"LR power={power_lr:.3f} (0.791±{POWER_TOL}), "
                    f"strat-Cox power={power_strat_cox:.3f} (0.678±{POWER_TOL}), "
                    f"mult-Cox power={power_mult_cox:.3f} (0.781±{POWER_TOL}), "
                    f"unstrat-Cox bias={bias:.4f} (0.015±{BIAS_TOL})"))
    assert ok


def test_criterion_3_scenario3_bias_and_power():
    """Scenario 3, HR 0.5: bias triple and the unstratified log-rank power loss."""
    agg = _run_config_row("table1_scenario3_balanced.cfg", 0)
    b_un = agg.methods["unstrat_cox"].avg_bias
    b_mult = agg.methods["mult_cox"].avg_bias
    b_strat = agg.methods["strat_cox"].avg_bias
    power_lr = agg.power["lr"]
    ok = (abs(b_un - 0.071) <= BIAS_TOL and abs(b_mult - 0.006) <= BIAS_TOL
          and abs(b_strat - 0.017) <= BIAS_TOL
          and abs(power_lr - 0.657) <= POWER_TOL)
    _report(3, ok, (f"bias unstrat={b_un:.4f} (0.071±{BIAS_TOL}), "
                    f"mult={b_mult:.4f} (0.006±{BIAS_TOL}), "
                    f"strat={b_strat:.4f} (0.017±{BIAS_TOL}); "
                    f"unstrat-LR power={power_lr:.3f} (0.657±{POWER_TOL}, "
                    f">10-point loss from nominal 0.80)"))
    assert ok


def test_criterion_4_scenario2_cox_power_gap():
    """Scenario 2, HR 0.6, D=120: multivariate vs stratified Cox power."""
    agg = _run_config_row("table1_scenario2_balanced.cfg", 2)
    p_mult = agg.power["mult_cox"]
    p_strat = agg.power["strat_cox"]
    ok = (abs(p_mult - 0.771) <= POWER_TOL and abs(p_strat - 0.730) <= POWER_TOL
          and p_strat < p_mult)
    _report(4, ok, (f"mult-Cox power={p_mult:.3f} (0.771±{POWER_TOL}), "
                    f"strat-Cox power={p_strat:.3f} (0.730±{POWER_TOL})"))
    assert ok


def test_criterion_5_type_one_error_calibration():
    """Null (HR=1) calibration: every test's rejection rate in [1.9%, 3.1%]."""
    agg = _run_config_row("type1_calibration.cfg", 0)
    rates = dict(agg.power)
    ok = all(0.019 <= r <= 0.031 for r in rates.values())
    _report(5, ok, "rejection rates " +
            ", ".join(f"{k}={100 * v:.2f}%" for k, v in rates.items()) +
            " (bounds [1.9%, 3.1%])")
    assert ok


def test_criterion_6_oracle_equivalence():
    """cox_fit vs grid search (<=1e-4) and logrank vs a hand accumulator.

    200 random datasets of at most 8 subjects; datasets without a usable
    finite maximizer (no contrast, separation, or a grid boundary hit) are
    skipped and regenerated. The log-rank comparison is exact up to float
    summation order (1e-12).
    """
    from stratsurv.datagen import TrialDataset

    rng = np.random.default_rng(60_601)
    specs = (AnalysisSpec(Method.COX_UNSTRATIFIED), AnalysisSpec(Method.COX_STRATIFIED))
    checked = 0
    worst_beta = 0.0
    worst_lr = 0.0
    attempts = 0
    while checked < 200:
        attempts += 1
        assert attempts < 5000, "dataset generation stalled"
        times, events, X, strata = random_survival_data(rng, max_n=8, covariates=1,
                                                        n_strata=2)
        arm = X[:, 0]
        if set(np.unique(arm)) != {0.0, 1.0}:
            continue
        n = len(times)
        ds = TrialDataset(subject_id=np.arange(n), stratum_index=strata,
                          arm=arm.astype(int), enroll_time=np.zeros(n),
                          observed_time=times, event=events)
        spec = specs[checked % 2]
        use_strata = strata if spec.method is Method.COX_STRATIFIED else None
        try:
            fit = cox_fit(ds, spec)
        except InvalidModelError:
            continue
        if not fit.converged or abs(fit.beta[0]) > 4.0:
            continue
        beta_grid, boundary = grid_search_cox(times, events, X, strata=use_strata)
        if boundary:
            continue
        worst_beta = max(worst_beta, abs(fit.beta[0] - beta_grid[0]))

        stratified = bool(checked % 2)
        oe, var = hypergeom_logrank(times, events, arm.astype(int),
                                    strata if stratified else None)
        if var > 0:
            res = logrank(ds, stratified)
            worst_lr = max(worst_lr,
                           abs(res.observed_minus_expected - oe),
                           abs(res.variance - var))
        else:
            with pytest.raises(DegenerateTestError):
                logrank(ds, stratified)
        checked += 1
    ok = worst_beta <= 1e-4 and worst_lr <= 1e-12
    _report(6, ok, (f"200 datasets: max |beta - grid| = {worst_beta:.2e} (<=1e-4), "
                    f"max log-rank deviation = {worst_lr:.2e} (<=1e-12)"))
    assert ok


def test_criterion_7_derivatives_match_finite_differences():
    """Gradient/Hessian vs central differences at 1e-5 relative tolerance.

    100 random instances cycling over tie method and stratified /
    unstratified / multivariate designs, at random coefficient vectors.
    """
    from stratsurv.datagen import RngStream, generate_trial
    from stratsurv.trial import ScenarioSpec, TrialDesign

    rng = np.random.default_rng(70_707)
    combos = [(Method.COX_UNSTRATIFIED, "efron"), (Method.COX_UNSTRATIFIED, "breslow"),
              (Method.COX_STRATIFIED, "efron"), (Method.COX_STRATIFIED, "breslow"),
              (Method.COX_MULTIVARIATE, "efron"), (Method.COX_MULTIVARIATE, "breslow")]
    worst = 0.0
    for i in range(100):
        d = int(rng.integers(8, 25))
        design = TrialDesign.from_event_target(0.6, d)
        dataset = generate_trial(design, ScenarioSpec.multiplicative_covariates(),
                                 RngStream(9000 + i, 0))
        if rng.random() < 0.4:
            # round times to whole months to create ties
            from stratsurv.datagen import TrialDataset
            times = np.maximum(np.round(dataset.observed_time), 1.0)
            dataset = TrialDataset(
                subject_id=dataset.subject_id, stratum_index=dataset.stratum_index,
                arm=dataset.arm, enroll_time=np.zeros(dataset.n_subjects),
                observed_time=times, event=dataset.event)
        method, ties = combos[i % 6]
        spec = AnalysisSpec(method, tie_method=ties)
        p = 5 if method is Method.COX_MULTIVARIATE else 1
        beta = rng.normal(0.0, 0.6, size=p)
        _, grad, hess = partial_likelihood_terms(dataset, spec, beta)
        for k in range(p):
            h = 1e-5 * max(1.0, abs(beta[k]))
            step = np.zeros(p)
            step[k] = h
            ll_p, grad_p, _ = partial_likelihood_terms(dataset, spec, beta + step)
            ll_m, grad_m, _ = partial_likelihood_terms(dataset, spec, beta - step)
            fd_grad = (ll_p - ll_m) / (2 * h)
            worst = max(worst, abs(fd_grad - grad[k]) / max(1.0, abs(grad[k])))
            fd_hess = (grad_p - grad_m) / (2 * h)
            rel = np.abs(fd_hess - hess[:, k]) / np.maximum(1.0, np.abs(hess[:, k]))
            worst = max(worst, float(rel.max()))
    ok = worst <= 1e-5
    _report(7, ok, f"100 instances: worst relative derivative error = {worst:.2e} (<=1e-5)")
    assert ok


def test_criterion_8_worker_count_determinism(scenario1_runs):
    """Byte-identical result CSVs for the full scenario-1 study at 1/4/8 workers."""
    blobs = {w: path.read_bytes() for w, path in scenario1_runs.items()}
    ok = blobs[1] == blobs[4] == blobs[8]
    sizes = {w: len(b) for w, b in blobs.items()}
    _report(8, ok, f"CSV bytes identical across workers 1/4/8 (sizes {sizes})")
    assert ok


def test_criterion_9_asymptotic_se(scenario1_rows):
    """Mean unstratified-Cox log-HR SE within 5% of sqrt(4/D) for every D."""
    ratios = {}
    for hr, row in scenario1_rows.items():
        d = row["events"]
        ratios[d] = row["methods"]["unstrat_cox"]["avg_se"] / math.sqrt(4.0 / d)
    ok = all(abs(r - 1.0) <= 0.05 for r in ratios.values())
    _report(9, ok, "SE/sqrt(4/D) ratios: " +
            ", ".join(f"D={d}: {r:.4f}" for d, r in sorted(ratios.items())) +
            " (within 5%)")
    assert ok


def test_excluded_replicate_fraction_invariant(scenario1_rows):
    """Non-converged fits stay below 0.1% of replicates in every study cell."""
    worst = 0.0
    for row in scenario1_rows.values():
        for mm in row["methods"].values():
            worst = max(worst, mm["replicates_excluded"] / row["replicates"])
    ok = worst < 0.001
    _report("invariant", ok, f"worst excluded-replicate fraction = {worst:.5f} (<0.001)")
    assert ok
