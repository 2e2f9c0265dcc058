"""Generate one stratified trial and analyze it five ways.

Shows the full path: a scenario with prognostic covariates, event-driven
censoring at the target event count, and the five analysis methods applied
to the same dataset.
"""

import numpy as np

from stratsurv import (
    AnalysisSpec,
    Method,
    RngStream,
    ScenarioSpec,
    TrialDesign,
    control_rate_table,
    cox_fit,
    generate_trial,
    logrank,
)

scenario = ScenarioSpec.multiplicative_covariates()
design = TrialDesign.from_event_target(true_hr=0.6, target_events=120)

print("Control-arm medians by stratum (months):")
print(" ", np.round(np.log(2.0) / control_rate_table(scenario), 1).tolist())

data = generate_trial(design, scenario, RngStream(seed=20260810, replicate_index=0))
print(f"\nGenerated {data.n_subjects} subjects, cutoff at calendar month "
      f"{data.cutoff_calendar_time:.1f}, exactly {data.events_observed} events.")
counts = np.bincount(data.stratum_index, minlength=12)
print("Subjects per stratum:", [int(c) for c in counts])

print(f"\nTrue hazard ratio: {design.true_hr}")
print(f"{'method':>22} {'HR':>7} {'log-HR':>8} {'SE':>7} {'z':>7}")
for method in (Method.COX_UNSTRATIFIED, Method.COX_MULTIVARIATE, Method.COX_STRATIFIED):
    fit = cox_fit(data, AnalysisSpec(method))
    print(f"{method.value:>22} {fit.treatment_hr:>7.3f} {fit.treatment_log_hr:>8.3f} "
          f"{fit.treatment_se:>7.3f} {fit.wald_z:>7.2f}")
for stratified in (False, True):
    res = logrank(data, stratified=stratified)
    name = "logrank-stratified" if stratified else "logrank"
    print(f"{name:>22} {'':>7} {'':>8} {'':>7} {res.z:>7.2f}"
          f"   (strata used: {res.strata_used})")

print("\nThe stratified Cox SE exceeds the multivariate one: slicing 120 events")
print("into 12 strata discards the between-stratum comparisons.")
