"""What happens to the hazard-ratio estimate when strata are ignored?

Compares the three Cox variants under the stratum-baselines scenario, where
control medians split 16 vs 50 months across strata. Ignoring that
heterogeneity attenuates the estimated treatment effect toward the null;
adjusting for the factors (as covariates or as strata) removes most of it.

Each average bias is printed with its Monte Carlo standard error (MCSE).
Pass --replicates to change the (default, quick) replicate count.
"""

import argparse

from stratsurv import ScenarioSpec, SimConfig, TrialDesign, aggregate, run_replicates

parser = argparse.ArgumentParser()
parser.add_argument("--replicates", type=int, default=1000)
args = parser.parse_args()

scenario = ScenarioSpec.stratum_baselines()
design = TrialDesign.from_event_target(true_hr=0.5, target_events=66)
cfg = SimConfig(scenario=scenario, design=design,
                replicates=args.replicates, master_seed=271828)
agg = aggregate(run_replicates(cfg), design.true_hr)

print(f"Stratum-baseline scenario, true HR = {design.true_hr}, "
      f"{design.target_events} events, {args.replicates} replicates\n")
print(f"{'model':>14} {'avg bias':>15} {'avg SE':>8} {'MSE':>8}")
for key, label in (("unstrat_cox", "unadjusted"), ("mult_cox", "multivariate"),
                   ("strat_cox", "stratified")):
    m = agg.methods[key]
    # below two usable fits the bias has no MCSE
    mcse = "" if m.avg_bias_mcse is None else f" ± {m.avg_bias_mcse:.3f}"
    bias = f"{m.avg_bias:.3f}{mcse}"
    print(f"{label:>14} {bias:>15} {m.avg_se:>8.3f} {m.mse:>8.3f}")

print(f"\nPower: unstratified LR {100 * agg.power['lr']:.1f}% vs "
      f"multivariate Cox {100 * agg.power['mult_cox']:.1f}%")
print("\nThe unadjusted estimate is biased toward 1 (no effect) because mixing")
print("fast- and slow-hazard strata flattens the pooled hazard contrast; the")
print("multivariate model absorbs it even though its multiplicative form does")
print("not literally match this generating mechanism.")
