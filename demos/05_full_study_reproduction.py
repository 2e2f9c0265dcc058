"""Reproduce the bundled reference study tables.

Runs every bundled config (or a named subset) and prints each block as a
compact table. At the full 10,000 replicates this is the complete study;
the default uses fewer replicates to stay quick.

    python demos/05_full_study_reproduction.py                  # quick pass
    python demos/05_full_study_reproduction.py --replicates 10000
    python demos/05_full_study_reproduction.py table1_scenario1
"""

import argparse
import glob
import os

from stratsurv import load_study_config, run_study

parser = argparse.ArgumentParser()
parser.add_argument("blocks", nargs="*", help="config names (default: all table1_*)")
parser.add_argument("--replicates", type=int, default=500)
parser.add_argument("--workers", type=int, default=None)
args = parser.parse_args()

root = os.path.join(os.path.dirname(__file__), "..", "configs")
paths = sorted(glob.glob(os.path.join(root, "table1_*.cfg")))
if args.blocks:
    paths = [p for p in paths
             if any(block in os.path.basename(p) for block in args.blocks)]

for path in paths:
    study = load_study_config(path).with_overrides(replicates=args.replicates,
                                                   workers=args.workers)
    print(f"\n=== {os.path.basename(path)} ({study.replicates} replicates) ===")
    print(f"{'HR':>5} {'D':>4} | {'bias u/m/s':>20} | {'SE u/m/s':>20} | "
          f"{'power LR/sLR/mC/sC':>23}")
    for row in run_study(study.sim_configs(), workers=study.workers):
        cfg = row.config
        if row.metrics is None:
            print(f"{cfg.design.true_hr:>5} {cfg.design.target_events:>4} | "
                  f"failed: {row.error}")
            continue
        m = row.metrics.methods
        p = row.metrics.power
        bias = "/".join(f"{m[k].avg_bias:.3f}" for k in ("unstrat_cox", "mult_cox", "strat_cox"))
        se = "/".join(f"{m[k].avg_se:.3f}" for k in ("unstrat_cox", "mult_cox", "strat_cox"))
        power = "/".join(f"{100 * p[k]:.1f}" for k in ("lr", "strat_lr", "mult_cox", "strat_cox"))
        print(f"{cfg.design.true_hr:>5} {cfg.design.target_events:>4} | {bias:>20} | "
              f"{se:>20} | {power:>23}")
