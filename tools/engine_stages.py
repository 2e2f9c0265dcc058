"""Time the engine's stages inside real replicate-range calls at N = 95 and at N = 543.

Usage: python tools/engine_stages.py [--runs K] [--ties efron|breslow]

Calls ``simulate._replicate_range`` K times on one batch (``_batch_replicates``
replicates) of each of the scenario-1 study rows with 66 and 380 target events
(``configs/table1_scenario1.cfg``) and prints, in microseconds per replicate,
the best of the K times the call records for each ``simulate.STAGES`` entry,
and ``other``: the best of the call's wall time less its stage sum. Like the
``stratsurv`` command, it first keeps freed memory mapped. On a shared host
take the best of many runs and compare two trees with alternating runs.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stratsurv import cli  # noqa: E402
from stratsurv.config import load_study_config  # noqa: E402
from stratsurv.inference import TIE_METHODS  # noqa: E402
from stratsurv.simulate import STAGES, _batch_replicates, _replicate_range  # noqa: E402

EVENTS = (66, 380)


def runs_count(text: str) -> int:
    runs = int(text)
    if runs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {runs}")
    return runs


def stage_times(config, runs: int) -> tuple[np.ndarray, int]:
    """The best us per replicate of each STAGES entry and ``other``; the batch size."""
    size = _batch_replicates(config)
    best = np.full(len(STAGES) + 1, np.inf)
    for _ in range(runs):
        start = time.perf_counter_ns()
        ns = _replicate_range(config, 0, size).ns
        wall = time.perf_counter_ns() - start
        best = np.minimum(best, [*ns, wall - ns.sum()])
    return best / 1e3 / size, size


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=runs_count, default=30, help="calls per N, best kept")
    parser.add_argument("--ties", choices=TIE_METHODS, default="efron")
    args = parser.parse_args(argv)
    cli._keep_freed_memory()
    study = load_study_config(str(ROOT / "configs" / "table1_scenario1.cfg"))
    configs = [dataclasses.replace(c, tie_method=args.ties) for c in study.sim_configs()
               if c.design.target_events in EVENTS]
    results = [stage_times(config, args.runs) for config in configs]
    print(f"best of {args.runs} runs, ties={args.ties}: us per replicate")
    print(f"{'stage':<12}" + "".join(f"{f'N={c.design.sample_size} ({size} rows)':>20}"
                                     for c, (_, size) in zip(configs, results)))
    for i, name in enumerate((*STAGES, "other")):
        print(f"{name:<12}" + "".join(f"{us[i]:>20.2f}" for us, _ in results))


if __name__ == "__main__":
    main()
