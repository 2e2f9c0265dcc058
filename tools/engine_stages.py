"""Time the engine's stages on one generated batch at N = 95 and at N = 543.

Usage: python tools/engine_stages.py [--runs K] [--ties efron|breslow]

Takes the reference scenario-1 study (``configs/table1_scenario1.cfg``) rows
with 66 and 380 target events, N = 95 and N = 543, and one batch of each
as ``simulate`` analyzes it, of ``simulate._batch_replicates`` replicates.
Each stage runs K times and prints its best time in microseconds per replicate:

- streams: ``stream_states`` of the batch's replicates;
- uniforms: ``stream_uniforms`` from those states;
- generation: ``generate_trials`` from the uniforms;
- layouts and counts: both sorted layouts and their per-death counts;
- each Cox fit: its likelihood and Newton fit on fresh layouts, with the
  number of ``evaluate`` calls of one fit and the evaluation time per row
  (the time spent in ``evaluate`` over the rows it evaluated, best run);
- each log-rank test, on layouts that hold their counts;
- analyze_trials: the five analyses as one call, for comparison.

It only calls the library and changes nothing; like the ``stratsurv``
command, it first keeps freed memory mapped (``cli._keep_freed_memory``).
Times come from ``time.perf_counter``; on a shared host take the best of many
runs (the default K is 30) and compare two trees with alternating runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stratsurv import cli, inference  # noqa: E402
from stratsurv.config import load_study_config  # noqa: E402
from stratsurv.datagen import generate_trials, stream_states, stream_uniforms  # noqa: E402
from stratsurv.simulate import _batch_replicates  # noqa: E402

EVENTS = (66, 380)
FITS = (("mult_cox", inference.Method.COX_MULTIVARIATE),
        ("unstrat_cox", inference.Method.COX_UNSTRATIFIED),
        ("strat_cox", inference.Method.COX_STRATIFIED))


def best(runs, stage, setup=lambda: None):
    """The least time of ``stage(setup())`` over ``runs`` calls, in seconds."""
    times = []
    for _ in range(runs):
        made = setup()
        start = time.perf_counter()
        stage(made)
        times.append(time.perf_counter() - start)
    return min(times)


class EvaluateCounter:
    """While entered, records each ``evaluate`` call of both likelihood
    classes: its time and the rows it evaluated."""

    def __enter__(self):
        self.calls, self.rows, self.seconds, self.saved = 0, 0, 0.0, []
        for cls in (inference._CoxLikelihood, inference._TreatmentLikelihood):
            real = cls.evaluate
            self.saved.append((cls, real))
            cls.evaluate = self._counted(real)
        return self

    def _counted(self, real):
        def evaluate(lik, beta):
            start = time.perf_counter()
            out = real(lik, beta)
            self.seconds += time.perf_counter() - start
            self.calls += 1
            self.rows += len(beta)
            return out
        return evaluate

    def __exit__(self, *exc):
        for cls, real in self.saved:
            cls.evaluate = real


def layouts(trials, counts=False):
    """Fresh layouts of a batch, optionally holding their counts."""
    t = inference._Trials(trials)
    for risk in (t.pooled, t.stratified):  # each built on first use
        if counts:
            risk.counts
    return t


def stage_times(config, runs, ties):
    """(name, us per replicate, evaluate calls, us per row-evaluation) per
    stage, the last two None but for a fit; and the batch's replicates."""
    n = config.design.sample_size
    size = _batch_replicates(config)
    states = stream_states(config.master_seed, 0, size)
    uniforms = stream_uniforms(states, n)
    trials = generate_trials(config.design, config.scenario, uniforms)
    stages = [
        ("streams", lambda _: stream_states(config.master_seed, 0, size)),
        ("uniforms", lambda _: stream_uniforms(states, n)),
        ("generation", lambda _: generate_trials(config.design, config.scenario, uniforms)),
        ("layouts and counts", lambda _: layouts(trials, counts=True)),
    ]
    out = [(name, best(runs, stage) * 1e6 / size, None, None) for name, stage in stages]
    for name, method in FITS:
        def fit(t, method=method):
            inference._newton(t.likelihood(method, ties))
        seconds = best(runs, fit, lambda: layouts(trials))
        per_row = []
        for _ in range(runs):
            t = layouts(trials)
            with EvaluateCounter() as counter:
                fit(t)
            per_row.append(counter.seconds / counter.rows)
        out.append((name, seconds * 1e6 / size, counter.calls, min(per_row) * 1e6))
    for name, stratified in (("lr", False), ("strat_lr", True)):
        seconds = best(runs, lambda t, s=stratified: inference._logrank(
            t.stratified if s else t.pooled), lambda: layouts(trials, counts=True))
        out.append((name, seconds * 1e6 / size, None, None))
    seconds = best(runs, lambda _: inference.analyze_trials(trials, ties))
    out.append(("analyze_trials", seconds * 1e6 / size, None, None))
    return out, size


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=30, help="runs per stage (best is kept)")
    parser.add_argument("--ties", choices=inference.TIE_METHODS, default="efron")
    args = parser.parse_args(argv)
    cli._keep_freed_memory()
    study = load_study_config(str(ROOT / "configs" / "table1_scenario1.cfg"))
    configs = {c.design.target_events: c for c in study.sim_configs()}
    results = [stage_times(configs[d], args.runs, args.ties) for d in EVENTS]
    print(f"best of {args.runs} runs, ties={args.ties}: us per replicate; for a fit, "
          "its evaluate calls and us per row-evaluation")
    print(" " * 20 + "".join(f"{f'N={configs[d].design.sample_size} ({size} rows)':>34}"
                             for d, (_, size) in zip(EVENTS, results)))
    print(f"{'stage':<20}" + f"{'us/rep':>14}{'evals':>8}{'us/eval':>12}" * len(EVENTS))
    for line in zip(*(stages for stages, _ in results)):
        cells = "".join(f"{us:>14.2f}" + (f"{calls:>8d}{per_row:>12.3f}" if calls else " " * 20)
                        for _, us, calls, per_row in line)
        print(f"{line[0][0]:<20}{cells}")


if __name__ == "__main__":
    main()
