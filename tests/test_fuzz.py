"""The Monte Carlo record equals its one-trial replay on random valid configs.

Configs are drawn, from a fixed seed, across the schema's range and its
edges: all three scenario kinds, zero-weight strata and 7:1 weights,
randomization probabilities near 0 and 1, a target of one event, an event
fraction of 1, accrual near 0, both tie methods and seeds up to 2**63.
Every row of ``_replicate_range`` must equal the row that ``generate_trial``,
``logrank`` and ``cox_fit`` give for that replicate, bit for bit.
"""

import numpy as np
import pytest

import stratsurv.simulate as sim
from _replay import assert_same, replay_replicates
from stratsurv.inference import TIE_METHODS
from stratsurv.trial import STRATUM_COUNT, ScenarioSpec, TrialDesign

FUZZ_SEED = 20261018
CASES = 100
REPLICATES = 8

_SEVEN_TO_ONE = (7.0,) * 6 + (1.0,) * 6


def _choose(rng, options):
    return options[rng.integers(len(options))]


def _scenario(rng) -> ScenarioSpec:
    kind = rng.integers(3)
    if kind == 0:
        return ScenarioSpec.no_prognostic(float(rng.uniform(1, 60)))
    if kind == 1:
        return ScenarioSpec.multiplicative_covariates(
            float(rng.uniform(1, 60)), *(float(h) for h in rng.uniform(0.2, 4.0, 4)))
    return ScenarioSpec.stratum_baselines(tuple(float(m) for m in rng.uniform(1, 80, 12)))


def _weights(rng) -> tuple[float, ...]:
    kind = rng.integers(3)
    if kind == 0:
        return _SEVEN_TO_ONE[::_choose(rng, [1, -1])]
    weights = rng.integers(0, 8, STRATUM_COUNT).astype(float)
    if kind == 1:  # most strata empty
        weights[rng.random(STRATUM_COUNT) < 0.8] = 0.0
    weights[rng.integers(STRATUM_COUNT)] += 1.0
    return tuple(float(w) for w in weights)


def _draw_config(case: int) -> sim.SimConfig:
    rng = np.random.default_rng([FUZZ_SEED, case])
    events = int(_choose(rng, [1, 2, rng.integers(1, 61)]))
    design = TrialDesign.from_event_target(
        true_hr=float(_choose(rng, [1.0, rng.uniform(0.2, 1.0)])),
        target_events=events,
        event_fraction=float(_choose(rng, [1.0, rng.uniform(0.3, 1.0)])),
        accrual_months=float(_choose(rng, [1e-6, rng.uniform(0.5, 500)])),
        allocation_weights=_weights(rng),
        randomization_prob=float(_choose(rng, [0.02, 0.98, rng.uniform(0.02, 0.98)])),
        alpha_one_sided=float(_choose(rng, [0.025, rng.uniform(0.01, 0.2)])),
    )
    return sim.SimConfig(scenario=_scenario(rng), design=design, replicates=REPLICATES,
                         master_seed=int(rng.integers(2**63, dtype=np.uint64)),
                         tie_method=str(_choose(rng, TIE_METHODS)))


CONFIGS = [_draw_config(case) for case in range(CASES)]


def test_draws_reach_the_schema_edges():
    designs = [cfg.design for cfg in CONFIGS]
    assert {cfg.scenario.kind for cfg in CONFIGS} == {s.kind for s in (
        ScenarioSpec.no_prognostic(), ScenarioSpec.multiplicative_covariates(),
        ScenarioSpec.stratum_baselines())}
    assert any(0.0 in d.allocation_weights for d in designs)
    assert any(d.allocation_weights in (_SEVEN_TO_ONE, _SEVEN_TO_ONE[::-1]) for d in designs)
    assert {0.02, 0.98} <= {d.randomization_prob for d in designs}
    assert any(d.target_events == 1 for d in designs)
    assert any(d.sample_size == d.target_events > 1 for d in designs)  # event fraction 1
    assert any(d.accrual_months == 1e-6 for d in designs)
    assert {cfg.tie_method for cfg in CONFIGS} == set(TIE_METHODS)
    assert max(cfg.master_seed for cfg in CONFIGS) > 2**62


@pytest.mark.parametrize("case", range(CASES))
def test_replicate_range_equals_replay(case):
    cfg = CONFIGS[case]
    assert_same(sim._replicate_range(cfg, 0, REPLICATES), replay_replicates(cfg))
