"""The Monte Carlo record equals its one-trial replay on random valid configs.

Configs are drawn, from a fixed seed, across the schema's range and its
edges: all three scenario kinds, zero-weight strata and 7:1 weights,
randomization probabilities near 0 and 1, a target of one event, an event
fraction of 1, accrual near 0, both tie methods and seeds up to 2**63.
Every row of ``_replicate_range`` must equal the row that ``generate_trial``,
``logrank`` and ``cox_fit`` give for that replicate, bit for bit. A share of
the configs also runs through ``simulate`` from a config file, and the run's
sidecar echo, read back by ``StudyConfig.from_mapping``, must reproduce the
result CSV byte for byte. On the configs of at most 12 subjects, and on 30
fuzzed configs cut to that size, replicate 0's log-rank tests and Cox partial
likelihoods equal the naive oracles.
"""

import dataclasses
import json

import numpy as np
import pytest

import stratsurv.simulate as sim
from _oracles import hypergeom_logrank, naive_partial_loglik
from _replay import assert_same, replay_replicates
from stratsurv.cli import main
from stratsurv.config import StudyConfig, load_study_config
from stratsurv.datagen import RngStream, generate_trial
from stratsurv.errors import DegenerateTestError
from stratsurv.inference import (
    COX_METHODS,
    TIE_METHODS,
    AnalysisSpec,
    Method,
    logrank,
    partial_likelihood_terms,
)
from stratsurv.io import write_results_csv
from stratsurv.trial import STRATUM_COUNT, ScenarioSpec

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


def _draw_study(case: int) -> StudyConfig:
    """A one-row study; its row is the fuzzed ``SimConfig``."""
    rng = np.random.default_rng([FUZZ_SEED, case])
    events = int(_choose(rng, [1, 2, rng.integers(1, 61)]))
    design = dict(
        true_hrs=(float(_choose(rng, [1.0, rng.uniform(0.2, 1.0)])),),
        events=(events,),
        event_fraction=float(_choose(rng, [1.0, rng.uniform(0.3, 1.0)])),
        accrual_months=float(_choose(rng, [1e-6, rng.uniform(0.5, 500)])),
        allocation_weights=_weights(rng),
        randomization_prob=float(_choose(rng, [0.02, 0.98, rng.uniform(0.02, 0.98)])),
        alpha_one_sided=float(_choose(rng, [0.025, rng.uniform(0.01, 0.2)])),
    )
    return StudyConfig(scenario=_scenario(rng), **design, replicates=REPLICATES,
                       seed=int(rng.integers(2**63, dtype=np.uint64)),
                       tie_method=str(_choose(rng, TIE_METHODS)))


STUDIES = [_draw_study(case) for case in range(CASES)]
CONFIGS = [study.sim_configs()[0] for study in STUDIES]


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
    assert_same(sim._replicate_range(cfg, 0, REPLICATES).replicates, replay_replicates(cfg))


TINY_EXTRA = 30


def _draw_tiny_config(case: int):
    """A fuzzed study cut to 3-8 events at an event fraction of 0.7-1, so
    N <= 12, and randomized 30-70% to treatment, so both arms are likely
    present: most fuzzed configs that small have one to three subjects."""
    rng = np.random.default_rng([FUZZ_SEED, CASES + case])
    study = dataclasses.replace(STUDIES[case], events=(int(rng.integers(3, 9)),),
                                event_fraction=float(rng.uniform(0.7, 1.0)),
                                randomization_prob=float(rng.uniform(0.3, 0.7)))
    return study.sim_configs()[0]


#: Configs small enough for the naive oracles: the fuzzed ones, then the cut ones.
TINY_CONFIGS = ([cfg for cfg in CONFIGS if cfg.design.sample_size <= 12]
                + [_draw_tiny_config(case) for case in range(TINY_EXTRA)])


def test_tiny_configs_are_tiny_and_reach_past_three_subjects():
    sizes = [cfg.design.sample_size for cfg in TINY_CONFIGS]
    assert max(sizes) <= 12
    assert sum(n >= 6 for n in sizes) >= TINY_EXTRA // 2


def _covariates(stratum):
    """The multivariate design, arm then x1, x2 == 1, x2 == 2, x3, coded by hand."""
    return [[s // 6, (s % 6) // 2 == 1, (s % 6) // 2 == 2, s % 2] for s in stratum]


@pytest.mark.parametrize("case", range(len(TINY_CONFIGS)))
def test_tiny_replicate_equals_naive_oracles(case):
    cfg = TINY_CONFIGS[case]
    data = generate_trial(cfg.design, cfg.scenario, RngStream(cfg.master_seed, 0))
    time, event, arm, stratum = (data.observed_time, data.event, data.arm.astype(int),
                                 data.stratum_index)
    for stratified in (False, True):
        oe, var = hypergeom_logrank(time, event, arm, stratum if stratified else None)
        if var <= 0:
            with pytest.raises(DegenerateTestError):
                logrank(data, stratified)
            continue
        res = logrank(data, stratified)
        assert res.observed_minus_expected == pytest.approx(oe, abs=1e-12)
        assert res.variance == pytest.approx(var, abs=1e-12)

    rng = np.random.default_rng([FUZZ_SEED, case])
    X = np.column_stack([arm, np.array(_covariates(stratum.tolist()), dtype=float)])
    for method in COX_METHODS:
        p = 5 if method is Method.COX_MULTIVARIATE else 1
        strata = stratum if method is Method.COX_STRATIFIED else None
        for ties in TIE_METHODS:
            for beta in (np.zeros(p), rng.normal(0, 0.8, p)):
                got = partial_likelihood_terms(data, AnalysisSpec(method, ties), beta)[0]
                want = naive_partial_loglik(time, event, X[:, :p], beta, strata, ties)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


#: Configs run through ``simulate`` and replayed from their sidecar echo.
ECHO_CASES = range(4, CASES, 8)


def _config_text(study: StudyConfig) -> str:
    """A config file of ``study``: its ``to_mapping`` echo, one key per line."""
    lines = []
    for section, keys in study.to_mapping().items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if isinstance(value, list):
                value = (":" if key == "allocation" else ", ").join(map(repr, value))
            if value is not None:
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", ECHO_CASES)
def test_sidecar_echo_reproduces_the_csv(tmp_path, case):
    study = dataclasses.replace(STUDIES[case], replicates=3 + case % 2)
    path = tmp_path / "study.cfg"
    path.write_text(_config_text(study), encoding="utf-8")
    assert load_study_config(path) == study
    out = tmp_path / "run.csv"
    assert main(["simulate", str(path), "-o", str(out), "--workers", "1"]) == 0

    echo = StudyConfig.from_mapping(json.loads((tmp_path / "run.csv.json").read_text())["config"])
    assert echo == dataclasses.replace(study, workers=1)
    replay = tmp_path / "replay.csv"
    write_results_csv(replay, sim.run_study(echo.sim_configs(), workers=echo.workers))
    assert replay.read_bytes() == out.read_bytes()
