"""Tests for the Monte Carlo harness: determinism, aggregation, metrics."""

import math
import multiprocessing
import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy.stats import norm

import stratsurv.simulate as sim
from stratsurv.datagen import RngStream, TrialDataset, generate_trial
from stratsurv.errors import DegenerateTestError, InvalidModelError, InvalidParameterError
from stratsurv.inference import COX_METHODS, AnalysisSpec, cox_fit, logrank
from stratsurv.simulate import (
    COX_KEYS,
    TEST_KEYS,
    AggregateMetrics,
    Replicates,
    SimConfig,
    aggregate,
    run_replicates,
    run_study,
)
from stratsurv.trial import ScenarioSpec, TrialDesign


def _config(hr=0.6, d=30, replicates=40, seed=555, **kw):
    design = TrialDesign.from_event_target(true_hr=hr, target_events=d)
    return SimConfig(scenario=ScenarioSpec.no_prognostic(), design=design,
                     replicates=replicates, master_seed=seed, **kw)


def _result(hr=(0.5, 0.5, 0.5), se=(0.1, 0.1, 0.1),
            reject=(False,) * 5, degenerate=(False,) * 5):
    """A one-replicate record."""
    return Replicates(hr=np.array([hr], dtype=float), log_hr_se=np.array([se], dtype=float),
                      reject=np.array([reject]), degenerate=np.array([degenerate]))


def _stack(*results):
    return Replicates(*(np.concatenate(column) for column in zip(*results)))


def _assert_same(a: Replicates, b: Replicates):
    for field in Replicates._fields:
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.shape == y.shape, field
        assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), field


def _fail_generation(monkeypatch, seed):
    """Make generation raise RuntimeError("boom") for the row seeded ``seed``."""
    real = sim.generate_trials

    def flaky(design, scenario, generators):
        if generators[0].bit_generator.seed_seq.entropy == seed:
            raise RuntimeError("boom")
        return real(design, scenario, generators)

    monkeypatch.setattr(sim, "generate_trials", flaky)


def _reference_replicates(cfg: SimConfig) -> Replicates:
    """The documented rules applied replicate by replicate.

    A test outcome is None when the test is degenerate: a log-rank test that
    raises, or the Wald test of a Cox fit that raised, did not converge or has
    no finite SE. Only usable fits contribute estimates; None never rejects.
    """
    zcrit = norm.ppf(cfg.design.alpha_one_sided)
    hr = np.full((cfg.replicates, 3), np.nan)
    se = np.full((cfg.replicates, 3), np.nan)
    outcomes = []
    for i in range(cfg.replicates):
        data = generate_trial(cfg.design, cfg.scenario, RngStream(cfg.master_seed, i))
        outcome = {}
        for key, stratified in (("lr", False), ("strat_lr", True)):
            try:
                outcome[key] = logrank(data, stratified=stratified).z < zcrit
            except DegenerateTestError:
                outcome[key] = None
        for k, (key, method) in enumerate(zip(COX_KEYS, COX_METHODS)):
            try:
                fit = cox_fit(data, AnalysisSpec(method, tie_method=cfg.tie_method))
            except InvalidModelError:
                fit = None
            if fit is not None and fit.converged and math.isfinite(fit.treatment_se):
                hr[i, k], se[i, k] = fit.treatment_hr, fit.treatment_se
                outcome[key] = fit.wald_z < zcrit
            else:
                outcome[key] = None
        outcomes.append([outcome[key] for key in TEST_KEYS])
    reject = np.array([[o is not None and bool(o) for o in row] for row in outcomes])
    degenerate = np.array([[o is None for o in row] for row in outcomes])
    return Replicates(hr, se, reject, degenerate)


class TestRunReplicate:
    def test_deterministic_per_index(self):
        cfg = _config()
        _assert_same(sim._replicate_range(cfg, 5, 6), sim._replicate_range(cfg, 5, 6))
        chunk = sim._replicate_range(cfg, 3, 7)
        _assert_same(sim._replicate_range(cfg, 5, 6),
                     Replicates(*(column[2:3] for column in chunk)))
        assert not np.array_equal(sim._replicate_range(cfg, 5, 6).hr,
                                  sim._replicate_range(cfg, 6, 7).hr)

    def test_estimates_reasonable(self):
        cfg = _config(hr=0.75, d=380, replicates=1)
        res = run_replicates(cfg, workers=1)
        assert res.hr.shape == res.log_hr_se.shape == (1, 3)
        assert res.reject.shape == res.degenerate.shape == (1, 5)
        assert np.all(np.isfinite(res.hr)) and not res.degenerate.any()
        target = math.sqrt(4.0 / 380.0)
        for se in res.log_hr_se[0]:
            assert abs(se - target) < 0.35 * target

    def test_mean_se_near_asymptotic(self):
        cfg = _config(hr=0.75, d=380, replicates=60)
        ses = run_replicates(cfg, workers=1).log_hr_se[:, 0]
        assert np.mean(ses) == pytest.approx(math.sqrt(4.0 / 380.0), rel=0.05)


class TestReferenceColumns:
    """run_replicates against the per-replicate rules, with unusable fits."""

    @pytest.fixture(scope="class")
    def small_n(self):
        # D = 10 of N = 15 over 12 strata: some stratified log-rank tests are
        # degenerate, and some stratified fits raise or, like some
        # multivariate fits, never converge.
        design = TrialDesign(true_hr=0.5, target_events=10, sample_size=15)
        cfg = SimConfig(scenario=ScenarioSpec.multiplicative_covariates(), design=design,
                        replicates=37, master_seed=11)
        return cfg, _reference_replicates(cfg)

    def test_reference_has_unusable_replicates(self, small_n):
        _, ref = small_n
        assert ref.degenerate[:, TEST_KEYS.index("strat_lr")].any()
        assert np.isnan(ref.hr[:, COX_KEYS.index("mult_cox")]).any()
        assert np.isnan(ref.hr[:, COX_KEYS.index("strat_cox")]).any()
        assert np.isfinite(ref.hr).any() and ref.reject.any()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_columns_match_reference(self, small_n, workers):
        cfg, ref = small_n
        _assert_same(run_replicates(cfg, workers=workers), ref)

    def test_batching_does_not_change_results(self, small_n, monkeypatch):
        # A replicate's outcome must not depend on the batch it is analyzed
        # in, whatever the host's CPU count makes of the worker chunking.
        cfg, _ = small_n
        whole = sim._replicate_range(cfg, 0, 37)
        _assert_same(_stack(sim._replicate_range(cfg, 0, 7),
                            sim._replicate_range(cfg, 7, 37)), whole)
        _assert_same(_stack(*(sim._replicate_range(cfg, i, i + 1) for i in range(37))), whole)
        # batches of 5 replicates: 3..20 crosses the boundaries at 8, 13 and 18
        monkeypatch.setattr(sim, "BATCH_SUBJECT_ROWS", 5 * cfg.design.sample_size)
        _assert_same(sim._replicate_range(cfg, 3, 20), Replicates(*(c[3:20] for c in whole)))
        _assert_same(sim._replicate_range(cfg, 0, 37), whole)


def _rows(*replicates):
    return [_config(replicates=n, seed=555 + i) for i, n in enumerate(replicates)]


class TestResolveWorkers:
    """One worker count per call, resolved without starting any process."""

    def test_huge_request_clamped(self, monkeypatch):
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert sim._resolve_workers(_rows(40), 100_000) == 3
        assert sim._resolve_workers(_rows(40), None) == 3
        assert sim._resolve_workers(_rows(40), 2) == 2
        # clamped to the largest row's replicates, not to each row's
        assert sim._resolve_workers(_rows(2), 100_000) == 2
        assert sim._resolve_workers(_rows(1, 2, 1), None) == 2
        assert sim._resolve_workers(_rows(1, 40, 2), 100_000) == 3
        assert sim._resolve_workers(_rows(1, 1), 2) == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(sim.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 5)
        assert sim._resolve_workers(_rows(40, 3), 100_000) == 5
        assert sim._resolve_workers(_rows(4, 3), None) == 4

    def test_nonpositive_rejected(self):
        for workers in (0, -3):
            with pytest.raises(InvalidParameterError, match="workers must be at least 1"):
                sim._resolve_workers(_rows(40), workers)


class _StubPool:
    """Executor stand-in that starts no process. Chunk 0 of the row seeded
    ``failing_seed`` fails at once with ``error``, and that row's other chunks
    run only if shutdown waits for them, as in a busy pool. Every other chunk
    runs in this process when it is submitted."""

    def __init__(self, error=None, failing_seed=None):
        self.error = error
        self.failing_seed = failing_seed
        self.pending = []
        self.ran = []
        self.cancelled_before_shutdown = None

    def submit(self, fn, config, lo, hi):
        future = Future()
        if config.master_seed != self.failing_seed:
            future.set_result(fn(config, lo, hi))
        elif lo == 0:
            future.set_exception(self.error)
        else:
            self.pending.append((future, lo))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.cancelled_before_shutdown = [future.cancelled() for future, _ in self.pending]
        for future, lo in self.pending:
            if cancel_futures:
                future.cancel()
            elif not future.done():
                self.ran.append(lo)
                future.set_result(None)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _use_pools(monkeypatch, *pools):
    """The scheduler's n-th executor is pools[n]; returns the sizes asked for."""
    sizes = []

    def make(max_workers):
        sizes.append(max_workers)
        return pools[len(sizes) - 1]

    monkeypatch.setattr(sim, "ProcessPoolExecutor", make)
    return sizes


@pytest.mark.usefixtures("two_cpus")
class TestFailedChunk:
    @pytest.mark.parametrize("error", [RuntimeError("boom"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_remaining_chunks_cancelled(self, monkeypatch, error):
        pool = _StubPool(error, failing_seed=555)
        _use_pools(monkeypatch, pool)
        with pytest.raises(type(error)):
            run_replicates(_config(replicates=40), workers=2)
        assert len(pool.pending) == 1  # 40 replicates at 2 workers: 2 chunks of 20
        assert pool.ran == []

    def test_failed_chunk_cancels_only_its_row(self, monkeypatch):
        configs = [_config(seed=555, replicates=40), _config(seed=556, replicates=40)]
        pool = _StubPool(RuntimeError("boom"), failing_seed=555)
        sizes = _use_pools(monkeypatch, pool)
        rows = run_study(configs, workers=2)
        assert sizes == [2]
        assert rows[0].metrics is None and rows[0].error == "RuntimeError: boom"
        assert pool.cancelled_before_shutdown == [True]
        assert pool.ran == []
        assert rows[1] == run_study(configs[1:], workers=1)[0]

    def test_dead_worker_named_in_row_error(self, monkeypatch):
        # the row breaks its pool, and the fresh pool it runs on alone
        sizes = _use_pools(monkeypatch, *(_StubPool(BrokenProcessPool("terminated abruptly"),
                                                    failing_seed=555) for _ in range(2)))
        [row] = run_study([_config(replicates=40)], workers=2)
        assert row.metrics is None
        assert row.error == ("BrokenProcessPool: a worker process was killed before "
                             "its chunk finished, often for lack of memory")
        assert sizes == [2, 2]

    def test_dead_worker_fails_one_row_and_the_rest_restart(self, monkeypatch):
        # Row 0 finds the shared pool broken and breaks its own pool too, so it
        # fails; row 1 then runs on a third pool.
        configs = [_config(seed=555, replicates=40), _config(seed=556, replicates=40)]
        sizes = _use_pools(monkeypatch,
                           *(_StubPool(BrokenProcessPool("terminated abruptly"),
                                       failing_seed=555) for _ in range(2)),
                           _StubPool())
        rows = run_study(configs, workers=2)
        assert rows[0].error == ("BrokenProcessPool: a worker process was killed before "
                                 "its chunk finished, often for lack of memory")
        assert rows[1].error is None
        assert rows[1].metrics == run_study(configs[1:], workers=1)[0].metrics
        assert sizes == [2, 2, 2]

    def test_row_that_finds_the_pool_broken_runs_again_alone(self, monkeypatch):
        # Another row's chunk killed a worker while row 0 was collected: row 0
        # succeeds alone on a fresh pool, and row 1 runs on a third one.
        configs = [_config(seed=555, replicates=40), _config(seed=556, replicates=40)]
        sizes = _use_pools(monkeypatch,
                           _StubPool(BrokenProcessPool("terminated abruptly"), failing_seed=555),
                           _StubPool(), _StubPool())
        assert run_study(configs, workers=2) == run_study(configs, workers=1)
        assert sizes == [2, 2, 2]

    def test_pool_broken_while_queueing_reruns_the_first_row(self, monkeypatch):
        class BrokenOnSubmit(_StubPool):
            def submit(self, fn, config, lo, hi):
                raise BrokenProcessPool("terminated abruptly")

        configs = [_config(seed=555, replicates=40), _config(seed=556, replicates=40)]
        sizes = _use_pools(monkeypatch, BrokenOnSubmit(), _StubPool(), _StubPool())
        assert run_study(configs, workers=2) == run_study(configs, workers=1)
        assert sizes == [2, 2, 2]


@pytest.mark.usefixtures("two_cpus")
class TestOnePoolPerCall:
    """A real two-worker pool on a tiny two-row study."""

    CONFIGS = [_config(hr=0.5, d=20, replicates=8, seed=1),
               _config(hr=0.7, d=20, replicates=8, seed=2)]

    @pytest.fixture
    def sizes(self, monkeypatch):
        real = sim.ProcessPoolExecutor
        sizes = []

        def counting(max_workers):
            sizes.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", counting)
        return sizes

    def test_one_pool_and_no_process_left(self, sizes):
        rows = run_study(self.CONFIGS, workers=2)
        assert all(row.error is None for row in rows)
        assert sizes == [2]
        assert multiprocessing.active_children() == []
        assert rows == run_study(self.CONFIGS, workers=1)

    def test_failed_row_leaves_no_process(self, sizes, monkeypatch):
        # the pool's workers are forked after the patch and inherit it
        _fail_generation(monkeypatch, seed=1)
        rows = run_study(self.CONFIGS, workers=2)
        assert rows[0].metrics is None and "boom" in rows[0].error
        assert rows[1].error is None
        assert sizes == [2]
        assert multiprocessing.active_children() == []

    def test_unequal_rows_share_one_pool(self, sizes):
        # the 1- and 7-replicate rows run as 1 and 4 chunks on the 40-row's pool
        configs = [_config(hr=0.5, d=20, replicates=n, seed=n) for n in (1, 7, 40)]
        rows = run_study(configs, workers=2)
        assert sizes == [2]
        assert multiprocessing.active_children() == []
        assert rows == run_study(configs, workers=1)
        assert all(row.error is None for row in rows)

    def test_killed_worker_fails_only_its_row(self, sizes, monkeypatch, tmp_path):
        # Row 1's chunks kill their worker while row 0's first chunk waits for
        # that to happen. Row 0 runs again alone, row 1 fails alone on its own
        # pool, and row 2 runs on a fifth pool.
        real = sim.generate_trials
        killed = tmp_path / "killed"

        def waiting_or_fatal(design, scenario, generators):
            seed = generators[0].bit_generator.seed_seq.entropy
            if seed == 2:
                killed.touch()
                os._exit(1)
            if seed == 1 and generators[0].bit_generator.seed_seq.spawn_key == (0,):
                deadline = time.monotonic() + 30
                while not killed.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
            return real(design, scenario, generators)

        monkeypatch.setattr(sim, "generate_trials", waiting_or_fatal)
        configs = [_config(hr=0.5, d=20, replicates=8, seed=seed) for seed in (1, 2, 3)]
        rows = run_study(configs, workers=2)
        assert rows[1].error == ("BrokenProcessPool: a worker process was killed before "
                                 "its chunk finished, often for lack of memory")
        assert rows[0].error is None and rows[2].error is None
        assert sizes == [2, 2, 2, 2, 2]
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(sim, "generate_trials", real)
        assert [rows[0], rows[2]] == run_study(configs[::2], workers=1)

    def test_no_pool_when_every_row_has_one_worker(self, sizes):
        run_study(self.CONFIGS, workers=1)
        run_study([_config(replicates=1), _config(replicates=1)], workers=2)
        assert sizes == []


class TestNoDatasetObjects:
    def test_replicates_build_no_trial_dataset(self, monkeypatch):
        # generation hands (B, N) arrays straight to the analyses
        def refuse(self, *args, **kwargs):
            raise AssertionError("a TrialDataset was built")

        monkeypatch.setattr(TrialDataset, "__init__", refuse)
        assert run_replicates(_config(replicates=12), workers=1).hr.shape == (12, 3)


class TestWorkerDeterminism:
    def test_worker_count_does_not_change_results(self):
        cfg = _config(replicates=30)
        serial = run_replicates(cfg, workers=1)
        parallel = run_replicates(cfg, workers=2)
        _assert_same(serial, parallel)

    def test_aggregate_identical_across_workers(self):
        cfg = _config(replicates=30)
        a = aggregate(run_replicates(cfg, workers=1), cfg.design.true_hr)
        b = aggregate(run_replicates(cfg, workers=2), cfg.design.true_hr)
        assert a == b


class TestAggregate:
    def test_exact_estimates_zero_bias_mse(self):
        results = _stack(*[_result(hr=(0.5,) * 3) for _ in range(4)])
        agg = aggregate(results, true_hr=0.5)
        for key in COX_KEYS:
            assert agg.methods[key].avg_bias == 0.0
            assert agg.methods[key].mse == 0.0

    def test_hand_arithmetic(self):
        results = _stack(_result(hr=(0.4,) * 3), _result(hr=(0.6,) * 3))
        agg = aggregate(results, true_hr=0.5)
        m = agg.methods["unstrat_cox"]
        assert m.avg_bias == pytest.approx(0.0, abs=1e-15)
        assert m.mse == pytest.approx(0.01, rel=1e-12)

    def test_non_converged_excluded_and_counted(self):
        good = _result(hr=(0.5,) * 3)
        bad = _result(hr=(float("nan"),) * 3, se=(float("nan"),) * 3,
                      degenerate=(False, False, True, True, True))
        agg = aggregate(_stack(good, bad, good), true_hr=0.5)
        m = agg.methods["mult_cox"]
        assert m.replicates_used == 2
        assert m.replicates_excluded == 1
        assert m.avg_bias == 0.0
        assert agg.degenerate_counts["mult_cox"] == 1

    def test_degenerate_tests_are_non_rejections(self):
        rejecting = _result(reject=(True,) * 5)
        degenerate = _result(reject=(False,) * 5, degenerate=(True,) * 5)
        agg = aggregate(_stack(rejecting, degenerate), true_hr=0.5)
        for key in TEST_KEYS:
            assert agg.power[key] == 0.5

    def test_zero_usable_replicates_reported_absent(self):
        bad = _result(hr=(float("nan"),) * 3, se=(float("nan"),) * 3)
        agg = aggregate(bad, true_hr=0.5)
        for key in COX_KEYS:
            assert agg.methods[key].avg_bias is None
            assert agg.methods[key].replicates_excluded == 1

    def test_empty_results_rejected(self):
        with pytest.raises(InvalidParameterError):
            aggregate(Replicates(np.empty((0, 3)), np.empty((0, 3)),
                                 np.empty((0, 5), bool), np.empty((0, 5), bool)), true_hr=0.5)

    def test_se_scale_hr_multiplies(self):
        results = _result(hr=(0.5,) * 3, se=(0.2,) * 3)
        log_scale = aggregate(results, 0.5, se_scale="log")
        hr_scale = aggregate(results, 0.5, se_scale="hr")
        assert log_scale.methods["strat_cox"].avg_se == pytest.approx(0.2)
        assert hr_scale.methods["strat_cox"].avg_se == pytest.approx(0.1)

    def test_mse_decomposes_into_bias_and_variance(self):
        cfg = _config(replicates=200, d=40)
        results = run_replicates(cfg, workers=1)
        agg = aggregate(results, cfg.design.true_hr)
        hrs = results.hr[:, 0]
        m = agg.methods["unstrat_cox"]
        variance = float(np.mean((hrs - hrs.mean()) ** 2))
        assert m.mse == pytest.approx(m.avg_bias ** 2 + variance, abs=1e-10)
        assert m.mse >= m.avg_bias ** 2 - 1e-12


class TestRunStudy:
    def test_rows_in_input_order(self):
        configs = [_config(hr=0.5, d=20, replicates=10, seed=1),
                   _config(hr=0.7, d=25, replicates=10, seed=2)]
        rows = run_study(configs, workers=1)
        assert [r.config.design.true_hr for r in rows] == [0.5, 0.7]
        assert all(r.error is None for r in rows)

    def test_empty_config_list_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_study([])

    def test_failing_row_does_not_abort_others(self, monkeypatch):
        configs = [_config(seed=1, replicates=5), _config(seed=2, replicates=5)]
        _fail_generation(monkeypatch, seed=1)
        rows = run_study(configs, workers=1)
        assert rows[0].metrics is None and "boom" in rows[0].error
        assert rows[1].metrics is not None and rows[1].error is None

    def test_null_hazard_ratio_centered(self):
        cfg = _config(hr=1.0, d=60, replicates=120, seed=77)
        rows = run_study([cfg], workers=2)
        agg = rows[0].metrics
        assert isinstance(agg, AggregateMetrics)
        # HR estimates center on 1 under the null (loose MC tolerance)
        assert agg.methods["unstrat_cox"].avg_bias == pytest.approx(0.0, abs=0.1)
        for key in TEST_KEYS:
            assert agg.power[key] < 0.15


class TestSimConfigValidation:
    def test_replicates_positive(self):
        with pytest.raises(InvalidParameterError):
            _config(replicates=0)

    def test_tie_method_checked(self):
        with pytest.raises(InvalidParameterError):
            _config(tie_method="exact")

    def test_se_scale_checked(self):
        with pytest.raises(InvalidParameterError):
            _config(se_scale="linear")
