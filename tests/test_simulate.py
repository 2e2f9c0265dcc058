"""Tests for the Monte Carlo harness: determinism, aggregation, metrics."""

import concurrent.futures
import json
import math
import multiprocessing
import os
import time
import tracemalloc
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import stratsurv.inference as inference
import stratsurv.simulate as sim
from _replay import assert_same, replay_replicates
from stratsurv.datagen import TrialDataset, stream_states
from stratsurv.errors import InvalidParameterError
from stratsurv.io import write_sidecar_json
from stratsurv.simulate import (
    COX_KEYS,
    SE_SCALES,
    TEST_KEYS,
    AggregateMetrics,
    Replicates,
    SimConfig,
    StudyRow,
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


def _fail_generation(monkeypatch, seed):
    """Make generation raise RuntimeError("boom") for the row seeded ``seed``."""
    real = sim.stream_states

    def flaky(master_seed, lo, hi):
        if master_seed == seed:
            raise RuntimeError("boom")
        return real(master_seed, lo, hi)

    monkeypatch.setattr(sim, "stream_states", flaky)


class TestRunReplicate:
    def test_deterministic_per_index(self):
        cfg = _config()
        assert_same(sim._replicate_range(cfg, 5, 6).replicates,
                    sim._replicate_range(cfg, 5, 6).replicates)
        chunk = sim._replicate_range(cfg, 3, 7).replicates
        assert_same(sim._replicate_range(cfg, 5, 6).replicates,
                    Replicates(*(column[2:3] for column in chunk)))
        assert not np.array_equal(sim._replicate_range(cfg, 5, 6).replicates.hr,
                                  sim._replicate_range(cfg, 6, 7).replicates.hr)

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
        return cfg, replay_replicates(cfg)

    def test_reference_has_unusable_replicates(self, small_n):
        _, ref = small_n
        assert ref.degenerate[:, TEST_KEYS.index("strat_lr")].any()
        assert np.isnan(ref.hr[:, COX_KEYS.index("mult_cox")]).any()
        assert np.isnan(ref.hr[:, COX_KEYS.index("strat_cox")]).any()
        assert np.isfinite(ref.hr).any() and ref.reject.any()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_columns_match_reference(self, small_n, workers):
        cfg, ref = small_n
        assert_same(run_replicates(cfg, workers=workers), ref)

    def test_batching_does_not_change_results(self, small_n, monkeypatch):
        # A replicate's outcome must not depend on the batch it is analyzed
        # in, whatever the host's CPU count makes of the worker chunking.
        cfg, _ = small_n
        whole = sim._replicate_range(cfg, 0, 37).replicates
        assert_same(_stack(sim._replicate_range(cfg, 0, 7).replicates,
                           sim._replicate_range(cfg, 7, 37).replicates), whole)
        assert_same(_stack(*(sim._replicate_range(cfg, i, i + 1).replicates
                             for i in range(37))), whole)
        # batches of 5 replicates: 3..20 crosses the boundaries at 8, 13 and 18
        monkeypatch.setattr(sim, "BATCH_SUBJECT_ROWS", 5 * cfg.design.sample_size)
        assert_same(sim._replicate_range(cfg, 3, 20).replicates,
                    Replicates(*(c[3:20] for c in whole)))
        assert_same(sim._replicate_range(cfg, 0, 37).replicates, whole)
        # stream states hashed one batch at a time
        calls = []

        def spy(seed, lo, hi):
            calls.append((lo, hi))
            return stream_states(seed, lo, hi)
        monkeypatch.setattr(sim, "stream_states", spy)
        assert_same(sim._replicate_range(cfg, 3, 37).replicates,
                    Replicates(*(c[3:37] for c in whole)))
        assert calls == [(3, 8), (8, 13), (13, 18), (18, 23), (23, 28), (28, 33), (33, 37)]


def _unequal_row(events, replicates=1):
    """One row of the 7:1 unequal-strata study (scenario 2, poor prognosis)."""
    design = TrialDesign.from_event_target(true_hr=0.5, target_events=events,
                                           allocation_weights=(7,) * 6 + (1,) * 6)
    return SimConfig(scenario=ScenarioSpec.multiplicative_covariates(), design=design,
                     replicates=replicates, master_seed=20260813)


class TestBatchSizes:
    """The shipped batch size and the one before it give the replayed record."""

    @pytest.fixture(scope="class", params=[(66, 350), (380, 64)], ids=["N95", "N543"])
    def unequal_row(self, request):
        # three batches at 2^14 subject rows and two at 2^15: 172 and 344
        # replicates of N = 95, 30 and 60 of N = 543
        cfg = _unequal_row(*request.param)
        return cfg, replay_replicates(cfg)

    @pytest.mark.parametrize("rows", [2 ** 14, 2 ** 15])
    def test_batch_size(self, unequal_row, monkeypatch, rows):
        cfg, ref = unequal_row
        monkeypatch.setattr(sim, "BATCH_SUBJECT_ROWS", rows)
        assert_same(sim._replicate_range(cfg, 0, cfg.replicates).replicates, ref)

    def test_two_worker_pool_gives_the_record(self, unequal_row, monkeypatch):
        cfg, ref = unequal_row
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert_same(run_replicates(cfg, workers=2), ref)


@pytest.mark.parametrize("events", [66, 380], ids=["N95", "N543"])
def test_batch_working_set(events):
    # One full batch, from its stream states to its replicate columns, peaks
    # at 230-270 traced bytes per subject row; a footprint grown past 320
    # fails here instead of surfacing as the resident memory of a run.
    cfg = _unequal_row(events)
    size = sim.BATCH_SUBJECT_ROWS // cfg.design.sample_size
    sim._replicate_range(cfg, 0, size)  # lazy set-up is not the batch's
    tracemalloc.start()
    try:
        sim._replicate_range(cfg, 0, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 320 * sim.BATCH_SUBJECT_ROWS + 2 ** 20


class TestStageTimes:
    """A replicate range times each of STAGES on its own, summed over its batches."""

    SLEEP_NS = 30_000_000

    @pytest.fixture
    def three_batches(self, monkeypatch):
        cfg = _config(replicates=11)
        monkeypatch.setattr(sim, "BATCH_SUBJECT_ROWS", 5 * cfg.design.sample_size)
        return cfg  # batches of 5, 5 and 1 replicates

    def test_one_nonnegative_int64_per_stage(self, three_batches):
        ns = sim._replicate_range(three_batches, 0, 11).ns
        assert ns.dtype == np.int64 and ns.shape == (len(sim.STAGES),)
        assert (ns >= 0).all()

    @pytest.mark.parametrize("module, name, stage", [
        (sim, "generate_trials", "generation"),
        (inference, "_logrank", "logranks"),
    ], ids=["generation", "logranks"])
    def test_slept_time_lands_in_its_stage(self, three_batches, monkeypatch,
                                           module, name, stage):
        real, calls = getattr(module, name), []

        def slow(*args):
            calls.append(args)
            time.sleep(self.SLEEP_NS / 1e9)
            return real(*args)

        monkeypatch.setattr(module, name, slow)
        ns = dict(zip(sim.STAGES, sim._replicate_range(three_batches, 0, 11).ns))
        assert len(calls) >= 3
        assert ns.pop(stage) >= len(calls) * self.SLEEP_NS
        assert max(ns.values()) < self.SLEEP_NS, ns


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
    runs in this process when it is submitted. ``submitted`` records each
    chunk as (master_seed, lo, hi), in submit order."""

    def __init__(self, error=None, failing_seed=None):
        self.error = error
        self.failing_seed = failing_seed
        self.pending = []
        self.ran = []
        self.submitted = []
        self.cancelled_before_shutdown = None

    def submit(self, fn, config, lo, hi):
        self.submitted.append((config.master_seed, lo, hi))
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

    def make(max_workers, **kwargs):
        sizes.append(max_workers)
        return pools[len(sizes) - 1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", make)
    return sizes


def _batches_of(monkeypatch, replicates, config):
    """Make ``config``'s batch ``replicates`` long, so that its row is cut finely."""
    monkeypatch.setattr(sim, "BATCH_SUBJECT_ROWS", replicates * config.design.sample_size)


#: The 2 chunks a 40-replicate row seeded 555 or 556 is cut into at 2 workers
#: in batches of 20, as the recording ``_StubPool`` lists them.
ROW_555 = [(555, 0, 20), (555, 20, 40)]
ROW_556 = [(556, 0, 20), (556, 20, 40)]


@pytest.mark.usefixtures("two_cpus")
class TestFailedChunk:
    @pytest.mark.parametrize("error", [RuntimeError("boom"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_remaining_chunks_cancelled(self, monkeypatch, error):
        # 40 replicates in 20 batches of 2 at 2 workers: the cap of 8 chunks
        # binds, so the row is 8 chunks of 2 or 3 whole batches, of which
        # chunk 0 fails and 7 are pending
        cfg = _config(replicates=40)
        _batches_of(monkeypatch, 2, cfg)
        pool = _StubPool(error, failing_seed=555)
        _use_pools(monkeypatch, pool)
        with pytest.raises(type(error)):
            run_replicates(cfg, workers=2)
        cuts = [0, 4, 10, 14, 20, 24, 30, 34, 40]
        assert sorted(pool.submitted) == [(555, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        assert len(pool.pending) == 7
        assert pool.ran == []

    def test_failed_chunk_cancels_only_its_row(self, monkeypatch):
        # batches of 20: each row is 2 chunks of 20
        configs = [_config(seed=555, replicates=40), _config(seed=556, replicates=40)]
        _batches_of(monkeypatch, 20, configs[0])
        pool = _StubPool(RuntimeError("boom"), failing_seed=555)
        sizes = _use_pools(monkeypatch, pool)
        rows = run_study(configs, workers=2)
        assert sizes == [2]
        assert pool.submitted == ROW_555 + ROW_556
        assert rows[0].metrics is None and rows[0].error == "RuntimeError: boom"
        assert pool.cancelled_before_shutdown == [True]
        assert pool.ran == []
        assert rows[1] == run_study(configs[1:], workers=1)[0]

    def test_dead_worker_named_in_row_error(self, monkeypatch):
        # The row of 2 chunks breaks its pool, and the fresh pool it runs on
        # alone; on each, its second chunk is dropped, not run.
        cfg = _config(replicates=40)
        _batches_of(monkeypatch, 20, cfg)
        pools = [_StubPool(BrokenProcessPool("terminated abruptly"), failing_seed=555)
                 for _ in range(2)]
        sizes = _use_pools(monkeypatch, *pools)
        [row] = run_study([cfg], workers=2)
        assert row.metrics is None
        assert row.error == ("BrokenProcessPool: a worker process was killed before "
                             "its chunk finished, often for lack of memory")
        assert sizes == [2, 2]
        for pool in pools:
            assert pool.submitted == ROW_555
            assert pool.ran == [] and pool.pending[0][0].cancelled()

    def test_dead_worker_fails_one_row_and_the_rest_restart(self, monkeypatch):
        # Row 0 finds the shared pool broken and breaks its own pool too, so it
        # fails; row 1 then runs on a third pool. Each row is 2 chunks.
        configs = [_config(seed=555, replicates=40), _config(seed=556, replicates=40)]
        _batches_of(monkeypatch, 20, configs[0])
        pools = [*(_StubPool(BrokenProcessPool("terminated abruptly"), failing_seed=555)
                   for _ in range(2)), _StubPool()]
        sizes = _use_pools(monkeypatch, *pools)
        rows = run_study(configs, workers=2)
        assert rows[0].error == ("BrokenProcessPool: a worker process was killed before "
                                 "its chunk finished, often for lack of memory")
        assert rows[1].error is None
        assert rows[1].metrics == run_study(configs[1:], workers=1)[0].metrics
        assert sizes == [2, 2, 2]
        assert [pool.submitted for pool in pools] == [ROW_555 + ROW_556, ROW_555, ROW_556]
        assert pools[0].ran == pools[1].ran == []

    def test_row_that_finds_the_pool_broken_runs_again_alone(self, monkeypatch):
        # Another row's chunk killed a worker while row 0 was collected: row 0's
        # 2 chunks run again alone on a fresh pool, and row 1 on a third one.
        configs = [_config(seed=555, replicates=40), _config(seed=556, replicates=40)]
        _batches_of(monkeypatch, 20, configs[0])
        pools = [_StubPool(BrokenProcessPool("terminated abruptly"), failing_seed=555),
                 _StubPool(), _StubPool()]
        sizes = _use_pools(monkeypatch, *pools)
        assert run_study(configs, workers=2) == run_study(configs, workers=1)
        assert sizes == [2, 2, 2]
        assert [pool.submitted for pool in pools] == [ROW_555 + ROW_556, ROW_555, ROW_556]
        assert pools[0].ran == []

    def test_pool_broken_while_queueing_reruns_the_first_row(self, monkeypatch):
        class BrokenOnSubmit(_StubPool):
            def submit(self, fn, config, lo, hi):
                raise BrokenProcessPool("terminated abruptly")

        configs = [_config(seed=555, replicates=40), _config(seed=556, replicates=40)]
        _batches_of(monkeypatch, 20, configs[0])
        pools = [BrokenOnSubmit(), _StubPool(), _StubPool()]
        sizes = _use_pools(monkeypatch, *pools)
        assert run_study(configs, workers=2) == run_study(configs, workers=1)
        assert sizes == [2, 2, 2]
        assert [pool.submitted for pool in pools] == [[], ROW_555, ROW_556]


class TestChunkPlan:
    """How a row is cut into pool chunks, and the order they are queued in."""

    @pytest.mark.parametrize("replicates", [1, 2, 3, 7, 40, 41, 1000, sim.MAX_REPLICATES])
    @pytest.mark.parametrize("batch", [1, 3, 10, 64])
    @pytest.mark.parametrize("w", [2, 4])
    def test_chunks_cover_the_row(self, monkeypatch, replicates, batch, w):
        cfg = _config(replicates=replicates)
        _batches_of(monkeypatch, batch, cfg)
        chunks = sim._chunks(cfg, w)
        batches = math.ceil(replicates / batch)
        assert len(chunks) == min(batches, 4 * w)
        # contiguous, in order, from 0 to n, none empty
        assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
        assert chunks[-1][1] == replicates
        assert min(hi - lo for lo, hi in chunks) >= 1
        # cut at batch boundaries into whole batches, counts within one, so
        # the row runs as many batches as in one process
        assert all(lo % batch == 0 for lo, _ in chunks)
        counts = [math.ceil((hi - lo) / batch) for lo, hi in chunks]
        assert sum(counts) == batches and max(counts) - min(counts) <= 1

    @pytest.mark.parametrize("w", [2, 4])
    def test_every_width_runs_the_serial_batches(self, monkeypatch, w):
        # Batches of 2 replicates: a row of 7 is 4 batches, under the cap; a
        # row of 40 is 20, capped to 4 w chunks; the rows of 1 and 3 have
        # fewer replicates than w at w = 4, and the row of 1 at w = 2 too.
        configs = _rows(7, 40, 1, 3)
        _batches_of(monkeypatch, 2, configs[0])
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(w)),
                            raising=False)
        real, batches = sim.stream_states, []

        def recording(seed, lo, hi):
            batches.append((seed, lo, hi))
            return real(seed, lo, hi)

        monkeypatch.setattr(sim, "stream_states", recording)
        serial = sim._run_rows(configs, 1)
        serial_batches = sorted(batches)
        batches.clear()
        sizes = _use_pools(monkeypatch, _StubPool())
        pooled = sim._run_rows(configs, w)
        assert sizes == [w]
        assert sorted(batches) == serial_batches
        for row, reference in zip(pooled, serial):
            assert_same(row, reference)

    def test_queued_heaviest_first_ties_in_row_order(self, monkeypatch, two_cpus):
        # Batches of 258 subject rows: 6 replicates of N = 43, 3 of N = 86.
        # Each chunk is one batch, and weighs its length times N: 258 for
        # row 0's first, each of row 1's and row 2's first, 172 for row 4's
        # one, 86 for row 2's second and 43 for row 0's second and row 3's.
        monkeypatch.setattr(sim, "BATCH_SUBJECT_ROWS", 258)
        configs = [_config(d=30, replicates=7, seed=1), _config(d=60, replicates=6, seed=2),
                   _config(d=30, replicates=8, seed=3), _config(d=30, replicates=1, seed=4),
                   _config(d=30, replicates=4, seed=5)]
        assert [cfg.design.sample_size for cfg in configs] == [43, 86, 43, 43, 43]
        pool = _StubPool()
        _use_pools(monkeypatch, pool)
        rows = sim._run_rows(configs, 2)
        assert pool.submitted == [(1, 0, 6), (2, 0, 3), (2, 3, 6), (3, 0, 6),
                                  (5, 0, 4), (3, 6, 8), (1, 6, 7), (4, 0, 1)]
        for row, cfg in zip(rows, configs):
            assert_same(row, sim._replicate_range(cfg, 0, cfg.replicates).replicates)


@pytest.mark.usefixtures("two_cpus")
class TestOnePoolPerCall:
    """A real two-worker pool on a tiny two-row study."""

    CONFIGS = [_config(hr=0.5, d=20, replicates=8, seed=1),
               _config(hr=0.7, d=20, replicates=8, seed=2)]

    @pytest.fixture
    def sizes(self, monkeypatch):
        real = concurrent.futures.ProcessPoolExecutor
        sizes = []

        def counting(max_workers, **kwargs):
            sizes.append(max_workers)
            return real(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
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
        # each row is within one batch, so it runs as one chunk on a pool
        # of 2 that only the 40-replicate row asks for
        configs = [_config(hr=0.5, d=20, replicates=n, seed=n) for n in (1, 7, 40)]
        rows = run_study(configs, workers=2)
        assert sizes == [2]
        assert multiprocessing.active_children() == []
        assert rows == run_study(configs, workers=1)
        assert all(row.error is None for row in rows)

    def test_reordered_and_capped_chunks_give_the_serial_columns(self, sizes, monkeypatch):
        # Batches of 172 subject rows. Row 2 (40 replicates of N = 43 in 10
        # batches of 4) hits the cap: 8 chunks of 1 or 2 batches, whose 2-batch
        # chunks are queued before row 0's (9 replicates of N = 86: its 5
        # batches of 2 and 1). Row 0's last and lightest chunk, (8, 9), goes
        # behind row 2's 1-batch chunks. Row 1 has fewer replicates than
        # workers.
        monkeypatch.setattr(sim, "BATCH_SUBJECT_ROWS", 172)
        configs = [_config(hr=0.7, d=60, replicates=9, seed=7),
                   _config(hr=0.5, d=20, replicates=1, seed=8),
                   _config(hr=0.6, d=30, replicates=40, seed=9)]
        assert [sim._chunks(config, 2) for config in configs] == [
            [(0, 2), (2, 4), (4, 6), (6, 8), (8, 9)], [(0, 1)],
            [(0, 4), (4, 8), (8, 12), (12, 20), (20, 24), (24, 28), (28, 32), (32, 40)]]
        pooled = sim._run_rows(configs, 2)
        assert sizes == [2]
        assert multiprocessing.active_children() == []
        for row, serial in zip(pooled, sim._run_rows(configs, 1)):
            assert_same(row, serial)

    def test_killed_worker_fails_only_its_row(self, sizes, monkeypatch, tmp_path):
        # Each row is 2 equal chunks, queued in row order. Row 1's chunks kill
        # their worker while row 0's first chunk is still running: on its
        # first run that chunk waits until the broken pool terminates its
        # worker, so it can never finish first. Row 0 runs again alone, row 1
        # fails alone on its own pool, and row 2 runs on a fifth pool.
        real = sim.stream_states
        started = tmp_path / "started"

        def waiting_or_fatal(seed, lo, hi):
            if seed == 2:
                os._exit(1)
            if seed == 1 and lo == 0 and not started.exists():
                started.touch()
                time.sleep(30)
            return real(seed, lo, hi)

        monkeypatch.setattr(sim, "stream_states", waiting_or_fatal)
        configs = [_config(hr=0.5, d=20, replicates=8, seed=seed) for seed in (1, 2, 3)]
        _batches_of(monkeypatch, 4, configs[0])
        assert [sim._chunks(config, 2) for config in configs] == [[(0, 4), (4, 8)]] * 3
        rows = run_study(configs, workers=2)
        assert rows[1].error == ("BrokenProcessPool: a worker process was killed before "
                                 "its chunk finished, often for lack of memory")
        assert rows[0].error is None and rows[2].error is None
        assert sizes == [2, 2, 2, 2, 2]
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(sim, "stream_states", real)
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
        assert_same(serial, parallel)

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

    def test_bad_se_scale_rejected(self):
        with pytest.raises(InvalidParameterError, match="se_scale must be one of"):
            aggregate(_result(hr=(0.5,) * 3, se=(0.2,) * 3), 0.5, se_scale="linear")

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

    @pytest.mark.parametrize("se_scale", SE_SCALES)
    def test_mcse_matches_formulas(self, se_scale):
        # Morris, White & Crowther (2019), Table 6, on a run_replicates record
        cfg = _config(replicates=200, d=40)
        results = run_replicates(cfg, workers=1)
        true_hr = cfg.design.true_hr
        agg = aggregate(results, true_hr, se_scale)
        for k, key in enumerate(COX_KEYS):
            usable = np.isfinite(results.hr[:, k])
            h = results.hr[usable, k]
            s = results.log_hr_se[usable, k] * (h if se_scale == "hr" else 1.0)
            root = np.sqrt(usable.sum())
            m = agg.methods[key]
            assert m.avg_bias_mcse == np.std(h, ddof=1) / root
            assert m.avg_se_mcse == np.std(s, ddof=1) / root
            assert m.mse_mcse == np.std((h - true_hr) ** 2, ddof=1) / root
        for j, key in enumerate(TEST_KEYS):
            p = np.mean(results.reject[:, j])
            assert agg.power_mcse[key] == np.sqrt(p * (1 - p) / len(results.reject))
            assert 0 < agg.power_mcse[key] < 0.05

    def test_mcse_absent_below_two_usable_fits(self):
        nan = float("nan")
        one_mult = _result(hr=(0.4, nan, nan), se=(0.2, nan, nan))
        agg = aggregate(_stack(_result(hr=(0.6, 0.5, nan), se=(0.1, 0.1, nan)), one_mult),
                        true_hr=0.5)
        unstrat, mult, strat = (agg.methods[key] for key in COX_KEYS)
        # estimates 0.6 and 0.4, SEs 0.1 and 0.2, both squared errors 0.01
        assert unstrat.avg_bias_mcse == pytest.approx(0.1)
        assert unstrat.avg_se_mcse == pytest.approx(0.05)
        assert unstrat.mse_mcse == pytest.approx(0.0, abs=1e-15)
        assert mult.replicates_used == 1 and strat.replicates_used == 0
        for m in (mult, strat):
            assert m.avg_bias_mcse is m.avg_se_mcse is m.mse_mcse is None

    def test_power_mcse_zero_at_zero_power_and_absent_for_one_replicate(self):
        agg = aggregate(_stack(*[_result() for _ in range(3)]), true_hr=0.5)
        assert agg.power_mcse == dict.fromkeys(TEST_KEYS, 0.0)
        assert aggregate(_result(), true_hr=0.5).power_mcse == dict.fromkeys(TEST_KEYS)

    def test_sidecar_holds_no_nan(self, tmp_path):
        nan = float("nan")
        results = _stack(_result(hr=(0.6, 0.5, nan), se=(0.1, 0.1, nan)),
                         _result(hr=(0.4, nan, nan), se=(0.2, nan, nan)))
        rows = [StudyRow(_config(), aggregate(results, true_hr=0.5)),
                StudyRow(_config(), aggregate(_result(), true_hr=0.5))]
        path = tmp_path / "r.json"
        write_sidecar_json(path, {"run": {"workers": 1}}, rows)

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        records = json.loads(path.read_text(), parse_constant=refuse)["rows"]
        assert records[0]["methods"]["mult_cox"]["avg_bias_mcse"] is None
        assert records[1]["power_mcse"] == dict.fromkeys(TEST_KEYS)


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

    def test_replicates_bounded(self):
        # only constructed: no replicate is ever run at this count
        assert _config(replicates=sim.MAX_REPLICATES).replicates == 10_000_000
        with pytest.raises(InvalidParameterError,
                           match="replicates 10000001 exceeds the maximum of 10000000"):
            _config(replicates=sim.MAX_REPLICATES + 1)

    def test_tie_method_checked(self):
        with pytest.raises(InvalidParameterError):
            _config(tie_method="exact")

    def test_se_scale_checked(self):
        with pytest.raises(InvalidParameterError):
            _config(se_scale="linear")

    @pytest.mark.parametrize("seed", [-1, 7.0, 7.5, "7", None, True])
    def test_master_seed_must_be_a_nonnegative_integer(self, seed):
        # a float seed used to construct and fail its row when the streams were built
        with pytest.raises(InvalidParameterError, match="master_seed must be a nonnegative "
                                                        "integer"):
            _config(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        cfg = _config(seed=np.uint64(2**63 + 7), replicates=3)
        assert_same(sim._replicate_range(cfg, 0, 3).replicates,
                    sim._replicate_range(_config(seed=2**63 + 7, replicates=3), 0, 3).replicates)
