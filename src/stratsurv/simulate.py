"""Monte Carlo study runner: replicate generation, analysis, and aggregation.

Each replicate draws its own random stream from (master_seed, replicate index),
so results are a pure function of the configuration and independent of how
replicates are scheduled across workers. Replicates are generated in batches,
each row from one (4, N) uniform block on its own stream, and analyzed as
(B, N) arrays with no per-replicate dataset object; no row depends on its
batch. A study cell's outcomes are one columnar record, ``Replicates``: a row
per replicate in index order, holding the three Cox estimates in COX_KEYS
order and the five test outcomes in TEST_KEYS order. Aggregation reduces
those columns in replicate order.

The worker count is a setting of the run, not of a study cell: each call
resolves one width w for all its rows. At w = 1 every row runs in this
process. Otherwise every row's chunks of ceil(n / w) replicates are queued on
one process pool up front, in row order, and each row is collected in
replicate order. A row whose chunk raises fails alone. A killed worker breaks
the pool, whichever row's chunk it ran: the row being collected runs again
alone on a fresh pool and fails only if that pool breaks too, and the rows
after it run on a fresh pool.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .datagen import RngStream, generate_trials
from .errors import InvalidParameterError
from .inference import TIE_METHODS, TrialAnalyses, analyze_trials
from .trial import ScenarioSpec, TrialDesign

#: Cox estimation methods, in reporting order (the order of COX_METHODS).
COX_KEYS = ("unstrat_cox", "mult_cox", "strat_cox")

#: Hypothesis tests, in reporting order: the two log-rank tests and the
#: one-sided Wald tests of the three Cox fits.
TEST_KEYS = ("lr", "strat_lr", "mult_cox", "strat_cox", "unstrat_cox")

#: TEST_KEYS column of each Cox method's Wald test, in COX_KEYS order.
_WALD_COLUMNS = tuple(TEST_KEYS.index(key) for key in COX_KEYS)

SE_SCALES = ("log", "hr")

#: Subject rows analyzed together: a batch holds max(1, BATCH_SUBJECT_ROWS // N)
#: replicates of N subjects. This bounds the engine's working set to a few MB;
#: larger batches run no faster.
BATCH_SUBJECT_ROWS = 2 ** 14


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo study cell: scenario, design, and run controls."""

    scenario: ScenarioSpec
    design: TrialDesign
    replicates: int = 10000
    master_seed: int = 0
    tie_method: str = "efron"
    se_scale: str = "log"

    def __post_init__(self):
        if self.replicates < 1:
            raise InvalidParameterError("replicates must be at least 1")
        if self.tie_method not in TIE_METHODS:
            raise InvalidParameterError(f"tie_method must be one of {TIE_METHODS}")
        if self.se_scale not in SE_SCALES:
            raise InvalidParameterError(f"se_scale must be one of {SE_SCALES}")
        if self.master_seed < 0:
            raise InvalidParameterError("master_seed must be nonnegative")


class Replicates(NamedTuple):
    """Columnar outcomes of R replicates, one row per replicate in index order.

    ``hr`` and ``log_hr_se`` are (R, 3) float arrays in COX_KEYS order, NaN
    where the fit is unusable: it raised, did not converge, or has no finite
    SE. ``reject`` and ``degenerate`` are (R, 5) bool arrays in TEST_KEYS
    order; a degenerate test, which includes the Wald test of an unusable
    fit, is never counted as a rejection.
    """

    hr: np.ndarray
    log_hr_se: np.ndarray
    reject: np.ndarray
    degenerate: np.ndarray


@dataclass(frozen=True)
class MethodMetrics:
    """Estimation quality of one Cox method over the usable replicates."""

    avg_bias: float | None
    avg_se: float | None
    mse: float | None
    replicates_used: int
    replicates_excluded: int


@dataclass(frozen=True)
class AggregateMetrics:
    """Study-cell summary: estimation metrics per method, power per test."""

    true_hr: float
    replicates: int
    methods: dict[str, MethodMetrics]
    power: dict[str, float]
    degenerate_counts: dict[str, int]


@dataclass(frozen=True)
class StudyRow:
    """Outcome of one configured study cell; ``error`` set if the row failed."""

    config: SimConfig
    metrics: AggregateMetrics | None
    error: str | None = None


def _replicate_range(config: SimConfig, lo: int, hi: int) -> Replicates:
    """Generate and analyze replicates lo..hi-1, each on stream (master_seed, index).

    Replicates are generated and analyzed in batches of at most
    BATCH_SUBJECT_ROWS subject rows; the results do not depend on the batching.
    """
    zcrit = NormalDist().inv_cdf(config.design.alpha_one_sided)
    size = max(1, BATCH_SUBJECT_ROWS // config.design.sample_size)
    batches = []
    for start in range(lo, hi, size):
        trials = generate_trials(config.design, config.scenario,
                                 [RngStream(config.master_seed, index).generator()
                                  for index in range(start, min(start + size, hi))])
        batches.append(_replicate_columns(
            analyze_trials(trials, config.tie_method), zcrit))
    return _concatenate(batches)


def _replicate_columns(analyses: TrialAnalyses, zcrit: float) -> Replicates:
    """One batch's analyses as replicate columns under the documented rules."""
    rows = len(analyses.logrank_z)
    hr = np.full((rows, len(COX_KEYS)), np.nan)
    se = np.full((rows, len(COX_KEYS)), np.nan)
    reject = np.zeros((rows, len(TEST_KEYS)), dtype=bool)
    degenerate = np.zeros((rows, len(TEST_KEYS)), dtype=bool)
    for col, z in enumerate((analyses.logrank_z, analyses.stratified_logrank_z)):
        degenerate[:, col] = np.isnan(z)
        reject[:, col] = z < zcrit
    for k, (fit, col) in enumerate(zip(analyses.fits, _WALD_COLUMNS)):
        usable = fit.converged & np.isfinite(fit.treatment_se)
        log_hr = fit.beta[usable, 0]
        hr[usable, k] = np.exp(log_hr)
        se[usable, k] = fit.treatment_se[usable]
        reject[usable, col] = log_hr / fit.treatment_se[usable] < zcrit
        degenerate[~usable, col] = True
    return Replicates(hr, se, reject, degenerate)


def _concatenate(parts: list[Replicates]) -> Replicates:
    return Replicates(*(np.concatenate(column) for column in zip(*parts)))


def aggregate(
    results: Replicates, true_hr: float, se_scale: str = "log"
) -> AggregateMetrics:
    """Reduce replicate columns to bias/SE/MSE per method and power per test.

    Unusable fits (NaN estimates) are excluded from that method's estimation
    metrics and counted; degenerate tests count as non-rejections. Accumulation
    order is the row order of ``results``.
    """
    n = len(results.hr)
    if n == 0:
        raise InvalidParameterError("no replicate results to aggregate")
    if se_scale not in SE_SCALES:
        raise InvalidParameterError(f"se_scale must be one of {SE_SCALES}")
    hr, se = results.hr, results.log_hr_se

    methods: dict[str, MethodMetrics] = {}
    for k, key in enumerate(COX_KEYS):
        mask = np.isfinite(hr[:, k])
        used = int(mask.sum())
        if used == 0:
            methods[key] = MethodMetrics(None, None, None, 0, n)
            continue
        h = hr[mask, k]
        s = se[mask, k] if se_scale == "log" else h * se[mask, k]
        methods[key] = MethodMetrics(
            avg_bias=float(np.mean(h) - true_hr),
            avg_se=float(np.mean(s)),
            mse=float(np.mean((h - true_hr) ** 2)),
            replicates_used=used,
            replicates_excluded=n - used,
        )

    power = {key: float(np.mean(results.reject[:, j])) for j, key in enumerate(TEST_KEYS)}
    degenerate_counts = {key: int(results.degenerate[:, j].sum())
                         for j, key in enumerate(TEST_KEYS)}
    return AggregateMetrics(
        true_hr=true_hr,
        replicates=n,
        methods=methods,
        power=power,
        degenerate_counts=degenerate_counts,
    )


def _resolve_workers(configs: list[SimConfig], workers: int | None) -> int:
    """Processes for one call: the request, else every usable CPU; never more
    than the usable CPUs or the largest row's replicates."""
    if workers is not None and workers < 1:
        raise InvalidParameterError("workers must be at least 1")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(workers or cpus, cpus, max(config.replicates for config in configs))


def _run_rows(configs: list[SimConfig], workers: int | None) -> list[Replicates | Exception]:
    """Each row's replicates in index order, or the exception that failed the row,
    scheduled at one width as the module docstring describes; a chunk that
    raises cancels its row's pending chunks."""
    w = _resolve_workers(configs, workers)
    if w == 1:
        return [_run_in_process(config) for config in configs]
    outcomes: list[Replicates | Exception] = []
    while len(outcomes) < len(configs):
        try:
            _run_on_one_pool(configs[len(outcomes):], w, outcomes)
        except BrokenProcessPool:
            try:  # any row's chunk may have killed the worker
                _run_on_one_pool(configs[len(outcomes):len(outcomes) + 1], w, outcomes)
            except BrokenProcessPool as exc:
                error = BrokenProcessPool("a worker process was killed before its "
                                          "chunk finished, often for lack of memory")
                error.__cause__ = exc
                outcomes.append(error)
    return outcomes


def _run_in_process(config: SimConfig) -> Replicates | Exception:
    try:
        return _replicate_range(config, 0, config.replicates)
    except Exception as exc:  # row isolation by contract
        return exc


def _run_on_one_pool(configs: list[SimConfig], w: int,
                     outcomes: list[Replicates | Exception]) -> None:
    """Append the rows' outcomes from one pool of w workers, which is shut down
    before this returns or raises; a row that finds it broken raises
    BrokenProcessPool."""
    pool = ProcessPoolExecutor(max_workers=w)
    try:
        for futures in [_submit(pool, config, w) for config in configs]:
            try:
                outcomes.append(_concatenate([fut.result() for fut in futures]))
            except BrokenProcessPool:
                raise
            except Exception as exc:  # row isolation by contract
                for fut in futures:
                    fut.cancel()
                outcomes.append(exc)
    finally:
        # after an interrupt or a broken pool, every pending chunk is dropped
        pool.shutdown(cancel_futures=True)


def _submit(pool: ProcessPoolExecutor, config: SimConfig, w: int) -> list[Future]:
    """One row's chunks of ceil(n / w) replicates, in replicate-index order."""
    n = config.replicates
    chunk = math.ceil(n / w)
    return [pool.submit(_replicate_range, config, lo, min(lo + chunk, n))
            for lo in range(0, n, chunk)]


def run_replicates(config: SimConfig, workers: int | None = None) -> Replicates:
    """All replicates of one config as one columnar record, in replicate-index order.

    This is ``run_study``'s scheduling for one row: at more than one worker,
    the replicates run as at most ``workers`` chunks on a pool that is shut
    down before this returns. The error that fails the row is raised.
    """
    [outcome] = _run_rows([config], workers)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_study(configs: list[SimConfig], workers: int | None = None) -> list[StudyRow]:
    """Run every configured study cell; a failing row never aborts the others.

    ``workers`` is the run's one worker count (``StudyConfig.workers``): all
    rows share its width and, above one, a process pool (see ``_run_rows``).
    """
    if not configs:
        raise InvalidParameterError("config list must not be empty")
    rows: list[StudyRow] = []
    for config, outcome in zip(configs, _run_rows(configs, workers)):
        if isinstance(outcome, Exception):
            rows.append(StudyRow(config=config, metrics=None,
                                 error=f"{type(outcome).__name__}: {outcome}"))
        else:
            metrics = aggregate(outcome, config.design.true_hr, config.se_scale)
            rows.append(StudyRow(config=config, metrics=metrics))
    return rows
