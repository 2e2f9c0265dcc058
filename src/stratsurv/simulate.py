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
process, and no pool module is imported. Otherwise a row of B batches is
dealt into min(B, 4 w) chunks of whole batches, their counts differing by at
most one, so at every width the pool runs the batches of a 1-worker run.
Every row's chunks are queued on one process pool up front, heaviest first by
length times N, equal ones in row and index order, and each row is collected
in replicate order. A row whose chunk raises fails alone. A killed worker
breaks the pool, whichever row's chunk it ran: the row being collected runs
again alone on a fresh pool and fails only if that pool breaks too, and the
rows after it run on a fresh pool.

A replicate range also times its STAGES, summed over its batches: the stream
states, the uniform block, the trials' generation, ANALYSIS_STAGES, and the
replicate columns with their concatenation (``columns``).
"""

from __future__ import annotations

import math
import os
import signal
import time
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .datagen import check_nonnegative_integer, generate_trials, stream_states, stream_uniforms
from .errors import InvalidParameterError
from .inference import ANALYSIS_STAGES, TIE_METHODS, TrialAnalyses, analyze_trials
from .trial import ScenarioSpec, TrialDesign

#: Cox estimation methods, in reporting order (the order of COX_METHODS).
COX_KEYS = ("unstrat_cox", "mult_cox", "strat_cox")

#: Hypothesis tests, in reporting order: the two log-rank tests and the
#: one-sided Wald tests of the three Cox fits.
TEST_KEYS = ("lr", "strat_lr", "mult_cox", "strat_cox", "unstrat_cox")

SE_SCALES = ("log", "hr")

STAGES = ("streams", "uniforms", "generation", *ANALYSIS_STAGES, "columns")

#: Subject rows analyzed together: a batch holds max(1, BATCH_SUBJECT_ROWS // N)
#: replicates of N subjects. Each Newton step runs the same numpy calls
#: however many replicates a batch holds, so a larger batch spreads that fixed
#: cost thinner, while its working set grows by 230-270 traced bytes per
#: subject row, about 8 MB here. Measured on 2 CPUs with numpy 2.4.6 under the
#: command's allocator settings, in us per replicate at 2^14, 2^15 and 2^16
#: rows: 144, 134 and 127 at N = 95; 665, 611 and 581 at N = 543. 2^16 was
#: faster still but lifted the peak resident memory of a six-row 2-worker
#: study by 12%, against 4% for 2^15.
BATCH_SUBJECT_ROWS = 2 ** 15

#: Most chunks a row is cut into per pool worker, so that a row of millions
#: of replicates does not queue a future per batch.
CHUNKS_PER_WORKER = 4

#: Largest replicate count of a study row. A row's columns take 58 bytes per
#: replicate, so this bounds them to about 0.6 GB, twice that while they are
#: concatenated.
MAX_REPLICATES = 10_000_000


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
        if self.replicates > MAX_REPLICATES:
            raise InvalidParameterError(
                f"replicates {self.replicates} exceeds the maximum of {MAX_REPLICATES}")
        if self.tie_method not in TIE_METHODS:
            raise InvalidParameterError(f"tie_method must be one of {TIE_METHODS}")
        if self.se_scale not in SE_SCALES:
            raise InvalidParameterError(f"se_scale must be one of {SE_SCALES}")
        check_nonnegative_integer(self.master_seed, "master_seed")


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


class _Chunk(NamedTuple):
    """A replicate range's outcomes and its nanoseconds in each of STAGES, as int64."""

    replicates: Replicates
    ns: np.ndarray


@dataclass(frozen=True)
class MethodMetrics:
    """Estimation quality of one Cox method over the usable fits, each mean with its MCSE."""

    avg_bias: float | None
    avg_se: float | None
    mse: float | None
    replicates_used: int
    replicates_excluded: int
    avg_bias_mcse: float | None
    avg_se_mcse: float | None
    mse_mcse: float | None


@dataclass(frozen=True)
class AggregateMetrics:
    """Study-cell summary: estimation metrics per method, power and its MCSE per test."""

    true_hr: float
    replicates: int
    methods: dict[str, MethodMetrics]
    power: dict[str, float]
    degenerate_counts: dict[str, int]
    power_mcse: dict[str, float | None]


@dataclass(frozen=True)
class StudyRow:
    """Outcome of one configured study cell; ``error`` set if the row failed."""

    config: SimConfig
    metrics: AggregateMetrics | None
    error: str | None = None


def _replicate_range(config: SimConfig, lo: int, hi: int) -> _Chunk:
    """Generate and analyze replicates lo..hi-1, each on stream (master_seed, index).

    Each batch of at most BATCH_SUBJECT_ROWS subject rows hashes its stream
    states, then is drawn, generated and analyzed. The results do not depend
    on the batching; the stage times sum the batches'.
    """
    zcrit = NormalDist().inv_cdf(config.design.alpha_one_sided)
    n = config.design.sample_size
    size = _batch_replicates(config)
    ns = np.zeros(len(STAGES), dtype=np.int64)
    batches = []
    for start in range(lo, hi, size):
        marks = [time.perf_counter_ns()]
        states = stream_states(config.master_seed, start, min(start + size, hi))
        marks.append(time.perf_counter_ns())
        uniforms = stream_uniforms(states, n)
        marks.append(time.perf_counter_ns())
        trials = generate_trials(config.design, config.scenario, uniforms)
        del uniforms  # not held through the analysis, whose peak it would raise
        marks.append(time.perf_counter_ns())
        analyses = analyze_trials(trials, config.tie_method)
        columns = time.perf_counter_ns()
        batches.append(_replicate_columns(analyses, zcrit))
        ns += (*np.diff(marks), *analyses.ns, time.perf_counter_ns() - columns)
    columns = time.perf_counter_ns()
    replicates = _concatenate(batches)
    ns[-1] += time.perf_counter_ns() - columns
    return _Chunk(replicates, ns)


def _batch_replicates(config: SimConfig) -> int:
    return max(1, BATCH_SUBJECT_ROWS // config.design.sample_size)


def _replicate_columns(analyses: TrialAnalyses, zcrit: float) -> Replicates:
    """One batch's analyses as replicate columns under the documented rules.

    Every test is a z column in TEST_KEYS order, NaN where it is degenerate.
    A fit's log-HR and SE are set to NaN where it is unusable, and its Wald z
    is their ratio; a usable fit has a finite SE above 0, so its z is not NaN.
    """
    fits = analyses.fits
    usable = np.column_stack([fit.converged & np.isfinite(fit.treatment_se) for fit in fits])
    log_hr = np.where(usable, np.column_stack([fit.beta[:, 0] for fit in fits]), np.nan)
    se = np.where(usable, np.column_stack([fit.treatment_se for fit in fits]), np.nan)
    wald = (log_hr / se)[:, [COX_KEYS.index(key) for key in TEST_KEYS[2:]]]
    z = np.column_stack((analyses.logrank_z, analyses.stratified_logrank_z, wald))
    return Replicates(np.exp(log_hr), se, z < zcrit, np.isnan(z))


def _concatenate(parts: list[Replicates]) -> Replicates:
    return Replicates(*(np.concatenate(column) for column in zip(*parts)))


def aggregate(
    results: Replicates, true_hr: float, se_scale: str = "log"
) -> AggregateMetrics:
    """Reduce replicate columns to bias/SE/MSE per method and power per test,
    each with its Monte Carlo standard error (Morris, White & Crowther 2019,
    Table 6): SD(ddof=1) / sqrt(n) of the usable values for the three means,
    sqrt(p (1 - p) / R) for power; None below two values.

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
            methods[key] = MethodMetrics(None, None, None, 0, n, None, None, None)
            continue
        h = hr[mask, k]
        s = se[mask, k] if se_scale == "log" else h * se[mask, k]
        squared = (h - true_hr) ** 2
        methods[key] = MethodMetrics(
            avg_bias=float(np.mean(h) - true_hr),
            avg_se=float(np.mean(s)),
            mse=float(np.mean(squared)),
            replicates_used=used,
            replicates_excluded=n - used,
            avg_bias_mcse=_mcse(h),
            avg_se_mcse=_mcse(s),
            mse_mcse=_mcse(squared),
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
        power_mcse={key: math.sqrt(p * (1 - p) / n) if n > 1 else None
                    for key, p in power.items()},
    )


def _mcse(values: np.ndarray) -> float | None:
    """The Monte Carlo SE of the mean of ``values``, or None below two values."""
    return float(np.std(values, ddof=1)) / math.sqrt(len(values)) if len(values) > 1 else None


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
    from concurrent.futures.process import BrokenProcessPool

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
        return _replicate_range(config, 0, config.replicates).replicates
    except Exception as exc:  # row isolation by contract
        return exc


def _run_on_one_pool(configs: list[SimConfig], w: int,
                     outcomes: list[Replicates | Exception]) -> None:
    """Append the rows' outcomes from one pool of w workers, which is shut down
    before this returns or raises; a row that finds it broken raises
    BrokenProcessPool."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    plan = [_chunks(config, w) for config in configs]
    # heaviest first (Graham's LPT rule), so the idle tail is the lightest
    # chunk's; the sort is stable, so equal chunks keep row and index order
    tasks = sorted(((row, lo, hi) for row, ranges in enumerate(plan) for lo, hi in ranges),
                   key=lambda task: -(task[2] - task[1]) * configs[task[0]].design.sample_size)
    # the workers ignore SIGINT, so a Ctrl-C sent to the whole process group
    # interrupts this process alone, which drops the pending chunks below
    pool = ProcessPoolExecutor(max_workers=w, initializer=signal.signal,
                               initargs=(signal.SIGINT, signal.SIG_IGN))
    try:
        submitted = {(row, lo): pool.submit(_replicate_range, configs[row], lo, hi)
                     for row, lo, hi in tasks}
        for row, ranges in enumerate(plan):
            futures = [submitted[row, lo] for lo, _ in ranges]
            try:
                outcomes.append(_concatenate([fut.result().replicates for fut in futures]))
            except BrokenProcessPool:
                raise
            except Exception as exc:  # row isolation by contract
                for fut in futures:
                    fut.cancel()
                outcomes.append(exc)
    finally:
        # after an interrupt or a broken pool, every pending chunk is dropped
        pool.shutdown(cancel_futures=True)


def _chunks(config: SimConfig, w: int) -> list[tuple[int, int]]:
    """One row's pool chunks, as (lo, hi) replicate ranges in index order: its
    batches dealt whole into min(batches, CHUNKS_PER_WORKER w) chunks."""
    n = config.replicates
    size = _batch_replicates(config)
    batches = math.ceil(n / size)
    k = min(batches, CHUNKS_PER_WORKER * w)
    cuts = [min(j * batches // k * size, n) for j in range(k + 1)]
    return list(zip(cuts, cuts[1:]))


def run_replicates(config: SimConfig, workers: int | None = None) -> Replicates:
    """All replicates of one config as one columnar record, in replicate-index order.

    This is ``run_study``'s scheduling for one row: at more than one worker,
    the replicates run as chunks of whole batches on a pool that is shut down
    before this returns. The error that fails the row is raised.
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
