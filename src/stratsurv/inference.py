"""Log-rank tests and Cox proportional-hazards regression, batched over datasets.

One engine analyzes B datasets of the same size N in one pass, from (B, N)
subject arrays; ``logrank``, ``cox_fit`` and ``partial_likelihood_terms`` are
its B = 1 case, on a 1-row view of their dataset, so a replay of a Monte Carlo
run through them reproduces it exactly.

Layout. Each row (one dataset) is sorted by (stratum, time) with
``lexsort(..., axis=-1)``; the unstratified layout pools each row into one
stratum. Subjects run along the last axis: event indicators are (B, N) and
covariates (B, p, N). Every position knows the first and one-past-last
position of its tied (stratum, time) block and of its stratum, and the risk
set of a block is the rest of its stratum from the block's start.

Risk-set sums. Suffix sums run along each row, with a trailing zero, so the
sum over a risk set is ``R[block_start] - R[stratum_end]``. The partial
likelihood takes suffix sums of w = exp(eta) and of wX only. The information
sum over deaths of S2/denom equals sum_i w_i c_i x_i x_i', where c_i is the
within-stratum running (prefix) sum of 1/denom over the deaths whose risk
set holds subject i. The gradient is then sum_i (delta_i - w_i c_i) x_i and
the information one stacked (B, p, N) @ (B, N, p) product, with no N x p^2
array.

Ties. Efron and Breslow are one rule. Each death carries a weight
j = (rank of the death in its tied block) / (deaths in the block) under
Efron, and j = 0 under Breslow. A death's denominator is S0 - j S0d and its
numerator S1 - j S1d, where S0d and S1d sum over the deaths of its block,
and c_i of a death loses its block's sum of j/denom (the Efron S2d term).
With j = 0 every formula is exactly the Breslow one; without ties the two
methods coincide. No Python loop runs over tied blocks.

Newton iteration keeps a separate beta, log-likelihood, step-halving factor
and status for each row, solves the stacked (B, p, p) systems, and drops rows
from the batch as they finish.

Batch invariance, which every change must keep: a row's results may not
depend on the other rows of its batch, so that every batch size and worker
count gives the same bits. Only per-row operations are allowed: cumulative
sums along a row, reductions along the fixed-length subject axis,
``reduceat`` over segments that never cross a row, and stacked
``matmul``/``solve``/``inv``/``cholesky`` (one BLAS or LAPACK call per
matrix). A sum over the concatenated batch would let neighbouring rows'
rounding leak into each row. When a stacked factorization raises, it is
repeated one matrix at a time, so only the offending rows are flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import NamedTuple

import numpy as np

from .datagen import TrialBatch, TrialDataset
from .errors import DegenerateTestError, InvalidModelError, InvalidParameterError
from .trial import COVARIATE_NAMES, stratum_covariates

TIE_METHODS = ("efron", "breslow")


class Method(Enum):
    """The five analysis methods applied to a trial dataset."""

    LOG_RANK = "logrank"
    STRATIFIED_LOG_RANK = "logrank-stratified"
    COX_UNSTRATIFIED = "cox-unstratified"
    COX_MULTIVARIATE = "cox-multivariate"
    COX_STRATIFIED = "cox-stratified"


COX_METHODS = (Method.COX_UNSTRATIFIED, Method.COX_MULTIVARIATE, Method.COX_STRATIFIED)


@dataclass(frozen=True)
class AnalysisSpec:
    """Which analysis to run and how."""

    method: Method
    tie_method: str = "efron"
    alpha_one_sided: float = 0.025

    def __post_init__(self):
        if self.tie_method not in TIE_METHODS:
            raise InvalidParameterError(
                f"tie_method must be one of {TIE_METHODS}, got {self.tie_method!r}")
        if not 0.0 < self.alpha_one_sided < 1.0:
            raise InvalidParameterError("alpha_one_sided must be in (0, 1)")


@dataclass(frozen=True)
class LogRankResult:
    """Log-rank test summary.

    ``z`` is signed so that fewer treatment-arm events than expected (benefit)
    gives a negative value; ``p_one_sided`` is the lower-tail probability.
    ``strata_used`` counts strata that contributed a nonzero variance term.
    """

    observed_minus_expected: float
    variance: float
    z: float
    p_one_sided: float
    strata_used: int


@dataclass(frozen=True)
class CoxFit:
    """Cox regression summary; the treatment coefficient always comes first."""

    beta: np.ndarray
    covariance: np.ndarray
    treatment_log_hr: float
    treatment_se: float
    wald_z: float
    converged: bool
    iterations: int
    final_gradient_norm: float
    loglik: float
    covariate_names: tuple[str, ...]
    diagnostic: str = ""

    @property
    def treatment_hr(self) -> float:
        return float(np.exp(self.treatment_log_hr))


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Batched sorted layout


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """P with P[..., k] = sum of values[..., :k] along each row (P[..., 0] = 0)."""
    out = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,))
    np.cumsum(values, axis=-1, out=out[..., 1:])
    return out


def _suffix_sums(values: np.ndarray) -> np.ndarray:
    """R with R[..., k] = sum of values[..., k:] along each row (R[..., N] = 0)."""
    out = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,))
    np.cumsum(values[..., ::-1], axis=-1, out=out[..., -2::-1])
    return out


def _at(sums: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row sums (B[, p], N + 1) at row-local (B, N) positions."""
    if sums.ndim == 3:
        index = index[:, None, :]
    return np.take_along_axis(sums, index, axis=-1)


class _Runs(NamedTuple):
    """Runs of a (B, N) layout that begin where ``new`` is set: the flat
    ``reduceat`` starts and lengths of the runs (a run never crosses a row),
    and each position's row-local run start and one-past-end."""

    first: np.ndarray
    length: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @classmethod
    def of(cls, new: np.ndarray) -> "_Runs":
        first = np.flatnonzero(new)
        length = np.diff(first, append=new.size)
        start = np.repeat(first % new.shape[1], length).reshape(new.shape)
        return cls(first, length, start, start + np.repeat(length, length).reshape(new.shape))

    def spread(self, reduce, values: np.ndarray) -> np.ndarray:
        """``reduce`` of (B[, p], N) values over each run, at every position."""
        flat = np.moveaxis(values, 0, -2).reshape(values.shape[1:-1] + (-1,))
        out = np.repeat(reduce.reduceat(flat, self.first, axis=-1), self.length, axis=-1)
        return np.moveaxis(out.reshape(flat.shape[:-1] + (values.shape[0], -1)), -2, 0)


class _RiskSets:
    """B datasets of N subjects, each row sorted by (stratum, time).

    Subjects run along the last axis of every array. ``new_stratum`` and
    ``new_block`` flag the first position of each stratum and of each tied
    (stratum, time) block; a position's risk set runs from its block's start
    to its stratum's end. The runs are indexed on first use, and two common
    shapes skip the gathers they feed without changing a value: an untied
    layout, where every block is one position, and a pooled one, with one
    stratum per row.
    """

    def __init__(self, event: np.ndarray, new_stratum: np.ndarray, new_block: np.ndarray):
        self.death = event
        self.event = event.astype(float)
        self.new_stratum = new_stratum
        self.new_block = new_block
        self.untied = bool(new_block.all())
        self.pooled = not new_stratum[:, 1:].any()

    @classmethod
    def sort(cls, time, event, strata=None):
        """Layout of (B, N) arrays, with the sort order that built it."""
        rows, n = time.shape
        if strata is None:
            order = np.argsort(time, axis=1, kind="stable")
        else:
            order = np.lexsort((time, strata), axis=1)
        t = np.take_along_axis(time, order, 1)
        new_stratum = np.zeros((rows, n), dtype=bool)
        new_stratum[:, :1] = True
        if strata is not None:
            s = np.take_along_axis(strata, order, 1)
            new_stratum[:, 1:] = s[:, 1:] != s[:, :-1]
        new_block = new_stratum.copy()
        new_block[:, 1:] |= t[:, 1:] != t[:, :-1]
        return cls(np.take_along_axis(event, order, 1), new_stratum, new_block), order

    def take(self, rows: np.ndarray) -> "_RiskSets":
        return _RiskSets(self.death[rows], self.new_stratum[rows], self.new_block[rows])

    @cached_property
    def _strata(self) -> _Runs:
        return _Runs.of(self.new_stratum)

    @cached_property
    def _blocks(self) -> _Runs:
        return _Runs.of(self.new_block)

    def risk_sums(self, values: np.ndarray) -> np.ndarray:
        """Per row, the sum of values over each position's risk set."""
        R = _suffix_sums(values)
        head = R[..., :-1] if self.untied else _at(R, self._blocks.start)
        return head if self.pooled else head - _at(R, self._strata.end)

    def running_sums(self, values: np.ndarray) -> np.ndarray:
        """Per row, the sum of values from each position's stratum start
        through the end of its block."""
        P = _prefix_sums(values)
        head = P[..., 1:] if self.untied else _at(P, self._blocks.end)
        return head if self.pooled else head - _at(P, self._strata.start)

    def block_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum of values over each position's tied block."""
        return values if self.untied else self._blocks.spread(np.add, values)

    def stratum_max(self, values: np.ndarray) -> np.ndarray:
        """Maximum of (B, N) values over each position's stratum."""
        if self.pooled:
            return values.max(axis=1, keepdims=True)
        return self._strata.spread(np.maximum, values)

    def efron_weights(self) -> np.ndarray | None:
        """Per death, j = (rank in its tied block) / (deaths in the block);
        None when no block holds two deaths, so that every j is 0."""
        if self.untied:
            return None
        before = _prefix_sums(self.event)
        rank = before[:, :-1] - _at(before, self._blocks.start)
        j = np.divide(rank, self.block_sums(self.event), out=np.zeros_like(rank),
                      where=self.death)
        return j if j.any() else None


# ---------------------------------------------------------------------------
# Log-rank


class _LogRankStats(NamedTuple):
    """Per-row log-rank sums; a row with zero variance is degenerate."""

    observed_minus_expected: np.ndarray
    variance: np.ndarray
    strata_used: np.ndarray

    def z(self) -> np.ndarray:
        """Signed z statistic per row, NaN where the test is degenerate."""
        var = self.variance
        root = np.sqrt(np.where(var > 0.0, var, np.nan))
        return self.observed_minus_expected / root


def _logrank_stats(risk: _RiskSets, arm: np.ndarray) -> _LogRankStats:
    """O - E and hypergeometric variance per row, summed over the deaths.

    A death in a block with d deaths among n at risk, n1 of them treated,
    adds arm - n1/n to O - E and f(1 - f)(n - d)/(n - 1) with f = n1/n to the
    variance; summed over the block's deaths these are the usual block terms.
    """
    e = risk.event
    n = risk.risk_sums(np.ones_like(arm))
    frac = risk.risk_sums(arm) / n
    d = risk.block_sums(e)
    oe = ((arm - frac) * e).sum(axis=1)
    terms = frac * (1.0 - frac) * (n - d) / np.maximum(n - 1.0, 1.0) * e
    # a stratum's running count at its last position covers the whole stratum
    last = np.ones_like(risk.new_stratum)
    last[:, :-1] = risk.new_stratum[:, 1:]
    used = last & (risk.running_sums(terms > 0.0) > 0.0)
    return _LogRankStats(oe, terms.sum(axis=1), np.count_nonzero(used, axis=1))


def logrank(dataset: TrialDataset, stratified: bool = False) -> LogRankResult:
    """Unstratified or stratified log-rank test for the treatment contrast.

    At each distinct event time the observed treatment-arm events are compared
    with their hypergeometric expectation; stratified mode accumulates these
    sums within each stratum before combining.
    """
    if dataset.n_subjects == 0:
        raise DegenerateTestError("empty dataset", 0.0)
    stats = _Trials(dataset).logrank(stratified)
    observed_minus_expected = float(stats.observed_minus_expected[0])
    variance = float(stats.variance[0])
    if variance <= 0.0:
        raise DegenerateTestError(
            "log-rank variance is zero (no within-stratum arm contrast)",
            observed_minus_expected)
    z = float(stats.z()[0])
    return LogRankResult(
        observed_minus_expected=observed_minus_expected,
        variance=variance,
        z=z,
        p_one_sided=_normal_cdf(z),
        strata_used=int(stats.strata_used[0]),
    )


# ---------------------------------------------------------------------------
# Cox partial likelihood


class _CoxLikelihood:
    """Stratified partial log-likelihood of B datasets, with derivatives.

    ``X`` holds the covariates as (B, p, N) in layout order. ``j`` holds the
    Efron tie weights, or is None when every weight is 0 (Breslow, or no
    block with two deaths).
    """

    def __init__(self, risk: _RiskSets, X: np.ndarray, j: np.ndarray | None):
        self.risk = risk
        self.X = X
        self.j = j

    @classmethod
    def build(cls, risk: _RiskSets, X: np.ndarray, tie_method: str) -> "_CoxLikelihood":
        return cls(risk, X, risk.efron_weights() if tie_method == "efron" else None)

    def take(self, rows: np.ndarray) -> "_CoxLikelihood":
        return _CoxLikelihood(self.risk.take(rows), self.X[rows],
                              None if self.j is None else self.j[rows])

    def evaluate(self, beta: np.ndarray):
        """Log-likelihood (B,), gradient (B, p) and Hessian (B, p, p) at beta (B, p)."""
        risk, X, j, e = self.risk, self.X, self.j, self.risk.event
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if X.shape[1] == 1:  # the product itself, without a matmul per row
                eta = X[:, 0] * beta
            else:
                eta = np.matmul(beta[:, None, :], X)[:, 0]
            eta -= risk.stratum_max(eta)
            w = np.exp(eta)
            denom = risk.risk_sums(w)
            num = risk.risk_sums(X * w[:, None])
            if j is not None:
                denom -= j * risk.block_sums(w * e)
                num -= j[:, None] * risk.block_sums(X * (w * e)[:, None])
            # a risk-set sum is finite; 1 in place of it off the deaths keeps
            # those positions at exactly 0 below
            denom = denom * e + (1.0 - e)
            ll = ((eta - np.log(denom)) * e).sum(axis=1)
            inv = e / denom
            # c: the running sum of 1/denom over the deaths whose risk set
            # holds each subject, less the block's j/denom for a death
            c = risk.running_sums(inv)
            if j is not None:
                c -= e * risk.block_sums(j * inv)
            v = w * c
            r = np.multiply(num, inv[:, None], out=num)
            grad = np.matmul(X, (e - v)[..., None])[..., 0]
            hess = (np.matmul(r, r.transpose(0, 2, 1))
                    - np.matmul(X * v[:, None], X.transpose(0, 2, 1)))
        return ll, grad, hess


MAX_ITERATIONS = 50
GRADIENT_TOL = 1e-9
LOGLIK_REL_TOL = 1e-12
MAX_HALVINGS = 20
COEFFICIENT_BOUND = 15.0

# Outcome of each row's fit. Rows from _NO_EVENTS on make cox_fit raise.
_RUNNING, _CONVERGED, _MAX_ITER, _SINGULAR, _HALVING_FAILED, _SEPARATION = range(6)
_NO_EVENTS, _RANK_DEFICIENT, _SINGULAR_AT_ZERO = range(6, 9)
_DIAGNOSTICS = {
    _MAX_ITER: "maximum Newton iterations reached",
    _SINGULAR: "information matrix became singular",
    _HALVING_FAILED: "step-halving failed to improve the log-likelihood",
    _SEPARATION: ("coefficient magnitude exceeds bound; "
                  "likelihood appears monotone (separation)"),
    _NO_EVENTS: "cannot fit a Cox model with no events",
    _RANK_DEFICIENT: "design matrix is rank deficient on the event risk sets (no contrast)",
    _SINGULAR_AT_ZERO: "information matrix is singular at beta = 0",
}


def _stacked(solver, *matrices):
    """``solver`` on stacked arrays, and which rows succeeded.

    If the stacked call raises, it is repeated one matrix at a time, so only
    the offending rows fail; their results are NaN.
    """
    rows = len(matrices[0])
    try:
        return solver(*matrices), np.ones(rows, dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.full_like(matrices[-1], np.nan)
    ok = np.zeros(rows, dtype=bool)
    for i in range(rows):
        try:
            out[i:i + 1] = solver(*(m[i:i + 1] for m in matrices))
            ok[i] = True
        except np.linalg.LinAlgError:
            pass
    return out, ok


class _CoxFits(NamedTuple):
    """Per-row outcome of Newton iteration on a batched likelihood."""

    beta: np.ndarray
    covariance: np.ndarray
    treatment_se: np.ndarray
    loglik: np.ndarray
    gradient_norm: np.ndarray
    iterations: np.ndarray
    status: np.ndarray

    @property
    def converged(self) -> np.ndarray:
        return self.status == _CONVERGED

    def fit(self, row: int, names: tuple[str, ...]) -> CoxFit:
        """The row as a CoxFit; raises InvalidModelError for a fit that cannot start."""
        status = int(self.status[row])
        if status >= _NO_EVENTS:
            raise InvalidModelError(_DIAGNOSTICS[status])
        beta = self.beta[row]
        se = float(self.treatment_se[row])
        log_hr = float(beta[0])
        wald = log_hr / se if math.isfinite(se) and se > 0 else float("nan")
        return CoxFit(
            beta=beta,
            covariance=self.covariance[row],
            treatment_log_hr=log_hr,
            treatment_se=se,
            wald_z=float(wald),
            converged=status == _CONVERGED,
            iterations=int(self.iterations[row]),
            final_gradient_norm=float(self.gradient_norm[row]),
            loglik=float(self.loglik[row]),
            covariate_names=names,
            diagnostic=_DIAGNOSTICS.get(status, ""),
        )


def _running(active, lik, status):
    """Drop the rows of ``active``, and of its likelihood, that have finished."""
    keep = status[active] == _RUNNING
    if keep.all():
        return active, lik
    return active[keep], lik.take(keep)


def _newton(lik: _CoxLikelihood) -> _CoxFits:
    """Fit every row by Newton iteration from beta = 0, each on its own path.

    A step is halved (up to 20 times) whenever it would decrease the
    log-likelihood beyond float noise. Convergence requires the largest
    gradient component below 1e-9 or a relative log-likelihood change below
    1e-12. Any coefficient beyond +-15 flags likely separation.
    """
    rows, p, _ = lik.X.shape
    beta = np.zeros((rows, p))
    ll, grad, hess = lik.evaluate(beta)
    status = np.where(lik.risk.death.any(axis=1), _RUNNING, _NO_EVENTS)
    iterations = np.zeros(rows, dtype=np.int64)
    has_events = np.flatnonzero(status == _RUNNING)
    # Full column rank on the event risk sets <=> the information at beta = 0
    # (a sum of within-risk-set covariate covariances) is positive definite.
    _, full_rank = _stacked(np.linalg.cholesky, -hess[has_events])
    status[has_events[~full_rank]] = _RANK_DEFICIENT
    active, lik = _running(np.arange(rows), lik, status)
    while active.size:
        gnorm = np.abs(grad[active]).max(axis=1)
        small = gnorm < GRADIENT_TOL
        status[active[small]] = _CONVERGED
        status[active[~small & (iterations[active] >= MAX_ITERATIONS)]] = _MAX_ITER
        active, lik = _running(active, lik, status)
        if not active.size:
            break
        step, solved = _stacked(np.linalg.solve, -hess[active], grad[active][..., None])
        failed = active[~solved]
        status[failed] = np.where(iterations[failed] == 0, _SINGULAR_AT_ZERO, _SINGULAR)
        active, lik = _running(active, lik, status)
        step = step[solved, :, 0]
        slack = 1e-10 * (np.abs(ll[active]) + 1.0)
        pending = np.arange(active.size)
        trial = lik
        factor = 1.0
        for _ in range(MAX_HALVINGS + 1):
            at = active[pending]
            candidate = beta[at] + factor * step[pending]
            cll, cgrad, chess = trial.evaluate(candidate)
            ok = np.isfinite(cll) & (cll >= ll[at] - slack[pending])
            done = at[ok]
            prev = ll[done]
            beta[done], ll[done] = candidate[ok], cll[ok]
            grad[done], hess[done] = cgrad[ok], chess[ok]
            iterations[done] += 1
            separated = np.abs(beta[done]).max(axis=1) > COEFFICIENT_BOUND
            status[done[separated]] = _SEPARATION
            flat = np.abs(ll[done] - prev) <= LOGLIK_REL_TOL * np.maximum(1.0, np.abs(prev))
            status[done[~separated & flat]] = _CONVERGED
            pending = pending[~ok]
            if not pending.size:
                break
            trial = trial.take(~ok)
            factor *= 0.5
        status[active[pending]] = _HALVING_FAILED
        active, lik = _running(active, lik, status)

    started = status < _NO_EVENTS
    covariance = np.full((rows, p, p), np.nan)
    covariance[started], _ = _stacked(np.linalg.inv, -hess[started])
    var0 = covariance[:, 0, 0]
    with np.errstate(invalid="ignore"):
        se = np.where(var0 > 0, np.sqrt(var0), np.nan)
    return _CoxFits(beta, covariance, se, ll, np.abs(grad).max(axis=1), iterations, status)


def _cox_design(method: Method, arm: np.ndarray, strata: np.ndarray):
    """(stratified, X of shape (B, p, N), covariate names) of a Cox method."""
    treatment = arm[:, None, :]
    if method is Method.COX_UNSTRATIFIED:
        return False, treatment, ("treatment",)
    if method is Method.COX_MULTIVARIATE:
        covariates = stratum_covariates(strata.ravel()).reshape(strata.shape + (4,))
        X = np.concatenate((treatment, covariates.transpose(0, 2, 1)), axis=1)
        return False, X, ("treatment",) + COVARIATE_NAMES
    if method is Method.COX_STRATIFIED:
        return True, treatment, ("treatment",)
    raise InvalidParameterError(f"cox_fit requires a Cox method, got {method}")


# ---------------------------------------------------------------------------
# Datasets stacked into one batch


class _Trials:
    """Analyzed subject arrays of B same-size datasets as (B, N), from the rows
    of a ``TrialBatch`` or a 1-row view of a ``TrialDataset``, with the two
    layouts built once and shared by the analyses."""

    def __init__(self, trials: TrialBatch | TrialDataset):
        self.time, self.event, arm, self.strata = (
            np.atleast_2d(a) for a in
            (trials.observed_time, trials.event, trials.arm, trials.stratum_index))
        self.arm = arm.astype(float)
        self._layouts: dict[bool, tuple[_RiskSets, np.ndarray]] = {}

    def layout(self, stratified: bool) -> tuple[_RiskSets, np.ndarray]:
        """The risk sets and their sort order; built on first use."""
        key = bool(stratified)
        if key not in self._layouts:
            self._layouts[key] = _RiskSets.sort(
                self.time, self.event, self.strata if key else None)
        return self._layouts[key]

    def logrank(self, stratified: bool) -> _LogRankStats:
        risk, order = self.layout(stratified)
        return _logrank_stats(risk, np.take_along_axis(self.arm, order, 1))

    def likelihood(self, spec: AnalysisSpec) -> tuple[_CoxLikelihood, tuple[str, ...]]:
        stratified, X, names = _cox_design(spec.method, self.arm, self.strata)
        risk, order = self.layout(stratified)
        X = np.take_along_axis(X, order[:, None, :], 2)
        return _CoxLikelihood.build(risk, X, spec.tie_method), names


class TrialAnalyses(NamedTuple):
    """Both log-rank tests and the three Cox fits of a batch, one row per dataset.

    ``fits`` follows COX_METHODS order. A log-rank z is NaN where the test is
    degenerate; a fit is usable where it converged with a finite SE.
    """

    logrank_z: np.ndarray
    stratified_logrank_z: np.ndarray
    fits: tuple[_CoxFits, ...]


def analyze_trials(batch: TrialBatch, tie_method: str = "efron") -> TrialAnalyses:
    """Run the five analyses on every row of a batch of same-size trials."""
    trials = _Trials(batch)
    return TrialAnalyses(
        logrank_z=trials.logrank(False).z(),
        stratified_logrank_z=trials.logrank(True).z(),
        fits=tuple(_newton(trials.likelihood(AnalysisSpec(method, tie_method))[0])
                   for method in COX_METHODS),
    )


def _one_dataset_likelihood(dataset: TrialDataset, spec: AnalysisSpec):
    likelihood = _Trials(dataset).likelihood(spec)
    if not dataset.event.any():
        raise InvalidModelError(_DIAGNOSTICS[_NO_EVENTS])
    return likelihood


def partial_likelihood_terms(dataset: TrialDataset, spec: AnalysisSpec, beta):
    """Log partial likelihood, gradient and Hessian at ``beta`` for a Cox spec."""
    lik, _ = _one_dataset_likelihood(dataset, spec)
    ll, grad, hess = lik.evaluate(np.asarray(beta, dtype=float)[None, :])
    return float(ll[0]), grad[0], hess[0]


def cox_fit(dataset: TrialDataset, spec: AnalysisSpec) -> CoxFit:
    """Fit a Cox model by Newton iteration on the partial log-likelihood.

    Starts at beta = 0; a step is halved (up to 20 times) whenever it would
    decrease the log-likelihood beyond float noise. Convergence requires the
    largest gradient component below 1e-9 or a relative log-likelihood change
    below 1e-12. Any coefficient beyond +-15 flags likely separation: the fit
    is returned with ``converged=False`` and a diagnostic rather than raising.
    """
    lik, names = _one_dataset_likelihood(dataset, spec)
    return _newton(lik).fit(0, names)
