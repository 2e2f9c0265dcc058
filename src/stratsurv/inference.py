"""Log-rank tests and Cox proportional-hazards regression, batched over datasets.

One engine analyzes B datasets of the same size N in one pass, from (B, N)
subject arrays; ``logrank``, ``cox_fit`` and ``partial_likelihood_terms`` are
its B = 1 case, on a 1-row view of their dataset, so a replay of a Monte Carlo
run through them reproduces it exactly.

Layout. Each row (one dataset) is sorted by time, ties in subject order, by
``datagen.stable_argsort``, which gives exactly ``np.argsort(kind="stable")``.
The unstratified layout pools the row into one stratum; the stratified layout
re-sorts that order by stratum with one stable (radix) sort on int8 strata.
Subjects run along the last axis: event indicators are (B, N). A position's
risk set runs from the start of its tied (stratum, time) block to the end of
its stratum. Every row gather is one ``np.take`` of the flattened batch. The
multivariate design is a coding table of the 24 cells 2 * stratum + arm.

Arm counts. Each layout computes once, at each of its D deaths, as (B, D)
arrays: the dying subject's arm a, the control and treated subjects in its
risk set (n0, n1) and the control and treated deaths in its tied block
(d0, d1). The log-rank test reads them, and so does the Cox likelihood whose
one covariate is the arm (the unstratified and the stratified fit). With
a^2 = a, a death's Efron sums (see Ties) are S0 = (n0 - j d0) w0 +
(n1 - j d1) w1 and S1 = S2 = (n1 - j d1) w1, where w0 = e^-m,
w1 = e^(beta - m) and m = max(beta, 0). With r = S1/S0 the death adds
beta a - m - log S0 to the log-likelihood, a - r to the score and r(1 - r) to
the information, so an evaluation is a few elementwise (B, D) operations and
row sums. At beta = 0 under Breslow r = n1/n, so the score is the log-rank
O - E: the log-rank test is this likelihood's score test at beta = 0. Its
information sums f(1 - f), f = n1/n, over the deaths, and the log-rank
variance sums f(1 - f)(n - d)/(n - 1), the exact hypergeometric variance of a
tied block; the two agree where no block holds two deaths.

Risk-set sums. The multivariate likelihood works on its K cells and D
deaths. Per cell it forms w = exp(beta'x), shifted by the row's largest
beta'x, and [1, x] w as q = p // 2 + 1 complex pairs (an even p pads the
last). Gathered to the positions, one complex suffix sum along each row (a
complex add is two real adds, so each part has its own real cumsum's bits)
gives every risk-set sum; one ``np.take`` reads S0 and S1 at each death's
block start, less its stratum's end. ll, 1/S0 and r = S1/S0 are then (B, D)
arrays. The information sum over deaths of S2/S0 equals sum_i v_i x_i x_i',
v_i = w_i c_i, where c_i, the sum of 1/S0 over the deaths whose risk set
holds subject i, is a difference of prefix sums over the deaths. A subject's
covariates depend on its cell only, so one ``bincount`` over the cell index
offset by K times the row gives the per-cell sums of v as (B, K), and one
stacked product with the fixed (K, p + p^2) table of each cell's x and x x'
gives sum_i v_i x_i and sum_i v_i x_i x_i'. The gradient is the fixed sum of
x over the deaths less sum_i v_i x_i, the Hessian sum_d r r' less
sum_i v_i x_i x_i'.

Ties. Efron and Breslow are one rule. Each death carries a weight
j = (rank of the death in its tied block) / (deaths in the block) under
Efron, read from the layout's counts, and j = 0 under Breslow. A death's
denominator is S0 - j S0d and its numerator S1 - j S1d, where S0d and S1d
sum over the deaths of its block (one ``reduceat`` over the deaths; a block's
first death has j = 0), and c_i of a death loses its block's sum of j/S0
(the Efron S2d term). With j = 0 every formula is exactly the Breslow one;
without ties the two methods coincide. No Python loop runs over tied blocks.

Batch invariance, which every change must keep: a row's results may not
depend on the other rows of its batch, so that every batch size and worker
count gives the same bits. Only per-row operations are allowed: cumulative
sums along a row (of complex pairs too), reductions along the subject or
death axis, ``reduceat`` over segments that never cross a row, a ``bincount``
whose bins never hold two rows' entries (it adds them in position order), and stacked
``matmul``/``solve``/``inv``/``cholesky`` (one BLAS or LAPACK call per matrix,
such as the (B, 1, K) @ (K, p + p^2) contraction of the cell sums; a 1 x 1
system is an elementwise division with LAPACK's bits). A sum over the
concatenated batch would let neighbouring rows' rounding leak into each row,
and so may one 2-D product of the whole batch, whose blocking depends on B.
The rows of a batch share their death count D, as padding a row would change
its pairwise sum.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import NamedTuple

import numpy as np

from .datagen import TrialBatch, TrialDataset, stable_argsort
from .errors import DegenerateTestError, InvalidModelError, InvalidParameterError
from .trial import COVARIATE_NAMES, STRATUM_COUNT, stratum_covariates

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
    out = np.empty(values.shape[:-1] + (values.shape[-1] + 1,), values.dtype)
    out[..., -1] = 0.0
    np.cumsum(values[..., ::-1], axis=-1, out=out[..., -2::-1])
    return out


class _Runs:
    """Runs of a (B, N) layout that begin where ``new`` is set: the flat
    ``reduceat`` starts and lengths of the runs (a run never crosses a row);
    their starts and one-past-ends as flat positions in (B, N + 1) rows, the
    rows of a sum with a trailing zero (``head``, ``tail``)."""

    def __init__(self, new: np.ndarray):
        self.first = np.flatnonzero(new)
        self.length = np.diff(self.first, append=new.size)
        # position k of row b is b N + k, and b (N + 1) + k in rows of N + 1
        self.head = self.first + self.first // new.shape[1]
        self.tail = self.head + self.length


class _ArmCounts(NamedTuple):
    """Per death of a layout, (B, D): the counts of "Arm counts" above, and
    its Efron weight j, None when no block holds two deaths (every j is 0)."""

    arm: np.ndarray
    n0: np.ndarray
    n1: np.ndarray
    d0: np.ndarray
    d1: np.ndarray
    j: np.ndarray | None


class _RiskSets:
    """B datasets of N subjects, each row sorted by (stratum, time); without
    strata each row is one stratum.

    ``death`` is the one event array a layout keeps: the 0/1 flags as floats,
    which the bincount weights and arm products read as they are.
    ``new_stratum`` and ``new_block`` flag the first position of each stratum
    and of each tied (stratum, time) block. The runs are indexed on first use,
    and two common shapes skip the gathers they feed without changing a value:
    an untied layout, where every block is one position, and a pooled one,
    with one stratum per row.
    """

    def __init__(self, time: np.ndarray, death: np.ndarray, arm: np.ndarray,
                 strata: np.ndarray | None = None):
        self.death, self.arm = death.astype(float), arm
        self.new_stratum = np.zeros(time.shape, dtype=bool)
        self.new_stratum[:, :1] = True
        if strata is not None:
            self.new_stratum[:, 1:] = strata[:, 1:] != strata[:, :-1]
        self.new_block = self.new_stratum.copy()
        self.new_block[:, 1:] |= time[:, 1:] != time[:, :-1]
        self.untied = bool(self.new_block.all())
        self.pooled = not self.new_stratum[:, 1:].any()

    @cached_property
    def _strata(self) -> _Runs:
        return _Runs(self.new_stratum)

    @cached_property
    def _blocks(self) -> _Runs:
        return _Runs(self.new_block)

    @cached_property
    def _block_deaths(self) -> np.ndarray:
        """Each block's number of deaths, flat, on a tied layout."""
        return np.add.reduceat(self.death.ravel(), self._blocks.first, dtype=int)

    @cached_property
    def deaths(self) -> np.ndarray:
        """(B, D) flat positions of the deaths; every row has the same D."""
        return np.flatnonzero(self.death).reshape(len(self.death),
                                                  np.count_nonzero(self.death[:1]))

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per death, (B, D), where its risk set starts (its block's start)
        and ends (its stratum's end), as flat positions in (B, N + 1) rows like
        ``_Runs``; on a pooled layout the end is (B, 1), each row's end."""
        at, n = self.deaths, self.death.shape[1]
        row = np.arange(len(at))[:, None]
        start = (at + row if self.untied else  # a block's deaths are consecutive in at
                 np.repeat(self._blocks.head, self._block_deaths).reshape(at.shape))
        end = (row * (n + 1) + n if self.pooled else
               np.take(np.repeat(self._strata.tail, self._strata.length), at))
        return start, end

    @cached_property
    def counts(self) -> _ArmCounts:
        """The counts at the deaths, exact integers in floats, and j."""
        at = self.deaths
        start, end = self.bounds
        arm = d1 = np.take(self.arm, at)
        d, j = 1.0, None
        if not self.untied:
            deaths = self._block_deaths
            treated = np.add.reduceat((self.arm * self.death).ravel(), self._blocks.first)
            # each block's values at its deaths; a death's rank in its block:
            # its place in at less the block's first (exact)
            d, d1, first = (np.repeat(v, deaths).reshape(at.shape) for v in
                            (deaths, treated, np.cumsum(deaths) - deaths))
            j = (np.arange(at.size).reshape(at.shape) - first) / d
        R = _suffix_sums(self.arm)
        n1 = np.take(R, start)
        if not self.pooled:
            n1 -= np.take(R, end)
        return _ArmCounts(arm, end - start - n1, n1, d - d1, d1, j if np.any(j) else None)


# ---------------------------------------------------------------------------
# Log-rank


def _logrank(risk: _RiskSets) -> tuple[np.ndarray, ...]:
    """Per row O - E, the variance and the signed z, NaN where the variance
    is zero (degenerate); and each death's variance term, (B, D).

    A death in a block with d deaths among n at risk, n1 of them treated,
    adds arm - n1/n to O - E and f(1 - f)(n - d)/(n - 1) with f = n1/n to the
    variance; summed over the block's deaths these are the usual block terms.
    """
    arm, n0, n1, d0, d1, _ = risk.counts
    n = n0 + n1
    frac = n1 / n
    oe = (arm - frac).sum(axis=1)
    terms = frac * (1.0 - frac) * (n - (d0 + d1)) / np.maximum(n - 1.0, 1.0)
    variance = terms.sum(axis=1)
    return oe, variance, oe / np.sqrt(np.where(variance > 0.0, variance, np.nan)), terms


def logrank(dataset: TrialDataset, stratified: bool = False) -> LogRankResult:
    """Unstratified or stratified log-rank test for the treatment contrast.

    At each distinct event time the observed treatment-arm events are compared
    with their hypergeometric expectation; stratified mode accumulates these
    sums within each stratum before combining.
    """
    if dataset.n_subjects == 0:
        raise DegenerateTestError("empty dataset", 0.0)
    trials = _Trials(dataset)
    risk = trials.stratified if stratified else trials.pooled
    oe, variance, z, terms = _logrank(risk)
    if variance[0] <= 0.0:
        raise DegenerateTestError(
            "log-rank variance is zero (no within-stratum arm contrast)", float(oe[0]))
    # the strata, numbered in layout order, of the deaths with a positive term
    stratum = np.cumsum(risk.new_stratum[0])[risk.deaths[0]]
    return LogRankResult(
        observed_minus_expected=float(oe[0]),
        variance=float(variance[0]),
        z=float(z[0]),
        p_one_sided=_normal_cdf(float(z[0])),
        strata_used=int(np.count_nonzero(np.bincount(stratum, terms[0] > 0.0))),
    )


# ---------------------------------------------------------------------------
# Cox partial likelihood


class _CoxLikelihood:
    """Stratified partial log-likelihood of B datasets, with derivatives.

    ``design`` (p, K) holds one covariate column per cell, and ``cells``
    (B, N) the cell of each position in layout order, so that subject i's
    covariates are ``design[:, cells[i]]``; the multivariate fit has K = 24
    cells 2 * stratum + arm, and free covariates take one cell per subject.
    ``j`` (B, D) holds the Efron weights of the layout's deaths, or is None
    when every weight is 0 (Breslow, or no block with two deaths).
    """

    def __init__(self, risk: _RiskSets, cells: np.ndarray, design: np.ndarray,
                 j: np.ndarray | None):
        (rows, n), (self.p, k) = cells.shape, design.shape
        self.design, self.j = design, j
        self.deaths = np.full(rows, risk.deaths.shape[1])
        # each position's cell offset by K times its row, so that one
        # bincount sums per row and cell
        self.index = cells + k * np.arange(rows)[:, None]
        self.present = np.bincount(self.index.ravel(), minlength=rows * k).reshape(rows, k) > 0
        # per cell: its covariates x, then x x' flattened, in C order whatever
        # design's order, as the product's rounding depends on the layout
        x = np.ascontiguousarray(design.T)
        self.table = np.hstack((x, (x[:, :, None] * x[:, None, :]).reshape(k, -1)))
        # per cell, [1, x] as q = p // 2 + 1 complex pairs, (q, 1, K); an
        # even p pads the last pair with 0
        pairs = np.hstack((np.ones((k, 1)), x, np.zeros((k, 1 - self.p % 2))))
        self.pairs = pairs.view(complex).T[:, None, :]
        self.start, end = risk.bounds
        self.end = None if risk.pooled else end
        # a position's c is P[h] - P[l], P a row's prefix sums of 1/S0 over
        # its deaths, h the deaths up to its block's end and l those before its
        # stratum: each h (l) spans a gap between deaths' block starts (stratum ends)
        row = (n + 1) * np.arange(rows)[:, None]
        self.through, self.before = (None if a is None else
                                     np.diff(a - row, axis=1, prepend=0, append=n)
                                     for a in (self.start, self.end))
        self.death_cells = np.take(self.index, risk.deaths)
        self.death_sums = self._cell_sums(risk.death)[:, :self.p]
        # under Efron, the deaths' positions, and their tied blocks as runs from j = 0
        self.death, self.blocks = (None, None) if j is None else (risk.deaths, _Runs(j == 0))

    def take(self, keep: np.ndarray) -> "_CoxLikelihood":
        # per-row arrays lose the rows not kept, and a flat index, whose row b
        # starts at b times its stride, renumbers those it keeps
        rows = np.arange(len(self.deaths))[keep]
        n, k = self.index.shape[1], len(self.table)
        strides = {"index": k, "death_cells": k, "start": n + 1, "end": n + 1, "death": n}
        out = copy.copy(self)
        for name, value in vars(self).items():
            if name in ("design", "table", "pairs", "p", "blocks") or value is None:
                continue
            value = value[rows]
            if name in strides:
                value += (np.arange(len(rows)) - rows)[:, None] * strides[name]
            setattr(out, name, value)
        out.blocks = None if out.j is None else _Runs(out.j == 0)
        return out

    def _cell_sums(self, values: np.ndarray) -> np.ndarray:
        """(B, p + p^2): per row, the sums of values x and values x x' over its
        subjects, from the per-cell sums of values."""
        rows, k = len(self.index), len(self.table)
        s = np.bincount(self.index.ravel(), weights=values.ravel(), minlength=rows * k)
        # a stacked (1, K) @ (K, p + p^2) product per row: one 2-D product of
        # the whole batch would let the batch size change a row's rounding
        return np.matmul(s.reshape(rows, 1, k), self.table)[:, 0]

    def _block_sums(self, values: np.ndarray) -> np.ndarray:
        """Per death, the sum of values (..., B, D) over its block's deaths."""
        sums = np.add.reduceat(values.reshape(*values.shape[:-2], -1), self.blocks.first, axis=-1)
        return np.repeat(sums, self.blocks.length, axis=-1).reshape(values.shape)

    def evaluate(self, beta: np.ndarray):
        """Log-likelihood (B,), gradient (B, p) and Hessian (B, p, p) at beta (B, p)."""
        p, j, q, (rows, d) = self.p, self.j, len(self.pairs), self.start.shape
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            eta = np.matmul(beta[:, None, :], self.design)[:, 0]
            # every risk set lies within one row, so shifting a row's eta by
            # its maximum over the row's cells leaves the likelihood unchanged
            # and exp finite
            eta -= np.where(self.present, eta, -np.inf).max(axis=1, keepdims=True)
            w = np.exp(eta)
            # per cell, then per position, [1, x] w as complex pairs, (q, B, .)
            cell = (self.pairs * w).reshape(q, -1)
            R = _suffix_sums(np.take(cell, self.index, axis=1)).reshape(q, -1)
            # at each death, S0 and the numerators over its risk set, (q, B, D)
            at = np.take(R, self.start, axis=1)
            if self.end is not None:
                at -= np.take(R, self.end, axis=1)
            if j is not None:
                at -= j * self._block_sums(np.take(cell, self.death_cells, axis=1))
            # as reals, contiguous (B, 2q, D): each row's r is one matrix for
            # BLAS, and S0 (the first) is contiguous along each row
            r = np.empty((rows, 2 * q, d))
            np.copyto(r.reshape(rows, q, 2, d),
                      at.view(np.float64).reshape(q, rows, d, 2).transpose(1, 0, 3, 2))
            denom, inv = r[:, 0], 1.0 / r[:, 0]
            ll = (np.take(eta, self.death_cells) - np.log(denom)).sum(axis=1)
            # c: the sum of 1/S0 over the deaths whose risk set holds each
            # subject, less the block's j/S0 for a death
            P = _prefix_sums(inv).ravel()
            c = np.repeat(P, self.through.ravel())
            if self.before is not None:
                c -= np.repeat(P, self.before.ravel())
            if j is not None:
                c[self.death] -= self._block_sums(j * inv)
            r = np.multiply(r, inv[:, None], out=r)[:, 1:p + 1]
            sums = self._cell_sums(np.take(w, self.index).ravel() * c)
            grad = self.death_sums - sums[:, :p]
            hess = (np.matmul(r, r.transpose(0, 2, 1))
                    - sums[:, p:].reshape(rows, p, p))
        return ll, grad, hess


class _TreatmentLikelihood:
    """Partial log-likelihood of B datasets whose one covariate is the arm,
    read from a layout's arm counts at its D deaths (see "Arm counts" above),
    under Efron (``efron``, with the counts' j) or Breslow (j = 0).

    ``c0`` and ``c1`` (B, D) are n - j d of each arm at each death, so that
    its sums are S0 = c0 w0 + c1 w1 and S1 = c1 w1.
    """

    p = 1

    def __init__(self, risk: _RiskSets, efron: bool):
        arm, n0, n1, d0, d1, j = risk.counts
        self.c0, self.c1 = (n0 - j * d0, n1 - j * d1) if efron and j is not None else (n0, n1)
        self.treated = arm.sum(axis=1)
        self.deaths = np.full(len(arm), float(arm.shape[1]))

    def take(self, rows: np.ndarray) -> "_TreatmentLikelihood":
        # every attribute is an array with one entry per row
        out = object.__new__(_TreatmentLikelihood)
        vars(out).update((name, values[rows]) for name, values in vars(self).items())
        return out

    def evaluate(self, beta: np.ndarray):
        """Log-likelihood (B,), gradient (B, 1) and Hessian (B, 1, 1) at beta (B, 1)."""
        m = np.maximum(beta, 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s1 = self.c1 * np.exp(beta - m)
            s0 = self.c0 * np.exp(-m) + s1
            ll = beta[:, 0] * self.treated - m[:, 0] * self.deaths - np.log(s0).sum(axis=1)
            r = s1 / s0
            grad = self.treated - r.sum(axis=1)
            info = (r * (1.0 - r)).sum(axis=1)
        return ll, grad[:, None], -info[:, None, None]


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


#: Per solver, where LAPACK succeeds on a stack of 1 x 1 matrices a and what
#: it returns, elementwise with the same bits; this Cholesky passes a NaN.
_ONE_BY_ONE = {np.linalg.cholesky: (lambda a: ~(a <= 0.0), np.sqrt),
               np.linalg.solve: (lambda a: a != 0.0, lambda a, b: b / a),
               np.linalg.inv: (lambda a: a != 0.0, lambda a: 1.0 / a)}


def _stacked(solver, *matrices):
    """``solver`` on stacked arrays, and which rows succeeded.

    1 x 1 systems take the elementwise path of ``_ONE_BY_ONE``. Otherwise, if
    the stacked call raises, it is repeated one matrix at a time, so only the
    offending rows fail; their results are NaN.
    """
    rows = len(matrices[0])
    if matrices[0].shape[-1] == 1:
        succeeds, value = _ONE_BY_ONE[solver]
        ok = succeeds(matrices[0][:, 0, 0])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(ok[:, None, None], value(*matrices), np.nan), ok
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


def _newton(lik: _CoxLikelihood | _TreatmentLikelihood) -> _CoxFits:
    """Fit every row by Newton iteration from beta = 0, each on its own path,
    under the rules of ``cox_fit``. Each row keeps its beta, log-likelihood,
    step, halving count h and status; each pass evaluates every running row
    once, at beta + step / 2^h, so a rejected step is retried at half its
    length on the next pass while the other rows go on."""
    rows, p = len(lik.deaths), lik.p
    beta = np.zeros((rows, p))
    ll, grad, hess = lik.evaluate(beta)
    status = np.where(lik.deaths > 0, _RUNNING, _NO_EVENTS)
    iterations = np.zeros(rows, dtype=np.int64)
    has_events = np.flatnonzero(status == _RUNNING)
    # Full column rank on the event risk sets <=> the information at beta = 0
    # (a sum of within-risk-set covariate covariances) is positive definite.
    _, full_rank = _stacked(np.linalg.cholesky, -hess[has_events])
    status[has_events[~full_rank]] = _RANK_DEFICIENT
    step = np.zeros((rows, p))
    halvings = np.zeros(rows, dtype=np.int64)
    active = np.arange(rows)
    while True:
        # rows at an accepted point test for convergence and the iteration
        # cap, then solve for their next step
        fresh = active[(status[active] == _RUNNING) & (halvings[active] == 0)]
        small = np.abs(grad[fresh]).max(axis=1) < GRADIENT_TOL
        status[fresh[small]] = _CONVERGED
        status[fresh[~small & (iterations[fresh] >= MAX_ITERATIONS)]] = _MAX_ITER
        fresh = fresh[status[fresh] == _RUNNING]
        solution, solved = _stacked(np.linalg.solve, -hess[fresh], grad[fresh][..., None])
        step[fresh] = solution[..., 0]
        failed = fresh[~solved]
        status[failed] = np.where(iterations[failed] == 0, _SINGULAR_AT_ZERO, _SINGULAR)
        # the one point where finished rows, whatever their outcome, leave
        keep = status[active] == _RUNNING
        if not keep.any():
            break
        if not keep.all():
            active, lik = active[keep], lik.take(keep)
        # every running row tries its step, halved once per earlier rejection
        candidate = beta[active] + 0.5 ** halvings[active][:, None] * step[active]
        cll, cgrad, chess = lik.evaluate(candidate)
        ok = np.isfinite(cll) & (cll >= ll[active] - 1e-10 * (np.abs(ll[active]) + 1.0))
        done = active[ok]
        prev = ll[done]
        beta[done], ll[done] = candidate[ok], cll[ok]
        grad[done], hess[done] = cgrad[ok], chess[ok]
        iterations[done] += 1
        separated = np.abs(beta[done]).max(axis=1) > COEFFICIENT_BOUND
        status[done[separated]] = _SEPARATION
        flat = np.abs(ll[done] - prev) <= LOGLIK_REL_TOL * np.maximum(1.0, np.abs(prev))
        status[done[~separated & flat]] = _CONVERGED
        halvings[active] = np.where(ok, 0, halvings[active] + 1)
        status[active[halvings[active] > MAX_HALVINGS]] = _HALVING_FAILED

    started = status < _NO_EVENTS
    covariance = np.full((rows, p, p), np.nan)
    covariance[started], _ = _stacked(np.linalg.inv, -hess[started])
    var0 = covariance[:, 0, 0]
    with np.errstate(invalid="ignore"):
        se = np.where(var0 > 0, np.sqrt(var0), np.nan)
    return _CoxFits(beta, covariance, se, ll, np.abs(grad).max(axis=1), iterations, status)


# ---------------------------------------------------------------------------
# Datasets stacked into one batch


#: Column c is the multivariate design of cell c = 2 * stratum + arm: the
#: arm, then the stratum's covariates in COVARIATE_NAMES order.
_CELL_DESIGN = np.vstack((np.tile([0.0, 1.0], STRATUM_COUNT),
                          np.repeat(stratum_covariates(np.arange(STRATUM_COUNT)).T, 2, axis=1)))


class _Trials:
    """Analyzed subject arrays of B same-size datasets as (B, N), from the rows
    of a ``TrialBatch`` or a 1-row view of a ``TrialDataset``, with the two
    layouts of "Layout" above, ``pooled`` and ``stratified``, built on first
    use and shared by the analyses. ``likelihood`` decides each Cox fit's
    layout and tie rule. Each layout reads a subject's arm and stratum from
    its cell."""

    def __init__(self, trials: TrialBatch | TrialDataset):
        self.time, self.event, arm, strata = (
            np.atleast_2d(a) for a in
            (trials.observed_time, trials.event, trials.arm, trials.stratum_index))
        # each row's flat offset, so that every row gather is one np.take
        self.offset = np.arange(len(self.time))[:, None] * self.time.shape[1]
        self.order = stable_argsort(self.time) + self.offset
        # cell = 2 * stratum + arm, in time order
        self.cells = np.take(2 * strata.astype(np.int8) + arm.astype(np.int8), self.order)

    def _layout(self, order: np.ndarray, cells: np.ndarray, stratified: bool) -> _RiskSets:
        time, event = np.take(self.time, order), np.take(self.event, order)
        return _RiskSets(time, event, (cells & 1).astype(float),
                         cells >> 1 if stratified else None)

    @cached_property
    def pooled(self) -> _RiskSets:
        return self._layout(self.order, self.cells, False)

    @cached_property
    def stratified(self) -> _RiskSets:
        by_stratum = np.argsort(self.cells >> 1, axis=1, kind="stable") + self.offset
        return self._layout(np.take(self.order, by_stratum), np.take(self.cells, by_stratum), True)

    def likelihood(self, method: Method, tie_method: str
                   ) -> _CoxLikelihood | _TreatmentLikelihood:
        if method not in COX_METHODS:
            raise InvalidParameterError(f"cox_fit requires a Cox method, got {method}")
        risk = self.stratified if method is Method.COX_STRATIFIED else self.pooled
        if method is Method.COX_MULTIVARIATE:  # on the pooled layout, in self.cells order
            efron = tie_method == "efron" and not risk.untied
            return _CoxLikelihood(risk, self.cells, _CELL_DESIGN, risk.counts.j if efron else None)
        return _TreatmentLikelihood(risk, tie_method == "efron")


#: ``analyze_trials``' stages in run order: the death-count check and time sort,
#: each Cox fit with the layout and counts it builds first, both log-rank tests.
ANALYSIS_STAGES = ("sort", "mult_cox", "unstrat_cox", "strat_cox", "logranks")


class TrialAnalyses(NamedTuple):
    """Both log-rank tests and the three Cox fits of a batch, one row per dataset.

    ``fits`` follows COX_METHODS order. A log-rank z is NaN where the test is
    degenerate; a fit is usable where it converged with a finite SE. ``ns`` is
    the int64 time of each ANALYSIS_STAGES entry, in nanoseconds.
    """

    logrank_z: np.ndarray
    stratified_logrank_z: np.ndarray
    fits: tuple[_CoxFits, ...]
    ns: np.ndarray


def analyze_trials(batch: TrialBatch, tie_method: str = "efron") -> TrialAnalyses:
    """Run the five analyses on every row of a batch of same-size trials.

    The rows must share their death count D, as generated trials do: a batch
    whose rows differ in it raises InvalidParameterError."""
    marks = [time.perf_counter_ns()]
    deaths = np.count_nonzero(batch.event, axis=1)
    if np.any(deaths != deaths[:1]):
        raise InvalidParameterError(
            f"the rows of a batch must share their death count, got {np.unique(deaths).tolist()}")
    trials = _Trials(batch)
    marks.append(time.perf_counter_ns())
    # the multivariate fit, with the largest working set, runs before the
    # layouts hold their arm counts (an untied one builds none for its j)
    fits = {}
    for method in (Method.COX_MULTIVARIATE, Method.COX_UNSTRATIFIED, Method.COX_STRATIFIED):
        fits[method] = _newton(trials.likelihood(method, tie_method))
        marks.append(time.perf_counter_ns())
    z = _logrank(trials.pooled)[2], _logrank(trials.stratified)[2]
    marks.append(time.perf_counter_ns())
    return TrialAnalyses(*z, tuple(fits[method] for method in COX_METHODS), np.diff(marks))


def _one_dataset_likelihood(dataset: TrialDataset, spec: AnalysisSpec):
    likelihood = _Trials(dataset).likelihood(spec.method, spec.tie_method)
    if not dataset.event.any():
        raise InvalidModelError(_DIAGNOSTICS[_NO_EVENTS])
    return likelihood


def partial_likelihood_terms(dataset: TrialDataset, spec: AnalysisSpec, beta):
    """Log partial likelihood, gradient and Hessian at ``beta`` for a Cox spec."""
    lik = _one_dataset_likelihood(dataset, spec)
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
    fits = _newton(_one_dataset_likelihood(dataset, spec))
    names = ("treatment",)
    if spec.method is Method.COX_MULTIVARIATE:
        names += COVARIATE_NAMES
    return fits.fit(0, names)
