"""Log-rank tests and Cox proportional-hazards regression.

Both analyses share one data layout: subjects sorted by (stratum, time), with
risk-set aggregates computed by reverse cumulative sums that reset at stratum
boundaries. Stratified statistics accumulate within-stratum terms and sum
across strata; the unstratified variants use a single pooled stratum.

The Cox fitter maximizes the (stratified) partial log-likelihood by Newton
iteration with step-halving. Tied event times are handled by Efron's method
by default, with Breslow selectable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .datagen import TrialDataset
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
# Shared sorted layout


class _Layout:
    """Subjects sorted by (stratum, time) with segment and block indexing."""

    def __init__(self, times: np.ndarray, strata: np.ndarray):
        n = len(times)
        self.n = n
        self.order = np.lexsort((times, strata))
        self.t = times[self.order]
        self.s = strata[self.order]
        seg_change = np.flatnonzero(self.s[1:] != self.s[:-1]) + 1
        self.seg_starts = np.concatenate(([0], seg_change))
        self.seg_bounds = np.concatenate((self.seg_starts, [n]))
        self.seg_id_pos = np.searchsorted(self.seg_bounds, np.arange(n), side="right") - 1
        self.seg_end_pos = self.seg_bounds[self.seg_id_pos + 1]
        new_block = np.concatenate(
            ([True], (self.t[1:] != self.t[:-1]) | (self.s[1:] != self.s[:-1])))
        self.block_starts = np.flatnonzero(new_block)
        self.block_ends = np.concatenate((self.block_starts[1:], [n]))


def _get_layout(dataset: TrialDataset, stratified: bool) -> _Layout:
    """Layout for a dataset, cached on the (immutable) dataset object."""
    cache = getattr(dataset, "_risk_layouts", None)
    if cache is None:
        cache = {}
        dataset._risk_layouts = cache
    key = bool(stratified)
    if key not in cache:
        strata = (np.asarray(dataset.stratum_index) if stratified
                  else np.zeros(dataset.n_subjects, dtype=np.int64))
        cache[key] = _Layout(np.asarray(dataset.observed_time, dtype=float), strata)
    return cache[key]


def _suffix_sums(values: np.ndarray) -> np.ndarray:
    """Suffix sums padded with a trailing zero row, along axis 0."""
    rcs = np.cumsum(values[::-1], axis=0)[::-1]
    pad = np.zeros((1,) + values.shape[1:], dtype=rcs.dtype)
    return np.concatenate((rcs, pad), axis=0)


# ---------------------------------------------------------------------------
# Log-rank


def logrank(dataset: TrialDataset, stratified: bool = False) -> LogRankResult:
    """Unstratified or stratified log-rank test for the treatment contrast.

    At each distinct event time the observed treatment-arm events are compared
    with their hypergeometric expectation; stratified mode accumulates these
    sums within each stratum before combining.
    """
    n = dataset.n_subjects
    if n == 0:
        raise DegenerateTestError("empty dataset", 0.0)
    lay = _get_layout(dataset, stratified)
    e = dataset.event[lay.order].astype(float)
    a = dataset.arm[lay.order].astype(float)

    d_all = np.add.reduceat(e, lay.block_starts)
    d1_all = np.add.reduceat(e * a, lay.block_starts)
    rcs_arm = _suffix_sums(a)
    seg_end_b = lay.seg_end_pos[lay.block_starts]
    n1_all = rcs_arm[lay.block_starts] - rcs_arm[seg_end_b]
    n_all = (seg_end_b - lay.block_starts).astype(float)

    mask = d_all > 0
    d, d1, n1, nr = d_all[mask], d1_all[mask], n1_all[mask], n_all[mask]
    frac = n1 / nr
    oe_terms = d1 - d * frac
    v_terms = np.zeros_like(oe_terms)
    multi = nr > 1
    v_terms[multi] = (
        d[multi] * frac[multi] * (1.0 - frac[multi])
        * (nr[multi] - d[multi]) / (nr[multi] - 1.0)
    )

    observed_minus_expected = float(np.sum(oe_terms))
    variance = float(np.sum(v_terms))
    block_seg = lay.seg_id_pos[lay.block_starts][mask]
    strata_used = int(np.unique(block_seg[v_terms > 0]).size)

    if variance <= 0.0:
        raise DegenerateTestError(
            "log-rank variance is zero (no within-stratum arm contrast)",
            observed_minus_expected)
    z = observed_minus_expected / math.sqrt(variance)
    return LogRankResult(
        observed_minus_expected=observed_minus_expected,
        variance=variance,
        z=float(z),
        p_one_sided=_normal_cdf(z),
        strata_used=strata_used,
    )


# ---------------------------------------------------------------------------
# Cox partial likelihood


class _PartialLikelihood:
    """Stratified partial log-likelihood with gradient and Hessian.

    Risk-set aggregates S0, S1, S2 are suffix sums over the sorted layout,
    taken at each distinct event time and truncated at the stratum boundary.
    One packed cumulative sum delivers all three. Efron tie corrections are
    applied per tied block; without ties Efron and Breslow coincide.
    """

    def __init__(self, layout: _Layout, events, X, tie_method="efron"):
        events = np.asarray(events, dtype=bool)
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] != layout.n:
            raise InvalidParameterError("X must be 2-D with one row per subject")
        if tie_method not in TIE_METHODS:
            raise InvalidParameterError(f"unknown tie method {tie_method!r}")
        if layout.n == 0 or not events.any():
            raise InvalidModelError("cannot fit a Cox model with no events")
        self.tie_method = tie_method
        self.n, self.p = X.shape
        lay = layout
        self.lay = lay
        self.Xs = X[lay.order]
        self.ef = events[lay.order].astype(float)
        p = self.p
        self.XXflat = (self.Xs[:, :, None] * self.Xs[:, None, :]).reshape(self.n, p * p)

        d_all = np.add.reduceat(self.ef, lay.block_starts)
        has_event = d_all > 0
        self.eb_start = lay.block_starts[has_event]
        self.eb_segend = lay.seg_end_pos[self.eb_start]
        self.d = d_all[has_event]
        xd = np.add.reduceat(self.Xs * self.ef[:, None], lay.block_starts, axis=0)
        self.death_x_total = xd[has_event].sum(axis=0)

        # Tied event blocks (for Efron corrections): positions into the event
        # block arrays plus the sorted-row indices of the deaths in the block.
        self.tie_blocks: list[tuple[int, np.ndarray]] = []
        if np.any(self.d > 1.5):
            ends = lay.block_ends[has_event]
            for pos in np.flatnonzero(self.d > 1.5):
                rows = np.arange(self.eb_start[pos], ends[pos])
                self.tie_blocks.append((int(pos), rows[self.ef[rows] > 0]))

    def loglik(self, beta: np.ndarray) -> float:
        return self._loglik_core(np.asarray(beta, dtype=float))[0]

    def derivatives(self, beta: np.ndarray):
        """Return (loglik, gradient, hessian) at beta."""
        ll, w, S0 = self._loglik_core(np.asarray(beta, dtype=float))
        n, p = self.n, self.p
        packed = np.empty((n, p + p * p))
        np.multiply(self.Xs, w[:, None], out=packed[:, :p])
        np.multiply(self.XXflat, w[:, None], out=packed[:, p:])
        rcs = _suffix_sums(packed)
        s_all = rcs[self.eb_start] - rcs[self.eb_segend]
        S1 = s_all[:, :p]
        S2 = s_all[:, p:].reshape(-1, p, p)

        r = S1 / S0[:, None]
        grad = self.death_x_total - self.d @ r
        hess = -(np.tensordot(self.d / S0, S2, axes=1) - (r * self.d[:, None]).T @ r)

        if self.tie_method == "efron" and self.tie_blocks:
            wX = packed[:, :p]
            for pos, rows in self.tie_blocks:
                dm = len(rows)
                dd = float(dm)
                j = np.arange(dm) / dd
                S0d = w[rows].sum()
                S1d = wX[rows].sum(axis=0)
                S2d = packed[rows, p:].sum(axis=0).reshape(p, p)
                denom = S0[pos] - j * S0d
                num1 = S1[pos][None, :] - j[:, None] * S1d
                num2 = S2[pos][None, :, :] - j[:, None, None] * S2d
                rb = num1 / denom[:, None]
                # replace this block's Breslow terms with the Efron sums
                grad += dd * r[pos] - rb.sum(axis=0)
                hess += dd * (S2[pos] / S0[pos] - np.outer(r[pos], r[pos]))
                hess -= (np.tensordot(1.0 / denom, num2, axes=1) - rb.T @ rb)
        return ll, grad, hess

    def _loglik_core(self, beta):
        """Loglik plus the per-evaluation arrays reused by the derivatives."""
        lay = self.lay
        eta = self.Xs @ beta
        shift = np.maximum.reduceat(eta, lay.seg_starts)[lay.seg_id_pos]
        eta_sh = eta - shift
        w = np.exp(eta_sh)

        rcs0 = _suffix_sums(w)
        S0 = rcs0[self.eb_start] - rcs0[self.eb_segend]
        if S0.min() > 0.0:
            log_S0 = np.log(S0)
        else:
            with np.errstate(divide="ignore"):
                log_S0 = np.log(S0)
        ll = float(eta_sh @ self.ef) - float(self.d @ log_S0)

        if self.tie_method == "efron" and self.tie_blocks:
            with np.errstate(divide="ignore", invalid="ignore"):
                for pos, rows in self.tie_blocks:
                    dm = len(rows)
                    j = np.arange(dm) / dm
                    denom = S0[pos] - j * w[rows].sum()
                    ll += float(self.d[pos] * log_S0[pos]) - float(np.log(denom).sum())
        return ll, w, S0


def _cox_design(dataset: TrialDataset, spec: AnalysisSpec):
    arm = dataset.arm.astype(float)
    if spec.method is Method.COX_UNSTRATIFIED:
        return False, arm[:, None], ("treatment",)
    if spec.method is Method.COX_MULTIVARIATE:
        X = np.column_stack([arm, stratum_covariates(dataset.stratum_index)])
        return False, X, ("treatment",) + COVARIATE_NAMES
    if spec.method is Method.COX_STRATIFIED:
        return True, arm[:, None], ("treatment",)
    raise InvalidParameterError(f"cox_fit requires a Cox method, got {spec.method}")


def _build_likelihood(dataset: TrialDataset, spec: AnalysisSpec):
    stratified, X, names = _cox_design(dataset, spec)
    layout = _get_layout(dataset, stratified)
    return _PartialLikelihood(layout, dataset.event, X, spec.tie_method), names


def partial_likelihood_terms(dataset: TrialDataset, spec: AnalysisSpec, beta):
    """Log partial likelihood, gradient and Hessian at ``beta`` for a Cox spec."""
    pl, _ = _build_likelihood(dataset, spec)
    return pl.derivatives(np.asarray(beta, dtype=float))


MAX_ITERATIONS = 50
GRADIENT_TOL = 1e-9
LOGLIK_REL_TOL = 1e-12
MAX_HALVINGS = 20
COEFFICIENT_BOUND = 15.0


def cox_fit(dataset: TrialDataset, spec: AnalysisSpec) -> CoxFit:
    """Fit a Cox model by Newton iteration on the partial log-likelihood.

    Starts at beta = 0; a step is halved (up to 20 times) whenever it would
    decrease the log-likelihood beyond float noise. Convergence requires the
    largest gradient component below 1e-9 or a relative log-likelihood change
    below 1e-12. Any coefficient beyond +-15 flags likely separation: the fit
    is returned with ``converged=False`` and a diagnostic rather than raising.
    """
    pl, names = _build_likelihood(dataset, spec)

    beta = np.zeros(pl.p)
    ll, grad, hess = pl.derivatives(beta)
    # Full column rank on the event risk sets <=> the information at beta = 0
    # (a sum of within-risk-set covariate covariances) is positive definite.
    try:
        np.linalg.cholesky(-hess)
    except np.linalg.LinAlgError:
        raise InvalidModelError(
            "design matrix is rank deficient on the event risk sets (no contrast)")
    iterations = 0
    converged = False
    diagnostic = ""
    while True:
        gnorm = float(np.abs(grad).max())
        if gnorm < GRADIENT_TOL:
            converged = True
            break
        if iterations >= MAX_ITERATIONS:
            diagnostic = "maximum Newton iterations reached"
            break
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            if iterations == 0:
                raise InvalidModelError("information matrix is singular at beta = 0")
            diagnostic = "information matrix became singular"
            break
        slack = 1e-10 * (abs(ll) + 1.0)
        factor = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            candidate = beta + factor * step
            cll = pl.loglik(candidate)
            if math.isfinite(cll) and cll >= ll - slack:
                accepted = True
                break
            factor *= 0.5
        if not accepted:
            diagnostic = "step-halving failed to improve the log-likelihood"
            break
        beta = candidate
        prev_ll = ll
        ll, grad, hess = pl.derivatives(beta)
        iterations += 1
        if np.abs(beta).max() > COEFFICIENT_BOUND:
            diagnostic = ("coefficient magnitude exceeds bound; "
                          "likelihood appears monotone (separation)")
            break
        if abs(ll - prev_ll) <= LOGLIK_REL_TOL * max(1.0, abs(prev_ll)):
            converged = True
            break

    gnorm = float(np.abs(grad).max())
    try:
        covariance = np.linalg.inv(-hess)
        var0 = float(covariance[0, 0])
        se = math.sqrt(var0) if var0 > 0 else float("nan")
    except np.linalg.LinAlgError:
        covariance = np.full((pl.p, pl.p), np.nan)
        se = float("nan")
    log_hr = float(beta[0])
    wald = log_hr / se if math.isfinite(se) and se > 0 else float("nan")
    return CoxFit(
        beta=beta,
        covariance=covariance,
        treatment_log_hr=log_hr,
        treatment_se=se,
        wald_z=float(wald),
        converged=converged,
        iterations=iterations,
        final_gradient_norm=gnorm,
        loglik=float(ll),
        covariate_names=names,
        diagnostic=diagnostic,
    )

