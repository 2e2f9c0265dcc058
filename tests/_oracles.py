"""Independent reference implementations used to check the production code.

Everything here is deliberately naive: explicit Python loops over risk sets
and strata, straight from the textbook definitions, sharing no code with the
package.
"""

from __future__ import annotations

import math

import numpy as np


def naive_partial_loglik(times, events, X, beta, strata=None, tie_method="efron"):
    """Partial log-likelihood by direct risk-set enumeration."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    strata = np.zeros(len(times), dtype=int) if strata is None else np.asarray(strata)
    eta = X @ beta
    ll = 0.0
    for s in np.unique(strata):
        in_s = strata == s
        ts, es, etas = times[in_s], events[in_s], eta[in_s]
        for tau in sorted(set(ts[es])):
            deaths = np.flatnonzero((ts == tau) & es)
            at_risk = np.flatnonzero(ts >= tau)
            d = len(deaths)
            risk_sum = float(np.exp(etas[at_risk]).sum())
            death_sum = float(np.exp(etas[deaths]).sum())
            ll += float(etas[deaths].sum())
            if tie_method == "breslow":
                ll -= d * math.log(risk_sum)
            else:
                for k in range(d):
                    ll -= math.log(risk_sum - (k / d) * death_sum)
    return ll


def grid_search_cox(times, events, X, strata=None, tie_method="efron",
                    half_width=8.0, points=13, rounds=14):
    """Maximize the naive partial log-likelihood by iterated grid refinement.

    Returns (beta_hat, hit_boundary). Practical for 1 or 2 coefficients on
    small datasets; the final grid resolution is far below 1e-4.
    """
    X = np.asarray(X, dtype=float)
    p = X.shape[1]
    center = np.zeros(p)
    h = float(half_width)
    boundary = False
    for _ in range(rounds):
        axes = [np.linspace(center[k] - h, center[k] + h, points) for k in range(p)]
        best_ll = -np.inf
        best = center
        for combo in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p):
            ll = naive_partial_loglik(times, events, X, combo, strata, tie_method)
            if ll > best_ll:
                best_ll = ll
                best = combo
        boundary = bool(np.any(np.abs(best - center) >= h - 1e-12))
        center = best
        h = 2.0 * (2.0 * h / (points - 1))
    return center, boundary


def hypergeom_logrank(times, events, arm, strata=None):
    """Log-rank O-E and variance by explicit per-event-time accumulation."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    arm = np.asarray(arm, dtype=int)
    strata = np.zeros(len(times), dtype=int) if strata is None else np.asarray(strata)
    oe = 0.0
    var = 0.0
    for s in np.unique(strata):
        in_s = strata == s
        ts, es, arms = times[in_s], events[in_s], arm[in_s]
        for tau in sorted(set(ts[es])):
            at_risk = ts >= tau
            n = int(at_risk.sum())
            n1 = int((at_risk & (arms == 1)).sum())
            dead = (ts == tau) & es
            d = int(dead.sum())
            d1 = int((dead & (arms == 1)).sum())
            oe += d1 - d * n1 / n
            if n > 1:
                var += d * (n1 / n) * (1 - n1 / n) * (n - d) / (n - 1)
    return oe, var


def random_survival_data(rng, max_n=8, covariates=1, allow_ties=True,
                         n_strata=1):
    """Small random dataset for oracle comparisons: (times, events, X, strata)."""
    n = int(rng.integers(2, max_n + 1))
    if allow_ties and rng.random() < 0.5:
        times = rng.integers(1, 5, size=n).astype(float)
    else:
        times = rng.uniform(0.5, 10.0, size=n)
    events = rng.random(n) < 0.7
    if not events.any():
        events[int(rng.integers(0, n))] = True
    cols = []
    for _ in range(covariates):
        if rng.random() < 0.5:
            cols.append(rng.integers(0, 2, size=n).astype(float))
        else:
            cols.append(np.round(rng.normal(0.0, 1.0, size=n), 2))
    X = np.column_stack(cols)
    strata = rng.integers(0, n_strata, size=n) if n_strata > 1 else np.zeros(n, int)
    return times, events, X, strata


def _naive_control_rates(scenario):
    """The 12 control-arm rates by stratum index 6*x1 + 2*x2 + x3, factor by factor."""
    log2 = math.log(2.0)
    if scenario.kind.value == "stratum_baselines":
        return [log2 / m for m in scenario.stratum_medians]
    rates = []
    for s in range(12):
        x1, x2, x3 = s // 6, (s % 6) // 2, s % 2
        rate = log2 / scenario.base_median
        if scenario.kind.value == "multiplicative_covariates":
            if x1:
                rate *= scenario.hr_x1
            if x2 == 1:
                rate *= scenario.hr_x2_level1
            if x2 == 2:
                rate *= scenario.hr_x2_level2
            if x3:
                rate *= scenario.hr_x3
        rates.append(rate)
    return rates


def naive_trial(design, scenario, gen):
    """One generated trial, drawn the way a single trial is specified.

    Four separate draws from ``gen``, in this order: stratum uniforms, arm
    uniforms, enrollment times uniform on [0, accrual), event-time uniforms.
    The cutoff is the D-th calendar event time with ties broken by subject
    id. Returns the subject fields and the cutoff, keyed like TrialDataset.
    """
    n, d = design.sample_size, design.target_events
    cdf = np.cumsum(np.asarray(design.allocation_weights, dtype=float))
    strata = np.searchsorted(cdf, gen.random(n) * cdf[-1], side="right")
    arm = (gen.random(n) < design.randomization_prob).astype(int)
    enroll = gen.uniform(0.0, design.accrual_months, size=n)
    u = np.maximum(gen.random(n), np.finfo(float).tiny)

    control = _naive_control_rates(scenario)
    rates = np.array([control[s] * design.true_hr if a == 1 else control[s]
                      for s, a in zip(strata, arm)])
    latent = -np.log(u) / rates

    subject_id = np.arange(n)
    calendar = enroll + latent
    order = np.lexsort((subject_id, calendar))
    cutoff = calendar[order[d - 1]]
    event = np.zeros(n, dtype=bool)
    event[order[:d]] = True
    observed = np.where(event, latent, np.maximum(cutoff - enroll, 0.0))
    return {"subject_id": subject_id, "stratum_index": strata, "arm": arm,
            "enroll_time": enroll, "latent_event_time": latent,
            "observed_time": observed, "event": event, "cutoff_calendar_time": cutoff}
