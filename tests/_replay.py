"""The Monte Carlo record replayed replicate by replicate through the public
one-trial calls ``generate_trial``, ``logrank`` and ``cox_fit``.

The batched engine must equal this replay bit for bit: the estimates are read
through ``CoxFit.treatment_hr``, whose ``np.exp`` the engine also applies.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import norm

from stratsurv.datagen import RngStream, generate_trial
from stratsurv.errors import DegenerateTestError, InvalidModelError
from stratsurv.inference import COX_METHODS, AnalysisSpec, cox_fit, logrank
from stratsurv.simulate import COX_KEYS, TEST_KEYS, Replicates, SimConfig


def replay_replicates(cfg: SimConfig, lo: int = 0, hi: int | None = None) -> Replicates:
    """Replicates lo..hi-1 (default: all) under the documented rules.

    A test outcome is None when the test is degenerate: a log-rank test that
    raises, or the Wald test of a Cox fit that raised, did not converge or has
    no finite SE. Only usable fits contribute estimates; None never rejects.
    """
    hi = cfg.replicates if hi is None else hi
    zcrit = norm.ppf(cfg.design.alpha_one_sided)
    hr = np.full((hi - lo, 3), np.nan)
    se = np.full((hi - lo, 3), np.nan)
    outcomes = []
    for row, i in enumerate(range(lo, hi)):
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
                hr[row, k], se[row, k] = fit.treatment_hr, fit.treatment_se
                outcome[key] = fit.wald_z < zcrit
            else:
                outcome[key] = None
        outcomes.append([outcome[key] for key in TEST_KEYS])
    reject = np.array([[o is not None and bool(o) for o in row] for row in outcomes])
    degenerate = np.array([[o is None for o in row] for row in outcomes])
    return Replicates(hr, se, reject, degenerate)


def assert_same(a: Replicates, b: Replicates) -> None:
    """Every column of ``a`` equals ``b``'s in dtype, shape and bits (NaN = NaN)."""
    for field in Replicates._fields:
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.shape == y.shape, field
        assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), field
