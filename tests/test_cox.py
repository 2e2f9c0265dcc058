"""Tests for the Cox partial-likelihood fitter.

Oracles: an analytic score-equation solution, a naive loop-based partial
log-likelihood with grid-search maximization, and central finite differences.
"""

import itertools
import math
import re

import numpy as np
import pytest

from stratsurv import inference
from stratsurv.datagen import (
    RngStream,
    TrialBatch,
    TrialDataset,
    generate_trial,
    generate_trials,
    stream_states,
    stream_uniforms,
)
from stratsurv.errors import DegenerateTestError, InvalidModelError, InvalidParameterError
from stratsurv.inference import (
    COX_METHODS,
    TIE_METHODS,
    AnalysisSpec,
    Method,
    _CoxLikelihood,
    _RiskSets,
    analyze_trials,
    cox_fit,
    logrank,
    partial_likelihood_terms,
)
from stratsurv.trial import ScenarioSpec, TrialDesign, stratum_covariates

from _oracles import grid_search_cox, hypergeom_logrank, naive_partial_loglik, random_survival_data


def _dataset(times, events, arm, strata=None):
    n = len(times)
    return TrialDataset(
        subject_id=np.arange(n),
        stratum_index=np.zeros(n, int) if strata is None else np.asarray(strata),
        arm=arm,
        enroll_time=np.zeros(n),
        observed_time=times,
        event=events,
    )


def _trial(seed, d=40, scenario=None):
    design = TrialDesign.from_event_target(0.6, d)
    scenario = scenario or ScenarioSpec.multiplicative_covariates()
    return generate_trial(design, scenario, RngStream(seed, 0))


def _layout(times, events, X, strata):
    """One dataset with free covariates X as the engine lays it out: its risk
    sets, one cell per subject (B = 1, K = N) and the (p, K) design."""
    order = np.lexsort((times, strata))
    design = np.asarray(X, float)[order].T
    times, events, strata = (np.asarray(a)[order][None] for a in (times, events, strata))
    risk = _RiskSets.of(times, events, design[None, 0], strata)
    return risk, np.arange(len(order))[None], design


def _likelihood(times, events, X, strata, ties):
    """The batched engine's likelihood of one dataset with free covariates X,
    with the Efron weights j of the layout's deaths."""
    risk, cells, design = _layout(times, events, X, strata)
    return _CoxLikelihood(risk, cells, design, risk.counts.j if ties == "efron" else None)


def _engine_terms(times, events, X, strata, ties, beta):
    """(loglik, gradient, Hessian) of one dataset at beta through the engine."""
    ll, grad, hess = _likelihood(times, events, X, strata, ties).evaluate(
        np.asarray(beta, float)[None])
    return ll[0], grad[0], hess[0]


def _rows(trials, rows):
    """The batch of ``trials``' rows ``rows``, in that order."""
    return TrialBatch(*(a[rows] for a in trials))


def _first_deaths(event, d):
    """Each row of ``event`` with its deaths after the first d, in subject
    order, censored: every row that had d deaths or more has d."""
    return event & (np.cumsum(event, axis=-1) <= d)


UNSTRAT = AnalysisSpec(Method.COX_UNSTRATIFIED)
MULT = AnalysisSpec(Method.COX_MULTIVARIATE)
STRAT = AnalysisSpec(Method.COX_STRATIFIED)


class TestAnalyticCase:
    def test_three_subject_closed_form(self):
        # events at t=1 (z=1) and t=2 (z=0), censoring at t=3 (z=1):
        # the score equation solves to exp(beta) = 1/sqrt(2)
        ds = _dataset([1.0, 2.0, 3.0], [True, True, False], [1, 0, 1])
        fit = cox_fit(ds, UNSTRAT)
        assert fit.converged
        assert fit.treatment_log_hr == pytest.approx(-0.5 * math.log(2.0), abs=1e-9)
        assert fit.treatment_hr == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-9)

    def test_three_subject_matches_grid_oracle(self):
        ds = _dataset([1.0, 2.0, 3.0], [True, True, False], [1, 0, 1])
        fit = cox_fit(ds, UNSTRAT)
        beta_grid, boundary = grid_search_cox(
            ds.observed_time, ds.event, ds.arm.astype(float)[:, None])
        assert not boundary
        assert fit.beta[0] == pytest.approx(beta_grid[0], abs=1e-5)


class TestDegenerateInputs:
    def test_constant_covariate_rejected(self):
        ds = _dataset([1.0, 2.0, 3.0], [True, True, False], [1, 1, 1])
        with pytest.raises(InvalidModelError):
            cox_fit(ds, UNSTRAT)

    def test_no_events_rejected(self):
        ds = _dataset([1.0, 2.0], [False, False], [1, 0])
        with pytest.raises(InvalidModelError):
            cox_fit(ds, UNSTRAT)

    def test_logrank_method_rejected(self):
        ds = _dataset([1.0, 2.0], [True, True], [1, 0])
        with pytest.raises(InvalidParameterError):
            cox_fit(ds, AnalysisSpec(Method.LOG_RANK))

    @pytest.mark.parametrize("setting,message", [
        ({"tie_method": "exact"}, "tie_method must be one of ('efron', 'breslow'), got 'exact'"),
        ({"alpha_one_sided": 1.0}, "alpha_one_sided must be in (0, 1)"),
    ])
    def test_bad_spec_rejected(self, setting, message):
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            AnalysisSpec(Method.COX_STRATIFIED, **setting)

    @pytest.mark.parametrize("method", list(Method), ids=lambda m: m.value)
    def test_empty_dataset_rejected(self, method):
        ds = _dataset(np.zeros(0), np.zeros(0, bool), np.zeros(0, int))
        if method in COX_METHODS:
            for call in (lambda spec: cox_fit(ds, spec),
                         lambda spec: partial_likelihood_terms(ds, spec, np.zeros(5))):
                with pytest.raises(InvalidModelError):
                    call(AnalysisSpec(method))
        else:
            with pytest.raises(DegenerateTestError):
                logrank(ds, stratified=method is Method.STRATIFIED_LOG_RANK)

    def test_separation_flagged_not_raised(self):
        # likelihood increases monotonically in beta: no finite maximizer
        ds = _dataset([1.0, 2.0], [True, False], [1, 0])
        fit = cox_fit(ds, UNSTRAT)
        assert not fit.converged
        assert "separation" in fit.diagnostic or "monotone" in fit.diagnostic


class TestInvariances:
    def test_time_scaling_leaves_fit_unchanged(self):
        ds = _trial(21)
        fit = cox_fit(ds, MULT)
        scaled = TrialDataset(
            subject_id=ds.subject_id, stratum_index=ds.stratum_index, arm=ds.arm,
            enroll_time=ds.enroll_time, observed_time=ds.observed_time * 7.25,
            event=ds.event,
        )
        fit2 = cox_fit(scaled, MULT)
        assert np.array_equal(fit.beta, fit2.beta)
        assert np.array_equal(fit.covariance, fit2.covariance)

    def test_subject_permutation_noise_only(self):
        ds = _trial(22)
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.n_subjects)
        shuffled = TrialDataset(
            subject_id=ds.subject_id[perm], stratum_index=ds.stratum_index[perm],
            arm=ds.arm[perm], enroll_time=ds.enroll_time[perm],
            observed_time=ds.observed_time[perm], event=ds.event[perm],
        )
        for spec in (UNSTRAT, MULT, STRAT):
            a = cox_fit(ds, spec)
            b = cox_fit(shuffled, spec)
            assert np.allclose(a.beta, b.beta, rtol=0, atol=1e-10)
            assert np.allclose(a.covariance, b.covariance, rtol=0, atol=1e-10)
        for stratified in (False, True):
            assert logrank(ds, stratified).z == pytest.approx(
                logrank(shuffled, stratified).z, abs=1e-10)

    def test_arm_swap_negates_treatment_coefficient(self):
        ds = _trial(23)
        swapped = TrialDataset(
            subject_id=ds.subject_id, stratum_index=ds.stratum_index,
            arm=1 - ds.arm, enroll_time=ds.enroll_time,
            observed_time=ds.observed_time, event=ds.event,
        )
        a = cox_fit(ds, UNSTRAT)
        b = cox_fit(swapped, UNSTRAT)
        assert b.treatment_log_hr == pytest.approx(-a.treatment_log_hr, abs=1e-8)

    def test_stratified_single_stratum_equals_unstratified(self):
        ds = _trial(24)
        pooled = TrialDataset(
            subject_id=ds.subject_id, stratum_index=np.zeros(ds.n_subjects, int),
            arm=ds.arm, enroll_time=ds.enroll_time,
            observed_time=ds.observed_time, event=ds.event,
        )
        a = cox_fit(pooled, STRAT)
        b = cox_fit(pooled, UNSTRAT)
        assert a.treatment_log_hr == b.treatment_log_hr
        assert a.treatment_se == b.treatment_se

    def test_efron_equals_breslow_without_ties(self):
        ds = _trial(25)
        for method in (Method.COX_UNSTRATIFIED, Method.COX_MULTIVARIATE,
                       Method.COX_STRATIFIED):
            a = cox_fit(ds, AnalysisSpec(method, tie_method="efron"))
            b = cox_fit(ds, AnalysisSpec(method, tie_method="breslow"))
            assert np.array_equal(a.beta, b.beta)

    def test_tie_methods_differ_with_ties(self):
        times = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0])
        events = np.array([True, True, False, True, True, True, False, True])
        arm = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        ds = _dataset(times, events, arm)
        a = cox_fit(ds, AnalysisSpec(Method.COX_UNSTRATIFIED, tie_method="efron"))
        b = cox_fit(ds, AnalysisSpec(Method.COX_UNSTRATIFIED, tie_method="breslow"))
        assert a.treatment_log_hr != b.treatment_log_hr


class TestGridOracle:
    def test_random_small_datasets_single_covariate(self):
        rng = np.random.default_rng(314)
        checked = 0
        while checked < 25:
            times, events, X, strata = random_survival_data(rng, covariates=1,
                                                            n_strata=2)
            if not set(np.unique(X[:, 0])) == {0.0, 1.0}:
                continue
            ds = _dataset(times, events, X[:, 0].astype(int), strata=strata)
            for spec, use_strata in ((UNSTRAT, None), (STRAT, strata)):
                try:
                    fit = cox_fit(ds, spec)
                except InvalidModelError:
                    continue
                if not fit.converged or abs(fit.beta[0]) > 4.0:
                    continue
                beta_grid, boundary = grid_search_cox(
                    times, events, X, strata=use_strata, tie_method="efron")
                if boundary:
                    continue
                assert fit.beta[0] == pytest.approx(beta_grid[0], abs=1e-4)
                checked += 1

    def test_loglik_matches_naive_both_tie_methods(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            times, events, X, strata = random_survival_data(rng, covariates=2,
                                                            n_strata=2)
            beta = rng.normal(0, 0.8, size=2)
            for ties in ("efron", "breslow"):
                got = _engine_terms(times, events, X, strata, ties, beta)[0]
                want = naive_partial_loglik(times, events, X, beta, strata, ties)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


    def test_multivariate_design_is_arm_then_stratum_covariates(self):
        rng = np.random.default_rng(77)
        for seed in (26, 27):
            ds = _trial(seed)
            X = np.column_stack((ds.arm, stratum_covariates(ds.stratum_index)))
            for ties in TIE_METHODS:
                beta = rng.normal(0, 0.5, size=5)
                got = partial_likelihood_terms(ds, AnalysisSpec(Method.COX_MULTIVARIATE, ties),
                                               beta)[0]
                want = naive_partial_loglik(ds.observed_time, ds.event, X, beta,
                                            tie_method=ties)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


class TestFiniteDifferences:
    def test_gradient_and_hessian_quick(self):
        rng = np.random.default_rng(99)
        modes = [(Method.COX_UNSTRATIFIED, "efron"), (Method.COX_MULTIVARIATE, "efron"),
                 (Method.COX_STRATIFIED, "breslow")]
        for i in range(12):
            ds = _trial(400 + i, d=20)
            method, ties = modes[i % 3]
            spec = AnalysisSpec(method, tie_method=ties)
            p = 5 if method is Method.COX_MULTIVARIATE else 1
            beta = rng.normal(0, 0.5, size=p)
            ll, grad, hess = partial_likelihood_terms(ds, spec, beta)
            h = 1e-5
            for k in range(p):
                e_k = np.zeros(p)
                e_k[k] = h * max(1.0, abs(beta[k]))
                lp = partial_likelihood_terms(ds, spec, beta + e_k)
                lm = partial_likelihood_terms(ds, spec, beta - e_k)
                fd_grad = (lp[0] - lm[0]) / (2 * e_k[k])
                assert abs(fd_grad - grad[k]) <= 1e-5 * max(1.0, abs(grad[k]))
                fd_hess_col = (lp[1] - lm[1]) / (2 * e_k[k])
                assert np.all(np.abs(fd_hess_col - hess[:, k])
                              <= 1e-5 * np.maximum(1.0, np.abs(hess[:, k])))


class TestHeavyTies:
    """The vectorized Efron rule on ~300 rows over 3 strata with whole-unit times."""

    @pytest.fixture(scope="class")
    def tied(self):
        rng = np.random.default_rng(5150)
        n = 300
        strata = rng.integers(0, 3, size=n)
        arm = rng.integers(0, 2, size=n)
        scale = 3.0 * (1 + strata) * np.where(arm == 1, 1.5, 1.0)
        times = np.ceil(rng.exponential(scale))
        events = rng.random(n) < 0.75
        X = np.column_stack([arm, np.round(rng.normal(0.0, 1.0, n), 2)])
        return times, events, X, strata

    def test_data_has_heavy_ties(self, tied):
        times, events, _, strata = tied
        keys = strata * 1000 + times
        deaths = {k: int(np.sum(events & (keys == k))) for k in np.unique(keys[events])}
        assert max(deaths.values()) >= 5
        assert any(not e and deaths.get(k, 0) > 0 for k, e in zip(keys, events))

    def test_loglik_matches_naive(self, tied):
        times, events, X, strata = tied
        rng = np.random.default_rng(7)
        for ties in ("efron", "breslow"):
            for beta in (np.zeros(2), rng.normal(0, 0.5, 2), rng.normal(0, 0.5, 2)):
                got = _engine_terms(times, events, X, strata, ties, beta)[0]
                want = naive_partial_loglik(times, events, X, beta, strata, ties)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_derivatives_match_finite_differences(self, tied):
        times, events, X, strata = tied
        beta = np.array([0.3, -0.2])
        for ties in ("efron", "breslow"):
            _, grad, hess = _engine_terms(times, events, X, strata, ties, beta)
            for k in range(2):
                e_k = np.zeros(2)
                e_k[k] = 1e-5
                lp = _engine_terms(times, events, X, strata, ties, beta + e_k)
                lm = _engine_terms(times, events, X, strata, ties, beta - e_k)
                fd_grad = (lp[0] - lm[0]) / (2 * e_k[k])
                assert abs(fd_grad - grad[k]) <= 1e-5 * max(1.0, abs(grad[k]))
                fd_hess_col = (lp[1] - lm[1]) / (2 * e_k[k])
                assert np.all(np.abs(fd_hess_col - hess[:, k])
                              <= 1e-5 * np.maximum(1.0, np.abs(hess[:, k])))

    @pytest.mark.parametrize("ties", TIE_METHODS)
    def test_treatment_only_fits_match_naive_and_differences(self, tied, ties):
        # the treatment-only likelihood, read from the arm counts
        times, events, X, strata = tied
        ds = _dataset(times, events, X[:, 0].astype(int), strata=strata)
        for spec, use_strata in ((UNSTRAT, None), (STRAT, strata)):
            spec = AnalysisSpec(spec.method, tie_method=ties)
            for b in (0.0, 0.5, -0.5, 10.0, -10.0):
                beta = np.array([b])
                ll, grad, hess = partial_likelihood_terms(ds, spec, beta)
                want = naive_partial_loglik(times, events, X[:, :1], beta, use_strata, ties)
                assert ll == pytest.approx(want, rel=1e-10, abs=1e-10)
                h = 1e-5 * max(1.0, abs(b))
                lp = partial_likelihood_terms(ds, spec, beta + h)
                lm = partial_likelihood_terms(ds, spec, beta - h)
                fd_grad = (lp[0] - lm[0]) / (2 * h)
                assert abs(fd_grad - grad[0]) <= 1e-5 * max(1.0, abs(grad[0]))
                fd_hess = (lp[1][0] - lm[1][0]) / (2 * h)
                assert abs(fd_hess - hess[0, 0]) <= 1e-5 * max(1.0, abs(hess[0, 0]))

    @pytest.mark.parametrize("ties", TIE_METHODS)
    def test_edge_rows_of_a_batch_equal_single_dataset_calls(self, tied, ties):
        # rows that stop or bend the analyses, in one batch with an ordinary
        # one, all of 41 deaths; the no-events row is a batch of its own
        times, events, X, strata = tied
        n = 75
        time, event, arm, stratum = (np.array(values).reshape(4, n) for values in
                                     (times, events, X[:, 0].astype(np.int8), strata))
        event[1] = False                  # all censored
        arm[2][stratum[2] == 0] = 1       # stratum 0 holds treated subjects only
        late = np.arange(n) % 5 == 0      # enrolled after the cutoff: zero follow-up
        time[3][late], event[3][late] = 0.0, False
        event = _first_deaths(event, 41)
        assert np.count_nonzero(event, axis=1).tolist() == [41, 0, 41, 41]
        trials = TrialBatch(stratum_index=stratum, arm=arm, enroll_time=np.zeros((4, n)),
                            latent_event_time=time, observed_time=time, event=event,
                            cutoff_calendar_time=np.full(4, np.inf))
        shared, alone = ([0, 2, 3], [1])
        shared_batch, alone_batch = (analyze_trials(_rows(trials, rows), ties)
                                     for rows in (shared, alone))
        for batch, rows in ((shared_batch, shared), (alone_batch, alone)):
            for b, i in enumerate(rows):
                ds = TrialDataset(np.arange(n), **{field: values[i] for field, values
                                                   in trials._asdict().items()})
                for stratified, z in ((False, batch.logrank_z),
                                      (True, batch.stratified_logrank_z)):
                    try:
                        assert z[b] == logrank(ds, stratified).z
                    except DegenerateTestError:
                        assert np.isnan(z[b])
                for method, fits in zip(COX_METHODS, batch.fits):
                    try:
                        one = cox_fit(ds, AnalysisSpec(method, ties))
                    except InvalidModelError as exc:
                        with pytest.raises(InvalidModelError, match=re.escape(str(exc))):
                            fits.fit(b, ())
                        continue
                    row = fits.fit(b, one.covariate_names)
                    for field in ("beta", "covariance", "treatment_se", "loglik",
                                  "final_gradient_norm", "iterations"):
                        assert np.array_equal(getattr(row, field), getattr(one, field),
                                              equal_nan=True), field
                    assert row.diagnostic == one.diagnostic
        assert np.isnan(alone_batch.logrank_z[0])
        assert np.all(shared_batch.fits[2].converged)
        # row 2's stratum 0 has no control subject, so it adds no variance
        contributing = sum(hypergeom_logrank(time[2][s], event[2][s], arm[2][s])[1] > 0
                           for s in (stratum[2] == k for k in np.unique(stratum[2])))
        ds = TrialDataset(np.arange(n),
                          **{field: values[2] for field, values in trials._asdict().items()})
        assert logrank(ds, True).strata_used == contributing == len(np.unique(stratum[2])) - 1

    @pytest.mark.parametrize("ties", TIE_METHODS)
    def test_rows_ending_every_way_equal_single_row_batches(self, monkeypatch, ties):
        # One batch whose unstratified fits end in each outcome that data and
        # the Newton constants can force, several of them in one iteration.
        # Its rows share D = 12 deaths; the no-events row is a batch of its own.
        monkeypatch.setattr(inference, "MAX_ITERATIONS", 2)
        monkeypatch.setattr(inference, "MAX_HALVINGS", 0)
        n = 20
        i = np.arange(n)
        arm = np.tile(i % 2, (6, 1))
        time = np.tile(2.0 + i, (6, 1))
        event = np.tile(i < 12, (6, 1))
        # 0, converged at beta = 0: pairs tied at each time, one death per arm
        time[0] = 1 + i // 2
        # 1, no events: every subject censored
        event[1] = False
        # 2, rank deficient: every subject treated
        arm[2], event[2] = 1, i % 5 < 3
        # 3, separation: the one treated subject dies first; a first step of
        # about 1 / (share treated) = 20 lands beyond the coefficient bound,
        # and the controls' later deaths, with no treated subject at risk,
        # do not move it
        arm[3] = i == 1
        time[3, 1] = 1.0
        # 4, halving failed: the first step (about 6) overshoots the maximum
        # (about 2.5) to a lower log-likelihood, and no halving is allowed;
        # the treated subject 1 is censored before the other controls die
        arm[4] = i < 2
        time[4, :3], event[4] = (1.0, 2.5, 2.0), (i < 13) & (i != 1)
        # 5, maximum iterations: an ordinary fit needs more than two steps
        time[5], event[5] = 1 + i + 7 * arm[5], (i % 4 != 3) & (i < 16)
        assert np.count_nonzero(event, axis=1).tolist() == [12, 0, 12, 12, 12, 12]
        trials = TrialBatch(stratum_index=np.tile((i // 2) % 12, (6, 1)),
                            arm=arm.astype(np.int8), enroll_time=np.zeros((6, n)),
                            latent_event_time=time, observed_time=time, event=event,
                            cutoff_calendar_time=np.full(6, np.inf))
        shared = [0, 2, 3, 4, 5]
        batch = analyze_trials(_rows(trials, shared), ties)
        assert batch.fits[0].status.tolist() == [
            inference._CONVERGED, inference._RANK_DEFICIENT, inference._SEPARATION,
            inference._HALVING_FAILED, inference._MAX_ITER]
        assert analyze_trials(_rows(trials, [1]), ties).fits[0].status.tolist() == [
            inference._NO_EVENTS]
        for b, row in enumerate(shared):
            one = analyze_trials(_rows(trials, [row]), ties)
            for fits, single in zip(batch.fits, one.fits):
                for field, values in fits._asdict().items():
                    assert np.array_equal(values[b:b + 1], getattr(single, field),
                                          equal_nan=True), (row, field)
        # row 4 alone: the step from beta = 0 fails and no halving is left, so
        # the fit is retired without copying the row it will not evaluate again
        calls = []
        for name in ("evaluate", "take"):
            real = getattr(inference._TreatmentLikelihood, name)
            monkeypatch.setattr(inference._TreatmentLikelihood, name,
                                lambda self, *args, name=name, real=real:
                                calls.append(name) or real(self, *args))
        row4 = inference._Trials(_rows(trials, [4]))
        fits = inference._newton(row4.likelihood(Method.COX_UNSTRATIFIED, ties))
        assert calls == ["evaluate", "evaluate"]
        for field, values in fits._asdict().items():
            assert np.array_equal(values, getattr(batch.fits[0], field)[3:4], equal_nan=True)

    def test_breslow_is_efron_with_zero_weights(self, tied):
        times, events, X, strata = tied
        efron = _likelihood(times, events, X, strata, "efron")
        breslow = _likelihood(times, events, X, strata, "breslow")
        assert breslow.j is None and efron.j.max() > 0
        zeroed = _CoxLikelihood(*_layout(times, events, X, strata), np.zeros_like(efron.j))
        beta = np.array([[0.4, 0.1]])
        for got, want in zip(zeroed.evaluate(beta), breslow.evaluate(beta)):
            assert np.array_equal(got, want)
        assert not np.array_equal(efron.evaluate(beta)[0], breslow.evaluate(beta)[0])

    def test_batch_rows_equal_single_dataset_calls(self, tied):
        # three 100-subject datasets of 65 deaths analyzed as one batch and
        # one at a time
        times, events, X, strata = tied
        event = _first_deaths(events.reshape(3, 100), 65)
        assert np.count_nonzero(event, axis=1).tolist() == [65, 65, 65]
        trials = TrialBatch(stratum_index=strata.reshape(3, 100),
                            arm=X[:, 0].astype(np.int8).reshape(3, 100),
                            enroll_time=np.zeros((3, 100)),
                            latent_event_time=times.reshape(3, 100),
                            observed_time=times.reshape(3, 100),
                            event=event,
                            cutoff_calendar_time=np.full(3, np.inf))
        batch = analyze_trials(trials, "efron")
        for i in range(3):
            ds = TrialDataset(np.arange(100),
                              **{field: values[i] for field, values in trials._asdict().items()})
            assert batch.logrank_z[i] == logrank(ds).z
            assert batch.stratified_logrank_z[i] == logrank(ds, stratified=True).z
            for method, fits in zip(COX_METHODS, batch.fits):
                try:
                    one = cox_fit(ds, AnalysisSpec(method))
                except InvalidModelError:
                    # three strata leave the multivariate design rank deficient
                    with pytest.raises(InvalidModelError):
                        fits.fit(i, ())
                    continue
                assert np.array_equal(fits.beta[i], one.beta)
                assert fits.treatment_se[i] == one.treatment_se
                assert fits.iterations[i] == one.iterations


class TestDeathCounts:
    """The rows of one layout share their number of deaths: a batch whose
    rows differ in it is refused."""

    @staticmethod
    def _batch():
        """Seven generated trials of D = 30 deaths, with hand-built rows of
        0 deaths (row 1), 1 death (row 3) and D deaths in tied blocks (row 5)."""
        design = TrialDesign.from_event_target(0.6, 30)
        trials = generate_trials(design, ScenarioSpec.multiplicative_covariates(),
                                 stream_uniforms(stream_states(77, 0, 7), design.sample_size))
        event, time = trials.event.copy(), trials.observed_time.copy()
        event[1] = False
        event[3] = False
        event[3, 5] = True
        time[5] = np.ceil(time[5] / 3.0)
        return trials._replace(event=event, observed_time=time)

    def test_mixed_counts_are_refused(self):
        trials = self._batch()
        assert np.count_nonzero(trials.event, axis=1).tolist() == [30, 0, 30, 1, 30, 30, 30]
        # rows 0 to 2 hold 60 deaths, 20 a row on average, which would
        # reshape to (3, 20) without the check
        for mixed in (trials, _rows(trials, [0, 1, 2])):
            with pytest.raises(InvalidParameterError, match="share their death count"):
                analyze_trials(mixed)

    @pytest.mark.parametrize("ties", TIE_METHODS)
    def test_rows_equal_single_row_batches(self, ties):
        trials = _rows(self._batch(), [0, 2, 4, 5, 6])
        time, event = trials.observed_time[3], trials.event[3]
        assert len(np.unique(time[event])) < 30  # the tied row
        batch = analyze_trials(trials, ties)
        for row in range(5):
            one = analyze_trials(_rows(trials, [row]), ties)
            for z in ("logrank_z", "stratified_logrank_z"):
                assert np.array_equal(getattr(batch, z)[row:row + 1], getattr(one, z),
                                      equal_nan=True), (row, z)
            for fits, single in zip(batch.fits, one.fits):
                for field, values in fits._asdict().items():
                    assert np.array_equal(values[row:row + 1], getattr(single, field),
                                          equal_nan=True), (row, field)


class TestPerCellSums:
    """The likelihood of the 24-cell design, from per-cell weights, paired
    risk-set sums and per-death arrays, on pooled and stratified layouts."""

    @staticmethod
    def _batch(rows, tied):
        design = TrialDesign.from_event_target(0.6, 30)
        trials = generate_trials(design, ScenarioSpec.multiplicative_covariates(),
                                 stream_uniforms(stream_states(41, 0, rows),
                                                 design.sample_size))
        if tied:  # month-rounded times, so that Efron weights are in play
            trials = trials._replace(observed_time=np.ceil(trials.observed_time))
        return trials

    @staticmethod
    def _sorted(trials, stratified):
        """(time, event, stratum, cell) of each row in layout order."""
        strata = trials.stratum_index if stratified else np.zeros_like(trials.stratum_index)
        order = np.lexsort((trials.observed_time, strata))
        cells = 2 * trials.stratum_index.astype(np.int8) + trials.arm.astype(np.int8)
        return tuple(np.take_along_axis(a, order, axis=1)
                     for a in (trials.observed_time, trials.event, strata, cells))

    @classmethod
    def _likelihood(cls, trials, p, stratified, ties):
        """The engine's likelihood of the first p covariates of the cell design."""
        time, event, strata, cells = cls._sorted(trials, stratified)
        risk = _RiskSets.of(time, event, (cells & 1).astype(float),
                            strata if stratified else None)
        j = risk.counts.j if ties == "efron" else None
        return _CoxLikelihood(risk, cells, inference._CELL_DESIGN[:p], j)

    @classmethod
    def _direct(cls, trials, p, stratified, ties, beta):
        """ll, gradient, Hessian and each row's size of the death terms, with
        each death's risk set summed over its subjects."""
        time, event, strata, cells = cls._sorted(trials, stratified)
        X = inference._CELL_DESIGN[:p, cells].transpose(1, 2, 0)  # (B, N, p)
        eta = np.einsum("bnp,bp->bn", X, beta)
        # [k, i]: subject i is at risk at k's time, and is a death tied with k
        same = strata[:, :, None] == strata[:, None, :]
        at_risk = same & (time[:, None, :] >= time[:, :, None])
        tied = same & (time[:, None, :] == time[:, :, None]) & event[:, None, :]
        # a death's rank among its block's deaths, in subject order
        earlier = np.arange(time.shape[1])[None, :] < np.arange(time.shape[1])[:, None]
        j = np.zeros(time.shape)
        if ties == "efron":
            j = (tied & earlier).sum(axis=2) / np.maximum(tied.sum(axis=2), 1)
        weight = np.exp(eta)[:, None, :] * (at_risk - j[:, :, None] * tied)
        s0 = weight.sum(axis=2)
        s1 = np.einsum("bki,bip->bkp", weight, X)
        s2 = np.einsum("bki,bip,biq->bkpq", weight, X, X)
        r = s1 / s0[..., None]
        e = event.astype(float)
        ll = (e * (eta - np.log(s0))).sum(axis=1)
        grad = np.einsum("bk,bkp->bp", e, X - r)
        terms = s2 / s0[..., None, None] - r[..., :, None] * r[..., None, :]
        hess = -np.einsum("bk,bkpq->bpq", e, terms)
        scale = np.einsum("bk,bkp,bkq->bpq", e, np.abs(X), np.abs(X)).max(axis=(1, 2))
        return ll, grad, hess, scale

    @pytest.mark.parametrize("ties", TIE_METHODS)
    @pytest.mark.parametrize("rows", [1, 7, 300])
    def test_rows_equal_single_row_calls_and_subject_sums(self, rows, ties):
        # p = 1, 2 and 5 pad the last pair or not, on both layouts, with
        # untied and month-tied times
        for p, stratified, tied in itertools.product((1, 2, 5), (False, True), (False, True)):
            self._check(rows, p, stratified, tied, ties)

    def _check(self, rows, p, stratified, tied, ties):
        trials = self._batch(rows, tied)
        beta = np.random.default_rng(rows + p).normal(0.0, 0.3, (rows, p))
        lik = self._likelihood(trials, p, stratified, ties)
        if ties == "breslow" or not tied:
            assert lik.j is None
        elif rows > 1 or not stratified:
            assert lik.j is not None and lik.j.max() > 0
        got = lik.evaluate(beta)
        for row in range(rows):
            one = self._likelihood(TrialBatch(*(a[row:row + 1] for a in trials)),
                                   p, stratified, ties)
            for values, single in zip(got, one.evaluate(beta[row:row + 1])):
                assert np.array_equal(values[row:row + 1], single), row
        # take keeps the same rows whether given a mask or their indices
        kept = np.arange(rows) % 3 != 1
        for taken in (lik.take(kept), lik.take(np.flatnonzero(kept))):
            for values, want in zip(taken.evaluate(beta[kept]), got):
                assert np.array_equal(values, want[kept])
        ll, grad, hess, scale = self._direct(trials, p, stratified, ties, beta)
        assert np.all(np.abs(got[0] - ll) <= 1e-12 * np.abs(ll))
        # an entry is a difference of sums of terms up to the size of the
        # deaths' x and x x': it is held to 1e-12 of the larger of the two
        for values, want in zip(got[1:], (grad, hess)):
            err = np.abs(values - want).reshape(rows, -1)
            assert np.all(err <= 1e-12 * np.maximum(np.abs(want).reshape(rows, -1),
                                                    scale[:, None]))


class TestPairedSums:
    """A complex128 cumsum adds each part of its pairs as a float64 cumsum of
    that part would, bit for bit, which the paired risk-set sums rely on."""

    @staticmethod
    def _parts():
        rng = np.random.default_rng(2024)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                            2.2250738585072014e-308, 1e308, 1.7e308, -1.7e308, 1.0])
        values = np.concatenate((special, rng.choice(special, 500),
                                 rng.normal(0.0, 1.0, 500) * 10.0 ** rng.integers(-310, 308, 500),
                                 np.full(40, 1e308), np.full(40, -0.0)))
        return np.stack([rng.permutation(values) for _ in range(6)])

    @pytest.mark.parametrize("reversed_view", [False, True], ids=["forward", "reversed"])
    def test_complex_cumsum_is_two_float_cumsums(self, reversed_view):
        parts = self._parts()  # rows 2m and 2m + 1 pair up
        pairs = np.ascontiguousarray(parts.T).view(complex).T  # (3, n)
        if reversed_view:
            parts, pairs = parts[..., ::-1], pairs[..., ::-1]
        with np.errstate(over="ignore", invalid="ignore"):
            got = np.cumsum(pairs, axis=-1)
            want = np.cumsum(parts, axis=-1)
        for part, float_sums in ((got.real, want[0::2]), (got.imag, want[1::2])):
            assert np.array_equal(part.view(np.uint64), float_sums.view(np.uint64))


class TestFitDiagnostics:
    def test_covariance_is_inverse_information(self):
        ds = _trial(30)
        fit = cox_fit(ds, MULT)
        _, _, hess = partial_likelihood_terms(ds, MULT, fit.beta)
        assert np.allclose(fit.covariance @ (-hess), np.eye(5), atol=1e-8)

    def test_converged_gradient_small(self):
        ds = _trial(31)
        for spec in (UNSTRAT, MULT, STRAT):
            fit = cox_fit(ds, spec)
            assert fit.converged
            assert fit.final_gradient_norm < 1e-6
            assert fit.iterations >= 1


class _FakeLikelihood:
    """What ``_newton`` reads of a likelihood, for B rows of p parameters:
    ``deaths``, ``p``, ``evaluate`` and ``take``. Subclasses give ``evaluate``
    from per-row parameter arrays, which ``take`` subsets."""

    def __init__(self, **params):
        self.params = params
        first = next(iter(params.values()))
        self.p = first.shape[1]
        self.deaths = np.ones(len(first))

    def take(self, rows):
        return type(self)(**{name: values[rows] for name, values in self.params.items()})


class _Quadratic(_FakeLikelihood):
    """ll = g.b - b'Hb/2 per row, with information H0 at b = 0 and H1 elsewhere."""

    def evaluate(self, beta):
        g, H0, H1 = self.params["g"], self.params["H0"], self.params["H1"]
        H = np.where((beta == 0).all(axis=1)[:, None, None], H0, H1)
        Hb = np.matmul(H, beta[..., None])[..., 0]
        return (g * beta).sum(axis=1) - 0.5 * (beta * Hb).sum(axis=1), g - Hb, -H


class _Hyperbola(_FakeLikelihood):
    """ll = -sqrt(1 + (b - c)^2) per row: from b a Newton step lands at
    c - (b - c)^3, so it overshoots the maximum c whenever |b - c| > 1."""

    def evaluate(self, beta):
        x = beta - self.params["c"]
        s = np.sqrt(1.0 + x * x)
        return -s[:, 0], -x / s, -(1.0 / (s * s * s))[..., None]


def _fits_equal(batch, row, single):
    for field, values in batch._asdict().items():
        assert np.array_equal(values[row:row + 1], getattr(single, field),
                              equal_nan=True), (row, field)


class TestNewtonOutcomes:
    """Fit outcomes of ``_newton`` on fake likelihoods, batched and alone."""

    # LU meets an exact zero pivot (0.2 - 1/5 * 1), Cholesky does not
    SINGULAR = np.array([[5.0, 1.0], [1.0, 0.2]])

    def _quadratic_rows(self):
        ordinary = np.array([[2.0, 0.5], [0.5, 1.0]])
        return _Quadratic(g=np.array([[1.0, 2.0], [1.0, 0.0], [1.0, 0.0]]),
                          H0=np.stack((ordinary, self.SINGULAR, 10.0 * np.eye(2))),
                          H1=np.stack((ordinary, self.SINGULAR, self.SINGULAR)))

    def test_singular_information_outcomes(self):
        lik = self._quadratic_rows()
        fits = inference._newton(lik)
        assert fits.status.tolist() == [
            inference._CONVERGED, inference._SINGULAR_AT_ZERO, inference._SINGULAR]
        assert fits.iterations.tolist() == [1, 0, 1]
        with pytest.raises(InvalidModelError, match="information matrix is singular at beta = 0"):
            fits.fit(1, ("a", "b"))
        # the step from 0 (H0 = 10 I) is accepted, then H1 cannot be solved
        became = fits.fit(2, ("a", "b"))
        assert not became.converged
        assert became.diagnostic == "information matrix became singular"
        assert became.beta.tolist() == [0.1, 0.0]
        for row in range(3):
            _fits_equal(fits, row, inference._newton(lik.take([row])))

    @staticmethod
    def _reference(c):
        """Status, iterations, beta and first-step halvings of the fit of
        ll = -sqrt(1 + (b - c)^2), one scalar Newton step at a time."""
        def evaluate(b):
            x = b - c
            s = math.sqrt(1.0 + x * x)
            return -s, -x / s, 1.0 / (s * s * s)

        b, iterations, halvings = 0.0, 0, []
        ll, grad, info = evaluate(b)
        while True:
            if abs(grad) < inference.GRADIENT_TOL:
                return inference._CONVERGED, iterations, b, halvings
            if iterations >= inference.MAX_ITERATIONS:
                return inference._MAX_ITER, iterations, b, halvings
            step = grad / info
            for h in range(inference.MAX_HALVINGS + 1):
                candidate = b + 0.5 ** h * step
                cll, cgrad, cinfo = evaluate(candidate)
                if cll >= ll - 1e-10 * (abs(ll) + 1.0):
                    break
            else:
                return inference._HALVING_FAILED, iterations, b, halvings
            halvings.append(h)
            prev = ll
            b, ll, grad, info = candidate, cll, cgrad, cinfo
            iterations += 1
            if abs(b) > inference.COEFFICIENT_BOUND:
                return inference._SEPARATION, iterations, b, halvings
            if abs(ll - prev) <= inference.LOGLIK_REL_TOL * max(1.0, abs(prev)):
                return inference._CONVERGED, iterations, b, halvings

    @pytest.mark.parametrize("max_halvings", [20, 4])
    def test_rows_halving_different_times_share_passes(self, monkeypatch, max_halvings):
        # from 0 the first steps of 0.625, 10, 30, 68 and 520 need 0, 2, 3,
        # 4 and 6 halvings; with at most 4 the last row fails
        monkeypatch.setattr(inference, "MAX_HALVINGS", max_halvings)
        c = np.array([[0.5], [2.0], [3.0], [4.0], [8.0]])
        lik = _Hyperbola(c=c)
        fits = inference._newton(lik)
        references = [self._reference(float(ci)) for ci in c[:, 0]]
        assert [r[3][:1] for r in references] == (
            [[0], [2], [3], [4], [6]] if max_halvings == 20 else [[0], [2], [3], [4], []])
        for row, (status, iterations, beta, _) in enumerate(references):
            assert fits.status[row] == status
            assert fits.iterations[row] == iterations
            # a 1 x 1 Newton step is the reference's division
            assert fits.beta[row, 0] == beta
            _fits_equal(fits, row, inference._newton(lik.take([row])))
        assert fits.status[-1] == (inference._CONVERGED if max_halvings == 20
                                   else inference._HALVING_FAILED)


class TestOneByOneSystems:
    """``_stacked`` solves 1 x 1 systems by division, with LAPACK's bits and
    failures: on random pairs over the whole float range, and on every pair
    of special values."""

    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310,
                        -1e-310, 2.2250738585072014e-308, 1e308, -1e308,
                        1.7976931348623157e308, 1.0, -2.5, 3.0])

    @staticmethod
    def _lapack(solver, *matrices):
        """``solver`` on the stack, or one matrix at a time if that raises."""
        try:
            return solver(*matrices), np.ones(len(matrices[0]), dtype=bool)
        except np.linalg.LinAlgError:
            pass
        out, ok = np.full_like(matrices[-1], np.nan), np.zeros(len(matrices[0]), dtype=bool)
        for i in range(len(out)):
            try:
                out[i] = solver(*(m[i] for m in matrices))
                ok[i] = True
            except np.linalg.LinAlgError:
                pass
        return out, ok

    @staticmethod
    def _random(rng, size):
        """Signed values with exponents from -320 (subnormal) to 308."""
        magnitude = rng.random(size) * 10.0 ** rng.uniform(-320, 308, size)
        return rng.choice([-1.0, 1.0], size) * magnitude

    def _pairs(self):
        rng = np.random.default_rng(11)
        a, b = self._random(rng, 200_000), self._random(rng, 200_000)
        special_a, special_b = np.meshgrid(self.SPECIAL, self.SPECIAL)
        yield "random", a, b
        yield "special", special_a.ravel(), special_b.ravel()

    @pytest.mark.parametrize("solver", [np.linalg.cholesky, np.linalg.solve, np.linalg.inv],
                             ids=lambda f: f.__name__)
    def test_division_has_lapack_bits(self, solver):
        for name, a, b in self._pairs():
            if name == "random" and solver is np.linalg.cholesky:
                a = np.abs(a)  # one stacked call: a negative matrix makes it raise
            matrices = (a[:, None, None], b[:, None, None])[:2 if solver is np.linalg.solve else 1]
            got, got_ok = inference._stacked(solver, *matrices)
            with np.errstate(all="ignore"):
                want, want_ok = self._lapack(solver, *matrices)
            assert np.array_equal(got_ok, want_ok), name
            assert got.shape == want.shape and got.dtype == want.dtype
            same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
            assert same.all(), (name, a[~same.ravel()][:5], b[~same.ravel()][:5])
