"""Tests for the log-rank tests, including oracle and score-test identities."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import norm

from stratsurv.datagen import RngStream, TrialDataset, generate_trial
from stratsurv.errors import DegenerateTestError
from stratsurv.inference import AnalysisSpec, Method, logrank, partial_likelihood_terms
from stratsurv.trial import ScenarioSpec, TrialDesign

from _exact import logrank_exact, logrank_z_exact
from _oracles import hypergeom_logrank, random_survival_data

EPS = Fraction(np.finfo(float).eps)


def _dataset(times, events, arm, strata=None):
    n = len(times)
    return TrialDataset(
        subject_id=np.arange(n),
        stratum_index=np.zeros(n, int) if strata is None else strata,
        arm=arm,
        enroll_time=np.zeros(n),
        observed_time=times,
        event=events,
    )


def _random_trial(seed, stratified_strata=True, n_events=40):
    design = TrialDesign.from_event_target(0.6, n_events)
    scenario = ScenarioSpec.multiplicative_covariates()
    return generate_trial(design, scenario, RngStream(seed, 0))


def _contributing_strata(times, events, arm, strata):
    """Strata whose own hypergeometric variance is positive."""
    times, events, arm = (np.asarray(a) for a in (times, events, arm))
    return sum(hypergeom_logrank(times[strata == s], events[strata == s], arm[strata == s])[1] > 0
               for s in np.unique(strata))


class TestHandExamples:
    def test_two_subject_example(self):
        # treatment event at t=1, control event at t=2
        ds = _dataset([1.0, 2.0], [True, True], [1, 0])
        res = logrank(ds)
        assert res.observed_minus_expected == 0.5
        assert res.variance == 0.25
        assert res.z == 1.0
        assert res.p_one_sided == pytest.approx(norm.cdf(1.0), rel=1e-12)

    def test_label_swap_antisymmetric(self):
        ds = _dataset([1.0, 2.0], [True, True], [1, 0])
        swapped = _dataset([1.0, 2.0], [True, True], [0, 1])
        assert logrank(swapped).z == -logrank(ds).z

    def test_label_swap_on_random_data(self):
        for seed in range(4):
            ds = _random_trial(seed)
            swapped = TrialDataset(
                subject_id=ds.subject_id, stratum_index=ds.stratum_index,
                arm=1 - ds.arm, enroll_time=ds.enroll_time,
                observed_time=ds.observed_time, event=ds.event,
            )
            for stratified in (False, True):
                a = logrank(ds, stratified)
                b = logrank(swapped, stratified)
                assert b.z == pytest.approx(-a.z, abs=1e-12)


class TestStratification:
    def test_single_stratum_equals_unstratified(self):
        ds = _random_trial(10)
        pooled = TrialDataset(
            subject_id=ds.subject_id, stratum_index=np.zeros(ds.n_subjects, int),
            arm=ds.arm, enroll_time=ds.enroll_time,
            observed_time=ds.observed_time, event=ds.event,
        )
        a = logrank(pooled, stratified=True)
        b = logrank(pooled, stratified=False)
        assert a.observed_minus_expected == b.observed_minus_expected
        assert a.variance == b.variance
        assert a.strata_used == b.strata_used == 1

    def test_single_arm_strata_degenerate(self):
        # every stratum holds one arm only: no within-stratum contrast
        ds = _dataset([1.0, 2.0, 3.0, 4.0], [True] * 4, [1, 1, 0, 0],
                      strata=np.array([0, 0, 1, 1]))
        with pytest.raises(DegenerateTestError) as err:
            logrank(ds, stratified=True)
        assert err.value.observed_minus_expected == 0.0

    def test_no_events_degenerate(self):
        ds = _dataset([1.0, 2.0], [False, False], [1, 0])
        with pytest.raises(DegenerateTestError):
            logrank(ds)

    def test_strata_used_counts_contributing_strata(self):
        ds = _random_trial(3)
        res = logrank(ds, stratified=True)
        assert res.strata_used == _contributing_strata(
            ds.observed_time, ds.event, ds.arm, ds.stratum_index)


class TestOracleAgreement:
    def test_matches_hypergeometric_accumulator(self):
        rng = np.random.default_rng(2718)
        checked = 0
        while checked < 40:
            times, events, X, strata = random_survival_data(
                rng, max_n=12, covariates=1, n_strata=3)
            arm = (rng.random(len(times)) < 0.5).astype(int)
            if arm.sum() in (0, len(arm)):
                continue
            ds = _dataset(times, events, arm, strata=strata)
            for stratified in (False, True):
                oe, var = hypergeom_logrank(times, events, arm,
                                            strata if stratified else None)
                if var <= 0:
                    with pytest.raises(DegenerateTestError):
                        logrank(ds, stratified)
                    continue
                res = logrank(ds, stratified)
                assert res.observed_minus_expected == pytest.approx(oe, abs=1e-12)
                assert res.variance == pytest.approx(var, abs=1e-12)
                if stratified:
                    assert res.strata_used == _contributing_strata(times, events, arm, strata)
                else:
                    assert res.strata_used == 1
            checked += 1

    def test_strata_used_skips_single_arm_and_deathless_strata(self):
        # stratum 0 holds a contrast with deaths, stratum 1 one arm only,
        # stratum 2 both arms but no deaths, stratum 3 a contrast with deaths
        times = [1.0, 2.0, 3.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 3.0]
        events = [True, True, False, True, True, False, False, True, False, True]
        arm = [1, 0, 1, 1, 1, 0, 1, 0, 1, 1]
        strata = np.array([0, 0, 0, 1, 1, 2, 2, 3, 3, 3])
        res = logrank(_dataset(times, events, arm, strata=strata), stratified=True)
        assert res.strata_used == _contributing_strata(times, events, arm, strata) == 2
        _, var = hypergeom_logrank(times, events, arm, strata)
        assert res.variance == pytest.approx(var, abs=1e-12)


class TestScoreTestIdentity:
    def test_squared_z_equals_cox_score_statistic(self):
        # On tie-free data the unstratified log-rank chi-square equals the
        # score statistic of the treatment-only Cox model at beta = 0.
        for seed in range(5):
            ds = _random_trial(seed, n_events=30)
            res = logrank(ds)
            spec = AnalysisSpec(Method.COX_UNSTRATIFIED)
            _, grad, hess = partial_likelihood_terms(ds, spec, np.zeros(1))
            score_stat = float(grad[0] ** 2 / -hess[0, 0])
            assert res.z ** 2 == pytest.approx(score_stat, abs=1e-8)


class TestExactReference:
    """The engine's O - E, V and z against exact arithmetic (``_exact``), on
    month-tied trials of D = 66 deaths among N = 95 subjects.

    The bounds are D eps on O - E and 4 eps relative on V, stated rather than
    fitted: over these 90 trials the errors were at most 0.22 D eps and
    1.21 eps. z = (O - E) / sqrt(V) then errs by at most D eps / sqrt(V) +
    3 eps |z| to first order: half V's relative error, and eps/2 for each of
    the square root and the division. That is no count of z's ulps: the
    O - E error does not shrink with z, so a z of -0.077 here is 21.7 ulps off.
    """

    @pytest.mark.parametrize("scenario", [ScenarioSpec.no_prognostic(),
                                          ScenarioSpec.multiplicative_covariates(),
                                          ScenarioSpec.stratum_baselines()],
                             ids=["scenario1", "scenario2", "scenario3"])
    def test_within_the_rounding_bound(self, scenario):
        design = TrialDesign.from_event_target(0.75, 66)
        for replicate in range(30):
            ds = generate_trial(design, scenario, RngStream(20260810, replicate))
            ds = _dataset(np.ceil(ds.observed_time), ds.event, ds.arm, ds.stratum_index)
            deaths = ds.events_observed
            assert deaths == 66
            for stratified in (False, True):
                res = logrank(ds, stratified)
                oe, variance = logrank_exact(ds.observed_time, ds.event, ds.arm,
                                             ds.stratum_index if stratified else None)
                z = logrank_z_exact(oe, variance)
                assert abs(Fraction(res.observed_minus_expected) - oe) <= deaths * EPS
                assert abs(Fraction(res.variance) - variance) <= 4 * EPS * variance
                bound = float(deaths * EPS) / math.sqrt(variance) + 3 * float(EPS) * abs(float(z))
                assert abs(Decimal(res.z) - z) <= bound, (replicate, stratified)
