"""Metamorphic tests of the analysis engine: relations that need no oracle.

Each relation maps a dataset to another whose analyses are known from the
first (Therneau & Grambsch, *Modeling Survival Data*, 2000, ch. 3):

- t -> 2t keeps the order and the ties of the times, and every analysis
  reads times only through them, so nothing changes, bit for bit;
- swapping the arms negates the treatment coefficient and both log-rank z;
- under Breslow ties, two copies of every subject double each risk set and
  each tied block, so the log partial likelihood becomes 2 l(beta) - 2 d log 2
  with d deaths: beta-hat is unchanged and the SE is divided by sqrt(2);
- relabelling the 12 strata by a permutation leaves the stratified log-rank
  test and the stratified Cox fit unchanged up to rounding, since only the
  order in which strata are summed moves;
- permuting the subjects of each trial leaves every analysis unchanged up to
  rounding, since the analyses read the subjects only through their sorted
  order, and only the order of subjects within a tied block moves.

Each relation is checked through the one-dataset calls ``cox_fit`` and
``logrank``, and through one ``analyze_trials`` batch that holds the original
trials and their images side by side; the duplicated trials, twice as large,
share their batch with other trials of their size instead (their arm-swapped
duplicates).
"""

import numpy as np
import pytest

from stratsurv.datagen import RngStream, TrialBatch, TrialDataset, generate_trials
from stratsurv.inference import (
    COX_METHODS,
    TIE_METHODS,
    AnalysisSpec,
    Method,
    analyze_trials,
    cox_fit,
    logrank,
)
from stratsurv.trial import ScenarioSpec, TrialDesign

TRIALS = 4
TOL = 1e-10  # for relations that hold only up to rounding and Newton's tolerance


def _batch(tied: bool) -> TrialBatch:
    """Four 200-subject trials; ``tied`` rounds times up to whole months."""
    design = TrialDesign.from_event_target(0.7, 140)
    batch = generate_trials(design, ScenarioSpec.multiplicative_covariates(),
                            (RngStream(17, i).generator() for i in range(TRIALS)))
    if tied:
        batch = batch._replace(observed_time=np.ceil(batch.observed_time))
    return batch


def _double_times(batch: TrialBatch) -> TrialBatch:
    return batch._replace(observed_time=2.0 * batch.observed_time)


def _swap_arms(batch: TrialBatch) -> TrialBatch:
    return batch._replace(arm=(1 - batch.arm).astype(batch.arm.dtype))


def _duplicate(batch: TrialBatch) -> TrialBatch:
    """Each trial with two copies of every subject."""
    return batch._replace(**{name: np.concatenate((values, values), axis=1)
                             for name, values in batch._asdict().items()
                             if name != "cutoff_calendar_time"})


STRATUM_LABELS = np.random.default_rng(8).permutation(12)


def _relabel_strata(batch: TrialBatch) -> TrialBatch:
    return batch._replace(stratum_index=STRATUM_LABELS[batch.stratum_index])


def _permute_rows(batch: TrialBatch) -> TrialBatch:
    """Each trial's subjects in an order of their own."""
    order = np.argsort(np.random.default_rng(9).random(batch.arm.shape), axis=1)
    return batch._replace(**{name: np.take_along_axis(values, order, axis=1)
                             for name, values in batch._asdict().items()
                             if name != "cutoff_calendar_time"})


def _stacked(*batches: TrialBatch) -> TrialBatch:
    return TrialBatch(*(np.concatenate(fields) for fields in zip(*batches)))


def _dataset(batch: TrialBatch, row: int) -> TrialDataset:
    n = batch.arm.shape[1]
    return TrialDataset(np.arange(n), **{name: values[row]
                                         for name, values in batch._asdict().items()})


@pytest.fixture(params=[False, True], ids=["continuous", "tied"])
def batch(request):
    return _batch(request.param)


class TestDoublingTime:
    @pytest.mark.parametrize("ties", TIE_METHODS)
    def test_one_dataset_calls_unchanged(self, batch, ties):
        image = _double_times(batch)
        for row in range(TRIALS):
            ds, ds2 = _dataset(batch, row), _dataset(image, row)
            for stratified in (False, True):
                assert logrank(ds, stratified) == logrank(ds2, stratified)
            for method in COX_METHODS:
                fit = cox_fit(ds, AnalysisSpec(method, ties))
                fit2 = cox_fit(ds2, AnalysisSpec(method, ties))
                assert np.array_equal(fit.beta, fit2.beta)
                assert np.array_equal(fit.covariance, fit2.covariance)
                assert (fit.loglik, fit.iterations, fit.converged) == \
                    (fit2.loglik, fit2.iterations, fit2.converged)

    @pytest.mark.parametrize("ties", TIE_METHODS)
    def test_mixed_batch_unchanged(self, batch, ties):
        out = analyze_trials(_stacked(batch, _double_times(batch)), ties)
        first, second = slice(0, TRIALS), slice(TRIALS, 2 * TRIALS)
        for z in (out.logrank_z, out.stratified_logrank_z):
            assert np.array_equal(z[first], z[second])
        for fits in out.fits:
            for field in fits:
                assert np.array_equal(field[first], field[second], equal_nan=True)


class TestSwappingArms:
    @pytest.mark.parametrize("ties", TIE_METHODS)
    def test_one_dataset_calls_negate_treatment(self, batch, ties):
        image = _swap_arms(batch)
        for row in range(TRIALS):
            ds, ds2 = _dataset(batch, row), _dataset(image, row)
            for stratified in (False, True):
                z, z2 = logrank(ds, stratified).z, logrank(ds2, stratified).z
                assert abs(z + z2) <= TOL
            for method in COX_METHODS:
                fit = cox_fit(ds, AnalysisSpec(method, ties))
                fit2 = cox_fit(ds2, AnalysisSpec(method, ties))
                assert fit.converged and fit2.converged
                assert abs(fit.treatment_log_hr + fit2.treatment_log_hr) <= TOL
                assert abs(fit.treatment_se - fit2.treatment_se) <= TOL

    @pytest.mark.parametrize("ties", TIE_METHODS)
    def test_mixed_batch_negates_treatment(self, batch, ties):
        out = analyze_trials(_stacked(batch, _swap_arms(batch)), ties)
        first, second = slice(0, TRIALS), slice(TRIALS, 2 * TRIALS)
        for z in (out.logrank_z, out.stratified_logrank_z):
            assert np.all(np.abs(z[first] + z[second]) <= TOL)
        for fits in out.fits:
            assert np.all(fits.converged)
            treatment = fits.beta[:, 0]
            assert np.all(np.abs(treatment[first] + treatment[second]) <= TOL)
            assert np.all(np.abs(fits.treatment_se[first] - fits.treatment_se[second]) <= TOL)
            # The multivariate fit's prognostic coefficients do not move.
            assert np.all(np.abs(fits.beta[first, 1:] - fits.beta[second, 1:]) <= TOL)


class TestBreslowDuplication:
    def test_one_dataset_calls_double_the_likelihood(self, batch):
        image = _duplicate(batch)
        for row in range(TRIALS):
            ds, ds2 = _dataset(batch, row), _dataset(image, row)
            for method in COX_METHODS:
                fit = cox_fit(ds, AnalysisSpec(method, "breslow"))
                fit2 = cox_fit(ds2, AnalysisSpec(method, "breslow"))
                assert fit.converged and fit2.converged
                assert np.all(np.abs(fit.beta - fit2.beta) <= TOL)
                doubled = 2.0 * fit.loglik - 2.0 * ds.events_observed * np.log(2.0)
                assert fit2.loglik == pytest.approx(doubled, rel=TOL)
                assert fit2.treatment_se * np.sqrt(2.0) == pytest.approx(fit.treatment_se,
                                                                          rel=TOL)

    def test_mixed_batch_doubles_the_likelihood(self, batch):
        single = analyze_trials(batch, "breslow")
        mixed = analyze_trials(_stacked(_duplicate(batch), _duplicate(_swap_arms(batch))),
                               "breslow")
        deaths = batch.event.sum(axis=1)
        image = slice(0, TRIALS)
        for fits, fits2 in zip(single.fits, mixed.fits):
            assert np.all(fits.converged) and np.all(fits2.converged[image])
            assert np.array_equal(fits.iterations, fits2.iterations[image])
            assert np.all(np.abs(fits.beta - fits2.beta[image]) <= TOL)
            doubled = 2.0 * fits.loglik - 2.0 * deaths * np.log(2.0)
            assert np.allclose(fits2.loglik[image], doubled, rtol=TOL, atol=0)
            assert np.allclose(fits2.treatment_se[image] * np.sqrt(2.0), fits.treatment_se,
                               rtol=TOL, atol=0)


class TestRelabellingStrata:
    @pytest.mark.parametrize("ties", TIE_METHODS)
    def test_one_dataset_calls_unchanged(self, batch, ties):
        image = _relabel_strata(batch)
        for row in range(TRIALS):
            ds, ds2 = _dataset(batch, row), _dataset(image, row)
            assert abs(logrank(ds, True).z - logrank(ds2, True).z) <= TOL
            fit = cox_fit(ds, AnalysisSpec(Method.COX_STRATIFIED, ties))
            fit2 = cox_fit(ds2, AnalysisSpec(Method.COX_STRATIFIED, ties))
            assert fit.converged and fit2.converged
            assert abs(fit.treatment_log_hr - fit2.treatment_log_hr) <= TOL
            assert abs(fit.treatment_se - fit2.treatment_se) <= TOL

    @pytest.mark.parametrize("ties", TIE_METHODS)
    def test_mixed_batch_unchanged(self, batch, ties):
        out = analyze_trials(_stacked(batch, _relabel_strata(batch)), ties)
        first, second = slice(0, TRIALS), slice(TRIALS, 2 * TRIALS)
        z = out.stratified_logrank_z
        assert np.all(np.abs(z[first] - z[second]) <= TOL)
        fits = out.fits[COX_METHODS.index(Method.COX_STRATIFIED)]
        assert np.all(fits.converged)
        assert np.all(np.abs(fits.beta[first] - fits.beta[second]) <= TOL)
        assert np.all(np.abs(fits.treatment_se[first] - fits.treatment_se[second]) <= TOL)


class TestPermutingRows:
    @pytest.mark.parametrize("ties", TIE_METHODS)
    def test_one_dataset_calls_unchanged(self, batch, ties):
        image = _permute_rows(batch)
        assert not np.array_equal(image.observed_time, batch.observed_time)
        for row in range(TRIALS):
            ds, ds2 = _dataset(batch, row), _dataset(image, row)
            for stratified in (False, True):
                assert abs(logrank(ds, stratified).z - logrank(ds2, stratified).z) <= TOL
            for method in COX_METHODS:
                fit = cox_fit(ds, AnalysisSpec(method, ties))
                fit2 = cox_fit(ds2, AnalysisSpec(method, ties))
                assert fit.converged and fit2.converged
                assert np.all(np.abs(fit.beta - fit2.beta) <= TOL)
                assert np.all(np.abs(fit.covariance - fit2.covariance) <= TOL)
                assert fit2.loglik == pytest.approx(fit.loglik, rel=TOL)

    @pytest.mark.parametrize("ties", TIE_METHODS)
    def test_mixed_batch_unchanged(self, batch, ties):
        out = analyze_trials(_stacked(batch, _permute_rows(batch)), ties)
        first, second = slice(0, TRIALS), slice(TRIALS, 2 * TRIALS)
        for z in (out.logrank_z, out.stratified_logrank_z):
            assert np.all(np.abs(z[first] - z[second]) <= TOL)
        for fits in out.fits:
            assert np.all(fits.converged)
            assert np.all(np.abs(fits.beta[first] - fits.beta[second]) <= TOL)
            assert np.all(np.abs(fits.treatment_se[first] - fits.treatment_se[second]) <= TOL)
            assert np.allclose(fits.loglik[second], fits.loglik[first], rtol=TOL, atol=0)
