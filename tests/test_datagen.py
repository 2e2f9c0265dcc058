"""Tests for dataset generation: strata draws, event times, cutoff censoring."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from stratsurv.datagen import RngStream, TrialDataset, apply_cutoff, generate_trial
from stratsurv.errors import InvalidParameterError
from stratsurv.trial import ScenarioSpec, TrialDesign, control_rate_table


class _FixedUniform:
    """Stand-in generator whose every uniform draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)

    def uniform(self, low, high, size):
        return np.full(size, low + self.value * (high - low))


def _strata(weights, n, seed):
    """Stratum indices of ``n`` subjects drawn by generate_trial."""
    design = TrialDesign(true_hr=0.5, target_events=1, sample_size=n,
                         allocation_weights=weights)
    return generate_trial(design, ScenarioSpec.no_prognostic(),
                          RngStream(seed, 0)).stratum_index


def _latent(true_hr, n, seed):
    """Latent event times and arms of ``n`` subjects, one 16-month stratum."""
    design = TrialDesign(true_hr=true_hr, target_events=1, sample_size=n)
    ds = generate_trial(design, ScenarioSpec.no_prognostic(16.0), RngStream(seed, 0))
    return ds.latent_event_time, ds.arm


class TestRngStream:
    def test_same_stream_same_draws(self):
        a = RngStream(123, 7).generator().random(10)
        b = RngStream(123, 7).generator().random(10)
        assert np.array_equal(a, b)

    def test_distinct_replicates_distinct_draws(self):
        a = RngStream(123, 0).generator().random(10)
        b = RngStream(123, 1).generator().random(10)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParameterError):
            RngStream(-1, 0)


class TestAssignStratum:
    """Stratum assignment as generate_trial draws it."""

    def test_degenerate_weights(self):
        weights = (1.0,) + (0.0,) * 11
        assert np.all(_strata(weights, 25, 0) == 0)

    def test_zero_weight_stratum_never_drawn(self):
        weights = [1.0] * 12
        weights[4] = 0.0
        draws = set(_strata(weights, 3000, 1).tolist())
        assert 4 not in draws
        assert len(draws) == 11

    def test_balanced_frequencies(self):
        n = 60_000
        counts = np.bincount(_strata((1.0,) * 12, n, 2), minlength=12)
        se = math.sqrt((1 / 12) * (11 / 12) / n)
        assert np.all(np.abs(counts / n - 1 / 12) < 4 * se)

    def test_unbalanced_ratio(self):
        weights = (1.0,) * 6 + (7.0,) * 6
        n = 100_000
        hits = int(np.sum(_strata(weights, n, 3) == 7))
        p = 7.0 / 48.0
        assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)


class TestDrawEventTime:
    """Exponential latent event times as generate_trial draws them."""

    def test_fixed_uniform_hits_median(self):
        # u = 0.5 everywhere: every subject is control and -log(u)/rate is
        # exactly the 16-month median.
        design = TrialDesign(true_hr=0.5, target_events=1, sample_size=3)
        ds = generate_trial(design, ScenarioSpec.no_prognostic(16.0), _FixedUniform(0.5))
        assert not ds.arm.any()
        assert ds.latent_event_time == pytest.approx([16.0] * 3, rel=1e-12)

    def test_sample_median_sixteen_months(self):
        latent, _ = _latent(1.0, 100_000, 11)
        assert abs(np.median(latent) - 16.0) < 0.3

    def test_treatment_multiplier_scales_median(self):
        latent, arm = _latent(0.5, 200_000, 12)
        assert abs(np.median(latent[arm == 1]) - 32.0) < 0.6
        assert abs(np.median(latent[arm == 0]) - 16.0) < 0.3

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_invalid_rate(self, bad):
        # Every control rate comes from a median or a hazard ratio the
        # scenario validates, so no invalid rate reaches generation.
        with pytest.raises(InvalidParameterError):
            ScenarioSpec.no_prognostic(bad)
        with pytest.raises(InvalidParameterError):
            ScenarioSpec.multiplicative_covariates(hr_x2_level2=bad)
        with pytest.raises(InvalidParameterError):
            ScenarioSpec.stratum_baselines((16.0,) * 11 + (bad,))

    def test_zero_uniform_guarded(self):
        design = TrialDesign(true_hr=0.5, target_events=1, sample_size=3)
        ds = generate_trial(design, ScenarioSpec.no_prognostic(), _FixedUniform(0.0))
        assert np.all(np.isfinite(ds.latent_event_time))
        assert np.all(ds.latent_event_time > 0)


class TestApplyCutoff:
    def _cut(self, enrolls, latents, d):
        n = len(enrolls)
        return apply_cutoff(
            subject_id=np.arange(n),
            stratum_index=np.zeros(n, dtype=int),
            arm=np.zeros(n, dtype=int),
            enroll_time=np.asarray(enrolls, dtype=float),
            latent_event_time=np.asarray(latents, dtype=float),
            target_events=d,
        )

    def test_three_subject_order_statistic(self):
        # calendar event times 2, 5, 9; the second smallest sets the cutoff
        ds = self._cut([0.5, 2.0, 3.0], [1.5, 3.0, 6.0], d=2)
        assert ds.cutoff_calendar_time == 5.0
        assert list(ds.event) == [True, True, False]
        assert ds.observed_time[2] == pytest.approx(5.0 - 3.0)
        assert ds.events_observed == 2

    def test_all_events_when_d_equals_n(self):
        ds = self._cut([0.0, 1.0, 2.0], [5.0, 1.0, 4.0], d=3)
        assert ds.events_observed == 3
        assert np.array_equal(ds.observed_time, [5.0, 1.0, 4.0])

    def test_post_cutoff_enrollee_clamped_to_zero(self):
        ds = self._cut([0.0, 0.0, 10.0], [1.0, 2.0, 1.0], d=2)
        assert ds.cutoff_calendar_time == 2.0
        assert ds.observed_time[2] == 0.0
        assert not ds.event[2]

    def test_tied_calendar_times_keep_exactly_d(self):
        ds = self._cut([0.0, 0.0, 0.0, 0.0], [3.0, 3.0, 3.0, 1.0], d=2)
        assert ds.events_observed == 2
        # tie at calendar time 3 broken by subject id: id 0 events, id 1/2 do not
        assert bool(ds.event[3]) and bool(ds.event[0])
        assert not ds.event[1] and not ds.event[2]

    def test_d_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            self._cut([0.0, 0.0], [1.0, 2.0], d=3)
        with pytest.raises(InvalidParameterError):
            self._cut([0.0, 0.0], [1.0, 2.0], d=0)


class TestGenerateTrial:
    def test_exact_event_count(self):
        design = TrialDesign.from_event_target(0.5, 66)
        for rep in range(5):
            ds = generate_trial(design, ScenarioSpec.no_prognostic(),
                                RngStream(2024, rep))
            assert ds.events_observed == 66
            assert ds.n_subjects == 95

    def test_bit_identical_reruns(self):
        design = TrialDesign.from_event_target(0.6, 120)
        a = generate_trial(design, ScenarioSpec.multiplicative_covariates(),
                           RngStream(7, 3))
        b = generate_trial(design, ScenarioSpec.multiplicative_covariates(),
                           RngStream(7, 3))
        for field in ("subject_id", "stratum_index", "arm", "enroll_time",
                      "observed_time", "event", "latent_event_time"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.cutoff_calendar_time == b.cutoff_calendar_time

    def test_generated_dataset_validates(self):
        design = TrialDesign.from_event_target(0.5, 66)
        ds = generate_trial(design, ScenarioSpec.stratum_baselines(), RngStream(3, 1))
        ds.validate()
        inside = ds.enroll_time + ds.observed_time <= ds.cutoff_calendar_time + 1e-9
        late = ds.observed_time == 0.0
        assert np.all(inside | late)

    def test_arm_fraction_binomial(self):
        design = TrialDesign(true_hr=0.5, target_events=10, sample_size=100_000)
        ds = generate_trial(design, ScenarioSpec.no_prognostic(), RngStream(41, 0))
        frac = ds.arm.astype(float).mean()
        assert abs(frac - 0.5) <= 3 * 0.5 / math.sqrt(100_000)

    def test_zero_weight_strata_not_assigned(self):
        weights = (1.0,) + (0.0,) * 11
        design = TrialDesign(true_hr=0.5, target_events=10, sample_size=500,
                             allocation_weights=weights)
        ds = generate_trial(design, ScenarioSpec.no_prognostic(), RngStream(4, 0))
        assert set(np.unique(ds.stratum_index)) == {0}

    def test_latent_times_exponential_per_cell(self):
        # Kolmogorov-Smirnov on the uncensored latent times, per stratum/arm
        # cell, against the scenario's intended exponential, at the 0.1% level.
        scenario = ScenarioSpec.multiplicative_covariates()
        design = TrialDesign(true_hr=0.5, target_events=10, sample_size=120_000)
        ds = generate_trial(design, scenario, RngStream(90, 0))
        worst = 1.0
        for stratum, base in enumerate(control_rate_table(scenario)):
            for arm, rate in ((0, base), (1, base * design.true_hr)):
                cell = (ds.stratum_index == stratum) & (ds.arm == arm)
                assert cell.sum() > 3000
                stat = kstest(ds.latent_event_time[cell], "expon",
                              args=(0.0, 1.0 / rate))
                worst = min(worst, stat.pvalue)
        assert worst > 0.001


class TestTrialDataset:
    def test_arrays_are_read_only(self):
        design = TrialDesign.from_event_target(0.5, 20)
        ds = generate_trial(design, ScenarioSpec.no_prognostic(), RngStream(8, 0))
        with pytest.raises(ValueError):
            ds.observed_time[0] = 1.0

    def test_stratum_bounds_checked(self):
        with pytest.raises(InvalidParameterError):
            TrialDataset(subject_id=[0], stratum_index=[12], arm=[0],
                         enroll_time=[0.0], observed_time=[1.0], event=[True])
