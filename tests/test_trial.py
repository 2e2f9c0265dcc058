"""Tests for strata, scenarios, and hazard-rate derivation."""

import math

import numpy as np
import pytest

from stratsurv.errors import DataFormatError, InvalidParameterError
from stratsurv.io import read_subject_records
from stratsurv.trial import (
    MAX_SAMPLE_SIZE,
    STRATUM_COUNT,
    ScenarioSpec,
    TrialDesign,
    control_rate_table,
    median_to_rate,
    stratum_covariates,
)

LN2 = math.log(2.0)

#: Strata medians implied by the reference multiplicative scenario, in
#: canonical stratum order (x1 major, x2 middle, x3 minor).
REFERENCE_MEDIANS = (16.0, 21.3, 21.3, 28.4, 12.8, 17.1, 32.0, 42.7, 42.7, 56.9, 25.6, 34.1)


class TestStratumProfile:
    """A stratum's covariate profile: stratum_covariates of its index."""

    def test_twelve_distinct_profiles(self):
        rows = stratum_covariates(np.arange(STRATUM_COUNT))
        assert STRATUM_COUNT == 12
        assert len({tuple(r) for r in rows}) == 12

    def test_index_formula(self):
        for i, (x1, lvl1, lvl2, x3) in enumerate(stratum_covariates(np.arange(12))):
            assert lvl1 * lvl2 == 0
            assert x1 * 6 + (lvl1 + 2 * lvl2) * 2 + x3 == i

    @pytest.mark.parametrize("x1,x2,x3", [(2, 0, 0), (0, 3, 0), (0, 0, -1)])
    def test_invalid_levels(self, tmp_path, x1, x2, x3):
        # Factor levels enter the program only through the dataset import.
        path = tmp_path / "triple.csv"
        path.write_text(f"id,x1,x2,x3,arm,time,event\n1,{x1},{x2},{x3},1,2.0,1\n")
        with pytest.raises(DataFormatError, match="factor levels out of range") as err:
            read_subject_records(path)
        assert err.value.row == 2

    def test_covariate_coding(self):
        rows = stratum_covariates(np.array([2, 5, 11]))
        assert rows.dtype == float and rows.shape == (3, 4)
        assert [tuple(r) for r in rows] == [(0, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 1)]


class TestMedianToRate:
    def test_reference_median(self):
        assert median_to_rate(16.0) == pytest.approx(0.0433217, abs=5e-8)
        assert median_to_rate(16.0) == math.log(2.0) / 16.0

    def test_identity_median(self):
        assert median_to_rate(math.log(2.0)) == pytest.approx(1.0, rel=1e-15)

    def test_fifty_months(self):
        assert median_to_rate(50.0) == pytest.approx(0.0138629, abs=5e-8)

    @pytest.mark.parametrize("bad", [0.0, -3.0, float("inf"), float("nan")])
    def test_invalid_median(self, bad):
        with pytest.raises(InvalidParameterError):
            median_to_rate(bad)

    def test_exponential_median_matches(self):
        rate = median_to_rate(20.0)
        assert math.exp(-rate * 20.0) == pytest.approx(0.5, rel=1e-12)


class TestControlRate:
    def test_no_prognostic_uniform_across_strata(self):
        table = control_rate_table(ScenarioSpec.no_prognostic(16.0))
        assert table.shape == (12,)
        assert set(table.tolist()) == {LN2 / 16.0}

    def test_multiplicative_x1_doubles_median(self):
        table = control_rate_table(ScenarioSpec.multiplicative_covariates())
        assert LN2 / table[6] == pytest.approx(32.0)

    def test_multiplicative_all_factors(self):
        # Hand-ordered products: the factors apply in the order x1, x2, x3.
        table = control_rate_table(ScenarioSpec.multiplicative_covariates())
        assert table[0] == LN2 / 16
        assert table[7] == LN2 / 16 * 0.5 * 0.75
        assert table[11] == LN2 / 16 * 0.5 * 1.25 * 0.75
        median = LN2 / table[9]
        assert median == pytest.approx(16.0 * 2.0 / 0.75 / 0.75, rel=1e-12)
        assert round(median, 1) == 56.9

    def test_reference_median_list(self):
        table = control_rate_table(ScenarioSpec.multiplicative_covariates())
        medians = [round(LN2 / rate, 1) for rate in table]
        assert medians == [pytest.approx(m, abs=0.051) for m in REFERENCE_MEDIANS]

    def test_stratum_baselines(self):
        table = control_rate_table(ScenarioSpec.stratum_baselines())
        assert table[0] == pytest.approx(math.log(2) / 16)
        assert table[6] == pytest.approx(math.log(2) / 50)

    def test_unit_hrs_reduce_to_no_prognostic(self):
        flat = ScenarioSpec.multiplicative_covariates(hr_x1=1, hr_x2_level1=1,
                                                      hr_x2_level2=1, hr_x3=1)
        base = ScenarioSpec.no_prognostic()
        assert np.array_equal(control_rate_table(flat), control_rate_table(base))

    def test_rates_strictly_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            sc = ScenarioSpec.stratum_baselines(tuple(rng.uniform(1, 100, 12)))
            assert np.all(control_rate_table(sc) > 0)


class TestScenarioSpecValidation:
    def test_irrelevant_fields_rejected(self):
        with pytest.raises(InvalidParameterError):
            ScenarioSpec.no_prognostic(16.0).__class__(
                kind=ScenarioSpec.no_prognostic(16.0).kind,
                base_median=16.0, hr_x1=0.5)
        with pytest.raises(InvalidParameterError):
            ScenarioSpec(kind=ScenarioSpec.stratum_baselines().kind,
                         base_median=16.0, stratum_medians=(16.0,) * 12)
        with pytest.raises(InvalidParameterError,
                           match="stratum_medians is not used by no_prognostic"):
            ScenarioSpec(kind=ScenarioSpec.no_prognostic(16.0).kind,
                         base_median=16.0, stratum_medians=(16.0,) * 12)

    def test_nonpositive_median_rejected(self):
        with pytest.raises(InvalidParameterError):
            ScenarioSpec.no_prognostic(0.0)
        with pytest.raises(InvalidParameterError):
            ScenarioSpec.stratum_baselines((16.0,) * 11 + (-1.0,))

    def test_nonpositive_hr_rejected(self):
        with pytest.raises(InvalidParameterError):
            ScenarioSpec.multiplicative_covariates(hr_x1=-1.0)

    def test_wrong_median_count_rejected(self):
        with pytest.raises(InvalidParameterError):
            ScenarioSpec.stratum_baselines((16.0,) * 11)


class TestTrialDesign:
    def test_from_event_target_sample_sizes(self):
        assert TrialDesign.from_event_target(0.5, 66).sample_size == 95
        assert TrialDesign.from_event_target(0.6, 120).sample_size == 172
        assert TrialDesign.from_event_target(0.75, 380).sample_size == 543

    def test_sample_size_below_events_rejected(self):
        with pytest.raises(InvalidParameterError):
            TrialDesign(true_hr=0.5, target_events=66, sample_size=60)

    def test_true_hr_range(self):
        with pytest.raises(InvalidParameterError):
            TrialDesign(true_hr=1.2, target_events=10, sample_size=20)
        with pytest.raises(InvalidParameterError):
            TrialDesign(true_hr=0.0, target_events=10, sample_size=20)
        TrialDesign(true_hr=1.0, target_events=10, sample_size=20)

    def test_allocation_weights_validated(self):
        with pytest.raises(InvalidParameterError):
            TrialDesign(true_hr=0.5, target_events=10, sample_size=20,
                        allocation_weights=(0.0,) * 12)
        with pytest.raises(InvalidParameterError):
            TrialDesign(true_hr=0.5, target_events=10, sample_size=20,
                        allocation_weights=(1.0,) * 11 + (-1.0,))
        with pytest.raises(InvalidParameterError):
            TrialDesign(true_hr=0.5, target_events=10, sample_size=20,
                        allocation_weights=(1.0,) * 11)

    def test_sample_size_bounded(self):
        # only constructed: no data is ever generated at these sizes
        d = TrialDesign(true_hr=0.5, target_events=10, sample_size=MAX_SAMPLE_SIZE)
        assert d.sample_size == 1_000_000
        with pytest.raises(InvalidParameterError,
                           match="sample_size 1000001 exceeds the maximum of 1000000"):
            TrialDesign(true_hr=0.5, target_events=10, sample_size=MAX_SAMPLE_SIZE + 1)

    def test_probability_fields_validated(self):
        for field in ("randomization_prob", "alpha_one_sided"):
            with pytest.raises(InvalidParameterError):
                TrialDesign(true_hr=0.5, target_events=10, sample_size=20,
                            **{field: 1.5})
