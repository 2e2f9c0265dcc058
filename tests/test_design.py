"""Tests for event-count and sample-size calculations."""

import math

import pytest
from scipy.stats import norm

from stratsurv.design import DesignInputs, sample_size, schoenfeld_events
from stratsurv.errors import InvalidParameterError


class TestSchoenfeldEvents:
    @pytest.mark.parametrize("hr,expected", [(0.5, 66), (0.55, 88), (0.65, 170), (0.75, 380)])
    def test_reference_event_targets(self, hr, expected):
        assert schoenfeld_events(DesignInputs(hr=hr)) == expected

    @pytest.mark.parametrize("hr,expected", [(0.6, 121), (0.7, 247)])
    def test_formula_values_near_reference_grid(self, hr, expected):
        # The reference study tabulates 120 and 248 here; the ceiling formula
        # itself gives 121 and 247, so study configs carry events verbatim.
        assert schoenfeld_events(DesignInputs(hr=hr)) == expected

    @pytest.mark.parametrize("allocation", [0.5, 1 / 3])
    @pytest.mark.parametrize("power", [0.8, 0.9])
    @pytest.mark.parametrize("alpha", [0.01, 0.025, 0.05])
    @pytest.mark.parametrize("hr", [round(0.3 + 0.05 * i, 2) for i in range(14)])
    def test_balanced_allocation_closed_form(self, hr, alpha, power, allocation):
        # the standard library's quantiles against scipy's, through the ceiling
        z = norm.ppf(1.0 - alpha) + norm.ppf(power)
        raw = z * z / (allocation * (1.0 - allocation) * math.log(hr) ** 2)
        inputs = DesignInputs(hr=hr, alpha_one_sided=alpha, power=power,
                              allocation=allocation)
        assert schoenfeld_events(inputs) == math.ceil(raw)

    def test_hr_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            DesignInputs(hr=1.0)

    def test_monotone_in_power(self):
        grid = [schoenfeld_events(DesignInputs(hr=0.7, power=p))
                for p in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert grid == sorted(grid)
        assert grid[0] < grid[-1]

    def test_monotone_in_alpha(self):
        grid = [schoenfeld_events(DesignInputs(hr=0.7, alpha_one_sided=a))
                for a in (0.005, 0.01, 0.025, 0.05)]
        assert grid == sorted(grid, reverse=True)

    def test_monotone_in_effect_size(self):
        grid = [schoenfeld_events(DesignInputs(hr=hr))
                for hr in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert grid == sorted(grid)

    def test_unbalanced_allocation_needs_more_events(self):
        balanced = schoenfeld_events(DesignInputs(hr=0.6))
        lopsided = schoenfeld_events(DesignInputs(hr=0.6, allocation=0.2))
        assert lopsided > balanced
        # a(1-a) scaling: 0.25 / 0.16 before ceiling
        assert lopsided == pytest.approx(balanced * 0.25 / 0.16, abs=2)

    def test_probability_validation(self):
        with pytest.raises(InvalidParameterError):
            DesignInputs(hr=0.5, power=1.0)
        with pytest.raises(InvalidParameterError):
            DesignInputs(hr=0.5, alpha_one_sided=0.0)
        with pytest.raises(InvalidParameterError):
            DesignInputs(hr=-0.5)


class TestSampleSize:
    def test_reference_values(self):
        assert sample_size(66, 0.70) == 95
        assert sample_size(120, 0.70) == 172
        assert sample_size(380, 1.0) == 380

    def test_full_grid(self):
        targets = {66: 95, 88: 126, 120: 172, 170: 243, 248: 355, 380: 543}
        for d, n in targets.items():
            assert sample_size(d) == n

    def test_invalid_fraction(self):
        with pytest.raises(InvalidParameterError):
            sample_size(66, 0.0)
        with pytest.raises(InvalidParameterError):
            sample_size(66, 1.2)

    def test_invalid_events(self):
        with pytest.raises(InvalidParameterError):
            sample_size(0)
