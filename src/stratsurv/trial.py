"""Trial structure: stratification factors, prognostic scenarios, hazard rates.

Twelve strata arise from three baseline factors x1 (2 levels), x2 (3) and x3
(2); a stratum is known by its index 6*x1 + 2*x2 + x3 in [0, 12). A scenario
describes how the control-arm hazard varies across strata; everything is
configured in median survival months and converted to exponential rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .design import sample_size
from .errors import InvalidParameterError

#: Levels of the stratification factors x1, x2 and x3. A stratum's index
#: runs over them in row-major order: ``stratum_index``.
FACTOR_LEVELS = (2, 3, 2)
STRATUM_COUNT = math.prod(FACTOR_LEVELS)

#: Within-stratum covariate columns in model order: treatment is prepended by
#: the fitting code, then x1, the two x2-level indicators, and x3.
COVARIATE_NAMES = ("x1", "x2_level1", "x2_level2", "x3")


def stratum_index(x1, x2, x3):
    """The stratum index 6*x1 + 2*x2 + x3 of factor levels, numbers or arrays."""
    _, n2, n3 = FACTOR_LEVELS
    return (x1 * n2 + x2) * n3 + x3


def stratum_covariates(index: np.ndarray) -> np.ndarray:
    """Covariate indicator coding of an array of stratum indices.

    Returns a float array of shape (n, 4) with columns x1, x2==1, x2==2, x3.
    """
    idx = np.asarray(index)
    x1, x2, x3 = np.unravel_index(idx, FACTOR_LEVELS)
    out = np.empty((idx.shape[0], 4), dtype=float)
    out[:, 0] = x1
    out[:, 1] = x2 == 1
    out[:, 2] = x2 == 2
    out[:, 3] = x3
    return out


class ScenarioKind(Enum):
    """How the control-arm hazard depends on the stratum."""

    NO_PROGNOSTIC = "no_prognostic"
    MULTIPLICATIVE_COVARIATES = "multiplicative_covariates"
    STRATUM_BASELINES = "stratum_baselines"


#: Reference parameters of the bundled study: base median 16 months, covariate
#: hazard ratios 0.5 / 0.75 / 1.25 / 0.75, and the 16-vs-50-month baselines.
DEFAULT_BASE_MEDIAN = 16.0
DEFAULT_COVARIATE_HRS = {"hr_x1": 0.5, "hr_x2_level1": 0.75, "hr_x2_level2": 1.25, "hr_x3": 0.75}
DEFAULT_STRATUM_MEDIANS = (16.0,) * 6 + (50.0,) * 6


@dataclass(frozen=True)
class ScenarioSpec:
    """Data-generating mechanism for control-arm hazards.

    Exactly the fields relevant to ``kind`` may be set:

    * ``NO_PROGNOSTIC``: ``base_median`` only; every stratum shares one hazard.
    * ``MULTIPLICATIVE_COVARIATES``: ``base_median`` plus the four covariate
      hazard ratios acting multiplicatively on the rate.
    * ``STRATUM_BASELINES``: twelve per-stratum medians.
    """

    kind: ScenarioKind
    base_median: float | None = None
    hr_x1: float | None = None
    hr_x2_level1: float | None = None
    hr_x2_level2: float | None = None
    hr_x3: float | None = None
    stratum_medians: tuple[float, ...] | None = None

    def __post_init__(self):
        kind = self.kind
        hrs = (self.hr_x1, self.hr_x2_level1, self.hr_x2_level2, self.hr_x3)
        if kind in (ScenarioKind.NO_PROGNOSTIC, ScenarioKind.MULTIPLICATIVE_COVARIATES):
            _require_positive("base_median", self.base_median)
            if self.stratum_medians is not None:
                raise InvalidParameterError(f"stratum_medians is not used by {kind.value}")
        if kind is ScenarioKind.NO_PROGNOSTIC and any(h is not None for h in hrs):
            raise InvalidParameterError("covariate hazard ratios are not used by no_prognostic")
        if kind is ScenarioKind.MULTIPLICATIVE_COVARIATES:
            for name, value in zip(("hr_x1", "hr_x2_level1", "hr_x2_level2", "hr_x3"), hrs):
                _require_positive(name, value)
        if kind is ScenarioKind.STRATUM_BASELINES:
            if self.base_median is not None or any(h is not None for h in hrs):
                raise InvalidParameterError(
                    "stratum_baselines takes only the 12 stratum medians")
            if self.stratum_medians is None or len(self.stratum_medians) != STRATUM_COUNT:
                raise InvalidParameterError("stratum_medians must hold exactly 12 values")
            for m in self.stratum_medians:
                _require_positive("stratum_medians entry", m)

    @classmethod
    def no_prognostic(cls, base_median: float = DEFAULT_BASE_MEDIAN) -> "ScenarioSpec":
        return cls(kind=ScenarioKind.NO_PROGNOSTIC, base_median=base_median)

    @classmethod
    def multiplicative_covariates(
        cls,
        base_median: float = DEFAULT_BASE_MEDIAN,
        hr_x1: float = DEFAULT_COVARIATE_HRS["hr_x1"],
        hr_x2_level1: float = DEFAULT_COVARIATE_HRS["hr_x2_level1"],
        hr_x2_level2: float = DEFAULT_COVARIATE_HRS["hr_x2_level2"],
        hr_x3: float = DEFAULT_COVARIATE_HRS["hr_x3"],
    ) -> "ScenarioSpec":
        return cls(
            kind=ScenarioKind.MULTIPLICATIVE_COVARIATES,
            base_median=base_median,
            hr_x1=hr_x1,
            hr_x2_level1=hr_x2_level1,
            hr_x2_level2=hr_x2_level2,
            hr_x3=hr_x3,
        )

    @classmethod
    def stratum_baselines(
        cls, medians: tuple[float, ...] = DEFAULT_STRATUM_MEDIANS
    ) -> "ScenarioSpec":
        return cls(kind=ScenarioKind.STRATUM_BASELINES, stratum_medians=tuple(medians))


def median_to_rate(median: float) -> float:
    """Exponential hazard rate per month with the given median survival."""
    if not (isinstance(median, (int, float)) and math.isfinite(median) and median > 0):
        raise InvalidParameterError(f"median must be a positive finite number, got {median!r}")
    return math.log(2.0) / median


def control_rate_table(scenario: ScenarioSpec) -> np.ndarray:
    """Control-arm hazard rates per month for the 12 strata, by stratum index.

    Multiplicative covariate hazard ratios are applied in the order x1, x2
    level, x3; a factor at its reference level multiplies by exactly 1.
    """
    if scenario.kind is ScenarioKind.STRATUM_BASELINES:
        return math.log(2.0) / np.asarray(scenario.stratum_medians, dtype=float)
    rates = np.full(STRATUM_COUNT, median_to_rate(scenario.base_median))
    if scenario.kind is ScenarioKind.MULTIPLICATIVE_COVARIATES:
        hrs = (scenario.hr_x1, scenario.hr_x2_level1, scenario.hr_x2_level2, scenario.hr_x3)
        for column, hr in zip(stratum_covariates(np.arange(STRATUM_COUNT)).T, hrs):
            rates *= np.where(column == 1.0, hr, 1.0)
    return rates


BALANCED_WEIGHTS = (1.0,) * STRATUM_COUNT

#: Largest sample size a design may have. One replicate's working set grows
#: by about 280 bytes per subject, so this bounds it to about 280 MB.
MAX_SAMPLE_SIZE = 1_000_000


@dataclass(frozen=True)
class TrialDesign:
    """Operating characteristics of one simulated trial."""

    true_hr: float
    target_events: int
    sample_size: int
    accrual_months: float = 14.0
    allocation_weights: tuple[float, ...] = BALANCED_WEIGHTS
    randomization_prob: float = 0.5
    alpha_one_sided: float = 0.025

    def __post_init__(self):
        if not 0.0 < self.true_hr <= 1.0:
            raise InvalidParameterError(f"true_hr must be in (0, 1], got {self.true_hr}")
        if self.target_events < 1:
            raise InvalidParameterError("target_events must be a positive integer")
        if self.sample_size < self.target_events:
            raise InvalidParameterError(
                f"sample_size {self.sample_size} is below target_events {self.target_events}")
        if self.sample_size > MAX_SAMPLE_SIZE:
            raise InvalidParameterError(
                f"sample_size {self.sample_size} exceeds the maximum of {MAX_SAMPLE_SIZE}")
        _require_positive("accrual_months", self.accrual_months)
        weights = tuple(float(w) for w in self.allocation_weights)
        if len(weights) != STRATUM_COUNT:
            raise InvalidParameterError("allocation_weights must hold exactly 12 values")
        if any(w < 0 or not math.isfinite(w) for w in weights) or sum(weights) <= 0:
            raise InvalidParameterError(
                "allocation_weights must be nonnegative and not all zero")
        object.__setattr__(self, "allocation_weights", weights)
        for name in ("randomization_prob", "alpha_one_sided"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise InvalidParameterError(f"{name} must be in (0, 1), got {v}")

    @classmethod
    def from_event_target(
        cls, true_hr: float, target_events: int, event_fraction: float = 0.70, **kwargs
    ) -> "TrialDesign":
        """Design with sample size ceil(target_events / event_fraction)."""
        n = sample_size(target_events, event_fraction)
        return cls(true_hr=true_hr, target_events=target_events, sample_size=n, **kwargs)


def _require_positive(name: str, value) -> None:
    if value is None or not math.isfinite(value) or value <= 0:
        raise InvalidParameterError(f"{name} must be a positive finite number, got {value!r}")
