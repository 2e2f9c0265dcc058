"""Required event counts and sample sizes for time-to-event trial designs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist, StatisticsError

from .errors import InvalidParameterError


@dataclass(frozen=True)
class DesignInputs:
    """Inputs to the event-count calculation for a two-arm superiority test."""

    hr: float
    alpha_one_sided: float = 0.025
    power: float = 0.80
    allocation: float = 0.5
    event_fraction: float = 0.70

    def __post_init__(self):
        if not (0.0 < self.hr and math.isfinite(self.hr)):
            raise InvalidParameterError(f"hr must be positive and finite, got {self.hr}")
        if self.hr == 1.0:
            raise InvalidParameterError("hr must differ from 1 (no effect means no finite event target)")
        for name in ("alpha_one_sided", "power", "allocation"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise InvalidParameterError(f"{name} must be in (0, 1), got {v}")
        if self.power <= self.alpha_one_sided:  # then z_{1-alpha} + z_{power} <= 0
            raise InvalidParameterError(
                f"power must exceed alpha_one_sided, got power={self.power} and "
                f"alpha_one_sided={self.alpha_one_sided}")
        if not 0.0 < self.event_fraction <= 1.0:
            raise InvalidParameterError(
                f"event_fraction must be in (0, 1], got {self.event_fraction}")


def schoenfeld_events(inputs: DesignInputs) -> int:
    """Events needed to detect ``hr`` at the given one-sided level and power.

    Uses the classical normal-approximation formula
    D = (z_{1-alpha} + z_{power})^2 / (a (1-a) (log hr)^2), rounded up,
    where ``a`` is the treatment allocation fraction. Inputs at which D is not
    a finite float (1 - alpha rounding to 1, or the divisor to 0) are refused.
    """
    a = inputs.allocation
    try:
        z_alpha = NormalDist().inv_cdf(1.0 - inputs.alpha_one_sided)
        z_power = NormalDist().inv_cdf(inputs.power)
        raw = (z_alpha + z_power) ** 2 / (a * (1.0 - a) * math.log(inputs.hr) ** 2)
        # the sum rounds to 0 only where power is within rounding of alpha
        return max(1, int(math.ceil(raw)))
    except (StatisticsError, ZeroDivisionError, OverflowError):
        raise InvalidParameterError(
            f"the event target for hr={inputs.hr} is not finite (alpha_one_sided="
            f"{inputs.alpha_one_sided}, treatment allocation fraction {a})") from None


def sample_size(target_events: int, event_fraction: float = 0.70) -> int:
    """Subjects to enroll so that ``target_events`` is an ``event_fraction`` share."""
    if target_events < 1:
        raise InvalidParameterError(f"target_events must be positive, got {target_events}")
    if not 0.0 < event_fraction <= 1.0:
        raise InvalidParameterError(f"event_fraction must be in (0, 1], got {event_fraction}")
    try:
        return int(math.ceil(target_events / event_fraction))
    except OverflowError:  # the quotient, or target_events itself, is past the float range
        raise InvalidParameterError(f"the sample size for {target_events} events at "
                                    f"event_fraction={event_fraction} is not finite") from None
