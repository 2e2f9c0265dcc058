"""Trial dataset generation: strata, randomization, enrollment, event times.

One dataset is produced per replicate from a seeded stream: subjects are
assigned a stratum from the allocation weights, randomized by independent
Bernoulli draws, enrolled uniformly over the accrual window, given an
exponential latent event time, and then administratively censored at the
calendar time of the D-th event. Every step draws for all subjects at once,
and the dataset holds one read-only array per subject field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .trial import ScenarioSpec, TrialDesign, control_rate_table

CONTROL = 0
TREATMENT = 1


@dataclass(frozen=True)
class RngStream:
    """Recipe for one reproducible random stream.

    The same (seed, replicate_index) pair always yields the same generator,
    independent of execution order or how replicates are spread over workers.
    """

    seed: int
    replicate_index: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidParameterError("seed must be a nonnegative integer")
        if self.replicate_index < 0:
            raise InvalidParameterError("replicate_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.replicate_index,))
        return np.random.default_rng(seq)


class TrialDataset:
    """Array-backed survival dataset with an analysis cutoff.

    Attributes are read-only numpy arrays of equal length: ``subject_id``,
    ``stratum_index``, ``arm`` (0 control, 1 treatment), ``enroll_time``,
    ``observed_time`` (months since enrollment), ``event``, plus the optional
    ``latent_event_time`` for generated data. ``cutoff_calendar_time`` is
    months since study start; imported datasets use +inf.
    """

    def __init__(
        self,
        subject_id,
        stratum_index,
        arm,
        enroll_time,
        observed_time,
        event,
        cutoff_calendar_time: float = math.inf,
        latent_event_time=None,
    ):
        self.subject_id = _frozen(subject_id, np.int64)
        self.stratum_index = _frozen(stratum_index, np.int64)
        self.arm = _frozen(arm, np.int8)
        self.enroll_time = _frozen(enroll_time, np.float64)
        self.observed_time = _frozen(observed_time, np.float64)
        self.event = _frozen(event, np.bool_)
        self.cutoff_calendar_time = float(cutoff_calendar_time)
        self.latent_event_time = (
            None if latent_event_time is None else _frozen(latent_event_time, np.float64)
        )
        n = len(self.subject_id)
        for name in ("stratum_index", "arm", "enroll_time", "observed_time", "event"):
            if len(getattr(self, name)) != n:
                raise InvalidParameterError(f"{name} must have length {n}")
        if self.stratum_index.size and (
            self.stratum_index.min() < 0 or self.stratum_index.max() >= 12
        ):
            raise InvalidParameterError("stratum_index values must lie in [0, 12)")

    @property
    def n_subjects(self) -> int:
        return len(self.subject_id)

    @property
    def events_observed(self) -> int:
        return int(self.event.sum())

    def validate(self) -> None:
        """Check internal consistency; raises InvalidParameterError on violation."""
        if np.any(self.observed_time < 0):
            raise InvalidParameterError("observed_time must be nonnegative")
        if self.latent_event_time is not None:
            lat = self.latent_event_time
            if np.any(lat <= 0):
                raise InvalidParameterError("latent_event_time must be positive")
            ev = self.event
            if not np.allclose(self.observed_time[ev], lat[ev], rtol=0, atol=0):
                raise InvalidParameterError("event subjects must have observed == latent time")
            if np.any(self.observed_time[~ev] > lat[~ev]):
                raise InvalidParameterError("censored subjects must have observed <= latent time")
        if math.isfinite(self.cutoff_calendar_time):
            # Subjects enrolled after the cutoff carry zero follow-up, so the
            # bound is on follow-up, not on enroll_time itself.
            cap = np.maximum(self.cutoff_calendar_time - self.enroll_time, 0.0)
            if np.any(self.observed_time > cap + 1e-9):
                raise InvalidParameterError("follow-up extends past the analysis cutoff")


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def generate_trial(
    design: TrialDesign, scenario: ScenarioSpec, rng: "RngStream | np.random.Generator"
) -> TrialDataset:
    """Generate one complete trial dataset under the design and scenario.

    Draw order (fixed, part of the determinism contract): strata for all
    subjects, then arms, then enrollment times, then event-time uniforms.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n = design.sample_size

    cdf = np.cumsum(design.allocation_weights)
    strata = np.searchsorted(cdf, gen.random(n) * cdf[-1], side="right").astype(np.int64)
    arm = (gen.random(n) < design.randomization_prob).astype(np.int8)
    enroll = gen.uniform(0.0, design.accrual_months, size=n)
    u = np.maximum(gen.random(n), np.finfo(float).tiny)

    rates = control_rate_table(scenario)[strata]
    rates = np.where(arm == TREATMENT, rates * design.true_hr, rates)
    latent = -np.log(u) / rates

    return apply_cutoff(
        subject_id=np.arange(n, dtype=np.int64),
        stratum_index=strata,
        arm=arm,
        enroll_time=enroll,
        latent_event_time=latent,
        target_events=design.target_events,
    )


def apply_cutoff(
    *,
    subject_id,
    stratum_index,
    arm,
    enroll_time,
    latent_event_time,
    target_events: int,
) -> TrialDataset:
    """Censor all follow-up at the calendar time of the D-th event.

    The cutoff is the D-th smallest enroll_time + latent_event_time (ties
    broken by subject id so exactly D events result). Later events become
    censored at cutoff - enroll_time; subjects enrolled after the cutoff keep
    zero follow-up.
    """
    subject_id = np.asarray(subject_id, dtype=np.int64)
    enroll = np.asarray(enroll_time, dtype=float)
    latent = np.asarray(latent_event_time, dtype=float)
    n = len(subject_id)
    if not 1 <= target_events <= n:
        raise InvalidParameterError(
            f"target_events must be in [1, {n}], got {target_events}")

    calendar = enroll + latent
    order = np.lexsort((subject_id, calendar))
    cutoff = float(calendar[order[target_events - 1]])

    event = np.zeros(n, dtype=bool)
    event[order[:target_events]] = True
    observed = np.where(event, latent, np.maximum(cutoff - enroll, 0.0))

    return TrialDataset(
        subject_id=subject_id,
        stratum_index=stratum_index,
        arm=arm,
        enroll_time=enroll,
        observed_time=observed,
        event=event,
        cutoff_calendar_time=cutoff,
        latent_event_time=latent,
    )
