"""Trial dataset generation: strata, randomization, enrollment, event times.

Generation is batched: ``generate_trials`` turns B seeded streams, one per
replicate, into (B, N) subject arrays in one pass. Each stream draws a single
(4, N) block of uniforms in a fixed order: subjects are assigned a stratum
from the allocation weights, randomized by independent Bernoulli draws,
enrolled uniformly over the accrual window and given an exponential latent
event time; each row is then administratively censored at the calendar time
of its own D-th event. ``generate_trial`` is the one-trial case, wrapped in a
``TrialDataset`` that holds one read-only array per subject field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .trial import STRATUM_COUNT, ScenarioSpec, TrialDesign, control_rate_table

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
        # stratum, arm and event are checked before their integer or bool
        # conversion, which would truncate a fractional value silently
        self.subject_id = _frozen(subject_id, np.int64)
        self.stratum_index = _checked(stratum_index, np.int64, "stratum_index",
                                      lambda s: (s % 1 == 0) & (s >= 0) & (s < STRATUM_COUNT),
                                      f"be integers in [0, {STRATUM_COUNT})")
        self.arm = _checked(arm, np.int8, "arm", _binary, "be 0 or 1")
        self.enroll_time = _frozen(enroll_time, np.float64)
        self.observed_time = _frozen(observed_time, np.float64)
        self.event = _checked(event, np.bool_, "event", _binary, "be 0 or 1")
        self.cutoff_calendar_time = float(cutoff_calendar_time)
        self.latent_event_time = (
            None if latent_event_time is None else _frozen(latent_event_time, np.float64)
        )
        n = len(self.subject_id)
        for name in ("stratum_index", "arm", "enroll_time", "observed_time", "event"):
            if len(getattr(self, name)) != n:
                raise InvalidParameterError(f"{name} must have length {n}")

    @property
    def n_subjects(self) -> int:
        return len(self.subject_id)

    @property
    def events_observed(self) -> int:
        return int(self.event.sum())


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _binary(values: np.ndarray) -> np.ndarray:
    return (values == 0) | (values == 1)


def _checked(values, dtype, name, accept, rule) -> np.ndarray:
    """``values`` frozen as ``dtype`` if ``accept`` holds for each one as given."""
    raw = np.asarray(values)
    if not np.all(accept(raw)):
        raise InvalidParameterError(f"{name} values must {rule}")
    return _frozen(raw, dtype)


class TrialBatch(NamedTuple):
    """B generated trials of N subjects as (B, N) arrays named like the
    ``TrialDataset`` fields, whose subject ids are the positions 0..N-1, and
    the B analysis cutoffs."""

    stratum_index: np.ndarray
    arm: np.ndarray
    enroll_time: np.ndarray
    latent_event_time: np.ndarray
    observed_time: np.ndarray
    event: np.ndarray
    cutoff_calendar_time: np.ndarray


def generate_trials(
    design: TrialDesign, scenario: ScenarioSpec, generators: Iterable[np.random.Generator]
) -> TrialBatch:
    """Generate one trial per generator, each on its own stream, as (B, N) arrays.

    Each generator draws one (4, N) block of uniforms whose rows, in this
    fixed order (part of the determinism contract), set the trial's strata,
    arms, enrollment times and event times. Every later step acts row by row,
    so no trial depends on the others in its batch.
    """
    n = design.sample_size
    u_stratum, u_arm, u_enroll, u_event = np.stack(
        [gen.random((4, n)) for gen in generators], axis=1)

    cdf = np.cumsum(design.allocation_weights)
    strata = np.searchsorted(cdf, u_stratum * cdf[-1], side="right").astype(np.int64)
    arm = (u_arm < design.randomization_prob).astype(np.int8)
    enroll = design.accrual_months * u_enroll
    rates = control_rate_table(scenario)[strata]
    rates = np.where(arm == TREATMENT, rates * design.true_hr, rates)
    latent = -np.log(np.maximum(u_event, np.finfo(float).tiny)) / rates

    observed, event, cutoff = _censor_at_event(enroll, latent, design.target_events)
    return TrialBatch(strata, arm, enroll, latent, observed, event, cutoff)


def _censor_at_event(enroll: np.ndarray, latent: np.ndarray, target_events: int):
    """Censor each row's follow-up at the calendar time of its D-th event.

    A row's cutoff is its D-th smallest enroll + latent time, ties broken by
    subject position so that exactly D events result. Later events become
    censored at cutoff - enroll; subjects enrolled after the cutoff keep zero
    follow-up. Returns the (B, N) observed times and event flags and the (B,)
    cutoffs.
    """
    calendar = enroll + latent
    first = np.argsort(calendar, axis=1, kind="stable")[:, :target_events]
    cutoff = np.take_along_axis(calendar, first[:, -1:], axis=1)
    event = np.zeros(calendar.shape, dtype=bool)
    np.put_along_axis(event, first, True, axis=1)
    observed = np.where(event, latent, np.maximum(cutoff - enroll, 0.0))
    return observed, event, cutoff[:, 0]


def generate_trial(
    design: TrialDesign, scenario: ScenarioSpec, rng: "RngStream | np.random.Generator"
) -> TrialDataset:
    """Generate one complete trial dataset under the design and scenario.

    The one-trial case of ``generate_trials``: on the stream
    ``RngStream(master_seed, i)`` it is replicate i of a Monte Carlo run.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    batch = generate_trials(design, scenario, [gen])
    return TrialDataset(np.arange(design.sample_size),
                        **{field: values[0] for field, values in batch._asdict().items()})
