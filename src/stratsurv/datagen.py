"""Trial dataset generation: strata, randomization, enrollment, event times.

Generation is batched: ``generate_trials`` turns a (4, B, N) block of
uniforms, one (4, N) block per replicate stream, into (B, N) subject arrays
in one pass. A block's rows, in a fixed order, assign each subject a stratum
from the allocation weights, randomize it by an independent Bernoulli draw,
enroll it uniformly over the accrual window and give it an exponential latent
event time; each trial is then administratively censored at the calendar time
of its own D-th event. ``generate_trial`` is the one-trial case, wrapped in a
``TrialDataset`` that holds one read-only array per subject field.

Replicate i of a Monte Carlo run draws its block from
``RngStream(master_seed, i).generator()``, a ``SeedSequence`` -> ``PCG64`` ->
``Generator`` chain. The Monte Carlo path builds no ``SeedSequence`` per
replicate: ``stream_states`` hashes a whole batch's spawn keys at once.
numpy's ``SeedSequence`` mixes the seed; only the mixing of the spawn key and
``generate_state`` are transcribed, in numpy uint32 arithmetic. Then
``stream_uniforms`` hands each replicate's words to numpy's own ``PCG64``
seeding, through the ``ISeedSequence`` interface. The draws equal the
reference chain's bit for bit;
``tests/test_datagen.py::TestBatchedStreams`` holds them to it, so a numpy
release that changed the ``SeedSequence`` hash would fail it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .trial import STRATUM_COUNT, ScenarioSpec, TrialDesign, control_rate_table

TREATMENT = 1

# numpy's SeedSequence hash (bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class RngStream:
    """Recipe for one reproducible random stream.

    The same (seed, replicate_index) pair always yields the same generator,
    independent of execution order or how replicates are spread over workers.
    """

    seed: int
    replicate_index: int = 0

    def __post_init__(self):
        check_nonnegative_integer(self.seed, "seed")
        check_nonnegative_integer(self.replicate_index, "replicate_index")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.replicate_index,))
        return np.random.default_rng(seq)


def check_nonnegative_integer(value, name: str) -> None:
    """Raise InvalidParameterError unless ``value`` is a Python or numpy integer >= 0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise InvalidParameterError(f"{name} must be a nonnegative integer, got {value!r}")


def stream_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """The seed words of streams ``RngStream(seed, i)``, i in lo..hi-1, as a
    (hi - lo, 4) uint64 array: row i - lo is
    ``SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)``.

    numpy mixes the seed: ``SeedSequence(seed).pool`` is the pool after every
    seed word, as a spawned sequence holds it before its spawn key's word.
    This transcribes the rest of ``SeedSequence.mix_entropy``, which mixes the
    one spawn word of an index below 2**32 into every pool word, and
    ``generate_state``, with each uint32 word an array over the replicates
    (numpy wraps its products mod 2**32). A range past 2**32 is refused.
    """
    if hi > 1 << 32:
        raise InvalidParameterError(f"stream index {hi - 1} is past 2**32 - 1")
    word = np.arange(lo, hi, dtype=np.uint32)
    # (1,) arrays, not numpy scalars, whose wrapping products warn
    pool = list(np.random.SeedSequence(seed).pool[:, None])
    # the pool took one hashmix per pool word, one per ordered pair of distinct
    # pool words and _POOL_SIZE per seed word beyond the pool
    seed_words = max(1, (int(seed).bit_length() + 31) // 32)
    hashmixes = _POOL_SIZE ** 2 + _POOL_SIZE * max(0, seed_words - _POOL_SIZE)
    hash_const = _INIT_A * pow(_MULT_A, hashmixes, 1 << 32) & _MASK32

    for i_dst in range(_POOL_SIZE):
        value = word ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        value = _MIX_MULT_L * pool[i_dst] - _MIX_MULT_R * (value ^ value >> _XSHIFT)
        pool[i_dst] = value ^ value >> _XSHIFT

    hash_const = _INIT_B
    state = np.empty((hi - lo, 8), np.uint32)
    for i_dst in range(8):
        value = pool[i_dst % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        state[:, i_dst] = value ^ value >> _XSHIFT
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@cache
def _seed_words() -> type:
    """The class that hands a ``stream_states`` row to ``PCG64`` as its seed
    sequence, made on first use so that importing stratsurv leaves
    ``numpy.random`` unloaded. ``PCG64`` reads the words by their raw data
    pointer, so it may ask for the row's uint64 words and nothing else."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
                raise RuntimeError(f"PCG64 asked for {n_words} {np.dtype(dtype)} seed words")
            return self.words

    return SeedWords


def stream_uniforms(states: np.ndarray, n: int) -> np.ndarray:
    """The (4, B, N) uniform block of the B streams whose ``stream_states``
    rows are ``states``: row b of each (B, N) slice is drawn as
    ``RngStream(seed, i).generator().random((4, n))`` would draw it.

    Each row seeds its own ``PCG64`` through numpy's ``ISeedSequence`` interface.
    """
    states, seed_words = np.ascontiguousarray(states, dtype=np.uint64), _seed_words()
    block = np.empty((len(states), 4, n))
    for row, words in zip(block, states):
        np.random.Generator(np.random.PCG64(seed_words(words))).random(out=row)
    return block.transpose(1, 0, 2)


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
    design: TrialDesign, scenario: ScenarioSpec, uniforms: np.ndarray
) -> TrialBatch:
    """Generate B trials of N subjects as (B, N) arrays from (4, B, N) uniforms.

    Trial b reads the (4, N) block ``uniforms[:, b]``, drawn from its own
    stream, whose rows in this fixed order (part of the determinism contract)
    set its strata, arms, enrollment times and event times. Every step acts
    row by row, so no trial depends on the others in its batch.
    """
    u_stratum, u_arm, u_enroll, u_event = uniforms

    cdf = np.cumsum(design.allocation_weights)
    # a stratum is the count of cdf entries at or below u * total, which is
    # np.searchsorted(side="right"), summed in int8 over the 12 entries
    draw = u_stratum * cdf[-1]
    strata = np.zeros(draw.shape, dtype=np.int8)
    for edge in cdf:
        strata += edge <= draw
    strata = strata.astype(np.int64)
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
    subject position so that exactly D events result, as in the order of
    ``np.argsort(kind="stable")``. ``np.partition`` finds the cutoff, and
    every time at or before it is an event. Only a row whose cutoff value is
    tied (or NaN) needs the order itself: it takes its first D subjects in
    ``stable_argsort`` order. Later events become censored at cutoff - enroll;
    subjects enrolled after the cutoff keep zero follow-up. Returns the (B, N)
    observed times and event flags and the (B,) cutoffs.
    """
    calendar = enroll + latent
    d = target_events - 1
    cutoff = np.partition(calendar, d, axis=1)[:, d:d + 1]
    event = calendar <= cutoff
    tied = np.flatnonzero(np.count_nonzero(calendar == cutoff, axis=1) != 1)
    if tied.size:
        first = stable_argsort(calendar[tied])[:, :target_events]
        cutoff[tied] = calendar[tied[:, None], first[:, -1:]]
        event[tied] = False
        event[tied[:, None], first] = True
    observed = np.where(event, latent, np.maximum(cutoff - enroll, 0.0))
    return observed, event, cutoff[:, 0]


def stable_argsort(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, axis=-1, kind="stable")`` of a (B, N) float array,
    from numpy's default argsort.

    The default argsort (SIMD where the CPU has it) orders equal values
    arbitrarily. Where a row's sorted values hold no two equal neighbours
    (NaN equal to NaN, -0.0 to 0.0) its order is unique; otherwise every run
    of equal values is put back in position order by one sort of the unique
    keys ``run * N + position``, runs numbered along the flattened batch.
    ``tests/test_datagen.py::TestStableArgsort`` holds it to ``kind="stable"``.
    """
    order = np.argsort(values, axis=-1)
    ranked = np.take_along_axis(values, order, -1)
    # NaNs sort last, so a NaN's right neighbour is NaN too.
    tied = (ranked[..., 1:] == ranked[..., :-1]) | np.isnan(ranked[..., :-1])
    if not tied.any():
        return order
    starts = np.ones(order.shape, dtype=bool)
    starts[..., 1:] = ~tied
    base = (np.cumsum(starts, dtype=np.int64) - 1) * values.shape[-1]
    keys = np.sort(base + order.ravel())
    return (keys - base).reshape(order.shape)


def generate_trial(
    design: TrialDesign, scenario: ScenarioSpec, rng: "RngStream | np.random.Generator"
) -> TrialDataset:
    """Generate one complete trial dataset under the design and scenario.

    The one-trial case of ``generate_trials``: on the stream
    ``RngStream(master_seed, i)`` it is replicate i of a Monte Carlo run.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    batch = generate_trials(design, scenario, gen.random((4, design.sample_size))[:, None])
    return TrialDataset(np.arange(design.sample_size),
                        **{field: values[0] for field, values in batch._asdict().items()})
